"""Strang split-step integrators for the three evolutions.

Equations (upper sign defocusing, lower focusing):

    mkdv:      u_t + u_xxx = +-6 |u|^2 u_x
    nls:       i u_t + u_xx = +-2 |u|^2 u
    mkdv_nls:  u_t + u_xxx + 3ik u_xx = +-6 |u|^2 u_x +- 6ik |u|^2 u

The linear part is an exact Fourier multiplier.  Each step is symmetric
Strang: half linear, full nonlinear, half linear.  The nls nonlinear
substep is an exact phase rotation; the mkdv and mixed substeps use RK4
with spectral derivatives and a 2/3-rule dealiasing mask on every
product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, GridSpec, forward_transform, inverse_transform

EQUATIONS = ("nls", "mkdv", "mkdv_nls")

BLOWUP_THRESHOLD = 1e6


class BlowUpError(RuntimeError):
    def __init__(self, message, last_good_time=None):
        super().__init__(message)
        self.last_good_time = last_good_time


@dataclass(frozen=True)
class FlowSpec:
    equation: str
    sign: str = "defocusing"  # +- sign of the nonlinearity
    dt: float = 1e-3
    k: float = 0.0  # boost wave number; only used by mkdv_nls
    dealias: bool = True

    def __post_init__(self):
        if self.equation not in EQUATIONS:
            raise ValueError(f"equation must be one of {EQUATIONS}")
        if self.sign not in ("defocusing", "focusing"):
            raise ValueError("sign must be 'defocusing' or 'focusing'")
        if self.dt == 0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be nonzero and finite, got {self.dt}")

    @property
    def sigma(self) -> float:
        return 1.0 if self.sign == "defocusing" else -1.0


def dispersion_symbol(equation: str, xi: np.ndarray, k: float = 0.0) -> np.ndarray:
    """Multiplier m(xi) with uhat(t) = exp(m t) uhat(0) for the linear flow."""
    if equation == "mkdv":
        return 1j * xi**3
    if equation == "nls":
        return -1j * xi**2
    if equation == "mkdv_nls":
        return 1j * (xi**3 + 3.0 * k * xi**2)
    raise ValueError(f"unknown equation {equation!r}")


def linear_propagator(u: Field, t: float, equation: str, k: float = 0.0) -> Field:
    spec = u.spectrum * np.exp(dispersion_symbol(equation, u.grid.xi, k) * t)
    return Field.from_spectrum(u.grid, spec)


class _Stepper:
    """Precomputed multipliers for repeated Strang steps on one grid."""

    def __init__(self, grid: GridSpec, fs: FlowSpec):
        self.grid = grid
        self.fs = fs
        self.half = np.exp(dispersion_symbol(fs.equation, grid.xi, fs.k) * fs.dt / 2.0)
        j = np.arange(-grid.n // 2, grid.n // 2)
        self.mask = (np.abs(j) <= grid.n // 3).astype(float) if fs.dealias else np.ones(grid.n)
        self.ixi = 1j * grid.xi

    def _fwd(self, v):
        return forward_transform(v, self.grid)

    def _inv(self, s):
        return inverse_transform(s, self.grid)

    def _nonlinear_rhs(self, v):
        fs = self.fs
        vs = self._fwd(v) * self.mask
        vv = self._inv(vs)
        dv = self._inv(self.ixi * vs)
        w = 6.0 * fs.sigma * np.abs(vv) ** 2 * dv
        if fs.equation == "mkdv_nls":
            w = w + 6j * fs.k * fs.sigma * np.abs(vv) ** 2 * vv
        return self._inv(self._fwd(w) * self.mask)

    def step(self, v: np.ndarray) -> np.ndarray:
        fs = self.fs
        dt = fs.dt
        v = self._inv(self._fwd(v) * self.half)
        if fs.equation == "nls":
            v = v * np.exp(-2j * fs.sigma * np.abs(v) ** 2 * dt)
        else:
            k1 = self._nonlinear_rhs(v)
            k2 = self._nonlinear_rhs(v + 0.5 * dt * k1)
            k3 = self._nonlinear_rhs(v + 0.5 * dt * k2)
            k4 = self._nonlinear_rhs(v + dt * k3)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return self._inv(self._fwd(v) * self.half)


@dataclass
class Trajectory:
    times: list
    fields: list
    observations: list  # one dict per snapshot


def evolve(u0: Field, fs: FlowSpec, snapshot_times, observers=()) -> Trajectory:
    """Run the flow, capturing snapshots and observer values.

    snapshot_times are elapsed times, nonnegative multiples of |dt|;
    fs.dt < 0 integrates backward.  Each observer is a callable
    (t, Field) -> dict of scalars, evaluated per snapshot.
    """
    snap = sorted(float(t) for t in snapshot_times)
    if snap and snap[0] < 0:
        raise ValueError("snapshot times must be nonnegative elapsed times")
    stepper = _Stepper(u0.grid, fs)
    dt = abs(fs.dt)
    targets = {}
    for t in snap:
        n = int(round(t / dt))
        if abs(n * dt - t) > 1e-6 * dt:
            raise ValueError(f"snapshot time {t} is not a multiple of dt = {dt}")
        targets[n] = t

    times, fields, obs = [], [], []

    def record(n, v):
        t_signed = np.sign(fs.dt) * n * dt
        f = Field(u0.grid, v.copy())
        times.append(t_signed)
        fields.append(f)
        row = {}
        for fn in observers:
            row.update(fn(t_signed, f))
        obs.append(row)

    v = np.array(u0.values)
    if 0 in targets:
        record(0, v)
    n_last = max(targets) if targets else 0
    t_good = 0.0
    for n in range(1, n_last + 1):
        v = stepper.step(v)
        if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > BLOWUP_THRESHOLD:
            raise BlowUpError(
                f"blow-up before step {n}; horizon unreached, last good time {t_good}",
                last_good_time=t_good,
            )
        t_good = np.sign(fs.dt) * n * dt
        if n in targets:
            record(n, v)
    return Trajectory(times, fields, obs)
