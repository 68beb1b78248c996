"""Strang split-step integrators for the two evolutions.

Equations (upper sign defocusing, lower focusing):

    mkdv:  u_t + u_xxx + 3ik u_xx = +-6 |u|^2 (u_x + iku)
    nls:   i u_t + u_xx = +-2 |u|^2 u

mkdv is written in the frame of wave number k: the Galilei boost u^k of an
mkdv solution solves it, and k = 0 is mkdv itself.  A FlowSpec names the
equation, the sign and dt of a batch; only the frame's k varies across its
rows (`evolve_batch`'s `ks`).

The linear part is an exact Fourier multiplier.  Each step is symmetric
Strang: half linear, full nonlinear, half linear.  The nls nonlinear
substep is an exact phase rotation; the mkdv substep uses RK4
with spectral derivatives and a 2/3-rule dealiasing mask on every
product.

`evolve_batch` advances a batch of fields as (B, N) arrays, with FFTs
along the last axis.  Between snapshots the state stays spectral and the
trailing half-step of one step is fused with the leading half-step of the
next (first-same-as-last Strang).  An nls
step takes 2 FFTs, a mkdv step 8 transform calls.  Real data is invariant
under mkdv at k = 0, so the mkdv rows at k = 0 whose samples are exactly real step
on half spectra with rfft/irfft, where 6 u^2 u_x = 2 (u^3)_x: an RK4 stage
inverts its masked input, cubes it and differentiates it spectrally.  Other
rows step full spectra with fft/ifft, inverting a stage's masked input and
its derivative in one stacked call.  The RK4 work arrays are allocated once
per `evolve_batch` call, and the state is updated in place.  The blow-up
check is a per-row certificate on the spectral state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, GridSpec

EQUATIONS = ("nls", "mkdv")

BLOWUP_THRESHOLD = 1e6


class BlowUpError(RuntimeError):
    """A row's field became non-finite or exceeded BLOWUP_THRESHOLD."""

    def __init__(self, message, last_good_time=None, row=None):
        super().__init__(message)
        self.last_good_time = last_good_time
        self.row = row  # index of the row in its batch


@dataclass(frozen=True)
class FlowSpec:
    equation: str
    sign: str = "defocusing"  # +- sign of the nonlinearity
    dt: float = 1e-3

    def __post_init__(self):
        if self.equation not in EQUATIONS:
            raise ValueError(f"equation must be one of {EQUATIONS}, got {self.equation!r}")
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
        return 1j * (xi**3 + 3.0 * k * xi**2)
    if equation == "nls":
        return -1j * xi**2
    raise ValueError(f"unknown equation {equation!r}")


class _Stepper:
    """Fused Strang steps of a (B, N) batch on numpy's natural-order transforms.

    Every row evolves under the flow fs; row i in the frame of wave number ks[i],
    which enters only as a per-row multiplier and a (B, 1) k column.  The
    multipliers are diagonal, so the transform's order and scale cancel in a step.
    The complex kind steps full spectra with fft/ifft.  The real kind is for
    mkdv rows at k = 0 with real samples, which the flow keeps real: it steps the
    nonnegative half of each spectrum with rfft/irfft, on the same multipliers
    restricted to that half, and a stage forms the nonlinearity as 2 sigma (u^3)_x.
    Its rows' samples are real arrays.
    The state is the spectrum after a step's leading linear half-step, and `step`
    applies the nonlinear substep to it in place.  The caller fuses a step's
    trailing half-step with the next step's leading one into one full-step factor,
    and forms the physical field only at a snapshot (or when the blow-up
    certificate trips).
    """

    def __init__(self, grid: GridSpec, fs: FlowSpec, ks, real: bool = False):
        self.dt = fs.dt
        self.nls = fs.equation == "nls"
        self.n, self.real = grid.n, real
        xi = np.fft.ifftshift(grid.xi)
        if real:
            xi = xi[: grid.n // 2 + 1]  # rfft's half: xi >= 0, then the Nyquist entry
        self.half = np.exp(np.stack([dispersion_symbol(fs.equation, xi, k) for k in ks])
                           * self.dt / 2.0)
        self.half[:, grid.n // 2] = 0.0  # unpaired Nyquist mode breaks Hermitian symmetry
        self.full = self.half * self.half
        self.scale = np.max(np.abs(self.half), axis=-1) / grid.n  # the blow-up bound's factor
        self.mask = (np.abs(xi) <= grid.n // 3 * grid.dxi).astype(float)
        self.c_rot = -2j * fs.sigma
        if real:
            # sum |s| over the full spectrum: a half-spectrum entry other than 0 and
            # Nyquist stands for itself and its mirror
            self.weight = np.full(xi.size, 2.0)
            self.weight[[0, -1]] = 1.0
            # for real u, 6 sigma u^2 u_x = 2 sigma (u^3)_x: the masked derivative of the cube
            self.cube = 2.0 * fs.sigma * 1j * xi * self.mask
        else:
            # the mkdv nonlinearity is +-6 |u|^2 (u_x + iku)
            self.deriv = 6.0 * fs.sigma * 1j * (xi + np.asarray(ks, dtype=float)[:, None])
        if not self.nls:  # RK4 work arrays, reused by every step
            shape = (len(ks), xi.size)
            # a stage's masked input (the complex kind adds deriv times it: one inverse call)
            self.stack = np.empty((1 if real else 2, *shape), complex)
            self.slopes = np.empty((4, *shape), complex)  # k1..k4
            self.masked = np.empty(shape, complex)  # the masked state

    def forward(self, a: np.ndarray) -> np.ndarray:
        """The unscaled spectra of the rows of a, along its last axis."""
        return np.fft.rfft(a) if self.real else np.fft.fft(a)

    def inverse(self, s: np.ndarray) -> np.ndarray:
        """The samples of the spectra s, real arrays for the real kind."""
        return np.fft.irfft(s, self.n) if self.real else np.fft.ifft(s)

    def start(self, values: np.ndarray) -> np.ndarray:
        """The state of the (B, N) samples `values`: their spectra after a leading half-step."""
        return self.forward(values.real if self.real else values) * self.half

    def _nonlinear_rhs(self, out):
        """Write to out the masked spectrum of the nonlinear term at stack[0], a masked spectrum."""
        if self.real:
            v = np.fft.irfft(self.stack[0], self.n)
            v *= v * v
            np.multiply(np.fft.rfft(v), self.cube, out=out)
            return
        np.multiply(self.deriv, self.stack[0], out=self.stack[1])
        v, dv = np.fft.ifft(self.stack)
        w = v.real**2
        w += v.imag**2
        np.multiply(w, dv, out=dv)
        np.multiply(np.fft.fft(dv), self.mask, out=out)

    def step(self, s: np.ndarray) -> None:
        """The nonlinear substep, in place on the spectral state s."""
        dt = self.dt
        if self.nls:
            v = np.fft.ifft(s)
            s[...] = np.fft.fft(v * np.exp(self.c_rot * np.abs(v) ** 2 * dt))
            return
        x, k = self.stack[0], self.slopes
        np.multiply(s, self.mask, out=self.masked)
        x[...] = self.masked
        self._nonlinear_rhs(k[0])
        for j, c in ((1, 0.5 * dt), (2, 0.5 * dt), (3, dt)):
            # c k + s mask is (s + c k) mask: k is masked, so only signs of zeros may differ
            np.multiply(k[j - 1], c, out=x)
            x += self.masked
            self._nonlinear_rhs(k[j])
        # s + dt/6 (((k1 + 2 k2) + 2 k3) + k4), in that order
        k[1:3] *= 2.0
        k[0] += k[1]
        k[0] += k[2]
        k[0] += k[3]
        k[0] *= dt / 6.0
        s += k[0]

    def blown_up_row(self, s: np.ndarray):
        """First row whose physical field is non-finite or exceeds BLOWUP_THRESHOLD, else None.

        Under numpy's ifft, max|v| <= max|half| * sum|s| / N, summed over the full
        spectrum, and the sum carries NaN and inf (a NaN bound fails the scalar
        test); the physical field is formed only for rows where this bound trips.
        """
        bound = (np.abs(s) @ self.weight if self.real else np.abs(s).sum(-1)) * self.scale
        if bound.max() <= BLOWUP_THRESHOLD:
            return None
        for i in np.flatnonzero(~(bound <= BLOWUP_THRESHOLD)):
            v = self.inverse(s[i] * self.half[i])
            if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > BLOWUP_THRESHOLD:
                return int(i)
        return None


@dataclass
class Trajectory:
    times: list
    fields: list


def evolve_batch(fields, fs: FlowSpec, snapshot_times, ks=None) -> list[Trajectory]:
    """Run the flow fs from every field at once; one Trajectory per row.

    The rows share the grid.  Row i evolves in the frame of wave number ks[i]
    (default 0 for every row); ks must be finite, one per field, and 0 for nls.
    snapshot_times are elapsed times, nonnegative multiples of |dt|; dt < 0
    integrates backward.  The t = 0 snapshot is the input Field itself.

    The mkdv rows at k = 0 whose samples have imaginary part exactly 0 step as
    one group on half spectra (the real kind of _Stepper), every other row as a
    second group; a row's arithmetic depends only on that row.
    """
    ks = np.zeros(len(fields)) if ks is None else np.asarray(ks, dtype=float)
    if not fields or ks.shape != (len(fields),):
        raise ValueError(f"evolve_batch needs at least one field and one wave number "
                         f"per field, got {len(fields)} fields and ks of shape {ks.shape}")
    if not np.all(np.isfinite(ks)) or (fs.equation == "nls" and np.any(ks != 0)):
        raise ValueError(f"ks must be finite, and 0 for nls, got {ks.tolist()}")
    grid = fields[0].grid
    if any(u.grid != grid for u in fields):
        raise ValueError("batched rows must share the grid")
    snap = sorted(float(t) for t in snapshot_times)
    if snap and snap[0] < 0:
        raise ValueError("snapshot times must be nonnegative elapsed times")
    dt, sign = abs(fs.dt), np.sign(fs.dt)
    targets = {}
    for t in snap:
        n = int(round(t / dt))
        if abs(n * dt - t) > 1e-6 * dt:
            raise ValueError(f"snapshot time {t} is not a multiple of dt = {dt}")
        targets[n] = t

    real = [fs.equation == "mkdv" and k == 0 and np.all(u.values.imag == 0)
            for u, k in zip(fields, ks)]
    # (caller rows, stepper, state); the state is owned here: steps update it in
    # place, and snapshots are separate arrays
    groups = []
    for kind in (True, False):
        rows = [i for i, r in enumerate(real) if r == kind]
        if rows:
            stepper = _Stepper(grid, fs, ks[rows], real=kind)
            groups.append((rows, stepper, stepper.start(np.array([fields[i].values for i in rows]))))

    trajs = [Trajectory([], []) for _ in fields]

    def record(n, row_fields):
        for traj, f in zip(trajs, row_fields):
            traj.times.append(sign * n * dt)
            traj.fields.append(f)

    if 0 in targets:
        record(0, fields)
    n_last = max(targets, default=0)
    t_good = 0.0
    for n in range(1, n_last + 1):
        bad = []
        for rows, stepper, s in groups:
            stepper.step(s)
            i = stepper.blown_up_row(s)
            if i is not None:
                bad.append(rows[i])
        if bad:
            raise BlowUpError(
                f"blow-up in row {min(bad)} before step {n}; horizon unreached, "
                f"last good time {t_good}",
                last_good_time=t_good, row=min(bad),
            )
        t_good = sign * n * dt
        if n in targets:
            snapshot = [None] * len(fields)
            for rows, stepper, s in groups:
                for i, v in zip(rows, stepper.inverse(s * stepper.half)):
                    snapshot[i] = Field(grid, v)
            record(n, snapshot)
        if n < n_last:
            for _, stepper, s in groups:
                s *= stepper.full
    return trajs
