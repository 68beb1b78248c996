"""Reference evaluations that only the tests use.

Each one computes a quantity the package computes differently, without
sharing its code path, so the tests can cross-check the two: brute-force
sums, the quartic sum one term at a time, per-band masks, dense matrix powers,
the exact linear flow, and an RK4 substep that allocates a fresh array for
every stage.
"""

import math

import numpy as np

from modspec import Field
from modspec.conserved import DEFAULT_N_OP, _window
from modspec.flows import _Stepper, dispersion_symbol


def band_l2(f: Field, k: int) -> float:
    """L2 mass of the spectrum over the unit band I_k from a mask of its own, the
    reference for band_profile's run-based binning."""
    mask = f.grid.band_of == k
    return float(np.sqrt(np.sum(np.abs(f.spectrum[mask]) ** 2) * f.grid.dxi))


def quartic_integral_direct(f: Field, kappa: float) -> float:
    """The O(n^3) brute-force sum behind conserved.quartic_integral, for small grids."""
    g = f.grid
    fhat = f.spectrum
    D = 4.0 * kappa**2 + g.xi**2
    if g.n > 256:
        raise ValueError("direct quartic sum is O(n^3); use n <= 256 or conserved.quartic_integral")
    n = g.n
    total = 0.0 + 0j
    x2 = g.xi[:, None]
    x4 = g.xi[None, :]
    f2 = fhat[:, None]
    f4 = fhat[None, :]
    for i1 in range(n):
        x1 = g.xi[i1]
        i3 = np.rint((x4 - x1 + x2) / g.dxi).astype(int) + n // 2
        ok = (i3 >= 0) & (i3 < n)
        f3 = np.zeros((n, n), dtype=complex)
        f3[ok] = fhat.conj()[i3[ok]]
        W = (2.0 * kappa * (x1 * x2 + x1 * x4 + x2 * x4) - 8.0 * kappa**3) / (
            D[i1] * D[:, None] * D[None, :]
        )
        total += fhat.conj()[i1] * np.sum(W * f2 * f3 * f4)
    return float((total * g.dxi**3 / (2.0 * np.pi)).real)


def _linear_correlation(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """corr[l] = sum_j u[j] v[j - l] for lags l = -(n-1) .. n-1, zero padded."""
    n = len(u)
    m = 1 << (2 * n - 1).bit_length()
    w = np.fft.ifft(np.fft.fft(u, m) * np.fft.fft(v[::-1], m))[: 2 * n - 1]
    return w


def quartic_integral_per_term(f: Field, kappa: float) -> float:
    """conserved.quartic_integral with one pair of correlations per separable term,
    each transformed by its own 1-D calls; the package batches the same sums."""
    g = f.grid
    fhat = f.spectrum
    D = 4.0 * kappa**2 + g.xi**2
    a_xi = g.xi / D
    a_1 = 1.0 / D
    fb = fhat.conj()
    total = 0.0 + 0j
    for cst, a, b, c in (
        (2.0 * kappa, a_xi, a_xi, a_1),
        (2.0 * kappa, a_xi, a_1, a_xi),
        (2.0 * kappa, a_1, a_xi, a_xi),
        (-8.0 * kappa**3, a_1, a_1, a_1),
    ):
        P = _linear_correlation(a * fb, b * fhat)
        Q = _linear_correlation(c * fhat, fb)
        total += cst * np.sum(P * Q)
    return float((total * g.dxi**3 / (2.0 * np.pi)).real)


def beta2_gauss_legendre(f: Field, kappa: float, shift: float = 0.0) -> float:
    """The quadratic term of beta(kappa) from its own kernel, the reference for
    alpha2(kappa) - alpha2(2 kappa)/2: each cell [xi_j, xi_j + dxi) integrates
    24 kappa^3 / ((4 kappa^2 + z^2)(16 kappa^2 + z^2)), z = xi - shift, by 8-point
    Gauss-Legendre, weighted by |fhat_j|^2 and summed with math.fsum."""
    g = f.grid
    nodes, weights = np.polynomial.legendre.leggauss(8)
    z = (g.xi - shift)[:, None] + 0.5 * g.dxi * (nodes + 1.0)[None, :]
    kern = 24.0 * kappa**3 / ((4.0 * kappa**2 + z**2) * (16.0 * kappa**2 + z**2))
    cells = 0.5 * g.dxi * (kern @ weights)
    return math.fsum((np.abs(f.spectrum) ** 2 * cells).tolist())


def quadratic_trace_windowed(f: Field, kp, n_op: int = DEFAULT_N_OP,
                             center: float = 0.0, stride: int = 1) -> complex:
    """Independent evaluation of tr(A) on the same frequency window.

    Reorganizes the double sum over the convolution difference zeta, a
    multiple of h = stride * dxi: (2 pi)^-1 h^2 * sum_zeta |fhat(zeta)|^2 *
    sum_theta 1/((kappa - i theta)(kappa + i (theta - zeta))) over theta
    with both theta and theta - zeta inside the window.  Cross-checks the
    dense matrix construction without sharing its code path.
    """
    kappa = kp.kappa
    g = f.grid
    w = _window(g, n_op, center, stride)
    h = stride * g.dxi
    wlo, whi = w[0], w[-1]
    on = slice((g.n // 2) % stride, None, stride)  # the differences: lattice points h apart
    zeta = g.xi[on][:, None]
    theta = w[None, :]
    rest = theta - zeta
    ok = (rest >= wlo - 1e-9 * h) & (rest <= whi + 1e-9 * h)
    kern = np.where(ok, 1.0 / ((kappa - 1j * theta) * (kappa + 1j * rest)), 0.0)
    S = kern.sum(axis=1)
    tot = np.sum(np.abs(f.spectrum[on]) ** 2 * S)
    return complex(tot * h**2 / (2.0 * np.pi))


def hs_norm_sq(half: np.ndarray) -> float:
    """Entrywise |B|^2 sum, the squared Hilbert-Schmidt norm of the half operator B."""
    return float(np.sum(np.abs(half) ** 2))


def gram(op) -> np.ndarray:
    return op.half @ op.half.conj().T


def trace_powers(op, jmax: int) -> np.ndarray:
    """Re tr(A^j) for j = 1 .. jmax."""
    out = np.empty(jmax)
    P = op.matrix
    out[0] = np.trace(P).real
    for j in range(1, jmax):
        P = P @ op.matrix
        out[j] = np.trace(P).real
    return out


def alpha_series_partial_sums(op, jmax: int) -> np.ndarray:
    """Partial sums of the raw trace series of the window matrix, j = 1 .. jmax."""
    tp = trace_powers(op, jmax)
    j = np.arange(1, jmax + 1)
    if op.kp.defocusing:
        terms = (-1.0) ** (j - 1) * tp / j
    else:
        terms = tp / j
    return np.cumsum(terms)


def linear_propagator(u: Field, t: float, equation: str, k: float = 0.0) -> Field:
    spec = u.spectrum * np.exp(dispersion_symbol(equation, u.grid.xi, k) * t)
    return Field.from_spectrum(u.grid, spec)


class AllocatingSubstep:
    """The nonlinear substep with fresh arrays per stage, on a stepper's multipliers.

    Its arithmetic is the stepper's, written out of place: the package's work
    arrays and in-place updates must reproduce it bit for bit.  On a real-kind
    stepper it steps half spectra with rfft/irfft and takes the nonlinearity as
    2 sigma (u^3)_x, on a derivative symbol built here from the flow's sign and
    the lattice frequencies 0 .. N/2.
    """

    def __init__(self, stepper: _Stepper, grid, fs):
        self.dt, self.nls, self.mask = stepper.dt, stepper.nls, stepper.mask
        self.c_rot = stepper.c_rot
        self.real, self.n = stepper.real, stepper.n
        if self.real:
            xi = grid.dxi * np.arange(grid.n // 2 + 1)
            self.cube = 2.0 * fs.sigma * 1j * xi * self.mask
        else:
            self.deriv = stepper.deriv

    def _nonlinear_rhs(self, s):
        """Masked spectrum of the nonlinear term at the masked spectrum of s."""
        s = s * self.mask
        if self.real:
            v = np.fft.irfft(s, self.n)
            return np.fft.rfft(v * v * v) * self.cube
        v = np.fft.ifft(s)
        w = (v.real**2 + v.imag**2) * np.fft.ifft(self.deriv * s)
        return np.fft.fft(w) * self.mask

    def step(self, s: np.ndarray) -> np.ndarray:
        """The nonlinear substep of the state s: spectral in, spectral out."""
        dt = self.dt
        if self.nls:
            v = np.fft.ifft(s)
            return np.fft.fft(v * np.exp(self.c_rot * np.abs(v) ** 2 * dt))
        k1 = self._nonlinear_rhs(s)
        k2 = self._nonlinear_rhs(s + 0.5 * dt * k1)
        k3 = self._nonlinear_rhs(s + 0.5 * dt * k2)
        k4 = self._nonlinear_rhs(s + dt * k3)
        return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def fused_strang(fields, fs, ks, n_steps) -> np.ndarray:
    """(B, N) physical fields after n_steps fused Strang steps of the flow fs, row i
    in the frame of ks[i], substep by AllocatingSubstep.

    As in evolve_batch, the mkdv rows at k = 0 with exactly real samples step
    together on half spectra and the other rows on full spectra; rows keep the
    caller's order.
    """
    out = np.empty((len(fields), fields[0].grid.n), complex)
    ks = np.asarray(ks, dtype=float)
    real = np.array([fs.equation == "mkdv" and k == 0 and not np.any(u.values.imag)
                     for u, k in zip(fields, ks)])
    for rows in (np.flatnonzero(real), np.flatnonzero(~real)):
        if rows.size == 0:
            continue
        stepper = _Stepper(fields[0].grid, fs, ks[rows], real=bool(real[rows[0]]))
        substep = AllocatingSubstep(stepper, fields[0].grid, fs)
        values = np.array([fields[i].values for i in rows])
        if stepper.real:
            s = np.fft.rfft(values.real) * stepper.half
        else:
            s = np.fft.fft(values) * stepper.half
        for n in range(1, n_steps + 1):
            s = substep.step(s)
            if n < n_steps:
                s = s * stepper.full
        out[rows] = (np.fft.irfft(s * stepper.half, stepper.n) if stepper.real
                     else np.fft.ifft(s * stepper.half))
    return out


def equicontinuity_tail(profiles, mp, K: int) -> float:
    """sup over a family's band-profile rows of the l^p norm of the <k>^s-weighted
    band terms over |k| >= K, summed one band at a time in Python floats, each
    row scaled by its largest term so that no p-th power leaves the float range."""
    profiles = np.asarray(profiles, dtype=float)
    kmax = (profiles.shape[-1] - 1) // 2
    sup = 0.0
    for row in profiles:
        terms = [(4.0 + k * k) ** (mp.s / 2.0) * float(row[k + kmax])
                 for k in range(-kmax, kmax + 1) if abs(k) >= K]
        top = max(terms, default=0.0)
        if top > 0.0:
            sup = max(sup, top * math.fsum((t / top) ** mp.p for t in terms) ** (1.0 / mp.p))
    return sup
