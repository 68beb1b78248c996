"""Perturbation-determinant functionals of a field.

The conserved quantity evaluated here is the real part of the series

    sum_j ((-+1)^(j-1) / j) * tr(A^j),    A = R_-^(1/2) M_f R_+ M_fbar R_-^(1/2),

with resolvent symbols R_-+ = (kappa -+ d/dx)^(-1) and the upper sign for
the defocusing equations.  Summed in closed form this is
Re log det(I + A) (defocusing) resp. -Re log det(I - A) (focusing).

Three kinds of evaluation coexist and cross-check each other:

* an exact-cell quadrature for the quadratic term (alpha2) using the
  arctan antiderivative on the cells [xi_j, xi_j + dxi) -- exact for
  band-indicator spectra; the quadratic term of beta(kappa) is
  alpha2(kappa) - alpha2(2 kappa)/2;
* an FFT-accelerated quadrature for the quartic term: its correlations
  take one batched forward and one batched inverse transform call;
* a dense matrix discretization of A on a frequency window, whose
  log-determinant sums the whole series; build_operator forms it once, reads
  its certified radius bound, that log-determinant, its trace and the j >= 3
  remainder off it into the plain record OperatorPair, and frees it.

The matrix window necessarily truncates the resolvent lattice, which
perturbs the low-order traces by O(1/window).  alpha_terms is therefore
the one place that sums alpha: the window's j >= 3 remainder plus the
closed-form alpha2 and alpha4.

The window is a quadrature grid of its own, n_op lattice spacings wide;
at stride m it holds n_op // m frequencies m * dxi apart and may reach past
the field's lattice, where V reads the zero-padded spectrum.  The resolvent
kernels are analytic in a strip of half-width kappa, so the remainder
converges geometrically as the spacing shrinks, and alpha_terms takes the
coarsest stride whose remainder agrees with the one at twice that stride
and whose sub-lattice carries the spectrum.

The series converges only while rho(A) < 1, which build_operator certifies
once: by ||A||_F when that is below 1, else by a dense eigen-solve.  Where
it does not, the series has no value: log_det and alpha are NaN, and the
operator's radius_bound (>= 1) is the certificate.  What a NaN means is the
drivers' call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .flows import sign_factor
from .grid import ALIAS_EDGE_FRACTION, ALIAS_THRESHOLD, AliasingError, Field, GridSpec, fft, ifft
from .norms import bracket, check_kappa

DEFAULT_N_OP = 512
# the most window points: build_operator holds two m x m complex arrays (16 m^2 bytes
# each) and a quarter-array row block until it returns, 128 MiB plus the block at m = 2048
N_OP_CAP = 2048
ROW_BLOCKS = 4  # build_operator forms A in this many row blocks
MIN_N_OP = 4  # alpha_terms compares a window with its stride-2 sampling

# alpha_terms: the first stride tried, and the doubling gap it accepts relative
# to |alpha2 + alpha4|
FIRST_STRIDE = 8
STRIDE_RTOL = 1e-9


@dataclass(frozen=True)
class SpectralParameter:
    kappa: float
    sign: str = "defocusing"

    def __post_init__(self):
        check_kappa(self.kappa)
        sign_factor(self.sign)

    @property
    def sigma(self) -> float:
        """+1 defocusing, -1 focusing: the series' sign, that of the flow's nonlinearity."""
        return sign_factor(self.sign)


# ---------------------------------------------------------------------------
# closed-form quadratic terms

def _arctan_cells(xi: np.ndarray, dxi: float, kappa: float, shift: float = 0.0) -> np.ndarray:
    """Exact integrals of 2 kappa / (4 kappa^2 + (xi - shift)^2) over the cells."""
    z = xi - shift
    return np.arctan((z + dxi) / (2.0 * kappa)) - np.arctan(z / (2.0 * kappa))


def alpha2(f: Field, kappa: float, shift: float = 0.0) -> float:
    """Quadratic term: 2 kappa * integral |fhat|^2 / (4 kappa^2 + z^2) dxi, z = xi - shift.

    The kernel is integrated exactly over each lattice cell, so band
    indicators evaluate to the arctan closed form to machine precision.
    shift = k gives alpha2 of the Galilei-boosted field u^k, evaluated
    without boosting: |u^k-hat(xi)| = |uhat(xi + k)|.  By partial fractions
    alpha2(kappa) - alpha2(2 kappa)/2 is the quadratic term of beta,
    24 kappa^3 * integral |fhat|^2 / ((4 kappa^2 + z^2)(16 kappa^2 + z^2)) dxi.
    """
    check_kappa(kappa)
    g = f.grid
    return float(np.sum(np.abs(f.spectrum) ** 2 * _arctan_cells(g.xi, g.dxi, kappa, shift)))


# ---------------------------------------------------------------------------
# quartic term

def _check_aliasing(f: Field):
    g = f.grid
    edge = np.abs(g.xi) >= (1.0 - ALIAS_EDGE_FRACTION) * (g.n // 2) * g.dxi
    total = float(np.sum(np.abs(f.spectrum) ** 2))
    if total == 0.0:
        return
    frac = float(np.sum(np.abs(f.spectrum[edge]) ** 2) / total)
    if frac > ALIAS_THRESHOLD:
        raise AliasingError(
            f"spectral mass fraction {frac:.2e} within {ALIAS_EDGE_FRACTION:.0%} of the "
            f"lattice boundary exceeds {ALIAS_THRESHOLD:.0e}"
        )


def quartic_integral(f: Field, kappa: float) -> float:
    """Symmetrized quartic frequency integral

        Re (2 pi)^-1 * sum [2k(x1 x2 + x1 x4 + x2 x4) - 8 k^3]
              * conj(fhat(x1) fhat(x3)) fhat(x2) fhat(x4) / (D1 D2 D4),

    over lattice triples with x4 = x1 - x2 + x3 and D_i = 4 k^2 + x_i^2.
    The weight factors into four separable terms, which reduces the triple sum
    to linear cross-correlations corr(u, v)[l] = sum_j u[j] v[j - l], zero
    padded: term i is cst_i * sum corr(a_i fbar, b_i fhat) corr(c_i fhat, fbar).
    The correlations have 7 distinct inputs, zero-padded to length m and
    transformed in one call, and 6 distinct products, inverted in one more.
    """
    check_kappa(kappa)
    g = f.grid
    n = g.n
    m = 1 << (2 * n - 1).bit_length()
    fhat = f.spectrum
    D = 4.0 * kappa**2 + g.xi**2
    a_xi = g.xi / D
    a_1 = 1.0 / D
    fb = fhat.conj()
    # rows: 0 a_xi fbar, 1 a_1 fbar, 2 a_xi fhat, 3 a_1 fhat, then the reversed
    # second arguments 4 (a_xi fhat)[::-1], 5 (a_1 fhat)[::-1], 6 fbar[::-1]
    ins = np.array([a_xi * fb, a_1 * fb, a_xi * fhat, a_1 * fhat])
    F = fft(np.concatenate([ins, ins[2:, ::-1], fb[None, ::-1]]), np.empty((7, m), complex))
    # P for (a, b) = (a_xi, a_xi), (a_xi, a_1), (a_1, a_xi), (a_1, a_1), then Q for c = a_1, a_xi
    pairs = ((0, 4), (0, 5), (1, 4), (1, 5), (3, 6), (2, 6))
    corr = ifft(np.array([F[i] * F[j] for i, j in pairs]), np.empty((6, m), complex))
    corr = corr[:, : 2 * n - 1]
    total = 0.0 + 0j
    for cst, p, q in ((2.0 * kappa, 0, 4), (2.0 * kappa, 1, 5), (2.0 * kappa, 2, 5),
                      (-8.0 * kappa**3, 3, 4)):
        total += cst * np.sum(corr[p] * corr[q])
    return float((total * g.dxi**3 / (2.0 * np.pi)).real)


def alpha4(f: Field, kp: SpectralParameter) -> float:
    """Quartic term of the determinant series, matching -+ Re tr(A^2)/2."""
    _check_aliasing(f)
    q = quartic_integral(f, kp.kappa)
    return kp.sigma * q


# ---------------------------------------------------------------------------
# dense operator window

@dataclass(frozen=True)
class OperatorPair:
    """The numbers build_operator reads once off the window discretization of A
    for one sign; neither A nor B is kept.

    A = B D V^H S with B the half operator of half_operator, whose entrywise HS
    norm controls the series.  A is similar to B Bbar in structure; for real f
    its spectrum is real and nonnegative.
    `radius_bound` certifies rho(A): ||A||_F (>= ||A||_2 >= rho) when below 1,
    else the exact max |eigenvalue|, so it is >= 1 exactly when rho is.
    `log_det` is Re log det(I + A), or -Re log det(I - A) when focusing: the
    whole series of the window matrix, NaN when radius_bound does not certify
    rho(A) < 1 (the series diverges) or the determinant vanishes.  `trace` is
    tr A, and `remainder` the j >= 3 terms: log_det minus the j = 1, 2 trace
    terms.  `stride` is the window's spacing in lattice points; the operator
    alpha_terms returns carries `doubling_gap`, |remainder - remainder at twice
    the stride| it accepted.
    """

    radius_bound: float
    log_det: float
    trace: complex
    remainder: float
    stride: int = 1
    doubling_gap: float | None = None


def _window(g: GridSpec, n_op: int, center: float, stride: int = 1) -> np.ndarray:
    """The frequencies of a window n_op lattice points wide sampled at `stride`:
    n_op // stride points spaced stride * dxi apart, the middle one at the lattice
    point nearest `center`.  The window may extend past the field's lattice."""
    m = n_op // stride
    if m > N_OP_CAP:
        raise ValueError(f"window of {m} points exceeds the dense-matrix cap {N_OP_CAP}")
    return g.dxi * (np.rint(center / g.dxi) + stride * np.arange(-(m // 2), m - m // 2))


def half_operator(f: Field, kp: SpectralParameter, n_op: int = DEFAULT_N_OP,
                  center: float = 0.0, stride: int = 1) -> tuple:
    """(B, V, s_minus, d_half): the window discretization of the half operator
    B = (kappa - d)^(-1/2) M_f (kappa + d)^(-1/2) and its factors, B = S V D with
    S, D the diagonals s_minus = (kappa - i w)^(-1/2), d_half = (kappa + i w)^(-1/2)
    on the window frequencies w and V the Toeplitz matrix of fhat.

    Multiplication by f acts as discrete convolution with fhat; the
    resolvent square roots take the principal branch, positive at
    frequency zero.  The window is n_op lattice points wide, centred at
    `center`, which helps spectra concentrated away from the origin, and
    sampled at `stride`: the matrices hold n_op // stride frequencies.
    N_OP_CAP is the memory budget on that size.  B costs O(m^2) and is one
    m x m array, S V scaled in place by D; A, which build_operator forms from
    these factors, costs an m^3 product.
    """
    g = f.grid
    w = _window(g, n_op, center, stride)
    m = len(w)
    # V is Toeplitz, V[i, j] = fhat[n/2 + stride (i - j)], zero off the lattice: a
    # strided view of the zero-padded spectrum, reversed along j
    span = stride * m
    v = np.pad(f.spectrum, span)[g.n // 2 + span - stride * (m - 1)::stride][: 2 * m - 1]
    V = sliding_window_view(v * (stride * g.dxi / np.sqrt(2.0 * np.pi)), m)[:, ::-1]
    s_minus = (kp.kappa - 1j * w) ** -0.5
    d_half = (kp.kappa + 1j * w) ** -0.5
    B = s_minus[:, None] * V
    B *= d_half
    return B, V, s_minus, d_half


def build_operator(f: Field, kp: SpectralParameter, n_op: int = DEFAULT_N_OP,
                   center: float = 0.0, stride: int = 1) -> OperatorPair:
    """Dense window discretization of the sandwiched operator A = B D V^H S on
    half_operator's window and factors, with its certified radius bound, and its
    log-determinant, trace and j >= 3 remainder for kp's sign.

    The left factor B D is B's own array scaled in place, and the right factor
    is (S V-bar)^T.  Row r of A reads only row r of the left factor, so A is
    formed over the left factor's array ROW_BLOCKS row blocks at a time through
    one block buffer: the product holds two m x m arrays and one block.  The
    trace and the product A * A^T that sums tr(A^2) are read off A next; then
    sigma is added to A's diagonal, and the log-determinant, A's last reader,
    holds A and slogdet's copy.  A is freed on return."""
    left, V, s_minus, d_half = half_operator(f, kp, n_op, center, stride)
    left *= d_half
    right = V.conj()
    right *= s_minus[:, None]
    m = len(left)
    # every block has two rows or more: a one-row product runs as gemv, whose
    # bits differ from the one-call zgemm's
    blocks = max(1, min(ROW_BLOCKS, m // 2))
    edges = [m * i // blocks for i in range(blocks + 1)]
    block = np.empty((edges[-1] - edges[-2], m), complex)  # the last block is the largest
    for r0, r1 in zip(edges, edges[1:]):
        out = block[: r1 - r0]
        np.matmul(left[r0:r1], right.T, out=out)
        left[r0:r1] = out
    A = left
    del right, block, out  # an eigen-solve below copies A: hold only A beside it
    bound = float(np.linalg.norm(A))
    if bound >= 1.0:
        bound = float(np.max(np.abs(np.linalg.eigvals(A))))
    trace = complex(np.trace(A))
    low = trace.real - (0.5 * kp.sigma) * complex(np.sum(A * A.T)).real  # the j <= 2 terms
    logdet = np.nan
    if bound < 1.0:
        A.flat[:: m + 1] += kp.sigma  # sigma = -1: A - I is -(I - A), slogdet(I - A)'s bits
        logdet = float(kp.sigma * np.linalg.slogdet(A)[1])
    logdet = logdet if np.isfinite(logdet) else np.nan
    return OperatorPair(bound, logdet, trace, logdet - low, stride)


# ---------------------------------------------------------------------------
# full series

def alpha_terms(f: Field, kp: SpectralParameter, n_op: int = DEFAULT_N_OP,
                center: float = 0.0) -> tuple:
    """(alpha, alpha2, alpha4, op): alpha(kappa) is the window's j >= 3 remainder
    plus the closed-form alpha2 and alpha4, which replace the matrix's own j <= 2
    terms and so remove their O(1/window) truncation bias.

    The window, n_op lattice points wide, is sampled at stride m, starting from
    FIRST_STRIDE: m is accepted once its remainder is within
    STRIDE_RTOL * |alpha2 + alpha4| of the one at 2m and the stride-m sub-lattice
    through 0, weighted by m, carries the spectrum's whole mass to within
    ALIAS_THRESHOLD; else m halves, down to 1.  op.stride is the accepted m.
    A window that does not certify rho(A) < 1 has a NaN remainder, which no
    doubling test accepts, so divergence sends m down to 1; there alpha is NaN
    and op.radius_bound >= 1."""
    if n_op < MIN_N_OP:
        raise ValueError(f"n_op = {n_op} is below {MIN_N_OP}: no stride-2 comparison runs")
    a2 = alpha2(f, kp.kappa)
    a4 = alpha4(f, kp)
    tol = STRIDE_RTOL * abs(a2 + a4)
    power = np.abs(f.spectrum) ** 2
    mass = float(np.sum(power))

    def sublattice_holds(m):  # V at stride m reads fhat on this sub-lattice only
        sub = m * float(np.sum(power[(f.grid.n // 2) % m::m]))
        return abs(sub - mass) <= ALIAS_THRESHOLD * mass

    m = FIRST_STRIDE
    while n_op < 4 * m:  # the 2m window keeps at least two points
        m //= 2
    coarse = build_operator(f, kp, n_op, center, 2 * m).remainder
    while True:
        op = build_operator(f, kp, n_op, center, m)
        gap = abs(op.remainder - coarse)
        if m == 1 or (gap <= tol and sublattice_holds(m)):
            break
        coarse, m = op.remainder, m // 2
    return op.remainder + (a2 + a4), a2, a4, replace(op, doubling_gap=gap)


def tail_bound(f: Field, k: float) -> float:
    """integral log(<xi - k>)/<xi - k> |fhat|^2 dxi; its square dominates the quartic-and-up
    tail at boost k and its cube the sextic-and-up tail."""
    g = f.grid
    br = bracket(g.xi - k)
    return float(np.sum(np.log(br) / br * np.abs(f.spectrum) ** 2) * g.dxi)
