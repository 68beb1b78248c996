"""Modulation, Sobolev, and resolvent-weighted norms on gridded fields.

The modulation norm with exponent pair (p, s) is the l^p sum over unit
frequency bands of <k>^s-weighted band L2 masses, where <x> = sqrt(4 + x^2)
is the nonvanishing bracket used throughout this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, GridSpec, spectral_power


KAPPA_MAX = 1e102  # the largest kappa: the quadratures' 8 kappa^3 overflows past 2.8e102
_TINY = np.finfo(float).tiny  # the smallest normal float64


def check_kappa(kappa: float) -> None:
    """Reject a spectral parameter outside (0, KAPPA_MAX] (NaN included)."""
    if not 0 < kappa <= KAPPA_MAX:
        raise ValueError(f"kappa must be positive and at most {KAPPA_MAX:g}, got {kappa}")


def bracket(x):
    """Nonvanishing bracket <x> = (4 + |x|^2)**(1/2); <0> = 2."""
    return np.sqrt(4.0 + np.abs(x) ** 2)


def lp_norm(terms, p: float):
    """(sum terms**p)**(1/p) over the last axis: the l^p sum of nonnegative band terms.

    A row whose sum leaves the float64 normal range (it underflows below the
    smallest normal number or overflows to inf) while its largest term m is
    finite and nonzero is summed as m * (sum (terms/m)**p)**(1/p) instead, so
    large p or huge terms neither vanish nor blow up; every other row keeps
    the plain form, bit for bit.  At p = 1 the terms are summed as they are,
    with no temporary of their size.
    """
    terms = np.asarray(terms, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing row is redone below
        total = np.sum(terms if p == 1 else terms**p, axis=-1)
    norm = total ** (1.0 / p)
    top = np.max(terms, axis=-1, initial=0.0)
    redo = ~((total >= _TINY) & (total < np.inf)) & (top > 0.0) & (top < np.inf)
    if not np.any(redo):
        return norm
    m = np.where(redo, top, 1.0)
    rescaled = m * np.sum((terms / m[..., None]) ** p, axis=-1) ** (1.0 / p)
    return np.where(redo, rescaled, norm)


@dataclass(frozen=True)
class ModulationParams:
    """Exponent pair (p, s) with validity flags for the supported ranges."""

    p: float
    s: float

    def __post_init__(self):
        if not (1.0 <= self.p < np.inf):
            raise ValueError(f"p must be finite and >= 1, got {self.p}")
        if not (self.s >= 0.0):
            raise ValueError(f"s must be >= 0, got {self.s}")

    @property
    def main_range(self) -> bool:
        """s < 3/2 - 1/p, the range of the global-bound experiments."""
        return self.s < 1.5 - 1.0 / self.p

    @property
    def equiv_range(self) -> bool:
        """s < 2 - 1/p, the range where the quadratic-functional norm applies."""
        return self.s < 2.0 - 1.0 / self.p


def band_terms(prof: np.ndarray, mp: ModulationParams, weights: np.ndarray | None = None):
    """c_k <k>^s prof_k over the resolved bands k = -kmax .. kmax; c == 1 when absent.

    `prof` is a band_profile or a stack of them (bands along the last axis),
    and `weights` must supply one value per band.  At s = 0 with no weights the
    terms are `prof` itself, not a copy.
    """
    prof = np.asarray(prof, dtype=float)
    kmax = (prof.shape[-1] - 1) // 2
    terms = prof if mp.s == 0 else bracket(np.arange(-kmax, kmax + 1)) ** mp.s * prof
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != terms.shape[-1:]:
            raise ValueError(
                f"weights must cover all {2 * kmax + 1} resolved bands, got {weights.shape}"
            )
        terms = weights * terms
    return terms


def profile_norm(prof: np.ndarray, mp: ModulationParams, weights: np.ndarray | None = None):
    """The modulation norm of the field whose band_profile is `prof`: l^p over
    the resolved bands of band_terms(prof, mp, weights).  The profile does not
    depend on (p, s), so a caller can take it once and reduce it per pair.

    A stack of profiles (bands along the last axis) gives one norm per row, in
    one pass; a single profile gives a float.  At (p, s) = (1, 0) with no
    weights no temporary the size of the profile is made, and each stacked row
    equals that row's own norm bit for bit (elsewhere an elementwise x**p may
    round its last bit differently across array layouts).  `weights` must
    supply one value per resolved band, ordered k = -kmax .. kmax (a
    WeightSequence.as_array() does).
    """
    norm = lp_norm(band_terms(prof, mp, weights), mp.p)
    return norm if norm.ndim else float(norm)


def sobolev_norm(f: Field | np.ndarray, sigma: float, grid: GridSpec | None = None):
    """(sum <xi>^(2 sigma) |fhat|^2 dxi)**(1/2) over the lattice.

    `f` is a Field (a float is returned) or a (..., n) array of |fhat|^2 on
    `grid` (one norm per row).  The weighted sum is one contraction of the power
    against the weight, so no temporary the size of the power array is made, and
    a stacked row equals the norm of that row alone bit for bit.
    """
    power, g = spectral_power(f, grid)
    norm = np.sqrt(np.einsum("...i,i->...", power, bracket(g.xi) ** (2.0 * sigma)) * g.dxi)
    return norm if norm.ndim else float(norm)


EMBEDDING_MARGIN = 1.0 / 100.0


def admissible_sigma(mp: ModulationParams) -> float:
    """A Sobolev index sigma > -1/2 whose norm the (p, s) modulation norm controls.

    For p <= 2 the closed condition sigma <= s allows sigma = s; for p > 2 the
    condition is the open inequality sigma < s - 1/2 + 1/p, met with a fixed
    margin of 1/100.
    """
    if mp.p <= 2.0:
        sigma = mp.s
    else:
        sigma = mp.s - 0.5 + 1.0 / mp.p - EMBEDDING_MARGIN
    if not sigma > -0.5:
        raise ValueError(f"no admissible sigma > -1/2 for (p, s) = ({mp.p}, {mp.s})")
    return sigma


def hs_functional(f: Field, kappa: float) -> float:
    """integral log(4 + xi^2/kappa^2) |fhat|^2 / sqrt(4 kappa^2 + xi^2) dxi.

    Controls the Hilbert-Schmidt size of the resolvent-sandwiched
    multiplication operator; the determinant series converges when this
    is small.
    """
    check_kappa(kappa)
    g = f.grid
    w = np.log(4.0 + g.xi**2 / kappa**2) / np.sqrt(4.0 * kappa**2 + g.xi**2)
    return float(np.sum(w * np.abs(f.spectrum) ** 2) * g.dxi)
