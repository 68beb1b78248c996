"""Modulation, Sobolev, and resolvent-weighted norms on gridded fields.

The modulation norm with exponent pair (p, s) is the l^p sum over unit
frequency bands of <k>^s-weighted band L2 masses, where <x> = sqrt(4 + x^2)
is the nonvanishing bracket used throughout this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, band_profile


def bracket(x):
    """Nonvanishing bracket <x> = (4 + |x|^2)**(1/2); <0> = 2."""
    return np.sqrt(4.0 + np.abs(x) ** 2)


def lp_norm(terms, p: float):
    """(sum terms**p)**(1/p) over the last axis: the l^p sum of nonnegative band terms."""
    return np.sum(np.asarray(terms, dtype=float) ** p, axis=-1) ** (1.0 / p)


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


def modulation_norm(f: Field, mp: ModulationParams, weights: np.ndarray | None = None) -> float:
    """l^p over resolved bands of c_k <k>^s band_l2(f, k); c == 1 when absent.

    `weights` must supply one value per resolved band, ordered
    k = -kmax .. kmax (a WeightSequence.as_array(grid) does).
    """
    kmax = f.grid.kmax
    prof = band_profile(f)
    ks = np.arange(-kmax, kmax + 1)
    terms = bracket(ks) ** mp.s * prof
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != terms.shape:
            raise ValueError(
                f"weights must cover all {2 * kmax + 1} resolved bands, got {weights.shape}"
            )
        terms = weights * terms
    return float(lp_norm(terms, mp.p))


def sobolev_norm(f: Field, sigma: float) -> float:
    """(sum <xi>^(2 sigma) |fhat|^2 dxi)**(1/2) over the lattice."""
    g = f.grid
    return float(
        np.sqrt(np.sum(bracket(g.xi) ** (2.0 * sigma) * np.abs(f.spectrum) ** 2) * g.dxi)
    )


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
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    g = f.grid
    w = np.log(4.0 + g.xi**2 / kappa**2) / np.sqrt(4.0 * kappa**2 + g.xi**2)
    return float(np.sum(w * np.abs(f.spectrum) ** 2) * g.dxi)
