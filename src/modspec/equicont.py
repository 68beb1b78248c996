"""Equicontinuity tails and the sub-logarithmic weight construction.

A bounded family is equicontinuous when its high-band l^p tails vanish
uniformly.  That is certified by symmetric weights c_k >= 1 growing
slowly enough that the weighted norms stay within a factor 2 of the
unweighted supremum: thresholds k(1) < k(2) < ... are chosen greedily so
that the tail beyond k(m) is at most 2^-m of the family bound (in p-th
powers) with 4x spacing, and c_k counts the thresholds below |k|,

    c_k = (#{m : k(m) < |k|} + 1)^(1/p).

The greedy search starts at k(1) >= 2; together with the 4x spacing this
makes the growth cap c_k <= 1 + log(|k| + 1) hold exactly at every k, not
just asymptotically (2 * 4^(m-1) <= k(m) gives c_k^p <= log_4(|k|/2) + 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import band_profile
from .norms import ModulationParams, bracket, lp_norm


class NotEquicontinuousError(RuntimeError):
    """The family's tail does not reach the floor inside the resolved window."""


EDGE_FLOOR_RATIO = 1e-8


@dataclass
class FieldFamily:
    members: list
    mp: ModulationParams

    def __post_init__(self):
        if not self.members:
            raise ValueError("family must have at least one member")
        g = self.members[0].grid
        if any(m.grid != g for m in self.members):
            raise ValueError("family members must share one grid")

    @property
    def grid(self):
        return self.members[0].grid

    def band_terms(self) -> np.ndarray:
        """<k>^s band_l2 profile per member, shape (len(members), 2 kmax + 1)."""
        kmax = self.grid.kmax
        ks = np.arange(-kmax, kmax + 1)
        wk = bracket(ks) ** self.mp.s
        return np.array([wk * band_profile(f) for f in self.members])


def _sup_lp(terms: np.ndarray, p: float) -> float:
    """Largest l^p norm over the rows (members) of a band-term array."""
    return float(np.max(lp_norm(terms, p)))


def _sup_tail(terms: np.ndarray, kmax: int, K: int, p: float) -> float:
    mask = np.abs(np.arange(-kmax, kmax + 1)) >= K
    if not mask.any():
        return 0.0
    return _sup_lp(terms[:, mask], p)


@dataclass(frozen=True)
class WeightSequence:
    """Symmetric sub-logarithmic weights c_k with their threshold provenance."""

    thresholds: tuple
    p: float
    kmax: int

    def count_below(self, k) -> np.ndarray:
        k = np.abs(np.asarray(k))
        th = np.asarray(self.thresholds)
        if th.size == 0:
            return np.zeros(k.shape, dtype=int)
        return np.sum(th[None, :] < k[..., None], axis=-1)

    def c_of(self, k) -> np.ndarray:
        return (self.count_below(k) + 1.0) ** (1.0 / self.p)

    def as_array(self) -> np.ndarray:
        """c_k over the resolved bands, ordered k = -kmax .. kmax."""
        return self.c_of(np.arange(-self.kmax, self.kmax + 1))


def build_weights(Q: FieldFamily) -> WeightSequence:
    """Greedy-minimal threshold construction for an equicontinuous family.

    Raises NotEquicontinuousError when mass at the window edge exceeds
    EDGE_FLOOR_RATIO times the family bound, i.e. the tails cannot be
    certified at this resolution.
    """
    kmax = Q.grid.kmax
    p = Q.mp.p
    terms = Q.band_terms()
    A = _sup_lp(terms, p)
    edge = _sup_tail(terms, kmax, kmax, p)
    if edge > EDGE_FLOOR_RATIO * A:
        raise NotEquicontinuousError(
            f"edge-band tail {edge:.3e} exceeds {EDGE_FLOOR_RATIO:.0e} x family bound {A:.3e}"
        )
    # p-th power tails beyond each K: one reversed cumulative sum over |k|
    ks = np.abs(np.arange(-kmax, kmax + 1))
    by_abs = np.array([np.bincount(ks, weights=row**p, minlength=kmax + 1) for row in terms])
    at_least = np.cumsum(by_abs[:, ::-1], axis=1)[:, ::-1]  # index K -> sum over |k| >= K
    sup_tail_pow = np.append(at_least[:, 1:].max(axis=0), 0.0)  # index K -> sup_f tail(K)^p
    thresholds = []
    m = 1
    lower = 2
    while lower <= kmax:
        budget = 2.0**-m * A**p
        cands = np.nonzero(sup_tail_pow[lower:] <= budget + 0.0)[0]
        if cands.size == 0:
            break  # tail floor not reachable past here; spacing rule ends the sequence
        km = lower + int(cands[0])
        thresholds.append(km)
        lower = 4 * km
        m += 1
    return WeightSequence(tuple(thresholds), p, kmax)


@dataclass
class WeightCheck:
    symmetric_bounded: bool      # (i)  1 <= c_k = c_-k <= 1 + log(|k|+1)
    quadruple_step: bool         # (ii) c_4|k| <= c_|k| + 1
    monotone: bool               # (iii)
    grows: bool                  # (iv) at this resolution: c at the edge exceeds c at 0
    weighted_ratio: float        # measured sup weighted norm / family bound
    within_factor_two: bool      # (v)

    @property
    def all_pass(self) -> bool:
        return (self.symmetric_bounded and self.quadruple_step and self.monotone
                and self.grows and self.within_factor_two)


def verify_weights(w, Q: FieldFamily) -> WeightCheck:
    """Report-only check of the five weight properties against a family.

    `w` may be a WeightSequence or a raw array over k = -kmax .. kmax.
    """
    kmax = Q.grid.kmax
    p = Q.mp.p
    if isinstance(w, WeightSequence):
        c = w.as_array()
    else:
        c = np.asarray(w, dtype=float)
        if c.shape != (2 * kmax + 1,):
            raise ValueError(f"expected weights over {2 * kmax + 1} bands")
    ks = np.arange(-kmax, kmax + 1)
    tol = 1e-12
    cpos = c[kmax:]  # c_0 .. c_kmax
    sym = bool(np.all(np.abs(c - c[::-1]) <= tol))
    bounded = bool(np.all(c >= 1.0 - tol) and np.all(c <= 1.0 + np.log(np.abs(ks) + 1.0) + tol))
    kk = np.arange(1, kmax // 4 + 1)
    quad = bool(np.all(cpos[4 * kk] <= cpos[kk] + 1.0 + tol)) if kk.size else True
    mono = bool(np.all(np.diff(cpos) >= -tol))
    grows = bool(cpos[-1] > cpos[0] + tol)
    terms = Q.band_terms()
    A = _sup_lp(terms, p)
    weighted = _sup_lp(c[None, :] * terms, p)
    ratio = weighted / A if A > 0 else 0.0
    return WeightCheck(
        symmetric_bounded=sym and bounded,
        quadruple_step=quad,
        monotone=mono,
        grows=grows,
        weighted_ratio=ratio,
        within_factor_two=ratio <= 2.0 + 1e-9,
    )
