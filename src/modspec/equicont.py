"""Equicontinuity tails and the sub-logarithmic weight construction.

A bounded family is equicontinuous when its high-band l^p tails vanish
uniformly.  That is certified by symmetric weights c_k >= 1 growing
slowly enough that the weighted norms stay within a factor 2 of the
unweighted supremum: thresholds k(1) < k(2) < ... are chosen greedily so
that the l^p tail beyond k(m) is at most 2^(-m/p) times the family bound
(a 2^-m budget in p-th powers) with 4x spacing, and c_k counts the
thresholds below |k|,

    c_k = (#{m : k(m) < |k|} + 1)^(1/p).

The greedy search starts at k(1) >= 2; together with the 4x spacing this
makes the growth cap c_k <= 1 + log(|k| + 1) hold exactly at every k, not
just asymptotically (2 * 4^(m-1) <= k(m) gives c_k^p <= log_4(|k|/2) + 2).

A family is its (members, 2 kmax + 1) stack of grid.band_profile rows, one
per member on one grid: build_weights and verify_weights read only the
rows' <k>^s-weighted band terms (norms.band_terms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import ModulationParams, band_terms, lp_norm


class NotEquicontinuousError(RuntimeError):
    """The family's tail does not reach the floor inside the resolved window."""


EDGE_FLOOR_RATIO = 1e-8


def _family_terms(profiles, mp: ModulationParams, weights=None) -> np.ndarray:
    """band_terms of a family's profile stack, checked to be one."""
    profiles = np.asarray(profiles, dtype=float)
    if profiles.ndim != 2 or not profiles.shape[0] or profiles.shape[1] % 2 == 0:
        raise ValueError("a family is a (members, 2 kmax + 1) stack of band profiles, "
                         f"got shape {profiles.shape}")
    return band_terms(profiles, mp, weights)


def _sup_lp(terms: np.ndarray, p: float) -> float:
    """Largest l^p norm over the rows (members) of a band-term array."""
    return float(np.max(lp_norm(terms, p)))


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


def build_weights(profiles, mp: ModulationParams) -> WeightSequence:
    """Greedy-minimal threshold construction for an equicontinuous family's profiles.

    Raises NotEquicontinuousError when mass at the window edge exceeds
    EDGE_FLOOR_RATIO times the family bound, i.e. the tails cannot be
    certified at this resolution.
    """
    terms = _family_terms(profiles, mp)
    kmax = (terms.shape[1] - 1) // 2
    p = mp.p
    # tails[K]: the family's largest l^p norm of its band terms over |k| >= K, K = 0 .. kmax + 1
    beyond = np.abs(np.arange(-kmax, kmax + 1)) >= np.arange(kmax + 2)[:, None]
    tails = np.max(lp_norm(np.where(beyond[:, None, :], terms, 0.0), p), axis=1)
    A, edge = tails[0], tails[kmax]
    if edge > EDGE_FLOOR_RATIO * A:
        raise NotEquicontinuousError(
            f"edge-band tail {edge:.3e} exceeds {EDGE_FLOOR_RATIO:.0e} x family bound {A:.3e}"
        )
    thresholds = []
    m = 1
    lower = 2
    while lower <= kmax:
        # tail(K + 1)^p <= 2^-m A^p, taken in l^p units so no p-th power is formed here
        cands = np.nonzero(tails[lower + 1:] <= 2.0 ** (-m / p) * A)[0]
        if cands.size == 0:
            break  # tail floor not reachable past here; spacing rule ends the sequence
        km = lower + int(cands[0])
        thresholds.append(km)
        lower = 4 * km
        m += 1
    return WeightSequence(tuple(thresholds), p, kmax)


@dataclass
class WeightCheck:
    """verify_weights' report: per property (i)-(iv), how many bands violate it
    (0 when it holds), and the measured factor of (v)."""

    symmetric_bounded: int       # (i)  1 <= c_k = c_-k <= 1 + log(|k|+1)
    quadruple_step: int          # (ii) c_4|k| <= c_|k| + 1
    monotone: int                # (iii)
    grows: int                   # (iv) at this resolution: c at the edge exceeds c at 0 (0 or 1)
    weighted_ratio: float        # (v)  sup weighted norm / family bound; NaN for a zero family


def verify_weights(w, profiles, mp: ModulationParams) -> WeightCheck:
    """Report-only check of the five weight properties against a family's profiles.

    `w` may be a WeightSequence or a raw array over k = -kmax .. kmax.  Each count
    is taken of a negated comparison, so a NaN weight counts as a violation.
    """
    c = w.as_array() if isinstance(w, WeightSequence) else np.asarray(w, dtype=float)
    A = _sup_lp(_family_terms(profiles, mp), mp.p)
    # raises ValueError unless c covers every band of the profiles
    weighted = _sup_lp(_family_terms(profiles, mp, c), mp.p)
    kmax = (c.size - 1) // 2
    ks = np.arange(-kmax, kmax + 1)
    tol = 1e-12
    cpos = c[kmax:]  # c_0 .. c_kmax
    kk = np.arange(1, kmax // 4 + 1)
    holds_i = ((np.abs(c - c[::-1]) <= tol) & (c >= 1.0 - tol)
               & (c <= 1.0 + np.log(np.abs(ks) + 1.0) + tol))
    return WeightCheck(
        symmetric_bounded=int(np.sum(~holds_i)),
        quadruple_step=int(np.sum(~(cpos[4 * kk] <= cpos[kk] + 1.0 + tol))),
        monotone=int(np.sum(~(np.diff(cpos) >= -tol))),
        grows=int(not cpos[-1] > cpos[0] + tol),
        weighted_ratio=weighted / A if A > 0 else np.nan,
    )
