"""Galilei boosts, the scaling symmetry, and their closed-form norm factors."""

from __future__ import annotations

import numpy as np

from .flows import EQUATIONS
from .grid import ALIAS_THRESHOLD, AliasingError, Field, GridSpec, inverse_transform, make_grid
from .norms import ModulationParams, bracket


def galilei_boost(u: Field, k: float, t: float = 0.0, equation: str = "mkdv") -> Field:
    """Boosted field u^k at time t, by the boost formula of `equation`.

    mkdv: u^k(t,x) = exp(-ikx + 2ik^3 t) u(t, x - 3k^2 t)
    nls:  u^k(t,x) = exp(-ikx - ik^2 t) u(t, x + 2kt)

    Spatial shifts wrap periodically (spectral phase).  For k on the
    frequency lattice the modulus of the spectrum shifts exactly,
    |u^k-hat(xi)| = |uhat(xi + k)|, and AliasingError is raised when the
    shift pushes more than ALIAS_THRESHOLD of the spectral mass off the
    lattice.  Off-lattice k falls back to a phase ramp in physical space,
    whose boundary mismatch aliases at a level set by the field's decay
    toward the box edge.  An equation other than mkdv or nls, or a
    non-finite k or t, is a ValueError.

    The boosted mkdv field solves mkdv in the frame of wave number k: evolve it
    with evolve_batch(..., ks=[k]).
    """
    if equation not in EQUATIONS:
        raise ValueError(f"equation must be one of {EQUATIONS}, got {equation!r}")
    if not (np.isfinite(k) and np.isfinite(t)):
        raise ValueError("boost parameters must be finite")
    g = u.grid
    if equation == "mkdv":
        shift = 3.0 * k**2 * t
        phase0 = np.exp(2j * k**3 * t)
    else:
        shift = -2.0 * k * t
        phase0 = np.exp(-1j * k**2 * t)
    m = k / g.dxi
    if abs(m - np.rint(m)) < 1e-9:
        # exact lattice shift of the spectrum by k, then the translation phase
        mi = int(np.rint(m))
        src = np.arange(g.n)
        on = (src >= mi) & (src < g.n + mi)  # the modes that stay on the lattice
        power = np.abs(u.spectrum) ** 2
        lost, total = float(np.sum(power[~on])), float(np.sum(power))
        if lost > ALIAS_THRESHOLD * total:
            raise AliasingError(
                f"boost k = {k} shifts a spectral mass fraction {lost / total:.2e} "
                f"off the lattice, above {ALIAS_THRESHOLD:.0e}")
        spec = np.zeros(g.n, dtype=complex)
        spec[src[on] - mi] = u.spectrum[on]
        spec = spec * phase0 * np.exp(-1j * (g.xi + k) * shift)
        return Field.from_spectrum(g, spec)
    # off-lattice wave number: translate spectrally, modulate pointwise
    vals = inverse_transform(u.spectrum * np.exp(-1j * g.xi * shift), g)
    return Field(g, phase0 * np.exp(-1j * k * g.x) * vals)


def scaled_grid(g: GridSpec, lam: float, pad: int = 1) -> GridSpec:
    """The grid scale_field(f, lam, pad) puts a field on `g` onto: L -> lam L, pad * n points."""
    if not lam > 0:
        raise ValueError(f"scaling parameter must be positive, got {lam}")
    if pad < 1 or (pad & (pad - 1)) != 0:
        raise ValueError(f"pad must be a power of two >= 1, got {pad}")
    return make_grid(g.n * pad, lam * g.length)


def scale_field(f: Field, lam: float, pad: int = 1) -> Field:
    """f_lam(x) = lam^-1 f(x / lam) realized by re-gridding L -> lam L.

    The new grid's samples sit at x' = lam x, so values map exactly and the
    spectrum satisfies fhat_lam(xi) = fhat(lam xi) with no interpolation:
    sample for sample it is f's spectrum, which is read-only and so is shared.

    `pad` (a power of two) widens the new grid to pad * n points at the same
    dual spacing by zero-padding the spectrum.  Large lam compresses the
    spectrum into a window that shrinks like 1/lam; padding restores enough
    resolved bands to take banded norms of the rescaled field.
    """
    g = f.grid
    g2 = scaled_grid(g, lam, pad)
    if pad == 1:
        return Field(g2, f.values / lam, f.spectrum)
    spec = np.zeros(g2.n, dtype=complex)
    lo = g2.n // 2 - g.n // 2
    spec[lo: lo + g.n] = f.spectrum
    return Field.from_spectrum(g2, spec)


def scaling_bound_factor(lam: float, mp: ModulationParams) -> float:
    """<lam>^(-min(1/2, 1/p)) * <1/lam>^(s + max(1/2, 1/p))."""
    if not lam > 0:
        raise ValueError(f"scaling parameter must be positive, got {lam}")
    a = min(0.5, 1.0 / mp.p)
    b = mp.s + max(0.5, 1.0 / mp.p)
    return float(bracket(lam) ** (-a) * bracket(1.0 / lam) ** b)


def apriori_exponent(mp: ModulationParams) -> float:
    """Growth exponent c(s, p) of the global norm bound.

    c = p s + p/2 - 1 for p >= 2 and c = 2 s + 2/p - 1 for p <= 2;
    the branches agree at p = 2.
    """
    if not mp.main_range:
        raise ValueError(f"(p, s) = ({mp.p}, {mp.s}) violates s < 3/2 - 1/p")
    if mp.p >= 2.0:
        return mp.p * mp.s + mp.p / 2.0 - 1.0
    return 2.0 * mp.s + 2.0 / mp.p - 1.0
