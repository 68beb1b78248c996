import numpy as np
import pytest

from modspec import (
    ModulationParams,
    alpha2,
    apriori_exponent,
    band_indicator_field,
    band_profile,
    forward_transform,
    galilei_boost,
    gaussian_field,
    make_grid,
    profile_norm,
    scale_field,
    scaling_bound_factor,
)
from modspec.harness.config import random_suite
from conftest import beta2, random_smooth_field


def test_boost_spec_validation(grid_ref, rng):
    f = random_smooth_field(grid_ref, rng)
    with pytest.raises(ValueError):
        galilei_boost(f, 1.0, 0.0, "kdv")
    with pytest.raises(ValueError):
        galilei_boost(f, np.inf, 0.0, "mkdv")
    with pytest.raises(ValueError):
        galilei_boost(f, 1.0, np.nan, "nls")


def test_boost_identity_at_k_zero(grid_ref, rng):
    f = random_smooth_field(grid_ref, rng)
    for eq in ("mkdv", "nls"):
        g = galilei_boost(f, 0.0, 0.7, eq)
        assert np.max(np.abs(g.values - f.values)) <= 1e-13


def test_boost_exact_lattice_shift(grid_ref, rng):
    f = random_smooth_field(grid_ref, rng)
    k = 3
    g = galilei_boost(f, float(k), 0.0, "mkdv")
    m = int(round(k / grid_ref.dxi))
    shifted = np.zeros_like(f.spectrum)
    shifted[: grid_ref.n - m] = f.spectrum[m:]
    shifted[0] = 0.0  # Nyquist slot is zeroed on construction
    assert np.max(np.abs(g.spectrum - shifted)) <= 1e-12


@pytest.mark.parametrize("eq", ["mkdv", "nls"])
def test_boost_modulus_identity_at_positive_time(grid_ref, rng, eq):
    f = random_smooth_field(grid_ref, rng, carrier=1.0)
    k = 1
    g = galilei_boost(f, float(k), 0.5, eq)
    m = int(round(k / grid_ref.dxi))
    target = np.zeros(grid_ref.n)
    target[: grid_ref.n - m] = np.abs(f.spectrum[m:])
    assert np.max(np.abs(np.abs(g.spectrum) - target)) <= 1e-10


def test_boost_off_the_lattice_round_trip():
    """On L = 100.5 these boosts miss the frequency lattice, so galilei_boost takes
    its phase-ramp branch; a boost by k and back at t = 0 returns the data."""
    g = make_grid(1024, 100.5)
    u = gaussian_field(g, 1.0, 0.3)
    for k in (1.0, 2.5, 5.0):
        m = k / g.dxi
        assert abs(m - round(m)) > 1e-3
        back = galilei_boost(galilei_boost(u, k, 0.0, "mkdv"), -k, 0.0, "mkdv")
        assert np.max(np.abs(back.values - u.values)) <= 1e-12


def test_boosted_beta2_matches_boost_then_evaluate(grid_ref, rng):
    f = random_smooth_field(grid_ref, rng, carrier=-2.0)
    for k in (-5.0, 0.0, 3.0):
        direct = beta2(f, 0.5, shift=k)
        composed = beta2(galilei_boost(f, k, 0.0, "mkdv"), 0.5)
        assert abs(direct - composed) <= 1e-10
    assert alpha2(f, 0.5, shift=0.0) == alpha2(f, 0.5)


def test_boosted_beta2_translation_covariance(grid_ref):
    a = band_indicator_field(grid_ref, 4.5, 5.5)
    b = band_indicator_field(grid_ref, -0.5, 0.5)
    assert beta2(a, 0.5, shift=5.0) == pytest.approx(beta2(b, 0.5, shift=0.0), rel=1e-12)


def test_scale_field_identity_and_l2(grid_ref, rng):
    f = random_smooth_field(grid_ref, rng)
    same = scale_field(f, 1.0)
    assert np.max(np.abs(same.values - f.values)) == 0.0
    for lam in (0.5, 2.0, 8.0):
        fl = scale_field(f, lam)
        assert fl.l2_norm() == pytest.approx(lam**-0.5 * f.l2_norm(), rel=1e-12)
    with pytest.raises(ValueError):
        scale_field(f, 0.0)


def test_scale_field_gaussian_spectrum(grid_ref):
    f = gaussian_field(grid_ref, width=1.0, amplitude=1.0)
    for lam in (0.5, 2.0):
        fl = scale_field(f, lam)
        expected = np.exp(-((lam * fl.grid.xi) ** 2) / 2)
        assert np.max(np.abs(fl.spectrum - expected)) <= 1e-10


def test_scale_field_reuses_the_spectrum(grid_ref, rng):
    """Unpadded rescaling shares the read-only spectrum, which the transform of
    the rescaled values reproduces to roundoff."""
    for f in random_suite(grid_ref, 6, rng):
        for lam in (0.125, 0.5, 2.0, 8.0):
            fl = scale_field(f, lam)
            assert fl.spectrum is f.spectrum and not fl.spectrum.flags.writeable
            fresh = forward_transform(fl.values, fl.grid)
            assert np.max(np.abs(fresh - fl.spectrum)) <= 1e-14 * np.max(np.abs(fl.spectrum))


def test_scale_field_padded(grid_ref):
    f = gaussian_field(grid_ref, width=1.0, amplitude=0.7)
    lam = 16.0
    plain = scale_field(f, lam)
    padded = scale_field(f, lam, pad=4)
    assert padded.grid.n == 4 * grid_ref.n
    assert padded.grid.dxi == pytest.approx(plain.grid.dxi)
    assert padded.l2_norm() == pytest.approx(lam**-0.5 * f.l2_norm(), rel=1e-10)
    # padded spectrum agrees with the unpadded one on the shared window
    lo = padded.grid.n // 2 - grid_ref.n // 2
    inner = padded.spectrum[lo: lo + grid_ref.n]
    assert np.max(np.abs(inner[1:] - plain.spectrum[1:])) <= 1e-12
    with pytest.raises(ValueError):
        scale_field(f, lam, pad=3)


def test_scaling_bound_factor_values():
    assert scaling_bound_factor(1.0, ModulationParams(2.0, 0.0)) == pytest.approx(1.0)
    expected = 20.0 ** (-1.0 / 8.0) * (4.0 + 1.0 / 16.0) ** 0.25
    assert scaling_bound_factor(4.0, ModulationParams(4.0, 0.0)) == pytest.approx(expected, rel=1e-12)
    for p, s in [(1.0, 0.0), (2.0, 0.5), (4.0, 1.0)]:
        mp = ModulationParams(p, s)
        seq = [scaling_bound_factor(lam, mp) for lam in (1.0, 1e4, 1e8, 1e12)]
        assert seq[3] < seq[2] < seq[1] < seq[0]
        assert seq[3] < 1e-2


def test_scaling_inequality_single_constant(grid_ref, rng):
    suite = random_suite(grid_ref, 50, rng, band_span=4)
    for p, s in [(1.0, 0.0), (2.0, 0.0), (4.0, 1.0)]:
        mp = ModulationParams(p, s)
        worst = 0.0
        for f in suite:
            base = profile_norm(band_profile(f), mp)
            for lam in (0.125, 0.5, 1.0, 2.0, 8.0):
                fl = scale_field(f, lam)
                ratio = profile_norm(band_profile(fl), mp) / (scaling_bound_factor(lam, mp) * base)
                worst = max(worst, ratio)
        assert np.isfinite(worst) and worst <= 10.0


def test_apriori_exponent_values():
    assert apriori_exponent(ModulationParams(2.0, 0.0)) == pytest.approx(0.0)
    assert apriori_exponent(ModulationParams(4.0, 1.0)) == pytest.approx(5.0)
    assert apriori_exponent(ModulationParams(1.0, 0.0)) == pytest.approx(1.0)
    # the two branch formulas agree at p = 2
    mp = ModulationParams(2.0, 0.3)
    assert mp.p * mp.s + mp.p / 2 - 1 == pytest.approx(2 * mp.s + 2 / mp.p - 1)
    with pytest.raises(ValueError):
        apriori_exponent(ModulationParams(2.0, 1.4))
