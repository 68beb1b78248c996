import numpy as np
import pytest
from scipy.integrate import quad

from modspec import (
    Field,
    ModulationParams,
    admissible_sigma,
    band_indicator_field,
    band_profile,
    bracket,
    gaussian_field,
    hs_functional,
    profile_norm,
    sobolev_norm,
)
from modspec.harness.config import random_suite
from modspec.norms import lp_norm
from conftest import random_smooth_field


def test_bracket_values():
    assert bracket(0.0) == pytest.approx(2.0)
    assert bracket(3.0) == pytest.approx(np.sqrt(13.0))
    assert bracket(-3.0) == pytest.approx(np.sqrt(13.0))


def test_modulation_params_flags():
    mp = ModulationParams(2.0, 0.0)
    assert mp.main_range and mp.equiv_range
    assert not ModulationParams(2.0, 1.2).main_range
    assert ModulationParams(2.0, 1.2).equiv_range
    with pytest.raises(ValueError):
        ModulationParams(0.5, 0.0)
    with pytest.raises(ValueError):
        ModulationParams(2.0, -0.1)


def test_lp_norm_leaves_no_sum_outside_the_normal_range(grid_ref):
    """Large p or huge terms neither vanish nor overflow: the l^p norm of a
    nonzero row is at least its largest term and does not grow with p."""
    prof = band_profile(gaussian_field(grid_ref, 1.0, 0.3))
    at_200 = profile_norm(prof, ModulationParams(200.0, 0.0))
    at_1000 = profile_norm(prof, ModulationParams(1000.0, 0.0))
    assert np.max(prof) <= at_1000 <= at_200 and at_1000 == pytest.approx(np.max(prof), rel=1e-2)
    assert lp_norm([1e200, 1e200], 2) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    assert lp_norm([1e-200, 1e-200], 2) == pytest.approx(np.sqrt(2.0) * 1e-200, rel=1e-15)
    stacked = lp_norm(np.array([[1e200, 1e200], [3.0, 4.0], [0.0, 0.0]]), 2)
    assert stacked.tolist() == [lp_norm([1e200, 1e200], 2), 5.0, 0.0]
    # an infinite or NaN term keeps its plain value
    assert lp_norm([np.inf, 1.0], 2) == np.inf and np.isnan(lp_norm([np.nan, 1e200], 2))


def test_modulation_norm_zero(grid_ref):
    f = Field(grid_ref, np.zeros(grid_ref.n, dtype=complex))
    assert profile_norm(band_profile(f), ModulationParams(2.0, 0.5)) == 0.0


@pytest.mark.parametrize("p,s", [(1.0, 0.0), (2.0, 0.5), (4.0, 1.0)])
def test_modulation_norm_single_band(grid_ref, p, s):
    f = band_indicator_field(grid_ref, -0.5, 0.5)
    assert profile_norm(band_profile(f), ModulationParams(p, s)) == pytest.approx(2.0**s, rel=1e-12)


def test_modulation_norm_two_bands(grid_ref):
    f = band_indicator_field(grid_ref, -0.5, 1.5)
    norm = profile_norm(band_profile(f), ModulationParams(2.0, 0.0))
    assert norm == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_modulation_norm_is_a_norm(grid_ref, rng):
    mp = ModulationParams(2.0, 0.5)
    for _ in range(5):
        f = random_smooth_field(grid_ref, rng)
        g = random_smooth_field(grid_ref, rng, carrier=2.0)
        a = 2.7
        scaled = Field.from_spectrum(grid_ref, a * f.spectrum)
        assert profile_norm(band_profile(scaled), mp) == pytest.approx(
            a * profile_norm(band_profile(f), mp), rel=1e-10)
        both = Field.from_spectrum(grid_ref, f.spectrum + g.spectrum)
        assert profile_norm(band_profile(both), mp) <= (
            profile_norm(band_profile(f), mp) + profile_norm(band_profile(g), mp) + 1e-10
        )


def test_weighted_norm_dominates(grid_ref, rng):
    mp = ModulationParams(2.0, 0.0)
    ks = np.arange(-grid_ref.kmax, grid_ref.kmax + 1)
    w = 1.0 + np.log(np.abs(ks) + 1.0)
    for _ in range(3):
        f = random_smooth_field(grid_ref, rng)
        assert profile_norm(band_profile(f), mp, weights=w) >= profile_norm(band_profile(f), mp)


def test_stacked_profile_norm_equals_row_by_row(grid_ref, rng):
    """A stack of profiles reduces to the per-row norms, with and without weights."""
    profs = np.array([band_profile(f) for f in random_suite(grid_ref, 12, rng)])
    ks = np.arange(-grid_ref.kmax, grid_ref.kmax + 1)
    w = 1.0 + np.log(np.abs(ks) + 1.0)
    for p, s in [(1.0, 0.0), (2.0, 0.0), (4.0, 1.0), (1.5, 0.3)]:
        mp = ModulationParams(p, s)
        for weights in (None, w):
            stacked = profile_norm(profs, mp, weights=weights)
            rows = [profile_norm(prof, mp, weights=weights) for prof in profs]
            assert stacked.shape == (len(profs),)
            # elementwise x**p may round differently in the last bit across array layouts
            np.testing.assert_allclose(stacked, rows, rtol=1e-15, atol=0)
    with pytest.raises(ValueError):
        profile_norm(profs, ModulationParams(2.0, 0.0), weights=np.ones(profs.shape))


def test_stacked_sobolev_norm_equals_row_by_row(grid_ref, rng):
    suite = random_suite(grid_ref, 12, rng)
    power = np.array([np.abs(f.spectrum) ** 2 for f in suite])
    for sigma in (0.0, -0.26, 1.0):
        stacked = sobolev_norm(power, sigma, grid_ref)
        assert stacked.tolist() == [sobolev_norm(f, sigma) for f in suite]


def test_weights_must_cover_bands(grid_ref):
    f = band_indicator_field(grid_ref, -0.5, 0.5)
    with pytest.raises(ValueError):
        profile_norm(band_profile(f), ModulationParams(2.0, 0.0), weights=np.ones(3))


def test_sobolev_norm_zero_and_l2(grid_ref, rng):
    z = Field(grid_ref, np.zeros(grid_ref.n, dtype=complex))
    assert sobolev_norm(z, 1.3) == 0.0
    f = random_smooth_field(grid_ref, rng)
    l2 = np.sqrt(np.sum(np.abs(f.spectrum) ** 2) * grid_ref.dxi)
    assert sobolev_norm(f, 0.0) == pytest.approx(l2, rel=1e-12)


def test_sobolev_norm_single_band(grid_ref):
    f = band_indicator_field(grid_ref, -0.5, 0.5)
    sigma = 0.7
    val = sobolev_norm(f, sigma)
    oracle = np.sqrt(quad(lambda t: (4 + t * t) ** sigma, -0.5, 0.5)[0])
    assert val == pytest.approx(oracle, rel=1e-3)
    lo, hi = sorted([bracket(0.0) ** sigma, bracket(0.5) ** sigma])
    assert lo <= val <= hi


def test_admissible_sigma():
    assert admissible_sigma(ModulationParams(2.0, 0.0)) == pytest.approx(0.0)
    assert admissible_sigma(ModulationParams(4.0, 0.0)) == pytest.approx(-0.25 - 0.01)
    assert admissible_sigma(ModulationParams(1.0, 1.0)) == pytest.approx(1.0)
    for p, s in [(1.0, 0.0), (2.0, 0.5), (4.0, 0.0), (8.0, 1.0)]:
        assert admissible_sigma(ModulationParams(p, s)) > -0.5


def test_embedding_ratio_bounded(grid_ref, rng):
    suite = random_suite(grid_ref, 50, rng, band_span=4)
    for p, s in [(1.0, 0.0), (2.0, 0.0), (4.0, 0.0), (4.0, 1.0)]:
        mp = ModulationParams(p, s)
        sigma = admissible_sigma(mp)
        ratios = [sobolev_norm(f, sigma) / profile_norm(band_profile(f), mp) for f in suite]
        assert max(ratios) <= 10.0


def test_hs_functional_zero_and_validation(grid_ref):
    z = Field(grid_ref, np.zeros(grid_ref.n, dtype=complex))
    assert hs_functional(z, 0.5) == 0.0
    f = band_indicator_field(grid_ref, -0.5, 0.5)
    with pytest.raises(ValueError):
        hs_functional(f, 0.0)


def test_hs_functional_band_oracle(grid_ref):
    f = band_indicator_field(grid_ref, -0.5, 0.5)
    oracle = quad(lambda t: np.log(4 + 4 * t * t) / np.sqrt(1 + t * t), -0.5, 0.5)[0]
    assert hs_functional(f, 0.5) == pytest.approx(oracle, rel=1e-3)


def test_hs_functional_monotone_in_kappa(grid_ref, rng):
    for _ in range(5):
        f = random_smooth_field(grid_ref, rng, carrier=rng.uniform(-4, 4))
        for k in (0.5, 1.0, 2.0, 4.0):
            assert hs_functional(f, 2 * k) <= hs_functional(f, k)


def test_hs_functional_decay_sweep(grid_ref, rng):
    """hs <= C * kappa^(-2 delta) * M^2 with one C over the kappa sweep."""
    mp = ModulationParams(2.0, 0.0)
    delta = 0.25
    consts = []
    for _ in range(10):
        f = random_smooth_field(grid_ref, rng, carrier=rng.uniform(-4, 4))
        m2 = profile_norm(band_profile(f), mp) ** 2
        for kappa in (0.5, 1.0, 2.0, 4.0, 8.0):
            consts.append(hs_functional(f, kappa) / (kappa ** (-2 * delta) * m2))
    assert np.isfinite(consts).all()
    assert max(consts) <= 10.0
