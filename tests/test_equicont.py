import numpy as np
import pytest

from modspec import (
    Field,
    ModulationParams,
    NotEquicontinuousError,
    band_indicator_field,
    band_profile,
    build_weights,
    gaussian_field,
    make_grid,
    profile_norm,
    scale_field,
    verify_weights,
)
from oracles import equicontinuity_tail


@pytest.fixture(scope="module")
def grid():
    # dxi = 1/8, window |xi| < 64, kmax = 63
    return make_grid(1024, 8 * np.pi)


def profiles(members):
    """A family as build_weights and verify_weights take it: its band-profile stack."""
    return np.array([band_profile(f) for f in members])


def gaussian_family(grid, amplitude=0.5):
    return [gaussian_field(grid, w, amplitude) for w in (1.0, 2.0, 4.0)]


def test_family_requires_common_grid(grid):
    """A family is one (members, 2 kmax + 1) stack: profiles of two grids do not
    make one, and weights must cover the bands of the profiles they are checked on."""
    mp = ModulationParams(2, 0)
    other = make_grid(512, 8 * np.pi)
    mixed = [band_profile(gaussian_field(grid)), band_profile(gaussian_field(other))]
    single = band_profile(gaussian_field(grid))
    for bad in (mixed, single, single[None, :-1], np.empty((0, 2 * grid.kmax + 1))):
        with pytest.raises(ValueError):
            build_weights(bad, mp)
    fam = profiles(gaussian_family(grid))
    with pytest.raises(ValueError):
        verify_weights(np.ones(2 * other.kmax + 1), fam, mp)
    with pytest.raises(ValueError):
        verify_weights(build_weights(profiles([gaussian_field(other)]), mp), fam, mp)


def test_tail_of_zero_family(grid):
    fam = profiles([Field(grid, np.zeros(grid.n, dtype=complex))])
    for K in (0, 1, 10, 40):
        assert equicontinuity_tail(fam, ModulationParams(2, 0), K) == 0.0


def test_tail_of_single_band(grid):
    fam = profiles([band_indicator_field(grid, -0.5, 0.5)])
    mp = ModulationParams(2, 0)
    assert equicontinuity_tail(fam, mp, 1) == 0.0
    assert equicontinuity_tail(fam, mp, 0) == pytest.approx(1.0, rel=1e-12)


def test_tail_decreasing_for_gaussians(grid):
    fam = profiles(gaussian_family(grid))
    mp = ModulationParams(2, 0.5)
    tails = [equicontinuity_tail(fam, mp, K) for K in (0, 2, 5, 10, 20, 40)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tails[-1] <= 1e-8


def greedy_thresholds(fam, mp, kmax):
    """The greedy threshold search written out over the oracle's tails: k(m) is the
    first K >= 4 k(m - 1) (>= 2 for m = 1) whose tail beyond K is within the budget
    2^-m of the family bound A in p-th powers, i.e. tail <= 2^(-m/p) A."""
    A = equicontinuity_tail(fam, mp, 0)
    thresholds, lower = [], 2
    while lower <= kmax:
        m = len(thresholds) + 1
        km = next((K for K in range(lower, kmax + 1)
                   if equicontinuity_tail(fam, mp, K + 1) <= 2.0 ** (-m / mp.p) * A), None)
        if km is None:
            break
        thresholds.append(km)
        lower = 4 * km
    return tuple(thresholds)


@pytest.mark.parametrize("p", [1.0, 2.0, 8.0, 1000.0])
def test_build_weights_matches_greedy_over_oracle_tails(grid, p):
    """Thresholds agree with a greedy search over tails the package did not compute, up
    to p = 1000, where the band terms' p-th powers underflow (amplitude 0.3) or
    overflow (amplitude 30)."""
    families = [
        [gaussian_field(grid, w) for w in (0.15, 0.3)],
        [band_indicator_field(grid, -12.5, 30.5), band_indicator_field(grid, -3.5, 3.5, 5.0)],
        [band_indicator_field(grid, 4.5, 5.5, amplitude=0.3)],
        [band_indicator_field(grid, 4.5, 5.5, amplitude=30.0)],
    ]
    for members in families:
        fam = profiles(members)
        for s in (0.0, 0.5):
            mp = ModulationParams(p, s)
            assert build_weights(fam, mp).thresholds == greedy_thresholds(fam, mp, grid.kmax)


def test_build_weights_zero_tail_family(grid):
    """All mass in band 0: c == 1 on every band carrying mass, factor exactly 1."""
    mp = ModulationParams(2.0, 0.0)
    fam = profiles([band_indicator_field(grid, -0.5, 0.5)])
    w = build_weights(fam, mp)
    assert w.thresholds[0] >= 2
    chk = verify_weights(w, fam, mp)
    assert chk.all_pass
    assert chk.weighted_ratio == pytest.approx(1.0, abs=1e-12)


def test_build_weights_p_exponent(grid):
    """Identical thresholds across p make c^(p=1) the square of c^(p=2)."""
    fam = profiles([band_indicator_field(grid, -0.5, 0.5)])
    w1 = build_weights(fam, ModulationParams(1.0, 0.0))
    w2 = build_weights(fam, ModulationParams(2.0, 0.0))
    assert w1.thresholds == w2.thresholds
    assert np.allclose(w1.as_array(), w2.as_array() ** 2)


def test_build_weights_three_gaussians(grid):
    for p, s in [(1.0, 0.0), (2.0, 0.5), (4.0, 1.0)]:
        mp = ModulationParams(p, s)
        fam = profiles(gaussian_family(grid))
        w = build_weights(fam, mp)
        chk = verify_weights(w, fam, mp)
        assert chk.all_pass, (p, s, chk)
        assert chk.weighted_ratio <= 2.0


def test_threshold_spacing_and_growth_caps(grid):
    mp = ModulationParams(1.0, 0.0)
    w = build_weights(profiles(gaussian_family(grid)), mp)
    th = w.thresholds
    assert th[0] >= 2
    assert all(b >= 4 * a for a, b in zip(th, th[1:]))
    ks = np.arange(1, grid.kmax + 1)
    counts = w.count_below(ks)
    assert np.all(counts <= np.floor(np.log(ks) / np.log(4.0)) + 1)
    c = w.c_of(ks)
    assert np.all(c <= (np.log(ks / 2.0) / np.log(4.0) + 2.0) ** (1.0 / mp.p) + 1e-12)
    assert np.all(c <= 1.0 + np.log(ks + 1.0) + 1e-12)


def test_verify_constant_weights(grid):
    mp = ModulationParams(2.0, 0.0)
    fam = profiles(gaussian_family(grid))
    chk = verify_weights(np.ones(2 * grid.kmax + 1), fam, mp)
    assert chk.symmetric_bounded and chk.quadruple_step and chk.monotone
    assert not chk.grows
    assert chk.within_factor_two and chk.weighted_ratio == pytest.approx(1.0)


def test_verify_logarithmic_boundary_weights(grid):
    mp = ModulationParams(2.0, 0.0)
    fam = profiles(gaussian_family(grid))
    ks = np.arange(-grid.kmax, grid.kmax + 1)
    c = 1.0 + np.log(np.abs(ks) + 1.0)
    chk = verify_weights(c, fam, mp)
    assert chk.symmetric_bounded  # sits exactly on the growth boundary
    assert not chk.quadruple_step  # 1 + log(4k+1) > 2 + log(k+1) once (4k+1)/(k+1) > e
    assert chk.monotone and chk.grows


def test_build_weights_rejects_edge_mass(grid):
    mp = ModulationParams(2.0, 0.0)
    k_edge = grid.kmax
    fam = profiles([band_indicator_field(grid, k_edge - 0.5, k_edge + 0.5)])
    with pytest.raises(NotEquicontinuousError):
        build_weights(fam, mp)


def test_weights_scaling_compatibility(grid):
    """Rescaled family, freshly built weights: the factor-2 budget still holds."""
    mp = ModulationParams(2.0, 0.5)
    for lam in (0.5, 2.0):
        fam_l = profiles([scale_field(f, lam) for f in gaussian_family(grid)])
        w_l = build_weights(fam_l, mp)
        chk = verify_weights(w_l, fam_l, mp)
        assert chk.all_pass
        assert chk.weighted_ratio <= 2.0


def test_threshold_count_grows_with_window():
    mp = ModulationParams(2.0, 0.0)
    g1 = make_grid(512, 8 * np.pi)   # kmax 31
    g2 = make_grid(2048, 8 * np.pi)  # kmax 127
    w1 = build_weights(profiles(gaussian_family(g1)), mp)
    w2 = build_weights(profiles(gaussian_family(g2)), mp)
    assert len(w2.thresholds) > len(w1.thresholds)


def test_weighted_norm_with_built_weights_dominates(grid):
    mp = ModulationParams(2.0, 0.0)
    fam = gaussian_family(grid)
    w = build_weights(profiles(fam), mp).as_array()
    for f in fam:
        assert profile_norm(band_profile(f), mp, weights=w) >= profile_norm(band_profile(f), mp)
