import numpy as np
import pytest

from modspec import (
    Field,
    FieldFamily,
    ModulationParams,
    NotEquicontinuousError,
    WeightSequence,
    band_indicator_field,
    build_weights,
    gaussian_field,
    make_grid,
    modulation_norm,
    scale_field,
    verify_weights,
)
from oracles import equicontinuity_tail


@pytest.fixture(scope="module")
def grid():
    # dxi = 1/8, window |xi| < 64, kmax = 63
    return make_grid(1024, 8 * np.pi)


def gaussian_family(grid, mp, amplitude=0.5):
    return FieldFamily([gaussian_field(grid, w, amplitude) for w in (1.0, 2.0, 4.0)], mp)


def test_family_requires_common_grid(grid):
    other = make_grid(512, 8 * np.pi)
    with pytest.raises(ValueError):
        FieldFamily([gaussian_field(grid), gaussian_field(other)], ModulationParams(2, 0))


def test_tail_of_zero_family(grid):
    fam = FieldFamily([Field(grid, np.zeros(grid.n, dtype=complex))], ModulationParams(2, 0))
    for K in (0, 1, 10, 40):
        assert equicontinuity_tail(fam, K) == 0.0


def test_tail_of_single_band(grid):
    fam = FieldFamily([band_indicator_field(grid, -0.5, 0.5)], ModulationParams(2, 0))
    assert equicontinuity_tail(fam, 1) == 0.0
    assert equicontinuity_tail(fam, 0) == pytest.approx(1.0, rel=1e-12)


def test_tail_decreasing_for_gaussians(grid):
    fam = gaussian_family(grid, ModulationParams(2, 0.5))
    tails = [equicontinuity_tail(fam, K) for K in (0, 2, 5, 10, 20, 40)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tails[-1] <= 1e-8


def test_build_weights_zero_tail_family(grid):
    """All mass in band 0: c == 1 on every band carrying mass, factor exactly 1."""
    mp = ModulationParams(2.0, 0.0)
    fam = FieldFamily([band_indicator_field(grid, -0.5, 0.5)], mp)
    w = build_weights(fam)
    assert w.thresholds[0] >= 2
    chk = verify_weights(w, fam)
    assert chk.all_pass
    assert chk.weighted_ratio == pytest.approx(1.0, abs=1e-12)


def test_build_weights_p_exponent(grid):
    """Identical thresholds across p make c^(p=1) the square of c^(p=2)."""
    fam1 = FieldFamily([band_indicator_field(grid, -0.5, 0.5)], ModulationParams(1.0, 0.0))
    fam2 = FieldFamily([band_indicator_field(grid, -0.5, 0.5)], ModulationParams(2.0, 0.0))
    w1 = build_weights(fam1)
    w2 = build_weights(fam2)
    assert w1.thresholds == w2.thresholds
    assert np.allclose(w1.as_array(), w2.as_array() ** 2)


def test_build_weights_three_gaussians(grid):
    for p, s in [(1.0, 0.0), (2.0, 0.5), (4.0, 1.0)]:
        mp = ModulationParams(p, s)
        fam = gaussian_family(grid, mp)
        w = build_weights(fam)
        chk = verify_weights(w, fam)
        assert chk.all_pass, (p, s, chk)
        assert chk.weighted_ratio <= 2.0


def test_threshold_spacing_and_growth_caps(grid):
    mp = ModulationParams(1.0, 0.0)
    fam = gaussian_family(grid, mp)
    w = build_weights(fam)
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
    fam = gaussian_family(grid, mp)
    chk = verify_weights(np.ones(2 * grid.kmax + 1), fam)
    assert chk.symmetric_bounded and chk.quadruple_step and chk.monotone
    assert not chk.grows
    assert chk.within_factor_two and chk.weighted_ratio == pytest.approx(1.0)


def test_verify_logarithmic_boundary_weights(grid):
    mp = ModulationParams(2.0, 0.0)
    fam = gaussian_family(grid, mp)
    ks = np.arange(-grid.kmax, grid.kmax + 1)
    c = 1.0 + np.log(np.abs(ks) + 1.0)
    chk = verify_weights(c, fam)
    assert chk.symmetric_bounded  # sits exactly on the growth boundary
    assert not chk.quadruple_step  # 1 + log(4k+1) > 2 + log(k+1) once (4k+1)/(k+1) > e
    assert chk.monotone and chk.grows


def test_build_weights_rejects_edge_mass(grid):
    mp = ModulationParams(2.0, 0.0)
    k_edge = grid.kmax
    fam = FieldFamily([band_indicator_field(grid, k_edge - 0.5, k_edge + 0.5)], mp)
    with pytest.raises(NotEquicontinuousError):
        build_weights(fam)


def test_weights_scaling_compatibility(grid):
    """Rescaled family, freshly built weights: the factor-2 budget still holds."""
    mp = ModulationParams(2.0, 0.5)
    fam = gaussian_family(grid, mp)
    for lam in (0.5, 2.0):
        fam_l = FieldFamily([scale_field(f, lam) for f in fam.members], mp)
        w_l = build_weights(fam_l)
        chk = verify_weights(w_l, fam_l)
        assert chk.all_pass
        assert chk.weighted_ratio <= 2.0


def test_threshold_count_grows_with_window():
    mp = ModulationParams(2.0, 0.0)
    g1 = make_grid(512, 8 * np.pi)   # kmax 31
    g2 = make_grid(2048, 8 * np.pi)  # kmax 127
    f1 = FieldFamily([gaussian_field(g1, w, 0.5) for w in (1.0, 2.0, 4.0)], mp)
    f2 = FieldFamily([gaussian_field(g2, w, 0.5) for w in (1.0, 2.0, 4.0)], mp)
    w1 = build_weights(f1)
    w2 = build_weights(f2)
    assert len(w2.thresholds) > len(w1.thresholds)


def test_weighted_norm_with_built_weights_dominates(grid):
    mp = ModulationParams(2.0, 0.0)
    fam = gaussian_family(grid, mp)
    w = build_weights(fam).as_array()
    for f in fam.members:
        assert modulation_norm(f, mp, weights=w) >= modulation_norm(f, mp)
