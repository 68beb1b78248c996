"""Acceptance suite: one test per criterion, each printing PASS/FAIL lines.

Run `pytest -s tests/test_acceptance.py` to see the lines as they appear.
Reference resolution throughout: N = 1024, L = 32 pi, dt = 1e-3.
"""

import math
import time

import numpy as np
import pytest

from modspec import (
    Field,
    FlowSpec,
    ModulationParams,
    SpectralParameter,
    alpha2,
    alpha4,
    alpha_terms,
    band_indicator_field,
    band_profile,
    build_operator,
    build_weights,
    evolve_batch,
    gaussian_field,
    hs_functional,
    make_grid,
    profile_norm,
    quartic_integral,
    random_band_field,
    sech_field,
    verify_weights,
)
from modspec.conserved import half_operator
from modspec.harness.config import config_from_dict, random_suite
from modspec.harness.reports import criterion
from modspec.harness import (
    run_apriori,
    run_conservation,
    run_galilei,
    run_norm_equivalence,
    run_scaling,
)
from oracles import (
    alpha_series_partial_sums,
    beta2_gauss_legendre,
    hs_norm_sq,
    quadratic_trace_windowed,
    quartic_integral_direct,
)

MODULE_T0 = time.time()
L_REF = 32 * math.pi


def check(tag, measured, threshold, floor=-math.inf):
    """The reports' rule, measured <= threshold; a refinement ratio must also reach `floor`."""
    passed = criterion(tag, measured, threshold).passed and measured >= floor
    print(f"[{'PASS' if passed else 'FAIL'}] {tag}: measured {measured:.6g} "
          f"(threshold {threshold:.6g})")
    assert passed, f"{tag}: {measured} vs {threshold}"


@pytest.fixture(scope="module")
def grid():
    return make_grid(1024, L_REF)


def l2_dist(a, b):
    return float(np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.grid.dx))


# ---------------------------------------------------------------------------

def test_c01_soliton_regressions(grid):
    """Criterion 1: soliton reproduction, second-order refinement, runtime."""
    errs = {}
    for eq, make_ref in (
        ("nls", lambda t: Field(grid, np.exp(1j * t) / np.cosh(grid.x))),
        ("mkdv", lambda t: sech_field(grid, shift=t)),
    ):
        u0 = sech_field(grid)
        for dt in (4e-3, 2e-3, 1e-3):
            t0 = time.time()
            uT = evolve_batch([u0], FlowSpec(eq, "focusing", dt=dt), [1.0])[0].fields[-1]
            elapsed = time.time() - t0
            errs[(eq, dt)] = l2_dist(uT, make_ref(1.0))
            assert elapsed <= 60.0, f"{eq} run at dt={dt} took {elapsed:.1f}s"
        check(f"c1 {eq} soliton L2 error (dt=1e-3)", errs[(eq, 1e-3)],
              1e-6 if eq == "nls" else 1e-5)
        slope = np.polyfit(
            np.log([4e-3, 2e-3, 1e-3]),
            np.log([errs[(eq, dt)] for dt in (4e-3, 2e-3, 1e-3)]), 1,
        )[0]
        check(f"c1 {eq} refinement order", abs(slope - 2.0), 0.2)


def test_c02_conservation(grid):
    """Criterion 2: alpha/beta drift <= 1e-5 for all four flows, dt^2 refinement."""
    base = dict(
        version=1, grid_n=1024, grid_length=L_REF, dt=1e-3, t_final=1.0,
        snapshots=3, kappas=[0.5, 1.0, 2.0], n_op=512,
        family={"kind": "gaussian", "width": 1.0, "amplitude": 0.3},
    )
    for eq in ("mkdv", "nls"):
        for sign in ("defocusing", "focusing"):
            cfg = config_from_dict(dict(base, equation=eq, sign=sign))
            res = run_conservation(cfg)
            worst = max(e.measured for e in res.summary)
            check(f"c2 {eq} {sign} max alpha/beta drift", worst, 1e-5)

    for eq, kap in (("mkdv", 0.5), ("nls", 2.0)):
        drifts = {}
        for dt in (0.05, 0.025):
            cfg = config_from_dict(dict(base, equation=eq, dt=dt, kappas=[kap]))
            res = run_conservation(cfg)
            drifts[dt] = next(e.measured for e in res.summary
                              if e.criterion.startswith("alpha_drift"))
        ratio = drifts[0.05] / drifts[0.025]
        check(f"c2 {eq} drift refinement ratio (dt 0.05 -> 0.025)", ratio, 8.0, floor=2.5)


def test_c03_closed_form_cross_checks(grid):
    """Criterion 3: arctan, partial fractions, quartic oracle, trace oracle."""
    ind = band_indicator_field(grid, 0.0, 1.0)
    check("c3 alpha2 arctan closed form", abs(alpha2(ind, 0.5) - math.pi / 4), 1e-9)

    rng = np.random.default_rng(2024)
    worst_pf = 0.0
    for _ in range(5):
        f = random_band_field(grid, -5, 5, 0.4, rng)
        for kappa in (0.5, 1.0, 2.0):
            worst_pf = max(worst_pf, abs(beta2_gauss_legendre(f, kappa)
                                         - (alpha2(f, kappa) - 0.5 * alpha2(f, 2 * kappa))))
    check("c3 beta2 differencing identity", worst_pf, 1e-10)

    g64 = make_grid(64, 4 * math.pi)
    f64 = Field(g64, 0.5 * np.exp(-g64.x**2 / 2) * (1 + 0.3j * np.sin(g64.x)))
    gap4 = max(
        abs(quartic_integral(f64, kappa) - quartic_integral_direct(f64, kappa))
        for kappa in (0.5, 1.0)
    )
    check("c3 quartic fft vs direct triple sum (n=64)", gap4, 1e-9)

    f = gaussian_field(grid, 1.0, 0.3, center_freq=2.0)
    kp = SpectralParameter(0.5)
    op = build_operator(f, kp, n_op=512)
    gap_tr = abs(op.trace() - quadratic_trace_windowed(f, kp, n_op=512))
    check("c3 trace(A) vs windowed quadratic-term oracle", gap_tr, 1e-8)


def test_c04_series_structure(grid):
    """Criterion 4: j >= 3 remainder bounded by hs^3 with one constant; geometric tail."""
    kp = SpectralParameter(0.5)
    f0 = gaussian_field(grid, 1.0, 1.0)
    consts = []
    for eps in (0.1, 0.03, 0.01):
        f = Field.from_spectrum(grid, eps * f0.spectrum)
        lhs = abs(alpha_terms(f, kp)[0] - alpha2(f, 0.5) - alpha4(f, kp))
        consts.append(lhs / hs_functional(f, 0.5) ** 3)
    check("c4 |alpha - alpha2 - alpha4| / hs^3, single constant", max(consts), 0.1)
    check("c4 constant stability across the amplitude sweep",
          max(consts) / min(consts), 5.0)

    f = Field.from_spectrum(grid, 0.5 * f0.spectrum)
    op = build_operator(f, kp, n_op=512)
    pure = op.log_det()
    sums = alpha_series_partial_sums(op, 10)
    tails = np.abs(pure - sums)
    h = hs_norm_sq(half_operator(f, kp, n_op=512)[0])
    floor = 1e-12 * max(1.0, abs(pure))
    ratios = [tails[j + 1] / tails[j] for j in range(3, 9)
              if tails[j] > floor and tails[j + 1] > floor]
    check("c4 geometric tail decay ratio", max(ratios), h + 1e-6)


def test_c05_hs_comparability(grid):
    """Criterion 5: matrix HS norm^2 vs the quadrature functional, one bracket."""
    rng = np.random.default_rng(77)
    suite = random_suite(grid, 50, rng, band_span=4)
    ratios = []
    for kappa in (0.5, 1.0, 2.0, 4.0):
        kp = SpectralParameter(kappa)
        for f in suite:
            half = half_operator(f, kp, n_op=512)[0]  # B alone: no m^3 product A
            ratios.append(hs_norm_sq(half) / hs_functional(f, kappa))
    bracket_c = max(max(ratios), 1.0 / min(ratios))
    check("c5 HS bracket constant over 50 fields x 4 kappas", bracket_c, 10.0)


def test_c06_norm_equivalence(grid):
    """Criterion 6: two-sided ratio with one constant; unit and built weights."""
    cfg = config_from_dict(dict(
        version=1, grid_n=1024, grid_length=L_REF, equation="mkdv",
        sign="defocusing", dt=1e-3, t_final=1.0, snapshots=3,
        ps=[[1.0, 0.0], [2.0, 0.0], [2.0, 0.5], [4.0, 1.0]],
        boosts=list(range(-8, 9)),
        family={"kind": "gaussian", "width": 1.0, "amplitude": 0.3},
    ))
    res = run_norm_equivalence(cfg)
    brackets = [e for e in res.summary if e.criterion.startswith("ratio_bracket")]
    tails = [e for e in res.summary if e.criterion.startswith("sweep_tail")]
    unres = [e for e in res.summary if e.criterion == "unresolved_mass_fraction"]
    check("c6 equivalence bracket over (p,s) x weights x t", max(e.measured for e in brackets), 10.0)
    check("c6 boost-sweep truncation (measured)", max(e.measured for e in tails), 1e-6)
    check("c6 resolved-window omitted mass", unres[0].measured, 1e-10)

    # ratio drifts by O(amplitude^2) along the flow: small data stays within 1.5%
    cfg_small = config_from_dict(dict(
        version=1, grid_n=1024, grid_length=L_REF, equation="mkdv",
        sign="defocusing", dt=1e-3, t_final=1.0, snapshots=3,
        ps=[[2.0, 0.0]], boosts=list(range(-8, 9)),
        family={"kind": "gaussian", "width": 1.0, "amplitude": 0.1},
    ))
    res2 = run_norm_equivalence(cfg_small)
    unit_rows = [r for r in res2.rows if r[4] == "unit"]
    ratios = [r[-1] for r in unit_rows]
    stability = max(ratios) / min(ratios) - 1.0
    check("c6 ratio time-stability (amplitude 0.1)", stability, 0.015)


def test_c07_weight_construction(grid):
    """Criterion 7: the five weight properties on three families; exact growth cap."""
    g = make_grid(1024, 8 * math.pi)  # kmax 63
    rng = np.random.default_rng(5)
    mp = ModulationParams(2.0, 0.5)
    families = {
        "gaussians": [gaussian_field(g, w, 0.5) for w in (1.0, 2.0, 4.0)],
        "single_band": [band_indicator_field(g, -0.5, 0.5)],
        "random_bands": [random_band_field(g, -5, 5, 0.4, rng) for _ in range(5)],
    }
    for name, members in families.items():
        profs = np.array([band_profile(f) for f in members])
        w = build_weights(profs, mp)
        chk = verify_weights(w, profs, mp)
        check(f"c7 properties (i)-(iv) [{name}]",
              chk.symmetric_bounded + chk.quadruple_step + chk.monotone + chk.grows, 0.0)
        check(f"c7 property (v) factor [{name}]", chk.weighted_ratio, 2.0)
        ks = np.arange(1, g.kmax + 1)
        over_cap = int(np.sum(~(w.c_of(ks) <= 1.0 + np.log(ks + 1.0))))
        check(f"c7 growth cap c_k <= 1+log(|k|+1) [{name}]", over_cap, 0.0)


def test_c08_scaling_and_embedding(grid):
    """Criterion 8: single global constants for the scaling and embedding bounds."""
    cfg = config_from_dict(dict(
        version=1, grid_n=1024, grid_length=L_REF,
        ps=[[1.0, 0.0], [2.0, 0.0], [4.0, 1.0]],
        lambdas=[0.125, 0.5, 1.0, 2.0, 8.0], suite_size=50, seed=11,
    ))
    res = run_scaling(cfg)
    for e in res.summary:
        if e.criterion.startswith(("scaling_constant", "embedding_constant")):
            check(f"c8 {e.criterion}", e.measured, e.threshold)
        else:
            check("c8 gaussian spectrum closed form", e.measured, e.threshold)


def test_c09_galilei_consistency(grid):
    """Criterion 9: two-path discrepancy at k = 1, shrinking under refinement."""
    base = dict(
        version=1, grid_n=1024, grid_length=L_REF, sign="defocusing",
        dt=1e-3, t_final=0.5, boosts=[1],
        family={"kind": "gaussian", "width": 1.0, "amplitude": 0.3},
    )
    for eq, tol in (("mkdv", 1e-5), ("nls", 1e-6)):
        res = run_galilei(config_from_dict(dict(base, equation=eq)))
        dist = {r[1]: r[2] for r in res.rows}
        check(f"c9 {eq} two-path distance (k=1, dt=1e-3)", dist[1e-3], tol)
        # refinement probe where the splitting error is above the roundoff floor
        res_c = run_galilei(config_from_dict(dict(base, equation=eq, dt=1.25e-2)))
        dist_c = {r[1]: r[2] for r in res_c.rows}
        if eq == "mkdv":
            ratio = dist_c[2.5e-2] / dist_c[1.25e-2]
            check("c9 mkdv refinement ratio (dt 0.025 -> 0.0125)", ratio, 8.0, floor=2.0)
        else:
            # the nls scheme commutes with the boost exactly; both legs sit at roundoff
            check("c9 nls coarse-dt distance at roundoff floor", dist_c[2.5e-2], 1e-12)


def test_c10_apriori_bounds(grid):
    """Criterion 10: bounded growth ratios across the amplitude sweep; exact nls mass."""
    cfg = config_from_dict(dict(
        version=1, grid_n=1024, grid_length=L_REF, equation="mkdv",
        sign="defocusing", dt=2e-3, t_final=1.0, snapshots=3,
        ps=[[1.0, 0.0], [2.0, 0.0], [4.0, 1.0]], amplitudes=[0.1, 0.2, 0.4],
        family={"kind": "gaussian", "width": 1.0, "amplitude": 0.3},
    ))
    res = run_apriori(cfg)
    for e in res.summary:
        if e.criterion.startswith("sup_ratio"):
            check(f"c10 {e.criterion}", e.measured, 2.0)
        elif e.criterion.startswith("equicontinuity_factor"):
            check(f"c10 {e.criterion}", e.measured, 2.0)

    mp = ModulationParams(2.0, 0.0)
    u0 = gaussian_field(grid, 1.0, 0.3)
    traj = evolve_batch([u0], FlowSpec("nls", "defocusing", dt=1e-3), [0.0, 0.5, 1.0])[0]
    norms = [profile_norm(band_profile(u), mp) for u in traj.fields]
    check("c10 nls (2,0) mass ratio deviation", abs(max(norms) / norms[0] - 1.0), 1e-8)

    elapsed = time.time() - MODULE_T0
    check("c10 acceptance-suite runtime (seconds)", elapsed, 1800.0)
