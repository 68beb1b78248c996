"""Experiment drivers: one per CLI subcommand, each deterministic given (config, seed)."""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..conserved import (
    SeriesDivergenceError,
    SpectralParameter,
    alpha2,
    alpha4,
    alpha_terms,
    tail_bound,
)
from ..equicont import build_weights, verify_weights
from ..flows import FlowSpec, evolve_batch
from ..grid import band_profile, gaussian_field, make_grid, unresolved_mass_fraction
from ..norms import (
    ModulationParams,
    admissible_sigma,
    band_terms,
    bracket,
    hs_functional,
    lp_norm,
    profile_norm,
    sobolev_norm,
)
from ..symmetries import (
    apriori_exponent,
    galilei_boost,
    scale_field,
    scaled_grid,
    scaling_bound_factor,
)
from .config import (
    FAMILIES,
    ConfigError,
    ExperimentConfig,
    build_family,
    family_params,
    suite_power,
)
from .reports import RunResult, criterion


# the (p, s) ranges a driver can require: ModulationParams property -> inequality
_PS_RANGES = {"main_range": "s < 3/2 - 1/p", "equiv_range": "s < 2 - 1/p"}


def _mps(cfg: ExperimentConfig, ps_range: str | None = None) -> list:
    """cfg.ps as ModulationParams, each inside `ps_range` when one is named."""
    mps = [ModulationParams(float(p), float(s)) for p, s in cfg.ps]
    for mp in mps:
        if ps_range and not getattr(mp, ps_range):
            raise ConfigError(f"(p, s) = ({mp.p}, {mp.s}) violates {_PS_RANGES[ps_range]}")
    return mps


def _rel_drift(values):
    """max |v - v0| / |v0| (/ 1 when v0 = 0); a NaN anywhere gives NaN."""
    values = np.asarray(values, dtype=float)
    scale = abs(values[0]) if values[0] != 0 else 1.0
    return float(np.max(np.abs(values - values[0]))) / scale


def _stride_health(samplings) -> dict:
    """meta entries of the (stride, doubling gap) pairs alpha_terms accepted:
    how many operators took each stride, and the largest gap."""
    counts = Counter(m for m, _ in samplings)
    return {"operator_strides": {str(m): counts[m] for m in sorted(counts)},
            "max_doubling_gap": float(np.max([gap for _, gap in samplings], initial=0.0))}


def _one_member(driver: str, descriptor: dict, grid, rng):
    """The one Field of a family descriptor; a family of more is a ConfigError."""
    members = build_family(descriptor, grid, rng)
    if len(members) != 1:
        raise ConfigError(f"{driver} evolves one family member, got {len(members)}")
    return members[0]


# ---------------------------------------------------------------------------

def run_conservation(cfg: ExperimentConfig) -> RunResult:
    """Evolve the data and track the determinant functionals at each (t, kappa)."""
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)
    members = build_family(cfg.family, grid, rng)
    fs = FlowSpec(cfg.equation, cfg.sign, cfg.dt)
    times = cfg.snapshot_times()
    kappas = [float(k) for k in cfg.kappas]
    all_k = sorted({k for k in kappas} | {2.0 * k for k in kappas})
    tol = cfg.tolerance("conservation_drift")

    samplings = []  # (stride, doubling gap) of every operator

    def measure(u, t):  # kappa -> (alpha, alpha2, alpha4, radius bound, trace) over all_k
        out, bad = {}, []
        for k in all_k:
            try:
                alpha, a2, a4, op = alpha_terms(u, SpectralParameter(k, cfg.sign), cfg.n_op)
                out[k] = (alpha, a2, a4, op.radius_bound, op.trace())
                samplings.append((op.stride, op.doubling_gap))
            except SeriesDivergenceError:
                bad.append(k)
        if bad:
            raise SeriesDivergenceError(f"series diverges at t={t:g} for kappa in {bad}")
        return out

    header = ["member", "t", "kappa", "alpha_full", "beta_full", "alpha2", "alpha4",
              "beta2", "hs_functional", "spectral_radius"]
    rows, summary, max_bound = [], [], 0.0
    # evolve_batch records t = 0 as the member itself; measuring every member
    # first stops divergent data before the flow runs
    at_zero = [measure(u0, 0.0) for u0 in members]
    trajs = evolve_batch(members, fs, times)
    for mi, (m0, traj) in enumerate(zip(at_zero, trajs)):
        per_t = [m0] + [measure(u, ti) for ti, u in zip(traj.times[1:], traj.fields[1:])]
        for ti, u, m in zip(traj.times, traj.fields, per_t):
            for k in kappas:
                alpha, a2, a4, rho, _ = m[k]
                rows.append((mi, ti, k, alpha, alpha - 0.5 * m[2.0 * k][0], a2, a4,
                             a2 - 0.5 * m[2.0 * k][1], hs_functional(u, k), rho))
        for k in kappas:
            a_series = [m[k][0] for m in per_t]
            b_series = [m[k][0] - 0.5 * m[2.0 * k][0] for m in per_t]
            summary.append(criterion(f"alpha_drift[m{mi},kappa={k:g}]", _rel_drift(a_series), tol))
            summary.append(criterion(f"beta_drift[m{mi},kappa={k:g}]", _rel_drift(b_series), tol))
        # discretized traces should be essentially real before their Re is taken
        worst_imag = np.max([abs(tr.imag) / np.maximum(abs(tr.real), 1e-300)
                             for m in per_t for *_, tr in m.values()])
        summary.append(criterion(f"trace_imag_rel[m{mi}]", worst_imag,
                                 cfg.tolerance("trace_imag")))
        max_bound = float(np.max([max_bound] + [rho for m in per_t for *_, rho, _ in m.values()]))
    meta = {"config": cfg.to_dict(), "max_radius_bound": max_bound, **_stride_health(samplings)}
    return RunResult("conserve", header, rows, summary, meta)


# ---------------------------------------------------------------------------

def run_norm_equivalence(cfg: ExperimentConfig) -> RunResult:
    """Compare the banded norm of u(t) with the boosted quadratic-functional norm."""
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)
    members = build_family(cfg.family, grid, rng)
    fs = FlowSpec(cfg.equation, cfg.sign, cfg.dt)
    times = cfg.snapshot_times()
    mps = _mps(cfg, "equiv_range")
    bracket_tol = cfg.tolerance("normequiv_bracket")
    tail_tol = cfg.tolerance("normequiv_sweep_tail")

    trajs = evolve_batch(members, fs, times)
    header = ["member", "t", "p", "s", "weighted", "lhs", "rhs", "ratio"]
    rows, summary = [], []
    # the sweep is the set of boosts: a repeated boost counts once
    ks_boost = np.array(list(dict.fromkeys(cfg.boosts)))
    # the resolved bands with no boost, which the sweep ignores on the banded side
    beyond = ~np.isin(np.arange(-grid.kmax, grid.kmax + 1), ks_boost)
    # per (member, t), independent of (p, s): sqrt(beta2) over the boosts and the band
    # profile; beta2 of the boosted u^k is alpha2(1/2) - alpha2(1)/2 of u shifted by k
    per_field = [[(np.sqrt([max(alpha2(u, 0.5, shift=k) - 0.5 * alpha2(u, 1.0, shift=k), 0.0)
                            for k in map(float, ks_boost)]),
                   band_profile(u)) for u in traj.fields] for traj in trajs]
    profs0 = np.array([fields[0][1] for fields in per_field])  # t = 0: the members
    unresolved = np.max([unresolved_mass_fraction(u) for traj in trajs for u in traj.fields])
    summary.append(criterion("unresolved_mass_fraction", unresolved,
                             cfg.tolerance("normequiv_unresolved")))
    for mp in mps:
        for mode, w in (("unit", None), ("built", build_weights(profs0, mp))):
            c_boost = np.ones(len(ks_boost)) if w is None else w.c_of(ks_boost)
            warr = None if w is None else w.as_array()
            ratios, tail_fracs = [], []
            for mi, (traj, fields) in enumerate(zip(trajs, per_field)):
                for ti, (root_b2, prof) in zip(traj.times, fields):
                    terms = band_terms(prof, mp, warr)
                    lhs = float(lp_norm(terms, mp.p))
                    rhs_terms = c_boost * bracket(ks_boost) ** mp.s * root_b2
                    rhs = float(lp_norm(rhs_terms, mp.p))
                    if lhs == 0.0 and rhs == 0.0:
                        ratio = 1.0  # zero data, equal by convention
                    else:
                        ratio = lhs / rhs if rhs > 0 else np.inf
                    ratios.append(ratio)
                    if lhs != 0.0:  # a NaN lhs gives a NaN fraction
                        tail_fracs.append(float(lp_norm(terms[beyond], mp.p)) / lhs)
                    rows.append((mi, ti, mp.p, mp.s, mode, lhs, rhs, ratio))
            # np.max/np.min keep a NaN wherever it sits
            hi, lo = np.max(ratios), np.min(ratios)
            cbr = np.max([hi, 1.0 / lo if lo > 0 else np.inf])
            tag = f"p={mp.p:g},s={mp.s:g},{mode}"
            summary.append(criterion(f"ratio_bracket[{tag}]", cbr, bracket_tol))
            summary.append(criterion(f"sweep_tail_fraction[{tag}]",
                                     np.max(tail_fracs, initial=0.0), tail_tol))
    return RunResult("normequiv", header, rows, summary, {"config": cfg.to_dict()})


# ---------------------------------------------------------------------------

def run_apriori(cfg: ExperimentConfig) -> RunResult:
    """Global-in-time norm bounds over an amplitude sweep, plus the weighted family clause.

    Data whose norm exceeds apriori_small_norm is rescaled into the small
    regime first; see _rescaling and _large_data_criteria. Zero data adds its
    rows but no ratio; the family clause takes the first nonzero amplitude.
    """
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)
    fs = FlowSpec(cfg.equation, cfg.sign, cfg.dt)
    times = cfg.snapshot_times()
    mps = _mps(cfg, "main_range")
    ratio_tol = cfg.tolerance("apriori_ratio")
    equi_tol = cfg.tolerance("apriori_equi_factor")
    amp = next((float(eps) for eps in cfg.amplitudes if eps > 0), None)
    if amp is None:
        raise ConfigError("apriori needs a nonzero amplitude for its family clause")

    small_norm = cfg.tolerance("apriori_small_norm")
    eps_target = cfg.tolerance("apriori_eps_target")
    # the equicontinuous family clause: gaussians of the family's widths and carrier
    fam = {**FAMILIES["gaussian_mix"], **family_params(cfg.family)[1]}

    # one field per amplitude and one flow per equicontinuous width, shared by every (p, s)
    u0s = [_one_member("apriori", dict(cfg.family, amplitude=float(eps)), grid, rng)
           for eps in cfg.amplitudes]
    profs0 = [band_profile(u0) for u0 in u0s]
    fam_fields = [gaussian_field(grid, w, amp, fam["center_freq"]) for w in fam["widths"]]
    n0s = [[profile_norm(prof0, mp) for prof0 in profs0] for mp in mps]
    # every large-data rescaling must fit the pad budget before any flow runs
    rescalings = [[_rescaling(n0, mp, grid, eps_target) if n0 > small_norm else None
                   for n0 in row] for mp, row in zip(mps, n0s)]

    def profiles(fields):  # (times, band profiles) of the flow from each field
        return [(traj.times, [band_profile(u) for u in traj.fields])
                for traj in evolve_batch(fields, fs, times)]

    # an amplitude needs the small-data flow when some (p, s) finds its norm small;
    # those flows run in one batch with the family's
    small = [i for i in range(len(u0s)) if any(row[i] is None for row in rescalings)]
    snaps = profiles([u0s[i] for i in small] + fam_fields)
    small_snaps = dict(zip(small, snaps))
    fam_snaps = snaps[len(small):]
    fam_profs = np.array([profs[0] for _, profs in fam_snaps])  # t = 0: the family itself
    # per (p, s) and amplitude, the (times, band profiles) of the flow it reads;
    # a rescaled field has a grid of its own, so it is a batch of one row
    flows = [[small_snaps[i] if r is None else profiles([scale_field(u0s[i], r[0], pad=r[1])])[0]
              for i, r in enumerate(row)] for row in rescalings]

    header = ["p", "s", "eps", "t", "norm", "weighted_norm"]
    rows, summary = [], []
    for mp, mp_n0s, mp_rescalings, mp_flows in zip(mps, n0s, rescalings, flows):
        cexp = apriori_exponent(mp)
        plain, normalized = [], []  # the small-data growth ratios
        for eps, n0, rescaling, (flow_times, profs) in zip(cfg.amplitudes, mp_n0s,
                                                           mp_rescalings, mp_flows):
            norms = [profile_norm(prof, mp) for prof in profs]
            # a rescaled flow's rows carry the data's norm n0 in the eps column
            label = eps if rescaling is None else n0
            rows += [(mp.p, mp.s, label, ti, nv, 0.0) for ti, nv in zip(flow_times, norms)]
            if rescaling is not None:
                summary += _large_data_criteria(norms, n0, mp, rescaling[0], cfg)
            elif n0 > 0.0:
                sup = np.max(norms)
                plain.append(sup / n0)
                normalized.append(sup / ((1.0 + n0) ** cexp * n0))
        tag = f"p={mp.p:g},s={mp.s:g}"
        if plain:
            summary.append(criterion(f"sup_ratio[{tag}]", np.max(plain), ratio_tol))
            summary.append(criterion(f"normalized_ratio[{tag}]", np.max(normalized), ratio_tol))

        # equicontinuous family: weighted norms stay within the factor-2 budget
        warr = build_weights(fam_profs, mp).as_array()
        w0 = np.max([profile_norm(prof, mp, weights=warr) for prof in fam_profs])
        wns = []  # from every snapshot, t = 0 included
        for snap_times, profs in fam_snaps:
            for ti, prof in zip(snap_times, profs):
                wn = profile_norm(prof, mp, weights=warr)
                rows.append((mp.p, mp.s, amp, ti, profile_norm(prof, mp), wn))
                wns.append(wn)
        summary.append(criterion(f"equicontinuity_factor[{tag}]", np.max(wns) / w0, equi_tol))
    return RunResult("apriori", header, rows, summary, {"config": cfg.to_dict()})


def _rescaling(n0, mp, g, eps_target):
    """(lam0, pad) that take data of norm n0 on grid g into the small regime.

    lam0 follows the recipe (1 + norm/eps)^p for p >= 2 and exponent 2 for
    p <= 2; pad is the power of two that keeps the rescaled spectrum resolved,
    and a pad above 64 is a ConfigError.
    """
    base_exp = mp.p if mp.p >= 2.0 else 2.0
    lam0 = (1.0 + n0 / eps_target) ** base_exp
    window = (g.n // 2) * g.dxi
    need = 3.0 * lam0 / window
    pad = 1
    while pad < need:
        pad *= 2
    if pad > 64:
        raise ConfigError(f"rescaling pad {pad} exceeds the budget; data too large")
    return lam0, pad


def _large_data_criteria(norms, n0, mp, lam0, cfg):
    """The criteria of data of norm n0, from the norms along its flow after the
    rescaling by lam0 (norms[0], at t = 0, is the rescaled data's own).

    The rescaled run must obey the small-data bound, and the bound transported
    back through the scaling factor gives the measured large-data constant
    relative to (1 + norm)^c * norm.
    """
    n_small, sup_small = norms[0], np.max(norms)
    implied = scaling_bound_factor(1.0 / lam0, mp) * sup_small
    large_const = implied / ((1.0 + n0) ** apriori_exponent(mp) * n0)
    tag = f"p={mp.p:g},s={mp.s:g},norm={n0:.3g}"
    return [
        criterion(f"rescaled_norm[{tag}]", n_small, 2.0 * cfg.tolerance("apriori_eps_target")),
        criterion(f"rescaled_sup_ratio[{tag}]", sup_small / n_small,
                  cfg.tolerance("apriori_ratio")),
        criterion(f"large_data_constant[{tag}]", large_const,
                  cfg.tolerance("apriori_large_constant")),
    ]


# ---------------------------------------------------------------------------

def run_galilei(cfg: ExperimentConfig) -> RunResult:
    """Two-path check: boost-then-evolve against evolve-then-boost."""
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)
    u0 = _one_member("galilei", cfg.family, grid, rng)
    eq = cfg.equation
    tol = cfg.tolerance("galilei_distance")
    T = cfg.t_final
    cfg.check_time(T, "t_final")

    header = ["k", "dt", "distance"]
    rows, summary = [], []
    dts = [cfg.dt]
    if round(T / abs(cfg.dt)) % 2 == 0:  # T is a whole number of steps; is it even?
        dts.append(2.0 * cfg.dt)  # refinement companion, only when it divides T
    ks = [float(k) for k in cfg.boosts]
    # each distinct nonzero k is evolved once; k = 0 is the identity boost, so
    # both of its paths are the unboosted row 0
    moving = list(dict.fromkeys(k for k in ks if k != 0.0))
    row_of = {0.0: 0, **{k: i for i, k in enumerate(moving, start=1)}}
    u0ks = [galilei_boost(u0, k, 0.0, eq) for k in moving]

    # the unboosted path, then one boosted path per distinct nonzero k: nls is
    # boost-invariant, and a boosted mkdv field solves mkdv in the frame of k
    frames = [0.0] + moving if eq == "mkdv" else None
    batches = {dt: evolve_batch([u0] + u0ks, FlowSpec(eq, cfg.sign, dt), [T], frames)
               for dt in dts}
    for k in ks:
        for dt, trajs in batches.items():
            end = trajs[0].fields[-1]
            # boost at the flow's signed end time: a backward flow ends at -T
            path1 = end if k == 0.0 else galilei_boost(end, k, trajs[0].times[-1], eq)
            path2 = trajs[row_of[k]].fields[-1]
            dist = float(np.sqrt(np.sum(np.abs(path1.values - path2.values) ** 2) * grid.dx))
            rows.append((k, dt, dist))
            if dt == cfg.dt:
                summary.append(criterion(f"two_path_distance[k={k:g}]", dist, tol))
    return RunResult("galilei", header, rows, summary, {"config": cfg.to_dict()})


# ---------------------------------------------------------------------------

def run_scaling(cfg: ExperimentConfig) -> RunResult:
    """Scaling-factor and Sobolev-embedding constants over a random suite.

    scale_field at pad 1 keeps every spectrum sample and only re-grids
    L -> lam L, so the suite's |fhat|^2 is stacked once as an (S, N) array
    and each rescaled band profile bins that array on scaled_grid(grid, lam).
    """
    grid = cfg.grid()
    lams = [float(lam) for lam in cfg.lambdas]
    grids = [scaled_grid(grid, lam) for lam in lams]
    for lam, g in zip(lams, grids):
        if g.kmax < 0:
            raise ConfigError(f"lambda {lam:g} leaves no resolved band on the rescaled "
                              f"grid (N = {g.n}, L = {g.length:g}); the largest this grid "
                              f"resolves is {grid.n * np.pi / grid.length:g}")
    mps = _mps(cfg)
    try:
        sigmas = [admissible_sigma(mp) for mp in mps]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rng = np.random.default_rng(cfg.seed)
    power = suite_power(grid, cfg.suite_size, rng)  # |fhat|^2 is all the driver reads
    sc_tol = cfg.tolerance("scaling_constant")
    emb_tol = cfg.tolerance("embedding_constant")

    prof = band_profile(power, grid)
    bases = [profile_norm(prof, mp) for mp in mps]
    # ratios[j][i, l]: field i's scaling ratio at (mps[j], lams[l])
    ratios = [np.empty((cfg.suite_size, len(lams))) for _ in mps]
    unresolved = {}
    for li, (lam, g) in enumerate(zip(lams, grids)):
        prof_l = band_profile(power, g)
        for mp, base, r in zip(mps, bases, ratios):
            r[:, li] = profile_norm(prof_l, mp) / (scaling_bound_factor(lam, mp) * base)
        unresolved[f"{lam:g}"] = float(np.max(unresolved_mass_fraction(power, g)))
    sobolev = {sigma: sobolev_norm(power, sigma, grid) for sigma in set(sigmas)}

    header = ["check", "field", "p", "s", "lam", "ratio"]
    rows, summary = [], []
    for mp, sigma, base, r in zip(mps, sigmas, bases, ratios):
        emb = sobolev[sigma] / base
        for i, (row, e) in enumerate(zip(r.tolist(), emb.tolist())):
            rows += [("scaling", i, mp.p, mp.s, lam, x) for lam, x in zip(lams, row)]
            rows.append(("embedding", i, mp.p, mp.s, 0.0, e))
        tag = f"p={mp.p:g},s={mp.s:g}"
        summary.append(criterion(f"scaling_constant[{tag}]", np.max(r, initial=0.0), sc_tol))
        summary.append(criterion(f"embedding_constant[{tag}]", np.max(emb, initial=0.0), emb_tol))

    # analytic cross-check: scaled gaussian spectrum is exactly the dilated gaussian
    g1 = gaussian_field(grid, 1.0, 1.0)
    lam = 2.0
    fl = scale_field(g1, lam)
    err = float(np.max(np.abs(fl.spectrum - np.exp(-(lam * fl.grid.xi) ** 2 / 2.0))))
    summary.append(criterion("gaussian_scaling_spectrum_error", err, 1e-10))
    meta = {"config": cfg.to_dict(), "max_unresolved_fraction": unresolved}
    return RunResult("scaling", header, rows, summary, meta)


# ---------------------------------------------------------------------------

def run_tails(cfg: ExperimentConfig) -> RunResult:
    """High-order tail inequalities: sextic-and-up and quartic band aggregates."""
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)
    fs = FlowSpec(cfg.equation, cfg.sign, cfg.dt)
    times = cfg.snapshot_times()
    mps = _mps(cfg, "main_range")
    stab_tol = cfg.tolerance("tails_stability")
    kp_half = SpectralParameter(0.5, cfg.sign)
    kp_one = SpectralParameter(1.0, cfg.sign)

    # per (eps, t): the band profile and the boost rows (k, b2, b4, b6, tail2, tail3),
    # independent of (p, s); zero data has no rows, and b6 is NaN at a skipped boost
    snaps_by_eps, skipped, samplings = [], 0, []
    u0s = [_one_member("tails", dict(cfg.family, amplitude=float(eps)), grid, rng)
           for eps in cfg.amplitudes]
    for traj in evolve_batch(u0s, fs, times):
        snaps = []
        for ti, u in zip(traj.times, traj.fields):
            prof = band_profile(u)
            if not prof.any():
                snaps.append((ti, prof, None))
                continue
            boost_rows = []
            for k in dict.fromkeys(cfg.boosts):  # a repeated boost counts once
                kf = float(k)
                uk = galilei_boost(u, kf, ti, cfg.equation)
                b2 = alpha2(u, 0.5, shift=kf) - 0.5 * alpha2(u, 1.0, shift=kf)
                try:
                    a_half, _, a4_half, op_half = alpha_terms(uk, kp_half, cfg.n_op, -kf)
                    a_one, _, a4_one, op_one = alpha_terms(uk, kp_one, cfg.n_op, -kf)
                    samplings += [(op.stride, op.doubling_gap) for op in (op_half, op_one)]
                except SeriesDivergenceError:
                    skipped += 1
                    b4 = alpha4(uk, kp_half) - 0.5 * alpha4(uk, kp_one)
                    b6 = np.nan
                else:
                    b4 = a4_half - 0.5 * a4_one
                    b6 = (a_half - 0.5 * a_one) - b2 - b4
                tail = tail_bound(u, kf)
                boost_rows.append((k, b2, b4, b6, tail**2, tail**3))
            snaps.append((ti, prof, boost_rows))
        snaps_by_eps.append(snaps)

    header = ["p", "s", "eps", "t", "k", "beta2", "beta4", "beta_geq6", "tail2", "tail3"]
    rows, summary = [], []
    for mp in mps:
        ratio6_by_eps, ratio4_by_eps = [], []
        for eps, snaps in zip(cfg.amplitudes, snaps_by_eps):
            if all(boost_rows is None for *_, boost_rows in snaps):
                continue  # zero data: both sides vanish, so it has no ratio to compare
            r6s, r4s = [], []
            for ti, prof, boost_rows in snaps:
                if boost_rows is None:
                    r6s.append(0.0)  # a zero snapshot: both sides vanish
                    r4s.append(0.0)
                    continue
                M = profile_norm(prof, mp)
                t6, t4 = [], []
                for k, b2, b4, b6, tail2, tail3 in boost_rows:
                    rows.append((mp.p, mp.s, eps, ti, k, b2, b4, b6, tail2, tail3))
                    if not np.isnan(b6):
                        t6.append(bracket(k) ** mp.s * np.sqrt(abs(b6)))
                        t4.append(bracket(k) ** mp.s * np.sqrt(abs(b4)))
                if t6:
                    r6s.append(float(lp_norm(t6, mp.p)) / M**3)
                    r4s.append(float(lp_norm(t4, mp.p)) / M**2)
            ratio6_by_eps.append(max(r6s) if r6s else np.nan)
            ratio4_by_eps.append(max(r4s) if r4s else np.nan)
        tag = f"p={mp.p:g},s={mp.s:g}"
        # the spreads compare the amplitudes with nonzero data (1 when there are none);
        # np.max/np.min keep a NaN (an amplitude with every boost skipped) wherever it sits
        hi6, hi4 = np.max(ratio6_by_eps, initial=0.0), np.max(ratio4_by_eps, initial=0.0)
        spread6 = hi6 / np.min(ratio6_by_eps) if ratio6_by_eps else 1.0
        spread4 = hi4 / np.min(ratio4_by_eps) if ratio4_by_eps else 1.0
        # the constants are reported, not bounded: only a non-finite one fails
        summary.append(criterion(f"sextic_constant[{tag}]", hi6, np.inf))
        summary.append(criterion(f"quartic_constant[{tag}]", hi4, np.inf))
        summary.append(criterion(f"sextic_eps_stability[{tag}]", spread6, stab_tol))
        summary.append(criterion(f"quartic_eps_stability[{tag}]", spread4, stab_tol))
        if skipped:
            summary.append(criterion(f"skipped_boosts[{tag}]", skipped, 0.0))
    meta = {"config": cfg.to_dict(), **_stride_health(samplings)}
    return RunResult("tails", header, rows, summary, meta)


# ---------------------------------------------------------------------------

def run_weights(cfg: ExperimentConfig) -> RunResult:
    """Build and verify the equicontinuity weights; check growth under a wider window."""
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)
    kind, params = family_params(cfg.family)
    # a single gaussian is no family: use the mix of its widths, amplitude and carrier,
    # which must include its width
    if kind == "gaussian" and params["width"] not in params["widths"]:
        raise ConfigError(f"weights builds the mix of the gaussian's widths "
                          f"{params['widths']}; its width {params['width']} is not one of them")
    fam = cfg.family if kind != "gaussian" else dict(
        {key: params[key] for key in FAMILIES["gaussian_mix"]}, kind="gaussian_mix")
    if len(cfg.ps) != 1:
        raise ConfigError(f"weights checks one (p, s) pair, got {len(cfg.ps)}")
    mp = _mps(cfg)[0]
    profs = np.array([band_profile(f) for f in build_family(fam, grid, rng)])
    if not profs.any():
        raise ConfigError("every member of the weights family is zero; it bounds no tail")
    w = build_weights(profs, mp)
    chk = verify_weights(w, profs, mp)

    # one step of the 4x threshold spacing: at 2N the wider window's kmax sits just
    # below the next threshold the spacing allows (31 < 32 at N = 1024)
    grid2 = make_grid(cfg.grid_n * 4, cfg.grid_length)
    members2 = build_family(fam, grid2, np.random.default_rng(cfg.seed))
    w2 = build_weights([band_profile(f) for f in members2], mp)

    header = ["k", "c_k"]
    rows = [(k, c) for k, c in zip(range(0, grid.kmax + 1), w.as_array()[grid.kmax:])]
    # (i)-(iv) count the bands that violate them, and the window check reads 1 when
    # the 4N grid adds no threshold: each criterion holds at 0
    summary = [
        criterion("symmetric_bounded", chk.symmetric_bounded, 0.0),
        criterion("quadruple_step", chk.quadruple_step, 0.0),
        criterion("monotone", chk.monotone, 0.0),
        criterion("grows", chk.grows, 0.0),
        criterion("weighted_ratio", chk.weighted_ratio, 2.0),
        criterion("threshold_growth_with_window", len(w2.thresholds) <= len(w.thresholds), 0.0),
    ]
    meta = {"config": cfg.to_dict(), "thresholds": list(w.thresholds),
            "thresholds_wide": list(w2.thresholds)}
    return RunResult("weights", header, rows, summary, meta)
