"""Experiment drivers: one per CLI subcommand, each deterministic given (config, seed)."""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..conserved import (
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


class SeriesDivergenceError(RuntimeError):
    """A driver that cannot go on past a diverged series: rho(A) reached 1."""


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
        out = {}
        for k in all_k:
            alpha, a2, a4, op = alpha_terms(u, SpectralParameter(k, cfg.sign), cfg.n_op)
            out[k] = (alpha, a2, a4, op.radius_bound, op.trace)
            samplings.append((op.stride, op.doubling_gap))
        bad = [k for k in all_k if not np.isfinite(out[k][0])]
        if bad:  # conservation of a diverged series is undefined: stop
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
    return RunResult.from_rows("conserve", header, rows, summary, meta)


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
    ks_boost = np.array(cfg.boosts)
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
    return RunResult.from_rows("normequiv", header, rows, summary, {"config": cfg.to_dict()})


# ---------------------------------------------------------------------------

def run_apriori(cfg: ExperimentConfig) -> RunResult:
    """Global-in-time norm bounds over an amplitude sweep, plus the weighted family clause.

    Every amplitude's datum evolves directly, in one batch with the family's
    widths.  sup_ratio reads the data of norm at most apriori_small_norm (the
    small-data bound); normalized_ratio, sup / ((1 + n0)^c n0), reads every
    nonzero datum.  Zero data adds its rows but no ratio.  The family clause
    runs at the family's own amplitude, which must be nonzero, whatever the
    data amplitudes.
    """
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)
    fs = FlowSpec(cfg.equation, cfg.sign, cfg.dt)
    times = cfg.snapshot_times()
    mps = _mps(cfg, "main_range")
    ratio_tol = cfg.tolerance("apriori_ratio")
    equi_tol = cfg.tolerance("apriori_equi_factor")
    small_norm = cfg.tolerance("apriori_small_norm")
    # the equicontinuous family clause: gaussians of the family's widths, amplitude
    # and carrier
    fam = {**FAMILIES["gaussian_mix"], **family_params(cfg.family)[1]}
    amp = float(fam["amplitude"])
    if amp == 0.0:
        raise ConfigError("apriori's family clause needs a nonzero family amplitude")

    # one flow per amplitude and per equicontinuous width, in one batch shared by
    # every (p, s): (times, band profiles) of each, t = 0 being the field itself
    u0s = [_one_member("apriori", dict(cfg.family, amplitude=float(eps)), grid, rng)
           for eps in cfg.amplitudes]
    fam_fields = [gaussian_field(grid, w, amp, fam["center_freq"]) for w in fam["widths"]]
    snaps = [(traj.times, [band_profile(u) for u in traj.fields])
             for traj in evolve_batch(u0s + fam_fields, fs, times)]
    data_snaps, fam_snaps = snaps[:len(u0s)], snaps[len(u0s):]
    fam_profs = np.array([profs[0] for _, profs in fam_snaps])  # t = 0: the family itself

    header = ["p", "s", "eps", "t", "norm", "weighted_norm"]
    rows, summary = [], []
    for mp in mps:
        cexp = apriori_exponent(mp)
        plain, normalized = [], []  # the growth ratios
        for eps, (flow_times, profs) in zip(cfg.amplitudes, data_snaps):
            norms = [profile_norm(prof, mp) for prof in profs]
            rows += [(mp.p, mp.s, eps, ti, nv, 0.0) for ti, nv in zip(flow_times, norms)]
            n0, sup = norms[0], np.max(norms)
            if n0 != 0.0:  # a NaN n0 joins both lists, and fails
                if not n0 > small_norm:
                    plain.append(sup / n0)
                normalized.append(sup / ((1.0 + n0) ** cexp * n0))
        tag = f"p={mp.p:g},s={mp.s:g}"
        if plain:
            summary.append(criterion(f"sup_ratio[{tag}]", np.max(plain), ratio_tol))
        if normalized:
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
    return RunResult.from_rows("apriori", header, rows, summary, {"config": cfg.to_dict()})


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
    # k -> (batch row, conjugate): each nonzero k is evolved once; k = 0
    # is the identity boost, so both of its paths are the unboosted row 0.  For
    # real mkdv data the frame -k equation is the conjugate of the frame k one and
    # u0^-k = conj(u0^k), so a +-k pair evolves the sign seen first and the other
    # reads its conjugate (under nls, conjugation reverses time instead)
    fold = eq == "mkdv" and not np.any(u0.values.imag)
    row_of, evolved = {0.0: (0, False)}, [0.0]
    for k in (k for k in ks if k != 0.0):
        if fold and -k in row_of:
            row_of[k] = (row_of[-k][0], True)
        else:
            row_of[k] = (len(evolved), False)
            evolved.append(k)
    u0ks = [galilei_boost(u0, k, 0.0, eq) for k in evolved[1:]]

    # the unboosted path, then one boosted path per evolved k: nls is
    # boost-invariant, and a boosted mkdv field solves mkdv in the frame of k
    frames = evolved if eq == "mkdv" else None
    batches = {dt: evolve_batch([u0] + u0ks, FlowSpec(eq, cfg.sign, dt), [T], frames)
               for dt in dts}
    for k in ks:
        for dt, trajs in batches.items():
            end = trajs[0].fields[-1]
            # boost at the flow's signed end time: a backward flow ends at -T
            path1 = end if k == 0.0 else galilei_boost(end, k, trajs[0].times[-1], eq)
            row, conjugate = row_of[k]
            path2 = trajs[row].fields[-1].values
            if conjugate:
                path2 = path2.conj()
            dist = float(np.sqrt(np.sum(np.abs(path1.values - path2) ** 2) * grid.dx))
            rows.append((k, dt, dist))
            if dt == cfg.dt:
                summary.append(criterion(f"two_path_distance[k={k:g}]", dist, tol))
    # row i of every batch evolves evolved_boosts[i]; a boost not listed is read as a conjugate
    meta = {"config": cfg.to_dict(), "evolved_boosts": evolved}
    return RunResult.from_rows("galilei", header, rows, summary, meta)


# ---------------------------------------------------------------------------

def run_scaling(cfg: ExperimentConfig) -> RunResult:
    """Scaling-factor and Sobolev-embedding constants over a random suite.

    scale_field keeps every spectrum sample and only re-grids L -> lam L, so
    the suite's |fhat|^2 is stacked once as an (S, N) array and each rescaled
    band profile bins that array on scaled_grid(grid, lam).
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
    for li, (lam, g) in enumerate(zip(lams, grids)):
        prof_l = band_profile(power, g)
        for mp, base, r in zip(mps, bases, ratios):
            r[:, li] = profile_norm(prof_l, mp) / (scaling_bound_factor(lam, mp) * base)
    unresolved = {f"{lam:g}": float(np.max(frac))
                  for lam, frac in zip(lams, unresolved_mass_fraction(power, grids))}
    sobolev = {sigma: sobolev_norm(power, sigma, grid) for sigma in set(sigmas)}

    # blocks[j]: per field of the suite, its scaling ratio at each lam, then its
    # embedding ratio, at mps[j]
    blocks, summary = [], []
    for mp, sigma, base, r in zip(mps, sigmas, bases, ratios):
        emb = sobolev[sigma] / base
        blocks.append(np.column_stack([r, emb]).ravel())
        tag = f"p={mp.p:g},s={mp.s:g}"
        summary.append(criterion(f"scaling_constant[{tag}]", np.max(r, initial=0.0), sc_tol))
        summary.append(criterion(f"embedding_constant[{tag}]", np.max(emb, initial=0.0), emb_tol))
    header = ["check", "field", "p", "s", "lam", "ratio"]
    per_field, per_mp = len(lams) + 1, cfg.suite_size * (len(lams) + 1)
    columns = [
        (["scaling"] * len(lams) + ["embedding"]) * (cfg.suite_size * len(mps)),
        np.repeat(range(cfg.suite_size), per_field).tolist() * len(mps),
        np.repeat([mp.p for mp in mps], per_mp),
        np.repeat([mp.s for mp in mps], per_mp),
        np.tile(lams + [0.0], cfg.suite_size * len(mps)),  # an embedding row's lam is 0
        np.concatenate(blocks),
    ]

    # analytic cross-check: scaled gaussian spectrum is exactly the dilated gaussian
    g1 = gaussian_field(grid, 1.0, 1.0)
    lam = 2.0
    fl = scale_field(g1, lam)
    err = float(np.max(np.abs(fl.spectrum - np.exp(-(lam * fl.grid.xi) ** 2 / 2.0))))
    summary.append(criterion("gaussian_scaling_spectrum_error", err,
                             cfg.tolerance("gaussian_scaling_spectrum_error")))
    meta = {"config": cfg.to_dict(), "max_unresolved_fraction": unresolved}
    return RunResult("scaling", header, columns, summary, meta)


# ---------------------------------------------------------------------------

def run_tails(cfg: ExperimentConfig) -> RunResult:
    """High-order tail inequalities: sextic-and-up and quartic band aggregates.

    The boost sweep is one frame table, independent of (p, s): for each amplitude
    and nonzero snapshot, one row (k, beta2, beta4, beta_geq6, tail2, tail3) per
    distinct boost.  beta_geq6 is NaN where a series diverged, and each (p, s)
    reads its CSV rows, its ratios and its skipped boosts from the table.
    """
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)
    fs = FlowSpec(cfg.equation, cfg.sign, cfg.dt)
    mps = _mps(cfg, "main_range")
    const_tol, stab_tol = cfg.tolerance("tails_constant"), cfg.tolerance("tails_stability")
    kp_half = SpectralParameter(0.5, cfg.sign)
    kp_one = SpectralParameter(1.0, cfg.sign)
    boosts = [float(k) for k in cfg.boosts]
    samplings = []  # (stride, doubling gap) of the operators of every certified frame

    def frame(u, t, k):  # the table row of the boosted snapshot u^k
        uk = galilei_boost(u, k, t, cfg.equation)
        b2 = alpha2(u, 0.5, shift=k) - 0.5 * alpha2(u, 1.0, shift=k)
        a_half, _, a4_half, op_half = alpha_terms(uk, kp_half, cfg.n_op, -k)
        if np.isnan(a_half):  # b6 is NaN anyway: kappa = 1 adds only its quartic term
            a_one, a4_one = np.nan, alpha4(uk, kp_one)
        else:
            a_one, _, a4_one, op_one = alpha_terms(uk, kp_one, cfg.n_op, -k)
        b4 = a4_half - 0.5 * a4_one
        b6 = (a_half - 0.5 * a_one) - b2 - b4  # NaN where a series diverged
        if not np.isnan(b6):
            samplings.extend((op.stride, op.doubling_gap) for op in (op_half, op_one))
        tail = tail_bound(u, k)
        return k, b2, b4, b6, tail**2, tail**3

    u0s = [_one_member("tails", dict(cfg.family, amplitude=float(eps)), grid, rng)
           for eps in cfg.amplitudes]
    # (amplitude index, t, band profile) of each nonzero snapshot, and its rows, boost by boost
    snaps, frames = [], []
    for i, traj in enumerate(evolve_batch(u0s, fs, cfg.snapshot_times())):
        for t, u in zip(traj.times, traj.fields):
            prof = band_profile(u)
            if prof.any():  # a zero snapshot has no rows: both sides vanish
                snaps.append((i, t, prof))
                frames += [frame(u, t, k) for k in boosts]
    table = np.array(frames).reshape(len(snaps), len(boosts), 6)
    skipped = int(np.isnan(table[..., 3]).sum())

    header = ["p", "s", "eps", "t", "k", "beta2", "beta4", "beta_geq6", "tail2", "tail3"]
    rows, summary = [], []
    for mp in mps:
        # amplitude index -> the (sextic, quartic) ratios of its nonzero snapshots, NaN
        # where every boost was skipped; zero data has no entry, so no ratio to compare
        ratios = {}
        for (i, t, prof), snap_rows in zip(snaps, table.tolist()):
            rows += [(mp.p, mp.s, cfg.amplitudes[i], t, *row) for row in snap_rows]
            live = [(bracket(k) ** mp.s, b4, b6) for k, _, b4, b6, *_ in snap_rows
                    if not np.isnan(b6)]
            M = profile_norm(prof, mp)
            r6 = r4 = np.nan  # every boost skipped
            if live:
                r6 = float(lp_norm([w * np.sqrt(abs(b6)) for w, _, b6 in live], mp.p)) / M**3
                r4 = float(lp_norm([w * np.sqrt(abs(b4)) for w, b4, _ in live], mp.p)) / M**2
            ratios.setdefault(i, []).append((r6, r4))
        # per amplitude, np.fmax passes over NaN snapshots: it is NaN only when all are
        by_eps = np.array([np.fmax.reduce(r) for r in ratios.values()]).reshape(-1, 2)
        # the spreads compare the amplitudes with nonzero data (1 when there are none);
        # np.max/np.min keep a NaN (an amplitude with every boost skipped) wherever it sits
        hi = np.max(by_eps, axis=0, initial=0.0)
        spread = hi / np.min(by_eps, axis=0) if len(by_eps) else (1.0, 1.0)
        tag = f"p={mp.p:g},s={mp.s:g}"
        summary += [criterion(f"{name}_constant[{tag}]", c, const_tol)
                    for name, c in zip(("sextic", "quartic"), hi)]
        summary += [criterion(f"{name}_eps_stability[{tag}]", r, stab_tol)
                    for name, r in zip(("sextic", "quartic"), spread)]
        if skipped:
            summary.append(criterion(f"skipped_boosts[{tag}]", skipped,
                                     cfg.tolerance("tails_skipped_boosts")))
    meta = {"config": cfg.to_dict(), **_stride_health(samplings)}
    return RunResult.from_rows("tails", header, rows, summary, meta)


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
    # the 4N grid adds no threshold
    violations = cfg.tolerance("weights_violations")
    summary = [criterion(name, getattr(chk, name), violations)
               for name in ("symmetric_bounded", "quadruple_step", "monotone", "grows")]
    summary += [criterion("weighted_ratio", chk.weighted_ratio, cfg.tolerance("weights_ratio")),
                criterion("threshold_growth_with_window", len(w2.thresholds) <= len(w.thresholds),
                          violations)]
    meta = {"config": cfg.to_dict(), "thresholds": list(w.thresholds),
            "thresholds_wide": list(w2.thresholds)}
    return RunResult.from_rows("weights", header, rows, summary, meta)
