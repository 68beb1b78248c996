import itertools
import json
import math

import numpy as np
import pytest

from modspec import SeriesDivergenceError, alpha4, evolve
from modspec.harness import (
    ConfigError,
    ExperimentConfig,
    load_config,
    run_apriori,
    run_conservation,
    run_galilei,
    run_norm_equivalence,
    run_scaling,
    run_tails,
    run_weights,
)
from modspec.harness.cli import main
from modspec.harness.config import FAMILIES, build_family, config_from_dict
from modspec.harness.reports import criterion, fmt, write_csv


def small_cfg(**over):
    base = dict(
        version=1,
        grid_n=256,
        grid_length=8 * math.pi,
        dt=5e-3,
        t_final=0.05,
        snapshots=2,
        kappas=[0.5],
        boosts=[0, 1],
        n_op=128,
        suite_size=6,
        lambdas=[0.5, 1.0, 2.0],
        amplitudes=[0.1, 0.2],
    )
    base.update(over)
    return config_from_dict(base)


# ---------------------------------------------------------------------------
# config parsing

def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(seed=7, dt=2e-3)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg.to_dict() | {"version": 1}))
    loaded = load_config(path)
    assert loaded == cfg


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "grid_m": 4}))
    with pytest.raises(ConfigError, match="grid_m"):
        load_config(path)


def test_config_requires_version(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid_n": 256}))
    with pytest.raises(ConfigError, match="version"):
        load_config(path)


def test_config_malformed_json_has_location(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"version": 1,\n  "grid_n": }')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_config_type_validation():
    with pytest.raises(ConfigError, match="grid_n"):
        config_from_dict({"version": 1, "grid_n": "big"})


def test_unknown_family_kind(grid_small, rng):
    with pytest.raises(ConfigError, match="kind"):
        build_family({"kind": "plane_wave"}, grid_small, rng)
    with pytest.raises(ConfigError, match="widht"):
        build_family({"kind": "gaussian", "widht": 9}, grid_small, rng)


@pytest.mark.parametrize("over, match", [
    ({"tolerances": {"conservation_drif": 1e-30}}, "conservation_drif"),
    ({"tolerances": {"conservation_drift": True}}, "conservation_drift"),
    ({"tolerances": {"conservation_drift": "1e-5"}}, "conservation_drift"),
    ({"family": {"kind": "gaussian", "widht": 9}}, "widht"),
    ({"family": {"kind": "soliton", "widths": [1.0]}}, "widths"),
    ({"family": {"kind": "plane_wave"}}, "kind"),
    ({"family": {"kind": "random_band", "count": 2.5}}, "count"),
    ({"ps": []}, "ps"),
    ({"ps": [[2.0]]}, "ps"),
    ({"amplitudes": []}, "amplitudes"),
    ({"amplitudes": [-0.1]}, "amplitudes"),
    ({"kappas": ["a"]}, "kappas"),
    ({"kappas": [0]}, "kappas"),
    ({"kappas": []}, "kappas"),
    ({"boosts": [1.5]}, "boosts"),
    ({"boosts": [True]}, "boosts"),
    ({"lambdas": [0]}, "lambdas"),
    ({"n_op": 4096}, "n_op"),
    ({"n_op": 0}, "n_op"),
    ({"t_final": -0.05}, "t_final"),
    ({"t_final": 0.0}, "t_final"),
    ({"snapshots": 0}, "snapshots"),
    ({"snapshots": 1}, "snapshots"),
    ({"family": {"kind": "gaussian_mix", "widths": []}}, "widths"),
    ({"family": {"kind": "gaussian_mix", "widths": [1.0, 0.0]}}, "widths"),
    ({"family": {"kind": "gaussian", "widths": ["a"]}}, "widths"),
    ({"suite_size": 0}, "suite_size"),
    ({"suite_size": -3}, "suite_size"),
    ({"seed": -1}, "seed"),
    ({"family": {"kind": "random_band", "count": 0}}, "count"),
    ({"n_op": 3}, "n_op"),
])
def test_config_rejects_bad_nested_maps(over, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict({"version": 1, **over})


def test_tolerance_defaults_and_overrides():
    assert small_cfg().tolerance("conservation_drift") == 1e-5
    assert small_cfg(tolerances={"conservation_drift": 1}).tolerance("conservation_drift") == 1.0
    assert small_cfg(equation="mkdv").tolerance("galilei_distance") == 1e-5
    assert small_cfg(equation="nls").tolerance("galilei_distance") == 1e-6


def test_all_family_kinds_build(grid_small, rng):
    kinds = [
        {"kind": "gaussian", "width": 2.0, "amplitude": 0.2, "center_freq": 1.0},
        {"kind": "gaussian_mix", "widths": [1.0, 3.0], "amplitude": 0.2},
        {"kind": "soliton", "amplitude": 0.5, "shift": 1.0},
        {"kind": "band_indicator", "lo": -0.5, "hi": 1.5},
        {"kind": "random_band", "kmin": -2, "kmax": 2, "amplitude": 0.2, "count": 3},
    ]
    sizes = [len(build_family(d, grid_small, rng)) for d in kinds]
    assert sizes == [1, 2, 1, 1, 3]


# ---------------------------------------------------------------------------
# reports

@pytest.mark.parametrize("measured", [math.nan, math.inf, -math.inf])
def test_criterion_fails_non_finite(measured):
    assert not criterion("c", measured, 1.0).passed
    assert not criterion("c", measured, math.inf).passed
    assert not criterion("c", measured, 1.0, ok=True).passed


def test_criterion_verdicts():
    assert criterion("c", 1e300, math.inf).passed
    assert criterion("c", 1.0, 1.0).passed
    assert not criterion("c", 1.5, 1.0).passed
    assert not criterion("c", 0.5, 1.0, ok=False).passed


def test_fmt_17_digits():
    assert fmt(math.pi) == f"{math.pi:.17g}"
    assert fmt("x") == "x"


def test_csv_fixed_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "r.csv", ["a", "b"], [(1.0,)])
    write_csv(tmp_path / "r.csv", ["a", "b"], [(1.0, 2.0)])
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines[0] == "a,b"
    assert all(len(line.split(",")) == 2 for line in lines)


# ---------------------------------------------------------------------------
# drivers

def test_conservation_zero_data():
    cfg = small_cfg(family={"kind": "gaussian", "amplitude": 0.0})
    res = run_conservation(cfg)
    assert res.all_pass
    vals = np.array([r[3:8] for r in res.rows], dtype=float)
    assert np.all(vals == 0.0)


def test_conservation_divergence_precondition(monkeypatch):
    def no_flow(*args, **kwargs):
        raise AssertionError("the flow ran on divergent data")

    monkeypatch.setattr("modspec.harness.experiments.evolve", no_flow)
    cfg = small_cfg(family={"kind": "gaussian", "amplitude": 6.0})
    with pytest.raises(SeriesDivergenceError, match=r"t=0 for kappa in \[0.5, 1.0\]"):
        run_conservation(cfg)


def test_conservation_computes_alpha4_once_per_t_and_kappa(monkeypatch):
    from modspec import conserved
    from modspec.harness import experiments

    calls = []

    def counted(f, kp):
        calls.append(kp.kappa)
        return alpha4(f, kp)

    monkeypatch.setattr(conserved, "alpha4", counted)
    monkeypatch.setattr(experiments, "alpha4", counted)
    cfg = small_cfg()
    run_conservation(cfg)
    # kappa and 2 kappa at each snapshot
    assert sorted(calls) == [0.5, 0.5, 1.0, 1.0]


def test_conservation_driver_determinism(tmp_path):
    cfg = small_cfg()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_conservation(cfg).write(out1)
    run_conservation(cfg).write(out2)
    assert (out1 / "conserve.csv").read_bytes() == (out2 / "conserve.csv").read_bytes()


def test_norm_equivalence_zero_data():
    cfg = small_cfg(family={"kind": "gaussian", "amplitude": 0.0}, ps=[[2.0, 0.0]])
    res = run_norm_equivalence(cfg)
    ratios = [r[-1] for r in res.rows]
    assert all(r == 1.0 for r in ratios)  # both sides vanish; ratio 1 by convention


def test_norm_equivalence_range_validation():
    cfg = small_cfg(ps=[[1.0, 1.5]])  # s >= 2 - 1/p
    with pytest.raises(ValueError, match="2 - 1/p"):
        run_norm_equivalence(cfg)


def test_apriori_range_validation():
    cfg = small_cfg(ps=[[2.0, 1.2]])
    with pytest.raises(ValueError, match="3/2"):
        run_apriori(cfg)


def test_apriori_large_data_path():
    """Data above the smallness threshold goes through the rescaling reduction."""
    cfg = small_cfg(
        ps=[[2.0, 0.0]], amplitudes=[1.0],
        family={"kind": "gaussian", "width": 1.0, "amplitude": 1.0},
        dt=1e-2, t_final=0.02, snapshots=2,
    )
    res = run_apriori(cfg)
    names = [e.criterion for e in res.summary]
    assert any(n.startswith("rescaled_norm") for n in names)
    assert any(n.startswith("large_data_constant") for n in names)
    assert res.all_pass


@pytest.mark.parametrize("amplitudes", [[0.0, 0.1], [0.1, 0.0]])
def test_apriori_zero_amplitude(amplitudes):
    """Zero data adds its rows but no ratio; the family clause takes the first nonzero amplitude."""
    ref = run_apriori(small_cfg(ps=[[2.0, 0.0]], amplitudes=[0.1]))
    res = run_apriori(small_cfg(ps=[[2.0, 0.0]], amplitudes=amplitudes))
    zero_rows = [r for r in res.rows if r[2] == 0.0]
    assert len(zero_rows) == 2 and all(r[4] == 0.0 for r in zero_rows)
    assert [r for r in res.rows if r[2] != 0.0] == ref.rows
    assert res.summary == ref.summary


def test_apriori_all_zero_amplitudes_is_a_config_error(tmp_path):
    cfg = small_cfg(ps=[[2.0, 0.0]], amplitudes=[0.0])
    with pytest.raises(ConfigError, match="nonzero amplitude"):
        run_apriori(cfg)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg.to_dict()))
    assert main(["apriori", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 2


def test_conservation_reports_trace_imag():
    res = run_conservation(small_cfg())
    entry = [e for e in res.summary if e.criterion.startswith("trace_imag_rel")]
    assert entry and entry[0].passed and entry[0].measured <= 1e-8


def test_galilei_driver_small(monkeypatch):
    from modspec.harness import experiments

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(experiments, "evolve", counted)
    cfg = small_cfg(boosts=[0, 1], t_final=0.05)
    res = run_galilei(cfg)
    assert res.all_pass
    dts = {r[1] for r in res.rows}
    assert len(dts) == 2
    # one unboosted flow per dt, one boosted flow per (k, dt)
    assert len(calls) == len(dts) * (1 + len(cfg.boosts))
    k0 = [r for r in res.rows if r[0] == 0.0]
    assert all(r[2] <= 1e-12 for r in k0)  # identical flows at k = 0


@pytest.mark.parametrize("driver, name, expected", [
    # one flow per amplitude and per equicontinuous width (no large data here)
    (run_apriori, "evolve", lambda cfg: len(cfg.amplitudes) + len(FAMILIES["gaussian"]["widths"])),
    (run_tails, "evolve", lambda cfg: len(cfg.amplitudes)),
    # kappa = 1/2 and 1 at each boost of each snapshot
    (run_tails, "alpha_terms",
     lambda cfg: 2 * len(cfg.boosts) * cfg.snapshots * len(cfg.amplitudes)),
    # the gaussian cross-check adds one
    (run_scaling, "scale_field", lambda cfg: cfg.suite_size * len(cfg.lambdas) + 1),
], ids=["apriori-evolve", "tails-evolve", "tails-alpha_terms", "scaling-scale_field"])
def test_ps_independent_work_runs_once(monkeypatch, driver, name, expected):
    """Work that does not depend on (p, s) runs once, however many pairs there are."""
    from modspec.harness import experiments

    calls = []
    inner = getattr(experiments, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(experiments, name, counted)
    cfg = small_cfg(t_final=0.01, ps=[[2.0, 0.0], [1.0, 0.0], [4.0, 1.0]])
    driver(cfg)
    assert len(calls) == expected(cfg)


def test_every_ps_pair_sees_the_same_fields():
    """A random_band family is drawn once: both (p, s) blocks hold the same field data."""
    family = {"kind": "random_band", "amplitude": 0.3, "count": 1}
    res = run_tails(small_cfg(t_final=0.01, family=family, ps=[[2.0, 0.0], [1.0, 0.0]]))
    half = len(res.rows) // 2
    cols = [r[5:] for r in res.rows]  # beta2, beta4, beta_geq6, tail2, tail3
    assert half and cols[:half] == cols[half:]

    res = run_apriori(small_cfg(family=family, ps=[[2.0, 0.0], [2.0, 0.0]]))
    half = len(res.rows) // 2
    norms = [r[4] for r in res.rows]
    assert half and norms[:half] == norms[half:]


def test_scaling_driver(tmp_path):
    cfg = small_cfg(ps=[[2.0, 0.0]])
    res = run_scaling(cfg)
    assert res.all_pass
    assert {r[0] for r in res.rows} == {"scaling", "embedding"}
    csvp, jsonp = res.write(tmp_path)
    doc = json.loads(jsonp.read_text())
    assert doc["all_pass"] is True
    assert all({"criterion", "measured", "threshold", "pass"} <= set(e) for e in doc["criteria"])


def test_weights_driver():
    cfg = small_cfg(grid_n=512)
    res = run_weights(cfg)
    assert res.all_pass


def test_norm_equivalence_single_band_bracket():
    cfg = small_cfg(family={"kind": "band_indicator", "lo": -0.5, "hi": 0.5},
                    ps=[[2.0, 0.0]], boosts=[-2, -1, 0, 1, 2])
    res = run_norm_equivalence(cfg)
    brackets = [e.measured for e in res.summary if e.criterion.startswith("ratio_bracket")]
    assert max(brackets) <= 10.0


def test_tails_driver_zero_data():
    cfg = small_cfg(
        grid_n=512, grid_length=16 * math.pi, boosts=[0, 1], snapshots=2,
        t_final=0.02, dt=1e-2, amplitudes=[0.0], ps=[[2.0, 0.0]], n_op=192,
        family={"kind": "gaussian", "amplitude": 0.0},
    )
    res = run_tails(cfg)  # both sides vanish; nothing diverges, nothing crashes
    assert all(np.isfinite([e.measured for e in res.summary]).tolist())
    assert res.rows == []  # a zero snapshot writes no boost rows


def _reject_constant(token):
    raise AssertionError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("amplitudes", list(itertools.permutations([0.1, 2.0, 0.2])))
def test_tails_diverged_amplitude_fails_in_any_order(amplitudes):
    """Every boost diverges at amplitude 2.0: no constant or stability verdict may pass."""
    cfg = small_cfg(boosts=[0, 1], t_final=0.01, amplitudes=list(amplitudes), ps=[[2.0, 0.0]])
    res = run_tails(cfg)
    verdicts = {e.criterion.split("[")[0]: e.passed for e in res.summary}
    assert verdicts == {"sextic_constant": False, "quartic_constant": False,
                        "sextic_eps_stability": False, "quartic_eps_stability": False,
                        "skipped_boosts": False}
    skipped = [r for r in res.rows if np.isnan(r[7])]  # beta_geq6 is NaN, beta4 still reported
    assert len(skipped) == 4 and all(np.isfinite(r[6]) for r in skipped)


def test_tails_driver_quick(tmp_path):
    cfg = small_cfg(
        grid_n=512, grid_length=16 * math.pi, boosts=[0, 1], snapshots=2,
        t_final=0.02, dt=1e-2, amplitudes=[0.1, 0.2], ps=[[2.0, 0.0]], n_op=192,
    )
    res = run_tails(cfg)
    assert res.all_pass
    assert len(res.rows) == 2 * 2 * 2  # eps x t x k
    _, jsonp = res.write(tmp_path)
    doc = json.loads(jsonp.read_text(), parse_constant=_reject_constant)
    sextic = [c for c in doc["criteria"] if c["criterion"].startswith("sextic_constant")]
    assert sextic and sextic[0]["threshold"] is None  # the unbounded threshold is null


def test_operator_strides_in_meta():
    """conserve and tails name the stride each operator took and the largest doubling gap."""
    cons = run_conservation(small_cfg())
    tails = run_tails(small_cfg(
        grid_n=512, grid_length=16 * math.pi, boosts=[0, 1], snapshots=2,
        t_final=0.02, dt=1e-2, amplitudes=[0.1, 0.2], ps=[[2.0, 0.0]], n_op=192,
    ))
    # conserve: 2 snapshots x kappa in {0.5, 1}; tails: 2 amplitudes x 2 snapshots x
    # 2 boosts x kappa in {0.5, 1}
    for res, operators in ((cons, 4), (tails, 16)):
        strides = res.meta["operator_strides"]
        assert sum(strides.values()) == operators
        assert all(int(m) in (1, 2, 4, 8) for m in strides)
        assert 0.0 <= res.meta["max_doubling_gap"] < 1e-6


def test_cli_smoke(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(small_cfg().to_dict()))
    rc = main(["weights", "--config", str(cfgp), "--out", str(tmp_path / "out"),
               "--grid", "512,25.13"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert (tmp_path / "out" / "weights.csv").exists()
    assert (tmp_path / "out" / "weights_summary.json").exists()


def test_cli_overrides_reach_the_config(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(small_cfg(boosts=[1]).to_dict()))
    rc = main(["galilei", "--config", str(cfgp), "--out", str(tmp_path / "out"),
               "--dt", "0.01", "--seed", "9"])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "galilei_summary.json").read_text())
    assert doc["meta"]["config"]["dt"] == 0.01
    assert doc["meta"]["config"]["seed"] == 9


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfgp = tmp_path / "bad.json"
    cfgp.write_text("{nope")
    rc = main(["conserve", "--config", str(cfgp), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("extra", [
    ["conserve", "--dt", "0.003"],
    ["conserve", "--grid", "1000,5"],
    ["conserve", "--grid", "512"],
    ["tails", "--dt", "0.003"],
    ["conserve", "--seed", "-1"],
])
def test_cli_config_errors_exit_2(tmp_path, capsys, extra):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(small_cfg(n_op=256).to_dict()))
    rc = main(extra[:1] + ["--config", str(cfgp), "--out", str(tmp_path / "out")] + extra[1:])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_tails_window_may_leave_the_lattice(tmp_path):
    """The boost-1 window of n_op = grid_n points reaches past the lattice, which
    the operator reads as the zero-padded spectrum: the run completes."""
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(small_cfg(n_op=256).to_dict()))
    assert main(["tails", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("cmd", ["galilei", "tails"])
@pytest.mark.parametrize("k", [32, 40])
def test_cli_boost_off_the_lattice_exit_3(tmp_path, capsys, cmd, k):
    """On 256 points of spacing 1/8 a boost by 32 or more shifts the whole spectrum
    off the lattice: too coarse to tell, not a zero boosted field or a traceback."""
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(small_cfg(boosts=[0, k]).to_dict()))
    assert main([cmd, "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 3
    error = json.loads((tmp_path / "out" / f"{cmd}_summary.json").read_text())["meta"]["error"]
    assert error["type"] == "AliasingError" and f"k = {k}" in error["message"]


@pytest.mark.parametrize("cmd, amplitude, dt, length, error", [
    pytest.param("conserve", 6.0, 5e-3, 8 * math.pi, {"type": "SeriesDivergenceError"},
                 id="conserve-6.0-0.005-error0"),
    pytest.param("galilei", 40.0, 1e-2, 8 * math.pi,
                 {"type": "BlowUpError", "last_good_time": 0.0}, id="galilei-40.0-0.01-error1"),
    # 256 points on [-32 pi, 32 pi) resolve |xi| < 4 only: too coarse for the quartic sum
    pytest.param("conserve", 0.3, 5e-3, 32 * math.pi, {"type": "AliasingError"},
                 id="conserve-aliasing"),
])
def test_cli_numerical_breakdown_exit_3(tmp_path, capsys, cmd, amplitude, dt, length, error):
    cfg = small_cfg(family={"kind": "gaussian", "amplitude": amplitude}, dt=dt, boosts=[0],
                    grid_length=length)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg.to_dict()))
    rc = main([cmd, "--config", str(cfgp), "--out", str(tmp_path / "out")])
    assert rc == 3
    doc = json.loads((tmp_path / "out" / f"{cmd}_summary.json").read_text())
    assert doc["all_pass"] is False
    assert doc["criteria"] == []
    assert error.items() <= doc["meta"]["error"].items()
    assert doc["meta"]["error"]["message"]
