import csv
import itertools
import json
import math
import re
import struct

import numpy as np
import pytest

from modspec import (
    FlowSpec,
    ModulationParams,
    SpectralParameter,
    WeightCheck,
    admissible_sigma,
    alpha4,
    apriori_exponent,
    band_profile,
    evolve_batch,
    galilei_boost,
    gaussian_field,
    profile_norm,
    scale_field,
    scaling_bound_factor,
    sobolev_norm,
    unresolved_mass_fraction,
)
from modspec.harness import (
    ConfigError,
    ExperimentConfig,
    SeriesDivergenceError,
    run_apriori,
    run_conservation,
    run_galilei,
    run_norm_equivalence,
    run_scaling,
    run_tails,
    run_weights,
)
from modspec.harness import experiments
from modspec.flows import EQUATIONS
from modspec.harness.cli import DRIVERS, main
from modspec.harness.config import (
    FAMILIES,
    TOLERANCES,
    build_family,
    config_from_dict,
    random_suite,
    read_config,
)
from modspec.harness.reports import RunResult, criterion, write_csv


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
    loaded = config_from_dict(read_config(path))
    assert loaded == cfg


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "grid_m": 4}))
    with pytest.raises(ConfigError, match="grid_m"):
        config_from_dict(read_config(path))


def test_config_requires_version(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid_n": 256}))
    with pytest.raises(ConfigError, match="version"):
        config_from_dict(read_config(path))


def test_config_malformed_json_has_location(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"version": 1,\n  "grid_n": }')
    with pytest.raises(ConfigError, match="line 2"):
        config_from_dict(read_config(path))


def test_config_rejects_a_non_object_and_another_version():
    with pytest.raises(ConfigError, match="JSON object"):
        config_from_dict([{"version": 1}])
    with pytest.raises(ConfigError, match="unsupported config version 2"):
        config_from_dict({"version": 2})


def test_read_config_names_the_file_of_a_nan_and_a_missing_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"version": 1, "dt": NaN}')
    with pytest.raises(ConfigError, match=r"c\.json: non-finite number NaN"):
        read_config(path)
    with pytest.raises(ConfigError, match=r"absent\.json: cannot read"):
        read_config(tmp_path / "absent.json")


@pytest.mark.parametrize("text, key", [
    ('{"version": 1, "t_final": 0.01, "dt": 0.001, "dt": 0.005}', "dt"),
    ('{"version": 1, "t_final": 0.01, "family": {"kind": "gaussian", "amplitude": 0.3, '
     '"amplitude": 5.0}}', "amplitude"),
], ids=["top-level", "nested"])
def test_cli_repeated_config_key_exits_2(tmp_path, capsys, text, key):
    """json.loads keeps a repeated key's last value; a config file may not repeat one,
    at any depth: a repeated amplitude 5.0 would otherwise diverge and exit 3."""
    path, out = tmp_path / "c.json", tmp_path / "out"
    path.write_text(text)
    assert main(["conserve", "--config", str(path), "--out", str(out)]) == 2
    assert f"key '{key}' appears more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", list(DRIVERS))
def test_cli_config_that_is_not_utf8_exits_2(tmp_path, capsys, cmd):
    """A config file that is not UTF-8 is a config error naming the file and the
    byte, not a decode traceback that would exit 1."""
    path, out = tmp_path / "c.json", tmp_path / "out"
    path.write_bytes(b'{"version": 1, "seed": \xff}')
    assert main([cmd, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: not valid UTF-8 at byte 23" in err
    assert "Traceback" not in err and not out.exists()


def test_config_type_validation():
    with pytest.raises(ConfigError, match="grid_n"):
        config_from_dict({"version": 1, "grid_n": "big"})


def test_unknown_family_kind(grid_small, rng):
    with pytest.raises(ConfigError, match="kind"):
        build_family({"kind": "plane_wave"}, grid_small, rng)
    with pytest.raises(ConfigError, match="widht"):
        build_family({"kind": "gaussian", "widht": 9}, grid_small, rng)


@pytest.mark.parametrize("over, match", [
    # the thresholds are fixed: a tolerances map is an unknown key
    ({"tolerances": {"conservation_drif": 1e-30}}, "tolerances"),
    ({"tolerances": {"conservation_drift": True}}, "tolerances"),
    ({"tolerances": {"conservation_drift": "1e-5"}}, "tolerances"),
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
    # family values follow the top-level rule: finite, and a width like widths > 0
    ({"family": {"kind": "gaussian", "amplitude": math.nan}}, "amplitude"),
    ({"family": {"kind": "gaussian", "width": math.inf}}, "width"),
    ({"family": {"kind": "gaussian", "width": -1.0}}, "width"),
    ({"family": {"kind": "gaussian", "width": 0}}, "width"),
    # a band range that selects no frequency on any grid
    ({"family": {"kind": "random_band", "kmin": 3, "kmax": -3}}, "kmin"),
    ({"family": {"kind": "band_indicator", "lo": 2.0, "hi": 1.0}}, "lo"),
    # conserve also evaluates 2 kappa, whose 8 (2 kappa)^3 overflows above 1.4e102
    ({"kappas": [0.5, 1e160]}, "kappas"),
    ({"kappas": [2e102]}, "kappas"),
    ({"kappas": [1e102]}, "kappas"),
])
def test_config_rejects_bad_nested_maps(over, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict({"version": 1, **over})


def test_tolerance_defaults():
    assert small_cfg().tolerance("conservation_drift") == 1e-5
    assert small_cfg(equation="mkdv").tolerance("galilei_distance") == 1e-5
    assert small_cfg(equation="nls").tolerance("galilei_distance") == 1e-6


@pytest.mark.parametrize("eq", EQUATIONS)
def test_every_equation_has_a_boost_and_a_galilei_tolerance(grid_small, eq):
    """galilei and tails boost whatever equation the config names."""
    u = gaussian_field(grid_small, amplitude=0.3)
    assert galilei_boost(u, 1.0, 0.1, eq).grid == grid_small
    assert small_cfg(equation=eq).tolerance("galilei_distance") > 0


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


def test_criterion_verdicts():
    assert criterion("c", 1e300, math.inf).passed
    assert criterion("c", 1.0, 1.0).passed
    assert not criterion("c", 1.5, 1.0).passed


@pytest.mark.parametrize("pos", [0, 1, 2])
def test_nan_anywhere_in_a_conserve_series_fails_its_drift(pos):
    series = [1.0, 1.0, 1.0]
    series[pos] = math.nan
    drift = experiments._rel_drift(series)
    assert not math.isfinite(drift)
    assert not criterion("alpha_drift", drift, 1e-5).passed


def test_fmt_17_digits(tmp_path):
    write_csv(tmp_path / "r.csv", ["v", "s"], [[math.pi], ["x"]])
    cells = (tmp_path / "r.csv").read_text(encoding="utf-8").splitlines()[1].split(",")
    assert cells[0] == f"{math.pi:.17g}"
    assert cells[1] == "x"


def _csv_cell_by_cell(path, header, rows):
    """The reference rendering: csv.writer over cells formatted one at a time."""
    def cell(v):
        if isinstance(v, bool):
            return str(v)
        if isinstance(v, float):
            return f"{v:.17g}"
        return str(v)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([cell(v) for v in row] for row in rows)


def _columns(header, rows) -> list:
    """The columns of `rows`, one list per header name."""
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in header]


def _as_arrays(columns) -> list:
    """Each column of floats (numpy's float64 included) as a float64 array, and each
    of exact ints that fit as an int64 array; any other column stays a list."""
    def convert(col):
        if col and all(isinstance(v, float) for v in col):
            return np.array(col, dtype=np.float64)
        if col and all(type(v) in (int, np.int64) and -2**63 <= v < 2**63 for v in col):
            return np.array(col, dtype=np.int64)
        return col

    return [convert(col) for col in columns]


_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0ABC))[0]

_TABLES = [
    (["label", "a", "b", "c", "d"], [
        ("plain", math.pi, np.float64(0.1), 3, np.int64(-7)),
        ("x", math.nan, math.inf, True, False),
        ('a,"b"\nc', -math.inf, -0.0, np.float64(-0.0), 0),
        ("", 1e-300, np.float64(np.nan), np.bool_(True), None),
        ("r\rs", 5e-324, 2**70, np.float32(0.1), np.float64(-np.inf)),
        ("plain", math.pi, np.float64(0.1), 3, np.int64(-7)),
    ]),
    (["only"], [("",), (1.5,), ("a,b",), (np.int64(2),)]),
    (["a,b", 'q"'], []),
    # column-shaped tables: each column of one exact type, values repeated
    (["check", "field", "p", "lam", "ratio"],
     [(("scaling", "embed,ding")[i % 2], i // 3 - 50, (1.0, 2.0, 4.0)[i % 3],
       (0.125, 0.0, -0.0, 8.0)[i % 4], 1.0 / (i + 1)) for i in range(300)]),
    (["pure", "mixed"], [(v, w) for _ in range(3) for v, w in zip(
        [0.0, -0.0, math.nan, -math.nan, _NAN_PAYLOAD, math.inf, -math.inf, 5e-324, -5e-324],
        [0.0, np.float64(-0.0), -0.0, _NAN_PAYLOAD, np.float64(np.nan), np.float64(5e-324),
         math.inf, -0.0, 5e-324])]),
    (["numpy", "python"], list(zip(
        [1, True, 1.0, np.int64(1), np.float64(1.0), np.float32(0.1), False, 0, 0.0] * 2,
        [1, True, 1.0, 1, 1.0, True, False, 0, -0.0] * 2))),
    (["big"], [(v,) for v in (2**70, -(2**70), 0, 7, 7, -3)]),
    (["only"], [("",)] * 4),
    ([""], [("x",), ("",)]),
    ([], []),  # a table of no columns has no rows
]


@pytest.mark.parametrize("header, rows", _TABLES)
def test_write_csv_matches_cell_by_cell_rendering(tmp_path, header, rows):
    write_csv(tmp_path / "new.csv", header, _columns(header, rows))
    _csv_cell_by_cell(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("header, rows", _TABLES + [
    (["special", "int64", "big"], [(v, i, b) for v, i, b in zip(
        [-0.0, 0.0, _NAN_PAYLOAD, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308],
        [-2**63, 2**63 - 1, 0, -1, 7, 7, 2**53 + 1, -(2**53) - 1, 3],
        [2**70, -(2**70), 2**70, 0, 1, 2**64, -1, 2**63, 5])]),
])
def test_write_csv_array_columns_match_cell_by_cell_rendering(tmp_path, header, rows):
    """The same tables with each float column as a float64 array and each int column
    as an int64 array (2**70 does not fit, so that column stays a list)."""
    columns = _as_arrays(_columns(header, rows))
    write_csv(tmp_path / "new.csv", header, columns)
    _csv_cell_by_cell(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_scaling_report_matches_cell_by_cell_rendering(tmp_path):
    res = run_scaling(ExperimentConfig())
    assert len(res.rows) == 300
    csv_path, _ = res.write(tmp_path)
    _csv_cell_by_cell(tmp_path / "ref.csv", res.header, res.rows)
    assert csv_path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_takes_columns_from_an_iterator(tmp_path):
    rows = [(1.5, "a"), (-0.0, "b")]
    write_csv(tmp_path / "new.csv", ["v", "s"], iter([np.array([1.5, -0.0]), ("a", "b")]))
    _csv_cell_by_cell(tmp_path / "ref.csv", ["v", "s"], rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_label_reads_back(tmp_path):
    label = 'comma, "quote"\nnewline'
    write_csv(tmp_path / "r.csv", ["label", "v"], [[label], [0.5]])
    with open(tmp_path / "r.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["label", "v"], [label, "0.5"]]


def test_csv_fixed_columns(tmp_path):
    path = tmp_path / "r.csv"
    # the table's shape is checked before the file is opened
    for columns in ([[1.0]], [np.array([1.0, 2.0]), np.arange(3)], [["x"], []]):
        with pytest.raises(ValueError):
            write_csv(path, ["a", "b"], columns)
        assert not path.exists()
    write_csv(path, ["a", "b"], [[1.0, 3.0], [2.0, 4.0]])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b"
    assert all(len(line.split(",")) == 2 for line in lines)
    before = path.read_bytes()
    for columns in ([[1.0, 3.0]], [[1.0], [2.0], [3.0]], []):
        with pytest.raises(ValueError, match="header width"):
            write_csv(path, ["a", "b"], columns)
        assert path.read_bytes() == before
    for columns in ([[1.0, 3.0], [2.0]], [np.array([1.0, 3.0]), ["x"]], [[], ["x"]]):
        with pytest.raises(ValueError, match="column lengths"):
            write_csv(path, ["a", "b"], columns)
        assert path.read_bytes() == before


def test_run_result_from_rows_checks_widths_and_transposes():
    res = RunResult.from_rows("r", ["a", "b"], iter([(1, "x"), (2, "y")]), [], {})
    assert res.columns == [(1, 2), ("x", "y")] and res.rows == [(1, "x"), (2, "y")]
    assert RunResult.from_rows("r", ["a", "b"], [], [], {}).columns == [(), ()]
    for rows in ([(1.0, 2.0), (3.0,)], [(1.0, 2.0), (3.0, 4.0, 5.0)], [()]):
        with pytest.raises(ValueError, match="row width"):
            RunResult.from_rows("r", ["a", "b"], rows, [], {})


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

    monkeypatch.setattr("modspec.harness.experiments.evolve_batch", no_flow)
    cfg = small_cfg(family={"kind": "gaussian", "amplitude": 6.0})
    with pytest.raises(SeriesDivergenceError, match=r"t=0 for kappa in \[0.5, 1.0\]"):
        run_conservation(cfg)


def test_conservation_computes_alpha4_once_per_t_and_kappa(monkeypatch):
    from modspec import conserved

    calls = []

    def counted(f, kp):
        calls.append(kp.kappa)
        return alpha4(f, kp)

    monkeypatch.setattr(conserved, "alpha4", counted)
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
    cfg = small_cfg(suite_size=37)  # several suite blocks
    run_scaling(cfg).write(out1)
    run_scaling(cfg).write(out2)
    assert (out1 / "scaling.csv").read_bytes() == (out2 / "scaling.csv").read_bytes()


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


# amplitude 3 is large data (n0 > apriori_small_norm) at every pair, beside zero
# and small data
LARGE_APRIORI = dict(amplitudes=[3.0, 0.0, 0.1], ps=[[2.0, 0.0], [1.0, 0.0], [4.0, 1.0]])


def test_apriori_large_data_path():
    """Data above apriori_small_norm evolve as they are: each large datum's t = 0
    row carries its own norm under its eps, normalized_ratio reads it, and
    sup_ratio reads only the small data."""
    cfg = small_cfg(**LARGE_APRIORI)
    res = run_apriori(cfg)
    u0s = {eps: gaussian_field(cfg.grid(), 1.0, eps) for eps in (3.0, 0.1)}
    for p, s in cfg.ps:
        mp = ModulationParams(p, s)
        tag = f"p={p:g},s={s:g}"
        ratios = {}  # eps -> (sup / n0, sup / ((1 + n0)^c n0))
        for eps, u0 in u0s.items():
            n0 = profile_norm(band_profile(u0), mp)
            assert (n0 > TOLERANCES["apriori_small_norm"]) == (eps == 3.0)
            data = [r[4] for r in res.rows if r[:3] == (p, s, eps) and r[5] == 0.0]
            assert data[0] == n0
            sup = max(data)
            ratios[eps] = (sup / n0, sup / ((1.0 + n0) ** apriori_exponent(mp) * n0))
        measured = {e.criterion: e.measured for e in res.summary}
        assert measured[f"sup_ratio[{tag}]"] == ratios[0.1][0]
        assert measured[f"normalized_ratio[{tag}]"] == max(r[1] for r in ratios.values())


def test_apriori_large_data_is_not_a_config_error(tmp_path, monkeypatch):
    """Large data need no pad budget: the CLI runs them in its one flow batch."""
    from modspec.harness import experiments

    calls = []
    inner = experiments.evolve_batch

    def counted(*args, **kwargs):  # evolve_batch is the one flow entry point
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(experiments, "evolve_batch", counted)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(small_cfg(**LARGE_APRIORI).to_dict()))
    assert main(["apriori", "--config", str(cfgp), "--out", str(tmp_path / "out")]) != 2
    assert len(calls) == 1


def nan_at_last_snapshot(monkeypatch, row):
    """Make the drivers' band_profile read NaN at the last snapshot of row `row`
    of every evolve_batch call, and nowhere else."""
    batch, profile = experiments.evolve_batch, experiments.band_profile
    last = set()  # ids of the fields whose profile reads NaN

    def evolve(*args, **kwargs):
        trajs = batch(*args, **kwargs)
        last.add(id(trajs[row].fields[-1]))
        return trajs

    def band_profile(f, *args):
        prof = profile(f, *args)
        return np.full_like(prof, np.nan) if id(f) in last else prof

    monkeypatch.setattr(experiments, "evolve_batch", evolve)
    monkeypatch.setattr(experiments, "band_profile", band_profile)


def failed(res, prefix):
    entries = [e for e in res.summary if e.criterion.startswith(prefix)]
    assert entries
    return all(not e.passed for e in entries)


def test_normequiv_nan_at_a_later_snapshot_fails(monkeypatch):
    """A NaN norm after t = 0 fails the bracket and the sweep tail: a max over
    the series must not drop it."""
    nan_at_last_snapshot(monkeypatch, 0)
    res = run_norm_equivalence(small_cfg(ps=[[2.0, 0.0]]))
    assert failed(res, "ratio_bracket") and failed(res, "sweep_tail_fraction")


@pytest.mark.parametrize("over, row, prefix", [
    ({}, 0, "sup_ratio"),  # the first small-data amplitude
    ({}, 2, "equicontinuity_factor"),  # the first family member, after both amplitudes
    # large data (n0 = 1.33): only normalized_ratio reads it
    ({"amplitudes": [1.0], "family": {"kind": "gaussian", "amplitude": 1.0}}, 0,
     "normalized_ratio"),
], ids=["sup_ratio", "equicontinuity_factor", "normalized_ratio"])
def test_apriori_nan_at_a_later_snapshot_fails(monkeypatch, over, row, prefix):
    nan_at_last_snapshot(monkeypatch, row)
    res = run_apriori(small_cfg(ps=[[2.0, 0.0]], **over))
    assert failed(res, prefix)


@pytest.mark.parametrize("amplitudes", [[0.0, 0.1], [0.1, 0.0]])
def test_apriori_zero_amplitude(amplitudes):
    """Zero data adds its rows but no ratio; the family clause runs at the family's amplitude."""
    ref = run_apriori(small_cfg(ps=[[2.0, 0.0]], amplitudes=[0.1]))
    res = run_apriori(small_cfg(ps=[[2.0, 0.0]], amplitudes=amplitudes))
    zero_rows = [r for r in res.rows if r[2] == 0.0]
    assert len(zero_rows) == 2 and all(r[4] == 0.0 for r in zero_rows)
    assert [r for r in res.rows if r[2] != 0.0] == ref.rows
    assert res.summary == ref.summary


def test_apriori_family_clause_takes_the_carrier():
    """The family clause's gaussians sit at the family's center_freq and amplitude:
    its t = 0 rows carry their norms, which move with the carrier at s > 0."""
    mp = ModulationParams(2.0, 0.5)
    norms = {}
    for cf in (0.0, 3.0):
        cfg = small_cfg(ps=[[mp.p, mp.s]], amplitudes=[0.1],
                        family={"kind": "gaussian", "center_freq": cf, "amplitude": 0.2})
        norms[cf] = [r[4] for r in run_apriori(cfg).rows if r[5] != 0.0 and r[3] == 0.0]
        expected = [profile_norm(band_profile(gaussian_field(cfg.grid(), w, 0.2, cf)), mp)
                    for w in FAMILIES["gaussian"]["widths"]]
        assert norms[cf] == pytest.approx(expected, rel=1e-12)
    assert norms[0.0] != pytest.approx(norms[3.0])


def test_apriori_family_clause_ignores_the_amplitude_order():
    """The clause runs at the family's amplitude, so listing the data amplitudes in
    another order changes no criterion and no family row."""
    runs = [run_apriori(small_cfg(ps=[[1.0, 0.0]], amplitudes=amps))
            for amps in ([2.0, 0.1], [0.1, 2.0])]
    assert runs[0].summary == runs[1].summary
    family_rows = [[r for r in res.rows if r[5] != 0.0] for res in runs]
    assert family_rows[0] == family_rows[1]
    assert {r[2] for r in family_rows[0]} == {FAMILIES["gaussian"]["amplitude"]}


def test_apriori_zero_family_amplitude_is_a_config_error(tmp_path):
    cfg = small_cfg(ps=[[2.0, 0.0]], family={"kind": "gaussian", "amplitude": 0.0})
    with pytest.raises(ConfigError, match="nonzero family amplitude"):
        run_apriori(cfg)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg.to_dict()))
    assert main(["apriori", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 2


def test_apriori_all_zero_data_has_only_the_family_clause():
    """All-zero data adds its rows and no ratio; the family clause runs as with any data."""
    ref = run_apriori(small_cfg(ps=[[2.0, 0.0]], amplitudes=[0.1]))
    res = run_apriori(small_cfg(ps=[[2.0, 0.0]], amplitudes=[0.0]))
    assert [e.criterion for e in res.summary] == ["equicontinuity_factor[p=2,s=0]"]
    assert res.summary == [e for e in ref.summary if e.criterion.startswith("equicontinuity")]
    zero_rows = [r for r in res.rows if r[5] == 0.0]
    assert zero_rows and all(r[2] == 0.0 and r[4] == 0.0 for r in zero_rows)


def test_conservation_reports_trace_imag():
    res = run_conservation(small_cfg())
    entry = [e for e in res.summary if e.criterion.startswith("trace_imag_rel")]
    assert entry and entry[0].passed and entry[0].measured <= 1e-8


def test_conservation_at_a_huge_kappa():
    """kappa = 1e100, and so 2 kappa, runs clean (a numpy warning is an error here);
    a larger one is a config error (test_config_rejects_bad_nested_maps)."""
    res = run_conservation(small_cfg(kappas=[1e100]))
    assert res.all_pass and {row[2] for row in res.rows} == {1e100}


def test_galilei_driver_small(monkeypatch):
    from modspec.harness import experiments

    calls = []

    def counted(fields, fs, times, ks=None):
        calls.append((fs, ks))
        return evolve_batch(fields, fs, times, ks)

    monkeypatch.setattr(experiments, "evolve_batch", counted)
    cfg = small_cfg(boosts=[0, 1, -1], t_final=0.05)
    res = run_galilei(cfg)
    assert res.all_pass
    dts = {r[1] for r in res.rows}
    assert len(dts) == 2
    assert [r[0] for r in res.rows] == [k for k in cfg.boosts for _ in dts]
    # one batch per dt: the unboosted row, then one row per distinct +-k pair of the
    # real datum (k = -1 reads the conjugate of the k = 1 row)
    assert sorted(fs.dt for fs, _ in calls) == sorted(dts)
    assert all(fs.equation == "mkdv" and ks == [0.0, 1.0] for fs, ks in calls)
    assert res.meta["evolved_boosts"] == [0.0, 1.0]
    k0 = [r for r in res.rows if r[0] == 0.0]
    assert len(k0) == 2 and all(r[2] == 0.0 for r in k0)  # the unboosted path against itself


@pytest.mark.parametrize("eq", ["mkdv", "nls"])
def test_galilei_repeated_and_zero_boosts_move_no_other_row(eq):
    """Batch rows are independent, so a k = 0 changes no other row's distance, bit
    for bit; a repeated k, which would write its rows and criterion twice, is
    refused at load."""
    rows = [r for r in run_galilei(small_cfg(equation=eq, boosts=[-1, 0, 1])).rows
            if r[0] != 0.0]
    ref = run_galilei(small_cfg(equation=eq, boosts=[-1, 1])).rows
    assert rows == ref
    with pytest.raises(ConfigError, match="'boosts' lists an entry more than once"):
        small_cfg(equation=eq, boosts=[-1, 0, 1, 1])


@pytest.mark.parametrize("eq, family, evolved", [
    ("mkdv", {"kind": "gaussian"}, [0.0, -2.0, 1.0]),
    ("mkdv", {"kind": "gaussian", "center_freq": 2.0}, [0.0, -2.0, 1.0, -1.0, 2.0]),
    ("nls", {"kind": "gaussian"}, [0.0, -2.0, 1.0, -1.0, 2.0]),
], ids=["real_mkdv", "complex_mkdv", "nls"])
def test_galilei_folds_only_real_mkdv_data(monkeypatch, eq, family, evolved):
    """A real mkdv datum evolves the sign of each +-k pair seen first, and the other
    sign reads its conjugate; complex data and nls evolve both signs.  The folded run's
    distances match both signs evolved to roundoff."""
    batch_rows = []

    def counted(fields, fs, times, ks=None):
        batch_rows.append(len(fields))
        return evolve_batch(fields, fs, times, ks)

    monkeypatch.setattr(experiments, "evolve_batch", counted)
    cfg = small_cfg(equation=eq, family=family, boosts=[-2, 0, 1, -1, 2], t_final=0.02)
    res = run_galilei(cfg)
    assert res.all_pass and res.meta["evolved_boosts"] == evolved
    assert batch_rows == [len(evolved)] * 2  # one batch per dt
    if len(evolved) == 3:
        # each sign evolved in its own frame, one at a time: a read conjugate stays
        # within roundoff of it
        grid = cfg.grid()
        u0 = build_family(cfg.family, grid, np.random.default_rng(cfg.seed))[0]
        fs = FlowSpec(eq, cfg.sign, cfg.dt)
        end = evolve_batch([u0], fs, [cfg.t_final])[0].fields[-1]
        for k, _, dist in (r for r in res.rows if r[1] == cfg.dt and r[0] != 0.0):
            path1 = galilei_boost(end, k, cfg.t_final, eq)
            path2 = evolve_batch([galilei_boost(u0, k, 0.0, eq)], fs, [cfg.t_final],
                                 [k])[0].fields[-1]
            ref = float(np.sqrt(np.sum(np.abs(path1.values - path2.values) ** 2) * grid.dx))
            assert abs(dist - ref) <= 1e-16


@pytest.mark.parametrize("t_final, dts", [
    (0.045, {0.005}),  # 9 steps: 2 dt does not divide T
    (0.05 + 1e-9, {0.005, 0.01}),  # a whole number of steps to check_time's tolerance
])
def test_galilei_companion_needs_an_even_step_count(t_final, dts):
    res = run_galilei(small_cfg(boosts=[1], t_final=t_final))
    assert {r[1] for r in res.rows} == dts


def test_galilei_off_the_lattice_boosts():
    """On L = 100.5 no nonzero integer boost sits on the frequency lattice: both
    paths boost by the phase ramp, and each two-path distance passes."""
    res = run_galilei(config_from_dict({"version": 1, "grid_length": 100.5,
                                        "boosts": list(range(-5, 6)), "t_final": 0.03}))
    dists = [e for e in res.summary if e.criterion.startswith("two_path_distance")]
    assert len(dists) == 11 and all(e.passed for e in dists)


@pytest.mark.parametrize("driver, name, expected, over", [
    # one flow per amplitude and per equicontinuous width, one batch
    (run_apriori, "evolve_batch",
     lambda cfg: len(cfg.amplitudes) + len(FAMILIES["gaussian"]["widths"]), {}),
    # large data joins the same batch
    (run_apriori, "evolve_batch",
     lambda cfg: len(cfg.amplitudes) + len(FAMILIES["gaussian"]["widths"]), LARGE_APRIORI),
    (run_tails, "evolve_batch", lambda cfg: len(cfg.amplitudes), {}),
    # kappa = 1/2 and 1 at each boost of each snapshot
    (run_tails, "alpha_terms",
     lambda cfg: 2 * len(cfg.boosts) * cfg.snapshots * len(cfg.amplitudes), {}),
    # the suite is binned from its power array: only the gaussian cross-check rescales
    (run_scaling, "scale_field", lambda cfg: 1, {}),
    # one binning pass on the base grid and one per lambda
    (run_scaling, "band_profile", lambda cfg: 1 + len(cfg.lambdas), {}),
    # the one gaussian member at each snapshot; the weights take the t = 0 rows
    (run_norm_equivalence, "band_profile", lambda cfg: cfg.snapshots, {}),
    # each amplitude's and each family member's flow at each snapshot, t = 0 included
    (run_apriori, "band_profile", lambda cfg: cfg.snapshots
     * (len(cfg.amplitudes) + len(FAMILIES["gaussian"]["widths"])), {}),
], ids=["apriori-evolve", "apriori-evolve-large", "tails-evolve", "tails-alpha_terms",
        "scaling-scale_field", "scaling-band_profile", "normequiv-band_profile",
        "apriori-band_profile"])
def test_ps_independent_work_runs_once(monkeypatch, driver, name, expected, over):
    """Work that does not depend on (p, s) runs once, however many pairs there are."""
    from modspec import equicont, grid, norms
    from modspec.harness import experiments

    calls = []
    inner = getattr(experiments, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    # a call through any module that binds the name counts
    for module in (experiments, grid, norms, equicont):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    cfg = small_cfg(**{"t_final": 0.01, "ps": [[2.0, 0.0], [1.0, 0.0], [4.0, 1.0]], **over})
    driver(cfg)
    if name == "evolve_batch":  # count the rows of the one batch
        assert len(calls) == 1
        calls = calls[0][0]
    assert len(calls) == expected(cfg)


def test_every_ps_pair_sees_the_same_fields():
    """A random_band family is drawn once: both (p, s) blocks hold the same field data."""
    family = {"kind": "random_band", "amplitude": 0.3, "count": 1}
    res = run_tails(small_cfg(t_final=0.01, family=family, ps=[[2.0, 0.0], [1.0, 0.0]]))
    half = len(res.rows) // 2
    cols = [r[5:] for r in res.rows]  # beta2, beta4, beta_geq6, tail2, tail3
    assert half and cols[:half] == cols[half:]

    # a pair run alone draws the family first, so each block of a two-pair run
    # equals that pair's own run only if both blocks read the one draw
    pairs = [[2.0, 0.0], [1.0, 0.0]]
    both = run_apriori(small_cfg(family=family, ps=pairs)).rows
    alone = [run_apriori(small_cfg(family=family, ps=[ps])).rows for ps in pairs]
    assert alone[0] and both == alone[0] + alone[1]


def test_scaling_driver(tmp_path):
    cfg = small_cfg(ps=[[2.0, 0.0]])
    res = run_scaling(cfg)
    assert res.all_pass
    assert {r[0] for r in res.rows} == {"scaling", "embedding"}
    # the numbers reach the report as the driver's arrays, not as row tuples
    assert all(isinstance(col, np.ndarray) and col.dtype == np.float64
               for col in res.columns[2:])
    csvp, jsonp = res.write(tmp_path)
    doc = json.loads(jsonp.read_text())
    assert doc["all_pass"] is True
    assert all({"criterion", "measured", "threshold", "pass"} <= set(e) for e in doc["criteria"])


def test_scaling_rows_match_per_field_reference():
    """The batched driver reproduces the per-field computation: rescale each field,
    take its band profile, and compare with its Sobolev norm."""
    cfg = small_cfg(ps=[[1.0, 0.0], [4.0, 1.0]], lambdas=[0.125, 0.5, 1.0, 2.0, 8.0])
    res = run_scaling(cfg)
    suite = random_suite(cfg.grid(), cfg.suite_size, np.random.default_rng(cfg.seed))
    expected = []
    for p, s in cfg.ps:
        mp = ModulationParams(p, s)
        for i, f in enumerate(suite):
            base = profile_norm(band_profile(f), mp)
            for lam in cfg.lambdas:
                scaled = profile_norm(band_profile(scale_field(f, lam)), mp)
                expected.append(("scaling", i, p, s, lam,
                                 scaled / (scaling_bound_factor(lam, mp) * base)))
            expected.append(("embedding", i, p, s, 0.0,
                             sobolev_norm(f, admissible_sigma(mp)) / base))
    assert [r[:5] for r in res.rows] == [r[:5] for r in expected]
    np.testing.assert_allclose([r[5] for r in res.rows], [r[5] for r in expected],
                               rtol=1e-13, atol=0)


def test_scaling_synthesizes_no_samples(monkeypatch):
    """run_scaling reads |fhat|^2 only: no spectrum of the suite is inverted."""
    import modspec.grid
    import modspec.harness.config
    import modspec.symmetries

    calls = []

    def counted(inverse):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return inverse(*args, **kwargs)
        return wrapper

    for module in (modspec.grid, modspec.harness.config, modspec.symmetries):
        monkeypatch.setattr(module, "inverse_transform", counted(module.inverse_transform))
    random_suite(small_cfg().grid(), 2, np.random.default_rng(0))
    assert calls == [1]  # the count sees random_suite's one band row
    calls.clear()
    assert run_scaling(small_cfg(suite_size=37)).all_pass
    assert calls == []


def test_scaling_records_unresolved_fraction_per_lambda():
    cfg = small_cfg(ps=[[2.0, 0.0]])
    res = run_scaling(cfg)
    suite = random_suite(cfg.grid(), cfg.suite_size, np.random.default_rng(cfg.seed))
    fracs = res.meta["max_unresolved_fraction"]
    assert list(fracs) == [f"{lam:g}" for lam in cfg.lambdas]
    for lam in cfg.lambdas:
        worst = max(unresolved_mass_fraction(scale_field(f, lam)) for f in suite)
        assert fracs[f"{lam:g}"] == pytest.approx(worst, rel=1e-12, abs=0)


def test_cli_scaling_rejects_an_unresolvable_lambda(tmp_path, capsys):
    """On the default grid a lambda above N pi / L = 32 leaves the rescaled grid no band."""
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"version": 1, "lambdas": [0.5, 64]}))
    assert main(["scaling", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 2
    assert "lambda 64" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_weights_default_config(tmp_path, capsys):
    """At the defaults the 4N comparison grid adds the threshold 32 to [2, 8]."""
    assert main(["weights", "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "weights_summary.json").read_text())["meta"]
    assert meta["thresholds"] == [2, 8] and meta["thresholds_wide"] == [2, 8, 32]


@pytest.mark.parametrize("amplitude", [0.3, 30.0])
def test_cli_weights_band_family_at_large_p(tmp_path, amplitude):
    """All mass in band 5: the tails drop to 0 past k = 5, so the thresholds are
    [5] and [5, 20] at p = 1000 too.  The band terms' p-th powers underflow at
    amplitude 0.3 and overflow at amplitude 30."""
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "version": 1, "ps": [[1000, 0]],
        "family": {"kind": "band_indicator", "lo": 4.5, "hi": 5.5, "amplitude": amplitude},
    }))
    assert main(["weights", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 0
    meta = json.loads((tmp_path / "out" / "weights_summary.json").read_text())["meta"]
    assert meta["thresholds"] == [5] and meta["thresholds_wide"] == [5, 20]


def test_weighted_ratio_above_two_fails(monkeypatch):
    """weighted_ratio passes by the one rule, measured <= 2, with no slack."""
    def just_above_two(w, profiles, mp):
        return WeightCheck(0, 0, 0, 0, 2.0 + 1e-10)

    monkeypatch.setattr(experiments, "verify_weights", just_above_two)
    verdicts = {e.criterion: e.passed for e in run_weights(small_cfg(grid_n=512)).summary}
    assert verdicts.pop("weighted_ratio") is False
    assert all(verdicts.values())


def test_weights_gaussian_family_is_the_mix_of_its_parameters():
    """A single gaussian is no family: weights checks the mix of its widths, amplitude
    and carrier, so at center_freq 6 it gives the mix's weights, not the default's."""
    params = {"widths": [1.0, 2.0], "amplitude": 0.2, "center_freq": 6.0}
    gauss = run_weights(small_cfg(grid_n=512, family={"kind": "gaussian", **params}))
    mix = run_weights(small_cfg(grid_n=512, family={"kind": "gaussian_mix", **params}))
    default = run_weights(small_cfg(grid_n=512))
    assert gauss.rows == mix.rows and gauss.summary == mix.summary
    assert gauss.meta["thresholds"] == mix.meta["thresholds"] != default.meta["thresholds"]


def test_weights_driver():
    cfg = small_cfg(grid_n=512)
    res = run_weights(cfg)
    assert res.all_pass


# a band-0 family on 128 points of the default length: kmax = 1 leaves no room for
# a threshold, so the weights are constant and (iv) fails
FLAT_WEIGHTS = {"version": 1, "grid_n": 128,
                "family": {"kind": "band_indicator", "lo": -0.5, "hi": 0.5}}


def test_every_verdict_is_measured_at_most_threshold():
    """Each driver's summary, and the flat-weights run's, passes exactly the entries
    with a finite measurement at most their threshold."""
    runs = [
        (run_conservation, small_cfg()),
        (run_norm_equivalence, small_cfg(ps=[[2.0, 0.0]])),
        (run_apriori, small_cfg(ps=[[2.0, 0.0]])),
        (run_galilei, small_cfg()),
        (run_scaling, small_cfg()),
        (run_tails, small_cfg(grid_n=512, grid_length=16 * math.pi, t_final=0.02, dt=1e-2,
                              ps=[[2.0, 0.0]], n_op=192)),
        (run_weights, small_cfg(grid_n=512)),
        (run_weights, config_from_dict(FLAT_WEIGHTS)),
    ]
    for driver, cfg in runs:
        for e in driver(cfg).summary:
            assert e.passed == (math.isfinite(e.measured) and e.measured <= e.threshold), e


def test_cli_flat_weights_fail_grows(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(FLAT_WEIGHTS))
    assert main(["weights", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] grows: measured 1 vs threshold 0" in out
    assert out.count("[FAIL]") == 1


def test_normequiv_sweep_tail_counts_every_band_without_a_boost():
    """sweep_tail_fraction is the band mass the boost sweep leaves out.  On the
    default Gaussian the boosts 0..8 leave out the bands -15..-1 as well as
    9..15, so every tail fails, where the symmetric sweep -8..8 passes."""
    def tails(boosts):
        res = run_norm_equivalence(config_from_dict({"version": 1, "boosts": boosts}))
        return [e for e in res.summary if e.criterion.startswith("sweep_tail_fraction")]

    symmetric, one_sided = tails(list(range(-8, 9))), tails(list(range(0, 9)))
    assert symmetric and all(e.passed for e in symmetric)
    assert len(one_sided) == len(symmetric) and not any(e.passed for e in one_sided)


def test_a_repeated_list_entry_is_a_config_error(tmp_path, capsys):
    """Each entry of kappas, boosts, ps and lambdas names CSV rows and criteria,
    which a repeat would write twice: a repeat is refused at load (exit 2), as a
    repeated key is, also where 2 == 2.0.  amplitudes are data and may repeat."""
    for key, vals in (("kappas", [0.5, 1.0, 0.5]), ("boosts", [1, 1, 0]),
                      ("ps", [[2.0, 0.0], [2, 0]]), ("lambdas", [0.5, 2.0, 2])):
        with pytest.raises(ConfigError, match=re.escape(
                f"field '{key}' lists an entry more than once, got {vals!r}")):
            config_from_dict({"version": 1, key: vals})
    assert config_from_dict({"version": 1, "amplitudes": [0.1, 0.1]}).amplitudes == [0.1, 0.1]
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"version": 1, "boosts": [1, 1, 0]}))
    assert main(["galilei", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 2
    assert "more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    assert all(e.measured == 1.0 and e.passed
               for e in res.summary if "eps_stability" in e.criterion)


def test_tails_zero_amplitude_does_not_mask_stability():
    """A zero amplitude has no ratio to compare: beside amplitudes 0.1 and 0.4, whose
    sextic and quartic ratios differ by more than 1e-4, both spreads measure above 1.0001."""
    cfg = config_from_dict({"version": 1, "boosts": [-1, 0, 1], "snapshots": 2, "t_final": 0.1,
                            "amplitudes": [0.0, 0.1, 0.4]})
    res = run_tails(cfg)
    stability = [e for e in res.summary if "eps_stability" in e.criterion]
    assert len(stability) == 2
    assert all(e.measured > 1.0001 for e in stability)


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


def test_tails_skipped_boosts_count_the_nan_rows_of_each_block():
    """skipped_boosts[p, s] is the number of NaN beta_geq6 rows in that (p, s) block of
    the CSV: amplitude 2.0 diverges at both boosts and snapshots, and zero data has no rows."""
    ps = [[2.0, 0.0], [4.0, 0.5]]
    res = run_tails(small_cfg(boosts=[0, 1], t_final=0.01, amplitudes=[0.1, 2.0, 0.0], ps=ps))
    skipped = {e.criterion: e.measured for e in res.summary
               if e.criterion.startswith("skipped_boosts")}
    for p, s in ps:
        block = [r for r in res.rows if (r[0], r[1]) == (p, s)]
        assert len(block) == 2 * 2 * 2  # nonzero amplitudes x snapshots x boosts
        assert skipped[f"skipped_boosts[p={p:g},s={s:g}]"] == sum(np.isnan(r[7]) for r in block) == 4


def test_tails_diverged_boost_runs_no_kappa_one_series(monkeypatch):
    """Where the kappa = 1/2 series diverged, beta_geq6 is NaN whatever kappa = 1
    gives, so that boost reads only alpha4 at kappa = 1: alpha_terms runs at both
    kappas on the 4 boosted snapshots of amplitude 0.1, at 1/2 only on those of 2.0."""
    kappas, alpha_terms = [], experiments.alpha_terms

    def counted(f, kp, *args):
        kappas.append(kp.kappa)
        return alpha_terms(f, kp, *args)

    monkeypatch.setattr(experiments, "alpha_terms", counted)
    res = run_tails(small_cfg(boosts=[0, 1], t_final=0.01, amplitudes=[0.1, 2.0],
                              ps=[[2.0, 0.0]]))
    assert [np.isnan(r[7]) for r in res.rows] == [False] * 4 + [True] * 4
    assert kappas == [0.5, 1.0] * 4 + [0.5] * 4


def test_cli_tails_diverged_boost_exits_1_and_keeps_its_quartic_term(tmp_path):
    """tails goes on past a diverged series and reports it: exit 1, not the exit 3 of a
    numerical breakdown, with exactly the constants, the spreads and the skip count
    failing.  A diverged boost's beta4 is alpha4(u^k, 1/2) - alpha4(u^k, 1)/2 bit for
    bit, and the stride health counts only the certified operators: amplitude 0.1
    at 2 times, 2 boosts and 2 kappas."""
    cfg = small_cfg(boosts=[0, 1], t_final=0.01, amplitudes=[0.1, 2.0], ps=[[2.0, 0.0]])
    cfgp, out = tmp_path / "cfg.json", tmp_path / "out"
    cfgp.write_text(json.dumps(cfg.to_dict()))
    assert main(["tails", "--config", str(cfgp), "--out", str(out)]) == 1
    doc = json.loads((out / "tails_summary.json").read_text())
    failed = [c["criterion"] for c in doc["criteria"] if not c["pass"]]
    assert failed == [f"{name}[p=2,s=0]" for name in (
        "sextic_constant", "quartic_constant", "sextic_eps_stability", "quartic_eps_stability",
        "skipped_boosts")]
    assert sum(doc["meta"]["operator_strides"].values()) == 8
    with open(out / "tails.csv", newline="") as fh:
        skipped = [r for r in csv.DictReader(fh) if r["beta_geq6"] == "nan"]
    assert len(skipped) == 4 and {r["eps"] for r in skipped} == {"2"}

    grid, rng = cfg.grid(), np.random.default_rng(cfg.seed)
    u0s = [build_family(dict(cfg.family, amplitude=eps), grid, rng)[0] for eps in cfg.amplitudes]
    traj = evolve_batch(u0s, FlowSpec(cfg.equation, cfg.sign, cfg.dt), cfg.snapshot_times())[1]
    kp_half, kp_one = SpectralParameter(0.5, cfg.sign), SpectralParameter(1.0, cfg.sign)
    for r in skipped:  # %.17g round-trips the float
        t, k = float(r["t"]), float(r["k"])
        uk = galilei_boost(traj.fields[traj.times.index(t)], k, t, cfg.equation)
        assert float(r["beta4"]) == alpha4(uk, kp_half) - 0.5 * alpha4(uk, kp_one)


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


def test_cli_galilei_negative_dt(tmp_path, capsys):
    """A backward flow ends at -T: the evolved field is boosted there, and the
    2*dt refinement companion is kept."""
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(small_cfg(dt=-1e-3, t_final=0.01, boosts=[1, 2]).to_dict()))
    assert main(["galilei", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "galilei.csv").read_text().strip().splitlines()
    assert lines[0] == "k,dt,distance"
    assert {tuple(line.split(",")[:2]) for line in lines[1:]} == {
        ("1", "-0.001"), ("1", "-0.002"), ("2", "-0.001"), ("2", "-0.002")}


def test_cli_unwritable_out_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    """An --out below a regular file is a usage error, found before the driver runs."""
    monkeypatch.setitem(DRIVERS, "weights", lambda cfg: pytest.fail("the driver ran"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["weights", "--out", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write reports to {blocker / 'sub'}: Not a directory" in err
    assert "Traceback" not in err


def test_cli_out_in_a_directory_without_write_access_exits_2(tmp_path, capsys, monkeypatch):
    """An --out whose nearest existing ancestor denies write access is found before
    the driver runs.  Access is denied through os.access, since a root user may
    write anywhere."""
    from modspec.harness import cli

    monkeypatch.setitem(DRIVERS, "weights", lambda cfg: pytest.fail("the driver ran"))
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    out = tmp_path / "out" / "sub"
    assert main(["weights", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write reports to {out}: Permission denied ({tmp_path})" in err
    assert not out.parent.exists()


@pytest.mark.parametrize("breakdown", [False, True], ids=["report", "breakdown"])
def test_cli_failed_report_write_exits_2(tmp_path, capsys, monkeypatch, breakdown):
    """A report file that cannot be opened, found only when it is written, exits 2
    on the normal path and on the exit-3 breakdown path."""
    if breakdown:
        def diverge(cfg):
            raise SeriesDivergenceError("diverged")
        monkeypatch.setitem(DRIVERS, "weights", diverge)
    out = tmp_path / "out"
    (out / ("weights_summary.json" if breakdown else "weights.csv")).mkdir(parents=True)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(small_cfg(grid_n=512).to_dict()))
    assert main(["weights", "--config", str(cfgp), "--out", str(out)]) == 2
    assert f"error: cannot write reports to {out}: Is a directory" in capsys.readouterr().err


def test_cli_normequiv_large_p_measures_nonzero_norms(tmp_path):
    """At p = 1000 the band sums underflow in the plain form; both sides of the
    bracket must still be the nonzero norms of a nonzero field."""
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(small_cfg(ps=[[1000, 0]], boosts=list(range(-8, 9))).to_dict()))
    assert main(["normequiv", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "normequiv.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(float(r["lhs"]) > 0.1 and float(r["rhs"]) > 0.1 for r in rows)


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
    # a trailing map overrides config keys: a width-0 gaussian is a config error,
    # not a divergent series or a blow-up
    ["conserve", {"family": {"kind": "gaussian", "width": 0}}],
    ["normequiv", {"family": {"kind": "gaussian", "width": 0}}],
    # band ranges past the lattice (|xi| < 16 here) would build the zero field
    ["conserve", {"family": {"kind": "random_band", "kmin": 100, "kmax": 200}}],
    ["conserve", {"family": {"kind": "band_indicator", "lo": 50.0, "hi": 60.0}}],
    # 16 points on [-100, 100) reach |xi| < 0.26: no unit band is resolved
    ["normequiv", "--grid", "16,100"],
    ["apriori", "--grid", "16,100"],
    ["tails", "--grid", "16,100"],
    ["weights", "--grid", "16,100"],
    # p = 1000 leaves no Sobolev index sigma > -1/2 for the embedding check
    ["scaling", {"ps": [[1000, 0]]}],
    # a zero weights family bounds no tail, and weights checks one (p, s) pair
    ["weights", {"family": {"kind": "gaussian_mix", "amplitude": 0.0}}],
    # weights builds the mix of a gaussian's widths, so its width must be one of them
    ["weights", {"family": {"kind": "gaussian", "width": 3.0}}],
    ["weights", {"ps": [[2, 0], [1000, 0]],
                 "family": {"kind": "band_indicator", "lo": 4.5, "hi": 5.5}}],
])
def test_cli_config_errors_exit_2(tmp_path, capsys, extra):
    over = extra[-1] if isinstance(extra[-1], dict) else {}
    cmd, *flags = [a for a in extra if isinstance(a, str)]
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(small_cfg(n_op=256).to_dict() | over))
    rc = main([cmd, "--config", str(cfgp), "--out", str(tmp_path / "out")] + flags)
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", list(DRIVERS))
def test_cli_boost_drivers_reject_an_equation_without_a_boost(tmp_path, capsys, monkeypatch,
                                                               cmd):
    """mkdv_nls is not an equation (the boosted mkdv is mkdv at k): every
    subcommand, the two that boost included, exits 2 before any flow runs."""
    calls = []
    monkeypatch.setattr(experiments, "evolve_batch", lambda *args: calls.append(args))
    cfgp = tmp_path / "cfg.json"
    doc = small_cfg(n_op=64, t_final=0.01).to_dict() | {"equation": "mkdv_nls"}
    cfgp.write_text(json.dumps(doc))
    assert main([cmd, "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 2
    assert "mkdv_nls" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("family, count", [
    ({"kind": "gaussian_mix", "widths": [1.0, 2.0, 4.0]}, 3),
    ({"kind": "random_band", "count": 2}, 2),
])
@pytest.mark.parametrize("cmd", ["apriori", "tails", "galilei"])
def test_cli_one_member_drivers_reject_a_larger_family(tmp_path, capsys, monkeypatch, cmd,
                                                       family, count):
    """apriori, tails and galilei evolve one member of the family: a family of more
    exits 2, naming the driver and the count, before any flow runs; a mix of one
    width runs."""
    calls = []
    monkeypatch.setattr(experiments, "evolve_batch", lambda *args: calls.append(args))
    cfgp = tmp_path / "cfg.json"
    doc = small_cfg(t_final=0.01).to_dict()
    cfgp.write_text(json.dumps(doc | {"family": family}))
    assert main([cmd, "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 2
    assert f"{cmd} evolves one family member, got {count}" in capsys.readouterr().err
    assert calls == []
    monkeypatch.undo()
    cfgp.write_text(json.dumps(doc | {"family": {"kind": "gaussian_mix", "widths": [1.0]}}))
    assert main([cmd, "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("header, columns, count", [
    (["a", "b"], [np.arange(3.0), ["x", "y", "z"]], 3),
    (["a"], [[]], 0),
    ([], [], 0),
])
def test_cli_counts_rows_from_the_columns(tmp_path, capsys, monkeypatch, header, columns,
                                          count):
    """The printed "rows: N" is the CSV's data row count, read from the columns
    without building row tuples; a zero-width table has 0 rows."""
    result = RunResult("weights", header, columns, [criterion("c", 0.0, 1.0)])
    monkeypatch.setitem(DRIVERS, "weights", lambda cfg: result)
    monkeypatch.setattr(RunResult, "rows", property(lambda self: pytest.fail("rows built")))
    assert main(["weights", "--out", str(tmp_path)]) == 0
    assert f"rows: {count} -> " in capsys.readouterr().out
    with open(tmp_path / "weights.csv", newline="", encoding="utf-8") as fh:
        assert len(list(csv.reader(fh))) == 1 + count


def test_cli_tolerances_map_is_an_unknown_key(tmp_path, capsys, monkeypatch):
    """The thresholds are fixed: a config with a tolerances map, even an empty one,
    exits 2 before the driver runs."""
    monkeypatch.setitem(DRIVERS, "weights", lambda cfg: pytest.fail("the driver ran"))
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"version": 1, "tolerances": {}}))
    assert main(["weights", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 2
    assert "unknown config keys: tolerances" in capsys.readouterr().err


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
    pytest.param("conserve", 6.0, 5e-3, 8 * math.pi,
                 {"type": "SeriesDivergenceError",
                  "message": "series diverges at t=0 for kappa in [0.5, 1.0]"},
                 id="conserve-6.0-0.005-error0"),
    pytest.param("galilei", 40.0, 1e-2, 8 * math.pi,
                 {"type": "BlowUpError", "last_good_time": 0.0, "row": 0},
                 id="galilei-40.0-0.01-error1"),
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
