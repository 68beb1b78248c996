"""Experiment configuration: strict JSON parsing and initial-data families."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from ..conserved import DEFAULT_N_OP, MIN_N_OP, N_OP_CAP
from ..flows import FlowSpec
from ..grid import (
    Field,
    GridSpec,
    band_indicator_field,
    forward_transform,
    gaussian_field,
    inverse_transform,
    make_grid,
    random_band_field,
    sech_field,
)
from ..norms import KAPPA_MAX


class ConfigError(ValueError):
    pass


DEFAULT_FAMILY = {"kind": "gaussian", "width": 1.0, "amplitude": 0.3, "center_freq": 0.0}

# The fixed pass/fail thresholds by name (per equation for galilei_distance), and
# apriori_small_norm, the largest data norm that apriori's sup_ratio reads.
TOLERANCES = {
    "conservation_drift": 1e-5,
    "trace_imag": 1e-8,
    "normequiv_bracket": 10.0,
    "normequiv_sweep_tail": 1e-6,
    "normequiv_unresolved": 1e-10,
    "apriori_ratio": 2.0,
    "apriori_equi_factor": 2.0,
    "apriori_small_norm": 1.0,
    "galilei_distance": {"mkdv": 1e-5, "nls": 1e-6},
    "scaling_constant": 10.0,
    "embedding_constant": 10.0,
    "gaussian_scaling_spectrum_error": 1e-10,
    "tails_constant": math.inf,  # reported, not bounded: only a non-finite one fails
    "tails_stability": 3.0,
    "tails_skipped_boosts": 0.0,
    "weights_violations": 0.0,  # the violation counts and the window check
    "weights_ratio": 2.0,
}

_WIDTHS = [1.0, 2.0, 4.0]

# Initial-data families: kind -> the keys its descriptor may set, with defaults.
# gaussian also takes `widths`, for run_apriori's family clause and run_weights' mix.
FAMILIES = {
    "gaussian": {"width": 1.0, "amplitude": 0.3, "center_freq": 0.0, "widths": _WIDTHS},
    "gaussian_mix": {"widths": _WIDTHS, "amplitude": 0.3, "center_freq": 0.0},
    "soliton": {"amplitude": 1.0, "shift": 0.0},
    "band_indicator": {"lo": 0.0, "hi": 1.0, "amplitude": 1.0},
    "random_band": {"kmin": -4, "kmax": 4, "amplitude": 0.3, "count": 1},
}


@dataclass
class ExperimentConfig:
    """Inputs shared by the experiment drivers; unknown keys are rejected."""

    version: int = 1
    grid_n: int = 1024
    grid_length: float = 32.0 * math.pi
    equation: str = "mkdv"
    sign: str = "defocusing"
    dt: float = 1e-3
    t_final: float = 1.0
    snapshots: int = 5
    family: dict = field(default_factory=lambda: dict(DEFAULT_FAMILY))
    kappas: list = field(default_factory=lambda: [0.5, 1.0, 2.0])
    boosts: list = field(default_factory=lambda: list(range(-8, 9)))
    ps: list = field(default_factory=lambda: [[2.0, 0.0]])
    amplitudes: list = field(default_factory=lambda: [0.1, 0.2, 0.4])
    lambdas: list = field(default_factory=lambda: [0.125, 0.5, 1.0, 2.0, 8.0])
    suite_size: int = 50
    seed: int = 0
    n_op: int = DEFAULT_N_OP

    def grid(self) -> GridSpec:
        return make_grid(self.grid_n, self.grid_length)

    def snapshot_times(self) -> list:
        """Evenly spaced times over [0, t_final]; each must be a multiple of dt."""
        times = [self.t_final * i / (self.snapshots - 1) for i in range(self.snapshots)]
        for t in times:
            self.check_time(t, "snapshot time")
        return times

    def check_time(self, t: float, what: str) -> None:
        """Raise ConfigError unless t is a whole number of steps, as evolve_batch requires."""
        dt = abs(self.dt)
        if abs(round(t / dt) * dt - t) > 1e-6 * dt:
            raise ConfigError(f"{what} {t} is not a multiple of dt = {self.dt}")

    def tolerance(self, name: str) -> float:
        """The TOLERANCES entry `name`, at this config's equation where it has one per equation."""
        value = TOLERANCES[name]
        return float(value[self.equation] if isinstance(value, dict) else value)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_DEFAULTS = ExperimentConfig().to_dict()


def _check_value(what: str, val, default) -> None:
    """One rule for a config value, top-level or inside `family`: the type of its
    default (any real number where that is a float; a bool is no number), and
    finite when it is a float."""
    want = (int, float) if isinstance(default, float) else type(default)
    if not isinstance(val, want) or isinstance(val, bool):
        raise ConfigError(f"{what} must be {want}, got {type(val).__name__}")
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{what} must be finite, got {val}")


def _number(v) -> bool:  # a finite int or float; a bool is not a number here
    return not isinstance(v, bool) and (isinstance(v, int)
                                        or isinstance(v, float) and math.isfinite(v))


_POSITIVE = (lambda v: _number(v) and v > 0, "finite numbers > 0")

# list field -> (check of each element, what it checks); every list must be non-empty
_ELEMENTS = {
    "kappas": (lambda v: _number(v) and 0 < v <= KAPPA_MAX / 2,  # conserve also reads 2 kappa
               f"numbers in (0, {KAPPA_MAX / 2:g}]"),
    "lambdas": _POSITIVE,
    "amplitudes": (lambda v: _number(v) and v >= 0, "finite numbers >= 0"),
    "boosts": (lambda v: isinstance(v, int) and not isinstance(v, bool), "ints"),
    "ps": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_number, v))
           and v[0] >= 1 and v[1] >= 0, "[p, s] pairs of finite numbers, p >= 1, s >= 0"),
}


def label(x) -> str:
    """How a report key writes a number: 6 significant digits, so 2 and 2.0 read alike."""
    return f"{x:g}"


def _check_list(name: str, vals: list, rule: tuple, distinct: bool = False) -> None:
    ok, what = rule
    if not vals or not all(ok(v) for v in vals):
        raise ConfigError(f"{name} must be a non-empty list of {what}, got {vals!r}")
    if distinct:  # entries of one label would write the same report keys
        labels = [tuple(map(label, v)) if isinstance(v, list) else label(v) for v in vals]
        if len(set(labels)) < len(labels):
            raise ConfigError(f"{name} lists an entry more than once, got {vals!r}")


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    if "version" not in doc:
        raise ConfigError("config is missing the required 'version' field")
    unknown = sorted(set(doc) - set(_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, val in doc.items():
        _check_value(f"field '{key}'", val, _DEFAULTS[key])
    cfg = ExperimentConfig(**doc)
    if cfg.version != 1:
        raise ConfigError(f"unsupported config version {cfg.version}")
    try:
        grid = cfg.grid()
        FlowSpec(cfg.equation, cfg.sign, cfg.dt)
    except ValueError as exc:  # the grid's and the flow's own checks of these fields
        raise ConfigError(str(exc)) from None
    if grid.kmax < 0:
        raise ConfigError(f"grid (N = {grid.n}, L = {grid.length:g}) resolves no unit band: "
                          f"its frequencies reach only {grid.n // 2 * grid.dxi:g} < 1/2")
    if not cfg.t_final > 0:
        raise ConfigError(f"t_final must be > 0, got {cfg.t_final}")
    for key, least in (("snapshots", 2), ("suite_size", 1), ("seed", 0)):
        if getattr(cfg, key) < least:
            raise ConfigError(f"{key} must be >= {least}, got {getattr(cfg, key)}")
    for key, rule in _ELEMENTS.items():
        # amplitudes are data; an entry of another list names rows and criteria
        _check_list(f"field '{key}'", getattr(cfg, key), rule, distinct=key != "amplitudes")
    if not MIN_N_OP <= cfg.n_op <= N_OP_CAP:
        raise ConfigError(f"n_op must lie in [{MIN_N_OP}, {N_OP_CAP}], got {cfg.n_op}")
    family_params(cfg.family)
    return cfg


def _reject_constant(token):
    raise ConfigError(f"non-finite number {token} is not allowed")


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key repeated within it, which json.loads would
    silently resolve to its last value, is a ConfigError."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ConfigError(f"key {key!r} appears more than once in one object")
    return doc


def read_config(path) -> dict:
    """Parse a JSON config file into a document for config_from_dict."""
    try:
        with open(path, "rb") as fh:  # decoded whole, so an error's offset is the file's
            text = fh.read().decode("utf-8")
        return json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 at byte {exc.start}: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: "
                          f"{exc.msg}") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# initial-data families

def family_params(descriptor: dict) -> tuple:
    """Check a family descriptor against FAMILIES; return (kind, parameters with defaults)."""
    kind = descriptor.get("kind")
    if kind not in FAMILIES:
        raise ConfigError(f"unknown family kind {kind!r}")
    defaults = FAMILIES[kind]
    for key, val in descriptor.items():
        if key == "kind":
            continue
        if key not in defaults:
            raise ConfigError(f"family kind {kind!r} has no key {key!r}; "
                              f"allowed: {', '.join(defaults)}")
        _check_value(f"family key {key!r}", val, defaults[key])
        if key == "widths":
            _check_list("family key 'widths'", val, _POSITIVE)
        if key == "width" and not val > 0:
            raise ConfigError(f"family key 'width' must be > 0, got {val}")
        if key == "count" and val < 1:
            raise ConfigError(f"family key 'count' must be >= 1, got {val}")
    params = {**defaults, **{k: v for k, v in descriptor.items() if k != "kind"}}
    if kind == "random_band" and params["kmin"] > params["kmax"]:
        raise ConfigError(f"family band range is empty: kmin {params['kmin']} > "
                          f"kmax {params['kmax']}")
    if kind == "band_indicator" and not params["lo"] < params["hi"]:
        raise ConfigError(f"family band range is empty: lo {params['lo']} >= hi {params['hi']}")
    return kind, params


def build_family(descriptor: dict, grid: GridSpec, rng: np.random.Generator) -> list:
    """Realize a family descriptor as a list of Fields."""
    kind, d = family_params(descriptor)
    if kind == "gaussian":
        return [gaussian_field(grid, d["width"], d["amplitude"], d["center_freq"])]
    if kind == "gaussian_mix":
        return [gaussian_field(grid, w, d["amplitude"], d["center_freq"]) for w in d["widths"]]
    if kind == "soliton":
        return [sech_field(grid, d["amplitude"], d["shift"])]
    if kind == "band_indicator":
        held = (grid.xi >= d["lo"]) & (grid.xi < d["hi"])
        members = [band_indicator_field(grid, d["lo"], d["hi"], d["amplitude"])]
    else:
        held = (grid.band_of >= d["kmin"]) & (grid.band_of <= d["kmax"])
        members = [random_band_field(grid, d["kmin"], d["kmax"], d["amplitude"], rng)
                   for _ in range(d["count"])]
    if not held[1:].any():  # index 0 is the Nyquist mode, which Field.from_spectrum zeroes
        raise ConfigError(f"family {kind!r} selects no frequency of the lattice "
                          f"[{grid.xi[1]:g}, {grid.xi[-1]:g}]")
    return members


# Rows per block of the suite draw: one envelope exp and one batched forward
# transform per block.  On a 2-core VM at one BLAS thread, blocks of 16 cut the
# scaling_bands benchmark's run_s by about 6% but raise its peak memory by
# about 0.15 MB, which a suite held whole pays.
SUITE_BLOCK = 8
SUITE_AMPLITUDE = 0.3  # the amplitude of every suite field


def _suite_blocks(grid: GridSpec, size: int, rng: np.random.Generator, band_span: int):
    """The suite's draws, SUITE_BLOCK rows at a time: yields (rows, gauss, band).

    Row i - start of `rows` is field i: the samples of a gaussian at even i
    (rows[gauss]), the spectrum of a random band at odd i (rows[band], Nyquist
    zeroed as Field.from_spectrum does).  A block consumes the same random
    stream as drawing each field alone, and every row is bit-identical to
    gaussian_samples / random_band_spectrum: the block's envelopes are one exp
    call, each carrier exp(i cf x) is formed once per suite, and a band's
    lattice range is the run of band_of between its searchsorted edges, filled
    from one standard_normal(2w) call (its real then its imaginary part: the
    stream of random_band_spectrum's two w-draws).  The block's band rows are
    normalized from one sum over their last axis, each row's own pairwise sum.
    """
    x = grid.x
    carriers = {}  # cf -> exp(i cf x)
    # lattice index at which band k starts, k = -band_span .. band_span + 2
    edges = np.searchsorted(grid.band_of, np.arange(-band_span, band_span + 3)).tolist()
    for start in range(0, size, SUITE_BLOCK):
        rows = np.zeros((min(SUITE_BLOCK, size - start), grid.n), dtype=complex)
        gauss, band = slice(0, None, 2), slice(1, None, 2)  # SUITE_BLOCK is even, so every start is
        denoms, cfs, runs = [], [], []
        for i, row in enumerate(rows, start):
            if i % 2 == 0:
                width = 0.5 + 3.0 * rng.random()
                denoms.append(2.0 * width**2)
                cfs.append(float(rng.integers(-band_span, band_span + 1)))
            else:
                lo = int(rng.integers(-band_span, 1))
                hi = max(int(rng.integers(0, band_span + 1)), lo + 1)
                a, b = edges[lo + band_span], edges[hi + 1 + band_span]
                z = rng.standard_normal(2 * (b - a))
                row.real[a:b] = z[:b - a]
                row.imag[a:b] = z[b - a:]
                runs.append(slice(a, b))
        norms = np.sqrt(np.sum(np.abs(rows[band]) ** 2, axis=-1) * grid.dxi)
        for row, run, norm in zip(rows[band], runs, norms):
            if norm > 0:
                row[run] *= SUITE_AMPLITUDE / norm  # the rest of the row is 0
        rows[band, 0] = 0.0
        envs = SUITE_AMPLITUDE * np.exp(-x**2 / np.array(denoms)[:, None])
        for row, env, cf in zip(rows[gauss], envs, cfs):
            if cf not in carriers:
                carriers[cf] = np.exp(1j * cf * x)
            np.multiply(env, carriers[cf], out=row)
        if start + SUITE_BLOCK >= size:
            carriers.clear()  # a suite held whole need not hold them too
        yield rows, gauss, band


def random_suite(grid: GridSpec, size: int, rng: np.random.Generator,
                 band_span: int = 6) -> list:
    """Mixed deterministic suite: gaussians of assorted widths/carriers plus random bands.

    Field i is bit-identical to the gaussian_field (even i) or random_band_field
    (odd i) that the same rng state would draw.
    """
    suite = []
    for rows, gauss, band in _suite_blocks(grid, size, rng, band_span):
        block = [None] * len(rows)
        block[gauss] = map(Field, repeat(grid), rows[gauss], forward_transform(rows[gauss], grid))
        block[band] = map(Field, repeat(grid), inverse_transform(rows[band], grid), rows[band])
        suite += block
    return suite


def suite_power(grid: GridSpec, size: int, rng: np.random.Generator,
                band_span: int = 6) -> np.ndarray:
    """The (size, n) array of |fhat|^2 of random_suite's fields, bit for bit, and
    the same rng state after it; no field is built and no sample is synthesized."""
    power = np.empty((size, grid.n))
    start = 0
    for rows, gauss, band in _suite_blocks(grid, size, rng, band_span):
        out = power[start:start + len(rows)]
        start += len(rows)
        out[gauss] = np.abs(forward_transform(rows[gauss], grid)) ** 2
        out[band] = np.abs(rows[band]) ** 2
    return power
