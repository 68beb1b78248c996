"""Outside-in tracing of modspec, installed from the benchmark's side.

No modspec source is edited.  After modspec is imported, every public
function of the traced layers (and a few named methods) is wrapped, and
every binding of it in every loaded ``modspec.*`` module is replaced by the
wrapper.  Calls made through a re-export (``modspec.evolve``) or a sibling
module's import (``harness.experiments.evolve``) are therefore seen, and a
function that moves between modules is still found.  ``numpy.fft`` and
``numpy.linalg.slogdet`` are wrapped the same way so that their calls can be
counted where modspec makes them.

Spans are aggregated in memory per name: calls, inclusive seconds, and self
seconds (inclusive minus the time covered by child spans).  A target that a
later refactor deletes is reported as absent; its metrics read 0.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("grid", "flows", "conserved", "norms", "symmetries", "harness")

# Methods traced in addition to the public module-level functions.
METHODS = (
    ("modspec.grid", "Field.__init__"),
    ("modspec.grid", "Field.from_spectrum"),
    ("modspec.conserved", "OperatorPair.spectral_radius"),
    ("modspec.harness.reports", "RunResult.write"),
)

# Span names the per-layer metrics read, plus names slated for removal whose
# presence is worth reporting.  Any of them missing is listed as absent.
WATCHED = (
    "grid.forward_transform", "grid.inverse_transform",
    "grid.Field.__init__", "grid.Field.from_spectrum",
    "flows.evolve", "flows.step",
    "conserved.build_operator", "conserved.OperatorPair.spectral_radius",
    "conserved.alpha_full", "conserved.alpha4",
    "norms.modulation_norm", "norms.sobolev_norm", "norms.hs_functional",
    "symmetries.scale_field", "symmetries.galilei_boost",
    "harness.RunResult.write", "harness._lp",
)
PRIVATE_WATCHED = {("modspec.harness.experiments", "_lp")}

FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
             "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
SHIFT_NAMES = ("fftshift", "ifftshift")
FIELD_SPANS = ("grid.Field.__init__", "grid.Field.from_spectrum")


def _digest(field) -> bytes:
    data = np.ascontiguousarray(getattr(field, "values", field))
    return hashlib.blake2b(data.tobytes(), digest_size=16).digest()


def _layer(module_name: str) -> str:
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


class Tracer:
    """Span statistics and counters for one traced process."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, inclusive_s, self_s]
        self.counts = {"fft": 0, "shift": 0, "fft_in_steps": 0, "steps": 0,
                       "dense_flop": 0.0}
        self.distinct = {"flows.evolve": set(), "conserved.build_operator": set()}
        self.unavailable = set()  # counters whose arguments could not be read
        self.absent = []
        self._stack = []  # open frames: [name, child_s]

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, fn, on_call=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return traced

    def _bound(self, fn):
        sig = inspect.signature(fn)

        def bind(args, kwargs):
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            return ba.arguments

        return bind

    # -- per-target hooks ---------------------------------------------------

    def _on_fft(self, args, kwargs):
        self.counts["fft"] += 1
        for name, _ in reversed(self._stack):
            if name in FIELD_SPANS:
                return  # a snapshot Field built by evolve, not a step
            if name == "flows.evolve":
                self.counts["fft_in_steps"] += 1
                return

    def _on_shift(self, args, kwargs):
        self.counts["shift"] += 1

    def _on_slogdet(self, args, kwargs):
        n = np.shape(args[0] if args else kwargs["a"])[-1]
        self.counts["dense_flop"] += 8.0 * n**3 / 3.0  # complex LU

    def _hook_evolve(self, fn):
        bind = self._bound(fn)

        def on_call(args, kwargs):
            try:
                a = bind(args, kwargs)
                u0, fs, times = a["u0"], a["fs"], [float(t) for t in a["snapshot_times"]]
                self.distinct["flows.evolve"].add((_digest(u0), repr(fs), tuple(times)))
                if times:
                    self.counts["steps"] += int(round(max(times) / abs(fs.dt)))
            except (TypeError, KeyError, AttributeError, ValueError):
                self.unavailable.add("flows.evolve")

        return on_call

    def _hook_build(self, fn):
        bind = self._bound(fn)

        def on_call(args, kwargs):
            try:
                a = bind(args, kwargs)
                n_op = int(a["n_op"])
                key = (_digest(a["f"]), repr(a["kp"]), n_op, float(a["center"]))
                self.distinct["conserved.build_operator"].add(key)
                self.counts["dense_flop"] += 8.0 * n_op**3  # one complex matmul
            except (TypeError, KeyError, AttributeError, ValueError):
                self.unavailable.add("conserved.build_operator")

        return on_call

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the traced targets and rebind them across modspec and numpy."""
        replace = {}  # id(original) -> (original, wrapper)
        hooks = {"flows.evolve": self._hook_evolve,
                 "conserved.build_operator": self._hook_build}
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("modspec.") or _layer(mod_name) not in LAYERS:
                continue
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") or (mod_name, attr) in PRIVATE_WATCHED
                if (public and inspect.isfunction(obj) and obj.__module__ == mod_name
                        and id(obj) not in replace):
                    name = f"{_layer(mod_name)}.{attr}"
                    hook = hooks[name](obj) if name in hooks else None
                    replace[id(obj)] = (obj, self.wrap(name, obj, hook))

        for mod_name, path in METHODS:
            cls_name, meth = path.split(".")
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                continue
            name = f"{_layer(mod_name)}.{path}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(name, raw))

        for mod, names, hook in ((np.fft, FFT_NAMES, self._on_fft),
                                 (np.fft, SHIFT_NAMES, self._on_shift),
                                 (np.linalg, ("slogdet",), self._on_slogdet)):
            for attr in names:
                fn = getattr(mod, attr, None)
                if fn is not None:
                    wrapped = self.wrap(f"{mod.__name__}.{attr}", fn, hook)
                    replace[id(fn)] = (fn, wrapped)
                    setattr(mod, attr, wrapped)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "modspec" or mod_name.startswith("modspec."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replace:
                        setattr(mod, attr, replace[id(obj)][1])

        self.absent = [n for n in WATCHED if n not in self.stats]
        return self

    # -- results ------------------------------------------------------------

    def _get(self, name, i):
        return self.stats.get(name, (0, 0.0, 0.0))[i]

    def calls(self, name):
        return self._get(name, 0)

    def incl(self, name):
        return self._get(name, 1)

    def self_s(self, name):
        return self._get(name, 2)

    def layer_metrics(self, driver: str) -> dict:
        """Per-layer metrics of one driver call; ratios over zero calls read 0."""
        c = self.counts
        evolve_calls = self.calls("flows.evolve")
        builds = self.calls("conserved.build_operator")
        steps = c["steps"]
        return {
            "grid.fft_calls": c["fft"],
            "grid.shift_calls": c["shift"],
            "grid.transform_s": self.incl("grid.forward_transform")
            + self.incl("grid.inverse_transform"),
            "grid.field_calls": self.calls("grid.Field.__init__"),
            "flows.evolve_s": self.incl("flows.evolve"),
            "flows.evolve_calls": evolve_calls,
            "flows.steps": steps,
            "flows.step_us": 1e6 * self.incl("flows.evolve") / steps if steps else 0.0,
            "flows.fft_per_step": c["fft_in_steps"] / steps if steps else 0.0,
            "flows.evolve_unique_ratio":
                len(self.distinct["flows.evolve"]) / evolve_calls if evolve_calls else 0.0,
            "conserved.build_operator_s": self.incl("conserved.build_operator"),
            "conserved.build_operator_calls": builds,
            "conserved.build_unique_ratio":
                len(self.distinct["conserved.build_operator"]) / builds if builds else 0.0,
            "conserved.spectral_radius_s": self.incl("conserved.OperatorPair.spectral_radius"),
            "conserved.spectral_radius_calls":
                self.calls("conserved.OperatorPair.spectral_radius"),
            "conserved.slogdet_s": self.incl("numpy.linalg.slogdet"),
            "conserved.slogdet_calls": self.calls("numpy.linalg.slogdet"),
            "conserved.alpha_full_self_s": self.self_s("conserved.alpha_full"),
            "conserved.alpha4_s": self.incl("conserved.alpha4"),
            "conserved.dense_gflop": c["dense_flop"] / 1e9,
            "norms.modulation_norm_s": self.incl("norms.modulation_norm"),
            "norms.modulation_norm_calls": self.calls("norms.modulation_norm"),
            "norms.sobolev_norm_s": self.incl("norms.sobolev_norm"),
            "norms.hs_functional_s": self.incl("norms.hs_functional"),
            "symmetries.scale_field_s": self.incl("symmetries.scale_field"),
            "symmetries.scale_field_calls": self.calls("symmetries.scale_field"),
            "symmetries.galilei_boost_s": self.incl("symmetries.galilei_boost"),
            "harness.driver_self_s": self.self_s(f"harness.{driver}"),
            "harness.write_s": self.incl("harness.RunResult.write"),
        }

    def spans(self) -> dict:
        return {name: list(v) for name, v in self.stats.items() if v[0]}
