"""In-memory span tracer that wraps the public functions of the oba_lab modules.

Each call of a wrapped function records one span: name, start, end and the
index of the enclosing span.  Spans are kept in flat arrays while the pass
runs and turned into per-function calls, total time and self time at the end,
where self time is a span's duration minus the time its child spans cover.

`spectral_norm` is split by input dimension against the package's own
SVD/Lanczos threshold, and its inputs are fingerprinted to count repeated
work.  Hashing is recorded as its own span, so it is not charged to the
caller's self time.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("operators", "algebra", "spectral", "volterra", "rigidity", "suites", "cli")

# Functions whose calls, total_s and self_s are reported, by "<module>.<function>".
REPORTED = (
    "spectral.spectral_norm.svd",
    "spectral.spectral_norm.lanczos",
    "spectral.eigenvalues",
    "spectral.gelfand_radius",
    "volterra.volterra_matrix",
    "volterra.resolvent_at_identity",
    "volterra.build_witness",
    "volterra.convergence_study",
    "volterra.growth_diagnostic",
    "algebra.random_cone_element",
    "algebra.prod_mul",
    "algebra.prod_norm",
    "algebra.cone_contains",
    "algebra.geq_unit",
    "rigidity.random_strict_nilpotent",
    "rigidity.random_unitary",
    "rigidity.rigidity_gap",
    "suites.run_axiom_suite",
    "suites.run_rigidity_suite",
    "cli.run",
    "cli.render",
)
# MatrixOperator construction (including validation): calls and total_s only.
CONSTRUCTOR = "operators.MatrixOperator"
REPEAT_FRAC = "spectral.spectral_norm.repeat_frac"
OVERHEAD_FRAC = "trace.overhead_frac"
_HASH_SPAN = "trace.hash"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in REPORTED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units[f"{CONSTRUCTOR}.calls"] = "count"
    units[f"{CONSTRUCTOR}.total_s"] = "s"
    units[REPEAT_FRAC] = "ratio"
    units[OVERHEAD_FRAC] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self._ids: dict[str, int] = {}
        self._name = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._seen: set = set()
        self.norm_calls = 0
        self.norm_repeats = 0

    def _id(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    def _open(self, nid: int) -> int:
        i = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _wrap_norm(self, fn, threshold: int, matrix_type):
        svd = self._id("spectral.spectral_norm.svd")
        lanczos = self._id("spectral.spectral_norm.lanczos")
        hashing = self._id(_HASH_SPAN)

        def traced(a, *args, **kwargs):
            i = self._open(hashing)
            m = a.entries if isinstance(a, matrix_type) else np.asarray(a)
            key = (m.dtype.str, m.shape,
                   hashlib.sha1(np.ascontiguousarray(m), usedforsecurity=False).digest())
            self.norm_calls += 1
            self.norm_repeats += key in self._seen
            self._seen.add(key)
            self._close(i)
            i = self._open(svd if m.shape[0] <= threshold else lanczos)
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._close(i)

        return traced

    def begin_command(self) -> None:
        """Repeated norm inputs are counted within one CLI command."""
        self._seen.clear()

    def install(self) -> None:
        """Wrap the public functions and rebind every package-level name bound to them.

        `algebra`, `volterra`, `rigidity` and `suites` import `spectral_norm`
        and friends by name, so patching only the defining module would let
        most calls bypass the wrapper.
        """
        mods = {short: importlib.import_module(f"oba_lab.{short}") for short in MODULES}
        operators = mods["operators"]
        # Read from the package, not copied: a dim at or below it takes the SVD path.
        threshold = mods["spectral"]._SVD_MAX_DIM
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") and inspect.isfunction(obj)
                if not public or obj.__module__ != mod.__name__:
                    continue
                if short == "spectral" and attr == "spectral_norm":
                    wrappers[obj] = self._wrap_norm(obj, threshold, operators.MatrixOperator)
                else:
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "oba_lab" and not name.startswith("oba_lab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        cls = operators.MatrixOperator
        cls.__init__ = self.wrap(CONSTRUCTOR, cls.__init__)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(list(self._ids)),  # ids are assigned in insertion order
            "name": np.frombuffer(self._name, dtype=np.int64),
            "parent": np.frombuffer(self._parent, dtype=np.int64),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
        }

    def summary(self) -> dict[str, float]:
        """Per-layer calls, total_s and self_s, plus the repeated-norm fraction."""
        s = self.spans()
        stats = aggregate(s["name"], s["parent"], s["start"], s["end"], len(self._ids))
        out = {}
        for name in REPORTED:
            calls, total, own = stats[self._ids[name]] if name in self._ids else (0, 0.0, 0.0)
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = own
        calls, total, _ = stats[self._ids[CONSTRUCTOR]]
        out[f"{CONSTRUCTOR}.calls"] = calls
        out[f"{CONSTRUCTOR}.total_s"] = total
        out[REPEAT_FRAC] = self.norm_repeats / self.norm_calls if self.norm_calls else 0.0
        return out


def aggregate(name, parent, start, end, n_names: int) -> list[tuple[int, float, float]]:
    """(calls, total, self) per name id; self = duration - duration of direct children.

    Spans come from one thread's call stack, so a span's children never
    overlap and their summed durations are exactly the covered part.
    """
    dur = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = dur - covered
    calls = np.bincount(name, minlength=n_names)
    total = np.bincount(name, weights=dur, minlength=n_names)
    own_total = np.bincount(name, weights=own, minlength=n_names)
    return [(int(calls[i]), float(total[i]), float(own_total[i])) for i in range(n_names)]
