"""Per-layer spans recorded from outside the package.

The tracer wraps entry points of the predimlab modules at run time: every
module attribute (and class attribute) that holds one of the listed
functions is replaced by a wrapper, so calls between modules and calls
inside a module both pass through it.  Nothing under ``src/`` changes.

Each wrapper is a span.  A span's self time is its duration minus the time
covered by the spans it calls.  Spans are aggregated per name (calls,
inclusive time, self time) instead of being stored one by one, because hot
layers such as ``delta_mask`` are entered millions of times per run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from workloads import SUITE_NAMES

# (span name, module, attribute); "Class.method" attributes patch the class.
SPANS = (
    ("closures.flow_build", "closures", "StructureFlowSolver.__init__"),
    ("closures.flow_solve", "closures", "StructureFlowSolver.solve"),
    ("closures.flow_solve", "closures", "StructureFlowSolver.solve_value"),
    ("closures.delta_table", "closures", "delta_table"),
    ("closures.dim_table_cached", "closures", "dim_table_cached"),
    ("closures.dim", "closures", "dim"),
    ("closures.cl0", "closures", "cl0"),
    ("closures.cld", "closures", "cld"),
    ("closures.self_sufficient", "closures", "self_sufficient"),
    ("closures.is_d_closed", "closures", "is_d_closed"),
    ("structures.canonical_form", "structures", "canonical_form"),
    ("structures.delta_mask", "structures", "delta_mask"),
    ("structures.load_structure", "structures", "load_structure"),
    ("structures.FiniteStructure", "structures", "FiniteStructure.__init__"),
    ("classes.in_C0", "classes", "in_C0"),
    ("classes.in_Cf", "classes", "in_Cf"),
    ("classes.in_Kn", "classes", "in_Kn"),
    ("gadgets.verify_gadget", "gadgets", "verify_gadget"),
    ("gadgets.build_double_cycle", "gadgets", "build_double_cycle"),
    ("gadgets.sample_closed_connected_subsets", "gadgets", "sample_closed_connected_subsets"),
    ("extensions.count_msa_copies", "extensions", "count_msa_copies"),
    ("extensions.enumerate_msa_pairs", "extensions", "enumerate_msa_pairs"),
    ("independence.axiom_suite", "independence", "axiom_suite"),
    ("independence.check_lemma43_characterization", "independence",
     "check_lemma43_characterization"),
    ("reports.emit_report", "reports", "emit_report"),
    ("reports.VerificationReport.digest", "reports", "VerificationReport.digest"),
    ("builder.build_generic", "builder", "build_generic"),
    ("builder.audit_extension_property", "builder", "audit_extension_property"),
    ("builder.enumerate_class", "builder", "enumerate_class"),
    ("cli.main", "cli", "main"),
)
CACHED = ("closures.delta_table", "closures.dim_table_cached")


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [span name, seconds covered by child spans]
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.cl0_solves = 0
        self.build_steps = 0
        self.audit_checked = 0
        self.audit_realized = 0
        self._caches: dict[str, tuple] = {}

    # -- spans -----------------------------------------------------------------

    def _enter(self, name: str, count: bool = True) -> float:
        if count:
            self.calls[name] += 1
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def _exit(self, t0: float) -> None:
        dt = time.perf_counter() - t0
        name, child = self._stack.pop()
        self.incl[name] += dt
        self.self_s[name] += dt - child
        if self._stack:
            self._stack[-1][1] += dt

    @contextmanager
    def span(self, name: str):
        t0 = self._enter(name)
        try:
            yield
        finally:
            self._exit(t0)

    def wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # a generator's work happens on each resume, not at the call
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = True
                while True:
                    t0 = tracer._enter(name, count=first)
                    first = False
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(t0)
                    yield item

            return gen_wrapper

        observe = {
            "builder.build_generic": self._on_build,
            "builder.audit_extension_property": self._on_audit,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(t0)
            if observe is not None:
                observe(out)
            return out

        return wrapper

    def _on_build(self, result) -> None:
        self.build_steps += len(result.log.steps)

    def _on_audit(self, report) -> None:
        for e in report.entries:
            self.audit_checked += e.embeddings_checked
            self.audit_realized += e.realized

    def _count_cl0_solve(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._stack and tracer._stack[-1][0] == "closures.cl0":
                tracer.cl0_solves += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Patch every predimlab module; call once, before any workload code."""
        for _, mod_name, _ in SPANS:
            importlib.import_module(f"predimlab.{mod_name}")
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "predimlab" or k.startswith("predimlab."))]
        for name, mod_name, attr in SPANS:
            mod = sys.modules[f"predimlab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(mod, attr)
            if name in CACHED:
                self._caches[name] = (orig, orig.cache_info())
            _replace_everywhere(modules, orig, self.wrap(name, orig))
        closures = sys.modules["predimlab.closures"]
        _replace_everywhere(modules, closures._solve, self._count_cl0_solve(closures._solve))

    # -- metrics -----------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in dict.fromkeys(n for n, _, _ in SPANS):
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            if name in CACHED:
                orig, before = self._caches[name]
                now = orig.cache_info()
                hits, misses = now.hits - before.hits, now.misses - before.misses
                out[f"{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                            "ratio")
        cl0_calls = self.calls["closures.cl0"]
        out["closures.cl0.solves_per_call"] = (
            self.cl0_solves / cl0_calls if cl0_calls else 0.0, "ratio")
        out["builder.steps"] = (self.build_steps, "count")
        work_s = self.incl["builder.build_generic"] + self.incl["builder.audit_extension_property"]
        out["builder.steps_per_s"] = (self.build_steps / work_s if work_s else 0.0, "1/s")
        out["builder.realized_ratio"] = (
            self.audit_realized / self.audit_checked if self.audit_checked else 0.0, "ratio")
        for suite in SUITE_NAMES:
            out[f"suites.{suite}.wall_s"] = (self.incl[f"suites.{suite}"], "s")
            out[f"suites.{suite}.self_s"] = (self.self_s[f"suites.{suite}"], "s")
        return out


def _replace_everywhere(modules, orig, replacement) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, replacement)

