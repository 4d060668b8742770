"""Outside-in tracer: wraps the package's public functions without editing them.

A wrapped call records a span (name, parent span, start, end) in memory.
Functions are replaced at every place they are bound: the defining module,
every ``nbhdext`` module that imported them by name, the harness modules
passed to ``install``, and every alias on a class (``LaurentPoly.__rmul__``
is ``__mul__``).  Some spans also record exact counts of the work they saw,
such as term products or system sizes.

Self time of a span is its duration minus the durations of its direct
children.  Work done by a count observer is recorded as a ``trace.count``
child span, so it is charged to the tracer and not to the caller.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List

# -- count observers: (counts, args, kwargs, result) -> None --------------------------


def _laurent_mul(counts, args, kwargs, result):
    a, b = args
    if hasattr(b, "terms"):
        counts["laurent.LaurentPoly.mul.term_pairs"] += len(a.terms) * len(b.terms)


def _chart_mul(counts, args, kwargs, result):
    _, a, b = args[:3]
    counts["filtered.ChartRing.mul.term_pairs"] += len(a.terms) * len(b.terms)
    counts["filtered.ChartRing.mul.kept_terms"] += len(result.terms)


def _solve_exact(counts, args, kwargs, result):
    system = args[0]
    rows, cols = len(system.matrix), len(system.basis)
    counts["linsolve.rows"] += rows
    counts["linsolve.cols"] += cols
    counts["linsolve.cells"] += rows * cols
    counts["linsolve.nnz"] += sum(1 for row in system.matrix for x in row if x != 0)
    counts["linsolve.rank"] += cols - len(result.nullspace)
    counts["linsolve.max_cols"] = max(counts["linsolve.max_cols"], cols)


# span name -> attribute path in the module named by the span's first part
TARGETS = {
    "laurent.LaurentPoly.mul": "LaurentPoly.__mul__",
    "linsolve.solve_exact": "solve_exact",
    "linsolve.matrix_rank": "matrix_rank",
    "linsolve.PolyMatrix.matmul": "PolyMatrix.matmul",
    "filtered.ChartRing.mul": "ChartRing.mul",
    "filtered.ChartRing.subst_trunc": "ChartRing.subst_trunc",
    "filtered.exp_nilpotent": "exp_nilpotent",
    "filtered.log_unipotent": "log_unipotent",
    "filtered.bch2": "bch2",
    "filtered.bracket": "bracket",
    "filtered.induced_transition": "induced_transition",
    "filtered.FilteredAutomorphism.compose": "FilteredAutomorphism.compose",
    "cech.CechContext.transport": "CechContext.transport",
    "cech.cech_differential": "cech_differential",
    "cech.solve_coboundary": "solve_coboundary",
    "cech.first_order_obstruction": "first_order_obstruction",
    "cech.second_order_obstruction": "second_order_obstruction",
    "scenarios.scenario_from_json": "scenario_from_json",
    "scenarios.validate_scenario": "validate_scenario",
    "scenarios.build_context": "build_context",
    "scenarios.solve_abelianized": "solve_abelianized",
    "scenarios.run_pipeline": "run_pipeline",
    "scenarios.ReportBundle.dumps": "ReportBundle.dumps",
    "mclift.GradedDgLie.init": "GradedDgLie.__init__",
    "mclift.AbelianExtension.init": "AbelianExtension.__init__",
    "mclift.GradedDgLie.apply_d": "GradedDgLie.apply_d",
    "mclift.GradedDgLie.bracket": "GradedDgLie.bracket",
    "mclift.is_mc": "is_mc",
    "mclift.lift_residual": "lift_residual",
}
OBSERVERS = {
    "laurent.LaurentPoly.mul": _laurent_mul,
    "filtered.ChartRing.mul": _chart_mul,
    "linsolve.solve_exact": _solve_exact,
}
# observers that scan a whole input get a span of their own, so their time
# is charged to the tracer and not to the caller
COSTLY = {"linsolve.solve_exact"}
LAYERS = ("laurent", "linsolve", "filtered", "cech", "scenarios", "mclift")
COUNT_SPAN = "trace.count"


class Tracer:
    """Span recorder; ``install`` patches the targets, ``uninstall`` restores them."""

    def __init__(self):
        self.names: List[str] = [COUNT_SPAN]
        self._ids: Dict[str, int] = {COUNT_SPAN: 0}
        # four slots per span: name id, parent span (-1 at the root), start, end
        self.spans = array("q")
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    # -- patching -----------------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        for name, path in TARGETS.items():
            owner = importlib.import_module("nbhdext." + name.split(".")[0])
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, OBSERVERS.get(name), name in COSTLY)
            if cls_path:
                # methods: patch the class, including aliases such as __rmul__
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        self._set(owner, key, wrapped)
            else:
                modules = [m for n, m in sys.modules.items() if n.startswith("nbhdext")]
                for module in modules + list(extra_modules):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapped)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _wrap(self, name: str, fn: Callable, observer, costly: bool) -> Callable:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((nid, stack[-1] if stack else -1, 0, 0))
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[4 * idx + 2] = start
                spans[4 * idx + 3] = end
            if observer is not None:
                if costly:
                    cidx = len(spans) >> 2
                    spans.extend((0, stack[-1] if stack else -1, perf_counter_ns(), 0))
                    observer(counts, args, kwargs, result)
                    spans[4 * cidx + 3] = perf_counter_ns()
                else:
                    observer(counts, args, kwargs, result)
            return result

        return traced

    # -- results --------------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: exact call count and self seconds."""
        n = len(self.spans) >> 2
        child_ns = defaultdict(int)
        s = self.spans
        for i in range(n):
            parent = s[4 * i + 1]
            if parent >= 0:
                child_ns[parent] += s[4 * i + 3] - s[4 * i + 2]
        out: Dict[str, Dict[str, float]] = {}
        for i in range(n):
            dur = s[4 * i + 3] - s[4 * i + 2]
            row = out.setdefault(self.names[s[4 * i]], {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (dur - child_ns[i]) / 1e9
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, parent index, start and end in ns."""
        s = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(s) >> 2):
                fh.write(json.dumps([self.names[s[4 * i]], s[4 * i + 1], s[4 * i + 2], s[4 * i + 3]]))
                fh.write("\n")
