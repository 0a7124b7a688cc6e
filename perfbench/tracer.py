"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the public functions and methods of each
ivhecke layer with wrappers, in every module that binds them, and
``uninstall()`` puts the originals back.  Two kinds of wrapper exist:

* a *span* records (name, start, end, parent) for every call and keeps it
  in memory until ``metrics()`` is called.  A layer's time metric is the
  self time of its spans: their duration minus the part covered by their
  child spans.
* a *counter* only counts calls.  The laurent dunders and other hot,
  tiny calls are counted and not timed, because timing them would distort
  the times of everything above them.

Every span name maps to exactly one ``<name>_s`` metric, so the time
metrics plus ``trace.uncovered_s`` (time outside every span) add up to
``trace.wall_s``, the traced wall time of the workload.
"""

from __future__ import annotations

import itertools
import time
from array import array

from ivhecke import classify, cli, coxeter, hecke, ivmodules, laurent, pkernel, twisted

MODULES = (laurent, coxeter, twisted, hecke, ivmodules, classify, pkernel, cli)

CS = coxeter.CoxeterSystem
LP = laurent.LaurentPoly

#: span name -> call targets; a target is (class, method name) or a function
SPANS = {
    "coxeter.enumerate": [(CS, "elements"), (CS, "element_index")],
    "coxeter.word_ops": [
        (CS, "reduce"),
        (CS, "multiply"),
        (CS, "inverse"),
        (CS, "left_mult"),
        (CS, "right_mult"),
        (CS, "apply_automorphism"),
    ],
    "coxeter.bruhat": [(CS, "bruhat_leq")],
    "twisted.block_build": [(twisted.TwistedBlock, "__init__")],
    "hecke.kl_table": [(hecke.HeckeAlgebra, "kl_table")],
    "hecke.bar_terms": [(hecke.HeckeAlgebra, "bar_basis_terms")],
    "hecke.solve": [hecke.solve_canonical],
    "ivmodules.bar_row": [ivmodules.bar_row_vector],
    "ivmodules.canonical_table": [(ivmodules.TwistedModule, "canonical_table"), ivmodules.canonical_table],
    "ivmodules.recurrence": [ivmodules.recurrence_check],
    "classify.representation": [classify.check_representation],
    "classify.precanonical": [classify.precanonical_test],
    "classify.grouping": [classify.transport_basis],
    "classify.pipeline": [classify.classification_run, classify.representation_scan],
    "pkernel.poset": [(pkernel.Poset, "__init__")],
    "pkernel.bar_matrix": [pkernel.hecke_bar_matrix, pkernel.module_bar_matrix],
    "pkernel.kernel_from_bar": [pkernel.kernel_from_bar, pkernel.bar_from_kernel],
    "pkernel.involution": [(pkernel.BarMatrix, "is_involution")],
    "pkernel.kls": [pkernel.kls_function],
    "cli.self": [cli.main],
}

#: count metric -> call targets
COUNTERS = {
    "twisted.kappa_calls": [twisted.kappa],
    "hecke.mult_gen_calls": [(hecke.HeckeAlgebra, "mult_gen")],
    "laurent.mul_calls": [(LP, "__mul__"), (LP, "__rmul__")],
    "laurent.add_calls": [(LP, "__add__"), (LP, "__radd__")],
    "laurent.bar_calls": [(LP, "bar")],
    "laurent.exact_div_calls": [(LP, "exact_div")],
    "laurent.new_polys": [(LP, "__init__")],
    "ivmodules.act_gen_calls": [ivmodules.act_gen],
    "ivmodules.vec_ops": [ivmodules.vec_add, ivmodules.vec_scale, ivmodules.vec_sub, ivmodules.vec_bar_coeffs],
}

#: count metrics read off the spans: metric -> span name
SPAN_COUNTS = {
    "coxeter.word_ops": "coxeter.word_ops",
    "coxeter.bruhat_calls": "coxeter.bruhat",
    "twisted.block_builds": "twisted.block_build",
    "hecke.solve_calls": "hecke.solve",
    "ivmodules.bar_rows": "ivmodules.bar_row",
}

#: every metric ``metrics()`` reports, in a fixed order
METRICS = (
    [name + "_s" for name in SPANS]
    + list(COUNTERS)
    + list(SPAN_COUNTS)
    + [
        "coxeter.elements",
        "coxeter.nf_words",
        "coxeter.bruhat_pairs",
        "twisted.block_elements",
        "hecke.solve_entries",
        "classify.blocks",
        "classify.candidates",
        "classify.survivors",
        "classify.survivor_ratio",
        "pkernel.pairs",
        "cli.output_bytes",
        "trace.spans",
        "trace.wall_s",
        "trace.uncovered_s",
    ]
)


def self_times(names, starts, ends, parents) -> tuple[dict, float]:
    """Self time per span name, and the time covered by root spans.

    Spans are nested and sequential (one thread), so a span's children
    cover exactly the sum of their durations.
    """
    child = [0.0] * len(names)
    covered = 0.0
    for i, parent in enumerate(parents):
        duration = ends[i] - starts[i]
        if parent < 0:
            covered += duration
        else:
            child[parent] += duration
    out: dict = {}
    for i, name in enumerate(names):
        out[name] = out.get(name, 0.0) + (ends[i] - starts[i]) - child[i]
    return out, covered


class Tracer:
    """Wraps the layers while installed; ``metrics()`` reads the result once.

    It keeps every CoxeterSystem and Poset built while installed, to read
    their cache and order sizes at the end.
    """

    def __init__(self) -> None:
        self.span_names = list(SPANS)
        self.name_ids: array = array("H")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.parents: array = array("l")
        self.stack = [-1]
        self.counters = {name: itertools.count() for name in COUNTERS}
        self.totals = {
            "twisted.block_elements": 0,
            "hecke.solve_entries": 0,
            "classify.blocks": 0,
            "classify.candidates": 0,
            "classify.survivors": 0,
        }
        self.systems: list = []
        self.posets: list = []
        self._saved: list = []

    # ------------------------------------------------------------------
    # wrappers

    def _span(self, name: str, fn, after=None):
        nid = self.span_names.index(name)
        name_ids, starts, ends, parents, stack = self.name_ids, self.starts, self.ends, self.parents, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    @staticmethod
    def _counter(tick, fn):
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    @staticmethod
    def _hook(fn, after):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    def _add(self, key: str, amount: int) -> None:
        self.totals[key] += amount

    def _report(self, args, report) -> None:
        self._add("classify.candidates", len(report.candidates))
        self._add("classify.survivors", report.survivor_count)

    def _afters(self) -> dict:
        """Hooks on spans that read sizes off a call, run after the span closes."""
        return {
            twisted.TwistedBlock.__init__: lambda a, r: self._add("twisted.block_elements", len(a[0].elements)),
            hecke.solve_canonical: lambda a, r: self._add("hecke.solve_entries", len(r)),
            classify.classification_run: self._report,
            classify.representation_scan: self._report,
            pkernel.Poset.__init__: lambda a, r: self.posets.append(a[0]),
        }

    # ------------------------------------------------------------------

    def _replace(self, target, make) -> None:
        """Replace a method on its class, or a function in every module binding it."""
        if isinstance(target, tuple):
            owner, attr = target
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        wrapper = make(target)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is target:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        afters = self._afters()
        for name, targets in SPANS.items():
            for target in targets:
                self._replace(target, lambda f, n=name: self._span(n, f, afters.get(f)))
        for name, targets in COUNTERS.items():
            tick = self.counters[name].__next__
            for target in targets:
                self._replace(target, lambda f, t=tick: self._counter(t, f))
        # untimed hooks: the systems built (for cache sizes) and the blocks classified
        self._replace((CS, "__init__"), lambda f: self._hook(f, lambda a, r: self.systems.append(a[0])))
        self._replace(classify.blocks_for_mode, lambda f: self._hook(f, lambda a, r: self._add("classify.blocks", len(r))))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------------

    def metrics(self, wall_s: float, output_bytes: int) -> dict:
        names = [self.span_names[i] for i in self.name_ids]
        own, covered = self_times(names, self.starts, self.ends, self.parents)
        out = {name + "_s": own.get(name, 0.0) for name in SPANS}
        out.update({name: next(counter) for name, counter in self.counters.items()})
        for metric, span in SPAN_COUNTS.items():
            out[metric] = names.count(span)
        out.update(self.totals)
        out["coxeter.elements"] = sum(len(getattr(s, "_elements", None) or ()) for s in self.systems)
        out["coxeter.nf_words"] = sum(len(getattr(s, "_nf", ())) for s in self.systems)
        out["coxeter.bruhat_pairs"] = sum(len(getattr(s, "_bruhat", ())) for s in self.systems)
        cand = out["classify.candidates"]
        out["classify.survivor_ratio"] = out["classify.survivors"] / cand if cand else 0.0
        out["pkernel.pairs"] = sum(len(p.pairs()) for p in self.posets)
        out["cli.output_bytes"] = output_bytes
        out["trace.spans"] = len(names)
        out["trace.wall_s"] = wall_s
        out["trace.uncovered_s"] = wall_s - covered
        return {name: out[name] for name in METRICS}
