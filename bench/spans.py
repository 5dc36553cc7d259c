"""Span recorder for the traced benchmark run.

The recorder wraps public functions and methods of torcheck's layers from the
outside; the program itself is not edited.  A wrapped call appends one span
``(name, start, end, parent, size)`` to an in-memory list; nothing is written
until the op ends and ``layer_metrics`` folds the spans into per-layer counts
and self times (a span's duration minus the durations of its direct children).

Module-level functions are imported by name elsewhere (``cli`` and
``rigidity`` bind ``induced_map``, ``tor_from_resolution`` and ``full_report``
themselves), so a function is replaced at every module attribute of the
package that holds it, not only where it is defined.

Per-scalar functions such as ``field.normalize`` are deliberately not wrapped:
millions of calls would make the trace measure its own overhead.
``AlgebraElement.__init__`` is counted without a span for the same reason.
"""

from __future__ import annotations

import functools
import sys
import time


def _mults(a, b, *_):
    return a.nrows * a.ncols * b.ncols


def _cells(m, *_):
    return m.nrows * m.ncols


# metric stem -> (module, dotted attribute names, optional size of a call)
SPANS = {
    "poly.substitute": ("poly", ("WeightedPoly.substitute",), None),
    "poly.matmul": ("poly", ("PolyMatrix.__matmul__",), None),
    "poly.minors": ("poly", ("PolyMatrix.minor",), None),
    "algebras.module_init": ("algebras", ("FDModule.__init__",), None),
    "algebras.direct_sum_power": ("algebras", ("FDModule.direct_sum_power",), None),
    "algebras.quotient": ("algebras", ("FDModule.quotient_module",), None),
    "algebras.subspace_init": ("algebras", ("Subspace.__init__",), None),
    "linalg.matmul": ("linalg", ("Matrix.__matmul__",), _mults),
    "linalg.rref": ("linalg", ("Matrix.rref",), _cells),
    "linalg.matrix_init": ("linalg", ("Matrix.__init__",), None),
    "complexes.induced_map": ("complexes", ("induced_map",), None),
    "complexes.module_map_init": ("complexes", ("ModuleMap.__init__",), None),
    "complexes.chain_complex_init": ("complexes", ("ChainComplex.__init__",), None),
    "complexes.homology": ("complexes", ("ChainComplex.homology",), None),
    "complexes.substitute_matrix": ("complexes", ("substitute_matrix",), None),
    "complexes.tor": ("complexes", ("tor_from_resolution",), None),
    "rigidity.report": ("rigidity", ("full_report",), None),
    "rigidity.generic": ("rigidity", ("build_generic_data",), None),
    "rigidity.specialization": ("rigidity", ("build_specialization",), None),
    "rigidity.homomorphism": ("rigidity", ("check_homomorphism",), None),
    "rigidity.tor_checks": ("rigidity", ("run_tor_checks",), None),
    "rigidity.other_checks": (
        "rigidity",
        (
            "check_counts",
            "check_grading",
            "check_psquare",
            "check_specialization_matrices",
            "check_module_lengths",
            "check_pd_witness",
            "betti_readout",
        ),
        None,
    ),
    "cli.parse": (
        "cli",
        ("load_json", "parse_module_doc", "parse_resolution_doc", "parse_complex_doc"),
        None,
    ),
    "cli.render": ("cli", ("render_json", "render_report_text", "write_output"), None),
}

# metric stem -> metric names reported for it (besides "<stem>_s")
CALL_COUNTS = ("poly.substitute", "poly.matmul", "linalg.matmul", "linalg.rref")
SIZE_SUMS = {"linalg.matmul": "linalg.matmul_mults", "linalg.rref": "linalg.rref_cells"}
SIZE_MAXES = {"linalg.rref": "linalg.rref_max_cells"}
INIT_COUNTS = {
    "algebras.module_init": "algebras.module_inits",
    "linalg.matrix_init": "linalg.matrix_inits",
}
ELEMENT_COUNT = "algebras.element_inits"


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = {"%s_s" % stem: "s" for stem in SPANS}
    names.update({"%s_calls" % stem: "count" for stem in CALL_COUNTS})
    names.update({name: "count" for name in SIZE_SUMS.values()})
    names.update({name: "count" for name in SIZE_MAXES.values()})
    names.update({name: "count" for name in INIT_COUNTS.values()})
    names[ELEMENT_COUNT] = "count"
    names["trace.op_s"] = "s"
    names["trace.unattributed_s"] = "s"
    names["trace.overhead_ratio"] = "ratio"  # traced over untraced op_s, from run.py
    return dict(sorted(names.items()))


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.element_inits = 0

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            amount = size(*args) if size is not None else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, amount)
                stack.pop()

        return wrapper

    def install(self, package):
        """Wrap every function in SPANS at each binding site in ``package``'s
        submodules, and count ``AlgebraElement`` constructions."""
        prefix = package.__name__
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == prefix or key.startswith(prefix + "."))
        ]
        for stem, (module_name, attrs, size) in SPANS.items():
            home = sys.modules["%s.%s" % (package.__name__, module_name)]
            for dotted in attrs:
                if "." in dotted:
                    cls_name, meth = dotted.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self._wrap(stem, cls.__dict__[meth], size))
                    continue
                original = getattr(home, dotted)
                wrapped = self._wrap(stem, original, size)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        element_cls = sys.modules[package.__name__ + ".algebras"].AlgebraElement
        element_init = element_cls.__init__

        def counted_init(obj, *args, **kwargs):
            self.element_inits += 1
            element_init(obj, *args, **kwargs)

        element_cls.__init__ = counted_init

    def layer_metrics(self, op_s):
        """Counts and self times per metric for one op of wall time ``op_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: 0 for name in metric_names() if name != "trace.overhead_ratio"}
        calls = dict.fromkeys(SPANS, 0)
        self_total = 0.0
        for (stem, start, end, parent, amount), children in zip(self.spans, child_time):
            own = (end - start) - children
            out[stem + "_s"] += own
            self_total += own
            calls[stem] += 1
            if stem in SIZE_SUMS:
                out[SIZE_SUMS[stem]] += amount
            if stem in SIZE_MAXES:
                out[SIZE_MAXES[stem]] = max(out[SIZE_MAXES[stem]], amount)
        for stem in CALL_COUNTS:
            out[stem + "_calls"] = calls[stem]
        for stem, name in INIT_COUNTS.items():
            out[name] = calls[stem]
        out[ELEMENT_COUNT] = self.element_inits
        out["trace.op_s"] = op_s
        out["trace.unattributed_s"] = op_s - self_total
        return out
