"""Spans around the public functions of polysing, installed from outside it.

Each listed function is wrapped where it is defined and in every polysing
module that bound it with `from .x import f`; lazy imports inside functions
read the defining module, so they see the wrapper too. A span records its
name, start, end, parent span and item index; spans stay in memory and are
written when the measuring process ends. The scalar helpers (`dot`,
`vec_*`, `primitive`, `scale_to_int`, `mu`) stay unwrapped: the wrapper
would cost more than the call.
"""
from __future__ import annotations

import sys
import time
from array import array

LAYERS = {
    "cli": ("load_document", "analyze", "canonical_dumps"),
    "ufdgen": ("construct_divisor", "presentation", "hilbert_compare", "classify_isolated_factorial"),
    "singcheck": (
        "check_smooth",
        "check_isolated",
        "check_rational",
        "check_cm",
        "check_log_terminal",
        "discrepancies",
        "classify_canonical",
        "check_elliptic",
    ),
    "divclass": ("class_group", "factoriality_det", "gorenstein_solve", "generator_degrees"),
    "pdiv": (
        "polyhedral_divisor",
        "is_proper",
        "deg_polyhedron",
        "quasifan",
        "extremal_data",
        "evaluate",
        "higher_direct_dims",
    ),
    "polyhedra": (
        "sigma_polyhedron",
        "minkowski_sum",
        "normal_quasifan",
        "halfspaces",
        "minimal_generators",
        "dual_cone",
        "is_regular",
        "cayley_cone",
        "support_value",
        "cone_contains",
        "polytope_vertices",
        "lattice_points",
    ),
    "ratlin": (
        "smith_normal_form",
        "determinant",
        "solve_exact",
        "matrix_rank",
        "saturated_basis",
        "invert_unimodular",
    ),
}

# `lattice_points` is a generator: each resumption is a span of its own, so
# that the consumer's work between two points is not charged to it; only the
# first span of an iteration counts as a call
GENERATORS = {"polyhedra.lattice_points"}
RESUME = ".resume"

SPAN_ARRAYS = (("start", "q"), ("end", "q"), ("parent", "q"), ("name", "l"), ("item", "l"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = {field: array(code) for field, code in SPAN_ARRAYS}
        self.stack: list[int] = []
        self.item = -1
        self.counters = {
            "sigma_candidates": 0,
            "sigma_kept": 0,
            "quasifan_cells": 0,
            "rational_inconclusive": 0,
        }

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, idx: int) -> int:
        sp = self.spans
        sid = len(sp["start"])
        sp["parent"].append(self.stack[-1] if self.stack else -1)
        sp["name"].append(idx)
        sp["item"].append(self.item)
        sp["end"].append(0)
        self.stack.append(sid)
        sp["start"].append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.spans["end"][sid] = time.perf_counter_ns()
        self.stack.pop()

    def abandon(self, now: int) -> None:
        """Close every span left open by an item that hit the cap; the timer
        may have fired between two appends of `_open`, so trim to whole spans."""
        whole = min(len(a) for a in self.spans.values())
        for a in self.spans.values():
            del a[whole:]
        for sid in self.stack:
            if sid < whole and self.spans["end"][sid] == 0:
                self.spans["end"][sid] = now
        self.stack.clear()

    def _wrap(self, qualname: str, fn):
        if qualname in GENERATORS:
            return self._wrap_generator(qualname, fn)
        idx = self._name(qualname)

        def traced(*args, **kwargs):
            sid = self._open(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        if qualname == "polyhedra.sigma_polyhedron":

            def sigma_polyhedron(vertices, tail):
                candidates = list(vertices)
                result = traced(candidates, tail)
                self.counters["sigma_candidates"] += len(candidates)
                self.counters["sigma_kept"] += len(result.vertices)
                return result

            return sigma_polyhedron
        observe = {
            "pdiv.quasifan": self._observe_quasifan,
            "singcheck.check_rational": self._observe_rational,
        }.get(qualname)
        if observe is None:
            return traced

        def observed(*args, **kwargs):
            result = traced(*args, **kwargs)
            observe(result)
            return result

        return observed

    def _wrap_generator(self, qualname: str, fn):
        first_idx = self._name(qualname)
        resume_idx = self._name(qualname + RESUME)

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            idx = first_idx
            while True:
                sid = self._open(idx)
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(sid)
                idx = resume_idx
                yield value

        return traced

    def _observe_quasifan(self, result) -> None:
        self.counters["quasifan_cells"] += len(result.maximal_cells)

    def _observe_rational(self, result) -> None:
        self.counters["rational_inconclusive"] += result.status == "inconclusive"

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "polysing" or n.startswith("polysing.")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"polysing.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    bound = [a for a, v in vars(module).items() if v is original]
                    for attr in bound:
                        setattr(module, attr, wrapper)

    def write(self, path: str) -> int:
        """Write the spans, one array after another; returns the span count."""
        with open(path, "wb") as f:
            for field, _ in SPAN_ARRAYS:
                self.spans[field].tofile(f)
        return len(self.spans["start"])


def read_spans(path: str, count: int) -> dict[str, array]:
    spans = {}
    with open(path, "rb") as f:
        for field, code in SPAN_ARRAYS:
            spans[field] = array(code)
            spans[field].fromfile(f, count)
    return spans


def layer_totals(names: list[str], spans: dict[str, array]) -> dict[str, list]:
    """Calls and self time in ns per traced function; a span's self time is
    its duration minus the durations of its child spans, which nest inside it."""
    start, end, parent, name = spans["start"], spans["end"], spans["parent"], spans["name"]
    child_ns = [0] * len(start)
    for sid in range(len(start)):
        p = parent[sid]
        if p >= 0:
            child_ns[p] += end[sid] - start[sid]
    totals: dict[str, list] = {}
    for sid in range(len(start)):
        qual = names[name[sid]]
        is_call = not qual.endswith(RESUME)
        if not is_call:
            qual = qual[: -len(RESUME)]
        entry = totals.setdefault(qual, [0, 0])
        entry[0] += is_call
        entry[1] += end[sid] - start[sid] - child_ns[sid]
    return totals
