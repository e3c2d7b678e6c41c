"""Per-layer tracing from outside the package.

The tracer replaces the package's entry points with wrappers for the length
of a traced pass and restores them afterwards; no file of the package
changes.  A wrapper is installed wherever a module of the package binds the
original function, so ``cover.trace_family`` is traced when ``cover`` calls
it and ``rref`` when either ``vanishing`` or ``linalg`` does.  A wrap point
that no longer exists is reported and skipped; its time then shows in the
root span, ``cli.self_s``.

Each call records a span (layer, start, end, parent).  A layer's self time
is its spans' durations minus the parts their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

ROOT = "cli"

# (layer, module, qualified name) of every wrapped entry point
WRAP_POINTS = (
    ("cover.flats", "almostcover.cover", "trace_family"),
    ("cover.hyperplanes", "almostcover.cover", "hyperplane_trace_family"),
    ("cover.search", "almostcover.cover", "min_almost_cover"),
    ("cover.witness", "almostcover.cover", "realize_trace"),
    ("cover.verify", "almostcover.cover", "verify_cover"),
    ("cover.orbit", "almostcover.cover", "orbit_reduce"),
    ("cover.all", "almostcover.cover", "ac_numbers"),
    ("vanishing.bm", "almostcover.vanishing", "buchberger_moller"),
    ("vanishing.cert", "almostcover.vanishing", "GroebnerData.separating_degree"),
    ("linalg.rref", "almostcover.linalg", "rref"),
    ("bounds.certificate", "almostcover.bounds", "certificate_lower_bound"),
    ("pointfile.load", "almostcover.pointfile", "load_pointset"),
    ("families.generate", "almostcover.families", "generate"),
)

# per-layer metric: (unit, better, the end-to-end metric it should move)
LAYER_METRICS = {
    "cover.flats_s": ("s", "lower", "wall_s on families_all; op_p50_s on random_bnb; nothing on groebner_bound"),
    "cover.flats_calls": ("count", "lower", "as cover.flats_s"),
    "cover.flats_calls_per_set": ("calls/set", "lower", "as cover.flats_s"),
    "cover.maximal_traces": ("count", "lower", "as cover.flats_s"),
    "cover.search_s": ("s", "lower", "op_p50_s and op_tail_s on random_bnb; nothing on families_all"),
    "cover.bnb_nodes": ("count", "lower", "as cover.search_s"),
    "cover.bnb_solves": ("count", "lower", "as cover.search_s"),
    "cover.nodes_per_s": ("1/s", "higher", "as cover.search_s"),
    "cover.floor_met_share": ("ratio", "higher", "as cover.search_s"),
    "cover.hyperplanes_s": ("s", "lower", "wall_s on gf_crosscheck only"),
    "cover.hyperplanes_calls": ("count", "lower", "wall_s on gf_crosscheck only"),
    "cover.witness_s": ("s", "lower", "nothing (small everywhere)"),
    "cover.verify_s": ("s", "lower", "nothing (small everywhere)"),
    "cover.orbit_s": ("s", "lower", "nothing (small everywhere)"),
    "cover.all_self_s": ("s", "lower", "nothing (small everywhere)"),
    "vanishing.bm_s": ("s", "lower", "wall_s on groebner_bound and gf_crosscheck; a little on families_all"),
    "vanishing.bm_calls": ("count", "lower", "as vanishing.bm_s"),
    "vanishing.bm_calls_per_set": ("calls/set", "lower", "as vanishing.bm_s"),
    "vanishing.cert_s": ("s", "lower", "wall_s on groebner_bound and gf_crosscheck; op_p50_s on random_bnb"),
    "vanishing.cert_calls": ("count", "lower", "as vanishing.cert_s"),
    "linalg.rref_s": ("s", "lower", "as vanishing.cert_s"),
    "linalg.rref_calls": ("count", "lower", "as vanishing.cert_s"),
    "linalg.rref_cells": ("count", "lower", "as vanishing.cert_s (computed rows x columns)"),
    "bounds.certificate_s": ("s", "lower", "wall_s on groebner_bound"),
    "pointfile.load_s": ("s", "lower", "op_p50_s on random_bnb only"),
    "families.generate_s": ("s", "lower", "inside every --family operation"),
    "cli.self_s": ("s", "lower", "time in cli.main outside every layer span"),
    "trace.overhead_frac": ("ratio", "lower", "traced wall_s over untraced wall_s, minus one"),
}


def _point_set_key(V):
    return repr(V.field), V.points


class Tracer:
    """Spans and counters of the traced passes of one run."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index]
        self._open = []
        self.counts = Counter()
        self.sets = {"cover.flats": set(), "vanishing.bm": set()}
        self.missing = []
        self.pass_index = 0
        self._restore = []

    def _wrap(self, layer, original):
        spans, stack = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            self._count(layer, args, result)
            return result

        return traced

    def _count(self, layer, args, result):
        counts = self.counts
        if layer in self.sets and args:
            self.sets[layer].add((self.pass_index, _point_set_key(args[0])))
        if layer == "cover.flats":
            counts["maximal_traces"] += len(result.traces)
        elif layer == "cover.search":
            counts["solves"] += 1
            counts["bnb_nodes"] += result.node_count
            counts["bnb_solves"] += result.node_count > 0
            counts["floor_met"] += result.size == result.lower_bound_used
        elif layer == "linalg.rref" and args and isinstance(args[0], (list, tuple)):
            matrix = args[0]
            counts["rref_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)

    def install(self):
        """Wrap every entry point that still exists; list the ones that do not."""
        self.missing = []
        for layer, module_name, qualname in WRAP_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *path, name = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(layer, original)
            if path:
                self._patch(owner, name, original, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "almostcover" or mod_name.startswith("almostcover."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def root(self, func, *args):
        """Run the operation inside the root span."""
        return self._wrap(ROOT, func)(*args)

    def self_times(self) -> Counter:
        """Self time per layer over every recorded span."""
        self_time = Counter()
        for layer, start, end, parent in self.spans:
            duration = end - start
            self_time[layer] += duration
            if parent is not None:
                self_time[self.spans[parent][0]] -= duration
        return self_time

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def metrics(self, passes: int, traced_wall: float, untraced_wall: float) -> dict:
        """Every per-layer metric, times and counts given per pass."""
        t, calls, c = self.self_times(), self.calls(), self.counts
        search_s = t["cover.search"]
        values = {
            "cover.flats_s": t["cover.flats"],
            "cover.flats_calls": calls["cover.flats"],
            "cover.maximal_traces": c["maximal_traces"],
            "cover.search_s": search_s,
            "cover.bnb_nodes": c["bnb_nodes"],
            "cover.bnb_solves": c["bnb_solves"],
            "cover.hyperplanes_s": t["cover.hyperplanes"],
            "cover.hyperplanes_calls": calls["cover.hyperplanes"],
            "cover.witness_s": t["cover.witness"],
            "cover.verify_s": t["cover.verify"],
            "cover.orbit_s": t["cover.orbit"],
            "cover.all_self_s": t["cover.all"],
            "vanishing.bm_s": t["vanishing.bm"],
            "vanishing.bm_calls": calls["vanishing.bm"],
            "vanishing.cert_s": t["vanishing.cert"],
            "vanishing.cert_calls": calls["vanishing.cert"],
            "linalg.rref_s": t["linalg.rref"],
            "linalg.rref_calls": calls["linalg.rref"],
            "linalg.rref_cells": c["rref_cells"],
            "bounds.certificate_s": t["bounds.certificate"],
            "pointfile.load_s": t["pointfile.load"],
            "families.generate_s": t["families.generate"],
            "cli.self_s": t[ROOT],
        }
        values = {name: value / passes for name, value in values.items()}
        values["cover.flats_calls_per_set"] = _ratio(calls["cover.flats"], len(self.sets["cover.flats"]))
        values["vanishing.bm_calls_per_set"] = _ratio(calls["vanishing.bm"], len(self.sets["vanishing.bm"]))
        values["cover.nodes_per_s"] = _ratio(c["bnb_nodes"], search_s)
        values["cover.floor_met_share"] = _ratio(c["floor_met"], c["solves"])
        values["trace.overhead_frac"] = traced_wall / untraced_wall - 1
        return {name: values[name] for name in LAYER_METRICS}


def _ratio(num, den):
    return num / den if den else 0.0
