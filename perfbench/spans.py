"""Span recording around the public functions of each vcew layer.

``Tracer.install`` replaces every reference to a layer function in the
namespaces of the ``vcew`` modules (the workloads call vcew through
those modules) with a wrapper that records one span per call:
layer, start, end, parent span and the instance being run.  A span's
self time is its duration minus the time covered by its child spans.
``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer name -> (module, public functions); calls to any listed
# function are attributed to the layer
LAYERS = (
    ("families.enumerate_connected", "vcew.families", ("enumerate_connected",)),
    ("families.make", "vcew.families", ("make",)),
    ("graph.vertex_connectivity", "vcew.graph", ("vertex_connectivity",)),
    ("graph.cartesian_product", "vcew.graph", ("cartesian_product",)),
    ("graph.maximal_simple_paths", "vcew.graph", ("maximal_simple_paths",)),
    ("graph.bipartition", "vcew.graph", ("bipartition",)),
    ("oracle.mu_exact", "vcew.oracle", ("mu_exact",)),
    ("oracle.has_weighting", "vcew.oracle", ("has_weighting",)),
    ("oracle.find_weighting", "vcew.oracle", ("find_weighting",)),
    ("classifiers.mu_upper_bound", "vcew.classifiers", ("mu_upper_bound",)),
    (
        "constructors",
        "vcew.constructors",
        (
            "product_weighting",
            "bipartite_product_k2",
            "msp_pattern_weighting",
            "cycle_block_weighting",
            "multipartite_weighting",
            "dominant_vertex_weighting",
        ),
    ),
    ("weighting.is_proper", "vcew.weighting", ("is_proper",)),
    ("weighting.admits_vc1", "vcew.weighting", ("admits_vc1",)),
    ("formats.parse_edge_list", "vcew.formats", ("parse_edge_list",)),
    ("formats.format_weighting", "vcew.formats", ("format_weighting",)),
    ("cli.main", "vcew.cli", ("main",)),
)
TAIL_LAYERS = ("graph.vertex_connectivity", "oracle.mu_exact")


def percentile(values, q):
    """Nearest-rank ``q`` quantile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Tracer:
    """Collects spans as ``(layer, start, end, parent, instance, self_s)``."""

    def __init__(self):
        self.spans = []
        self.instance = -1
        self.mark = 0  # index of the first span of the latest traced round
        self._stack = []  # [span index, time covered by children]
        self._patched = []

    def _wrap(self, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[frame[0]] = (
                    layer, start, end, parent, self.instance, end - start - frame[1]
                )

        return traced

    def install(self):
        self.mark = len(self.spans)
        wrappers = {}
        for layer, module, names in LAYERS:
            mod = importlib.import_module(module)
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        modules = [
            m for name, m in sys.modules.items()
            if name == "vcew" or name.startswith("vcew.")
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched.clear()

    def layer_metrics(self, rounds: int):
        """Per-layer self seconds and calls per traced round, and p99 call
        latency in ms for the tail layers."""
        self_s = {layer: 0.0 for layer, _, _ in LAYERS}
        calls = dict.fromkeys(self_s, 0)
        durations = {layer: [] for layer in TAIL_LAYERS}
        for layer, start, end, _, _, own in self.spans:
            self_s[layer] += own
            calls[layer] += 1
            if layer in durations:
                durations[layer].append(end - start)
        metrics = {}
        for layer in self_s:
            per_round = calls[layer] / rounds
            metrics[f"{layer}.self_s"] = (self_s[layer] / rounds, "s")
            metrics[f"{layer}.calls"] = (
                int(per_round) if per_round.is_integer() else per_round, "count"
            )
            if layer in durations:
                metrics[f"{layer}.p99_ms"] = (percentile(durations[layer], 0.99) * 1e3, "ms")
        return metrics
