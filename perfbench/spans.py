"""Spans around the benchmark's calls into the library, and their summary.

With tracing off the workloads call the library functions directly, so
end-to-end runs carry no tracing cost at all.  With tracing on, every
public function the workloads call is wrapped: one span per call with
name, start, end and parent.  Spans stay in memory and are returned by
the worker when the run ends.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace


def library_calls() -> dict:
    """Public library entry points the workloads use, by span name.

    The span name is ``<module>.<function>``; the module is the layer.
    """
    from solvgraph import analysis, graphs, minimality, model, realizability, synthesis

    return {
        "graphs.enumerate_graphs": graphs.enumerate_graphs,
        "graphs.canonical_form": graphs.canonical_form,
        "minimality.enumerate_minimal": minimality.enumerate_minimal,
        "minimality.check_minimal_lemmas": minimality.check_minimal_lemmas,
        "minimality.canonical_orientation": minimality.canonical_orientation,
        "realizability.is_solvable_prime_graph": realizability.is_solvable_prime_graph,
        "realizability.validate_frobenius_orientation": realizability.validate_frobenius_orientation,
        "analysis.analyze": analysis.analyze,
        "analysis.sigma_partition_bound": analysis.sigma_partition_bound,
        "synthesis.synthesize": synthesis.synthesize,
        "synthesis.plan_to_json_dict": synthesis.plan_to_json_dict,
        "model.round_trip_report": model.round_trip_report,
        "model.GroupModel": model.GroupModel,
        "model.order": model.GroupModel.order,
        "model.iterative_order": model.GroupModel.iterative_order,
        "model.compute_prime_graph": model.GroupModel.compute_prime_graph,
        "model.brute_force_prime_graph": model.GroupModel.brute_force_prime_graph,
        "model.sigma_of_model": model.GroupModel.sigma_of_model,
    }


class Tracer:
    """Spans in memory as [name, start, end, parent index or -1] on the
    clock ``now``, plus the time spent in the wrappers themselves."""

    def __init__(self, now):
        self.now = now
        self.spans: list = []
        self._stack = [-1]
        self.overhead_s = 0.0

    def wrap(self, name: str, fn):
        spans, stack, now = self.spans, self._stack, self.now

        def traced(*args, **kwargs):
            entered = now()
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1]])
            stack.append(index)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                record = spans[index]
                record[1] = start
                record[2] = end
                self.overhead_s += (start - entered) + (now() - end)

        return traced

    @contextmanager
    def span(self, name: str):
        now = self.now
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1]])
        self._stack.append(index)
        start = now()
        try:
            yield
        finally:
            end = now()
            self._stack.pop()
            self.spans[index][1] = start
            self.spans[index][2] = end


def bind(tracer: Tracer | None):
    """Namespace of library calls by function name, traced when a tracer
    is given, plus ``span(name)`` for the benchmark's own phases and
    ``traced``."""
    calls = library_calls()
    if tracer is None:
        api = SimpleNamespace(**{k.split(".", 1)[1]: fn for k, fn in calls.items()})
        api.span = lambda name: nullcontext()
    else:
        api = SimpleNamespace(**{k.split(".", 1)[1]: tracer.wrap(k, fn) for k, fn in calls.items()})
        api.span = tracer.span
    api.traced = tracer is not None
    return api


# -- statistics over spans and samples ---------------------------------------------


def median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples above it."""
    values = sorted(values)
    if not values:
        return 0.0, 0
    rank = max(1, math.ceil(q / 100 * len(values)))
    return values[rank - 1], len(values) - rank


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans) -> dict:
    """Per span name: total self time and every duration; per layer (the
    name's first component): total self time."""
    own = self_times(spans)
    by_name: dict = {}
    by_layer: dict = {}
    for (name, start, end, parent), self_s in zip(spans, own):
        entry = by_name.setdefault(name, {"self_s": 0.0, "durations": []})
        entry["self_s"] += self_s
        entry["durations"].append(end - start)
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s
    return {"by_name": by_name, "by_layer": by_layer}


def child_durations(spans, child: str, parent_prefix: str) -> dict:
    """Durations of spans named ``child``, grouped by their parent span's
    name with ``parent_prefix`` stripped."""
    groups: dict = {}
    for name, start, end, parent in spans:
        if name != child or parent < 0:
            continue
        parent_name = spans[parent][0]
        if parent_name.startswith(parent_prefix):
            groups.setdefault(parent_name[len(parent_prefix) :], []).append(end - start)
    return groups
