"""Per-layer spans and counters for the traced replay.

The benchmark wraps the public entry point of each layer from outside
(no line under ``src/`` knows about it) for the duration of
:func:`instrumented`, and restores the originals afterwards.  Every
wrapped call is a span: spans nest on one stack, and a span's *self*
time is its duration minus the time its nested spans cover.  Spans are
aggregated per layer in memory (self seconds plus counters) and read
out when the run ends.

Set-up never runs inside :func:`instrumented`, so set-up work (the
WATTER-expect bootstrap replays a whole training scenario) cannot land
in the replay's split.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.core.pool import OrderPool
from repro.core.shareability import TemporalShareabilityGraph
from repro.core.threshold import ThresholdOptimizer
from repro.network.graph import RoadNetwork
from repro.routing.planner import RoutePlanner
from repro.simulation.dispatcher import Dispatcher
from repro.simulation.fleet import WorkerFleet

#: Layers with a span, in report order; ``engine`` is what no span covers.
LAYERS = (
    "oracle",
    "planner",
    "shareability",
    "pool",
    "threshold",
    "fleet",
    "dispatcher",
)


class Tracer:
    """Self time and counters per layer, accumulated over traced replays."""

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        #: Time inside outermost spans: the replay time some layer owns.
        self.covered_s = 0.0
        #: Child time of each open span, innermost last.
        self._open: list[float] = []

    def span(
        self,
        layer: str,
        method: Callable,
        counter: str | None = None,
        observe: Callable[[object], None] | None = None,
    ) -> Callable:
        """``method`` wrapped in a span of ``layer``.

        ``counter`` is incremented on every call; ``observe`` sees the
        result of every call that returns normally.
        """
        open_spans = self._open
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            open_spans.append(0.0)
            started = clock()
            try:
                result = method(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self_s[layer] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                else:
                    self.covered_s += elapsed
            if observe is not None:
                observe(result)
            return result

        return traced

    def instrument_dispatcher(self, dispatcher: Dispatcher) -> None:
        """Span one dispatcher's ``submit``/``tick``/``flush`` calls.

        After each periodic check the shareability graph's edge count
        is sampled (WATTER dispatchers only), outside every span.
        """
        for name in ("submit", "flush"):
            setattr(
                dispatcher, name, self.span("dispatcher", getattr(dispatcher, name))
            )
        tick = self.span("dispatcher", dispatcher.tick)
        pool = getattr(dispatcher, "pool", None)
        if pool is None:
            dispatcher.tick = tick  # type: ignore[method-assign]
            return
        counts = self.counts
        graph = pool.graph

        def sampled_tick(now):
            result = tick(now)
            counts["shareability.edge_samples"] += 1
            counts["shareability.edges_sampled"] += graph.number_of_edges()
            return result

        dispatcher.tick = sampled_tick  # type: ignore[method-assign]


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every layer's public entry point with ``tracer``'s spans."""
    counts = tracer.counts

    def travel_times_many(network, sources, targets):
        sources = list(dict.fromkeys(sources))
        targets = list(dict.fromkeys(targets))
        counts["oracle.batch_pairs"] += len(sources) * len(targets)
        return batch(network, sources, targets)

    def planned(route) -> None:
        counts["planner.feasible"] += 1  # plan raises when infeasible

    def expired(edges) -> None:
        counts["shareability.edges_expired"] += len(edges)

    def found(worker) -> None:
        if worker is not None:
            counts["fleet.found"] += 1

    batch = RoadNetwork.__dict__["travel_times_many"]
    graph = TemporalShareabilityGraph
    # (owner, method, layer, call counter, result observer, replacement)
    patches = [
        (RoadNetwork, "travel_time", "oracle", "oracle.scalar_calls", None, None),
        (
            RoadNetwork,
            "travel_times_many",
            "oracle",
            "oracle.batch_calls",
            None,
            travel_times_many,
        ),
        (RoutePlanner, "plan", "planner", "planner.plans", planned, None),
        (graph, "insert_order", "shareability", "shareability.inserts", None, None),
        (graph, "remove_order", "shareability", None, None, None),
        (graph, "expire_edges", "shareability", None, expired, None),
        (OrderPool, "check", "pool", "pool.checks", None, None),
        (ThresholdOptimizer, "threshold", "threshold", "threshold.calls", None, None),
        (WorkerFleet, "find_worker_for", "fleet", "fleet.searches", found, None),
    ]
    originals = []
    try:
        for owner, name, layer, counter, observe, replacement in patches:
            original = owner.__dict__[name]
            originals.append((owner, name, original))
            method = replacement or original
            setattr(owner, name, tracer.span(layer, method, counter, observe))
        yield tracer
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
