"""Self-tests of the end-to-end benchmark: it sees what it claims to see.

Each test replays whole scenarios, so the module takes a few minutes;
run it from the repository root with ``python3 -m pytest e2ebench``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from repro.routing.planner import RoutePlanner
from repro.simulation.fleet import WorkerFleet

from e2ebench.measure import run_traced, run_untraced
from e2ebench.replay import _timed, check_output, replay, set_up
from e2ebench.tracing import LAYERS, Tracer, instrumented
from e2ebench.workloads import WORKLOADS, BenchWorkload

SEED = 7

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
BOUNDS = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"] for metric in BENCHMARK["per_layer"]}


@contextmanager
def slowed(owner: type, name: str, factor: float = 2.0):
    """Make every call of ``owner.name`` take ``factor`` times as long."""
    original = owner.__dict__[name]

    def slow(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            until = started + factor * (time.perf_counter() - started)
            while time.perf_counter() < until:
                pass

    setattr(owner, name, slow)
    try:
        yield
    finally:
        setattr(owner, name, original)


def seconds_for(bench: BenchWorkload, draws: int) -> float:
    """A run length in which an untraced run of ``bench`` times ``draws`` draws."""
    seconds = (draws + 1.5) * bench.draw_s
    assert bench.draws(seconds) == draws
    return seconds


def throughput(workload: str) -> float:
    bench = WORKLOADS[workload]
    outcome = run_untraced(bench, SEED, seconds_for(bench, 2))
    assert outcome.correct, outcome.problems
    assert set(outcome.metrics) == set(BOUNDS)
    return outcome.metrics["orders_per_s"][0]


def slowdown(workload: str, owner: type, name: str) -> float:
    """Relative drop of ``orders_per_s`` when ``owner.name`` runs 2x slower.

    The plain throughput is the mean of one run before and one after
    the slowed run, so that drift of the machine's speed cancels.
    """
    before = throughput(workload)
    with slowed(owner, name):
        slow = throughput(workload)
    after = throughput(workload)
    return 1.0 - 2.0 * slow / (before + after)


def test_workloads_match_benchmark_json():
    gated = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert gated == [name for name in WORKLOADS if name != "gdp-cdc"]


def test_planner_slowdown_moves_watter_and_not_gdp():
    bound = BOUNDS["orders_per_s"]
    assert slowdown("watter-expect-nyc", RoutePlanner, "plan") > bound
    assert abs(slowdown("gdp-cdc", RoutePlanner, "plan")) < bound


def test_fleet_slowdown_moves_nonsharing_most():
    drops = {
        name: slowdown(name, WorkerFleet, "find_worker_for") for name in WORKLOADS
    }
    assert max(drops, key=drops.get) == "nonsharing-xia-ch", drops


def test_dropping_a_served_record_fails_the_output_check():
    small = replace(WORKLOADS["nonsharing-xia-ch"], num_orders=80, num_workers=10)
    prepared = set_up(small, SEED)
    run = replay(prepared)
    assert check_output(run, prepared) == []
    served = next(i for i, outcome in enumerate(run.outcomes) if outcome.served)
    del run.outcomes[served]
    assert check_output(run, prepared)


@pytest.mark.parametrize(
    "workload, nulls",
    [
        (
            "gdp-cdc",
            (
                "planner.plans",
                "shareability.inserts",
                "pool.checks",
                "threshold.calls",
                "fleet.searches",
            ),
        ),
        ("nonsharing-xia-ch", ("threshold.calls",)),
    ],
)
def test_traced_split_reports_every_layer(workload, nulls):
    bench = WORKLOADS[workload]
    outcome = run_traced(bench, SEED, seconds_for(bench, 1))
    assert outcome.correct, outcome.problems
    metrics = {name: value for name, (value, _) in outcome.metrics.items()}
    assert set(metrics) == PER_LAYER
    for name in nulls:
        assert metrics[name] == 0, name
    shares = [metrics[f"{layer}.self_share"] for layer in (*LAYERS, "engine")]
    assert min(shares) >= 0
    assert metrics["trace.replay_s"] > 0
    assert metrics["trace.overhead"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_spans_cover_the_dispatcher_calls(workload):
    """The layer self times add up to the dispatcher calls, timed apart.

    Every span runs inside a ``submit``, ``tick`` or ``flush``, which
    the replay and this test time around the spans; only the engine's
    own work lies outside all three.
    """
    prepared = set_up(WORKLOADS[workload], SEED)
    tracer = Tracer()
    flushes: list[float] = []

    def instrument(dispatcher):
        tracer.instrument_dispatcher(dispatcher)
        dispatcher.flush = _timed(dispatcher.flush, flushes)

    with instrumented(tracer):
        run = replay(prepared, instrument=instrument)
    calls_s = sum(run.arrival_s) + sum(run.check_s) + sum(flushes)
    layers_s = sum(tracer.self_s[layer] for layer in LAYERS)
    assert layers_s <= calls_s < run.wall_s
    assert layers_s == pytest.approx(calls_s, rel=0.01)
