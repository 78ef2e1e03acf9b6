"""Set up and replay one benchmark scenario through the public API.

Set-up and replay are timed apart: :func:`set_up` stands a fresh
:class:`~repro.api.Session` up (workload generation, oracle attach,
the WATTER-expect provider bootstrap), and :func:`replay` runs a fresh
dispatcher from :func:`~repro.experiments.runner.make_dispatcher`
through :class:`~repro.simulation.engine.Simulator`, timing every
``Dispatcher.submit`` (an order arrival) and every ``Dispatcher.tick``
(a periodic check).  :func:`check_output` is the per-replay output
check the benchmark counts failures with.
"""

from __future__ import annotations

import math
import os
import platform
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.api import Session
from repro.config import SimulationConfig
from repro.datasets.synthetic import Workload
from repro.experiments.runner import make_dispatcher
from repro.model.order import OrderOutcome
from repro.resilience.degradation import DegradationLog
from repro.simulation.dispatcher import Dispatcher
from repro.simulation.engine import Simulator
from repro.simulation.metrics import SimulationMetrics

from .workloads import BenchWorkload

#: Set-up phases, in the order they run; their sum is ``setup_s``.
SETUP_PHASES = ("workload_s", "oracle_s", "provider_s")


@dataclass
class Prepared:
    """A freshly set-up scenario, ready for exactly one replay."""

    bench: BenchWorkload
    seed: int
    config: SimulationConfig
    workload: Workload
    provider: object | None
    degradations: DegradationLog
    graph_hash: str
    setup_phases: dict[str, float]

    @property
    def setup_s(self) -> float:
        return sum(self.setup_phases.values())


@dataclass
class Replay:
    """What one replay produced: timings, metrics and per-order outcomes."""

    wall_s: float
    arrival_s: list[float]
    check_s: list[float]
    metrics: SimulationMetrics
    outcomes: list[OrderOutcome]
    degradations: list[dict[str, str]]
    dispatcher: Dispatcher

    def quality(self) -> tuple[float, float, float]:
        """The paper's deterministic quality metrics of this replay."""
        return (
            self.metrics.average_extra_time,
            self.metrics.unified_cost,
            self.metrics.service_rate,
        )


@dataclass(frozen=True)
class Timing:
    """What a run keeps of one replay once its scenario is dropped.

    Runs keep only these, so that memory does not grow with the number
    of draws and ``peak_rss_mb`` measures one scenario.
    """

    seed: int
    graph_hash: str
    setup_s: float
    wall_s: float
    arrival_s: list[float]
    check_s: list[float]
    metrics: SimulationMetrics

    @classmethod
    def of(cls, prepared: Prepared, run: Replay) -> "Timing":
        return cls(
            seed=prepared.seed,
            graph_hash=prepared.graph_hash,
            setup_s=prepared.setup_s,
            wall_s=run.wall_s,
            arrival_s=run.arrival_s,
            check_s=run.check_s,
            metrics=run.metrics,
        )


def set_up(bench: BenchWorkload, seed: int) -> Prepared:
    """Stand the scenario up in a fresh session, timing each phase."""
    spec = bench.spec(seed)
    session = Session()
    degradations = DegradationLog()
    started = time.perf_counter()
    workload = session.workload(spec)
    generated = time.perf_counter()
    session.prepare(spec, degradations=degradations)
    attached = time.perf_counter()
    provider = (
        session.expect_provider(spec)
        if spec.algorithm.lower() == "watter-expect"
        else None
    )
    bootstrapped = time.perf_counter()
    return Prepared(
        bench=bench,
        seed=seed,
        config=spec.config(),
        workload=workload,
        provider=provider,
        degradations=degradations,
        graph_hash=session.graph_hash(workload.network),
        setup_phases={
            "workload_s": generated - started,
            "oracle_s": attached - generated,
            "provider_s": bootstrapped - attached,
        },
    )


def _timed(method: Callable, samples: list[float]) -> Callable:
    def call(*args):
        started = time.perf_counter()
        result = method(*args)
        samples.append(time.perf_counter() - started)
        return result

    return call


def replay(
    prepared: Prepared,
    instrument: Callable[[Dispatcher], None] | None = None,
) -> Replay:
    """Replay the prepared scenario once with a fresh dispatcher.

    ``instrument`` (the traced mode's hook) sees the dispatcher before
    the per-call timers wrap it, so its spans sit inside them.
    """
    arrivals: list[float] = []
    checks: list[float] = []
    started = time.perf_counter()
    dispatcher = make_dispatcher(
        prepared.bench.algorithm,
        prepared.workload,
        prepared.config,
        prepared.provider,
    )
    if instrument is not None:
        instrument(dispatcher)
    dispatcher.submit = _timed(dispatcher.submit, arrivals)  # type: ignore[method-assign]
    dispatcher.tick = _timed(dispatcher.tick, checks)  # type: ignore[method-assign]
    result = Simulator(
        prepared.workload,
        dispatcher,
        prepared.config,
        degradations=prepared.degradations,
    ).run()
    wall = time.perf_counter() - started
    return Replay(
        wall_s=wall,
        arrival_s=arrivals,
        check_s=checks,
        metrics=result.metrics,
        outcomes=list(result.collector.outcomes),
        degradations=prepared.degradations.as_dicts(),
        dispatcher=dispatcher,
    )


def check_output(run: Replay, prepared: Prepared) -> list[str]:
    """Every way this replay's output is wrong; empty when it is right."""
    problems: list[str] = []
    expected = {order.order_id for order in prepared.workload.orders}
    decided = Counter(outcome.order_id for outcome in run.outcomes)
    missing = expected.difference(decided)
    if missing:
        problems.append(f"{len(missing)} order(s) never decided")
    twice = sorted(order_id for order_id, n in decided.items() if n > 1)
    if twice:
        problems.append(f"{len(twice)} order(s) decided more than once")
    foreign = set(decided).difference(expected)
    if foreign:
        problems.append(f"{len(foreign)} decision(s) for unknown orders")
    metrics = run.metrics
    if metrics.served_orders + metrics.rejected_orders != len(expected):
        problems.append(
            f"served {metrics.served_orders} + rejected {metrics.rejected_orders}"
            f" != {len(expected)} orders"
        )
    capacity = prepared.config.max_capacity
    for outcome in run.outcomes:
        if not outcome.served:
            continue
        for field in ("response_time", "detour_time"):
            value = getattr(outcome, field)
            if not (math.isfinite(value) and value >= 0.0):
                problems.append(f"order {outcome.order_id}: {field}={value!r}")
        if not 1 <= outcome.group_size <= capacity:
            problems.append(
                f"order {outcome.order_id}: group_size {outcome.group_size}"
                f" outside 1..{capacity}"
            )
    if run.degradations:
        problems.append(f"degradations recorded: {run.degradations}")
    return problems


def identity(workload: str, seed: int, timings: list[Timing]) -> dict[str, object]:
    """What a result must be compared against: same inputs, same setup."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        has_numpy = False
    else:
        has_numpy = True
    stats = timings[0].metrics.oracle_stats or {}
    return {
        "workload": workload,
        "seed": seed,
        "draw_seeds": [t.seed for t in timings],
        "graph_hashes": [t.graph_hash[:16] for t in timings],
        "oracle_backend": stats.get("backend"),
        "oracle_kernel": stats.get("kernel"),
        "numpy": has_numpy,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
