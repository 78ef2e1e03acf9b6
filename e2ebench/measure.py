"""One benchmark run: replay a workload's draws and reduce them to metrics.

:func:`run_untraced` produces the end-to-end metrics and
:func:`run_traced` the per-layer split; both check every replay's
output and count the replays that fail it.  Each metric is a
``(value, unit)`` pair.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

from .replay import (
    SETUP_PHASES,
    Timing,
    check_output,
    identity,
    percentile,
    replay,
    set_up,
)
from .tracing import LAYERS, Tracer, instrumented
from .workloads import BenchWorkload

Metrics = dict[str, tuple[float, str]]


@dataclass
class RunOutcome:
    """A run's result: the metrics plus the output check's verdict."""

    metrics: Metrics
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    identity: dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and self.attempted > 0

    def as_result(self) -> dict[str, object]:
        """The last line a run prints: its verdict, counts and metrics."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


class _Checker:
    """Counts replays and failures; remembers what each draw's replay gave."""

    def __init__(self, outcome: RunOutcome, tracer: Tracer | None = None) -> None:
        self._outcome = outcome
        self.tracer = tracer
        self._first: dict[int, tuple[tuple[float, float, float], int, int]] = {}

    def attempt(self, bench: BenchWorkload, seed: int, traced: bool = False):
        """Set up, replay and check one draw; ``None`` when any step failed."""
        self._outcome.attempted += 1
        gc.collect()
        try:
            prepared = set_up(bench, seed)
            if traced and (tracer := self.tracer) is not None:
                with instrumented(tracer):
                    run = replay(prepared, instrument=tracer.instrument_dispatcher)
            else:
                run = replay(prepared)
        except Exception:  # a crashing replay is a failed operation, not a crash
            self._fail(seed, [traceback.format_exc(limit=3).strip()])
            return None
        problems = check_output(run, prepared)
        # Every replay of a draw must decide alike and make the same calls.
        observed = (run.quality(), len(run.arrival_s), len(run.check_s))
        expected = self._first.setdefault(seed, observed)
        if observed != expected:
            problems.append(
                f"quality and call counts {observed} differ from an earlier"
                f" replay's {expected}"
            )
        if problems:
            self._fail(seed, problems)
            return None
        return prepared, run

    def timing(self, bench: BenchWorkload, seed: int) -> Timing | None:
        """Like :meth:`attempt`, keeping only the replay's timings."""
        done = self.attempt(bench, seed)
        return None if done is None else Timing.of(*done)

    def _fail(self, seed: int, problems: list[str]) -> None:
        self._outcome.failed += 1
        self._outcome.problems.extend(f"seed {seed}: {p}" for p in problems)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: A run starts no draw after this many seconds, so that even a much
#: slower program ends within the 180 s a benchmark run may take.
GIVE_UP_S = 150.0


def run_untraced(bench: BenchWorkload, seed: int, seconds: float) -> RunOutcome:
    """End-to-end metrics over the ``bench.draws(seconds)`` first draws.

    Each draw is set up and replayed once.  Each percentile is taken
    per draw, and the run reports its median over the draws.  The
    first draw is then replayed once more, untimed, so that every run
    checks that its quality metrics repeat.
    """
    outcome = RunOutcome(metrics={})
    checker = _Checker(outcome)
    seeds = bench.draw_seeds(seed, bench.draws(seconds))
    give_up = time.perf_counter() + GIVE_UP_S
    timed: list[Timing] = []
    for draw_seed in seeds:
        if time.perf_counter() > give_up:
            break
        done = checker.timing(bench, draw_seed)
        if done is not None:
            timed.append(done)
    checker.attempt(bench, seeds[0])
    if timed:
        outcome.identity = identity(bench.name, seed, timed)
        outcome.metrics = _end_to_end(timed)
    return outcome


def _percentile_ms(per_draw: list[list[float]], q: float) -> float:
    """The median over draws of each draw's ``q``-quantile, in ms."""
    return 1e3 * statistics.median(percentile(times, q) for times in per_draw)


def _end_to_end(timed: list[Timing]) -> Metrics:
    """Timings and quality, each over all the draws of a run."""
    decided = sum(t.metrics.total_orders for t in timed)
    wall = sum(t.wall_s for t in timed)
    arrivals = [t.arrival_s for t in timed]
    checks = [t.check_s for t in timed]
    return {
        "orders_per_s": (decided / wall, "1/s"),
        "arrival_p50_ms": (_percentile_ms(arrivals, 0.50), "ms"),
        "arrival_p99_ms": (_percentile_ms(arrivals, 0.99), "ms"),
        "check_p50_ms": (_percentile_ms(checks, 0.50), "ms"),
        "check_p98_ms": (_percentile_ms(checks, 0.98), "ms"),
        "setup_s": (statistics.median(t.setup_s for t in timed), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "extra_time_avg_s": (
            sum(t.metrics.total_extra_time for t in timed) / decided,
            "s",
        ),
        "unified_cost": (statistics.fmean(t.metrics.unified_cost for t in timed), "s"),
        "service_rate": (
            sum(t.metrics.served_orders for t in timed) / decided,
            "ratio",
        ),
    }


def run_traced(bench: BenchWorkload, seed: int, seconds: float) -> RunOutcome:
    """Per-layer split: each draw replayed plain, then traced.

    A traced run takes half the draws an untraced run of ``seconds``
    takes, since it replays each of them twice.  Both replays of a draw
    start from their own fresh set-up, so the traced one finds the same
    cold caches the plain one did; their ratio is the tracing overhead,
    and their quality metrics must match.  Per-layer values are
    per-replay means over the draws.
    """
    seeds = bench.draw_seeds(seed, max(1, bench.draws(seconds) // 2))
    outcome = RunOutcome(metrics={})
    tracer = Tracer()
    checker = _Checker(outcome, tracer)
    plain_s = traced_s = 0.0
    setup = dict.fromkeys(SETUP_PHASES, 0.0)
    oracle = dict.fromkeys(("hits", "lookups", "sssp", "reverse", "precompute"), 0.0)
    pool = {"held": 0, "dispatched": 0, "rejected": 0}
    spatial = {"searches": 0, "candidates": 0}
    traced_runs: list[Timing] = []
    give_up = time.perf_counter() + GIVE_UP_S
    for draw_seed in seeds:
        if time.perf_counter() > give_up:
            break
        plain = checker.attempt(bench, draw_seed)
        traced = checker.attempt(bench, draw_seed, traced=True)
        if plain is None or traced is None:
            continue
        traced_runs.append(Timing.of(*traced))
        plain_s += plain[1].wall_s
        prepared, run = traced
        traced_s += run.wall_s
        for phase, spent in prepared.setup_phases.items():
            setup[phase] += spent
        stats = run.metrics.oracle_stats or {}
        oracle["hits"] += float(stats.get("cache_hits", 0))
        oracle["lookups"] += float(stats.get("cache_hits", 0)) + float(
            stats.get("cache_misses", 0)
        )
        oracle["sssp"] += float(stats.get("sssp_runs", 0))
        oracle["reverse"] += float(stats.get("reverse_sssp_runs", 0))
        oracle["precompute"] += float(stats.get("precompute_seconds", 0))
        pool_stats = getattr(getattr(run.dispatcher, "pool", None), "statistics", None)
        if pool_stats is not None:
            for key in pool:
                pool[key] += getattr(pool_stats, key)
        index = getattr(getattr(run.dispatcher, "fleet", None), "spatial_index", None)
        if index is not None:
            spatial["searches"] += index.searches
            spatial["candidates"] += index.candidates_yielded
    if outcome.failed:
        return outcome
    outcome.identity = identity(bench.name, seed, traced_runs)
    replays = len(traced_runs)
    counts = tracer.counts

    def per(value: float) -> float:
        return value / replays

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    # Self times are shares of the traced replay, so that a layer the
    # workload never calls reads 0 as a share rather than as a time.
    metrics: Metrics = {
        f"{layer}.self_share": (tracer.self_s[layer] / traced_s, "ratio")
        for layer in LAYERS
    }
    metrics.update(
        {
            "engine.self_share": ((traced_s - tracer.covered_s) / traced_s, "ratio"),
            "trace.replay_s": (per(traced_s), "s"),
            "trace.overhead": (traced_s / plain_s, "ratio"),
            "oracle.scalar_calls": (per(counts["oracle.scalar_calls"]), "count"),
            "oracle.batch_calls": (per(counts["oracle.batch_calls"]), "count"),
            "oracle.batch_pairs": (per(counts["oracle.batch_pairs"]), "count"),
            "oracle.hit_rate": (ratio(oracle["hits"], oracle["lookups"]), "ratio"),
            "oracle.sssp_runs": (per(oracle["sssp"]), "count"),
            "oracle.reverse_sssp_runs": (per(oracle["reverse"]), "count"),
            # Precomputation runs in set-up (``ch``); ``lazy`` has none.
            "oracle.precompute_share": (
                ratio(oracle["precompute"], sum(setup.values())),
                "ratio",
            ),
            "planner.plans": (per(counts["planner.plans"]), "count"),
            "planner.feasible_ratio": (
                ratio(counts["planner.feasible"], counts["planner.plans"]),
                "ratio",
            ),
            "shareability.inserts": (per(counts["shareability.inserts"]), "count"),
            "shareability.edges_mean": (
                ratio(
                    counts["shareability.edges_sampled"],
                    counts["shareability.edge_samples"],
                ),
                "count",
            ),
            "shareability.edges_expired": (
                per(counts["shareability.edges_expired"]),
                "count",
            ),
            "pool.checks": (per(counts["pool.checks"]), "count"),
            "pool.held": (per(pool["held"]), "count"),
            "pool.dispatched": (per(pool["dispatched"]), "count"),
            "pool.rejected": (per(pool["rejected"]), "count"),
            "threshold.calls": (per(counts["threshold.calls"]), "count"),
            "fleet.searches": (per(counts["fleet.searches"]), "count"),
            "fleet.found_ratio": (
                ratio(counts["fleet.found"], counts["fleet.searches"]),
                "ratio",
            ),
            "spatial.candidates_per_search": (
                ratio(spatial["candidates"], spatial["searches"]),
                "count",
            ),
            "setup.workload_s": (per(setup["workload_s"]), "s"),
            "setup.oracle_s": (per(setup["oracle_s"]), "s"),
            "setup.provider_s": (per(setup["provider_s"]), "s"),
        }
    )
    outcome.metrics = metrics
    return outcome
