"""The benchmark's workloads: three whole scenarios, one per layer mix.

Each workload is a :class:`~repro.api.ScenarioSpec` at the paper's
Table-III scaled defaults apart from the fields set here; the seed is
derived from the benchmark's argument, so the same seed always
generates the same network jitter, orders and fleet.  Every spec
dispatches serially (``dispatch_workers=1``): the benchmark measures
one process replaying one scenario at a time.

One scenario's cost depends strongly on its demand draw, so a run
replays many independent scenarios of the same shape (seeds
``draw_seeds(seed, count)``) and aggregates over all of them: that is
what makes two runs with different seeds comparable.  How many draws
a run replays depends only on its length in seconds (:meth:`draws`),
never on how fast the program goes, so a change in speed replays the
same draws.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import OracleSpec, ScenarioSpec


@dataclass(frozen=True)
class BenchWorkload:
    """One named scenario shape; ``spec(seed)`` makes its inputs."""

    name: str
    dataset: str
    algorithm: str
    backend: str
    num_orders: int
    num_workers: int
    #: Seconds one draw's set-up and replay take on the reference host
    #: (a 2-core AMD EPYC KVM guest); it sizes a run (:meth:`draws`).
    draw_s: float

    def draws(self, seconds: float) -> int:
        """How many draws an untraced run of ``seconds`` measures.

        The draws fill ``seconds`` on the reference host, less one
        draw's worth for the run's untimed repeat.
        """
        return max(1, int(seconds / self.draw_s) - 1)

    def draw_seeds(self, seed: int, count: int) -> list[int]:
        """The first ``count`` scenario seeds; disjoint for distinct ``seed``."""
        return list(range(seed * 1000, seed * 1000 + count))

    def spec(self, seed: int) -> ScenarioSpec:
        return ScenarioSpec(
            name=self.name,
            dataset=self.dataset,
            algorithm=self.algorithm,
            oracle=OracleSpec(backend=self.backend),
            num_orders=self.num_orders,
            num_workers=self.num_workers,
            seed=seed,
            dispatch_workers=1,
        )


WORKLOADS: dict[str, BenchWorkload] = {
    workload.name: workload
    for workload in (
        # The paper's headline algorithm on the densest-sharing city: the
        # planner, shareability graph, pool and threshold layers work.
        BenchWorkload(
            name="watter-expect-nyc",
            dataset="NYC",
            algorithm="WATTER-expect",
            backend="lazy",
            num_orders=500,
            num_workers=100,
            draw_s=1.4,
        ),
        # GDP's own insertion search and scalar oracle legs; it never calls
        # the planner, shareability graph, pool, threshold or fleet search.
        # Not in BENCHMARK.json: its ~14 us check tail is bound by memory
        # latency and moved by half between slow and quiet phases of a
        # shared host, beyond any bound the benchmark may set.  The
        # self-tests replay it for the predicted nulls.
        BenchWorkload(
            name="gdp-cdc",
            dataset="CDC",
            algorithm="GDP",
            backend="lazy",
            num_orders=500,
            num_workers=100,
            draw_s=1.4,
        ),
        # The fleet's ring search dominates, over the read-only precomputed
        # ch oracle rather than the lazily filled one.
        BenchWorkload(
            name="nonsharing-xia-ch",
            dataset="XIA",
            algorithm="NonSharing",
            backend="ch",
            num_orders=500,
            num_workers=100,
            draw_s=0.85,
        ),
    )
}
