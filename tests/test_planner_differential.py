"""The pruned exact planner against a brute-force reference.

``RoutePlanner`` solves groups of up to three orders with a depth-first
search that cuts branches on capacity, deadlines and partial cost.  The
reference below is the exhaustive enumeration it replaced: build a
``Route`` for every stop permutation in which pickups precede dropoffs,
keep those that pass ``check_route``, and take the first of the
cheapest.  The search must return the identical stop sequence with a
bit-identical ``total_travel_time`` (or ``None`` when the reference
finds nothing), and must never ask the oracle for a leg the reference
does not price: backends such as ``ch`` answer a pair with whichever
float first memoised it, so an extra query could change later answers.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.model.order import Order
from repro.model.route import Route, RouteStop, StopKind
from repro.network.generators import grid_city
from repro.routing.feasibility import check_route
from repro.routing.planner import PlannedGroup, RoutePlanner


def _pickups_precede_dropoffs(stops: Sequence[RouteStop]) -> bool:
    picked: set[int] = set()
    for stop in stops:
        if stop.kind is StopKind.PICKUP:
            picked.add(stop.order_id)
        elif stop.order_id not in picked:
            return False
    return True


def reference_plan(
    network,
    orders: Sequence[Order],
    capacity: int,
    start_time: float,
    start_node: int | None = None,
) -> PlannedGroup | None:
    """Exhaustive enumeration: the cheapest feasible route, first on ties."""
    stops = []
    for order in orders:
        stops.append(RouteStop(order.pickup, order.order_id, StopKind.PICKUP))
        stops.append(RouteStop(order.dropoff, order.order_id, StopKind.DROPOFF))
    best: PlannedGroup | None = None
    for permutation in itertools.permutations(stops):
        if not _pickups_precede_dropoffs(permutation):
            continue
        route = Route(list(permutation), network)
        approach = (
            0.0
            if start_node is None
            else network.travel_time(start_node, route.start_node)
        )
        if not check_route(route, orders, capacity, start_time, approach).feasible:
            continue
        if best is None or route.total_travel_time < best.total_travel_time:
            best = PlannedGroup(route, route.total_travel_time)
    return best


@functools.lru_cache(maxsize=None)
def _network(backend: str, jitter: float):
    network = grid_city(rows=4, cols=4, edge_travel_time=60.0, jitter=jitter, seed=3)
    if backend != "lazy":
        network.use_backend(backend)
    return network


# A few nodes only, so groups share stops and zero-length legs occur;
# jitter 0 makes many routes tie on cost.
_NODES = st.sampled_from([0, 1, 5, 6, 10, 15])


@st.composite
def instances(draw):
    jitter = draw(st.sampled_from([0.0, 0.3]))
    k = draw(st.integers(min_value=1, max_value=3))
    orders = []
    for order_id in range(k):
        deadline = draw(st.floats(min_value=0.0, max_value=700.0))
        orders.append(
            Order(
                pickup=draw(_NODES),
                dropoff=draw(_NODES),
                release_time=0.0,
                shortest_time=0.0,
                deadline=deadline,
                wait_limit=0.0,
                riders=draw(st.integers(min_value=1, max_value=2)),
                order_id=order_id,
            )
        )
    capacity = draw(st.integers(min_value=1, max_value=4))
    start_time = draw(st.sampled_from([0.0, 30.0, 95.5]))
    start_node = draw(st.one_of(st.none(), _NODES))
    return jitter, orders, capacity, start_time, start_node


def _recorded(network, calls):
    travel_time = network.travel_time

    def recording(source, target):
        calls.add((source, target))
        return travel_time(source, target)

    return recording


def _assert_same(got: PlannedGroup | None, want: PlannedGroup | None) -> None:
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.route.stops == want.route.stops
    assert got.total_travel_time.hex() == want.total_travel_time.hex()
    assert got.route.total_travel_time.hex() == want.total_travel_time.hex()


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(instances())
def test_search_matches_the_exhaustive_reference(instance):
    jitter, orders, capacity, start_time, start_node = instance
    network = _network("lazy", jitter)
    want = reference_plan(network, orders, capacity, start_time, start_node)
    got = RoutePlanner(network).try_plan(orders, capacity, start_time, start_node)
    _assert_same(got, want)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(instances(), st.sampled_from(["lazy", "ch"]))
def test_search_queries_no_leg_the_reference_does_not(instance, backend):
    jitter, orders, capacity, start_time, start_node = instance
    network = _network(backend, jitter)
    planned: set[tuple[int, int]] = set()
    network.travel_time = _recorded(network, planned)
    try:
        got = RoutePlanner(network).try_plan(orders, capacity, start_time, start_node)
    finally:
        del network.travel_time
    priced: set[tuple[int, int]] = set()
    network.travel_time = _recorded(network, priced)
    try:
        want = reference_plan(network, orders, capacity, start_time, start_node)
    finally:
        del network.travel_time
    assert planned <= priced
    _assert_same(got, want)


def test_ties_go_to_the_first_permutation():
    # Two orders on the same pickup and dropoff: the four routes that
    # pick both riders up first cost the same, so the permutation order
    # decides among them.
    network = _network("lazy", 0.0)
    orders = [
        Order(0, 15, 0.0, 0.0, 1000.0, 0.0, order_id=7),
        Order(0, 15, 0.0, 0.0, 1000.0, 0.0, order_id=8),
    ]
    planned = RoutePlanner(network).plan(orders, capacity=2, start_time=0.0)
    assert [(stop.order_id, stop.kind) for stop in planned.route.stops] == [
        (7, StopKind.PICKUP),
        (8, StopKind.PICKUP),
        (7, StopKind.DROPOFF),
        (8, StopKind.DROPOFF),
    ]
    _assert_same(planned, reference_plan(network, orders, 2, 0.0))
