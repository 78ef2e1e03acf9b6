"""Best-route planning for order groups.

Given a set of orders, ``RoutePlanner`` finds the feasible route with
minimal total travel time (the quantity ``T(L)`` that Definition 3 of
the paper prices).  Small groups are solved exactly by a depth-first
search over the pickup/dropoff interleavings, in the spirit of the
kinetic-tree search of Huang et al. (PVLDB 2014): a branch is cut as
soon as it would overload the vehicle, drop a rider off after their
deadline, or cost more than the best complete route found so far, and
every leg is priced lazily, at most once per plan.  Larger groups fall
back to a greedy insertion construction.

The planner is the single source of feasible routes for the whole
library: the shareability graph, the WATTER dispatcher and the GAS
baseline all call into it, which keeps the constraint semantics in one
place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

from ..exceptions import InfeasibleGroupError
from ..model.route import Route, RouteStop, StopKind
from .feasibility import check_route
from .insertion import insert_order_into_route

if TYPE_CHECKING:  # pragma: no cover
    from ..model.order import Order
    from ..network.graph import RoadNetwork


# Groups up to this size are planned exactly.  The search space is the
# (2k)! / 2^k valid stop orders of k orders (6 for k=2, 90 for k=3), but
# the pruned search visits far fewer and prices each leg once, so the
# cost of a plan is dominated by the legs it touches.  Larger groups
# fall back to the greedy-insertion construction.
_EXACT_GROUP_LIMIT = 3


@dataclass(frozen=True)
class PlannedGroup:
    """A feasible route for a group plus the cost the planner minimised."""

    route: Route
    total_travel_time: float


class RoutePlanner:
    """Finds minimum-travel-time feasible routes for order groups.

    Parameters
    ----------
    network:
        Road network used to price route legs.
    exact_group_limit:
        Largest group size planned exactly by the pruned search over all
        stop interleavings; larger groups use greedy insertion.
    """

    def __init__(
        self, network: "RoadNetwork", exact_group_limit: int = _EXACT_GROUP_LIMIT
    ) -> None:
        self._network = network
        self._exact_group_limit = max(exact_group_limit, 1)

    @property
    def network(self) -> "RoadNetwork":
        """The road network the planner prices routes on."""
        return self._network

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def plan(
        self,
        orders: Sequence["Order"],
        capacity: int,
        start_time: float,
        start_node: int | None = None,
    ) -> PlannedGroup:
        """Return the cheapest feasible route for ``orders``.

        Parameters
        ----------
        orders:
            The group members (1 to capacity orders).
        capacity:
            Vehicle capacity the route must respect.
        start_time:
            Time at which the route would start being driven.
        start_node:
            Worker's current node.  When given, the approach leg from the
            worker to the first pickup is included in the deadline check
            (but not in ``total_travel_time``, matching the paper's
            definition of ``T(L)`` over the route itself).

        Raises
        ------
        InfeasibleGroupError
            If no stop ordering satisfies all constraints.
        """
        members = list(orders)
        if not members:
            raise InfeasibleGroupError("cannot plan a route for an empty group")
        if len(members) <= self._exact_group_limit:
            planned = self._plan_exact(members, capacity, start_time, start_node)
        else:
            planned = self._plan_by_insertion(members, capacity, start_time, start_node)
        if planned is None:
            raise InfeasibleGroupError(
                f"no feasible route for orders {[o.order_id for o in members]}"
            )
        return planned

    def try_plan(
        self,
        orders: Sequence["Order"],
        capacity: int,
        start_time: float,
        start_node: int | None = None,
    ) -> PlannedGroup | None:
        """Like :meth:`plan` but returns ``None`` instead of raising."""
        try:
            return self.plan(orders, capacity, start_time, start_node)
        except InfeasibleGroupError:
            return None

    def can_share(
        self,
        first: "Order",
        second: "Order",
        capacity: int,
        start_time: float,
    ) -> PlannedGroup | None:
        """Cheapest feasible pairwise route, or ``None`` if the pair can't share.

        This is the primitive the temporal shareability graph uses to
        decide whether to connect two orders with an edge.
        """
        if first.riders + second.riders > capacity:
            return None
        return self.try_plan([first, second], capacity, start_time)

    # ------------------------------------------------------------------
    # exact search
    # ------------------------------------------------------------------
    def _plan_exact(
        self,
        orders: Sequence["Order"],
        capacity: int,
        start_time: float,
        start_node: int | None,
    ) -> PlannedGroup | None:
        """Depth-first search for the cheapest feasible stop order.

        Stops are indexed pickup ``2i``, dropoff ``2i + 1`` for the
        ``i``-th order and expanded in increasing index order, so complete
        routes are met in ``itertools.permutations`` order and the first
        of several equally cheap routes wins.  A branch is cut when a
        pickup would exceed ``capacity``, a dropoff would miss its
        deadline, or its partial travel time already exceeds the best
        complete route (legs are non-negative, so no completion can
        beat it).  Sums and comparisons are the ones ``Route`` and
        ``check_route`` form, so the winner's cost is bit-identical to
        theirs.  Each leg is priced on first use through the scalar
        ``travel_time`` and kept for the rest of the plan; no leg runs
        from a dropoff to its own pickup, so the oracle is never asked
        for a pair that no valid stop order contains.
        """
        self._prefetch(orders, start_node)
        if len(orders) == 1:
            return self._plan_single(orders[0], capacity, start_time, start_node)
        travel_time = self._network.travel_time
        nodes = [node for order in orders for node in (order.pickup, order.dropoff)]
        riders = [order.riders for order in orders]
        deadlines = [order.deadline for order in orders]
        size = len(nodes)
        legs: list[float | None] = [None] * (size * size)
        placed = [False] * size
        best_path: list[int] | None = None
        best_cost = math.inf
        for first in range(0, size, 2):
            if riders[first >> 1] > capacity:
                continue
            approach = (
                0.0 if start_node is None else travel_time(start_node, nodes[first])
            )
            ready = start_time + approach
            # One entry per placed stop: the stop, the travel time up to
            # it, the riders on board after it, and the candidates left
            # for the next position.
            placed[first] = True
            path = [first]
            cums = [0.0]
            loads = [riders[first >> 1]]
            pending = [iter(range(size))]
            while pending:
                last = path[-1]
                for stop in pending[-1]:
                    if placed[stop]:
                        continue
                    member = stop >> 1
                    if stop & 1:
                        if not placed[stop - 1]:
                            continue
                        load = loads[-1] - riders[member]
                    else:
                        load = loads[-1] + riders[member]
                        if load > capacity:
                            continue
                    leg = legs[last * size + stop]
                    if leg is None:
                        leg = legs[last * size + stop] = travel_time(
                            nodes[last], nodes[stop]
                        )
                    total = cums[-1] + leg
                    if total > best_cost:
                        continue
                    if stop & 1 and ready + total > deadlines[member]:
                        continue
                    if len(path) == size - 1:
                        if best_path is None or total < best_cost:
                            best_path, best_cost = path + [stop], total
                        continue
                    placed[stop] = True
                    path.append(stop)
                    cums.append(total)
                    loads.append(load)
                    pending.append(iter(range(size)))
                    break
                else:
                    pending.pop()
                    placed[path.pop()] = False
                    cums.pop()
                    loads.pop()
        if best_path is None:
            return None
        stops = [
            RouteStop(
                nodes[stop],
                orders[stop >> 1].order_id,
                StopKind.DROPOFF if stop & 1 else StopKind.PICKUP,
            )
            for stop in best_path
        ]
        route = Route(stops, self._network)
        return PlannedGroup(route, route.total_travel_time)

    def _plan_single(
        self,
        order: "Order",
        capacity: int,
        start_time: float,
        start_node: int | None,
    ) -> PlannedGroup | None:
        """The one valid stop order of a lone order, pickup then dropoff."""
        if order.riders > capacity:
            return None
        travel_time = self._network.travel_time
        leg = travel_time(order.pickup, order.dropoff)
        approach = 0.0 if start_node is None else travel_time(start_node, order.pickup)
        if start_time + approach + leg > order.deadline:
            return None
        route = Route(
            [
                RouteStop(order.pickup, order.order_id, StopKind.PICKUP),
                RouteStop(order.dropoff, order.order_id, StopKind.DROPOFF),
            ],
            self._network,
        )
        return PlannedGroup(route, route.total_travel_time)

    # ------------------------------------------------------------------
    # insertion fallback for larger groups
    # ------------------------------------------------------------------
    def _plan_by_insertion(
        self,
        orders: Sequence["Order"],
        capacity: int,
        start_time: float,
        start_node: int | None,
    ) -> PlannedGroup | None:
        self._prefetch(orders, start_node)
        seed, *rest = sorted(orders, key=lambda order: order.release_time)
        stops = [
            RouteStop(seed.pickup, seed.order_id, StopKind.PICKUP),
            RouteStop(seed.dropoff, seed.order_id, StopKind.DROPOFF),
        ]
        route = Route(stops, self._network)
        placed = [seed]
        for order in rest:
            result = insert_order_into_route(
                route, order, placed, capacity, start_time, self._network
            )
            if result is None:
                return None
            route = result.route
            placed.append(order)
        approach = self._approach_time(start_node, route)
        report = check_route(route, placed, capacity, start_time, approach)
        if not report.feasible:
            return None
        return PlannedGroup(route, route.total_travel_time)

    def _approach_time(self, start_node: int | None, route: Route) -> float:
        if start_node is None:
            return 0.0
        return self._network.travel_time(start_node, route.start_node)

    def _prefetch(self, orders: Sequence["Order"], start_node: int | None) -> None:
        """Warm the distance oracle for every leg the plan can touch.

        One ``travel_times_many`` call covers the whole stop-node block,
        so precomputing backends answer it as a batch (one refresh)
        instead of being hit with scalar queries from inside the
        search.  Dropoffs only become leg *sources* when
        several orders interleave, so the singleton case stays as cheap
        as before for the lazy backend.
        """
        pickups = {order.pickup for order in orders}
        dropoffs = {order.dropoff for order in orders}
        targets = pickups | dropoffs
        sources = set(pickups) if len(orders) == 1 else set(targets)
        if start_node is not None:
            sources.add(start_node)
        self._network.travel_times_many(sources, targets)
