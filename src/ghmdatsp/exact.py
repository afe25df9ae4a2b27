"""Integer-programming export, subtour separation and a brute-force oracle.

The model mirrors the roadmap exactly: binary y per node, binary x per
permitted edge, plus one continuous variable linearizing the max-cost term.
Subtour-elimination rows are not enumerated up front: :func:`find_subtours`
returns every cycle off the depot walks of an integral candidate, leaving
coverage to the rows, and :func:`subtour_cut_rows` makes cut-set rows of them;
the tests solve, separate and cut until no cycle is left, and reach the oracle.

The brute-force solver is intended for desk-scale validation only and is
exact: over every coverage-feasible assignment it takes the cheapest visit
order per vehicle (Held-Karp), then the least objective within 1e-12, then
the smaller tours.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .memetic import TourSet, evaluate
from .roadmap import DEPOT, TERMINAL, Roadmap


class MalformedSolutionError(ValueError):
    """Candidate solution violates integrality or the degree structure."""


class SizeLimitError(RuntimeError):
    """The brute-force oracle would exceed its size limit."""


#: Most task assignments the brute-force oracle walks; on one Xeon core under
#: Python 3.11, 2.8e6 took 30 s.
_ASSIGNMENT_LIMIT = 3e6

#: Most Held-Karp path states it memoizes over all vehicles; 6.4e5 peaked at 235 MB.
_PATH_STATE_LIMIT = 8e5

#: Slack allowed when :meth:`MilpModel.check_assignment` tests a row.
ROW_TOLERANCE = 1e-9


@dataclass
class MilpModel:
    """Objective, rows and variable registry; exportable as LP text."""

    objective: dict[str, float]
    constraints: list[tuple[str, dict[str, float], str, float]]
    binaries: list[str]
    continuous: list[str]

    def variables(self) -> list[str]:
        return self.binaries + self.continuous

    def check_assignment(self, values: dict[str, float]) -> list[str]:
        """Names of constraint rows violated by ``values`` (missing vars = 0)."""
        violated = []
        for name, coeffs, sense, rhs in self.constraints:
            lhs = sum(c * values.get(v, 0.0) for v, c in coeffs.items())
            ok = (abs(lhs - rhs) <= ROW_TOLERANCE if sense == "=" else
                  lhs <= rhs + ROW_TOLERANCE if sense == "<=" else
                  lhs >= rhs - ROW_TOLERANCE)
            if not ok:
                violated.append(name)
        return violated

    def objective_value(self, values: dict[str, float]) -> float:
        return sum(c * values.get(v, 0.0) for v, c in self.objective.items())

    def to_lp_text(self) -> str:
        lines = ["Minimize", " obj: " + _lp_sum(self.objective)]
        lines.append("Subject To")
        lines.extend(" " + _lp_row(row) for row in self.constraints)
        lines.append("Bounds")
        for v in self.continuous:
            lines.append(f" 0 <= {v}")
        lines.append("Binaries")
        for i in range(0, len(self.binaries), 8):
            lines.append(" " + " ".join(self.binaries[i:i + 8]))
        lines.append("End")
        return "\n".join(lines) + "\n"


def _lp_sum(coeffs: dict[str, float]) -> str:
    """Nonzero terms in variable order, e.g. ``2 x_1 - 1 y_3``."""
    return " ".join(f"{'-' if c < 0 else '+'} {abs(c):.12g} {v}"
                    for v, c in sorted(coeffs.items()) if c != 0.0).lstrip("+ ")


def _lp_row(row: tuple[str, dict[str, float], str, float]) -> str:
    name, coeffs, sense, rhs = row
    return f"{name}: {_lp_sum(coeffs)} {sense} {rhs:.12g}"


def _yvar(s: int) -> str:
    return f"y_{s}"


def _xvar(s: int, s2: int) -> str:
    return f"x_{s}_{s2}"


def _vehicle_edges(roadmap: Roadmap, veh_id: int):
    """Permitted (from, to, cost, x-variable name) edges of a vehicle."""
    locals_ = [s for s in roadmap.nodes if s.vehicle == veh_id]
    for a, row in zip(locals_, roadmap.cost_lists[veh_id]):
        for b, c in zip(locals_, row):
            if math.isfinite(c):
                yield a.id, b.id, c, _xvar(a.id, b.id)


def export_milp(roadmap: Roadmap) -> MilpModel:
    """Build the assignment/degree model over the roadmap.

    The objective blends the mean vehicle cost with a continuous variable z
    bounded below by every per-vehicle cost.  A task is covered by one of
    its own nodes or by a chosen node that crosses it, and takes at most
    one of its own nodes, as a chromosome does.  Subtour rows are left to
    lazy separation.
    """
    inst = roadmap.instance
    m = inst.n_vehicles
    objective: dict[str, float] = {}
    constraints: list[tuple[str, dict[str, float], str, float]] = []
    binaries = [_yvar(s.id) for s in roadmap.nodes]
    out_of: dict[int, dict[str, float]] = {}
    into: dict[int, dict[str, float]] = {}

    # z >= Cost_k for every vehicle
    for veh in inst.vehicles:
        row: dict[str, float] = {}
        for a, b, c, x in _vehicle_edges(roadmap, veh.id):
            binaries.append(x)
            objective[x] = inst.alpha * c / m
            row[x] = c
            out_of.setdefault(a, {})[x] = 1.0
            into.setdefault(b, {})[x] = 1.0
        row["z"] = -1.0
        constraints.append((f"maxcost_v{veh.id}", row, "<=", 0.0))
    objective["z"] = 1.0 - inst.alpha

    # every task takes at most one of its own nodes, over all vehicles, and is
    # covered by one of them or by a node crossing it
    own = {t.id: {_yvar(nid): 1.0 for veh in inst.vehicles
                  for nid in roadmap.cluster_ids[(veh.id, t.id)]} for t in inst.tasks}
    cover = {t: dict(row) for t, row in own.items()}
    for nid, crossed in sorted(roadmap.nin_node_to_tasks.items()):
        for t in crossed:
            cover[t][_yvar(nid)] = 1.0
    constraints.extend((f"cover_t{t}", row, ">=", 1.0) for t, row in cover.items())
    constraints.extend((f"once_t{t}", row, "<=", 1.0) for t, row in own.items())

    # exactly one depot and one terminal node per vehicle
    for veh in inst.vehicles:
        for cluster, tag in ((DEPOT, "depot"), (TERMINAL, "terminal")):
            row = {_yvar(nid): 1.0 for nid in roadmap.cluster_ids[(veh.id, cluster)]}
            constraints.append((f"choose_{tag}_v{veh.id}", row, "=", 1.0))

    # degree rows for the open depot-to-terminal topology
    for s in roadmap.nodes:
        if s.cluster != TERMINAL:
            row = dict(out_of.get(s.id, {}))
            row[_yvar(s.id)] = -1.0
            constraints.append((f"deg_out_{s.id}", row, "=", 0.0))
        if s.cluster != DEPOT:
            row = dict(into.get(s.id, {}))
            row[_yvar(s.id)] = -1.0
            constraints.append((f"deg_in_{s.id}", row, "=", 0.0))

    return MilpModel(objective, constraints, binaries, ["z"])


@dataclass
class RelaxedSolution:
    """An integral candidate: chosen nodes and edges."""

    y: dict[int, int]
    x: dict[tuple[int, int], int]

    @staticmethod
    def from_tourset(tourset: TourSet, roadmap: Roadmap) -> "RelaxedSolution":
        y = {s.id: 0 for s in roadmap.nodes}
        x: dict[tuple[int, int], int] = {}
        for tour in tourset.tours:
            for nid in tour:
                y[nid] = 1
            for a, b in zip(tour, tour[1:]):
                x[(a, b)] = 1
        return RelaxedSolution(y, x)

    def as_var_values(self, roadmap: Roadmap, z: float | None = None) -> dict[str, float]:
        values = {_yvar(s): float(v) for s, v in self.y.items()}
        for (a, b), v in self.x.items():
            values[_xvar(a, b)] = float(v)
        if z is not None:
            values["z"] = z
        return values


def find_subtours(relaxed: RelaxedSolution, roadmap: Roadmap) -> list[tuple[int, ...]]:
    """Separation pass over an integral candidate.

    Walks each vehicle's chain from its chosen depot node and returns every
    closed x-path off the walks; coverage is left to the ``cover_t`` and
    ``once_t`` rows.  For a candidate that meets the degree rows, ``[]``
    certifies every chosen node on its vehicle's walk.
    """
    nodes = roadmap.nodes
    succ: dict[int, int] = {}
    for (a, b), v in relaxed.x.items():
        if v not in (0, 1):
            raise MalformedSolutionError(f"fractional edge value x[{a},{b}] = {v}")
        if v == 1:
            if a in succ:
                raise MalformedSolutionError(f"node {a} has two outgoing selected edges")
            succ[a] = b

    walked: set[int] = set()
    for veh in roadmap.instance.vehicles:
        depot_nodes = [nid for nid in roadmap.cluster_ids[(veh.id, DEPOT)] if relaxed.y.get(nid)]
        if len(depot_nodes) != 1:
            raise MalformedSolutionError(
                f"vehicle {veh.id}: expected exactly one chosen depot node, got {len(depot_nodes)}")
        cur = depot_nodes[0]
        walked.add(cur)
        for _ in nodes:  # a walk that reaches its terminal repeats no node
            if nodes[cur].cluster == TERMINAL:
                break
            if cur not in succ:
                raise MalformedSolutionError(
                    f"vehicle {veh.id}: walk stalls at node {cur} before a terminal")
            cur = succ[cur]
            walked.add(cur)
        else:
            raise MalformedSolutionError(f"vehicle {veh.id}: walk never reaches a terminal")

    subtours: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for start in sorted(succ):
        if start in walked or start in seen:
            continue
        cycle = [start]
        seen.add(start)
        cur = succ.get(start)
        while cur is not None and cur != start:
            if cur in walked or cur in seen:
                raise MalformedSolutionError(
                    f"chain through node {start} neither closes nor reaches a terminal")
            cycle.append(cur)
            seen.add(cur)
            cur = succ.get(cur)
        if cur != start:
            raise MalformedSolutionError(
                f"chain through node {start} neither closes nor reaches a terminal")
        pivot = cycle.index(min(cycle))
        subtours.append(tuple(cycle[pivot:] + cycle[:pivot]))
    return subtours


def subtour_cut_rows(subtours, roadmap: Roadmap) -> list[tuple[str, dict[str, float], str, float]]:
    """Cut-set rows x(δ(S)) >= 2 y_s, one per (cycle, member node s).

    S is every node of the cycle's vehicle in one of the cycle's task
    clusters, δ(S) every permitted edge with exactly one end in S (Fischetti,
    Salazar González and Toth, Operations Research 1997).  A tour through a
    node of S runs between a depot and a terminal outside S, so it enters and
    leaves S: the rows cut off the cycle and no tour.
    """
    li = roadmap.local_index
    rows = []
    for cycle in subtours:
        veh = roadmap.nodes[cycle[0]].vehicle
        cost = roadmap.cost_lists[veh]
        tasks = {roadmap.nodes[s].cluster for s in cycle}
        outside = [(li[t], t) for cluster, ids in roadmap.ids_by_vehicle[veh].items()
                   if cluster not in tasks for t in ids]
        cut: dict[str, float] = {}
        for task in tasks:
            for s in roadmap.cluster_ids[(veh, task)]:  # s's edges are its column and row
                i = li[s]
                cut.update((_xvar(t, s), 1.0) for j, t in outside if math.isfinite(cost[j][i]))
                cut.update((_xvar(s, t), 1.0) for j, t in outside if math.isfinite(cost[i][j]))
        name = "_".join(map(str, cycle))
        rows.extend((f"cut_{name}_s{s}", {**cut, _yvar(s): -2.0}, ">=", 0.0) for s in cycle)
    return rows


# ---------------------------------------------------------------------------
# Brute force


def solve_bruteforce(roadmap: Roadmap) -> TourSet:
    """Exact minimizer over every assignment, sample choice and visit order.

    Tasks may be left unassigned only when a visited node necessarily
    crosses them.  The blended objective never falls as one vehicle's cost
    grows, so each vehicle takes the cheapest order of its own nodes, from a
    memoized Held-Karp path search (equal costs go to the smaller tour).
    Across assignments the objective decides within 1e-12, then the smaller
    ``tours``.  Raises :class:`SizeLimitError` when it would walk more than
    3e6 assignments or memoize more than 8e5 path states.
    """
    inst = roadmap.instance
    veh_ids = roadmap.vehicle_ids
    # each task is left to a crossing (None) or takes one node of one vehicle
    options = [[None] + [roadmap.nodes[nid] for k in veh_ids
                         for nid in roadmap.cluster_ids[(k, t.id)]]
               for t in inst.tasks]
    assignments = math.prod(float(len(opts)) for opts in options)  # inf, not an error, if huge
    # vehicle k can memoize (U, terminal) and (U - {p}, p) for each p in U,
    # for every set U of at most one of its nodes per task
    states = 0.0
    for k in veh_ids:
        sizes = [len(roadmap.cluster_ids[(k, t.id)]) for t in inst.tasks]
        states += math.prod(1.0 + c for c in sizes) * (1 + sum(c / (1 + c) for c in sizes))
    if assignments > _ASSIGNMENT_LIMIT or states > _PATH_STATE_LIMIT:
        raise SizeLimitError(
            f"oracle needs {assignments:.3g} assignments (limit {_ASSIGNMENT_LIMIT:.3g}) "
            f"and {states:.3g} path states (limit {_PATH_STATE_LIMIT:.3g})")

    depot = {k: roadmap.cluster_ids[(k, DEPOT)][0] for k in veh_ids}
    term = {k: roadmap.cluster_ids[(k, TERMINAL)][0] for k in veh_ids}

    @functools.cache
    def path(k: int, nodes: int, last: int) -> tuple[float, tuple[int, ...]]:
        """Cheapest (cost, tour) from k's depot through every node whose id
        is a set bit of ``nodes`` to ``last``."""
        if not nodes:
            return roadmap.edge_cost(k, depot[k], last), (depot[k], last)
        # legs add in tour order, as in Roadmap.tour_cost
        return min((cost + roadmap.edge_cost(k, prev, last), tour + (last,))
                   for prev in range(nodes.bit_length()) if nodes >> prev & 1
                   for cost, tour in [path(k, nodes ^ 1 << prev, prev)])

    best_obj, best_tours = math.inf, None
    for chosen in itertools.product(*options):
        picked = [s for s in chosen if s is not None]
        crossed = set().union(*(roadmap.nin_node_to_tasks[s.id] for s in picked))
        if any(s is None and t.id not in crossed for s, t in zip(chosen, inst.tasks)):
            continue
        costs, tours = zip(*(path(k, sum(1 << s.id for s in picked if s.vehicle == k), term[k])
                             for k in veh_ids))
        obj = evaluate(costs, inst.alpha)
        if obj < best_obj - 1e-12 or (abs(obj - best_obj) <= 1e-12 and tours < best_tours):
            best_obj, best_tours = obj, tours
    path.cache_clear()  # path refers to itself, so only a full collection would free it
    return TourSet.from_tours(best_tours, roadmap)
