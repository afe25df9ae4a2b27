"""Integer-programming export, subtour separation and a brute-force oracle.

The model mirrors the roadmap exactly: binary y per node, binary x per
permitted edge, binary y_nin per (task, crossing-node) pair, plus one
continuous variable linearizing the max-cost term.  Subtour-elimination
rows are not enumerated up front; :func:`find_subtours` separates violated
ones from integral candidates so they can be added lazily.

The brute-force solver is intended for desk-scale validation only; it
enumerates every coverage-feasible assignment and visit order exhaustively
and is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .memetic import TourSet, evaluate
from .roadmap import DEPOT, TERMINAL, Roadmap


class MalformedSolutionError(ValueError):
    """Candidate solution violates integrality or the degree structure."""


class SizeLimitError(RuntimeError):
    """The enumeration would exceed the configured leaf budget."""


@dataclass
class MilpModel:
    """Objective, rows and variable registry; exportable as LP text."""

    objective: dict[str, float]
    constraints: list[tuple[str, dict[str, float], str, float]]
    binaries: list[str]
    continuous: list[str]

    def variables(self) -> list[str]:
        return self.binaries + self.continuous

    def check_assignment(self, values: dict[str, float], tol: float = 1e-9) -> list[str]:
        """Names of constraint rows violated by ``values`` (missing vars = 0)."""
        violated = []
        for name, coeffs, sense, rhs in self.constraints:
            lhs = sum(c * values.get(v, 0.0) for v, c in coeffs.items())
            ok = (abs(lhs - rhs) <= tol if sense == "=" else
                  lhs <= rhs + tol if sense == "<=" else
                  lhs >= rhs - tol)
            if not ok:
                violated.append(name)
        return violated

    def objective_value(self, values: dict[str, float]) -> float:
        return sum(c * values.get(v, 0.0) for v, c in self.objective.items())

    def to_lp_text(self) -> str:
        def term(coef, var):
            sign = "-" if coef < 0 else "+"
            return f"{sign} {abs(coef):.12g} {var}"

        lines = ["Minimize", " obj: " + " ".join(
            term(c, v) for v, c in sorted(self.objective.items()) if c != 0.0).lstrip("+ ")]
        lines.append("Subject To")
        for name, coeffs, sense, rhs in self.constraints:
            body = " ".join(term(c, v) for v, c in sorted(coeffs.items()) if c != 0.0).lstrip("+ ")
            op = {"=": "=", "<=": "<=", ">=": ">="}[sense]
            lines.append(f" {name}: {body} {op} {rhs:.12g}")
        lines.append("Bounds")
        for v in self.continuous:
            lines.append(f" 0 <= {v}")
        lines.append("Binaries")
        for i in range(0, len(self.binaries), 8):
            lines.append(" " + " ".join(self.binaries[i:i + 8]))
        lines.append("End")
        return "\n".join(lines) + "\n"


def _yvar(s: int) -> str:
    return f"y_{s}"


def _xvar(s: int, s2: int) -> str:
    return f"x_{s}_{s2}"


def _ninvar(t: int, s: int) -> str:
    return f"ynin_{t}_{s}"


def _vehicle_edges(roadmap: Roadmap, veh_id: int):
    """Permitted (from, to, cost, x-variable name) edges of a vehicle."""
    locals_ = [s for s in roadmap.nodes if s.vehicle == veh_id]
    for a, row in zip(locals_, roadmap.cost_lists[veh_id]):
        for b, c in zip(locals_, row):
            if math.isfinite(c):
                yield a.id, b.id, c, _xvar(a.id, b.id)


def export_milp(roadmap: Roadmap, alpha: float | None = None) -> MilpModel:
    """Build the assignment/degree model over the roadmap.

    The objective blends the mean vehicle cost with a continuous variable z
    bounded below by every per-vehicle cost.  Coverage uses a sum over the
    task's own nodes plus its crossing-node indicators; NIN indicators are
    tied to node choices by equalities.  Subtour rows are left to lazy
    separation.
    """
    inst = roadmap.instance
    if alpha is None:
        alpha = inst.alpha
    m = inst.n_vehicles
    objective: dict[str, float] = {}
    constraints: list[tuple[str, dict[str, float], str, float]] = []
    binaries: list[str] = []

    for s in roadmap.nodes:
        binaries.append(_yvar(s.id))
    edges: dict[int, list[tuple[int, int, float, str]]] = {}
    for veh in inst.vehicles:
        edges[veh.id] = list(_vehicle_edges(roadmap, veh.id))
        binaries.extend(x for _, _, _, x in edges[veh.id])
    for t, nodes in roadmap.nin_task_to_nodes.items():
        for s in sorted(nodes):
            binaries.append(_ninvar(t, s))

    for veh in inst.vehicles:
        for _, _, c, x in edges[veh.id]:
            objective[x] = alpha * c / m
    objective["z"] = 1.0 - alpha

    # z >= Cost_k for every vehicle
    for veh in inst.vehicles:
        row = {x: c for _, _, c, x in edges[veh.id]}
        row["z"] = -1.0
        constraints.append((f"maxcost_v{veh.id}", row, "<=", 0.0))

    # crossing indicators track node choices
    for t in sorted(roadmap.nin_task_to_nodes):
        for s in sorted(roadmap.nin_task_to_nodes[t]):
            constraints.append(
                (f"nin_t{t}_s{s}", {_ninvar(t, s): 1.0, _yvar(s): -1.0}, "=", 0.0))

    # every task covered directly or by a crossing node
    for task in inst.tasks:
        row: dict[str, float] = {}
        for veh in inst.vehicles:
            for s in roadmap.cluster_nodes(veh.id, task.id):
                row[_yvar(s.id)] = 1.0
        for s in sorted(roadmap.nin_task_to_nodes[task.id]):
            row[_ninvar(task.id, s)] = 1.0
        constraints.append((f"cover_t{task.id}", row, ">=", 1.0))

    # exactly one depot and one terminal node per vehicle
    for veh in inst.vehicles:
        for cluster, tag in ((DEPOT, "depot"), (TERMINAL, "terminal")):
            row = {_yvar(s.id): 1.0 for s in roadmap.cluster_nodes(veh.id, cluster)}
            constraints.append((f"choose_{tag}_v{veh.id}", row, "=", 1.0))

    # degree rows for the open depot-to-terminal topology
    out_of: dict[int, dict[str, float]] = {}
    into: dict[int, dict[str, float]] = {}
    for veh in inst.vehicles:
        for a, b, _, x in edges[veh.id]:
            out_of.setdefault(a, {})[x] = 1.0
            into.setdefault(b, {})[x] = 1.0
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
    """An integral candidate: chosen nodes, edges and crossing indicators."""

    y: dict[int, int]
    x: dict[tuple[int, int], int]
    y_nin: dict[tuple[int, int], int]

    @staticmethod
    def from_tourset(tourset: TourSet, roadmap: Roadmap) -> "RelaxedSolution":
        y = {s.id: 0 for s in roadmap.nodes}
        x: dict[tuple[int, int], int] = {}
        for tour in tourset.tours:
            for nid in tour:
                y[nid] = 1
            for a, b in zip(tour, tour[1:]):
                x[(a, b)] = 1
        y_nin = {}
        for t, nodes in roadmap.nin_task_to_nodes.items():
            for s in nodes:
                y_nin[(t, s)] = y[s]
        return RelaxedSolution(y, x, y_nin)

    def as_var_values(self, roadmap: Roadmap, z: float | None = None) -> dict[str, float]:
        values = {_yvar(s): float(v) for s, v in self.y.items()}
        for (a, b), v in self.x.items():
            values[_xvar(a, b)] = float(v)
        for (t, s), v in self.y_nin.items():
            values[_ninvar(t, s)] = float(v)
        if z is not None:
            values["z"] = z
        return values


def find_subtours(relaxed: RelaxedSolution, roadmap: Roadmap) -> list[tuple[int, ...]]:
    """Separation pass over an integral candidate.

    Walks each vehicle's chain from its chosen depot node, ticking off the
    tasks it visits and the tasks those nodes necessarily cross.  If tasks
    remain, every closed x-path through a remaining task is returned; an
    empty list certifies the candidate connected and covering.
    """
    node_by_id = roadmap.node_by_id
    succ: dict[int, int] = {}
    for (a, b), v in relaxed.x.items():
        if v not in (0, 1):
            raise MalformedSolutionError(f"fractional edge value x[{a},{b}] = {v}")
        if v == 1:
            if a in succ:
                raise MalformedSolutionError(f"node {a} has two outgoing selected edges")
            succ[a] = b

    unvisited = {t.id for t in roadmap.instance.tasks}
    walked: set[int] = set()
    for veh in roadmap.instance.vehicles:
        depot_nodes = [s for s in roadmap.cluster_nodes(veh.id, DEPOT) if relaxed.y.get(s.id)]
        if len(depot_nodes) != 1:
            raise MalformedSolutionError(
                f"vehicle {veh.id}: expected exactly one chosen depot node, got {len(depot_nodes)}")
        cur = depot_nodes[0].id
        walked.add(cur)
        steps = 0
        while True:
            if cur not in succ:
                if node_by_id[cur].cluster == TERMINAL:
                    break
                raise MalformedSolutionError(
                    f"vehicle {veh.id}: walk stalls at node {cur} before a terminal")
            cur = succ[cur]
            walked.add(cur)
            steps += 1
            if steps > len(roadmap.nodes):
                raise MalformedSolutionError(f"vehicle {veh.id}: walk never reaches a terminal")
            cluster = node_by_id[cur].cluster
            if cluster == TERMINAL:
                break
            unvisited.discard(cluster)
            for t in roadmap.nin_node_to_tasks[cur]:
                if relaxed.y_nin.get((t, cur), 0) == 1:
                    unvisited.discard(t)

    if not unvisited:
        return []

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
        if any(node_by_id[nid].cluster in unvisited for nid in cycle):
            pivot = cycle.index(min(cycle))
            subtours.append(tuple(cycle[pivot:] + cycle[:pivot]))
    return subtours


def subtour_cut_rows(subtours, roadmap: Roadmap) -> list[tuple[str, dict[str, float], str, float]]:
    """One generalized cut row per (cycle, member node): crossing edges >= 2y."""
    rows = []
    for cycle in subtours:
        cyc = set(cycle)
        veh = roadmap.node_by_id[cycle[0]].vehicle
        locals_ = [s for s in roadmap.nodes if s.vehicle == veh]
        mat = roadmap.cost[veh]
        for s in cycle:
            row: dict[str, float] = {}
            li = roadmap.local_index[s]
            for other in locals_:
                if other.id in cyc:
                    continue
                lo = roadmap.local_index[other.id]
                if math.isfinite(mat[lo, li]):
                    row[_xvar(other.id, s)] = 1.0
                if math.isfinite(mat[li, lo]):
                    row[_xvar(s, other.id)] = 1.0
            row[_yvar(s)] = -2.0
            rows.append((f"cut_{'_'.join(map(str, cycle))}_s{s}", row, ">=", 0.0))
    return rows


def cut_rows_text(rows) -> str:
    """One Eq-style cut row per line, ready to append to a model by hand."""
    def term(coef, var):
        sign = "-" if coef < 0 else "+"
        return f"{sign} {abs(coef):.12g} {var}"

    lines = []
    for name, coeffs, sense, rhs in rows:
        body = " ".join(term(c, v) for v, c in sorted(coeffs.items()) if c != 0.0).lstrip("+ ")
        lines.append(f"{name}: {body} {sense} {rhs:.12g}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Brute force


def enumeration_size(n_tasks: int, n_vehicles: int, samples: int) -> float:
    """Exact leaf count: ordered task lists per vehicle times sample choices."""
    total = 0.0
    for j in range(n_tasks + 1):
        total += (math.comb(n_tasks, j) * math.factorial(j)
                  * math.comb(j + n_vehicles - 1, n_vehicles - 1) * samples ** j)
    return total


def solve_bruteforce(roadmap: Roadmap, leaf_limit: float = 1e8) -> TourSet:
    """Exact minimizer over every assignment, sample choice and visit order.

    Tasks may be left unassigned only when a visited node necessarily
    crosses them.  Deterministic: ties break toward the lexicographically
    smallest tour encoding.  Raises :class:`SizeLimitError` when the
    enumeration bound exceeds ``leaf_limit``.
    """
    inst = roadmap.instance
    bound = enumeration_size(inst.n_tasks, inst.n_vehicles, inst.samples_per_cluster)
    if bound > leaf_limit:
        raise SizeLimitError(f"enumeration needs ~{bound:.3g} leaves > limit {leaf_limit:.3g}")

    veh_ids = [v.id for v in inst.vehicles]
    m = len(veh_ids)
    task_ids = [t.id for t in inst.tasks]
    nin_of = roadmap.nin_node_to_tasks
    # the enumeration fixes each tour's ends, so each end cluster needs one node
    for k in veh_ids:
        for cluster, name in ((DEPOT, "depot"), (TERMINAL, "terminal")):
            count = len(roadmap.cluster_ids[(k, cluster)])
            if count != 1:
                raise ValueError(f"vehicle {k}: {name} cluster holds {count} nodes, "
                                 "the exact solver needs exactly one")
    depot = {k: roadmap.cluster_ids[(k, DEPOT)][0] for k in veh_ids}
    term = {k: roadmap.cluster_ids[(k, TERMINAL)][0] for k in veh_ids}

    best: list = [math.inf, None]  # objective, TourSet

    def consider(tours):
        ts = TourSet.from_tours(tours, roadmap)
        obj = ts.objective
        if obj < best[0] - 1e-12 or (abs(obj - best[0]) <= 1e-12 and
                                     (best[1] is None or ts.tours < best[1].tours)):
            best[0] = obj
            best[1] = ts

    def orders(tours, partial_costs, vi, remaining):
        """Extend vehicle vi's tour with every order of its remaining tasks."""
        if not remaining:
            if vi == m - 1:
                consider([t + [term[k]] for t, k in zip(tours, veh_ids)])
            else:
                orders(tours, partial_costs, vi + 1, assignment[vi + 1])
            return
        k = veh_ids[vi]
        tour = tours[vi]
        for node in sorted(remaining):
            step = roadmap.edge_cost(k, tour[-1], node)
            partial_costs[vi] += step
            # blended objective only grows as legs append, so prune on it
            lower = evaluate(partial_costs, inst.alpha, m)
            if lower < best[0] + 1e-12:
                tour.append(node)
                remaining.remove(node)
                orders(tours, partial_costs, vi, remaining)
                remaining.add(node)
                tour.pop()
            partial_costs[vi] -= step
        return

    assignment: list[set[int]] = [set() for _ in veh_ids]

    def assign(idx: int, chosen_nodes: list[int]):
        if idx == len(task_ids):
            covered = set()
            for nid in chosen_nodes:
                covered.update(nin_of[nid])
            direct = {roadmap.node_by_id[nid].cluster for nid in chosen_nodes}
            if any(t not in covered and t not in direct for t in skipped):
                return
            tours = [[depot[k]] for k in veh_ids]
            partial = [0.0] * m
            orders(tours, partial, 0, assignment[0])
            return
        t = task_ids[idx]
        # option: leave the task to indirect coverage
        skipped.append(t)
        assign(idx + 1, chosen_nodes)
        skipped.pop()
        for vi, k in enumerate(veh_ids):
            for nid in roadmap.cluster_ids[(k, t)]:
                assignment[vi].add(nid)
                chosen_nodes.append(nid)
                assign(idx + 1, chosen_nodes)
                chosen_nodes.pop()
                assignment[vi].discard(nid)

    skipped: list[int] = []
    assign(0, [])

    return best[1]
