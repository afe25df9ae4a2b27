"""Continuous post-optimization of entry states along fixed tours.

The discrete solver commits to sampled poses; this stage keeps each
vehicle's visiting sequence and re-optimizes the continuous entry state
for every task on the route (including tasks only crossed en passant),
plus the free depot/terminal headings.  States are optimized one at a
time with their neighbours held fixed, alternating over odd- and
even-indexed states, until the relative cost improvement of a full sweep
drops below the convergence threshold.

The per-state subproblem is nonsmooth (Dubins word switches), so a
derivative-free simplex search with a few heading restarts is used and
moves are only ever accepted on strict improvement.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .geometry import Config, Disk, dubins_shortest_path, sample_path
from .instance import VehicleSpec
from .memetic import TourSet, evaluate
from .roadmap import DEPOT, Roadmap, service_disks


class RefineError(RuntimeError):
    """A task claimed as crossed is never entered by the densified path."""


#: Path densification step, as a fraction of the turn radius.
ENTRY_SPACING_FRACTION = 1.0 / 50.0

#: Heading restarts for each single-state search (offsets from current).
HEADING_RESTARTS = (0.0, math.pi / 4.0, -math.pi / 4.0, math.pi)

#: A sweep that lowers the total cost by less than this share has converged.
CONVERGENCE_THRESHOLD = 1e-4

#: Heading edge of each initial simplex, in radians.
SIMPLEX_HEADING_STEP = 0.6

#: Cost evaluations allowed per simplex search.
MAX_EVALUATIONS = 80


@dataclass
class ChainState:
    """One optimizable state: an endpoint heading or an in-disk task pose."""

    cluster: int  # task id, DEPOT or TERMINAL
    config: Config
    disk: Disk | None = None  # feasible region; None for fixed-position endpoints

    @property
    def kind(self) -> str:
        """``"task"``, ``"depot"`` or ``"terminal"``, read from ``cluster``."""
        return "task" if self.cluster > 0 else "depot" if self.cluster == DEPOT else "terminal"


@dataclass
class WaypointChain:
    """Ordered states of one vehicle: depot, its tasks in visit order, terminal."""

    vehicle_id: int
    states: list[ChainState]


@dataclass
class RefineParams:
    max_sweeps: int = 100


@dataclass
class RefineResult:
    chains: list[WaypointChain]
    per_chain_cost: list[float]
    #: sweeps begun; a time limit may end the last one after its first half
    sweeps: int
    #: "converged" (a sweep gained too little), "max_sweeps" or "time_limit"
    stop_reason: str
    #: total cost before refinement, then after every half-sweep
    cost_trace: list[float] = field(default_factory=list)


def _leg_cost(a: Config, b: Config, veh: VehicleSpec, metric: str) -> float:
    length = dubins_shortest_path(a, b, veh.r_min).length
    return length / veh.velocity if metric == "time" else length


def chain_cost(chain: WaypointChain, veh: VehicleSpec, metric: str) -> float:
    states = chain.states
    return sum(_leg_cost(states[i].config, states[i + 1].config, veh, metric)
               for i in range(len(states) - 1))


def build_chain(tourset: TourSet, roadmap: Roadmap) -> list[WaypointChain]:
    """Waypoint chains for every vehicle that serves at least one task.

    Directly visited tasks contribute their sample pose.  A task with no
    node left in any tour is attached to the first vehicle whose densified
    path enters its service disk, at the pose of first entry; if no path
    enters, the crossing bookkeeping and the geometry disagree and
    :class:`RefineError` is raised.  A task state's region is that disk.
    """
    inst = roadmap.instance
    nodes = roadmap.nodes
    disks = service_disks(inst)
    direct = {nodes[nid].cluster for tour in tourset.tours for nid in tour[1:-1]}
    unplaced = [t.id for t in inst.tasks if t.id not in direct]

    out: list[WaypointChain] = []
    for veh, tour in zip(inst.vehicles, tourset.tours):
        if len(tour) <= 2:
            continue
        disk_of = disks[veh.id]
        states = [ChainState(nodes[tour[0]].cluster, nodes[tour[0]].config)]
        for a, b in zip(tour, tour[1:]):
            # densify the leg once; every task not yet placed goes to its first entry
            path = dubins_shortest_path(nodes[a].config, nodes[b].config, veh.r_min)
            poses = sample_path(path, veh.r_min * ENTRY_SPACING_FRACTION)
            pts = np.array([[c.x, c.y] for c in poses])
            entries = []
            for t in list(unplaced):
                (cx, cy), radius = disk_of[t].center, disk_of[t].radius
                inside = np.nonzero(np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) <= radius + 1e-9)[0]
                if inside.size:
                    entries.append((int(inside[0]), t))
                    unplaced.remove(t)
            for step, t in sorted(entries, key=lambda e: e[0]):
                states.append(ChainState(t, poses[step], disk_of[t]))
            node_b = nodes[b]
            if node_b.cluster > 0:
                states.append(ChainState(node_b.cluster, node_b.config, disk_of[node_b.cluster]))
        states.append(ChainState(nodes[tour[-1]].cluster, nodes[tour[-1]].config))
        out.append(WaypointChain(veh.id, states))
    if unplaced:
        raise RefineError(
            f"task {unplaced[0]} is claimed crossed but no tour path enters its disk")
    return out


def _project(disk: Disk, x: float, y: float) -> tuple[float, float]:
    dx, dy = x - disk.center[0], y - disk.center[1]
    d = math.hypot(dx, dy)
    if d <= disk.radius:
        return x, y
    f = disk.radius / d
    return disk.center[0] + f * dx, disk.center[1] + f * dy


def minimize(fun, simplex):
    """Nelder–Mead search from ``simplex`` (n + 1 vertices); the best (vertex, cost).

    The steps are those of ``scipy.optimize.minimize(method="Nelder-Mead")``,
    with a stable sort by cost.  It ends once vertices and costs agree within
    1e-7 and 1e-10, or partway through a step once ``MAX_EVALUATIONS`` costs are spent.
    """
    budget = iter(range(MAX_EVALUATIONS))

    def point(x):  # (cost, vertex); StopIteration once the budget is spent
        next(budget)
        return fun(x), x

    def blend(a, u, b, w):
        return [a * p + b * q for p, q in zip(u, w)]

    pts = [point(list(v)) for v in simplex]
    try:
        while True:
            pts.sort(key=lambda pt: pt[0])
            (f0, best), (fw, worst) = pts[0], pts[-1]
            if (all(abs(p - q) <= 1e-7 for _, v in pts[1:] for p, q in zip(v, best))
                    and all(abs(f0 - c) <= 1e-10 for c, _ in pts[1:])):
                return best, f0
            xbar = reduce(lambda u, w: blend(1.0, u, 1.0, w), [v for _, v in pts[:-1]])
            xbar = [p / len(best) for p in xbar]
            r = point(blend(2.0, xbar, -1.0, worst))
            if r[0] < f0:
                e = point(blend(3.0, xbar, -2.0, worst))
                pts[-1] = e if e[0] < r[0] else r
            elif r[0] < pts[-2][0]:
                pts[-1] = r
            else:
                outside = r[0] < fw  # contract outside the worst vertex, else inside
                a, b = (1.5, -0.5) if outside else (0.5, 0.5)
                c = point(blend(a, xbar, b, worst))
                if (c[0] <= r[0]) if outside else (c[0] < fw):
                    pts[-1] = c
                else:  # shrink towards the best vertex
                    for j in range(1, len(pts)):
                        pts[j] = point([q + 0.5 * (p - q) for p, q in zip(pts[j][1], best)])
    except StopIteration:
        cost, best = min(pts, key=lambda pt: pt[0])
        return best, cost


def _optimize_state(chain: WaypointChain, idx: int, veh: VehicleSpec, metric: str) -> None:
    """Minimize the legs touching state ``idx``; accept only strict gains."""
    states = chain.states
    state = states[idx]
    prev = states[idx - 1].config if idx > 0 else None
    nxt = states[idx + 1].config if idx < len(states) - 1 else None
    cur_cfg = state.config
    is_task = state.kind == "task"

    def config_of(v):  # a task's pose stays in its disk; an endpoint only turns
        if is_task:
            return Config(*_project(state.disk, v[0], v[1]), v[2])
        return Config(cur_cfg.x, cur_cfg.y, v[0])

    def cost_of(cfg):
        return ((_leg_cost(prev, cfg, veh, metric) if prev is not None else 0.0)
                + (_leg_cost(cfg, nxt, veh, metric) if nxt is not None else 0.0))

    best_cost, best_cfg = cost_of(cur_cfg), cur_cfg
    for off in HEADING_RESTARTS:
        if is_task:
            step = max(state.disk.radius * 0.5, 1e-3)
            x0 = [cur_cfg.x, cur_cfg.y, cur_cfg.theta + off]
            edges = [(step, 0.0, 0.0), (0.0, step, 0.0), (0.0, 0.0, SIMPLEX_HEADING_STEP)]
        else:
            x0, edges = [cur_cfg.theta + off], [(SIMPLEX_HEADING_STEP,)]
        simplex = [x0] + [[p + q for p, q in zip(x0, e)] for e in edges]
        v, cost = minimize(lambda v: cost_of(config_of(v)), simplex)
        if cost < best_cost:
            best_cost, best_cfg = cost, config_of(v)

    if best_cfg is not cur_cfg:
        states[idx] = replace(state, config=best_cfg)


def refine(chains: list[WaypointChain], vehicles: list[VehicleSpec],
           params: RefineParams | None = None, cost_metric: str = "length",
           time_limit_s: float | None = None) -> RefineResult:
    """Alternating coordinate descent until the sweep gain falls below threshold.

    Each sweep optimizes every odd-indexed state of every chain with its
    neighbours fixed, then every even-indexed state.  Costs never increase;
    iteration stops when one full sweep improves the total by less than
    ``CONVERGENCE_THRESHOLD`` (relative) or ``max_sweeps`` is reached.
    With ``time_limit_s``, the clock starts at the call and is read before
    every half-sweep; once the budget is spent, the chains are returned as
    the finished half-sweeps left them.
    """
    if params is None:
        params = RefineParams()
    t0 = time.monotonic()
    specs = {v.id: v for v in vehicles}
    chains = [WaypointChain(c.vehicle_id, list(c.states)) for c in chains]

    def chain_costs():
        return [chain_cost(c, specs[c.vehicle_id], cost_metric) for c in chains]

    costs = chain_costs()
    trace = [sum(costs)]
    reason = "max_sweeps"
    half_sweeps = 0
    while half_sweeps < 2 * params.max_sweeps:
        if time_limit_s is not None and time.monotonic() - t0 >= time_limit_s:
            reason = "time_limit"
            break
        parity = 1 - half_sweeps % 2  # odd-indexed states first, then even
        for chain in chains:
            veh = specs[chain.vehicle_id]
            for idx in range(parity, len(chain.states), 2):
                _optimize_state(chain, idx, veh, cost_metric)
        costs = chain_costs()
        trace.append(sum(costs))
        half_sweeps += 1
        if half_sweeps % 2 == 0:
            before = trace[-3]  # the total when this sweep began
            if before - trace[-1] < CONVERGENCE_THRESHOLD * max(before, 1e-12):
                reason = "converged"
                break
    return RefineResult(chains, costs, (half_sweeps + 1) // 2, reason, trace)


def refined_vehicle_costs(result: RefineResult, tourset: TourSet) -> list[float]:
    """Per-vehicle cost after refinement: the chain cost where the vehicle
    has a chain, the node-tour cost where it has none (an empty tour)."""
    refined = {c.vehicle_id: cost for c, cost in zip(result.chains, result.per_chain_cost)}
    return [refined.get(k, cost) for k, cost in enumerate(tourset.per_vehicle_cost, start=1)]


def refined_objective(result: RefineResult, tourset: TourSet, alpha: float, m: int) -> float:
    """Objective after refinement: refined chains plus untouched empty tours.
    ``m`` is unread, as the blend averages the per-vehicle costs; it stays for
    callers that pass it positionally."""
    return evaluate(refined_vehicle_costs(result, tourset), alpha)
