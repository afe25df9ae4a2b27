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
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .geometry import Config, Disk, dubins_shortest_path, sample_path
from .instance import VehicleSpec
from .memetic import TourSet, evaluate
from .roadmap import Roadmap


class RefineError(RuntimeError):
    """A task claimed as crossed is never entered by the densified path."""


#: Path densification step, as a fraction of the turn radius.
ENTRY_SPACING_FRACTION = 1.0 / 50.0

#: Heading restarts for each single-state search (offsets from current).
HEADING_RESTARTS = (0.0, math.pi / 4.0, -math.pi / 4.0, math.pi)


@dataclass
class ChainState:
    """One optimizable state: an endpoint heading or an in-disk task pose."""

    kind: str  # "depot", "task" or "terminal"
    cluster: int
    config: Config
    disk: Disk | None = None  # feasible region; None for fixed-position endpoints
    direct: bool = True  # False when the task is only crossed, not sampled


@dataclass
class WaypointChain:
    """Ordered states of one vehicle: depot, its tasks in visit order, terminal."""

    vehicle_id: int
    states: list[ChainState]

    def clusters(self) -> list[int]:
        return [s.cluster for s in self.states if s.kind == "task"]


@dataclass
class RefineParams:
    convergence_threshold: float = 1e-4  # relative cost change per sweep
    max_sweeps: int = 100
    simplex_heading_step: float = 0.6
    max_evaluations: int = 80

    def __post_init__(self):
        if self.convergence_threshold <= 0.0:
            raise ValueError("convergence_threshold must be positive")


@dataclass
class RefineResult:
    chains: list[WaypointChain]
    per_chain_cost: list[float]
    sweeps: int
    converged: bool
    #: total cost before refinement, then after every half-sweep
    cost_trace: list[float] = field(default_factory=list)


def _leg_cost(a: Config, b: Config, veh: VehicleSpec, metric: str) -> float:
    length = dubins_shortest_path(a, b, veh.r_min).length
    return length / veh.velocity if metric == "time" else length


def chain_cost(chain: WaypointChain, veh: VehicleSpec, metric: str = "length") -> float:
    states = chain.states
    return sum(_leg_cost(states[i].config, states[i + 1].config, veh, metric)
               for i in range(len(states) - 1))


def build_chain(tourset: TourSet, roadmap: Roadmap) -> list[WaypointChain]:
    """Waypoint chains for every vehicle that serves at least one task.

    Directly visited tasks contribute their sample pose.  A task with no
    node left in any tour is attached to the first vehicle whose densified
    path enters its sensing disk, at the pose of first entry; if no path
    enters, the crossing bookkeeping and the geometry disagree and
    :class:`RefineError` is raised.
    """
    inst = roadmap.instance
    node_by_id = roadmap.node_by_id
    specs = {v.id: v for v in inst.vehicles}
    veh_ids = [v.id for v in inst.vehicles]
    task_by_id = {t.id: t for t in inst.tasks}

    direct: set[int] = set()
    for tour in tourset.tours:
        for nid in tour[1:-1]:
            direct.add(node_by_id[nid].cluster)
    indirect = [t.id for t in inst.tasks if t.id not in direct]

    # densify every leg of every non-empty tour once, reused across tasks
    dense: dict[int, list[tuple[np.ndarray, list[Config]]]] = {}
    chains: dict[int, list] = {}
    for vi, tour in enumerate(tourset.tours):
        if len(tour) <= 2:
            continue
        veh = specs[veh_ids[vi]]
        legs = []
        for a, b in zip(tour, tour[1:]):
            path = dubins_shortest_path(node_by_id[a].config, node_by_id[b].config, veh.r_min)
            poses = sample_path(path, veh.r_min * ENTRY_SPACING_FRACTION)
            pts = np.array([[c.x, c.y] for c in poses])
            legs.append((pts, poses))
        dense[vi] = legs
        chains[vi] = [[] for _ in range(len(tour) - 1)]  # insertions per leg

    for t in indirect:
        center = np.array(task_by_id[t].center)
        placed = False
        for vi in sorted(dense):
            veh = specs[veh_ids[vi]]
            radius = veh.sensing_range
            for li, (pts, poses) in enumerate(dense[vi]):
                inside = np.nonzero(np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
                                    <= radius + 1e-9)[0]
                if inside.size:
                    step = int(inside[0])
                    chains[vi][li].append((step, t, poses[step], radius))
                    placed = True
                    break
            if placed:
                break
        if not placed:
            raise RefineError(
                f"task {t} is claimed crossed but no tour path enters its disk")

    out: list[WaypointChain] = []
    for vi, tour in enumerate(tourset.tours):
        if len(tour) <= 2:
            continue
        veh = specs[veh_ids[vi]]
        states = [ChainState("depot", node_by_id[tour[0]].cluster,
                             node_by_id[tour[0]].config)]
        for li, (a, b) in enumerate(zip(tour, tour[1:])):
            for step, t, pose, radius in sorted(chains[vi][li], key=lambda e: e[0]):
                states.append(ChainState("task", t, pose,
                                         Disk(task_by_id[t].center, radius), direct=False))
            node_b = node_by_id[b]
            if node_b.cluster > 0:
                states.append(ChainState("task", node_b.cluster, node_b.config,
                                         Disk(task_by_id[node_b.cluster].center,
                                              task_by_id[node_b.cluster].radius)))
        states.append(ChainState("terminal", node_by_id[tour[-1]].cluster,
                                 node_by_id[tour[-1]].config))
        out.append(WaypointChain(veh.id, states))
    return out


def _project(disk: Disk, x: float, y: float) -> tuple[float, float]:
    dx, dy = x - disk.center[0], y - disk.center[1]
    d = math.hypot(dx, dy)
    if d <= disk.radius:
        return x, y
    f = disk.radius / d
    return disk.center[0] + f * dx, disk.center[1] + f * dy


def _optimize_state(chain: WaypointChain, idx: int, veh: VehicleSpec, metric: str,
                    params: RefineParams) -> bool:
    """Minimize the legs touching state ``idx``; accept only strict gains."""
    states = chain.states
    state = states[idx]
    prev = states[idx - 1].config if idx > 0 else None
    nxt = states[idx + 1].config if idx < len(states) - 1 else None

    if state.kind == "depot":
        def cost_of(cfg):
            return _leg_cost(cfg, nxt, veh, metric)
    elif state.kind == "terminal":
        def cost_of(cfg):
            return _leg_cost(prev, cfg, veh, metric)
    else:
        def cost_of(cfg):
            return _leg_cost(prev, cfg, veh, metric) + _leg_cost(cfg, nxt, veh, metric)

    cur_cfg = state.config
    best_cost = cost_of(cur_cfg)
    best_cfg = cur_cfg
    opts = {"maxfev": params.max_evaluations, "xatol": 1e-7, "fatol": 1e-10}

    if state.kind in ("depot", "terminal"):
        x, y = cur_cfg.x, cur_cfg.y

        def fun(v):
            return cost_of(Config(x, y, v[0]))

        for off in HEADING_RESTARTS:
            th0 = cur_cfg.theta + off
            res = minimize(fun, np.array([th0]), method="Nelder-Mead",
                           options=opts | {"initial_simplex": [[th0], [th0 + params.simplex_heading_step]]})
            if res.fun < best_cost:
                best_cost = res.fun
                best_cfg = Config(x, y, float(res.x[0]))
    else:
        disk = state.disk
        step = max(disk.radius * 0.5, 1e-3)

        def fun(v):
            px, py = _project(disk, v[0], v[1])
            return cost_of(Config(px, py, v[2]))

        for off in HEADING_RESTARTS:
            x0 = np.array([cur_cfg.x, cur_cfg.y, cur_cfg.theta + off])
            simplex = [x0,
                       x0 + [step, 0.0, 0.0],
                       x0 + [0.0, step, 0.0],
                       x0 + [0.0, 0.0, params.simplex_heading_step]]
            res = minimize(fun, x0, method="Nelder-Mead",
                           options=opts | {"initial_simplex": simplex})
            if res.fun < best_cost:
                best_cost = res.fun
                px, py = _project(disk, float(res.x[0]), float(res.x[1]))
                best_cfg = Config(px, py, float(res.x[2]))

    if best_cfg is not cur_cfg:
        states[idx] = ChainState(state.kind, state.cluster, best_cfg, state.disk, state.direct)
        return True
    return False


def refine(chains: list[WaypointChain], vehicles: list[VehicleSpec],
           params: RefineParams | None = None, cost_metric: str = "length") -> RefineResult:
    """Alternating coordinate descent until the sweep gain falls below threshold.

    Each sweep optimizes every odd-indexed state of every chain with its
    neighbours fixed, then every even-indexed state.  Costs never increase;
    iteration stops when one full sweep improves the total by less than
    ``convergence_threshold`` (relative) or ``max_sweeps`` is reached.
    """
    if params is None:
        params = RefineParams()
    specs = {v.id: v for v in vehicles}
    chains = [WaypointChain(c.vehicle_id, list(c.states)) for c in chains]

    def total():
        return sum(chain_cost(c, specs[c.vehicle_id], cost_metric) for c in chains)

    trace = [total()]
    converged = False
    sweeps = 0
    for sweeps in range(1, params.max_sweeps + 1):
        before = trace[-1]
        for parity in (1, 0):  # odd-indexed states first, then even
            for chain in chains:
                veh = specs[chain.vehicle_id]
                for idx in range(parity, len(chain.states), 2):
                    _optimize_state(chain, idx, veh, cost_metric, params)
            trace.append(total())
        now = trace[-1]
        if before - now < params.convergence_threshold * max(before, 1e-12):
            converged = True
            break
    costs = [chain_cost(c, specs[c.vehicle_id], cost_metric) for c in chains]
    return RefineResult(chains, costs, sweeps, converged, trace)


def refined_vehicle_costs(result: RefineResult, tourset: TourSet) -> list[float]:
    """Per-vehicle cost after refinement: the chain cost where the vehicle
    has a chain, the node-tour cost where it has none (an empty tour)."""
    refined = {c.vehicle_id: cost for c, cost in zip(result.chains, result.per_chain_cost)}
    return [refined.get(k, cost) for k, cost in enumerate(tourset.per_vehicle_cost, start=1)]


def refined_objective(result: RefineResult, tourset: TourSet, alpha: float, m: int) -> float:
    """Objective after refinement: refined chains plus untouched empty tours."""
    return evaluate(refined_vehicle_costs(result, tourset), alpha, m)
