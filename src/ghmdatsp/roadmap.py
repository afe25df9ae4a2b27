"""Sampling-based roadmap: per-vehicle node clusters, costs, NIN tables.

Every vehicle gets its own sample nodes; no node or edge is shared across
vehicles.  For each vehicle the permitted edge topology encodes an open
tour from its depot node to its terminal node:

    depot -> {task nodes, terminal}
    task  -> {task nodes of other clusters, terminal}

with no self loops, no intra-cluster edges, no edges out of the terminal
and none into the depot.  Costs are Dubins shortest-path lengths at the
vehicle's turn radius (divided by speed under the ``time`` metric), so the
matrix is genuinely asymmetric.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Config, Disk, dubins_lengths, nin_check
# unused here, but benchmark/tracing.py patches roadmap.dubins_shortest_path by name
from .geometry import dubins_shortest_path  # noqa: F401
from .instance import Instance

#: Cluster markers for the two endpoint clusters of each vehicle.
DEPOT = -1
TERMINAL = -2

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SampleNode:
    """One candidate pose: global id, owning vehicle, cluster, 1-based index."""

    id: int
    vehicle: int
    cluster: int  # task id, DEPOT or TERMINAL
    index_in_cluster: int
    config: Config

    @property
    def is_task(self) -> bool:
        return self.cluster > 0


def generate_samples(instance: Instance, seed: int | None = None) -> list[SampleNode]:
    """Draw the sample nodes for every (vehicle, cluster) pair.

    Task-cluster positions are uniform over the task disk with uniform
    headings; each depot/terminal cluster holds exactly one node at the
    fixed position with a seeded random heading.  Deterministic per seed.
    """
    if instance.samples_per_cluster < 1:
        raise ValueError("samples_per_cluster must be >= 1")
    rng = np.random.default_rng(instance.seed if seed is None else seed)
    nodes: list[SampleNode] = []
    nid = 0
    for veh in instance.vehicles:
        nodes.append(SampleNode(nid, veh.id, DEPOT, 1,
                                Config(veh.depot[0], veh.depot[1], rng.uniform(0.0, TWO_PI))))
        nid += 1
        nodes.append(SampleNode(nid, veh.id, TERMINAL, 1,
                                Config(veh.terminal[0], veh.terminal[1], rng.uniform(0.0, TWO_PI))))
        nid += 1
        for task in instance.tasks:
            for i in range(instance.samples_per_cluster):
                rad = task.radius * math.sqrt(rng.uniform(0.0, 1.0))
                ang = rng.uniform(0.0, TWO_PI)
                cfg = Config(task.center[0] + rad * math.cos(ang),
                             task.center[1] + rad * math.sin(ang),
                             rng.uniform(0.0, TWO_PI))
                nodes.append(SampleNode(nid, veh.id, task.id, i + 1, cfg))
                nid += 1
    return nodes


#: Rows of a cost table evaluated per kernel call; keeps the temporaries small.
COST_BLOCK_ROWS = 32


def build_cost_matrix(nodes: list[SampleNode], instance: Instance) -> dict[int, np.ndarray]:
    """Dense per-vehicle cost tables over the permitted topology.

    Entry [i, j] is the cost from the vehicle's i-th local node to its
    j-th; forbidden pairs hold +inf.  Local order follows global node ids.
    """
    metric_time = instance.cost_metric == "time"
    matrices: dict[int, np.ndarray] = {}
    for veh in instance.vehicles:
        locals_ = [s for s in nodes if s.vehicle == veh.id]
        x = np.array([s.config.x for s in locals_])
        y = np.array([s.config.y for s in locals_])
        th = np.array([s.config.theta for s in locals_])
        cluster = np.array([s.cluster for s in locals_])
        mat = np.empty((len(locals_), len(locals_)))
        for lo in range(0, len(locals_), COST_BLOCK_ROWS):
            rows = slice(lo, lo + COST_BLOCK_ROWS)
            mat[rows] = dubins_lengths(x[rows, None], y[rows, None], th[rows, None],
                                       x, y, th, veh.r_min)
        if metric_time:
            mat /= veh.velocity
        # same cluster covers the diagonal
        forbidden = ((cluster[:, None] == cluster[None, :])
                     | (cluster == TERMINAL)[:, None] | (cluster == DEPOT)[None, :])
        mat[forbidden] = np.inf
        matrices[veh.id] = mat
    return matrices


def build_nin_tables(
    nodes: list[SampleNode], instance: Instance
) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """Necessarily-intersected task sets for every node and their inverses.

    For a task-cluster node s of vehicle k, task t != cluster(s) lands in
    the node's set exactly when both turning circles at s (radius r_min of
    k) intersect the disk around t with vehicle k's sensing range.
    Depot/terminal nodes get empty sets.
    """
    task_to_nodes: dict[int, set[int]] = {t.id: set() for t in instance.tasks}
    node_to_tasks: dict[int, set[int]] = {}
    specs = {v.id: v for v in instance.vehicles}
    for s in nodes:
        covered: set[int] = set()
        if s.is_task:
            veh = specs[s.vehicle]
            for task in instance.tasks:
                if task.id == s.cluster:
                    continue
                if nin_check(s.config, veh.r_min, Disk(task.center, veh.sensing_range)):
                    covered.add(task.id)
                    task_to_nodes[task.id].add(s.id)
        node_to_tasks[s.id] = covered
    return task_to_nodes, node_to_tasks


@dataclass
class Roadmap:
    """Immutable bundle of an instance's nodes, costs and NIN tables."""

    instance: Instance
    nodes: list[SampleNode]
    cost: dict[int, np.ndarray]
    nin_task_to_nodes: dict[int, set[int]]
    nin_node_to_tasks: dict[int, set[int]]
    node_by_id: dict[int, SampleNode] = field(init=False)
    local_index: dict[int, int] = field(init=False)
    clusters: dict[tuple[int, int], list[SampleNode]] = field(init=False)
    cluster_ids: dict[tuple[int, int], list[int]] = field(init=False)
    ids_by_vehicle: dict[int, dict[int, list[int]]] = field(init=False)
    vehicle_ids: tuple[int, ...] = field(init=False)
    cost_lists: dict[int, list[list[float]]] = field(init=False)

    def __post_init__(self):
        self.vehicle_ids = tuple(v.id for v in self.instance.vehicles)
        self.node_by_id = {s.id: s for s in self.nodes}
        self.local_index = {}
        self.clusters = {}
        counters: dict[int, int] = {}
        for s in self.nodes:
            self.local_index[s.id] = counters.get(s.vehicle, 0)
            counters[s.vehicle] = counters.get(s.vehicle, 0) + 1
            self.clusters.setdefault((s.vehicle, s.cluster), []).append(s)
        for members in self.clusters.values():
            members.sort(key=lambda s: s.index_in_cluster)
        self.cluster_ids = {key: [s.id for s in members] for key, members in self.clusters.items()}
        self.ids_by_vehicle = {}
        for (veh, cluster), ids in self.cluster_ids.items():
            self.ids_by_vehicle.setdefault(veh, {})[cluster] = ids
        # plain nested lists beat numpy scalar indexing in the hot loops
        self.cost_lists = {k: m.tolist() for k, m in self.cost.items()}

    @property
    def n_tasks(self) -> int:
        return self.instance.n_tasks

    @property
    def n_vehicles(self) -> int:
        return self.instance.n_vehicles

    def cluster_nodes(self, vehicle: int, cluster: int) -> list[SampleNode]:
        return self.clusters[(vehicle, cluster)]

    def node(self, vehicle: int, cluster: int, index_in_cluster: int) -> SampleNode:
        return self.clusters[(vehicle, cluster)][index_in_cluster - 1]

    def edge_cost(self, vehicle: int, a: int, b: int) -> float:
        """Cost between two global node ids of the same vehicle."""
        return self.cost_lists[vehicle][self.local_index[a]][self.local_index[b]]

    def tour_cost(self, vehicle: int, node_ids: list[int]) -> float:
        """Sum of edge costs along an ordered node-id sequence."""
        cl = self.cost_lists[vehicle]
        li = self.local_index
        total = 0.0
        prev = li[node_ids[0]]
        for nid in node_ids[1:]:
            cur = li[nid]
            total += cl[prev][cur]
            prev = cur
        return total

    def to_debug_json(self) -> str:
        """Diagnostic dump: nodes, NIN tables, cost checksum."""
        digest = hashlib.sha256()
        for veh_id in sorted(self.cost):
            digest.update(np.ascontiguousarray(self.cost[veh_id]).tobytes())
        doc = {
            "n_tasks": self.n_tasks,
            "n_vehicles": self.n_vehicles,
            "nodes": [
                {
                    "id": s.id,
                    "vehicle": s.vehicle,
                    "cluster": s.cluster,
                    "index": s.index_in_cluster,
                    "config": [s.config.x, s.config.y, s.config.theta],
                }
                for s in self.nodes
            ],
            "nin_task_to_nodes": {str(t): sorted(v) for t, v in self.nin_task_to_nodes.items()},
            "nin_node_to_tasks": {str(s): sorted(v) for s, v in self.nin_node_to_tasks.items()},
            "cost_checksum": digest.hexdigest(),
        }
        return json.dumps(doc, sort_keys=True)


def build_roadmap(instance: Instance, seed: int | None = None) -> Roadmap:
    """Generate samples, costs and NIN tables for ``instance``."""
    instance.validate()
    nodes = generate_samples(instance, seed)
    cost = build_cost_matrix(nodes, instance)
    if instance.nin_enabled:
        s_nin, t_nin = build_nin_tables(nodes, instance)
    else:
        s_nin = {t.id: set() for t in instance.tasks}
        t_nin = {s.id: set() for s in nodes}
    return Roadmap(instance, nodes, cost, s_nin, t_nin)
