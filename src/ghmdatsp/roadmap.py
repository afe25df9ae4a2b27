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


def service_disks(instance: Instance) -> dict[int, dict[int, Disk]]:
    """``{vehicle id: {task id: disk}}``: vehicle k serves task t from the disk
    around t's centre with the smaller of t's radius and k's sensing range.
    Samples, crossings and refined states all read these disks."""
    return {v.id: {t.id: Disk(t.center, min(t.radius, v.sensing_range)) for t in instance.tasks}
            for v in instance.vehicles}


def generate_samples(instance: Instance) -> list[SampleNode]:
    """Draw the sample nodes for every (vehicle, cluster) pair.

    Task-cluster positions are uniform over the vehicle's service disk with
    uniform headings; each depot/terminal cluster holds exactly one node at the
    fixed position with a seeded random heading.  Deterministic per seed.
    """
    rng = np.random.default_rng(instance.seed)
    disks = service_disks(instance)
    nodes: list[SampleNode] = []  # a node's id is its index
    for veh in instance.vehicles:
        for cluster, (x, y) in ((DEPOT, veh.depot), (TERMINAL, veh.terminal)):
            nodes.append(SampleNode(len(nodes), veh.id, cluster, 1,
                                    Config(x, y, rng.uniform(0.0, TWO_PI))))
        for task, disk in disks[veh.id].items():
            for i in range(instance.samples_per_cluster):
                rad = disk.radius * math.sqrt(rng.uniform(0.0, 1.0))
                ang = rng.uniform(0.0, TWO_PI)
                cfg = Config(disk.center[0] + rad * math.cos(ang),
                             disk.center[1] + rad * math.sin(ang),
                             rng.uniform(0.0, TWO_PI))
                nodes.append(SampleNode(len(nodes), veh.id, task, i + 1, cfg))
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


def build_nin_tables(nodes: list[SampleNode], instance: Instance) -> dict[int, set[int]]:
    """Necessarily-intersected task set of every node.

    For a task-cluster node s of vehicle k, task t != cluster(s) lands in
    the node's set exactly when both turning circles at s (radius r_min of
    k) intersect k's service disk of t.
    Depot/terminal nodes get empty sets, and so does every node when the
    instance has crossings off.
    """
    node_to_tasks: dict[int, set[int]] = {s.id: set() for s in nodes}
    if not instance.nin_enabled:
        return node_to_tasks
    # the turn radius and the service disks depend on the vehicle alone
    crossing = {v.id: (v.r_min, list(disks.items()))
                for v, disks in zip(instance.vehicles, service_disks(instance).values())}
    for s in nodes:
        if s.cluster > 0:
            r_min, disks = crossing[s.vehicle]
            node_to_tasks[s.id].update(t for t, disk in disks
                                       if t != s.cluster and nin_check(s.config, r_min, disk))
    return node_to_tasks


@dataclass
class Roadmap:
    """Immutable bundle of an instance's nodes, costs and NIN tables.

    A node's id is its index in ``nodes``.  Raises ``ValueError`` unless
    that holds and every vehicle has exactly one depot node and one
    terminal node.
    """

    instance: Instance
    nodes: list[SampleNode]
    cost: dict[int, np.ndarray]
    nin_node_to_tasks: dict[int, set[int]]
    local_index: dict[int, int] = field(init=False)
    #: node ids of each (vehicle, cluster), in sample order; ``ids_by_vehicle``
    #: nests the same lists by vehicle, then cluster
    cluster_ids: dict[tuple[int, int], list[int]] = field(init=False)
    ids_by_vehicle: dict[int, dict[int, list[int]]] = field(init=False)
    vehicle_ids: tuple[int, ...] = field(init=False)
    cost_lists: dict[int, list[list[float]]] = field(init=False)

    def __post_init__(self):
        self.vehicle_ids = tuple(v.id for v in self.instance.vehicles)
        self.local_index = {}
        counters: dict[int, int] = {}
        for i, s in enumerate(self.nodes):
            if s.id != i:
                raise ValueError(f"node {s.id} sits at index {i}; a node's id must be its index")
            self.local_index[s.id] = counters.get(s.vehicle, 0)
            counters[s.vehicle] = counters.get(s.vehicle, 0) + 1
        self.ids_by_vehicle = {}
        for s in sorted(self.nodes, key=lambda s: s.index_in_cluster):
            self.ids_by_vehicle.setdefault(s.vehicle, {}).setdefault(s.cluster, []).append(s.id)
        self.cluster_ids = {(veh, cluster): ids for veh, by_cluster in self.ids_by_vehicle.items()
                            for cluster, ids in by_cluster.items()}
        for veh in self.vehicle_ids:
            for cluster, name in ((DEPOT, "depot"), (TERMINAL, "terminal")):
                count = len(self.cluster_ids.get((veh, cluster), ()))
                if count != 1:
                    raise ValueError(f"vehicle {veh}: {name} cluster holds {count} nodes, "
                                     "expected exactly one")
        # plain nested lists beat numpy scalar indexing in the hot loops
        self.cost_lists = {k: m.tolist() for k, m in self.cost.items()}

    @property
    def n_tasks(self) -> int:
        return self.instance.n_tasks

    @property
    def n_vehicles(self) -> int:
        return self.instance.n_vehicles

    def node(self, vehicle: int, cluster: int, index_in_cluster: int) -> SampleNode:
        return self.nodes[self.cluster_ids[(vehicle, cluster)][index_in_cluster - 1]]

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


def build_roadmap(instance: Instance) -> Roadmap:
    """Generate samples, costs and NIN tables for ``instance``."""
    nodes = generate_samples(instance)
    cost = build_cost_matrix(nodes, instance)
    return Roadmap(instance, nodes, cost, build_nin_tables(nodes, instance))
