"""Shared fixtures: hand-built roadmaps with known crossing structure."""

import math
import random

import pytest

from ghmdatsp.geometry import Config, turning_circles
from ghmdatsp.instance import Instance, build_instance
from ghmdatsp.memetic import Chromosome, delim_gene, task_gene
from ghmdatsp.roadmap import DEPOT, TERMINAL, Roadmap, SampleNode, build_cost_matrix, build_nin_tables


def manual_roadmap(instance: Instance, nodes: list[SampleNode], with_nin: bool = True) -> Roadmap:
    """Assemble a roadmap from explicitly placed sample nodes."""
    cost = build_cost_matrix(nodes, instance)
    if with_nin and instance.nin_enabled:
        s_nin, t_nin = build_nin_tables(nodes, instance)
    else:
        s_nin = {t.id: set() for t in instance.tasks}
        t_nin = {s.id: set() for s in nodes}
    return Roadmap(instance, nodes, cost, s_nin, t_nin)


def on_one_turning_circle(a: Config, b: Config, r_min: float, tol: float = 1e-6) -> bool:
    """True when both poses ride the same left (or the same right) turning circle.

    Dubins words through such a pair hinge on the angle of a near-zero
    centre-to-centre vector, so two solvers can legitimately disagree there.
    """
    (al, ar), (bl, br) = turning_circles(a, r_min), turning_circles(b, r_min)
    return math.dist(al, bl) <= tol * r_min or math.dist(ar, br) <= tol * r_min


def coverage_ok(tourset, roadmap) -> bool:
    """Every task visited directly or crossed by some remaining tour node."""
    visited = set()
    crossed = set()
    for tour in tourset.tours:
        for nid in tour[1:-1]:
            visited.add(roadmap.node_by_id[nid].cluster)
            crossed.update(roadmap.nin_node_to_tasks[nid])
    return all(t.id in visited or t.id in crossed for t in roadmap.instance.tasks)


def random_tiny_instance(key: int, nin: bool = True):
    """Small seeded instance for oracle comparisons (n<=5, m<=2, <=2 samples)."""
    g = random.Random(1000 + key)
    n = g.choice([3, 4, 5])
    m = g.choice([1, 2])
    centers = [(g.uniform(0, 1200), g.uniform(0, 1200)) for _ in range(n)]
    return build_instance(
        centers,
        n_vehicles=m,
        samples_per_cluster=g.choice([1, 2]),
        velocity=50,
        depots=[(0.0, 0.0), (1200.0, 1200.0)][:m],
        sensing_range=150.0,
        nin_enabled=nin,
        seed=1000 + key,
    )


# ---------------------------------------------------------------------------
# Worked decoding example: 2 vehicles, 5 tasks, 3 samples per cluster,
# 3 samples also in the depot/terminal clusters so payload indices matter.


@pytest.fixture(scope="session")
def worked_example():
    centers = [(200.0 * i, 100.0 + 40.0 * (i % 2)) for i in range(1, 6)]
    inst = build_instance(
        centers,
        n_vehicles=2,
        samples_per_cluster=3,
        velocity=50,
        depots=[(0.0, 0.0), (1100.0, 0.0)],
        sensing_range=80.0,
        nin_enabled=False,
        seed=77,
    )
    rng = random.Random(77)
    nodes = []
    nid = 0
    for veh in inst.vehicles:
        for cluster, pos in ((DEPOT, veh.depot), (TERMINAL, veh.terminal)):
            for i in range(3):
                nodes.append(SampleNode(nid, veh.id, cluster, i + 1,
                                        Config(pos[0], pos[1], rng.uniform(0, 2 * math.pi))))
                nid += 1
        for task in inst.tasks:
            for i in range(3):
                ang = rng.uniform(0, 2 * math.pi)
                rad = task.radius * math.sqrt(rng.random())
                nodes.append(SampleNode(
                    nid, veh.id, task.id, i + 1,
                    Config(task.center[0] + rad * math.cos(ang),
                           task.center[1] + rad * math.sin(ang),
                           rng.uniform(0, 2 * math.pi))))
                nid += 1
    rm = manual_roadmap(inst, nodes, with_nin=False)
    chrom = Chromosome([
        delim_gene((1, 3)),
        task_gene(1, 1), task_gene(2, 3), task_gene(3, 3),
        delim_gene(None),
        delim_gene((2, 1)),
        task_gene(4, 2), task_gene(5, 1),
    ])
    return inst, rm, chrom


# ---------------------------------------------------------------------------
# Two-vehicle pruning example with a known deletion trace.
# Crossing pattern: node(task1) crosses {2,3}; node(task2) crosses {1};
# node(task3) crosses {2}; node(task4) crosses {5}; node(task5) crosses
# nothing.  Decode-and-prune must delete task2's node, then task5's, then
# task3's, and stop with every basket at 1.


FIG4_VELOCITY = 61.6078  # turn radius ~100 m
FIG4_RANGE = 60.0
FIG4_TASKS = {1: (0.0, 0.0), 2: (75.0, 36.0), 3: (75.0, -36.0),
              4: (800.0, 0.0), 5: (880.0, 0.0)}


@pytest.fixture(scope="session")
def pruning_example():
    centers = [FIG4_TASKS[i] for i in range(1, 6)]
    inst = build_instance(
        centers,
        n_vehicles=2,
        samples_per_cluster=1,
        velocity=FIG4_VELOCITY,
        depots=[(-200.0, 0.0), (1080.0, 0.0)],
        sensing_range=FIG4_RANGE,
        task_radius=FIG4_RANGE,
        seed=4,
    )
    headings = {
        (1, 1): 0.0,
        (1, 2): math.atan2(-36.0, -75.0),
        (1, 3): math.pi / 2,
        (2, 4): 0.0,
        (2, 5): math.pi / 2,
    }
    nodes = []
    nid = 0
    for veh in inst.vehicles:
        for cluster, pos in ((DEPOT, veh.depot), (TERMINAL, veh.terminal)):
            nodes.append(SampleNode(nid, veh.id, cluster, 1, Config(pos[0], pos[1], 0.0)))
            nid += 1
        for task in inst.tasks:
            theta = headings.get((veh.id, task.id), 0.0)
            nodes.append(SampleNode(nid, veh.id, task.id, 1,
                                    Config(task.center[0], task.center[1], theta)))
            nid += 1
    rm = manual_roadmap(inst, nodes)
    chrom = Chromosome([
        task_gene(1, 1), task_gene(2, 1), task_gene(3, 1),
        delim_gene((1, 1)),
        delim_gene(None),
        task_gene(4, 1), task_gene(5, 1),
        delim_gene((1, 1)),
    ])
    return inst, rm, chrom
