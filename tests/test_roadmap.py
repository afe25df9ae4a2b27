import math
import random

import numpy as np
import pytest

from ghmdatsp.geometry import Config, dubins_shortest_path
from ghmdatsp.instance import build_instance
from ghmdatsp.roadmap import (DEPOT, TERMINAL, SampleNode, build_cost_matrix, build_nin_tables,
                              build_roadmap, generate_samples)

from conftest import manual_roadmap, on_one_turning_circle


@pytest.fixture(scope="module")
def small_roadmap():
    inst = build_instance(n_vehicles=2, samples_per_cluster=3, velocity=50,
                          task_centers=[(200.0 * i, 200.0 + 90.0 * (i % 3)) for i in range(1, 8)],
                          depots=[(0.0, 0.0), (1600.0, 800.0)], seed=21)
    return inst, build_roadmap(inst)


class TestGenerateSamples:
    def test_node_count_single_vehicle(self):
        inst = build_instance(n_vehicles=1, samples_per_cluster=5, seed=1)
        assert len(generate_samples(inst)) == 29 * 5 + 2

    def test_node_count_four_vehicles(self):
        inst = build_instance(n_vehicles=4, samples_per_cluster=5, seed=1)
        assert len(generate_samples(inst)) == 4 * (29 * 5 + 2)

    def test_deterministic_per_seed(self):
        inst = build_instance(n_vehicles=2, samples_per_cluster=4, seed=5)
        assert generate_samples(inst) == generate_samples(inst)

    def test_positions_inside_task_disks(self, small_roadmap):
        inst, rm = small_roadmap
        tasks = {t.id: t for t in inst.tasks}
        for s in rm.nodes:
            if s.is_task:
                t = tasks[s.cluster]
                assert math.dist((s.config.x, s.config.y), t.center) <= t.radius + 1e-9

    def test_endpoint_nodes_at_fixed_positions(self, small_roadmap):
        inst, rm = small_roadmap
        for veh in inst.vehicles:
            (d,) = rm.cluster_nodes(veh.id, DEPOT)
            (t,) = rm.cluster_nodes(veh.id, TERMINAL)
            assert (d.config.x, d.config.y) == veh.depot
            assert (t.config.x, t.config.y) == veh.terminal

    def test_no_node_shared_between_vehicles(self, small_roadmap):
        _, rm = small_roadmap
        ids = [s.id for s in rm.nodes]
        assert len(ids) == len(set(ids))
        by_vehicle = {}
        for s in rm.nodes:
            by_vehicle.setdefault(s.vehicle, set()).add(s.id)
        a, b = by_vehicle.values()
        assert not (a & b)


class TestCostMatrix:
    def test_forbidden_pairs(self, small_roadmap):
        inst, rm = small_roadmap
        for veh in inst.vehicles:
            mat = rm.cost[veh.id]
            locals_ = [s for s in rm.nodes if s.vehicle == veh.id]
            for i, a in enumerate(locals_):
                assert not math.isfinite(mat[i, i])  # no self loops
                for j, b in enumerate(locals_):
                    if i == j:
                        continue
                    forbidden = (a.cluster == b.cluster or a.cluster == TERMINAL
                                 or b.cluster == DEPOT)
                    assert math.isfinite(mat[i, j]) != forbidden

    def test_straight_collinear_cost_is_distance(self):
        inst = build_instance([(500.0, 0.0), (1500.0, 0.0)], n_vehicles=1,
                              samples_per_cluster=1, velocity=70,
                              depots=[(0.0, 0.0)], seed=3)
        nodes = [
            SampleNode(0, 1, DEPOT, 1, Config(0, 0, 0)),
            SampleNode(1, 1, TERMINAL, 1, Config(0, 0, 0)),
            SampleNode(2, 1, 1, 1, Config(500, 0, 0)),
            SampleNode(3, 1, 2, 1, Config(1000, 0, 0)),
        ]
        rm = manual_roadmap(inst, nodes, with_nin=False)
        assert rm.edge_cost(1, 2, 3) == pytest.approx(500.0, abs=1e-9)

    def test_time_metric_divides_by_velocity(self):
        inst = build_instance([(500.0, 0.0), (1500.0, 0.0)], n_vehicles=1,
                              samples_per_cluster=1, velocity=70, cost_metric="time",
                              depots=[(0.0, 0.0)], seed=3)
        nodes = [
            SampleNode(0, 1, DEPOT, 1, Config(0, 0, 0)),
            SampleNode(1, 1, TERMINAL, 1, Config(0, 0, 0)),
            SampleNode(2, 1, 1, 1, Config(500, 0, 0)),
            SampleNode(3, 1, 2, 1, Config(1000, 0, 0)),
        ]
        rm = manual_roadmap(inst, nodes, with_nin=False)
        assert rm.edge_cost(1, 2, 3) == pytest.approx(500.0 / 70.0, rel=1e-12)

    @pytest.mark.parametrize("metric", ["length", "time"])
    def test_matches_scalar_loop(self, metric):
        inst = build_instance(n_vehicles=2, samples_per_cluster=4, velocity=[50.0, 80.0],
                              cost_metric=metric,
                              task_centers=[(150.0 * i, 120.0 * (i % 4)) for i in range(1, 10)],
                              depots=[(0.0, 0.0), (1400.0, 300.0)], seed=9)
        nodes = generate_samples(inst)
        got = build_cost_matrix(nodes, inst)
        for veh in inst.vehicles:
            locals_ = [s for s in nodes if s.vehicle == veh.id]
            want = np.full((len(locals_), len(locals_)), np.inf)
            for i, a in enumerate(locals_):
                for j, b in enumerate(locals_):
                    if a.cluster in (b.cluster, TERMINAL) or b.cluster == DEPOT:
                        continue
                    length = dubins_shortest_path(a.config, b.config, veh.r_min).length
                    want[i, j] = length / veh.velocity if metric == "time" else length
            mat = got[veh.id]
            assert (np.isinf(mat) == np.isinf(want)).all()
            for i, a in enumerate(locals_):
                for j, b in enumerate(locals_):
                    if np.isfinite(want[i, j]) and not on_one_turning_circle(
                            a.config, b.config, veh.r_min):
                        assert mat[i, j] == pytest.approx(want[i, j], rel=1e-9)

    def test_costs_dominate_euclidean(self, small_roadmap):
        _, rm = small_roadmap
        for veh_id, mat in rm.cost.items():
            locals_ = [s for s in rm.nodes if s.vehicle == veh_id]
            for i, a in enumerate(locals_):
                for j, b in enumerate(locals_):
                    if math.isfinite(mat[i, j]):
                        assert mat[i, j] >= a.config.distance_to(b.config) - 1e-9

    def test_asymmetry_exists(self, small_roadmap):
        _, rm = small_roadmap
        mat = rm.cost[1]
        fin = np.isfinite(mat) & np.isfinite(mat.T)
        gaps = np.abs(mat[fin] - mat.T[fin])
        assert gaps.max() > 1.0


class TestNinTables:
    def test_inverse_consistency(self, small_roadmap):
        _, rm = small_roadmap
        for s in rm.nodes:
            for t in rm.nin_task_to_nodes:
                assert (s.id in rm.nin_task_to_nodes[t]) == (t in rm.nin_node_to_tasks[s.id])

    def test_own_cluster_excluded_and_endpoints_empty(self, small_roadmap):
        _, rm = small_roadmap
        for s in rm.nodes:
            if s.is_task:
                assert s.cluster not in rm.nin_node_to_tasks[s.id]
            else:
                assert rm.nin_node_to_tasks[s.id] == set()

    def test_boundary_node_configuration(self):
        """Two boundary nodes of one task pointing inward: the nearer task is
        crossed by both, the farther one only by the first node."""
        inst = build_instance(
            [(0.0, 0.0), (-120.0, 120.0), (-320.0, 0.0)],
            n_vehicles=1, samples_per_cluster=2, velocity=61.6078,
            sensing_range=150.0, depots=[(500.0, 0.0)], seed=0)
        nodes = [
            SampleNode(0, 1, DEPOT, 1, Config(500, 0, 0)),
            SampleNode(1, 1, TERMINAL, 1, Config(500, 0, 0)),
            SampleNode(2, 1, 1, 1, Config(-150.0, 0.0, 0.0)),
            SampleNode(3, 1, 1, 2, Config(0.0, 150.0, -math.pi / 2)),
            SampleNode(4, 1, 2, 1, Config(-120.0, 120.0, 0.0)),
            SampleNode(5, 1, 2, 2, Config(-120.0, 120.0, 1.0)),
            SampleNode(6, 1, 3, 1, Config(-320.0, 0.0, 0.0)),
            SampleNode(7, 1, 3, 2, Config(-320.0, 0.0, 1.0)),
        ]
        s_nin, t_nin = build_nin_tables(nodes, inst)
        assert t_nin[2] == {2, 3}   # first boundary node crosses tasks 2 and 3
        assert t_nin[3] == {2}      # second crosses only the near task 2
        assert s_nin[2] == {2, 3}   # task 2 is crossed by both boundary nodes
        assert s_nin[3] == {2}      # task 3 only by the first

    def test_widely_separated_tasks_have_empty_tables(self):
        inst = build_instance([(0.0, 0.0), (5000.0, 0.0), (0.0, 5000.0)],
                              n_vehicles=1, samples_per_cluster=3, velocity=50,
                              depots=[(2500.0, 2500.0)], seed=8)
        rm = build_roadmap(inst)
        assert all(not v for v in rm.nin_node_to_tasks.values())
        assert all(not v for v in rm.nin_task_to_nodes.values())

    def test_crossing_claims_verified_by_densified_circles(self, small_roadmap):
        """For nodes with crossing claims, riding either tangent circle passes
        within sensing range of the claimed task."""
        inst, rm = small_roadmap
        specs = {v.id: v for v in inst.vehicles}
        tasks = {t.id: t for t in inst.tasks}
        rng = random.Random(0)
        claims = [(s, t) for s in rm.nodes for t in rm.nin_node_to_tasks[s.id]]
        assert claims, "fixture must produce at least one crossing claim"
        for s, t in rng.sample(claims, min(10, len(claims))):
            veh = specs[s.vehicle]
            r = veh.r_min
            for sign in (+1.0, -1.0):  # ride each tangent circle in full
                cx = s.config.x - sign * r * math.sin(s.config.theta)
                cy = s.config.y + sign * r * math.cos(s.config.theta)
                angles = [i * 2 * math.pi / 720 for i in range(721)]
                dmin = min(math.hypot(cx + r * math.cos(a) - tasks[t].center[0],
                                      cy + r * math.sin(a) - tasks[t].center[1])
                           for a in angles)
                assert dmin <= veh.sensing_range + r * 2 * math.pi / 720

    def test_debug_dump_is_json_with_checksum(self, small_roadmap):
        import json
        _, rm = small_roadmap
        doc = json.loads(rm.to_debug_json())
        assert doc["n_tasks"] == 7 and doc["n_vehicles"] == 2
        assert len(doc["nodes"]) == len(rm.nodes)
        assert len(doc["cost_checksum"]) == 64
