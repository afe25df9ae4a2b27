import json
import math
import random

import pytest

from ghmdatsp.instance import build_instance
from ghmdatsp.memetic import (Evaluator, MAParams, init_population, run,
                              _chromosome_from_orders, _voronoi_orders)
from ghmdatsp.roadmap import build_roadmap

from conftest import coverage_ok, random_tiny_instance


@pytest.fixture(scope="module")
def mid_instance():
    inst = build_instance(
        [(180.0 * i, 150.0 + 120.0 * (i % 3)) for i in range(1, 8)],
        n_vehicles=2, samples_per_cluster=2, velocity=50,
        depots=[(0.0, 0.0), (1500.0, 700.0)], seed=33)
    return inst, build_roadmap(inst)


class TestVoronoiSeeding:
    def test_single_vehicle_gets_all_tasks(self):
        inst = build_instance([(100.0 * i, 50.0) for i in range(1, 6)],
                              n_vehicles=1, samples_per_cluster=1,
                              depots=[(0.0, 0.0)], seed=1)
        rm = build_roadmap(inst)
        orders = _voronoi_orders(rm)
        assert sorted(orders[0]) == [1, 2, 3, 4, 5]

    def test_task_at_depot_assigned_there(self):
        inst = build_instance([(0.0, 0.0), (900.0, 900.0)], n_vehicles=2,
                              samples_per_cluster=1,
                              depots=[(0.0, 0.0), (900.0, 900.0)], seed=1)
        rm = build_roadmap(inst)
        orders = _voronoi_orders(rm)
        assert orders[0] == [1]
        assert orders[1] == [2]

    def test_equidistant_task_breaks_to_lower_vehicle(self):
        inst = build_instance([(450.0, 0.0)], n_vehicles=2, samples_per_cluster=1,
                              depots=[(0.0, 0.0), (900.0, 0.0)], seed=1)
        rm = build_roadmap(inst)
        orders = _voronoi_orders(rm)
        assert orders[0] == [1]
        assert orders[1] == []

    def test_voronoi_chromosome_valid(self, mid_instance):
        _, rm = mid_instance
        chrom = _chromosome_from_orders(rm, random.Random(0), _voronoi_orders(rm))
        from ghmdatsp.memetic import validate_chromosome
        validate_chromosome(chrom, rm)


class TestInitPopulation:
    def test_size_sorted_and_improved(self, mid_instance):
        _, rm = mid_instance
        ev = Evaluator(rm)
        pop = init_population(rm, MAParams(population_size=20, seed=0), random.Random(0), ev)
        assert len(pop) == 20
        costs = [ev.cost(c) for c in pop]
        assert costs == sorted(costs)


class TestRun:
    def test_single_task_single_vehicle_trivial_optimum(self):
        inst = build_instance([(400.0, 0.0)], n_vehicles=1, samples_per_cluster=1,
                              velocity=50, depots=[(0.0, 0.0)], seed=6)
        rm = build_roadmap(inst)
        res = run(rm, MAParams(population_size=10, max_generations=5,
                               stagnation_limit=3, seed=6))
        depot = rm.node(1, -1, 1).id
        node = rm.node(1, 1, 1).id
        term = rm.node(1, -2, 1).id
        want = rm.edge_cost(1, depot, node) + rm.edge_cost(1, node, term)
        assert res.best_cost == pytest.approx(want, rel=1e-12)
        assert res.best.tours == ((depot, node, term),)

    def test_best_history_is_monotone(self, mid_instance):
        _, rm = mid_instance
        res = run(rm, MAParams(population_size=30, max_generations=40,
                               stagnation_limit=15, seed=1))
        best = [h.best_cost for h in res.history]
        assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(best, best[1:]))

    def test_deterministic_per_seed(self, mid_instance):
        _, rm = mid_instance
        params = MAParams(population_size=24, max_generations=15, stagnation_limit=10, seed=7)
        r1 = run(rm, params)
        r2 = run(rm, params)
        assert r1.best_cost == r2.best_cost
        assert r1.best.tours == r2.best.tours
        assert [h.best_cost for h in r1.history] == [h.best_cost for h in r2.history]

    def test_solution_covers_all_tasks(self, mid_instance):
        _, rm = mid_instance
        res = run(rm, MAParams(population_size=30, max_generations=30,
                               stagnation_limit=10, seed=2))
        assert coverage_ok(res.best, rm)

    def test_stagnation_termination_reason(self, mid_instance):
        _, rm = mid_instance
        res = run(rm, MAParams(population_size=20, max_generations=400,
                               stagnation_limit=8, seed=3))
        assert res.termination_reason == "stagnation"
        assert res.generations < 400

    def test_population_stays_cost_sorted(self, mid_instance):
        _, rm = mid_instance
        res = run(rm, MAParams(population_size=20, max_generations=12,
                               stagnation_limit=12, seed=9))
        costs = res.final_population_costs
        assert len(costs) == 20
        assert costs == sorted(costs)
        assert res.best_cost == costs[0]

    def test_nin_disabled_single_sample_decodes_identically(self):
        inst = build_instance([(260.0 * i, 120.0) for i in range(1, 5)],
                              n_vehicles=1, samples_per_cluster=1, velocity=50,
                              depots=[(0.0, 0.0)], nin_enabled=False, seed=14)
        rm = build_roadmap(inst)
        from ghmdatsp.memetic import decode, random_chromosome
        rng = random.Random(14)
        for _ in range(10):
            chrom = random_chromosome(rm, rng)
            ts = decode(chrom, rm)
            assert ts.deleted == ()
            assert [rm.nodes[n].cluster for n in ts.tours[0][1:-1]] == list(chrom.genes)

    def test_history_json_export(self, mid_instance):
        _, rm = mid_instance
        res = run(rm, MAParams(population_size=16, max_generations=10,
                               stagnation_limit=5, seed=4))
        doc = json.loads(res.history_json())
        assert doc["termination_reason"] in ("stagnation", "max_generations")
        assert len(doc["per_generation"]) == res.generations + 1
        assert set(doc["operator_attempts"]) == {"global_2opt", "local_2opt",
                                                 "task_swap", "sample_swap"}

    def test_nin_disabled_uses_plain_decode(self):
        inst = random_tiny_instance(2, nin=False)
        rm = build_roadmap(inst)
        res = run(rm, MAParams(population_size=16, max_generations=20,
                               stagnation_limit=8, seed=2))
        assert res.best.deleted == ()
        clusters = sorted(rm.nodes[n].cluster
                          for tour in res.best.tours for n in tour[1:-1])
        assert clusters == [t.id for t in inst.tasks]

    def test_time_limit_stops_run(self, mid_instance):
        _, rm = mid_instance
        res = run(rm, MAParams(population_size=40, max_generations=5000,
                               stagnation_limit=5000, seed=5, time_limit_s=1.5))
        assert res.termination_reason == "time_limit"
        assert res.wall_time_s < 10.0

    @pytest.mark.parametrize("limit", [math.nan, -1.0])
    def test_nan_or_negative_time_limit_is_rejected(self, limit):
        # NaN would silently mean no limit; a negative one would stop the
        # search before its first generation with every member unpolished
        with pytest.raises(ValueError, match="time_limit_s"):
            MAParams(time_limit_s=limit)

    def test_population_of_one_is_rejected(self):
        with pytest.raises(ValueError, match="population_size"):
            MAParams(population_size=1)

    def test_spent_budget_skips_init_polish_and_generations(self, mid_instance):
        inst, rm = mid_instance
        res = run(rm, MAParams(population_size=40, seed=5, time_limit_s=1e-9))
        assert res.termination_reason == "time_limit"
        assert res.generations == 0
        assert len(res.history) == 1
        # no member was polished, and the population kept its size
        assert sum(res.op_stats.attempts.values()) == 0
        assert len(res.final_population_costs) == 40
        assert coverage_ok(res.best, rm)
        assert res.wall_time_s < 10.0
