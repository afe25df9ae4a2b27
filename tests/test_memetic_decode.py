import random
from dataclasses import replace

import pytest

from ghmdatsp.instance import build_instance
from ghmdatsp.memetic import (Chromosome, ChromosomeError, Evaluator, decode,
                              evaluate, random_chromosome, validate_chromosome)
from ghmdatsp.roadmap import build_roadmap

from conftest import coverage_ok, random_tiny_instance


def crossings_off_twin(roadmap):
    """The same samples and costs with crossings off: decode prunes nothing."""
    return build_roadmap(replace(roadmap.instance, nin_enabled=False))


def tour_labels(tourset, roadmap):
    return [[(roadmap.nodes[n].cluster, roadmap.nodes[n].index_in_cluster)
             for n in tour] for tour in tourset.tours]


class TestDecode:
    def test_worked_example(self, worked_example):
        _, rm, chrom = worked_example
        ts = decode(chrom, rm)
        labels = tour_labels(ts, rm)
        assert labels[0] == [(-1, 1), (1, 1), (2, 3), (3, 3), (-2, 1)]
        assert labels[1] == [(-1, 1), (4, 2), (5, 1), (-2, 1)]

    def test_single_vehicle_single_task(self):
        inst = build_instance([(300.0, 0.0)], n_vehicles=1, samples_per_cluster=1,
                              depots=[(0.0, 0.0)], seed=2)
        rm = build_roadmap(inst)
        ts = decode(Chromosome([1], [0, 1]), rm)
        assert tour_labels(ts, rm)[0] == [(-1, 1), (1, 1), (-2, 1)]

    def test_empty_vehicle_segment_costs_direct_leg(self, worked_example):
        _, rm, _ = worked_example
        chrom = Chromosome([1, 2, 3, 4, 5, 0], [0, 1, 1, 1, 1, 1])
        ts = decode(chrom, rm)
        assert tour_labels(ts, rm)[1] == [(-1, 1), (-2, 1)]
        depot = rm.node(2, -1, 1).id
        terminal = rm.node(2, -2, 1).id
        assert ts.per_vehicle_cost[1] == pytest.approx(rm.edge_cost(2, depot, terminal), abs=1e-9)

    def test_costs_sum_edge_by_edge(self, worked_example):
        _, rm, chrom = worked_example
        ts = decode(chrom, rm)
        for vi, tour in enumerate(ts.tours):
            veh = rm.instance.vehicles[vi].id
            total = sum(rm.edge_cost(veh, a, b) for a, b in zip(tour, tour[1:]))
            assert ts.per_vehicle_cost[vi] == pytest.approx(total, rel=1e-12)

    def test_malformed_chromosome_rejected(self, worked_example):
        _, rm, chrom = worked_example
        genes = list(chrom.genes)
        genes[0] = 2  # duplicate cluster
        with pytest.raises(ChromosomeError):
            decode(Chromosome(genes, chrom.samples), rm)
        with pytest.raises(ChromosomeError):
            decode(Chromosome(genes[:-1], chrom.samples), rm)

    def test_sample_counts_rejected(self, worked_example):
        _, rm, chrom = worked_example
        for samples in (chrom.samples[:-1], chrom.samples + (1,)):
            with pytest.raises(ChromosomeError, match="samples"):
                validate_chromosome(Chromosome(chrom.genes, samples), rm)


class TestEvaluate:
    def test_balanced_blend(self):
        assert evaluate([100.0, 50.0], 0.5) == pytest.approx(87.5)

    def test_pure_mean(self):
        assert evaluate([100.0, 50.0], 1.0) == pytest.approx(75.0)

    def test_pure_max(self):
        assert evaluate([100.0, 50.0], 0.0) == pytest.approx(100.0)

    def test_matches_independent_recompute(self):
        rng = random.Random(3)
        for _ in range(200):
            m = rng.randint(1, 6)
            costs = [rng.uniform(0, 1000) for _ in range(m)]
            alpha = rng.random()
            want = alpha * sum(costs) / m + (1 - alpha) * max(costs)
            assert evaluate(costs, alpha) == pytest.approx(want, rel=1e-12)


class TestDecodeNin:
    def test_deletion_trace(self, pruning_example):
        """The known two-vehicle configuration prunes task2's node, then
        task5's, then task3's, and stops with full coverage."""
        _, rm, chrom = pruning_example
        ts = decode(chrom, rm)
        deleted_labels = [(rm.nodes[n].vehicle, rm.nodes[n].cluster)
                          for n in ts.deleted]
        assert deleted_labels == [(1, 2), (2, 5), (1, 3)]
        labels = tour_labels(ts, rm)
        assert labels[0] == [(-1, 1), (1, 1), (-2, 1)]
        assert labels[1] == [(-1, 1), (4, 1), (-2, 1)]
        assert coverage_ok(ts, rm)

    def test_every_basket_stays_positive(self, pruning_example):
        _, rm, chrom = pruning_example
        ts = decode(chrom, rm)
        visited, crossed = set(), set()
        for tour in ts.tours:
            for nid in tour[1:-1]:
                visited.add(rm.nodes[nid].cluster)
                crossed.update(rm.nin_node_to_tasks[nid])
        for t in rm.instance.tasks:
            basket = (1 if t.id in visited else 0) + sum(
                1 for tour in ts.tours for nid in tour[1:-1]
                if t.id in rm.nin_node_to_tasks[nid])
            assert basket >= 1

    def test_without_crossings_equals_decode(self):
        inst = build_instance([(0.0, 0.0), (5000.0, 0.0), (0.0, 5000.0)],
                              n_vehicles=1, samples_per_cluster=2, velocity=50,
                              depots=[(2500.0, 2500.0)], seed=8)
        rm = build_roadmap(inst)
        twin = crossings_off_twin(rm)
        rng = random.Random(1)
        for _ in range(10):
            chrom = random_chromosome(rm, rng)
            reduced, plain = decode(chrom, rm), decode(chrom, twin)
            assert reduced.tours == plain.tours
            assert reduced.objective == pytest.approx(plain.objective)
            assert reduced.deleted == ()

    def test_tiebreak_prefers_smaller_crossing_set(self, pruning_example):
        """Second deletion: tasks 3 and 5 tie at basket 2; task5's node
        crosses nothing while task3's crosses one task, so task5 goes."""
        _, rm, chrom = pruning_example
        ts = decode(chrom, rm)
        second = rm.nodes[ts.deleted[1]]
        assert (second.vehicle, second.cluster) == (2, 5)

    def test_coverage_on_random_chromosomes(self):
        for key in range(6):
            inst = random_tiny_instance(key)
            rm = build_roadmap(inst)
            rng = random.Random(key)
            for _ in range(20):
                ts = decode(random_chromosome(rm, rng), rm)
                assert coverage_ok(ts, rm)

    def test_reduced_cost_never_exceeds_full(self):
        for key in range(4):
            inst = random_tiny_instance(key)
            rm = build_roadmap(inst)
            twin = crossings_off_twin(rm)
            rng = random.Random(key)
            for _ in range(20):
                chrom = random_chromosome(rm, rng)
                assert decode(chrom, rm).objective <= decode(chrom, twin).objective + 1e-9

    @pytest.mark.parametrize("nin", [True, False], ids=["crossings", "no-crossings"])
    def test_search_decodes_like_decode(self, nin):
        """The search's cached decode and the public one agree on every
        field; the crossings-off twin of each roadmap deletes nothing."""
        for key in range(6):
            rm = build_roadmap(random_tiny_instance(key, nin=nin))
            twin = crossings_off_twin(rm)
            rng = random.Random(key)
            for _ in range(20):
                chrom = random_chromosome(rm, rng)
                assert Evaluator(rm).tours(chrom) == decode(chrom, rm)
                assert decode(chrom, twin).deleted == ()


class TestEvaluatorCache:
    def test_cache_hits_do_not_recompute(self, worked_example):
        _, rm, chrom = worked_example
        ev = Evaluator(rm)
        c1 = ev.cost(chrom)
        n = ev.decodes
        assert ev.cost(chrom) == c1
        assert ev.decodes == n
