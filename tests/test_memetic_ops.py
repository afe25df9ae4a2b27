import math
import random

import pytest

from ghmdatsp.instance import build_instance
from ghmdatsp.memetic import (Chromosome, ChromosomeError, Evaluator, ImproveStats,
                              MAParams, TourSet, _move, crossover, decode, improve,
                              random_chromosome, reverse_segment, reverse_vehicle_segment,
                              sample_swap, select, swap_genes, validate_chromosome)
from ghmdatsp.roadmap import build_roadmap

from conftest import coverage_ok, random_tiny_instance


def labels(chrom):
    """One label per gene: "M" on delimiters, (cluster, sample) on task genes."""
    return ["M" if g == 0 else (g, chrom.samples[g]) for g in chrom.genes]


def fields(chrom):
    return chrom.genes, chrom.samples


class Drawn:
    """Stands in for ``random.Random`` in ``_move``: hands out the given
    draws in order, each checked against the range it is drawn from."""

    def __init__(self, *draws):
        self.draws = iter(draws)

    def randint(self, a, b):
        value = next(self.draws)
        assert a <= value <= b
        return value

    def choice(self, seq):
        value = next(self.draws)
        assert value in seq
        return value


def judged(op, chrom, ev, rng):
    """One ``_move`` of ``op``: the chromosome it keeps, checked to be tallied
    as one attempt, and as an accept exactly when it is not the input."""
    stats = ImproveStats()
    out = _move(op, chrom, ev, rng, stats)
    assert stats.attempts[op] == 1
    assert stats.accepts[op] == (out is not chrom)
    return out


@pytest.fixture()
def example(worked_example):
    inst, rm, chrom = worked_example
    return inst, rm, chrom, Evaluator(rm)


class TestReverseSegment:
    def test_inner_reversal(self, example):
        _, _, chrom, _ = example
        out = reverse_segment(chrom, 1, 3)
        assert labels(out)[0:3] == [(3, 3), (2, 3), (1, 1)]

    def test_identity_when_bounds_meet(self, example):
        _, _, chrom, _ = example
        assert reverse_segment(chrom, 3, 3) is chrom

    def test_reversal_across_divider_moves_tasks_between_vehicles(self, example):
        _, rm, chrom, _ = example
        out = reverse_segment(chrom, 3, 6)
        validate_chromosome(out, rm)
        ts = decode(out, rm)
        assert [rm.nodes[n].cluster for n in ts.tours[0][1:-1]] == [1, 2, 5, 4]
        assert [rm.nodes[n].cluster for n in ts.tours[1][1:-1]] == [3]

    def test_out_of_bounds_rejected(self, example):
        _, _, chrom, _ = example
        with pytest.raises(ChromosomeError):
            reverse_segment(chrom, 0, 3)
        with pytest.raises(ChromosomeError):
            reverse_segment(chrom, 2, 99)


class TestVehicleReversal:
    def test_reverses_only_that_vehicle(self, example):
        _, rm, chrom, _ = example
        out = reverse_vehicle_segment(chrom, 0, 1, 3)
        assert labels(out)[0:3] == [(3, 3), (2, 3), (1, 1)]
        assert labels(out)[3:] == labels(chrom)[3:]
        validate_chromosome(out, rm)

    def test_single_gene_vehicle_is_identity(self, worked_example):
        _, rm, _ = worked_example
        chrom = Chromosome([1, 2, 3, 4, 0, 5], [0, 1, 1, 1, 1, 1])
        assert reverse_vehicle_segment(chrom, 1, 1, 1) is chrom


class TestSwapGenes:
    def test_cross_vehicle_swap(self, example):
        _, rm, chrom, _ = example
        out = swap_genes(chrom, 1, 5)
        assert labels(out)[0] == (4, 2)
        assert labels(out)[4] == (1, 1)
        validate_chromosome(out, rm)

    def test_delimiter_swap_keeps_invariants(self, example):
        _, rm, chrom, _ = example
        out = swap_genes(chrom, 1, 4)  # task gene exchanged with the divider
        validate_chromosome(out, rm)

    def test_same_position_rejected(self, example):
        _, _, chrom, _ = example
        with pytest.raises(ChromosomeError):
            swap_genes(chrom, 3, 3)


class TestImproveOrReject:
    def test_global_2opt_never_worsens(self, example):
        _, _, chrom, ev = example
        rng = random.Random(0)
        cur = chrom
        for _ in range(300):
            nxt = judged("global_2opt", cur, ev, rng)
            assert ev.cost(nxt) <= ev.cost(cur) + 1e-12
            cur = nxt

    def test_rejected_move_returns_input_object(self, example):
        _, _, chrom, ev = example
        base = ev.cost(chrom)
        seen_reject = False
        for i in range(1, len(chrom)):
            out = judged("global_2opt", chrom, ev, Drawn(i, i + 1))
            if out is chrom:
                seen_reject = True
            else:
                assert ev.cost(out) < base
        assert seen_reject

    def test_task_swap_examples(self, example):
        _, rm, chrom, ev = example
        out = judged("task_swap", chrom, ev, Drawn(1, 4))  # positions 1 and 5
        validate_chromosome(out, rm)
        assert ev.cost(out) <= ev.cost(chrom)

    def test_local_2opt_respects_other_vehicles(self, example):
        _, rm, chrom, ev = example
        out = judged("local_2opt", chrom, ev, Drawn(0, 1, 3))  # vehicle 0, its genes 1..3
        validate_chromosome(out, rm)
        if out is not chrom:
            assert labels(out)[3:] == labels(chrom)[3:]


class TestSampleSwap:
    def test_single_sample_clusters_are_identity(self):
        inst = random_tiny_instance(3)
        inst = build_instance([t.center for t in inst.tasks], n_vehicles=1,
                              samples_per_cluster=1, velocity=50,
                              depots=[(0.0, 0.0)], seed=12)
        rm = build_roadmap(inst)
        ev = Evaluator(rm)
        chrom = random_chromosome(rm, random.Random(0))
        assert sample_swap(chrom, ev) is chrom
        assert judged("sample_swap", chrom, ev, None) is chrom

    def test_accepts_cheaper_sample_and_recosts(self, example):
        _, rm, chrom, ev = example
        rng = random.Random(4)
        improved_any = False
        for _ in range(30):
            base = random_chromosome(rm, rng)
            out = judged("sample_swap", base, ev, rng)
            assert ev.cost(out) <= ev.cost(base) + 1e-12
            if out is not base:
                improved_any = True
                assert ev.cost(out) < ev.cost(base)
                assert decode(out, rm).objective == pytest.approx(ev.cost(out))
        assert improved_any

    def test_coverage_preserved_under_nin(self):
        for key in (0, 2, 5):
            inst = random_tiny_instance(key)
            rm = build_roadmap(inst)
            ev = Evaluator(rm)
            rng = random.Random(key)
            for _ in range(25):
                chrom = random_chromosome(rm, rng)
                out = judged("sample_swap", chrom, ev, rng)
                assert coverage_ok(ev.tours(out), rm)
                assert ev.cost(out) <= ev.cost(chrom) + 1e-12

    def test_rejects_swap_that_drops_sole_coverage(self, pruning_example):
        """Made-up two-sample variant: the cheap alternative sample loses the
        crossing that covers a pruned task, so the swap must not happen
        unless the task stays covered."""
        _, rm, chrom = pruning_example
        ev = Evaluator(rm)
        ts = ev.tours(chrom)
        assert coverage_ok(ts, rm)
        out = sample_swap(chrom, ev)
        assert coverage_ok(ev.tours(out), rm)


class TestSelect:
    def test_fitness_formula(self):
        # worst 100, best 60, pressure 4: f_best = 53.33, f_worst = 13.33
        cw, cb, kappa = 100.0, 60.0, 4.0
        shift = (cw - cb) / (kappa - 1)
        f_best, f_worst = cw - cb + shift, shift
        assert f_best == pytest.approx(53.3333, abs=1e-3)
        assert f_worst == pytest.approx(13.3333, abs=1e-3)
        assert f_best / f_worst == pytest.approx(kappa)

    def test_two_member_probability(self, example):
        _, rm, _, ev = example
        rng = random.Random(1)
        a = random_chromosome(rm, rng)
        b = random_chromosome(rm, rng)
        a.cached_tours, b.cached_tours = TourSet((), (), 60.0), TourSet((), (), 100.0)
        counts = {60.0: 0, 100.0: 0}
        for _ in range(4000):
            p, _q = select([a, b], rng, ev)
            counts[ev.cost(p)] += 1
        assert counts[60.0] / 4000 == pytest.approx(0.8, abs=0.03)

    def test_uniform_when_costs_equal(self, example):
        _, rm, _, ev = example
        rng = random.Random(2)
        pop = [random_chromosome(rm, rng) for _ in range(4)]
        for c in pop:
            c.cached_tours = TourSet((), (), 50.0)
        hits = [0] * 4
        for _ in range(4000):
            p, _q = select(pop, rng, ev)
            hits[pop.index(p)] += 1
        for h in hits:
            assert h / 4000 == pytest.approx(0.25, abs=0.035)

    def test_prefers_distinct_cost_parents(self, example):
        _, rm, _, ev = example
        rng = random.Random(3)
        pop = [random_chromosome(rm, rng) for _ in range(6)]
        for i, c in enumerate(pop):
            c.cached_tours = TourSet((), (), 10.0 + i)
        for _ in range(100):
            p, q = select(pop, rng, ev)
            assert ev.cost(p) != ev.cost(q)


def reference_crossover(parent1, parent2, share, rng):
    """Straight-line reimplementation of the documented crossover rule."""
    length = len(parent1)
    total_delims = sum(1 for g in parent1.genes if g == 0)
    k = math.ceil(share * length)
    keep = set(rng.sample(range(length), k))
    child = [None] * length
    sample_of = {}
    used = set()
    delims = 0
    for pos in sorted(keep):
        g = parent1.genes[pos]
        child[pos] = g
        if g == 0:
            delims += 1
        else:
            used.add(g)
    queue = list(parent2.genes)
    qi = 0
    for pos in range(length):
        if child[pos] is not None:
            continue
        while qi < len(queue):
            g = queue[qi]
            qi += 1
            if g == 0 and delims < total_delims:
                child[pos] = g
                delims += 1
                break
            if g != 0 and g not in used:
                child[pos] = g
                sample_of[g] = parent2.samples[g]
                used.add(g)
                break
        else:
            continue
    missing = [g for g in parent1.genes if g != 0 and g not in used]
    rng.shuffle(missing)
    mi = 0
    for pos in range(length):
        if child[pos] is None:
            if mi < len(missing):
                child[pos] = missing[mi]
                mi += 1
            else:
                child[pos] = 0
    samples = [0] + [sample_of.get(c, parent1.samples[c]) for c in range(1, len(parent1.samples))]
    return Chromosome(child, samples)


class TestCrossover:
    def test_identical_parents_reproduce_tours(self, example):
        _, rm, chrom, _ = example
        child = crossover(chrom, chrom, random.Random(9))
        assert decode(child, rm).tours == decode(chrom, rm).tours

    def test_child_cluster_multiset_is_exact(self, example):
        _, rm, _, _ = example
        rng = random.Random(11)
        for _ in range(100):
            p1 = random_chromosome(rm, rng)
            p2 = random_chromosome(rm, rng)
            child = crossover(p1, p2, rng)
            validate_chromosome(child, rm)
            assert sorted(g for g in child.genes if g != 0) == list(range(1, rm.n_tasks + 1))

    def test_matches_reference_implementation(self, example):
        _, rm, chrom, _ = example
        rng1 = random.Random(1234)
        rng2 = random.Random(1234)
        p2 = reverse_segment(chrom, 2, 5)
        child = crossover(chrom, p2, rng1)
        want = reference_crossover(chrom, p2, MAParams.crossover_p1_share, rng2)
        assert fields(child) == fields(want)

    def test_matches_reference_on_random_pairs(self, example):
        _, rm, _, _ = example
        gen = random.Random(5)
        for trial in range(50):
            p1 = random_chromosome(rm, gen)
            p2 = random_chromosome(rm, gen)
            seed = gen.randint(0, 10 ** 9)
            child = crossover(p1, p2, random.Random(seed))
            want = reference_crossover(p1, p2, MAParams.crossover_p1_share, random.Random(seed))
            assert fields(child) == fields(want)


class TestImprove:
    def test_level1_schedule_counts(self, example):
        _, rm, _, ev = example
        rng = random.Random(3)
        chrom = random_chromosome(rm, rng)
        stats = ImproveStats()
        improve(chrom, "I", ev, rng, stats)
        assert stats.attempts["global_2opt"] == 1
        assert stats.attempts["local_2opt"] == 1
        assert stats.attempts["sample_swap"] == 1
        assert stats.attempts["task_swap"] == 5

    def test_level2_runs_until_streaks_exhaust(self, example):
        _, rm, _, ev = example
        rng = random.Random(4)
        chrom = random_chromosome(rm, rng)
        stats = ImproveStats()
        improve(chrom, "II", ev, rng, stats)
        for op in ("global_2opt", "local_2opt", "task_swap"):
            assert stats.attempts[op] >= MAParams.stagnation_streak_l2
            assert stats.attempts[op] == stats.accepts[op] + MAParams.stagnation_streak_l2 \
                or stats.attempts[op] > stats.accepts[op]
        assert stats.attempts["sample_swap"] == MAParams.sample_swap_repeats_l2

    def test_levels_are_cost_monotone(self, example):
        _, rm, _, ev = example
        rng = random.Random(6)
        for level in ("I", "II"):
            for _ in range(10):
                chrom = random_chromosome(rm, rng)
                before = ev.cost(chrom)
                after = improve(chrom, level, ev, rng)
                assert ev.cost(after) <= before + 1e-12

    def test_level2_not_worse_than_level1_same_seed(self, example):
        """Both schedules draw random moves, so from one start Level II can
        settle in a worse local optimum than Level I; over a fixed set of
        starts it must do no worse on average."""
        _, rm, _, ev = example
        level1, level2 = [], []
        for s in range(20):
            chrom = random_chromosome(rm, random.Random(s))
            out1 = improve(chrom, "I", ev, random.Random(99))
            out2 = improve(chrom, "II", ev, random.Random(99))
            assert ev.cost(out1) <= ev.cost(chrom) + 1e-12
            assert ev.cost(out2) <= ev.cost(chrom) + 1e-12
            level1.append(ev.cost(out1))
            level2.append(ev.cost(out2))
        assert sum(level2) <= sum(level1)

    def test_local_optimum_returned_unchanged(self, example):
        """A chromosome no single move can improve survives level I intact."""
        _, rm, _, ev = example
        rng = random.Random(8)
        chrom = random_chromosome(rm, rng)
        for _ in range(60):
            chrom = improve(chrom, "II", ev, rng)
        settled_cost = ev.cost(chrom)
        out = improve(chrom, "I", ev, rng)
        assert ev.cost(out) == pytest.approx(settled_cost)

    def test_unknown_level_rejected(self, example):
        _, rm, _, ev = example
        with pytest.raises(ValueError):
            improve(random_chromosome(rm, random.Random(0)), "III", ev, random.Random(0))
