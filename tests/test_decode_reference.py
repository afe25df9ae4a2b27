"""The search's decoder deletes exactly what the reference pruning deletes.

``prune_reference.py`` holds the greedy pruning in its straightforward
form.  The decoder ranks only deletable tasks and caches detour savings;
these tests check that it returns the same tours, per-vehicle costs,
objective and deletion order on chromosomes that a search produces at the
benchmark's bays29 shapes, and on random chromosomes of small instances.
They also check that the saving tie-break decided some deletions, so the
cached savings are exercised, and pin the rule for equal savings on a
hand-built roadmap, since searched chromosomes never tie on them.
"""

import random

import numpy as np
import pytest

from ghmdatsp import memetic
from ghmdatsp.instance import build_instance
from ghmdatsp.geometry import Config
from ghmdatsp.memetic import Chromosome, MAParams, decode, random_chromosome
from ghmdatsp.roadmap import DEPOT, TERMINAL, Roadmap, SampleNode, build_roadmap

from conftest import random_tiny_instance
from prune_reference import reference_decode

SHAPES = {
    "single-s5": {"n_vehicles": 1, "samples_per_cluster": 5, "velocity": 50.0},
    "fleet4-s10": {"n_vehicles": 4, "samples_per_cluster": 10,
                   "velocity": [50.0, 60.0, 70.0, 80.0]},
}


def _ties_after_matching(chromosomes, roadmap):
    """Assert every decode equals the reference; return the tie-break count."""
    ties = 0
    for chrom in chromosomes:
        want, decided = reference_decode(chrom, roadmap)
        got = decode(chrom, roadmap)
        assert (got.tours, got.per_vehicle_cost, got.objective, got.deleted) == \
            (want.tours, want.per_vehicle_cost, want.objective, want.deleted)
        ties += decided
    return ties


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_searched_chromosomes_decode_like_reference(shape, monkeypatch):
    rm = build_roadmap(build_instance(alpha=0.5, seed=1000, **SHAPES[shape]))
    seen = []
    real = memetic._decode

    def harvest(chrom, roadmap):
        seen.append(chrom)
        return real(chrom, roadmap)

    monkeypatch.setattr(memetic, "_decode", harvest)
    memetic.run(rm, MAParams(seed=1000, max_generations=2))
    monkeypatch.undo()
    assert len(seen) > 1000
    assert _ties_after_matching(seen, rm) > 0


def test_random_chromosomes_of_tiny_instances_decode_like_reference():
    ties = 0
    for key in range(20):
        rm = build_roadmap(random_tiny_instance(key, nin=True))
        rng = random.Random(key)
        ties += _ties_after_matching([random_chromosome(rm, rng) for _ in range(50)], rm)
    assert ties > 0


def test_equal_savings_delete_the_smaller_task_first():
    # one vehicle visits tasks 1-4 in order; the node of task 3 crosses task 1
    # and the node of task 4 crosses task 2, so tasks 1 and 2 tie on basket
    # and crossing count, and with every edge costing 1 both save exactly 1
    inst = build_instance([(100.0 * k, 0.0) for k in range(1, 5)], n_vehicles=1,
                          samples_per_cluster=1, velocity=50.0, seed=1)
    clusters = [DEPOT, TERMINAL, 1, 2, 3, 4]
    nodes = [SampleNode(nid, 1, c, 1, Config(0.0, 0.0, 0.0)) for nid, c in enumerate(clusters)]
    crossed = {0: set(), 1: set(), 2: set(), 3: set(), 4: {1}, 5: {2}}
    rm = Roadmap(inst, nodes, {1: np.ones((6, 6))}, crossed)
    chrom = Chromosome([1, 2, 3, 4], [0, 1, 1, 1, 1])
    assert decode(chrom, rm).deleted == (2, 3)
    assert _ties_after_matching([chrom], rm) == 1
