"""The benchmark's workloads: which instances each one solves, and how.

A run of one workload solves a *round* of instances, each built from its
own sub-seed of the run's ``--seed``, and repeats that same round while
time remains.  A round takes half a run or less, so that a run times
several rounds spread over its whole length rather than one.  Everything
the solver receives is derived from the seed, so one seed always gives
the same inputs and, the solver being deterministic, the same tours.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ghmdatsp import build_instance
from ghmdatsp.instance import Instance

#: bays29 workloads run this many generations; the default stagnation
#: limit is 50, so the search never stops early and every run does the
#: same amount of work.
BAYS29_GENERATIONS = 10
TINY_GENERATIONS = 30
#: Refinement stops after this many sweeps.  Left to its convergence test
#: it took 6 to 30 sweeps on bays29 instances, which alone made the solve
#: time vary by a quarter from one instance to the next.
REFINE_SWEEPS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int  # instances per round
    max_generations: int
    refine: bool  # polish the memetic best with continuous refinement
    oracle: bool  # also solve exactly and export the integer program
    make_instance: Callable[[int], Instance]

    def sub_seeds(self, seed: int) -> list[int]:
        return [seed * 1000 + i for i in range(self.instances)]


def _single_s5(seed: int) -> Instance:
    return build_instance(n_vehicles=1, samples_per_cluster=5, velocity=50.0,
                          alpha=0.5, seed=seed)


def _fleet4_s10(seed: int) -> Instance:
    return build_instance(n_vehicles=4, samples_per_cluster=10,
                          velocity=[50.0, 60.0, 70.0, 80.0], alpha=0.5, seed=seed)


def _fleet4_nonin(seed: int) -> Instance:
    return build_instance(n_vehicles=4, samples_per_cluster=5, alpha=0.5,
                          nin_enabled=False, seed=seed)


def _tiny(seed: int) -> Instance:
    # one task per cell of a 3 x 2 grid over the square between the depots,
    # jittered: uniform placement made instances (and the exact solver's
    # pruning) differ so much that a run's mean cost spread by 12% per seed
    g = random.Random(seed)
    centers = [(x + g.uniform(-150.0, 150.0), y + g.uniform(-150.0, 150.0))
               for x in (200.0, 600.0, 1000.0) for y in (300.0, 900.0)]
    return build_instance(centers, n_vehicles=2, samples_per_cluster=2, velocity=50.0,
                          depots=[(0.0, 0.0), (1200.0, 1200.0)], sensing_range=150.0,
                          alpha=0.5, seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload("single-s5", instances=3, max_generations=BAYS29_GENERATIONS,
             refine=True, oracle=False, make_instance=_single_s5),
    # no refinement: on some seeds it returns a worse tour than it was given
    # (see CHANGES.md), and an operation that fails on some seeds only would
    # make the failed share differ from run to run
    Workload("fleet4-s10", instances=3, max_generations=BAYS29_GENERATIONS,
             refine=False, oracle=False, make_instance=_fleet4_s10),
    # not in BENCHMARK.json: a fourth workload would leave runs too short to
    # average out a shared host's drifting speed; it stays to be run by hand
    Workload("fleet4-nonin", instances=4, max_generations=BAYS29_GENERATIONS,
             refine=False, oracle=False, make_instance=_fleet4_nonin),
    Workload("tiny-oracle", instances=5, max_generations=TINY_GENERATIONS,
             refine=False, oracle=True, make_instance=_tiny),
)}

#: Solved once, untimed and unchecked, before a run starts its clock, so that
#: the first timed operation does not pay for first calls into the program.
WARM_UP = Workload("warm-up", instances=1, max_generations=2, refine=True, oracle=False,
                   make_instance=_tiny)
