"""Crossing claims agree with the paths: every task that NIN pruning leaves
to be crossed is entered by the densified tour that claims it."""

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ghmdatsp.instance import build_instance
from ghmdatsp.memetic import decode, random_chromosome
from ghmdatsp.refine import build_chain
from ghmdatsp.roadmap import build_roadmap

from conftest import coverage_ok


@functools.cache
def bays29_roadmap(velocity: float, n_vehicles: int):
    """One roadmap per (velocity, fleet size), built once for the module."""
    return build_roadmap(build_instance(n_vehicles=n_vehicles, samples_per_cluster=3,
                                        velocity=velocity, seed=11))


@given(velocity=st.sampled_from([50.0, 60.0, 70.0]), n_vehicles=st.sampled_from([1, 2]),
       chrom_seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_pruned_tours_enter_every_claimed_disk(velocity, n_vehicles, chrom_seed):
    rm = bays29_roadmap(velocity, n_vehicles)
    ts = decode(random_chromosome(rm, random.Random(chrom_seed)), rm)
    assert coverage_ok(ts, rm)
    build_chain(ts, rm)  # raises RefineError when a claimed disk is never entered
