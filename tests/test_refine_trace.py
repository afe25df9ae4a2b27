"""Refinement traces: fixed chains on bays29 whose refinement must not change.

The values were recorded with ``scipy.optimize.minimize(method="Nelder-Mead")``
as the per-state search, before ``refine.minimize`` replaced it.  A change
to the search passes only if, per case, the total cost after every
half-sweep, the per-chain costs and every final state pose stay equal.
The chains are built from pinned node tours: the best of the polished
initial population of a seeded search (``run(..., max_generations=0)``),
recorded before the chromosome lost its depot/terminal sample pairs.  Pinning
the tours keeps these values independent of the search.
"""

import functools
import hashlib
import importlib

import pytest

from ghmdatsp.instance import build_instance
from ghmdatsp.memetic import TourSet
from ghmdatsp.refine import RefineParams, build_chain, refine
from ghmdatsp.roadmap import build_roadmap

# the package re-exports the function ``refine``; this is the module
refine_mod = importlib.import_module("ghmdatsp.refine")

VELOCITIES = [50.0, 60.0]
SAMPLES = 3
SWEEPS = 3

# (vehicles, seed) -> node tours per vehicle; both metrics rank tours alike
TOURS = {
    (1, 1): ((0, 52, 53, 61, 64, 88, 9, 77, 27, 19, 85, 23, 72, 49, 68, 21, 75, 33, 56, 39,
              12, 65, 1),),
    (1, 2): ((0, 50, 55, 60, 6, 62, 16, 88, 10, 35, 18, 3, 24, 48, 70, 21, 74, 32, 58, 39,
              12, 43, 1),),
    (2, 1): ((0, 52, 54, 44, 61, 57, 47, 33, 67, 1),
             (89, 114, 161, 173, 124, 116, 168, 175, 94, 129, 163, 109, 159, 90)),
    (2, 2): ((0, 50, 42, 61, 13, 45, 76, 34, 67, 1),
             (89, 113, 161, 92, 124, 117, 167, 97, 94, 152, 127, 137, 110, 157, 90)),
}

# (vehicles, seed, metric) -> (cost trace, per-chain cost, digest of the final poses)
GOLDEN = {
    (1, 1, "length"): (
        [10435.46115912194, 8841.983468019715, 7649.026270773518, 7468.606439137117,
         7407.864097125685, 7384.708398819992, 7379.728829970465],
        [7379.728829970465],
        "92c81267177182f7909263b3b39e4e0573aa324953b179e7c270495739d67065"),
    (1, 1, "time"): (
        [208.70922318243876, 176.8396693603943, 152.98052541547037, 149.37212878274238,
         148.15728194251366, 147.69416797639983, 147.59457659940924],
        [147.59457659940924],
        "92c81267177182f7909263b3b39e4e0573aa324953b179e7c270495739d67065"),
    (1, 2, "length"): (
        [12883.184589956672, 9595.068601297051, 8155.236576374684, 8068.029881622769,
         7947.426741222419, 7930.645629898241, 7862.612879491764],
        [7862.612879491764],
        "9fea18c7e42895342d1013b010655fa05b79c8f9cdef2924a264f4992d2cd32d"),
    (1, 2, "time"): (
        [257.66369179913346, 191.90137202594096, 163.10473152749364, 161.3605976324554,
         158.94853482444833, 158.61291259796477, 157.2522575898353],
        [157.2522575898353],
        "9fea18c7e42895342d1013b010655fa05b79c8f9cdef2924a264f4992d2cd32d"),
    (2, 1, "length"): (
        [13657.21499669681, 10185.485133309861, 9313.740849438116, 9073.962857478382,
         8919.840457933675, 8900.573492349804, 8869.61086588964],
        [3211.7362962042403, 5657.8745696853985],
        "9cac4f3b30e62b83be31c3e11d141013cc7c8cb63012950d6c2ac5fc9d5db051"),
    (2, 1, "time"): (
        [244.13351523000665, 181.61754250756633, 166.1039730901104, 162.00658783829658,
         159.40267783143543, 159.05695062713542, 158.53263541884144],
        [64.23472592408481, 94.29790949475662],
        "3ebedf95af46f32fb7aa02b5c0e0d387fd193093ab109277365ead9c5c10e970"),
    (2, 2, "length"): (
        [15069.147462377634, 11164.464174470675, 9515.241195244049, 9273.475683080494,
         8899.845939903258, 8860.044444194335, 8801.78265907929],
        [3074.093862339245, 5727.688796740045],
        "e69aabcd5a3e9f10ccaa5dd8e5ef0aa1df27f93175eeec60f9a3302f48ac2bdb"),
    (2, 2, "time"): (
        [266.063096705709, 197.34438833430522, 169.1035876202052, 164.95255029499555,
         158.6600029830574, 157.9411119648486, 156.9433571924523],
        [61.4818772467849, 95.46147994566742],
        "a949b23523eb95d5dc66bb35c05dadeb677c249b1c1cdcd8afcc0d67dcbeef01"),
}


@functools.lru_cache(maxsize=None)
def chains_for(vehicles, seed, metric):
    inst = build_instance(n_vehicles=vehicles, samples_per_cluster=SAMPLES, alpha=0.5,
                          velocity=VELOCITIES[:vehicles], cost_metric=metric, seed=seed)
    rm = build_roadmap(inst)
    return build_chain(TourSet.from_tours(TOURS[(vehicles, seed)], rm), rm), list(inst.vehicles)


def refined(vehicles, seed, metric):
    chains, fleet = chains_for(vehicles, seed, metric)
    return refine(chains, fleet, RefineParams(max_sweeps=SWEEPS), metric)


ours = functools.lru_cache(maxsize=None)(refined)  # with refine.minimize, shared by both tests


def pose_digest(result):
    poses = [[(float(s.config.x), float(s.config.y), float(s.config.theta)) for s in c.states]
             for c in result.chains]
    return hashlib.sha256(repr(poses).encode()).hexdigest()


@pytest.mark.parametrize("vehicles,seed,metric", sorted(GOLDEN))
def test_refinement_trace_matches_golden(vehicles, seed, metric):
    trace, per_chain, digest = GOLDEN[(vehicles, seed, metric)]
    out = ours(vehicles, seed, metric)
    assert out.cost_trace == trace
    assert out.per_chain_cost == per_chain
    assert (out.sweeps, out.stop_reason == "converged") == (SWEEPS, False)
    assert pose_digest(out) == digest


def scipy_minimize(fun, simplex):
    """``refine.minimize`` as scipy's Nelder–Mead with the options refinement used."""
    optimize = pytest.importorskip("scipy.optimize")
    res = optimize.minimize(fun, simplex[0], method="Nelder-Mead",
                            options={"maxfev": refine_mod.MAX_EVALUATIONS, "xatol": 1e-7,
                                     "fatol": 1e-10, "initial_simplex": simplex})
    return res.x, res.fun


@pytest.mark.parametrize("vehicles,seed,metric", sorted(GOLDEN))
def test_refinement_matches_scipy(vehicles, seed, metric, monkeypatch):
    pytest.importorskip("scipy")
    want = ours(vehicles, seed, metric)
    monkeypatch.setattr(refine_mod, "minimize", scipy_minimize)
    assert refined(vehicles, seed, metric) == want


@pytest.mark.parametrize("start", [(0.3,), (2.0, -1.0, 0.5), (-1.2, 1.0, 40.0)])
def test_minimize_matches_scipy_step_for_step(start):
    # a smooth and a kinked cost; the 1-D search converges, the 3-D ones
    # spend every evaluation
    def fun(v):
        return sum((1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2 for a, b in zip(v, v[1:])) \
            + sum(abs(a - 0.1 * k) for k, a in enumerate(v))

    simplex = [list(start)] + [[a + (0.5 if i == k else 0.0) for i, a in enumerate(start)]
                               for k in range(len(start))]
    want_x, want_cost = scipy_minimize(fun, simplex)
    x, cost = refine_mod.minimize(fun, simplex)
    assert (list(x), cost) == (list(want_x), want_cost)
