"""Golden traces: fixed-seed searches on bays29 that a speed-up must not change.

The values were recorded with the scalar cost table, before the vectorized
Dubins kernel replaced it.  A hot-path change passes only if, per seed, the
best cost of every generation, the termination reason, the final node tours
and the pruned nodes (in deletion order) all stay the same.
"""

import pytest

from ghmdatsp.instance import build_instance
from ghmdatsp.memetic import MAParams, run
from ghmdatsp.roadmap import build_roadmap

VELOCITIES = [50.0, 60.0, 70.0, 80.0]
SAMPLES = 3
GENERATIONS = 5

# (vehicles, seed) -> recorded trace
GOLDEN = {
    (1, 1): {
        "history": [10021.606192185858, 10021.606192185858, 9815.672847947482,
                    9815.672847947482, 9815.672847947482, 9692.844395404776],
        "reason": "max_generations",
        "tours": (
            (0, 52, 53, 61, 64, 88, 9, 77, 27, 17, 85, 23, 72, 49, 68, 21, 75, 56, 39, 12,
             33, 65, 1),
        ),
        "deleted": (30, 46, 14, 80, 37, 6, 41, 4),
    },
    (1, 2): {
        "history": [10888.313491111867, 10888.313491111867, 10888.313491111867,
                    10857.020861101673, 10857.020861101673, 10791.059864360903],
        "reason": "max_generations",
        "tours": (
            (0, 50, 42, 60, 6, 62, 16, 88, 10, 17, 35, 2, 24, 48, 70, 21, 74, 38, 11, 45,
             34, 67, 1),
        ),
        "deleted": (81, 79, 30, 55, 28, 84, 58, 73),
    },
    (4, 1): {
        "history": [5226.261737763019, 4999.3172982314845, 4999.3172982314845,
                    4999.3172982314845, 4410.4350246825525, 4410.4350246825525],
        "reason": "max_generations",
        "tours": (
            (0, 52, 41, 32, 39, 48, 44, 55, 1),
            (89, 125, 108, 174, 113, 90),
            (178, 238, 242, 205, 256, 265, 187, 179),
            (267, 336, 338, 325, 343, 288, 268),
        ),
        "deleted": (349, 279, 245, 193, 93, 184, 31),
    },
    (4, 2): {
        "history": [4330.766577068085] * 6,
        "reason": "max_generations",
        "tours": (
            (0, 51, 33, 10, 1),
            (89, 113, 91, 172, 108, 90),
            (178, 231, 223, 218, 239, 240, 193, 266, 179),
            (267, 325, 315, 337, 288, 268),
        ),
        "deleted": (348, 207, 42, 185, 341, 125, 255, 243, 206, 338, 191),
    },
}


@pytest.mark.parametrize("vehicles,seed", sorted(GOLDEN))
def test_search_trace_matches_golden(vehicles, seed):
    want = GOLDEN[(vehicles, seed)]
    inst = build_instance(n_vehicles=vehicles, samples_per_cluster=SAMPLES, alpha=0.5,
                          velocity=VELOCITIES[:vehicles], seed=seed)
    res = run(build_roadmap(inst), MAParams(seed=seed, max_generations=GENERATIONS))
    assert [h.best_cost for h in res.history] == pytest.approx(want["history"], rel=1e-9)
    assert res.termination_reason == want["reason"]
    assert res.best.tours == want["tours"]
    assert res.best.deleted == want["deleted"]
