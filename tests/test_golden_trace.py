"""Golden traces: fixed-seed searches on bays29 that a speed-up must not change.

The values were recorded when the chromosome lost its per-vehicle
depot/terminal sample pairs and the m delimiters that carried them.  Every
built roadmap has one depot node and one terminal node per vehicle, so
those pairs held no choice, but their random draws and the delimiters'
positions in the gene string steered the search; dropping them changed
every trace below.  A hot-path
change passes only if, per seed, the best cost of every generation, the
termination reason, the final node tours, the pruned nodes (in deletion
order) and the local-search operators' attempt and accept tallies all stay
the same.
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
        "history": [10097.694888065924, 10009.716280433711, 10009.716280433711,
                    10009.716280433711, 9763.823952892228, 9763.823952892228],
        "reason": "max_generations",
        "tours": (
            (0, 52, 53, 61, 64, 88, 9, 77, 27, 17, 4, 73, 49, 68, 21, 75, 56, 39, 12, 33,
             65, 1),
        ),
        "deleted": (43, 81, 25, 15, 37, 46, 6, 31, 85),
    },
    (1, 2): {
        "history": [10621.342994241068] * 6,
        "reason": "max_generations",
        "tours": (
            (0, 50, 55, 60, 7, 10, 86, 14, 62, 35, 19, 3, 25, 49, 70, 21, 74, 32, 58, 39,
             12, 67, 1),
        ),
        "deleted": (82, 84, 44, 79, 28, 41, 31, 72),
    },
    (4, 1): {
        "history": [4878.591154290101] * 6,
        "reason": "max_generations",
        "tours": (
            (0, 52, 42, 65, 34, 1),
            (89, 112, 173, 124, 94, 127, 101, 134, 90),
            (178, 193, 204, 257, 266, 187, 179),
            (267, 336, 347, 316, 325, 343, 288, 268),
        ),
        "deleted": (149, 119, 340, 92, 144, 106, 241),
    },
    (4, 2): {
        "history": [4118.460810124087] * 6,
        "reason": "max_generations",
        "tours": (
            (0, 50, 33, 67, 59, 39, 12, 54, 1),
            (89, 125, 107, 174, 93, 113, 90),
            (178, 240, 205, 266, 188, 179),
            (267, 335, 316, 324, 289, 268),
        ),
        "deleted": (42, 340, 342, 347, 6, 30, 46, 255, 192),
    },
}

# (vehicles, seed) -> operator (attempts, accepts)
OPERATOR_TALLIES = {
    (1, 1): {
        "global_2opt": (707, 116),
        "local_2opt": (707, 101),
        "task_swap": (2905, 399),
        "sample_swap": (595, 541),
    },
    (1, 2): {
        "global_2opt": (634, 95),
        "local_2opt": (631, 106),
        "task_swap": (2830, 356),
        "sample_swap": (574, 530),
    },
    (4, 1): {
        "global_2opt": (550, 194),
        "local_2opt": (550, 158),
        "task_swap": (2750, 556),
        "sample_swap": (550, 528),
    },
    (4, 2): {
        "global_2opt": (560, 166),
        "local_2opt": (565, 177),
        "task_swap": (2760, 485),
        "sample_swap": (553, 536),
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
    tallies = {op: (res.op_stats.attempts[op], res.op_stats.accepts[op])
               for op in res.op_stats.attempts}
    assert tallies == OPERATOR_TALLIES[(vehicles, seed)]


# The benchmark's bays29 shapes, crossings on: (vehicles, samples) -> recorded
# trace at seed 1.  Recorded at commit f77a34a, before the evaluator ranked
# only deletable tasks and cached detour savings, with the search above.
BENCHMARK_SHAPES = {
    (1, 5): {
        "history": [9755.884139360329, 9755.884139360329, 9734.642377492848,
                    9734.642377492848, 9721.530569664392, 9522.559739952632],
        "reason": "max_generations",
        "tours": (
            (0, 82, 89, 96, 53, 126, 36, 116, 81, 134, 2, 139, 30, 46, 131, 13, 105, 98, 64,
             20, 111, 1),
        ),
        "deleted": (51, 58, 26, 76, 38, 8, 121, 144, 70),
        "tallies": {
            "global_2opt": (625, 106),
            "local_2opt": (625, 110),
            "task_swap": (2805, 379),
            "sample_swap": (569, 535),
        },
    },
    (4, 10): {
        "history": [3861.7457763563107] + [3508.294610847224] * 5,
        "reason": "max_generations",
        "tours": (
            (0, 166, 139, 108, 127, 35, 1),
            (292, 346, 297, 369, 293),
            (584, 678, 597, 668, 844, 610, 585),
            (876, 1106, 1030, 1127, 942, 877),
        ),
        "deleted": (1111, 146, 629, 780, 570, 406, 870, 175, 791, 796, 1139, 1064),
        "tallies": {
            "global_2opt": (584, 154),
            "local_2opt": (589, 166),
            "task_swap": (2773, 429),
            "sample_swap": (556, 531),
        },
    },
}


@pytest.mark.parametrize("vehicles,samples", sorted(BENCHMARK_SHAPES))
def test_benchmark_shape_trace_matches_golden(vehicles, samples):
    want = BENCHMARK_SHAPES[(vehicles, samples)]
    inst = build_instance(n_vehicles=vehicles, samples_per_cluster=samples, alpha=0.5,
                          velocity=VELOCITIES[:vehicles], seed=1)
    res = run(build_roadmap(inst), MAParams(seed=1, max_generations=GENERATIONS))
    assert [h.best_cost for h in res.history] == want["history"]
    assert res.termination_reason == want["reason"]
    assert res.best.tours == want["tours"]
    assert res.best.deleted == want["deleted"]
    tallies = {op: (res.op_stats.attempts[op], res.op_stats.accepts[op])
               for op in res.op_stats.attempts}
    assert tallies == want["tallies"]
