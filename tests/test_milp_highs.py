"""The exported integer program, solved with HiGHS (``scipy.optimize.milp``).

The export holds no subtour rows, so it is a relaxation of the problem the
oracle solves: its optimum may sit below the oracle's, never above it.
``OPTIMA`` pins that optimum on ``random_tiny_instance`` keys 0-19 with
crossings on and off, so a change to the model that moves it fails here.
Adding the cut rows of every cycle the solution holds, round by round,
closes the gap.
"""

import dataclasses

import numpy as np
import pytest

from ghmdatsp.exact import (RelaxedSolution, export_milp, find_subtours, solve_bruteforce,
                            subtour_cut_rows)
from ghmdatsp.roadmap import build_roadmap

from conftest import random_tiny_instance

optimize = pytest.importorskip("scipy.optimize")

#: (key, crossings on) -> HiGHS optimum of the export, no cut rows
OPTIMA = {
    (0, True): 2292.009144947402,
    (0, False): 2292.009144947402,
    (1, True): 2701.9380421898504,
    (1, False): 2701.9380421898504,
    (2, True): 2198.595046560574,
    (2, False): 2198.595046560574,
    (3, True): 1316.2425632853242,
    (3, False): 1316.2425632853242,
    (4, True): 3296.705829520545,
    (4, False): 3296.705829520545,
    (5, True): 1047.0981096174269,
    (5, False): 1152.2615999350542,
    (6, True): 2735.8777464632967,
    (6, False): 2735.8777464632967,
    (7, True): 2431.998092803483,
    (7, False): 2431.998092803483,
    (8, True): 1945.0924134583727,
    (8, False): 1945.0924134583727,
    (9, True): 3009.005197444299,
    (9, False): 3009.005197444299,
    (10, True): 3333.2770471210047,
    (10, False): 3362.361720078408,
    (11, True): 1285.671032991451,
    (11, False): 1285.671032991451,
    (12, True): 2351.470620390837,
    (12, False): 2562.912633439251,
    (13, True): 1495.9064606790294,
    (13, False): 1495.9064606790296,
    (14, True): 2860.9149586578264,
    (14, False): 2860.9149586578264,
    (15, True): 1688.8444476111417,
    (15, False): 1688.8444476111417,
    (16, True): 1363.375646552926,
    (16, False): 1363.3756465529245,
    (17, True): 1263.784625077066,
    (17, False): 1263.784625077066,
    (18, True): 1375.6095280409247,
    (18, False): 1375.6095280409245,
    (19, True): 1951.5248971114524,
    (19, False): 1951.5248971114524,
}

#: Keys with one vehicle, or two vehicles and one sample per task.  The cut
#: loop reaches the oracle on the other seven keys too, in up to 16 rounds,
#: but those take about a minute between them.
LOOP_KEYS = [key for key, inst in enumerate(map(random_tiny_instance, range(20)))
             if inst.n_vehicles == 1 or inst.samples_per_cluster == 1]

#: Most solve-separate-cut rounds the cut loop may take
MAX_ROUNDS = 30


def solve_export(model):
    """HiGHS's result on ``model``: binaries integral in [0, 1], z >= 0."""
    names = model.variables()
    binaries = set(model.binaries)
    col = {v: i for i, v in enumerate(names)}
    c = np.zeros(len(names))
    for v, coef in model.objective.items():
        c[col[v]] = coef
    a = np.zeros((len(model.constraints), len(names)))
    lb = np.full(len(model.constraints), -np.inf)
    ub = np.full(len(model.constraints), np.inf)
    for i, (_, coeffs, sense, rhs) in enumerate(model.constraints):
        for v, coef in coeffs.items():
            a[i, col[v]] = coef
        if sense in ("=", ">="):
            lb[i] = rhs
        if sense in ("=", "<="):
            ub[i] = rhs
    binary = np.array([v in binaries for v in names])
    return optimize.milp(c, constraints=optimize.LinearConstraint(a, lb, ub),
                         integrality=binary.astype(int),
                         bounds=optimize.Bounds(np.zeros(len(names)),
                                                np.where(binary, 1.0, np.inf)),
                         options={"mip_rel_gap": 0.0})


@pytest.mark.parametrize("nin", [True, False], ids=["nin", "nonin"])
@pytest.mark.parametrize("key", range(20))
def test_export_optimum_pinned_and_below_oracle(key, nin):
    rm = build_roadmap(random_tiny_instance(key, nin=nin))
    res = solve_export(export_milp(rm))
    assert res.status == 0
    assert res.fun == pytest.approx(OPTIMA[(key, nin)], rel=1e-7, abs=0.0)
    assert res.fun <= solve_bruteforce(rm).objective * (1.0 + 1e-9)


def test_task_takes_at_most_one_node():
    """Without its ``once_t`` rows the export's optimum on key 12 takes both
    of task 1's nodes and sits 1.45 below the oracle's; with them it takes
    one node per task, and that candidate breaks exactly ``once_t1``."""
    rm = build_roadmap(random_tiny_instance(12))
    model = export_milp(rm)
    loose = dataclasses.replace(model, constraints=[row for row in model.constraints
                                                    if not row[0].startswith("once_t")])
    assert len(loose.constraints) == len(model.constraints) - rm.n_tasks

    def own_nodes_taken(res, names):
        y = dict(zip(names, res.x))
        return {t.id: round(sum(y[f"y_{nid}"] for veh in rm.vehicle_ids
                                for nid in rm.cluster_ids[(veh, t.id)]))
                for t in rm.instance.tasks}

    two_node = solve_export(loose)
    assert own_nodes_taken(two_node, loose.variables())[1] == 2
    assert model.check_assignment(dict(zip(loose.variables(), two_node.x))) == ["once_t1"]
    one_node = solve_export(model)
    assert max(own_nodes_taken(one_node, model.variables()).values()) <= 1
    assert two_node.fun < one_node.fun <= solve_bruteforce(rm).objective * (1.0 + 1e-9)


@pytest.mark.parametrize("nin", [True, False], ids=["nin", "nonin"])
@pytest.mark.parametrize("key", LOOP_KEYS)
def test_cut_loop_reaches_oracle(key, nin):
    """Solve, separate the integral candidate and add its cycles' cut rows
    until no cycle is left: the last candidate costs what the oracle's does."""
    rm = build_roadmap(random_tiny_instance(key, nin=nin))
    model = export_milp(rm)
    for _ in range(MAX_ROUNDS):
        res = solve_export(model)
        assert res.status == 0
        values = {v: round(val) for v, val in zip(model.variables(), res.x)}
        y = {int(v[2:]): val for v, val in values.items() if v.startswith("y_")}
        x = {tuple(map(int, v[2:].split("_"))): val for v, val in values.items()
             if v.startswith("x_")}
        cycles = find_subtours(RelaxedSolution(y, x), rm)
        if not cycles:
            break
        model.constraints.extend(subtour_cut_rows(cycles, rm))
    else:
        pytest.fail(f"cycles remain after {MAX_ROUNDS} rounds")
    assert res.fun == pytest.approx(solve_bruteforce(rm).objective, rel=1e-7, abs=0.0)
