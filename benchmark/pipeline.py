"""One operation: a single instance solved end to end through the public API.

build_instance -> build_roadmap -> memetic.run -> (build_chain -> refine)
-> (solve_bruteforce, export_milp) -> cli.tour_document + JSON.

Module functions are called through their modules (``memetic.run``, not a
name bound at import), so the tracer can wrap them from the outside.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import dataclass

from ghmdatsp import cli, exact, memetic
from ghmdatsp import roadmap as roadmap_mod
from ghmdatsp.instance import Instance
from ghmdatsp.memetic import MAParams, MAResult, TourSet
from ghmdatsp.refine import RefineParams, RefineResult
from ghmdatsp.roadmap import Roadmap

from workloads import REFINE_SWEEPS, Workload

# ``ghmdatsp.refine`` is the re-exported function; this is the module
refine_mod = importlib.import_module("ghmdatsp.refine")


def _no_span(name):
    return contextlib.nullcontext()


@dataclass
class Solved:
    sub_seed: int
    instance: Instance
    roadmap: Roadmap
    result: MAResult
    refined: RefineResult | None
    document: dict
    text: str  # the tour document as the CLI would write it
    oracle: TourSet | None
    oracle_document: dict | None
    milp_rows: int  # size of the exported program, 0 where none is exported
    milp_vars: int
    setup_s: float
    ma_s: float
    solve_s: float


def solve(workload: Workload, sub_seed: int, span=_no_span) -> Solved:
    """Solve one instance; ``span(name)`` opens a trace span (a no-op untraced)."""
    clock = time.perf_counter
    t0 = clock()
    with span("setup"):
        with span("instance.build"):
            inst = workload.make_instance(sub_seed)
        rm = roadmap_mod.build_roadmap(inst)
    t1 = clock()
    result = memetic.run(rm, MAParams(seed=sub_seed, max_generations=workload.max_generations))
    t2 = clock()

    method = "MA-NIN" if inst.nin_enabled else "MA-noNIN"
    objective = result.best_cost
    refined = None
    if workload.refine:
        chains = refine_mod.build_chain(result.best, rm)
        refined = refine_mod.refine(chains, list(inst.vehicles),
                                    RefineParams(max_sweeps=REFINE_SWEEPS),
                                    cost_metric=inst.cost_metric)
        objective = refine_mod.refined_objective(refined, result.best, inst.alpha,
                                                 inst.n_vehicles)
        method = "MA-NIN-PR"

    oracle = oracle_document = None
    milp_rows = milp_vars = 0
    if workload.oracle:
        oracle = exact.solve_bruteforce(rm)
        with span("exact.export"):
            model = exact.export_milp(rm)
            model.to_lp_text()
        milp_rows, milp_vars = len(model.constraints), len(model.variables())

    with span("cli.document"):
        document = cli.tour_document(inst, rm, result.best, method, objective, refined)
        text = json.dumps(document, indent=2, sort_keys=True)
        if oracle is not None:
            oracle_document = cli.tour_document(inst, rm, oracle, "ORACLE", oracle.objective)
            json.dumps(oracle_document, indent=2, sort_keys=True)
    t3 = clock()
    return Solved(sub_seed, inst, rm, result, refined, document, text, oracle,
                  oracle_document, milp_rows, milp_vars,
                  setup_s=t1 - t0, ma_s=t2 - t1, solve_s=t3 - t0)
