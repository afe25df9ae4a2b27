"""The benchmark's tracer still finds every hook it wraps.

``benchmark/tracing.py`` replaces module attributes of the program by name.
If the program renames or stops calling one of them, a traced benchmark run
reports zeros for that layer instead of failing.  This test traces two
solves through ``benchmark/pipeline.py`` and checks that every counter and
span the per-layer metrics read is fed, that ``restore`` puts each
original attribute back, and that the runs' own decode counts match the
tracer's.  It also computes ``run.py``'s end-to-end and per-layer metrics
from the two solves, which read the program's results and roadmaps, and
checks that every metric ``BENCHMARK.json`` names is there and finite.  It
reads the benchmark's files and edits none.
"""

import importlib
import json
import math
from pathlib import Path

import pytest

from ghmdatsp import exact, geometry, memetic
from ghmdatsp import refine as refine_mod
from ghmdatsp import roadmap as roadmap_mod

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"

COUNTERS = ["improve.I", "decode.calls", "cost.calls", "lookups", "simplex.calls",
            "refine.dubins_calls", "nin_check.calls"]
SPANS = ["roadmap.build", "roadmap.samples", "roadmap.cost_table", "roadmap.nin_tables",
         "roadmap.assemble", "memetic.run", "memetic.init", "memetic.improve",
         "memetic.select", "memetic.crossover", "refine.build_chain", "refine.refine",
         "exact.oracle"]


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    return (importlib.import_module("tracing"), importlib.import_module("pipeline"),
            importlib.import_module("workloads"), importlib.import_module("run"))


def test_tracer_hooks_see_every_layer(bench):
    tracing, pipeline, workloads, run = bench
    owners = [geometry, roadmap_mod, refine_mod, memetic,
              exact, roadmap_mod.Roadmap, memetic.Evaluator]
    before = [dict(vars(owner)) for owner in owners]

    tracer = tracing.Tracer()
    tracer.install()
    solved = []
    try:
        tracer.enabled = True
        for instance, (workload, sub_seed) in enumerate(
                [(workloads.WARM_UP, 1), (workloads.WORKLOADS["tiny-oracle"], 1000)]):
            tracer.instance = instance
            with tracer.span("instance"):
                solved.append(pipeline.solve(workload, sub_seed, tracer.span))
        tracer.enabled = False
    finally:
        tracer.restore()

    assert {name: tracer.counts[name] for name in COUNTERS if not tracer.counts[name] > 0} == {}
    seen = {span[0] for span in tracer.spans}
    assert [name for name in SPANS if name not in seen] == []
    for owner, attrs in zip(owners, before):
        assert [name for name, value in attrs.items() if vars(owner).get(name) is not value] == []
    # the run's own counts agree with what the tracer saw
    assert sum(out.result.decodes for out in solved) == tracer.counts["decode.calls"]
    assert sum(out.result.pruned_nodes for out in solved) == tracer.counts["decode.pruned"]
    assert tracer.counts["decode.pruned"] > 0

    declared = json.loads((BENCHMARK.parent / "BENCHMARK.json").read_text())
    for group, metrics in (("end_to_end", run.end_to_end(solved, 0.0)),
                           ("per_layer", run.per_layer(solved, tracer))):
        names = [m["name"] for m in declared[group]]
        assert [name for name in names if name not in metrics] == [], group
        assert {name: metrics[name][0] for name in names
                if not math.isfinite(metrics[name][0])} == {}, group
