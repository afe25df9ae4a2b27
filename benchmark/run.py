"""Solve benchmark: run one workload for a while and print its metrics.

    python3 benchmark/run.py --workload fleet4-s10 --seed 3 --seconds 34 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  After one untimed warm-up solve, a run solves the
workload's round of instances (one sub-seed each) and repeats that round
while another one, as long as the rounds so far took on average, would
end no later than half a round after ``--seconds`` of solving; so a run
solves for ``--seconds`` on average, and checks on top of that.  Each
instance is one operation; it fails if the program raises or a check
rejects its output.  Every first-round result goes
through the checks in ``check.py``; repeats must reproduce the first
round exactly.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (no tracing
active); with ``--trace 1`` they are the per-layer ones from a traced run,
and the spans are written to ``benchmark/out/``.  Exits with status 1,
printing no result, when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure it is what loads."""
    if not (SRC / "ghmdatsp" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program sources at {SRC / 'ghmdatsp'}")
    sys.path.insert(0, str(SRC))
    import ghmdatsp
    if Path(ghmdatsp.__file__).resolve().parent != (SRC / "ghmdatsp").resolve():
        sys.exit(f"benchmark: ghmdatsp loaded from {ghmdatsp.__file__}, not {SRC}")


def _mean(values):
    return sum(values) / len(values)


def end_to_end(solved, peak_rss_mb):
    # the host's speed drifts over tens of seconds, so the solve time and the
    # search rate (generations over search time) average over the whole run;
    # set-up is the median of the run's set-ups; objectives are deterministic
    # per sub-seed
    median = statistics.median
    generations = sum(s.result.generations for s in solved)
    return {
        "solve_s": (_mean([s.solve_s for s in solved]), "s"),
        "setup_s": (median([s.setup_s for s in solved]), "s"),
        "generations_per_s": (generations / sum(s.ma_s for s in solved), "1/s"),
        "objective": (_mean([s.document["objective"] for s in solved]), "cost"),
        "objective_ma": (_mean([s.result.best_cost for s in solved]), "cost"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _chain_excess(s):
    """How much longer the chains handed to refinement are than their tours."""
    if s.refined is None:
        return 0.0
    ids = {c.vehicle_id for c in s.refined.chains}
    tours = sum(c for k, c in enumerate(s.result.best.per_vehicle_cost, start=1) if k in ids)
    return s.refined.cost_trace[0] / tours - 1.0


def per_layer(solved, tracer):
    n = len(solved)
    c = tracer.counts
    total = tracer.total
    generations = sum(s.result.generations for s in solved)
    init_s = total("memetic.init")
    run_s = total("memetic.run")
    cost_table_s = total("roadmap.cost_table")
    pairs = sum(int(sum((m < float("inf")).sum() for m in s.roadmap.cost.values()))
                for s in solved)
    accepts = {k: 0 for k in ("global_2opt", "local_2opt", "task_swap", "sample_swap")}
    attempts = dict(accepts)
    best_improvements = 0
    for s in solved:
        for k in accepts:
            accepts[k] += s.result.op_stats.accepts[k]
            attempts[k] += s.result.op_stats.attempts[k]
        costs = [h.best_cost for h in s.result.history]
        best_improvements += sum(1 for a, b in zip(costs, costs[1:]) if b < a - 1e-12)
    refined = [s for s in solved if s.refined is not None]
    out = {
        "geometry.dubins_calls": (c["dubins.calls"] / n, "count"),
        "geometry.dubins_us": (1e6 * c["dubins.s"] / max(c["dubins.calls"], 1), "us"),
        "geometry.nin_checks": (c["nin_check.calls"] / n, "count"),
        "roadmap.samples_s": (total("roadmap.samples") / n, "s"),
        "roadmap.cost_table_s": (cost_table_s / n, "s"),
        "roadmap.nin_tables_s": (total("roadmap.nin_tables") / n, "s"),
        "roadmap.assemble_s": (total("roadmap.assemble") / n, "s"),
        "roadmap.pairs": (pairs / n, "count"),
        "roadmap.pairs_per_s": (pairs / cost_table_s, "1/s"),
        "roadmap.nin_pairs": (sum(sum(len(v) for v in s.roadmap.nin_node_to_tasks.values())
                                  for s in solved) / n, "count"),
        "memetic.run_s": (run_s / n, "s"),
        "memetic.init_s": (init_s / n, "s"),
        "memetic.generation_s": ((run_s - init_s) / generations, "s"),
        "memetic.generations": (generations / n, "count"),
        "memetic.decodes": (c["decode.calls"] / n, "count"),
        "memetic.decode_us": (1e6 * c["decode.s"] / max(c["decode.calls"], 1), "us"),
        "memetic.cost_calls": (c["cost.calls"] / n, "count"),
        "memetic.decode_hit_ratio": (1.0 - c["decode.calls"] / c["lookups"], "ratio"),
        "memetic.pruned_per_decode": (c["decode.pruned"] / max(c["decode.calls"], 1), "count"),
        "memetic.improve_l1_calls": (c["improve.I"] / n, "count"),
        "memetic.improve_l2_calls": (c["improve.II"] / n, "count"),
        "memetic.improve_s": (total("memetic.improve") / n, "s"),
        "memetic.crossover_us": (1e6 * total("memetic.crossover")
                                 / max(1, sum(1 for sp in tracer.spans
                                              if sp[0] == "memetic.crossover")), "us"),
        "memetic.select_us": (1e6 * total("memetic.select")
                              / max(1, sum(1 for sp in tracer.spans
                                           if sp[0] == "memetic.select")), "us"),
        "memetic.best_improvements": (best_improvements / n, "count"),
        "memetic.final_pruned": (_mean([len(s.result.best.deleted) for s in solved]), "count"),
        "refine.build_chain_s": (total("refine.build_chain") / n, "s"),
        "refine.refine_s": (total("refine.refine") / n, "s"),
        "refine.sweeps": (sum(s.refined.sweeps for s in refined) / n, "count"),
        "refine.states": (sum(len(ch.states) for s in refined for ch in s.refined.chains) / n,
                          "count"),
        "refine.simplex_runs": (c["simplex.calls"] / n, "count"),
        "refine.dubins_calls": (c["refine.dubins_calls"] / n, "count"),
        "refine.gain": (_mean([1.0 - s.document["objective"] / s.result.best_cost
                               for s in solved]), "ratio"),
        "refine.chain_excess": (_mean([_chain_excess(s) for s in solved]), "ratio"),
        "exact.oracle_s": (total("exact.oracle") / n, "s"),
        "exact.export_s": (total("exact.export") / n, "s"),
        "exact.milp_rows": (sum(s.milp_rows for s in solved) / n, "count"),
        "exact.milp_vars": (sum(s.milp_vars for s in solved) / n, "count"),
        "cli.document_s": (total("cli.document") / n, "s"),
        "traced.solve_s": (_mean([s.solve_s for s in solved]), "s"),
    }
    for k in accepts:
        out[f"memetic.accept.{k}"] = (accepts[k] / max(attempts[k], 1), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    import check
    import pipeline
    from tracing import Tracer
    from workloads import WARM_UP, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    if args.trace:
        tracer.install()

    reference: dict[int, str] = {}  # first-round tour text per sub-seed
    solved: list = []
    attempted = failed = 0
    peak_rss_mb = None
    selftest_failures: list[str] = []
    pipeline.solve(WARM_UP, args.seed)
    t_start = time.perf_counter()
    round_no = 0
    rounds_s = 0.0
    while True:
        round_no += 1
        round_solved = []
        round_start = time.perf_counter()
        for sub_seed in workload.sub_seeds(args.seed):
            attempted += 1
            tracer.instance = attempted - 1
            tracer.enabled = bool(args.trace)
            try:
                with tracer.span("instance"):
                    out = pipeline.solve(workload, sub_seed, tracer.span)
            except Exception:  # the program raised: a failed operation
                failed += 1
                traceback.print_exc()
                continue
            finally:
                tracer.enabled = False
            round_solved.append(out)
        rounds_s += time.perf_counter() - round_start
        if peak_rss_mb is None:
            # before any check runs, so the checker's own memory is left out
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for out in round_solved:
            try:
                if out.sub_seed in reference:
                    check.check_repeat(out.text, reference[out.sub_seed])
                else:
                    check.check_solved(out)
            except check.CheckError as exc:
                failed += 1
                print(f"benchmark: sub-seed {out.sub_seed} rejected: {exc}", file=sys.stderr)
                continue
            if not reference:
                selftest_failures = check.self_test(out)
            reference.setdefault(out.sub_seed, out.text)
            solved.append(out)
        if not round_solved or rounds_s + 0.5 * rounds_s / round_no > args.seconds:
            break

    for msg in selftest_failures:
        print(f"benchmark: checker self-test failed: {msg}", file=sys.stderr)
    correct = bool(solved) and not selftest_failures
    metrics = {}
    if solved:
        if args.trace:
            metrics = per_layer(solved, tracer)
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"trace-{workload.name}-seed{args.seed}.json")
        else:
            metrics = end_to_end(solved, peak_rss_mb)
    tracer.restore()

    if workload.oracle and solved:
        attained = sum(1 for s in solved
                       if s.result.best_cost <= s.oracle.objective * (1.0 + 1e-6))
        print(f"benchmark: {attained}/{len(solved)} exact optima attained", file=sys.stderr)
    print(f"benchmark: {workload.name} seed {args.seed}: {round_no} round(s), "
          f"{attempted} instances, {failed} failed, {time.perf_counter() - t_start:.1f}s",
          file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
