"""Command-line front end: instance generation, solving, benchmarking.

Exit codes: 0 on success, 1 on usage errors, 2 on solve errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from . import exact, memetic
from .instance import (DEFAULT_ALPHA, DEFAULT_SAMPLES_PER_CLUSTER, DEFAULT_SENSING_RANGE,
                       DEFAULT_VELOCITY, Instance, build_instance, load_tsplib)
from .memetic import MAParams, TourSet
from .refine import (RefineError, build_chain, refine, refined_objective,
                     refined_vehicle_costs)
from .roadmap import Roadmap, build_roadmap
from .svgplot import render_solution

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVE = 2

BENCH_METHODS = ("MA-NIN", "MA-noNIN", "MA-NIN-PR", "ORACLE")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def fingerprint(instance: Instance) -> str:
    digest = hashlib.sha256(instance.to_json().encode()).hexdigest()[:16]
    return f"{digest}-seed{instance.seed}"


@dataclass
class RunReport:
    instance_fingerprint: str
    method: str
    wall_time_s: float
    objective: float | None = None
    generations: int | None = None
    termination_reason: str | None = None

    def summary(self) -> str:
        parts = [f"method={self.method}", f"instance={self.instance_fingerprint}"]
        if self.objective is not None:
            parts.append(f"objective={self.objective:.1f}")
        if self.generations is not None:
            parts.append(f"generations={self.generations}")
        if self.termination_reason:
            parts.append(f"stop={self.termination_reason}")
        parts.append(f"wall={self.wall_time_s:.1f}s")
        return "  ".join(parts)


def tour_document(instance: Instance, roadmap: Roadmap, tourset: TourSet, method: str,
                  objective: float, refine_result=None) -> dict:
    """The tour JSON payload; refined chains ride along when present."""
    costs = tourset.per_vehicle_cost
    chains = {}
    if refine_result is not None:
        costs = refined_vehicle_costs(refine_result, tourset)
        chains = {chain.vehicle_id: chain for chain in refine_result.chains}
    vehicles = []
    for veh, tour, cost in zip(instance.vehicles, tourset.tours, costs):
        nodes = []
        for nid in tour:
            s = roadmap.node_by_id[nid]
            nodes.append({
                "cluster": s.cluster,
                "sample": s.index_in_cluster,
                "config": [s.config.x, s.config.y, s.config.theta],
            })
        entry = {"id": veh.id, "cost": cost, "nodes": nodes}
        if veh.id in chains:
            entry["refined_chain"] = {
                "refined": True,
                "states": [
                    {"kind": s.kind, "cluster": s.cluster,
                     "config": [s.config.x, s.config.y, s.config.theta]}
                    for s in chains[veh.id].states
                ],
            }
        vehicles.append(entry)
    doc = {
        "instance_fingerprint": fingerprint(instance),
        "method": method,
        "objective": objective,
        "vehicles": vehicles,
    }
    if refine_result is not None:
        doc["refine_sweeps"] = refine_result.sweeps
        doc["refine_cost_trace"] = refine_result.cost_trace
    return doc


# ---------------------------------------------------------------------------
# Subcommands


def _add_generate(sub):
    p = sub.add_parser("generate", help="write an instance JSON file")
    p.add_argument("--tsplib", type=Path, help="TSPLIB file with NODE_COORD_SECTION")
    p.add_argument("--builtin", default=None, help="bundled point set name (default bays29)")
    p.add_argument("--vehicles", type=int, default=1)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES_PER_CLUSTER)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--velocity", type=float, default=DEFAULT_VELOCITY)
    p.add_argument("--range", dest="sensing_range", type=float, default=DEFAULT_SENSING_RANGE)
    p.add_argument("--metric", choices=("length", "time"), default="length")
    nin = p.add_mutually_exclusive_group()
    nin.add_argument("--nin", dest="nin", action="store_true", default=True)
    nin.add_argument("--no-nin", dest="nin", action="store_false")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)


def _time_limit(text: str) -> float:
    try:
        return MAParams(time_limit_s=float(text)).time_limit_s
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_solve(sub):
    p = sub.add_parser("solve", help="solve an instance JSON file")
    p.add_argument("instance", type=Path)
    p.add_argument("--method", choices=("ma", "oracle", "milp-export"), default="ma")
    nin = p.add_mutually_exclusive_group()
    nin.add_argument("--nin", dest="nin", action="store_true", default=None)
    nin.add_argument("--no-nin", dest="nin", action="store_false")
    p.add_argument("--refine", action="store_true")
    p.add_argument("--seed", type=int, default=None, help="override the solver seed")
    p.add_argument("--time-limit", type=_time_limit, default=None)
    p.add_argument("--out", type=Path, help="tour JSON (ma/oracle) or model text (milp-export)")
    p.add_argument("--svg", type=Path, help="tour drawing")


def _add_bench(sub):
    p = sub.add_parser("bench", help="run a benchmark grid from a config file")
    p.add_argument("config", type=Path)
    p.add_argument("--out-dir", type=Path, default=Path("."))


def cmd_generate(args) -> int:
    if args.tsplib is not None and args.builtin is not None:
        raise UsageError("pass either --tsplib or --builtin, not both")
    if args.tsplib is not None:
        centers = load_tsplib(args.tsplib.read_text())
    else:
        from .instance import builtin_task_centers
        centers = builtin_task_centers(args.builtin or "bays29")
    inst = build_instance(
        centers,
        n_vehicles=args.vehicles,
        samples_per_cluster=args.samples,
        alpha=args.alpha,
        velocity=args.velocity,
        sensing_range=args.sensing_range,
        cost_metric=args.metric,
        nin_enabled=args.nin,
        seed=args.seed,
    )
    args.out.write_text(inst.to_json() + "\n")
    print(f"wrote {args.out}  fingerprint={fingerprint(inst)}")
    return EXIT_OK


def _run_ma(roadmap: Roadmap, params: MAParams, refine_best: bool):
    """Memetic search, then refinement of its best tours when asked.

    Returns the search result, the refinement result (None when not
    refined) and the objective of the final tours.
    """
    result = memetic.run(roadmap, params)
    if not refine_best:
        return result, None, result.best_cost
    inst = roadmap.instance
    refine_result = refine(build_chain(result.best, roadmap), list(inst.vehicles),
                           cost_metric=inst.cost_metric)
    objective = refined_objective(refine_result, result.best, inst.alpha, inst.n_vehicles)
    return result, refine_result, objective


def cmd_solve(args) -> int:
    if args.refine and args.method != "ma":
        raise UsageError(f"--refine applies only to --method ma, not {args.method}")
    inst = Instance.from_json(args.instance.read_text())
    if args.nin is not None:
        inst = replace(inst, nin_enabled=args.nin)
    if args.refine and not inst.nin_enabled:
        raise UsageError("--refine applies to NIN solving; re-run with --nin")
    t0 = time.monotonic()
    roadmap = build_roadmap(inst)

    if args.method == "milp-export":
        model = exact.export_milp(roadmap)
        out = args.out or args.instance.with_suffix(".lp")
        out.write_text(model.to_lp_text())
        report = RunReport(fingerprint(inst), "MILP-EXPORT", time.monotonic() - t0)
        print(f"wrote {out}")
        print(report.summary())
        return EXIT_OK

    history_json = refine_result = None
    if args.method == "oracle":
        tourset = exact.solve_bruteforce(roadmap)
        report = RunReport(
            instance_fingerprint=fingerprint(inst),
            method="ORACLE",
            wall_time_s=time.monotonic() - t0,
            objective=tourset.objective,
        )
    else:
        params = MAParams(seed=inst.seed if args.seed is None else args.seed,
                          time_limit_s=args.time_limit)
        result, refine_result, objective = _run_ma(roadmap, params, args.refine)
        tourset = result.best
        method = "MA-NIN" if inst.nin_enabled else "MA-noNIN"
        if args.refine:
            method = "MA-NIN-PR"
        report = RunReport(
            instance_fingerprint=fingerprint(inst),
            method=method,
            wall_time_s=time.monotonic() - t0,
            objective=objective,
            generations=result.generations,
            termination_reason=result.termination_reason,
        )
        history_json = result.history_json()
    doc = tour_document(inst, roadmap, tourset, report.method, report.objective,
                        refine_result)

    print(report.summary())
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
        if history_json is not None:
            history_path = args.out.with_suffix(".history.json")
            history_path.write_text(history_json + "\n")
            print(f"wrote {history_path}")
    if args.svg:
        if refine_result is not None:
            svg = render_solution(inst, roadmap, chains=refine_result.chains)
        else:
            svg = render_solution(inst, roadmap, tourset=tourset)
        args.svg.write_text(svg)
        print(f"wrote {args.svg}")
    return EXIT_OK


def cmd_bench(args) -> int:
    config = json.loads(args.config.read_text())
    if not isinstance(config, dict):
        raise UsageError(f"bench config must be a JSON object, got {type(config).__name__}")
    not_lists = [key for key in ("vehicles", "samples", "seeds", "methods")
                 if not isinstance(config.get(key, []), list)]
    if not_lists:
        raise UsageError(f"bench config axes must be lists: {', '.join(not_lists)}")
    vehicles = config.get("vehicles", [1])
    samples = config.get("samples", [DEFAULT_SAMPLES_PER_CLUSTER])
    seeds = config.get("seeds", [0])
    methods = config.get("methods", ["MA-NIN"])
    velocity = config.get("velocity", DEFAULT_VELOCITY)
    alpha = config.get("alpha", DEFAULT_ALPHA)
    sensing = config.get("range", DEFAULT_SENSING_RANGE)
    metric = config.get("metric", "length")
    unknown = [method for method in methods if method not in BENCH_METHODS]
    if unknown:
        raise UsageError(f"unknown bench method(s) {', '.join(unknown)}; "
                         f"choose from {', '.join(BENCH_METHODS)}")

    rows = []
    for m in vehicles:
        for s in samples:
            for method in methods:
                objectives, times, failures = [], [], 0
                for seed in seeds:
                    try:
                        obj, wall = _bench_cell(m, s, method, seed, velocity, alpha,
                                                sensing, metric)
                        objectives.append(obj)
                        times.append(wall)
                    except Exception as exc:  # record and continue
                        failures += 1
                        print(f"cell (v={m}, s={s}, {method}, seed={seed}) failed: {exc}",
                              file=sys.stderr)
                rows.append({
                    "vehicles": m,
                    "samples": s,
                    "method": method,
                    "runs": len(seeds),
                    "failures": failures,
                    "mean_objective": sum(objectives) / len(objectives) if objectives else "",
                    "min_objective": min(objectives) if objectives else "",
                    "mean_wall_s": sum(times) / len(times) if times else "",
                })

    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / "bench.csv"
    md_path = args.out_dir / "bench.md"
    fieldnames = ["vehicles", "samples", "method", "runs", "failures",
                  "mean_objective", "min_objective", "mean_wall_s"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    csv_path.write_text(buf.getvalue())

    md = ["| " + " | ".join(fieldnames) + " |",
          "|" + "|".join(["---"] * len(fieldnames)) + "|"]
    for row in rows:
        md.append("| " + " | ".join(str(row[f]) for f in fieldnames) + " |")
    md_path.write_text("\n".join(md) + "\n")
    print(f"wrote {csv_path} and {md_path} ({len(rows)} rows)")
    return EXIT_OK


def _bench_cell(m, s, method, seed, velocity, alpha, sensing, metric):
    nin = method != "MA-noNIN"
    inst = build_instance(
        n_vehicles=m, samples_per_cluster=s, alpha=alpha, velocity=velocity,
        sensing_range=sensing, cost_metric=metric, nin_enabled=nin, seed=seed)
    t0 = time.monotonic()
    roadmap = build_roadmap(inst)
    if method == "ORACLE":
        ts = exact.solve_bruteforce(roadmap)
        return ts.objective, time.monotonic() - t0
    _, _, objective = _run_ma(roadmap, MAParams(seed=seed), method.endswith("-PR"))
    return objective, time.monotonic() - t0


def main(argv=None) -> int:
    parser = _Parser(prog="ghmdatsp",
                     description="Multi-vehicle Dubins touring with task neighborhoods")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_solve(sub)
    _add_bench(sub)
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_bench(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (exact.SizeLimitError, exact.MalformedSolutionError,
            RefineError, ValueError, OSError) as exc:
        print(f"solve error: {exc}", file=sys.stderr)
        return EXIT_SOLVE


if __name__ == "__main__":
    sys.exit(main())
