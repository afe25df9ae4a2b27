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
from dataclasses import replace
from pathlib import Path

from . import exact, memetic
from .instance import (DEFAULT_ALPHA, DEFAULT_SAMPLES_PER_CLUSTER, DEFAULT_SENSING_RANGE,
                       DEFAULT_VELOCITY, Instance, InstanceError, _check_keys, build_instance,
                       builtin_task_centers, load_tsplib)
from .memetic import MAParams, TourSet
from .refine import (RefineError, build_chain, refine, refined_objective,
                     refined_vehicle_costs)
from .roadmap import Roadmap, build_roadmap
from .svgplot import render_solution

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVE = 2

BENCH_METHODS = ("MA-NIN", "MA-noNIN", "MA-NIN-PR")

#: Keys of a bench config, each with the JSON kind it holds; all are optional.
BENCH_KEYS = {"vehicles": "list of integer", "samples": "list of integer",
              "seeds": "list of integer", "methods": "list of string",
              "velocity": "number or list of number", "alpha": "number",
              "range": "number or list of number", "metric": "string"}

#: Options of `solve` that only some methods read.
METHOD_OPTIONS = {"--refine": ("ma",), "--seed": ("ma",), "--time-limit": ("ma",),
                  "--svg": ("ma", "oracle")}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def fingerprint(instance: Instance) -> str:
    digest = hashlib.sha256(instance.to_json().encode()).hexdigest()[:16]
    return f"{digest}-seed{instance.seed}"


def _summary(instance: Instance, method: str, t0: float, objective=None, result=None) -> str:
    """The one line `solve` prints: what ran, on what, with what outcome."""
    parts = [f"method={method}", f"instance={fingerprint(instance)}"]
    if objective is not None:
        parts.append(f"objective={objective:.1f}")
    if result is not None:
        parts += [f"generations={result.generations}", f"stop={result.termination_reason}"]
    parts.append(f"wall={time.monotonic() - t0:.1f}s")
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
            s = roadmap.nodes[nid]
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
        doc["refine_stop_reason"] = refine_result.stop_reason
        doc["refine_cost_trace"] = refine_result.cost_trace
    return doc


# ---------------------------------------------------------------------------
# Subcommands


def _add_generate(sub):
    p = sub.add_parser("generate", help="write an instance JSON file")
    p.set_defaults(run=cmd_generate)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--tsplib", type=Path, help="TSPLIB file with NODE_COORD_SECTION")
    source.add_argument("--builtin", default=None, help="bundled point set name (default bays29)")
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
    p.set_defaults(run=cmd_solve)
    p.add_argument("instance", type=Path)
    p.add_argument("--method", choices=("ma", "oracle", "milp-export"), default="ma")
    p.add_argument("--refine", action="store_true", default=None)
    p.add_argument("--seed", type=int, default=None, help="override the solver seed")
    p.add_argument("--time-limit", type=_time_limit, default=None)
    p.add_argument("--out", type=Path, help="tour JSON (ma/oracle) or model text (milp-export)")
    p.add_argument("--svg", type=Path, help="tour drawing")


def _add_bench(sub):
    p = sub.add_parser("bench", help="run a benchmark grid from a config file")
    p.set_defaults(run=cmd_bench)
    p.add_argument("config", type=Path)
    p.add_argument("--out-dir", type=Path, default=Path("."))


def cmd_generate(args) -> int:
    centers = load_tsplib(args.tsplib.read_text()) if args.tsplib is not None else None
    try:  # an invalid instance here comes from the option values
        if centers is None:
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
    except InstanceError as exc:
        raise UsageError(exc) from exc
    args.out.write_text(inst.to_json() + "\n")
    print(f"wrote {args.out}  fingerprint={fingerprint(inst)}")
    return EXIT_OK


#: Share of a ``--refine`` solve's time limit that the search may spend before
#: refinement starts.  On bays29 (m=1, s=5) tripling the search's budget from
#: 1 s to 3 s lowered its best by 2%, while the first two refinement half-sweeps
#: (about 0.3 s on a 2-core host) lowered the objective by 10%, so neither stage
#: should take all of it.
SEARCH_SHARE = 0.5


def _run_ma(roadmap: Roadmap, params: MAParams, refine_best: bool):
    """Memetic search, then refinement of its best tours when asked.

    ``params.time_limit_s`` bounds both: its clock starts with the search,
    after the roadmap is built.  When refining, the search stops once
    ``SEARCH_SHARE`` of it has passed and refinement gets the rest.
    Returns the search result, the refinement result, the objective of the
    final tours and why refinement was dropped (None when it was not).  A
    refinement that ends above the search's best is dropped: the node tours
    stand, and the refinement result is None, as when not refining.
    """
    t0 = time.monotonic()
    if not refine_best:
        result = memetic.run(roadmap, params)
        return result, None, result.best_cost, None
    limit = params.time_limit_s
    result = memetic.run(roadmap, params if limit is None
                         else replace(params, time_limit_s=SEARCH_SHARE * limit))
    inst = roadmap.instance
    left = None if limit is None else limit - (time.monotonic() - t0)
    refine_result = refine(build_chain(result.best, roadmap), list(inst.vehicles),
                           cost_metric=inst.cost_metric, time_limit_s=left)
    objective = refined_objective(refine_result, result.best, inst.alpha, inst.n_vehicles)
    if objective > result.best_cost:
        return result, None, result.best_cost, (
            f"refined objective {objective:.6g} is above the search's {result.best_cost:.6g} "
            f"after {len(refine_result.cost_trace) - 1} half-sweeps "
            f"(stop: {refine_result.stop_reason})")
    return result, refine_result, objective, None


def cmd_solve(args) -> int:
    ignored = [opt for opt, methods in METHOD_OPTIONS.items()
               if args.method not in methods
               and getattr(args, opt[2:].replace("-", "_")) is not None]
    if ignored:
        raise UsageError(f"--method {args.method} ignores {', '.join(ignored)}")
    inst = Instance.from_json(args.instance.read_text())
    if args.refine and not inst.nin_enabled:
        raise UsageError("--refine needs an instance with crossings on; "
                         "write one with `generate --nin`")
    t0 = time.monotonic()
    roadmap = build_roadmap(inst)

    doc = result = refine_result = dropped = None
    if args.method == "milp-export":
        out = args.out or args.instance.with_suffix(".lp")
        out.write_text(exact.export_milp(roadmap).to_lp_text())
        print(f"wrote {out}")
        method, objective = "MILP-EXPORT", None
    else:
        if args.method == "oracle":
            tourset = exact.solve_bruteforce(roadmap)
            method, objective = "ORACLE", tourset.objective
        else:
            params = MAParams(seed=inst.seed if args.seed is None else args.seed,
                              time_limit_s=args.time_limit)
            result, refine_result, objective, dropped = _run_ma(roadmap, params, args.refine)
            tourset = result.best
            method = ("MA-NIN-PR" if refine_result is not None
                      else "MA-NIN" if inst.nin_enabled else "MA-noNIN")
        doc = tour_document(inst, roadmap, tourset, method, objective, refine_result)
        if dropped:
            doc["refine_dropped"] = dropped
    print(_summary(inst, method, t0, objective, result))

    if doc is not None and args.out:
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
        if result is not None:
            history_path = args.out.with_suffix(".history.json")
            history_path.write_text(result.history_json() + "\n")
            print(f"wrote {history_path}")
    if args.svg:
        args.svg.write_text(render_solution(inst, doc))
        print(f"wrote {args.svg}")
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        config = json.loads(args.config.read_text())
        _check_keys(config, BENCH_KEYS, "bench config", optional=BENCH_KEYS)
    except (json.JSONDecodeError, InstanceError) as exc:
        raise UsageError(exc) from exc
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
    _, _, objective, _ = _run_ma(roadmap, MAParams(seed=seed), method.endswith("-PR"))
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
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (exact.SizeLimitError, RefineError, ValueError, OSError) as exc:
        print(f"solve error: {exc}", file=sys.stderr)
        return EXIT_SOLVE


if __name__ == "__main__":
    sys.exit(main())
