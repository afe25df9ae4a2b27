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
from dataclasses import dataclass
from pathlib import Path

from . import exact, memetic
from .instance import Instance, build_instance, load_tsplib
from .memetic import MAParams, TourSet, evaluate
from .refine import RefineError, build_chain, refine, refined_objective
from .roadmap import Roadmap, build_roadmap
from .svgplot import render_solution

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVE = 2


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
    per_vehicle_cost: list[float] | None = None
    generations: int | None = None
    termination_reason: str | None = None

    def to_json(self) -> str:
        doc = {k: v for k, v in self.__dict__.items() if v is not None}
        return json.dumps(doc, indent=2, sort_keys=True)

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
    refined_by_vehicle = {}
    if refine_result is not None:
        for chain, cost in zip(refine_result.chains, refine_result.per_chain_cost):
            refined_by_vehicle[chain.vehicle_id] = (chain, cost)
    vehicles = []
    for vi, (tour, cost) in enumerate(zip(tourset.tours, tourset.per_vehicle_cost)):
        veh = instance.vehicles[vi]
        nodes = []
        for nid in tour:
            s = roadmap.node_by_id[nid]
            nodes.append({
                "cluster": s.cluster,
                "sample": s.index_in_cluster,
                "config": [s.config.x, s.config.y, s.config.theta],
            })
        entry = {"id": veh.id, "cost": cost, "nodes": nodes}
        if veh.id in refined_by_vehicle:
            chain, rcost = refined_by_vehicle[veh.id]
            entry["cost"] = rcost
            entry["refined_chain"] = {
                "refined": True,
                "states": [
                    {"kind": s.kind, "cluster": s.cluster,
                     "config": [s.config.x, s.config.y, s.config.theta]}
                    for s in chain.states
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


def evaluate_tour_document(doc: dict, instance: Instance) -> float:
    """Recompute the objective from the stored per-vehicle costs."""
    costs = [v["cost"] for v in doc["vehicles"]]
    return evaluate(costs, instance.alpha, instance.n_vehicles)


# ---------------------------------------------------------------------------
# Subcommands


def _add_generate(sub):
    p = sub.add_parser("generate", help="write an instance JSON file")
    p.add_argument("--tsplib", type=Path, help="TSPLIB file with NODE_COORD_SECTION")
    p.add_argument("--builtin", default=None, help="bundled point set name (default bays29)")
    p.add_argument("--vehicles", type=int, default=1)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--velocity", type=float, default=70.0)
    p.add_argument("--range", dest="sensing_range", type=float, default=150.0)
    p.add_argument("--metric", choices=("length", "time"), default="length")
    nin = p.add_mutually_exclusive_group()
    nin.add_argument("--nin", dest="nin", action="store_true", default=True)
    nin.add_argument("--no-nin", dest="nin", action="store_false")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)


def _add_solve(sub):
    p = sub.add_parser("solve", help="solve an instance JSON file")
    p.add_argument("instance", type=Path)
    p.add_argument("--method", choices=("ma", "oracle", "milp-export"), default="ma")
    nin = p.add_mutually_exclusive_group()
    nin.add_argument("--nin", dest="nin", action="store_true", default=None)
    nin.add_argument("--no-nin", dest="nin", action="store_false")
    p.add_argument("--refine", action="store_true")
    p.add_argument("--seed", type=int, default=None, help="override the solver seed")
    p.add_argument("--time-limit", type=float, default=None)
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


def _solve_ma(inst: Instance, roadmap: Roadmap, args):
    params = MAParams(seed=inst.seed if args.seed is None else args.seed,
                      time_limit_s=args.time_limit)
    result = memetic.run(roadmap, params)
    method = "MA-NIN" if roadmap.instance.nin_enabled else "MA-noNIN"
    objective = result.best_cost
    refine_result = None
    if args.refine:
        chains = build_chain(result.best, roadmap)
        refine_result = refine(chains, list(inst.vehicles),
                               cost_metric=inst.cost_metric)
        objective = refined_objective(refine_result, result.best,
                                      inst.alpha, inst.n_vehicles)
        method = "MA-NIN-PR"
    report = RunReport(
        instance_fingerprint=fingerprint(inst),
        method=method,
        wall_time_s=result.wall_time_s,
        objective=objective,
        per_vehicle_cost=list(result.best.per_vehicle_cost),
        generations=result.generations,
        termination_reason=result.termination_reason,
    )
    doc = tour_document(inst, roadmap, result.best, method, objective, refine_result)
    chains = refine_result.chains if refine_result is not None else None
    return report, doc, chains, result.history_json()


def cmd_solve(args) -> int:
    inst = Instance.from_json(args.instance.read_text())
    if args.nin is not None and args.nin != inst.nin_enabled:
        inst = Instance.from_json(json.dumps({**json.loads(inst.to_json()), "nin_enabled": args.nin}))
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

    chains = None
    history_json = None
    if args.method == "oracle":
        tourset = exact.solve_bruteforce(roadmap)
        report = RunReport(
            instance_fingerprint=fingerprint(inst),
            method="ORACLE",
            wall_time_s=time.monotonic() - t0,
            objective=tourset.objective,
            per_vehicle_cost=list(tourset.per_vehicle_cost),
        )
        doc = tour_document(inst, roadmap, tourset, "ORACLE", tourset.objective)
    else:
        report, doc, chains, history_json = _solve_ma(inst, roadmap, args)
        tourset = None

    print(report.summary())
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
        if history_json is not None:
            history_path = args.out.with_suffix(".history.json")
            history_path.write_text(history_json + "\n")
            print(f"wrote {history_path}")
    if args.svg:
        if chains is not None:
            svg = render_solution(inst, roadmap, chains=chains)
        else:
            ts = tourset
            if ts is None:
                ts = _tourset_from_doc(doc, roadmap)
            svg = render_solution(inst, roadmap, tourset=ts)
        args.svg.write_text(svg)
        print(f"wrote {args.svg}")
    return EXIT_OK


def _tourset_from_doc(doc: dict, roadmap: Roadmap) -> TourSet:
    """Rebuild a TourSet from a tour document (for drawing)."""
    tours = []
    for ventry in doc["vehicles"]:
        veh_id = ventry["id"]
        ids = []
        for node in ventry["nodes"]:
            ids.append(roadmap.cluster_ids[(veh_id, node["cluster"])][node["sample"] - 1])
        tours.append(ids)
    veh_ids = [v.id for v in roadmap.instance.vehicles]
    costs = tuple(roadmap.tour_cost(k, t) for k, t in zip(veh_ids, tours))
    return TourSet(tuple(tuple(t) for t in tours), costs,
                   evaluate(costs, roadmap.instance.alpha))


def cmd_bench(args) -> int:
    config = json.loads(args.config.read_text())
    vehicles = config.get("vehicles", [1])
    samples = config.get("samples", [5])
    seeds = config.get("seeds", [0])
    methods = config.get("methods", ["MA-NIN"])
    velocity = config.get("velocity", 70.0)
    alpha = config.get("alpha", 0.5)
    sensing = config.get("range", 150.0)
    metric = config.get("metric", "length")

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
    result = memetic.run(roadmap, MAParams(seed=seed))
    objective = result.best_cost
    if method.endswith("-PR"):
        chains = build_chain(result.best, roadmap)
        rr = refine(chains, list(inst.vehicles), cost_metric=metric)
        objective = refined_objective(rr, result.best, alpha, m)
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
