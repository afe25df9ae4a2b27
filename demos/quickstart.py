"""End-to-end tour of the library on a small instance.

Builds a six-task, two-vehicle problem, expands the sampling roadmap,
runs the memetic search, polishes the winner with continuous refinement,
and drops an SVG drawing next to this script.
"""

from pathlib import Path

from ghmdatsp import MAParams, build_instance, build_roadmap, run
from ghmdatsp.cli import tour_document
from ghmdatsp.refine import build_chain, refine, refined_objective
from ghmdatsp.svgplot import render_solution

centers = [(190, 110), (390, 60), (570, 180), (480, 390), (285, 460), (105, 320)]
instance = build_instance(
    centers,
    n_vehicles=2,
    samples_per_cluster=3,
    velocity=50,
    sensing_range=120.0,
    depots=[(0.0, 0.0), (680.0, 520.0)],
    seed=7,
)

roadmap = build_roadmap(instance)
print(f"roadmap: {len(roadmap.nodes)} nodes, "
      f"{sum(1 for v in roadmap.nin_node_to_tasks.values() if v)} nodes cross a neighbour")

result = run(roadmap, MAParams(seed=7, max_generations=150, stagnation_limit=30))
print(f"memetic search: objective {result.best_cost:.1f} "
      f"after {result.generations} generations ({result.termination_reason})")
for vi, (tour, cost) in enumerate(zip(result.best.tours, result.best.per_vehicle_cost), 1):
    tasks = [roadmap.nodes[n].cluster for n in tour[1:-1]]
    print(f"  vehicle {vi}: tasks {tasks}  cost {cost:.1f}")

chains = build_chain(result.best, roadmap)
polished = refine(chains, list(instance.vehicles))
objective = refined_objective(polished, result.best, instance.alpha, instance.n_vehicles)
print(f"refined: objective {objective:.1f} "
      f"({100 * (1 - objective / result.best_cost):.1f}% below the sampled tour)")

out = Path(__file__).with_name("quickstart_tour.svg")
document = tour_document(instance, roadmap, result.best, "MA-NIN-PR", objective, polished)
out.write_text(render_solution(instance, document))
print(f"wrote {out}")
