"""Why crossing neighbourhoods shrink tours.

Two tasks sit close enough that any bounded-turn maneuver through the
first task's sample also sweeps the second task's disk.  With crossings
on, the decoder notices and deletes the second node from the tour; the
same roadmap with crossings off keeps both nodes, and the brute-force
reference confirms the shortened tour is optimal.
"""

from dataclasses import replace

from ghmdatsp import Chromosome, build_instance, build_roadmap, decode, solve_bruteforce

instance = build_instance(
    [(600.0, 0.0), (680.0, 40.0)],
    n_vehicles=1,
    samples_per_cluster=1,
    velocity=50,
    sensing_range=150.0,
    depots=[(0.0, 0.0)],
    seed=13,
)
roadmap = build_roadmap(instance)
# the same samples and costs, with no crossing tables: decoding prunes nothing
uncrossed = build_roadmap(replace(instance, nin_enabled=False))

for node_id, crossed in roadmap.nin_node_to_tasks.items():
    if crossed:
        node = roadmap.nodes[node_id]
        print(f"node of task {node.cluster} necessarily crosses tasks {sorted(crossed)}")

# one vehicle: depot, task 1 then task 2 (sample 1 each), terminal
chrom = Chromosome(genes=[1, 2], samples=[0, 1, 1])
plain = decode(chrom, uncrossed)
reduced = decode(chrom, roadmap)
print(f"visit both nodes: cost {plain.objective:.1f}")
print(f"after pruning:    cost {reduced.objective:.1f} "
      f"({len(reduced.deleted)} node(s) dropped)")

optimum = solve_bruteforce(roadmap)
print(f"exact optimum:    cost {optimum.objective:.1f}")
