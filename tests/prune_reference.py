"""Reference decoder: the split and greedy pruning that the search's
evaluator must reproduce exactly.

This is the straightforward form of the rule in ``memetic.decode``: every
round scans all held tasks for the fullest basket and the fewest
crossings, and prices tied candidates by the detour each deletion saves,
read afresh from the current tour.  It also counts the deletions that the
saving tie-break decided, so a test can show that it covers that path.
"""

from ghmdatsp.memetic import TourSet, _vehicle_task_positions
from ghmdatsp.roadmap import DEPOT, TERMINAL


def reference_decode(chrom, roadmap):
    """(tour set, deletions decided by the saving tie-break)."""
    ids = roadmap.cluster_ids
    genes, samples = chrom.genes, chrom.samples
    tours = []
    for veh, positions in zip(roadmap.vehicle_ids, _vehicle_task_positions(chrom)):
        tour = [ids[(veh, DEPOT)][0]]
        for c in map(genes.__getitem__, positions):
            tour.append(ids[(veh, c)][samples[c] - 1])
        tour.append(ids[(veh, TERMINAL)][0])
        tours.append(tour)
    deleted, ties = [], 0
    if roadmap.instance.nin_enabled:
        deleted, ties = _nin_reduce(tours, roadmap)
    return TourSet.from_tours(tours, roadmap, deleted), ties


def _nin_reduce(tours, roadmap):
    """Prune ``tours`` in place; return the deleted node ids in order and
    the number of deletions the saving tie-break decided."""
    nin_of = roadmap.nin_node_to_tasks
    nodes = roadmap.nodes
    veh_ids = roadmap.vehicle_ids
    basket = {t.id: 1 for t in roadmap.instance.tasks}
    holder = {}  # task -> (vehicle index, node id)
    for vi, tour in enumerate(tours):
        for nid in tour[1:-1]:
            holder[nodes[nid].cluster] = (vi, nid)
            for t in nin_of[nid]:
                basket[t] += 1
    deleted = []
    ties = 0

    def detour_saving(t):
        vi, nid = holder[t]
        tour = tours[vi]
        p = tour.index(nid)
        veh = veh_ids[vi]
        return (roadmap.edge_cost(veh, tour[p - 1], nid)
                + roadmap.edge_cost(veh, nid, tour[p + 1])
                - roadmap.edge_cost(veh, tour[p - 1], tour[p + 1]))

    while holder:
        best_basket = -1
        best_len = 0
        tied = []
        for t, (_, nid) in holder.items():
            b = basket[t]
            if b < best_basket:
                continue
            n = len(nin_of[nid])
            if b > best_basket or n < best_len:
                best_basket, best_len, tied = b, n, [t]
            elif n == best_len:
                tied.append(t)
        if best_basket <= 1:
            break  # any deletion would empty the chosen task's own basket
        if len(tied) > 1:
            # unspecified tie: prefer the deletion that shortens the tour most
            t_del = max(tied, key=lambda t: (detour_saving(t), -t))
        else:
            t_del = tied[0]
        vi, nid = holder[t_del]
        affected = [t_del, *nin_of[nid]]
        if any(basket[u] <= 1 for u in affected):
            break
        ties += len(tied) > 1
        for u in affected:
            basket[u] -= 1
        tours[vi].remove(nid)
        del holder[t_del]
        deleted.append(nid)
    return deleted, ties
