"""Memetic search over delimiter-encoded multi-vehicle tours.

A chromosome is a sequence of n task genes and 2m-1 delimiter genes.
Counting delimiters from the left, the even-numbered ones split the gene
string into one segment per vehicle and the odd-numbered ones carry that
vehicle's depot and terminal sample choices.  Decoding yields one
depot-to-terminal node tour per vehicle; the NIN-aware variant then prunes
nodes whose tasks are already crossed by the remaining tour.

The generational loop is elitist with roulette selection, parameterized
uniform crossover, immigration instead of mutation, cost-based duplicate
purging and two intensities of local search (2-opt moves, task swaps and
sample swaps).
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field

from .roadmap import DEPOT, TERMINAL, Roadmap


class ChromosomeError(ValueError):
    """The gene sequence violates a chromosome invariant."""


@dataclass(frozen=True, slots=True)
class Gene:
    """One gene: a (cluster, sample) visit or a delimiter.

    Delimiters have ``cluster == 0``; a delimiter in an odd position
    carries ``payload = (depot_sample, terminal_sample)``.
    """

    cluster: int = 0
    sample: int = 0
    payload: tuple[int, int] | None = None

    @property
    def is_delim(self) -> bool:
        return self.cluster == 0


def task_gene(cluster: int, sample: int) -> Gene:
    return Gene(cluster=cluster, sample=sample)


def delim_gene(payload: tuple[int, int] | None = None) -> Gene:
    return Gene(payload=payload)


class Chromosome:
    """Immutable gene sequence with lazily cached decode results."""

    __slots__ = ("genes", "cached_cost", "cached_tours")

    def __init__(self, genes):
        self.genes = tuple(genes)
        self.cached_cost = None
        self.cached_tours = None

    def __len__(self):
        return len(self.genes)

    def __eq__(self, other):
        return isinstance(other, Chromosome) and self.genes == other.genes

    def __hash__(self):
        return hash(self.genes)

    def delimiter_positions(self) -> list[int]:
        return [i for i, g in enumerate(self.genes) if g.is_delim]

    def task_clusters(self) -> list[int]:
        return [g.cluster for g in self.genes if not g.is_delim]


def validate_chromosome(chrom: Chromosome, n: int, m: int, roadmap: Roadmap | None = None) -> None:
    """Raise :class:`ChromosomeError` if any structural invariant fails."""
    expect_len = n + 2 * m - 1
    if len(chrom) != expect_len:
        raise ChromosomeError(f"length {len(chrom)} != n + 2m - 1 = {expect_len}")
    delims = chrom.delimiter_positions()
    if len(delims) != 2 * m - 1:
        raise ChromosomeError(f"{len(delims)} delimiters, expected {2 * m - 1}")
    for rank, pos in enumerate(delims, start=1):
        gene = chrom.genes[pos]
        if rank % 2 == 1 and gene.payload is None:
            raise ChromosomeError(f"odd delimiter #{rank} lacks depot/terminal payload")
        if rank % 2 == 0 and gene.payload is not None:
            raise ChromosomeError(f"even delimiter #{rank} carries payload {gene.payload}")
    clusters = chrom.task_clusters()
    if sorted(clusters) != list(range(1, n + 1)):
        raise ChromosomeError(f"task clusters {sorted(clusters)} != 1..{n}")
    if roadmap is not None:
        veh_ids = [v.id for v in roadmap.instance.vehicles]
        for veh, payload, genes in zip(veh_ids, _payloads_in_order(chrom.genes), _segments(chrom.genes)):
            d_idx, t_idx = payload
            if not 1 <= d_idx <= len(roadmap.cluster_nodes(veh, DEPOT)):
                raise ChromosomeError(f"vehicle {veh}: depot sample {d_idx} out of range")
            if not 1 <= t_idx <= len(roadmap.cluster_nodes(veh, TERMINAL)):
                raise ChromosomeError(f"vehicle {veh}: terminal sample {t_idx} out of range")
            for g in genes:
                if not 1 <= g.sample <= len(roadmap.cluster_nodes(veh, g.cluster)):
                    raise ChromosomeError(
                        f"vehicle {veh}: cluster {g.cluster} sample {g.sample} out of range")


def _segments(genes) -> list[list[Gene]]:
    """Task genes per vehicle: split at even-numbered delimiters."""
    segments = [[]]
    rank = 0
    for g in genes:
        if g.is_delim:
            rank += 1
            if rank % 2 == 0:
                segments.append([])
            continue
        segments[-1].append(g)
    return segments


def _payloads_in_order(genes) -> list[tuple[int, int]]:
    return [g.payload for g in genes if g.is_delim and g.payload is not None]


def fixup_payloads(genes, payloads=None) -> list[Gene]:
    """Move depot/terminal payloads so only odd-numbered delimiters carry them.

    Payload order among delimiters is preserved; pass ``payloads`` to
    install an explicit per-vehicle list instead.
    """
    genes = list(genes)
    if payloads is None:
        payloads = _payloads_in_order(genes)
    it = iter(payloads)
    rank = 0
    for i, g in enumerate(genes):
        if not g.is_delim:
            continue
        rank += 1
        if rank % 2 == 1:
            genes[i] = delim_gene(next(it))
        elif g.payload is not None:
            genes[i] = delim_gene(None)
    return genes


# ---------------------------------------------------------------------------
# Decoding


@dataclass(frozen=True)
class TourSet:
    """Per-vehicle node tours with costs and the blended objective."""

    tours: tuple[tuple[int, ...], ...]
    per_vehicle_cost: tuple[float, ...]
    objective: float
    deleted: tuple[int, ...] = ()

    @classmethod
    def from_tours(cls, tours, roadmap: Roadmap, deleted=()) -> "TourSet":
        """Cost one node-id tour per vehicle and blend the costs."""
        costs = tuple(roadmap.tour_cost(veh, tour) for veh, tour in zip(roadmap.vehicle_ids, tours))
        return cls(tuple(tuple(t) for t in tours), costs,
                   evaluate(costs, roadmap.instance.alpha), tuple(deleted))


def evaluate(per_vehicle_cost, alpha: float, m: int | None = None) -> float:
    """Blend of mean and max vehicle cost: alpha*mean + (1-alpha)*max."""
    costs = list(per_vehicle_cost)
    if m is None:
        m = len(costs)
    return alpha * (sum(costs) / m) + (1.0 - alpha) * max(costs)


def _decode(chrom: Chromosome, roadmap: Roadmap, prune: bool) -> TourSet:
    """Split into node-id tours per vehicle, prune if asked, then cost
    (hot path, no validation)."""
    ids_by_veh = roadmap.ids_by_vehicle
    tours = []
    segments = _segments(chrom.genes)
    payloads = _payloads_in_order(chrom.genes)
    for veh, payload, seg in zip(roadmap.vehicle_ids, payloads, segments):
        ids = ids_by_veh[veh]
        d_idx, t_idx = payload
        tour = [ids[DEPOT][d_idx - 1]]
        for g in seg:
            tour.append(ids[g.cluster][g.sample - 1])
        tour.append(ids[TERMINAL][t_idx - 1])
        tours.append(tour)
    deleted = ()
    if prune:
        tours, deleted = _nin_reduce(tours, roadmap)
    return TourSet.from_tours(tours, roadmap, deleted)


def decode(chrom: Chromosome, roadmap: Roadmap) -> TourSet:
    """Split the chromosome into per-vehicle tours and cost them."""
    validate_chromosome(chrom, roadmap.n_tasks, roadmap.n_vehicles, roadmap)
    return _decode(chrom, roadmap, False)


def decode_nin(chrom: Chromosome, roadmap: Roadmap) -> TourSet:
    """Decode, then prune nodes whose tasks stay covered without them.

    Every task starts with one basket credit (its own node is always in
    the tour) plus one per tour node that necessarily crosses it.  Nodes
    are deleted greedily: always the node of the fullest-basket task,
    breaking ties toward the node crossing the fewest other tasks, and
    stopping as soon as the chosen deletion would empty any basket.
    """
    validate_chromosome(chrom, roadmap.n_tasks, roadmap.n_vehicles, roadmap)
    return _decode(chrom, roadmap, True)


def _nin_reduce(tours: list[list[int]], roadmap: Roadmap):
    nin_of = roadmap.nin_node_to_tasks
    node_by_id = roadmap.node_by_id
    veh_ids = roadmap.vehicle_ids
    basket = {t.id: 1 for t in roadmap.instance.tasks}
    holder: dict[int, tuple[int, int]] = {}  # task -> (vehicle index, node id)
    for vi, tour in enumerate(tours):
        for nid in tour[1:-1]:
            holder[node_by_id[nid].cluster] = (vi, nid)
            for t in nin_of[nid]:
                basket[t] += 1
    tours = [list(t) for t in tours]
    deleted: list[int] = []

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
        tied: list[int] = []
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
        for u in affected:
            basket[u] -= 1
        tours[vi].remove(nid)
        del holder[t_del]
        deleted.append(nid)
    return tours, deleted


def encode(tourset: TourSet, roadmap: Roadmap) -> Chromosome:
    """Inverse of :func:`decode` for tours that visit every cluster."""
    node_by_id = roadmap.node_by_id
    genes: list[Gene] = []
    for vi, tour in enumerate(tourset.tours):
        if vi > 0:
            genes.append(delim_gene(None))
        depot = node_by_id[tour[0]]
        terminal = node_by_id[tour[-1]]
        genes.append(delim_gene((depot.index_in_cluster, terminal.index_in_cluster)))
        for nid in tour[1:-1]:
            s = node_by_id[nid]
            genes.append(task_gene(s.cluster, s.index_in_cluster))
    chrom = Chromosome(genes)
    validate_chromosome(chrom, roadmap.n_tasks, roadmap.n_vehicles, roadmap)
    return chrom


class Evaluator:
    """Caches the chromosome -> TourSet -> cost mapping for one run."""

    __slots__ = ("roadmap", "use_nin", "evaluations")

    def __init__(self, roadmap: Roadmap, use_nin: bool | None = None):
        self.roadmap = roadmap
        self.use_nin = roadmap.instance.nin_enabled if use_nin is None else use_nin
        self.evaluations = 0

    def tours(self, chrom: Chromosome) -> TourSet:
        if chrom.cached_tours is None:
            self.evaluations += 1
            ts = _decode(chrom, self.roadmap, self.use_nin)
            chrom.cached_tours = ts
            chrom.cached_cost = ts.objective
        return chrom.cached_tours

    def cost(self, chrom: Chromosome) -> float:
        if chrom.cached_cost is None:
            self.tours(chrom)
        return chrom.cached_cost


# ---------------------------------------------------------------------------
# Parameters


@dataclass
class MAParams:
    """Knobs of the generational loop; defaults follow the tuned setup."""

    population_size: int = 100
    elite_fraction: float = 0.10
    selection_pressure: float = 4.0
    crossover_p1_share: float = 0.60
    offspring_share: float = 0.60
    level2_rank_fraction: float = 0.10
    task_swap_repeats_l1: int = 5
    sample_swap_repeats_l2: int = 3
    stagnation_streak_l2: int = 10
    max_generations: int = 500
    stagnation_limit: int = 50
    duplicate_cost_epsilon: float = 1e-6
    time_limit_s: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.selection_pressure <= 1.0:
            raise ValueError("selection_pressure must exceed 1")
        for name in ("elite_fraction", "crossover_p1_share", "level2_rank_fraction"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


def _out_of_time(params: MAParams, t0: float) -> bool:
    return params.time_limit_s is not None and time.monotonic() - t0 > params.time_limit_s


# ---------------------------------------------------------------------------
# Structural operators (pure chromosome -> chromosome transformations)


def reverse_segment(chrom: Chromosome, i: int, j: int) -> Chromosome:
    """Reverse gene positions i..j (1-based, inclusive) and fix payloads."""
    if not 1 <= i <= j <= len(chrom):
        raise ChromosomeError(f"reversal bounds ({i}, {j}) outside 1..{len(chrom)}")
    if i == j:
        return chrom
    genes = list(chrom.genes)
    genes[i - 1:j] = reversed(genes[i - 1:j])
    return Chromosome(fixup_payloads(genes))


def swap_genes(chrom: Chromosome, i: int, j: int) -> Chromosome:
    """Exchange the genes at 1-based positions i and j and fix payloads."""
    if i == j:
        raise ChromosomeError("task swap needs two different positions")
    genes = list(chrom.genes)
    genes[i - 1], genes[j - 1] = genes[j - 1], genes[i - 1]
    return Chromosome(fixup_payloads(genes))


def reverse_vehicle_segment(chrom: Chromosome, vehicle_index: int, i: int, j: int) -> Chromosome:
    """Reverse task genes i..j (1-based) of one vehicle; delimiters stay put."""
    positions = _vehicle_task_positions(chrom)[vehicle_index]
    if not 1 <= i <= j <= len(positions):
        raise ChromosomeError(
            f"local reversal ({i}, {j}) outside vehicle segment of {len(positions)} genes")
    if i == j:
        return chrom
    genes = list(chrom.genes)
    window = positions[i - 1:j]
    picked = [genes[p] for p in window]
    for p, g in zip(window, reversed(picked)):
        genes[p] = g
    return Chromosome(genes)


def _vehicle_task_positions(chrom: Chromosome) -> list[list[int]]:
    out = [[]]
    rank = 0
    for pos, g in enumerate(chrom.genes):
        if g.is_delim:
            rank += 1
            if rank % 2 == 0:
                out.append([])
        else:
            out[-1].append(pos)
    return out


# ---------------------------------------------------------------------------
# Improvement operators (improve-or-reject wrappers)


def global_2opt(chrom: Chromosome, i: int, j: int, ev: Evaluator) -> Chromosome:
    """2-opt across the whole gene string; keeps the input unless it improves."""
    if i == j:
        return chrom
    cand = reverse_segment(chrom, i, j)
    return cand if ev.cost(cand) < ev.cost(chrom) else chrom


def local_2opt(chrom: Chromosome, vehicle_index: int, i: int, j: int, ev: Evaluator) -> Chromosome:
    """2-opt confined to one vehicle's task genes; improve-or-reject."""
    if i == j:
        return chrom
    cand = reverse_vehicle_segment(chrom, vehicle_index, i, j)
    return cand if ev.cost(cand) < ev.cost(chrom) else chrom


def task_swap(chrom: Chromosome, i: int, j: int, ev: Evaluator) -> Chromosome:
    """Exchange two genes; improve-or-reject."""
    cand = swap_genes(chrom, i, j)
    return cand if ev.cost(cand) < ev.cost(chrom) else chrom


def sample_swap(chrom: Chromosome, ev: Evaluator) -> Chromosome:
    """Left-to-right scan replacing each task gene's sample when profitable.

    A cheaper sample in the same cluster is accepted only if every task
    crossed by the old node and not by the new one stays covered by some
    other node of the current tours.  The whole scan is rolled back if the
    re-decoded cost fails to improve strictly.
    """
    rm = ev.roadmap
    ts = ev.tours(chrom)
    nin_of = rm.nin_node_to_tasks
    node_by_id = rm.node_by_id
    cluster_ids = rm.cluster_ids
    cost_lists = rm.cost_lists
    local = rm.local_index
    veh_ids = rm.vehicle_ids

    tours = [list(t) for t in ts.tours]
    cover = {t.id: 0 for t in rm.instance.tasks}
    pos_of: dict[int, tuple[int, int]] = {}
    for vi, tour in enumerate(tours):
        for p, nid in enumerate(tour[1:-1], start=1):
            pos_of[nid] = (vi, p)
            cover[node_by_id[nid].cluster] += 1
            for t in nin_of[nid]:
                cover[t] += 1

    genes = list(chrom.genes)
    seg_positions = _vehicle_task_positions(chrom)
    changed = False
    for vi, positions in enumerate(seg_positions):
        veh = veh_ids[vi]
        cmat = cost_lists[veh]
        for pos in positions:
            g = genes[pos]
            ids = cluster_ids[(veh, g.cluster)]
            if len(ids) < 2:
                continue
            cur = ids[g.sample - 1]
            if cur not in pos_of:
                continue  # pruned from the tour; no travel cost to improve
            tvi, tp = pos_of[cur]
            tour = tours[tvi]
            prev_l = local[tour[tp - 1]]
            next_l = local[tour[tp + 1]]
            cur_l = local[cur]
            base = cmat[prev_l][cur_l] + cmat[cur_l][next_l]
            best_delta, best_idx, best_nid = 0.0, None, None
            for idx, nid in enumerate(ids, start=1):
                if nid == cur:
                    continue
                alt_l = local[nid]
                delta = cmat[prev_l][alt_l] + cmat[alt_l][next_l] - base
                if delta >= best_delta:
                    continue
                dropped = nin_of[cur] - nin_of[nid]
                if any(cover[u] < 2 for u in dropped):
                    continue
                best_delta, best_idx, best_nid = delta, idx, nid
            if best_idx is None:
                continue
            genes[pos] = task_gene(g.cluster, best_idx)
            tour[tp] = best_nid
            del pos_of[cur]
            pos_of[best_nid] = (tvi, tp)
            for u in nin_of[cur]:
                cover[u] -= 1
            for u in nin_of[best_nid]:
                cover[u] += 1
            changed = True
    if not changed:
        return chrom
    cand = Chromosome(genes)
    return cand if ev.cost(cand) < ev.cost(chrom) else chrom


@dataclass
class ImproveStats:
    attempts: dict = field(default_factory=lambda: {
        "global_2opt": 0, "local_2opt": 0, "task_swap": 0, "sample_swap": 0})
    accepts: dict = field(default_factory=lambda: {
        "global_2opt": 0, "local_2opt": 0, "task_swap": 0, "sample_swap": 0})


def _try_global(chrom, ev, rng, stats):
    length = len(chrom)
    i = rng.randint(1, length - 1)
    j = rng.randint(i + 1, length)
    out = global_2opt(chrom, i, j, ev)
    stats.attempts["global_2opt"] += 1
    if out is not chrom:
        stats.accepts["global_2opt"] += 1
    return out


def _try_local(chrom, ev, rng, stats):
    eligible = [vi for vi, ps in enumerate(_vehicle_task_positions(chrom)) if len(ps) >= 2]
    stats.attempts["local_2opt"] += 1
    if not eligible:
        return chrom
    vi = rng.choice(eligible)
    count = len(_vehicle_task_positions(chrom)[vi])
    i = rng.randint(1, count - 1)
    j = rng.randint(i + 1, count)
    out = local_2opt(chrom, vi, i, j, ev)
    if out is not chrom:
        stats.accepts["local_2opt"] += 1
    return out


def _try_task_swap(chrom, ev, rng, stats):
    length = len(chrom)
    i = rng.randint(1, length)
    j = rng.randint(1, length - 1)
    if j >= i:
        j += 1
    out = task_swap(chrom, i, j, ev)
    stats.attempts["task_swap"] += 1
    if out is not chrom:
        stats.accepts["task_swap"] += 1
    return out


def _try_sample_swap(chrom, ev, stats):
    out = sample_swap(chrom, ev)
    stats.attempts["sample_swap"] += 1
    if out is not chrom:
        stats.accepts["sample_swap"] += 1
    return out


def improve(chrom: Chromosome, level: str, params: MAParams, ev: Evaluator,
            rng: random.Random, stats: ImproveStats | None = None) -> Chromosome:
    """Apply the light ("I") or intensive ("II") local-search schedule.

    Level I runs one global 2-opt, one local 2-opt, one sample-swap scan
    and a handful of task swaps.  Level II loops each 2-opt/swap operator
    until it fails to improve several times in a row, then runs repeated
    sample-swap scans.  Cost is monotone non-increasing either way.
    """
    if stats is None:
        stats = ImproveStats()
    if level == "I":
        chrom = _try_global(chrom, ev, rng, stats)
        chrom = _try_local(chrom, ev, rng, stats)
        chrom = _try_sample_swap(chrom, ev, stats)
        for _ in range(params.task_swap_repeats_l1):
            chrom = _try_task_swap(chrom, ev, rng, stats)
        return chrom
    if level == "II":
        for op in (_try_global, _try_local, _try_task_swap):
            streak = 0
            while streak < params.stagnation_streak_l2:
                out = op(chrom, ev, rng, stats)
                streak = 0 if out is not chrom else streak + 1
                chrom = out
        for _ in range(params.sample_swap_repeats_l2):
            chrom = _try_sample_swap(chrom, ev, stats)
        return chrom
    raise ValueError(f"level must be 'I' or 'II', got {level!r}")


# ---------------------------------------------------------------------------
# Population construction


def random_chromosome(roadmap: Roadmap, rng: random.Random) -> Chromosome:
    """Uniform task permutation, random vehicle split, random samples."""
    n, m = roadmap.n_tasks, roadmap.n_vehicles
    order = list(range(1, n + 1))
    rng.shuffle(order)
    cuts = sorted(rng.randint(0, n) for _ in range(m - 1))
    bounds = [0, *cuts, n]
    return _chromosome_from_orders(roadmap, rng, [order[a:b] for a, b in zip(bounds, bounds[1:])])


def _voronoi_orders(roadmap: Roadmap) -> list[list[int]]:
    """Task visiting order per vehicle: nearest-depot cells, then a
    nearest-neighbour tour construction polished with 2-opt on centers."""
    inst = roadmap.instance
    cells: list[list[int]] = [[] for _ in inst.vehicles]
    for task in inst.tasks:
        best_k, best_d = 0, float("inf")
        for k, veh in enumerate(inst.vehicles):
            d = math.dist(task.center, veh.depot)
            if d < best_d - 1e-12:
                best_k, best_d = k, d
        cells[best_k].append(task.id)
    centers = {t.id: t.center for t in inst.tasks}
    orders = []
    for k, cell in enumerate(cells):
        if not cell:
            orders.append([])
            continue
        depot = inst.vehicles[k].depot
        remaining = set(cell)
        cur = depot
        order = []
        while remaining:
            nxt = min(remaining, key=lambda t: (math.dist(cur, centers[t]), t))
            order.append(nxt)
            remaining.discard(nxt)
            cur = centers[nxt]
        orders.append(_two_opt_cycle(order, depot, centers))
    return orders


def _two_opt_cycle(order: list[int], depot, centers) -> list[int]:
    """First-improvement 2-opt on the closed Euclidean loop depot -> tasks."""
    pts = [depot] + [centers[t] for t in order]
    n = len(pts)
    if n < 4:
        return order
    idx = list(range(n))

    def d(a, b):
        return math.dist(pts[idx[a]], pts[idx[b % n]])

    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                delta = (d(i - 1, j) + d(i, j + 1)) - (d(i - 1, i) + d(j, j + 1))
                if delta < -1e-9:
                    idx[i:j + 1] = reversed(idx[i:j + 1])
                    improved = True
    return [order[i - 1] for i in idx[1:]]


def voronoi_chromosome(roadmap: Roadmap, rng: random.Random,
                       orders: list[list[int]] | None = None) -> Chromosome:
    """Depot-partitioned seeding with random sample indices."""
    if orders is None:
        orders = _voronoi_orders(roadmap)
    return _chromosome_from_orders(roadmap, rng, orders)


def _chromosome_from_orders(roadmap: Roadmap, rng: random.Random,
                            orders: list[list[int]]) -> Chromosome:
    """Genes for per-vehicle task orders; depot, terminal and task samples
    are drawn at random, vehicle by vehicle."""
    genes: list[Gene] = []
    for vi, veh in enumerate(roadmap.vehicle_ids):
        if vi > 0:
            genes.append(delim_gene(None))
        d_n = len(roadmap.cluster_nodes(veh, DEPOT))
        t_n = len(roadmap.cluster_nodes(veh, TERMINAL))
        genes.append(delim_gene((rng.randint(1, d_n), rng.randint(1, t_n))))
        for t in orders[vi]:
            size = len(roadmap.cluster_nodes(veh, t))
            genes.append(task_gene(t, rng.randint(1, size)))
    return Chromosome(genes)


def init_population(roadmap: Roadmap, params: MAParams, rng: random.Random,
                    ev: Evaluator, stats: ImproveStats | None = None) -> list[Chromosome]:
    """Half random, half depot-partitioned; every member gets Level-I polish.

    Once ``params.time_limit_s`` has passed since the call began, the
    members still to be made are kept unpolished.
    """
    if params.population_size < 2:
        raise ValueError("population_size must be >= 2")
    t0 = time.monotonic()
    orders = _voronoi_orders(roadmap)
    pop = []
    n_random = params.population_size // 2
    for i in range(params.population_size):
        if i < n_random:
            chrom = random_chromosome(roadmap, rng)
        else:
            chrom = voronoi_chromosome(roadmap, rng, orders)
        if not _out_of_time(params, t0):
            chrom = improve(chrom, "I", params, ev, rng, stats)
        pop.append(chrom)
    pop.sort(key=ev.cost)
    return pop


def select(population: list[Chromosome], kappa: float, rng: random.Random,
           ev: Evaluator) -> tuple[Chromosome, Chromosome]:
    """Roulette-wheel draw of two parents, preferring distinct costs.

    Fitness rescales costs so the best member is exactly ``kappa`` times
    as likely as the worst; identical costs degrade to uniform draws.
    """
    costs = [ev.cost(c) for c in population]
    cw, cb = max(costs), min(costs)
    if cw - cb <= 0.0:
        weights = None
    else:
        shift = (cw - cb) / (kappa - 1.0)
        weights = [cw - c + shift for c in costs]

    def draw():
        if weights is None:
            return rng.randrange(len(population))
        return rng.choices(range(len(population)), weights=weights, k=1)[0]

    a = draw()
    b = draw()
    for _ in range(20):
        if costs[b] != costs[a]:
            break
        b = draw()
    return population[a], population[b]


def crossover(parent1: Chromosome, parent2: Chromosome, params: MAParams,
              rng: random.Random) -> Chromosome:
    """Parameterized uniform crossover.

    A fixed share of positions (``crossover_p1_share``) is drawn without
    replacement and copied from parent 1.  The remaining positions fill
    left-to-right from parent 2's gene order, skipping task clusters
    already present and surplus delimiters.  Clusters still missing are
    inserted in random order with parent 1's sample indices, and the
    payloads of parent 1 are installed on the odd delimiters.

    RNG protocol (relied on by reproducibility tests): one
    ``rng.sample(range(L), k)`` for the copied positions, then one
    ``rng.shuffle`` of the leftover clusters in parent-1 gene order.
    """
    length = len(parent1)
    total_delims = len(parent1.delimiter_positions())
    k = math.ceil(params.crossover_p1_share * length)
    keep = set(rng.sample(range(length), k))

    child: list[Gene | None] = [None] * length
    used: set[int] = set()
    delims = 0
    for pos in keep:
        g = parent1.genes[pos]
        child[pos] = g
        if g.is_delim:
            delims += 1
        else:
            used.add(g.cluster)

    stream = iter(parent2.genes)
    for pos in range(length):
        if child[pos] is not None:
            continue
        for g in stream:
            if g.is_delim:
                if delims < total_delims:
                    child[pos] = g
                    delims += 1
                    break
            elif g.cluster not in used:
                child[pos] = g
                used.add(g.cluster)
                break
        else:
            break

    missing = [g.cluster for g in parent1.genes if not g.is_delim and g.cluster not in used]
    rng.shuffle(missing)
    p1_sample = {g.cluster: g.sample for g in parent1.genes if not g.is_delim}
    fill = iter(missing)
    for pos in range(length):
        if child[pos] is not None:
            continue
        try:
            cluster = next(fill)
            child[pos] = task_gene(cluster, p1_sample[cluster])
        except StopIteration:
            child[pos] = delim_gene(None)
            delims += 1

    return Chromosome(fixup_payloads(child, _payloads_in_order(parent1.genes)))


# ---------------------------------------------------------------------------
# Generational loop


@dataclass
class GenerationStat:
    generation: int
    best_cost: float
    mean_cost: float


@dataclass
class MAResult:
    best: TourSet
    best_cost: float
    best_chromosome: Chromosome
    generations: int
    termination_reason: str
    history: list[GenerationStat]
    op_stats: ImproveStats
    wall_time_s: float
    final_population_costs: list[float] = field(default_factory=list)

    def history_json(self) -> str:
        doc = {
            "generations": self.generations,
            "termination_reason": self.termination_reason,
            "wall_time_s": self.wall_time_s,
            "best_cost": self.best_cost,
            "per_generation": [
                {"generation": h.generation, "best_cost": h.best_cost, "mean_cost": h.mean_cost}
                for h in self.history
            ],
            "operator_attempts": self.op_stats.attempts,
            "operator_accepts": self.op_stats.accepts,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def run(roadmap: Roadmap, params: MAParams) -> MAResult:
    """Evolve tours for ``roadmap``; fully deterministic for a fixed seed."""
    t0 = time.monotonic()
    rng = random.Random(params.seed)
    ev = Evaluator(roadmap)
    stats = ImproveStats()
    n_pop = params.population_size
    n_elite = max(1, math.ceil(params.elite_fraction * n_pop))
    rank_cut = max(1, math.ceil(params.level2_rank_fraction * n_pop))
    orders = _voronoi_orders(roadmap)

    def immigrant() -> Chromosome:
        if rng.random() < 0.5:
            return random_chromosome(roadmap, rng)
        return voronoi_chromosome(roadmap, rng, orders)

    def polished(chrom: Chromosome, threshold: float) -> Chromosome:
        level = "II" if ev.cost(chrom) <= threshold else "I"
        return improve(chrom, level, params, ev, rng, stats)

    pop = init_population(roadmap, params, rng, ev, stats)
    history = [GenerationStat(0, ev.cost(pop[0]), sum(map(ev.cost, pop)) / n_pop)]
    best_cost = ev.cost(pop[0])
    stagnation = 0
    reason = "max_generations"
    generation = 0

    while generation < params.max_generations:
        if _out_of_time(params, t0):
            reason = "time_limit"
            break
        generation += 1
        threshold = ev.cost(pop[rank_cut - 1])
        nxt = pop[:n_elite]
        n_children = round(params.offspring_share * (n_pop - n_elite))
        for _ in range(n_children):
            p1, p2 = select(pop, params.selection_pressure, rng, ev)
            nxt.append(polished(crossover(p1, p2, params, rng), threshold))
        while len(nxt) < n_pop:
            nxt.append(polished(immigrant(), threshold))
        nxt.sort(key=ev.cost)

        # purge cost duplicates: keep the first, regenerate the rest
        eps = params.duplicate_cost_epsilon
        replaced = False
        last_kept = ev.cost(nxt[0])
        for idx in range(1, n_pop):
            c = ev.cost(nxt[idx])
            if abs(c - last_kept) <= eps * max(1.0, abs(last_kept)):
                nxt[idx] = improve(immigrant(), "I", params, ev, rng, stats)
                replaced = True
            else:
                last_kept = c
        if replaced:
            nxt.sort(key=ev.cost)

        pop = nxt
        gen_best = ev.cost(pop[0])
        history.append(GenerationStat(generation, gen_best, sum(map(ev.cost, pop)) / n_pop))
        if gen_best < best_cost - 1e-12:
            best_cost = gen_best
            stagnation = 0
        else:
            stagnation += 1
        if stagnation >= params.stagnation_limit:
            reason = "stagnation"
            break

    best_chrom = pop[0]
    return MAResult(
        best=ev.tours(best_chrom),
        best_cost=ev.cost(best_chrom),
        best_chromosome=best_chrom,
        generations=generation,
        termination_reason=reason,
        history=history,
        op_stats=stats,
        wall_time_s=time.monotonic() - t0,
        final_population_costs=[ev.cost(c) for c in pop],
    )
