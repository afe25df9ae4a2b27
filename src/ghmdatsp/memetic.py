"""Memetic search over delimiter-encoded multi-vehicle tours.

A chromosome holds each choice once, in two fields.  ``genes`` is the
gene string: n task cluster ids and m-1 delimiters, written ``0``, that
split it into one segment per vehicle.  ``samples[c]`` is task cluster
c's 1-based sample.  Decoding yields one tour per vehicle, from its one
depot node through its segment to its one terminal node; with crossings
on, it then prunes nodes whose tasks are already crossed by the
remaining tour.

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
from typing import ClassVar

from .roadmap import DEPOT, TERMINAL, Roadmap


class ChromosomeError(ValueError):
    """The gene sequence violates a chromosome invariant."""


class Chromosome:
    """Immutable gene string and per-cluster samples, with its lazily
    cached decode.

    ``samples`` is indexed by cluster id; slot 0 is unused.
    """

    __slots__ = ("genes", "samples", "cached_tours")

    def __init__(self, genes, samples):
        self.genes = tuple(genes)
        self.samples = tuple(samples)
        self.cached_tours = None

    def __len__(self):
        return len(self.genes)


def validate_chromosome(chrom: Chromosome, roadmap: Roadmap) -> None:
    """Raise :class:`ChromosomeError` if any structural invariant fails."""
    n, m = roadmap.n_tasks, roadmap.n_vehicles
    expect_len = n + m - 1
    if len(chrom) != expect_len:
        raise ChromosomeError(f"length {len(chrom)} != n + m - 1 = {expect_len}")
    if len(chrom.samples) != n + 1:
        raise ChromosomeError(f"samples has {len(chrom.samples)} slots, expected n + 1 = {n + 1}")
    clusters = sorted(g for g in chrom.genes if g != 0)
    if clusters != list(range(1, n + 1)):
        raise ChromosomeError(f"task clusters {clusters} != 1..{n}")
    ids = roadmap.cluster_ids
    for veh, positions in zip(roadmap.vehicle_ids, _vehicle_task_positions(chrom)):
        for c in map(chrom.genes.__getitem__, positions):
            if not 1 <= chrom.samples[c] <= len(ids[(veh, c)]):
                raise ChromosomeError(
                    f"vehicle {veh}: cluster {c} sample {chrom.samples[c]} out of range")


def _vehicle_task_positions(chrom: Chromosome) -> list[list[int]]:
    """Task gene positions per vehicle: the delimiters split the string."""
    out = [[]]
    for pos, g in enumerate(chrom.genes):
        if g == 0:
            out.append([])
        else:
            out[-1].append(pos)
    return out


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


def evaluate(per_vehicle_cost, alpha: float) -> float:
    """Blend of mean and max vehicle cost: alpha*mean + (1-alpha)*max."""
    costs = list(per_vehicle_cost)
    return alpha * (sum(costs) / len(costs)) + (1.0 - alpha) * max(costs)


def _decode(chrom: Chromosome, roadmap: Roadmap) -> TourSet:
    """Split into node-id tours per vehicle, prune when the instance has
    crossings on, then cost (hot path, no validation)."""
    ids = roadmap.cluster_ids
    samples = chrom.samples
    vehicles = iter(roadmap.vehicle_ids)
    veh = next(vehicles)
    tour = [ids[(veh, DEPOT)][0]]
    tours = [tour]
    for c in chrom.genes:
        if c:
            tour.append(ids[(veh, c)][samples[c] - 1])
        else:  # a delimiter ends this vehicle's tour and starts the next one's
            tour.append(ids[(veh, TERMINAL)][0])
            veh = next(vehicles)
            tour = [ids[(veh, DEPOT)][0]]
            tours.append(tour)
    tour.append(ids[(veh, TERMINAL)][0])
    # with crossings off every crossing set is empty and the pass would delete nothing
    deleted = _nin_reduce(tours, roadmap) if roadmap.instance.nin_enabled else ()
    return TourSet.from_tours(tours, roadmap, deleted)


def decode(chrom: Chromosome, roadmap: Roadmap) -> TourSet:
    """Split the chromosome into per-vehicle tours, prune nodes whose tasks
    stay covered without them, and cost the tours.

    Every task starts with one basket credit (its own node is always in
    the tour) plus one per tour node that necessarily crosses it.  Nodes
    are deleted greedily: always the node of the fullest-basket task,
    breaking ties toward the node crossing the fewest other tasks, and
    stopping as soon as the chosen deletion would empty any basket.  With
    crossings off nothing is crossed, so nothing is pruned; the unpruned
    tours of a crossings-on instance come from its crossings-off twin,
    ``build_roadmap(replace(instance, nin_enabled=False))``, which has the
    same samples and costs.
    """
    validate_chromosome(chrom, roadmap)
    return _decode(chrom, roadmap)


def _nin_reduce(tours: list[list[int]], roadmap: Roadmap) -> list[int]:
    """Prune ``tours`` in place; return the deleted node ids in order.

    A task whose basket is 1 can never be deleted, and baskets only fall,
    so only tasks with fuller baskets are ranked, and a task leaves the
    ranking once its basket reaches 1.  A node's detour saving is computed
    once and kept until a deletion gives the node a new neighbour.
    """
    nin_of = roadmap.nin_node_to_tasks
    nodes = roadmap.nodes
    basket = [1] * (roadmap.n_tasks + 1)
    for tour in tours:
        for nid in tour[1:-1]:
            for t in nin_of[nid]:
                basket[t] += 1
    ranked: dict[int, tuple[int, int, set[int]]] = {}  # task -> (vehicle index, node, crossed)
    for vi, tour in enumerate(tours):
        for nid in tour[1:-1]:
            t = nodes[nid].cluster
            if basket[t] > 1:
                ranked[t] = (vi, nid, nin_of[nid])
    cost_rows = [roadmap.cost_rows[veh] for veh in roadmap.vehicle_ids]
    local = roadmap.local_index
    saving: dict[int, float] = {}  # node id -> detour saving on the current tour
    deleted: list[int] = []

    while ranked:
        best_basket = -1
        best_len = 0
        tied: list[int] = []
        for t, (_, _, crossed) in ranked.items():
            b = basket[t]
            if b < best_basket:
                continue
            n = len(crossed)
            if b > best_basket or n < best_len:
                best_basket, best_len, tied = b, n, [t]
            elif n == best_len:
                tied.append(t)
        t_del = tied[0]
        if len(tied) > 1:
            # unspecified tie: prefer the deletion that shortens the tour most,
            # then the smaller task id
            best = None
            for t in tied:
                vi, nid, _ = ranked[t]
                s = saving.get(nid)
                if s is None:
                    tour = tours[vi]
                    p = tour.index(nid)
                    row = cost_rows[vi]
                    i, j, k = local[tour[p - 1]], local[nid], local[tour[p + 1]]
                    # summed in edge_cost's order: i->j + j->k - i->k
                    s = saving[nid] = row[i][j] + row[j][k] - row[i][k]
                if best is None or s > best or (s == best and t < t_del):
                    best, t_del = s, t
        vi, nid, crossed = ranked.pop(t_del)
        for u in crossed:
            if basket[u] <= 1:
                return deleted  # the deletion would empty a crossed task's basket
        basket[t_del] -= 1
        for u in crossed:
            basket[u] -= 1
            if basket[u] == 1:
                ranked.pop(u, None)
        tour = tours[vi]
        p = tour.index(nid)
        saving.pop(tour[p - 1], None)  # both neighbours get a new neighbour
        saving.pop(tour[p + 1], None)
        del tour[p]
        deleted.append(nid)
    return deleted


class Evaluator:
    """Caches the chromosome -> TourSet -> cost mapping for one run, and
    counts the decodes it made and the nodes they pruned."""

    __slots__ = ("roadmap", "decodes", "pruned_nodes")

    def __init__(self, roadmap: Roadmap):
        self.roadmap = roadmap
        self.decodes = 0
        self.pruned_nodes = 0

    def tours(self, chrom: Chromosome) -> TourSet:
        """Decode, pruning exactly when the instance has crossings on."""
        if chrom.cached_tours is None:
            ts = chrom.cached_tours = _decode(chrom, self.roadmap)
            self.decodes += 1
            self.pruned_nodes += len(ts.deleted)
        return chrom.cached_tours

    def cost(self, chrom: Chromosome) -> float:
        ts = chrom.cached_tours
        if ts is None:
            ts = self.tours(chrom)
        return ts.objective


# ---------------------------------------------------------------------------
# Parameters


@dataclass
class MAParams:
    """The run's budget and seed; the search's tuned shape is fixed as the
    class constants below."""

    population_size: int = 100
    max_generations: int = 500
    stagnation_limit: int = 50
    time_limit_s: float | None = None
    seed: int = 0

    elite_fraction: ClassVar[float] = 0.10
    selection_pressure: ClassVar[float] = 4.0
    crossover_p1_share: ClassVar[float] = 0.60
    offspring_share: ClassVar[float] = 0.60
    level2_rank_fraction: ClassVar[float] = 0.10
    task_swap_repeats_l1: ClassVar[int] = 5
    sample_swap_repeats_l2: ClassVar[int] = 3
    stagnation_streak_l2: ClassVar[int] = 10
    duplicate_cost_epsilon: ClassVar[float] = 1e-6

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError(f"population_size must be >= 2, not {self.population_size}")
        if self.time_limit_s is not None and not self.time_limit_s >= 0.0:  # NaN fails too
            raise ValueError(f"time_limit_s must be non-negative seconds, not {self.time_limit_s}")


def _out_of_time(params: MAParams, t0: float) -> bool:
    return params.time_limit_s is not None and time.monotonic() - t0 > params.time_limit_s


# ---------------------------------------------------------------------------
# Moves: each builds a candidate chromosome, and _move judges it


def reverse_segment(chrom: Chromosome, i: int, j: int) -> Chromosome:
    """Reverse gene positions i..j (1-based, inclusive)."""
    if not 1 <= i <= j <= len(chrom):
        raise ChromosomeError(f"reversal bounds ({i}, {j}) outside 1..{len(chrom)}")
    if i == j:
        return chrom
    genes = list(chrom.genes)
    genes[i - 1:j] = reversed(genes[i - 1:j])
    return Chromosome(genes, chrom.samples)


def swap_genes(chrom: Chromosome, i: int, j: int) -> Chromosome:
    """Exchange the genes at 1-based positions i and j."""
    if i == j:
        raise ChromosomeError("task swap needs two different positions")
    genes = list(chrom.genes)
    genes[i - 1], genes[j - 1] = genes[j - 1], genes[i - 1]
    return Chromosome(genes, chrom.samples)


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
    return Chromosome(genes, chrom.samples)


def sample_swap(chrom: Chromosome, ev: Evaluator) -> Chromosome:
    """Left-to-right scan of each decoded tour, replacing each task node's
    sample when profitable; pruned nodes travel nowhere and are not scanned.

    A cheaper sample in the same cluster is taken only if every task
    crossed by the old node and not by the new one stays covered by some
    other node of the current tours.  Returns the rescanned chromosome,
    uncosted, or ``chrom`` itself when no sample moved; :func:`_move`
    judges it by its re-decoded cost.
    """
    rm = ev.roadmap
    ts = ev.tours(chrom)
    nin_of = rm.nin_node_to_tasks
    nodes = rm.nodes
    cluster_ids = rm.cluster_ids
    local = rm.local_index
    veh_ids = rm.vehicle_ids

    tours = [list(t) for t in ts.tours]
    cover = {t.id: 0 for t in rm.instance.tasks}
    for tour in tours:
        for nid in tour[1:-1]:
            cover[nodes[nid].cluster] += 1
            for t in nin_of[nid]:
                cover[t] += 1

    samples = list(chrom.samples)
    # a decoded tour holds its vehicle's unpruned task nodes in gene order
    for veh, tour in zip(veh_ids, tours):
        cmat = rm.cost_rows[veh]
        for tp in range(1, len(tour) - 1):
            cur = tour[tp]
            c = nodes[cur].cluster
            ids = cluster_ids[(veh, c)]
            if len(ids) < 2:
                continue
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
            samples[c] = best_idx
            tour[tp] = best_nid
            for u in nin_of[cur]:
                cover[u] -= 1
            for u in nin_of[best_nid]:
                cover[u] += 1
    return chrom if samples == list(chrom.samples) else Chromosome(chrom.genes, samples)


#: Local-search operators, in the order their tallies are kept.
OPERATORS = ("global_2opt", "local_2opt", "task_swap", "sample_swap")


@dataclass
class ImproveStats:
    attempts: dict = field(default_factory=lambda: dict.fromkeys(OPERATORS, 0))
    accepts: dict = field(default_factory=lambda: dict.fromkeys(OPERATORS, 0))


def _ordered_pair(rng: random.Random, count: int) -> tuple[int, int]:
    """Positions 1 <= i < j <= count, drawn i first."""
    i = rng.randint(1, count - 1)
    return i, rng.randint(i + 1, count)


def _move(op: str, chrom: Chromosome, ev: Evaluator, rng: random.Random,
          stats: ImproveStats) -> Chromosome:
    """One tallied attempt of operator ``op``: draw its positions, build the
    candidate, and keep it only if it costs strictly less than ``chrom``
    (improve-or-reject); otherwise return the input object ``chrom`` itself.

    A move with fewer than two genes to move counts as a rejected attempt
    and draws nothing: a global 2-opt or task swap on a one-gene string, a
    local 2-opt with no vehicle holding two tasks.
    """
    stats.attempts[op] += 1
    cand = chrom
    length = len(chrom)
    if op == "global_2opt" and length >= 2:
        cand = reverse_segment(chrom, *_ordered_pair(rng, length))
    elif op == "local_2opt":
        positions = _vehicle_task_positions(chrom)
        eligible = [vi for vi, ps in enumerate(positions) if len(ps) >= 2]
        if eligible:
            vi = rng.choice(eligible)
            cand = reverse_vehicle_segment(chrom, vi, *_ordered_pair(rng, len(positions[vi])))
    elif op == "task_swap" and length >= 2:
        i = rng.randint(1, length)
        j = rng.randint(1, length - 1)
        cand = swap_genes(chrom, i, j + (j >= i))
    elif op == "sample_swap":
        cand = sample_swap(chrom, ev)
    if cand is chrom or not ev.cost(cand) < ev.cost(chrom):
        return chrom
    stats.accepts[op] += 1
    return cand


def improve(chrom: Chromosome, level: str, ev: Evaluator, rng: random.Random,
            stats: ImproveStats | None = None) -> Chromosome:
    """Apply the light ("I") or intensive ("II") local-search schedule.

    Level I runs one global 2-opt, one local 2-opt, one sample-swap scan
    and a handful of task swaps.  Level II loops each 2-opt/swap operator
    until it fails to improve several times in a row, then runs repeated
    sample-swap scans.  Cost is monotone non-increasing either way.
    """
    if stats is None:
        stats = ImproveStats()
    if level == "I":
        ops = ["global_2opt", "local_2opt", "sample_swap"]
        for op in ops + ["task_swap"] * MAParams.task_swap_repeats_l1:
            chrom = _move(op, chrom, ev, rng, stats)
        return chrom
    if level == "II":
        for op in ("global_2opt", "local_2opt", "task_swap"):
            streak = 0
            while streak < MAParams.stagnation_streak_l2:
                out = _move(op, chrom, ev, rng, stats)
                streak = 0 if out is not chrom else streak + 1
                chrom = out
        for _ in range(MAParams.sample_swap_repeats_l2):
            chrom = _move("sample_swap", chrom, ev, rng, stats)
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


def _chromosome_from_orders(roadmap: Roadmap, rng: random.Random,
                            orders: list[list[int]]) -> Chromosome:
    """Genes for per-vehicle task orders; task samples are drawn at random,
    vehicle by vehicle."""
    ids = roadmap.cluster_ids
    genes = []
    samples = [0] * (roadmap.n_tasks + 1)
    for vi, veh in enumerate(roadmap.vehicle_ids):
        if vi:
            genes.append(0)
        for t in orders[vi]:
            genes.append(t)
            samples[t] = rng.randint(1, len(ids[(veh, t)]))
    return Chromosome(genes, samples)


def init_population(roadmap: Roadmap, params: MAParams, rng: random.Random,
                    ev: Evaluator, stats: ImproveStats | None = None) -> list[Chromosome]:
    """Half random, half depot-partitioned; every member gets Level-I polish.

    Once ``params.time_limit_s`` has passed since the call began, the
    members still to be made are kept unpolished.
    """
    t0 = time.monotonic()
    orders = _voronoi_orders(roadmap)
    pop = []
    n_random = params.population_size // 2
    for i in range(params.population_size):
        if i < n_random:
            chrom = random_chromosome(roadmap, rng)
        else:
            chrom = _chromosome_from_orders(roadmap, rng, orders)
        if not _out_of_time(params, t0):
            chrom = improve(chrom, "I", ev, rng, stats)
        pop.append(chrom)
    pop.sort(key=ev.cost)
    return pop


def select(population: list[Chromosome], rng: random.Random,
           ev: Evaluator) -> tuple[Chromosome, Chromosome]:
    """Roulette-wheel draw of two parents, preferring distinct costs.

    Fitness rescales costs so the best member is exactly ``selection_pressure``
    times as likely as the worst; identical costs degrade to uniform draws.
    """
    costs = [ev.cost(c) for c in population]
    cw, cb = max(costs), min(costs)
    if cw - cb <= 0.0:
        weights = None
    else:
        shift = (cw - cb) / (MAParams.selection_pressure - 1.0)
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


def crossover(parent1: Chromosome, parent2: Chromosome, rng: random.Random) -> Chromosome:
    """Parameterized uniform crossover.

    A fixed share of positions (``crossover_p1_share``) is drawn without
    replacement and copied from parent 1.  The remaining positions fill
    left-to-right from parent 2's gene order, skipping task clusters
    already present and surplus delimiters; each cluster streamed from
    parent 2 brings parent 2's sample.  Clusters still missing are
    inserted in random order.  Every other sample is parent 1's.

    RNG protocol (relied on by reproducibility tests): one
    ``rng.sample(range(L), k)`` for the copied positions, then one
    ``rng.shuffle`` of the leftover clusters in parent-1 gene order.
    """
    length = len(parent1)
    total_delims = parent1.genes.count(0)
    k = math.ceil(MAParams.crossover_p1_share * length)
    keep = set(rng.sample(range(length), k))

    child: list[int | None] = [None] * length
    samples = list(parent1.samples)
    used: set[int] = set()
    delims = 0
    for pos in keep:
        g = parent1.genes[pos]
        child[pos] = g
        if g == 0:
            delims += 1
        else:
            used.add(g)

    stream = iter(parent2.genes)
    for pos in range(length):
        if child[pos] is not None:
            continue
        for g in stream:
            if g == 0:
                if delims < total_delims:
                    child[pos] = g
                    delims += 1
                    break
            elif g not in used:
                child[pos] = g
                samples[g] = parent2.samples[g]
                used.add(g)
                break
        else:
            break

    missing = [g for g in parent1.genes if g != 0 and g not in used]
    rng.shuffle(missing)
    fill = iter(missing)
    for pos in range(length):
        if child[pos] is None:
            child[pos] = next(fill, 0)

    return Chromosome(child, samples)


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
    generations: int
    termination_reason: str
    history: list[GenerationStat]
    op_stats: ImproveStats
    wall_time_s: float
    final_population_costs: list[float] = field(default_factory=list)
    #: chromosomes the run decoded, and the nodes those decodes pruned
    decodes: int = 0
    pruned_nodes: int = 0

    @property
    def best_cost(self) -> float:
        return self.best.objective

    def history_json(self) -> str:
        doc = {
            "generations": self.generations,
            "decodes": self.decodes,
            "pruned_nodes": self.pruned_nodes,
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
        return _chromosome_from_orders(roadmap, rng, orders)

    def polished(chrom: Chromosome, threshold: float) -> Chromosome:
        level = "II" if ev.cost(chrom) <= threshold else "I"
        return improve(chrom, level, ev, rng, stats)

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
            p1, p2 = select(pop, rng, ev)
            nxt.append(polished(crossover(p1, p2, rng), threshold))
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
                nxt[idx] = improve(immigrant(), "I", ev, rng, stats)
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

    return MAResult(
        best=ev.tours(pop[0]),
        generations=generation,
        termination_reason=reason,
        history=history,
        op_stats=stats,
        wall_time_s=time.monotonic() - t0,
        final_population_costs=[ev.cost(c) for c in pop],
        decodes=ev.decodes,
        pruned_nodes=ev.pruned_nodes,
    )
