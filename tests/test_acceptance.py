"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

The first eight criteria are quick structural and numerical checks; the
last two run the solver at benchmark scale on the bundled 29-task point
set and take several minutes each.
"""

import math
import random
import statistics
import sys
import time

from ghmdatsp.exact import RelaxedSolution, find_subtours, solve_bruteforce
from ghmdatsp.geometry import Config, Disk, dubins_shortest_path, nin_check, norm_angle
from ghmdatsp.instance import build_instance, turn_radius
from ghmdatsp.memetic import (Evaluator, MAParams, decode,
                              random_chromosome, run, sample_swap,
                              validate_chromosome, _vehicle_task_positions)
from ghmdatsp.memetic import global_2opt, local_2opt, task_swap
from ghmdatsp.refine import (ChainState, RefineParams, WaypointChain, build_chain,
                             refine, refined_objective)
from ghmdatsp.roadmap import DEPOT, TERMINAL, build_roadmap
from ghmdatsp.instance import VehicleSpec

from conftest import random_tiny_instance
from dubins_search_oracle import search_shortest_length


def report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}"
    # bypass capture so the line lands in the terminal in every pytest mode
    print("\n" + line, file=sys.__stdout__)
    print(line)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


class TestAcceptance:

    def test_01_dubins_correctness(self):
        t0 = time.monotonic()
        rng = random.Random(20260101)
        worst_pos = worst_ang = 0.0
        for _ in range(1000):
            a = Config(rng.uniform(-2000, 2000), rng.uniform(-2000, 2000),
                       rng.uniform(0, 2 * math.pi))
            b = Config(rng.uniform(-2000, 2000), rng.uniform(-2000, 2000),
                       rng.uniform(0, 2 * math.pi))
            r = rng.uniform(5.0, 200.0)
            path = dubins_shortest_path(a, b, r)
            tip = path.endpoint()
            worst_pos = max(worst_pos, math.hypot(tip.x - b.x, tip.y - b.y))
            d = abs(norm_angle(tip.theta) - norm_angle(b.theta))
            worst_ang = max(worst_ang, min(d, 2 * math.pi - d))
        worst_rel = 0.0
        for _ in range(100):
            a = (rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(0, 2 * math.pi))
            b = (rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(0, 2 * math.pi))
            r = rng.uniform(0.5, 12.0)
            closed = dubins_shortest_path(Config(*a), Config(*b), r).length
            searched = search_shortest_length(a, b, r)
            worst_rel = max(worst_rel, abs(closed - searched) / max(searched, 1e-9))
        elapsed = time.monotonic() - t0
        ok = worst_pos <= 1e-6 and worst_ang <= 1e-6 and worst_rel <= 0.01 and elapsed < 10.0
        report(1, "dubins correctness", ok,
               f"endpoint {worst_pos:.2e} m / {worst_ang:.2e} rad, "
               f"oracle gap {worst_rel:.2e}, {elapsed:.1f}s")

    def test_02_turn_radius_reproduction(self):
        pairs = {50: 65.9, 60: 94.8, 70: 129.1}
        errs = {v: abs(turn_radius(v, 4.0, 9.80) - want) for v, want in pairs.items()}
        ok = all(e <= 0.05 for e in errs.values())
        report(2, "turn-radius reproduction", ok,
               " ".join(f"v={v}: err {e:.3f}" for v, e in errs.items()))

    def test_03_nin_predicate(self):
        rng = random.Random(3)
        agree = 0
        for _ in range(10000):
            c = Config(rng.uniform(-100, 100), rng.uniform(-100, 100),
                       rng.uniform(0, 2 * math.pi))
            r = rng.uniform(1.0, 50.0)
            disk = Disk((rng.uniform(-150, 150), rng.uniform(-150, 150)),
                        rng.uniform(0.5, 80.0))
            lx, ly = c.x - r * math.sin(c.theta), c.y + r * math.cos(c.theta)
            rx, ry = c.x + r * math.sin(c.theta), c.y - r * math.cos(c.theta)
            want = (abs(math.hypot(lx - disk.center[0], ly - disk.center[1]) - r) <= disk.radius
                    and abs(math.hypot(rx - disk.center[0], ry - disk.center[1]) - r) <= disk.radius)
            agree += nin_check(c, r, disk) == want
        # boundary-node configuration: both nodes cross the near task, only
        # the first crosses the far one
        r, rho = 100.0, 150.0
        s1 = Config(-150.0, 0.0, 0.0)
        s2 = Config(0.0, 150.0, -math.pi / 2)
        near, far = (-120.0, 120.0), (-320.0, 0.0)
        fig_ok = (nin_check(s1, r, Disk(near, rho)) and nin_check(s2, r, Disk(near, rho))
                  and nin_check(s1, r, Disk(far, rho)) and not nin_check(s2, r, Disk(far, rho)))
        ok = agree == 10000 and fig_ok
        report(3, "crossing predicate", ok,
               f"{agree}/10000 exact, boundary configuration {'ok' if fig_ok else 'bad'}")

    def test_04_decode_fidelity(self, worked_example, pruning_example):
        _, rm, chrom = worked_example
        ts = decode(chrom, rm)
        labels = [[(rm.nodes[n].cluster, rm.nodes[n].index_in_cluster)
                   for n in tour] for tour in ts.tours]
        decode_ok = (labels[0] == [(-1, 1), (1, 1), (2, 3), (3, 3), (-2, 1)]
                     and labels[1] == [(-1, 1), (4, 2), (5, 1), (-2, 1)])

        _, rm4, chrom4 = pruning_example
        ts4 = decode(chrom4, rm4)
        order = [(rm4.nodes[n].vehicle, rm4.nodes[n].cluster) for n in ts4.deleted]
        trace_ok = order == [(1, 2), (2, 5), (1, 3)]
        visited, crossed = set(), set()
        for tour in ts4.tours:
            for nid in tour[1:-1]:
                visited.add(rm4.nodes[nid].cluster)
                crossed.update(rm4.nin_node_to_tasks[nid])
        baskets_ok = all(
            (1 if t.id in visited else 0)
            + sum(1 for tour in ts4.tours for nid in tour[1:-1]
                  if t.id in rm4.nin_node_to_tasks[nid]) >= 1
            for t in rm4.instance.tasks)
        ok = decode_ok and trace_ok and baskets_ok
        report(4, "decode fidelity", ok,
               f"worked tours {'ok' if decode_ok else 'bad'}, "
               f"deletions {order}, baskets {'>=1' if baskets_ok else 'broken'}")

    def test_05_operator_monotonicity(self):
        inst = build_instance(
            [(170.0 * i, 140.0 + 110.0 * (i % 3)) for i in range(1, 8)],
            n_vehicles=2, samples_per_cluster=3, velocity=50,
            depots=[(0.0, 0.0), (1400.0, 650.0)], seed=55)
        rm = build_roadmap(inst)
        ev = Evaluator(rm)
        rng = random.Random(55)
        violations = 0
        applications = 0
        chrom = random_chromosome(rm, rng)
        for k in range(10000):
            if k % 40 == 0:
                chrom = random_chromosome(rm, rng)
            before = ev.cost(chrom)
            op = k % 4
            if op == 0:
                i = rng.randint(1, len(chrom) - 1)
                j = rng.randint(i + 1, len(chrom))
                chrom = global_2opt(chrom, i, j, ev)
            elif op == 1:
                eligible = [vi for vi, ps in enumerate(_vehicle_task_positions(chrom))
                            if len(ps) >= 2]
                if eligible:
                    vi = rng.choice(eligible)
                    cnt = len(_vehicle_task_positions(chrom)[vi])
                    i = rng.randint(1, cnt - 1)
                    j = rng.randint(i + 1, cnt)
                    chrom = local_2opt(chrom, vi, i, j, ev)
            elif op == 2:
                i = rng.randint(1, len(chrom))
                j = rng.randint(1, len(chrom) - 1)
                j += j >= i
                chrom = task_swap(chrom, i, j, ev)
            else:
                chrom = sample_swap(chrom, ev)
            applications += 1
            if ev.cost(chrom) > before + 1e-9:
                violations += 1
            try:
                validate_chromosome(chrom, rm)
            except Exception:
                violations += 1
        ok = violations == 0 and applications == 10000
        report(5, "operator monotonicity", ok,
               f"{applications} applications, {violations} violations")

    def test_06_oracle_equivalence(self):
        t0 = time.monotonic()
        hits, never_below = 0, True
        for key in range(20):
            inst = random_tiny_instance(key)
            rm = build_roadmap(inst)
            opt = solve_bruteforce(rm)
            res = run(rm, MAParams(seed=key, max_generations=150, stagnation_limit=40))
            if res.best_cost <= opt.objective + 1e-6 * max(1.0, opt.objective):
                hits += 1
            if res.best_cost < opt.objective - 1e-9:
                never_below = False
        elapsed = time.monotonic() - t0
        ok = hits >= 18 and never_below and elapsed < 120.0
        report(6, "oracle equivalence", ok,
               f"{hits}/20 optima attained, never below: {never_below}, {elapsed:.0f}s")

    def test_07_separation_soundness(self):
        # valid solutions and oracle optima separate to the empty set
        clean = 0
        for key in (0, 5, 11):
            inst = random_tiny_instance(key)
            rm = build_roadmap(inst)
            opt = solve_bruteforce(rm)
            clean += find_subtours(RelaxedSolution.from_tourset(opt, rm), rm) == []
        # fifty constructed candidates with planted disconnected cycles
        found_all = 0
        for k in range(50):
            g = random.Random(7000 + k)
            n = g.choice([5, 6])
            centers = [(g.uniform(0, 2000), g.uniform(0, 2000)) for _ in range(n)]
            inst = build_instance(centers, n_vehicles=1, samples_per_cluster=1,
                                  velocity=50, depots=[(0.0, 0.0)],
                                  nin_enabled=False, seed=7000 + k)
            rm = build_roadmap(inst)
            walk = list(range(1, n + 1))
            g.shuffle(walk)
            n_cycles = 2 if n == 6 and g.random() < 0.5 else 1
            cycle_len = 2 if n_cycles == 2 else g.choice([2, 3])
            cycles = []
            rest = walk
            for _ in range(n_cycles):
                cycles.append(rest[:cycle_len])
                rest = rest[cycle_len:]
            chain = rest
            depot = rm.node(1, DEPOT, 1).id
            term = rm.node(1, TERMINAL, 1).id
            y = {s.id: 0 for s in rm.nodes}
            x = {}
            y[depot] = y[term] = 1
            prev = depot
            for t in chain:
                nid = rm.node(1, t, 1).id
                y[nid] = 1
                x[(prev, nid)] = 1
                prev = nid
            x[(prev, term)] = 1
            planted = []
            for cyc in cycles:
                ids = [rm.node(1, t, 1).id for t in cyc]
                for nid in ids:
                    y[nid] = 1
                for a, b in zip(ids, ids[1:] + ids[:1]):
                    x[(a, b)] = 1
                planted.append(frozenset(ids))
            sol = RelaxedSolution(y, x)
            got = {frozenset(c) for c in find_subtours(sol, rm)}
            if got == set(planted):
                found_all += 1
        ok = clean == 3 and found_all == 50
        report(7, "separation soundness", ok,
               f"{clean}/3 clean solutions empty, {found_all}/50 planted cycle sets recovered")

    def test_08_refinement(self):
        rng = random.Random(88)
        veh = VehicleSpec(id=1, velocity=math.sqrt(10.0 * 9.80 * math.sqrt(15)),
                          load_factor=4.0, depot=(0.0, 0.0), terminal=(100.0, 0.0),
                          sensing_range=10.0)
        monotone = True
        always_converged = True
        for _ in range(100):
            states = [ChainState(-1, Config(0, 0, rng.uniform(0, 6.28)))]
            x = 0.0
            for t in range(1, rng.randint(2, 5)):
                x += rng.uniform(20, 45)
                cy = rng.uniform(-18, 18)
                states.append(ChainState(
                    t,
                    Config(x + rng.uniform(-5, 5), cy + rng.uniform(-5, 5),
                           rng.uniform(0, 6.28)),
                    Disk((x, cy), rng.uniform(5.0, 10.0))))
            states.append(ChainState(-2, Config(x + 30.0, 0.0, rng.uniform(0, 6.28))))
            res = refine([WaypointChain(1, states)], [veh], RefineParams())
            trace = res.cost_trace
            monotone &= all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
            always_converged &= res.stop_reason == "converged"
        chain = WaypointChain(1, [
            ChainState(-1, Config(0, 0, 0.5)),
            ChainState(1, Config(50, 5, 2.0), Disk((50.0, 0.0), 10.0)),
            ChainState(-2, Config(100, 0, 1.0)),
        ])
        straight = refine([chain], [veh], RefineParams()).per_chain_cost[0]
        ok = monotone and always_converged and straight <= 100.001
        report(8, "refinement", ok,
               f"half-sweeps monotone: {monotone}, all converged: {always_converged}, "
               f"straight-line cost {straight:.6f}")

    def test_09_benchmark_row_single_vehicle(self):
        reference = 8616.1
        ma_objs, reductions, walls = [], [], []
        for seed in range(10):
            inst = build_instance(n_vehicles=1, samples_per_cluster=5, velocity=50,
                                  alpha=0.5, seed=seed)
            rm = build_roadmap(inst)
            t0 = time.monotonic()
            res = run(rm, MAParams(seed=seed))
            wall = time.monotonic() - t0
            chains = build_chain(res.best, rm)
            rr = refine(chains, list(inst.vehicles))
            pr = refined_objective(rr, res.best, inst.alpha, inst.n_vehicles)
            ma_objs.append(res.best_cost)
            reductions.append(1.0 - pr / res.best_cost)
            walls.append(wall)
        mean_ma = statistics.mean(ma_objs)
        mean_red = statistics.mean(reductions)
        ok = (0.85 * reference <= mean_ma <= 1.15 * reference
              and mean_red >= 0.10 and max(walls) < 60.0)
        report(9, "benchmark row (1 vehicle, 5 samples, v=50)", ok,
               f"mean {mean_ma:.1f} vs {reference} (window "
               f"{0.85 * reference:.0f}..{1.15 * reference:.0f}), "
               f"mean refinement gain {100 * mean_red:.1f}%, slowest run {max(walls):.0f}s")

    def test_10_alpha_behavior(self):
        stats = {}
        for alpha in (1.0, 0.0):
            totals, maxes = [], []
            for seed in range(5):
                inst = build_instance(n_vehicles=4, samples_per_cluster=5,
                                      alpha=alpha, seed=seed)
                rm = build_roadmap(inst)
                res = run(rm, MAParams(seed=seed))
                totals.append(sum(res.best.per_vehicle_cost))
                maxes.append(max(res.best.per_vehicle_cost))
            stats[alpha] = (statistics.mean(totals), statistics.mean(maxes))
        total_ok = stats[1.0][0] <= stats[0.0][0]
        max_ok = stats[0.0][1] <= stats[1.0][1]
        ok = total_ok and max_ok
        report(10, "alpha trade-off", ok,
               f"mean totals {stats[1.0][0]:.0f} (a=1) vs {stats[0.0][0]:.0f} (a=0); "
               f"mean maxima {stats[0.0][1]:.0f} (a=0) vs {stats[1.0][1]:.0f} (a=1)")
