import functools
import importlib
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghmdatsp import cli, exact
from ghmdatsp.geometry import Config, Disk, dubins_shortest_path, sample_path
from ghmdatsp.instance import VehicleSpec, build_instance
from ghmdatsp.memetic import MAParams, decode, random_chromosome, run
from ghmdatsp.refine import (ENTRY_SPACING_FRACTION, ChainState, RefineError, RefineParams,
                             WaypointChain, build_chain, refine, refined_objective)
from ghmdatsp.roadmap import build_roadmap

from conftest import random_tiny_instance

# the package re-exports the function ``refine``; this is the module
refine_mod = importlib.import_module("ghmdatsp.refine")


def make_vehicle(r_target=10.0, velocity=None):
    v = velocity if velocity is not None else math.sqrt(r_target * 9.80 * math.sqrt(15))
    return VehicleSpec(id=1, velocity=v, load_factor=4.0, depot=(0.0, 0.0),
                       terminal=(100.0, 0.0), sensing_range=10.0)


class TestBuildChain:
    def test_tour_without_crossings_copies_configs(self):
        inst = build_instance([(0.0, 0.0), (5000.0, 0.0), (0.0, 5000.0)],
                              n_vehicles=1, samples_per_cluster=1, velocity=50,
                              depots=[(2500.0, 2500.0)], seed=8)
        rm = build_roadmap(inst)
        from ghmdatsp.memetic import random_chromosome
        ts = decode(random_chromosome(rm, random.Random(0)), rm)
        chains = build_chain(ts, rm)
        assert len(chains) == 1
        assert [s.config for s in chains[0].states] == \
            [rm.nodes[n].config for n in ts.tours[0]]
        direct = {rm.nodes[n].cluster for n in ts.tours[0][1:-1]}
        assert all(s.cluster in direct for s in chains[0].states if s.kind == "task")

    def test_crossed_tasks_get_entry_states(self, pruning_example):
        inst, rm, chrom = pruning_example
        ts = decode(chrom, rm)
        chains = build_chain(ts, rm)
        direct = {rm.nodes[n].cluster for tour in ts.tours for n in tour[1:-1]}
        total_states = sum(len(c.states) for c in chains)
        vehicles_with_tasks = len(chains)
        assert vehicles_with_tasks == 2
        assert total_states == rm.n_tasks + 2 * vehicles_with_tasks  # n + 2m'
        for chain in chains:
            for s in chain.states:
                if s.kind == "task" and s.cluster not in direct:
                    d = math.dist((s.config.x, s.config.y), s.disk.center)
                    assert d <= s.disk.radius + 1e-6

    def test_chain_keeps_visit_order(self, pruning_example):
        _, rm, chrom = pruning_example
        ts = decode(chrom, rm)
        chains = build_chain(ts, rm)
        # vehicle 1 keeps task 1 directly and crosses 2 and 3 on the way
        v1 = chains[0]
        assert v1.states[0].kind == "depot" and v1.states[-1].kind == "terminal"
        assert {s.cluster for s in v1.states if s.kind == "task"} == {1, 2, 3}
        direct = [rm.nodes[n].cluster for n in ts.tours[0][1:-1]]
        assert direct == [1]
        assert [s.cluster for s in v1.states if s.cluster in direct] == [1]

    def test_inconsistent_claim_raises(self):
        inst = build_instance([(500.0, 0.0), (900.0, 0.0)], n_vehicles=1,
                              samples_per_cluster=1, velocity=50,
                              depots=[(0.0, 0.0)], seed=3)
        rm = build_roadmap(inst)
        from ghmdatsp.memetic import Chromosome
        ts = decode(Chromosome([1, 2], [0, 1, 1]), rm)
        # forge a reduced tourset that drops task 2 without any crossing
        forged = ts.__class__(
            tours=((ts.tours[0][0], ts.tours[0][1], ts.tours[0][-1]),),
            per_vehicle_cost=ts.per_vehicle_cost,
            objective=ts.objective,
            deleted=(),
        )
        kept_cluster = rm.nodes[forged.tours[0][1]].cluster
        if kept_cluster != 1:
            pytest.skip("unexpected node order in fixture")
        with pytest.raises(RefineError):
            build_chain(forged, rm)


#: Sensing ranges of the four-vehicle fleet: one for all, or one each.
FLEET_RANGES = {"one-range": 150.0, "multi-range": [150.0, 100.0, 120.0, 80.0]}


@functools.cache
def fleet_roadmap(ranges):
    """bays29 with four vehicles of different speeds, built once per range set."""
    return build_roadmap(build_instance(n_vehicles=4, samples_per_cluster=3,
                                        velocity=[50.0, 60.0, 70.0, 80.0],
                                        sensing_range=FLEET_RANGES[ranges], seed=11))


def service_disk(task, veh):
    """Where ``veh`` serves ``task``: within the task's radius and its own range."""
    return Disk(task.center, min(task.radius, veh.sensing_range))


def expected_chains(ts, rm):
    """The placement rule, worked out leg by leg from the densified paths.

    A crossed task belongs to the first vehicle (of those with tasks), first
    leg and first sample step whose pose lies in that vehicle's service disk
    of the task.  Within a leg, crossed tasks come in step order, ties in
    task-id order, before the leg's end node.  Every task state, crossed or
    visited, keeps its vehicle's service disk.  Each chain is a list of
    (cluster, pose, disk) by vehicle id.
    """
    inst = rm.instance
    tasks = {t.id: t for t in inst.tasks}
    disks = {veh.id: {t: service_disk(task, veh) for t, task in tasks.items()}
             for veh in inst.vehicles}
    direct = {rm.nodes[n].cluster for tour in ts.tours for n in tour[1:-1]}
    legs = []  # (vehicle index, leg index, densified poses, service disks)
    for vi, (veh, tour) in enumerate(zip(inst.vehicles, ts.tours)):
        if len(tour) <= 2:
            continue
        for li, (a, b) in enumerate(zip(tour, tour[1:])):
            path = dubins_shortest_path(rm.nodes[a].config, rm.nodes[b].config,
                                        veh.r_min)
            legs.append((vi, li, sample_path(path, veh.r_min * ENTRY_SPACING_FRACTION),
                         disks[veh.id]))
    crossed = {}  # (vehicle index, leg index) -> [(step, task id, pose)]
    for t in sorted(set(tasks) - direct):
        vi, li, step, pose = next(
            (vi, li, k, pose) for vi, li, poses, disk_of in legs
            for k, pose in enumerate(poses)
            if math.dist((pose.x, pose.y), disk_of[t].center) <= disk_of[t].radius + 1e-9)
        crossed.setdefault((vi, li), []).append((step, t, pose))
    out = {}
    for vi, tour in enumerate(ts.tours):
        if len(tour) <= 2:
            continue
        disk_of = disks[inst.vehicles[vi].id]
        first = rm.nodes[tour[0]]
        chain = [(first.cluster, first.config, None)]
        for li, b in enumerate(tour[1:]):
            for _, t, pose in sorted(crossed.get((vi, li), [])):
                chain.append((t, pose, disk_of[t]))
            node = rm.nodes[b]
            chain.append((node.cluster, node.config, disk_of.get(node.cluster)))
        out[inst.vehicles[vi].id] = chain
    return out


@given(ranges=st.sampled_from(list(FLEET_RANGES)),
       chrom_seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_crossed_tasks_go_to_first_entry(ranges, chrom_seed):
    rm = fleet_roadmap(ranges)
    ts = decode(random_chromosome(rm, random.Random(chrom_seed)), rm)
    want = expected_chains(ts, rm)
    chains = build_chain(ts, rm)
    assert [c.vehicle_id for c in chains] == list(want)
    for chain in chains:
        got = [(s.cluster, s.config, s.disk) for s in chain.states]
        assert got == want[chain.vehicle_id]


class TestRefine:
    def test_straight_line_through_disk_converges(self):
        veh = make_vehicle()
        chain = WaypointChain(1, [
            ChainState(-1, Config(0, 0, 0.5)),
            ChainState(1, Config(50, 5, 2.0), Disk((50.0, 0.0), 10.0)),
            ChainState(-2, Config(100, 0, 1.0)),
        ])
        res = refine([chain], [veh])
        assert res.per_chain_cost[0] <= 100.001
        assert res.stop_reason == "converged"

    def test_costs_monotone_across_sweeps(self):
        rng = random.Random(2)
        veh = make_vehicle()
        for _ in range(10):
            states = [ChainState(-1, Config(0, 0, rng.uniform(0, 6.28)))]
            x = 0.0
            for t in range(1, rng.randint(2, 5)):
                x += rng.uniform(20, 40)
                cy = rng.uniform(-15, 15)
                states.append(ChainState(t,
                                         Config(x + rng.uniform(-5, 5), cy + rng.uniform(-5, 5),
                                                rng.uniform(0, 6.28)),
                                         Disk((x, cy), 8.0)))
            states.append(ChainState(-2, Config(x + 30.0, 0.0, rng.uniform(0, 6.28))))
            chain = WaypointChain(1, states)
            res = refine([chain], [veh], RefineParams(max_sweeps=12))
            trace = res.cost_trace
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_feasibility_preserved(self):
        veh = make_vehicle()
        chain = WaypointChain(1, [
            ChainState(-1, Config(0, 0, 1.0)),
            ChainState(1, Config(40, 10, 0.5), Disk((40.0, 12.0), 6.0)),
            ChainState(2, Config(70, -8, 5.5), Disk((72.0, -10.0), 6.0)),
            ChainState(-2, Config(100, 0, 2.5)),
        ])
        res = refine([chain], [veh])
        out = res.chains[0]
        assert (out.states[0].config.x, out.states[0].config.y) == (0.0, 0.0)
        assert (out.states[-1].config.x, out.states[-1].config.y) == (100.0, 0.0)
        for s in out.states:
            if s.kind == "task":
                assert math.dist((s.config.x, s.config.y), s.disk.center) <= s.disk.radius + 1e-9

    def test_sequence_preserved(self, pruning_example):
        inst, rm, chrom = pruning_example
        ts = decode(chrom, rm)
        chains = build_chain(ts, rm)
        def clusters(chain):
            return [s.cluster for s in chain.states if s.kind == "task"]
        before = [clusters(c) for c in chains]
        res = refine(chains, list(inst.vehicles))
        assert [clusters(c) for c in res.chains] == before

    def test_termination_within_max_sweeps(self):
        rng = random.Random(5)
        veh = make_vehicle()
        for _ in range(5):
            states = [ChainState(-1, Config(0, 0, rng.uniform(0, 6.28)))]
            for t in range(1, 4):
                states.append(ChainState(t,
                                         Config(30.0 * t, rng.uniform(-10, 10), rng.uniform(0, 6.28)),
                                         Disk((30.0 * t, 0.0), 9.0)))
            states.append(ChainState(-2, Config(120, 0, rng.uniform(0, 6.28))))
            res = refine([WaypointChain(1, states)], [veh], RefineParams(max_sweeps=60))
            assert res.stop_reason == "converged"
            assert res.sweeps < 60

    def test_refined_objective_keeps_empty_vehicle_costs(self, pruning_example):
        inst, rm, chrom = pruning_example
        ts = decode(chrom, rm)
        chains = build_chain(ts, rm)
        res = refine(chains, list(inst.vehicles))
        obj = refined_objective(res, ts, inst.alpha, inst.n_vehicles)
        want = inst.alpha * sum(res.per_chain_cost) / inst.n_vehicles \
            + (1 - inst.alpha) * max(res.per_chain_cost)
        assert obj == pytest.approx(want)

    def test_refinement_improves_ma_tours(self):
        inst = random_tiny_instance(8)
        rm = build_roadmap(inst)
        ma = run(rm, MAParams(population_size=30, max_generations=40,
                              stagnation_limit=15, seed=8))
        chains = build_chain(ma.best, rm)
        res = refine(chains, list(inst.vehicles))
        obj = refined_objective(res, ma.best, inst.alpha, inst.n_vehicles)
        assert obj <= ma.best_cost + 1e-9


class TestRefineBudget:
    def test_spent_budget_returns_input_chains_costed_once(self, pruning_example, monkeypatch):
        inst, rm, chrom = pruning_example
        chains = build_chain(decode(chrom, rm), rm)
        costed = []
        real_cost = refine_mod.chain_cost

        def counted_cost(chain, veh, metric):
            costed.append(chain.vehicle_id)
            return real_cost(chain, veh, metric)

        def no_search(*args):
            raise AssertionError("a spent budget must not search")

        monkeypatch.setattr(refine_mod, "chain_cost", counted_cost)
        monkeypatch.setattr(refine_mod, "_optimize_state", no_search)
        res = refine(chains, list(inst.vehicles), time_limit_s=0.0)
        assert costed == [c.vehicle_id for c in chains]
        assert [c.states for c in res.chains] == [c.states for c in chains]
        specs = {v.id: v for v in inst.vehicles}
        want = [real_cost(c, specs[c.vehicle_id], "length") for c in chains]
        assert res.per_chain_cost == want
        assert res.cost_trace == [sum(want)]
        assert (res.sweeps, res.stop_reason) == (0, "time_limit")

    def test_cut_keeps_every_finished_half_sweep(self, pruning_example, monkeypatch):
        # unbounded, this refinement converges after 9 sweeps; each slowed state
        # search makes a half-sweep (at most 5 states) take 0.1 s or more
        inst, rm, chrom = pruning_example
        chains = build_chain(decode(chrom, rm), rm)
        params = RefineParams(max_sweeps=20)
        full = refine(chains, list(inst.vehicles), params)
        delay, budget = 0.02, 0.25
        real_opt = refine_mod._optimize_state
        spent = []

        def slow(*args):
            t = time.monotonic()
            time.sleep(delay)
            real_opt(*args)
            spent.append(time.monotonic() - t)

        monkeypatch.setattr(refine_mod, "_optimize_state", slow)
        t0 = time.monotonic()
        res = refine(chains, list(inst.vehicles), params, time_limit_s=budget)
        elapsed = time.monotonic() - t0
        assert res.stop_reason == "time_limit"
        half_sweeps = len(res.cost_trace) - 1
        assert 1 <= half_sweeps < len(full.cost_trace) - 1
        assert res.cost_trace == full.cost_trace[:half_sweeps + 1]
        assert sum(res.per_chain_cost) == res.cost_trace[-1]
        assert res.sweeps == (half_sweeps + 1) // 2
        longest_half_sweep = 5 * max(spent)
        assert elapsed <= budget + longest_half_sweep + 0.05


BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def benchmark_files():
    return {path: path.read_bytes() for path in BENCHMARK.rglob("*") if path.is_file()}


@pytest.mark.parametrize("ranges", [[150.0, 100.0], [100.0, 150.0]], ids=["150-100", "100-150"])
def test_multi_range_documents_pass_the_checker(ranges, monkeypatch):
    """With one range per vehicle, each vehicle's refined states stay in its
    own service disks, and the benchmark's checker accepts a refined bays29
    document and a tiny oracle document, the latter with the MILP check.
    The checker is imported without writing bytecode; no benchmark file changes."""
    before = benchmark_files()
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARK))
    check = importlib.import_module("check")

    inst = build_instance(n_vehicles=2, samples_per_cluster=3, velocity=[50.0, 70.0],
                          sensing_range=ranges, seed=3)
    rm = build_roadmap(inst)
    best = run(rm, MAParams(max_generations=3, seed=3)).best
    res = refine(build_chain(best, rm), list(inst.vehicles))
    tasks = {t.id: t for t in inst.tasks}
    for chain in res.chains:
        veh = inst.vehicles[chain.vehicle_id - 1]
        for state in chain.states[1:-1]:
            disk = service_disk(tasks[state.cluster], veh)
            assert math.dist((state.config.x, state.config.y), disk.center) \
                <= disk.radius + 1e-6
    objective = refined_objective(res, best, inst.alpha, inst.n_vehicles)
    doc = cli.tour_document(inst, rm, best, "MA-NIN-PR", objective, res)
    check.check_document(check.Problem(inst), doc, best.objective)

    centers = [(180.0, 320.0), (240.0, 950.0), (620.0, 260.0), (560.0, 880.0),
               (1050.0, 330.0), (980.0, 920.0)]
    tiny = build_instance(centers, n_vehicles=2, samples_per_cluster=2, velocity=50.0,
                          depots=[(0.0, 0.0), (1200.0, 1200.0)], sensing_range=ranges, seed=7)
    tiny_rm = build_roadmap(tiny)
    oracle = exact.solve_bruteforce(tiny_rm)
    oracle_doc = cli.tour_document(tiny, tiny_rm, oracle, "ORACLE", oracle.objective)
    check.check_document(check.Problem(tiny), oracle_doc, oracle.objective, tiny_rm)
    assert benchmark_files() == before


# bays29's first eight tasks, one vehicle, refined with every scipy module blocked
WITHOUT_SCIPY = """
import random, sys
sys.modules["scipy"] = None  # any later "import scipy..." raises ImportError
import ghmdatsp, ghmdatsp.cli
from ghmdatsp import build_instance, builtin_task_centers, build_roadmap
from ghmdatsp.memetic import decode, random_chromosome
from ghmdatsp.refine import RefineParams, build_chain, refine
inst = build_instance(builtin_task_centers()[:8], samples_per_cluster=2, velocity=50.0, seed=1)
rm = build_roadmap(inst)
chains = build_chain(decode(random_chromosome(rm, random.Random(1)), rm), rm)
res = refine(chains, list(inst.vehicles), RefineParams(max_sweeps=2))
assert res.cost_trace[-1] < res.cost_trace[0], res.cost_trace
"""


def test_package_and_refinement_run_without_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
