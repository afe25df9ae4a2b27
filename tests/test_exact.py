import dataclasses
import itertools
import math
import random

import pytest

from ghmdatsp.exact import (MalformedSolutionError, MilpModel, RelaxedSolution,
                            SizeLimitError, export_milp, find_subtours, solve_bruteforce,
                            subtour_cut_rows)
from ghmdatsp.geometry import Config
from ghmdatsp.instance import build_instance
from ghmdatsp.memetic import MAParams, run
from ghmdatsp.roadmap import DEPOT, TERMINAL, SampleNode, build_roadmap

from conftest import coverage_ok, manual_roadmap, random_tiny_instance


@pytest.fixture(scope="module")
def no_nin_pair():
    """n=2, m=1, one sample, tasks far apart so no crossings exist."""
    inst = build_instance([(1000.0, 0.0), (0.0, 1000.0)], n_vehicles=1,
                          samples_per_cluster=1, velocity=50,
                          depots=[(0.0, 0.0)], seed=17)
    return inst, build_roadmap(inst)


class TestExportMilp:
    def test_variable_counts_on_minimal_instance(self, no_nin_pair):
        _, rm = no_nin_pair
        model = export_milp(rm)
        ys = [v for v in model.binaries if v.startswith("y_")]
        xs = [v for v in model.binaries if v.startswith("x_")]
        assert len(ys) == 4          # depot, terminal, two task nodes
        assert len(xs) == 7          # d->t1, d->t2, d->T, t1<->t2, t1->T, t2->T
        assert len(model.binaries) == len(ys) + len(xs)
        assert model.continuous == ["z"]

    def test_alpha_one_zeroes_z_coefficient(self, no_nin_pair):
        inst, _ = no_nin_pair
        model = export_milp(build_roadmap(dataclasses.replace(inst, alpha=1.0)))
        assert model.objective["z"] == 0.0

    def test_lp_text_shape(self, no_nin_pair):
        _, rm = no_nin_pair
        text = export_milp(rm).to_lp_text()
        assert text.startswith("Minimize")
        for section in ("Subject To", "Bounds", "Binaries", "End"):
            assert section in text

    def test_oracle_solution_satisfies_every_row(self):
        for key in (0, 3, 7):
            inst = random_tiny_instance(key)
            rm = build_roadmap(inst)
            opt = solve_bruteforce(rm)
            model = export_milp(rm)
            sol = RelaxedSolution.from_tourset(opt, rm)
            values = sol.as_var_values(rm, z=max(opt.per_vehicle_cost))
            assert model.check_assignment(values) == []
            assert model.objective_value(values) == pytest.approx(opt.objective, rel=1e-9)
            assert find_subtours(sol, rm) == []

    def test_cover_rows_read_own_and_crossing_nodes(self):
        """Each cover row holds the task's own y variables and those of every
        node whose crossing set contains the task, and nothing else."""
        inst = build_instance(n_vehicles=2, samples_per_cluster=3, velocity=50,
                              task_centers=[(200.0 * i, 200.0 + 90.0 * (i % 3))
                                            for i in range(1, 8)],
                              depots=[(0.0, 0.0), (1600.0, 800.0)], seed=21)
        rm = build_roadmap(inst)
        rows = {name: coeffs for name, coeffs, _, _ in export_milp(rm).constraints}
        assert any(rm.nin_node_to_tasks.values())
        for task in inst.tasks:
            want = {f"y_{s.id}" for s in rm.nodes
                    if s.cluster == task.id or task.id in rm.nin_node_to_tasks[s.id]}
            assert rows[f"cover_t{task.id}"] == dict.fromkeys(want, 1.0)

    def test_objective_linearization_identity(self):
        inst = random_tiny_instance(5)
        rm = build_roadmap(inst)
        opt = solve_bruteforce(rm)
        model = export_milp(rm)
        values = RelaxedSolution.from_tourset(opt, rm).as_var_values(
            rm, z=max(opt.per_vehicle_cost))
        alpha = inst.alpha
        want = alpha * sum(opt.per_vehicle_cost) / inst.n_vehicles \
            + (1 - alpha) * max(opt.per_vehicle_cost)
        assert model.objective_value(values) == pytest.approx(want, rel=1e-12)


class TestFindSubtours:
    def test_valid_solution_yields_empty(self, no_nin_pair):
        _, rm = no_nin_pair
        opt = solve_bruteforce(rm)
        assert find_subtours(RelaxedSolution.from_tourset(opt, rm), rm) == []

    def _planted(self, rm):
        """Vehicle walk covering task 1 only, plus a 2-cycle over tasks 2, 3."""
        depot = rm.node(1, DEPOT, 1).id
        term = rm.node(1, TERMINAL, 1).id
        n1 = rm.node(1, 1, 1).id
        n2 = rm.node(1, 2, 1).id
        n3 = rm.node(1, 3, 1).id
        y = {s.id: 0 for s in rm.nodes}
        for nid in (depot, term, n1, n2, n3):
            y[nid] = 1
        x = {(depot, n1): 1, (n1, term): 1, (n2, n3): 1, (n3, n2): 1}
        return RelaxedSolution(y, x), (n2, n3)

    @pytest.fixture()
    def triangle(self):
        inst = build_instance([(900.0, 0.0), (0.0, 900.0), (900.0, 900.0)],
                              n_vehicles=1, samples_per_cluster=1, velocity=50,
                              depots=[(0.0, 0.0)], seed=23)
        return build_roadmap(inst)

    def test_planted_cycle_is_reported(self, triangle):
        sol, cycle = self._planted(triangle)
        found = find_subtours(sol, triangle)
        assert len(found) == 1
        assert set(found[0]) == set(cycle)

    def test_superfluous_cycle_is_reported(self, pruning_example):
        """A cycle off the walks is reported even when the walks already cover
        its tasks: separation checks connectivity, and coverage is left to the
        ``cover_t`` rows."""
        _, rm, _ = pruning_example
        n1, n4 = rm.node(1, 1, 1).id, rm.node(2, 4, 1).id
        assert (n1, n4) == (2, 12)
        assert rm.nin_node_to_tasks[n1] == {2, 3} and rm.nin_node_to_tasks[n4] == {5}
        y = {s.id: 0 for s in rm.nodes}
        x = {}
        for veh, nid in ((1, n1), (2, n4)):
            depot, term = rm.node(veh, DEPOT, 1).id, rm.node(veh, TERMINAL, 1).id
            for s in (depot, nid, term):
                y[s] = 1
            x[(depot, nid)] = x[(nid, term)] = 1
        assert find_subtours(RelaxedSolution(y, x), rm) == []
        n2, n3 = rm.node(1, 2, 1).id, rm.node(1, 3, 1).id
        y[n2] = y[n3] = 1
        x[(n2, n3)] = x[(n3, n2)] = 1
        assert find_subtours(RelaxedSolution(y, x), rm) == [(3, 4)]

    def test_cycle_crossing_an_uncovered_task_is_reported(self, pruning_example):
        """A cycle whose own tasks the walks cover, and whose node alone
        crosses the one task no walk covers, is still reported: the uncut
        model accepts this candidate, so only separation can reject it."""
        _, rm, _ = pruning_example
        n3, n4 = rm.node(1, 3, 1).id, rm.node(2, 4, 1).id
        c2, c5 = rm.node(1, 2, 1).id, rm.node(1, 5, 1).id
        assert (n3, n4, c2, c5) == (4, 12, 3, 6)
        assert rm.nin_node_to_tasks[n3] == {2} and rm.nin_node_to_tasks[n4] == {5}
        assert rm.nin_node_to_tasks[c2] == {1} and rm.nin_node_to_tasks[c5] == {4}
        y = {s.id: 0 for s in rm.nodes}
        x = {}
        for veh, nid in ((1, n3), (2, n4)):  # the walks cover tasks 2, 3, 4 and 5
            depot, term = rm.node(veh, DEPOT, 1).id, rm.node(veh, TERMINAL, 1).id
            for s in (depot, nid, term):
                y[s] = 1
            x[(depot, nid)] = x[(nid, term)] = 1
        y[c2] = y[c5] = 1
        x[(c2, c5)] = x[(c5, c2)] = 1
        sol = RelaxedSolution(y, x)
        assert export_milp(rm).check_assignment(sol.as_var_values(rm, z=1e9)) == []
        assert find_subtours(sol, rm) == [(c2, c5)]

    def test_degree_violation_detected(self, triangle):
        sol, _ = self._planted(triangle)
        sol.x[(triangle.node(1, 2, 1).id, triangle.node(1, 3, 1).id)] = 0
        del sol.x[(triangle.node(1, 2, 1).id, triangle.node(1, 3, 1).id)]
        with pytest.raises(MalformedSolutionError):
            find_subtours(sol, triangle)

    def test_cut_rows_reference_cycle_edges(self, triangle):
        sol, cycle = self._planted(triangle)
        found = find_subtours(sol, triangle)
        rows = subtour_cut_rows(found, triangle)
        assert len(rows) == len(cycle)
        for _name, coeffs, sense, rhs in rows:
            assert sense == ">=" and rhs == 0.0
            assert any(v.startswith("y_") and c == -2.0 for v, c in coeffs.items())

    def test_cut_rows_hold_for_the_oracle_tour(self):
        """Key 0's optimal tour 0-3-5-2-1 enters the cut set {3, 5} at node 3
        and leaves it at node 5, so it meets both of that cycle's rows."""
        rm = build_roadmap(random_tiny_instance(0))
        opt = solve_bruteforce(rm)
        assert opt.tours == ((0, 3, 5, 2, 1),)
        values = RelaxedSolution.from_tourset(opt, rm).as_var_values(
            rm, z=max(opt.per_vehicle_cost))
        rows = subtour_cut_rows([(2, 4), (3, 5)], rm)
        assert len(rows) == 4
        assert MilpModel({}, rows, [], []).check_assignment(values) == []

    def test_cut_rows_match_pairwise_reference(self, triangle, pruning_example):
        """Each member's row holds every permitted edge with exactly one end
        in the cycle's task clusters of its vehicle, found by walking every
        ordered node pair."""
        _, fig4, _ = pruning_example
        cases = [(triangle, [self._planted(triangle)[1]]),
                 (fig4, [tuple(fig4.node(1, t, 1).id for t in (2, 4, 5)),
                         tuple(fig4.node(2, t, 1).id for t in (1, 3))])]
        for rm, cycles in cases:
            want = []
            for cycle in cycles:
                veh = rm.nodes[cycle[0]].vehicle
                local = [s for s in rm.nodes if s.vehicle == veh]
                tasks = {rm.nodes[s].cluster for s in cycle}
                cut = {f"x_{a.id}_{b.id}": 1.0 for a in local for b in local
                       if (a.cluster in tasks) != (b.cluster in tasks)
                       and math.isfinite(rm.edge_cost(veh, a.id, b.id))}
                for s in cycle:
                    want.append((f"cut_{'_'.join(map(str, cycle))}_s{s}",
                                 {**cut, f"y_{s}": -2.0}, ">=", 0.0))
            assert subtour_cut_rows(cycles, rm) == want


class TestBruteForce:
    def test_single_task_tour(self):
        inst = build_instance([(400.0, 100.0)], n_vehicles=1, samples_per_cluster=1,
                              velocity=50, depots=[(0.0, 0.0)], seed=31)
        rm = build_roadmap(inst)
        opt = solve_bruteforce(rm)
        depot = rm.node(1, DEPOT, 1).id
        node = rm.node(1, 1, 1).id
        term = rm.node(1, TERMINAL, 1).id
        assert opt.tours == ((depot, node, term),)
        want = rm.edge_cost(1, depot, node) + rm.edge_cost(1, node, term)
        assert opt.objective == pytest.approx(want, rel=1e-12)

    def test_matches_direct_enumeration_without_crossings(self):
        inst = build_instance([(700.0, 0.0), (0.0, 700.0), (700.0, 700.0)],
                              n_vehicles=1, samples_per_cluster=2, velocity=50,
                              depots=[(0.0, 0.0)], seed=37, nin_enabled=False)
        rm = build_roadmap(inst)
        opt = solve_bruteforce(rm)
        depot = rm.node(1, DEPOT, 1).id
        term = rm.node(1, TERMINAL, 1).id
        best = math.inf
        for order in itertools.permutations([1, 2, 3]):
            for picks in itertools.product([1, 2], repeat=3):
                tour = [depot] + [rm.node(1, t, i).id for t, i in zip(order, picks)] + [term]
                best = min(best, rm.tour_cost(1, tour))
        assert opt.objective == pytest.approx(best, rel=1e-12)

    def test_crossing_makes_single_visit_optimal(self, pruning_example):
        """Task chains where one node crosses a neighbour: the oracle should
        skip the crossed task's node whenever the triangle detour costs more."""
        _, rm, _ = pruning_example
        opt = solve_bruteforce(rm)
        assert coverage_ok(opt, rm)
        visited = [rm.nodes[n].cluster for tour in opt.tours for n in tour[1:-1]]
        assert len(visited) < rm.n_tasks  # at least one task served by crossing

    def test_leaf_guard_raises(self):
        inst = build_instance(n_vehicles=4, samples_per_cluster=5, seed=2)
        rm = build_roadmap(inst)
        with pytest.raises(SizeLimitError):
            solve_bruteforce(rm)

    def test_guard_refuses_four_vehicles_with_eighteen_samples(self):
        """Four tasks: 73^4 assignments and 2.5e6 path states, over both limits."""
        g = random.Random(4)
        centers = [(g.uniform(0, 1200), g.uniform(0, 1200)) for _ in range(4)]
        inst = build_instance(centers, n_vehicles=4, samples_per_cluster=18, velocity=50, seed=4)
        with pytest.raises(SizeLimitError, match="2.84e\\+07 assignments"):
            solve_bruteforce(build_roadmap(inst))

    def test_guard_refuses_counts_beyond_float_range(self):
        """180 one-sample tasks: counts past the float range are still a refusal."""
        centers = [(40.0 * (i % 15), 40.0 * (i // 15)) for i in range(180)]
        rm = build_roadmap(build_instance(centers, n_vehicles=1, samples_per_cluster=1))
        with pytest.raises(SizeLimitError):
            solve_bruteforce(rm)

    def test_twelve_city_grid_solves(self):
        """One vehicle and one sample per task: 4096 assignments, within the limits."""
        centers = [(x, y) for x in (300.0, 700.0, 1100.0, 1500.0) for y in (300.0, 700.0, 1100.0)]
        rm = build_roadmap(build_instance(centers, n_vehicles=1, samples_per_cluster=1))
        opt = solve_bruteforce(rm)
        assert coverage_ok(opt, rm)

    def test_two_depot_nodes_raise_value_error(self):
        inst = build_instance([(500.0, 0.0)], n_vehicles=1, samples_per_cluster=1,
                              velocity=50, depots=[(0.0, 0.0)], seed=2)
        nodes = [
            SampleNode(0, 1, DEPOT, 1, Config(0.0, 0.0, 0.0)),
            SampleNode(1, 1, DEPOT, 2, Config(0.0, 0.0, 1.0)),
            SampleNode(2, 1, TERMINAL, 1, Config(0.0, 0.0, 0.0)),
            SampleNode(3, 1, 1, 1, Config(500.0, 0.0, 0.0)),
        ]
        with pytest.raises(ValueError, match="vehicle 1: depot cluster holds 2 nodes"):
            manual_roadmap(inst, nodes)

    def test_oracle_below_memetic_on_tiny_instances(self):
        for key in (1, 4):
            inst = random_tiny_instance(key)
            rm = build_roadmap(inst)
            opt = solve_bruteforce(rm)
            res = run(rm, MAParams(population_size=40, max_generations=60,
                                   stagnation_limit=20, seed=key))
            assert res.best_cost >= opt.objective - 1e-9
