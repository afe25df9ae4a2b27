import itertools
import math

import pytest

from ghmdatsp.exact import (MalformedSolutionError, RelaxedSolution, SizeLimitError,
                            cut_rows_text, enumeration_size, export_milp, find_subtours,
                            solve_bruteforce, subtour_cut_rows)
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
        nins = [v for v in model.binaries if v.startswith("ynin_")]
        assert len(ys) == 4          # depot, terminal, two task nodes
        assert len(xs) == 7          # d->t1, d->t2, d->T, t1<->t2, t1->T, t2->T
        assert nins == []
        assert model.continuous == ["z"]

    def test_alpha_one_zeroes_z_coefficient(self, no_nin_pair):
        _, rm = no_nin_pair
        model = export_milp(rm, alpha=1.0)
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
        y_nin = {(t, s): (1 if y[s] else 0) for t, nodes in rm.nin_task_to_nodes.items()
                 for s in nodes}
        return RelaxedSolution(y, x, y_nin), (n2, n3)

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

    def test_nin_covered_task_not_reported(self):
        """A task crossed by a visited node drops out of the unvisited set."""
        inst = build_instance([(800.0, 0.0), (840.0, 30.0)], n_vehicles=1,
                              samples_per_cluster=1, velocity=50,
                              depots=[(0.0, 0.0)], seed=29)
        rm = build_roadmap(inst)
        crossing = [s for s in rm.nodes if rm.nin_node_to_tasks[s.id]]
        if not crossing:
            pytest.skip("seeded sample produced no crossing; geometry fixtures cover this")
        node = crossing[0]
        depot = rm.node(1, DEPOT, 1).id
        term = rm.node(1, TERMINAL, 1).id
        y = {s.id: 0 for s in rm.nodes}
        for nid in (depot, term, node.id):
            y[nid] = 1
        x = {(depot, node.id): 1, (node.id, term): 1}
        y_nin = {(t, s): (1 if y[s] else 0) for t, nodes in rm.nin_task_to_nodes.items()
                 for s in nodes}
        assert find_subtours(RelaxedSolution(y, x, y_nin), rm) == []

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
        text = cut_rows_text(rows)
        assert text.count(">=") == len(rows)
        for _name, coeffs, sense, rhs in rows:
            assert sense == ">=" and rhs == 0.0
            assert any(v.startswith("y_") and c == -2.0 for v, c in coeffs.items())


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
        visited = [rm.node_by_id[n].cluster for tour in opt.tours for n in tour[1:-1]]
        assert len(visited) < rm.n_tasks  # at least one task served by crossing

    def test_leaf_guard_raises(self):
        inst = build_instance(n_vehicles=4, samples_per_cluster=5, seed=2)
        rm = build_roadmap(inst)
        with pytest.raises(SizeLimitError):
            solve_bruteforce(rm)

    def test_two_depot_nodes_raise_value_error(self):
        inst = build_instance([(500.0, 0.0)], n_vehicles=1, samples_per_cluster=1,
                              velocity=50, depots=[(0.0, 0.0)], seed=2)
        nodes = [
            SampleNode(0, 1, DEPOT, 1, Config(0.0, 0.0, 0.0)),
            SampleNode(1, 1, DEPOT, 2, Config(0.0, 0.0, 1.0)),
            SampleNode(2, 1, TERMINAL, 1, Config(0.0, 0.0, 0.0)),
            SampleNode(3, 1, 1, 1, Config(500.0, 0.0, 0.0)),
        ]
        rm = manual_roadmap(inst, nodes, with_nin=False)
        with pytest.raises(ValueError, match="vehicle 1: depot cluster holds 2 nodes"):
            solve_bruteforce(rm)

    def test_enumeration_size_formula(self):
        # n tasks into m ordered lists with s samples each, plus skip option
        assert enumeration_size(1, 1, 1) == 2          # skip or visit
        assert enumeration_size(2, 1, 1) == 1 + 2 + 2  # {}, {1}, {2}, {1,2} in 2 orders
        got = enumeration_size(3, 2, 2)
        brute = 0
        for j in range(4):
            brute += (math.comb(3, j) * math.factorial(j) * math.comb(j + 1, 1) * 2 ** j)
        assert got == brute

    def test_oracle_below_memetic_on_tiny_instances(self):
        for key in (1, 4):
            inst = random_tiny_instance(key)
            rm = build_roadmap(inst)
            opt = solve_bruteforce(rm)
            res = run(rm, MAParams(population_size=40, max_generations=60,
                                   stagnation_limit=20, seed=key))
            assert res.best_cost >= opt.objective - 1e-9
