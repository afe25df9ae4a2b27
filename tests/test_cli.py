import json
import math
import re
import time
import types
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from ghmdatsp import cli, memetic
from ghmdatsp import refine as refine_mod
from ghmdatsp.cli import EXIT_OK, EXIT_SOLVE, EXIT_USAGE, fingerprint, main
from ghmdatsp.instance import Instance, build_instance

from conftest import random_tiny_instance


@pytest.fixture()
def tiny_file(tmp_path):
    inst = random_tiny_instance(6)
    path = tmp_path / "tiny.json"
    path.write_text(inst.to_json())
    return inst, path


def _polylines(svg_path):
    """Each polyline of an SVG file as a list of (x, y) points, y-up."""
    root = ET.fromstring(svg_path.read_text())
    return [[(x, -y) for x, y in (map(float, p.split(",")) for p in poly.get("points").split())]
            for poly in root.findall("{http://www.w3.org/2000/svg}polyline")]


def _assert_anchored(veh, pts):
    assert pts[0] == pytest.approx(veh.depot, abs=0.02)
    assert pts[-1] == pytest.approx(veh.terminal, abs=0.02)


class TestGenerate:
    def test_default_bays29(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["generate", "--out", str(out)]) == EXIT_OK
        inst = Instance.from_json(out.read_text())
        assert inst.n_tasks == 29
        assert inst.n_vehicles == 1
        assert inst.samples_per_cluster == 5
        assert fingerprint(inst) in capsys.readouterr().out

    def test_fingerprints_pinned(self):
        # pins the bytes of Instance.to_json, which the fingerprint hashes
        assert fingerprint(build_instance()) == "8045915207ecf73e-seed0"
        fleet = build_instance(n_vehicles=4, velocity=[50.0, 60.0, 70.0, 80.0],
                               samples_per_cluster=10)
        assert fingerprint(fleet) == "549d26c8f9643405-seed0"

    def test_no_options_write_the_default_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["generate", "--out", str(out)]) == EXIT_OK
        assert out.read_text() == build_instance().to_json() + "\n"

    def test_four_vehicles_use_default_depots(self, tmp_path):
        out = tmp_path / "inst.json"
        main(["generate", "--vehicles", "4", "--out", str(out)])
        inst = Instance.from_json(out.read_text())
        assert [v.depot for v in inst.vehicles] == [
            (110.0, 230.0), (1800.0, 2100.0), (200.0, 1500.0), (1700.0, 1000.0)]

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--seed", "5", "--out", str(a)])
        main(["generate", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_tsplib_ingestion(self, tmp_path):
        src = tmp_path / "pts.tsp"
        src.write_text("DIMENSION: 3\nNODE_COORD_SECTION\n1 0 0\n2 100 0\n3 0 100\nEOF\n")
        out = tmp_path / "inst.json"
        assert main(["generate", "--tsplib", str(src), "--out", str(out)]) == EXIT_OK
        assert Instance.from_json(out.read_text()).n_tasks == 3

    def test_conflicting_sources_is_usage_error(self, tmp_path):
        src = tmp_path / "pts.tsp"
        src.write_text("DIMENSION: 1\nNODE_COORD_SECTION\n1 0 0\n")
        rc = main(["generate", "--tsplib", str(src), "--builtin", "bays29",
                   "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("option", [
        ["--samples", "0"], ["--alpha", "2"], ["--vehicles", "5"], ["--velocity", "-1"],
        ["--builtin", "nope"], ["--vehicles", "0"], ["--vehicles", "-1"],
    ], ids=["samples", "alpha", "vehicles", "velocity", "builtin", "no-vehicles",
            "negative-vehicles"])
    def test_bad_option_value_is_usage_error(self, tmp_path, capsys, option):
        out = tmp_path / "x.json"
        assert main(["generate", *option, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        assert not out.exists()


class TestSolve:
    def test_oracle_and_ma_agree_on_tiny_instance(self, tiny_file, tmp_path, capsys):
        inst, path = tiny_file
        ora = tmp_path / "oracle.json"
        seedless = tmp_path / "ma.json"
        assert main(["solve", str(path), "--method", "oracle", "--out", str(ora)]) == EXIT_OK
        assert main(["solve", str(path), "--method", "ma", "--out", str(seedless)]) == EXIT_OK
        oracle_doc = json.loads(ora.read_text())
        ma_doc = json.loads(seedless.read_text())
        assert ma_doc["objective"] == pytest.approx(oracle_doc["objective"], rel=1e-6)

    def test_tour_json_roundtrip(self, tiny_file, tmp_path):
        inst, path = tiny_file
        out = tmp_path / "tour.json"
        main(["solve", str(path), "--method", "oracle", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["instance_fingerprint"] == fingerprint(inst)
        costs = [v["cost"] for v in doc["vehicles"]]
        assert memetic.evaluate(costs, inst.alpha) == pytest.approx(doc["objective"], rel=1e-9)

    def test_refined_tour_json_carries_chain(self, tiny_file, tmp_path):
        _, path = tiny_file
        out = tmp_path / "tour.json"
        assert main(["solve", str(path), "--method", "ma", "--refine",
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["method"] == "MA-NIN-PR"
        refined = [v for v in doc["vehicles"] if "refined_chain" in v]
        assert refined
        for ventry in refined:
            assert ventry["refined_chain"]["refined"] is True
        inst = Instance.from_json(path.read_text())
        costs = [v["cost"] for v in doc["vehicles"]]
        assert memetic.evaluate(costs, inst.alpha) == pytest.approx(doc["objective"], rel=1e-9)
        assert (out.parent / "tour.history.json").exists()

    def test_svg_output_is_valid_and_anchored(self, tiny_file, tmp_path):
        inst, path = tiny_file
        svg_path = tmp_path / "tour.svg"
        main(["solve", str(path), "--method", "oracle", "--svg", str(svg_path)])
        polylines = _polylines(svg_path)
        assert len(polylines) == inst.n_vehicles
        for veh, pts in zip(inst.vehicles, polylines):
            _assert_anchored(veh, pts)

    @pytest.mark.parametrize("idle", [False, True], ids=["tiny", "idle-vehicle"])
    def test_refined_svg_draws_each_chain(self, tiny_file, tmp_path, idle):
        inst, path = tiny_file
        if idle:  # every task sits by depot 1 and alpha = 1, so vehicle 2 stays home
            inst = build_instance([(300, 100), (500, 250), (250, 450), (600, 500)],
                                  n_vehicles=2, samples_per_cluster=2, velocity=50,
                                  alpha=1.0, depots=[(0.0, 0.0), (5000.0, 5000.0)],
                                  sensing_range=150.0, seed=5)
            path.write_text(inst.to_json())
        out, svg_path = tmp_path / "tour.json", tmp_path / "tour.svg"
        assert main(["solve", str(path), "--method", "ma", "--refine", "--out", str(out),
                     "--svg", str(svg_path)]) == EXIT_OK
        doc = json.loads(out.read_text())
        chained = [veh for veh, entry in zip(inst.vehicles, doc["vehicles"])
                   if "refined_chain" in entry]
        assert len(chained) == (1 if idle else inst.n_vehicles)
        polylines = _polylines(svg_path)
        assert len(polylines) == len(chained)
        for veh, pts in zip(chained, polylines):
            _assert_anchored(veh, pts)

    def test_milp_export_writes_model(self, tiny_file, tmp_path):
        _, path = tiny_file
        out = tmp_path / "model.lp"
        assert main(["solve", str(path), "--method", "milp-export",
                     "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text.startswith("Minimize") and text.rstrip().endswith("End")

    def test_oracle_size_guard_is_solve_error(self, tmp_path):
        inst = build_instance(n_vehicles=2, samples_per_cluster=5, seed=1)
        path = tmp_path / "big.json"
        path.write_text(inst.to_json())
        assert main(["solve", str(path), "--method", "oracle"]) == EXIT_SOLVE

    def test_missing_instance_is_solve_error(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == EXIT_SOLVE

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"tasks": []}',
        json.dumps({**json.loads(random_tiny_instance(0).to_json()),
                    "vehicles": [{"id": 1, "velocity": "fast", "load_factor": 4.0,
                                  "depot": [0.0, 0.0], "terminal": [0.0, 0.0],
                                  "sensing_range": 150.0}]}),
        json.dumps({**json.loads(random_tiny_instance(0).to_json()), "vehicle": []}),
    ], ids=["not-an-object", "missing-keys", "string-velocity", "unknown-key"])
    def test_malformed_instance_is_solve_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["solve", str(path)]) == EXIT_SOLVE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("solve error: ")

    def test_refine_without_nin_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nonin.json"
        path.write_text(random_tiny_instance(6, nin=False).to_json())
        assert main(["solve", str(path), "--refine"]) == EXIT_USAGE
        assert "generate --nin" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--nin", "--no-nin"])
    def test_solve_has_no_crossing_switch(self, tiny_file, flag):
        # the instance file's nin_enabled is the one crossing switch
        _, path = tiny_file
        assert main(["solve", str(path), flag]) == EXIT_USAGE

    @pytest.mark.parametrize("method", ["oracle", "milp-export"])
    def test_refine_with_other_method_is_usage_error(self, tiny_file, tmp_path, method, capsys):
        _, path = tiny_file
        out = tmp_path / "out"
        assert main(["solve", str(path), "--method", method, "--refine",
                     "--out", str(out)]) == EXIT_USAGE
        assert "--refine" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method,option", [
        ("oracle", ["--seed", "0"]), ("oracle", ["--time-limit", "5"]),
        ("milp-export", ["--seed", "3"]), ("milp-export", ["--time-limit", "5"]),
        ("milp-export", ["--svg", "x.svg"]),
    ], ids=["oracle-seed", "oracle-time-limit", "milp-seed", "milp-time-limit", "milp-svg"])
    def test_option_the_method_ignores_is_usage_error(self, tiny_file, tmp_path, capsys,
                                                      method, option):
        _, path = tiny_file
        out = tmp_path / "out"
        assert main(["solve", str(path), "--method", method, *option,
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        assert option[0] in err[0] and method in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("limit", ["nan", "-1"])
    def test_bad_time_limit_is_usage_error(self, tiny_file, limit, capsys):
        # NaN would silently mean no limit; a negative one stops the search
        # before its first generation
        _, path = tiny_file
        assert main(["solve", str(path), "--time-limit", limit]) == EXIT_USAGE
        assert "--time-limit" in capsys.readouterr().err

    def test_crossings_off_instance_solves_as_nonin(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(random_tiny_instance(9, nin=False).to_json())
        assert main(["solve", str(path), "--method", "ma"]) == EXIT_OK
        assert "MA-noNIN" in capsys.readouterr().out

    def test_ma_wall_time_includes_roadmap_build(self, tiny_file, monkeypatch, capsys):
        # the sleep dwarfs a 0.01 s search, so a wall= that left out set-up
        # would read far below it
        delay = 1.0
        real_build = cli.build_roadmap

        def slow_build(inst):
            time.sleep(delay)
            return real_build(inst)

        monkeypatch.setattr(cli, "build_roadmap", slow_build)
        _, path = tiny_file
        assert main(["solve", str(path), "--method", "ma", "--time-limit", "0.01"]) == EXIT_OK
        wall = re.search(r"wall=([0-9.]+)s", capsys.readouterr().out)
        assert float(wall.group(1)) >= delay

    def test_roadmap_build_counts_against_time_limit(self, tiny_file, tmp_path, monkeypatch):
        # the build alone outlasts the budget, so no time is left for a generation
        limit, delay = 1.0, 1.2
        real_build = cli.build_roadmap

        def slow_build(inst):
            time.sleep(delay)
            return real_build(inst)

        monkeypatch.setattr(cli, "build_roadmap", slow_build)
        _, path = tiny_file
        out = tmp_path / "tour.json"
        assert main(["solve", str(path), "--time-limit", str(limit),
                     "--out", str(out)]) == EXIT_OK
        history = json.loads(out.with_suffix(".history.json").read_text())
        assert history["generations"] == 0
        assert history["termination_reason"] == "time_limit"

    def test_time_limit_bounds_refinement(self, tmp_path, monkeypatch):
        # a two-generation search leaves most of the budget to refinement, and
        # every state search is slowed by a known delay; unbounded, refining
        # this bays29 tour takes many seconds
        limit, delay = 1.5, 0.02
        path, out = tmp_path / "bays29.json", tmp_path / "tour.json"
        path.write_text(build_instance(samples_per_cluster=1, seed=1).to_json())
        real_run = memetic.run
        monkeypatch.setattr(memetic, "run",
                            lambda rm, params: real_run(rm, replace(params, max_generations=2)))
        real_opt = refine_mod._optimize_state
        spent = []

        def slow(*args):
            t = time.monotonic()
            time.sleep(delay)
            real_opt(*args)
            spent.append(time.monotonic() - t)

        monkeypatch.setattr(refine_mod, "_optimize_state", slow)
        t0 = time.monotonic()
        assert main(["solve", str(path), "--refine", "--time-limit", str(limit),
                     "--out", str(out)]) == EXIT_OK
        elapsed = time.monotonic() - t0
        doc = json.loads(out.read_text())
        assert doc["refine_stop_reason"] == "time_limit"
        states = len(doc["vehicles"][0]["refined_chain"]["states"])
        longest_half_sweep = math.ceil(states / 2) * max(spent)
        # the margin covers building the roadmap and writing the documents
        assert elapsed <= limit + longest_half_sweep + 0.5

    def test_binding_budget_leaves_refinement_a_share(self, tmp_path, monkeypatch):
        # unbounded, this search runs for seconds, so a 1.5 s limit binds
        limit = 1.5
        path, out = tmp_path / "bays29.json", tmp_path / "tour.json"
        path.write_text(build_instance(samples_per_cluster=5, seed=1).to_json())
        # one stamp when the population is ready, then one per generation
        stamps = []
        real_stat = memetic.GenerationStat

        def stamped(*args):
            stamps.append(time.monotonic())
            return real_stat(*args)

        monkeypatch.setattr(memetic, "GenerationStat", stamped)
        # one vehicle, so refinement costs one chain before and after each half-sweep
        real_cost = refine_mod.chain_cost
        costed = []

        def timed_cost(*args):
            costed.append(time.monotonic())
            return real_cost(*args)

        monkeypatch.setattr(refine_mod, "chain_cost", timed_cost)
        t0 = time.monotonic()
        assert main(["solve", str(path), "--refine", "--time-limit", str(limit),
                     "--out", str(out)]) == EXIT_OK
        elapsed = time.monotonic() - t0
        half_sweeps = [b - a for a, b in zip(costed, costed[1:])]
        generations = [b - a for a, b in zip(stamps, stamps[1:])]
        assert len(half_sweeps) >= 1, "refinement ran no half-sweep"
        assert generations
        # the margin covers building the roadmap and writing the documents
        assert elapsed <= limit + max(generations) + max(half_sweeps) + 0.5

    @pytest.mark.parametrize("limit", [None, 1.0], ids=["free", "binding"])
    @pytest.mark.parametrize("source", ["bays29", "tiny-0", "tiny-13"])
    def test_refined_document_never_above_search_best(self, tmp_path, monkeypatch, source,
                                                       limit):
        if source == "bays29":
            inst = build_instance(samples_per_cluster=5, seed=1)
            if limit is None:  # a free search on bays29 takes about 10 s; a short one will do
                real_run = memetic.run
                monkeypatch.setattr(memetic, "run", lambda rm, params: real_run(
                    rm, replace(params, max_generations=10)))
        else:
            inst = random_tiny_instance(int(source.split("-")[1]))
        path, out = tmp_path / "inst.json", tmp_path / "tour.json"
        path.write_text(inst.to_json())
        argv = ["solve", str(path), "--refine", "--out", str(out)]
        if limit is not None:
            argv += ["--time-limit", str(limit)]
        assert main(argv) == EXIT_OK
        doc = json.loads(out.read_text())
        history = json.loads((tmp_path / "tour.history.json").read_text())
        assert doc["objective"] <= history["best_cost"]
        if doc["method"] == "MA-NIN":  # refinement dropped: the node tours stand
            assert doc["objective"] == history["best_cost"]
            assert "refine_sweeps" not in doc and doc["refine_dropped"]
        else:
            assert doc["method"] == "MA-NIN-PR" and "refine_dropped" not in doc


class TestBench:
    def test_empty_config_writes_empty_table(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vehicles": [], "samples": [1], "seeds": [0]}))
        assert main(["bench", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "bench.csv").read_text().strip().splitlines()
        assert len(rows) == 1  # header only

    def test_single_cell_produces_one_row(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "vehicles": [5], "samples": [1], "seeds": [0], "methods": ["MA-NIN"],
            "velocity": 50}))
        # bays29 has only 4 default depots, so this cell records its failure
        # and the run still succeeds
        assert main(["bench", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["vehicles"] == "5" and row["method"] == "MA-NIN"
        assert row["failures"] == "1"
        assert (tmp_path / "bench.md").exists()

    @pytest.mark.parametrize("method", ["MA-NIN-RP", "MA-noNIN-PR", "ORACLE"])
    def test_unknown_method_is_usage_error(self, tmp_path, monkeypatch, method, capsys):
        def no_cell(inst):
            raise AssertionError("a bench cell ran")

        monkeypatch.setattr(cli, "build_roadmap", no_cell)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vehicles": [1], "samples": [1], "seeds": [0],
                                   "methods": ["MA-NIN", method]}))
        assert main(["bench", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert method in err
        assert all(known in err for known in ("MA-NIN", "MA-noNIN", "MA-NIN-PR"))
        assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("config", [
        [1], {"vehicles": 2}, {"samples": 5}, {"seeds": 0}, {"methods": "MA-NIN"},
        {"vehicles": ["a"]}, {"velocity": "fast"}, {"alpha": [0.5]}, '{"vehicles": [1],',
    ], ids=["not-an-object", "vehicles", "samples", "seeds", "methods",
            "vehicle-kind", "velocity-kind", "alpha-kind", "truncated"])
    def test_malformed_config_is_usage_error(self, tmp_path, monkeypatch, capsys, config):
        def no_cell(inst):
            raise AssertionError("a bench cell ran")

        monkeypatch.setattr(cli, "build_roadmap", no_cell)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        assert main(["bench", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        assert not (tmp_path / "bench.csv").exists()

    def test_unknown_key_is_usage_error(self, tmp_path, monkeypatch, capsys):
        def no_cell(inst):
            raise AssertionError("a bench cell ran")

        monkeypatch.setattr(cli, "build_roadmap", no_cell)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vehicle": [], "seeds": []}))
        assert main(["bench", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        assert "unknown key 'vehicle'" in err[0]
        assert err[0].endswith("known keys are " + ", ".join(cli.BENCH_KEYS))
        assert not (tmp_path / "bench.csv").exists()

    def test_failures_recorded_and_run_continues(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "vehicles": [5], "samples": [5], "seeds": [0, 1],
            "methods": ["MA-NIN"], "velocity": 50}))
        assert main(["bench", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["failures"] == "2"

    def test_wall_time_includes_roadmap_build(self, tmp_path, monkeypatch):
        spent = []
        real_build = cli.build_roadmap

        def slow_build(inst):
            t0 = time.monotonic()
            time.sleep(0.2)
            rm = real_build(inst)
            spent.append(time.monotonic() - t0)
            return rm

        monkeypatch.setattr(cli, "build_roadmap", slow_build)
        monkeypatch.setattr(memetic, "run", lambda rm, params: types.SimpleNamespace(best_cost=1.0))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vehicles": [1], "samples": [1], "seeds": [0],
                                   "methods": ["MA-NIN"]}))
        assert main(["bench", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["failures"] == "0"
        assert len(spent) == 1
        assert float(row["mean_wall_s"]) >= spent[0]
