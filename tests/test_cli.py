import json
import time
import types
import xml.etree.ElementTree as ET

import pytest

from ghmdatsp import cli, memetic
from ghmdatsp.cli import (EXIT_OK, EXIT_SOLVE, EXIT_USAGE, evaluate_tour_document,
                          fingerprint, main)
from ghmdatsp.instance import Instance, build_instance

from conftest import random_tiny_instance


@pytest.fixture()
def tiny_file(tmp_path):
    inst = random_tiny_instance(6)
    path = tmp_path / "tiny.json"
    path.write_text(inst.to_json())
    return inst, path


class TestGenerate:
    def test_default_bays29(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["generate", "--out", str(out)]) == EXIT_OK
        inst = Instance.from_json(out.read_text())
        assert inst.n_tasks == 29
        assert inst.n_vehicles == 1
        assert inst.samples_per_cluster == 5
        assert fingerprint(inst) in capsys.readouterr().out

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
        assert evaluate_tour_document(doc, inst) == pytest.approx(doc["objective"], rel=1e-9)

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
        assert evaluate_tour_document(doc, inst) == pytest.approx(doc["objective"], rel=1e-9)
        assert (out.parent / "tour.history.json").exists()

    def test_svg_output_is_valid_and_anchored(self, tiny_file, tmp_path):
        inst, path = tiny_file
        svg_path = tmp_path / "tour.svg"
        main(["solve", str(path), "--method", "oracle", "--svg", str(svg_path)])
        root = ET.fromstring(svg_path.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == inst.n_vehicles
        for veh, poly in zip(inst.vehicles, polylines):
            pts = [tuple(map(float, p.split(","))) for p in poly.get("points").split()]
            assert pts[0][0] == pytest.approx(veh.depot[0], abs=0.02)
            assert -pts[0][1] == pytest.approx(veh.depot[1], abs=0.02)
            assert pts[-1][0] == pytest.approx(veh.terminal[0], abs=0.02)
            assert -pts[-1][1] == pytest.approx(veh.terminal[1], abs=0.02)

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

    def test_refine_without_nin_is_usage_error(self, tiny_file):
        _, path = tiny_file
        assert main(["solve", str(path), "--no-nin", "--refine"]) == EXIT_USAGE

    @pytest.mark.parametrize("method", ["oracle", "milp-export"])
    def test_refine_with_other_method_is_usage_error(self, tiny_file, tmp_path, method, capsys):
        _, path = tiny_file
        out = tmp_path / "out"
        assert main(["solve", str(path), "--method", method, "--refine",
                     "--out", str(out)]) == EXIT_USAGE
        assert "--refine" in capsys.readouterr().err
        assert not out.exists()

    def test_nin_flag_overrides_instance(self, tmp_path, capsys):
        inst = random_tiny_instance(9)
        path = tmp_path / "t.json"
        path.write_text(inst.to_json())
        assert main(["solve", str(path), "--method", "ma", "--no-nin"]) == EXIT_OK
        assert "MA-noNIN" in capsys.readouterr().out


class TestBench:
    def test_empty_config_writes_empty_table(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vehicles": [], "samples": [1], "seeds": [0]}))
        assert main(["bench", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "bench.csv").read_text().strip().splitlines()
        assert len(rows) == 1  # header only

    def test_single_cell_produces_one_row(self, tmp_path):
        inst = random_tiny_instance(2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "vehicles": [1], "samples": [1], "seeds": [0], "methods": ["ORACLE"],
            "velocity": 50}))
        # ORACLE on the default bays29 would blow the leaf budget; use a tiny
        # grid via the tasks baked into the default builder is not possible,
        # so this cell records the failure and the run still succeeds.
        assert main(["bench", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["vehicles"] == "1" and row["method"] == "ORACLE"
        assert (tmp_path / "bench.md").exists()

    def test_failures_recorded_and_run_continues(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "vehicles": [4], "samples": [5], "seeds": [0, 1],
            "methods": ["ORACLE"], "velocity": 50}))
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
