import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghmdatsp.instance import (_INSTANCE_KEYS, _TASK_KEYS, _VEHICLE_KEYS, DEFAULT_DEPOTS,
                               Instance, InstanceError, TsplibError, build_instance,
                               builtin_task_centers, load_tsplib, turn_radius)


class TestTurnRadius:
    @pytest.mark.parametrize("velocity,expected", [(70, 129.1), (50, 65.9), (60, 94.8)])
    def test_published_pairs(self, velocity, expected):
        assert turn_radius(velocity, 4.0, 9.80) == pytest.approx(expected, abs=0.05)

    def test_rejects_unit_load_factor(self):
        with pytest.raises(InstanceError):
            turn_radius(50, 1.0)

    @given(v=st.floats(min_value=1, max_value=300), dv=st.floats(min_value=0.01, max_value=50))
    @settings(max_examples=50)
    def test_monotone_in_velocity(self, v, dv):
        assert turn_radius(v + dv, 4.0) > turn_radius(v, 4.0)

    @given(l=st.floats(min_value=1.01, max_value=20), dl=st.floats(min_value=0.01, max_value=5))
    @settings(max_examples=50)
    def test_monotone_in_load_factor(self, l, dl):
        assert turn_radius(50, l + dl) < turn_radius(50, l)


class TestTsplib:
    def test_bundled_point_set(self):
        pts = builtin_task_centers("bays29")
        assert len(pts) == 29
        assert pts[0] == (1150.0, 1760.0)

    def test_empty_section_with_zero_dimension(self):
        assert load_tsplib("DIMENSION: 0\nNODE_COORD_SECTION\nEOF\n") == []

    def test_dimension_mismatch(self):
        text = "DIMENSION: 3\nNODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n"
        with pytest.raises(TsplibError, match="DIMENSION says 3 but found 2"):
            load_tsplib(text)

    def test_malformed_row_reports_line_number(self):
        text = "DIMENSION: 2\nNODE_COORD_SECTION\n1 0 0\n2 oops 1\nEOF\n"
        with pytest.raises(TsplibError, match="line 4"):
            load_tsplib(text)

    def test_short_row_reports_line_number(self):
        text = "DIMENSION: 1\nNODE_COORD_SECTION\n1 5\n"
        with pytest.raises(TsplibError, match="line 3"):
            load_tsplib(text)

    def test_missing_dimension(self):
        with pytest.raises(TsplibError, match="DIMENSION"):
            load_tsplib("NODE_COORD_SECTION\n1 0 0\n")


class TestBuildInstance:
    def test_cluster_count_for_four_vehicles(self):
        inst = build_instance(n_vehicles=4)
        assert inst.n_tasks == 29
        assert inst.n_tasks + 2 * inst.n_vehicles == 37

    def test_default_single_vehicle_depot(self):
        inst = build_instance()
        assert inst.n_vehicles == 1
        assert inst.vehicles[0].depot == DEFAULT_DEPOTS[0]
        assert inst.vehicles[0].terminal == inst.vehicles[0].depot

    def test_depots_taken_in_order(self):
        inst = build_instance(n_vehicles=4)
        assert tuple(v.depot for v in inst.vehicles) == DEFAULT_DEPOTS

    @pytest.mark.parametrize("n_vehicles,depots", [
        (3, [(0.0, 0.0)]), (1, [(0.0, 0.0), (900.0, 0.0)]),
    ], ids=["too-few", "too-many"])
    def test_depot_count_must_match_vehicles(self, n_vehicles, depots):
        with pytest.raises(InstanceError, match=f"depots: expected {n_vehicles} values, "
                                                f"got {len(depots)}"):
            build_instance([(500.0, 0.0)], n_vehicles=n_vehicles, depots=depots)

    @pytest.mark.parametrize("n_vehicles", [0, -1])
    def test_vehicle_count_must_be_positive(self, n_vehicles):
        with pytest.raises(InstanceError, match="at least one vehicle is required"):
            build_instance([(500.0, 0.0)], n_vehicles=n_vehicles)

    def test_same_seed_identical(self):
        a = build_instance(n_vehicles=2, seed=42)
        b = build_instance(n_vehicles=2, seed=42)
        assert a == b

    def test_vehicle_r_min_invariant(self):
        inst = build_instance(n_vehicles=3, velocity=[50, 60, 70])
        for v in inst.vehicles:
            expect = v.velocity ** 2 / (v.gravity * math.sqrt(v.load_factor ** 2 - 1))
            assert v.r_min == pytest.approx(expect, rel=1e-9)

    def test_validation_lists_every_violation(self):
        with pytest.raises(InstanceError) as err:
            build_instance([(0.0, 0.0)], alpha=2.0, samples_per_cluster=0)
        msg = str(err.value)
        assert "alpha" in msg and "samples_per_cluster" in msg

    def test_replaced_field_is_checked(self):
        with pytest.raises(InstanceError, match="alpha"):
            dataclasses.replace(build_instance(), alpha=2.0)

    def test_json_roundtrip_is_byte_stable(self):
        inst = build_instance(n_vehicles=2, samples_per_cluster=3, seed=9)
        text = inst.to_json()
        again = Instance.from_json(text)
        assert again == inst
        assert again.to_json() == text

    def test_time_metric_accepted(self):
        inst = build_instance(cost_metric="time")
        assert inst.cost_metric == "time"
        with pytest.raises(InstanceError):
            build_instance(cost_metric="fuel")


THREE_TASKS = [(0.0, 0.0), (400.0, 0.0), (0.0, 400.0)]
NON_FINITE_FIELDS = ["velocity", "load_factor", "gravity", "sensing_range", "task_radius",
                     "task_center", "depot", "terminal"]


def _build_with(field, bad):
    centers, kw = list(THREE_TASKS), {"depots": [(200.0, 200.0)]}
    if field == "task_center":
        centers[1] = (bad, 0.0)
    elif field == "depot":
        kw["depots"] = [(200.0, bad)]
    elif field in ("velocity", "sensing_range"):
        kw[field] = bad
    else:  # build_instance fixes these; replace them in the instance it builds
        inst = build_instance(centers, **kw)
        if field == "task_radius":
            task = dataclasses.replace(inst.tasks[1], radius=bad)
            return dataclasses.replace(inst, tasks=(inst.tasks[0], task, inst.tasks[2]))
        value = (200.0, bad) if field == "terminal" else bad
        return dataclasses.replace(inst, vehicles=(
            dataclasses.replace(inst.vehicles[0], **{field: value}),))
    return build_instance(centers, **kw)


def _from_json_with(field, bad):
    doc = json.loads(build_instance(THREE_TASKS, depots=[(200.0, 200.0)]).to_json())
    task, veh = doc["tasks"][1], doc["vehicles"][0]
    if field == "task_radius":
        task["radius"] = bad
    elif field == "task_center":
        task["center"] = [bad, 0.0]
    elif field in ("depot", "terminal"):
        veh[field] = [200.0, bad]
    else:
        veh[field] = bad
    return Instance.from_json(json.dumps(doc))


@pytest.mark.parametrize("entry", [_build_with, _from_json_with],
                         ids=["build_instance", "from_json"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", NON_FINITE_FIELDS)
def test_non_finite_value_rejected(entry, bad, field):
    with pytest.raises(InstanceError, match="finite"):
        entry(field, bad)


@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "instance must be a JSON object, got list"),
    ('{"tasks": []}', "instance: missing key 'vehicles'"),
], ids=["not-an-object", "missing-keys"])
def test_malformed_document_rejected(text, message):
    with pytest.raises(InstanceError, match=message):
        Instance.from_json(text)


@pytest.mark.parametrize("bad", ["fast", True, [50.0]], ids=["string", "bool", "list"])
def test_wrong_typed_value_rejected(bad):
    with pytest.raises(InstanceError, match="vehicles\\[0\\]: 'velocity' expects number"):
        _from_json_with("velocity", bad)


@pytest.mark.parametrize("where,key,known", [
    ("instance", "vehicle", _INSTANCE_KEYS),
    ("tasks[1]", "centre", _TASK_KEYS),
    ("vehicles[0]", "speed", _VEHICLE_KEYS),
    ("vehicles[0]", "r_min", _VEHICLE_KEYS),
], ids=["top-level", "task", "vehicle", "derived-r_min"])
def test_unknown_key_rejected(where, key, known):
    doc = json.loads(build_instance(THREE_TASKS, depots=[(200.0, 200.0)]).to_json())
    entries = {"instance": doc, "tasks[1]": doc["tasks"][1], "vehicles[0]": doc["vehicles"][0]}
    entries[where][key] = 1.0
    with pytest.raises(InstanceError) as err:
        Instance.from_json(json.dumps(doc))
    assert str(err.value) == f"{where}: unknown key {key!r}, known keys are {', '.join(known)}"
