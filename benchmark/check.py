"""Correctness checks on every solved instance, computed by the benchmark itself.

Path geometry is recomputed here with an independent Dubins solver built
from tangent-circle constructions (not the program's normalized-frame
formulas), and every leg is integrated segment by segment.  Only the MILP
check uses the program: it reads the memetic best as an assignment of the
exported integer program.

``check_solved`` raises :class:`CheckError` at the first failed check; its
``check`` attribute names the group (structure, coverage, cost, path,
objective, milp, refine, oracle, determinism).  ``self_test`` feeds the
checker corrupted copies of a good result and confirms it rejects them.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from ghmdatsp import exact
from ghmdatsp.memetic import TourSet

TWO_PI = 2.0 * math.pi
REL_TOL = 1e-9  # costs and objectives must agree to this relative error
POSE_TOL = 1e-6  # metres and radians, for reconstructed leg endpoints
#: Dense sampling step along a leg, as a fraction of the turn radius.
SAMPLE_FRACTION = 1.0 / 200.0


class CheckError(AssertionError):
    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check


def _require(ok: bool, check: str, message: str) -> None:
    if not ok:
        raise CheckError(check, message)


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _mod2pi(a: float) -> float:
    a = math.fmod(a, TWO_PI)
    return a + TWO_PI if a < 0.0 else a


def blend(costs: list[float], alpha: float) -> float:
    return alpha * sum(costs) / len(costs) + (1.0 - alpha) * max(costs)


def turn_radius(velocity: float, load_factor: float, gravity: float) -> float:
    return velocity * velocity / (gravity * math.sqrt(load_factor * load_factor - 1.0))


# ---------------------------------------------------------------------------
# Dubins paths from tangent circles


def _center(x, y, th, turn, r):
    """Center of the radius-r circle tangent to pose (x, y, th); turn +1 left, -1 right."""
    return x - turn * r * math.sin(th), y + turn * r * math.cos(th)


def _heading_on(cx, cy, px, py, turn):
    """Heading at point p when circling center c in direction ``turn``."""
    return math.atan2(px - cx, -(py - cy)) if turn > 0 else math.atan2(-(px - cx), py - cy)


def dubins(p, q, r):
    """Shortest Dubins path from pose p to pose q: (length, segments).

    Each segment is (turn, length) with turn +1 (left arc), -1 (right arc)
    or 0 (straight).  All tangent constructions between the start and
    goal circles are tried, both third-circle placements for three-arc
    paths included, and the shortest is returned.
    """
    x0, y0, t0 = p
    x1, y1, t1 = q
    best = None
    for s1 in (1, -1):
        c1 = _center(x0, y0, t0, s1, r)
        for s2 in (1, -1):
            c2 = _center(x1, y1, t1, s2, r)
            dx, dy = c2[0] - c1[0], c2[1] - c1[1]
            dist = math.hypot(dx, dy)
            # arc - straight - arc: c2 - c1 = L*u(psi) + (s1 - s2)*r*n(psi),
            # n(psi) = (sin psi, -cos psi)
            off = (s1 - s2) * r
            if dist * dist >= off * off:
                straight = math.sqrt(max(dist * dist - off * off, 0.0))
                if dist < 1e-12:
                    psi = t0
                else:
                    psi = math.atan2(dy, dx) + math.atan2(off, straight)
                a1 = _mod2pi(s1 * (psi - t0))
                a3 = _mod2pi(s2 * (t1 - psi))
                total = r * (a1 + a3) + straight
                if best is None or total < best[0]:
                    best = (total, ((s1, r * a1), (0, straight), (s2, r * a3)))
            # arc - arc - arc through a third circle touching both
            if s1 == s2 and 0.0 < dist <= 4.0 * r:
                h = math.sqrt(max(4.0 * r * r - dist * dist / 4.0, 0.0))
                mx, my = (c1[0] + c2[0]) / 2.0, (c1[1] + c2[1]) / 2.0
                ux, uy = -dy / dist, dx / dist
                for side in (1.0, -1.0):
                    c3 = (mx + side * h * ux, my + side * h * uy)
                    j1 = ((c1[0] + c3[0]) / 2.0, (c1[1] + c3[1]) / 2.0)
                    j2 = ((c2[0] + c3[0]) / 2.0, (c2[1] + c3[1]) / 2.0)
                    psi1 = _heading_on(c1[0], c1[1], j1[0], j1[1], s1)
                    psi2 = _heading_on(c2[0], c2[1], j2[0], j2[1], s2)
                    a1 = _mod2pi(s1 * (psi1 - t0))
                    a2 = _mod2pi(-s1 * (psi2 - psi1))
                    a3 = _mod2pi(s2 * (t1 - psi2))
                    total = r * (a1 + a2 + a3)
                    if best is None or total < best[0]:
                        best = (total, ((s1, r * a1), (-s1, r * a2), (s2, r * a3)))
    return best


def _advance(pose, turn, length, r):
    x, y, th = pose
    if turn == 0:
        return x + length * math.cos(th), y + length * math.sin(th), th
    cx, cy = _center(x, y, th, turn, r)
    th2 = th + turn * length / r
    return cx + turn * r * math.sin(th2), cy - turn * r * math.cos(th2), th2


def walk(p, segments, r, step=None):
    """End pose of a segment list, plus the sampled points when ``step`` is given."""
    pose = p
    points = [p[:2]]
    for turn, length in segments:
        if step is not None and length > 0.0:
            n = max(1, math.ceil(length / step))
            for k in range(1, n + 1):
                points.append(_advance(pose, turn, length * k / n, r)[:2])
        pose = _advance(pose, turn, length, r)
    return pose, points


def _angle_gap(a: float, b: float) -> float:
    d = _mod2pi(a - b)
    return min(d, TWO_PI - d)


# ---------------------------------------------------------------------------
# The checks


class Problem:
    """What the checker knows about an instance: the inputs, read once."""

    def __init__(self, instance):
        self.alpha = instance.alpha
        self.metric = instance.cost_metric
        self.tasks = {t.id: (t.center, t.radius) for t in instance.tasks}
        self.vehicles = {v.id: v for v in instance.vehicles}
        self.radius = {v.id: turn_radius(v.velocity, v.load_factor, v.gravity)
                       for v in instance.vehicles}


def _poses(entries):
    return [tuple(e["config"]) for e in entries]


def _legs(problem, vid, poses):
    """Per-leg Dubins (length, segments) along a pose sequence, each leg verified."""
    r = problem.radius[vid]
    legs = []
    for a, b in zip(poses, poses[1:]):
        length, segments = dubins(a, b, r)
        end, _ = walk(a, segments, r)
        _require(math.hypot(end[0] - b[0], end[1] - b[1]) <= POSE_TOL * max(1.0, r)
                 and _angle_gap(end[2], b[2]) <= POSE_TOL,
                 "path", f"vehicle {vid}: leg {a} -> {b} ends at {end}")
        _require(length >= math.hypot(b[0] - a[0], b[1] - a[1]) * (1.0 - REL_TOL),
                 "path", f"vehicle {vid}: leg {a} -> {b} shorter than the straight line")
        legs.append((length, segments))
    return legs


def _route_cost(problem, vid, legs):
    total = sum(length for length, _ in legs)
    return total / problem.vehicles[vid].velocity if problem.metric == "time" else total


def _covered_by_paths(problem, doc, tasks):
    """The subset of ``tasks`` whose disk some densely sampled node-tour leg enters."""
    hit = set()
    for v in doc["vehicles"]:
        vid = v["id"]
        r = problem.radius[vid]
        reach = problem.vehicles[vid].sensing_range + POSE_TOL
        poses = _poses(v["nodes"])
        pts = []
        for a, b in zip(poses, poses[1:]):
            _, segments = dubins(a, b, r)
            pts.extend(walk(a, segments, r, step=r * SAMPLE_FRACTION)[1])
        pts = np.asarray(pts)
        for t in tasks:
            if t in hit:
                continue
            (cx, cy), _ = problem.tasks[t]
            if np.any(np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) <= reach):
                hit.add(t)
    return hit


def check_document(problem, doc, objective_ma, roadmap=None):
    """Every check on one tour document; ``objective_ma`` is the unrefined objective."""
    vehicles = doc["vehicles"]
    # structure: depot to terminal, no task twice, sampled poses inside their disks
    _require([v["id"] for v in vehicles] == sorted(problem.vehicles), "structure",
             f"vehicle ids {[v['id'] for v in vehicles]}")
    direct = []
    for v in vehicles:
        spec = problem.vehicles[v["id"]]
        nodes = v["nodes"]
        _require(len(nodes) >= 2 and nodes[0]["cluster"] == -1 and nodes[-1]["cluster"] == -2,
                 "structure", f"vehicle {v['id']}: tour does not run depot to terminal")
        for node, spot in ((nodes[0], spec.depot), (nodes[-1], spec.terminal)):
            x, y, _ = node["config"]
            _require(math.hypot(x - spot[0], y - spot[1]) <= POSE_TOL, "structure",
                     f"vehicle {v['id']}: endpoint {(x, y)} is not at {spot}")
        for node in nodes[1:-1]:
            t = node["cluster"]
            _require(t in problem.tasks, "structure", f"vehicle {v['id']}: cluster {t}")
            (cx, cy), rad = problem.tasks[t]
            x, y, _ = node["config"]
            _require(math.hypot(x - cx, y - cy) <= rad + POSE_TOL, "structure",
                     f"task {t}: visited pose outside its disk")
            direct.append(t)
    _require(len(direct) == len(set(direct)), "structure", f"a task appears twice: {direct}")

    # coverage: visited directly, or entered by the benchmark's sampling of the legs
    missing = set(problem.tasks) - set(direct)
    uncovered = missing - _covered_by_paths(problem, doc, missing)
    _require(not uncovered, "coverage", f"tasks {sorted(uncovered)} are never served")
    refined = [v for v in vehicles if "refined_chain" in v]
    if refined:
        seen = []
        for v in refined:
            reach = problem.vehicles[v["id"]].sensing_range
            for st in v["refined_chain"]["states"][1:-1]:
                t = st["cluster"]
                (cx, cy), rad = problem.tasks[t]
                x, y, _ = st["config"]
                _require(math.hypot(x - cx, y - cy) <= max(rad, reach) + POSE_TOL, "coverage",
                         f"task {t}: refined state outside its disk")
                seen.append(t)
        _require(sorted(seen) == sorted(problem.tasks), "coverage",
                 f"refined chains serve tasks {sorted(seen)}")

    # cost: leg by leg from the poses the document gives
    node_costs = []
    for v in vehicles:
        vid = v["id"]
        node_cost = _route_cost(problem, vid, _legs(problem, vid, _poses(v["nodes"])))
        node_costs.append(node_cost)
        if "refined_chain" in v:
            states = v["refined_chain"]["states"]
            _require(states[0]["kind"] == "depot" and states[-1]["kind"] == "terminal",
                     "structure", f"vehicle {vid}: chain does not run depot to terminal")
            for st, node in ((states[0], v["nodes"][0]), (states[-1], v["nodes"][-1])):
                _require(math.hypot(st["config"][0] - node["config"][0],
                                    st["config"][1] - node["config"][1]) <= POSE_TOL,
                         "structure", f"vehicle {vid}: chain endpoint moved")
            cost = _route_cost(problem, vid, _legs(problem, vid, _poses(states)))
        else:
            cost = node_cost
        _require(_close(cost, v["cost"]), "cost",
                 f"vehicle {vid}: document says {v['cost']!r}, legs sum to {cost!r}")

    # objective: the blend, written out here
    doc_costs = [v["cost"] for v in vehicles]
    _require(_close(blend(doc_costs, problem.alpha), doc["objective"]), "objective",
             f"objective {doc['objective']!r} != blend {blend(doc_costs, problem.alpha)!r}")
    _require(_close(blend(node_costs, problem.alpha), objective_ma), "objective",
             f"memetic objective {objective_ma!r} != blend of node legs "
             f"{blend(node_costs, problem.alpha)!r}")
    if not refined:
        _require(_close(doc["objective"], objective_ma), "objective",
                 "unrefined document objective differs from the memetic best")

    if refined:
        trace = doc["refine_cost_trace"]
        _require(all(b <= a * (1.0 + REL_TOL) for a, b in zip(trace, trace[1:])), "refine",
                 f"refinement cost rose: {trace}")
        chain_total = sum(v["cost"] for v in refined)
        _require(_close(trace[-1], chain_total), "refine",
                 f"trace ends at {trace[-1]!r}, chains cost {chain_total!r}")
        _require(doc["objective"] <= objective_ma * (1.0 + REL_TOL), "refine",
                 f"refined objective {doc['objective']!r} above {objective_ma!r}")

    if roadmap is not None:
        _check_milp(doc, objective_ma, node_costs, roadmap)


def _check_milp(doc, objective_ma, node_costs, roadmap):
    """The node tours, read as an assignment of the exported program."""
    tours = []
    for v in doc["vehicles"]:
        ids = roadmap.cluster_ids
        tours.append(tuple(ids[(v["id"], n["cluster"])][n["sample"] - 1] for n in v["nodes"]))
    tourset = TourSet(tuple(tours), tuple(node_costs), objective_ma)
    model = exact.export_milp(roadmap)
    values = exact.RelaxedSolution.from_tourset(tourset, roadmap).as_var_values(roadmap)
    # z is the largest vehicle cost as the program's own rows sum it; it must
    # agree with the legs recomputed here
    z = max(sum(c * values.get(var, 0.0) for var, c in coeffs.items() if var != "z")
            for name, coeffs, _, _ in model.constraints if name.startswith("maxcost_"))
    _require(_close(z, max(node_costs)), "milp",
             f"largest vehicle cost {z!r} in the program's rows, {max(node_costs)!r} here")
    values["z"] = z
    violated = model.check_assignment(values)
    _require(not violated, "milp", f"rows violated: {violated[:5]}")
    value = model.objective_value(values)
    _require(_close(value, objective_ma), "milp",
             f"program objective {value!r} != memetic objective {objective_ma!r}")


def check_solved(solved) -> None:
    """All checks on one operation's outputs."""
    problem = Problem(solved.instance)
    check_document(problem, solved.document, solved.result.best_cost, solved.roadmap)
    if solved.oracle is not None:
        check_document(problem, solved.oracle_document, solved.oracle.objective,
                       solved.roadmap)
        _require(solved.result.best_cost >= solved.oracle.objective * (1.0 - REL_TOL),
                 "oracle", f"memetic {solved.result.best_cost!r} below the exact optimum "
                 f"{solved.oracle.objective!r}")


def check_repeat(text: str, reference: str) -> None:
    """A repeated solve of one sub-seed must write the same tour document."""
    _require(text == reference, "determinism", "a repeated solve wrote a different tour")


# ---------------------------------------------------------------------------
# Self-test: corrupted results must be rejected


def _rejects(problem, doc, objective_ma, expected: str) -> bool:
    try:
        check_document(problem, doc, objective_ma)
    except CheckError as exc:
        return exc.check == expected
    return False


def _drop_task(problem, doc):
    """Copy of ``doc`` with one directly visited task removed and every cost made
    consistent again, so that only coverage is wrong; None if every removal
    leaves the task served en passant."""
    for vi, v in enumerate(doc["vehicles"]):
        for ni, node in enumerate(v["nodes"][1:-1], start=1):
            t = node["cluster"]
            bad = copy.deepcopy(doc)
            bv = bad["vehicles"][vi]
            del bv["nodes"][ni]
            vid = bv["id"]
            if _covered_by_paths(problem, bad, {t}):
                continue
            node_cost = _route_cost(problem, vid, _legs(problem, vid, _poses(bv["nodes"])))
            bv["cost"] = node_cost
            if "refined_chain" in bv:
                states = [s for s in bv["refined_chain"]["states"] if s["cluster"] != t]
                bv["refined_chain"]["states"] = states
                bv["cost"] = _route_cost(problem, vid, _legs(problem, vid, _poses(states)))
            bad["objective"] = blend([x["cost"] for x in bad["vehicles"]], problem.alpha)
            return bad
    return None


def self_test(solved) -> list[str]:
    """Failures of the checker to reject corrupted copies of a good result."""
    problem = Problem(solved.instance)
    doc = solved.document
    failures = []
    bad = copy.deepcopy(doc)
    bad["vehicles"][0]["cost"] *= 1.0 + 1e-6
    if not _rejects(problem, bad, solved.result.best_cost, "cost"):
        failures.append("a vehicle cost altered by 1e-6 was not rejected as a cost error")
    dropped = _drop_task(problem, doc)
    if dropped is None:
        failures.append("no task could be dropped without being served en passant")
    elif not _rejects(problem, dropped, solved.result.best_cost, "coverage"):
        failures.append("a tour with one task dropped was not rejected as a coverage error")
    return failures
