"""Dubins shortest paths and the necessarily-intersecting-neighborhood test.

A Dubins vehicle moves at constant speed with a bounded turn rate, so its
shortest path between two planar poses is a composition of at most three
segments, each a minimum-radius arc (L/R) or a straight line (S).  All six
candidate words are evaluated in closed form and the cheapest feasible one
is returned.  :func:`dubins_lengths` does the same over arrays of pose
pairs; the scalar :func:`dubins_shortest_path` is its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: The six Dubins words.  Each letter is L (left arc), R (right arc) or
#: S (straight); CCC words exist only when the poses are close together.
DUBINS_WORDS = ("LSL", "RSR", "LSR", "RSL", "RLR", "LRL")


def norm_angle(theta: float) -> float:
    """Normalize an angle into [0, 2*pi)."""
    a = math.fmod(theta, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    return a if a < TWO_PI else 0.0


def ang_close(a: float, b: float, tol: float = 1e-9) -> bool:
    """Circular angle equality within ``tol`` radians."""
    d = abs(norm_angle(a) - norm_angle(b))
    return min(d, TWO_PI - d) <= tol


@dataclass(frozen=True)
class Config:
    """A planar pose: position in meters, heading in radians [0, 2*pi)."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", norm_angle(self.theta))

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)

    def distance_to(self, other: "Config") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Disk:
    """A closed disk (filled region)."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError(f"disk radius must be positive, got {self.radius}")

    def contains(self, point: tuple[float, float], tol: float = 0.0) -> bool:
        return math.hypot(point[0] - self.center[0], point[1] - self.center[1]) <= self.radius + tol


@dataclass(frozen=True)
class DubinsPath:
    """A concrete Dubins path: word, per-segment lengths (meters), radius."""

    word: str
    segment_params: tuple[float, float, float]
    r_min: float
    start: Config
    length: float

    def endpoint(self) -> Config:
        """Reconstruct the final pose by applying the three segments."""
        cfg = self.start
        for letter, seg in zip(self.word, self.segment_params):
            cfg = _apply_segment(cfg, letter, seg, self.r_min)
        return cfg


def _apply_segment(cfg: Config, letter: str, length: float, r: float) -> Config:
    """Advance ``cfg`` along one segment, exactly (no integration drift)."""
    if length <= 0.0:
        return cfg
    if letter == "S":
        return Config(cfg.x + length * math.cos(cfg.theta),
                      cfg.y + length * math.sin(cfg.theta),
                      cfg.theta)
    phi = length / r
    if letter == "L":
        cx = cfg.x - r * math.sin(cfg.theta)
        cy = cfg.y + r * math.cos(cfg.theta)
        t2 = cfg.theta + phi
        return Config(cx + r * math.sin(t2), cy - r * math.cos(t2), t2)
    if letter == "R":
        cx = cfg.x + r * math.sin(cfg.theta)
        cy = cfg.y - r * math.cos(cfg.theta)
        t2 = cfg.theta - phi
        return Config(cx - r * math.sin(t2), cy + r * math.cos(t2), t2)
    raise ValueError(f"unknown segment letter {letter!r}")


# Closed-form solutions in the normalized frame.  alpha/beta are the start
# and goal headings relative to the baseline joining the two positions and
# d is the center distance divided by r_min.  Each returns normalized
# (t, p, q) segment lengths (arcs in radians, straight in units of r_min)
# or None when the word is infeasible for the pair.

def _lsl(alpha, beta, d):
    sa, sb, ca, cb = math.sin(alpha), math.sin(beta), math.cos(alpha), math.cos(beta)
    p_sq = 2.0 + d * d - 2.0 * math.cos(alpha - beta) + 2.0 * d * (sa - sb)
    if p_sq < 0.0:
        return None
    tmp = math.atan2(cb - ca, d + sa - sb)
    return (norm_angle(-alpha + tmp), math.sqrt(p_sq), norm_angle(beta - tmp))


def _rsr(alpha, beta, d):
    sa, sb, ca, cb = math.sin(alpha), math.sin(beta), math.cos(alpha), math.cos(beta)
    p_sq = 2.0 + d * d - 2.0 * math.cos(alpha - beta) + 2.0 * d * (sb - sa)
    if p_sq < 0.0:
        return None
    tmp = math.atan2(ca - cb, d - sa + sb)
    return (norm_angle(alpha - tmp), math.sqrt(p_sq), norm_angle(-beta + tmp))


def _lsr(alpha, beta, d):
    sa, sb, ca, cb = math.sin(alpha), math.sin(beta), math.cos(alpha), math.cos(beta)
    p_sq = -2.0 + d * d + 2.0 * math.cos(alpha - beta) + 2.0 * d * (sa + sb)
    if p_sq < 0.0:
        return None
    p = math.sqrt(p_sq)
    tmp = math.atan2(-ca - cb, d + sa + sb) - math.atan2(-2.0, p)
    return (norm_angle(-alpha + tmp), p, norm_angle(-norm_angle(beta) + tmp))


def _rsl(alpha, beta, d):
    sa, sb, ca, cb = math.sin(alpha), math.sin(beta), math.cos(alpha), math.cos(beta)
    p_sq = d * d - 2.0 + 2.0 * math.cos(alpha - beta) - 2.0 * d * (sa + sb)
    if p_sq < 0.0:
        return None
    p = math.sqrt(p_sq)
    tmp = math.atan2(ca + cb, d - sa - sb) - math.atan2(2.0, p)
    return (norm_angle(alpha - tmp), p, norm_angle(beta - tmp))


def _rlr(alpha, beta, d):
    sa, sb, ca, cb = math.sin(alpha), math.sin(beta), math.cos(alpha), math.cos(beta)
    tmp = (6.0 - d * d + 2.0 * math.cos(alpha - beta) + 2.0 * d * (sa - sb)) / 8.0
    if abs(tmp) > 1.0:
        return None
    p = norm_angle(TWO_PI - math.acos(tmp))
    t = norm_angle(alpha - math.atan2(ca - cb, d - sa + sb) + p / 2.0)
    return (t, p, norm_angle(alpha - beta - t + p))


def _lrl(alpha, beta, d):
    sa, sb, ca, cb = math.sin(alpha), math.sin(beta), math.cos(alpha), math.cos(beta)
    tmp = (6.0 - d * d + 2.0 * math.cos(alpha - beta) + 2.0 * d * (sb - sa)) / 8.0
    if abs(tmp) > 1.0:
        return None
    p = norm_angle(TWO_PI - math.acos(tmp))
    t = norm_angle(-alpha - math.atan2(ca - cb, d + sa - sb) + p / 2.0)
    return (t, p, norm_angle(norm_angle(beta) - alpha - t + p))


_WORD_SOLVERS = {
    "LSL": _lsl, "RSR": _rsr, "LSR": _lsr,
    "RSL": _rsl, "RLR": _rlr, "LRL": _lrl,
}


def dubins_shortest_path(start: Config, end: Config, r_min: float) -> DubinsPath:
    """Shortest Dubins path from ``start`` to ``end`` with turn radius ``r_min``.

    Every pose pair admits at least one feasible word, so this never fails.
    Infeasible words for the pair are skipped; the identical-pose case
    short-circuits to a zero-length path.
    """
    if r_min <= 0.0:
        raise ValueError(f"r_min must be positive, got {r_min}")
    dx = end.x - start.x
    dy = end.y - start.y
    dist = math.hypot(dx, dy)
    if dist <= 1e-12 and ang_close(start.theta, end.theta, 1e-12):
        return DubinsPath("LSL", (0.0, 0.0, 0.0), r_min, start, 0.0)

    d = dist / r_min
    phi = math.atan2(dy, dx)
    alpha = norm_angle(start.theta - phi)
    beta = norm_angle(end.theta - phi)

    best = None
    for word in DUBINS_WORDS:
        sol = _WORD_SOLVERS[word](alpha, beta, d)
        if sol is None:
            continue
        t, p, q = sol
        total = t + p + q
        if best is None or total < best[0]:
            best = (total, word, (t, p, q))
    total, word, (t, p, q) = best
    # arcs scale by r_min; so does the normalized straight segment
    params = tuple(seg * r_min for seg in (t, p, q))
    return DubinsPath(word, params, r_min, start, total * r_min)


def _norm_angles(theta: np.ndarray) -> np.ndarray:
    """:func:`norm_angle` over an array, with the same wrapping."""
    a = np.fmod(theta, TWO_PI)
    a = np.where(a < 0.0, a + TWO_PI, a)
    return np.where(a < TWO_PI, a, 0.0)


def dubins_lengths(x0, y0, th0, x1, y1, th1, r_min: float) -> np.ndarray:
    """Shortest Dubins lengths for broadcast arrays of pose pairs.

    The array form of ``dubins_shortest_path(...).length``: the same six
    words in the same order, the same infeasibility tests, the same
    identical-pose short-circuit, and ties going to the first word.  Results
    agree with the scalar solver to a few ulps of the trigonometric calls.
    """
    if r_min <= 0.0:
        raise ValueError(f"r_min must be positive, got {r_min}")
    th0 = _norm_angles(np.asarray(th0, dtype=float))
    th1 = _norm_angles(np.asarray(th1, dtype=float))
    dx = np.subtract(x1, x0, dtype=float)
    dy = np.subtract(y1, y0, dtype=float)
    dist = np.hypot(dx, dy)
    gap = np.abs(th0 - th1)
    same = (dist <= 1e-12) & (np.minimum(gap, TWO_PI - gap) <= 1e-12)

    d = dist / r_min
    phi = np.arctan2(dy, dx)
    alpha = _norm_angles(th0 - phi)
    beta = _norm_angles(th1 - phi)
    sa, sb, ca, cb = np.sin(alpha), np.sin(beta), np.cos(alpha), np.cos(beta)
    c_ab = np.cos(alpha - beta)
    best = np.full(np.shape(d), np.inf)

    def keep(total, feasible):
        # strict <, so among equal totals the earlier word stays
        np.copyto(best, total, where=feasible & (total < best))

    with np.errstate(invalid="ignore"):
        # LSL
        p_sq = 2.0 + d * d - 2.0 * c_ab + 2.0 * d * (sa - sb)
        tmp = np.arctan2(cb - ca, d + sa - sb)
        keep(_norm_angles(-alpha + tmp) + np.sqrt(p_sq) + _norm_angles(beta - tmp), p_sq >= 0.0)
        # RSR
        p_sq = 2.0 + d * d - 2.0 * c_ab + 2.0 * d * (sb - sa)
        tmp = np.arctan2(ca - cb, d - sa + sb)
        keep(_norm_angles(alpha - tmp) + np.sqrt(p_sq) + _norm_angles(-beta + tmp), p_sq >= 0.0)
        # LSR
        p_sq = -2.0 + d * d + 2.0 * c_ab + 2.0 * d * (sa + sb)
        p = np.sqrt(p_sq)
        tmp = np.arctan2(-ca - cb, d + sa + sb) - np.arctan2(-2.0, p)
        keep(_norm_angles(-alpha + tmp) + p + _norm_angles(-beta + tmp), p_sq >= 0.0)
        # RSL
        p_sq = d * d - 2.0 + 2.0 * c_ab - 2.0 * d * (sa + sb)
        p = np.sqrt(p_sq)
        tmp = np.arctan2(ca + cb, d - sa - sb) - np.arctan2(2.0, p)
        keep(_norm_angles(alpha - tmp) + p + _norm_angles(beta - tmp), p_sq >= 0.0)
        # RLR
        tmp = (6.0 - d * d + 2.0 * c_ab + 2.0 * d * (sa - sb)) / 8.0
        p = _norm_angles(TWO_PI - np.arccos(tmp))
        t = _norm_angles(alpha - np.arctan2(ca - cb, d - sa + sb) + p / 2.0)
        keep(t + p + _norm_angles(alpha - beta - t + p), np.abs(tmp) <= 1.0)
        # LRL
        tmp = (6.0 - d * d + 2.0 * c_ab + 2.0 * d * (sb - sa)) / 8.0
        p = _norm_angles(TWO_PI - np.arccos(tmp))
        t = _norm_angles(-alpha - np.arctan2(ca - cb, d + sa - sb) + p / 2.0)
        keep(t + p + _norm_angles(beta - alpha - t + p), np.abs(tmp) <= 1.0)
    return np.where(same, 0.0, best * r_min)


def sample_path(path: DubinsPath, spacing: float) -> list[Config]:
    """Poses along ``path`` spaced at most ``spacing`` apart, endpoints included."""
    if spacing <= 0.0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    if path.length <= 0.0:
        return [path.start]
    poses = [path.start]
    cfg = path.start
    for letter, seg in zip(path.word, path.segment_params):
        if seg <= 0.0:
            continue
        n = max(1, math.ceil(seg / spacing))
        step = seg / n
        for _ in range(n):
            cfg = _apply_segment(cfg, letter, step, path.r_min)
            poses.append(cfg)
    return poses


def turning_circles(c: Config, r_min: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Centers of the two radius-``r_min`` circles tangent to the pose ``c``.

    Returns (left_center, right_center).
    """
    if r_min <= 0.0:
        raise ValueError(f"r_min must be positive, got {r_min}")
    s, co = math.sin(c.theta), math.cos(c.theta)
    left = (c.x - r_min * s, c.y + r_min * co)
    right = (c.x + r_min * s, c.y - r_min * co)
    return left, right


def nin_check(c: Config, r_min: float, region: Disk) -> bool:
    """True iff both turning circles of ``c`` intersect the closed disk ``region``.

    A circle curve of radius r intersects a closed disk exactly when the
    absolute gap between the center distance and r is at most the disk
    radius.  When this holds for both tangent circles, any minimum-radius
    maneuver through the pose crosses the region.
    """
    left, right = turning_circles(c, r_min)
    for cx, cy in (left, right):
        d = math.hypot(cx - region.center[0], cy - region.center[1])
        if abs(d - r_min) > region.radius:
            return False
    return True
