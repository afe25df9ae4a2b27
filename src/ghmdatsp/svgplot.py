"""SVG rendering of an instance and, optionally, the tour document solved on it.

The document is the tour JSON payload of :func:`ghmdatsp.cli.tour_document`.
Each vehicle's path is the Dubins path through its ``refined_chain`` states
when the document was refined, and through its sampled ``nodes`` otherwise;
a refined document leaves a vehicle without a chain undrawn.  Task disks
that a node tour visits directly are filled, tasks covered only by a
crossing path keep just their outline.

Coordinate frame is y-up with one unit per meter; the viewBox is fitted
to the drawing with a 5% margin.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import quoteattr

from .geometry import Config, dubins_shortest_path, sample_path
from .instance import Instance

_PALETTE = ("#c0392b", "#2471a3", "#1e8449", "#af601a", "#6c3483", "#117864")


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _attrs(attrs: dict) -> str:
    """Keyword arguments as SVG attributes: ``stroke_width=2`` gives ``stroke-width="2"``."""
    return " ".join(f'{k.replace("_", "-")}={quoteattr(str(v))}' for k, v in attrs.items())


class _Svg:
    def __init__(self):
        self.parts: list[str] = []
        self.min_x = self.min_y = math.inf
        self.max_x = self.max_y = -math.inf

    def grow(self, x: float, y: float):
        self.min_x = min(self.min_x, x)
        self.max_x = max(self.max_x, x)
        self.min_y = min(self.min_y, -y)
        self.max_y = max(self.max_y, -y)

    def circle(self, cx, cy, r, **attrs):
        self.grow(cx - r, cy - r)
        self.grow(cx + r, cy + r)
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}" {_attrs(attrs)}/>')

    def rect_marker(self, cx, cy, half, **attrs):
        self.grow(cx - half, cy - half)
        self.grow(cx + half, cy + half)
        self.parts.append(
            f'<rect x="{_fmt(cx - half)}" y="{_fmt(-cy - half)}" '
            f'width="{_fmt(2 * half)}" height="{_fmt(2 * half)}" {_attrs(attrs)}/>')

    def polyline(self, points, **attrs):
        for x, y in points:
            self.grow(x, y)
        pts = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in points)
        self.parts.append(f'<polyline points="{pts}" fill="none" {_attrs(attrs)}/>')

    def text(self, x, y, s, size):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(-y)}" font-size="{_fmt(size)}" '
            f'font-family="sans-serif">{s}</text>')

    def render(self) -> str:
        w = self.max_x - self.min_x
        h = self.max_y - self.min_y
        mx, my = 0.05 * max(w, 1.0), 0.05 * max(h, 1.0)
        viewbox = f"{_fmt(self.min_x - mx)} {_fmt(self.min_y - my)} {_fmt(w + 2 * mx)} {_fmt(h + 2 * my)}"
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{viewbox}">\n{body}\n</svg>\n')


def _densify_legs(configs: list[Config], r_min: float) -> list[tuple[float, float]]:
    points: list[tuple[float, float]] = []
    for a, b in zip(configs, configs[1:]):
        path = dubins_shortest_path(a, b, r_min)
        poses = sample_path(path, max(r_min / 20.0, 1e-6))
        start = 0 if not points else 1
        points.extend((c.x, c.y) for c in poses[start:])
    if not points:
        points = [(configs[0].x, configs[0].y)]
    return points


def render_solution(instance: Instance, document: dict | None = None) -> str:
    """Draw the instance plus, when given, the paths of its tour document."""
    svg = _Svg()
    vehicles = document["vehicles"] if document is not None else []
    refined = document is not None and "refine_sweeps" in document
    direct = {node["cluster"] for entry in vehicles for node in entry["nodes"][1:-1]}
    for task in instance.tasks:
        filled = document is None or task.id in direct
        svg.circle(task.center[0], task.center[1], task.radius,
                   fill="#d6eaf8" if filled else "none",
                   stroke="#5d6d7e", stroke_width=2)
        svg.text(task.center[0], task.center[1], str(task.id), size=max(task.radius * 0.6, 8))

    for k, veh in enumerate(instance.vehicles):
        color = _PALETTE[k % len(_PALETTE)]
        svg.rect_marker(veh.depot[0], veh.depot[1], max(veh.sensing_range * 0.15, 10),
                        fill=color, stroke="black", stroke_width=1)

    for k, (veh, entry) in enumerate(zip(instance.vehicles, vehicles)):
        if refined and "refined_chain" not in entry:
            continue
        states = entry["refined_chain"]["states"] if refined else entry["nodes"]
        pts = _densify_legs([Config(*s["config"]) for s in states], veh.r_min)
        svg.polyline(pts, stroke=_PALETTE[k % len(_PALETTE)], stroke_width=3)
    return svg.render()
