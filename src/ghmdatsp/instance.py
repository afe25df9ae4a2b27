"""Problem data model: tasks, vehicles, defaults, TSPLIB ingestion.

An :class:`Instance` is immutable after construction and fully determines
the roadmap given its seed, so identical instances always reproduce
identical runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from importlib import resources

GRAVITY_DEFAULT = 9.80  # m/s^2; reproduces the published (velocity, radius) pairs

#: Default depot locations, used in order as the fleet grows.
DEFAULT_DEPOTS = ((110.0, 230.0), (1800.0, 2100.0), (200.0, 1500.0), (1700.0, 1000.0))

DEFAULT_VELOCITY = 70.0
DEFAULT_LOAD_FACTOR = 4.0
DEFAULT_SENSING_RANGE = 150.0
DEFAULT_SAMPLES_PER_CLUSTER = 5
DEFAULT_ALPHA = 0.5


class InstanceError(ValueError):
    """Invalid instance data; the message lists every violated invariant."""


class TsplibError(ValueError):
    """Malformed TSPLIB input."""


def turn_radius(velocity: float, load_factor: float, gravity: float = GRAVITY_DEFAULT) -> float:
    """Minimum turn radius of a coordinated level turn.

    radius = velocity^2 / (gravity * sqrt(load_factor^2 - 1))
    """
    if not 0.0 < velocity < math.inf:  # NaN fails too
        raise InstanceError(f"velocity must be positive and finite, got {velocity}")
    if not 0.0 < gravity < math.inf:
        raise InstanceError(f"gravity must be positive and finite, got {gravity}")
    if not 1.0 < load_factor < math.inf:
        raise InstanceError(f"load_factor must exceed 1 and be finite, got {load_factor}")
    return velocity * velocity / (gravity * math.sqrt(load_factor * load_factor - 1.0))


def _finite_point(point) -> bool:
    return all(map(math.isfinite, point))


#: Keys of an instance document, each with the JSON kind it holds.
_INSTANCE_KEYS = {"tasks": "list", "vehicles": "list", "alpha": "number",
                  "cost_metric": "string", "samples_per_cluster": "integer",
                  "seed": "integer", "nin_enabled": "boolean"}
_TASK_KEYS = {"id": "integer", "center": "point", "radius": "number"}
_VEHICLE_KEYS = {"id": "integer", "velocity": "number", "load_factor": "number",
                 "gravity": "number", "depot": "point", "terminal": "point",
                 "sensing_range": "number"}
#: Keys a document may leave out; the dataclass defaults fill them in.
_OPTIONAL_KEYS = ("gravity", "nin_enabled")
_KINDS = {"list": list, "number": (int, float), "string": str, "integer": int,
          "boolean": bool}


def _is_kind(value, kind: str) -> bool:
    """Whether ``value`` holds ``kind``: a name in ``_KINDS``, ``"point"``,
    ``"list of <kind>"``, or alternatives joined by ``" or "``."""
    if " or " in kind:
        return any(_is_kind(value, k) for k in kind.split(" or "))
    if kind.startswith("list of "):
        item = kind.removeprefix("list of ")
        return isinstance(value, list) and all(_is_kind(x, item) for x in value)
    if kind == "point":
        return isinstance(value, list) and len(value) == 2 and all(
            _is_kind(x, "number") for x in value)
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, _KINDS[kind]) and (kind == "boolean") == isinstance(value, bool)


def _check_keys(doc, keys: dict[str, str], where: str, optional=_OPTIONAL_KEYS) -> None:
    """Raise :class:`InstanceError` unless ``doc`` is an object holding only
    keys of ``keys``, each with its kind, and every one that is not
    ``optional``."""
    if not isinstance(doc, dict):
        raise InstanceError(f"{where} must be a JSON object, got {type(doc).__name__}")
    problems = [f"{where}: unknown key {key!r}, known keys are {', '.join(keys)}"
                for key in doc if key not in keys]
    problems += [f"{where}: missing key {key!r}" for key in keys
                if key not in doc and key not in optional]
    problems += [f"{where}: {key!r} expects {kind}, got {doc[key]!r}"
                 for key, kind in keys.items() if key in doc and not _is_kind(doc[key], kind)]
    if problems:
        raise InstanceError("; ".join(problems))


@dataclass(frozen=True)
class Task:
    """A task disk; vehicle k serves it from within ``min(radius, k's sensing_range)``."""

    id: int
    center: tuple[float, float]
    radius: float


@dataclass(frozen=True)
class VehicleSpec:
    """One vehicle: dynamics, depot/terminal locations, sensing range."""

    id: int
    velocity: float
    load_factor: float
    depot: tuple[float, float]
    terminal: tuple[float, float]
    sensing_range: float
    gravity: float = GRAVITY_DEFAULT
    r_min: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "r_min", turn_radius(self.velocity, self.load_factor, self.gravity))


@dataclass(frozen=True)
class Instance:
    tasks: tuple[Task, ...]
    vehicles: tuple[VehicleSpec, ...]
    alpha: float
    cost_metric: str
    samples_per_cluster: int
    seed: int
    nin_enabled: bool = True

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_vehicles(self) -> int:
        return len(self.vehicles)

    def __post_init__(self):
        """Raise :class:`InstanceError` listing every violated invariant; runs
        on every construction, ``dataclasses.replace`` included."""
        problems = []
        if self.n_tasks < 1:
            problems.append("at least one task is required")
        if self.n_vehicles < 1:
            problems.append("at least one vehicle is required")
        ids = [t.id for t in self.tasks]
        if ids != list(range(1, len(ids) + 1)):
            problems.append(f"task ids must be 1..n contiguous, got {ids}")
        for t in self.tasks:
            if not 0.0 < t.radius < math.inf:  # NaN fails too
                problems.append(f"task {t.id}: radius must be positive and finite, got {t.radius}")
            if not _finite_point(t.center):
                problems.append(f"task {t.id}: center must be finite, got {t.center}")
        vids = [v.id for v in self.vehicles]
        if vids != list(range(1, len(vids) + 1)):
            problems.append(f"vehicle ids must be 1..m contiguous, got {vids}")
        for v in self.vehicles:  # VehicleSpec already checked the dynamics
            if not 0.0 < v.sensing_range < math.inf:
                problems.append(f"vehicle {v.id}: sensing_range must be positive and finite")
            if not (_finite_point(v.depot) and _finite_point(v.terminal)):
                problems.append(f"vehicle {v.id}: depot and terminal must be finite")
            if not 0.0 < v.r_min < math.inf:
                problems.append(f"vehicle {v.id}: degenerate turn radius {v.r_min}")
        if not 0.0 <= self.alpha <= 1.0:
            problems.append(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.cost_metric not in ("length", "time"):
            problems.append(f"cost_metric must be 'length' or 'time', got {self.cost_metric!r}")
        if self.samples_per_cluster < 1:
            problems.append(f"samples_per_cluster must be >= 1, got {self.samples_per_cluster}")
        if problems:
            raise InstanceError("; ".join(problems))

    def to_json(self) -> str:
        """Canonical JSON; byte-stable for a fixed instance."""
        doc = asdict(self)
        for vehicle in doc["vehicles"]:
            del vehicle["r_min"]  # derived from the dynamics
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "Instance":
        doc = json.loads(text)
        _check_keys(doc, _INSTANCE_KEYS, "instance")
        for name, keys in (("tasks", _TASK_KEYS), ("vehicles", _VEHICLE_KEYS)):
            for i, entry in enumerate(doc[name]):
                _check_keys(entry, keys, f"{name}[{i}]")

        def tupled(entry, keys):  # JSON points load as lists
            return {key: tuple(v) if keys[key] == "point" else v for key, v in entry.items()}

        return Instance(**{**doc,
                           "tasks": tuple(Task(**tupled(t, _TASK_KEYS)) for t in doc["tasks"]),
                           "vehicles": tuple(VehicleSpec(**tupled(v, _VEHICLE_KEYS))
                                             for v in doc["vehicles"])})


def load_tsplib(text: str) -> list[tuple[float, float]]:
    """Parse a TSPLIB NODE_COORD_SECTION coordinate list.

    Returns the coordinates in file order; the count must match the
    DIMENSION header.  Raises :class:`TsplibError` with a line number on
    malformed rows.
    """
    dimension = None
    coords: list[tuple[float, float]] = []
    in_section = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        upper = line.upper()
        if upper.startswith("DIMENSION"):
            try:
                dimension = int(line.split(":")[-1].strip().split()[-1])
            except (ValueError, IndexError):
                raise TsplibError(f"line {lineno}: unreadable DIMENSION header: {line!r}")
            continue
        if upper.startswith("NODE_COORD_SECTION"):
            in_section = True
            continue
        if upper.startswith("EOF"):
            break
        if in_section:
            parts = line.split()
            if len(parts) < 3:
                raise TsplibError(f"line {lineno}: expected 'index x y', got {line!r}")
            try:
                coords.append((float(parts[1]), float(parts[2])))
            except ValueError:
                raise TsplibError(f"line {lineno}: non-numeric coordinate in {line!r}")
    if dimension is None:
        raise TsplibError("missing DIMENSION header")
    if not in_section and dimension > 0:
        raise TsplibError("missing NODE_COORD_SECTION")
    if len(coords) != dimension:
        raise TsplibError(f"DIMENSION says {dimension} but found {len(coords)} coordinate rows")
    return coords


def builtin_task_centers(name: str = "bays29") -> list[tuple[float, float]]:
    """Coordinates of a bundled benchmark point set."""
    ref = resources.files("ghmdatsp.data").joinpath(f"{name}.tsp")
    if not ref.is_file():
        raise InstanceError(f"no bundled point set named {name!r}")
    return load_tsplib(ref.read_text())


def build_instance(
    task_centers: list[tuple[float, float]] | None = None,
    *,
    n_vehicles: int = 1,
    samples_per_cluster: int = DEFAULT_SAMPLES_PER_CLUSTER,
    alpha: float = DEFAULT_ALPHA,
    velocity: float | list[float] = DEFAULT_VELOCITY,
    sensing_range: float | list[float] = DEFAULT_SENSING_RANGE,
    cost_metric: str = "length",
    nin_enabled: bool = True,
    depots: list[tuple[float, float]] | None = None,
    seed: int = 0,
) -> Instance:
    """Assemble a validated :class:`Instance` from defaults plus overrides.

    Task centers default to the bundled bays29 point set.  Depots are taken
    in order from the default list; each terminal coincides with its depot,
    which closes the tours.  Scalar vehicle parameters broadcast across the
    fleet.  Every vehicle has the default load factor and gravity; every
    task's radius is the largest sensing range, so each range takes effect.
    """
    if task_centers is None:
        task_centers = builtin_task_centers()
    if n_vehicles < 1:
        raise InstanceError("at least one vehicle is required")

    def per_vehicle(value, name):
        if isinstance(value, (int, float)):
            return [float(value)] * n_vehicles
        vals = [float(v) for v in value]
        if len(vals) != n_vehicles:
            raise InstanceError(f"{name}: expected {n_vehicles} values, got {len(vals)}")
        return vals

    velocities = per_vehicle(velocity, "velocity")
    ranges = per_vehicle(sensing_range, "sensing_range")

    if depots is None:
        if n_vehicles > len(DEFAULT_DEPOTS):
            raise InstanceError(
                f"only {len(DEFAULT_DEPOTS)} default depots available; pass depots explicitly"
            )
        depots = [DEFAULT_DEPOTS[k] for k in range(n_vehicles)]
    ends = [(float(x), float(y)) for x, y in depots]
    if len(ends) != n_vehicles:
        raise InstanceError(f"depots: expected {n_vehicles} values, got {len(ends)}")

    tasks = tuple(
        Task(id=i + 1, center=(float(x), float(y)), radius=max(ranges))
        for i, (x, y) in enumerate(task_centers)
    )
    vehicles = tuple(
        VehicleSpec(
            id=k + 1,
            velocity=velocities[k],
            load_factor=DEFAULT_LOAD_FACTOR,
            depot=ends[k],
            terminal=ends[k],
            sensing_range=ranges[k],
        )
        for k in range(n_vehicles)
    )
    return Instance(
        tasks=tasks,
        vehicles=vehicles,
        alpha=float(alpha),
        cost_metric=cost_metric,
        samples_per_cluster=int(samples_per_cluster),
        seed=int(seed),
        nin_enabled=bool(nin_enabled),
    )
