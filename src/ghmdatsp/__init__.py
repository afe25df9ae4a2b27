"""Solver toolkit for multi-vehicle Dubins touring with task neighborhoods.

Pipeline: build an :class:`~ghmdatsp.instance.Instance`, expand it into a
sampled :class:`~ghmdatsp.roadmap.Roadmap`, search tours with
:func:`~ghmdatsp.memetic.run`, optionally polish them with
:func:`~ghmdatsp.refine.refine`, and validate against
:func:`~ghmdatsp.exact.solve_bruteforce` or the exported integer program.
"""

from .geometry import (Config, Disk, DubinsPath, dubins_lengths, dubins_shortest_path,
                       nin_check, sample_path, turning_circles)
from .instance import (Instance, Task, VehicleSpec, build_instance, builtin_task_centers,
                       load_tsplib, turn_radius)
from .memetic import (Chromosome, Evaluator, MAParams, MAResult, TourSet,
                      crossover, decode, evaluate, improve,
                      init_population, run, select)
from .roadmap import (DEPOT, TERMINAL, Roadmap, SampleNode, build_cost_matrix,
                      build_nin_tables, build_roadmap, generate_samples)
from .refine import (ChainState, RefineParams, RefineResult, WaypointChain,
                     build_chain, refine)
from .exact import (MilpModel, RelaxedSolution, export_milp, find_subtours,
                    solve_bruteforce)

__all__ = [
    "Config", "Disk", "DubinsPath", "dubins_lengths", "dubins_shortest_path", "nin_check",
    "sample_path", "turning_circles",
    "Instance", "Task", "VehicleSpec", "build_instance", "builtin_task_centers",
    "load_tsplib", "turn_radius",
    "DEPOT", "TERMINAL", "Roadmap", "SampleNode", "build_cost_matrix",
    "build_nin_tables", "build_roadmap", "generate_samples",
    "Chromosome", "Evaluator", "MAParams", "MAResult", "TourSet",
    "crossover", "decode", "evaluate", "improve",
    "init_population", "run", "select",
    "ChainState", "RefineParams", "RefineResult", "WaypointChain",
    "build_chain", "refine",
    "MilpModel", "RelaxedSolution", "export_milp", "find_subtours",
    "solve_bruteforce",
]
