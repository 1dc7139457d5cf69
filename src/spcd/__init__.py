"""Two-phase upwind finite-difference solver for singularly perturbed
convection-diffusion problems on smooth 2D domains.

The solver combines a classical upwind scheme on a rectangle enclosing
the domain with a correcting solve on boundary-fitted Shishkin strip
meshes aligned to the outflow boundary, and ships a double-mesh harness
that estimates parameter-uniform convergence orders.
"""

from .geometry import (
    CharacteristicPoint,
    CurvilinearPoint,
    FrameSample,
    FunctionBoundary,
    ParametricBoundary,
    contains,
    find_characteristic_points,
    frame,
    outflow_arcs,
    theta_min,
    to_cartesian,
)
from .grids import RectGrid, StripMesh, build_rect_grid, build_strip_mesh
from .harness import ConvergenceTable, order_table, two_mesh_difference
from .linsolve import SolveReport, solve
from .operators import ProblemData, SparseSystem, assemble_outer, assemble_strip
from .pipeline import (
    GlobalApproximation,
    SolveConfig,
    evaluate,
    evaluate_many,
    solve_problem,
)
from .problems import TestCase, circle, manufactured_case, omega1, omega2, omega3, test_problem

__version__ = "0.1.0"
