"""lpduet: one LP, two engines.

A Big-M tableau simplex and a primal affine-scaling interior point method
over a shared model layer, cross-checked by a brute-force basic-solution
oracle, with a small LP text format and a CLI.
"""

from .errors import (
    DimensionMismatch,
    EmptyModel,
    InfeasibleInterior,
    LpError,
    NonFiniteInput,
    NotInterior,
    NotPositiveDefinite,
    ParseError,
    TooLarge,
    UnboundedDirection,
    ZeroPivot,
)
from .model import (
    LPModel,
    Relation,
    ResidualReport,
    Sense,
    Solution,
    StandardForm,
    Status,
    build_model,
    constraint_residuals,
    to_equality_form,
)
from .simplex import SimplexOptions, solve_simplex
from .affine import (
    IpmOptions,
    IpmState,
    find_interior_point,
    projected_direction,
    solve_affine,
    step,
)
from .oracle import BasicSolution, brute_force_optimum, enumerate_basic_solutions
from .lp_format import lana_instance, lana_lp_path, parse_lp_text, write_lp_text
from .reporting import (
    IPM_TRACE_HEADER,
    SIMPLEX_TRACE_HEADER,
    build_report,
    ipm_trace_rows,
    write_iteration_trace,
    write_report_pair,
    write_solution_report,
)
from .cli import run_cli

__version__ = "0.1.0"

__all__ = [
    "BasicSolution",
    "DimensionMismatch",
    "EmptyModel",
    "IPM_TRACE_HEADER",
    "InfeasibleInterior",
    "IpmOptions",
    "IpmState",
    "LPModel",
    "LpError",
    "NonFiniteInput",
    "NotInterior",
    "NotPositiveDefinite",
    "ParseError",
    "Relation",
    "ResidualReport",
    "SIMPLEX_TRACE_HEADER",
    "Sense",
    "SimplexOptions",
    "Solution",
    "StandardForm",
    "Status",
    "TooLarge",
    "UnboundedDirection",
    "ZeroPivot",
    "brute_force_optimum",
    "build_model",
    "build_report",
    "constraint_residuals",
    "enumerate_basic_solutions",
    "find_interior_point",
    "ipm_trace_rows",
    "lana_instance",
    "lana_lp_path",
    "parse_lp_text",
    "projected_direction",
    "run_cli",
    "solve_affine",
    "solve_simplex",
    "step",
    "to_equality_form",
    "write_iteration_trace",
    "write_lp_text",
    "write_report_pair",
    "write_solution_report",
]
