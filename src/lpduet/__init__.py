"""lpduet: one LP, two engines.

A Big-M tableau simplex and a primal affine-scaling interior point method
over a shared model layer, cross-checked by a brute-force basic-solution
oracle, with a small LP text format and a CLI. The oracle loads scipy.linalg
and the CLI argparse, so each is imported on first lookup (PEP 562).
"""

import importlib

from .errors import (
    DimensionMismatch,
    EmptyModel,
    LpError,
    NonFiniteInput,
    NotInterior,
    NotPositiveDefinite,
    ParseError,
    TooLarge,
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
from .affine import IpmOptions, solve_affine
from .lp_format import lana_lp_path, parse_lp_text, write_lp_text
from .reporting import (
    IPM_TRACE_HEADER,
    SIMPLEX_TRACE_HEADER,
    build_report,
    write_iteration_trace,
    write_report_pair,
    write_solution_report,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("oracle", "brute_force_optimum"):
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else oracle.brute_force_optimum
    if name == "run_cli":
        return importlib.import_module(".cli", __name__).run_cli
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DimensionMismatch",
    "EmptyModel",
    "IPM_TRACE_HEADER",
    "IpmOptions",
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
    "brute_force_optimum",
    "build_model",
    "build_report",
    "constraint_residuals",
    "lana_lp_path",
    "parse_lp_text",
    "run_cli",
    "solve_affine",
    "solve_simplex",
    "to_equality_form",
    "write_iteration_trace",
    "write_lp_text",
    "write_report_pair",
    "write_solution_report",
]
