"""LP model types, validation, and conversion to equality / Big-M form.

Models are stored in a canonical shape: every right-hand side is nonnegative
(rows arriving with a negative rhs are sign flipped at build time, relation
reversed) and the internal solver sense is always maximization. Minimization
models keep their native objective here; the equality-form conversion negates
it and records a flag so reported objectives can be un-negated at the boundary.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import re
from dataclasses import dataclass, replace
from enum import Enum
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from types import ModuleType
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, EmptyModel, NonFiniteInput


class Sense(Enum):
    MAX = "max"
    MIN = "min"


class Relation(Enum):
    LE = "<="
    GE = ">="
    EQ = "="


class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


_FLIPPED = {Relation.LE: Relation.GE, Relation.GE: Relation.LE, Relation.EQ: Relation.EQ}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Default feasibility tolerance, scaled per row by (1 + |rhs|).
FEASIBILITY_TOL = 1e-6
# Singular values and LU pivots below this times the largest count as zero.
SINGULAR_RTOL = 1e-10


@functools.cache
def lapack() -> ModuleType:
    """scipy's compiled LAPACK wrappers, the extension scipy.linalg._flapack
    that scipy.linalg.lapack re-exports, loaded without importing the
    scipy.linalg package, whose import took about half of a CLI run.

    ``import scipy`` runs first, for scipy's own set-up (the DLL search path
    on Windows wheels). The extension registers itself in sys.modules, so its
    functions are the very objects scipy.linalg.lapack exports, whichever of
    the two is loaded first. There is no fallback: ImportError when scipy
    keeps no such extension.
    """
    import scipy

    finder = FileFinder(os.path.join(scipy.__path__[0], "linalg"), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled linalg._flapack in {finder.path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row_budget(b: np.ndarray) -> np.ndarray:
    """How far each row with right-hand side b may miss: FEASIBILITY_TOL * (1 + |b|)."""
    return FEASIBILITY_TOL * (1.0 + np.abs(b))


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got array of shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput("vector contains NaN or infinity")
    return v


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteInput("matrix contains NaN or infinity")
    return m


@dataclass(frozen=True, eq=False)
class LPModel:
    """A validated LP in canonical shape: row i reads a[i] . x  relations[i]  b[i].

    ``a`` is the m x n row matrix, ``b`` the m right-hand sides (all >= 0:
    rows given with a negative rhs were sign flipped, relation reversed) and
    ``row_names[i]`` names row i. The objective keeps its native sense.
    """

    sense: Sense
    variable_names: tuple[str, ...]
    objective: np.ndarray
    row_names: tuple[str, ...]
    a: np.ndarray
    relations: tuple[Relation, ...]
    b: np.ndarray

    @property
    def n_vars(self) -> int:
        return len(self.variable_names)

    @property
    def n_constraints(self) -> int:
        return len(self.row_names)

    def __eq__(self, other):
        if not isinstance(other, LPModel):
            return NotImplemented
        return (
            self.sense is other.sense
            and self.variable_names == other.variable_names
            and np.array_equal(self.objective, other.objective)
            and self.row_names == other.row_names
            and np.array_equal(self.a, other.a)
            and self.relations == other.relations
            and np.array_equal(self.b, other.b)
        )


def _coerce_sense(sense) -> Sense:
    if isinstance(sense, Sense):
        return sense
    return Sense(str(sense).lower())


def _coerce_relation(rel) -> Relation:
    if isinstance(rel, Relation):
        return rel
    return Relation(str(rel))


def _coefficients(values, owner: str) -> np.ndarray:
    try:
        return as_vector(values)
    except NonFiniteInput:
        raise NonFiniteInput(f"{owner} has a non-finite coefficient") from None


def build_model(sense, names, objective, constraints) -> LPModel:
    """Validate and canonicalize a model.

    ``constraints`` is an iterable of (coeffs, relation, rhs) or
    (name, coeffs, relation, rhs) tuples; unnamed rows get names c1, c2, ...
    The rows are stacked into one matrix, and rows with a negative rhs are
    multiplied by -1 with the relation flipped, so the stored model always
    has b >= 0.
    """
    sense = _coerce_sense(sense)
    names = tuple(str(n) for n in names)
    if not names:
        raise EmptyModel("model has no variables")
    for name in names:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid variable name {name!r}")
    if len(set(names)) != len(names):
        raise ValueError("variable names are not unique")

    objective = _coefficients(objective, "objective")
    if objective.shape[0] != len(names):
        raise DimensionMismatch(
            f"objective has {objective.shape[0]} coefficients for {len(names)} variables"
        )

    row_names: dict[str, None] = {}  # insertion-ordered, O(1) duplicate test
    rows: list[np.ndarray] = []
    relations: list[Relation] = []
    rhs_values: list[float] = []
    for k, item in enumerate(constraints):
        if len(item) == 4:
            name, coeffs, relation, rhs = item
        else:
            coeffs, relation, rhs = item
            name = f"c{k + 1}"
        name = str(name)
        if not _NAME_RE.match(name) or name in ("max", "min"):
            raise ValueError(f"invalid constraint name {name!r}")
        if name in row_names:
            raise ValueError(f"duplicate constraint name {name!r}")
        row_names[name] = None
        coeffs = _coefficients(coeffs, f"constraint {name!r}")
        if coeffs.shape[0] != len(names):
            raise DimensionMismatch(
                f"constraint {name!r} has {coeffs.shape[0]} coefficients "
                f"for {len(names)} variables"
            )
        rows.append(coeffs)
        relations.append(_coerce_relation(relation))
        rhs = float(rhs)
        if not np.isfinite(rhs):
            raise NonFiniteInput(f"constraint {name!r} has a non-finite rhs")
        rhs_values.append(rhs)
    if not rows:
        raise EmptyModel("model has no constraints")
    a = np.array(rows)
    b = np.array(rhs_values)
    flip = b < 0.0
    a[flip] = -a[flip]
    # abs also turns a -0.0 rhs into 0.0
    relations = [_FLIPPED[rel] if f else rel for rel, f in zip(relations, flip)]
    return LPModel(sense, names, objective, tuple(row_names), a, tuple(relations), np.abs(b))


class ResidualReport(NamedTuple):
    residuals: np.ndarray
    feasible: bool


def constraint_residuals(model: LPModel, x) -> ResidualReport:
    """Per-row slack toward each constraint, plus feasibility.

    Residuals are oriented so nonnegative means satisfied: rhs - lhs for <=,
    lhs - rhs for >=, and |lhs - rhs| for equalities (which must stay within
    tolerance). The per-row tolerance is row_budget(rhs); x itself must be
    >= -FEASIBILITY_TOL entrywise.
    """
    x = as_vector(x)
    if x.shape[0] != model.n_vars:
        raise DimensionMismatch(
            f"point has {x.shape[0]} entries for {model.n_vars} variables"
        )
    relations = np.array(model.relations)
    gap = model.a @ x - model.b
    residuals = np.where(
        relations == Relation.LE, -gap, np.where(relations == Relation.GE, gap, np.abs(gap))
    )
    row_tol = row_budget(model.b)
    satisfied = np.where(relations == Relation.EQ, residuals <= row_tol, residuals >= -row_tol)
    return ResidualReport(residuals, bool(np.all(x >= -FEASIBILITY_TOL) and np.all(satisfied)))


@dataclass(frozen=True, eq=False)
class StandardForm:
    """Equality form A x = b, x >= 0 with the objective in maximize sense.

    Column j < n_structural is variable j. Column n_structural + k is the
    slack (+1 on its row, for <=) or surplus (-1, for >=) column of row
    ``slack_rows[k]``; these columns follow the rows' order, and equality rows
    have none.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    n_structural: int
    slack_rows: np.ndarray
    negated: bool

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def n_cols(self) -> int:
        return self.a.shape[1]

    @property
    def equality_rows(self) -> np.ndarray:
        """The = rows, ascending. By np.delete: np.setdiff1d's first call
        imports numpy.ma (about 16 ms under numpy 2) inside a timed solve."""
        return np.delete(np.arange(self.n_rows), self.slack_rows)


def to_equality_form(model: LPModel) -> StandardForm:
    """Append one slack (<=) or surplus (>=) column per inequality row.

    Added columns come after the structural block, in row order. Equality
    rows add nothing; each nonzero one is multiplied, rhs included, by the
    power of two that puts its largest |entry| in [1, 2). The product is
    exact, and since an equality row owns no column no variable changes
    units; NonFiniteInput when a scaled rhs would overflow. A minimize
    objective is negated here (flag recorded) so downstream code always
    maximizes.
    """
    n = model.n_vars
    relations = np.array(model.relations)
    eq = relations == Relation.EQ
    largest = np.abs(model.a).max(axis=1)
    shift = np.where(eq & (largest > 0.0), 1 - np.frexp(largest)[1], 0)
    # |b| = f * 2^e with f < 1 stays finite times 2^shift while e + shift <= 1024
    overflow = np.frexp(model.b)[1] + shift > 1024
    if overflow.any():
        name = model.row_names[int(np.argmax(overflow))]
        raise NonFiniteInput(f"constraint {name!r} overflows the float range when scaled")
    slack_rows = np.flatnonzero(~eq)
    a = np.zeros((model.n_constraints, n + slack_rows.size))
    a[:, :n] = np.ldexp(model.a, shift[:, np.newaxis])
    signs = np.where(relations[slack_rows] == Relation.LE, 1.0, -1.0)
    a[slack_rows, n + np.arange(slack_rows.size)] = signs
    c = np.zeros(a.shape[1])
    negated = model.sense is Sense.MIN
    c[:n] = -model.objective if negated else model.objective
    return StandardForm(a, np.ldexp(model.b, shift), c, n, slack_rows, negated)


def independent_rows(form: StandardForm) -> StandardForm | None:
    """The form on a maximal independent set of its rows (the form itself when
    none is dependent), or None when its equality rows are inconsistent.

    Only equality rows are tested (an inequality row owns its slack or surplus
    column); to_equality_form has scaled each to a largest entry in [1, 2). A
    dropped row must hold within row_budget(b_row) at the kept rows'
    least-squares solution. NonFiniteInput when a, b or c holds NaN or
    infinity, as a form built by hand can: the affine engine and the oracle
    both start here, so neither computes with such a form.
    """
    as_matrix(form.a)
    as_vector(form.b)
    as_vector(form.c)
    eq = form.equality_rows
    if eq.size == 0:
        return form
    a = form.a[eq]
    s = np.linalg.svd(a, compute_uv=False)
    rank = int(np.count_nonzero(s > SINGULAR_RTOL * s[0]))
    if rank == eq.size:
        return form
    # LAPACK's column-pivoted QR of A^T, called as scipy.linalg.qr calls it:
    # a workspace query, then the factorization; the pivots are 1-based.
    geqp3 = lapack().dgeqp3
    work = geqp3(a.T, lwork=-1)[3]
    piv = geqp3(a.T, lwork=int(work[0]))[1] - 1
    kept, dropped = eq[piv[:rank]], eq[piv[rank:]]
    x = np.linalg.lstsq(form.a[kept], form.b[kept], rcond=None)[0]
    gap = np.abs(form.a[dropped] @ x - form.b[dropped])
    if np.any(gap > row_budget(form.b[dropped])):
        return None
    keep = np.sort(np.concatenate([form.slack_rows, kept]))
    slack_rows = np.searchsorted(keep, form.slack_rows)
    return replace(form, a=form.a[keep], b=form.b[keep], slack_rows=slack_rows)


@dataclass(frozen=True, eq=False)
class BigMForm:
    """Equality form plus one artificial variable per >= or = row.

    Artificial k, numbered ``base.n_cols + k``, is the unit column of row
    ``artificial_rows[k]``, the rows in increasing order. It costs -M for a
    symbolically infinite penalty M and nothing finite. simplex.init_tableau
    stores no column for it: it starts basic and is discarded once it leaves.
    """

    base: StandardForm
    artificial_rows: np.ndarray


def to_big_m_form(model: LPModel) -> BigMForm:
    """The equality form and the rows that get an artificial: every >= or =
    row, so that the slack columns and the artificials' unit columns together
    form an exact identity, the simplex engine's starting basis.
    """
    artificial_rows = np.flatnonzero(np.array(model.relations) != Relation.LE)
    return BigMForm(to_equality_form(model), artificial_rows)


@dataclass(frozen=True, eq=False)
class Solution:
    """Result of one engine run; build it with solution_at.

    ``x`` holds the structural variables (None when the status carries no
    point), ``objective`` is model.objective @ x in the model's native sense,
    and ``binding`` lists the original rows that hold with equality.
    """

    status: Status
    x: np.ndarray | None
    objective: float | None
    iterations: int
    binding: tuple[int, ...]


def native_objective(value: float, negated: bool) -> float:
    """A maximize-sense objective in the model's own sense; never -0.0 when negated."""
    return 0.0 - value if negated else value


def solution_at(
    form: StandardForm, status: Status, iterations: int, x_full: np.ndarray | None = None
) -> Solution:
    """The Solution every engine reports for an equality-form point, or for none.

    ``x`` is the structural block of ``x_full`` and ``objective`` is c . x in
    the model's native sense, equal to model.objective @ x bit for bit.
    Equality rows always bind; an inequality row binds when its slack or
    surplus is within row_budget(b_row) of zero.
    """
    if x_full is None:
        return Solution(status, None, None, iterations, ())
    n = form.n_structural
    x = x_full[:n].copy()
    objective = native_objective(float(form.c[:n] @ x), form.negated)
    rows = form.slack_rows
    binding = np.ones(form.n_rows, dtype=bool)
    binding[rows] = np.abs(x_full[n:]) <= row_budget(form.b[rows])
    return Solution(status, x, objective, iterations, tuple(np.flatnonzero(binding).tolist()))
