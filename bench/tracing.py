"""Traced runs: timing and counting wrappers on lpduet's module attributes.

Each wrapper replaces a public function on the module that calls it (for
example ``lpduet.affine.gram``, which ``projected_direction`` calls), so the
program's own code is unchanged. Spans nest: a layer's self time is its span
minus the spans of wrapped functions called inside it. Wrappers are restored
when the ``installed`` block ends, also on error. A function that a later
version of lpduet no longer has is recorded as absent and its metrics read 0.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module, attribute, self-time metric). Functions the benchmark calls itself
# (parse_lp_text, solve_simplex, ...) are timed as spans around those calls.
WRAPPED = (
    ("lpduet.lp_format", "build_model", "model.build_s"),
    ("lpduet.simplex", "to_big_m_form", "model.big_m_form_s"),
    ("lpduet.model", "to_equality_form", "model.equality_form_s"),
    ("lpduet.simplex", "init_tableau", "simplex.init_s"),
    ("lpduet.simplex", "select_entering", "simplex.entering_s"),
    ("lpduet.simplex", "select_leaving", "simplex.leaving_s"),
    ("lpduet.simplex", "pivot", "simplex.pivot_s"),
    ("lpduet.affine", "find_interior_point", "affine.phase1_s"),
    ("lpduet.affine", "projected_direction", "affine.direction_s"),
    ("lpduet.affine", "step", "affine.step_s"),
    ("lpduet.affine", "gram", "linalg.gram_s"),
    ("lpduet.affine", "solve_spd", "linalg.solve_spd_s"),
    ("lpduet.oracle", "lu_factor", "oracle.lu_s"),
    ("lpduet.oracle", "lu_solve", "oracle.lu_s"),
)

# Per-layer metrics in report order: (name, unit). Times are per check,
# counts are totals over one pass of the workload's models.
PER_LAYER = (
    ("lp_format.parse_s", "s"),
    ("model.build_s", "s"),
    ("model.equality_form_s", "s"),
    ("model.big_m_form_s", "s"),
    ("simplex.pivots", "count"),
    ("simplex.degenerate_pivots", "count"),
    ("simplex.bland_pivots", "count"),
    ("simplex.pivot_s", "s"),
    ("simplex.entering_s", "s"),
    ("simplex.leaving_s", "s"),
    ("simplex.init_s", "s"),
    ("simplex.self_s", "s"),
    ("affine.iterations", "count"),
    ("affine.phase1_iterations", "count"),
    ("affine.phase1_s", "s"),
    ("affine.direction_s", "s"),
    ("affine.step_s", "s"),
    ("affine.snaps", "count"),
    ("affine.self_s", "s"),
    ("linalg.gram_calls", "count"),
    ("linalg.gram_s", "s"),
    ("linalg.solve_spd_calls", "count"),
    ("linalg.solve_spd_s", "s"),
    ("linalg.ridge_retries", "count"),
    ("oracle.candidates", "count"),
    ("oracle.nonsingular", "count"),
    ("oracle.nonsingular_ratio", "ratio"),
    ("oracle.lu_s", "s"),
    ("oracle.self_s", "s"),
    ("oracle.refusals", "count"),
    ("oracle.refusal_s", "s"),
    ("reporting.report_s", "s"),
    ("cli.run_s", "s"),
)


class Tracer:
    """Collects self times per metric and event counts for one check at a time."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [attribute, start, child seconds]

    def reset(self) -> None:
        self.times = {}
        self.counts = {}

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def inside(self, attribute: str) -> bool:
        return any(frame[0] == attribute for frame in self._stack)

    @contextmanager
    def span(self, metric: str, attribute: str = ""):
        frame = [attribute, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            total = time.perf_counter() - frame[1]
            self.times[metric] = self.times.get(metric, 0.0) + total - frame[2]
            if self._stack:
                self._stack[-1][2] += total

    def _wrap(self, attribute: str, metric: str, fn):
        on_return = _ON_RETURN.get(attribute)
        on_raise = _ON_RAISE.get(attribute)

        def wrapper(*args, **kwargs):
            with self.span(metric, attribute):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if on_raise is not None:
                        on_raise(self, exc)
                    raise
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every WRAPPED attribute that exists; restore them all after."""
        saved = []
        self.absent = []
        try:
            for module_name, attribute, metric in WRAPPED:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    module = None
                fn = getattr(module, attribute, None)
                if fn is None:
                    self.absent.append(f"{module_name}.{attribute}")
                    continue
                saved.append((module, attribute, fn))
                setattr(module, attribute, self._wrap(attribute, metric, fn))
            yield self
        finally:
            for module, attribute, fn in reversed(saved):
                setattr(module, attribute, fn)


def _entering(tracer: Tracer, args, kwargs, result) -> None:
    opts = args[1] if len(args) > 1 else kwargs.get("opts")
    if result is not None and getattr(opts, "anti_cycling", None) == "bland":
        tracer.count("simplex.bland_pivots")


def _leaving(tracer: Tracer, args, kwargs, result) -> None:
    # The engine calls a pivot degenerate when the leaving row's rhs is within
    # pivot_tol * (1 + max |rhs|) of zero; the same test is made here.
    if result is None:
        return
    tableau, opts = args[0], args[2] if len(args) > 2 else kwargs.get("opts")
    rhs = getattr(tableau, "rhs", None)
    tol = getattr(opts, "pivot_tol", None)
    if rhs is not None and tol is not None:
        if rhs[result] <= tol * (1.0 + float(abs(rhs).max())):
            tracer.count("simplex.degenerate_pivots")


def _direction(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("affine.directions")
    if tracer.inside("find_interior_point"):
        tracer.count("affine.phase1_iterations")


def _counter(name: str):
    def on_return(tracer: Tracer, args, kwargs, result) -> None:
        tracer.count(name)

    return on_return


def _spd_failed(tracer: Tracer, exc: Exception) -> None:
    tracer.count("linalg.solve_spd_calls")
    if type(exc).__name__ == "NotPositiveDefinite":
        tracer.count("linalg.ridge_retries")


_ON_RETURN = {
    "select_entering": _entering,
    "select_leaving": _leaving,
    "projected_direction": _direction,
    "gram": _counter("linalg.gram_calls"),
    "solve_spd": _counter("linalg.solve_spd_calls"),
    "lu_factor": _counter("oracle.candidates"),
}
_ON_RAISE = {"solve_spd": _spd_failed}
