"""One cross-check of one model with lpduet's public functions.

Kept apart from the checks and the timing so that a child interpreter can
run a check with nothing else loaded: no scipy.optimize, no HiGHS, no
benchmark bookkeeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from lpduet import (
    TooLarge,
    brute_force_optimum,
    build_report,
    parse_lp_text,
    solve_affine,
    solve_simplex,
    to_equality_form,
    write_report_pair,
)


@dataclass(frozen=True, eq=False)
class Outcome:
    lp: object
    simplex: object
    affine: object
    oracle: object
    refused: bool
    report: str


def crosscheck(text: str, stage) -> Outcome:
    """One model to a checked answer; ``stage(name)`` times each part."""
    with stage("parse"):
        lp = parse_lp_text(text)
    with stage("simplex"):
        t0 = time.perf_counter()
        sx = solve_simplex(lp)
        sx_ms = 1e3 * (time.perf_counter() - t0)
    with stage("equality_form"):
        form = to_equality_form(lp)
    with stage("affine"):
        t0 = time.perf_counter()
        af, _ = solve_affine(form)
        af_ms = 1e3 * (time.perf_counter() - t0)
    with stage("oracle"):
        try:
            orc, refused = brute_force_optimum(form), False
        except TooLarge:
            orc, refused = None, True
    with stage("report"):
        report = write_report_pair(
            build_report("simplex", lp, sx, sx_ms),
            build_report("affine", lp, af, af_ms),
            "json",
        )
    return Outcome(lp, sx, af, orc, refused, report)
