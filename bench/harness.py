"""One benchmark run of one workload: set-up, timed cross-checks, CLI runs,
or the traced run that gives the per-layer metrics.

All loops are closed: one process, one check at a time. Every output is
checked against HiGHS and the benchmark's own arithmetic outside the timed
stages.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lpduet import run_cli

import checks
from crosscheck import Outcome, crosscheck
from reference import REF_NOMINAL_S, Bracket, reference, speed_factor
from tracing import PER_LAYER, Tracer
from workloads import LANA_LP, Model, make_models

SETUP_RUNS = 11
CLI_RUNS = 15
CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("crosscheck_s", "s"),
    ("simplex_s", "s"),
    ("affine_s", "s"),
    ("models_per_s", "1/s"),
    ("cli_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Stages of one cross-check and, in the traced run, the span each one is.
STAGE_METRIC = {
    "parse": "lp_format.parse_s",
    "simplex": "simplex.self_s",
    "equality_form": "model.equality_form_s",
    "affine": "affine.self_s",
    "oracle": "oracle.self_s",
    "report": "reporting.report_s",
}

# Child interpreters. A child may run on the other core than this process,
# and the two cores' speeds differ from moment to moment, so each child times
# the reference itself, once numpy (which lpduet needs anyway) is imported:
# before it imports lpduet, during its work and when the work is done. It
# writes "reference SPENT R0 R1 ..." to stderr on one line, SPENT being the
# seconds the readings took; the run from spawn to exit, less SPENT, is
# scaled by speed_factor of the readings.
_CHILD_CODE = """
import sys
from reference import Sampler, reference
r0 = reference()
sampler = Sampler()
with sampler.active():
    code = work()
refs = [r0, *sampler.refs, reference()]
sys.stderr.write("reference " + " ".join(map(repr, [sampler.spent, *refs])) + "\\n")
sys.exit(code)
"""
# Set-up: import lpduet and load the workload's first LP file, ready to
# solve; what a user pays before the first solve.
_SETUP_CODE = """
def work():
    from pathlib import Path
    import lpduet
    lpduet.parse_lp_text(Path(sys.argv[1]).read_text(encoding="utf-8"))
    return 0
""" + _CHILD_CODE
# The `lpduet` console script's work: run_cli on the arguments, exit with its code.
_CLI_CODE = """
def work():
    from lpduet.cli import run_cli
    return run_cli(sys.argv[1:])
""" + _CHILD_CODE
# Memory: lpduet's peak resident set while it cross-checks the workload's
# first model, with nothing of the benchmark's checks loaded. VmHWM is the
# peak of this process's own address space; ru_maxrss would also count the
# parent's, which a spawned child inherits. Prints "vmhwm <after import>
# <after the check>" in kB.
_MEMORY_CODE = """
import sys
from contextlib import nullcontext
from pathlib import Path
import lpduet
from crosscheck import crosscheck

def vmhwm():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

text = Path(sys.argv[1]).read_text(encoding="utf-8")
imported = vmhwm()
crosscheck(text, lambda name: nullcontext())
print("vmhwm", imported, vmhwm())
"""


@dataclass(frozen=True, eq=False)
class Case:
    model: Model
    text: str
    path: Path
    answer: checks.Answer
    candidates: int  # C(n, rank) of the equality form


def _point(case: Case, lp, solution) -> np.ndarray | None:
    """A solution's point in the benchmark's variable order."""
    if solution is None or solution.x is None:
        return None
    where = {name: j for j, name in enumerate(lp.variable_names)}
    x = np.asarray(solution.x, dtype=float)
    return np.array([x[where[name]] if name in where else np.nan for name in case.model.names])


def outcome_problems(case: Case, out: Outcome) -> list[str]:
    model, answer = case.model, case.answer
    sx, af, orc = out.simplex, out.affine, out.oracle
    problems = checks.engine_problems(
        model, answer, sx.status.value, sx.objective, _point(case, out.lp, sx),
        checks.EXACT_RTOL, "simplex",
    )
    problems += checks.engine_problems(
        model, answer, af.status.value, af.objective, _point(case, out.lp, af),
        checks.AFFINE_RTOL, "affine",
    )
    problems += checks.oracle_problems(
        model, answer, case.candidates, out.refused,
        None if orc is None else orc.status.value,
        None if orc is None else orc.objective,
        _point(case, out.lp, orc),
    )
    problems += checks.report_problems(
        out.report,
        [("simplex", sx.status.value, sx.objective), ("affine", af.status.value, af.objective)],
    )
    return [f"{model.name}: {p}" for p in problems]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, root: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.out_dir = root / "bench" / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.affine_gap = 0.0
        self.cases = self._make_cases()
        # Set-up and memory children work on the workload's first file; CLI
        # runs go through the files in order, so that cli_s is a median over
        # models, as the check times are.
        self.first = self.cases[0]
        self.rss_kb: dict[str, int] = {}

    def _make_cases(self) -> list[Case]:
        if self.workload == "lana":
            (model, text), = make_models("lana", self.seed, self.root)
            answer = checks.highs(model)
            self.problems += checks.lana_problems(model, answer)
            return [Case(model, text, self.root / LANA_LP, answer, checks.oracle_candidates(model))]
        lp_dir = self.out_dir / f"{self.workload}-seed{self.seed}"
        lp_dir.mkdir(exist_ok=True)
        cases = []
        for model, text in make_models(self.workload, self.seed, self.root):
            path = lp_dir / f"{model.name}.lp"
            path.write_text(text, encoding="utf-8")
            cases.append(
                Case(model, text, path, checks.highs(model), checks.oracle_candidates(model))
            )
        return cases

    # -- operations --------------------------------------------------------

    def attempt(self, op):
        """Run one operation; an exception counts it failed, not wrong."""
        self.attempted += 1
        try:
            return op()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def note(self, case: Case, out: Outcome) -> None:
        self.problems += outcome_problems(case, out)
        self.affine_gap = max(self.affine_gap, checks.relative_gap(case.answer, out.affine.objective))

    def _spawn(self, code: str, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Run a child interpreter on the checkout's sources: (raw s, process)."""
        paths = [str(self.root / "src"), str(self.root / "bench")]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, *args],
            cwd=self.root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        return time.perf_counter() - t0, proc

    def _child(self, code: str, args: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
        """A child that times the reference itself: (raw s, scaled s, process)."""
        raw, proc = self._spawn(code, args)
        lines = [line.split()[1:] for line in proc.stderr.splitlines() if line.startswith("reference ")]
        if proc.returncode not in (0, 1, 2, 3, 4) or len(lines) != 1:
            raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        spent, *refs = map(float, lines[0])
        raw -= spent
        return raw, raw * speed_factor(refs), proc

    def setup_once(self) -> tuple[float, float]:
        raw, scaled, proc = self._child(_SETUP_CODE, [str(self.first.path)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()}")
        return raw, scaled

    def _cli_cases(self) -> list[Case]:
        return [self.cases[k % len(self.cases)] for k in range(CLI_RUNS)]

    def cli_once(self, case: Case) -> tuple[float, float]:
        raw, scaled, proc = self._child(_CLI_CODE, ["solve", str(case.path), "--json"])
        self.problems += [f"{case.model.name}: {p}" for p in checks.cli_problems(
            case.model, case.answer, proc.returncode, proc.stdout)]
        return raw, scaled

    def peak_rss_once(self) -> float:
        """lpduet's peak resident set in MB over one check, in a bare child."""
        _, proc = self._spawn(_MEMORY_CODE, [str(self.first.path)])
        lines = [line.split() for line in proc.stdout.splitlines() if line.startswith("vmhwm ")]
        if proc.returncode != 0 or len(lines) != 1:
            raise RuntimeError(f"memory child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        self.rss_kb = {"after_import": int(lines[0][1]), "after_check": int(lines[0][2])}
        return self.rss_kb["after_check"] / 1024.0

    def cli_in_process(self, case: Case) -> tuple[float, float]:
        buf = io.StringIO()
        ref0 = reference()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = run_cli(["solve", str(case.path), "--json"])
        raw = time.perf_counter() - t0
        factor = speed_factor([ref0, reference()])
        self.problems += [f"{case.model.name}: {p}" for p in checks.cli_problems(
            case.model, case.answer, code, buf.getvalue())]
        return raw, raw * factor

    def bracketed(self, case: Case) -> Bracket:
        bracket = Bracket()
        self.note(case, crosscheck(case.text, bracket.stage))
        return bracket

    def traced(self, case: Case, tracer: Tracer) -> dict:
        """One check under the tracer: per-layer seconds and counts."""
        tracer.reset()
        ref0 = reference()
        t0 = time.perf_counter()
        out = crosscheck(case.text, lambda name: tracer.span(STAGE_METRIC[name]))
        raw = time.perf_counter() - t0
        factor = speed_factor([ref0, reference()])
        self.note(case, out)
        times = {k: v * factor for k, v in tracer.times.items()}
        counts = dict(tracer.counts)
        if out.refused:
            times["oracle.refusal_s"] = times.pop("oracle.self_s", 0.0)
        elif "lpduet.oracle.lu_factor" not in tracer.absent:
            factored = counts.get("oracle.candidates", 0)
            if factored != case.candidates:
                self.problems.append(
                    f"{case.model.name}: oracle factored {factored} bases, "
                    f"C(n, rank) = {case.candidates}"
                )
        counts["simplex.pivots"] = out.simplex.iterations
        counts["affine.iterations"] = out.affine.iterations
        counts["oracle.nonsingular"] = 0 if out.oracle is None else out.oracle.iterations
        counts["oracle.refusals"] = int(out.refused)
        return {"raw_s": raw, "scaled_s": raw * factor, "times": times, "counts": counts}

    def _pass(self, op) -> list:
        """One whole pass over the cases: op(case) for each, None where it raised."""
        return [self.attempt(lambda: op(case)) for case in self.cases]

    # -- the two kinds of run -----------------------------------------------

    def _rounds(self, one_round) -> int:
        """Whole passes over the cases: at least one, and no more than fit in
        ``seconds`` at the mean pass time so far."""
        start = time.perf_counter()
        rounds = 0
        while True:
            one_round()
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > self.seconds:
                return rounds

    def timed(self) -> tuple[dict, dict]:
        setups = [s for s in (self.attempt(self.setup_once) for _ in range(SETUP_RUNS)) if s]
        peak_mb = self.attempt(self.peak_rss_once) or 0.0

        # Warm-up: one traced check, untimed, which also counts the oracle's
        # factorizations against C(n, rank).
        tracer = Tracer()
        with tracer.installed():
            self.attempt(lambda: self.traced(self.cases[0], tracer))

        passes: list[list] = []
        rounds = self._rounds(lambda: passes.append(self._pass(self.bracketed)))
        brackets: list[Bracket] = [b for p in passes for b in p if b is not None]
        clis = [self.attempt(lambda c=c: self.cli_once(c)) for c in self._cli_cases()]
        clis = [c for c in clis if c]

        def figures(scaled: bool) -> dict:
            pick = 1 if scaled else 0
            stages = [b.scaled if scaled else b.raw for b in brackets]
            totals = [sum(st.values()) for st in stages]
            return {
                "setup_s": _median(s[pick] for s in setups),
                "crosscheck_s": _median(totals),
                "simplex_s": _median(st["simplex"] for st in stages),
                "affine_s": _median(st["equality_form"] + st["affine"] for st in stages),
                "models_per_s": len(totals) / sum(totals) if totals else 0.0,
                "cli_s": _median(c[pick] for c in clis),
                "peak_rss_mb": peak_mb,
            }

        raw, scaled = figures(False), figures(True)
        details = {
            "rounds": rounds,
            "checks": len(brackets),
            "raw": raw,
            "scaled": scaled,
            "reference_median_s": _median(r for b in brackets for r in b.refs),
            "reference_nominal_s": REF_NOMINAL_S,
            "lpduet_vmhwm_kb": self.rss_kb,
            "per_check": [{"raw": b.raw, "scaled": b.scaled, "refs": b.refs} for b in brackets],
        }
        return {
            name: {"value": scaled[name], "unit": unit}
            for name, unit in END_TO_END
        }, details

    def traced_run(self) -> tuple[dict, dict]:
        untraced = self._pass(self.bracketed)
        tracer = Tracer()
        passes: list[list] = []
        with tracer.installed():
            rounds = self._rounds(lambda: passes.append(self._pass(lambda c: self.traced(c, tracer))))
        records = [r for p in passes for r in p if r is not None]
        clis = [self.attempt(lambda c=c: self.cli_in_process(c)) for c in self._cli_cases()]

        first_pass = passes[0]
        counts: dict[str, float] = {}
        for r in first_pass:
            for k, v in (r or {"counts": {}})["counts"].items():
                counts[k] = counts.get(k, 0) + v
        counts["affine.snaps"] = counts.get("linalg.gram_calls", 0) - counts.pop("affine.directions", 0)
        candidates = counts.get("oracle.candidates", 0)
        counts["oracle.nonsingular_ratio"] = (
            counts.get("oracle.nonsingular", 0) / candidates if candidates else 0.0
        )

        metrics = {}
        for name, unit in PER_LAYER:
            if name == "cli.run_s":
                value = _median(c[1] for c in clis if c)
            elif unit == "s":
                value = _median(r["times"].get(name, 0.0) for r in records)
            else:
                value = counts.get(name, 0)
            metrics[name] = {"value": value, "unit": unit}

        overheads = [
            r["scaled_s"] / u.total() - 1.0
            for r, u in zip(first_pass, untraced) if r is not None and u is not None
        ]
        details = {
            "rounds": rounds,
            "checks": len(records),
            "absent": tracer.absent,
            "overhead": _median(overheads),
            "traced_check_s": _median(r["scaled_s"] for r in records),
            "untraced_check_s": _median(u.total() for u in untraced if u is not None),
        }
        return metrics, details


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload; returns the result object the benchmark prints."""
    bench = Run(workload, seed, seconds, root)
    metrics, details = bench.traced_run() if trace else bench.timed()
    details.update(
        workload=workload, seed=seed, seconds=seconds, trace=trace,
        largest_affine_gap=bench.affine_gap,
        problems=bench.problems, machine=machine_facts(),
    )
    name = f"{workload}-seed{seed}-{'trace' if trace else 'e2e'}.json"
    (bench.out_dir / name).write_text(json.dumps(details, indent=1), encoding="utf-8")
    _summary(details, metrics)
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = ""
    with contextlib.suppress(TypeError, KeyError):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "")
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _summary(details: dict, metrics: dict) -> None:
    err = sys.stderr
    print(f"{details['workload']} seed {details['seed']}: {details['checks']} checks in "
          f"{details['rounds']} rounds; largest affine objective gap to HiGHS "
          f"{details['largest_affine_gap']:.3g} (relative)", file=err)
    if details["trace"]:
        print(f"tracing overhead {100 * details['overhead']:.1f}% per check; "
              f"absent: {', '.join(details['absent']) or 'none'}", file=err)
    else:
        print(f"times at reference speed; "
              f"reference median {details['reference_median_s']:.6f} s, "
              f"nominal {details['reference_nominal_s']:.6f} s", file=err)
        rss = details["lpduet_vmhwm_kb"]
        if rss:
            print(f"lpduet peak resident set: {rss['after_import'] / 1024:.1f} MB after import, "
                  f"{rss['after_check'] / 1024:.1f} MB after one check", file=err)
        for name in details["raw"]:
            print(f"  {name:14s} scaled {details['scaled'][name]:.6g}  raw {details['raw'][name]:.6g}",
                  file=err)
    for p in details["problems"][:20]:
        print(f"PROBLEM {p}", file=err)
