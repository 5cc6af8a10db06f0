"""Command-line interface: exit codes, JSON output, trace files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lpduet.affine
from conftest import near_duplicate_rows_lp, rng_for
from lpduet import IPM_TRACE_HEADER, SIMPLEX_TRACE_HEADER, lana_lp_path, run_cli, write_lp_text

DATA = Path(__file__).resolve().parent / "data"
TOY = "max: 3x + 2y;\ncap: x + y <= 4;\nwall: x <= 2;\n"
UNBOUNDED = "max: x;\nfloor: x >= 1;\n"
INFEASIBLE = "max: x;\nlow: x >= 2;\nhigh: x <= 1;\n"
INCONSISTENT = "max: x;\ne1: x = 1;\ne2: x = 2;\n"


def write(tmp_path, text):
    path = tmp_path / "model.lp"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_solve_simplex_json(tmp_path, capsys):
    code = run_cli(["solve", write(tmp_path, TOY), "--method", "simplex", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.endswith("}\n")
    report = json.loads(out)
    assert report["method"] == "simplex"
    assert report["status"] == "optimal"
    assert report["objective"] == pytest.approx(10.0)
    assert report["variables"] == [
        {"name": "x", "value": pytest.approx(2.0)},
        {"name": "y", "value": pytest.approx(2.0)},
    ]


def test_solve_defaults_to_both_methods(tmp_path, capsys):
    code = run_cli(["solve", write(tmp_path, TOY), "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.endswith("]\n")
    reports = json.loads(out)
    assert [r["method"] for r in reports] == ["simplex", "affine"]
    assert reports[1]["objective"] == pytest.approx(10.0, rel=1e-5)


def test_solve_human_output_mentions_binding_rows(tmp_path, capsys):
    code = run_cli(["solve", write(tmp_path, TOY), "--method", "simplex"])
    assert code == 0
    out = capsys.readouterr().out
    assert "status:     optimal" in out
    assert "binding: cap, wall" in out


def test_solve_shipped_lana_file(capsys):
    code = run_cli(["solve", str(lana_lp_path()), "--method", "simplex", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.endswith("}\n")
    report = json.loads(out)
    assert report["objective"] == pytest.approx(765056.25, rel=1e-9)


def test_unbounded_exit_code(tmp_path, capsys):
    assert run_cli(["solve", write(tmp_path, UNBOUNDED)]) == 3


def test_affine_reports_a_ray_whose_direction_holds_rounding_noise(tmp_path, capsys):
    # At the 7th iterate the most negative direction component is -1.2e-14 of
    # the largest; a step on it overflowed x and the affine engine errored.
    text = "max: x + y;\nc1: x - y <= 1;\nc2: y >= 2;\n"
    assert run_cli(["solve", write(tmp_path, text), "--json"]) == 3
    simplex, affine = json.loads(capsys.readouterr().out)
    assert simplex["status"] == affine["status"] == "unbounded"
    assert affine["iterations"] == 7


def test_infeasible_exit_code(tmp_path, capsys):
    assert run_cli(["solve", write(tmp_path, INFEASIBLE), "--method", "simplex"]) == 2


def affine_report(out):
    reports = json.loads(out)
    return reports[-1] if isinstance(reports, list) else reports


def counting_directions(monkeypatch):
    calls = []
    direction = lpduet.affine.projected_direction

    def counted(*args):
        calls.append(args)
        return direction(*args)

    monkeypatch.setattr(lpduet.affine, "projected_direction", counted)
    return calls


@pytest.mark.parametrize("method", ["affine", "both"])
def test_failed_phase_one_reports_its_iterations(tmp_path, capsys, monkeypatch, method):
    directions = counting_directions(monkeypatch)
    code = run_cli(["solve", write(tmp_path, INFEASIBLE), "--method", method, "--json"])
    report = affine_report(capsys.readouterr().out)
    assert code == 2
    assert report["method"] == "affine"
    assert report["status"] == "infeasible"
    assert report["iterations"] == len(directions) > 0


@pytest.mark.parametrize("method", ["affine", "both"])
def test_inconsistent_rows_report_no_affine_iterations(tmp_path, capsys, monkeypatch, method):
    directions = counting_directions(monkeypatch)
    code = run_cli(["solve", write(tmp_path, INCONSISTENT), "--method", method, "--json"])
    report = affine_report(capsys.readouterr().out)
    assert code == 2
    assert report["method"] == "affine"
    assert report["status"] == "infeasible"
    assert report["iterations"] == 0
    assert directions == []  # phase 1 never ran


def test_iteration_limit_exit_code(tmp_path, capsys):
    path = str(lana_lp_path())
    assert run_cli(["solve", path, "--method", "simplex", "--max-iter", "1"]) == 4


def test_missing_file_exit_code(capsys):
    assert run_cli(["solve", "/no/such/file.lp"]) == 1
    err = capsys.readouterr().err
    assert "/no/such/file.lp" in err


def test_parse_error_reports_position(tmp_path, capsys):
    code = run_cli(["solve", write(tmp_path, "max: x;\nrow: x ? 4;\n")])
    assert code == 1
    assert "line 2, column 8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, says",
    [
        # rhs overflows to inf
        (b"max: x;\nc: x <= 1e999;\n", "constraint 'c' has a non-finite rhs"),
        # terms sum to -inf
        (b"max: x;\nc: x - 1e308 y - 1e308 y <= 1;\n", "constraint 'c' has a non-finite coefficient"),
        (b"\xff\xfemax: x;\nc: x <= 1;\n", "cannot read"),  # not UTF-8
        # ||b|| overflows in the affine engine; the simplex still reports
        (b"max: x;\nc: x <= 1e308;\nd: x <= 1e308;\n", "affine: arithmetic left the float range"),
        # scaling e to a largest entry in [1, 2) takes its rhs past the float range
        (b"max: x;\ne: 1e-300 x = 1e10;\n", "constraint 'e' overflows the float range when scaled"),
    ],
    ids=["infinite-rhs", "infinite-coefficient-sum", "not-utf8", "overflowing-norm", "overflowing-row-scale"],
)
def test_bad_file_is_an_error_not_a_traceback(tmp_path, capsys, content, says):
    path = tmp_path / "bad.lp"
    path.write_bytes(content)
    assert run_cli(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert all(line.startswith("error:") for line in err.splitlines())
    assert says in err
    assert "Traceback" not in err


def test_usage_error_exit_code(capsys):
    assert run_cli([]) == 1
    assert run_cli(["solve"]) == 1


def test_alpha_is_used_as_given(capsys):
    code = run_cli(["solve", str(lana_lp_path()), "--method", "affine", "--alpha", "0.99", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "optimal"
    assert report["iterations"] == 7  # alpha 0.95 takes 9


def test_alpha_outside_unit_interval_is_a_usage_error(tmp_path, capsys):
    code = run_cli(
        ["solve", write(tmp_path, TOY), "--method", "affine", "--alpha", "0"]
    )
    assert code == 1
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"), ("--max-iter", "-5"), ("--max-iter", "0")],
)
def test_nonpositive_tol_or_max_iter_is_a_usage_error(tmp_path, capsys, flag, value):
    code = run_cli(["solve", write(tmp_path, TOY), "--method", "affine", flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value, says",
    [("--alpha", "abc", "is not a number"), ("--max-iter", "2.5", "is not an integer")],
)
def test_unparsable_flag_value_is_a_usage_error(tmp_path, capsys, flag, value, says):
    code = run_cli(["solve", write(tmp_path, TOY), flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{flag}: {value!r} {says}" in err
    assert "Traceback" not in err


def test_affine_trace_file(tmp_path, capsys):
    target = tmp_path / "trace.csv"
    code = run_cli(
        [
            "solve",
            write(tmp_path, TOY),
            "--method",
            "affine",
            "--trace",
            str(target),
        ]
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == IPM_TRACE_HEADER
    assert lines[1].startswith("0,")


def test_simplex_trace_file(tmp_path, capsys):
    target = tmp_path / "trace.csv"
    code = run_cli(
        [
            "solve",
            write(tmp_path, TOY),
            "--method",
            "simplex",
            "--trace",
            str(target),
        ]
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == SIMPLEX_TRACE_HEADER
    assert len(lines) == 3  # two pivots


def test_simplex_trace_objective_is_in_the_model_sense(tmp_path, capsys):
    model = write(tmp_path, "min: x + y;\nc: x + y >= 2;\nd: x <= 5;\n")
    code = run_cli(["solve", model, "--json", "--trace", str(tmp_path / "run.csv")])
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["objective"] for r in reports] == [2.0, pytest.approx(2.0, rel=1e-6)]
    simplex = (tmp_path / "run.simplex.csv").read_text().splitlines()
    assert simplex == [SIMPLEX_TRACE_HEADER, "1,2.0,0,4"]
    affine = (tmp_path / "run.affine.csv").read_text().splitlines()
    assert float(affine[-1].split(",")[1]) == pytest.approx(2.0, rel=1e-6)


def test_min_trace_objective_at_zero_reads_positive_zero(tmp_path, capsys):
    # The engines maximize -objective; turning 0.0 back must give 0.0, as the
    # report does, not -0.0.
    flat = write(tmp_path, "min: 0 x + 0 y;\nc1: x + y <= 4;\n")
    trace = tmp_path / "flat.csv"
    assert run_cli(["solve", flat, "--method", "affine", "--json", "--trace", str(trace)]) == 0
    assert repr(json.loads(capsys.readouterr().out)["objective"]) == "0.0"
    rows = trace.read_text().splitlines()[1:]
    assert rows and {row.split(",")[1] for row in rows} == {"0.0"}
    tied = write(tmp_path, "min: x + y;\nc1: x + y >= 2;\nc2: x - y = 0;\n")
    trace = tmp_path / "tied.csv"
    assert run_cli(["solve", tied, "--method", "simplex", "--trace", str(trace)]) == 0
    assert trace.read_text().splitlines() == [SIMPLEX_TRACE_HEADER, "1,0.0,0,4", "2,2.0,1,3"]


def test_both_methods_trace_suffixing(tmp_path, capsys):
    target = tmp_path / "run.csv"
    code = run_cli(["solve", write(tmp_path, TOY), "--trace", str(target)])
    assert code == 0
    simplex = tmp_path / "run.simplex.csv"
    affine = tmp_path / "run.affine.csv"
    assert simplex.exists() and affine.exists()
    assert simplex.read_text().splitlines()[0] == SIMPLEX_TRACE_HEADER
    assert affine.read_text().splitlines()[0] == IPM_TRACE_HEADER


def test_both_methods_trace_bytes_are_pinned(tmp_path, capsys):
    target = tmp_path / "run.csv"
    code = run_cli(["solve", write(tmp_path, TOY), "--method", "both", "--trace", str(target)])
    assert code == 0
    for method in ("simplex", "affine"):
        written = (tmp_path / f"run.{method}.csv").read_bytes()
        assert written == (DATA / f"toy_trace.{method}.csv").read_bytes()


def test_lana_reports_are_pinned(capsys):
    assert run_cli(["lana", "--json"]) == 0
    pinned = json.loads((DATA / "lana_reports.json").read_text(encoding="utf-8"))
    assert without_wall_time(capsys.readouterr().out) == pinned


def _without_wall_time(text):
    return [line for line in text.splitlines() if not line.startswith("wall time:")]


def test_lana_subcommand(capsys):
    code = run_cli(["lana"])
    assert code == 0
    out = capsys.readouterr().out
    assert "simplex" in out and "affine" in out
    assert "765056.25" in out
    # The same report pair as `solve` on the bundled file with its defaults.
    assert run_cli(["solve", str(lana_lp_path())]) == 0
    assert _without_wall_time(out) == _without_wall_time(capsys.readouterr().out)


def test_lana_subcommand_json(capsys):
    code = run_cli(["lana", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.endswith("]\n")
    reports = json.loads(out)
    assert [r["method"] for r in reports] == ["simplex", "affine"]
    assert reports[0]["objective"] == pytest.approx(765056.25, rel=1e-9)
    assert reports[1]["objective"] == pytest.approx(765056.25, rel=1e-4)


def check_python_m_solves_lana(module):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", module, "solve", str(lana_lp_path()), "--method", "simplex", "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.endswith("}\n")
    assert json.loads(proc.stdout)["objective"] == pytest.approx(765056.25, rel=1e-9)


def test_python_m_lpduet_runs_the_cli():
    check_python_m_solves_lana("lpduet")


def test_python_m_lpduet_cli_runs_without_a_runpy_warning():
    # runpy warns when the package import has already loaded lpduet.cli.
    check_python_m_solves_lana("lpduet.cli")


def without_wall_time(text):
    reports = json.loads(text)
    for report in reports if isinstance(reports, list) else [reports]:
        report.pop("wall_time_ms")
    return reports


@pytest.mark.parametrize("method", ["affine", "both"])
def test_missing_affine_trace_is_reported(tmp_path, capsys, method):
    model = write(tmp_path, INFEASIBLE)
    plain = run_cli(["solve", model, "--method", method, "--json"])
    plain_out, plain_err = capsys.readouterr()
    target = tmp_path / "run.csv"
    code = run_cli(["solve", model, "--method", method, "--json", "--trace", str(target)])
    out, err = capsys.readouterr()
    assert code == plain == 2
    assert without_wall_time(out) == without_wall_time(plain_out)
    assert "no affine trace written" not in plain_err
    assert err.startswith(plain_err)
    assert err[len(plain_err):] == (
        "warning: no affine trace written: no interior point was found\n"
    )
    written = sorted(p.name for p in tmp_path.glob("run*.csv"))
    assert written == (["run.simplex.csv"] if method == "both" else [])


def test_missing_simplex_trace_is_reported(tmp_path, capsys):
    target = tmp_path / "run.csv"
    code = run_cli(["solve", write(tmp_path, "max: -x;\nc: x <= 1;\n"), "--method", "simplex",
                    "--trace", str(target)])
    out, err = capsys.readouterr()
    assert code == 0
    assert "iterations: 0" in out
    assert err == "warning: no simplex trace written: the simplex made no pivot\n"
    assert not list(tmp_path.glob("run*.csv"))


@pytest.mark.parametrize("method", ["simplex", "affine", "both"])
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_trace_is_an_error_not_a_traceback(tmp_path, capsys, where, method):
    target = tmp_path / "no" / "t.csv"
    if where == "a-directory":
        target = tmp_path / "t.csv"
        for path in (target, tmp_path / "t.simplex.csv"):
            path.mkdir()
    code = run_cli(["solve", str(lana_lp_path()), "--method", method, "--trace", str(target)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out.count("status:     optimal") == (2 if method == "both" else 1)  # reports first
    assert err.startswith("error: cannot write trace ")
    assert "Traceback" not in err


LAZY_SCIPY = """
import contextlib, io, json, sys
import lpduet
from lpduet import lana_lp_path, parse_lp_text
loaded = {}
parse_lp_text(lana_lp_path().read_text(encoding="utf-8"))
loaded["parse"] = "scipy.linalg" in sys.modules
loaded["cli"] = "lpduet.cli" in sys.modules
from lpduet import run_cli
with contextlib.redirect_stdout(io.StringIO()):
    code = run_cli(["solve", str(lana_lp_path()), "--method", "simplex"])
loaded["simplex"] = "scipy.linalg" in sys.modules
loaded["oracle"] = "lpduet.oracle" in sys.modules
from lpduet import brute_force_optimum, to_equality_form
toy = to_equality_form(parse_lp_text("max: 3x + 2y;\\ncap: x + y <= 4;\\nwall: x <= 2;\\n"))
oracle = {
    "objective": brute_force_optimum(toy).objective,
    "same": lpduet.oracle.brute_force_optimum is brute_force_optimum,
    "scipy.linalg": "scipy.linalg" in sys.modules,
}
missing = [name for name in lpduet.__all__ if not hasattr(lpduet, name)]
names = {"exported": len(lpduet.__all__), "missing": missing}
print(json.dumps({"code": code, "loaded": loaded, "oracle": oracle, "names": names}))
"""


def test_import_parse_and_a_simplex_run_leave_scipy_linalg_unloaded():
    # Then the oracle, asked for by name, loads itself and scipy.linalg, and
    # every exported name resolves.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_SCIPY], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result == {
        "code": 0,
        "loaded": {"parse": False, "cli": False, "simplex": False, "oracle": False},
        "oracle": {"objective": 10.0, "same": True, "scipy.linalg": True},
        "names": {"exported": 33, "missing": []},
    }


# Dependent equality rows: both engines solve on one copy of the row.
DUPLICATE_ROWS = (
    "max: 3x + 2y + z;\n"
    "e1: 1000x + 1000y + 1000z = 4000000;\n"
    "e2: 1000x + 1000y + 1000z = 4000000;\n"
    "c: x <= 2000;\n"
)


def test_duplicated_equality_row_is_solved_by_both_engines(tmp_path, capsys):
    code = run_cli(["solve", write(tmp_path, DUPLICATE_ROWS), "--json"])
    out, err = capsys.readouterr()
    assert code == 0, err
    simplex, affine = json.loads(out)
    assert simplex["status"] == affine["status"] == "optimal"
    assert simplex["objective"] == pytest.approx(10_000.0, rel=1e-9)
    assert affine["objective"] == pytest.approx(10_000.0, rel=1e-5)


@pytest.mark.parametrize(
    "text, code, status",
    [
        ("max: x;\nz: 0 x = 0;\n", 3, "unbounded"),
        ("max: x + y;\ne1: x + y = 2;\ne2: 2x + 2y = 5;\n", 2, "infeasible"),
        ("max: x;\ne1: x = 100000000;\ne2: x = 100100000;\n", 2, "infeasible"),
        # e2 is off by 1e-3; each artificial is judged against its own row's
        # rhs, not against the largest one.
        ("max: x + y;\ne0: y = 100000000;\ne1: x = 1;\ne2: x = 1.001;\n", 2, "infeasible"),
    ],
    ids=["zero-row", "inconsistent-rows", "inconsistent-large-rhs", "small-row-beside-large-rhs"],
)
def test_dependent_rows_status_from_both_engines(tmp_path, capsys, text, code, status):
    assert run_cli(["solve", write(tmp_path, text), "--json"]) == code
    out, err = capsys.readouterr()
    assert [r["status"] for r in json.loads(out)] == [status, status]
    assert "Traceback" not in err


def test_an_engine_error_keeps_the_report_of_the_engine_that_finished(tmp_path, capsys):
    # The simplex solves each model, and the affine engine's Cholesky fails.
    texts = [
        # Rows independent only to about 1e-8 are kept.
        write_lp_text(near_duplicate_rows_lp(rng_for(6000), 1e-8)),
        # Orthogonal rows whose only feasible point, (1, 0), has a zero
        # entry: phase 1 ends next to it, and the first phase-2 factor fails.
        "max: x + y;\nc1: x + y = 1;\nc2: x - y = 1;\n",
    ]
    for text in texts:
        code = run_cli(["solve", write(tmp_path, text)])
        out, err = capsys.readouterr()
        assert code == 1
        assert "method:     simplex\nstatus:     optimal\n" in out
        assert "method:     affine" not in out
        assert err.startswith("error: affine: ")
        assert err.count("error:") == 1
        assert "Traceback" not in err
