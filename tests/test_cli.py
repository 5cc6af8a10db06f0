"""Command-line interface: exit codes, JSON output, trace files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lpduet import IPM_TRACE_HEADER, SIMPLEX_TRACE_HEADER, lana_lp_path, run_cli

DATA = Path(__file__).resolve().parent / "data"
TOY = "max: 3x + 2y;\ncap: x + y <= 4;\nwall: x <= 2;\n"
UNBOUNDED = "max: x;\nfloor: x >= 1;\n"
INFEASIBLE = "max: x;\nlow: x >= 2;\nhigh: x <= 1;\n"


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


def test_infeasible_exit_code(tmp_path, capsys):
    assert run_cli(["solve", write(tmp_path, INFEASIBLE), "--method", "simplex"]) == 2


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
    ],
    ids=["infinite-rhs", "infinite-coefficient-sum", "not-utf8"],
)
@pytest.mark.filterwarnings("error")  # a warning would print ahead of "error:"
def test_bad_file_is_an_error_not_a_traceback(tmp_path, capsys, content, says):
    path = tmp_path / "bad.lp"
    path.write_bytes(content)
    assert run_cli(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert says in err
    assert "Traceback" not in err


def test_usage_error_exit_code(capsys):
    assert run_cli([]) == 1
    assert run_cli(["solve"]) == 1


def test_alpha_above_cap_is_clamped(tmp_path, capsys):
    code = run_cli(
        ["solve", write(tmp_path, TOY), "--method", "affine", "--alpha", "0.99"]
    )
    assert code == 0  # runs with the documented 0.95 cap


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


def test_python_m_lpduet_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "lpduet", "solve", str(lana_lp_path()), "--method", "simplex", "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.endswith("}\n")
    assert json.loads(proc.stdout)["objective"] == pytest.approx(765056.25, rel=1e-9)
