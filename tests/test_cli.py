import argparse
import ast
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gaugeint import (
    Diverged,
    RefinementSchedule,
    build_anchored,
    build_cousin,
    build_straddle_verified,
    catalog,
    cli,
    decompose,
    partition_to_csv,
)
from gaugeint.builders import anchored_gauge_for
from gaugeint.catalog import CATALOG_NAMES
from gaugeint.integrate import EPSILONS
from test_dsl import DEEP_SHAPES, MAX_DEPTH
from test_partition import reference_csv

SRC = str(Path(__file__).resolve().parents[1] / "src")
JOB_COMMANDS = ("integrate", "verify", "residues", "partition")


def run_cli(*argv):
    """``gaugeint *argv`` run in this process, as a finished process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    return subprocess.CompletedProcess(["gaugeint", *argv], code, out.getvalue(), err.getvalue())


def run_process(*argv, module="gaugeint.cli", hash_seed=None, timeout=120):
    """``python -m module *argv`` in a fresh interpreter, for tests of the
    process itself: its entry point, exit status and output across runs."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH", "")]))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestProcess:
    def test_package_main_runs_the_cli(self):
        out = run_process("parse", "1/x", module="gaugeint")
        assert out.returncode == 0
        assert out.stdout == "1.0 / x\n"
        assert out.stderr == ""

    def test_parser_built_once_per_process(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        cli._parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        counts = []
        for argv in (["parse", "1/x"], ["parse", "x^2"], ["verify", "--catalog", "nope"]):
            before = len(built)
            run_cli(*argv)
            counts.append(len(built) - before)
        assert counts[0] > 0 and counts[1:] == [0, 0]

    def test_catalog_outputs_repeat_across_hash_seeds(self):
        # output_digest.py hashes 126 catalog runs of every command, 49 runs
        # on the catalog's mini-language texts and 70 library reports, each
        # in a fresh interpreter; reports must stay byte-identical across runs
        lines = []
        for seed in ("1", "2"):
            done = subprocess.run([sys.executable, str(Path(__file__).parent / "output_digest.py")],
                                  capture_output=True, text=True, timeout=120,
                                  env={**os.environ, "PYTHONHASHSEED": seed})
            assert done.returncode == 0, done.stderr
            lines.append(done.stdout)
        assert re.fullmatch(r"175 runs [0-9a-f]{64}\n70 reports [0-9a-f]{64}\n", lines[0])
        assert lines[1] == lines[0]


# x^2 with an undeclared jump of 1e-3 at 0.3
UNDECLARED_JUMP = ("--function", "piecewise{ x < 0.3 : x^2 ; x >= 0.3 : x^2 + 0.001 }",
                   "--derivative", "2*x", "--exceptional", "0.5", "--span", "0,1")

# F is finite everywhere, but an increment it makes overflows binary64: over
# the anchor cell [0.7, 0.8] of the first, over the whole span of the second
OVERFLOWING_CELL = ("integrate", "--function",
                    "piecewise{ x < 0.25 : 0 ; x < 0.75 : 1.7e308 ; x <= 1 : -1.7e308 }",
                    "--derivative", "0", "--span", "0,1", "--exceptional", "0.25,0.75")
OVERFLOWING_TOTAL = ("verify", "--function", "piecewise{ x < 0.5 : -1.7e308 ; x <= 1 : 1.7e308 }",
                     "--derivative", "0", "--span", "0,1", "--exceptional", "0.5")


def strict_json(text):
    """``text`` parsed as JSON, raising ``ValueError`` on the ``NaN`` and
    ``Infinity`` that Python writes and strict parsers reject."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


class TestExitCodes:
    def test_success_is_zero(self):
        out = run_process("integrate", "--catalog", "heaviside")
        assert out.returncode == 0

    def test_divergence_is_still_zero(self):
        out = run_cli(
            "integrate", "--catalog", "reciprocal",
            "--div-threshold", "100", "--max-depth", "12",
        )
        assert out.returncode == 0
        assert "diverged" in out.stdout

    def test_usage_error_is_two(self):
        out = run_process("integrate", "--function", "x^", "--derivative", "1",
                          "--span", "0,1")
        assert out.returncode == 2
        assert "position" in out.stderr

    def test_unknown_catalog_is_two(self):
        out = run_cli("integrate", "--catalog", "nope")
        assert out.returncode == 2

    def test_missing_derivative_is_two(self):
        out = run_cli("integrate", "--function", "x^2", "--span", "0,1")
        assert out.returncode == 2

    def test_exceptional_outside_span_is_two(self):
        out = run_cli("integrate", "--function", "x^2", "--derivative", "2*x",
                      "--span", "0,1", "--exceptional", "2.0")
        assert out.returncode == 2

    @pytest.mark.parametrize("argv,code,message", [
        (["residues", "--catalog", "heaviside", "--exceptional=-1,0"], 0, None),
        (["integrate", "--catalog", "heaviside", "--exceptional=0,1"], 0, None),
        (["verify", "--catalog", "sqrt_singular", "--exceptional=0"], 0, None),
        (["partition", "--catalog", "parabola", "--exceptional=2"], 2,
         "exceptional point 2.0 outside span [0.0, 1.0]"),
        (["integrate", "--catalog", "heaviside", "--span=0.5,1"], 2,
         "exceptional point 0.0 outside span [0.5, 1.0]"),
        (["integrate", "--catalog", "heaviside", "--exceptional", "nan"], 2,
         "exceptional points must be finite"),
    ], ids=["left-edge", "right-edge", "catalog-edge-point", "outside", "span-drops-catalog-point",
            "nan"])
    def test_exceptional_on_catalog_span_edge_is_two(self, argv, code, message):
        # the job's points, or the catalog's own under the job's span, must lie
        # in the closed span: a point on an edge gets a one-sided anchor, and
        # only a point outside the span is a usage error
        out = run_cli(*argv)
        assert out.returncode == code
        if message is None:
            assert out.stderr == ""
            assert out.stdout != ""
        else:
            assert out.stderr == f"error: {message}\n"
            assert out.stdout == ""

    @pytest.mark.parametrize("span,message", [
        ("1,0", "degenerate interval rejected: [1.0, 0.0]"),
        ("0,inf", "interval endpoints must be finite: [0.0, inf]"),
        ("-1e308,1e308", "interval length overflows: [-1e+308, 1e+308]"),
    ])
    def test_bad_span_is_two(self, span, message):
        out = run_cli("verify", "--function", "x", "--derivative", "1", f"--span={span}")
        assert out.returncode == 2
        assert out.stderr == f"error: {message}\n"
        assert out.stdout == ""

    @pytest.mark.parametrize("command", ["integrate", "residues"])
    def test_unwritable_emit_convergence_is_two(self, tmp_path, command):
        target = tmp_path / "missing" / "conv.csv"
        out = run_cli(command, "--catalog", "heaviside", "--emit-convergence", str(target))
        assert out.returncode == 2
        assert out.stderr == f"error: cannot write {target}: No such file or directory\n"
        assert out.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["partition", "--catalog", "heaviside", "--builder", "straddle", "--epsilon="],
        ["verify", "--catalog", "heaviside", "--epsilon="],
        ["integrate", "--catalog", "heaviside", "--epsilon="],
        ["verify", "--catalog", "reciprocal", "--epsilon=inf"],
        ["verify", "--catalog", "reciprocal", "--epsilon=1e-3,nan"],
        ["integrate", "--catalog", "heaviside", "--tol=nan"],
        ["residues", "--catalog", "heaviside", "--tol=inf"],
        ["residues", "--catalog", "heaviside", "--div-threshold=nan"],
    ])
    def test_empty_or_nonfinite_tolerance_is_two(self, argv):
        out = run_cli(*argv)
        assert out.returncode == 2
        assert out.stderr.startswith("error:")
        assert "Traceback" not in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("radius", ["inf", "nan", "0", "-0.1"])
    def test_nonfinite_or_nonpositive_anchor_is_two(self, radius):
        out = run_cli("verify", "--catalog", "heaviside", f"--anchor={radius}")
        assert out.returncode == 2
        assert out.stderr == "error: anchor radius must be finite and positive\n"
        assert out.stdout == ""

    def test_wrong_derivative_build_failure_is_three(self):
        out = run_process("integrate", "--function", "x^2", "--derivative", "3*x",
                          "--span", "0,1")
        assert out.returncode == 3
        # kh's certificate, the f check, failed, and stderr repeats the kh
        # verdict's note
        line = out.stderr.splitlines()[-1]
        assert line.startswith("error: build failed in the f check ")
        # f is off by t at every tag t: the width search ends on a mismatch,
        # named as one, with the finite error it last rejected
        assert line.endswith("declared derivative does not match F here")
        error = float(line.split(", error ", 1)[1].split(")", 1)[0])
        assert math.isfinite(error) and error > 0

    def test_evaluation_error_names_plain_point(self):
        out = run_cli("verify", "--function", "x", "--derivative=1/x", "--span=-1,1")
        assert out.returncode == 3
        assert out.stderr.splitlines()[-1] == (
            "evaluation error: f is non-finite off the exceptional set (near x=0.0)"
        )

    def test_undeclared_point_hidden_by_ieee_is_three(self):
        # 1/(1/x) is undefined at 0, not 0 as IEEE arithmetic would give
        out = run_cli("verify", "--function", "x", "--derivative", "1/(1/x)*0 + 1",
                      "--span=-1,1")
        assert out.returncode == 3
        assert "evaluation error" in out.stderr

    @pytest.mark.parametrize("argv, note", [
        (("--function", "x^2", "--derivative", "3*x", "--span", "0,1"),
         "build failed in the f check "),
        (UNDECLARED_JUMP, "build failed in the f check "),
        (("--function", "x^2", "--derivative", "2*x + 1e-6", "--exceptional", "0.5",
          "--span", "0,1"), "build failed in the f check "),
    ], ids=["wrong-derivative", "undeclared-jump", "slope-off-1e-6"])
    def test_uncertified_kh_is_three(self, argv, note):
        # kh has no certified row: exit 3, with its note on stderr, ahead of
        # the failed tolerance rows the undeclared jump also has; every
        # tolerance row of the slope that is off by 1e-6 verifies
        out = run_cli("integrate", *argv)
        assert out.returncode == 3
        report = decompose(cli.job_from_args(
            cli.build_arg_parser().parse_args(("integrate",) + argv)).resolve_model())
        assert report.kh_trace == () and report.kh_verdict.note.startswith(note)
        assert out.stderr.splitlines()[-1] == f"error: {report.kh_verdict.note}"

    @pytest.mark.parametrize("argv,failed", [
        (("--function", "x^2", "--derivative", "2*x", "--span", "0,1",
          "--exceptional", "0.5", "--anchor", "0.6", "--epsilon", "1e-3,1e-12"), "1e-12"),
    ], ids=["anchor-leaves-span"])
    def test_integrate_unverified_row_is_one(self, argv, failed):
        out = run_cli("integrate", *argv)
        assert out.returncode == 1
        assert out.stderr == f"error: verification failed at eps={failed}\n"
        assert out.stdout.count("build failed (") == len(failed.split(", "))

    def test_unverified_row_is_one(self):
        out = run_cli("verify", "--catalog", "reciprocal",
                      "--epsilon", "1e-3,1e-12", "--anchor", "0.05")
        assert out.returncode == 1
        assert "build failed" in out.stdout

    def test_verify_reciprocal_example(self):
        out = run_cli("verify", "--catalog", "reciprocal", "--epsilon", "1e-3",
                      "--anchor", "0.05")
        assert out.returncode == 0
        assert "1.5" in out.stdout
        assert "verified       True" in out.stdout

    def test_failed_rows_in_json_are_three(self):
        # f = x is not F' for F = x^2: every row's build fails, and the JSON
        # rows carry the error with a null residual
        out = run_cli("verify", "--function", "x^2", "--derivative", "x", "--span", "0,1",
                      "--exceptional=", "--output", "json")
        assert out.returncode == 3
        rows = json.loads(out.stdout)["verification"]
        assert [row["epsilon"] for row in rows] == list(EPSILONS)
        for row in rows:
            assert row["residual"] is None
            assert "declared derivative does not match F" in row["error"]

    def test_overflowing_anchor_increment_is_three(self):
        note = "F evaluation failed at depth 0: F increment over [0.7, 0.8] overflows"
        out = run_cli(*OVERFLOWING_CELL, "--output", "json")
        assert out.returncode == 3
        doc = strict_json(out.stdout)
        for verdict in (doc["kh"], doc["basic_sum"], doc["residuals"]["0.75"]):
            assert verdict == {"kind": "inconclusive", "note": note, "trace": []}
        assert doc["residuals"]["0.25"]["value"] == 1.7e308
        assert out.stderr == f"error: {note}\n"

    def test_overflowing_total_is_three(self):
        out = run_cli(*OVERFLOWING_TOTAL, "--output", "json")
        assert out.returncode == 3
        assert out.stdout == ""
        assert out.stderr == "evaluation error: F increment over [0.0, 1.0] overflows\n"

    @pytest.mark.parametrize("argv", [
        *[pytest.param((command, "--catalog", name), id=f"{command}-{name}")
          for name in CATALOG_NAMES for command in ("integrate", "verify", "residues")],
        pytest.param(OVERFLOWING_CELL, id="overflowing-cell"),
        pytest.param(OVERFLOWING_TOTAL, id="overflowing-total"),
    ])
    def test_json_report_is_strict_json(self, argv):
        # a report is printed unless an evaluation error ends the run
        out = run_cli(*argv, "--output", "json")
        assert out.stdout or out.returncode == 3
        if out.stdout:
            strict_json(out.stdout)

    def test_anchor_overlap_fails_every_row_is_three(self):
        # radius larger than the span: no partition can be anchored at all
        out = run_cli("verify", "--catalog", "reciprocal", "--anchor", "1.5")
        assert out.returncode == 3
        assert "build failed" in out.stdout

    def test_catalog_span_override(self):
        out = run_cli("integrate", "--catalog", "parabola", "--span=-1,1",
                      "--output", "json")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["total"] == 0.0  # F(1) - F(-1) for x^2


class TestUsageErrors:
    @pytest.mark.parametrize("argv, job_text, message", [
        (("integrate", "--job", "{missing}"), None, "error: cannot read job file: [Errno 2] "),
        (("integrate", "--job", "{job}"), "not json", "error: cannot read job file: "),
        (("integrate", "--job", "{job}"), "[1]", "error: job file must hold a JSON object"),
        (("integrate", "--job", "{job}"), '{"F": "heaviside", "output": "xml"}',
         "error: output must be one of "),
        (("integrate", "--catalog", "heaviside", "--epsilon", "1e-3,1e-3"), None,
         "error: epsilon values must be distinct"),
        (("integrate", "--catalog", "heaviside", "--max-depth", "-1"), None,
         "error: max-depth must be nonnegative"),
        (("integrate",), None, "error: no function given: "),
        (("integrate", "--function", "x", "--derivative", "1"), None,
         "error: --span is required "),
        (("integrate", "--catalog", "heaviside", "--epsilon", "1e-3,abc"), None,
         "gaugeint integrate: error: argument --epsilon: "
         "could not convert string to float: 'abc'"),
        (("parse",), None, "error: parse needs "),
        (("integrate", "--catalog", "heaviside", "--function", "x"), None,
         "error: give either --catalog or --function, not both"),
    ], ids=["missing-job-file", "invalid-json", "json-list", "unknown-output",
            "repeated-epsilon", "negative-max-depth", "no-function", "no-span",
            "epsilon-not-a-number", "parse-no-expression", "catalog-and-function"])
    def test_exit_two(self, tmp_path, argv, job_text, message):
        job = tmp_path / "job.json"
        if job_text is not None:
            job.write_text(job_text)
        out = run_cli(*(arg.format(job=job, missing=tmp_path / "missing.json") for arg in argv))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.splitlines()[-1].startswith(message)

    def test_job_command_key_is_ignored(self, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"F": "heaviside", "command": "verify"}))
        from_file = run_cli("integrate", "--job", str(job))
        plain = run_cli("integrate", "--catalog", "heaviside")
        assert (from_file.returncode, from_file.stdout, from_file.stderr) == (
            plain.returncode, plain.stdout, plain.stderr)

    def test_skipped_consistency_check_warns_first(self):
        # with E empty, f = 1/(2 sqrt(x)) is non-finite at sample points
        # x < 0, so the consistency check is skipped with a warning; then
        # the build meets a non-finite value and the run exits 3
        out = run_cli("verify", "--function", "sqrt(x)", "--derivative", "1/(2*sqrt(x))",
                      "--span=-1,1", "--exceptional=")
        assert out.returncode == 3
        assert out.stderr.startswith("warning: derivative consistency check skipped: ")


class TestMinusSignValues:
    """A word that starts with one minus sign is a value, also without the
    ``=`` form; ``-h`` still asks for help, and an unknown word is still an
    unrecognized argument."""

    def test_parse_expression(self):
        out = run_cli("parse", "-1/x^2")
        assert (out.returncode, out.stdout, out.stderr) == (0, "-1.0 / x^2.0\n", "")

    def test_function_flag(self):
        out = run_cli("verify", "--function", "-1/x", "--derivative", "1/x^2",
                      "--span", "1,2", "--output", "json")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["total"] == 0.5

    def test_span_flag(self):
        out = run_cli("verify", "--catalog", "heaviside", "--span", "-1,1")
        assert out.returncode == 0, out.stderr
        assert out.stdout == run_cli("verify", "--catalog", "heaviside", "--span=-1,1").stdout

    def test_help_still_prints(self):
        out = run_cli("parse", "-h")
        assert out.returncode == 0
        assert out.stdout.startswith("usage: gaugeint parse")

    def test_stray_word_is_two(self):
        out = run_cli("verify", "--catalog", "heaviside", "-x")
        assert out.returncode == 2
        assert "unrecognized arguments: -x" in out.stderr


class TestCloseExceptionalPoints:
    """Points a tenth of the span apart: their first anchor cells keep room
    between them, so every verification row builds.  Points one ulp apart
    still print as two points."""

    @pytest.mark.parametrize("command,argv", [
        ("verify", ["--function", "x^2", "--derivative", "2*x", "--span", "0,1",
                    "--exceptional", "0.3,0.4,0.5"]),
        ("integrate", ["--function",
                       "piecewise{ x < 0.3 : x ; x < 0.4 : x + 1 ; x >= 0.4 : x + 3 }",
                       "--derivative", "1", "--span", "0,1", "--exceptional", "0.3,0.4"]),
    ], ids=["parabola", "two-jumps"])
    def test_every_row_ok(self, command, argv):
        out = run_cli(command, *argv, "--output", "json")
        assert out.returncode == 0, out.stdout
        doc = json.loads(out.stdout)
        assert [row.get("error") for row in doc["verification"]] == [None] * len(EPSILONS)
        assert all(row["residual"] <= row["bound"] for row in doc["verification"])

    @pytest.mark.parametrize("command", ["integrate", "residues"])
    def test_one_ulp_apart_print_apart(self, command):
        # each point is labelled by its shortest round-trip form, as its
        # JSON key is; six significant digits printed both as 0.5
        out = run_cli(command, "--function", "x^2", "--derivative", "2*x", "--span", "0,1",
                      "--exceptional", "0.5,0.5000000000000001")
        labels = [line.split(" = ")[0].strip() for line in out.stdout.splitlines()
                  if line.lstrip().startswith("R(")]
        assert labels == ["R(0.5)", "R(0.5000000000000001)"]
        if command == "integrate":
            assert "E = {0.5, 0.5000000000000001}" in out.stdout


class TestIntegrateOutput:
    def test_heaviside_table(self):
        out = run_cli("integrate", "--catalog", "heaviside")
        assert "total          1" in out.stdout
        assert "kh             converged(0" in out.stdout
        assert "basic_sum      converged(1" in out.stdout

    def test_json_deterministic(self):
        argv = ("integrate", "--catalog", "heaviside", "--output", "json")
        a = run_process(*argv, hash_seed="0")
        b = run_process(*argv, hash_seed="1")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_json_schema_fields(self):
        out = run_cli("integrate", "--catalog", "heaviside", "--output", "json")
        doc = json.loads(out.stdout)
        assert set(doc) == {"total", "verification", "kh", "basic_sum",
                            "residuals", "identity_gap"}
        assert doc["total"] == 1.0
        assert doc["basic_sum"]["kind"] == "converged"
        assert doc["basic_sum"]["value"] == 1.0

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_anchor_radius_leaves_served_rows_alone(self, name):
        # kh's f check witnesses every default row whatever the anchor
        # radius, so an anchor radius no row builds at changes no byte
        argv = ("integrate", "--catalog", name, "--output", "json")
        anchored = run_cli(*argv, "--anchor", "0.01")
        plain = run_cli(*argv)
        assert (anchored.returncode, anchored.stdout, anchored.stderr) == (
            plain.returncode, plain.stdout, plain.stderr)

    def test_csv_output_sections(self):
        out = run_cli("integrate", "--catalog", "heaviside", "--output", "csv")
        assert "# series: kh" in out.stdout
        assert "depth,r,value,delta" in out.stdout

    def test_failed_kh_note_shown_once(self):
        # the note of a failed kh ladder is printed on the kh line and
        # nowhere else in the table; x^2 with an undeclared jump of 1e-3 at
        # 0.3 fails kh's f check
        job = cli.job_from_args(cli.build_arg_parser().parse_args(("integrate",) + UNDECLARED_JUMP))
        note = decompose(job.resolve_model()).kh_verdict.note
        assert note.startswith("build failed in the f check ")
        out = run_cli("integrate", *UNDECLARED_JUMP)
        assert out.returncode == 3  # kh has no certified row
        assert out.stdout.count(note) == 1
        kh_line, = (line for line in out.stdout.splitlines() if line.startswith("kh "))
        assert kh_line.endswith(f"({note})")

    def test_emit_convergence(self, tmp_path):
        target = tmp_path / "conv.csv"
        out = run_cli("integrate", "--catalog", "heaviside",
                      "--emit-convergence", str(target))
        assert out.returncode == 0
        text = target.read_text()
        assert "# series: kh" in text and "# series: basic_sum" in text
        data_lines = [
            line for line in text.splitlines()
            if line and not line.startswith(("#", "depth"))
        ]
        assert all(len(line.split(",")) == 4 for line in data_lines)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_csv_radius_is_the_schedules(self, name, tmp_path):
        # every row's r reads back as its depth's schedule radius, bit for bit
        sched = RefinementSchedule.for_model(catalog(name))
        target = tmp_path / "conv.csv"
        integrate = run_cli("integrate", "--catalog", name, "--output", "csv")
        residues = run_cli("residues", "--catalog", name, "--emit-convergence", str(target))
        assert residues.returncode == 0
        series = convergence_rows(integrate.stdout) + convergence_rows(target.read_text())
        assert [title for title, _ in series] == ["kh", "basic_sum", "basic_sum"]
        assert all(rows for _, rows in series)
        for title, rows in series:
            for depth, r in rows:
                assert repr(float(r)) == repr(sched.at(depth).r), (title, depth, r)


def convergence_rows(text):
    """The series of a convergence CSV as ``(name, [(depth, r text), ...])``."""
    series = []
    for line in text.splitlines():
        if line.startswith("# series: "):
            series.append((line[len("# series: "):], []))
        elif line != "depth,r,value,delta":
            depth, r, _, _ = line.split(",")
            series[-1][1].append((int(depth), r))
    return series


class TestJobFiles:
    def test_job_file_round(self, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "F": "piecewise{ x <= 0 : 0 ; 0 < x : 1 }",
            "f": "0",
            "E": [0.0],
            "span": [-1.0, 1.0],
            "output": "json",
        }))
        out = run_cli("integrate", "--job", str(job))
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["total"] == 1.0

    def test_exceptional_point_at_span_edge(self, tmp_path):
        # sqrt_singular's model as a user job: E = {0} is the span's left end
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "F": "sqrt(x)", "f": "1/(2*sqrt(x))", "E": [0], "span": [0, 1], "output": "json",
        }))
        outs = {command: run_cli(command, "--job", str(job))
                for command in JOB_COMMANDS}
        assert {command: out.returncode for command, out in outs.items()} == dict.fromkeys(outs, 0)
        doc = json.loads(outs["integrate"].stdout)
        expected = decompose(catalog("sqrt_singular")).to_json()
        assert doc["total"] == 1.0
        for kind in ("kh", "basic_sum"):
            assert doc[kind]["kind"] == expected[kind]["kind"]
        assert {e: v["kind"] for e, v in doc["residuals"].items()} == {
            e: v["kind"] for e, v in expected["residuals"].items()}

    def test_flags_override_file(self, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"F": "heaviside", "output": "json"}))
        out = run_cli("verify", "--job", str(job), "--output", "csv")
        assert out.returncode == 0
        assert out.stdout.startswith("epsilon,residual,bound,pairs,ok")

    def test_unknown_field_rejected(self, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"F": "heaviside", "wat": 1}))
        out = run_cli("integrate", "--job", str(job))
        assert out.returncode == 2

    # job-file key -> two values the job accepts, as JSON
    FIELD_VALUES = {
        "F": ("x^2", "x^3"), "f": ("2*x", "3*x"), "E": ([0.25], [0.5, 0.75]),
        "span": ([0.0, 2.0], [-1.0, 1.0]), "epsilon": ([0.01], [0.001, 0.0001]),
        "anchor": (0.125, 0.25), "max_depth": (7, 9), "tol": (0.001, 0.01),
        "div_threshold": (100.0, 1000.0), "seed": (3, 4), "output": ("json", "csv"),
        "builder": ("straddle", "cousin"),
    }

    @pytest.mark.parametrize("row", [row for row in cli._FIELDS if row[0]],
                             ids=lambda row: row[0])
    def test_every_schema_row_file_and_flag_agree(self, tmp_path, row):
        key, flag, attr = row[:3]
        flag_value, file_value = self.FIELD_VALUES[key]
        text = ",".join(map(str, flag_value)) if isinstance(flag_value, list) else str(flag_value)

        def job(doc, *flags):
            path = tmp_path / "job.json"
            path.write_text(json.dumps(doc))
            argv = ["integrate", "--job", str(path), *flags]
            return getattr(cli.job_from_args(cli.build_arg_parser().parse_args(argv)), attr)

        from_file = job({key: flag_value})
        from_flag = job({}, f"{flag}={text}")
        assert from_file == from_flag
        assert from_file != job({})
        assert job({key: file_value}, f"{flag}={text}") == from_flag

    @pytest.mark.parametrize("doc", [
        {"E": 0.5}, {"span": [1]}, {"epsilon": ["a"]}, {"max_depth": "5"},
    ])
    def test_wrong_field_type_is_usage_error(self, tmp_path, doc):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"F": "heaviside", **doc}))
        out = run_cli("integrate", "--job", str(job))
        assert out.returncode == 2
        assert out.stderr.startswith("error:")
        assert "Traceback" not in out.stderr


    @pytest.mark.parametrize("command, doc", [
        ("partition", {"builder": "straddle", "epsilon": []}),
        ("verify", {"epsilon": [1e-3, float("inf")]}),
        ("integrate", {"tol": float("nan")}),
        ("residues", {"div_threshold": float("inf")}),
    ])
    def test_empty_or_nonfinite_tolerance_is_usage_error(self, tmp_path, command, doc):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"F": "heaviside", **doc}))
        out = run_cli(command, "--job", str(job))
        assert out.returncode == 2
        assert out.stderr.startswith("error:")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("radius", [float("inf"), float("nan"), 0.0, -0.1])
    def test_nonfinite_or_nonpositive_anchor_is_usage_error(self, tmp_path, radius):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"F": "heaviside", "anchor": radius}))
        out = run_cli("verify", "--job", str(job))
        assert out.returncode == 2
        assert out.stderr == "error: anchor radius must be finite and positive\n"


class TestEmptyExceptionalSet:
    """An empty E, from ``--exceptional=`` or a job file's ``"E": []``, is an
    empty E for every job, a catalog one too; only a job that no source gives
    E keeps its model's."""

    RECIPROCAL = {"F": "1/x", "f": "-1/x^2", "E": [0], "span": [-1, 2]}

    @pytest.mark.parametrize("doc, flags, code", [
        (RECIPROCAL, [], 0),
        (RECIPROCAL, ["--exceptional="], 3),
        ({"F": "reciprocal"}, [], 0),
        ({"F": "reciprocal", "E": []}, [], 3),
        ({"F": "reciprocal", "E": []}, ["--exceptional=0"], 0),
    ], ids=["dsl", "dsl-flag-clears", "catalog", "catalog-file-clears", "flag-restores"])
    def test_job_file(self, tmp_path, doc, flags, code):
        # without 0 in E, f = -1/x^2 is evaluated at the pole and no build stands
        job = tmp_path / "job.json"
        job.write_text(json.dumps(doc))
        assert run_cli("verify", "--job", str(job), *flags).returncode == code

    @pytest.mark.parametrize("flags, code", [([], 0), (["--exceptional="], 3)])
    def test_flag_on_catalog(self, flags, code):
        assert run_cli("verify", "--catalog", "reciprocal", *flags).returncode == code

    def test_flag_empties_catalog_residual_table(self):
        out = run_cli("residues", "--catalog", "heaviside", "--exceptional=", "--output", "json")
        assert out.returncode == 0
        assert json.loads(out.stdout)["residuals"] == {}


def library_partition(name, builder, eps=EPSILONS[0]):
    """The partition ``gaugeint partition --catalog name`` builds at default
    settings, built through the library, and its exceptional points."""
    model = catalog(name)
    r0 = RefinementSchedule.for_model(model).r0
    h = model.span.length / 8
    if builder == "anchored":
        part = build_anchored(model.span, tuple(model.E), r=r0, h=h)
    elif builder == "straddle":
        part = build_straddle_verified(model, r=r0, eps=eps)
    else:
        part = build_cousin(model.span, anchored_gauge_for(model.E, r0, h))
    return part, tuple(model.E)


def library_dump(name, builder, eps=EPSILONS[0]):
    """The CSV of :func:`library_partition`'s partition."""
    return partition_to_csv(*library_partition(name, builder, eps))


class TestPartitionCommand:
    def test_anchored_dump(self):
        out = run_cli("partition", "--catalog", "heaviside", "--builder", "anchored")
        assert out.returncode == 0
        assert out.stdout == library_dump("heaviside", "anchored")
        lines = out.stdout.strip().splitlines()
        assert lines[0] == "lo,hi,tag,in_exceptional"
        assert any(line.endswith(",1") for line in lines[1:])
        first = lines[1].split(",")
        assert float(first[0]) == -1.0

    def test_straddle_dump(self):
        # the midpoint rule is exact for a quadratic: one cell per gap
        out = run_cli("partition", "--catalog", "parabola", "--builder", "straddle",
                      "--epsilon", "1e-2")
        assert out.returncode == 0
        assert out.stdout == library_dump("parabola", "straddle", eps=1e-2)
        lines = out.stdout.strip().splitlines()
        assert lines[0] == "lo,hi,tag,in_exceptional"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        cells = [(float(lo), float(hi), float(tag), flag) for lo, hi, tag, flag in rows]
        assert cells[0][0] == 0.0 and cells[-1][1] == 1.0
        assert all(a[1] == b[0] for a, b in zip(cells, cells[1:]))
        assert [c[2] for c in cells if c[3] == "1"] == [0.5]
        for lo, hi, tag, flag in cells:
            if flag == "0":
                assert tag == (lo + hi) / 2
        out = run_cli("partition", "--catalog", "reciprocal", "--builder", "straddle",
                      "--epsilon", "1e-2")
        assert out.returncode == 0
        assert out.stdout == library_dump("reciprocal", "straddle", eps=1e-2)
        assert len(out.stdout.strip().splitlines()) > 10

    def test_cousin_dump(self):
        out = run_cli("partition", "--catalog", "heaviside", "--builder", "cousin")
        assert out.returncode == 0
        assert out.stdout == library_dump("heaviside", "cousin")

    def test_cousin_dump_cut_at_E(self):
        # the non-isolating gauge of anchored_gauge_for records E as its
        # anchors, so the bisection starts from [0, 0.5], [0.5, 1.5], ...
        out = run_cli("partition", "--catalog", "staircase3", "--builder", "cousin")
        assert out.returncode == 0
        assert out.stdout == library_dump("staircase3", "cousin")
        ends = {float(line.split(",")[1]) for line in out.stdout.splitlines()[1:]}
        assert set(catalog("staircase3").E) <= ends

    @pytest.mark.parametrize("builder", ["anchored", "straddle", "cousin"])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_dump_is_per_value_format(self, name, builder):
        # the block formatter writes the bytes '%.17g' % writes value by value
        out = run_cli("partition", "--catalog", name, "--builder", builder)
        assert out.returncode == 0
        reference = reference_csv(*library_partition(name, builder))
        assert out.stdout.splitlines(True) == reference.splitlines(True)

    def test_build_failure_is_three(self):
        out = run_cli("partition", "--function", "x^2", "--derivative", "3*x",
                      "--span", "0,1", "--builder", "straddle")
        assert out.returncode == 3


class TestResiduesCommand:
    def test_table(self):
        out = run_cli("residues", "--catalog", "staircase3")
        assert out.returncode == 0
        assert "R(0.5)" in out.stdout and "R(2.5)" in out.stdout

    def test_csv_empty_table_header_only(self):
        out = run_cli("residues", "--function", "x^2", "--derivative", "2*x",
                      "--span", "0,1", "--output", "csv")
        assert out.returncode == 0
        assert out.stdout.strip() == "point,kind,value,error_estimate,depth,sign"

    def test_empty_exceptional_set_emits_depth_zero_row(self, tmp_path):
        target = tmp_path / "conv.csv"
        out = run_cli("residues", "--function", "x^2", "--derivative", "2*x",
                      "--span", "0,1", "--emit-convergence", str(target))
        assert out.returncode == 0
        assert target.read_text().splitlines() == [
            "# series: basic_sum",
            "depth,r,value,delta",
            "0,0.050000000000000003,0,",
        ]

    @pytest.mark.parametrize("argv,rows", [
        (("--catalog", "staircase3"), ["0.5,converged,0.5,0,3,", "1.5,converged,1,0,3,",
                                        "2.5,converged,-0.25,0,3,"]),
        (("--catalog", "reciprocal", "--max-depth", "45"), ["0,diverged,,,,+"]),
        (("--catalog", "osc_sin_inv"), ["0,inconclusive,,,,"]),
    ], ids=["converged", "diverged", "inconclusive"])
    def test_csv_row_per_verdict_kind(self, argv, rows):
        out = run_cli("residues", *argv, "--output", "csv")
        assert out.returncode == 0
        assert out.stdout.splitlines() == ["point,kind,value,error_estimate,depth,sign", *rows]

    def test_json(self):
        out = run_cli("residues", "--catalog", "heaviside", "--output", "json")
        doc = json.loads(out.stdout)
        assert doc["residuals"]["0.0"]["value"] == 1.0

    def test_F_overflow_ends_both_ladders_in_the_report(self, tmp_path):
        # exp(1/(x - 0.5)^2) overflows at depth 1's cell ends: the basic sum
        # stops there like the residual, and the report is kept
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"F": "exp(1/(x-0.5)^2)", "f": "0", "E": [0.5],
                                   "span": [0, 1], "output": "json"}))
        out = run_cli("residues", "--job", str(job))
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        for verdict in (doc["basic_sum"], doc["residuals"]["0.5"]):
            assert verdict["kind"] == "inconclusive"
            assert verdict["note"].startswith("F evaluation failed at depth 1: ")


class TestEmit:
    def test_every_format_preserves_verdict_kinds(self):
        from gaugeint import catalog, decompose
        from gaugeint.cli import emit

        model = catalog("reciprocal")
        report = decompose(model, max_depth=12, div_threshold=100.0)
        table = emit(report, "table", model=model)
        as_json = json.loads(emit(report, "json"))
        csv_text = emit(report, "csv")
        assert "diverged" in table
        assert as_json["kh"]["kind"] == "diverged"
        assert as_json["basic_sum"]["kind"] == "diverged"
        assert "# series: kh" in csv_text and "# series: basic_sum" in csv_text

    def test_disagreeing_verdicts_warn_last(self):
        # reached from the CLI only where a monotone convergent kh ladder
        # passes a low --div-threshold and is called diverged
        report = dataclasses.replace(decompose(catalog("heaviside")), lemma_consistent=False)
        assert cli.emit(report, "table").endswith(
            "\nWARNING        kh and basic_sum verdicts disagree on convergence\n")

    def test_empty_residual_table_csv_header_only(self):
        from gaugeint import Converged
        from gaugeint.cli import ResidualsSummary, emit

        summary = ResidualsSummary(
            basic_sum_verdict=Converged(0.0, 0.0, 0), residuals={}
        )
        assert emit(summary, "csv") == "point,kind,value,error_estimate,depth,sign\n"


def readme_cli_lines():
    """The ``gaugeint ...`` lines of README's CLI block, as argument lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("gaugeint ")]


def readme_ignored_fields():
    """``(command, key, flag)`` for each job command and each field of
    README's job-field table whose "read by" cell neither says ``all`` nor
    names the command."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = text.split("| job-file key |", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    ignored = []
    for row in rows:
        key, flag, _, read_by = (cell.strip() for cell in re.split(r"(?<!\\)\|", row)[1:-1])
        readers = read_by.split(", ")
        ignored += [(command, key.strip("`"), flag.strip("`").split()[0])
                    for command in JOB_COMMANDS if "all" not in readers and command not in readers]
    return ignored


def readme_tour_values():
    """Run README's library tour; the value of each bare expression line,
    keyed by its source text."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library tour\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    return values


class TestReadme:
    def test_library_tour_values(self):
        values = readme_tour_values()
        assert list(values) == [
            "report.total", "report.rows[0].residual", "dec.kh_verdict",
            "dec.basic_sum_verdict", "dec.identity_gap",
            "g.riemann_sum(model, off).total + g.increment_sum(model, on)",
        ]
        assert values["report.total"] == 1.5
        assert values["report.rows[0].residual"] <= 3e-3
        assert values["dec.kh_verdict"] == Diverged(sign=-1)
        assert values["dec.basic_sum_verdict"] == Diverged(sign=1)
        assert values["dec.identity_gap"] is None
        split = values["g.riemann_sum(model, off).total + g.increment_sum(model, on)"]
        assert abs(split - 1.5) <= 3e-3

    def test_cli_block_holds_the_endpoint_example(self):
        lines = readme_cli_lines()
        assert len(lines) == 6
        assert ["verify", "--function", "sqrt(x)", "--derivative", "1/(2*sqrt(x))",
                "--exceptional", "0", "--span", "0,1"] in lines

    @pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
    def test_cli_line_exits_zero(self, argv):
        out = run_cli(*argv)
        assert out.returncode == 0, out.stderr

    @pytest.mark.parametrize("name", ["heaviside", "reciprocal"])
    @pytest.mark.parametrize("command, key, flag", readme_ignored_fields(),
                             ids=[f"{command}-{key}" for command, key, _ in readme_ignored_fields()])
    def test_field_not_read_is_ignored(self, command, key, flag, name):
        # README's job-field table says which commands read each field; a
        # command that does not read one runs as if it were absent
        value = TestJobFiles.FIELD_VALUES[key][0]
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        without = run_cli(command, "--catalog", name)
        given = run_cli(command, "--catalog", name, f"{flag}={text}")
        assert (given.returncode, given.stdout, given.stderr) == (
            without.returncode, without.stdout, without.stderr)

    def test_table_names_every_field(self):
        keys = {key for _, key, _ in readme_ignored_fields()}
        assert keys == {"epsilon", "anchor", "max_depth", "tol", "div_threshold", "seed",
                        "output", "builder"}


class TestParseCommand:
    def test_ok(self):
        out = run_cli("parse", "1/x")
        assert out.returncode == 0
        assert out.stdout.strip() == "1.0 / x"

    def test_json(self):
        out = run_cli("parse", "--function", "sin(x)^2", "--output", "json")
        assert out.returncode == 0
        assert json.loads(out.stdout) == {"ok": True, "canonical": "sin(x)^2.0"}

    def test_error_position_on_stderr(self):
        out = run_cli("parse", "piecewise{ x < : 1 }")
        assert out.returncode == 2
        assert "position 15" in out.stderr

    def test_overflowing_literal_is_two(self):
        out = run_cli("parse", "1e400")
        assert (out.returncode, out.stdout) == (2, "")
        assert "expected a finite number" in out.stderr

    def test_consistency_warning_on_stderr(self):
        # mildly wrong derivative passes a loose straddle check at eps=0.05
        # but trips the central-difference warning
        out = run_cli("verify", "--function", "x^2", "--derivative", "2*x + 0.01",
                      "--span", "0,1", "--epsilon", "5e-2")
        assert "warning" in out.stderr


class TestDepthBound:
    # a sum of MAX_DEPTH + 1 terms, MAX_DEPTH levels deep, and its derivative
    SUM = ("--function", DEEP_SHAPES["sum"][0](MAX_DEPTH), "--derivative", str(MAX_DEPTH + 1),
           "--span", "0,1", "--exceptional=")

    def test_integrate_at_the_bound(self):
        out = run_cli("integrate", *self.SUM, "--output", "json")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["total"] == MAX_DEPTH + 1

    @pytest.mark.parametrize("past", [1, 10 * MAX_DEPTH])
    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_parse_past_the_bound_is_two(self, shape, past):
        # --function= keeps a text of minus signs from reading as an option
        out = run_cli("parse", f"--function={DEEP_SHAPES[shape][0](MAX_DEPTH + past)}")
        assert (out.returncode, out.stdout) == (2, "")
        assert f"expected at most {MAX_DEPTH} nested levels" in out.stderr

    @pytest.mark.parametrize("function, terms", [
        ("+".join(["x"] * (10 * MAX_DEPTH + 1)), 10 * MAX_DEPTH + 1),
        # a left-deep tree of 597 "+" whose every chain is under the bound
        ("((x" + "+x" * 198 + ")" + "+x" * 199 + ")" + "+x" * 200, 598),
    ], ids=["sum", "left-nested-sum"])
    def test_integrate_past_the_bound_is_two(self, function, terms):
        out = run_cli("integrate", "--function", function,
                      "--derivative", str(terms), "--span", "0,1", "--exceptional=")
        assert (out.returncode, out.stdout) == (2, "")
        assert f"expected at most {MAX_DEPTH} nested levels" in out.stderr
