import argparse
import io
import json
import math
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gaugeint import (
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
from gaugeint.integrate import EPSILONS

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
    ], ids=["left-edge", "right-edge", "catalog-edge-point", "outside", "span-drops-catalog-point"])
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
        # the depth-0 build failed, and stderr repeats the kh verdict's note
        line = out.stderr.splitlines()[-1]
        assert line.startswith("error: build failed at depth 0: ")
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

    def test_anchor_overlap_fails_every_row_is_three(self):
        # radius larger than the span: no partition can be anchored at all
        out = run_cli("verify", "--catalog", "reciprocal", "--anchor", "1.5")
        assert out.returncode == 3
        assert "build failed" in out.stdout

    def test_catalog_span_override(self):
        # spans starting with a negative number need the --span=a,b form
        out = run_cli("integrate", "--catalog", "parabola", "--span=-1,1",
                      "--output", "json")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["total"] == 0.0  # F(1) - F(-1) for x^2


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

    def test_csv_output_sections(self):
        out = run_cli("integrate", "--catalog", "heaviside", "--output", "csv")
        assert "# series: kh" in out.stdout
        assert "depth,h,r,epsilon,value,delta" in out.stdout

    def test_failed_kh_note_shown_once(self):
        # the note of a failed kh ladder is printed on the kh line and
        # nowhere else in the table; x^2 with an undeclared jump of 1e-3 at
        # 0.3 fails its depth-2 build
        argv = ("--function", "piecewise{ x < 0.3 : x^2 ; x >= 0.3 : x^2 + 0.001 }",
                "--derivative", "2*x", "--exceptional", "0.5", "--span", "0,1")
        job = cli.job_from_args(cli.build_arg_parser().parse_args(("integrate",) + argv))
        note = decompose(job.resolve_model()).kh_verdict.note
        assert note.startswith("build failed at depth 2: ")
        out = run_cli("integrate", *argv)
        assert out.returncode == 0
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
        assert all(len(line.split(",")) == 6 for line in data_lines)


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
                for command in ("integrate", "verify", "residues", "partition")}
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


def library_dump(name, builder, eps=EPSILONS[0]):
    """The CSV of the partition ``gaugeint partition --catalog name`` builds
    at default settings, built through the library."""
    model = catalog(name)
    r0 = RefinementSchedule.for_model(model).r0
    h = model.span.length / 8
    if builder == "anchored":
        part = build_anchored(model.span, tuple(model.E), r=r0, h=h)
    elif builder == "straddle":
        part = build_straddle_verified(model, r=r0, eps=eps)
    else:
        part = build_cousin(model.span, anchored_gauge_for(model.E, r0, h))
    return partition_to_csv(part, tuple(model.E))


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
            "depth,h,r,epsilon,value,delta",
            "0,1,0.050000000000000003,0.01,0,",
        ]

    def test_json(self):
        out = run_cli("residues", "--catalog", "heaviside", "--output", "json")
        doc = json.loads(out.stdout)
        assert doc["residuals"]["0.0"]["value"] == 1.0


class TestEmit:
    def test_every_format_preserves_verdict_kinds(self):
        from gaugeint import RefinementSchedule, catalog, decompose
        from gaugeint.cli import emit

        model = catalog("reciprocal")
        sched = RefinementSchedule.for_model(model, eps0=1e-2, eps_factor=0.995)
        report = decompose(model, schedule=sched, max_depth=12, div_threshold=100.0)
        table = emit(report, "table", model=model)
        as_json = json.loads(emit(report, "json"))
        csv_text = emit(report, "csv")
        assert "diverged" in table
        assert as_json["kh"]["kind"] == "diverged"
        assert as_json["basic_sum"]["kind"] == "diverged"
        assert "# series: kh" in csv_text and "# series: basic_sum" in csv_text

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


class TestReadme:
    def test_cli_block_holds_the_endpoint_example(self):
        lines = readme_cli_lines()
        assert len(lines) == 6
        assert ["verify", "--function", "sqrt(x)", "--derivative", "1/(2*sqrt(x))",
                "--exceptional", "0", "--span", "0,1"] in lines

    @pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
    def test_cli_line_exits_zero(self, argv):
        out = run_cli(*argv)
        assert out.returncode == 0, out.stderr


class TestParseCommand:
    def test_ok(self):
        out = run_cli("parse", "1/x")
        assert out.returncode == 0
        assert out.stdout.strip() == "1.0 / x"

    def test_error_position_on_stderr(self):
        out = run_cli("parse", "piecewise{ x < : 1 }")
        assert out.returncode == 2
        assert "position 15" in out.stderr

    def test_consistency_warning_on_stderr(self):
        # mildly wrong derivative passes a loose straddle check at eps=0.05
        # but trips the central-difference warning
        out = run_cli("verify", "--function", "x^2", "--derivative", "2*x + 0.01",
                      "--span", "0,1", "--epsilon", "5e-2")
        assert "warning" in out.stderr
