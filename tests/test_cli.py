import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv, timeout=120):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "gaugeint.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestExitCodes:
    def test_success_is_zero(self):
        out = run_cli("integrate", "--catalog", "heaviside")
        assert out.returncode == 0

    def test_divergence_is_still_zero(self):
        out = run_cli(
            "integrate", "--catalog", "reciprocal",
            "--div-threshold", "100", "--max-depth", "12",
        )
        assert out.returncode == 0
        assert "diverged" in out.stdout

    def test_usage_error_is_two(self):
        out = run_cli("integrate", "--function", "x^", "--derivative", "1",
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

    def test_wrong_derivative_build_failure_is_three(self):
        out = run_cli("integrate", "--function", "x^2", "--derivative", "3*x",
                      "--span", "0,1")
        assert out.returncode == 3

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
        a = run_cli("integrate", "--catalog", "heaviside", "--output", "json")
        b = run_cli("integrate", "--catalog", "heaviside", "--output", "json")
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


class TestPartitionCommand:
    def test_anchored_dump(self):
        out = run_cli("partition", "--catalog", "heaviside", "--builder", "anchored")
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
        assert len(out.stdout.strip().splitlines()) > 10

    def test_cousin_dump(self):
        out = run_cli("partition", "--catalog", "heaviside", "--builder", "cousin")
        assert out.returncode == 0

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
