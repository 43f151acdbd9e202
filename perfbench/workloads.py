"""Workload definitions and the per-op correctness checker.

A workload is a list of ops.  Each op calls the public API of ``gaugeint``
through a *context*: ``Plain`` calls straight through, while the tracer in
``tracing.py`` offers the same two methods (``call`` and ``model``) and
records a span around every call and every F/f evaluation.  The op code is
therefore identical in untraced and traced runs.

Every op result goes through ``Op.check``, which returns an ``Outcome``:
whether the op is correct, and how many of its verdicts converged within
``ORACLE_TOL`` of a finite catalog oracle ("oracle hits").
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gaugeint import (
    CATALOG_NAMES,
    RefinementSchedule,
    anchored_gauge,
    basic_sum_sequence,
    build_cousin,
    build_straddle_verified,
    catalog_entry,
    decompose,
    is_fine,
    partition_to_csv,
    residual_estimate,
    residue_check,
    riemann_sum,
    validate,
)
from gaugeint import cli

# tolerance of criterion 3 of the acceptance gate
ORACLE_TOL = 1e-2
# library defaults the ops run with
DEFAULT_TOL = 1e-6
DEFAULT_DIV = 1e12
DEFAULT_MAX_DEPTH = 20
IDENTITY_TOL = 2 * DEFAULT_TOL
ENVELOPE = {"total", "verification", "kh", "basic_sum", "residuals", "identity_gap"}
CLI_COMMANDS = ("integrate", "verify", "residues")

WORKLOADS = ("decompose-catalog", "dsl-jobs", "residue-ladders", "partition-dump")


class Plain:
    """Untraced context: calls go straight to the library."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def model(self, model, layer="models"):
        return model


@dataclass
class Outcome:
    ok: bool
    hits: int = 0
    reason: str = ""


@dataclass
class Op:
    name: str
    run: Callable  # run(ctx) -> result
    check: Callable  # check(result) -> Outcome
    group: str = ""  # per-command grouping used by the traced run


# ---------------------------------------------------------------------------
# checker pieces
# ---------------------------------------------------------------------------

class Tally:
    """Collects failures and oracle hits while one op result is checked."""

    def __init__(self):
        self.errors: list[str] = []
        self.hits = 0

    def fail(self, text):
        self.errors.append(text)

    def verdict(self, label, kind, value, oracle):
        """Judge one verdict (kind, converged value) against its oracle."""
        if kind == "converged":
            if oracle is None:
                self.fail(f"{label}: converged to {value!r} where the oracle diverges")
            elif abs(value - oracle) > ORACLE_TOL:
                self.fail(f"{label}: converged to {value!r}, oracle {oracle!r}")
            else:
                self.hits += 1
        elif kind == "diverged" and oracle is not None:
            self.fail(f"{label}: diverged where the oracle is {oracle!r}")

    def verdict_obj(self, label, verdict, oracle):
        self.verdict(label, verdict.kind, getattr(verdict, "value", None), oracle)

    def total(self, value, entry):
        if value != entry.total:
            self.fail(f"total {value!r} differs from the catalog total {entry.total!r}")

    def identity(self, gap, tolerance=IDENTITY_TOL):
        if gap is not None and gap > tolerance:
            self.fail(f"identity gap {gap!r} above {tolerance!r}")

    def outcome(self) -> Outcome:
        return Outcome(not self.errors, self.hits, "; ".join(self.errors))


def check_decomposition(entry, report) -> Outcome:
    t = Tally()
    t.total(report.total, entry)
    for row in report.verification.rows:
        if not row.ok:
            t.fail(f"verification row eps={row.epsilon!r} not ok ({row.error})")
    t.verdict_obj("kh", report.kh_verdict, entry.kh_value)
    t.verdict_obj("basic_sum", report.basic_sum_verdict, entry.basic_sum)
    for e, v in report.residuals.items():
        t.verdict_obj(f"residual({e!r})", v, entry.residuals[e])
    t.identity(report.identity_gap, report.identity_tolerance)
    return t.outcome()


def _check_json_verdict(t, label, doc, oracle):
    if doc is not None:
        t.verdict(label, doc["kind"], doc.get("value"), oracle)


class CliCheck:
    """Checks one CLI job: exit code, envelope, oracles, and byte-identity
    with the output of the first sweep."""

    def __init__(self, entry, command):
        self.entry = entry
        self.command = command
        self.reference = None

    def __call__(self, result) -> Outcome:
        code, text = result
        t = Tally()
        if code != 0:
            t.fail(f"exit code {code}")
            return t.outcome()
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            t.fail("output differs from the first sweep's")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            t.fail(f"output is not JSON: {exc}")
            return t.outcome()
        if set(doc) != ENVELOPE:
            t.fail(f"envelope keys {sorted(doc)}")
            return t.outcome()
        entry = self.entry
        if self.command in ("integrate", "verify"):
            t.total(doc["total"], entry)
        for row in doc["verification"]:
            if "error" in row or row["residual"] is None or row["residual"] > row["bound"]:
                t.fail(f"verification row eps={row['epsilon']!r} not ok")
        _check_json_verdict(t, "kh", doc["kh"], entry.kh_value)
        _check_json_verdict(t, "basic_sum", doc["basic_sum"], entry.basic_sum)
        for key, v in doc["residuals"].items():
            _check_json_verdict(t, f"residual({key})", v, entry.residuals[float(key)])
        t.identity(doc["identity_gap"])
        return t.outcome()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def decompose_ops(entries=None) -> list[Op]:
    """decompose at default settings on every catalog model (numpy closures)."""
    ops = []
    for entry in entries or [catalog_entry(n) for n in CATALOG_NAMES]:
        def run(ctx, entry=entry):
            return ctx.call("integrate.decompose", decompose, ctx.model(entry.model))

        ops.append(Op(f"decompose:{entry.name}", run,
                      lambda rep, entry=entry: check_decomposition(entry, rep)))
    return ops


def write_jobs(job_dir) -> dict:
    """One JSON job file per model with interior exceptional points, holding
    the catalog's own DSL texts, exceptional set and span."""
    os.makedirs(job_dir, exist_ok=True)
    paths = {}
    for name in CATALOG_NAMES:
        entry = catalog_entry(name)
        m = entry.model
        if any(e in (m.span.lo, m.span.hi) for e in m.E):
            continue  # the job layer rejects endpoint points (exit 2)
        doc = {"F": entry.dsl_F, "f": entry.dsl_f, "E": list(m.E),
               "span": [m.span.lo, m.span.hi], "output": "json"}
        path = os.path.join(job_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths[name] = path
    return paths


def run_cli(ctx, argv):
    """In-process ``gaugeint.cli.run`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = ctx.call("cli.run", cli.run, argv)
    return code, out.getvalue()


def dsl_job_ops(job_dir) -> list[Op]:
    ops = []
    for name, path in write_jobs(job_dir).items():
        entry = catalog_entry(name)
        for command in CLI_COMMANDS:
            argv = [command, "--job", path]
            ops.append(Op(f"{command}:{name}", lambda ctx, argv=argv: run_cli(ctx, argv),
                          CliCheck(entry, command), group=command))
    return ops


def residue_ops() -> list[Op]:
    """Anchor-only ladders: basic sums and residuals for every model and
    point, and the residue theorem on the two models with f = 0."""
    ops = []
    for name in CATALOG_NAMES:
        entry = catalog_entry(name)
        sched = RefinementSchedule.for_model(entry.model)

        def run_bs(ctx, entry=entry, sched=sched):
            return ctx.call("sums.basic_sum_sequence", basic_sum_sequence,
                            ctx.model(entry.model), sched)

        def check_bs(result, entry=entry):
            t = Tally()
            t.verdict_obj("basic_sum", result[1], entry.basic_sum)
            return t.outcome()

        ops.append(Op(f"basic_sum:{name}", run_bs, check_bs, group="basic_sum"))
        for e in entry.model.E:
            def run_res(ctx, entry=entry, sched=sched, e=e):
                return ctx.call("models.residual_estimate", residual_estimate,
                                ctx.model(entry.model), e, sched)

            def check_res(verdict, entry=entry, e=e):
                t = Tally()
                t.verdict_obj(f"residual({e!r})", verdict, entry.residuals[e])
                return t.outcome()

            ops.append(Op(f"residual:{name}@{e!r}", run_res, check_res, group="residual"))
    for name in ("heaviside", "staircase3"):
        entry = catalog_entry(name)

        def run_rc(ctx, entry=entry):
            return ctx.call("integrate.residue_check", residue_check, ctx.model(entry.model))

        def check_rc(rep, entry=entry):
            t = Tally()
            t.total(rep.lhs, entry)
            for e, v in rep.residuals.items():
                t.verdict_obj(f"residual({e!r})", v, entry.residuals[e])
            t.identity(rep.gap)
            return t.outcome()

        ops.append(Op(f"residue_check:{name}", run_rc, check_rc, group="residue_check"))
    return ops


# model -> straddle tolerance of its materialised build (sized in README.md)
STRADDLE_DUMPS = {"reciprocal": 1e-3, "osc_sin_inv": 1e-2, "parabola": 1e-4,
                  "sqrt_singular": 1e-4}
COUSIN_DUMPS = ("heaviside", "staircase3")
COUSIN_MESH = 1e-4


@dataclass
class Dump:
    """What a partition-dump op hands to the checker."""

    partition: object
    valid: bool
    fine: bool
    riemann: float
    csv: str


def _anchor_increments(model, part) -> float:
    """Sum of extended-F increments over the pairs tagged on E."""
    mask = np.isin(part.tags, np.asarray(tuple(model.E)))
    return float(np.sum(model.extended_values(part.his[mask])
                        - model.extended_values(part.los[mask])))


def _check_dump(entry, dump: Dump) -> Outcome:
    """A dump is correct when the partition validates and is fine for its
    gauge and the CSV has one row per pair; it is an oracle hit when its
    Riemann sum plus its anchor increments reproduces the catalog total."""
    t = Tally()
    if not dump.valid:
        t.fail("partition fails validate")
    if not dump.fine:
        t.fail("partition is not fine for its gauge")
    if dump.csv.count("\n") != len(dump.partition) + 1:
        t.fail("CSV row count differs from the pair count")
    identity = dump.riemann + _anchor_increments(entry.model, dump.partition)
    if abs(identity - entry.total) <= ORACLE_TOL:
        t.hits += 1
    return t.outcome()


def partition_ops() -> list[Op]:
    ops = []
    for name, eps in STRADDLE_DUMPS.items():
        entry = catalog_entry(name)
        m = entry.model
        r0 = RefinementSchedule.for_model(m).r0
        gauge = anchored_gauge(mesh=m.span.length, anchor_radii={e: r0 for e in m.E},
                               isolating=False)

        def run_straddle(ctx, m=m, r0=r0, eps=eps, gauge=gauge):
            wm = ctx.model(m)
            part = ctx.call("builders.build_straddle_verified", build_straddle_verified,
                            wm, r=r0, eps=eps)
            valid = ctx.call("partition.validate", validate, part, m.span).ok
            fine = ctx.call("partition.is_fine", is_fine, part, gauge)
            rs = ctx.call("sums.riemann_sum", riemann_sum, wm, part)
            csv = ctx.call("partition.partition_to_csv", partition_to_csv, part, tuple(m.E))
            return Dump(part, valid, fine, rs.total, csv)

        ops.append(Op(f"straddle:{name}", run_straddle,
                      lambda d, entry=entry: _check_dump(entry, d), group="straddle"))
    for name in COUSIN_DUMPS:
        entry = catalog_entry(name)
        m = entry.model
        r0 = RefinementSchedule.for_model(m).r0
        gauge = anchored_gauge(mesh=COUSIN_MESH, anchor_radii={e: r0 for e in m.E},
                               isolating=True)

        def run_cousin(ctx, m=m, gauge=gauge):
            part = ctx.call("builders.build_cousin", build_cousin, m.span, gauge)
            csv = ctx.call("partition.partition_to_csv", partition_to_csv, part, tuple(m.E))
            return Dump(part, True, True, 0.0, csv)  # the checker fills in the rest

        def check_cousin(d, entry=entry, gauge=gauge):
            m = entry.model
            d.valid = validate(d.partition, m.span).ok
            d.fine = is_fine(d.partition, gauge)
            d.riemann = riemann_sum(m, d.partition).total
            return _check_dump(entry, d)

        ops.append(Op(f"cousin:{name}", run_cousin, check_cousin, group="cousin"))
    return ops


def build_ops(workload: str, work_dir: str) -> list[Op]:
    if workload == "decompose-catalog":
        return decompose_ops()
    if workload == "dsl-jobs":
        return dsl_job_ops(os.path.join(work_dir, "jobs"))
    if workload == "residue-ladders":
        return residue_ops()
    if workload == "partition-dump":
        return partition_ops()
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checker self-test
# ---------------------------------------------------------------------------

def self_test() -> list[str]:
    """Plant two faults and confirm the checker counts both.

    Returns a list of problems; empty means the checker works.  The control
    op (the genuine heaviside decomposition) must pass, a model whose
    declared derivative is wrong must fail, and a correct result judged
    against a wrong oracle value must fail.
    """
    import dataclasses

    from gaugeint import SingularFunctionModel

    problems = []
    ctx = Plain()
    heaviside = catalog_entry("heaviside")
    (control,) = decompose_ops([heaviside])
    if not control.check(control.run(ctx)).ok:
        problems.append("control op (heaviside decomposition) failed the checker")

    parabola = catalog_entry("parabola")
    m = parabola.model
    wrong_f = SingularFunctionModel(F=m.F, f=lambda x: 3.0 * np.asarray(x), E=m.E,
                                    span=m.span, provenance="planted:wrong-derivative")
    (op,) = decompose_ops([dataclasses.replace(parabola, model=wrong_f)])
    if op.check(op.run(ctx)).ok:
        problems.append("a wrong derivative passed the checker")

    wrong_oracle = dataclasses.replace(heaviside, kh_value=0.5)
    (op,) = decompose_ops([wrong_oracle])
    if op.check(op.run(ctx)).ok:
        problems.append("a wrong oracle value passed the checker")
    return problems


