"""Job-running command line interface.

Subcommands
-----------
integrate   full decomposition report (total, plain integral, basic sum,
            residual table, identity check)
verify      total-integral verification rows only
residues    residual table plus the basic-sum verdict
partition   build one partition and dump it as CSV
parse       syntax-check a mini-language expression

Exit codes: 0 success (divergence is a correct verdict, not a failure);
1 verdict-level failure (an unverified tolerance row, or an identity gap
above the combined tolerance); 2 usage or parse error; 3 build failure that
prevents any result.

Jobs may come from a JSON file (``--job``); flags override file fields.
The ``F`` field is either mini-language text or a catalog name.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field

from .builders import (
    RefinementSchedule,
    anchored_gauge_for,
    build_anchored,
    build_cousin,
    build_straddle_verified,
)
from .catalog import CATALOG_NAMES, catalog
from .dsl import CompiledFunction, ParseError, parse, render
from .errors import BuildError, EvaluationError, GaugeIntError
from .integrate import (
    EPSILONS,
    DecompositionReport,
    TotalReport,
    decompose,
    report_json,
    residue_table,
    total_kh,
)
from .models import ExceptionalSet, SingularFunctionModel, consistency_check
from .partition import Interval, partition_to_csv
from .verdicts import DIV_THRESHOLD, MAX_DEPTH, TOL, Converged

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_BUILD = 3


OUTPUTS = ("table", "json", "csv")
BUILDERS = ("anchored", "straddle", "cousin")


class JobError(Exception):
    """Invalid job specification (maps to exit code 2)."""


@dataclass
class Job:
    command: str
    F: str | None = None
    f: str | None = None
    E: list | None = None  # None: no source gave E; [] is an empty E
    span: tuple | None = None
    epsilons: list = field(default_factory=lambda: list(EPSILONS))
    anchor: float | None = None
    max_depth: int = MAX_DEPTH
    tol: float = TOL
    div_threshold: float = DIV_THRESHOLD
    seed: int = 0
    output: str = "table"
    emit_convergence: str | None = None
    builder: str = "anchored"
    expression: str | None = None  # for the parse command

    def validate(self) -> None:
        if self.output not in OUTPUTS or self.builder not in BUILDERS:
            raise JobError(f"output must be one of {OUTPUTS} and builder one of {BUILDERS}")
        if self.span is not None and len(self.span) != 2:
            raise JobError('span needs exactly two numbers "a,b"')
        if not self.epsilons:
            raise JobError("at least one epsilon value is required")
        if len(set(self.epsilons)) != len(self.epsilons):
            raise JobError("epsilon values must be distinct")
        if not all(0 < e < math.inf for e in self.epsilons):  # NaN fails too
            raise JobError("epsilon values must be finite and positive")
        if not (self.anchor is None or 0 < self.anchor < math.inf):  # NaN fails too
            raise JobError("anchor radius must be finite and positive")
        if self.max_depth < 0:
            raise JobError("max-depth must be nonnegative")
        if not (0 < self.tol < math.inf and 0 < self.div_threshold < math.inf):
            raise JobError("tol and div-threshold must be finite and positive")

    def resolve_model(self) -> SingularFunctionModel:
        """The job's model: a catalog entry's or the compiled DSL pair, with
        the job's span and exceptional points in place of the defaults.  The
        model's own checks are the only rules on them."""
        if self.F is None:
            raise JobError("no function given: use --catalog, --function or a job file")
        if self.F in CATALOG_NAMES:
            model = catalog(self.F)
            F, f, span, E, provenance = model.F, model.f, model.span, model.E, model.provenance
        else:
            F = CompiledFunction(self.F)  # surface parse errors first
            if self.f is None:
                raise JobError("--derivative is required for a non-catalog function")
            f = CompiledFunction(self.f)
            span, E, provenance = None, ExceptionalSet(), f"dsl:{F.source}"
        if self.span is not None:
            span = Interval(*self.span)
        elif span is None:
            raise JobError("--span is required for a non-catalog function")
        if self.E is not None:
            E = ExceptionalSet(self.E)
        return SingularFunctionModel(F=F, f=f, E=E, span=span, provenance=provenance)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _float_list(text: str) -> list:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# One row per job option: (job-file key, flag, Job attribute, add_argument
# keywords of the flag, JSON type a file value must hold; ``list`` means a
# list of numbers).  The job subcommands' flags, the job-file checks and the
# flag overrides all read it.  A file can put any type in any field, and a
# wrong one is a usage error, not a crash.  A row without a key is a
# flag-only option.  Row order is the flags' order in usage and help text.
_NUMBER = (int, float)
_FIELDS = (
    ("F", "--function", "F", dict(help="mini-language text for F"), (str, type(None))),
    ("f", "--derivative", "f", dict(help="mini-language text for f"), (str, type(None))),
    ("E", "--exceptional", "E", dict(type=_float_list, help='exceptional points "x1,x2"'), list),
    ("span", "--span", "span", dict(type=_float_list, help='working interval "a,b"'), list),
    ("epsilon", "--epsilon", "epsilons",
     dict(type=_float_list, help='tolerance list "1e-2,1e-3"'), list),
    ("anchor", "--anchor", "anchor",
     dict(type=float, help="anchor radius (default: schedule r0)"), (*_NUMBER, type(None))),
    ("max_depth", "--max-depth", "max_depth", dict(type=int), int),
    ("tol", "--tol", "tol", dict(type=float), _NUMBER),
    ("div_threshold", "--div-threshold", "div_threshold", dict(type=float), _NUMBER),
    ("seed", "--seed", "seed", dict(type=int), int),
    ("output", "--output", "output", dict(choices=OUTPUTS), str),
    (None, "--emit-convergence", "emit_convergence", dict(metavar="PATH"), None),
    ("builder", "--builder", "builder", dict(choices=BUILDERS), str),
)
_FILE_FIELDS = {key: (attr, kind) for key, _, attr, _, kind in _FIELDS if key}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugeint",
        description="Gauge-integration job runner: total integrals, residues, partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("integrate", "full decomposition report"),
        ("verify", "total-integral verification only"),
        ("residues", "residual table and basic sum"),
        ("partition", "build one partition and dump it as CSV"),
        ("parse", "syntax-check a function expression"),
    ):
        cmd = sub.add_parser(name, help=text)
        if name == "parse":
            cmd.add_argument("expression", nargs="?", help="expression text (or use --function)")
            cmd.add_argument("--function", dest="function")
            cmd.add_argument("--output", choices=OUTPUTS, default="table")
            continue
        cmd.add_argument("--job", help="JSON job file; flags override its fields")
        cmd.add_argument("--catalog", help="built-in model name")
        for _, flag, _, options, _ in _FIELDS:
            cmd.add_argument(flag, **options)
    return parser


_parser = functools.cache(build_arg_parser)  # what ``run`` parses with, built on first use


def _has_type(value, kind) -> bool:
    if kind is list:
        return isinstance(value, list) and all(_has_type(x, _NUMBER) for x in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def job_from_args(args: argparse.Namespace) -> Job:
    job = Job(command=args.command)
    if args.command == "parse":
        job.expression = args.expression or args.function
        job.output = args.output
        if job.expression is None:
            raise JobError("parse needs an expression argument or --function")
        return job

    if args.job:
        try:
            with open(args.job, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise JobError(f"cannot read job file: {exc}") from None
        if not isinstance(doc, dict):
            raise JobError("job file must hold a JSON object")
        for key, value in doc.items():
            if key == "command":  # the subcommand on the command line wins
                continue
            if key not in _FILE_FIELDS:
                raise JobError(f"unknown job field {key!r}")
            name, kind = _FILE_FIELDS[key]
            if not _has_type(value, kind):
                raise JobError(f"job field {key!r} has the wrong type: {value!r}")
            setattr(job, name, value)

    if args.catalog and args.function:
        raise JobError("give either --catalog or --function, not both")
    if args.catalog:
        if args.catalog not in CATALOG_NAMES:
            raise JobError(
                f"unknown catalog name {args.catalog!r}; known: {', '.join(CATALOG_NAMES)}"
            )
        job.F = args.catalog
        job.f = None
    for _, flag, name, _, _ in _FIELDS:
        value = getattr(args, flag[2:].replace("-", "_"))  # argparse's dest for the flag
        if value is not None and value != "":  # an empty text flag counts as absent
            setattr(job, name, value)
    if job.span is not None:
        job.span = tuple(float(x) for x in job.span)
    if job.E is not None:
        job.E = [float(x) for x in job.E]
    job.validate()
    return job


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return "n/a"
    return format(x, ".6g")


def _json_dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def convergence_csv(sections) -> str:
    lines = []
    for name, rows in sections:
        lines.append(f"# series: {name}")
        lines.append("depth,h,r,epsilon,value,delta")
        prev = None
        for row in rows:
            delta = "" if prev is None else format(abs(row.value - prev), ".17g")
            lines.append(
                f"{row.depth},{row.h:.17g},{row.r:.17g},{row.epsilon:.17g},"
                f"{row.value:.17g},{delta}"
            )
            prev = row.value
    return "\n".join(lines) + "\n"


def _verification_lines(report: TotalReport) -> list:
    lines = []
    for row in report.rows:
        if row.error is not None:
            lines.append(f"  eps={_fmt(row.epsilon)}: build failed ({row.error})")
        else:
            state = "ok" if row.ok else "EXCEEDED"
            lines.append(
                f"  eps={_fmt(row.epsilon)}: residual {_fmt(row.residual)} "
                f"<= {_fmt(row.bound)} [{state}] ({row.pairs} pairs)"
            )
    return lines


def _residual_lines(residuals) -> list:
    return [f"  R({_fmt(e)}) = {verdict.describe()}" for e, verdict in residuals.items()]


def _residuals_csv(residuals) -> str:
    lines = ["point,kind,value,error_estimate,depth,sign"]
    for e, v in residuals.items():
        if isinstance(v, Converged):
            lines.append(f"{e:.17g},converged,{v.value:.17g},{v.error_estimate:.17g},{v.depth},")
        elif v.kind == "diverged":
            lines.append(f"{e:.17g},diverged,,,,{'+' if v.sign > 0 else '-'}")
        else:
            lines.append(f"{e:.17g},inconclusive,,,,")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ResidualsSummary:
    """Report body of the ``residues`` subcommand."""

    basic_sum_verdict: object
    residuals: dict

    def to_json(self) -> dict:
        return report_json(basic_sum=self.basic_sum_verdict, residuals=self.residuals)


def emit(report, output_format: str, model=None) -> str:
    """Render a report as json (schema document), csv, or a readable table.

    Verdict kinds survive every format: json carries them structurally, csv
    in a kind column or the value ladder, tables in the describe() strings.
    """
    if output_format == "json":
        return _json_dump(report.to_json())

    if isinstance(report, DecompositionReport):
        if output_format == "csv":
            return convergence_csv([("kh", report.kh_rows), ("basic_sum", report.bs_rows)])
        lines = []
        if model is not None:
            lines.append(
                f"model          {model.provenance or 'user function'} on "
                f"[{_fmt(model.span.lo)}, {_fmt(model.span.hi)}], "
                f"E = {{{', '.join(_fmt(e) for e in model.E)}}}"
            )
        lines += [
            f"total          {_fmt(report.total)}",
            "verification",
            *_verification_lines(report.verification),
            f"kh             {report.kh_verdict.describe()}",
            f"basic_sum      {report.basic_sum_verdict.describe()}",
        ]
        if report.residuals:
            lines.append("residuals")
            lines += _residual_lines(report.residuals)
        if report.identity_gap is not None:
            lines.append(
                f"identity_gap   {_fmt(report.identity_gap)} "
                f"(tolerance {_fmt(report.identity_tolerance)})"
            )
        else:
            lines.append("identity_gap   n/a (needs both kh and basic_sum converged)")
        if report.residue_sum_gap is not None:
            lines.append(f"residue_sum    |sum R - basic_sum| = {_fmt(report.residue_sum_gap)}")
        if not report.lemma_consistent:
            lines.append("WARNING        kh and basic_sum verdicts disagree on convergence")
        return "\n".join(lines) + "\n"

    if isinstance(report, TotalReport):
        if output_format == "csv":
            lines = ["epsilon,residual,bound,pairs,ok"]
            for row in report.rows:
                res = "" if row.residual is None else format(row.residual, ".17g")
                lines.append(
                    f"{row.epsilon:.17g},{res},{row.bound:.17g},{row.pairs},{int(row.ok)}"
                )
            return "\n".join(lines) + "\n"
        lines = [f"total          {_fmt(report.total)}", "verification"]
        lines += _verification_lines(report)
        lines.append(f"verified       {report.verified}")
        return "\n".join(lines) + "\n"

    if isinstance(report, ResidualsSummary):
        if output_format == "csv":
            return _residuals_csv(report.residuals)
        lines = [f"basic_sum      {report.basic_sum_verdict.describe()}"]
        lines += [line.strip() for line in _residual_lines(report.residuals)]
        return "\n".join(lines) + "\n"

    raise TypeError(f"cannot emit {type(report).__name__}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _surface_warnings(model, seed: int) -> None:
    try:
        for warning in consistency_check(model, sample_count=32, seed=seed):
            print(f"warning: {warning}", file=sys.stderr)
    except GaugeIntError as exc:
        print(f"warning: derivative consistency check skipped: {exc}", file=sys.stderr)


def _write_convergence(job: Job, sections) -> None:
    """Write the ladders to the job's ``--emit-convergence`` path, if any;
    a path that cannot be written is a usage error."""
    if not job.emit_convergence:
        return
    try:
        with open(job.emit_convergence, "w", encoding="utf-8") as fh:
            fh.write(convergence_csv(sections))
    except OSError as exc:
        raise JobError(f"cannot write {job.emit_convergence}: {exc.strerror}") from None


def cmd_integrate(job: Job) -> int:
    model = job.resolve_model()
    _surface_warnings(model, job.seed)
    report = decompose(
        model,
        epsilons=job.epsilons,
        max_depth=job.max_depth,
        tol=job.tol,
        div_threshold=job.div_threshold,
        anchor_r=job.anchor,
    )
    _write_convergence(job, [("kh", report.kh_rows), ("basic_sum", report.bs_rows)])
    sys.stdout.write(emit(report, job.output, model=model))
    if not report.kh_rows:  # the depth-0 build failed, and the kh note says how
        print(f"error: {report.kh_verdict.note}", file=sys.stderr)
        return EXIT_BUILD
    if report.identity_gap is not None and report.identity_gap > report.identity_tolerance:
        print(
            f"error: identity gap {report.identity_gap:.6g} exceeds "
            f"{report.identity_tolerance:.6g}",
            file=sys.stderr,
        )
        return EXIT_VERDICT
    return EXIT_OK


def cmd_verify(job: Job) -> int:
    model = job.resolve_model()
    _surface_warnings(model, job.seed)
    report = total_kh(model, epsilons=job.epsilons, r=job.anchor)
    sys.stdout.write(emit(report, job.output))
    if all(row.error is not None for row in report.rows):
        return EXIT_BUILD
    return EXIT_OK if report.verified else EXIT_VERDICT


def cmd_residues(job: Job) -> int:
    model = job.resolve_model()
    _surface_warnings(model, job.seed)
    bs_rows, bs_verdict, residuals = residue_table(
        model, RefinementSchedule.for_model(model), job.max_depth, job.tol, job.div_threshold
    )
    summary = ResidualsSummary(basic_sum_verdict=bs_verdict, residuals=residuals)
    _write_convergence(job, [("basic_sum", bs_rows)])
    sys.stdout.write(emit(summary, job.output))
    return EXIT_OK


def cmd_partition(job: Job) -> int:
    model = job.resolve_model()
    schedule = RefinementSchedule.for_model(model)
    r = job.anchor if job.anchor is not None else schedule.r0
    h = model.span.length / 8
    if job.builder == "anchored":
        part = build_anchored(model.span, tuple(model.E), r=r, h=h)
    elif job.builder == "straddle":
        part = build_straddle_verified(model, r=r, eps=job.epsilons[0])
    else:
        gauge = anchored_gauge_for(model.E, r, h)
        part = build_cousin(model.span, gauge, tag_policy="midpoint", seed=job.seed)
    sys.stdout.write(partition_to_csv(part, tuple(model.E)))
    return EXIT_OK


def cmd_parse(job: Job) -> int:
    defn = parse(job.expression)
    canonical = render(defn)
    if job.output == "json":
        sys.stdout.write(_json_dump({"ok": True, "canonical": canonical}))
    else:
        sys.stdout.write(canonical + "\n")
    return EXIT_OK


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        job = job_from_args(args)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    handler = {
        "integrate": cmd_integrate,
        "verify": cmd_verify,
        "residues": cmd_residues,
        "partition": cmd_partition,
        "parse": cmd_parse,
    }[job.command]
    try:
        return handler(job)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BuildError as exc:
        print(f"build error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
