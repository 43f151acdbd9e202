"""The traced run: spans around public calls, counting F/f wrappers, and the
per-layer metrics.

Nothing inside ``gaugeint`` is patched.  A span is recorded only around a
call the benchmark itself makes into a public function, and around each
evaluation of a user-supplied ``F``/``f``, which the tracer wraps in a timing
and counting callable before handing the model to the library.  Where a
layer's work happens inside another public function (the straddle wave
engine inside ``plain_kh``, the DSL evaluator inside ``cli.run``), the layer
pass *replays* that work through the layer's own public functions.

Spans are held in memory as ``[name, start_ns, end_ns, parent, op, points]``
and written out once, at the end of the run.  A span's module is the part
of its name before the first dot; a module's self time is the duration of
its spans minus the part covered by their direct children.
"""

from __future__ import annotations

import io
import os
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from gaugeint import (
    CATALOG_NAMES,
    BuildLimits,
    BudgetExceeded,
    CompiledFunction,
    KahanAccumulator,
    RefinementSchedule,
    SingularFunctionModel,
    StraddleFailure,
    basic_sum_sequence,
    catalog_entry,
    classify,
    consistency_check,
    decompose,
    parse,
    plain_kh,
    residual_estimate,
    total_kh,
)
from gaugeint import cli
from gaugeint.builders import straddle_chunks
from gaugeint.verdicts import SequenceClassifier

import workloads as wl

MODULES = ("builders", "models", "dsl", "integrate", "sums", "verdicts", "partition", "cli")
WAVE_POINTS = 4097  # one full wave of the straddle engine
WAVE_REPEATS = 20
PARSE_REPEATS = 50


class Evaluator:
    """Timing and counting stand-in for a user-supplied F or f."""

    __slots__ = ("tracer", "name", "fn")

    def __init__(self, tracer, name, fn):
        self.tracer = tracer
        self.name = name
        self.fn = fn

    def __call__(self, x):
        counts = self.tracer.counts
        counts[self.name] = counts.get(self.name, 0) + 1
        return self.tracer.call(self.name, self.fn, x, points=int(np.size(x)))


class Tracer:
    """Traced context with the same ``call``/``model`` interface as
    ``workloads.Plain``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._models: dict = {}
        self.counts: dict = {}  # F/f wrapper calls by name
        self.outcomes: list = []  # (op, checker outcome) of the ops run
        self.op = -1

    def call(self, name, fn, *args, points=0, **kwargs):
        index = len(self.spans)
        span = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1,
                self.op, points]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def model(self, model, layer="models"):
        key = (id(model), layer)
        if key not in self._models:
            wrapped = SingularFunctionModel(
                F=Evaluator(self, f"{layer}.F", model.F),
                f=Evaluator(self, f"{layer}.f", model.f),
                E=model.E, span=model.span, provenance=model.provenance,
            )
            self._models[key] = (model, wrapped)  # holding model pins its id
        return self._models[key][1]

    # -- aggregation ---------------------------------------------------------

    def select(self, *prefixes):
        return [s for s in self.spans if s[0].startswith(prefixes)]

    def seconds(self, *prefixes) -> float:
        return sum(s[2] - s[1] for s in self.select(*prefixes)) * 1e-9

    def _covered(self) -> list:
        covered = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        return covered

    def self_seconds(self, name) -> float:
        """Self time of the spans with this exact name."""
        return sum(s[2] - s[1] - child for s, child in zip(self.spans, self._covered())
                   if s[0] == name) * 1e-9

    def self_times(self) -> dict:
        out = dict.fromkeys(MODULES, 0.0)
        for s, child in zip(self.spans, self._covered()):
            module = s[0].split(".", 1)[0]
            out[module] = out.get(module, 0.0) + (s[2] - s[1] - child) * 1e-9
        return out

    def evals(self, prefix):
        """(calls, points, seconds) of the F/f wrapper spans of one layer."""
        spans = self.select(f"{prefix}.F", f"{prefix}.f")
        return (len(spans), sum(s[5] for s in spans),
                sum(s[2] - s[1] for s in spans) * 1e-9)


def run_sweep(tr, ops):
    """One traced sweep in catalog order, every result checked; returns
    (op, result, seconds) triples."""
    out = []
    for i, op in enumerate(ops):
        tr.op = i
        t0 = time.perf_counter()
        result = op.run(tr)
        out.append((op, result, time.perf_counter() - t0))
        tr.outcomes.append((op, op.check(result)))
    return out


# ---------------------------------------------------------------------------
# layer pass sections
# ---------------------------------------------------------------------------

def _depths(verdict):
    if verdict.kind == "converged":
        return verdict.depth + 1
    if verdict.kind == "inconclusive":
        return len(verdict.trace)
    return None


def integrate_section(tr, metrics):
    """total_kh and plain_kh per catalog model, closure F/f wrapped."""
    verdicts = {}
    for i, name in enumerate(CATALOG_NAMES):
        tr.op = i
        wm = tr.model(catalog_entry(name).model)
        t0 = time.perf_counter()
        tr.call("integrate.total_kh", total_kh, wm)
        t1 = time.perf_counter()
        verdicts[name] = tr.call("integrate.plain_kh", plain_kh, wm)
        t2 = time.perf_counter()
        metrics[f"integrate.total_kh_s.{name}"] = t1 - t0
        metrics[f"integrate.plain_kh_s.{name}"] = t2 - t1
    metrics["integrate.total_kh_s"] = tr.seconds("integrate.total_kh")
    metrics["integrate.plain_kh_s"] = tr.seconds("integrate.plain_kh")
    return verdicts


class _Build:
    __slots__ = ("pairs", "chunks", "value")

    def __init__(self):
        self.pairs = 0
        self.chunks = 0
        self.value = 0.0


def _replay_build(wm, step, limits, build):
    """Stream one straddle build and fold it into its Riemann sum, as the
    plain-integral ladder does, counting accepted chunks and pairs."""
    acc = KahanAccumulator()
    for item in straddle_chunks(wm, wm.span, step.r, step.eps, limits, step.h):
        if item[0] == "anchor":
            build.pairs += 1
        else:
            _, positions, f_tags, _ = item
            build.chunks += 1
            build.pairs += len(f_tags)
            acc.add(float(np.sum(f_tags * np.diff(positions))))
    build.value = acc.total


def replay_section(tr, metrics, plain_verdicts):
    """Replay each model's plain-integral ladder through ``straddle_chunks``:
    pairs, waves and accepted chunks per depth, and the typed stop reason."""
    limits = BuildLimits()
    ladders = {}
    reasons = dict.fromkeys(("verdict", "budget", "straddle", "max_depth"), 0)
    chunks = 0
    for i, name in enumerate(CATALOG_NAMES):
        tr.op = i
        model = catalog_entry(name).model
        wm = tr.model(model)
        sched = RefinementSchedule.for_model(model)
        clf = SequenceClassifier(tol=wl.DEFAULT_TOL, div_threshold=wl.DEFAULT_DIV)
        rows, reason, depth, verdict = [], "max_depth", wl.DEFAULT_MAX_DEPTH, None
        for n in range(wl.DEFAULT_MAX_DEPTH + 1):
            build = _Build()
            waves_before = tr.counts.get("models.F", 0)
            stop = None
            try:
                tr.call("builders.straddle_chunks", _replay_build, wm, sched.at(n), limits, build)
            except BudgetExceeded as exc:
                stop, build.pairs = "budget", max(build.pairs, exc.pairs_built)
            except StraddleFailure:
                stop = "straddle"
            rows.append((n, build.pairs, tr.counts.get("models.F", 0) - waves_before, build.chunks))
            if stop is None:
                verdict = clf.push(n, build.value)
                stop = "verdict" if verdict is not None else None
            if stop is not None:
                reason, depth = stop, n
                break
        verdict = verdict or clf.finish()
        if verdict.kind != plain_verdicts[name].kind:
            print(f"warning: replayed ladder of {name} ends {verdict.kind}, "
                  f"plain_kh says {plain_verdicts[name].kind}")
        reasons[reason] += 1
        ladders[name] = (rows, reason, depth)
        metrics[f"builders.pairs.{name}"] = sum(r[1] for r in rows)
        metrics[f"builders.stop_depth.{name}"] = depth
        chunks += sum(r[3] for r in rows)
    pairs = sum(metrics[f"builders.pairs.{n}"] for n in CATALOG_NAMES)
    waves = tr.counts.get("models.F", 0)
    metrics["builders.pairs"] = pairs
    metrics["builders.waves"] = waves
    metrics["builders.wave_accept"] = chunks / waves
    metrics["builders.ns_per_pair"] = tr.self_times()["builders"] * 1e9 / pairs
    for key, count in reasons.items():
        metrics[f"builders.stop_{key}"] = count
    for name in CATALOG_NAMES:
        depths = _depths(plain_verdicts[name])
        metrics[f"integrate.depths.{name}"] = (
            depths if depths is not None else ladders[name][2] + 1)
    metrics["integrate.depths"] = sum(metrics[f"integrate.depths.{n}"] for n in CATALOG_NAMES)
    return ladders


def residue_section(tr, metrics):
    """A traced sweep of residue-ladders, and classify() replayed on every
    basic-sum trace it produced."""
    results = run_sweep(tr, wl.residue_ops())
    bs = [(op, res) for op, res, _ in results if op.group == "basic_sum"]
    metrics["sums.basic_sum_us"] = tr.seconds("sums.basic_sum_sequence") * 1e6 / len(bs)
    metrics["sums.basic_sum_depths"] = sum(len(trace) for _, (trace, _) in bs)
    for op, (trace, verdict) in bs:
        again = tr.call("verdicts.classify", classify, trace, wl.DEFAULT_TOL, wl.DEFAULT_DIV)
        if again.kind != verdict.kind:
            print(f"warning: classify() on the trace of {op.name} gives {again.kind}, "
                  f"the ladder gave {verdict.kind}")
    metrics["verdicts.classify_us"] = tr.seconds("verdicts.classify") * 1e6 / len(bs)
    ladder_depths = [len(trace) for _, (trace, _) in bs]
    ladder_depths += [_depths(res) for op, res, _ in results
                      if op.group == "residual" and _depths(res) is not None]
    metrics["verdicts.depths_to_verdict"] = statistics.fmean(ladder_depths)


def partition_section(tr, metrics):
    results = run_sweep(tr, wl.partition_ops())
    straddle_pairs = sum(len(res.partition) for op, res, _ in results if op.group == "straddle")
    all_pairs = sum(len(res.partition) for _, res, _ in results)
    metrics["partition.validate_ns_per_pair"] = tr.seconds("partition.validate") * 1e9 / straddle_pairs
    metrics["partition.is_fine_ns_per_pair"] = tr.seconds("partition.is_fine") * 1e9 / straddle_pairs
    metrics["partition.csv_ns_per_pair"] = tr.seconds("partition.partition_to_csv") * 1e9 / all_pairs
    metrics["sums.riemann_ns_per_pair"] = tr.self_seconds("sums.riemann_sum") * 1e9 / straddle_pairs


def cli_sweep_section(tr, metrics, job_dir):
    """A sweep of dsl-jobs as ``cli.run`` calls: one opaque span per job."""
    results = run_sweep(tr, wl.dsl_job_ops(job_dir))
    for command in wl.CLI_COMMANDS:
        metrics[f"cli.run_ms.{command}"] = sum(
            dt for op, _, dt in results if op.group == command) * 1e3
    return {op.name: res for op, res, _ in results}


def _replay_job(tr, argv):
    """The steps of one ``cli.run`` job through public functions, with the
    job's compiled DSL F/f wrapped; returns the emitted text."""
    args = cli.build_arg_parser().parse_args(argv)
    job = tr.call("cli.job_from_args", cli.job_from_args, args)
    model = tr.call("cli.resolve_model", job.resolve_model)
    wm = tr.model(model, layer="dsl")
    tr.call("models.consistency_check", consistency_check, wm, sample_count=32, seed=job.seed)
    limits = dict(max_depth=job.max_depth, tol=job.tol, div_threshold=job.div_threshold)
    if job.command == "integrate":
        report = tr.call("integrate.decompose", decompose, wm, epsilons=job.epsilons,
                         anchor_r=job.anchor, **limits)
    elif job.command == "verify":
        report = tr.call("integrate.total_kh", total_kh, wm, epsilons=job.epsilons, r=job.anchor)
    else:
        sched = RefinementSchedule.for_model(wm)
        residuals = {e: tr.call("models.residual_estimate", residual_estimate, wm, e, sched,
                                **limits) for e in wm.E}
        _, bs = tr.call("sums.basic_sum_sequence", basic_sum_sequence, wm, sched, **limits)
        report = cli.ResidualsSummary(basic_sum_verdict=bs, residuals=residuals)
    return tr.call("cli.emit", cli.emit, report, job.output, model=model)


def cli_replay_section(tr, metrics, job_dir, reference):
    """dsl-jobs replayed step by step; the emitted text must equal what
    ``cli.run`` printed for the same job."""
    mismatches = 0
    for i, op in enumerate(wl.dsl_job_ops(job_dir)):
        tr.op = i
        command, name = op.name.split(":")
        argv = [command, "--job", os.path.join(job_dir, f"{name}.json")]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            text = _replay_job(tr, argv)
        if text != reference[op.name][1]:
            mismatches += 1
    if mismatches:
        print(f"warning: {mismatches} replayed CLI jobs differ from cli.run output")
    metrics["cli.consistency_ms"] = tr.seconds("models.consistency_check") * 1e3
    metrics["cli.emit_ms"] = tr.seconds("cli.emit") * 1e3
    metrics["dsl.eval_s"] = tr.evals("dsl")[2]


def _wave_points(model, rng):
    """Seeded sample points in the span, clear of the exceptional set."""
    xs = rng.uniform(model.span.lo, model.span.hi, WAVE_POINTS)
    for e in model.E:
        xs[xs == e] = 0.5 * (e + model.span.hi)
    return np.sort(xs)


def dsl_section(tr, metrics, seed):
    """Per-point cost of the DSL evaluator against the numpy closures on
    4097-point waves of every catalog text, and parse time per text."""
    rng = np.random.default_rng(seed)
    parse_s = []
    dsl_ns = closure_ns = 0
    points = 0
    for i, name in enumerate(CATALOG_NAMES):
        tr.op = i
        entry = catalog_entry(name)
        xs = _wave_points(entry.model, rng)
        for text, closure in ((entry.dsl_F, entry.model.F), (entry.dsl_f, entry.model.f)):
            for _ in range(PARSE_REPEATS):
                t0 = time.perf_counter_ns()
                tr.call("dsl.parse", parse, text)
                parse_s.append(time.perf_counter_ns() - t0)
            compiled = CompiledFunction(text)
            for _ in range(WAVE_REPEATS):
                t0 = time.perf_counter_ns()
                tr.call("dsl.CompiledFunction", compiled, xs, points=xs.size)
                t1 = time.perf_counter_ns()
                tr.call("models.closure", closure, xs, points=xs.size)
                t2 = time.perf_counter_ns()
                dsl_ns += t1 - t0
                closure_ns += t2 - t1
                points += xs.size
    metrics["dsl.parse_us"] = statistics.median(parse_s) * 1e-3
    metrics["dsl.ns_per_point"] = dsl_ns / points
    metrics["models.wave_ns_per_point"] = closure_ns / points


def layer_pass(seed, job_dir):
    """Run every section once; returns (metrics, tracers, ladders)."""
    metrics = {}
    tracers = {name: Tracer() for name in
               ("integrate", "replay", "residue", "partition", "cli_sweep", "cli_replay", "dsl")}
    plain_verdicts = integrate_section(tracers["integrate"], metrics)
    ladders = replay_section(tracers["replay"], metrics, plain_verdicts)
    residue_section(tracers["residue"], metrics)
    partition_section(tracers["partition"], metrics)
    reference = cli_sweep_section(tracers["cli_sweep"], metrics, job_dir)
    cli_replay_section(tracers["cli_replay"], metrics, job_dir, reference)
    dsl_section(tracers["dsl"], metrics, seed)

    calls = points = seconds = 0
    for section in ("integrate", "residue"):
        c, p, s = tracers[section].evals("models")
        calls, points, seconds = calls + c, points + p, seconds + s
    metrics["models.eval_calls"] = calls
    metrics["models.eval_points"] = points
    metrics["models.eval_s"] = seconds
    metrics["models.ns_per_point"] = seconds * 1e9 / points

    # the cli_sweep section is one opaque span per job; its breakdown is the
    # cli_replay section, so it stays out of the module self times
    self_s = dict.fromkeys(MODULES, 0.0)
    for name, tr in tracers.items():
        if name != "cli_sweep":
            for module, s in tr.self_times().items():
                self_s[module] = self_s.get(module, 0.0) + s
    for module in MODULES:
        metrics[f"{module}.self_s"] = self_s[module]
    return metrics, tracers, ladders


def write_spans(path, tracers):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("section,name,start_ns,end_ns,parent,op,points\n")
        for section, tr in tracers.items():
            for s in tr.spans:
                fh.write(f"{section},{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{s[5]}\n")
