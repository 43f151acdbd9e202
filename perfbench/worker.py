"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``.  The worker imports ``gaugeint`` from the checkout's
``src/``, builds the workload's inputs, prints ``READY <setup seconds>
<scaled setup seconds>`` and then measures.  Human-readable lines follow; the last line is
``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

from speed import NOMINAL_S, SpeedSampler, reading

# latency statistics use the first N measured sweeps, so the sample count,
# and with it the tail percentile, does not depend on how fast the code is
LATENCY_SWEEPS = {"decompose-catalog": 6, "dsl-jobs": 4, "residue-ladders": 50,
                  "partition-dump": 8}
TAIL_BEYOND = 10
HARD_LIMIT_S = 150.0


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0-ns", type=int, required=True, dest="t0_ns")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--self-test", action="store_true")
    return p.parse_args(argv)


class Tally:
    """Attempted and failed ops of a run, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, op, outcome):
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.name}: {outcome.reason}")


class Runner:
    """Runs sweeps of one workload's ops and keeps their timings."""

    def __init__(self, wl, ops, seed, sampler, tally, keep_results=False):
        self.wl = wl
        self.ops = ops
        self.rng = random.Random(seed)
        self.sampler = sampler
        self.tally = tally
        self.results = {} if keep_results else None  # last result of each op

    def sweep(self, ctx):
        """Every op once, in a seeded order.  Returns the timing records
        ``(name, t0, t1, seconds)`` and the oracle hits.

        Only the op call is timed, less the sampler's readings inside it;
        the result is checked after the clock stops.  A raised exception is
        a failed op.
        """
        order = list(self.ops)
        self.rng.shuffle(order)
        records, hits = [], 0
        for op in order:
            busy = self.sampler.busy
            t0 = time.perf_counter()
            try:
                result = op.run(ctx)
            except Exception as exc:  # a failing op is data, not a crash
                self.tally.add(op, self.wl.Outcome(False, 0, f"{type(exc).__name__}: {exc}"))
                continue
            t1 = time.perf_counter()
            records.append((op.name, t0, t1, t1 - t0 - (self.sampler.busy - busy)))
            outcome = op.check(result)
            self.tally.add(op, outcome)
            hits += outcome.hits
            if self.results is not None:
                self.results[op.name] = result
        return records, hits

    def _scaled(self, records, keep_latencies):
        lat = [(name, s * self.sampler.scale(t0, t1) * 1e3) for name, t0, t1, s in records]
        return (sum(ms for _, ms in lat) * 1e-3, sum(r[3] for r in records),
                lat if keep_latencies else None)

    def measure(self, ctx, seconds, min_sweeps, start, lat_sweeps=None):
        """Sweeps until ``seconds`` have passed and at least ``min_sweeps``
        ran.  Returns per sweep (scaled seconds, unscaled seconds, scaled op
        latencies as (name, ms) pairs or None after the first
        ``lat_sweeps``), and the hits per sweep.

        A sweep is scaled once the sampler has a reading after it, and its
        records are dropped then, so memory does not grow with the run.
        """
        lat_sweeps = min_sweeps if lat_sweeps is None else lat_sweeps
        done, pending, hits = [], [], []
        t_end = time.perf_counter() + seconds
        while len(hits) < max(1, min_sweeps) or time.perf_counter() < t_end:
            if time.perf_counter() - start > HARD_LIMIT_S:
                break
            records, h = self.sweep(ctx)
            pending.append(records)
            hits.append(h)
            while pending and (not pending[0] or pending[0][-1][2] < self.sampler.times[-1]):
                done.append(self._scaled(pending.pop(0), len(done) < lat_sweeps))
        for records in pending:
            done.append(self._scaled(records, len(done) < lat_sweeps))
        return done, hits


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def latency_summary(latencies):
    """p50 and tail of (name, ms) samples.

    Latency clusters by op kind, so the median of all samples can fall in
    the gap between two kinds and swing with the extremes of both; p50 is
    therefore the median over op kinds of each kind's median.  The tail is
    the highest sample with ``TAIL_BEYOND`` samples beyond it.
    """
    by_kind = {}
    for name, v in latencies:
        by_kind.setdefault(name, []).append(v)
    ms = sorted(v for _, v in latencies)
    n = len(ms)
    tail_index = max(0, n - TAIL_BEYOND - 1)
    return {"p50": statistics.median(statistics.median(v) for v in by_kind.values()),
            "tail": ms[tail_index], "tail_pct": 100.0 * (tail_index + 1) / n,
            "tail_beyond": n - tail_index - 1, "n": n, "kinds": len(by_kind)}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(args, runner, wl, start):
    runner.sweep(wl.Plain())  # warm-up; fixes the CLI reference outputs
    n_lat = LATENCY_SWEEPS[args.workload]
    scaled, hits = runner.measure(wl.Plain(), args.seconds, n_lat, start)
    q1, med, q3 = quartiles([s for s, _, _ in scaled])
    lat = latency_summary([sample for _, _, lats in scaled[:n_lat] for sample in lats])
    rss = peak_rss_mb()
    unscaled = statistics.median(r for _, r, _ in scaled)
    print(f"sweep_s       {med:.6f} s  (q1 {q1:.6f}, q3 {q3:.6f}; {len(scaled)} sweeps "
          f"of {len(runner.ops)} ops; unscaled median {unscaled:.6f} s)")
    print(f"op_ms.p50     {lat['p50']:.6f} ms  (median of {lat['kinds']} op medians; {lat['n']} "
          f"ops of the first {n_lat} sweeps)")
    print(f"op_ms.tail    {lat['tail']:.6f} ms  (p{lat['tail_pct']:.1f}: {lat['tail_beyond']} "
          f"of {lat['n']} samples beyond it)")
    print(f"peak_rss_mb   {rss:.3f} MB")
    oracle_hits = statistics.median_low(hits)
    print(f"oracle_hits   {oracle_hits} per sweep")
    return {"sweep_s": med, "op_ms.p50": lat["p50"], "op_ms.tail": lat["tail"],
            "peak_rss_mb": rss, "oracle_hits": oracle_hits}


def _print_self_times(title, times):
    total = sum(times.values()) or 1.0
    print(title)
    for module, s in sorted(times.items(), key=lambda kv: -kv[1]):
        print(f"  {module:10s} {s:10.4f} s  {100 * s / total:5.1f}%")


def reanchor_table(ladders, scaled, results):
    """The ROADMAP baseline table: wall time, kh verdict, stop depth with
    reason, and accepted pairs per depth, per catalog model."""
    print("decompose at default settings (wall = median scaled untraced latency)")
    print(f"  {'model':14s} {'wall':>11s}  {'kh verdict':16s} {'stop':22s} pairs per depth")
    for name, (rows, reason, depth) in ladders.items():
        op = f"decompose:{name}"
        wall = statistics.median(ms for _, _, lats in scaled for n, ms in lats if n == op)
        kh = results[op].kh_verdict
        kh = f"converged {kh.value:.6g}" if kh.kind == "converged" else kh.kind
        pairs = " ".join(str(r[1]) for r in rows)
        print(f"  {name:14s} {wall:8.1f} ms  {kh:16s} {f'{reason} at depth {depth}':22s} {pairs}")


def traced(args, runner, wl, start, sampler):
    """Untraced and traced sweeps of the workload (for trace.overhead), then
    the layer pass, which is the same on every workload."""
    import tracing

    work_dir = os.path.join(args.root, "perfbench", "out")
    runner.sweep(wl.Plain())  # warm-up
    half = args.seconds / 2
    plain = runner.measure(wl.Plain(), half, 1, start, lat_sweeps=sys.maxsize)[0]
    tr = tracing.Tracer()
    traced_sweeps = runner.measure(tr, half, 1, start)[0]
    sampler.__exit__()  # the layer pass reports unscaled times
    plain_s = statistics.median(s for s, _, _ in plain)
    traced_s = statistics.median(s for s, _, _ in traced_sweeps)
    print(f"trace.overhead {traced_s - plain_s:.6f} s per sweep (traced {traced_s:.6f} s, "
          f"untraced {plain_s:.6f} s)")
    _print_self_times(f"self time by module, traced sweeps of {args.workload}", tr.self_times())

    metrics, tracers, ladders = tracing.layer_pass(args.seed, os.path.join(work_dir, "jobs"))
    for section in tracers.values():
        for op, outcome in section.outcomes:
            runner.tally.add(op, outcome)
    metrics["trace.overhead"] = traced_s - plain_s
    _print_self_times("self time by module, layer pass",
                      {m: metrics[f"{m}.self_s"] for m in tracing.MODULES})
    if args.workload == "decompose-catalog":
        reanchor_table(ladders, plain, runner.results)
    tracers = {"workload": tr, **tracers}
    os.makedirs(work_dir, exist_ok=True)
    path = os.path.join(work_dir, f"spans-{args.workload}.csv")
    tracing.write_spans(path, tracers)
    print(f"spans         {sum(len(t.spans) for t in tracers.values())} written to "
          f"{os.path.relpath(path, args.root)}")
    return metrics


def main(argv=None) -> int:
    args = _args(argv if argv is not None else sys.argv[1:])
    start = time.perf_counter()
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import gaugeint

    if not os.path.abspath(gaugeint.__file__).startswith(src + os.sep):
        print(f"error: gaugeint imported from {gaugeint.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads as wl

    ops = wl.build_ops(args.workload, os.path.join(args.root, "perfbench", "out"))
    setup_s = (time.monotonic_ns() - args.t0_ns) * 1e-9
    # set-up is scaled by a kernel reading taken right after it
    print(f"READY {setup_s:.9f} {setup_s * NOMINAL_S / reading():.9f}", flush=True)
    if args.setup_only:
        return 0

    problems = wl.self_test()
    for p in problems:
        print(f"checker self-test: {p}")
    if args.self_test:
        print("checker self-test:", "FAILED" if problems else
              "ok (both planted faults counted, control passed)")
        return 1 if problems else 0

    tally = Tally()
    sampler = SpeedSampler().__enter__()
    try:
        runner = Runner(wl, ops, args.seed, sampler, tally,
                        keep_results=args.trace and args.workload == "decompose-catalog")
        if args.trace:
            metrics = traced(args, runner, wl, start, sampler)
        else:
            metrics = untraced(args, runner, wl, start)
    finally:
        sampler.__exit__()
    print(f"speed         {sampler.summary()}")
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_share  {share:g}  ({tally.failed} of {tally.attempted} ops)")
    for reason in tally.reasons:
        print(f"  failed: {reason[:300]}")
    result = {"correct": tally.failed == 0 and not problems, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
