"""Benchmark driver for gaugeint.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --self-test               # checker planted-fault test

Each workload runs in its own fresh interpreter (``worker.py``), one at a
time and single-threaded.  Set-up time is the median over several fresh
interpreters, each timed from its spawn until its first op is ready.  The
metric names and units come from ``BENCHMARK.json`` at the checkout root;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 8  # set-up-only interpreters, besides the measuring one
TIMEOUT_S = 175.0


class BenchError(Exception):
    pass


def spawn(workload, seed, seconds, trace, *flags, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *flags, "--t0-ns", str(time.monotonic_ns())]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker timed out after {timeout:.0f} s") from None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[0].startswith("READY "):
        sys.stderr.write(done.stdout)
        raise BenchError(f"{workload}: worker exited with code {done.returncode}")
    return tuple(map(float, lines[0].split()[1:])), lines[1:]


def run_workload(bench, workload, seed, seconds, trace):
    deadline = time.monotonic() + TIMEOUT_S
    setups = [spawn(workload, seed, seconds, trace, "--setup-only",
                    timeout=deadline - time.monotonic())[0] for _ in range(SETUP_PROBES)]
    ready, lines = spawn(workload, seed, seconds, trace, timeout=deadline - time.monotonic())
    setups.append(ready)
    if not lines or not lines[-1].startswith("RESULT "):
        raise BenchError(f"{workload}: worker printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    print(f"== {workload}  seed {seed}  seconds {seconds}  trace {trace}")
    for line in lines[:-1]:
        print(line)
    setup_s = statistics.median(s for _, s in setups)
    print(f"setup_s       {setup_s:.6f} s  (median of {len(setups)} fresh interpreters; "
          f"unscaled median {statistics.median(r for r, _ in setups):.6f} s)")

    found = dict(result["metrics"], setup_s=setup_s)
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in found]
    if missing:
        raise BenchError(f"{workload}: metrics not measured: {', '.join(missing)}")
    result["metrics"] = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]}
                         for m in declared}
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gaugeint", "__init__.py")):
        print(f"error: no gaugeint sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]

    try:
        if args.self_test:
            _, lines = spawn(names[0], args.seed, seconds, 0, "--self-test", timeout=TIMEOUT_S)
            print("\n".join(lines))
            return 0
        if args.workload == "all":
            results = {w: run_workload(bench, w, args.seed, seconds, args.trace) for w in names}
            summary(results)
            return 0
        if args.workload not in names:
            print(f"error: unknown workload {args.workload!r}; known: {', '.join(names)}",
                  file=sys.stderr)
            return 2
        result = run_workload(bench, args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def summary(results):
    """One table of every workload's metrics, then one JSON line holding the
    per-workload results."""
    metrics = list(next(iter(results.values()))["metrics"])
    print("== summary")
    print(f"  {'metric':26s}" + "".join(f"{w:>20s}" for w in results))
    for m in metrics:
        unit = next(iter(results.values()))["metrics"][m]["unit"]
        print(f"  {m + ' [' + unit + ']':26s}"
              + "".join(f"{r['metrics'][m]['value']:20.6g}" for r in results.values()))
    print(f"  {'failed_share':26s}"
          + "".join(f"{r['failed'] / r['attempted']:20.6g}" for r in results.values()))
    print(json.dumps(results))


if __name__ == "__main__":
    sys.exit(main())
