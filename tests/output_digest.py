"""Print a digest of ``gaugeint``'s outputs on the catalog: the command line's,
then the library reports'.

    python tests/output_digest.py               # this tree's src/
    python tests/output_digest.py SRC [SRC...]  # each of these src/ trees

Each tree runs in a fresh interpreter, so a parent and a change compare in
one command.

Per catalog model it runs ``integrate``, ``verify`` and ``residues`` with
each ``--output`` (json, csv, table); ``integrate`` at ``--max-depth 45``
(csv), ``--tol 2e-3`` (json), ``--max-depth 0`` and ``--anchor 0.01``;
``partition`` with each builder; and ``integrate`` and ``residues`` with
``--emit-convergence``.  Then, on the mini-language path, it runs ``parse``
(json and table) of each model's ``dsl_F`` and ``dsl_f``, and ``integrate``,
``verify`` and ``residues --output json`` with the model's texts, span and
exceptional points given as flags: 126 + 49 = 175 runs, in process.  Each
run's argv, exit code,
standard output, standard error and convergence file go into one SHA-256,
with the convergence file's temporary path replaced by a fixed name.  The
script prints ``<runs> runs <sha256>``; two trees that print the same line
print the same bytes on every one of these runs.

A second line, ``<reports> reports <sha256>``, hashes the library reports
the command line does not print in full: per catalog model, ``decompose``
at ``max_depth`` 12, 20, 40 and 60, each at ``div_threshold`` 1e12 and 100
(its JSON document, kh and basic-sum traces, identity gap and residue-sum
gap), ``total_kh``'s rows and ``plain_kh``'s verdict: 70 reports.  It reads
only report fields that have not changed since traces replaced depth rows,
so a parent tree from then on runs it too.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CONVERGENCE = "CONVERGENCE.csv"  # the name hashed in place of the temporary path


def argvs(entries):
    """The argv of every run, in order; ``CONVERGENCE`` marks the path."""
    for entry in entries:
        model = ["--catalog", entry.name]
        for command in ("integrate", "verify", "residues"):
            for output in ("json", "csv", "table"):
                yield [command, *model, "--output", output]
        yield ["integrate", *model, "--max-depth", "45", "--output", "csv"]
        yield ["integrate", *model, "--tol", "2e-3", "--output", "json"]
        yield ["integrate", *model, "--max-depth", "0"]
        yield ["integrate", *model, "--anchor", "0.01"]
        for builder in ("anchored", "straddle", "cousin"):
            yield ["partition", *model, "--builder", builder]
        for command in ("integrate", "residues"):
            yield [command, *model, "--emit-convergence", CONVERGENCE]
    for entry in entries:
        for text in (entry.dsl_F, entry.dsl_f):
            for output in ("json", "table"):
                yield ["parse", "--function", text, "--output", output]
        span = entry.model.span
        model = ["--function", entry.dsl_F, "--derivative", entry.dsl_f,
                 f"--span={span.lo!r},{span.hi!r}",
                 "--exceptional=" + ",".join(map(repr, entry.model.E))]
        for command in ("integrate", "verify", "residues"):
            yield [command, *model, "--output", "json"]


def digest() -> str:
    from gaugeint import cli
    from gaugeint.catalog import CATALOG_NAMES, catalog_entry

    sha = hashlib.sha256()
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, CONVERGENCE)
        for argv in argvs([catalog_entry(name) for name in CATALOG_NAMES]):
            if os.path.exists(path):
                os.remove(path)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run([path if a == CONVERGENCE else a for a in argv])
            written = Path(path).read_text(encoding="utf-8") if os.path.exists(path) else None
            record = [argv, code, out.getvalue(), err.getvalue(), written]
            sha.update(json.dumps(record).encode() + b"\n")
            runs += 1
    return f"{runs} runs {sha.hexdigest()}"


def library_digest() -> str:
    from gaugeint import decompose, plain_kh, total_kh
    from gaugeint.catalog import CATALOG_NAMES, catalog

    sha = hashlib.sha256()
    reports = 0
    for name in CATALOG_NAMES:
        model = catalog(name)
        for max_depth in (12, 20, 40, 60):
            for div_threshold in (1e12, 100.0):
                report = decompose(model, max_depth=max_depth, div_threshold=div_threshold)
                record = [name, max_depth, div_threshold, report.to_json(), report.kh_trace,
                          report.bs_trace, report.identity_gap, report.residue_sum_gap]
                sha.update(json.dumps(record).encode() + b"\n")
                reports += 1
        rows = [row.to_json() for row in total_kh(model).rows]
        sha.update(json.dumps([name, "total_kh", rows]).encode() + b"\n")
        sha.update(json.dumps([name, "plain_kh", repr(plain_kh(model))]).encode() + b"\n")
        reports += 2
    return f"{reports} reports {sha.hexdigest()}"


def main(args) -> None:
    if args[:1] == ["--one"]:  # a child: digest the src/ it was handed
        sys.path.insert(0, args[1])
        print(digest())
        print(library_digest())
        return
    own = str(Path(__file__).resolve().parents[1] / "src")
    for src in args or [own]:
        lines = subprocess.run([sys.executable, __file__, "--one", os.path.abspath(src)],
                               check=True, capture_output=True, text=True).stdout.splitlines()
        for line in lines:
            print(f"{line}  {src}" if args else line)


if __name__ == "__main__":
    main(sys.argv[1:])
