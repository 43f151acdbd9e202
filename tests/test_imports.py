"""Every name a module of the package or of its tests imports is used in
that module, and every private module-level function, class or constant and
every private method is read somewhere in the package.  No module of the
package imports inside a function: its imports are all read when it loads.

``__init__.py`` is exempt from the import check, since its imports are the
package's public names, and so are imports from ``__future__``.

Every field of a ``@dataclass`` of the package is read as an attribute
somewhere in the package, its tests or its benchmark.

The benchmark under ``perfbench/`` reads the package too: every name it
reads must exist, and its checker, its traced layer and every op of its
workloads must run.  The CI workflow's inline Python programs must compile.
"""

import ast
import importlib
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaugeint"
TESTS = Path(__file__).resolve().parent
ROOT = PACKAGE.parents[1]
PERFBENCH = ROOT / "perfbench"
MODULES = (sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def unused_imports(source: str) -> list:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def function_imports(source: str) -> list:
    """The line numbers of the imports ``source`` makes inside a function,
    in order."""
    return sorted({node.lineno for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))})


def definitions(tree) -> list:
    """The module-level ``def``, ``class`` and assigned names of ``tree`` and
    the ``def`` names in its classes, as ``(qualified name, name)`` pairs in
    definition order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(t.id, t.id) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [(f"{node.name}.{item.name}", item.name) for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return names


def dead_private_helpers(sources: dict) -> list:
    """The private module-level functions, classes and constants and the
    private methods of ``sources`` (module name to source) that no module
    reads as a name, an attribute or an import, as ``module.name`` or
    ``module.Class.name`` in module and definition order."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return [f"{module}.{qualified}" for module, tree in trees.items()
            for qualified, name in definitions(tree)
            if name.startswith("_") and not name.startswith("__") and name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Iterator, Tuple\n"
              "x: Tuple\n")
    assert unused_imports(source) == ["os", "Iterator"]


def test_no_function_level_imports():
    found = [f"{p.name}:{line}" for p in sorted(PACKAGE.glob("*.py"))
             for line in function_imports(p.read_text(encoding="utf-8"))]
    assert found == []


def test_guard_sees_function_level_imports():
    source = ("import os\n"
              "def f():\n"
              "    from . import builders\n"
              "    def g():\n"
              "        import sys\n"
              "    return os\n"
              "class C:\n"
              "    def m(self):\n"
              "        import json\n"
              "x = [os for _ in ()]\n")
    assert function_imports(source) == [3, 5, 9]


def test_no_dead_private_helpers():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_helpers(sources) == []


def test_guard_sees_dead_helpers():
    sources = {"a": ("def _dead():\n    pass\n"
                     "def _local():\n    pass\n"
                     "class _Shared:\n    pass\n"
                     "def _by_attribute():\n    pass\n"
                     "def __getattr__(name):\n    pass\n"
                     "_UNREAD = 1\n"
                     "_READ: int = 2\n"
                     "__all__ = []\n"
                     "x = _local() + _READ\n"),
               "b": ("from . import a\n"
                     "from .a import _Shared\n"
                     "a._by_attribute()\n"
                     "def _self_only(n):\n    _self_only = n\n"
                     "class C:\n"
                     "    def __init__(self):\n        self._called()\n"
                     "    def _called(self):\n        pass\n"
                     "    def _uncalled(self):\n        pass\n")}
    assert dead_private_helpers(sources) == ["a._dead", "a._UNREAD", "b._self_only",
                                             "b.C._uncalled"]



def unread_fields(sources: dict, others=()) -> list:
    """The fields of the ``@dataclass`` classes of ``sources`` (module name to
    source) that neither those sources nor the sources in ``others`` read as
    an attribute, as ``module.Class.field`` in module and definition order."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.attr for tree in [*trees.values(), *map(ast.parse, others)]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}

    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    return [f"{module}.{node.name}.{item.target.id}"
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and item.target.id not in read]


def test_no_unread_dataclass_fields():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    others = [p.read_text(encoding="utf-8")
              for p in sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))]
    assert unread_fields(sources, others) == []


def test_guard_sees_unread_fields():
    sources = {"a": ("import dataclasses\n"
                     "from dataclasses import dataclass\n"
                     "@dataclass(frozen=True)\n"
                     "class A:\n"
                     "    read: int\n"
                     "    unread: str = ''\n"
                     "    def double(self):\n        return 2 * self.read\n"
                     "@dataclasses.dataclass\n"
                     "class B:\n"
                     "    elsewhere: int\n"
                     "    written: int\n"
                     "class Plain:\n"
                     "    never: int\n")}
    others = ["def f(b):\n    b.written = 1\n    return b.elsewhere\n"]
    assert unread_fields(sources, others) == ["a.A.unread", "a.B.written"]


def bound_by(module: str, name: str):
    """What ``from module import name`` binds, or None when it raises."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        try:
            return importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            return None


def gaugeint_reads(source: str) -> list:
    """The ``(module, name)`` pairs ``source`` reads from the package: each
    name it imports from ``gaugeint`` or a submodule, and each attribute it
    reads off a submodule it imports as a name, sorted."""
    tree = ast.parse(source)
    modules, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gaugeint"):
            for alias in node.names:
                value = bound_by(node.module, alias.name)
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value.__name__
                else:
                    reads.append((node.module, alias.name))
    reads += [(modules[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    return sorted(set(reads))


def missing_reads(source: str) -> list:
    """The reads of :func:`gaugeint_reads` that the package does not bind,
    as ``module.name``."""
    return [f"{module}.{name}" for module, name in gaugeint_reads(source)
            if bound_by(module, name) is None]


def test_benchmark_reads_only_names_the_package_has():
    # a rename in the package that the benchmark still reads fails here, not
    # only in a benchmark run
    missing = [f"{path.name}: {read}" for path in sorted(PERFBENCH.glob("*.py"))
               for read in missing_reads(path.read_text(encoding="utf-8"))]
    assert missing == []


def test_guard_sees_missing_benchmark_reads():
    source = ("from gaugeint import cli, catalog, decompose\n"
              "from gaugeint.builders import build_cousin, build_nothing as nothing\n"
              "x = cli.run(catalog('heaviside'))\n"
              "y = cli.walk\n")
    assert gaugeint_reads(source) == [
        ("gaugeint", "catalog"), ("gaugeint", "decompose"),
        ("gaugeint.builders", "build_cousin"), ("gaugeint.builders", "build_nothing"),
        ("gaugeint.cli", "run"), ("gaugeint.cli", "walk")]
    assert missing_reads(source) == ["gaugeint.builders.build_nothing", "gaugeint.cli.walk"]


# Every op of every benchmark workload, run once and judged by its checker.
RUN_EVERY_OP = """
import json, sys, tempfile
sys.path[:0] = ['perfbench', 'src']
import workloads as wl
with open('BENCHMARK.json') as fh:
    names = [workload['name'] for workload in json.load(fh)['workloads']]
with tempfile.TemporaryDirectory() as work_dir:
    for workload in names:
        for op in wl.build_ops(workload, work_dir):
            outcome = op.check(op.run(wl.Plain()))
            assert outcome.ok, (workload, op.name, outcome.reason)
"""


# One traced layer pass: its replay of the CLI jobs calls the library with
# the keywords cli.run passes, and prints a warning where the two differ.
LAYER_PASS = """
import os, sys, tempfile
sys.path[:0] = ['perfbench', 'src']
import tracing
with tempfile.TemporaryDirectory() as work_dir:
    tracing.layer_pass(0, os.path.join(work_dir, 'jobs'))
"""


@pytest.mark.parametrize("argv", [
    ["perfbench/run.py", "--self-test"],
    ["-c", "import sys; sys.path[:0] = ['perfbench', 'src']; import tracing"],
    ["-c", RUN_EVERY_OP],
    ["-c", LAYER_PASS],
], ids=["self-test", "import-tracing", "every-op", "layer-pass"])
def test_benchmark_runs(argv):
    # the benchmark's checker, its traced layer and its workloads run against
    # the package as it stands, so a rename or a signature change that the
    # benchmark still reads fails here, not only in a benchmark run
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    output = done.stdout + done.stderr
    assert done.returncode == 0, output
    assert not [line for line in output.splitlines() if line.startswith("warning:")], output


def test_workflow_programs_compile():
    # each ``python3 -c '...'`` program of the CI workflow is one single-quoted
    # shell word: an apostrophe inside it, even in a comment, ends the word
    # early, and the step fails before any of its checks runs
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    programs = re.findall(r"python3 -c '\n(.*?)\n *'", text, re.S)
    assert len(programs) == 3
    for program in programs:
        assert "'" not in program, program
        compile(textwrap.dedent(program), "tests.yml", "exec")
