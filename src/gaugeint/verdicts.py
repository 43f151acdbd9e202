"""Uniform classification of limit sequences: converged, diverged, or neither.

Every limit process in the toolkit (plain integral estimates, basic sums,
residuals) produces a depth-indexed sequence of values.  The classifier turns
such a sequence into a single verdict:

* ``Converged`` -- the last three consecutive deltas ``|s_n - s_{n-1}|`` all
  fell within tolerance; the value is the last sequence element.
* ``Diverged`` -- ``|s_n|`` exceeded the divergence threshold while strictly
  increasing in magnitude over the last five depths.
* ``Inconclusive`` -- neither rule fired before the sequence ran out; the
  verdict carries the full trace for inspection.

The rules read only the last three deltas and the last five magnitudes, so
:class:`SequenceClassifier` keeps them as constant state: a count of the
trailing deltas within tolerance, a count of the trailing strict rises of
``|s_n|``, the last value and the last three deltas.  Each push does the
same work however long the sequence.  Each value is stored as
``float(s_n)``, and the deltas are taken between the stored floats.

One driver, :func:`run_ladder`, runs every such sequence: it pushes
``(depth, value)`` pairs into a :class:`SequenceClassifier` and stops at the
first verdict.  A depth that raises one of the ladder's stop exceptions ends
the sequence early; the verdict's note, the one record of a stop, names the
cause.  The three limit ladders and :func:`classify` all go through it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Tuple, Union

CONVERGE_RUN = 3
DIVERGE_RUN = 5

# Defaults shared by every ladder and the CLI job: the deepest depth run,
# the classifier's delta tolerance and its divergence threshold.
MAX_DEPTH = 20
TOL = 1e-6
DIV_THRESHOLD = 1e12

# The note of a ladder that reaches its last depth without a verdict.
MAX_DEPTH_NOTE = "no verdict by max depth {depth}"


@dataclass(frozen=True)
class Converged:
    value: float
    error_estimate: float
    depth: int

    kind = "converged"

    def to_json(self) -> dict:
        return {
            "kind": "converged",
            "value": self.value,
            "error_estimate": self.error_estimate,
            "depth": self.depth,
        }

    def describe(self) -> str:
        return f"converged({self.value:.6g} +/- {self.error_estimate:.2g} at depth {self.depth})"


@dataclass(frozen=True)
class Diverged:
    sign: int  # +1 or -1

    kind = "diverged"

    def to_json(self) -> dict:
        return {"kind": "diverged", "sign": self.sign}

    def describe(self) -> str:
        return f"diverged({'+' if self.sign > 0 else '-'})"


@dataclass(frozen=True)
class Inconclusive:
    trace: Tuple[Tuple[int, float], ...]
    note: str = ""

    kind = "inconclusive"

    def to_json(self) -> dict:
        doc = {"kind": "inconclusive", "trace": [[d, v] for d, v in self.trace]}
        if self.note:
            doc["note"] = self.note
        return doc

    def describe(self) -> str:
        msg = f"inconclusive after {len(self.trace)} depths"
        if self.note:
            msg += f" ({self.note})"
        return msg


ConvergenceVerdict = Union[Converged, Diverged, Inconclusive]


class SequenceClassifier:
    """Incremental form of :func:`classify`; lets drivers stop early.

    Push ``(depth, value)`` pairs in order.  ``push`` returns a verdict as
    soon as one of the rules fires, else ``None``; pushes may go on after a
    verdict, and each is judged on the whole sequence so far.  Call
    ``finish`` with the note that says why no more depths will be produced.
    """

    def __init__(self, tol: float, div_threshold: float):
        if not tol > 0:
            raise ValueError("tol must be positive")
        if not div_threshold > 0:
            raise ValueError("div_threshold must be positive")
        self.tol = tol
        self.div_threshold = div_threshold
        self.trace: list[tuple[int, float]] = []
        # A nan last value makes the first delta nan and the first rise
        # false, so the first push needs no branch of its own.
        self._last = math.nan
        self._mag = math.nan
        self._recent: deque[float] = deque(maxlen=CONVERGE_RUN)
        self._small = 0  # trailing deltas within tol
        self._rises = 0  # trailing strict rises of |value|

    def push(self, depth: int, value: float) -> ConvergenceVerdict | None:
        value = float(value)
        self.trace.append((depth, value))
        delta = abs(value - self._last)
        mag = abs(value)
        self._recent.append(delta)
        small = self._small = self._small + 1 if delta <= self.tol else 0
        rises = self._rises = self._rises + 1 if mag > self._mag else 0
        self._last = value
        self._mag = mag

        if small >= CONVERGE_RUN:
            return Converged(value=value, error_estimate=max(self._recent), depth=depth)
        if rises >= DIVERGE_RUN - 1 and mag > self.div_threshold:
            return Diverged(sign=1 if value > 0 else -1)
        return None

    def finish(self, note: str = "") -> ConvergenceVerdict:
        return Inconclusive(trace=tuple(self.trace), note=note)


Trace = Tuple[Tuple[int, float], ...]


def run_ladder(
    pair_at: Callable[[int], Tuple[int, float]],
    max_depth: int,
    tol: float,
    div_threshold: float,
    stops: Mapping[type, str],
) -> Tuple[Trace, ConvergenceVerdict]:
    """Classify ``pair_at(0), ..., pair_at(max_depth)``, each a ``(depth,
    value)`` pair, up to the first verdict; returns ``(trace, verdict)``.

    ``stops`` maps exception classes to note templates.  When ``pair_at(n)``
    raises one of them (first match in order), the ladder ends with an
    ``Inconclusive`` whose note is the template formatted with ``depth=n``
    and ``exc``; any other exception propagates.  A ladder that runs out of
    depths ends with ``MAX_DEPTH_NOTE`` formatted with its last depth.
    """
    clf = SequenceClassifier(tol=tol, div_threshold=div_threshold)
    for n in range(max_depth + 1):
        try:
            depth, value = pair_at(n)
        except tuple(stops) as exc:
            template = next(t for cls, t in stops.items() if isinstance(exc, cls))
            verdict = clf.finish(template.format(depth=n, exc=exc))
            return verdict.trace, verdict
        verdict = clf.push(depth, value)
        if verdict is not None:
            return tuple(clf.trace), verdict
    verdict = clf.finish(MAX_DEPTH_NOTE.format(depth=clf.trace[-1][0]) if clf.trace else "")
    return verdict.trace, verdict


def classify(
    sequence: Sequence[Tuple[int, float]],
    tol: float,
    div_threshold: float,
) -> ConvergenceVerdict:
    """Classify a complete depth/value sequence.

    The verdict fires at the earliest depth where its rule is satisfied;
    trailing elements never un-fire an earlier verdict.
    """
    if not sequence:
        raise ValueError("cannot classify an empty sequence")
    return run_ladder(sequence.__getitem__, len(sequence) - 1, tol, div_threshold, {})[1]


def verdict_to_json(verdict: ConvergenceVerdict | None) -> dict | None:
    return None if verdict is None else verdict.to_json()
