"""Piecewise-function mini-language: parser, printer, evaluator.

Grammar (whitespace insignificant)::

    def        := expr | piecewise
    piecewise  := "piecewise" "{" branch (";" branch)* "}"
    branch     := cond ":" expr
    cond       := chain ("and" chain)*
    chain      := operand relop operand (relop operand)*   # a < x <= b allowed
    operand    := ["-"] NUMBER | "x"
    relop      := "<" | "<=" | ">" | ">=" | "==" | "!="
    expr       := additive
    additive   := multiplicative (("+" | "-") multiplicative)*
    multiplicative := unary (("*" | "/") unary)*
    unary      := "-" unary | power
    power      := atom ["^" unary]                         # right-associative
    atom       := NUMBER | "x" | "pi" | "e"
                | NAME "(" expr ("," expr)* ")" | "(" expr ")"

Numeric literals: decimal digits with optional fraction and optional
exponent (``1``, ``0.5``, ``1e-3``).  A literal is finite: one that
overflows binary64 (``1e400``) is a :class:`ParseError`, and one that
underflows (``1e-400``) reads as 0.  Calls: sin cos tan exp log sqrt abs
sign (1-argument), min max (2-argument).  ``log`` is the natural logarithm.

A text nests at most 200 levels deep, or it is a :class:`ParseError` at the
token that takes it to level 201.  A text is as deep as its tree is high,
each parenthesis counting a level: a number, ``x`` or a constant is 0 deep,
and a parenthesis, call, unary minus or binary operator is one level deeper
than its deepest operand.  So ``x+x+x``, read as ``(x+x)+x``, is 2 deep, and
``((x+x)+x)+x`` is 5.  Every tree :func:`parse` returns is then printed,
compiled and evaluated well inside Python's default recursion limit.

Evaluation is real-valued.  A point is undefined where any subexpression
is: division by zero, log of a nonpositive value, sqrt of a negative value, a
negative base raised to a non-integral power or zero to a negative one,
overflow, and falling off the end of a piecewise definition.  An undefined
operand never gives a defined result, even where IEEE arithmetic would
(``1/(1/x)``, ``exp(-1/x^2)`` and ``min(1/x, 5)`` at 0).  One compiler serves
both entry points: :class:`CompiledFunction` returns a non-finite value at an
undefined point, and :func:`evaluate` returns the ``UNDEFINED`` sentinel.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Tuple, Union

import numpy as np


class ParseError(Exception):
    """Syntax error with a 0-based byte position and expected-token set."""

    def __init__(self, position: int, expected: Tuple[str, ...], found: str = ""):
        self.position = position
        self.expected = tuple(expected)
        self.found = found
        expect = " or ".join(expected)
        msg = f"at position {position}: expected {expect}"
        if found:
            msg += f", found {found}"
        super().__init__(msg)


class _UndefinedType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Undefined"

    def __bool__(self):
        return False


UNDEFINED = _UndefinedType()


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Const:
    name: str  # "pi" | "e"


@dataclass(frozen=True)
class Unary:
    op: str  # "-"
    operand: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: Tuple["Node", ...]


@dataclass(frozen=True)
class Chain:
    """Comparison chain like ``0 < x <= 1``: operands are Num or Var."""

    operands: Tuple["Node", ...]
    ops: Tuple[str, ...]


@dataclass(frozen=True)
class Cond:
    chains: Tuple[Chain, ...]  # joined by "and"


@dataclass(frozen=True)
class Piecewise:
    branches: Tuple[Tuple[Cond, "Node"], ...]


Node = Union[Num, Var, Const, Unary, Bin, Call, Piecewise]


@dataclass(frozen=True)
class FunctionDef:
    ast: Node

    @cached_property
    def _math_fn(self):
        """The closure :func:`evaluate` runs, compiled on first use and kept
        on this object (an identity key: AST equality would merge
        ``Num(0.0)`` and ``Num(-0.0)``)."""
        return _compile(self.ast, _MATH_PRIMS)

    def __getstate__(self):
        # pickle the tree only; the closure is compiled again on first use
        return {"ast": self.ast}


FUNCTIONS = {
    "sin": 1, "cos": 1, "tan": 1, "exp": 1, "log": 1,
    "sqrt": 1, "abs": 1, "sign": 1, "min": 2, "max": 2,
}

# The grammar's tables: the parser reads each, and the printer or the
# compiler reads it too.
_CONSTANTS = {"pi": math.pi, "e": math.e}

_REL = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}

# precedence levels: additive 1, multiplicative 2, unary 3, power 4, atom 5
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_LEVEL, _ATOM_LEVEL = 3, 5


def _operand_levels(op: str) -> Tuple[int, int]:
    """The levels ``op``'s left and right operands are read at, and printed
    at without parentheses: a left-associative operator binds its right
    operand one level tighter; ``^`` takes an atom and a unary."""
    return (_ATOM_LEVEL, _UNARY_LEVEL) if op == "^" else (_LEVEL[op], _LEVEL[op] + 1)


# The deepest tree a text may nest (see ``_Parser.parse_expr``): deep enough
# for any hand-written function, shallow enough that printing, compiling
# and evaluating the tree stay far inside Python's default recursion limit.
_MAX_DEPTH = 200

# One match skips the spaces before a token and reads it; the group that
# matched names the token's kind, and none matches where no token starts.
# ``\s`` accepts exactly the characters ``str.isspace`` does, and the
# two-character operators come before their one-character prefixes.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<NUM>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<NAME>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<PUNCT><=|>=|==|!=|[-+*/^(){};:,<>])"
    r"|(?P<END>\Z))?"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM | NAME | PUNCT | END
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens, kind, i = [], None, 0
    while kind != "END":
        m = _TOKEN_RE.match(text, i)
        kind, i = m.lastgroup, m.end()
        if kind is None:
            raise ParseError(i, ("a token",), found=repr(text[i]))
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def fail(self, *expected: str):
        tok = self.cur
        found = tok.text if tok.kind != "END" else "end of input"
        raise ParseError(tok.pos, expected, found=repr(found))

    def expect(self, text: str) -> _Token:
        if self.cur.kind == "PUNCT" and self.cur.text == text:
            return self.advance()
        self.fail(f"'{text}'")

    def at_punct(self, *texts: str) -> bool:
        return self.cur.kind == "PUNCT" and self.cur.text in texts

    def separated(self, item, sep: str) -> list:
        """``item (sep item)*``; no token but ``sep`` itself has its text."""
        items = [item()]
        while self.cur.text == sep:
            self.advance()
            items.append(item())
        return items

    # definition ------------------------------------------------------------

    def parse_def(self) -> Node:
        if self.cur.kind == "NAME" and self.cur.text == "piecewise":
            node = self.parse_piecewise()
        else:
            node = self.parse_expr()[0]
        if self.cur.kind != "END":
            self.fail("end of input")
        return node

    def parse_piecewise(self) -> Piecewise:
        self.advance()  # "piecewise"
        self.expect("{")
        branches = self.separated(self.parse_branch, ";")
        self.expect("}")
        return Piecewise(branches=tuple(branches))

    def parse_branch(self) -> Tuple[Cond, Node]:
        cond = self.parse_cond()
        self.expect(":")
        return cond, self.parse_expr()[0]

    def parse_cond(self) -> Cond:
        return Cond(chains=tuple(self.separated(self.parse_chain, "and")))

    def parse_chain(self) -> Chain:
        operands = [self.parse_comp_operand()]
        ops = []
        if not self.at_punct(*_REL):
            self.fail("a comparison operator")
        while self.at_punct(*_REL):
            ops.append(self.advance().text)
            operands.append(self.parse_comp_operand())
        return Chain(operands=tuple(operands), ops=tuple(ops))

    def parse_comp_operand(self) -> Node:
        # literal (optionally signed) or the variable; sign folds into the literal
        if self.at_punct("-"):
            self.advance()
            return self.parse_number(-1.0)
        if self.cur.kind == "NUM":
            return self.parse_number()
        if self.cur.kind == "NAME" and self.cur.text == "x":
            self.advance()
            return Var()
        self.fail("a number", "'x'")

    def parse_number(self, sign: float = 1.0) -> Num:
        """The literal here times ``sign``; one that overflows binary64 is an
        error (one that underflows reads as zero)."""
        if self.cur.kind != "NUM":
            self.fail("a number")
        value = float(self.cur.text)
        if value == math.inf:
            self.fail("a finite number")
        self.advance()
        return Num(sign * value)

    # expressions -----------------------------------------------------------

    def nest(self, depth: int) -> int:
        """``depth + 1``, the level the current token reaches."""
        if depth == _MAX_DEPTH:
            self.fail(f"at most {_MAX_DEPTH} nested levels")
        return depth + 1

    def parse_expr(self, level: int = 1, depth: int = 0) -> Tuple[Node, int]:
        """Precedence climbing: an operand, then every operator of ``level``
        and up, each taking its right operand at the level
        :func:`_operand_levels` gives.  The expression sits ``depth``
        levels deep; returns it and the deepest level it reaches.  Each
        operator sinks the chain read so far one level deeper and takes its
        right operand ``depth + 1`` deep."""
        if self.at_punct("-"):
            inner = self.nest(depth)
            self.advance()
            operand, reached = self.parse_expr(_UNARY_LEVEL, inner)
            node = Unary("-", operand)
        else:
            node, reached = self.parse_atom(depth)
        while _LEVEL.get(self.cur.text, 0) >= level:
            reached = self.nest(reached)
            op = self.advance().text
            right, right_reached = self.parse_expr(_operand_levels(op)[1], depth + 1)
            node = Bin(op, node, right)
            reached = max(reached, right_reached)
        return node, reached

    def parse_atom(self, depth: int) -> Tuple[Node, int]:
        """The atom here, ``depth`` levels deep, and the deepest level it
        reaches."""
        tok = self.cur
        if tok.kind == "NUM":
            return self.parse_number(), depth
        if tok.kind == "NAME":
            if tok.text == "x":
                self.advance()
                return Var(), depth
            if tok.text in _CONSTANTS:
                self.advance()
                return Const(tok.text), depth
            if tok.text in FUNCTIONS:
                inner = self.nest(depth)
                self.advance()
                self.expect("(")
                # a partial, unlike a lambda, adds no Python frame per call level
                parsed = self.separated(partial(self.parse_expr, 1, inner), ",")
                args = tuple(arg for arg, _ in parsed)
                closing = self.cur
                self.expect(")")
                if len(args) != FUNCTIONS[tok.text]:
                    raise ParseError(
                        closing.pos,
                        (f"{FUNCTIONS[tok.text]} argument(s) to {tok.text}",),
                        found=f"{len(args)}",
                    )
                return Call(tok.text, args), max(reached for _, reached in parsed)
            self.fail("a number", "'x'", *(f"'{c}'" for c in _CONSTANTS), "a function name")
        if self.at_punct("("):
            inner = self.nest(depth)
            self.advance()
            parsed = self.parse_expr(1, inner)
            self.expect(")")
            return parsed
        self.fail("a number", "'x'", "'('")


def parse(text: str) -> FunctionDef:
    """Parse a single function definition.  Raises :class:`ParseError`."""
    return FunctionDef(ast=_Parser(text).parse_def())


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------

def _render(node: Node, min_level: int = 1) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Unary):
        text = "-" + _render(node.operand, _UNARY_LEVEL)
        return f"({text})" if _UNARY_LEVEL < min_level else text
    if isinstance(node, Bin):
        left, right = _operand_levels(node.op)
        sep = "^" if node.op == "^" else f" {node.op} "
        text = _render(node.left, left) + sep + _render(node.right, right)
        return f"({text})" if _LEVEL[node.op] < min_level else text
    if isinstance(node, Call):
        return node.name + "(" + ", ".join(_render(a, 1) for a in node.args) + ")"
    if isinstance(node, Piecewise):
        parts = [
            f"{_render_cond(cond)} : {_render(expr, 1)}" for cond, expr in node.branches
        ]
        return "piecewise{ " + " ; ".join(parts) + " }"
    raise TypeError(f"cannot render {node!r}")


def _render_cond(cond: Cond) -> str:
    chains = []
    for chain in cond.chains:
        for node in chain.operands:
            if not isinstance(node, (Num, Var)):
                raise TypeError(f"comparison operand must be a literal or x: {node!r}")
        bits = [_render(chain.operands[0])]
        for op, operand in zip(chain.ops, chain.operands[1:]):
            bits += [op, _render(operand)]
        chains.append(" ".join(bits))
    return " and ".join(chains)


def render(defn: FunctionDef | Node) -> str:
    """Canonical text form; ``parse(render(d))`` reproduces the AST."""
    node = defn.ast if isinstance(defn, FunctionDef) else defn
    return _render(node, 1)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "abs": np.abs, "sign": np.sign, "min": np.minimum, "max": np.maximum,
}

# Operands an op could map from a non-finite value to a finite one:
# a/inf = 0, exp(-inf) = 0, sign(inf) = 1, min(inf, 5) = 5, NaN^0 = 1^NaN = 1.
# Every other op keeps a non-finite operand non-finite, and leaves are finite.
_GUARDED = {"/": (1,), "pow": (0, 1), "exp": (0,), "sign": (0,), "min": (0, 1), "max": (0, 1)}


def _pointwise(fn, nin: int):
    """``fn`` from :mod:`math` applied per element; a domain or overflow
    error gives NaN."""
    def safe(*args):
        try:
            return fn(*args)
        except (ValueError, OverflowError):
            return math.nan

    ufunc = np.frompyfunc(safe, nin, 1)
    return lambda *args: np.asarray(ufunc(*args), dtype=float)


_NUMPY_PRIMS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "pow": np.power,
}
# libm through ``math``, so that ``evaluate`` agrees bit for bit with a plain
# scalar walk (numpy's power may differ from ``math.pow`` in the last place)
_MATH_PRIMS = {
    name: _pointwise(getattr(math, name), 2 if name == "pow" else 1) for name in _NUMPY_PRIMS
}


def _compile(node: Node, prims: dict):
    """Compile ``node`` into a closure ``fn(xs)`` over a float array.

    The result is non-finite exactly where the grammar leaves the point
    undefined.  Leaves are numpy scalars, so arithmetic never raises.
    """
    if isinstance(node, Num):
        value = np.float64(node.value)
        return lambda xs: value
    if isinstance(node, Const):
        value = np.float64(_CONSTANTS[node.name])
        return lambda xs: value
    if isinstance(node, Var):
        return lambda xs: xs
    if isinstance(node, Unary):
        inner = _compile(node.operand, prims)
        return lambda xs: -inner(xs)
    if isinstance(node, Piecewise):
        return _compile_piecewise(node, prims)
    if isinstance(node, Bin):
        name = "pow" if node.op == "^" else node.op
        operands = (node.left, node.right)
    elif isinstance(node, Call):
        name, operands = node.name, node.args
    else:
        raise TypeError(f"cannot evaluate {node!r}")
    op = prims[name] if name in prims else _OPS[name]
    fns = [_compile(n, prims) for n in operands]
    watch = [i for i in _GUARDED.get(name, ()) if not isinstance(operands[i], (Num, Var, Const))]

    def run(xs):
        vals = [f(xs) for f in fns]
        out = op(*vals)
        for i in watch:
            # v - v is +0 for finite v and NaN otherwise; out - 0.0 is out bit for bit
            out -= vals[i] - vals[i]
        return out

    return run


def _compile_piecewise(node: Piecewise, prims: dict):
    """First matching branch wins; a point no branch matches is NaN."""
    branches = [
        ([(_REL[op], _compile(a, prims), _compile(b, prims))
          for chain in cond.chains
          for op, a, b in zip(chain.ops, chain.operands, chain.operands[1:])],
         _compile(expr, prims))
        for cond, expr in node.branches
    ]

    def run(xs):
        out = np.full(xs.shape, np.nan)
        remaining = np.ones(xs.shape, dtype=bool)
        for tests, expr in branches:
            mask = remaining.copy()
            for rel, a, b in tests:
                mask &= rel(a(xs), b(xs))
            if mask.any():
                out[mask] = expr(xs[mask])
            remaining &= ~mask
        return out

    return run


def _run(fn, x):
    """``fn`` on ``x`` as a float array; a float back for a scalar ``x``.
    The one assignment broadcasts a constant result and copies one that
    is the input itself."""
    arr = np.asarray(x, dtype=float)
    out = np.empty(arr.size)
    with np.errstate(all="ignore"):
        out[:] = fn(arr.reshape(-1))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def evaluate(defn: FunctionDef, x: float):
    """Strict scalar evaluation: returns a float or ``UNDEFINED``.

    A one-point call of the same compiled closure as :class:`CompiledFunction`,
    with the primitives taken from :mod:`math`, compiled once per
    :class:`FunctionDef`."""
    value = _run(defn._math_fn, float(x))
    return value if math.isfinite(value) else UNDEFINED


class CompiledFunction:
    """Callable wrapper around a parsed definition, compiled once.

    Accepts a scalar or an ndarray and evaluates with numpy throughout, so
    scalar and vector calls share one code path.  A point the grammar leaves
    undefined comes out non-finite, the same points at which
    :func:`evaluate` returns ``UNDEFINED``.
    """

    __slots__ = ("defn", "source", "_fn")

    def __init__(self, defn: FunctionDef | str):
        if isinstance(defn, str):
            self.source = defn
            self.defn = parse(defn)
        else:
            self.defn = defn
            self.source = render(defn)
        self._fn = _compile(self.defn.ast, _NUMPY_PRIMS)

    def __call__(self, x):
        return _run(self._fn, x)

    def __repr__(self):
        return f"CompiledFunction({self.source!r})"
