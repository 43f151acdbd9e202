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
exponent (``1``, ``0.5``, ``1e-3``).  Calls: sin cos tan exp log sqrt abs
sign (1-argument), min max (2-argument).  ``log`` is the natural logarithm.

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
from functools import cached_property
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

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_PUNCT = ("<=", ">=", "==", "!=", "+", "-", "*", "/", "^",
          "(", ")", "{", "}", ";", ":", ",", "<", ">")


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM | NAME | PUNCT | END
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("NUM", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(_Token("NAME", m.group(), i))
            i = m.end()
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(_Token("PUNCT", p, i))
                i += len(p)
                break
        else:
            raise ParseError(i, ("a token",), found=repr(c))
    tokens.append(_Token("END", "", n))
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

    # definition ------------------------------------------------------------

    def parse_def(self) -> Node:
        if self.cur.kind == "NAME" and self.cur.text == "piecewise":
            node = self.parse_piecewise()
        else:
            node = self.parse_expr()
        if self.cur.kind != "END":
            self.fail("end of input")
        return node

    def parse_piecewise(self) -> Piecewise:
        self.advance()  # "piecewise"
        self.expect("{")
        branches = [self.parse_branch()]
        while self.at_punct(";"):
            self.advance()
            branches.append(self.parse_branch())
        self.expect("}")
        return Piecewise(branches=tuple(branches))

    def parse_branch(self) -> Tuple[Cond, Node]:
        cond = self.parse_cond()
        self.expect(":")
        return cond, self.parse_expr()

    def parse_cond(self) -> Cond:
        chains = [self.parse_chain()]
        while self.cur.kind == "NAME" and self.cur.text == "and":
            self.advance()
            chains.append(self.parse_chain())
        return Cond(chains=tuple(chains))

    def parse_chain(self) -> Chain:
        operands = [self.parse_comp_operand()]
        ops = []
        if not self.at_punct("<", "<=", ">", ">=", "==", "!="):
            self.fail("a comparison operator")
        while self.at_punct("<", "<=", ">", ">=", "==", "!="):
            ops.append(self.advance().text)
            operands.append(self.parse_comp_operand())
        return Chain(operands=tuple(operands), ops=tuple(ops))

    def parse_comp_operand(self) -> Node:
        # literal (optionally signed) or the variable; sign folds into the literal
        if self.at_punct("-"):
            self.advance()
            if self.cur.kind != "NUM":
                self.fail("a number")
            return Num(-float(self.advance().text))
        if self.cur.kind == "NUM":
            return Num(float(self.advance().text))
        if self.cur.kind == "NAME" and self.cur.text == "x":
            self.advance()
            return Var()
        self.fail("a number", "'x'")

    # expressions -----------------------------------------------------------

    def parse_expr(self) -> Node:
        node = self.parse_mul()
        while self.at_punct("+", "-"):
            op = self.advance().text
            node = Bin(op, node, self.parse_mul())
        return node

    def parse_mul(self) -> Node:
        node = self.parse_unary()
        while self.at_punct("*", "/"):
            op = self.advance().text
            node = Bin(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Node:
        if self.at_punct("-"):
            self.advance()
            return Unary("-", self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        if self.at_punct("^"):
            self.advance()
            return Bin("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Node:
        tok = self.cur
        if tok.kind == "NUM":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "NAME":
            if tok.text == "x":
                self.advance()
                return Var()
            if tok.text in ("pi", "e"):
                self.advance()
                return Const(tok.text)
            if tok.text in FUNCTIONS:
                self.advance()
                self.expect("(")
                args = [self.parse_expr()]
                while self.at_punct(","):
                    self.advance()
                    args.append(self.parse_expr())
                closing = self.cur
                self.expect(")")
                if len(args) != FUNCTIONS[tok.text]:
                    raise ParseError(
                        closing.pos,
                        (f"{FUNCTIONS[tok.text]} argument(s) to {tok.text}",),
                        found=f"{len(args)}",
                    )
                return Call(tok.text, tuple(args))
            self.fail("a number", "'x'", "'pi'", "'e'", "a function name")
        if self.at_punct("("):
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        self.fail("a number", "'x'", "'('")


def parse(text: str) -> FunctionDef:
    """Parse a single function definition.  Raises :class:`ParseError`."""
    return FunctionDef(ast=_Parser(text).parse_def())


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------

# precedence levels: additive 1, multiplicative 2, unary 3, power 4, atom 5
def _level(node: Node) -> int:
    if isinstance(node, Bin):
        return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[node.op]
    if isinstance(node, Unary):
        return 3
    return 5


def _render(node: Node, min_level: int = 1) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Unary):
        text = "-" + _render(node.operand, 3)
        return f"({text})" if _level(node) < min_level else text
    if isinstance(node, Bin):
        lvl = _level(node)
        if node.op == "^":
            # left operand must be an atom; right may be a unary chain
            text = _render(node.left, 5) + "^" + _render(node.right, 3)
        else:
            text = (
                _render(node.left, lvl)
                + f" {node.op} "
                + _render(node.right, lvl + 1)
            )
        return f"({text})" if lvl < min_level else text
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
        bits = [_render_operand(chain.operands[0])]
        for op, operand in zip(chain.ops, chain.operands[1:]):
            bits.append(op)
            bits.append(_render_operand(operand))
        chains.append(" ".join(bits))
    return " and ".join(chains)


def _render_operand(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    raise TypeError(f"comparison operand must be a literal or x: {node!r}")


def render(defn: FunctionDef | Node) -> str:
    """Canonical text form; ``parse(render(d))`` reproduces the AST."""
    node = defn.ast if isinstance(defn, FunctionDef) else defn
    return _render(node, 1)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_REL = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}

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
        value = np.float64(math.pi if node.name == "pi" else math.e)
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
    """``fn`` on ``x`` as a float array; a float back for a scalar ``x``."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(all="ignore"):
        out = fn(arr)
    if np.shape(out) != arr.shape:  # a constant expression
        out = np.broadcast_to(out, arr.shape)
    return float(out[0]) if np.ndim(x) == 0 else np.array(out)


def evaluate(defn: FunctionDef | Node, x: float):
    """Strict scalar evaluation: returns a float or ``UNDEFINED``.

    A one-point call of the same compiled closure as :class:`CompiledFunction`,
    with the primitives taken from :mod:`math`, compiled once per
    :class:`FunctionDef` (a bare node is compiled on every call)."""
    if isinstance(defn, FunctionDef):
        fn = defn._math_fn
    else:
        fn = _compile(defn, _MATH_PRIMS)
    value = _run(fn, float(x))
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
