import math
import pickle
import random

import numpy as np
import pytest

from gaugeint import UNDEFINED, CompiledFunction, ParseError, catalog_entry, evaluate, parse, render
from gaugeint.catalog import CATALOG_NAMES
from gaugeint.dsl import Bin, Call, Chain, Cond, Const, FunctionDef, Num, Piecewise, Unary, Var

HEAVISIDE_TEXT = "piecewise{ x <= 0 : 0 ; 0 < x : 1 }"


# ---------------------------------------------------------------------------
# independent reference evaluator (grammar semantics, written from scratch)
# ---------------------------------------------------------------------------

def ref_eval(node, x):
    """Reference tree walk used as the oracle for evaluator agreement."""
    match node:
        case Num(value=v):
            return v
        case Var():
            return x
        case Const(name=name):
            return {"pi": math.pi, "e": math.e}[name]
        case Unary(operand=inner):
            v = ref_eval(inner, x)
            return UNDEFINED if v is UNDEFINED else -v
        case Bin(op=op, left=left, right=right):
            a = ref_eval(left, x)
            b = ref_eval(right, x)
            if a is UNDEFINED or b is UNDEFINED:
                return UNDEFINED
            if op == "+":
                out = a + b
            elif op == "-":
                out = a - b
            elif op == "*":
                out = a * b
            elif op == "/":
                if b == 0:
                    return UNDEFINED
                out = a / b
            else:
                if (a < 0 and b != math.floor(b)) or (a == 0 and b < 0):
                    return UNDEFINED
                try:
                    out = math.pow(a, b)
                except (ValueError, OverflowError):
                    return UNDEFINED
            return out if math.isfinite(out) else UNDEFINED
        case Call(name=name, args=args):
            vals = [ref_eval(a, x) for a in args]
            if any(v is UNDEFINED for v in vals):
                return UNDEFINED
            try:
                if name == "sign":
                    return float((vals[0] > 0) - (vals[0] < 0))
                if name == "abs":
                    return abs(vals[0])
                if name == "min":
                    return min(vals)
                if name == "max":
                    return max(vals)
                out = getattr(math, name)(*vals)
            except (ValueError, OverflowError):
                return UNDEFINED
            return out if math.isfinite(out) else UNDEFINED
        case Piecewise(branches=branches):
            rel = {"<": float.__lt__, "<=": float.__le__, ">": float.__gt__,
                   ">=": float.__ge__, "==": float.__eq__, "!=": float.__ne__}
            for cond, expr in branches:
                hold = True
                for chain in cond.chains:
                    vals = [x if isinstance(op, Var) else op.value for op in chain.operands]
                    for op, a, b in zip(chain.ops, vals, vals[1:]):
                        if not rel[op](float(a), float(b)):
                            hold = False
                for_all = hold
                if for_all:
                    return ref_eval(expr, x)
            return UNDEFINED
    raise TypeError(node)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class TestParse:
    def test_heaviside_shape_and_values(self):
        defn = parse(HEAVISIDE_TEXT)
        assert isinstance(defn.ast, Piecewise)
        assert len(defn.ast.branches) == 2
        assert evaluate(defn, -1.0) == 0.0
        assert evaluate(defn, 0.0) == 0.0
        assert evaluate(defn, 1e-9) == 1.0
        assert evaluate(defn, 1.0) == 1.0

    def test_reciprocal(self):
        defn = parse("1/x")
        assert defn.ast == Bin("/", Num(1.0), Var())

    def test_malformed_branch_position(self):
        text = "piecewise{ x < : 1 }"
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.position == text.index(":")
        assert any("number" in e for e in exc.value.expected)

    def test_error_carries_byte_position(self):
        with pytest.raises(ParseError) as exc:
            parse("x^")
        assert exc.value.position == 2

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("foo(x)")

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse("min(x)")
        with pytest.raises(ParseError):
            parse("sin(x, 1)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1 + 2 )")

    def test_number_forms(self):
        for text, value in (("1", 1.0), ("0.5", 0.5), ("1e-3", 1e-3), ("2E+4", 2e4)):
            assert parse(text).ast == Num(value)

    def test_chained_comparison(self):
        defn = parse("piecewise{ 0 < x <= 1 : x }")
        assert evaluate(defn, 0.5) == 0.5
        assert evaluate(defn, 0.0) is UNDEFINED
        assert evaluate(defn, 1.0) == 1.0

    def test_conjunction(self):
        defn = parse("piecewise{ x > 0 and x != 0.5 : 1 }")
        assert evaluate(defn, 0.25) == 1.0
        assert evaluate(defn, 0.5) is UNDEFINED

    def test_negative_literal_in_condition(self):
        defn = parse("piecewise{ -0.5 <= x : 7 }")
        assert evaluate(defn, 0.0) == 7.0
        assert evaluate(defn, -1.0) is UNDEFINED


class TestPrecedence:
    def test_fixture_sum_product_power(self):
        assert evaluate(parse("2+3*4^2"), 0.0) == 50.0

    def test_unary_minus_binds_looser_than_power(self):
        assert evaluate(parse("-x^2"), 3.0) == -9.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), 0.0) == 512.0

    def test_left_associative_subtraction(self):
        assert evaluate(parse("10-4-3"), 0.0) == 3.0

    def test_division_left_associative(self):
        assert evaluate(parse("8/4/2"), 0.0) == 1.0

    def test_power_of_negative_exponent(self):
        assert evaluate(parse("2^-2"), 0.0) == 0.25


class TestEvaluate:
    def test_division_by_zero(self):
        assert evaluate(parse("1/x"), 0.0) is UNDEFINED

    def test_square(self):
        assert evaluate(parse("x^2"), 3.0) == 9.0

    def test_log_of_nonpositive(self):
        assert evaluate(parse("log(x)"), -1.0) is UNDEFINED
        assert evaluate(parse("log(x)"), 0.0) is UNDEFINED

    def test_sqrt_of_negative(self):
        assert evaluate(parse("sqrt(x)"), -1.0) is UNDEFINED

    def test_negative_base_fractional_power(self):
        assert evaluate(parse("x^0.5"), -2.0) is UNDEFINED
        assert evaluate(parse("x^2"), -2.0) == 4.0

    def test_overflow(self):
        assert evaluate(parse("exp(x)"), 1000.0) is UNDEFINED

    def test_piecewise_fallthrough(self):
        assert evaluate(parse("piecewise{ x > 0 : 1 }"), -1.0) is UNDEFINED

    def test_constants_and_calls(self):
        assert evaluate(parse("sin(pi)"), 0.0) == pytest.approx(0.0, abs=1e-15)
        assert evaluate(parse("log(e)"), 0.0) == pytest.approx(1.0, rel=1e-15)
        assert evaluate(parse("max(x, 2)"), 1.0) == 2.0
        assert evaluate(parse("sign(x)"), -3.0) == -1.0

    def test_compiled_once_per_definition(self):
        defn = parse("1/x")
        assert evaluate(defn, 2.0) == 0.5
        assert defn._math_fn is defn._math_fn
        # equal trees, distinct closures: Num(0.0) == Num(-0.0)
        plus, minus = FunctionDef(Num(0.0)), FunctionDef(Num(-0.0))
        assert plus == minus
        assert math.copysign(1.0, evaluate(plus, 1.0)) == 1.0
        assert math.copysign(1.0, evaluate(minus, 1.0)) == -1.0

    def test_pickles_after_evaluation(self):
        defn = parse("x^2")
        assert evaluate(defn, 3.0) == 9.0
        again = pickle.loads(pickle.dumps(defn))
        assert again == defn and evaluate(again, 3.0) == 9.0


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

_LITERALS = (0.0, 1.0, 0.5, 2.0, 3.0, 0.1, 1e-3, 7.25)
_FUNCS = tuple(("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "sign"))


def gen_expr(rng, depth):
    if depth <= 0:
        kind = rng.randrange(3)
        if kind == 0:
            return Num(rng.choice(_LITERALS))
        if kind == 1:
            return Var()
        return Const(rng.choice(("pi", "e")))
    kind = rng.randrange(5)
    if kind == 0:
        return Bin(rng.choice("+-*/^"), gen_expr(rng, depth - 1), gen_expr(rng, depth - 1))
    if kind == 1:
        return Unary("-", gen_expr(rng, depth - 1))
    if kind == 2:
        return Call(rng.choice(_FUNCS), (gen_expr(rng, depth - 1),))
    if kind == 3:
        return Call(rng.choice(("min", "max")),
                    (gen_expr(rng, depth - 1), gen_expr(rng, depth - 1)))
    return gen_expr(rng, depth - 1)


def gen_chain(rng):
    ops = ("<", "<=", ">", ">=", "==", "!=")
    if rng.random() < 0.5:
        return Chain((Var(), Num(rng.choice(_LITERALS))), (rng.choice(ops),))
    return Chain(
        (Num(-rng.choice(_LITERALS)), Var(), Num(rng.choice(_LITERALS))),
        (rng.choice(("<", "<=")), rng.choice(("<", "<="))),
    )


def gen_def(rng):
    if rng.random() < 0.3:
        branches = tuple(
            (Cond(tuple(gen_chain(rng) for _ in range(rng.randrange(1, 3)))),
             gen_expr(rng, rng.randrange(0, 3)))
            for _ in range(rng.randrange(1, 4))
        )
        return Piecewise(branches)
    return gen_expr(rng, rng.randrange(0, 4))


class TestRoundTrip:
    def test_500_generated_asts(self):
        rng = random.Random(20160608)
        for _ in range(500):
            ast = gen_def(rng)
            text = render(ast)
            again = parse(text).ast
            assert again == ast, f"round trip failed for {text!r}"

    def test_render_examples(self):
        assert render(parse("2+3*4^2")) == "2.0 + 3.0 * 4.0^2.0"
        assert parse(render(parse(HEAVISIDE_TEXT))).ast == parse(HEAVISIDE_TEXT).ast


# ---------------------------------------------------------------------------
# evaluator agreement
# ---------------------------------------------------------------------------

class TestCatalog:
    def test_unknown_name(self):
        from gaugeint import catalog

        with pytest.raises(KeyError, match="unknown catalog function"):
            catalog("nope")

    def test_heaviside_entry_fields(self):
        entry = catalog_entry("heaviside")
        assert entry.model.span.lo == -1.0 and entry.model.span.hi == 1.0
        assert tuple(entry.model.E) == (0.0,)
        assert entry.total == 1.0 and entry.basic_sum == 1.0

    def test_reciprocal_entry_fields(self):
        entry = catalog_entry("reciprocal")
        assert entry.model.span.lo == -1.0 and entry.model.span.hi == 2.0
        assert tuple(entry.model.E) == (0.0,)
        assert entry.kh_value is None and entry.basic_sum is None

    def test_parabola_entry_fields(self):
        entry = catalog_entry("parabola")
        assert tuple(entry.model.E) == (0.5,)
        assert entry.model.span.lo == 0.0 and entry.model.span.hi == 1.0


class TestAgreement:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog_dsl_matches_reference_on_grid(self, name):
        entry = catalog_entry(name)
        span = entry.model.span
        xs = np.linspace(span.lo, span.hi, 10_000)
        for text in (entry.dsl_F, entry.dsl_f):
            defn = parse(text)
            for x in xs:
                ours = evaluate(defn, float(x))
                ref = ref_eval(defn.ast, float(x))
                if ours is UNDEFINED or ref is UNDEFINED:
                    assert ours is ref
                else:
                    assert ours == ref  # exact binary64 agreement

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog_closures_match_dsl(self, name):
        # the fast numpy closures installed in the models must agree with
        # their mini-language sources (tolerance covers libm differences)
        entry = catalog_entry(name)
        span = entry.model.span
        F_dsl = parse(entry.dsl_F)
        f_dsl = parse(entry.dsl_f)
        rng = random.Random(7)
        for _ in range(500):
            x = rng.uniform(span.lo, span.hi)
            if any(abs(x - e) < 1e-9 for e in entry.model.E):
                continue
            for defn, closure in ((F_dsl, entry.model.F), (f_dsl, entry.model.f)):
                want = evaluate(defn, x)
                if want is UNDEFINED:
                    continue
                assert closure(x) == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_compiled_function_vector_scalar_consistency(self):
        fn = CompiledFunction("piecewise{ x < 0 : -x ; x >= 0 : x^2 }")
        xs = np.asarray([-2.0, -0.5, 0.0, 0.5, 2.0])
        vec = fn(xs)
        assert vec.tolist() == [2.0, 0.5, 0.0, 0.25, 4.0]
        assert fn(0.5) == 0.25

    def test_compiled_function_undefined_maps_to_nonfinite(self):
        fn = CompiledFunction("1/x")
        out = fn(np.asarray([1.0, 0.0, 2.0]))
        assert not np.isfinite(out[1])
        assert out[0] == 1.0

    def test_vector_path_agrees_with_strict_scalar_where_defined(self):
        # the vectorized evaluator drives the builders; it must be non-finite
        # exactly where the reference walk is undefined, and agree elsewhere
        rng = random.Random(313)
        xs = np.asarray([-2.0, -1.0, -0.5, -1e-3, 0.0, 1e-3, 0.5, 1.0, 2.0, 3.5])
        checked = 0
        for _ in range(300):
            ast = gen_def(rng)
            fn = CompiledFunction(parse(render(ast)))
            with np.errstate(all="ignore"):
                vec = fn(xs)
            for x, got in zip(xs, vec):
                want = ref_eval(ast, float(x))
                if want is UNDEFINED:
                    assert not np.isfinite(got), (render(ast), x)
                    continue
                checked += 1
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300), render(ast)
        assert checked > 1000

    @pytest.mark.parametrize("text", [
        "1/(1/x)", "min(1/x, 5)", "exp(-1/x^2)", "(1/x)^0", "1^(1/x)", "sign(1/x)",
        "max(log(x), 1)",
    ])
    def test_undefined_operand_stays_undefined(self, text):
        # IEEE maps these infinities to finite values; the grammar does not
        assert not np.isfinite(CompiledFunction(text)(0.0))
        assert not np.isfinite(CompiledFunction(text)(np.asarray([0.0, 1.0]))[0])
        assert evaluate(parse(text), 0.0) is UNDEFINED
        assert evaluate(parse(text), 1.0) == ref_eval(parse(text).ast, 1.0)
