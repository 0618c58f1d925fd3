"""Expression parsing, evaluation, symbolic differentiation, printing."""
import math

import numpy as np
import pytest

from fracvar import (
    ExprDomainError,
    ExprEvalError,
    ExprSyntaxError,
    differentiate,
    evaluate,
    free_vars,
    parse,
    simplify,
    to_string,
)
from fracvar.expressions import Bin, Call, Neg, Num, Var

from helpers import central_diff, random_expr, random_smooth_expr


def test_parse_power_tree():
    assert parse("v^2") == Bin("^", Var("v"), Num(2.0))


def test_evaluate_examples():
    assert evaluate(parse("(v - 1)^2"), {"v": 3.0}) == pytest.approx(4.0)
    assert evaluate(parse("sin(x)*u + v/2"), {"x": 0.0, "u": 5.0, "v": 2.0}) == pytest.approx(1.0)
    assert evaluate(parse("u"), {"u": 7.0}) == pytest.approx(7.0)
    assert evaluate(parse("v^2/2"), {"v": 3.0}) == pytest.approx(4.5)
    assert evaluate(parse("exp(0) + log(1)")) == pytest.approx(1.0)


def test_evaluate_broadcasts_arrays():
    x = np.linspace(0.0, 1.0, 11)
    out = evaluate(parse("x^2 + 1"), {"x": x})
    assert np.allclose(out, x**2 + 1.0)


def test_unary_minus_binds_below_power():
    # -x^2 parses as (-x)^2: the power slot takes the signed atom
    assert evaluate(parse("-x^2"), {"x": 3.0}) == pytest.approx(9.0)
    assert evaluate(parse("-(x^2)"), {"x": 3.0}) == pytest.approx(-9.0)


def test_precedence_and_associativity():
    assert evaluate(parse("2 - 3 - 1")) == pytest.approx(-2.0)
    assert evaluate(parse("2*3 + 4")) == pytest.approx(10.0)
    assert evaluate(parse("2^3^2")) == pytest.approx(512.0)  # right-assoc
    assert evaluate(parse("12/4/3")) == pytest.approx(1.0)


def test_derivative_examples():
    assert differentiate(parse("v^2"), "v") == parse("2*v")
    assert differentiate(parse("u*v + sin(x)"), "u") == Var("v")
    assert differentiate(parse("u*v"), "x") == Num(0.0)
    d = differentiate(parse("(v - 1)^2"), "v")
    fd = central_diff(lambda t: evaluate(parse("(v - 1)^2"), {"v": t}), 2.0)
    assert evaluate(d, {"v": 2.0}) == pytest.approx(fd, abs=1e-8)


def test_derivative_chain_rule():
    d = differentiate(parse("sin(x^2)"), "x")
    for x in (0.3, 1.1, 2.0):
        assert evaluate(d, {"x": x}) == pytest.approx(2 * x * np.cos(x**2), rel=1e-12)


def test_derivative_linearity():
    rng = np.random.default_rng(29)
    for _ in range(20):
        e1 = random_smooth_expr(rng, depth=3, names=("x",))
        e2 = random_smooth_expr(rng, depth=3, names=("x",))
        comb = Bin("+", Bin("*", Num(2.5), e1), Bin("*", Num(1.5), e2))
        dc = differentiate(comb, "x")
        d1 = differentiate(e1, "x")
        d2 = differentiate(e2, "x")
        for x in (0.2, 0.7):
            lhs = evaluate(dc, {"x": x})
            rhs = 2.5 * evaluate(d1, {"x": x}) + 1.5 * evaluate(d2, {"x": x})
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_roundtrip_random():
    rng = np.random.default_rng(31)
    for _ in range(200):
        e = random_expr(rng, depth=4)
        assert parse(to_string(e)) == e


def test_symbolic_vs_finite_difference():
    rng = np.random.default_rng(37)
    checked = 0
    for _ in range(100):
        e = random_smooth_expr(rng, depth=3)
        d = differentiate(e, "u")
        env = {"x": float(rng.uniform(0.1, 1.0)),
               "u": float(rng.uniform(-1.0, 1.0)),
               "v": float(rng.uniform(-1.0, 1.0))}

        def f(t):
            return evaluate(e, {**env, "u": t})

        fd = central_diff(f, env["u"])
        sym = evaluate(d, env)
        assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))
        checked += 1
    assert checked == 100


def test_simplify_identities():
    x = Var("x")
    assert simplify(Bin("*", x, Num(1.0))) == x
    assert simplify(Bin("+", x, Num(0.0))) == x
    assert simplify(Bin("^", x, Num(1.0))) == x
    assert simplify(Bin("*", Num(0.0), x)) == Num(0.0)
    assert simplify(Bin("*", Num(2.0), Num(3.0))) == Num(6.0)


def test_simplify_divides_by_one_and_folds_only_finite_constants():
    # 0/c folds by evaluation, which keeps the sign of zero; a result that
    # overflows stays unfolded for evaluation to report
    assert simplify(parse("x/1")) == Var("x")
    folded = simplify(parse("0/(-2)"))
    assert folded == Num(-0.0) and math.copysign(1.0, folded.value) == -1.0
    assert simplify(parse("exp(1000)")) == Call("exp", Num(1000.0))


def test_free_vars():
    assert free_vars(parse("sin(x)*u + v/2")) == frozenset({"x", "u", "v"})
    assert free_vars(parse("3 + 4")) == frozenset()


def test_syntax_errors():
    for bad in ("2 +", "(x", "x 3", "", "fo o(3)", "foo(3)", "^2"):
        with pytest.raises(ExprSyntaxError):
            parse(bad)


def test_overflowing_literal_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError, match="'1e999' overflows") as err:
        parse("v^2 + 1e999*u")
    assert err.value.offset == 6
    assert parse("1.7976931348623157e308") == Num(1.7976931348623157e308)


def test_non_finite_literal_prints_and_fails_in_evaluation():
    # a hand-built tree can hold what the parser refuses
    e = Bin("*", Num(math.inf), Var("v"))
    assert to_string(e) == "inf*v"
    assert to_string(Neg(Num(math.nan))) == "-nan"
    with pytest.raises(ExprDomainError, match="non-finite value in 'inf\\*v'"):
        evaluate(e, {"v": 1.0})
    # 0/nan is left for evaluation to report, not folded to 0
    assert to_string(simplify(Bin("/", Num(0.0), Num(math.nan)))) == "0/nan"


def test_eval_errors():
    with pytest.raises(ExprEvalError):
        evaluate(parse("u"), {})
    with pytest.raises(ExprDomainError):
        evaluate(parse("log(0 - 1)"))
    with pytest.raises(ExprDomainError):
        evaluate(parse("sqrt(0 - 2)"))
    with pytest.raises(ExprDomainError):
        evaluate(parse("1/x"), {"x": 0.0})


@pytest.mark.parametrize("src, values, index, message, subexpr", [
    ("2 + log(x)", [1.0, 0.5, 0.0, -1.0], 2, "log of non-positive value", "log(x)"),
    ("sqrt(x - 1)", [1.0, 0.5, 2.0, -3.0], 1, "sqrt of negative value", "sqrt(x - 1)"),
    ("x + 1/(x - 2)", [0.0, 1.0, 3.0, 2.0], 3, "division by zero", "1/(x - 2)"),
    ("exp(x)*2", [0.0, 800.0, 700.0, 1e4], 1, "non-finite value", "exp(x)"),
])
def test_domain_error_contract(src, values, index, message, subexpr):
    # scalar input: no index; array input: the first bad entry
    e = parse(src)
    with pytest.raises(ExprDomainError) as scalar:
        evaluate(e, {"x": values[index]})
    assert str(scalar.value) == f"{message} in '{subexpr}'"
    assert scalar.value.subexpr == subexpr
    assert scalar.value.index is None
    with pytest.raises(ExprDomainError) as array:
        evaluate(e, {"x": np.array(values)})
    assert str(array.value) == f"{message} in '{subexpr}' at position {index}"
    assert array.value.subexpr == subexpr
    assert array.value.index == index
