"""Arithmetic expression language for Lagrangians, constraints, and fields.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?          # power is right-associative
    unary  := '-' unary | atom
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

Note the precedence consequence: "-x^2" parses as (-x)^2 because the base
of '^' is a unary.  Functions: sin, cos, exp, log, sqrt, each unary.

Expressions are immutable trees; parse/evaluate/differentiate are pure.
Simplification is deliberately limited to constant folding and the 0/1
identities so printed output stays predictable.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "ExprEvalError",
    "ExprDomainError",
    "parse",
    "evaluate",
    "differentiate",
    "simplify",
    "to_string",
    "free_vars",
]


class ExprError(Exception):
    """Base class for expression-layer failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprEvalError(ExprError):
    """Unbound variable or other evaluation failure."""


class ExprDomainError(ExprEvalError):
    """Numeric domain violation, pointing at the offending subexpression.

    For vectorized evaluation the index of the first offending component
    is recorded in .index (None for scalar evaluation).
    """

    def __init__(self, message: str, subexpr: str, index: int | None = None):
        at = "" if index is None else f" at position {index}"
        super().__init__(f"{message} in '{subexpr}'{at}")
        self.subexpr = subexpr
        self.index = index


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str  # one of sin cos exp log sqrt
    arg: "Expr"


Expr = Union[Num, Var, Neg, Bin, Call]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            found = repr(text) if kind != "end" else "end of input"
            raise ExprSyntaxError(f"expected {op!r}, found {found}", pos)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                e = Bin(text, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                e = Bin(text, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        e = self.unary()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Bin("^", e, self.factor())
        return e

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.atom()

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            k2, t2, _ = self.peek()
            if k2 == "op" and t2 == "(":
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", pos)
                self.advance()
                arg = self.expr()
                k3, t3, p3 = self.peek()
                if k3 == "op" and t3 == ",":
                    raise ExprSyntaxError(
                        f"function {text!r} takes exactly one argument", p3
                    )
                self.expect_op(")")
                return Call(text, arg)
            return Var(text)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        found = repr(text) if kind != "end" else "end of input"
        raise ExprSyntaxError(f"expected a value, found {found}", pos)


def parse(src: str) -> Expr:
    """Parse an expression string into an AST."""
    if not isinstance(src, str) or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(src).parse()


_NP_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}


def evaluate(e: Expr, env: Mapping[str, float | np.ndarray] | None = None):
    """Evaluate an expression under variable bindings.

    Bindings may be scalars or numpy arrays; arrays broadcast together,
    so one call evaluates an expression on a whole grid.  Returns a float
    for all-scalar input, otherwise an ndarray.

    Raises ExprEvalError for unbound variables and ExprDomainError (with
    the offending subexpression and, for arrays, the first bad index) for
    log/sqrt of out-of-domain values, division by zero, and any non-finite
    intermediate.
    """
    out = _eval(e, env or {})
    if np.ndim(out) == 0:
        return float(out)
    return out


def _evaluate_array(e: Expr, env: Mapping, shape) -> np.ndarray:
    """evaluate() as a float array; a scalar result fills an array of shape."""
    out = evaluate(e, env)
    if np.ndim(out) == 0:
        return np.full(shape, out)
    return np.asarray(out, dtype=float)


def _bad_index(mask) -> int | None:
    if np.ndim(mask) == 0:
        return None
    return int(np.argmax(mask))


def _check_finite(out, node: Expr) -> None:
    finite = np.isfinite(out)
    if not np.all(finite):
        bad = ~finite
        raise ExprDomainError("non-finite value", to_string(node), _bad_index(bad))


def _eval(e: Expr, env: Mapping[str, float | np.ndarray]):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise ExprEvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -_eval(e.arg, env)
    if isinstance(e, Call):
        arg = _eval(e.arg, env)
        if e.fn == "log":
            bad = np.asarray(arg) <= 0.0
            if np.any(bad):
                raise ExprDomainError(
                    "log of non-positive value", to_string(e), _bad_index(bad)
                )
        elif e.fn == "sqrt":
            bad = np.asarray(arg) < 0.0
            if np.any(bad):
                raise ExprDomainError(
                    "sqrt of negative value", to_string(e), _bad_index(bad)
                )
        with np.errstate(all="ignore"):
            out = _NP_FUNCS[e.fn](arg)
        _check_finite(out, e)
        return out
    if isinstance(e, Bin):
        lhs = _eval(e.lhs, env)
        rhs = _eval(e.rhs, env)
        if e.op == "/":
            bad = np.asarray(rhs) == 0.0
            if np.any(bad):
                raise ExprDomainError("division by zero", to_string(e), _bad_index(bad))
        with np.errstate(all="ignore"):
            if e.op == "+":
                out = lhs + rhs
            elif e.op == "-":
                out = lhs - rhs
            elif e.op == "*":
                out = lhs * rhs
            elif e.op == "/":
                out = lhs / rhs
            else:
                out = np.power(lhs, rhs)
        _check_finite(out, e)
        return out
    raise TypeError(f"not an expression node: {e!r}")


def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative, simplified by constant folding only."""
    if not isinstance(var, str) or not var:
        raise ValueError(f"invalid variable name {var!r}")
    return simplify(_diff(e, var))


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0) if e.name == var else Num(0.0)
    if isinstance(e, Neg):
        return Neg(_diff(e.arg, var))
    if isinstance(e, Bin):
        dl, dr = _diff(e.lhs, var), _diff(e.rhs, var)
        if e.op in "+-":
            return Bin(e.op, dl, dr)
        if e.op == "*":
            return Bin("+", Bin("*", dl, e.rhs), Bin("*", e.lhs, dr))
        if e.op == "/":
            num = Bin("-", Bin("*", dl, e.rhs), Bin("*", e.lhs, dr))
            return Bin("/", num, Bin("^", e.rhs, Num(2.0)))
        # power
        if isinstance(e.rhs, Num):
            c = e.rhs.value
            return Bin(
                "*", Bin("*", Num(c), Bin("^", e.lhs, Num(c - 1.0))), dl
            )
        # non-constant exponent: exp/log rewrite, only valid for positive base
        warnings.warn(
            f"derivative of {to_string(e)!r} uses the exp/log rewrite, "
            "valid only for a positive base",
            stacklevel=3,
        )
        inner = Bin(
            "+",
            Bin("*", dr, Call("log", e.lhs)),
            Bin("*", e.rhs, Bin("/", dl, e.lhs)),
        )
        return Bin("*", e, inner)
    if isinstance(e, Call):
        da = _diff(e.arg, var)
        if e.fn == "sin":
            outer: Expr = Call("cos", e.arg)
        elif e.fn == "cos":
            outer = Neg(Call("sin", e.arg))
        elif e.fn == "exp":
            outer = Call("exp", e.arg)
        elif e.fn == "log":
            outer = Bin("/", Num(1.0), e.arg)
        else:  # sqrt
            outer = Bin("/", Num(1.0), Bin("*", Num(2.0), Call("sqrt", e.arg)))
        return Bin("*", outer, da)
    raise TypeError(f"not an expression node: {e!r}")


def simplify(e: Expr) -> Expr:
    """Constant folding plus the 0/1 identities; nothing cleverer."""
    if isinstance(e, (Num, Var)):
        return e
    if isinstance(e, Neg):
        arg = simplify(e.arg)
        if isinstance(arg, Num):
            return Num(-arg.value)
        if isinstance(arg, Neg):
            return arg.arg
        return Neg(arg)
    if isinstance(e, Call):
        arg = simplify(e.arg)
        if isinstance(arg, Num):
            folded = _try_fold(Call(e.fn, arg))
            if folded is not None:
                return folded
        return Call(e.fn, arg)
    if isinstance(e, Bin):
        lhs, rhs = simplify(e.lhs), simplify(e.rhs)
        out = Bin(e.op, lhs, rhs)
        if isinstance(lhs, Num) and isinstance(rhs, Num):
            folded = _try_fold(out)
            if folded is not None:
                return folded
        op = e.op
        if op == "+":
            if _is_num(lhs, 0.0):
                return rhs
            if _is_num(rhs, 0.0):
                return lhs
        elif op == "-":
            if _is_num(rhs, 0.0):
                return lhs
            if _is_num(lhs, 0.0):
                return Num(-rhs.value) if isinstance(rhs, Num) else Neg(rhs)
        elif op == "*":
            if _is_num(lhs, 0.0) or _is_num(rhs, 0.0):
                return Num(0.0)
            if _is_num(lhs, 1.0):
                return rhs
            if _is_num(rhs, 1.0):
                return lhs
        elif op == "/":
            if _is_num(rhs, 1.0):
                return lhs
            if _is_num(lhs, 0.0) and isinstance(rhs, Num) and rhs.value != 0.0:
                return Num(0.0)
        elif op == "^":
            if _is_num(rhs, 1.0):
                return lhs
            if _is_num(rhs, 0.0):
                return Num(1.0)
        return out
    raise TypeError(f"not an expression node: {e!r}")


def _is_num(e: Expr, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def _try_fold(e: Expr) -> Num | None:
    # fold only when the result is finite and in-domain; otherwise leave the
    # node alone so evaluation reports the error at runtime
    try:
        v = evaluate(e, {})
    except ExprError:
        return None
    if not math.isfinite(v):
        return None
    return Num(v)


# printing: minimal parentheses that preserve structure on reparse
_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_PREC_NEG = 15
_PREC_ATOM = 100


def _prec(e: Expr) -> int:
    if isinstance(e, Bin):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Num) and e.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


def _fits_unary_slot(e: Expr) -> bool:
    # what the grammar's `unary` production can produce without parentheses;
    # a negative literal prints as "-c", which that slot reads as Neg(Num(c))
    return isinstance(e, (Num, Var, Call, Neg))


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_string(e: Expr) -> str:
    """Render an AST so that parse(to_string(e)) reproduces its structure.

    That holds for trees the parser can produce, whose literals are
    nonnegative.  A negative literal, which simplify makes by folding a
    negation, prints as "-c" and reparses as Neg(Num(c)): "x - -2" comes
    back as x - Neg(2).  The printed form still round-trips, for the
    output of simplify too: to_string(parse(to_string(e))) == to_string(e).
    """
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({to_string(e.arg)})"
    if isinstance(e, Neg):
        inner = to_string(e.arg)
        # the grammar's unary slot admits only atoms and further negations
        if not _fits_unary_slot(e.arg):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Bin):
        op = e.op
        lp, rp = _prec(e.lhs), _prec(e.rhs)
        lhs, rhs = to_string(e.lhs), to_string(e.rhs)
        if op == "^":
            # the base is a unary per the grammar; the exponent is a factor,
            # so a nested power on the right stays bare (right-associative)
            if not _fits_unary_slot(e.lhs):
                lhs = f"({lhs})"
            if not _fits_unary_slot(e.rhs) and not (
                isinstance(e.rhs, Bin) and e.rhs.op == "^"
            ):
                rhs = f"({rhs})"
            return f"{lhs}^{rhs}"
        if lp < _PREC[op]:
            lhs = f"({lhs})"
        if rp <= _PREC[op]:
            rhs = f"({rhs})"
        if op in "+-":
            return f"{lhs} {op} {rhs}"
        return f"{lhs}{op}{rhs}"
    raise TypeError(f"not an expression node: {e!r}")


def free_vars(e: Expr) -> frozenset[str]:
    """The set of variable names occurring in an expression."""
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return free_vars(e.arg)
    if isinstance(e, Call):
        return free_vars(e.arg)
    if isinstance(e, Bin):
        return free_vars(e.lhs) | free_vars(e.rhs)
    raise TypeError(f"not an expression node: {e!r}")


def _rename(e: Expr, names: Mapping[str, str]) -> Expr:
    """e with every variable in names replaced by its new name."""
    if isinstance(e, Num):
        return e
    if isinstance(e, Var):
        return Var(names.get(e.name, e.name))
    if isinstance(e, Neg):
        return Neg(_rename(e.arg, names))
    if isinstance(e, Call):
        return Call(e.fn, _rename(e.arg, names))
    if isinstance(e, Bin):
        return Bin(e.op, _rename(e.lhs, names), _rename(e.rhs, names))
    raise TypeError(f"not an expression node: {e!r}")
