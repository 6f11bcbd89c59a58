"""Scalar expression trees: parsing, printing, evaluation, differentiation.

The grammar is the file-format contract for problem files::

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?            # right associative
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers must be ``x1``, ``x2`` or a declared parameter name; function
names are ``exp``, ``ln``, ``sqrt``, ``sin``, ``cos``.  Evaluation accepts
plain floats or numpy arrays in the binding (arrays broadcast), which is what
the grid engine relies on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos")

_FUNC_IMPL = {
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
}


class ParseError(ValueError):
    """Syntax or undeclared-identifier error, with the offset in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ValueError):
    """Evaluation failure; carries the offending AST node."""

    def __init__(self, message: str, node: "Expression"):
        super().__init__(f"{message} (in '{to_string(node)}')")
        self.node = node


class UnboundVariableError(EvalError):
    pass


class EvalDomainError(EvalError):
    pass


# --- AST -------------------------------------------------------------------

class Expression:
    """Base class for AST nodes; concrete nodes are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    name: str


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression


@dataclass(frozen=True)
class Add(Expression):
    a: Expression
    b: Expression


@dataclass(frozen=True)
class Sub(Expression):
    a: Expression
    b: Expression


@dataclass(frozen=True)
class Mul(Expression):
    a: Expression
    b: Expression


@dataclass(frozen=True)
class Div(Expression):
    a: Expression
    b: Expression


@dataclass(frozen=True)
class Pow(Expression):
    a: Expression
    b: Expression


@dataclass(frozen=True)
class Call(Expression):
    fn: str
    arg: Expression


# --- tokenizer / parser ----------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, allowed: frozenset[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.allowed = allowed

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        return self.advance()

    def parse(self) -> Expression:
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return node

    def expr(self) -> Expression:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expression:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                node = Mul(node, rhs) if value == "*" else Div(node, rhs)
            else:
                return node

    def unary(self) -> Expression:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Pow(base, self.unary())
        return base

    def atom(self) -> Expression:
        kind, value, pos = self.advance()
        if kind == "num":
            return Const(float(value))
        if kind == "ident":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            if value not in self.allowed:
                raise ParseError(f"undeclared identifier {value!r}", pos)
            return Var(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        shown = value if value else "end of input"
        raise ParseError(f"unexpected {shown!r}", pos)


def parse(text: str, declared_params: tuple[str, ...] | list[str] | frozenset[str] = ()) -> Expression:
    """Parse ``text`` into an AST; identifiers beyond x1/x2 must be declared."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    allowed = frozenset(declared_params) | {"x1", "x2"}
    return _Parser(text, allowed).parse()


# --- printing --------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 2, Pow: 3, Const: 9, Var: 9, Call: 9}


def _prec(e: Expression) -> int:
    return _PREC[type(e)]


def _wrap(e: Expression, need_parens: bool) -> str:
    s = to_string(e)
    return f"({s})" if need_parens else s


def to_string(e: Expression) -> str:
    """Render the AST so that ``parse(to_string(e))`` is structurally ``e``."""
    if isinstance(e, Const):
        v = e.value
        return repr(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({to_string(e.arg)})"
    if isinstance(e, Neg):
        # operand below power precedence would re-associate (-a*b != -(a*b))
        return "-" + _wrap(e.arg, _prec(e.arg) < 3)
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        left = _wrap(e.a, _prec(e.a) < 1)
        right = _wrap(e.b, _prec(e.b) <= 1)
        return f"{left} {op} {right}"
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        left = _wrap(e.a, _prec(e.a) < 2)
        right = _wrap(e.b, _prec(e.b) <= 2)
        return f"{left} {op} {right}"
    if isinstance(e, Pow):
        left = _wrap(e.a, _prec(e.a) <= 3)
        right = _wrap(e.b, _prec(e.b) < 3)
        return f"{left}^{right}"
    raise TypeError(f"not an expression node: {e!r}")


def free_variables(e: Expression) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, (Const,)):
        return set()
    if isinstance(e, Neg):
        return free_variables(e.arg)
    if isinstance(e, Call):
        return free_variables(e.arg)
    return free_variables(e.a) | free_variables(e.b)


# --- evaluation ------------------------------------------------------------

def evaluate(e: Expression, binding: Mapping[str, float | np.ndarray]):
    """Evaluate ``e`` under ``binding``; scalars in, float out; arrays broadcast.

    Raises :class:`UnboundVariableError` for free variables missing from the
    binding and :class:`EvalDomainError` for ln of a non-positive value,
    sqrt of a negative, division by zero, 0 raised to a negative power, or a
    negative base raised to a non-integer power.  Overflow and invalid results
    come back as inf or NaN without a numpy warning; the engine reports them
    where they matter.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value = _eval(e, binding)
    if np.ndim(value) == 0:
        return float(value)
    return value


def _eval(e: Expression, b: Mapping[str, float | np.ndarray]):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return b[e.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {e.name!r}", e) from None
    if isinstance(e, Neg):
        return np.negative(_eval(e.arg, b))
    if isinstance(e, Add):
        return np.add(_eval(e.a, b), _eval(e.b, b))
    if isinstance(e, Sub):
        return np.subtract(_eval(e.a, b), _eval(e.b, b))
    if isinstance(e, Mul):
        return np.multiply(_eval(e.a, b), _eval(e.b, b))
    if isinstance(e, Div):
        num, den = _eval(e.a, b), _eval(e.b, b)
        if np.any(np.equal(den, 0.0)):
            raise EvalDomainError("division by zero", e)
        return np.divide(num, den)
    if isinstance(e, Pow):
        base, expo = _eval(e.a, b), _eval(e.b, b)
        neg = np.less(base, 0.0)
        if np.any(neg):
            frac = np.not_equal(expo, np.round(expo))
            if np.any(np.logical_and(neg, frac)):
                raise EvalDomainError("negative base with non-integer exponent", e)
        if np.any(np.logical_and(np.equal(base, 0.0), np.less(expo, 0.0))):
            raise EvalDomainError("zero base with negative exponent", e)
        return np.power(base, expo)
    if isinstance(e, Call):
        arg = _eval(e.arg, b)
        if e.fn == "ln" and np.any(np.less_equal(arg, 0.0)):
            raise EvalDomainError("ln of non-positive value", e)
        if e.fn == "sqrt" and np.any(np.less(arg, 0.0)):
            raise EvalDomainError("sqrt of negative value", e)
        return _FUNC_IMPL[e.fn](arg)
    raise TypeError(f"not an expression node: {e!r}")


# --- differentiation -------------------------------------------------------
# Smart constructors fold constants and strip the obvious identities
# (0*e, 1*e, e+0, e-0, e/1, e^0, e^1); nothing fancier, so derivative trees
# stay auditable.

def _is_const(e: Expression, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _neg(a):
    if _is_const(a):
        return Const(-a.value)
    return Neg(a)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def _div(a, b):
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    return Div(a, b)


def _pow(a, b):
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Const(1.0)
    return Pow(a, b)


def differentiate(e: Expression, var: str) -> Expression:
    """Symbolic partial derivative of ``e`` with respect to ``var``.

    Powers with a non-constant exponent are differentiated through the
    a^b = exp(b*ln a) identity, so their derivatives require a positive base
    at evaluation time.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if e.name == var else Const(0.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg, var))
    if isinstance(e, Add):
        return _add(differentiate(e.a, var), differentiate(e.b, var))
    if isinstance(e, Sub):
        return _sub(differentiate(e.a, var), differentiate(e.b, var))
    if isinstance(e, Mul):
        da, db = differentiate(e.a, var), differentiate(e.b, var)
        return _add(_mul(da, e.b), _mul(e.a, db))
    if isinstance(e, Div):
        da, db = differentiate(e.a, var), differentiate(e.b, var)
        num = _sub(_mul(da, e.b), _mul(e.a, db))
        return _div(num, _pow(e.b, Const(2.0)))
    if isinstance(e, Pow):
        da = differentiate(e.a, var)
        db = differentiate(e.b, var)
        if isinstance(e.b, Const):
            c = e.b.value
            if c == 0.0:
                return Const(0.0)
            return _mul(_mul(Const(c), _pow(e.a, Const(c - 1.0))), da)
        # d(a^b) = a^b * (db*ln a + b*da/a)
        inner = _add(_mul(db, Call("ln", e.a)), _mul(e.b, _div(da, e.a)))
        return _mul(_pow(e.a, e.b), inner)
    if isinstance(e, Call):
        da = differentiate(e.arg, var)
        if e.fn == "exp":
            return _mul(Call("exp", e.arg), da)
        if e.fn == "ln":
            return _div(da, e.arg)
        if e.fn == "sqrt":
            return _div(da, _mul(Const(2.0), Call("sqrt", e.arg)))
        if e.fn == "sin":
            return _mul(Call("cos", e.arg), da)
        if e.fn == "cos":
            return _neg(_mul(Call("sin", e.arg), da))
    raise TypeError(f"not an expression node: {e!r}")


def finite_difference(e: Expression, var: str, binding: Mapping[str, float], h: float) -> float:
    """Central difference (e(var+h) - e(var-h)) / 2h; the differentiator's oracle."""
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    up = dict(binding)
    down = dict(binding)
    up[var] = binding[var] + h
    down[var] = binding[var] - h
    return (evaluate(e, up) - evaluate(e, down)) / (2.0 * h)
