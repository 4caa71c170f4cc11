"""Tiny expression language for field intensities b(x,y) and conformal factors.

Grammar (standard precedence, left associative, '^' binds tighter than
unary minus):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' integer)?
    atom   := number | 'x' | 'y' | func '(' expr ')' | '(' expr ')'
    func   := 'exp' | 'sin' | 'cos'

Expressions are immutable trees supporting vectorized evaluation and exact
symbolic differentiation; polynomial expressions can additionally be
converted to a monomial table, which gives exact antiderivatives for the
gauge-potential line integrals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

__all__ = [
    "Expression",
    "Num",
    "Var",
    "BinOp",
    "Neg",
    "Pow",
    "Call",
    "parse_expression",
    "differentiate",
    "evaluate",
    "as_polynomial",
    "poly_eval",
    "poly_antiderivative",
    "to_source",
]


class Expression:
    """Base class for AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    name: str  # 'x' or 'y'


@dataclass(frozen=True)
class BinOp(Expression):
    op: str  # '+', '-', '*', '/'
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: int


@dataclass(frozen=True)
class Call(Expression):
    fn: str  # 'exp', 'sin', 'cos'
    arg: Expression


_FUNCS = ("exp", "sin", "cos")

_NUM_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(source):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        c = source[pos]
        if c.isspace():
            pos += 1
            continue
        m = _NUM_RE.match(source, pos)
        if m:
            tokens.append(("num", float(m.group(0)), pos))
            pos = m.end()
            continue
        m = _NAME_RE.match(source, pos)
        if m:
            tokens.append(("name", m.group(0), pos))
            pos = m.end()
            continue
        if c in "-+*/^()":
            tokens.append(("op", c, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {c!r} at offset {pos}",
                         pos, ("number", "name", "operator"))
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, off = self.peek()
        if kind == "op" and value == op:
            return self.advance()
        raise ParseError(f"syntax error at offset {off}: expected {op!r}", off, (op,))

    def parse(self):
        e = self.expr()
        kind, value, off = self.peek()
        if kind != "end":
            raise ParseError(
                f"syntax error at offset {off}: unexpected {value!r}",
                off, ("+", "-", "*", "/", "end of input"))
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                e = BinOp(value, e, self.term())
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                e = BinOp(value, e, self.factor())
            else:
                return e

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.factor())
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Pow(base, self.integer())
        return base

    def integer(self):
        sign = 1
        kind, value, off = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
            kind, value, off = self.peek()
        if kind != "num" or value != int(value):
            raise ParseError(f"syntax error at offset {off}: expected integer exponent",
                             off, ("integer",))
        self.advance()
        return sign * int(value)

    def atom(self):
        kind, value, off = self.peek()
        if kind == "num":
            self.advance()
            return Num(value)
        if kind == "name":
            self.advance()
            if value in ("x", "y"):
                return Var(value)
            if value in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            raise ParseError(f"unknown identifier {value!r} at offset {off}",
                             off, ("x", "y") + _FUNCS)
        if kind == "op" and value == "(":
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"syntax error at offset {off}: expected ')'" if value == ")" else
                         f"syntax error at offset {off}: expected an operand",
                         off, ("number", "x", "y", "(",))


def parse_expression(source: str) -> Expression:
    """Parse *source* into an expression tree. Raises ParseError on bad input."""
    return _Parser(source).parse()


def evaluate(e: Expression, x, y):
    """Evaluate *e* at (x, y); accepts scalars or numpy arrays."""
    if isinstance(e, Num):
        return e.value if np.isscalar(x) else np.full(np.shape(x), e.value, dtype=float)
    if isinstance(e, Var):
        return x if e.name == "x" else y
    if isinstance(e, Neg):
        return -evaluate(e.arg, x, y)
    if isinstance(e, Pow):
        base = evaluate(e.base, x, y)
        if e.exponent >= 0:
            return base ** e.exponent
        return 1.0 / base ** (-e.exponent)
    if isinstance(e, Call):
        arg = evaluate(e.arg, x, y)
        return getattr(np, e.fn)(arg)
    if isinstance(e, BinOp):
        a = evaluate(e.left, x, y)
        b = evaluate(e.right, x, y)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return a / b
    raise TypeError(f"not an expression node: {e!r}")


def differentiate(e: Expression, var: str) -> Expression:
    """Exact symbolic derivative of *e* with respect to 'x' or 'y'.

    The tree is not simplified: derivatives are only evaluated at single
    points (Newton's steps and the curvature), where its size costs little."""
    if var not in ("x", "y"):
        raise ValueError("var must be 'x' or 'y'")
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return Neg(differentiate(e.arg, var))
    if isinstance(e, Pow):
        if e.exponent == 0:  # not n * base^(n-1), which is 0 * inf at base = 0
            return Num(0.0)
        return BinOp("*", BinOp("*", Num(float(e.exponent)), Pow(e.base, e.exponent - 1)),
                     differentiate(e.base, var))
    if isinstance(e, Call):
        if e.fn == "exp":
            outer = e
        elif e.fn == "sin":
            outer = Call("cos", e.arg)
        else:  # cos
            outer = Neg(Call("sin", e.arg))
        return BinOp("*", outer, differentiate(e.arg, var))
    if isinstance(e, BinOp):
        da = differentiate(e.left, var)
        db = differentiate(e.right, var)
        if e.op in "+-":
            return BinOp(e.op, da, db)
        if e.op == "*":
            return BinOp("+", BinOp("*", da, e.right), BinOp("*", e.left, db))
        # quotient rule
        return BinOp("/", BinOp("-", BinOp("*", da, e.right), BinOp("*", e.left, db)),
                     Pow(e.right, 2))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# polynomial view: dict {(i, j): coeff} meaning sum c_ij x^i y^j

def as_polynomial(e: Expression):
    """Return the monomial table of *e*, or None if it is not polynomial."""
    if isinstance(e, Num):
        return {(0, 0): e.value}
    if isinstance(e, Var):
        return {(1, 0): 1.0} if e.name == "x" else {(0, 1): 1.0}
    if isinstance(e, Neg):
        p = as_polynomial(e.arg)
        return None if p is None else {k: -v for k, v in p.items()}
    if isinstance(e, Pow):
        if e.exponent < 0:
            return None
        p = as_polynomial(e.base)
        if p is None:
            return None
        out = {(0, 0): 1.0}
        for _ in range(e.exponent):
            out = _poly_mul(out, p)
        return out
    if isinstance(e, Call):
        return None
    if isinstance(e, BinOp):
        a = as_polynomial(e.left)
        if a is None:
            return None
        if e.op == "/":
            b = as_polynomial(e.right)
            if b is None or set(b) != {(0, 0)} or b[(0, 0)] == 0:
                return None
            return {k: v / b[(0, 0)] for k, v in a.items()}
        b = as_polynomial(e.right)
        if b is None:
            return None
        if e.op == "+":
            return _poly_add(a, b, 1.0)
        if e.op == "-":
            return _poly_add(a, b, -1.0)
        return _poly_mul(a, b)
    raise TypeError(f"not an expression node: {e!r}")


def _poly_add(a, b, sign):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + sign * v
    return {k: v for k, v in out.items() if v != 0.0} or {(0, 0): 0.0}


def _poly_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0.0) + c1 * c2
    return {k: v for k, v in out.items() if v != 0.0} or {(0, 0): 0.0}


def poly_eval(p, x, y):
    """Evaluate a monomial table at (x, y); vectorized."""
    out = 0.0
    for (i, j), c in p.items():
        out = out + c * np.asarray(x) ** i * np.asarray(y) ** j
    return out


def poly_antiderivative(p, var: str):
    """Antiderivative of a monomial table in 'x' or 'y' (constant of integration 0)."""
    out = {}
    for (i, j), c in p.items():
        if var == "x":
            out[(i + 1, j)] = c / (i + 1)
        else:
            out[(i, j + 1)] = c / (j + 1)
    return out


def to_source(e: Expression) -> str:
    """Render the tree back to parseable source (for diagnostics)."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"-({to_source(e.arg)})"
    if isinstance(e, Pow):
        return f"({to_source(e.base)})^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    if isinstance(e, BinOp):
        return f"({to_source(e.left)} {e.op} {to_source(e.right)})"
    raise TypeError(f"not an expression node: {e!r}")
