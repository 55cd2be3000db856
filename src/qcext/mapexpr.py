"""Parse, print, evaluate, and differentiate rational maps of one complex
variable.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' signed-integer)?
    base   := number | 'i' | 'z' | '(' expr ')' | '-' base

Numbers are unsigned decimal literals with optional fraction and exponent
(``2``, ``0.5``, ``1.25e-3``).  The bare token ``i`` is the imaginary unit;
complex constants are spelled ``a+b*i``.  Power exponents are integers with
magnitude at most ``MAX_EXPONENT``.

A map is its syntax tree: parse_map returns the root Node, and derive and
compose return trees.  Nodes are frozen dataclasses, so a tree hashes and
compares by value and keys the caches of the normal form and the derivative.

The canonical printed form is fully parenthesized with coefficients at 17
significant digits, and re-parsing it reproduces the identical tree.  Parse
errors carry the byte offset of the offending character; at end of input the
offset is clamped onto the last byte.

Every scalar quantity reads the rational normal form P/Q of the map, which
raises ValueError rather than keep a coefficient that overflowed.
Taylor jets at 0 are the power series of P/Q, and the expansion at infinity
is the same series of the reversed coefficients, in the chart w = 1/z.
eval_map works on the Riemann sphere and owns its quotient rule: at a
finite z with |z| <= 1 it divides P(z) by Q(z), and for |z| > 1 it divides
the reversed polynomials at w = 1/z, so Horner's powers stay below 1 in
modulus.  A denominator at most ``TAU_POLE`` times the numerator, or an
overflowing quotient, yields ``INFINITY``; 0/0 and a nan quotient raise
EvalError.  At ``INFINITY`` the value is the limit the degrees of P and Q
give.  Array evaluation walks the tree under IEEE semantics.
"""

from __future__ import annotations

import cmath
import functools
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .sphere import INFINITY, ExtComplex, is_infinity

MAX_EXPONENT = 64
# a coefficient the map must have exactly: |f(0)| and |f'(0) - 1| in
# is_normalized and classifiers.phi_from_map, |f(0)| for the thm5 chain,
# |a2| below which t1 takes ext_huang_owa and it sends infinity to infinity,
# |c0 - 1| for the krzyz chart's g = c0 z + ...
TAU_NORMALIZED = 1e-12
# a hypothesis on a jet: |f(0)|, |f'(0) - 1| and the thm2 |a2| of the
# extension builders, |w(0)| for the krzyz chain and the krzyz w warning,
# ||a2| - 1| for a pole on the seam (psi, and t1's route to it), |a2 p - 1|
# for psi's p z/(p - z), phi(0) and phi'(0) in phi_from_map, |c0 - 1| or
# ||c0| - 1| in classifiers.exterior_lead
TAU_JET = 1e-9
# shifted_difference and extensions._recover_w: coefficients at most this
# times the coefficient scale are rounding dust and get zeroed
TAU_COEFF_DUST = 1e-12
# poles_in_disc: a root where |P| is at most this times its scale is removable
TAU_REMOVABLE = 1e-9
# relative margin on a disc radius: extensions._reflected counts poles this
# close outside the seam, loewner._pole_free certifies |z| <= r0 with it
TAU_POLE_MARGIN = 1e-9
# _trim: trailing coefficients at most this times the scale are dropped
TAU_TRIM = 1e-14
# series_inv: a constant term at most this times the scale counts as zero;
# classifiers.phi_from_map refuses such a jet before inverting it
TAU_SERIES_CONST = 1e-13
# eval_map: a denominator at most this times the numerator is a pole
TAU_POLE = 1e-12


class MapExprError(Exception):
    """Base class for errors raised by this module."""


class ParseError(MapExprError):
    """Syntax error with the byte offset of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.message = message
        self.offset = offset


class EvalError(MapExprError):
    """Indeterminate evaluation (0/0, inf - inf and friends)."""


class PoleAtCenterError(MapExprError):
    """A Taylor jet was requested at a pole of the map."""


# ---------------------------------------------------------------------------
# Syntax tree


@dataclass(frozen=True)
class Const:
    """Constant node.

    Parser-produced constants are either nonnegative reals or exactly the
    imaginary unit; negative or general complex constants are represented
    structurally (Neg, a+b*i).
    """

    value: complex


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    child: "Node"


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Union[Const, Var, Neg, Add, Sub, Mul, Div, Pow]

_I = Const(1j)
_ZERO = Const(0j)
_ONE = Const(1 + 0j)


# ---------------------------------------------------------------------------
# Lexer / parser

_TOKEN_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[izZ()^*/+-]|\S")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "i", "z", one of "()^*/+-", "eof"
    text: str
    offset: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        assert m is not None
        tok = m.group(0)
        if tok[0].isdigit():
            tokens.append(_Token("num", tok, pos))
        elif tok in ("i",):
            tokens.append(_Token("i", tok, pos))
        elif tok in ("z", "Z"):
            tokens.append(_Token("z", tok, pos))
        elif tok in "()^*/+-":
            tokens.append(_Token(tok, tok, pos))
        else:
            raise ParseError(f"unexpected character {tok[0]!r}", pos)
        pos = m.end()
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _err(self, message: str, tok: _Token) -> ParseError:
        # at end of input, point at the last byte rather than one past it
        offset = tok.offset
        if tok.kind == "eof" and len(self.text) > 0:
            offset = min(offset, len(self.text) - 1)
        return ParseError(message, offset)

    def parse(self) -> Node:
        node = self.expr()
        tok = self._peek()
        if tok.kind != "eof":
            raise self._err(f"unexpected {tok.text!r} after expression", tok)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self._peek().kind in ("+", "-"):
            op = self._advance()
            rhs = self.term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self._peek().kind in ("*", "/"):
            op = self._advance()
            rhs = self.factor()
            if op.kind == "/":
                if rhs == _ZERO:
                    raise self._err("division by the constant zero", op)
                node = Div(node, rhs)
            else:
                node = Mul(node, rhs)
        return node

    def factor(self) -> Node:
        node = self.base()
        if self._peek().kind == "^":
            self._advance()
            sign = 1
            tok = self._peek()
            if tok.kind in ("+", "-"):
                self._advance()
                sign = -1 if tok.kind == "-" else 1
            tok = self._peek()
            if tok.kind != "num" or not tok.text.isdigit():
                raise self._err("expected integer exponent", tok)
            self._advance()
            exponent = sign * int(tok.text)
            if abs(exponent) > MAX_EXPONENT:
                raise self._err(
                    f"exponent overflow (|exponent| > {MAX_EXPONENT})", tok
                )
            node = Pow(node, exponent)
        return node

    def base(self) -> Node:
        tok = self._peek()
        if tok.kind == "num":
            self._advance()
            return Const(complex(float(tok.text), 0.0))
        if tok.kind == "i":
            self._advance()
            return _I
        if tok.kind == "z":
            self._advance()
            return Var()
        if tok.kind == "(":
            self._advance()
            node = self.expr()
            closing = self._peek()
            if closing.kind != ")":
                raise self._err("expected ')'", closing)
            self._advance()
            return node
        if tok.kind == "-":
            self._advance()
            return Neg(self.base())
        raise self._err("expected operand", tok)


def parse_map(text: str) -> Node:
    """Parse grammar text into its syntax tree.  Raises ParseError with
    offset."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Canonical printing


def _fmt_real(x: float) -> str:
    if x == 0.0:
        return "0"  # avoid the "-0" spelling
    return format(x, ".17g")


_SYMBOL = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def print_expr(node: Node) -> str:
    """Fully parenthesized canonical text; coefficients at 17 significant
    digits.  Parser- and derive-produced trees round-trip exactly."""
    if isinstance(node, Const):
        v = node.value
        if v == 1j:
            return "i"
        if v.imag == 0.0 and (v.real > 0.0 or v.real == 0.0):
            return _fmt_real(v.real)
        # non-canonical constant (hand-built tree): emit an equivalent
        # structural spelling rather than fail
        return print_expr(const_node(v))
    if isinstance(node, Var):
        return "z"
    if isinstance(node, Neg):
        return "(-" + print_expr(node.child) + ")"
    if type(node) in _SYMBOL:
        op = _SYMBOL[type(node)]
        return "(" + print_expr(node.left) + op + print_expr(node.right) + ")"
    if isinstance(node, Pow):
        return "(" + print_expr(node.base) + "^" + str(node.exponent) + ")"
    raise TypeError(f"not a node: {node!r}")


def const_text(c: complex) -> str:
    """Grammar text for an arbitrary complex constant, parenthesized so it can
    be spliced into templates as a factor."""
    c = complex(c)
    re_part = _fmt_real(abs(c.real))
    im_part = _fmt_real(abs(c.imag))
    if c.imag == 0.0:
        return f"(-{re_part})" if c.real < 0 else re_part
    im_text = "i" if abs(c.imag) == 1.0 else f"{im_part}*i"
    if c.real == 0.0:
        return f"(-{im_text})" if c.imag < 0 else f"({im_text})"
    re_text = f"-{re_part}" if c.real < 0 else re_part
    sign = "-" if c.imag < 0 else "+"
    return f"({re_text}{sign}{im_text})"


def const_node(c: complex) -> Node:
    """Canonical (parser-shaped) tree for an arbitrary complex constant."""
    return _Parser(const_text(complex(c))).parse()


# ---------------------------------------------------------------------------
# Evaluation


def eval_map(m: Node, z: ExtComplex) -> ExtComplex:
    """Evaluate on the sphere from the rational normal form P/Q.  Poles
    return INFINITY; indeterminate forms raise EvalError."""
    p, q = rational_form(m)
    dp, dq = _degree(p), _degree(q)
    if dq < 0:
        raise EvalError("denominator is identically zero")
    if is_infinity(z):
        # the limit along the chart w = 1/z
        if dp > dq:
            return INFINITY
        return complex(p[dp] / q[dq]) if dp == dq else 0j
    z = complex(z)
    with np.errstate(over="ignore", invalid="ignore"):
        if abs(z) > 1.0:
            # m = w^(dq - dp) Prev(w)/Qrev(w); the power of w goes on the
            # side it shrinks, so it can underflow but never overflow
            w = 1.0 / z
            pz = np.polynomial.polynomial.polyval(w, p[dp::-1])
            qz = np.polynomial.polynomial.polyval(w, q[dq::-1])
            if dq > dp:
                pz = pz * w ** (dq - dp)
            else:
                qz = qz * w ** (dp - dq)
        else:
            pz = np.polynomial.polynomial.polyval(z, p)
            qz = np.polynomial.polynomial.polyval(z, q)
    num, den = complex(pz), complex(qz)
    an, ad = abs(num), abs(den)
    if an == 0.0 and ad == 0.0:
        raise EvalError("0 / 0")
    if ad <= TAU_POLE * an:
        return INFINITY
    v = num / den
    if cmath.isnan(v.real) and cmath.isnan(v.imag):
        raise EvalError("indeterminate value (nan)")
    return v if cmath.isfinite(v) else INFINITY


def eval_array(m: Node, Z: np.ndarray) -> np.ndarray:
    """Vectorized evaluation with IEEE semantics: poles become inf/nan
    silently.  Meant for grid sweeps where exceptional points are masked by
    the caller."""
    Z = np.asarray(Z, dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _ev_arr(m, Z)
    return np.broadcast_to(out, Z.shape).astype(np.complex128, copy=False)


def _ev_arr(node: Node, Z: np.ndarray):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return Z
    if isinstance(node, Neg):
        return -_ev_arr(node.child, Z)
    if isinstance(node, Add):
        return _ev_arr(node.left, Z) + _ev_arr(node.right, Z)
    if isinstance(node, Sub):
        return _ev_arr(node.left, Z) - _ev_arr(node.right, Z)
    if isinstance(node, Mul):
        return _ev_arr(node.left, Z) * _ev_arr(node.right, Z)
    if isinstance(node, Div):
        return _ev_arr(node.left, Z) / _ev_arr(node.right, Z)
    if isinstance(node, Pow):
        base = _ev_arr(node.base, Z)
        if np.isscalar(base) or getattr(base, "shape", ()) == ():
            base = np.asarray(base, dtype=np.complex128)
        return base ** node.exponent
    raise TypeError(f"not a node: {node!r}")


# ---------------------------------------------------------------------------
# Rational normal form (ascending coefficient arrays) and limits


def _trim(p: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(p)) if p.size else 0.0
    if not np.isfinite(scale):
        raise ValueError("the rational normal form overflows: a coefficient is inf or nan")
    if scale == 0.0:
        return np.zeros(1, dtype=np.complex128)
    keep = np.nonzero(np.abs(p) > TAU_TRIM * scale)[0]
    return p[: keep[-1] + 1]


def _pmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _trim(np.convolve(a, b))


def _padd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.complex128)
    out[: len(a)] += a
    out[: len(b)] += b
    return _trim(out)


def _ppow(a: np.ndarray, n: int) -> np.ndarray:
    out = np.ones(1, dtype=np.complex128)
    acc = a
    while n:
        if n & 1:
            out = _pmul(out, acc)
        n >>= 1
        if n:
            acc = _pmul(acc, acc)
    return out


@functools.lru_cache(maxsize=512)
def rational_form(m: Node) -> tuple[np.ndarray, np.ndarray]:
    """The map as a ratio P(z)/Q(z) of polynomials, ascending coefficients.

    Exact in the polynomial algebra up to float rounding; no common-factor
    cancellation is attempted.  A coefficient, final or intermediate, that
    is inf or nan raises ValueError, as the form would read as another map.
    Cached per map, so both arrays are read-only.
    """
    P, Q = _rational(m)
    P.flags.writeable = Q.flags.writeable = False
    return P, Q


def shifted_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending coefficients of z*a(z) - b(z), with entries at or below
    TAU_COEFF_DUST of the largest coefficient of a or b set to zero.

    Callers pick a and b so that the low orders cancel exactly in theory;
    in floating point what is left of them is rounding dust.
    """
    out = np.zeros(max(len(a) + 1, len(b)), dtype=np.complex128)
    out[1 : len(a) + 1] += a
    out[: len(b)] -= b
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    if np.isfinite(scale):  # beside an overflowed scale nothing is dust
        out[np.abs(out) <= TAU_COEFF_DUST * scale] = 0.0
    return out


def _rational(node: Node) -> tuple[np.ndarray, np.ndarray]:
    one = np.ones(1, dtype=np.complex128)
    if isinstance(node, Const):
        return _trim(np.array([node.value], dtype=np.complex128)), one
    if isinstance(node, Var):
        return np.array([0, 1], dtype=np.complex128), one
    if isinstance(node, Neg):
        p, q = _rational(node.child)
        return -p, q
    if isinstance(node, (Add, Sub)):
        p1, q1 = _rational(node.left)
        p2, q2 = _rational(node.right)
        if isinstance(node, Sub):
            p2 = -p2
        return _padd(_pmul(p1, q2), _pmul(p2, q1)), _pmul(q1, q2)
    if isinstance(node, Mul):
        p1, q1 = _rational(node.left)
        p2, q2 = _rational(node.right)
        return _pmul(p1, p2), _pmul(q1, q2)
    if isinstance(node, Div):
        p1, q1 = _rational(node.left)
        p2, q2 = _rational(node.right)
        q = _pmul(q1, p2)
        if np.all(q == 0):
            raise EvalError("denominator is identically zero")
        return _pmul(p1, q2), q
    if isinstance(node, Pow):
        p, q = _rational(node.base)
        n = node.exponent
        if n >= 0:
            return _ppow(p, n), _ppow(q, n)
        if np.all(p == 0):
            raise EvalError("negative power of the zero expression")
        return _ppow(q, -n), _ppow(p, -n)
    raise TypeError(f"not a node: {node!r}")


def _degree(p: np.ndarray) -> int:
    nz = np.nonzero(p)[0]
    return int(nz[-1]) if nz.size else -1


def denominator_roots(Q: np.ndarray) -> np.ndarray:
    """Roots of a normal form's denominator Q (ascending coefficients),
    removable ones included; none when Q is constant."""
    return np.polynomial.polynomial.polyroots(Q)


def poles_in_disc(m: Node, radius: float = 1.0) -> list[complex]:
    """Roots of the denominator with |root| < radius, excluding removable
    candidates where the numerator vanishes as well."""
    P, Q = rational_form(m)
    pscale = max(np.max(np.abs(P)), 1.0)
    out = []
    for r in denominator_roots(Q):
        if abs(r) >= radius:
            continue
        pv = np.polynomial.polynomial.polyval(r, P)
        if abs(pv) <= TAU_REMOVABLE * pscale:
            continue  # likely a removable root
        out.append(complex(r))
    out.sort(key=lambda w: (abs(w), w.real, w.imag))
    return out


# ---------------------------------------------------------------------------
# Symbolic derivative (with light constant folding at construction)


def _is_const(node: Node, value: complex) -> bool:
    return isinstance(node, Const) and node.value == value


def _int_const(n: int) -> Node:
    if n < 0:
        return Neg(Const(complex(-n, 0)))
    return Const(complex(n, 0))


def _fadd(a: Node, b: Node) -> Node:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def _fsub(a: Node, b: Node) -> Node:
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return Neg(b)
    return Sub(a, b)


def _fmul(a: Node, b: Node) -> Node:
    if _is_const(a, 0) or _is_const(b, 0):
        return _ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def _fdiv(a: Node, b: Node) -> Node:
    # b is always a square Pow, never the constant 1
    return _ZERO if _is_const(a, 0) else Div(a, b)


def _fpow(base: Node, n: int) -> Node:
    if n == 0:
        return _ONE
    if n == 1:
        return base
    return Pow(base, n)


def _d(node: Node) -> Node:
    if isinstance(node, Const):
        return _ZERO
    if isinstance(node, Var):
        return _ONE
    if isinstance(node, Neg):
        inner = _d(node.child)
        return _ZERO if _is_const(inner, 0) else Neg(inner)
    if isinstance(node, Add):
        return _fadd(_d(node.left), _d(node.right))
    if isinstance(node, Sub):
        return _fsub(_d(node.left), _d(node.right))
    if isinstance(node, Mul):
        return _fadd(
            _fmul(_d(node.left), node.right), _fmul(node.left, _d(node.right))
        )
    if isinstance(node, Div):
        num = _fsub(
            _fmul(_d(node.left), node.right), _fmul(node.left, _d(node.right))
        )
        return _fdiv(num, _fpow(node.right, 2))
    if isinstance(node, Pow):
        n = node.exponent
        if n == 0:
            return _ZERO
        du = _d(node.base)
        term = _fmul(_int_const(n), _fpow(node.base, n - 1))
        return _fmul(term, du)
    raise TypeError(f"not a node: {node!r}")


@functools.lru_cache(maxsize=512)
def derive(m: Node) -> Node:
    """Symbolic derivative.  The result round-trips through the grammar."""
    return _d(m)


def compose(m: Node, inner: Node) -> Node:
    """Substitute inner for the variable of m (tree substitution)."""
    if isinstance(m, Var):
        return inner
    if isinstance(m, Const):
        return m
    if isinstance(m, Neg):
        return Neg(compose(m.child, inner))
    if type(m) in _SYMBOL:
        return type(m)(compose(m.left, inner), compose(m.right, inner))
    if isinstance(m, Pow):
        return Pow(compose(m.base, inner), m.exponent)
    raise TypeError(f"not a node: {m!r}")


# ---------------------------------------------------------------------------
# Jets


def series_inv(a: np.ndarray) -> np.ndarray:
    n = len(a)
    scale = np.max(np.abs(a)) if n else 0.0
    if scale == 0.0 or abs(a[0]) <= TAU_SERIES_CONST * scale:
        raise PoleAtCenterError("series has (numerically) zero constant term")
    out = np.zeros(n, dtype=np.complex128)
    out[0] = 1.0 / a[0]
    for k in range(1, n):
        out[k] = -np.dot(a[1 : k + 1], out[k - 1 :: -1][: k]) / a[0]
    return out


def _series_quotient(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of the power series a/b at 0, from ascending
    coefficients a and b, each padded with zeros or cut to n terms."""
    pa = np.zeros(n, dtype=np.complex128)
    pa[: min(n, len(a))] = a[:n]
    pb = np.zeros(n, dtype=np.complex128)
    pb[: min(n, len(b))] = b[:n]
    return np.convolve(pa, series_inv(pb))[:n]


def taylor_jet(m: Node, order: int) -> tuple[complex, ...]:
    """Taylor coefficients (c_0, ..., c_order) at 0, the power series of the
    rational normal form P/Q, as a tuple of Python complexes.

    Raises PoleAtCenterError when Q(0) is (numerically) zero, a removable
    zero of P and Q included.
    """
    if order < 2:
        raise ValueError("jet order must be at least 2")
    P, Q = rational_form(m)
    coeffs = _series_quotient(P, Q, order + 1)
    return tuple(complex(c) for c in coeffs)


def laurent_at_infinity(m: Node, order: int) -> tuple[int, np.ndarray]:
    """Expansion at infinity: returns (k, c) with
    m(z) = sum_j c[j] * z^(k - j), j = 0..order, c[0] != 0.

    Computed from the rational normal form, so it is exact up to rounding.
    """
    P, Q = rational_form(m)
    dp, dq = _degree(P), _degree(Q)
    if dq < 0:
        raise EvalError("denominator is identically zero")
    if dp < 0:
        return 0, np.zeros(order + 1, dtype=np.complex128)
    # in the chart w = 1/z:  m = w^(dq - dp) * Prev(w)/Qrev(w)
    return dp - dq, _series_quotient(P[dp::-1], Q[dq::-1], order + 1)


def is_normalized(m: Node) -> bool:
    """True when the jet at 0 starts z + O(z^2)."""
    try:
        jet = taylor_jet(m, 2)
    except (PoleAtCenterError, EvalError):
        return False
    return abs(jet[0]) <= TAU_NORMALIZED and abs(jet[1] - 1.0) <= TAU_NORMALIZED
