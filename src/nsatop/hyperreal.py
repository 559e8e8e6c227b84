"""Exact arithmetic in a computable non-Archimedean ordered field.

Elements are quotients of polynomials in a formal positive infinitesimal
``e``, optionally ramified so that the polynomial variable denotes a
fractional power e**(1/m).  The order is the sign of the element as e -> 0+,
i.e. the sign of the lowest-order Laurent coefficient.  Every operation is
exact over the rationals; equality of canonical forms is field equality.
"""

from __future__ import annotations

import math
import operator
import re
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .poly import Poly, _frac_str, _new


class HyperrealError(Exception):
    """Base class for errors raised by this module."""


class ZeroDenominator(HyperrealError):
    pass


class DivisionByZero(HyperrealError):
    pass


class NotFinite(HyperrealError):
    pass


class NegativeEvenRoot(HyperrealError):
    pass


class BadRootDegree(HyperrealError, ValueError):
    """A root degree below 1."""


class NotRepresentable(HyperrealError):
    """No root exists in any ramified rational-function field."""


class EmptyInterval(HyperrealError):
    pass


class PositionedError:
    """Mixin for an error in parsed text: `position` is the character offset
    of the culprit, named in the message, or None when no single character
    is to blame."""

    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class ExprSyntaxError(PositionedError, HyperrealError):
    """Bad textual expression; carries the offending position."""


class NestingTooDeep(ExprSyntaxError):
    """An expression nested deeper than MAX_DEPTH levels."""


class Classification(Enum):
    ZERO = "zero"
    INFINITESIMAL = "infinitesimal"
    APPRECIABLE = "appreciable"
    INFINITE = "infinite"


class StandardPart:
    """Tagged result of the standard-part map: an exact rational or a signed infinity."""

    __slots__ = ("kind", "value")

    REAL = "real"
    PLUS_INFINITY = "+infinity"
    MINUS_INFINITY = "-infinity"

    def __init__(self, kind: str, value: Optional[Fraction] = None):
        assert (kind == self.REAL) == (value is not None)
        self.kind = kind
        self.value = value

    @staticmethod
    def real(value) -> "StandardPart":
        return StandardPart(StandardPart.REAL, Fraction(value))

    @staticmethod
    def plus_infinity() -> "StandardPart":
        return StandardPart(StandardPart.PLUS_INFINITY)

    @staticmethod
    def minus_infinity() -> "StandardPart":
        return StandardPart(StandardPart.MINUS_INFINITY)

    @property
    def is_real(self) -> bool:
        return self.kind == self.REAL

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StandardPart)
            and self.kind == other.kind
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.value))

    def __repr__(self) -> str:
        if self.is_real:
            return f"StandardPart.real({self.value})"
        return f"StandardPart({self.kind!r})"

    def __str__(self) -> str:
        return _frac_str(self.value) if self.is_real else self.kind


Scalar = Union[int, Fraction]


def _reduce_ramification(num: Poly, den: Poly, ram: int) -> tuple[Poly, Poly, int]:
    if ram == 1:
        return num, den, ram
    d = math.gcd(num.exponent_gcd(), den.exponent_gcd())
    k = math.gcd(d, ram) if d else ram
    if k > 1:
        return num.decimate(k), den.decimate(k), ram // k
    return num, den, ram


def _settle(h: "Hyperreal", num: Poly, den: Poly, ram: int) -> "Hyperreal":
    """Fill h with coprime num/den: the lowest coefficient of den scaled to 1,
    the ramification reduced (decimation keeps a coprime pair coprime)."""
    if not num.ints:
        num, den, ram = Poly.ZERO, Poly.ONE, 1
    elif den.ints[0] != den.den:
        s = Fraction(den.den, den.ints[0])
        num, den = num.scale(s), den.scale(s)
    num, den, ram = _reduce_ramification(num, den, ram)
    object.__setattr__(h, "num", num)
    object.__setattr__(h, "den", den)
    object.__setattr__(h, "ram", ram)
    return h


def _from_coprime(num: Poly, den: Poly, ram: int) -> "Hyperreal":
    return _settle(object.__new__(Hyperreal), num, den, ram)


class Hyperreal:
    """Canonical quotient num/den of polynomials in e**(1/ram).

    Canonical form: gcd(num, den) = 1, the lowest nonzero coefficient of den
    is 1, and the ramification index is minimal.  Structural equality of
    canonical forms is field equality, so instances are hashable.
    """

    __slots__ = ("num", "den", "ram")

    def __init__(self, num, den=Poly.ONE, ram: int = 1):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDenominator("denominator is the zero polynomial")
        if ram < 1:
            raise ValueError("ramification must be a positive integer")
        if num.ints:
            # strip the common power of the variable and reduce the
            # ramification early; both shrink the gcd computation
            common = min(num.valuation, den.valuation)
            if common:
                num, den = num.shift_down(common), den.shift_down(common)
            num, den, ram = _reduce_ramification(num, den, ram)
            if num.degree > 0 and den.degree > 0:
                g = num.gcd(den)
                if g.degree > 0:
                    num, den = num.exact_div(g), den.exact_div(g)
        _settle(self, num, den, ram)

    def __setattr__(self, *args):
        raise AttributeError("Hyperreal is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rational(q: Scalar) -> "Hyperreal":
        return _from_coprime(Poly.const(q), Poly.ONE, 1)  # q/1 is already coprime

    @staticmethod
    def epsilon() -> "Hyperreal":
        return Hyperreal(Poly.X)

    # -- equality ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.ram == other.ram

    def __hash__(self) -> int:
        return hash((self.num, self.den, self.ram))

    def __repr__(self) -> str:
        return f"Hyperreal({self})"

    def __str__(self) -> str:
        num = self.num.to_str("e", self.ram)
        if self.den == Poly.ONE:
            return num
        return f"({num})/({self.den.to_str('e', self.ram)})"

    # -- arithmetic ------------------------------------------------------------

    def _rebase(self, other: "Hyperreal") -> tuple[Poly, Poly, Poly, Poly, int]:
        m = self.ram * other.ram // math.gcd(self.ram, other.ram)
        ka, kb = m // self.ram, m // other.ram
        return (
            self.num.stretch(ka),
            self.den.stretch(ka),
            other.num.stretch(kb),
            other.den.stretch(kb),
            m,
        )

    def __add__(self, other) -> "Hyperreal":
        """Henrici's sum (TAOCP 4.5.1): a common factor can only divide gcd(ad, bd)."""
        other = _coerce(other)
        if other is None:
            return NotImplemented
        an, ad, bn, bd, m = self._rebase(other)
        g = ad.gcd(bd)
        if not g.degree:
            return _from_coprime(an * bd + bn * ad, ad * bd, m)
        ad = ad.exact_div(g)
        t = an * bd.exact_div(g) + bn * ad
        g = t.gcd(g)
        if g.degree:
            t, bd = t.exact_div(g), bd.exact_div(g)
        return _from_coprime(t, ad * bd, m)

    __radd__ = __add__

    def __neg__(self) -> "Hyperreal":
        return _from_coprime(-self.num, self.den, self.ram)

    def __sub__(self, other) -> "Hyperreal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Hyperreal":
        return (-self) + other

    def __mul__(self, other) -> "Hyperreal":
        """Henrici's product: a common factor can only divide an and bd, or bn and ad."""
        other = _coerce(other)
        if other is None:
            return NotImplemented
        an, ad, bn, bd, m = self._rebase(other)
        g = an.gcd(bd)
        if g.degree:
            an, bd = an.exact_div(g), bd.exact_div(g)
        g = bn.gcd(ad)
        if g.degree:
            bn, ad = bn.exact_div(g), ad.exact_div(g)
        return _from_coprime(an * bn, ad * bd, m)

    __rmul__ = __mul__

    def inverse(self) -> "Hyperreal":
        if self.num.is_zero():
            raise DivisionByZero("inverse of zero")
        return _from_coprime(self.den, self.num, self.ram)

    def __truediv__(self, other) -> "Hyperreal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Hyperreal":
        return self.inverse() * other

    def __pow__(self, n: int) -> "Hyperreal":
        if n < 0:
            return self.inverse() ** (-n)
        return _from_coprime(self.num**n, self.den**n, self.ram)

    # -- order -------------------------------------------------------------------

    def sign(self) -> int:
        """Sign of the element as e -> 0+ (the lowest Laurent coefficient)."""
        if not self.num.ints:
            return 0
        return 1 if self.num.ints[0] > 0 else -1

    def _order_sign(self, other: "Hyperreal") -> int:
        """Sign of self - other without building it.

        self - other = (an*bd - bn*ad) / (ad*bd) on the common ramification.
        Each den has lowest coefficient 1, so an*bd and bn*ad have the lowest
        terms of an and bn, at valuations an.val + bd.val and bn.val + ad.val;
        the difference is formed only when those two terms cancel.
        """
        a, b, sa, sb = self.num, other.num, self.sign(), other.sign()
        if not (sa and sb):
            return sa - sb
        g = math.gcd(self.ram, other.ram)
        ka, kb = other.ram // g, self.ram // g
        va = a.val * ka + other.den.val * kb
        vb = b.val * kb + self.den.val * ka
        if va != vb:
            return sa if va < vb else -sb
        x, y = a.ints[0] * b.den, b.ints[0] * a.den
        if x != y:
            return 1 if x > y else -1
        an, ad, bn, bd, _ = self._rebase(other)
        diff = an * bd - bn * ad
        if not diff.ints:
            return 0
        return 1 if diff.ints[0] > 0 else -1

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._order_sign(other) < 0

    def __le__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._order_sign(other) <= 0

    def __gt__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._order_sign(other) > 0

    def __ge__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._order_sign(other) >= 0

    # -- classification ------------------------------------------------------------

    def order(self) -> Optional[Fraction]:
        """Leading power of e, or None for zero.

        Positive order means infinitesimal, zero appreciable, negative infinite.
        """
        if self.num.is_zero():
            return None
        return Fraction(self.num.valuation - self.den.valuation, self.ram)

    def classify(self) -> Classification:
        if self.num.is_zero():
            return Classification.ZERO
        o = self.num.val - self.den.val  # the order's sign, as ram > 0
        if o > 0:
            return Classification.INFINITESIMAL
        if o == 0:
            return Classification.APPRECIABLE
        return Classification.INFINITE

    def is_finite(self) -> bool:
        return self.classify() is not Classification.INFINITE

    def st(self) -> StandardPart:
        """Standard part: the unique real infinitely close, or a signed infinity."""
        c = self.classify()
        if c is Classification.ZERO or c is Classification.INFINITESIMAL:
            return StandardPart.real(0)
        if c is Classification.APPRECIABLE:
            return StandardPart.real(self.num.lowest / self.den.lowest)
        return StandardPart.plus_infinity() if self.sign() > 0 else StandardPart.minus_infinity()

    def decompose(self) -> tuple[Fraction, "Hyperreal"]:
        """Split a finite element exactly into real part + infinitesimal part."""
        if not self.is_finite():
            raise NotFinite("infinite elements have no real/infinitesimal split")
        r = self.st().value
        return r, self - r


def _coerce(x) -> Optional[Hyperreal]:
    if isinstance(x, Hyperreal):
        return x
    if isinstance(x, (int, Fraction)):
        return Hyperreal.from_rational(x)
    return None


EPSILON = Hyperreal.epsilon()
ZERO = Hyperreal.from_rational(0)
ONE = Hyperreal.from_rational(1)


# -- functional operation surface ---------------------------------------------


def normalize(num, den, ram: int = 1) -> Hyperreal:
    """Canonical representative of num/den; raises ZeroDenominator."""
    return Hyperreal(num, den, ram)


def inv(a: Hyperreal) -> Hyperreal:
    return a.inverse()


def sign(a: Hyperreal) -> int:
    return a.sign()


def compare(a: Hyperreal, b: Hyperreal) -> int:
    """-1, 0 or +1 according to the field order."""
    return (a - b).sign()


def classify(a: Hyperreal) -> Classification:
    return a.classify()


def st(a: Hyperreal) -> StandardPart:
    return a.st()


def decompose(a: Hyperreal) -> tuple[Fraction, Hyperreal]:
    return a.decompose()


def infinitesimally_close(a: Hyperreal, b: Hyperreal) -> bool:
    return (a - b).classify() in (Classification.ZERO, Classification.INFINITESIMAL)


def nth_root(a: Hyperreal, n: int) -> Hyperreal:
    """Exact n-th root, enlarging the ramification as needed.

    num and den are rooted above their valuations by Poly.nth_root (Miller's
    recurrence, exact by Gauss's lemma, checked by powering back); stretched
    by n they sit at their old valuations on ramification ram*n, which
    absorbs the power of e.  Raises NotRepresentable when no root exists,
    NegativeEvenRoot for even roots of negative elements, and BadRootDegree
    for n < 1.
    """
    if n < 1:
        raise BadRootDegree(f"root degree must be a positive integer, got {n}")
    if n == 1:
        return a
    s = a.sign()
    if s == 0:
        return ZERO
    if s < 0 and n % 2 == 0:
        raise NegativeEvenRoot("even root of a negative element")
    roots = []
    for p in (a.num, a.den):
        r = _new(p.ints, p.den, 0).nth_root(n)
        if r is None:
            raise NotRepresentable(f"{a} has no root of degree {n} in the ramified field")
        roots.append(_new(r.stretch(n).ints, r.den, p.val))
    return _from_coprime(*roots, a.ram * n)


_INTERVAL_KINDS = {
    "closed": (True, True),
    "open": (False, False),
    "half-open": (True, False),
    "[]": (True, True),
    "()": (False, False),
    "[)": (True, False),
    "(]": (False, True),
}


def in_star_interval(a: Hyperreal, lo: Scalar, hi: Scalar, kind: str = "closed") -> bool:
    """Membership of a in the extension of the rational interval (lo, hi).

    kind is one of closed/open/half-open or a bracket pair "[]", "()", "[)", "(]";
    half-open means [lo, hi).
    """
    try:
        lo_in, hi_in = _INTERVAL_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown interval kind {kind!r}") from None
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise EmptyInterval(f"lo={lo} > hi={hi}")
    lo_ok = a >= lo if lo_in else a > lo
    hi_ok = a <= hi if hi_in else a < hi
    return lo_ok and hi_ok


# -- textual expressions ----------------------------------------------------------
#
# expr     := term { ('+'|'-') term }
# term     := unary { ('*'|'/') unary }
# unary    := ('-'|'+') unary | power
# power    := atom [ '^' exponent ]
# atom     := INT | NAME | '(' expr ')'
# exponent := ['-'] ( INT | '(' INT '/' INT ')' )
#
# `hyper` expressions know one name, 'e', the positive infinitesimal; germ
# terms (germs.py) read names as variables and refuse '^'.  Every binary
# operator, '/' too, is left-associative, and spaces never change meaning.

# deepest nesting that every parser accepts: MAX_DEPTH openers, each a '(',
# a sign or (in germ formulas) 'not', or in bqf formulas a 'not', a '(', a
# quantifier, a '<' or a '{'; a level costs a few Python frames, well inside
# the recursion limit
MAX_DEPTH = 100


class _TermParser:
    """Recursive descent over _tokenize's tokens for the grammar above.

    Each rule hands what it read to one method of `build`: binary(op, lhs,
    rhs) for + - * /, unary(op, value) for a sign, power(base, exponent,
    position) for '^' and atom(kind, value, position) for a number or a
    name.  Errors are build.syntax_error(message, position), or
    build.too_deep at the opener that goes past MAX_DEPTH.

    A subclass with another grammar overrides the scanner's four class
    attributes: TOKEN's three groups match a number, a name and a symbol;
    a name in WORDS and a symbol in SYMBOLS or WORDS is a token of its own
    kind, after ALIASES maps a one-character symbol to its spelling."""

    TOKEN = re.compile(r"(\d+)|([^\W\d]\w*)|(<=|>=|!=|\S)")
    WORDS = {"and", "or", "not", "forall", "exists"}
    SYMBOLS = {"+", "-", "*", "/", "^", "(", ")", "[", "]", ";", ",", "=", "!=", "<", "<=", ">", ">="}
    ALIASES = {"·": "*", "¬": "not", "∧": "and", "∨": "or", "∀": "forall", "∃": "exists"}

    def __init__(self, text: str, build):
        self.build = build
        self.tokens = self._tokenize(text)
        self.i = 0
        self.depth = 0

    def _tokenize(self, text: str) -> list:
        """Tokens of text as (kind, value, character position), ending with
        ("end", None, len(text)).  kind is "num" (an int), "name", or the word
        or symbol itself; a character no token starts with is a syntax error."""
        out = []
        words, symbols, aliases = self.WORDS, self.SYMBOLS, self.ALIASES
        for m in self.TOKEN.finditer(text):
            digits, name, sym = m.groups()
            if digits:
                try:
                    out.append(("num", int(digits), m.start()))
                except ValueError:  # past the interpreter's limit on integer digits
                    raise self.build.syntax_error("integer literal too long", m.start()) from None
            elif name:
                out.append((name if name in words else "name", name, m.start()))
            else:
                sym = aliases.get(sym, sym)
                if sym not in symbols and sym not in words:
                    raise self.build.syntax_error(f"unexpected character {sym!r}", m.start())
                out.append((sym, sym, m.start()))
        out.append(("end", None, len(text)))
        return out

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def error(self, message: str):
        kind, value, position = self.tokens[self.i]
        found = "the end" if kind == "end" else repr(value)
        return self.build.syntax_error(f"{message}, found {found}", position)

    def take(self, kind: str):
        """The value of the next token, which must be of this kind."""
        if self.peek() != kind:
            raise self.error("expected an integer" if kind == "num" else f"expected {kind!r}")
        self.i += 1
        return self.tokens[self.i - 1][1]

    def nested(self, parse):
        """Step past an opener ('(', a sign or 'not') and run parse() one level
        deeper.  A parse that fails leaves the count raised; whoever
        backtracks restores it."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            position = self.tokens[self.i][2]
            raise self.build.too_deep(f"nested deeper than {MAX_DEPTH} levels", position)
        self.i += 1
        value = parse()
        self.depth -= 1
        return value

    def whole(self, rule):
        value = rule()
        if self.peek() != "end":
            raise self.error("trailing input")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.i += 1
            value = self.build.binary(op, value, self.term())
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.i += 1
            value = self.build.binary(op, value, self.unary())
        return value

    def unary(self):
        op = self.peek()
        if op in ("-", "+"):
            return self.build.unary(op, self.nested(self.unary))
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() != "^":
            return base
        position = self.tokens[self.i][2]
        self.i += 1
        return self.build.power(base, self.exponent(), position)

    def atom(self):
        kind, value, position = self.tokens[self.i]
        if kind == "(":
            value = self.nested(self.expr)
            self.take(")")
            return value
        if kind not in ("num", "name"):
            raise self.error("expected a number, a name or '('")
        self.i += 1
        return self.build.atom(kind, value, position)

    def exponent(self) -> Fraction:
        sign = -1 if self.peek() == "-" else 1
        if sign < 0:
            self.i += 1
        if self.peek() != "(":
            return sign * Fraction(self.take("num"))
        self.i += 1
        num = self.take("num")
        self.take("/")
        if self.tokens[self.i][:2] == ("num", 0):
            raise self.error("zero denominator in exponent")
        value = Fraction(num, self.take("num"))
        self.take(")")
        return sign * value


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _HyperTerms:
    """_TermParser builder that folds Hyperreal values as it reads."""

    syntax_error, too_deep = ExprSyntaxError, NestingTooDeep

    def binary(self, op: str, lhs: Hyperreal, rhs: Hyperreal) -> Hyperreal:
        if op == "/" and rhs.sign() == 0:
            raise ZeroDenominator("division by zero in expression")
        return _ARITHMETIC[op](lhs, rhs)

    def unary(self, op: str, value: Hyperreal) -> Hyperreal:
        return -value if op == "-" else value

    def power(self, base: Hyperreal, exp: Fraction, position: int) -> Hyperreal:
        if exp.denominator == 1:
            return base ** exp.numerator
        return nth_root(base, exp.denominator) ** exp.numerator

    def atom(self, kind: str, value, position: int) -> Hyperreal:
        if kind == "num":
            return Hyperreal.from_rational(value)
        if value != "e":
            raise ExprSyntaxError(f"unknown symbol {value!r}", position)
        return EPSILON


def parse_hyperreal(text: str) -> Hyperreal:
    """Parse the CLI textual syntax, e.g. ``(2+e)/(1+3*e)`` or ``e^(1/2)``."""
    parser = _TermParser(text, _HyperTerms())
    return parser.whole(parser.expr)
