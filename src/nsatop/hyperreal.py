"""Exact arithmetic in a computable non-Archimedean ordered field.

Elements are quotients of polynomials in a formal positive infinitesimal
``e``, optionally ramified so that the polynomial variable denotes a
fractional power e**(1/m).  The order is the sign of the element as e -> 0+,
i.e. the sign of the lowest-order Laurent coefficient.  Every operation is
exact over the rationals; equality of canonical forms is field equality.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .poly import Poly, _frac_str


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


class ExprSyntaxError(HyperrealError):
    """Bad textual expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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
        if num.is_zero():
            num, den, ram = Poly.ZERO, Poly.ONE, 1
        else:
            # strip the common power of the variable and reduce the
            # ramification early; both shrink the gcd computation
            common = min(num.valuation, den.valuation)
            if common:
                num, den = num.shift_down(common), den.shift_down(common)
            num, den, ram = _reduce_ramification(num, den, ram)
            if num.degree > 0 and den.degree > 0:
                g = num.gcd(den)
                if g.degree > 0:
                    # one side has valuation 0, so g has a nonzero constant term
                    num, den = num.exact_div(g), den.exact_div(g)
            low = den.lowest
            if low != 1:
                num, den = num.scale(1 / low), den.scale(1 / low)
            # cancellation can expose a further ramification reduction
            num, den, ram = _reduce_ramification(num, den, ram)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "ram", ram)

    def __setattr__(self, *args):
        raise AttributeError("Hyperreal is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rational(q: Scalar) -> "Hyperreal":
        return Hyperreal(Poly.const(q))

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
        other = _coerce(other)
        if other is None:
            return NotImplemented
        an, ad, bn, bd, m = self._rebase(other)
        return Hyperreal(an * bd + bn * ad, ad * bd, m)

    __radd__ = __add__

    def __neg__(self) -> "Hyperreal":
        return Hyperreal(-self.num, self.den, self.ram)

    def __sub__(self, other) -> "Hyperreal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Hyperreal":
        return (-self) + other

    def __mul__(self, other) -> "Hyperreal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        an, ad, bn, bd, m = self._rebase(other)
        return Hyperreal(an * bn, ad * bd, m)

    __rmul__ = __mul__

    def inverse(self) -> "Hyperreal":
        if self.num.is_zero():
            raise DivisionByZero("inverse of zero")
        return Hyperreal(self.den, self.num, self.ram)

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
        # right-to-left binary method; the base is not squared past the top bit
        result = Hyperreal.from_rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- order -------------------------------------------------------------------

    def sign(self) -> int:
        """Sign of the element as e -> 0+ (the lowest Laurent coefficient)."""
        if self.num.is_zero():
            return 0
        low = self.num.lowest
        return 1 if low > 0 else -1

    def _order_sign(self, other: "Hyperreal") -> int:
        """Sign of self - other without building it.

        self - other = (an*bd - bn*ad) / (ad*bd), and the lowest coefficient
        of ad*bd is positive, so the sign is that of the lowest coefficient
        of an*bd - bn*ad.
        """
        an, ad, bn, bd, _ = self._rebase(other)
        diff = an * bd - bn * ad
        if diff.is_zero():
            return 0
        return 1 if diff.lowest > 0 else -1

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
        o = self.order()
        if o is None:
            return Classification.ZERO
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

    The pure power of e is absorbed by ramification; the remaining unit part
    must be an exact n-th power of a rational function (extra ramification
    cannot help there).  Raises NotRepresentable when no root exists,
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

    vn, vd = a.num.valuation, a.den.valuation
    unit_num = a.num.shift_down(vn)
    unit_den = a.den.shift_down(vd)
    if s < 0:
        # odd n: take the root of -a and negate
        root = nth_root(-a, n)
        return -root
    rn = unit_num.nth_root(n)
    rd = unit_den.nth_root(n)
    if rn is None or rd is None:
        raise NotRepresentable(f"{a} has no {n}-th root in the ramified field")
    # rebase to ramification ram*n, where the e-power valuation difference
    # vn - vd becomes an exact exponent again
    num = Poly.monomial(vn) * rn.stretch(n)
    den = Poly.monomial(vd) * rd.stretch(n)
    return Hyperreal(num, den, a.ram * n)


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
# atom     := INT | 'e' | '(' expr ')'
# exponent := ['-'] ( INT | '(' INT '/' INT ')' )
#
# 'e' is the positive infinitesimal; rationals are written with '/', e.g. 1/3.

# deepest nesting of parentheses and signs the parser accepts; each level
# costs five Python frames, so this stays well inside the recursion limit
MAX_DEPTH = 100


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str):
        raise ExprSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Hyperreal:
        value = self.expr()
        if self.peek():
            self.error("trailing input")
        return value

    def expr(self) -> Hyperreal:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Hyperreal:
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            else:
                if rhs.sign() == 0:
                    raise ZeroDenominator("division by zero in expression")
                value = value / rhs
        return value

    def unary(self) -> Hyperreal:
        # every nested parenthesis or sign passes through here; a parse that
        # goes too deep raises and is abandoned, so the count only unwinds
        # on success
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise NestingTooDeep(f"expression nested deeper than {MAX_DEPTH} levels", self.pos)
        ch = self.peek()
        if ch in ("-", "+"):
            self.pos += 1
            value = self.unary()
            if ch == "-":
                value = -value
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self) -> Hyperreal:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            exp = self.exponent()
            return _rational_power(base, exp)
        return base

    def atom(self) -> Hyperreal:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            self.take(")")
            return value
        if ch == "e":
            nxt = self.text[self.pos + 1 : self.pos + 2]
            if not nxt.isalnum() and nxt != "_":
                self.pos += 1
                return EPSILON
            self.error("unknown symbol")
        if ch.isdigit():
            return Hyperreal.from_rational(self.integer())
        self.error("expected a number, 'e' or '('")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def exponent(self) -> Fraction:
        negate = False
        if self.peek() == "-":
            self.pos += 1
            negate = True
        if self.peek() == "(":
            self.pos += 1
            num = self.integer()
            self.take("/")
            den = self.integer()
            self.take(")")
            if den == 0:
                self.error("zero denominator in exponent")
            value = Fraction(num, den)
        else:
            value = Fraction(self.integer())
        return -value if negate else value


def _rational_power(base: Hyperreal, exp: Fraction) -> Hyperreal:
    if exp.denominator == 1:
        return base ** exp.numerator
    root = nth_root(base, exp.denominator)
    return root ** exp.numerator


def parse_hyperreal(text: str) -> Hyperreal:
    """Parse the CLI textual syntax, e.g. ``(2+e)/(1+3*e)`` or ``e^(1/2)``."""
    return _ExprParser(text).parse()
