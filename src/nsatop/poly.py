"""Exact univariate polynomials over the rationals.

Shared arithmetic core for the infinitesimal field (polynomials in a formal
infinitesimal) and the germ sandbox (polynomials in the sequence index).
A polynomial is stored as integer numerators over one positive common
denominator; the ring operations work on integers only.  Coefficients are
read as int or `fractions.Fraction` and written as `Fraction`; nothing here
is approximate, and a str or a float is refused rather than parsed.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Optional, Union


class NumberTooLarge(ValueError):
    """An integer with more decimal digits than the interpreter converts
    between int and str (see sys.set_int_max_str_digits)."""


def _exact(c) -> Union[int, Fraction]:
    """c, an int or a Fraction, as an int when it is integral."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"exact numbers are int or Fraction, not {type(c).__name__}")
    return c.numerator if c.denominator == 1 else c


def _new(ints: tuple, den: int, val: int) -> "Poly":
    """Poly from a canonical (ints, den, val) triple, unchecked."""
    p = object.__new__(Poly)
    p.ints = ints
    p.den = den
    p.val = val
    return p


def _from_ints(ints, den: int = 1, val: int = 0) -> "Poly":
    """Poly with coefficient ints[i]/den at x**(val+i) (den > 0), trimmed and reduced.

    Tuples here are built from lists, not generators: CPython over-allocates
    a tuple built from a generator and then shrinks it, and the freed blocks
    pile up in its per-size tuple free lists (measurable as peak RSS).
    """
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    if not n:
        return Poly.ZERO
    lo = 0
    while not ints[lo]:
        lo += 1
    ints = tuple(ints[lo:n])
    if den != 1:
        g = math.gcd(den, *ints)
        if g != 1:
            ints = tuple([c // g for c in ints])
            den //= g
    return _new(ints, den, val + lo)


def _dense(p: "Poly") -> list:
    """Integer numerators of x**0 .. x**degree, zeros below the valuation included."""
    return [0] * p.val + list(p.ints)


def _combine(a: "Poly", b: "Poly", sign: int) -> "Poly":
    """a + sign*b."""
    # zero has val 0; aligning with it would pad the other side to dense form
    if not b.ints:
        return a
    if not a.ints:
        return -b if sign < 0 else b
    x, y = a.ints, b.ints
    if a.den == b.den:
        den = a.den
    else:
        den = a.den * b.den // math.gcd(a.den, b.den)
        ka, kb = den // a.den, den // b.den
        x = [c * ka for c in x]
        y = [c * kb for c in y]
    if sign < 0:
        y = [-c for c in y]
    # align both at the lower valuation
    val = min(a.val, b.val)
    if a.val > val:
        x = [0] * (a.val - val) + list(x)
    if b.val > val:
        y = [0] * (b.val - val) + list(y)
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for i, c in enumerate(y):
        out[i] += c
    return _from_ints(out, den, val)


class Poly:
    """Immutable polynomial; ``coeffs[i]`` is the coefficient of x**i.

    Stored as ``ints[i] / den`` times ``x**(val + i)``: ``ints`` is trimmed of
    zeros at both ends, so ``val`` is the valuation, and ``den`` is positive
    and coprime to the content of ``ints``.  That form is canonical, so
    equality and hashing compare it directly.  The zero polynomial is
    ``ints == ()``, ``den == 1``, ``val == 0``.  A power of x times a dense
    polynomial, such as e**N in the infinitesimal field, costs only the
    dense part.
    """

    __slots__ = ("ints", "den", "val")

    def __init__(self, coeffs: Iterable = ()):
        fracs = [c if type(c) is Fraction else _exact(c) for c in coeffs]
        n = len(fracs)
        while n and not fracs[n - 1]:
            n -= 1
        lo = 0
        while lo < n and not fracs[lo]:
            lo += 1
        fracs = fracs[lo:n]
        den = math.lcm(*[c.denominator for c in fracs])
        # every prime power of den divides some coefficient's denominator
        # fully, so the scaled numerators are already coprime to den
        self.ints = tuple([c.numerator * (den // c.denominator) for c in fracs])
        self.den = den
        self.val = lo

    @staticmethod
    def const(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        p = Poly((c,))
        return _new(p.ints, p.den, k) if p.ints else p

    ZERO: "Poly"
    ONE: "Poly"
    X: "Poly"

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        d = self.den
        return (_FRACTION_ZERO,) * self.val + tuple([Fraction(c, d) for c in self.ints])

    def __bool__(self) -> bool:
        return bool(self.ints)

    def is_zero(self) -> bool:
        return not self.ints

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) == -1."""
        return self.val + len(self.ints) - 1

    @property
    def valuation(self) -> Optional[int]:
        """Index of the lowest nonzero coefficient; None for zero."""
        return self.val if self.ints else None

    @property
    def leading(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    @property
    def lowest(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial has no lowest coefficient")
        return Fraction(self.ints[0], self.den)

    def coeff(self, i: int) -> Fraction:
        i -= self.val
        if 0 <= i < len(self.ints):
            return Fraction(self.ints[i], self.den)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ints == other.ints
            and self.den == other.den
            and self.val == other.val
        )

    def __hash__(self) -> int:
        return hash((self.ints, self.den, self.val))

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return _combine(self, other, 1)

    def __neg__(self) -> "Poly":
        return _new(tuple([-c for c in self.ints]), self.den, self.val)

    def __sub__(self, other: "Poly") -> "Poly":
        return _combine(self, other, -1)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.ints, other.ints
        if not a or not b:
            return Poly.ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    if cb:
                        out[j] += ca * cb
        return _from_ints(out, self.den * other.den, self.val + other.val)

    def scale(self, c) -> "Poly":
        c = _exact(c)
        return _from_ints([k * c.numerator for k in self.ints], self.den * c.denominator, self.val)

    def __pow__(self, n: int) -> "Poly":
        """self**n by Miller's recurrence on the integer numerators.

        a[0] and a[-1] are nonzero, and content(a**n) = content(a)**n is
        coprime to den**n, so the result is canonical as built.
        """
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if not n:
            return Poly.ONE
        a = self.ints
        if not a or n == 1:
            return self
        if _oversized_power(a, self.den, n):
            raise NumberTooLarge("an exact value has too many digits to print")
        return _power(self, n)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder by integer pseudo-division.

        With l the leading numerator of other and k quotient terms,
        l**k * self.ints = q * other.ints + r over the integers, and every
        step of the long division of l**k * self.ints is exact.
        """
        if not other.ints:
            raise ZeroDivisionError("polynomial division by zero")
        b = _dense(other)
        ddeg = len(b) - 1
        k = self.degree + 1 - ddeg
        if k <= 0:
            return Poly.ZERO, self
        lead = b[-1]
        mult = lead**k
        rem = [c * mult for c in _dense(self)]
        q = [0] * k
        for i in range(len(rem) - 1, ddeg - 1, -1):
            if rem[i]:
                f = rem[i] // lead
                q[i - ddeg] = f
                for j, c in enumerate(b, i - ddeg):
                    rem[j] -= f * c
        # self = (q * other.den / (mult * self.den)) * other + r / (mult * self.den)
        den = mult * self.den
        if den < 0:
            den = -den
            q = [-c for c in q]
            rem = [-c for c in rem]
        return _from_ints([c * other.den for c in q], den), _from_ints(rem, den)

    def exact_div(self, other: "Poly") -> "Poly":
        """self / other for a divisor other of self.

        The part of other above its valuation divides the part of self above
        its own, so the long division never pads either side to dense form."""
        q = self.shift_down(self.val).divmod(other.shift_down(other.val))[0]
        return _new(q.ints, q.den, q.val + self.val - other.val) if q.ints else q

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if not self.ints:
            return self
        lead = self.ints[-1]
        if lead < 0:
            return _from_ints([-c for c in self.ints], -lead, self.val)
        return _from_ints(self.ints, lead, self.val)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor (primitive remainder sequence).

        Neither ``ints`` has a root at 0, so the power of x in the gcd is
        the smaller valuation and the remainder sequence runs on ``ints``;
        a monomial has no other factor, so then that power is the gcd.
        """
        if self.is_zero():
            return other.monic()
        if other.is_zero():
            return self.monic()
        a, b = self.ints, other.ints
        if len(a) == 1 or len(b) == 1:
            return _new((1,), 1, min(self.val, other.val))
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _int_prem(a, b)
        return _from_ints(a, 1, min(self.val, other.val)).monic()

    # -- evaluation and substitutions ---------------------------------------

    def eval(self, x) -> Fraction:
        """Value at an integer or Fraction x (homogeneous integer Horner)."""
        if not self.ints:
            return Fraction(0)
        ints = _dense(self)
        p, q = x.numerator, x.denominator
        acc, qpow = ints[-1], 1
        for c in reversed(ints[:-1]):
            qpow *= q
            acc = acc * p + c * qpow
        return Fraction(acc, self.den * qpow)

    def shift_down(self, k: int) -> "Poly":
        """Divide by x**k; requires valuation >= k."""
        if k == 0 or self.is_zero():
            return self
        if k > self.val:
            raise ValueError("valuation too small in shift_down")
        return _new(self.ints, self.den, self.val - k)

    def stretch(self, k: int) -> "Poly":
        """Substitute x -> x**k."""
        if k == 1 or self.is_zero():
            return self
        out = [0] * ((len(self.ints) - 1) * k + 1)
        out[::k] = self.ints
        return _new(tuple(out), self.den, self.val * k)

    def decimate(self, k: int) -> "Poly":
        """Inverse of stretch; every nonzero exponent must be divisible by k."""
        if k == 1 or self.is_zero():
            return self
        if self.val % k or any(c for i, c in enumerate(self.ints) if i % k):
            raise ValueError("exponent not divisible in decimate")
        return _new(self.ints[::k], self.den, self.val // k)

    def exponent_gcd(self) -> int:
        """Gcd of the exponents of the nonzero terms (0 for constants and zero)."""
        v = self.val
        return math.gcd(*[v + i for i, c in enumerate(self.ints) if c])

    def reversed_to(self, length: int) -> "Poly":
        """Coefficients reversed within a window of the given length.

        Realizes x**(length-1) * p(1/x) for p of degree < length.
        """
        if self.degree >= length:
            raise ValueError("polynomial too long for window")
        padded = _dense(self) + [0] * (length - 1 - self.degree)
        return _from_ints(padded[::-1], self.den)

    # -- roots ----------------------------------------------------------------

    def nth_root(self, n: int) -> Optional["Poly"]:
        """Exact n-th root, or None when no such polynomial exists.

        By Gauss's lemma a root of ints/den is an integer polynomial over the
        integer n-th root of den, so Miller's recurrence at exponent 1/n runs
        on exact divisions, and an inexact one means no root.  The series is
        checked by powering it back once.  For even n the root with positive
        lowest coefficient is returned.
        """
        a = self.ints
        if n == 1 or not a:
            return self
        if self.val % n or (len(a) - 1) % n or (a[0] < 0 and not n % 2):
            return None
        q0 = integer_nth_root(abs(a[0]), n)
        d = integer_nth_root(self.den, n)
        if q0 is None or d is None:
            return None
        q = _series_power(a, q0 if a[0] > 0 else -q0, 1, n, (len(a) - 1) // n + 1)
        if q is None:
            return None
        root = _new(tuple(q), d, self.val // n)
        # unbounded: a true root's power is no larger than self, which exists
        return root if _power(root, n) == self else None

    # -- formatting -------------------------------------------------------------

    def to_str(self, var: str = "x", ram: int = 1) -> str:
        """Human form with ascending exponents; exponents divided by ram."""
        if self.is_zero():
            return "0"
        den = self.den
        parts = []
        for i, c in enumerate(self.ints, self.val):
            if not c:
                continue
            g = math.gcd(c, den)
            if not i:
                body = _ratio_str(c // g, den // g)
            else:
                if i == ram:
                    pw = var
                elif not i % ram:
                    pw = f"{var}^{i // ram}"
                else:
                    h = math.gcd(i, ram)
                    pw = f"{var}^({i // h}/{ram // h})"
                if c == den:
                    body = pw
                elif c == -den:
                    body = f"-{pw}"
                else:
                    body = f"{_ratio_str(c // g, den // g)}*{pw}"
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _frac_str(c: Fraction) -> str:
    return _ratio_str(c.numerator, c.denominator)


def _ratio_str(num: int, den: int) -> str:
    """num/den, in lowest terms with den > 0, as "num" or "num/den"."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise NumberTooLarge("an exact value has too many digits to print") from None


# A power is refused when its end coefficients would be this many times
# longer than the interpreter prints: such a power bounds the work of one `^`
# (10**(4*4300) takes under a millisecond) while a quotient of printable
# length, as in (10*e)^5000/(10*e)^5000, still cancels to its answer.
_POWER_DIGITS_PER_PRINTED = 4


def _oversized_power(a, den: int, n: int) -> bool:
    """Whether the first or last coefficient of (a/den)**n, in lowest terms
    (c/g)**n / (den/g)**n with g = gcd(c, den), needs more than
    _POWER_DIGITS_PER_PRINTED times the digits the interpreter converts
    (sys.get_int_max_str_digits, when set).
    |x**n| >= 2**bits has more than bits*0.30102 digits (log10(2) > 0.30102)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return False
    ends = [x // math.gcd(c, den) for c in (a[0], a[-1]) for x in (c, den)]
    bits = n * (max(map(abs, ends)).bit_length() - 1)
    return bits * 30102 // 100000 >= _POWER_DIGITS_PER_PRINTED * limit


def _power(p: "Poly", n: int) -> "Poly":
    """p**n for a nonzero p and n >= 2, with no bound on its size."""
    a = p.ints
    q = _series_power(a, a[0] ** n, n, 1, (len(a) - 1) * n + 1)
    return _new(tuple(q), p.den**n, p.val * n)


def _series_power(a, q0: int, p: int, r: int, count: int) -> Optional[list]:
    """First count integer coefficients q of a**(p/r) from q[0] = q0, by
    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, §4.7) over the nonzero
    a[j]: r*m*a[0]*q[m] = sum over 1 <= j <= m of ((p+r)*j - r*m)*a[j]*q[m-j].
    None when a division leaves a remainder (never for p/r = n)."""
    a0 = a[0]
    terms = [(j, (p + r) * j, c) for j, c in enumerate(a) if j and c]
    q = [q0]
    for m in range(1, count):
        s, rm = 0, r * m
        for j, pj, c in terms:
            if j > m:
                break
            s += (pj - rm) * c * q[m - j]
        q.append(s // (rm * a0))
        if r > 1 and q[-1] * rm * a0 != s:  # an integer power divides exactly
            return None
    return q


def _int_prem(u, v) -> list:
    """Content-free pseudo-remainder of trimmed integer coefficient lists."""
    u = list(u)
    dv = len(v) - 1
    lv = v[-1]
    while len(u) > dv:
        lead = u[-1]
        u = [lv * c for c in u]
        for j, vc in enumerate(v, len(u) - 1 - dv):
            u[j] -= lead * vc
        u.pop()
        while u and not u[-1]:
            u.pop()
    if not u:
        return u
    g = math.gcd(*u)
    return [c // g for c in u] if g > 1 else u


def integer_nth_root(m: int, n: int) -> Optional[int]:
    """Exact n-th root of a nonnegative integer, or None (integer Newton)."""
    if m < 0:
        raise ValueError("negative radicand")
    if m in (0, 1) or n == 1:
        return m
    if n >= m.bit_length():
        return None  # 2**n > m, and 1**n == 1 != m
    x = 1 << ((m.bit_length() + n - 1) // n)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x if x ** n == m else None


def rational_nth_root(q: Fraction, n: int) -> Optional[Fraction]:
    """Exact rational n-th root, or None. Even roots require q >= 0."""
    q = Fraction(q)
    if q < 0:
        if n % 2 == 0:
            return None
        r = rational_nth_root(-q, n)
        return None if r is None else -r
    num = integer_nth_root(q.numerator, n)
    if num is None:
        return None
    den = integer_nth_root(q.denominator, n)
    if den is None:
        return None
    return Fraction(num, den)


_FRACTION_ZERO = Fraction(0)
Poly.ZERO = Poly()
Poly.ONE = Poly((1,))
Poly.X = Poly((0, 1))
