import math
import random
from fractions import Fraction

import pytest

from nsatop.poly import Poly, integer_nth_root, rational_nth_root

from helpers import rand_poly


def test_zero_and_degree():
    assert Poly().is_zero()
    assert Poly((0, 0)).is_zero()
    assert Poly((1, 2)).degree == 1
    assert Poly().degree == -1
    assert Poly((0, 0, 3)).valuation == 2


def assert_canonical(p):
    # integer numerators over a positive denominator coprime to their content
    assert p.den > 0 and math.gcd(p.den, *p.ints) == 1
    assert not p.ints or p.ints[-1]


def test_arithmetic_identities():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_poly(rng, 3) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        for r in (a + b, a - b, -a, a * b, a.scale(Fraction(-2, 3)), a.monic(), a.stretch(2)):
            assert_canonical(r)
    # unreduced Fractions, ints and computed results give one canonical form
    p = Poly((Fraction(2, 4), Fraction(-6, 3), Fraction(0, 5), 0))
    for q in (
        Poly((Fraction(1, 2), -2)),
        Poly((1, -4)).scale(Fraction(1, 2)),
        Poly((3, -12)) * Poly.const(Fraction(1, 6)),
        Poly((Fraction(3, 2), -1)) - Poly((1, 1)),
    ):
        assert p == q and hash(p) == hash(q)
    assert Poly((Fraction(6, 3), Fraction(-8, 2))) == Poly((2, -4))
    assert hash(Poly((Fraction(6, 3), Fraction(-8, 2)))) == hash(Poly((2, -4)))


# divisors whose leading coefficient is negative and not a unit
NEGATIVE_LEADS = (
    Poly((1, 2, -3)),
    Poly((Fraction(1, 2), Fraction(-4, 3))),
    Poly((Fraction(-5, 7),)),
)


def test_divmod_invariant():
    rng = random.Random(8)
    for i in range(200):
        a = rand_poly(rng, 4)
        b = rand_poly(rng, 2, zero_ok=False) if i % 4 else NEGATIVE_LEADS[i // 4 % 3]
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree
        assert_canonical(q)
        assert_canonical(r)


def test_gcd_divides_both():
    rng = random.Random(9)
    for i in range(100):
        g = rand_poly(rng, 1, zero_ok=False) if i % 4 else NEGATIVE_LEADS[i // 4 % 3]
        a = g * rand_poly(rng, 2, zero_ok=False)
        b = g * rand_poly(rng, 2, zero_ok=False)
        d = a.gcd(b)
        assert (a % d).is_zero() and (b % d).is_zero()
        assert d.leading == 1 and (d % g.monic()).is_zero()


def test_stretch_decimate_roundtrip():
    p = Poly((1, 0, 2, 0, 0, -1))
    assert p.stretch(3).decimate(3) == p
    with pytest.raises(ValueError):
        Poly((1, 1)).decimate(2)


def test_reversed_window():
    p = Poly((0, 1))  # x
    assert p.reversed_to(2) == Poly((1,))
    assert Poly((1,)).reversed_to(2) == Poly((0, 1))


def test_integer_nth_root():
    assert integer_nth_root(0, 3) == 0
    assert integer_nth_root(64, 3) == 4
    assert integer_nth_root(63, 3) is None
    assert integer_nth_root(10**30, 2) == 10**15


def test_rational_nth_root():
    assert rational_nth_root(Fraction(4, 9), 2) == Fraction(2, 3)
    assert rational_nth_root(Fraction(-8, 27), 3) == Fraction(-2, 3)
    assert rational_nth_root(Fraction(-4), 2) is None
    assert rational_nth_root(Fraction(2), 2) is None


def test_poly_nth_root_roundtrip():
    rng = random.Random(10)
    hits = 0
    for _ in range(150):
        base = rand_poly(rng, 2, zero_ok=False)
        n = rng.choice((2, 3))
        p = base ** n
        r = p.nth_root(n)
        assert r is not None
        assert r ** n == p
        hits += 1
    assert hits == 150


def test_poly_nth_root_rejects_non_powers():
    assert Poly((1, 1)).nth_root(2) is None  # 1 + x
    assert Poly((0, 1)).nth_root(2) is None  # x alone has odd valuation
    assert Poly((2,)).nth_root(2) is None  # sqrt(2) is irrational
