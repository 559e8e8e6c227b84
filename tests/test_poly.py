import math
import random
from fractions import Fraction

import pytest

from nsatop import hyperreal, poly
from nsatop.hyperreal import EPSILON, Hyperreal
from nsatop.poly import NumberTooLarge, Poly, _series_power, integer_nth_root, rational_nth_root

from helpers import rand_fraction, rand_poly


def test_zero_and_degree():
    assert Poly().is_zero()
    assert Poly((0, 0)).is_zero()
    assert Poly((1, 2)).degree == 1
    assert Poly().degree == -1
    assert Poly((0, 0, 3)).valuation == 2


def test_coefficients_are_int_or_fraction():
    # one number rule for Poly, Hyperreal and germs: a str or a float is
    # neither parsed nor rounded
    for make in (
        lambda: Poly.const("1e3"),
        lambda: Poly(["0.5", 0.1]),
        lambda: Poly((1,)).scale(0.5),
        lambda: Hyperreal("1e3"),
    ):
        with pytest.raises(TypeError, match="int or Fraction"):
            make()
    assert Poly((True, Fraction(4, 2))).coeffs == (1, 2)
    assert Poly((1,)).scale(Fraction(1, 2)) == Poly.const(Fraction(1, 2))


def assert_canonical(p):
    # integer numerators over a positive denominator coprime to their content,
    # trimmed at both ends, times x**val
    assert p.den > 0 and math.gcd(p.den, *p.ints) == 1
    if p.ints:
        assert p.ints[0] and p.ints[-1] and p.val >= 0
    else:
        assert p.val == 0


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
    assert Poly((0, 0, 1, 0, 3)).decimate(2) == Poly((0, 1, 3))
    for p in (Poly((1, 1)), Poly((0, 1)), Poly((0, 0, 0, 1, 0, 1))):
        with pytest.raises(ValueError):
            p.decimate(2)


def test_reversed_window():
    p = Poly((0, 1))  # x
    assert p.reversed_to(2) == Poly((1,))
    assert Poly((1,)).reversed_to(2) == Poly((0, 1))


def test_integer_nth_root():
    assert integer_nth_root(0, 3) == 0
    assert integer_nth_root(64, 3) == 4
    assert integer_nth_root(63, 3) is None
    assert integer_nth_root(10**30, 2) == 10**15
    # a degree past the radicand's bit length is refused before any power
    assert integer_nth_root(4, 10**12) is None


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


def _nth_root_by_fractions(p, n):
    """Poly.nth_root as written on Fractions, one partial root per step,
    powered by repeated products: the reference for the integer route."""
    if n == 1 or p.is_zero():
        return p
    v = p.valuation
    if v % n or (p.degree - v) % n:
        return None
    body = p.shift_down(v)
    c0 = rational_nth_root(body.coeff(0), n)
    if c0 is None:
        return None
    deg = body.degree // n
    root = [Fraction(0)] * (deg + 1)
    root[0] = c0
    lead_inv = 1 / (n * c0 ** (n - 1))
    partial = Poly((c0,))
    for k in range(1, deg + 1):
        have = _power_by_products(partial, n).coeff(k)
        root[k] = (body.coeff(k) - have) * lead_inv
        partial = Poly(root[: k + 1])
    candidate = Poly(root)
    if _power_by_products(candidate, n) != body:
        return None
    return Poly.monomial(v // n) * candidate


def check_nth_roots(count, seed):
    """Poly.nth_root against the Fraction reference on count seeded cases.

    Half are n-th powers: valuations 0-3, rational coefficients (some of 70
    bits), n from 1 to 6, a negative lowest coefficient for odd n.  The rest
    are altered: one term moved, den times a non-power, negated (no root
    for even n), or a valuation or degree off by one.  Returns
    (roots found, None answers); both sides must agree on every case.
    """
    rng = random.Random(seed)
    found = refused = 0
    for i in range(count):
        n = rng.randint(1, 6)
        span, max_den = rng.choice(((3, 2), (9, 8), (1 << 70, 5)))
        coeffs = [rand_fraction(rng, span, max_den) for _ in range(rng.randint(1, 4))]
        coeffs[0] = coeffs[0] or Fraction(1)
        if n % 2 == 0:
            coeffs[0] = abs(coeffs[0])
        p = _power_by_products(Poly([0] * rng.randint(0, 3) + coeffs), n)
        if i % 2:
            spoil = rng.randrange(5)
            if spoil == 0:
                k = rng.randint(p.val, p.degree)
                p = p + Poly.monomial(k, rand_fraction(rng) or Fraction(1, 3))
            elif spoil == 1:
                p = p.scale(Fraction(rng.choice((1, 5)), rng.choice((2, 3, 12))))
            elif spoil == 2:
                p = -p
            elif spoil == 3:
                p = p * Poly.X
            else:
                p = p + Poly.monomial(p.degree + 1, rand_fraction(rng) or Fraction(1))
        got, want = p.nth_root(n), _nth_root_by_fractions(p, n)
        assert got == want, (p, n, got, want)
        if got is None:
            refused += 1
        else:
            assert_canonical(got)
            found += 1
    return found, refused


def test_nth_root_against_fraction_reference():
    found, refused = check_nth_roots(2000, seed=26)
    assert found > 1000 and refused > 500


def test_root_powers_once(monkeypatch):
    pows, muls = [], []
    power, mul = Poly.__pow__, Poly.__mul__

    def recording_pow(self, n):
        pows.append(n)
        return power(self, n)

    def recording_mul(self, other):
        muls.append(other)
        return mul(self, other)

    cube = _power_by_products(Poly((0, 0, Fraction(-2, 3), 1, 5, Fraction(1, 7))), 3)
    den = Poly((1, 0, Fraction(1, 4)))
    a = Hyperreal(cube, _power_by_products(den, 3), 2)
    want = Hyperreal(cube.nth_root(3), den, 2)
    monkeypatch.setattr(Poly, "__pow__", recording_pow)
    monkeypatch.setattr(Poly, "__mul__", recording_mul)
    for p, n in ((cube, 3), (cube + Poly.X**9, 3), (cube.scale(2), 3), (Poly((4, 4, 1)), 2)):
        pows.clear()
        p.nth_root(n)
        assert len(pows) <= 1, (p, n, pows)
    assert muls == []
    assert hyperreal.nth_root(a, 3) == want
    assert hyperreal.nth_root(-a, 3) == -want
    assert muls == []


# -- the stored valuation against a dense list of Fractions -------------------------


def _trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def _dense_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _dense_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _dense_divmod(a, b):
    rem, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        f = rem[i + len(b) - 1] / b[-1]
        q[i] = f
        for j, y in enumerate(b):
            rem[i + j] -= f * y
    return _trim(q), _trim(rem)


def _dense_gcd(a, b):
    while b:
        a, b = b, _dense_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _rand_sparse(rng):
    """A random polynomial with valuation 0..40, as (Poly, dense Fraction list)."""
    body = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
    dense = _trim([Fraction(0)] * rng.randint(0, 40) + body)
    return Poly(dense), dense


def test_stored_valuation_against_dense_oracle():
    rng = random.Random(11)
    # a second stream, so that the first draws the same pairs as it always has
    mono_rng = random.Random(12)
    for _ in range(300):
        (a, da), (b, db) = _rand_sparse(rng), _rand_sparse(rng)
        assert list(a.coeffs) == da
        assert a.valuation == (next((i for i, c in enumerate(da) if c), None))
        results = [
            (a + b, _dense_add(da, db)),
            (a - b, _dense_add(da, [-c for c in db])),
            (a * b, _dense_mul(da, db)),
        ]
        k = rng.randint(1, 3)
        stretched = [da[i // k] if i % k == 0 else 0 for i in range(k * len(da) - k + 1)]
        results.append((a.stretch(k), stretched))
        results.append((a.stretch(k).decimate(k), da))
        if a:
            shift = rng.randint(0, a.valuation)
            results.append((a.shift_down(shift), da[shift:]))
            with pytest.raises(ValueError):
                a.shift_down(a.valuation + 1)
        if b:
            unit = b.shift_down(b.valuation)
            results.append(((a * unit).exact_div(unit), da))
            q, r = a.divmod(b)
            results += [(q, _dense_divmod(da, db)[0]), (r, _dense_divmod(da, db)[1])]
            if a:
                results.append((a.gcd(b), _dense_gcd(da, db)))
            # a divisor with a positive valuation, and a monomial operand of gcd
            quotient = (a * b).exact_div(b)
            results.append((quotient, da))
            assert quotient == (a * b).divmod(b)[0]
            c = Fraction(mono_rng.choice((-3, -1, 1, 2)), mono_rng.randint(1, 3))
            dm = [Fraction(0)] * mono_rng.randint(0, 40) + [c]
            for x, dx in ((a, da), (b, db)):
                if x:
                    results.append((x.gcd(Poly(dm)), _dense_gcd(dx, dm)))
                    results.append((Poly(dm).gcd(x), _dense_gcd(dm, dx)))
        for got, want in results:
            assert_canonical(got)
            assert list(got.coeffs) == want
        x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert a.eval(x) == sum(c * x**i for i, c in enumerate(da))


def _power_by_products(p, n):
    """p**n as n products: the reference for Miller's recurrence."""
    out = Poly.ONE
    for _ in range(n):
        out = out * p
    return out


def test_power_against_repeated_products():
    rng = random.Random(24)
    big = 1 << 200
    bases = [Poly(), Poly.ONE, Poly.X, Poly.monomial(3, Fraction(-5, 7)), Poly((0, 0, -2, 1))]
    for _ in range(60):
        size = rng.choice((3, 5, big))
        coeffs = [
            Fraction(rng.randint(-size, size), rng.choice((1, 1, 2, 9, big + 1)))
            for _ in range(rng.randint(1, 5))
        ]
        base = Poly([0] * rng.randint(0, 4) + coeffs)
        bases.append(base.stretch(rng.randint(1, 6)))
    for base in bases:
        for n in (0, 1, 2, 3, 7, 40 if len(base.ints) < 8 else 11):
            got = base**n
            assert_canonical(got)
            assert got == _power_by_products(base, n), (base, n)
    with pytest.raises(ValueError):
        Poly.X ** -1


def test_power_makes_no_product(monkeypatch):
    base = 1 + EPSILON
    calls = []
    mul = Poly.__mul__

    def recording_mul(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", recording_mul)
    result = base**2000
    assert result.num.degree == 2000
    assert Poly((1, 1)) ** 100 == Poly([math.comb(100, i) for i in range(101)])
    assert calls == []


# caught mutant: a recurrence that never tests the remainder, which runs on
# past the first inexact division and returns a series for a non-root
def test_series_power_refuses_a_non_root_at_the_first_inexact_division():
    assert _series_power((1, 1), 1, 1, 2, 2000) is None  # sqrt(1 + x): 2*q[1] = 1
    assert _series_power((1, 3, 3, 1), 1, 1, 3, 2000) == [1, 1] + [0] * 1998  # cbrt((1 + x)^3)
    assert _series_power((4, 4, 2), 2, 1, 2, 2000) is None  # 4*q[2] = 1, after an exact q[1] = 1


def test_power_far_too_long_to_print_is_refused_before_it_is_built():
    # each would hold an integer of over four times the digits the interpreter
    # prints; 10**199999999999 alone would take about 83 GB
    for base, n in ((Poly.const(Fraction(1, 10)), 199999999999), (Poly((10, 1)), 10**12), (Poly((1, 0, -7)), 30000)):
        with pytest.raises(NumberTooLarge, match="too many digits to print"):
            base**n
    # below the bound the power is built, printable or not; printing decides
    assert (Poly.const(10) ** 4299).ints == (10**4299,)
    assert (Poly.const(10) ** 17000).ints == (10**17000,)
    assert (Poly((1, 0, -7)) ** 7200).ints[-1] == 7**7200


def test_sum_spanning_past_the_term_budget_is_refused_before_it_is_padded():
    # a sum pads both operands to one dense span, zeros between their
    # valuations included; past the budget it is refused with nothing built
    budget = poly._SUM_TERMS
    for a, b in (
        (Poly.ONE, Poly.monomial(budget)),
        (Poly.monomial(-399999999999), Poly.ONE),
        (Poly((1, 1)), Poly.monomial(budget - 2)),
    ):
        for left, right in ((a, b), (b, a)):
            with pytest.raises(NumberTooLarge, match="a sum would span more than"):
                left + right
            with pytest.raises(NumberTooLarge):
                left - right
    # at the budget the sum is built: the gap plus both lengths is budget
    s = Poly.ONE + Poly.monomial(budget - 2)
    assert (s.val, len(s.ints), s.ints[0], s.ints[-1]) == (0, budget - 1, 1, 1)
    assert Poly.monomial(10**12) + Poly.monomial(10**12, 2) == Poly.monomial(10**12, 3)


def test_root_is_checked_past_the_power_bound():
    # a radicand built by products may exceed the bound on `**`; checking
    # its root by powering it back must not be refused
    assert (Poly((10**10000, 1)) * Poly((10**10000, 1))).nth_root(2) == Poly((10**10000, 1))


def _to_str_by_fractions(p, var, ram):
    """Poly.to_str as written on Fractions: the oracle for the integer route."""
    if p.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        e = Fraction(i, ram)
        frac = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        if e == 0:
            body = frac
        else:
            if e == 1:
                pw = var
            elif e.denominator == 1:
                pw = f"{var}^{e.numerator}"
            else:
                pw = f"{var}^({e.numerator}/{e.denominator})"
            if c == 1:
                body = pw
            elif c == -1:
                body = f"-{pw}"
            else:
                body = f"{frac}*{pw}"
        parts.append(body)
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


def test_to_str_against_fraction_oracle():
    rng = random.Random(25)
    polys = [Poly(), Poly.ONE, Poly.X, Poly((-1, 0, -1)), Poly((Fraction(1, 2), Fraction(-1, 2), 0, 1))]
    for _ in range(150):
        span, max_den = rng.choice((1, 6, 1 << 70)), rng.choice((1, 4, 12))
        coeffs = [rand_fraction(rng, span, max_den) for _ in range(rng.randint(1, 7))]
        polys.append(Poly([0] * rng.randint(0, 7) + coeffs))
    for p in polys:
        for var in ("e", "n"):
            for ram in range(1, 7):
                assert p.to_str(var, ram) == _to_str_by_fractions(p, var, ram), (p, var, ram)
