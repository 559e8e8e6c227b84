import functools
import math
import operator
import random
from fractions import Fraction

import pytest

from nsatop import hyperreal as H
from nsatop.hyperreal import Classification, EPSILON, Hyperreal, ONE, StandardPart, ZERO
from nsatop.poly import Poly

from helpers import rand_finite, rand_fraction, rand_hyperreal, rand_infinitesimal


def H_(text):
    return H.parse_hyperreal(text)


class TestNormalize:
    def test_common_factor_cancellation(self):
        assert H.normalize(Poly((0, 0, 2)), Poly((0, 2))) == EPSILON

    def test_already_canonical(self):
        x = H.normalize(Poly((1, 1)), Poly.ONE)
        assert x == H_("1+e")

    def test_ramification_reduction(self):
        # variable denotes e^(1/2); all exponents even, so this is plain e
        x = H.normalize(Poly((0, 0, 1)), Poly.ONE, 2)
        assert x.ram == 1
        assert x == EPSILON
        assert x * x == H_("e^2")

    def test_zero_denominator(self):
        with pytest.raises(H.ZeroDenominator):
            H.normalize(Poly.ONE, Poly.ZERO)

    def test_denominator_lowest_coefficient_is_one(self):
        x = H.normalize(Poly((1,)), Poly((2, 4)))
        assert x.den.lowest == 1

    def test_canonical_equality_is_field_equality(self):
        a = H_("(2+e)/(1+3*e)")
        b = H_("(4+2*e)/(2+6*e)")
        assert a == b
        assert hash(a) == hash(b)


class TestArithmetic:
    def test_add(self):
        assert EPSILON + ONE == H_("1+e")

    def test_mul_expansion(self):
        assert H_("2+e") * H_("3-e") == H_("6+e-e^2")

    def test_inv(self):
        assert H.inv(EPSILON) == H_("1/e")
        with pytest.raises(H.DivisionByZero):
            H.inv(ZERO)

    def test_mixed_ramification(self):
        r = H_("e^(1/2)")
        assert r * r == EPSILON
        assert (r + EPSILON) - EPSILON == r

    def test_operator_coercion(self):
        assert EPSILON + 1 == H_("1+e")
        assert 1 - EPSILON == H_("1-e")
        assert EPSILON * Fraction(1, 2) == H_("e/2")


# -- results from reduced operands against the general constructor ---------------

RAMS = (1, 2, 3, 4, 6)


def _rebased(a, b):
    """Both operands' num and den stretched to the common ramification."""
    m = math.lcm(a.ram, b.ram)
    ka, kb = m // a.ram, m // b.ram
    return (a.num.stretch(ka), a.den.stretch(ka), b.num.stretch(kb), b.den.stretch(kb), m)


def _product(factors):
    return functools.reduce(operator.mul, factors, Poly.ONE)


def _assert_canonical(x):
    assert x.num.gcd(x.den) == Poly.ONE, x
    assert x.den.lowest == 1, x
    assert H._reduce_ramification(x.num, x.den, x.ram) == (x.num, x.den, x.ram), x


def _shared_factor_pair(rng):
    """a and b built, by the general constructor, from products of a few
    shared linear factors (x itself among them), so that gcd(ad, bd),
    gcd(an, bd) and gcd(bn, ad) are often not 1; b is sometimes s - a or
    s / a for such an s, so that the sum or product cancels further."""
    pool = [Poly.X] + [Poly((rand_fraction(rng), 1)) for _ in range(2)]
    ram = rng.choice(RAMS)

    def raw():
        num = Poly.const(rand_fraction(rng) or 1)
        den = Poly.const(rng.randint(1, 3))
        for _ in range(rng.randint(0, 3)):
            num = num * rng.choice(pool)
        for _ in range(rng.randint(0, 3)):
            den = den * rng.choice(pool)
        return num, den

    an, ad = raw()
    bn, bd = raw()
    kind = rng.randrange(3)
    if kind == 1:
        bn, bd = bn * ad - an * bd, bd * ad
    elif kind == 2:
        bn, bd = bn * ad, bd * an
    return Hyperreal(an, ad, ram), Hyperreal(bn, bd, ram)


def check_reduced_operands(pairs, seed):
    """Check +, -, *, /, negation, inverse, powers and the square root of a
    square on `pairs` seeded pairs against the general constructor applied to
    the rebased raw products, and check that every result is canonical.  Half
    the pairs come from rand_hyperreal and half from _shared_factor_pair.
    Returns how many pairs had a common factor in gcd(ad, bd), in the sum's
    second gcd, and in a cross gcd of the product."""
    rng = random.Random(seed)
    hits = {"add": 0, "add_g2": 0, "mul": 0}
    for i in range(pairs):
        if i % 2:
            a, b = _shared_factor_pair(rng)
        else:
            a, b = (rand_hyperreal(rng, rams=RAMS) for _ in range(2))
        an, ad, bn, bd, m = _rebased(a, b)
        k = rng.randint(0, 5)
        cases = [
            (a + b, Hyperreal(an * bd + bn * ad, ad * bd, m)),
            (a - b, Hyperreal(an * bd - bn * ad, ad * bd, m)),
            (a * b, Hyperreal(an * bn, ad * bd, m)),
            (-a, Hyperreal(-a.num, a.den, a.ram)),
            (a**k, Hyperreal(_product([a.num] * k), _product([a.den] * k), a.ram)),
        ]
        if b.num:
            cases.append((a / b, Hyperreal(an * bd, ad * bn, m)))
        if a.num:
            cases.append((a.inverse(), Hyperreal(a.den, a.num, a.ram)))
            cases.append((H.nth_root(a * a, 2), Hyperreal(a.num.scale(a.sign()), a.den, a.ram)))
        for got, want in cases:
            _assert_canonical(got)
            assert (got.num, got.den, got.ram) == (want.num, want.den, want.ram), (a, b, k)
        g = ad.gcd(bd)
        if g.degree:
            hits["add"] += 1
            t = an * bd.exact_div(g) + bn * ad.exact_div(g)
            hits["add_g2"] += t.gcd(g).degree > 0
        hits["mul"] += an.gcd(bd).degree > 0 or bn.gcd(ad).degree > 0
    return hits


class TestReducedOperands:
    def test_results_equal_the_general_constructor(self):
        hits = check_reduced_operands(5000, seed=43)
        # every path of the sum and the product ran, the rarer ones too
        assert min(hits.values()) >= 250, hits


class TestOrder:
    def test_sign(self):
        assert H.sign(EPSILON) == 1
        assert H.sign(-EPSILON) == -1
        assert H.sign(ZERO) == 0

    def test_epsilon_below_every_positive_rational(self):
        assert H.compare(EPSILON, Hyperreal.from_rational(Fraction(1, 10**6))) == -1

    def test_infinite_above_every_rational(self):
        assert H.compare(H.inv(EPSILON), Hyperreal.from_rational(10**100)) == 1

    def test_non_archimedean_witness(self):
        # every tested n up to a million, dense at the small end
        for n in list(range(1, 2001)) + [10**4, 10**5, 999983, 10**6]:
            assert ZERO < EPSILON < Hyperreal.from_rational(Fraction(1, n))

    def test_order_compatible_with_addition_and_multiplication(self):
        rng = random.Random(31)
        for _ in range(300):
            a, b, c = (rand_hyperreal(rng) for _ in range(3))
            if a < b:
                assert a + c < b + c
            if ZERO < a and ZERO < b:
                assert ZERO < a * b

    def test_operators_agree_with_compare(self):
        # compare() subtracts and reads the sign; the operators read the
        # lowest terms and subtract only when those tie, as a and a + c*e^k
        # do whenever e^k lies above a's lowest term
        rng = random.Random(41)
        rams, ties = set(), 0
        for _ in range(400):
            a = rand_hyperreal(rng, rams=(1, 2, 3))
            b = rng.choice((a, rand_hyperreal(rng, rams=(1, 2, 3))))
            rams.update((a.ram, b.ram))
            q = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            near = a + Hyperreal(Poly.monomial(rng.randint(0, 4), rng.choice((-1, 0, 1))))
            if near != a and a.sign():
                ties += (a.order(), a.num.lowest) == (near.order(), near.num.lowest)
            for lhs, rhs in (
                (a, b), (a, near), (near, a), (a, q), (q, a), (a, ZERO), (ZERO, a), (ZERO, ZERO)
            ):
                c = H.compare(lhs, rhs)
                assert (lhs < rhs, lhs <= rhs, lhs > rhs, lhs >= rhs) == (
                    c < 0, c <= 0, c > 0, c >= 0
                ), (lhs, rhs)
        assert {1, 2, 3} <= rams
        assert ties >= 100, ties

    def test_order_rejects_non_numbers(self):
        for other in ("x", 0.5):
            for op in (
                lambda: ONE < other,
                lambda: ONE <= other,
                lambda: ONE > other,
                lambda: ONE >= other,
            ):
                with pytest.raises(TypeError):
                    op()


class TestClassification:
    def test_examples(self):
        assert H.classify(EPSILON) is Classification.INFINITESIMAL
        assert H.classify(H_("(2+e)/(1+3*e)")) is Classification.APPRECIABLE
        assert H.classify(H_("1/e")) is Classification.INFINITE
        assert H.classify(ZERO) is Classification.ZERO

    def test_trichotomy_of_finiteness(self):
        rng = random.Random(32)
        for _ in range(300):
            a = rand_hyperreal(rng)
            c = H.classify(a)
            finite = c in (Classification.ZERO, Classification.INFINITESIMAL, Classification.APPRECIABLE)
            assert finite != (c is Classification.INFINITE)

    def test_order_field(self):
        assert H_("(2+e)/(1+3*e)").order() == 0
        assert H_("e^(1/2)").order() == Fraction(1, 2)
        assert H_("1/e").order() == -1

    def test_classes_follow_the_sign_of_the_order(self):
        rng = random.Random(33)
        by_sign = [Classification.INFINITE, Classification.APPRECIABLE, Classification.INFINITESIMAL]
        for _ in range(2000):
            a = rand_hyperreal(rng, rams=RAMS)
            o = a.order()
            want = Classification.ZERO if o is None else by_sign[(o > 0) - (o < 0) + 1]
            assert a.classify() is want, a


class TestFromRational:
    def test_equals_the_general_constructor(self):
        rng = random.Random(34)
        for q in [0, 1, -7, Fraction(3, 4)] + [rand_fraction(rng, 10**6, 99) for _ in range(500)]:
            got, want = Hyperreal.from_rational(q), Hyperreal(Poly.const(q))
            _assert_canonical(got)
            assert (got.num, got.den, got.ram) == (want.num, want.den, want.ram), q


class TestStandardPart:
    def test_appreciable(self):
        assert H.st(H_("(2+e)/(1+3*e)")) == StandardPart.real(2)

    def test_infinitesimal_shift(self):
        assert H.st(H_("e^2-5")) == StandardPart.real(-5)

    def test_signed_infinity(self):
        assert H.st(H_("1/e")) == StandardPart.plus_infinity()
        assert H.st(H_("-1/e")) == StandardPart.minus_infinity()

    def test_limit_oracle(self):
        # st of an appreciable quotient is its limit as e -> 0+, which the
        # rational-function evaluation approaches at small rational arguments
        x = H_("(2+e)/(1+3*e)")
        st = H.st(x).value
        for k in (6, 9, 12):
            t = Fraction(1, 10**k)
            approx = x.num.eval(t) / x.den.eval(t)
            assert abs(approx - st) < Fraction(1, 10 ** (k - 2))


class TestDecompose:
    def test_examples(self):
        assert H.decompose(H_("3+e-e^2")) == (Fraction(3), H_("e-e^2"))
        assert H.decompose(EPSILON) == (Fraction(0), EPSILON)
        with pytest.raises(H.NotFinite):
            H.decompose(H_("1/e"))

    def test_roundtrip_and_uniqueness(self):
        rng = random.Random(33)
        for _ in range(200):
            r = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            h = rand_infinitesimal(rng)
            a = Hyperreal.from_rational(r) + h
            got_r, got_h = H.decompose(a)
            assert got_r == r and got_h == h


class TestInfinitesimallyClose:
    def test_examples(self):
        assert H.infinitesimally_close(H_("1+e"), ONE)
        assert not H.infinitesimally_close(ONE, Hyperreal.from_rational(2))
        assert not H.infinitesimally_close(H_("1/e"), H_("1/e + 7"))

    def test_close_iff_equal_st(self):
        rng = random.Random(34)
        for _ in range(200):
            a, b = rand_finite(rng), rand_finite(rng)
            assert H.infinitesimally_close(a, b) == (H.st(a) == H.st(b))


class TestStructuralSubsets:
    def test_infinitesimals_form_an_ideal(self):
        rng = random.Random(35)
        small = Classification.ZERO, Classification.INFINITESIMAL
        for _ in range(200):
            h = rand_infinitesimal(rng)
            g = rand_infinitesimal(rng)
            f = rand_finite(rng)
            assert H.classify(h + g) in small
            assert H.classify(h * f) in small

    def test_inv_swaps_infinitesimal_and_infinite(self):
        rng = random.Random(36)
        for _ in range(200):
            h = rand_infinitesimal(rng)
            if H.sign(h) == 0:
                continue
            assert H.classify(H.inv(h)) is Classification.INFINITE
            assert H.classify(H.inv(H.inv(h))) is Classification.INFINITESIMAL


class TestNthRoot:
    def test_examples(self):
        assert H.nth_root(H_("4*e^2"), 2) == H_("2*e")
        r = H.nth_root(EPSILON, 2)
        assert r.ram == 2 and r * r == EPSILON
        with pytest.raises(H.NotRepresentable):
            H.nth_root(H_("1+e"), 2)

    def test_negative_even_root(self):
        with pytest.raises(H.NegativeEvenRoot):
            H.nth_root(-EPSILON, 2)

    def test_odd_root_of_negative(self):
        r = H.nth_root(H_("-8*e^3"), 3)
        assert r == H_("-2*e")

    def test_roundtrip(self):
        rng = random.Random(37)
        for _ in range(150):
            a = rand_hyperreal(rng)
            n = rng.choice((2, 3, 4))
            if n % 2 == 0 and H.sign(a) < 0:
                a = -a
            p = a ** n
            r = H.nth_root(p, n)
            assert r ** n == p

    def test_zero(self):
        assert H.nth_root(ZERO, 5) == ZERO

    def test_low_degree_square_of_one_plus_eps_impossible(self):
        # oracle for the NotRepresentable example: no candidate of degree <= 3
        # in any ramification squares to 1 + e
        target = H_("1+e")
        rng = random.Random(38)
        for _ in range(500):
            cand = rand_hyperreal(rng, max_deg=3)
            assert cand * cand != target


class TestStarIntervals:
    def test_examples(self):
        assert H.in_star_interval(EPSILON, 0, 1, "closed")
        assert not H.in_star_interval(H_("1+e"), 0, 1, "closed")
        assert not H.in_star_interval(ZERO, 0, 1, "open")

    def test_half_open(self):
        one = Fraction(1)
        assert H.in_star_interval(ZERO, 0, 1, "half-open")
        assert not H.in_star_interval(Hyperreal.from_rational(one), 0, 1, "half-open")
        assert H.in_star_interval(Hyperreal.from_rational(one), 0, 1, "(]")

    def test_infinitesimal_endpoint_sensitivity(self):
        assert H.in_star_interval(H_("1-e"), 0, 1, "open")
        assert not H.in_star_interval(H_("1+e"), 0, 1, "closed")

    def test_empty_interval(self):
        with pytest.raises(H.EmptyInterval):
            H.in_star_interval(EPSILON, 1, 0, "closed")


class TestParser:
    def test_rational_division(self):
        assert H_("1/3 + e") == Hyperreal.from_rational(Fraction(1, 3)) + EPSILON

    def test_negative_exponent(self):
        assert H_("e^-2") == H.inv(EPSILON) ** 2

    def test_fractional_exponent_of_composite(self):
        assert H_("(4*e^2)^(1/2)") == H_("2*e")

    def test_syntax_error_position(self):
        with pytest.raises(H.ExprSyntaxError):
            H_("2 + * e")

    def test_nesting_limit(self):
        assert H_("(" * 50 + "1+e" + ")" * 50) == 1 + EPSILON
        assert H_("-" * 50 + "e") == EPSILON
        assert H_("+" * H.MAX_DEPTH + "e") == EPSILON  # '(' and '-' in the next test
        for depth in (H.MAX_DEPTH + 1, 200, 10**4):
            for text in ("(" * depth + "e" + ")" * depth, "-" * depth + "e", "+" * depth + "e"):
                with pytest.raises(H.NestingTooDeep) as err:
                    H_(text)
                assert isinstance(err.value, H.HyperrealError)
                assert err.value.position == H.MAX_DEPTH

    def test_exactly_max_depth_levels_are_accepted(self):
        depth = H.MAX_DEPTH
        assert H_("(" * depth + "e" + ")" * depth) == EPSILON
        assert H_("-" * depth + "e") == EPSILON
        assert H_("(-" * (depth // 2) + "e" + ")" * (depth // 2)) == EPSILON
        with pytest.raises(H.NestingTooDeep) as err:
            H_("1 + " + "(-" * depth + "e" + ")" * depth)
        assert err.value.position == 4 + depth

    def test_division_is_left_associative(self):
        assert H_("e/1/2") == H_("e / 1 / 2") == H_("(e/1)/2") == EPSILON / 2
        assert H_("1/2/e") == 1 / (2 * EPSILON)

    def test_bad_tokens_are_syntax_errors(self):
        long_literal = "1 + " + "1" * 5000
        for text, position in (("2 + ²", 4), ("e $", 2), (long_literal, 4), ("ex", 0), ("e^(1/0)", 5)):
            with pytest.raises(H.ExprSyntaxError) as err:
                H_(text)
            assert err.value.position == position, text[:8]

    def test_division_by_zero_expression(self):
        with pytest.raises(H.ZeroDenominator):
            H_("(1)/(0)")

    def test_string_forms_reparse(self):
        rng = random.Random(39)
        for _ in range(100):
            a = rand_hyperreal(rng)
            assert H.parse_hyperreal(str(a)) == a
