import random
from fractions import Fraction

import pytest

from nsatop import germs as G
from nsatop import hyperreal as H
from nsatop.germs import AeVerdict, PeriodicGerm, RationalGerm
from nsatop.hyperreal import Classification
from nsatop.poly import Poly

from helpers import rand_periodic_germ, rand_rational_germ

N = RationalGerm(Poly.X)


def rf(text):
    return G.parse_germ(f"rf({text})")


class TestEmbedConstant:
    def test_values(self):
        for c in (5, 0, Fraction(-3, 2)):
            g = G.embed_constant(c)
            assert g == PeriodicGerm((), (Fraction(c),))
            assert g.value_at(1) == c and g.value_at(17) == c


class TestNormalization:
    def test_minimal_period(self):
        assert PeriodicGerm((), (1, 2, 1, 2)) == PeriodicGerm((), (1, 2))
        assert PeriodicGerm((), (3, 3, 3)) == G.embed_constant(3)

    def test_minimal_preperiod(self):
        # 5,1,2,1,2,... == preperiod [5], period [1,2]
        assert PeriodicGerm((5, 1), (2, 1)) == PeriodicGerm((5,), (1, 2))

    def test_normalization_preserves_values(self):
        rng = random.Random(50)
        for _ in range(300):
            pre = [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]
            per = [rng.randint(-2, 2) for _ in range(rng.randint(1, 6))]
            raw_value = lambda n: pre[n - 1] if n - 1 < len(pre) else per[(n - 1 - len(pre)) % len(per)]
            g = PeriodicGerm(pre, per)
            for n in range(1, 20):
                assert g.value_at(n) == raw_value(n)


class TestArithmetic:
    def test_add_constant(self):
        assert G.add(rf("1/n"), G.embed_constant(1)) == rf("(n+1)/n")

    def test_periodic_pointwise_product(self):
        got = G.mul(PeriodicGerm((), (0, 1)), PeriodicGerm((), (1, 0)))
        assert got == G.embed_constant(0)

    def test_inv_errors(self):
        with pytest.raises(G.UltrafilterDependentZeroDivisor):
            G.inv(PeriodicGerm((), (0, 1)))
        with pytest.raises(G.AlmostEverywhereZeroDivisor):
            G.inv(G.embed_constant(0))
        with pytest.raises(G.AlmostEverywhereZeroDivisor):
            G.inv(RationalGerm(Poly.ZERO))

    def test_inv_ignores_preperiod_zeros(self):
        g = G.inv(PeriodicGerm((0,), (2,)))
        assert G.ae_equal(g, G.embed_constant(Fraction(1, 2))) is AeVerdict.TRUE_AE

    def test_mixed_classes_rejected(self):
        with pytest.raises(G.MixedClasses):
            G.add(N, PeriodicGerm((), (0, 1)))

    def test_constant_coercion_allowed(self):
        assert G.add(N, G.embed_constant(1)) == rf("n+1")
        got = G.add(PeriodicGerm((), (0, 1)), RationalGerm(Poly.const(1)))
        assert got == PeriodicGerm((), (1, 2))

    def test_field_identities_on_rational_germs(self):
        rng = random.Random(51)
        for _ in range(200):
            a, b = rand_rational_germ(rng), rand_rational_germ(rng)
            assert G.add(a, b) == G.add(b, a)
            assert G.mul(a, b) == G.mul(b, a)
            assert G.add(a, G.neg(a)) == RationalGerm(Poly.ZERO)
            if not a.num.is_zero():
                assert G.mul(a, G.inv(a)) == RationalGerm(Poly.ONE)


class TestAeVerdicts:
    def test_polynomial_identity_after_cancellation(self):
        a = RationalGerm(Poly((-1, 0, 1)), Poly((-1, 1)))  # (n^2-1)/(n-1)
        assert G.ae_equal(a, rf("n+1")) is AeVerdict.TRUE_AE

    def test_periodic_vs_constant(self):
        assert G.ae_equal(PeriodicGerm((), (0, 1)), G.embed_constant(0)) is AeVerdict.ULTRAFILTER_DEPENDENT

    def test_eventual_domination(self):
        for r in (Fraction(1, 1000), Fraction(7), Fraction(1, 10**9)):
            assert G.ae_less(rf("1/n"), G.embed_constant(r)) is AeVerdict.TRUE_AE

    def test_rational_never_ultrafilter_dependent(self):
        rng = random.Random(52)
        for _ in range(300):
            a, b = rand_rational_germ(rng), rand_rational_germ(rng)
            eq, lt = G.ae_compare(a, b)
            assert eq is not AeVerdict.ULTRAFILTER_DEPENDENT
            assert lt is not AeVerdict.ULTRAFILTER_DEPENDENT

    def test_equality_is_equivalence_on_true_ae(self):
        rng = random.Random(53)
        germs = [rand_rational_germ(rng) for _ in range(22)]
        t = AeVerdict.TRUE_AE
        for a in germs:
            assert G.ae_equal(a, a) is t
        for a in germs:
            for b in germs:
                assert G.ae_equal(a, b) is G.ae_equal(b, a)
        for a in germs:
            for b in germs:
                for c in germs:
                    if G.ae_equal(a, b) is t and G.ae_equal(b, c) is t:
                        assert G.ae_equal(a, c) is t

    def test_periodic_verdicts_match_residue_oracle(self):
        rng = random.Random(54)
        for _ in range(400):
            a = rand_periodic_germ(rng)
            b = rand_periodic_germ(rng)
            eq, lt = G.ae_compare(a, b)
            assert eq is _residue_oracle(a, b, lambda x, y: x == y)
            assert lt is _residue_oracle(a, b, lambda x, y: x < y)


def _residue_oracle(a, b, rel):
    """Brute force over residue classes of the aligned tail."""
    import math

    pre = max(len(a.preperiod), len(b.preperiod))
    lcm = len(a.period) * len(b.period) // math.gcd(len(a.period), len(b.period))
    flags = [rel(a.value_at(pre + j + 1), b.value_at(pre + j + 1)) for j in range(lcm)]
    if all(flags):
        return AeVerdict.TRUE_AE
    if not any(flags):
        return AeVerdict.FALSE_AE
    return AeVerdict.ULTRAFILTER_DEPENDENT


class TestClassify:
    def test_examples(self):
        assert G.classify_germ(rf("1/n")) is Classification.INFINITESIMAL
        assert G.classify_germ(rf("(2*n+1)/(n+3)")) is Classification.APPRECIABLE
        assert G.classify_germ(N) is Classification.INFINITE
        assert G.classify_germ(RationalGerm(Poly.ZERO)) is Classification.ZERO

    def test_appreciable_standard_part(self):
        g = rf("(2*n+1)/(n+3)")
        assert G.to_hyperreal(g).st().value == 2

    def test_periodic_constant(self):
        assert G.classify_germ(G.embed_constant(0)) is Classification.ZERO
        assert G.classify_germ(PeriodicGerm((7,), (3,))) is Classification.APPRECIABLE

    def test_residue_report(self):
        got = G.classify_germ(PeriodicGerm((), (0, 1)))
        assert isinstance(got, G.ResidueClassification)
        assert got.classes == (Classification.ZERO, Classification.APPRECIABLE)


class TestToHyperreal:
    def test_examples(self):
        assert G.to_hyperreal(rf("(n*n+1)/(n*n)")) == H.parse_hyperreal("1+e^2")
        assert G.to_hyperreal(rf("1/n")) == H.EPSILON
        assert G.to_hyperreal(N) == H.inv(H.EPSILON)

    def test_rejects_genuinely_periodic(self):
        with pytest.raises(G.MixedClasses):
            G.to_hyperreal(PeriodicGerm((), (0, 1)))

    def test_field_embedding(self):
        rng = random.Random(55)
        for _ in range(200):
            a, b = rand_rational_germ(rng), rand_rational_germ(rng)
            assert G.to_hyperreal(G.add(a, b)) == G.to_hyperreal(a) + G.to_hyperreal(b)
            assert G.to_hyperreal(G.mul(a, b)) == G.to_hyperreal(a) * G.to_hyperreal(b)
            lt = G.ae_less(a, b) is AeVerdict.TRUE_AE
            assert lt == (G.to_hyperreal(a) < G.to_hyperreal(b))

    def test_injective(self):
        rng = random.Random(56)
        seen = {}
        for _ in range(200):
            g = rand_rational_germ(rng)
            h = G.to_hyperreal(g)
            if h in seen:
                assert seen[h] == g
            seen[h] = g


class TestLosCheck:
    def test_identity_product(self):
        verdict = G.los_check_qf(
            "x*y = 1", {"x": rf("n/(n+1)"), "y": rf("(n+1)/n")}
        )
        assert verdict is AeVerdict.TRUE_AE

    def test_cofinite_inequality(self):
        assert G.los_check_qf("x < x*x", {"x": N}) is AeVerdict.TRUE_AE

    def test_periodic_dependence(self):
        assert (
            G.los_check_qf("x = 0", {"x": PeriodicGerm((), (0, 1))})
            is AeVerdict.ULTRAFILTER_DEPENDENT
        )

    def test_excluded_middle_not_fooled_by_three_valued_logic(self):
        x = PeriodicGerm((), (0, 1))
        assert G.los_check_qf("x = 0 or not x = 0", {"x": x}) is AeVerdict.TRUE_AE
        assert G.los_check_qf("x = 0 and not x = 0", {"x": x}) is AeVerdict.FALSE_AE

    def test_unbound_names_are_germ_errors(self):
        for check in (
            lambda: G.los_check_qf("x < y", {"x": N}),
            lambda: G.stabilization_bound("x < y", {"x": N}),
            lambda: G.check_pointwise("x < y", {"x": N}, 5),
        ):
            with pytest.raises(G.GermError, match="unbound variables"):
                check()

    def test_long_flat_chains_are_nesting_errors(self):
        chain = " and ".join(["x < 1"] * 10**4)
        for check in (
            lambda: G.parse_germ("rf(" + "+".join(["n"] * 10**4) + ")"),
            lambda: G.los_check_qf(chain, {"x": N}),
            lambda: G.stabilization_bound(chain, {"x": N}),
            lambda: G.check_pointwise(chain, {"x": N}, 5),
        ):
            with pytest.raises(G.NestingTooDeep):
                check()

    def test_quantifier_rejected(self):
        with pytest.raises(G.QuantifierPresent):
            G.los_check_qf("forall x = 0", {"x": N})

    def test_constant_only_atoms(self):
        assert G.los_check_qf("1 < 2", {}) is AeVerdict.TRUE_AE
        assert G.los_check_qf("2 = 1 or x < x*x", {"x": N}) is AeVerdict.TRUE_AE
        assert G.stabilization_bound("1 < 2", {}) == 1

    def test_atoms_agree_with_ae_relations(self):
        rng = random.Random(57)
        for _ in range(150):
            a, b = rand_rational_germ(rng), rand_rational_germ(rng)
            env = {"x": a, "y": b}
            eq, lt = G.ae_compare(a, b)
            assert (G.los_check_qf("x = y", env) is AeVerdict.TRUE_AE) == (eq is AeVerdict.TRUE_AE)
            assert (G.los_check_qf("x < y", env) is AeVerdict.TRUE_AE) == (lt is AeVerdict.TRUE_AE)
        for _ in range(150):
            a, b = rand_periodic_germ(rng), rand_periodic_germ(rng)
            env = {"x": a, "y": b}
            assert G.los_check_qf("x = y", env) is G.ae_equal(a, b)
            assert G.los_check_qf("x < y", env) is G.ae_less(a, b)

    def test_negation_swaps_verdicts(self):
        rng = random.Random(58)
        for _ in range(150):
            a, b = rand_periodic_germ(rng), rand_periodic_germ(rng)
            env = {"x": a, "y": b}
            v = G.los_check_qf("x = y", env)
            assert G.los_check_qf("not x = y", env) is v.negate()

    def test_pointwise_cross_check_beyond_stabilization(self):
        rng = random.Random(59)
        formulas = ["x < y", "x = y", "x*x < y + 3", "not (x < y or y < x)"]
        for _ in range(100):
            env = {"x": rand_rational_germ(rng), "y": rand_rational_germ(rng)}
            f = rng.choice(formulas)
            verdict = G.los_check_qf(f, env)
            bound = G.stabilization_bound(f, env)
            for n in (bound + 1, bound + 2, bound + 13):
                assert G.check_pointwise(f, env, n) == (verdict is AeVerdict.TRUE_AE)


class TestParsing:
    def test_rf_forms(self):
        assert rf("(2*n+1)/(n+3)") == RationalGerm(Poly((1, 2)), Poly((3, 1)))
        assert G.parse_germ("5") == G.embed_constant(5)
        assert G.parse_germ("-3/2") == G.embed_constant(Fraction(-3, 2))

    def test_ep_form(self):
        assert G.parse_germ("ep([1,2];[0,1])") == PeriodicGerm((1, 2), (0, 1))
        assert G.parse_germ("ep([];[0])") == G.embed_constant(0)

    def test_bad_forms(self):
        for text in ("rf(m+1)", "ep([1];[])", "ep([1])", "zz", "rf(1/0)", "ep([1/0];[1])", "1/0"):
            with pytest.raises(G.GermSyntaxError):
                G.parse_germ(text)

    def test_nesting_limit(self):
        depth = G.MAX_DEPTH
        assert rf("(" * depth + "n" + ")" * depth) == N
        assert rf("-" * depth + "n") == (N if depth % 2 == 0 else G.neg(N))
        env = {"x": N}
        assert G.los_check_qf("(" * depth + "x < x*x" + ")" * depth, env) is AeVerdict.TRUE_AE
        assert G.los_check_qf("not " * depth + "x < x*x", env) is AeVerdict.TRUE_AE
        for text in ("(" * (depth + 1) + "n" + ")" * (depth + 1), "-" * 3000 + "n"):
            with pytest.raises(G.NestingTooDeep) as err:
                rf(text)
            assert isinstance(err.value, G.GermSyntaxError)
        for formula in ("(" * 3000 + "x < 1" + ")" * 3000, "not " * 3000 + "x < 1"):
            with pytest.raises(G.NestingTooDeep):
                G.los_check_qf(formula, env)
