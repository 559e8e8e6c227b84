import math
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
        p = PeriodicGerm((), (0, 1))
        with pytest.raises(G.MixedClasses, match="^cannot mix RationalGerm with PeriodicGerm$"):
            G.add(N, p)
        with pytest.raises(G.MixedClasses, match="^cannot mix PeriodicGerm with RationalGerm$"):
            G.ae_compare(p, N)

    def test_constant_coercion_allowed(self):
        assert G.add(N, G.embed_constant(1)) == rf("n+1")
        # two periodic constants stay periodic
        assert G.add(G.embed_constant(1), G.embed_constant(2)) == G.embed_constant(3)
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
        assert G.parse_germ("-3/2") == G.parse_germ(" - 3 / 2 ") == G.embed_constant(Fraction(-3, 2))

    def test_ep_form(self):
        assert G.parse_germ("ep([1,2];[0,1])") == PeriodicGerm((1, 2), (0, 1))
        assert G.parse_germ("ep([];[0])") == G.embed_constant(0)
        spaced = G.parse_germ("ep( [ - 1 / 2 , +3 ] ; [ 4/2 ] )")
        assert spaced == PeriodicGerm((Fraction(-1, 2), 3), (2,))

    def test_repr_round_trip(self):
        rng = random.Random(62)
        for _ in range(300):
            pool = [rng.randint(-(10**9), 10**9) for _ in range(2)]
            pool += [Fraction(rng.randint(-999, 999), rng.randint(2, 999)) for _ in range(2)]
            g = rand_periodic_germ(rng, pool, max_pre=3, max_period=40)
            assert G.parse_germ(repr(g)) == g, repr(g)

    def test_bad_forms(self):
        for text in ("rf(m+1)", "ep([1];[])", "ep([1])", "zz", "ep([1/0];[1])", "1/0"):
            with pytest.raises(G.GermSyntaxError):
                G.parse_germ(text)
        # 1/0 inside rf() is the quotient of two terms, as 1 / 0 is
        with pytest.raises(G.AlmostEverywhereZeroDivisor):
            G.parse_germ("rf(1/0)")

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
        # one level more than the accepted ones above raises at that opener
        for formula, position in (
            ("(" * (depth + 1) + "x < x*x" + ")" * (depth + 1), depth),
            ("not " * (depth + 1) + "x < x*x", 4 * depth),
        ):
            with pytest.raises(G.NestingTooDeep) as err:
                G.parse_qf(formula)
            assert err.value.position == position, formula[:12]

    def test_nesting_error_points_at_the_first_opener_past_the_limit(self):
        assert G.MAX_DEPTH == H.MAX_DEPTH == 100  # one limit for both grammars
        depth = G.MAX_DEPTH + 1
        cases = (
            (lambda t: G.parse_germ(f"  rf({t})"), "(" * depth + "n" + ")" * depth, 105),
            (lambda t: G.parse_germ(f"rf({t})"), "-+" * depth + "n", 103),
            (G.parse_qf, "(" * depth + "x < 1" + ")" * depth, 100),
            (G.parse_qf, "not " * depth + "x < 1", 400),
            (G.parse_qf, "not (" * depth + "x < 1" + ")" * depth, 250),
        )
        for parse, text, position in cases:
            with pytest.raises(G.NestingTooDeep) as err:
                parse(text)
            assert err.value.position == position, text[:12]

    def test_division_is_left_associative_and_spacing_never_matters(self):
        assert rf("n/1/2") == rf("n / 1 / 2") == rf("n/2") == rf("(1/2)*n")
        assert rf("12/2/3") == RationalGerm(2)
        assert rf("-1/2") == rf("- 1 / 2") == RationalGerm(Fraction(-1, 2))
        x = {"x": N}
        assert G.los_check_qf("x/1/2 = x / 1 / 2", x) is AeVerdict.TRUE_AE
        assert G.los_check_qf("x/1/2 = x/2", x) is AeVerdict.TRUE_AE

    def test_syntax_errors_carry_positions(self):
        for parse, text, position in (
            (G.parse_germ, "rf(n^2)", 4),
            (G.parse_germ, " rf(n + m)", 8),
            (G.parse_germ, "rf(n +)", 6),
            (G.parse_germ, "ep([1/0];[1])", 6),
            (G.parse_germ, "ep([1])", 6),
            (G.parse_germ, "ep([1];[])", 9),
            (G.parse_germ, "ep([0.5];[1])", 5),
            (G.parse_germ, "ep([1e2];[1])", 5),
            (G.parse_germ, "1e3", 1),
            (G.parse_germ, "1_0", 1),
            (G.parse_germ, "ep([1,];[1])", 6),
            (G.parse_germ, "ep([" + "7" * 5000 + "];[1])", 4),  # past int's digit limit
            (G.parse_qf, "x ^ 2 < 1", 2),
            (G.parse_qf, "x < (1", 6),
            (G.parse_qf, "x + 1", 5),
            (G.parse_qf, "x < 1 $", 6),
        ):
            with pytest.raises(G.GermSyntaxError) as err:
                parse(text)
            assert err.value.position == position, text

    def test_quantifier_symbols_are_quantifiers(self):
        for text in ("∀", "∃ y = 0", "x < 1 ∧ ∀ y = y", "exists"):
            with pytest.raises(G.QuantifierPresent):
                G.parse_qf(text)
        aliased = G.parse_qf("¬ x < 1 ∨ x·x < 1 ∧ x = x")
        assert aliased == G.parse_qf("not x < 1 or x*x < 1 and x = x")


def _rand_chain_term(rng, depth):
    """A term in n with chained '/', unary signs and random spacing."""

    def gap():
        return rng.choice(("", " ", "  "))

    if depth == 0 or rng.random() < 0.25:
        text = rng.choice(("n", "n", "0", "1", "2", "3"))
    else:
        parts = [_rand_chain_term(rng, depth - 1) for _ in range(rng.randint(2, 3))]
        text = parts[0] + "".join(f"{gap()}{rng.choice('+-*//')}{gap()}{p}" for p in parts[1:])
        if rng.random() < 0.5:
            text = f"({gap()}{text}{gap()})"
    if rng.random() < 0.2:
        text = rng.choice("-+") + gap() + text
    return text


def test_germ_and_hyperreal_terms_agree_through_the_shared_grammar():
    # one grammar read in two models: rf(t) embedded by n -> 1/e must equal
    # the hyperreal t(1/e), and a divisor is zero in one exactly when it is
    # zero in the other
    rng = random.Random(61)
    outcomes = {"equal": 0, "zero divisor": 0}
    for _ in range(300):
        text = _rand_chain_term(rng, 3)
        hyper_text = text.replace("n", "(1/e)")
        try:
            germ = G.to_hyperreal(G.parse_germ(f"rf({text})"))
        except G.AlmostEverywhereZeroDivisor:
            with pytest.raises(H.ZeroDenominator):
                H.parse_hyperreal(hyper_text)
            outcomes["zero divisor"] += 1
            continue
        assert germ == H.parse_hyperreal(hyper_text), text
        outcomes["equal"] += 1
    assert min(outcomes.values()) > 30, outcomes


# -- stored tails ------------------------------------------------------------------

_VALUES = (-1, 0, 1, 2, Fraction(1, 2))


def _rand_tail_germ(rng):
    pre = [rng.choice(_VALUES) for _ in range(rng.randint(0, 3))]
    return PeriodicGerm(pre, [rng.choice(_VALUES) for _ in range(rng.randint(1, 6))])


def _rand_term(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return rng.choice(names)
        return str(rng.choice(_VALUES))
    op = rng.choice("+-*/")
    return f"({_rand_term(rng, names, depth - 1)} {op} {_rand_term(rng, names, depth - 1)})"


def _rand_formula(rng, names, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        rel = rng.choice(("=", "!=", "<", "<=", ">", ">="))
        return f"{_rand_term(rng, names, 2)} {rel} {_rand_term(rng, names, 2)}"
    if roll < 0.45:
        return f"not ({_rand_formula(rng, names, depth - 1)})"
    if roll < 0.65:
        # a guarded division: the guard settles every residue where the
        # divisor is zero, so the right side must not be evaluated there
        v = rng.choice(names)
        t = _rand_term(rng, names, 1)
        if rng.random() < 0.5:
            return f"({v} = 0 or {t}/{v} > {rng.choice(_VALUES)})"
        return f"(not {v} = 0 and {t}/{v} < {rng.choice(_VALUES)})"
    op = rng.choice(("and", "or"))
    return f"({_rand_formula(rng, names, depth - 1)}) {op} ({_rand_formula(rng, names, depth - 1)})"


def test_los_matches_pointwise_truth_at_every_window_index():
    # caught mutant: `or` (or `and`) evaluating its right side at every
    # residue, which divides by zero where the guard already decided
    rng = random.Random(60)
    outcomes = {"verdict": 0, "zero divisor": 0}
    for _ in range(400):
        names = ["x", "y", "z"][: rng.randint(1, 3)]
        env = {name: _rand_tail_germ(rng) for name in names}
        formula = _rand_formula(rng, names, 3)
        pre = max(len(g.preperiod) for g in env.values())
        lcm = math.lcm(*(len(g.period) for g in env.values()))
        try:
            flags = [G.check_pointwise(formula, env, n) for n in range(pre + 1, pre + lcm + 1)]
        except ZeroDivisionError:
            with pytest.raises((G.UltrafilterDependentZeroDivisor, G.AlmostEverywhereZeroDivisor)):
                G.los_check_qf(formula, env)
            outcomes["zero divisor"] += 1
            continue
        want = (
            AeVerdict.TRUE_AE if all(flags)
            else AeVerdict.FALSE_AE if not any(flags)
            else AeVerdict.ULTRAFILTER_DEPENDENT
        )
        assert G.los_check_qf(formula, env) is want, (formula, env)
        outcomes["verdict"] += 1
    assert min(outcomes.values()) > 50, outcomes


def _rand_plain_formula(rng, names, depth):
    """A formula whose terms divide by no germ (1/2 is a constant's only division)."""
    def term():
        if rng.random() < 0.6:
            return rng.choice([*names, str(rng.choice(_VALUES))])
        return f"({rng.choice(names)} {rng.choice('+-*')} {rng.choice([*names, '1', '2'])})"

    if depth == 0 or rng.random() < 0.4:
        return f"{term()} {rng.choice(('=', '!=', '<', '<=', '>', '>='))} {term()}"
    if rng.random() < 0.2:
        return f"not ({_rand_plain_formula(rng, names, depth - 1)})"
    op = rng.choice(("and", "or"))
    return f"({_rand_plain_formula(rng, names, depth - 1)}) {op} ({_rand_plain_formula(rng, names, depth - 1)})"


def _rand_los_case(rng):
    """1-3 periodic germs and a formula over them; about half the formulas
    start with an atom holding one division, which every index evaluates."""
    names = ["x", "y", "z"][: rng.randint(1, 3)]
    env = {name: _rand_tail_germ(rng) for name in names}
    formula = _rand_plain_formula(rng, names, 2)
    if rng.random() < 0.5:
        u, v = rng.choice(names), rng.choice(names)
        divisor = rng.choice((v, f"({v} - {rng.choice(_VALUES)})", f"({u} - {v})", f"({u} * {v})"))
        atom = f"{rng.choice(names)} / {divisor} {rng.choice(('<', '>=', '='))} {rng.choice(_VALUES)}"
        formula = rng.choice((atom, f"({atom}) {rng.choice(('and', 'or'))} ({formula})"))
    return formula, env


def check_periodic_los(n, seed):
    """Fail unless `los_check_qf` on the `n` cases of `_rand_los_case` gives
    the verdict read from `check_pointwise` at every index of the window, or,
    where the division is zero at every index, AlmostEverywhereZeroDivisor,
    and where at some, UltrafilterDependentZeroDivisor.  Returns the count of
    each outcome."""
    rng = random.Random(seed)
    outcomes = dict.fromkeys(["true-ae", "false-ae", "ultrafilter-dependent", "zero at all", "zero at some"], 0)
    for _ in range(n):
        formula, env = _rand_los_case(rng)
        pre = max(len(g.preperiod) for g in env.values())
        lcm = math.lcm(*(len(g.period) for g in env.values()))
        flags = []
        for i in range(pre + 1, pre + lcm + 1):
            try:
                flags.append(G.check_pointwise(formula, env, i))
            except G.VanishingDivisor:
                flags.append(None)
        if None in flags:
            zero = "zero at all" if set(flags) == {None} else "zero at some"
            error = G.AlmostEverywhereZeroDivisor if zero == "zero at all" else G.UltrafilterDependentZeroDivisor
            with pytest.raises(error):
                G.los_check_qf(formula, env)
            outcomes[zero] += 1
            continue
        want = G._verdict_from_flags(flags)
        assert G.los_check_qf(formula, env) is want, (formula, env)
        outcomes[want.value] += 1
    return outcomes


def test_periodic_los_reads_one_row_per_distinct_row():
    # caught mutant: a window that drops one of its distinct rows
    outcomes = check_periodic_los(1000, seed=29)
    assert min(outcomes.values()) > 50, outcomes


def test_pointwise_arithmetic_matches_value_at():
    # caught mutant: a tail built from the stored period without rotating it
    # to the common preperiod
    rng = random.Random(61)
    for _ in range(300):
        a, b = _rand_tail_germ(rng), _rand_tail_germ(rng)
        total, product = G.add(a, b), G.mul(a, b)
        for n in range(1, 4 + 2 * math.lcm(len(a.period), len(b.period))):
            assert total.value_at(n) == a.value_at(n) + b.value_at(n)
            assert product.value_at(n) == a.value_at(n) * b.value_at(n)


def test_integral_entries_are_stored_as_int():
    # caught mutant: entries kept as given, so Fraction(2) stays a Fraction
    g = PeriodicGerm((Fraction(2), Fraction(-1, 2)), (Fraction(3), Fraction(1, 2), Fraction(4, 2)))
    h = PeriodicGerm((2, Fraction(-1, 2)), (3, Fraction(1, 2), 2))
    assert [type(c) for c in g.preperiod + g.period] == [int, Fraction, int, Fraction, int]
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h) == "ep([2,-1/2];[3,1/2,2])"
    parsed = G.parse_germ("ep([3];[1/2,6/3])")
    assert parsed.period == (Fraction(1, 2), 2) and type(parsed.period[1]) is int
    assert type(G.embed_constant(Fraction(5)).period[0]) is int
    assert type(G.embed_constant(5).value_at(1)) is Fraction


def test_entries_must_be_int_or_fraction():
    for make in (
        lambda: G.embed_constant("1e3"),
        lambda: PeriodicGerm(("0.5",), ("1_0",)),
        lambda: G.embed_constant(0.1),
    ):
        with pytest.raises(TypeError, match="int or Fraction"):
            make()


def _coprime_periods(size):
    """Germs with periods size and size + 1."""
    return PeriodicGerm((), [0] * (size - 1) + [1]), PeriodicGerm((), [1] * size + [0])


class TestWindowBudget:
    def test_largest_window_answers(self):
        # periods 997 and 991: a window of 988,027, under MAX_WINDOW
        a = PeriodicGerm((), [i % 3 for i in range(997)])
        b = PeriodicGerm((), [i % 5 for i in range(991)])
        assert 997 * 991 <= G.MAX_WINDOW
        assert G.ae_compare(a, b) == (AeVerdict.ULTRAFILTER_DEPENDENT,) * 2
        assert G.los_check_qf("x < y", {"x": a, "y": b}) is AeVerdict.ULTRAFILTER_DEPENDENT

    def test_past_the_budget_raises(self):
        # caught mutant: a missing budget check, which builds the window of
        # 1024 * 1025 = 1,049,600 indices and answers
        a, b = _coprime_periods(1024)
        assert 1024 * 1025 > G.MAX_WINDOW == 2**20
        for call in (
            lambda: G.ae_compare(a, b),
            lambda: G.add(a, b),
            lambda: G.mul(a, b),
            lambda: G.los_check_qf("x < y", {"x": a, "y": b}),
        ):
            with pytest.raises(G.WindowTooLarge) as err:
                call()
            assert isinstance(err.value, G.GermError)

    def test_budget_counts_the_preperiod(self, monkeypatch):
        monkeypatch.setattr(G, "MAX_WINDOW", 14)
        a, b = PeriodicGerm((), (0, 1, 1)), PeriodicGerm((), (0, 1, 1, 1))
        assert G.ae_compare(a, b)[0] is AeVerdict.ULTRAFILTER_DEPENDENT  # 0 + 12
        pre2 = PeriodicGerm((5, 5), (0, 1, 1))  # 2 + 12 = 14, at the budget
        assert G.los_check_qf("x < y", {"x": pre2, "y": b}) is AeVerdict.ULTRAFILTER_DEPENDENT
        pre3 = PeriodicGerm((5, 5, 5), (0, 1, 1))  # 15, past it
        for call in (lambda: G.ae_compare(pre3, b), lambda: G.add(pre3, b),
                     lambda: G.los_check_qf("x < y", {"x": pre3, "y": b})):
            with pytest.raises(G.WindowTooLarge):
                call()


class TestZeroDivisorAtResidues:
    def test_inv_rule(self):
        x = PeriodicGerm((), (0, 1))
        with pytest.raises(G.UltrafilterDependentZeroDivisor):
            G.los_check_qf("1/x > 2", {"x": x})
        with pytest.raises(G.AlmostEverywhereZeroDivisor):
            G.los_check_qf("1/(x - x) > 2", {"x": x})
        # the divisor vanishes at every residue the right side is evaluated at
        with pytest.raises(G.AlmostEverywhereZeroDivisor):
            G.los_check_qf("x = 1 and 1/(x - 1) > 2", {"x": x})

    def test_single_index_divisions_raise_a_typed_zero_divisor(self):
        # a GermError that is also a ZeroDivisionError, one case per site
        for call in (
            lambda: G.check_pointwise("1/x > 2", {"x": PeriodicGerm((), (0, 1))}, 1),
            lambda: rf("1/(n - 1)").value_at(1),
            lambda: RationalGerm(Poly.ONE, Poly.ZERO),
        ):
            with pytest.raises(G.VanishingDivisor) as err:
                call()
            assert isinstance(err.value, ZeroDivisionError)

    def test_short_circuit_skips_the_zero_residue(self):
        x = PeriodicGerm((7,), (0, 1))
        assert G.los_check_qf("x = 0 or 1/x > 2", {"x": x}) is AeVerdict.ULTRAFILTER_DEPENDENT
        assert G.los_check_qf("x = 0 or 1/x > 0", {"x": x}) is AeVerdict.TRUE_AE
        assert G.los_check_qf("not x = 0 and 1/x < 2", {"x": x}) is AeVerdict.ULTRAFILTER_DEPENDENT
        # preperiod zeros lie outside the window
        assert G.los_check_qf("1/y = y", {"y": PeriodicGerm((0,), (1, -1))}) is AeVerdict.TRUE_AE
