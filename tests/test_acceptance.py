"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Randomized criteria are seeded and deterministic.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from nsatop import bqf as B
from nsatop import fintop as F
from nsatop import germs as G
from nsatop import hull as HL
from nsatop import hyperreal as H
from nsatop.germs import AeVerdict, PeriodicGerm
from nsatop.hyperreal import ZERO
from nsatop.poly import rational_nth_root

from helpers import rand_finite, rand_hyperreal, rand_infinitesimal, rand_rational_germ
from test_bqf import CORPUS

SEED = 20260808


def report(number, label, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"PASS criterion {number}: {label}{suffix}")


@pytest.fixture(scope="module")
def spaces_up_to_4():
    return [s for n in range(1, 5) for s in F.enumerate_topologies(n)]


# -- criterion 1: ordered-field axioms ---------------------------------------------


FIELD_LAWS = {
    "additive_identity_and_zero_product": lambda a, b, c: a + ZERO == a and a * ZERO == ZERO,
    "additive_inverse": lambda a, b, c: a + (-a) == ZERO,
    "multiplicative_identity": lambda a, b, c: a * H.ONE == a,
    "multiplicative_inverse": lambda a, b, c: a.sign() == 0 or a * H.inv(a) == H.ONE,
    "addition_commutative": lambda a, b, c: a + b == b + a,
    "addition_associative": lambda a, b, c: (a + b) + c == a + (b + c),
    "multiplication_commutative": lambda a, b, c: a * b == b * a,
    "multiplication_associative": lambda a, b, c: (a * b) * c == a * (b * c),
    "distributive": lambda a, b, c: (a + b) * c == a * c + b * c,
    "zero_not_positive": lambda a, b, c: H.sign(ZERO) == 0 and not ZERO > ZERO,
    "positives_closed": lambda a, b, c: (
        H.sign(a) <= 0 or H.sign(b) <= 0 or (H.sign(a + b) > 0 and H.sign(a * b) > 0)
    ),
    "trichotomy": lambda a, b, c: (a == ZERO) + (a > ZERO) + (-a > ZERO) == 1,
}


def test_criterion_1_field_axioms():
    rng = random.Random(SEED)
    start = time.monotonic()
    triples = [
        (rand_hyperreal(rng), rand_hyperreal(rng), rand_hyperreal(rng)) for _ in range(1000)
    ]
    assert len(FIELD_LAWS) == 12
    for name, law in FIELD_LAWS.items():
        for a, b, c in triples:
            assert law(a, b, c), name
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"field-axiom suite took {elapsed:.2f}s"
    report(1, "12 ordered-field laws on 1000 seeded triples", f"{elapsed:.2f}s")


# -- criterion 2: standard-part laws -------------------------------------------------


def test_criterion_2_st_laws():
    rng = random.Random(SEED + 1)
    violations = 0
    for _ in range(1000):
        a, b = rand_finite(rng), rand_finite(rng)
        sa, sb = H.st(a).value, H.st(b).value
        assert H.st(a + b).value == sa + sb
        assert H.st(a - b).value == sa - sb
        assert H.st(a * b).value == sa * sb
        if sb != 0:
            assert H.st(a / b).value == sa / sb
        n = rng.randint(1, 4)
        assert H.st(a ** n).value == sa ** n
        # root law on a perfect n-th power with the even-degree sign guard
        base = a if (n % 2 or H.sign(a) >= 0) else -a
        power = base ** n
        root = H.nth_root(power, n)
        want = rational_nth_root(H.st(power).value, n)
        assert want is not None and H.st(root).value == want
        close = H.infinitesimally_close(a, b)
        assert close == (sa == sb)
        if not close:
            assert (a < b) == (sa < sb)
        if a <= b:
            assert sa <= sb
    report(2, "st laws exact on 1000 seeded finite pairs", f"violations={violations}")


# -- criterion 3: decomposition ------------------------------------------------------


def test_criterion_3_decomposition():
    rng = random.Random(SEED + 2)
    for _ in range(1000):
        r = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        h = rand_infinitesimal(rng)
        a = H.Hyperreal.from_rational(r) + h
        got_r, got_h = H.decompose(a)
        assert got_r == r and got_h == h
        # uniqueness: recomposing and splitting again lands on the same pair
        again_r, again_h = H.decompose(H.Hyperreal.from_rational(got_r) + got_h)
        assert (again_r, again_h) == (got_r, got_h)
    report(3, "decompose is the inverse of (r, h) -> r + h on 1000 elements")


# -- criterion 4: germ/hyperreal bridge ----------------------------------------------


def test_criterion_4_germ_bridge():
    rng = random.Random(SEED + 3)
    disagreements = 0
    for _ in range(1000):
        a, b = rand_rational_germ(rng), rand_rational_germ(rng)
        ha, hb = G.to_hyperreal(a), G.to_hyperreal(b)
        assert G.to_hyperreal(G.add(a, b)) == ha + hb
        assert G.to_hyperreal(G.mul(a, b)) == ha * hb
        assert (G.ae_less(a, b) is AeVerdict.TRUE_AE) == (ha < hb)
        assert (G.ae_equal(a, b) is AeVerdict.TRUE_AE) == (ha == hb)
        if G.classify_germ(a) is not H.classify(ha):
            disagreements += 1
    assert disagreements == 0
    report(4, "germ embedding preserves +, *, order, classification on 1000 pairs")


# -- criterion 5: periodic verdicts vs residue brute force ---------------------------


def _oracle(pa, pb):
    lcm = len(pa) * len(pb) // math.gcd(len(pa), len(pb))
    eq_all = eq_any = lt_all = lt_any = None
    eq_all, lt_all, eq_any, lt_any = True, True, False, False
    for r in range(lcm):
        va, vb = pa[r % len(pa)], pb[r % len(pb)]
        if va == vb:
            eq_any = True
        else:
            eq_all = False
        if va < vb:
            lt_any = True
        else:
            lt_all = False
    def verdict(all_, any_):
        if all_:
            return AeVerdict.TRUE_AE
        if not any_:
            return AeVerdict.FALSE_AE
        return AeVerdict.ULTRAFILTER_DEPENDENT
    return verdict(eq_all, eq_any), verdict(lt_all, lt_any)


def test_criterion_5_periodic_verdicts_exhaustive():
    pool = (0, 1, 2)
    start = time.monotonic()
    germs_by_period = {}

    def germ_for(per):
        g = germs_by_period.get(per)
        if g is None:
            g = PeriodicGerm((), per)
            germs_by_period[per] = g
        return g

    checked = 0
    # all equal-length pairs for every period length up to 6
    for length in range(1, 7):
        periods = list(itertools.product(pool, repeat=length))
        for pa in periods:
            ga = germ_for(pa)
            for pb in periods:
                got = G.ae_compare(ga, germ_for(pb))
                assert got == _oracle(pa, pb), (pa, pb)
                checked += 1
    # all mixed-length pairs with both lengths up to 4
    for la in range(1, 5):
        for lb in range(1, 5):
            if la == lb:
                continue
            for pa in itertools.product(pool, repeat=la):
                ga = germ_for(pa)
                for pb in itertools.product(pool, repeat=lb):
                    got = G.ae_compare(ga, germ_for(pb))
                    assert got == _oracle(pa, pb), (pa, pb)
                    checked += 1
    elapsed = time.monotonic() - start
    report(5, "periodic verdicts match the residue oracle", f"{checked} pairs, {elapsed:.1f}s")


# -- criterion 6: enumeration counts --------------------------------------------------


def test_criterion_6_enumeration_counts():
    start = time.monotonic()
    counts = [sum(1 for _ in F.enumerate_topologies(n)) for n in (1, 2, 3, 4)]
    assert counts == [1, 4, 29, 355]
    for n in (1, 2, 3):
        fast = {s.opens for s in F.enumerate_topologies(n)}
        slow = {s.opens for s in F.brute_force_topologies(n)}
        assert fast == slow
    # validate the generator at four points against the brute-force oracle
    assert sum(1 for _ in F.brute_force_topologies(4)) == 355
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(6, "1/4/29/355 labeled topologies, generator vs brute force", f"{elapsed:.1f}s")


# -- criterion 7: monad deciders vs classical oracles ---------------------------------


def test_criterion_7_oracle_equivalence(spaces_up_to_4):
    assert len(spaces_up_to_4) == 389
    disagreements = []
    for space in spaces_up_to_4:
        for verdict in F.check_properties(space):
            if not verdict.agree:
                disagreements.append((space.describe(), verdict.name))
    assert disagreements == []
    report(7, "10 separation properties, monad == oracle on all 389 spaces")


# -- criterion 8: closure and interior operators --------------------------------------


def test_criterion_8_robinson_operators(spaces_up_to_4):
    for space in spaces_up_to_4:
        for m in space.subsets():
            assert space.closure_robinson_mask(m) == space.closure_classical_mask(m)
            assert space.interior_robinson_mask(m) == space.interior_classical_mask(m)
    report(8, "closure/interior via monads equal classical operators, exhaustive")


# -- criterion 9: compactness identities ----------------------------------------------


def test_criterion_9_compactness_identities(spaces_up_to_4):
    checked = 0
    for space in spaces_up_to_4:
        out = F.compactness_identities(space)
        assert out["failures"] == []
        checked += out["checked_subsets"]
    report(9, "union-of-monads compactness identities", f"{checked} subsets")


# -- criterion 10: theorem audit --------------------------------------------------------


def test_criterion_10_theorem_audit(spaces_up_to_4):
    part3 = F.theorem_audit(spaces_up_to_4)
    assert part3["all_passed"], part3
    hulls = HL.hull_theorem_audit(spaces_up_to_4)
    assert hulls["all_passed"], hulls
    candidates = part3["descriptive"]["finite_star_space_t0"]["counterexample_candidates"]
    indiscrete_two_point = F.validate(["0", "1"], [[], ["0", "1"]])
    assert indiscrete_two_point.describe() in candidates
    report(
        10,
        "implication/identity audit: zero counterexamples",
        f"descriptive candidates={len(candidates)}",
    )


# -- criterion 11: the worked three-point example ---------------------------------------


def test_criterion_11_three_point_example():
    space = F.validate(["0", "1", "2"], [[], ["0"], ["0", "1"], ["0", "2"], ["0", "1", "2"]])
    assert space.monad("0") == {"0"}
    assert space.monad("1") == {"0", "1"}
    assert space.monad("2") == {"0", "2"}
    inter = space.monad("1") & space.monad("2")
    assert inter == space.monad("0")
    assert "0" not in {"1", "2"}
    report(11, "worked 3-point space: exact monads and the outside generic point")


# -- criterion 12: hull suite -------------------------------------------------------------


def test_criterion_12_hull_suite(spaces_up_to_4):
    failures = []
    for space in spaces_up_to_4:
        sc = HL.stone_cech_finite(space)
        hw = HL.hewitt_finite(space)
        if sc.classes != hw.classes or sc.quotient.opens != hw.quotient.opens:
            failures.append((space.describe(), "hull constructions differ"))
        if len(sc.quotient.opens) != (1 << len(sc.classes)) or not F.is_t2(sc.quotient).holds:
            failures.append((space.describe(), "quotient not discrete Hausdorff"))
        family = HL.canonical_family(space)
        for name, table in family.items():
            for i in range(space.n):
                if table[i] != sc.lifted[name][sc.class_of[i]]:
                    failures.append((space.describe(), f"{name} does not factor"))
        try:
            HL.zero_set_formulas(sc)
        except F.AuditFailure as exc:
            failures.append((space.describe(), str(exc)))
    assert failures == []
    report(12, "hulls coincide, discrete Hausdorff, factorization and zero-set identities")


# -- criterion 13: formula language ---------------------------------------------------------


def test_criterion_13_bqf():
    assert len(CORPUS) == 50
    for text in CORPUS:
        ast = B.parse(text)
        assert B.parse(B.print_formula(ast)) == ast
    law = B.parse("(<x, y> = <u, v> <=> (x = u and y = v))")
    for size in (1, 2, 3, 4):
        atoms = [B.Atom(ch) for ch in "abcd"[:size]]
        for quad in itertools.product(atoms, repeat=4):
            assert B.evaluate(law, dict(zip("xyuv", quad)))
    rng = random.Random(SEED + 4)
    atoms = [B.Atom(ch) for ch in "abcd"]
    bindings = {
        "a": atoms[0],
        "b": atoms[1],
        "c": atoms[2],
        "d": atoms[3],
        "A": B.FSet([atoms[0]]),
        "B": B.FSet(atoms[:2]),
        "C": B.FSet(atoms[:3]),
        "S": B.FSet(atoms[:3]),
        "P": B.FSet([B.FSet([atoms[0]]), B.make_pair(atoms[0], atoms[1])]),
        "D": B.FSet([B.make_pair(x, x) for x in atoms[:3]]),
        "U": B.FSet([B.FSet([atoms[0]]), B.FSet(atoms[:2])]),
        "Q": B.FSet(atoms[:2]),
    }
    for _ in range(300):
        bound = B.FSet(rng.sample(atoms, rng.randint(0, 4)))
        subset = B.define_set(bound, "(x = a or x in B)", bindings)
        assert subset <= bound
    for text in CORPUS:
        assert B.check_transfer_finite(text, bindings)["transfer_holds"]
    report(13, "formula corpus round-trips; pair law exhaustive; comprehension and transfer")
