import itertools
import random
from fractions import Fraction

import pytest

from nsatop import cli
from nsatop import fintop as F
from nsatop import hull as H


def space(points, opens):
    return F.validate(points, opens)


SIERP = space(["a", "b"], [[], ["a"], ["a", "b"]])
IND2 = space(["a", "b"], [[], ["a", "b"]])
FAN3 = space(["0", "1", "2"], [[], ["0"], ["0", "1"], ["0", "2"], ["0", "1", "2"]])
DISC3 = space(
    ["a", "b", "c"],
    [[], ["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"], ["a", "b", "c"]],
)
# Sierpinski next to an isolated point
SIERP_PLUS = space(
    ["a", "b", "c"],
    [[], ["a"], ["c"], ["a", "b"], ["a", "c"], ["a", "b", "c"]],
)


def all_spaces(max_n):
    for n in range(1, max_n + 1):
        yield from F.enumerate_topologies(n)


class TestFamilies:
    def test_validation_accepts_block_functions(self):
        fam = H.validate_family(SIERP, {"f": {"a": "1/2", "b": "1/2"}})
        assert fam["f"][0] == Fraction(1, 2)

    def test_discontinuous_member_is_named(self):
        with pytest.raises(H.DiscontinuousFamilyMember) as err:
            H.build_hull(SIERP, H.validate_family(SIERP, {"f": {"a": 0, "b": 1}}))
        assert err.value.name == "f"
        assert err.value.monad == {"a", "b"}

    def test_discontinuous_tuple_names_member_point_and_monad(self):
        with pytest.raises(H.DiscontinuousFamilyMember) as err:
            H.build_hull(FAN3, {"c": (0, 0, 0), "f": (0, 1, 1)})
        assert err.value.name == "f"
        assert err.value.point == "1"
        assert err.value.monad == {"0", "1"}

    def test_first_failing_member_in_name_order_is_named(self):
        # f is first in name order though g comes first in the dict; each is
        # discontinuous at another point
        fam = {"g": (0, 1, 1), "f": (0, 0, 1)}
        with pytest.raises(H.DiscontinuousFamilyMember) as err:
            H.build_hull(FAN3, fam)
        assert (err.value.name, err.value.point, err.value.monad) == ("f", "2", {"0", "2"})
        # a wrong length is named only where a member-by-member scan reaches it
        with pytest.raises(H.DiscontinuousFamilyMember):
            H.build_hull(FAN3, {"f": (0, 0, 1), "h": (0,)})
        with pytest.raises(F.SpaceError, match="'e' has 1 values"):
            H.build_hull(FAN3, {"e": (0,), "f": (0, 0, 1)})

    def test_missing_value(self):
        with pytest.raises(F.SpaceError):
            H.validate_family(SIERP, {"f": {"a": 0}})
        for table in ((0,), (0, 0, 0)):
            with pytest.raises(F.SpaceError, match="values for 2 points"):
                H.build_hull(SIERP, {"f": table})


class TestT0Reflection:
    def test_indiscrete_collapses(self):
        hull = H.t0_reflection(IND2)
        assert len(hull.classes) == 1
        assert F.is_t2(hull.quotient).holds
        assert F.is_weakly_hausdorff(IND2).holds

    def test_t0_space_reflects_to_itself(self):
        hull = H.t0_reflection(SIERP)
        assert len(hull.classes) == 2
        assert hull.quotient.opens == SIERP.opens

    def test_discrete_fixed(self):
        hull = H.t0_reflection(DISC3)
        assert len(hull.classes) == 3
        assert hull.quotient.opens == DISC3.opens

    def test_report_and_laws_over_enumeration(self):
        for s in all_spaces(3):
            report = H.t0_reflection_report(H.t0_reflection(s))
            assert all(v is True for v in report["checks"].values())


class TestBuildHull:
    def test_empty_family_single_point(self):
        hull = H.build_hull(SIERP, {})
        assert len(hull.classes) == 1
        assert hull.quotient.n == 1

    def test_split_by_one_function(self):
        hull = H.build_hull(DISC3, {"f": (0, 0, 1)})
        classes = [DISC3.sorted_labels(m) for m in hull.classes]
        assert classes == [["a", "b"], ["c"]]
        assert len(hull.quotient.opens) == 4

    def test_fan_space_collapses(self):
        hull = H.stone_cech_finite(FAN3)
        assert len(hull.classes) == 1

    def test_lifted_factorization(self):
        fam = {"f": (0, 0, 1), "g": (2, 2, 2)}
        hull = H.build_hull(DISC3, fam)
        for name, table in fam.items():
            for i in range(DISC3.n):
                assert Fraction(table[i]) == hull.lifted[name][hull.class_of[i]]

    def test_discontinuous_family_rejected(self):
        with pytest.raises(H.DiscontinuousFamilyMember):
            H.build_hull(SIERP, {"f": (0, 1)})

    def test_integer_and_fraction_tables_agree(self):
        ints = H.build_hull(DISC3, {"f": (0, 1, 1)})
        fracs = H.build_hull(DISC3, {"f": (Fraction(0), Fraction(1), Fraction(1))})
        assert ints.classes == fracs.classes == (0b001, 0b110)
        assert ints.lifted == fracs.lifted == {"f": (0, 1)}


def _tampered_z_partition(tamper, changed):
    """A z_partition whose block map is tamper(block_of), with blocks to match;
    the description of each space whose map it changes is appended to changed."""

    def z_partition(space):
        zp = F.z_partition(space)
        block_of = tamper(zp.block_of)
        if block_of != zp.block_of:
            changed.append(space.describe())
            zp.block_of = block_of
            zp.blocks = tuple(
                sum(1 << i for i, b in enumerate(block_of) if b == t) for t in range(max(block_of) + 1)
            )
        return zp

    return z_partition


def _merge_first_two(block_of):
    return tuple([max(b - 1, 0) for b in block_of])


def _move_last_point(block_of):
    """The last point moves to the next block: as many blocks, unless it was alone."""
    return block_of[:-1] + ((block_of[-1] + 1) % (max(block_of) + 1),)


def check_merged_z_blocks(spaces):
    """Audit the spaces with the first two z-blocks of each merged.  The
    Stone-Cech hull reads z-blocks and the Hewitt hull only opens, and the ring
    audit's dimension reads only monads, so stone_cech_equals_hewitt and
    ring_correspondence must both name exactly the spaces the merge changes.
    Returns how many it changes."""
    merged = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(H, "z_partition", _tampered_z_partition(_merge_first_two, merged))
        asserted = H.hull_theorem_audit(spaces)["asserted"]
    changed = list(dict.fromkeys(merged))
    assert asserted["stone_cech_equals_hewitt"]["counterexamples"] == changed
    assert asserted["ring_correspondence"]["counterexamples"] == [
        f"{desc}: dim C(X) differs from the number of hull points" for desc in changed
    ]
    return len(changed)


class TestStoneCechHewitt:
    def test_discrete_space_is_its_own_hull(self):
        hull = H.stone_cech_finite(DISC3)
        assert len(hull.classes) == 3
        assert len(hull.quotient.opens) == 8

    def test_sierpinski_collapses_to_point(self):
        assert len(H.stone_cech_finite(SIERP).classes) == 1

    def test_sierpinski_plus_isolated_point(self):
        hull = H.stone_cech_finite(SIERP_PLUS)
        classes = [SIERP_PLUS.sorted_labels(m) for m in hull.classes]
        assert classes == [["a", "b"], ["c"]]
        assert len(hull.quotient.opens) == 4

    def test_constructions_coincide(self):
        for s in all_spaces(3):
            sc = H.stone_cech_finite(s)
            hw = H.hewitt_finite(s)
            assert sc.classes == hw.classes
            assert sc.quotient.opens == hw.quotient.opens

    def test_clopen_family_holds_every_clopen_indicator(self):
        fam = H.clopen_family(SIERP_PLUS)
        # the clopen sets are {}, {c}, {a, b} and the whole space
        assert sorted(fam.values()) == [(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)]
        assert H.hewitt_finite(SIERP_PLUS).kind == "hewitt"

    def test_audit_catches_merged_z_blocks(self, fresh_facts):
        spaces = list(all_spaces(3))
        assert H.hull_theorem_audit(spaces)["asserted"]["stone_cech_equals_hewitt"]["passed"]
        # a whole audit records its verdicts and caches in tables these spaces keep alive
        kept = list(all_spaces(4))
        assert cli.run_full_audit(4)["all_passed"]
        assert check_merged_z_blocks(spaces) == 11
        assert check_merged_z_blocks(kept) == 133


class TestHullLaws:
    def test_reports_pass_over_enumeration(self):
        for s in all_spaces(3):
            report = H.hull_report(H.stone_cech_finite(s))
            checks = report["checks"]
            assert checks["quotient_discrete_hausdorff"] is True
            assert checks["lifted_factorization"] is True
            assert checks["quotient_map_onto"] is True
            assert checks["monad_contained_in_class"] is True

    def test_distinguishing_family_forces_equality(self):
        for s in all_spaces(3):
            fam = H.canonical_family(s)
            if H.distinguishes_points_and_closed_sets(s, fam):
                hull = H.build_hull(s, fam)
                for i in range(s.n):
                    assert s.monad_mask(i) == hull.classes[hull.class_of[i]]

    def test_distinguishing_equals_the_point_closed_pair_definition(self):
        def pairwise(s, family):
            return all(
                any(t[i] not in {t[j] for j in range(s.n) if f >> j & 1} for t in family.values())
                for i in range(s.n)
                for f in s.closed_sets()
                if not f >> i & 1
            )

        verdicts = set()
        for s in all_spaces(4):
            families = [H.canonical_family(s), H.clopen_family(s), {}]
            families += [H.generator_subfamily(s, seed) for seed in range(2)]
            for fam in families:
                got = H.distinguishes_points_and_closed_sets(s, fam)
                assert got == pairwise(s, fam)
                verdicts.add(got)
        assert verdicts == {True, False}

    def test_embedding_on_discrete(self):
        report = H.hull_report(H.stone_cech_finite(DISC3))
        assert report["checks"]["embedding_on_completely_regular_hausdorff"] is True

    def test_monad_strictly_smaller_when_family_brutal(self):
        hull = H.build_hull(SIERP, {})
        assert SIERP.monad_mask(0) != hull.classes[hull.class_of[0]]


class TestZeroSetFormulas:
    def test_examples(self):
        disc2 = space(["a", "b"], [[], ["a"], ["b"], ["a", "b"]])
        report = H.zero_set_formulas(H.stone_cech_finite(disc2))
        assert report["failures"] == []
        assert report["checked"] == {"lifted_zero_sets": 2, "closure_images": 4, "intersection_images": 16}

    def test_over_enumeration(self):
        spaces = list(all_spaces(4))
        assert len(spaces) == 389
        for s in spaces:
            k = len(F.z_partition(s).blocks)
            report = H.zero_set_formulas(H.stone_cech_finite(s))
            assert report["checked"] == {
                "lifted_zero_sets": k,
                "closure_images": 2**k,
                "intersection_images": 4**k,
            }, s.describe()

    def test_seven_blocks_are_checked_exhaustively(self):
        disc7 = F.FinSpace(tuple("abcdefg"), range(1 << 7))
        report = H.zero_set_formulas(H.stone_cech_finite(disc7))
        assert report["checked"] == {
            "lifted_zero_sets": 7,
            "closure_images": 128,
            "intersection_images": 16384,
        }


class TestRingCorrespondence:
    def test_two_point_discrete(self):
        report = H.ring_correspondence(
            H.stone_cech_finite(space(["a", "b"], [[], ["a"], ["b"], ["a", "b"]]))
        )
        assert report["failures"] == []

    def test_collapsing_spaces(self):
        for s in (SIERP, FAN3):
            assert H.ring_correspondence(H.stone_cech_finite(s))["failures"] == []

    def test_over_enumeration(self):
        for s in all_spaces(3):
            assert H.ring_correspondence(H.stone_cech_finite(s))["failures"] == []

    def test_classes_splitting_a_z_block_fail(self):
        # Sierpinski space is one z-block; a hull that splits it has two points
        # whose evaluations agree on every continuous function
        split = H._build_quotient(SIERP, (0b01, 0b10), (0, 1), {}, "hull")
        with pytest.raises(F.AuditFailure, match="evaluations at distinct hull points"):
            H.ring_correspondence(split)
        assert H.ring_correspondence(H.stone_cech_finite(SIERP))["failures"] == []


def _rank(rows, width):
    """Rank over Q, by Gaussian elimination on Fractions."""
    rows, rank = [[Fraction(x) for x in r] for r in rows], 0
    for col in range(width):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is not None:
            rank += 1
            rows = [[x - r[col] / pivot[col] * y for x, y in zip(r, pivot)] for r in rows if r is not pivot]
    return rank


def _basis_ring_correspondence(hull):
    """ring_correspondence read off bases, its reference: the k unit vectors
    on the hull compose to k independent functions, each block indicator is
    the composition of its lift, the lifted indicators tell every two hull
    points apart, and the solutions of f(i) = f(j), j in the monad of i, form
    a space of dimension k."""
    space, k = hull.source, len(hull.classes)
    zp = H.z_partition(space)

    def compose(vec):
        return tuple([vec[c] for c in hull.class_of])

    if _rank([compose([int(t == j) for t in range(k)]) for j in range(k)], space.n) != k:
        raise F.AuditFailure("composition with the quotient map is not injective")
    indicators = [zp.indicator(b) for b in range(len(zp.blocks))]
    lifted = [hull.lift(f) for f in indicators]
    if any(compose(g) != f for f, g in zip(indicators, lifted)):
        raise F.AuditFailure("a continuous function fails to factor through the hull")
    for p1 in range(k):
        for p2 in range(p1 + 1, k):
            if all(g[p1] == g[p2] for g in lifted):
                raise F.AuditFailure("evaluations at distinct hull points coincide")
    constraints = [
        [(t == i) - (t == j) for t in range(space.n)]
        for i in range(space.n)
        for j in range(space.n)
        if space.monad_mask(i) >> j & 1
    ]
    if space.n - _rank(constraints, space.n) != k:
        raise F.AuditFailure("dim C(X) differs from the number of hull points")
    return {"failures": []}


def _outcome(audit, hull):
    try:
        return "passed" if audit(hull)["failures"] == [] else "failures"
    except F.AuditFailure as exc:
        return str(exc)


def _class_map_hulls():
    """For each space on at most 4 points, a hull on its Stone-Cech classes
    under every map of its points into them."""
    for s in all_spaces(4):
        sc = H.stone_cech_finite(s)
        for class_of in itertools.product(range(len(sc.classes)), repeat=s.n):
            yield H.Hull(s, sc.classes, sc.quotient, class_of, sc.kind, sc.family)


class TestRingReference:
    def test_ring_audit_matches_the_basis_reference(self, monkeypatch):
        hulls = list(_class_map_hulls())
        assert len(hulls) == 3721
        # real z-blocks, then the same hulls with a point moved to another
        # block, then hulls on merged blocks, which leave the dimension unmatched
        outcomes = set()
        for tamper in (None, _move_last_point, _merge_first_two):
            if tamper is not None:
                monkeypatch.setattr(H, "z_partition", _tampered_z_partition(tamper, []))
            if tamper is _merge_first_two:
                hulls = list(_class_map_hulls())
            for hull in hulls:
                got = _outcome(H.ring_correspondence, hull)
                assert got == _outcome(_basis_ring_correspondence, hull), hull.class_of
                outcomes.add(got)
        # the verdict passes, and each of the four checks is the first to fail somewhere
        assert len(outcomes) == 5, outcomes

    def test_dimension_is_the_z_block_count(self):
        spaces = list(all_spaces(5))
        assert len(spaces) == 7331
        for s in spaces:
            assert H._continuous_dimension(s) == len(F.z_partition(s).blocks), s.describe()


def _old_subfamily(space, seed):
    zp = F.z_partition(space)
    rng = random.Random(seed)
    indicators = [zp.indicator(k) for k in range(len(zp.blocks))]
    fam = {}
    for t, ind in enumerate(indicators):
        if rng.random() < 0.7:
            fam[f"ind{t}"] = ind
    for t in range(rng.randint(0, 2)):
        a, b = rng.choice(indicators), rng.choice(indicators)
        fam[f"sum{t}"] = tuple([x + y for x, y in zip(a, b)])
        fam[f"prod{t}"] = tuple([x * y for x, y in zip(a, b)])
    for t in range(rng.randint(0, 2)):
        c = 6 * rng.randint(-3, 3) // rng.randint(1, 3)
        a = rng.choice(indicators)
        fam[f"scale{t}"] = tuple([c * x for x in a])
    return fam


class TestDrawsPerShape:
    """The draws kept per (seed, shape) equal fresh draws in the old call order."""

    def test_families_equal_fresh_draws(self):
        spaces = list(all_spaces(4))
        assert len(spaces) == 389
        for seed in range(5):
            for other in (None, seed + 100):
                for s in spaces:
                    if other is not None:  # draws for another seed first
                        H.generator_subfamily(s, other)
                    assert H.generator_subfamily(s, seed) == _old_subfamily(s, seed)


class TestQuotientMaps:
    def test_class_loops_equal_point_loops(self, monkeypatch):
        hulls = []
        build_quotient = H._build_quotient

        def recording(*args):
            hulls.append(build_quotient(*args))
            return hulls[-1]

        monkeypatch.setattr(H, "_build_quotient", recording)
        assert H.hull_theorem_audit(all_spaces(4))["all_passed"]
        assert len(hulls) == 389 * 6
        for hull in hulls:
            n, k = hull.source.n, len(hull.classes)
            for mask in range(1 << n):
                image = 0
                for i in range(n):
                    if mask >> i & 1:
                        image |= 1 << hull.class_of[i]
                assert hull.q_image_mask(mask) == image
            for mask in range(1 << k):
                pre = 0
                for i in range(n):
                    if mask >> hull.class_of[i] & 1:
                        pre |= 1 << i
                assert hull.q_preimage_mask(mask) == pre


class TestHullAudit:
    def test_full_audit_up_to_three_points(self):
        report = H.hull_theorem_audit(all_spaces(3))
        assert report["all_passed"]
        assert report["spaces_checked"] == 34
