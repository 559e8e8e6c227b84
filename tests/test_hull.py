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
            for i, p in enumerate(DISC3.points):
                assert Fraction(table[i]) == hull.lifted[name][hull.class_index(p)]

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

    def test_audit_catches_merged_z_blocks(self, monkeypatch, fresh_facts):
        spaces = list(all_spaces(3))
        assert H.hull_theorem_audit(spaces)["asserted"]["stone_cech_equals_hewitt"]["passed"]
        # a whole audit records its verdicts and caches in tables these spaces keep alive
        kept = list(all_spaces(4))
        assert cli.run_full_audit(4)["all_passed"]
        merged = []
        # the Stone-Cech hull reads z-blocks, the Hewitt hull only opens
        monkeypatch.setattr(H, "z_partition", _tampered_z_partition(_merge_first_two, merged))
        for audited in (spaces, kept):
            report = H.hull_theorem_audit(audited)
            found = report["asserted"]["stone_cech_equals_hewitt"]["counterexamples"]
            assert found and set(found) <= set(merged)


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
        report = H.zero_set_formulas(space(["a", "b"], [[], ["a"], ["b"], ["a", "b"]]))
        assert report["failures"] == []
        counts = report["checked"]
        assert counts["lifted_zero_sets"] >= 2
        assert counts["intersection_images"] >= 16

    def test_over_enumeration(self):
        for s in all_spaces(3):
            assert H.zero_set_formulas(s)["failures"] == []


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


def _fraction_ring_correspondence(hull, seed=0):
    """ring_correspondence over the same draws kept as Fraction(p, q): the
    reference its integer numerators over 6 must agree with."""
    space = hull.source
    zp = F.z_partition(space)
    k = len(hull.classes)
    rng = random.Random(seed)
    checked = {"bijection": 0, "homomorphism": 0, "ideals": 0, "distinct_evaluations": 0}
    samples = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)) for _ in range(6)]
    samples += [tuple([int(t == j) for t in range(k)]) for j in range(k)]

    def compose(vec):
        return tuple([vec[c] for c in hull.class_of])

    composed = [compose(a) for a in samples]
    for a, fa in zip(samples, composed):
        for b, fb in zip(samples, composed):
            if (a == b) != (fa == fb):
                raise F.AuditFailure("composition with the quotient map is not injective")
            checked["bijection"] += 1
    for _ in range(6):
        per_block = [rng.randint(-4, 4) for _ in zp.blocks]
        table = tuple([per_block[b] for b in zp.block_of])
        if compose(hull.lift(table)) != table:
            raise F.AuditFailure("a continuous function fails to factor through the hull")
        checked["bijection"] += 1
    for a, fa in zip(samples[:4], composed):
        for b, fb in zip(samples[:4], composed):
            plus = tuple([x + y for x, y in zip(a, b)])
            times = tuple([x * y for x, y in zip(a, b)])
            if compose(plus) != tuple([x + y for x, y in zip(fa, fb)]):
                raise F.AuditFailure("composition does not preserve sums")
            if compose(times) != tuple([x * y for x, y in zip(fa, fb)]):
                raise F.AuditFailure("composition does not preserve products")
            checked["homomorphism"] += 1
    if compose((7,) * k) != (7,) * space.n:
        raise F.AuditFailure("composition does not preserve constants")
    zero_vec = (0,) * k
    for pidx in range(k):
        vanishing = [vec for vec in samples if vec[pidx] == 0]
        vanishing.append(zero_vec)
        for a in vanishing:
            for b in vanishing:
                s = tuple([x + y for x, y in zip(a, b)])
                if s[pidx] != 0:
                    raise F.AuditFailure("vanishing functions are not closed under sums")
            for h in samples:
                prod = tuple([x * y for x, y in zip(a, h)])
                if prod[pidx] != 0:
                    raise F.AuditFailure("vanishing set does not absorb products")
        checked["ideals"] += 1
    for p1 in range(k):
        for p2 in range(p1 + 1, k):
            if zp.block_of[hull.reps[p1]] == zp.block_of[hull.reps[p2]]:
                raise F.AuditFailure("evaluations at distinct hull points coincide")
            checked["distinct_evaluations"] += 1
    return {"checked": checked, "failures": []}


def _outcome(audit, hull, seed):
    try:
        return audit(hull, seed=seed)
    except F.AuditFailure as exc:
        return str(exc)


def _redrawn_hulls():
    """(hull, seed): for each space on at most 4 points and seeds 0-4, the real
    Stone-Cech hull and a tampered one whose class map is redrawn at random
    within range(k), so classes merge or go empty."""
    rng = random.Random(0)
    for s in all_spaces(4):
        sc = H.stone_cech_finite(s)
        k = len(sc.classes)
        for seed in range(5):
            class_of = tuple(rng.randrange(k) for _ in range(s.n))
            yield sc, seed
            yield H.Hull(s, sc.classes, sc.quotient, class_of, sc.kind, sc.family), seed


class TestIntegerSamples:
    def test_ring_audit_matches_fraction_reference(self):
        outcomes = set()
        for hull, seed in _redrawn_hulls():
            got = _outcome(H.ring_correspondence, hull, seed)
            assert got == _outcome(_fraction_ring_correspondence, hull, seed)
            outcomes.add(got if isinstance(got, str) else "passed")
        # both verdicts occur, and more than one kind of failure
        assert "passed" in outcomes and len(outcomes) >= 3

    def test_combinations_are_rational_draws_times_six(self):
        # the same draws as Fraction(p, q) per block plus an integer shift
        for s in all_spaces(3):
            zp = F.z_partition(s)
            for seed in range(3):
                rng = random.Random(seed)
                expected = {}
                for t in range(3):
                    per_block = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in zp.blocks]
                    shift = rng.randint(-1, 1)
                    expected[f"g{t}"] = tuple([6 * (per_block[b] + shift) for b in zp.block_of])
                got = H._random_combinations(zp, seed)
                assert got == expected
                assert all(type(v) is int for table in got.values() for v in table)


def _uncached_ring_correspondence(hull, seed=0):
    """The body ring_correspondence keeps per key, run afresh on the hull's values."""
    zp = H.z_partition(hull.source)
    checked = H._ring_audit.__wrapped__(seed, hull.classes, hull.class_of, zp.block_of, len(zp.blocks))
    return {"checked": checked, "failures": []}


class TestRingMemo:
    """A kept ring audit equals the body run afresh, whichever hull filled its key first."""

    def test_kept_results_equal_the_body(self, monkeypatch):
        cases = list(_redrawn_hulls())
        assert len(cases) == 3890
        for s in all_spaces(4):  # the classes of the Stone-Cech hull, reordered
            sc = H.stone_cech_finite(s)
            cases.append((H.Hull(s, sc.classes[::-1], sc.quotient, sc.class_of, sc.kind, {}), 0))
        outcomes = set()
        for hull, seed in cases:
            got = _outcome(H.ring_correspondence, hull, seed)
            assert got == _outcome(_uncached_ring_correspondence, hull, seed)
            outcomes.add(got if isinstance(got, str) else "passed")
        assert "passed" in outcomes and len(outcomes) >= 3

        # keys with the classes and class maps read above, and tampered z-blocks: merged
        # ones (one block fewer), and ones with a point moved (mostly as many blocks)
        for tamper in (_merge_first_two, _move_last_point):
            changed = []
            monkeypatch.setattr(H, "z_partition", _tampered_z_partition(tamper, changed))
            for hull, seed in cases[::2]:
                got = _outcome(H.ring_correspondence, hull, seed)
                assert got == _outcome(_uncached_ring_correspondence, hull, seed)
            assert changed

    def test_reports_are_fresh(self):
        sc = H.stone_cech_finite(SIERP_PLUS)
        report = H.ring_correspondence(sc)
        expected = {"checked": dict(report["checked"]), "failures": []}
        report["checked"]["bijection"] = -1
        report["failures"].append("changed by the caller")
        assert H.ring_correspondence(sc) == expected


def _old_combinations(zp, seed, count=3):
    rng = random.Random(seed)
    fams = {}
    for t in range(count):
        per_block = [6 * rng.randint(-3, 3) // rng.randint(1, 3) for _ in zp.blocks]
        shift = 6 * rng.randint(-1, 1)
        fams[f"g{t}"] = tuple([per_block[b] + shift for b in zp.block_of])
    return fams


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


def _old_ring_draws(seed, k, blocks):
    rng = random.Random(seed)
    samples = [tuple(6 * rng.randint(-4, 4) // rng.randint(1, 3) for _ in range(k)) for _ in range(6)]
    samples += [tuple([6 * (t == j) for t in range(k)]) for j in range(k)]
    block_draws = [[rng.randint(-4, 4) for _ in range(blocks)] for _ in range(6)]
    return samples, block_draws


class TestDrawsPerShape:
    """The draws kept per (seed, shape) equal fresh draws in the old call order."""

    def test_families_and_ring_draws_equal_fresh_draws(self):
        spaces = list(all_spaces(4))
        assert len(spaces) == 389
        for seed in range(5):
            for other in (None, seed + 100):
                for s in spaces:
                    zp = F.z_partition(s)
                    k = len(H.stone_cech_finite(s).classes)
                    if other is not None:  # draws for another seed first
                        H._random_combinations(zp, other)
                        H.generator_subfamily(s, other)
                        H._ring_draws(other, k, len(zp.blocks))
                    assert H._random_combinations(zp, seed) == _old_combinations(zp, seed)
                    assert H.generator_subfamily(s, seed) == _old_subfamily(s, seed)
                    samples, block_draws = H._ring_draws(seed, k, len(zp.blocks))
                    assert (list(samples), [list(d) for d in block_draws]) == _old_ring_draws(
                        seed, k, len(zp.blocks)
                    )


class TestQuotientMaps:
    def test_class_loops_equal_point_loops(self, monkeypatch):
        hulls = []
        build_quotient = H._build_quotient

        def recording(*args):
            hulls.append(build_quotient(*args))
            return hulls[-1]

        monkeypatch.setattr(H, "_build_quotient", recording)
        assert H.hull_theorem_audit(all_spaces(4))["all_passed"]
        assert len(hulls) == 389 * 7
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
