from fractions import Fraction

import pytest

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
            report = H.t0_reflection_report(s)
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


class TestHullAudit:
    def test_full_audit_up_to_three_points(self):
        report = H.hull_theorem_audit(all_spaces(3))
        assert report["all_passed"]
        assert report["spaces_checked"] == 34
