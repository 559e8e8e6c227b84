"""One mutant per asserted audit check: each row breaks the code under test in
one way, and `cli.run_full_audit(4)` must then list the row's key as failing.
A check that no mutant can fail would pass whatever the code does.

Every row runs against fresh fact tables, and only after an unmutated
`run_full_audit(4)` has recorded its verdicts in the tables of spaces the row
keeps alive, so no recorded verdict may hide the failure.
"""

import pytest

from nsatop import cli
from nsatop import fintop as F
from nsatop import hull as H

from test_hull import _merge_first_two, _tampered_z_partition, all_spaces


def _deciding(name, holds):
    """The decider `name`, and its oracle, answering `holds` on every space."""

    def mutate(mp):
        decide = F.PROPERTY_CHECKS[name]

        def check(space):
            v = decide(space)
            return F.PropertyVerdict(v.name, holds, holds, v.forms, v.witness)

        mp.setitem(F.PROPERTY_CHECKS, name, check)

    return mutate


def _oracle_flipped(mp):
    decide = F.PROPERTY_CHECKS["t1"]

    def check(space):
        v = decide(space)
        return F.PropertyVerdict(v.name, v.holds, not v.oracle, v.forms, v.witness)

    mp.setitem(F.PROPERTY_CHECKS, "t1", check)


def _labels_lose_last_open(mp):
    opens_as_labels = F.FinSpace.opens_as_labels
    mp.setattr(F.FinSpace, "opens_as_labels", lambda s: opens_as_labels(s)[:-1])


def _nothing_directed(mp):
    mp.setattr(F, "is_downward_directed", lambda space, subset: False)


def _merged_z_blocks(mp):
    mp.setattr(H, "z_partition", _tampered_z_partition(_merge_first_two, []))


def _every_family_distinguishes(mp):
    mp.setattr(H, "distinguishes_points_and_closed_sets", lambda space, family: True)


def _highest_class(hull):
    return 1 << (len(hull.classes) - 1)


def _image_drops_highest_class(mp):
    q_image_mask = H.Hull.q_image_mask
    mp.setattr(H.Hull, "q_image_mask", lambda hull, m: q_image_mask(hull, m) & ~_highest_class(hull))


def _preimage_drops_highest_class(mp):
    q_preimage_mask = H.Hull.q_preimage_mask
    mp.setattr(H.Hull, "q_preimage_mask", lambda hull, m: q_preimage_mask(hull, m & ~_highest_class(hull)))


def _monad_of_a_set_is_the_set(mp):
    mp.setattr(F.FinSpace, "monad_set_mask", lambda space, mask: mask)


def _closure_reads_interior(mp):
    mp.setattr(F.FinSpace, "closure_robinson_mask", F.FinSpace.interior_robinson_mask)


# asserted key -> the mutant that must fail it
MUTANTS = {
    "t0_and_weakly_hausdorff_implies_hausdorff": _deciding("weakly_hausdorff", True),
    "t0_and_regular_implies_hausdorff": _deciding("regular", True),
    "hausdorff_implies_regular": _deciding("regular", False),
    "regular_implies_normal": _deciding("normal", False),
    "hausdorff_implies_sober": _deciding("sober", False),
    "star_space_normal_iff_normal": _labels_lose_last_open,
    "star_space_regular_iff_all_opens_clopen": _labels_lose_last_open,
    "irreducible_iff_downward_directed": _nothing_directed,
    "every_finite_space_sober": _deciding("sober", False),
    "monad_oracle_agreement": _oracle_flipped,
    "stone_cech_equals_hewitt": _merged_z_blocks,
    "hull_laws": _every_family_distinguishes,
    "t0_reflection_laws": _preimage_drops_highest_class,
    "zero_set_formulas": _image_drops_highest_class,
    "ring_correspondence": _merged_z_blocks,
    "compactness_identities": _monad_of_a_set_is_the_set,
    "closure_interior_operators": _closure_reads_interior,
}


def _asserted(report):
    """Each asserted key of a full audit report, with its entry."""
    out = {}
    for part in ("separation_and_order", "hulls"):
        out.update(report[part]["asserted"])
    for key in ("compactness_identities", "closure_interior_operators"):
        out[key] = report[key]
    return out


@pytest.mark.parametrize("key", list(MUTANTS))
def test_mutant_fails_its_key(key, fresh_facts, monkeypatch):
    kept = list(all_spaces(4))  # their tables hold the verdicts recorded below
    report = cli.run_full_audit(4)
    assert report["all_passed"]
    assert set(_asserted(report)) == set(MUTANTS)
    MUTANTS[key](monkeypatch)
    report = cli.run_full_audit(4)
    entry = _asserted(report)[key]
    assert entry["passed"] is False and entry["counterexamples"], key
    assert report["all_passed"] is False
    if key == "zero_set_formulas":  # every space with two or more z-blocks
        assert len(entry["counterexamples"]) == 133
    if key == "hull_laws":  # as many as every indicator family up to 4 points catches
        assert len(entry["counterexamples"]) == 385
    assert len(kept) == 389


def _one_nonconstant_member_distinguishes(space, family):
    """The subtle mutant: a family counts as distinguishing as soon as one
    member is nonconstant."""
    return any(len(set(table)) > 1 for table in family.values())


def test_hull_laws_catch_a_family_with_one_nonconstant_member(fresh_facts, monkeypatch):
    monkeypatch.setattr(H, "distinguishes_points_and_closed_sets", _one_nonconstant_member_distinguishes)
    entry = cli.run_full_audit(4)["hulls"]["asserted"]["hull_laws"]
    assert entry["passed"] is False
    assert len(entry["counterexamples"]) == 122
