"""Quotient constructions on finite spaces: T0 reflection and function hulls.

A family of continuous rational-valued functions identifies the points it
cannot tell apart; the quotient of the space by that relation, with the
quotient topology, is the hull.  The family of all continuous functions is
generated at finite scale by zero-block indicators, and its hull plays the
role of the maximal Hausdorff compactification; the realcompactification is
taken by a second route, the indicators of the clopen sets.  The two coincide
here because every function on a finite space is bounded, and the audit
checks that they do.  Reports record that collapse explicitly so finite-scale
results are not mistaken for the infinite theory.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .fintop import (
    AuditFailure,
    FinSpace,
    SpaceError,
    _discontinuity,
    _holds,
    _partition_by,
    _unprintable,
    z_partition,
)
from .poly import _frac_str


class DiscontinuousFamilyMember(SpaceError):
    def __init__(self, name: str, point, monad):
        super().__init__(
            f"family member {name!r} is not constant on the monad of {point!r} "
            f"(monad {sorted(map(str, monad))})"
        )
        self.name = name
        self.point = point
        self.monad = monad


Family = dict  # name -> tuple of values by point index

# an exact rational as family JSON writes it in a string: [+|-] INT ['/' INT]
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def validate_family(space: FinSpace, family: dict) -> Family:
    """Read a label-keyed family ({name: {point label: value}}, the JSON
    format) into value tuples by point index; every point needs a rational
    value, a JSON integer or a string matching _RATIONAL, which is checked
    before Fraction reads it (so "1e99999999" is refused at once, not
    expanded).  Continuity is checked by build_hull."""
    if not isinstance(family, dict) or not all(isinstance(v, dict) for v in family.values()):
        raise SpaceError("a family maps names to point->value tables")
    out = {}
    for name in sorted(family):
        if _unprintable(str(name)):
            raise SpaceError(f"family member name {name!r} has no UTF-8 encoding to print")
        values = family[name]
        table = []
        for p in space.points:
            if p not in values:
                raise SpaceError(f"family member {name!r} missing a value at {p!r}")
            value = values[p]
            try:
                if not (type(value) is int or isinstance(value, str) and _RATIONAL.fullmatch(value)):
                    raise ValueError
                table.append(Fraction(value))
            except (ValueError, ZeroDivisionError):
                raise SpaceError(f"family member {name!r} has no rational value at {p!r}") from None
        out[name] = tuple(table)
    return out


class Hull:
    """A quotient space with its map, validated family and lifted tables."""

    __slots__ = ("source", "classes", "quotient", "class_of", "reps", "lifted", "kind", "family")

    def __init__(self, source, classes, quotient, class_of, kind, family):
        self.source = source
        self.classes = classes  # tuple of masks, ordered by smallest member
        self.quotient = quotient  # FinSpace on class indices
        self.class_of = class_of  # tuple: point index -> class index
        self.reps = tuple((m & -m).bit_length() - 1 for m in classes)  # lowest point per class
        self.kind = kind
        self.family = family  # name -> tuple of values per point
        self.lifted = {name: self.lift(table) for name, table in sorted(family.items())}

    def lift(self, table: tuple) -> tuple:
        """Values per class of a function (values per point) constant on classes."""
        return tuple([table[i] for i in self.reps])

    def q_image_mask(self, source_mask: int) -> int:
        out = 0
        for c, m in enumerate(self.classes):
            if m & source_mask:
                out |= 1 << c
        return out

    def q_preimage_mask(self, class_mask: int) -> int:
        out = 0
        for c, m in enumerate(self.classes):
            if class_mask >> c & 1:
                out |= m
        return out

    def to_json(self) -> dict:
        """The hull with each class labelled by its members' labels joined by "|"."""
        classes = [self.source.sorted_labels(m) for m in self.classes]
        labels = ["|".join(map(str, members)) for members in classes]
        if len(set(labels)) != len(labels):
            label = next(x for x in labels if labels.count(x) > 1)
            clash = [members for members, x in zip(classes, labels) if x == label]
            raise SpaceError(f"hull classes {clash} are both labelled {label!r}")
        lifted = {
            name: {labels[k]: _frac_str(v) for k, v in enumerate(values)}
            for name, values in sorted(self.lifted.items())
        }
        return {
            "kind": self.kind,
            "classes": classes,
            "map": {str(p): labels[c] for p, c in zip(self.source.points, self.class_of)},
            "quotient": FinSpace(labels, self.quotient.opens, _validated=True).to_json(),
            "lifted": lifted,
        }


def _build_quotient(space: FinSpace, classes, class_of, family: Family, kind: str) -> Hull:
    # the quotient opens are the images of the saturated opens: |opens| * k
    # steps, where a walk over all 2^k class subsets outgrows any memory
    opens = []
    for g in space.opens:
        image = 0
        for c, m in enumerate(classes):
            if m & g:
                if m & ~g:
                    break  # the class leaks out of g: g is not saturated
                image |= 1 << c
        else:
            opens.append(image)
    quotient = FinSpace(range(len(classes)), opens, _validated=True)
    return Hull(space, classes, quotient, class_of, kind, family)


def t0_reflection(space: FinSpace) -> Hull:
    """Quotient identifying points with equal closures, with the quotient topology."""
    classes, class_of = _partition_by(space.n, space.point_closures().__getitem__)
    return _build_quotient(space, classes, class_of, {}, "t0-reflection")


def build_hull(space: FinSpace, family: Family, kind: str = "hull") -> Hull:
    """Quotient by "all family members take equal values", with lifted tables.

    Each member is a tuple of values by point index and must be continuous,
    that is constant on every monad; every point is kept (every value of a
    rational-valued function on a finite space is finite).
    """
    names = sorted(family)
    if all(len(family[name]) == space.n for name in names):
        classes, class_of = _partition_by(space.n, lambda i: tuple([family[name][i] for name in names]))
        # every member is constant on each monad iff each monad lies in its point's class
        if all(not m & ~classes[c] for m, c in zip(space._monad, class_of)):
            return _build_quotient(space, classes, class_of, family, kind)
    # some member is wrong: name the first in name order
    for name in names:
        table = family[name]
        if len(table) != space.n:
            raise SpaceError(f"family member {name!r} has {len(table)} values for {space.n} points")
        i = _discontinuity(space, table)
        if i is not None:
            raise DiscontinuousFamilyMember(name, space.points[i], space.labels(space.monad_mask(i)))


def canonical_family(space: FinSpace) -> Family:
    """Block indicators: a finite generating set for all continuous functions."""
    zp = z_partition(space)
    return {
        f"ind{k}": zp.indicator(k) for k in range(len(zp.blocks))
    }


def clopen_family(space: FinSpace) -> Family:
    """0/1 indicators of the sets that are both open and closed, read from the
    opens alone (no monads, no z-blocks)."""
    clopens = [o for o in space.opens if space.is_closed(o)]
    return {
        f"clopen{k}": tuple([c >> i & 1 for i in range(space.n)]) for k, c in enumerate(clopens)
    }


def stone_cech_finite(space: FinSpace) -> Hull:
    """Hull over the bounded continuous functions (their block-indicator generators)."""
    return build_hull(space, canonical_family(space), kind="stone-cech")


def hewitt_finite(space: FinSpace) -> Hull:
    """Hull over all continuous functions, taken by quasi-components: points
    that every clopen set holds both or neither of.  At finite scale every
    function is bounded, so it must equal the Stone-Cech hull, which is taken
    by z-blocks."""
    return build_hull(space, clopen_family(space), kind="hewitt")


# -- audits ---------------------------------------------------------------------


def distinguishes_points_and_closed_sets(space: FinSpace, family: Family) -> bool:
    """For every closed F and x outside it, some member separates x from F's values."""
    for f in space.closed_sets():
        members = [j for j in range(space.n) if f >> j & 1]
        apart = f  # F, and the points some member has told apart from it
        for table in family.values():
            if apart == space.full:
                break
            values = {table[j] for j in members}  # once per member and closed set
            for i in range(space.n):
                if table[i] not in values:
                    apart |= 1 << i
        if apart != space.full:
            return False
    return True


def hull_report(hull: Hull) -> dict:
    """Audit the quotient laws on a built hull.

    Checks: the quotient topology is discrete and Hausdorff, every family
    member factors exactly through the quotient map, the map is onto, each
    monad sits inside its point's class, and a distinguishing family forces
    class = monad.  Raises AuditFailure on any violation.
    """
    space, family = hull.source, hull.family
    report = {"checks": {}}
    k = len(hull.classes)

    discrete = len(hull.quotient.opens) == (1 << k)
    hausdorff = _holds(hull.quotient, "t2")
    if not (discrete and hausdorff):
        raise AuditFailure("hull quotient is not discrete Hausdorff", witness=hull.to_json())
    report["checks"]["quotient_discrete_hausdorff"] = True

    for name, table in sorted(family.items()):
        lifted = hull.lifted[name]
        for i, c in enumerate(hull.class_of):
            if table[i] != lifted[c]:
                raise AuditFailure(
                    "lifted function does not factor the original",
                    witness={"function": name, "point": str(space.points[i])},
                )
    report["checks"]["lifted_factorization"] = True

    report["checks"]["quotient_map_onto"] = all(m != 0 for m in hull.classes)

    for i in range(space.n):
        cls_mask = hull.classes[hull.class_of[i]]
        if space.monad_mask(i) & ~cls_mask:
            raise AuditFailure(
                "a monad escapes its hull class", witness=str(space.points[i])
            )
    report["checks"]["monad_contained_in_class"] = True

    disting = distinguishes_points_and_closed_sets(space, family)
    equality = all(
        space.monad_mask(i) == hull.classes[hull.class_of[i]] for i in range(space.n)
    )
    if disting and not equality:
        raise AuditFailure(
            "distinguishing family failed to force class = monad", witness=hull.to_json()
        )
    report["checks"]["family_distinguishes"] = disting
    report["checks"]["class_equals_monad"] = equality

    # finite-scale collapse notes
    report["checks"]["all_points_kept"] = True
    report["checks"]["quotient_compact"] = "finite space; compactness is automatic"

    if disting and _holds(space, "t2") and _holds(space, "completely_regular"):
        # the quotient map must embed the space: classes are singletons (that
        # lifted values restrict to the original ones was checked above)
        if k != space.n:
            raise AuditFailure("embedding audit failed on a completely regular Hausdorff space")
        report["checks"]["embedding_on_completely_regular_hausdorff"] = True
    else:
        report["checks"]["embedding_on_completely_regular_hausdorff"] = "not applicable"
    return report


def t0_reflection_report(hull: Hull) -> dict:
    """Audit a T0 reflection: open map, saturated opens, idempotence, and the
    equivalence "weakly Hausdorff iff the reflection is Hausdorff"."""
    space = hull.source
    report = {"checks": {}}

    for g in space.opens:
        image = hull.q_image_mask(g)
        if not hull.quotient.is_open(image):
            raise AuditFailure("quotient map is not open", witness=space.sorted_labels(g))
        if hull.q_preimage_mask(image) != g:
            raise AuditFailure(
                "open set is not saturated under the reflection",
                witness=space.sorted_labels(g),
            )
    report["checks"]["open_map"] = True
    report["checks"]["saturated_opens"] = True

    if not _holds(hull.quotient, "t0"):
        raise AuditFailure("reflection is not T0", witness=hull.to_json())
    report["checks"]["reflection_t0"] = True

    again = t0_reflection(hull.quotient)
    if len(again.classes) != len(hull.classes) or again.quotient.opens != hull.quotient.opens:
        raise AuditFailure("reflection is not idempotent", witness=hull.to_json())
    report["checks"]["idempotent"] = True

    if _holds(space, "weakly_hausdorff") != _holds(hull.quotient, "t2"):
        raise AuditFailure(
            "weakly Hausdorff does not match Hausdorff reflection",
            witness=space.describe(),
        )
    report["checks"]["weakly_hausdorff_iff_reflection_hausdorff"] = True
    return report


def zero_set_formulas(hull: Hull) -> dict:
    """Zero-set identities across the quotient map of a built Stone-Cech hull,
    checked exhaustively.

    For each member of the hull's family (the block indicators): the zero set
    of the lifted function equals the image of the zero set.  For every zero
    set (every union of z-blocks): its image is closed in the hull, and for
    every pair, the image of the intersection is the intersection of the
    images.  Raises AuditFailure with a witness on any failure.
    """
    space = hull.source
    checked = {"lifted_zero_sets": 0, "closure_images": 0, "intersection_images": 0}
    for name, table in sorted(hull.family.items()):
        z_mask = sum(1 << i for i, v in enumerate(table) if v == 0)
        lifted_zero = sum(1 << c for c, v in enumerate(hull.lifted[name]) if v == 0)
        if lifted_zero != hull.q_image_mask(z_mask):
            raise AuditFailure(
                "lifted zero set differs from the image of the zero set",
                witness={"function": name},
            )
        checked["lifted_zero_sets"] += 1

    zero_sets = list(z_partition(space).zero_sets())
    images = [hull.q_image_mask(z) for z in zero_sets]
    for z1, image1 in zip(zero_sets, images):
        if hull.quotient.closure_classical_mask(image1) != image1:
            raise AuditFailure(
                "zero-set image is not closed in the hull", witness=space.sorted_labels(z1)
            )
        checked["closure_images"] += 1
        for z2, image2 in zip(zero_sets, images):
            if hull.q_image_mask(z1 & z2) != image1 & image2:
                raise AuditFailure(
                    "image of an intersection of zero sets differs from the "
                    "intersection of the images",
                    witness=[space.sorted_labels(z1), space.sorted_labels(z2)],
                )
            checked["intersection_images"] += 1
    return {"checked": checked, "failures": []}


def _continuous_dimension(space: FinSpace) -> int:
    """dim_Q C(X), read from the monads alone: a function is continuous iff
    f(i) = f(j) for every j in the monad of i, so the dimension is n minus the
    rank of the rows e_i - e_j, found by fraction-free integer elimination."""
    n = space.n
    rows = [
        [(t == i) - (t == j) for t in range(n)]
        for i, m in enumerate(space._monad)
        for j in range(n)
        if j != i and m >> j & 1
    ]
    rank = 0
    for col in range(n):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rank += 1
        p = pivot[col]
        rows = [[p * x - r[col] * y for x, y in zip(r, pivot)] for r in rows if r is not pivot]
    return n - rank


def ring_correspondence(hull: Hull) -> dict:
    """Composition with the quotient map of the Stone-Cech hull is a ring
    isomorphism at finite scale, checked exactly.

    Composition gathers values by class, so it preserves sums, products and
    constants whatever the map; what can fail is that it is a bijection onto
    the continuous functions, which are the block-constant ones.  It is
    one-to-one iff the map hits every hull point, and onto iff each point lies
    in the z-block of its class's representative.  Evaluations at distinct
    hull points differ iff their representatives lie in distinct z-blocks.
    Last, on a route that reads no z-blocks: the maximal ideals of C(X) are
    the hull points, so dim_Q C(X), from the monads, must be their number.
    """
    space, k = hull.source, len(hull.classes)
    block_of = z_partition(space).block_of
    if set(hull.class_of) != set(range(k)):
        raise AuditFailure("composition with the quotient map is not injective")
    for i, c in enumerate(hull.class_of):
        if block_of[i] != block_of[hull.reps[c]]:
            raise AuditFailure("a continuous function fails to factor through the hull")
    checked = {"bijection": k + space.n, "distinct_evaluations": 0, "dimension": 1}
    for p1 in range(k):
        for p2 in range(p1 + 1, k):
            if block_of[hull.reps[p1]] == block_of[hull.reps[p2]]:
                raise AuditFailure("evaluations at distinct hull points coincide")
            checked["distinct_evaluations"] += 1
    if _continuous_dimension(space) != k:
        raise AuditFailure("dim C(X) differs from the number of hull points")
    return {"checked": checked, "failures": []}


def hull_theorem_audit(spaces: Iterable[FinSpace]) -> dict:
    """Run every hull-side audit across a set of spaces.  Every check is
    exhaustive and none reads a seed: hull_laws audits the Stone-Cech hull,
    then the hull of each one-member family x + y over block indicators
    x <= y, whose level sets are one block, or a union of two, and the rest."""
    names = [
        "stone_cech_equals_hewitt",
        "hull_laws",
        "t0_reflection_laws",
        "zero_set_formulas",
        "ring_correspondence",
    ]
    failures: dict = {name: [] for name in names}
    count = 0
    for count, space in enumerate(spaces, 1):
        sc = stone_cech_finite(space)
        hw = hewitt_finite(space)
        if sc.classes != hw.classes or sc.quotient.opens != hw.quotient.opens:
            failures["stone_cech_equals_hewitt"].append(space.describe())

        def hull_laws():
            hull_report(sc)
            indicators = list(sc.family.values())
            for a, x in enumerate(indicators):
                for y in indicators[a:]:
                    hull_report(build_hull(space, {"f": tuple([u + v for u, v in zip(x, y)])}))

        audits = {
            "hull_laws": hull_laws,
            "t0_reflection_laws": lambda: t0_reflection_report(t0_reflection(space)),
            "zero_set_formulas": lambda: zero_set_formulas(sc),
            "ring_correspondence": lambda: ring_correspondence(sc),
        }
        for name, audit in audits.items():
            try:
                audit()
            except AuditFailure as exc:
                failures[name].append(f"{space.describe()}: {exc}")
    report = {
        "spaces_checked": count,
        "asserted": {
            name: {"counterexamples": ces, "passed": not ces}
            for name, ces in failures.items()
        },
        "note": (
            "at finite scale the infinitesimal relation on rationals collapses "
            "to equality and every continuous function is bounded, so the "
            "bounded-function hull and the all-function hull coincide"
        ),
    }
    report["all_passed"] = all(v["passed"] for v in report["asserted"].values())
    return report
