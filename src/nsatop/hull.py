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

import random
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .fintop import (
    AuditFailure,
    FinSpace,
    SpaceError,
    ZBlockPartition,
    _discontinuity,
    _holds,
    _partition_by,
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


def validate_family(space: FinSpace, family: dict) -> Family:
    """Read a label-keyed family ({name: {point label: value}}, the JSON
    format) into value tuples by point index; every point needs a rational
    value.  Continuity is checked by build_hull."""
    if not isinstance(family, dict) or not all(isinstance(v, dict) for v in family.values()):
        raise SpaceError("a family maps names to point->value tables")
    out = {}
    for name in sorted(family):
        values = family[name]
        table = []
        for p in space.points:
            if p not in values:
                raise SpaceError(f"family member {name!r} missing a value at {p!r}")
            try:
                table.append(Fraction(values[p]))
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise SpaceError(f"family member {name!r} has no rational value at {p!r}") from None
        out[name] = tuple(table)
    return out


class Hull:
    """A quotient space with its map, validated family and lifted tables."""

    __slots__ = ("source", "classes", "quotient", "class_of", "reps", "lifted", "kind", "family")

    def __init__(self, source, classes, quotient, class_of, kind, family):
        self.source = source
        self.classes = classes  # tuple of masks, ordered by smallest member
        self.quotient = quotient  # FinSpace on class labels
        self.class_of = class_of  # tuple: point index -> class index
        self.reps = tuple((m & -m).bit_length() - 1 for m in classes)  # lowest point per class
        self.kind = kind
        self.family = family  # name -> tuple of values per point
        self.lifted = {name: self.lift(table) for name, table in sorted(family.items())}

    def lift(self, table: tuple) -> tuple:
        """Values per class of a function (values per point) constant on classes."""
        return tuple([table[i] for i in self.reps])

    def class_index(self, point) -> int:
        return self.class_of[self.source._index[point]]

    def class_label(self, point):
        return self.quotient.points[self.class_index(point)]

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
        lifted = {
            name: {
                str(self.quotient.points[k]): _frac_str(v)
                for k, v in enumerate(values)
            }
            for name, values in sorted(self.lifted.items())
        }
        return {
            "kind": self.kind,
            "classes": [self.source.sorted_labels(m) for m in self.classes],
            "map": {str(p): str(self.class_label(p)) for p in self.source.points},
            "quotient": self.quotient.to_json(),
            "lifted": lifted,
        }


def _build_quotient(space: FinSpace, classes, class_of, family: Family, kind: str) -> Hull:
    labels = tuple("|".join(str(x) for x in space.sorted_labels(m)) for m in classes)
    pre = [0]  # pre[v]: the preimage of the class subset v
    for c in classes:
        pre += [p | c for p in pre]
    opens = [v for v, m in enumerate(pre) if m in space._opens_set]
    quotient = FinSpace(labels, opens, _validated=True)
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


# Seeded draws depend only on the seed and the number of blocks or hull classes, so each
# helper below draws once per such shape, and callers build each space's vectors from them.
@lru_cache(maxsize=256)
def _combination_draws(seed: int, blocks: int, count: int) -> tuple:
    """(per-block values, shift) for each of `count` combinations."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        per_block = tuple([6 * rng.randint(-3, 3) // rng.randint(1, 3) for _ in range(blocks)])
        draws.append((per_block, 6 * rng.randint(-1, 1)))
    return tuple(draws)


def _random_combinations(zp: ZBlockPartition, seed: int, count: int = 3) -> Family:
    """Seeded rational combinations of the block indicators, plus a constant,
    as integer numerators over 6 (see ring_correspondence)."""
    return {
        f"g{t}": tuple([per_block[b] + shift for b in zp.block_of])
        for t, (per_block, shift) in enumerate(_combination_draws(seed, len(zp.blocks), count))
    }


@lru_cache(maxsize=256)
def _subfamily_draws(seed: int, blocks: int) -> tuple:
    """(kept indicators, (a, b) per sum and product, (scale, a) per scaling),
    each a block index where it names an indicator."""
    rng, index = random.Random(seed), range(blocks)
    kept = tuple([t for t in index if rng.random() < 0.7])
    pairs = tuple([(rng.choice(index), rng.choice(index)) for _ in range(rng.randint(0, 2))])
    scales = []
    for _ in range(rng.randint(0, 2)):
        scales.append((6 * rng.randint(-3, 3) // rng.randint(1, 3), rng.choice(index)))
    return kept, pairs, tuple(scales)


def generator_subfamily(space: FinSpace, seed: int) -> Family:
    """A seeded family of indicators, sums, products and rational scalings
    (each scale p/q, q in 1..3, kept as the integer 6p/q; scaling a member by
    a constant does not change which points it tells apart)."""
    zp = z_partition(space)
    indicators = [zp.indicator(k) for k in range(len(zp.blocks))]
    kept, pairs, scales = _subfamily_draws(seed, len(indicators))
    fam: Family = {f"ind{t}": indicators[t] for t in kept}
    for t, (a, b) in enumerate(pairs):
        a, b = indicators[a], indicators[b]
        fam[f"sum{t}"] = tuple([x + y for x, y in zip(a, b)])
        fam[f"prod{t}"] = tuple([x * y for x, y in zip(a, b)])
    for t, (c, a) in enumerate(scales):
        fam[f"scale{t}"] = tuple([c * x for x in indicators[a]])
    return fam


def zero_set_formulas(space: FinSpace, seed: int = 0) -> dict:
    """Zero-set identities across the quotient map of the function hull.

    For g in the generating family plus seeded combinations: the zero set of
    the lifted function equals the image of the zero set, and the closure of
    that image in the hull is itself.  For pairs of zero sets, images commute
    with intersections.  Raises AuditFailure with a witness on any failure.
    """
    zp = z_partition(space)
    family = canonical_family(space)
    family.update(_random_combinations(zp, seed))
    hull = build_hull(space, family, kind="stone-cech")
    checked = {"lifted_zero_sets": 0, "closure_images": 0, "intersection_images": 0}

    for name, table in sorted(hull.family.items()):
        z_mask = 0
        for i, v in enumerate(table):
            if v == 0:
                z_mask |= 1 << i
        image = hull.q_image_mask(z_mask)
        lifted_zero = 0
        for kidx, v in enumerate(hull.lifted[name]):
            if v == 0:
                lifted_zero |= 1 << kidx
        if lifted_zero != image:
            raise AuditFailure(
                "lifted zero set differs from the image of the zero set",
                witness={"function": name},
            )
        checked["lifted_zero_sets"] += 1
        if hull.quotient.closure_classical_mask(image) != image:
            raise AuditFailure(
                "zero-set image is not closed in the hull", witness={"function": name}
            )
        checked["closure_images"] += 1

    zero_sets = list(zp.zero_sets())
    if len(zp.blocks) > 6:
        rng = random.Random(seed)
        zero_sets = rng.sample(zero_sets, 64)
    images = [hull.q_image_mask(z) for z in zero_sets]
    for z1, image1 in zip(zero_sets, images):
        for z2, image2 in zip(zero_sets, images):
            if hull.q_image_mask(z1 & z2) != image1 & image2:
                raise AuditFailure(
                    "image of an intersection of zero sets differs from the "
                    "intersection of the images",
                    witness=[space.sorted_labels(z1), space.sorted_labels(z2)],
                )
            checked["intersection_images"] += 1
    return {"checked": checked, "failures": []}


@lru_cache(maxsize=256)
def _ring_draws(seed: int, k: int, blocks: int) -> tuple:
    """(sample vectors per class, block values per surjectivity test)."""
    rng = random.Random(seed)
    # sample hull functions as value vectors per class: rationals p/q (q in 1..3) kept as
    # the integers 6p/q; sums scale by 6 and products by 36, so every test answers as over Q
    samples = [tuple(6 * rng.randint(-4, 4) // rng.randint(1, 3) for _ in range(k)) for _ in range(6)]
    samples += [tuple([6 * (t == j) for t in range(k)]) for j in range(k)]
    block_draws = tuple([tuple([rng.randint(-4, 4) for _ in range(blocks)]) for _ in range(6)])
    return tuple(samples), block_draws


def ring_correspondence(hull: Hull, seed: int = 0) -> dict:
    """Composition with the quotient map of the Stone-Cech hull is a ring
    isomorphism at finite scale.

    Continuous functions on the space are exactly the block-constant ones;
    functions on the hull correspond to them one-to-one through the map, and
    the correspondence preserves sums, products and constants.  For each hull
    point the functions vanishing there form an ideal, and evaluations at
    distinct points are distinct homomorphisms.
    """
    zp = z_partition(hull.source)
    checked = _ring_audit(seed, hull.classes, hull.class_of, zp.block_of, len(zp.blocks))
    return {"checked": dict(checked), "failures": []}


# The ring audit reads only these values of a hull and its z-blocks, and hulls share them (the
# 389 of a 4-point pass have 23 keys at a seed), so each key is audited once.  A failure is
# not kept: every call with its key raises it again.
@lru_cache(maxsize=256)
def _ring_audit(seed: int, classes: tuple, class_of: tuple, block_of: tuple, blocks: int) -> dict:
    k, n = len(classes), len(class_of)
    reps = [(m & -m).bit_length() - 1 for m in classes]  # Hull.reps
    samples, block_draws = _ring_draws(seed, k, blocks)
    checked = {"bijection": 0, "homomorphism": 0, "ideals": 0, "distinct_evaluations": 0}

    def compose(vec):
        return tuple([vec[c] for c in class_of])

    composed = [compose(a) for a in samples]
    # injectivity: distinct vectors compose to distinct functions (q is onto); "a == b iff
    # compose(a) == compose(b)" for every pair of samples is these three counts being equal
    if not len(set(samples)) == len(set(composed)) == len(set(zip(samples, composed))):
        raise AuditFailure("composition with the quotient map is not injective")
    checked["bijection"] += len(samples) ** 2
    # surjectivity: every block-constant function on the source arises as a composition
    for per_block in block_draws:
        table = tuple([per_block[b] for b in block_of])
        if compose([table[i] for i in reps]) != table:
            raise AuditFailure("a continuous function fails to factor through the hull")
        checked["bijection"] += 1
    # ring operations
    for a, fa in zip(samples[:4], composed):
        for b, fb in zip(samples[:4], composed):
            plus = tuple([x + y for x, y in zip(a, b)])
            times = tuple([x * y for x, y in zip(a, b)])
            if compose(plus) != tuple([x + y for x, y in zip(fa, fb)]):
                raise AuditFailure("composition does not preserve sums")
            if compose(times) != tuple([x * y for x, y in zip(fa, fb)]):
                raise AuditFailure("composition does not preserve products")
            checked["homomorphism"] += 1
    if compose((7,) * k) != (7,) * n:
        raise AuditFailure("composition does not preserve constants")

    # maximal ideal audit per hull point: the samples vanishing there, with the zero vector, are
    # closed under sums iff each is 0 there (add the zero vector), and then so is each product
    zero_vec = (0,) * k
    for pidx in range(k):
        vanishing = [vec for vec in samples if vec[pidx] == 0]
        vanishing.append(zero_vec)
        if any(a[pidx] for a in vanishing):
            raise AuditFailure("vanishing functions are not closed under sums")
        checked["ideals"] += 1
    # evaluations at two hull points differ iff some continuous function on the
    # space tells their representatives apart, that is iff the representatives
    # lie in distinct z-blocks
    for p1 in range(k):
        for p2 in range(p1 + 1, k):
            if block_of[reps[p1]] == block_of[reps[p2]]:
                raise AuditFailure("evaluations at distinct hull points coincide")
            checked["distinct_evaluations"] += 1
    return checked


def hull_theorem_audit(spaces: Iterable[FinSpace], seed: int = 0) -> dict:
    """Run every hull-side audit across a set of spaces."""
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
            for t in range(2):
                hull_report(build_hull(space, generator_subfamily(space, seed + t)))

        audits = {
            "hull_laws": hull_laws,
            "t0_reflection_laws": lambda: t0_reflection_report(t0_reflection(space)),
            "zero_set_formulas": lambda: zero_set_formulas(space, seed=seed),
            "ring_correspondence": lambda: ring_correspondence(sc, seed=seed),
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
