"""Finite topological spaces, monads, and separation-property deciders.

Every point of a finite space has a smallest open neighbourhood, its monad.
Each separation property gets two independent decision routes: one phrased in
terms of monads, and a classical oracle phrased by quantifying over opens and
closed sets.  The audit harness asserts the two routes agree on every space
it enumerates; disagreement is a bug, not a mathematical discovery.

Subsets of a space are bit masks internally; public helpers convert to and
from frozensets of point labels.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence, Union


class SpaceError(Exception):
    pass


class MissingEmptyOrFull(SpaceError):
    pass


class NotClosedUnderUnion(SpaceError):
    pass


class NotClosedUnderIntersection(SpaceError):
    pass


class DuplicateOpen(SpaceError):
    pass


class TooLarge(SpaceError):
    pass


class NotTotal(SpaceError):
    pass


class AuditFailure(SpaceError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


SubsetLike = Union[int, Iterable]


def _partition_by(n: int, key) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Group points 0..n-1 by key(i): (class masks ordered by smallest member,
    point index -> class index)."""
    reps: dict = {}
    classes: list[int] = []
    class_of = []
    for i in range(n):
        idx = reps.setdefault(key(i), len(classes))
        if idx == len(classes):
            classes.append(0)
        classes[idx] |= 1 << i
        class_of.append(idx)
    return tuple(classes), tuple(class_of)


class _Facts(dict):
    """The facts of one topology: a dict that can be weakly referenced."""

    __slots__ = ("__weakref__",)


# (n, opens) -> the fact table every live space with that topology shares; an
# entry goes when the last such space does
_FACT_TABLES: weakref.WeakValueDictionary[tuple, _Facts] = weakref.WeakValueDictionary()


class FinSpace:
    """A validated finite topological space.  Monads are read on
    construction; every other fact (closed sets, z-blocks, point closures,
    the disjoint-open table, decider verdicts) on its first read.  Each is
    computed once and kept in a table shared by every live space with the
    same n and opens: facts are masks and booleans, never labels, so
    relabelled spaces may share them."""

    __slots__ = ("points", "opens", "n", "full", "_index", "_monad", "_opens_set", "_facts")

    def __init__(self, points: Sequence, opens: Iterable[int], _validated: bool = False):
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise SpaceError(f"duplicate point labels in {pts!r}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "n", len(pts))
        object.__setattr__(self, "full", (1 << len(pts)) - 1)
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(pts)})
        masks = tuple(sorted(opens))
        if not _validated:
            masks = _check_topology(masks, self.full)
        object.__setattr__(self, "opens", masks)
        object.__setattr__(self, "_opens_set", frozenset(masks))
        facts = _FACT_TABLES.get((self.n, masks))
        if facts is None:
            facts = _FACT_TABLES[self.n, masks] = _Facts()
        object.__setattr__(self, "_facts", facts)
        object.__setattr__(self, "_monad", self._fact("monads", _monads))

    def _fact(self, key, build):
        """The fact `key`: build(self) on its first read, the kept value after."""
        value = self._facts.get(key)
        if value is None:
            value = self._facts[key] = build(self)
        return value

    def __setattr__(self, *a):
        raise AttributeError("FinSpace is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, FinSpace)
            and self.points == other.points
            and self.opens == other.opens
        )

    def __hash__(self):
        return hash((self.points, self.opens))

    def __repr__(self):
        return f"FinSpace(points={list(self.points)}, opens={self.opens_as_labels()})"

    # -- subsets -------------------------------------------------------------

    def mask(self, subset: SubsetLike) -> int:
        if isinstance(subset, int):
            if not 0 <= subset <= self.full:
                raise SpaceError(f"mask {subset} out of range")
            return subset
        m = 0
        for label in subset:
            try:
                m |= 1 << self._index[label]
            except KeyError:
                raise SpaceError(f"unknown point {label!r}") from None
        return m

    def labels(self, mask: int) -> frozenset:
        return frozenset(self.points[i] for i in range(self.n) if mask >> i & 1)

    def sorted_labels(self, mask: int) -> list:
        return [self.points[i] for i in range(self.n) if mask >> i & 1]

    def subsets(self) -> Iterator[int]:
        return iter(range(self.full + 1))

    def is_open(self, subset: SubsetLike) -> bool:
        return self.mask(subset) in self._opens_set

    def is_closed(self, subset: SubsetLike) -> bool:
        return (self.full ^ self.mask(subset)) in self._opens_set

    def closed_sets(self) -> tuple[int, ...]:
        return self._fact("closed", _closed_sets)

    def point_closures(self) -> tuple[int, ...]:
        """closure_classical_mask(1 << i) for every point i."""
        return self._fact("point_closures", _point_closures)

    # -- monads --------------------------------------------------------------

    def monad_mask(self, i: int) -> int:
        return self._monad[i]

    def monad(self, point) -> frozenset:
        """Smallest open neighbourhood of the point."""
        return self.labels(self._monad[self._index[point]])

    def monad_set_mask(self, mask: int) -> int:
        out = self.full
        for o in self.opens:
            if o & mask == mask:
                out &= o
        return out

    def monad_set(self, subset: SubsetLike) -> frozenset:
        return self.labels(self.monad_set_mask(self.mask(subset)))

    # -- closure and interior ---------------------------------------------------

    def closure_robinson_mask(self, mask: int) -> int:
        out = 0
        for i in range(self.n):
            if self._monad[i] & mask:
                out |= 1 << i
        return out

    def interior_robinson_mask(self, mask: int) -> int:
        out = 0
        for i in range(self.n):
            if self._monad[i] & mask == self._monad[i]:
                out |= 1 << i
        return out

    def closure_robinson(self, subset: SubsetLike) -> frozenset:
        """Points whose monad meets the set."""
        return self.labels(self.closure_robinson_mask(self.mask(subset)))

    def interior_robinson(self, subset: SubsetLike) -> frozenset:
        """Points whose monad fits inside the set."""
        return self.labels(self.interior_robinson_mask(self.mask(subset)))

    def closure_classical_mask(self, mask: int) -> int:
        out = self.full
        for c in self.closed_sets():
            if c & mask == mask:
                out &= c
        return out

    def interior_classical_mask(self, mask: int) -> int:
        out = 0
        for o in self.opens:
            if o & mask == o:
                out |= o
        return out

    def closure_classical(self, subset: SubsetLike) -> frozenset:
        return self.labels(self.closure_classical_mask(self.mask(subset)))

    def interior_classical(self, subset: SubsetLike) -> frozenset:
        return self.labels(self.interior_classical_mask(self.mask(subset)))

    # -- serialization --------------------------------------------------------

    def opens_as_labels(self) -> list[list]:
        return [self.sorted_labels(o) for o in self.opens]

    def to_json(self) -> dict:
        return {"points": list(self.points), "opens": self.opens_as_labels()}

    def describe(self) -> str:
        opens = ",".join("{" + ",".join(str(x) for x in o) + "}" for o in self.opens_as_labels())
        return f"[{','.join(str(p) for p in self.points)}; {opens}]"


def _monads(space: FinSpace) -> tuple[int, ...]:
    """For each point, the intersection of the opens that hold it."""
    monad = []
    for i in range(space.n):
        m = space.full
        bit = 1 << i
        for o in space.opens:
            if o & bit:
                m &= o
        monad.append(m)
    return tuple(monad)


def _closed_sets(space: FinSpace) -> tuple[int, ...]:
    return tuple(sorted(space.full ^ o for o in space.opens))


def _point_closures(space: FinSpace) -> tuple[int, ...]:
    return tuple([space.closure_classical_mask(1 << i) for i in range(space.n)])


def _z_blocks(space: FinSpace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    monad = space._monad

    def component(i):
        # connected component of i under "y lies in the monad of x"
        grown, c = 1 << i, 0
        while grown != c:
            c = grown
            for j, m in enumerate(monad):
                if m & c:
                    grown |= 1 << j | m
        return c

    return _partition_by(space.n, component)


def _disjoint_unions(space: FinSpace) -> tuple[int, ...]:
    """For each open g (in the order of space.opens), the union of the opens
    disjoint from g.  That union is open and holds every open disjoint from g,
    so it is also the largest such open as a number: the first one met in
    descending order."""
    descending = space.opens[::-1]
    return tuple([next(h for h in descending if not g & h) for g in space.opens])


def _check_topology(masks: tuple, full: int) -> tuple:
    seen = set()
    for m in masks:
        if not 0 <= m <= full:
            raise SpaceError(f"open mask {m} out of range 0..{full}")
        if m in seen:
            raise DuplicateOpen(f"open set repeated: {m:b}")
        seen.add(m)
    if 0 not in seen or full not in seen:
        raise MissingEmptyOrFull("the empty set and the full set must both be open")
    for a in masks:
        for b in masks:
            if a >= b:
                continue
            if a | b not in seen:
                raise NotClosedUnderUnion(f"union of {a:b} and {b:b} is not open")
            if a & b not in seen:
                raise NotClosedUnderIntersection(f"intersection of {a:b} and {b:b} is not open")
    return masks


def validate(points: Sequence, opens: Iterable) -> FinSpace:
    """Build a FinSpace from labels and label-sets, enforcing the axioms."""
    pts = tuple(points)
    try:
        index = {p: i for i, p in enumerate(pts)}
    except TypeError:
        raise SpaceError(f"point labels must be hashable: {pts!r}") from None
    masks = []
    for o in opens:
        if isinstance(o, int):
            masks.append(o)
        else:
            m = 0
            for label in o:
                try:
                    m |= 1 << index[label]
                except (KeyError, TypeError):
                    raise SpaceError(f"unknown point {label!r} in an open set") from None
            masks.append(m)
    space = FinSpace(pts, masks)
    printed = {}  # reports key points by their printed labels, so those must differ
    for p in pts:
        if printed.setdefault(str(p), p) != p:
            raise SpaceError(f"point labels {printed[str(p)]!r} and {p!r} both print as {str(p)!r}")
        if _unprintable(str(p)):
            raise SpaceError(f"point label {p!r} has no UTF-8 encoding to print")
    return space


def _unprintable(text: str) -> bool:
    """Whether text holds a surrogate code point, which UTF-8 cannot encode."""
    return not text.isascii() and any("\ud800" <= c <= "\udfff" for c in text)


def space_from_json(obj: dict) -> FinSpace:
    if not isinstance(obj, dict) or "points" not in obj or "opens" not in obj:
        raise SpaceError("space JSON needs 'points' and 'opens' keys")
    points, opens = obj["points"], obj["opens"]
    lists = isinstance(points, list) and isinstance(opens, list)
    if not lists or not all(isinstance(o, (list, int)) for o in opens):
        raise SpaceError("space JSON needs a list of point labels and a list of label lists")
    return validate(points, opens)


# -- property verdicts -----------------------------------------------------------


class PropertyVerdict:
    """Monad-based decision next to its classical oracle, with a witness."""

    __slots__ = ("name", "holds", "oracle", "forms", "witness")

    def __init__(self, name: str, holds: bool, oracle: bool, forms: dict, witness):
        self.name = name
        self.holds = holds
        self.oracle = oracle
        self.forms = forms
        self.witness = witness

    @property
    def agree(self) -> bool:
        return self.holds == self.oracle and all(v == self.holds for v in self.forms.values())

    def to_json(self) -> dict:
        out = {
            "property": self.name,
            "holds": self.holds,
            "oracle": self.oracle,
            "agree": self.agree,
        }
        if self.forms:
            out["forms"] = dict(sorted(self.forms.items()))
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    def __repr__(self):
        return f"PropertyVerdict({self.name}: holds={self.holds}, oracle={self.oracle})"


@lru_cache(maxsize=16)
def _point_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Every (i, j) with i < j < n, in order."""
    return tuple(combinations(range(n), 2))


def _pair_witness(space: FinSpace, i: int, j: int):
    return [str(space.points[i]), str(space.points[j])]


def _separated_by_disjoint_opens(space: FinSpace, a: int, b: int) -> bool:
    """Disjoint opens around the masks a and b (classical separation): some
    open g around a leaves room, in the union of the opens disjoint from it,
    for an open around b."""
    for g, apart in zip(space.opens, space._fact("disjoint", _disjoint_unions)):
        if g & a == a and apart & b == b:
            return True
    return False


def _point_closed_pairs(space: FinSpace):
    """(i, k) for every point i and closed set F = space.closed_sets()[k]
    that misses it."""
    closed = space.closed_sets()
    for i in range(space.n):
        for k, f in enumerate(closed):
            if not f >> i & 1:
                yield i, k


def is_t0(space: FinSpace) -> PropertyVerdict:
    holds, witness = True, None
    robinson = True
    oracle = True
    for i, j in _point_pairs(space.n):
        mi, mj = space._monad[i], space._monad[j]
        if mi == mj:
            holds = False
            witness = witness or _pair_witness(space, i, j)
        if (mi >> j & 1) and (mj >> i & 1):
            robinson = False
        some_open = any(bool(o >> i & 1) != bool(o >> j & 1) for o in space.opens)
        if not some_open:
            oracle = False
    return PropertyVerdict("t0", holds, oracle, {"robinson_form": robinson}, witness)


def is_t1(space: FinSpace) -> PropertyVerdict:
    holds, witness = True, None
    robinson = True
    oracle = all(c == 1 << i for i, c in enumerate(space.point_closures()))
    for i, j in _point_pairs(space.n):
        mi, mj = space._monad[i], space._monad[j]
        comparable = (mi | mj == mj) or (mj | mi == mi)
        if comparable:
            holds = False
            witness = witness or _pair_witness(space, i, j)
        if (mj >> i & 1) or (mi >> j & 1):
            robinson = False
    return PropertyVerdict("t1", holds, oracle, {"robinson_form": robinson}, witness)


def is_t2(space: FinSpace) -> PropertyVerdict:
    holds, witness = True, None
    oracle = True
    for i, j in _point_pairs(space.n):
        if space._monad[i] & space._monad[j]:
            holds = False
            witness = witness or _pair_witness(space, i, j)
        if not _separated_by_disjoint_opens(space, 1 << i, 1 << j):
            oracle = False
    return PropertyVerdict("t2", holds, oracle, {}, witness)


def is_weakly_hausdorff(space: FinSpace) -> PropertyVerdict:
    holds, witness = True, None
    for i, j in _point_pairs(space.n):
        mi, mj = space._monad[i], space._monad[j]
        if mi != mj and mi & mj:
            holds = False
            witness = witness or _pair_witness(space, i, j)
    # classical reading: inside any open neighbourhood, the centre point is
    # separated from every point outside it; each such point is tested once
    oracle = True
    for i in range(space.n):
        outside = 0
        for g in space.opens:
            if g >> i & 1:
                outside |= space.full ^ g
        for j in range(space.n):
            if outside >> j & 1 and not _separated_by_disjoint_opens(space, 1 << i, 1 << j):
                oracle = False
    return PropertyVerdict("weakly_hausdorff", holds, oracle, {}, witness)


def is_regular(space: FinSpace) -> PropertyVerdict:
    holds, witness = True, None
    closed, mu = space.closed_sets(), space._fact("closed_monads", _closed_monads)
    for i, k in _point_closed_pairs(space):
        if space._monad[i] & mu[k]:
            holds = False
            witness = witness or [str(space.points[i]), space.sorted_labels(closed[k])]
    point_form = True
    for i in range(space.n):
        for j in range(space.n):
            if not space._monad[j] >> i & 1:
                if space._monad[i] & space._monad[j]:
                    point_form = False
    oracle = all(
        _separated_by_disjoint_opens(space, 1 << i, closed[k])
        for i, k in _point_closed_pairs(space)
        if closed[k]
    )
    return PropertyVerdict("regular", holds, oracle, {"point_form": point_form}, witness)


def _closed_monads(space: FinSpace) -> tuple[int, ...]:
    """The monad of each closed set, aligned with space.closed_sets()."""
    return tuple([space.monad_set_mask(f) for f in space.closed_sets()])


def _disjoint_closed_pairs(space: FinSpace) -> tuple[tuple[int, int], ...]:
    """(k, l) for every k <= l whose closed sets closed_sets()[k] and [l] are
    disjoint, in order."""
    closed = space.closed_sets()
    return tuple([(k, l) for k, a in enumerate(closed) for l in range(k, len(closed)) if not a & closed[l]])


def _classically_normal(space: FinSpace) -> bool:
    """Disjoint nonempty closed sets have disjoint open neighbourhoods."""
    closed = space.closed_sets()
    return all(
        _separated_by_disjoint_opens(space, closed[k], closed[l])
        for k, l in space._fact("disjoint_closed", _disjoint_closed_pairs)
        if closed[k] and closed[l]
    )


def is_normal(space: FinSpace) -> PropertyVerdict:
    holds, witness = True, None
    closed, mu = space.closed_sets(), space._fact("closed_monads", _closed_monads)
    for k, l in space._fact("disjoint_closed", _disjoint_closed_pairs):
        if mu[k] & mu[l]:
            holds = False
            witness = witness or [space.sorted_labels(closed[k]), space.sorted_labels(closed[l])]
    oracle = space._fact("classically_normal", _classically_normal)  # shared with is_z_normal
    return PropertyVerdict("normal", holds, oracle, {}, witness)


# -- zero-set blocks ---------------------------------------------------------------


class ZBlockPartition:
    """Connected components of the relation "y lies in the monad of x".

    Every continuous rational-valued function is constant on each block, and
    every union of blocks is clopen, hence a zero set; so these blocks carry
    the zero-set monads.
    """

    __slots__ = ("space", "blocks", "block_of")

    def __init__(self, space: FinSpace):
        self.space = space
        self.blocks, self.block_of = space._fact("zblocks", _z_blocks)

    def block_mask(self, i: int) -> int:
        return self.blocks[self.block_of[i]]

    def mu_z_set(self, mask: int) -> int:
        out = 0
        for b in self.blocks:
            if b & mask:
                out |= b
        return out

    def zero_sets(self) -> Iterator[int]:
        """All unions of blocks (each is the zero set of a continuous function)."""
        k = len(self.blocks)
        for choice in range(1 << k):
            m = 0
            for t in range(k):
                if choice >> t & 1:
                    m |= self.blocks[t]
            yield m

    def indicator(self, block_index: int) -> tuple:
        """The 0/1 indicator function of one block, as values by point index."""
        mask = self.blocks[block_index]
        return tuple([mask >> i & 1 for i in range(self.space.n)])


def z_partition(space: FinSpace) -> ZBlockPartition:
    return ZBlockPartition(space)


def _closed_mu_z(space: FinSpace) -> tuple[int, ...]:
    """The z-monad of each closed set, aligned with space.closed_sets()."""
    mu_z = z_partition(space).mu_z_set
    return tuple([mu_z(f) for f in space.closed_sets()])


def _block_indicators(space: FinSpace, zp: ZBlockPartition) -> list[tuple[tuple, bool]]:
    """Each block's 0/1 indicator, with whether it is continuous."""
    return [
        (ind, _discontinuity(space, ind) is None)
        for ind in map(zp.indicator, range(len(zp.blocks)))
    ]


def is_functionally_separated(space: FinSpace) -> PropertyVerdict:
    zp = z_partition(space)
    indicators = _block_indicators(space, zp)
    holds, witness = True, None
    oracle = True
    for i, j in _point_pairs(space.n):
        if zp.block_of[i] == zp.block_of[j]:
            holds = False
            witness = witness or _pair_witness(space, i, j)
        # oracle: an explicit 0/1 continuous function taking different values
        ind, continuous = indicators[zp.block_of[j]]
        if not (continuous and ind[i] != ind[j]):
            oracle = False
    return PropertyVerdict("functionally_separated", holds, oracle, {}, witness)


def is_completely_regular(space: FinSpace) -> PropertyVerdict:
    zp = z_partition(space)
    indicators = _block_indicators(space, zp)
    holds, witness = True, None
    oracle = True
    closed, mu_z = space.closed_sets(), space._fact("closed_mu_z", _closed_mu_z)
    for i, k in _point_closed_pairs(space):
        f = closed[k]
        if zp.block_mask(i) & mu_z[k]:
            holds = False
            witness = witness or [str(space.points[i]), space.sorted_labels(f)]
        if f:
            ind, continuous = indicators[zp.block_of[i]]
            ok = (
                continuous
                and ind[i] == 1
                and all(ind[j] == 0 for j in range(space.n) if f >> j & 1)
            )
            if not ok:
                oracle = False
    return PropertyVerdict("completely_regular", holds, oracle, {}, witness)


def is_z_normal(space: FinSpace) -> PropertyVerdict:
    """Normality phrased through zero-set monads; its oracle is plain normality."""
    holds, witness = True, None
    closed, mu_z = space.closed_sets(), space._fact("closed_mu_z", _closed_mu_z)
    for k, l in space._fact("disjoint_closed", _disjoint_closed_pairs):
        if mu_z[k] & mu_z[l]:
            holds = False
            witness = witness or [space.sorted_labels(closed[k]), space.sorted_labels(closed[l])]
    oracle = space._fact("classically_normal", _classically_normal)  # shared with is_normal
    return PropertyVerdict("z_normal", holds, oracle, {}, witness)


def _discontinuity(space: FinSpace, values: Sequence) -> Optional[int]:
    """Index of the first point on whose monad `values` (one per point index)
    is not constant; None when the function is continuous."""
    for i in range(space.n):
        vi = values[i]
        m = space._monad[i]
        for j in range(space.n):
            if m >> j & 1 and values[j] != vi:
                return i
    return None


# -- soberness -------------------------------------------------------------------


def irreducible_closed_sets(space: FinSpace) -> list[int]:
    """Nonempty closed sets not expressible as a union of two proper closed subsets."""
    closed = space.closed_sets()
    out = []
    for a in closed:
        if a and _is_irreducible_closed(space, a, closed):
            out.append(a)
    return out


def _is_irreducible_closed(space: FinSpace, a: int, closed: Sequence[int]) -> bool:
    if not a:
        return False
    # the union is symmetric, and a part never joins itself to `a`
    parts = [c for c in closed if c & a == c and c != a]
    for x, y in combinations(parts, 2):
        if x | y == a:
            return False
    return True


def is_downward_directed(space: FinSpace, subset: SubsetLike) -> bool:
    """Every two members have a common lower bound inside the set (nonempty)."""
    mask = space.mask(subset)
    if not mask:
        return False
    # the relation is symmetric, and a member is its own lower bound
    monads = [space._monad[i] for i in range(space.n) if mask >> i & 1]
    for x, y in combinations(monads, 2):
        meet = x & y
        if not any(m | meet == meet for m in monads):
            return False
    return True


def _smallest_element(space: FinSpace, mask: int) -> Optional[int]:
    members = [i for i in range(space.n) if mask >> i & 1]
    for i in members:
        if all(space._monad[i] | space._monad[j] == space._monad[j] for j in members):
            return i
    return None


def is_sober(space: FinSpace) -> PropertyVerdict:
    closed = space.closed_sets()
    # each route decides every closed set once; both lists keep the order of closed
    directed = [a for a in closed if a and is_downward_directed(space, a)]
    irreducible = irreducible_closed_sets(space)
    holds, witness = True, None
    for a in directed:
        if _smallest_element(space, a) is None:
            holds = False
            witness = witness or space.sorted_labels(a)
    oracle = True
    closures = space.point_closures()
    for a in irreducible:
        if not any(closures[i] == a for i in range(space.n) if a >> i & 1):
            oracle = False
            witness = witness or space.sorted_labels(a)
    # the irreducibility and directedness routes must also coincide setwise
    equiv = directed == irreducible
    # "x generates A", for x in A, read two ways: the closure of x is A, and
    # the monad of x is the intersection of the monads of A's members
    forms_agree = True
    for a in closed:
        members = [i for i in range(space.n) if a >> i & 1]
        inter = space.full
        for i in members:
            inter &= space._monad[i]
        if any((closures[i] == a) != (space._monad[i] == inter) for i in members):
            forms_agree = False
    return PropertyVerdict(
        "sober",
        holds,
        oracle,
        {"irreducible_iff_directed": equiv, "generic_point_forms_agree": forms_agree},
        witness,
    )


PROPERTY_CHECKS = {
    "t0": is_t0,
    "t1": is_t1,
    "t2": is_t2,
    "weakly_hausdorff": is_weakly_hausdorff,
    "regular": is_regular,
    "normal": is_normal,
    "functionally_separated": is_functionally_separated,
    "completely_regular": is_completely_regular,
    "z_normal": is_z_normal,
    "sober": is_sober,
}


def _holds(space: FinSpace, name: str) -> bool:
    """Whether the space has the property: the verdict recorded on it, else
    PROPERTY_CHECKS[name] decides now and its verdict is recorded."""
    return space._fact(name, lambda s: PROPERTY_CHECKS[name](s).holds)


def check_properties(space: FinSpace, names: Optional[Iterable[str]] = None) -> list[PropertyVerdict]:
    names = list(names) if names is not None else list(PROPERTY_CHECKS)
    out = []
    for name in names:
        try:
            out.append(PROPERTY_CHECKS[name](space))
        except KeyError:
            raise SpaceError(f"unknown property {name!r}") from None
    return out


# -- compactness identities -----------------------------------------------------


def compactness_identities(space: FinSpace) -> dict:
    """Union-of-monads identities satisfied by every subset of a finite space,
    checked on all 2^n subsets.  Raises AuditFailure if an identity fails (it
    never should).
    """
    for a in space.subsets():
        union = 0
        for i in range(space.n):
            if a >> i & 1:
                union |= space._monad[i]
        mu_a = space.monad_set_mask(a)
        star_inside = a & union == a
        if not (union == mu_a and star_inside):
            raise AuditFailure(
                "compactness identity failed", witness=space.sorted_labels(a)
            )
    return {"checked_subsets": space.full + 1, "failures": []}


# -- enumeration -------------------------------------------------------------------


EXHAUSTIVE_LIMIT = 5


def enumerate_topologies(n: int) -> Iterator[FinSpace]:
    """Every labeled topology on n points, exactly once.

    Topologies on a finite set correspond to preorders whose relation rows
    are the monads; the opens are the unions of rows.  Rows are placed from
    the last point to the first, each over the masks that hold its point in
    increasing order, and kept only if "j in row i => row j inside row i"
    holds both ways against every row already placed: that is transitivity.
    Spaces come out in lexicographic order of (rows[n-1], ..., rows[0]).
    """
    if n < 1:
        raise SpaceError("need at least one point")
    if n > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"exhaustive enumeration is capped at {EXHAUSTIVE_LIMIT} points")
    pts = tuple(str(i) for i in range(n))
    rows = [0] * n

    def place(i: int) -> Iterator[FinSpace]:
        if i < 0:
            opens = {0}
            for row in rows:
                opens |= {o | row for o in opens}
            yield FinSpace(pts, opens, _validated=True)
            return
        bit = 1 << i
        for r in range(bit, 1 << n):
            if r & bit and not any(
                (r >> j & 1 and rows[j] | r != r) or (rows[j] & bit and rows[j] | r != rows[j])
                for j in range(i + 1, n)
            ):
                rows[i] = r
                yield from place(i - 1)

    yield from place(n - 1)


def brute_force_topologies(n: int) -> Iterator[FinSpace]:
    """Independent oracle: filter every family of subsets by the axioms."""
    if n > 4:
        raise TooLarge("brute force is unreasonable beyond 4 points")
    pts = tuple(str(i) for i in range(n))
    full = (1 << n) - 1
    others = [m for m in range(full + 1) if m not in (0, full)]
    for choice in range(1 << len(others)):
        fam = {0, full} | {m for b, m in enumerate(others) if choice >> b & 1}
        if all((a | b) in fam and (a & b) in fam for a in fam for b in fam):
            yield FinSpace(pts, sorted(fam), _validated=True)


# -- continuous maps ------------------------------------------------------------------


def is_continuous(f: dict, src: FinSpace, dst: FinSpace) -> bool:
    """Preimage-of-open-is-open; f maps every source point (else NotTotal)."""
    try:
        images = [dst._index[f[p]] for p in src.points]
    except KeyError as exc:
        raise NotTotal(f"map is not total on the source points: {exc}") from None
    for o in dst.opens:
        pre = 0
        for i, img in enumerate(images):
            if o >> img & 1:
                pre |= 1 << i
        if not src.is_open(pre):
            return False
    return True


def continuous_maps(src: FinSpace, dst: FinSpace) -> Iterator[dict]:
    """All continuous maps, as point -> point dicts, in lexicographic order."""
    import itertools

    for combo in itertools.product(range(dst.n), repeat=src.n):
        f = {src.points[i]: dst.points[combo[i]] for i in range(src.n)}
        if is_continuous(f, src, dst):
            yield f


# -- specialization preorder and DOT export ----------------------------------------


def dot_specialization(space: FinSpace) -> str:
    """DOT digraph of the monad-inclusion order, transitively reduced.

    Points with equal monads form cycles; distinct monad classes get the
    Hasse edges of the induced order on classes.
    """
    masks, _ = _partition_by(space.n, space._monad.__getitem__)
    classes = [[i for i in range(space.n) if m >> i & 1] for m in masks]
    keys = [space._monad[cls[0]] for cls in classes]

    def class_le(a: int, b: int) -> bool:
        return keys[a] | keys[b] == keys[b]

    k = len(classes)
    hasse = []
    for a in range(k):
        for b in range(k):
            if a == b or not class_le(a, b):
                continue
            if any(
                c not in (a, b) and class_le(a, c) and class_le(c, b) for c in range(k)
            ):
                continue
            hasse.append((a, b))
    ids = ['"' + str(p).replace("\\", "\\\\").replace('"', '\\"') + '"' for p in space.points]
    lines = ["digraph specialization {", *(f"  {i};" for i in ids)]
    for cls in classes:
        if len(cls) > 1:
            ring = cls + [cls[0]]
            for u, v in zip(ring, ring[1:]):
                lines.append(f"  {ids[u]} -> {ids[v]};")
    for a, b in sorted(hasse):
        lines.append(f"  {ids[classes[a][0]]} -> {ids[classes[b][0]]};")
    lines.append("}")
    return "\n".join(lines)


# -- theorem audit -----------------------------------------------------------------


def _star_space(space: FinSpace) -> FinSpace:
    """The extension of the space under the star map; identical at finite scale.

    It is the space rebuilt from its own labels, so the two star keys of
    theorem_audit can catch one fault only: a label/mask round trip
    (opens_as_labels, then mask) that does not give the opens back."""
    return FinSpace(space.points, [space.mask(o) for o in space.opens_as_labels()], _validated=True)


def theorem_audit(spaces: Iterable[FinSpace]) -> dict:
    """Implication and identity checks across a set of spaces.

    Every entry is asserted except `finite_star_space_t0`, which is reported
    descriptively: a finite space need not be T0, so candidate counterexamples
    to that reading are listed without failing the audit.
    """
    checks = {
        "t0_and_weakly_hausdorff_implies_hausdorff": [],
        "t0_and_regular_implies_hausdorff": [],
        "hausdorff_implies_regular": [],
        "regular_implies_normal": [],
        "hausdorff_implies_sober": [],
        "star_space_normal_iff_normal": [],
        "star_space_regular_iff_all_opens_clopen": [],
        "irreducible_iff_downward_directed": [],
        "every_finite_space_sober": [],
        "monad_oracle_agreement": [],
    }
    descriptive = {"finite_star_space_t0": []}
    count = 0
    for space in spaces:
        count += 1
        verdicts = {name: PROPERTY_CHECKS[name](space) for name in PROPERTY_CHECKS}
        named = []  # (list, suffix) for each entry naming this space, in check order
        for name, v in verdicts.items():
            space._facts[name] = v.holds  # what _holds reads in the hull audits
            if not v.agree:
                named.append((checks["monad_oracle_agreement"], f":{v.name}"))
        t0 = verdicts["t0"].holds
        wh = verdicts["weakly_hausdorff"].holds
        t2 = verdicts["t2"].holds
        reg = verdicts["regular"].holds
        nor = verdicts["normal"].holds
        sob = verdicts["sober"].holds
        if t0 and wh and not t2:
            named.append((checks["t0_and_weakly_hausdorff_implies_hausdorff"], ""))
        if t0 and reg and not t2:
            named.append((checks["t0_and_regular_implies_hausdorff"], ""))
        if t2 and not reg:
            named.append((checks["hausdorff_implies_regular"], ""))
        if reg and not nor:
            named.append((checks["regular_implies_normal"], ""))
        if t2 and not sob:
            named.append((checks["hausdorff_implies_sober"], ""))
        if not sob:
            named.append((checks["every_finite_space_sober"], ""))
        # the star space equals the space, so its verdicts are the ones above
        star_is_space = _star_space(space) == space
        if not star_is_space:
            named.append((checks["star_space_normal_iff_normal"], ""))
        if not star_is_space or reg != all(space.is_closed(o) for o in space.opens):
            named.append((checks["star_space_regular_iff_all_opens_clopen"], ""))
        # is_sober decided this equivalence; the closed sets are walked only to name failures
        if not verdicts["sober"].forms["irreducible_iff_directed"]:
            closed = space.closed_sets()
            for a in closed:
                if _is_irreducible_closed(space, a, closed) != (
                    bool(a) and is_downward_directed(space, a)
                ):
                    named.append(
                        (checks["irreducible_iff_downward_directed"], f":{space.sorted_labels(a)}")
                    )
        if not t0:
            named.append((descriptive["finite_star_space_t0"], ""))
        if named:  # the description is built only for a space some list names
            desc = space.describe()
            for entries, suffix in named:
                entries.append(desc + suffix)
    report = {
        "spaces_checked": count,
        "asserted": {
            name: {"counterexamples": ces, "passed": not ces} for name, ces in checks.items()
        },
        "descriptive": {
            "finite_star_space_t0": {
                "note": (
                    "a finite space whose star space is T0 must itself be T0; "
                    "the converse reading 'finite implies T0' fails on the spaces below"
                ),
                "counterexample_candidates": descriptive["finite_star_space_t0"],
            }
        },
    }
    report["all_passed"] = all(v["passed"] for v in report["asserted"].values())
    return report
