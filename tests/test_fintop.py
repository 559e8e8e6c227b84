import gc
import hashlib
import json
import time

import pytest

from nsatop import cli
from nsatop import fintop as F


def space(points, opens):
    return F.validate(points, opens)


SIERP = space(["a", "b"], [[], ["a"], ["a", "b"]])
IND2 = space(["a", "b"], [[], ["a", "b"]])
FAN3 = space(["0", "1", "2"], [[], ["0"], ["0", "1"], ["0", "2"], ["0", "1", "2"]])
DISC2 = space(["a", "b"], [[], ["a"], ["b"], ["a", "b"]])
DISC3 = space(
    ["a", "b", "c"],
    [[], ["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"], ["a", "b", "c"]],
)
PART3 = space(["a", "b", "c"], [[], ["a"], ["b", "c"], ["a", "b", "c"]])


def all_spaces(max_n):
    for n in range(1, max_n + 1):
        yield from F.enumerate_topologies(n)


class TestValidate:
    def test_sierpinski_valid(self):
        assert SIERP.n == 2 and len(SIERP.opens) == 3

    def test_missing_full(self):
        with pytest.raises(F.MissingEmptyOrFull):
            space(["a", "b"], [[], ["a"], ["b"]])

    def test_missing_empty(self):
        with pytest.raises(F.MissingEmptyOrFull):
            space(["a", "b"], [["a"], ["a", "b"]])

    def test_not_closed_under_union(self):
        with pytest.raises(F.NotClosedUnderUnion):
            space(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b", "c"]])

    def test_not_closed_under_intersection(self):
        with pytest.raises(F.NotClosedUnderIntersection):
            space(["a", "b", "c"], [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]])

    def test_duplicate_open(self):
        with pytest.raises(F.DuplicateOpen):
            F.FinSpace(("a", "b"), (0, 1, 1, 3))

    def test_unknown_point(self):
        with pytest.raises(F.SpaceError):
            space(["a"], [[], ["z"], ["a"]])

    def test_labels_that_print_alike(self):
        # reports key points by their printed labels, so the library route
        # refuses what the JSON route refuses
        for points in ([1, "1"], [(1, 2), "(1, 2)"]):
            with pytest.raises(F.SpaceError, match="both print as"):
                space(points, [[], points])

    def test_json_roundtrip(self):
        assert F.space_from_json(FAN3.to_json()) == FAN3


class TestMonads:
    def test_fan_example(self):
        assert FAN3.monad("0") == {"0"}
        assert FAN3.monad("1") == {"0", "1"}
        assert FAN3.monad("2") == {"0", "2"}

    def test_monad_of_set(self):
        assert FAN3.monad_set(["1", "2"]) == {"0", "1", "2"}
        assert FAN3.monad_set([]) == set()

    def test_monad_laws(self):
        # containment, monotonicity, idempotence, for every subset pair
        for s in all_spaces(3):
            for a in s.subsets():
                mu_a = s.monad_set_mask(a)
                assert a & mu_a == a
                assert s.monad_set_mask(mu_a) == mu_a
                for b in s.subsets():
                    if a & b == a:
                        assert mu_a & s.monad_set_mask(b) == mu_a

    def test_monad_membership_iff_inclusion(self):
        for s in all_spaces(3):
            for i in range(s.n):
                for j in range(s.n):
                    member = bool(s.monad_mask(i) >> j & 1)
                    included = s.monad_mask(j) | s.monad_mask(i) == s.monad_mask(i)
                    assert member == included

    def test_monads_are_open(self):
        for s in all_spaces(4):
            for i in range(s.n):
                assert s.is_open(s.monad_mask(i))


class TestClosureInterior:
    def test_fan_examples(self):
        assert FAN3.closure_robinson(["1"]) == {"1"}
        assert FAN3.closure_robinson(["0"]) == {"0", "1", "2"}
        assert FAN3.interior_robinson(["1", "2"]) == set()

    def test_equal_to_classical_everywhere(self):
        for s in all_spaces(3):
            for m in s.subsets():
                assert s.closure_robinson_mask(m) == s.closure_classical_mask(m)
                assert s.interior_robinson_mask(m) == s.interior_classical_mask(m)


class TestSeparationExamples:
    def test_t0(self):
        assert F.is_t0(SIERP).holds
        v = F.is_t0(IND2)
        assert not v.holds and v.witness == ["a", "b"]
        assert F.is_t0(FAN3).holds

    def test_t1(self):
        assert F.is_t1(DISC3).holds
        assert not F.is_t1(SIERP).holds
        assert not F.is_t1(FAN3).holds

    def test_t2_and_weak(self):
        assert F.is_t2(DISC3).holds
        v2 = F.is_t2(IND2)
        assert not v2.holds
        assert F.is_weakly_hausdorff(IND2).holds
        assert not F.is_t2(SIERP).holds
        assert not F.is_weakly_hausdorff(SIERP).holds

    def test_regular(self):
        assert not F.is_regular(SIERP).holds
        assert F.is_regular(PART3).holds
        assert F.is_regular(DISC3).holds

    def test_normal(self):
        assert F.is_normal(SIERP).holds
        assert F.is_normal(DISC3).holds
        custom = space(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]])
        assert F.is_normal(custom).holds
        assert not F.is_normal(FAN3).holds

    def test_z_properties(self):
        zp = F.z_partition(SIERP)
        assert len(zp.blocks) == 1
        assert not F.is_functionally_separated(SIERP).holds
        assert not F.is_completely_regular(SIERP).holds
        assert all(
            F.PROPERTY_CHECKS[p](DISC3).holds
            for p in ("functionally_separated", "completely_regular", "z_normal")
        )
        assert not F.is_functionally_separated(FAN3).holds

    def test_sober(self):
        assert F.is_sober(FAN3).holds
        assert F.is_sober(SIERP).holds

    def test_fan_generic_point_counterexample(self):
        # the intersection of the monads over {1,2} is the monad of 0, yet 0
        # is outside the set, so membership of the candidate point matters
        inter = FAN3.monad("1") & FAN3.monad("2")
        assert inter == FAN3.monad("0")
        assert "0" not in {"1", "2"}


class TestZeroBlocks:
    def test_blocks_are_clopen(self):
        for s in all_spaces(4):
            zp = F.z_partition(s)
            for blk in zp.blocks:
                assert s.is_open(blk) and s.is_closed(blk)

    def test_blocks_are_the_minimal_nonempty_clopen_sets(self):
        for s in all_spaces(4):
            zp = F.z_partition(s)
            clopen = [m for m in s.opens if m and s.is_closed(m)]
            minimal = {m for m in clopen if not any(c != m and c & m == c for c in clopen)}
            assert set(zp.blocks) == minimal and len(zp.blocks) == len(minimal)
            assert all(zp.blocks[zp.block_of[i]] >> i & 1 for i in range(s.n))

    def test_continuous_functions_constant_on_blocks(self):
        for s in all_spaces(3):
            zp = F.z_partition(s)
            for k in range(len(zp.blocks)):
                ind = zp.indicator(k)
                assert F._discontinuity(s, ind) is None

    def test_indicator_is_integers_by_point_index(self):
        for s in all_spaces(3):
            zp = F.z_partition(s)
            for k, block in enumerate(zp.blocks):
                ind = zp.indicator(k)
                assert all(type(v) is int for v in ind)
                assert ind == tuple(block >> i & 1 for i in range(s.n))

    def test_zero_sets_are_block_unions(self):
        zp = F.z_partition(PART3)
        zs = set(zp.zero_sets())
        assert 0 in zs and PART3.full in zs
        assert len(zs) == 1 << len(zp.blocks)


def _weakly_hausdorff_by_triple_loop(s) -> bool:
    # every point j outside an open g around i has disjoint opens around i and j
    for i in range(s.n):
        for g in s.opens:
            if not g >> i & 1:
                continue
            for j in range(s.n):
                if g >> j & 1:
                    continue
                if not any(
                    u >> i & 1 and v >> j & 1 and not u & v for u in s.opens for v in s.opens
                ):
                    return False
    return True


class TestWeaklyHausdorffOracle:
    # caught mutant: intersecting the complements of the opens around a point
    # where they should be united
    def test_oracle_is_the_triple_loop_reading(self):
        verdicts = [F.is_weakly_hausdorff(s).oracle for s in all_spaces(4)]
        assert verdicts == [_weakly_hausdorff_by_triple_loop(s) for s in all_spaces(4)]
        assert len(verdicts) == 389 and 0 < sum(verdicts) < 389


# (verdicts, sha256 over json.dumps(v.to_json(), sort_keys=True) of each
# check_properties verdict in enumeration order) on every space with at most
# n points; a change made by design to a verdict or a witness records anew
VERDICT_DIGESTS = {
    4: (3890, "ec0d613deddd045b2b840d403918ba3811b574364c1a9783c15b091e9d640203"),
    5: (73310, "e665e9f1ec4def0bb0faf3583c47aff085753db0967aef56865967fa93051c2e"),
}


def verdict_digest(max_n):
    digest, count = hashlib.sha256(), 0
    for s in all_spaces(max_n):
        for v in F.check_properties(s):
            digest.update(json.dumps(v.to_json(), sort_keys=True).encode())
            count += 1
    return count, digest.hexdigest()


class TestVerdicts:
    def test_every_verdict_and_witness_up_to_four_points(self):
        assert verdict_digest(4) == VERDICT_DIGESTS[4]

    # caught mutant: a route that scans every pair after its answer is known
    def test_a_route_stops_at_its_first_failure(self, monkeypatch):
        calls = []
        separated = F._separated_by_disjoint_opens
        monkeypatch.setattr(F, "_separated_by_disjoint_opens", lambda *a: calls.append(a[1:]) or separated(*a))
        v = F.is_t2(space(["a", "b", "c", "d"], [[], ["a", "b", "c", "d"]]))
        assert (v.holds, v.oracle, v.witness) == (False, False, ["a", "b"])
        assert calls == [(0b1, 0b10)]


class TestDisjointMonadSeparation:
    def test_monads_disjoint_iff_open_separation(self):
        # set form over all subset pairs of all spaces with up to 3 points
        for s in all_spaces(3):
            for a in s.subsets():
                for b in s.subsets():
                    monadic = not (s.monad_set_mask(a) & s.monad_set_mask(b))
                    classical = F._separated_by_disjoint_opens(s, a, b)
                    assert monadic == classical


class TestSober:
    def test_irreducible_iff_downward_directed(self):
        for s in all_spaces(4):
            closed = s.closed_sets()
            for a in closed:
                irr = F._is_irreducible_closed(s, a, closed)
                dd = bool(a) and F.is_downward_directed(s, a)
                assert irr == dd

    def test_unordered_pair_scans_equal_ordered_pair_definitions(self):
        def directed(s, mask):
            members = [i for i in range(s.n) if mask >> i & 1]
            return bool(members) and all(
                any(s.monad_mask(k) & ~(s.monad_mask(i) & s.monad_mask(j)) == 0 for k in members)
                for i in members
                for j in members
            )

        def irreducible(s, a, closed):
            parts = [c for c in closed if c & a == c and c != a]
            return bool(a) and not any(x | y == a for x in parts for y in parts)

        spaces = list(all_spaces(4))
        assert len(spaces) == 389
        for s in spaces:
            closed = s.closed_sets()
            for mask in s.subsets():
                assert F.is_downward_directed(s, mask) == directed(s, mask)
                assert F._is_irreducible_closed(s, mask, closed) == irreducible(s, mask, closed)

    def test_every_finite_space_is_sober(self):
        for s in all_spaces(4):
            v = F.is_sober(s)
            assert v.holds and v.oracle and v.agree

    def test_irreducible_sets_of_fan_space(self):
        irr = F.irreducible_closed_sets(FAN3)
        labels = sorted(sorted(FAN3.sorted_labels(m)) for m in irr)
        assert labels == [["0", "1", "2"], ["1"], ["2"]]

    def test_empty_set_not_irreducible_nor_directed(self):
        assert 0 not in F.irreducible_closed_sets(FAN3)
        assert not F.is_downward_directed(FAN3, 0)


class TestCompactness:
    def test_fan_example(self):
        got = FAN3.monad("1") | FAN3.monad("2")
        assert got == {"0", "1", "2"} == FAN3.monad_set(["1", "2"])

    def test_identities_hold_everywhere(self):
        for s in all_spaces(4):
            report = F.compactness_identities(s)
            assert report["failures"] == []

    def test_trivial_subsets(self):
        report = F.compactness_identities(IND2)
        assert report["checked_subsets"] == 4

    def test_every_subset_past_five_points(self):
        chain6 = F.FinSpace(tuple("abcdef"), [(1 << k) - 1 for k in range(7)])
        assert F.compactness_identities(chain6) == {"checked_subsets": 64, "failures": []}


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in F.enumerate_topologies(1)) == 1
        assert sum(1 for _ in F.enumerate_topologies(2)) == 4
        assert sum(1 for _ in F.enumerate_topologies(3)) == 29

    def test_brute_force_agreement(self):
        for n in (1, 2, 3):
            fast = {s.opens for s in F.enumerate_topologies(n)}
            slow = {s.opens for s in F.brute_force_topologies(n)}
            assert fast == slow

    def test_too_large(self):
        with pytest.raises(F.TooLarge):
            list(F.enumerate_topologies(6))

    def test_all_results_valid(self):
        for s in F.enumerate_topologies(3):
            F.FinSpace(s.points, s.opens)  # re-validate from scratch

    def test_no_duplicates(self):
        seen = set()
        for s in F.enumerate_topologies(4):
            assert s.opens not in seen
            seen.add(s.opens)

    def test_order_matches_relation_scan(self):
        # reference: every reflexive relation in pattern order, higher rows
        # the more significant bits, keeping the transitive ones
        for n in (1, 2, 3, 4):
            offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
            want = []
            for pattern in range(1 << len(offdiag)):
                rows = [1 << i for i in range(n)]
                for b, (i, j) in enumerate(offdiag):
                    if pattern >> b & 1:
                        rows[i] |= 1 << j
                if all(rows[j] | r == r for r in rows for j in range(n) if r >> j & 1):
                    opens = [
                        u for u in range(1 << n)
                        if all(rows[i] | u == u for i in range(n) if u >> i & 1)
                    ]
                    want.append(tuple(opens))
            assert [s.opens for s in F.enumerate_topologies(n)] == want

    def test_five_points(self):
        start = time.monotonic()
        spaces = list(F.enumerate_topologies(5))
        assert len(spaces) == len({s.opens for s in spaces}) == 6942  # OEIS A000798
        for s in spaces:
            assert F.FinSpace(s.points, s.opens) == s  # re-validate from scratch
        keys = [tuple(s.monad_mask(i) for i in reversed(range(5))) for s in spaces]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert time.monotonic() - start <= 1.0


class TestContinuousMaps:
    def test_identity_continuous(self):
        for s in (SIERP, FAN3, DISC3):
            ident = {p: p for p in s.points}
            assert F.is_continuous(ident, s, s)

    def test_example_not_continuous(self):
        f = {"a": "a", "b": "b"}
        assert not F.is_continuous(f, SIERP, DISC2)

    def test_constant_maps_continuous(self):
        for s in (SIERP, FAN3):
            for q in DISC3.points:
                f = {p: q for p in s.points}
                assert F.is_continuous(f, s, DISC3)

    def test_not_total(self):
        with pytest.raises(F.NotTotal):
            F.is_continuous({"a": "a"}, SIERP, SIERP)

    def test_composition_closure(self):
        maps1 = list(F.continuous_maps(SIERP, FAN3))
        maps2 = list(F.continuous_maps(FAN3, DISC2))
        for f in maps1:
            for g in maps2:
                comp = {p: g[f[p]] for p in SIERP.points}
                assert F.is_continuous(comp, SIERP, DISC2)

    def test_map_count_into_sierpinski(self):
        # maps X -> Sierpinski correspond to open subsets (preimage of {a})
        for s in (FAN3, DISC3, PART3):
            count = sum(1 for _ in F.continuous_maps(s, SIERP))
            assert count == len(s.opens)


class TestDot:
    def test_contains_hasse_edges(self):
        text = F.dot_specialization(FAN3)
        assert '"0" -> "1";' in text and '"0" -> "2";' in text
        assert text.startswith("digraph")

    def test_cycle_for_equal_monads(self):
        text = F.dot_specialization(IND2)
        assert '"a" -> "b";' in text and '"b" -> "a";' in text

    def test_transitive_reduction_drops_composite_edge(self):
        chain = space(["a", "b", "c"], [[], ["a"], ["a", "b"], ["a", "b", "c"]])
        text = F.dot_specialization(chain)
        assert '"a" -> "b";' in text and '"b" -> "c";' in text
        assert '"a" -> "c";' not in text

    def test_ids_escape_quote_and_backslash(self):
        chain = space(['"q', "b\\"], [[], ['"q'], ['"q', "b\\"]])
        text = F.dot_specialization(chain)
        assert '  "\\"q";' in text and '  "b\\\\";' in text
        assert '"\\"q" -> "b\\\\";' in text


class TestTheoremAudit:
    def test_audit_passes_up_to_three_points(self):
        report = F.theorem_audit(all_spaces(3))
        assert report["all_passed"]
        assert report["spaces_checked"] == 34

    def test_descriptive_reading_lists_indiscrete_pair(self):
        report = F.theorem_audit([IND2])
        cands = report["descriptive"]["finite_star_space_t0"]["counterexample_candidates"]
        assert len(cands) == 1
        assert not report["asserted"]["monad_oracle_agreement"]["counterexamples"]

    def test_star_space_identity(self):
        star = F._star_space(FAN3)
        assert star == FAN3

    def test_star_keys_catch_a_broken_label_round_trip(self, monkeypatch):
        # the one fault the star keys can see: labels that do not give back the opens
        opens_as_labels = F.FinSpace.opens_as_labels
        monkeypatch.setattr(F.FinSpace, "opens_as_labels", lambda s: opens_as_labels(s)[:-1])
        asserted = F.theorem_audit(all_spaces(3))["asserted"]
        for key in ("star_space_normal_iff_normal", "star_space_regular_iff_all_opens_clopen"):
            assert len(asserted[key]["counterexamples"]) == 34, key


def _components(s):
    """Classes of the equivalence generated by "j lies in the monad of i",
    ordered by smallest member, and each point's class index."""
    label = list(range(s.n))
    changed = True
    while changed:
        changed = False
        for i in range(s.n):
            for j in range(s.n):
                if s.monad_mask(i) >> j & 1 and label[i] != label[j]:
                    label[i] = label[j] = min(label[i], label[j])
                    changed = True
    roots = sorted(set(label))
    blocks = tuple(sum(1 << i for i in range(s.n) if label[i] == r) for r in roots)
    return blocks, tuple(roots.index(r) for r in label)


def _separated_pairwise(s, a, b):
    return any(
        g & a == a and h & b == b and not g & h for g in s.opens for h in s.opens
    )


class TestSpaceFacts:
    """Facts computed on first read and kept equal a direct recomputation,
    and each decider runs once per space in the audit."""

    def test_tables_equal_recomputation(self):
        spaces = list(all_spaces(4))
        assert len(spaces) == 389
        for s in spaces:
            assert s.closed_sets() == tuple(sorted(s.full ^ o for o in s.opens))
            assert s.closed_sets() is s.closed_sets()  # kept, not rebuilt
            zp = F.z_partition(s)
            assert (zp.blocks, zp.block_of) == _components(s)
            assert s.point_closures() == tuple(
                s.closure_classical_mask(1 << i) for i in range(s.n)
            )
            table = s._fact("disjoint", F._disjoint_unions)
            for g, apart in zip(s.opens, table):
                union = 0
                for h in s.opens:
                    if not g & h:
                        union |= h
                assert apart == union
            # every pair of subsets up to 3 points; at 4, the pairs the oracles ask
            closed = s.closed_sets()
            if s.n <= 3:
                pairs = [(a, b) for a in s.subsets() for b in s.subsets()]
            else:
                pairs = [(1 << i, 1 << j) for i in range(s.n) for j in range(s.n)]
                pairs += [(1 << i, f) for i in range(s.n) for f in closed]
                pairs += [(a, b) for a in closed for b in closed]
            for a, b in pairs:
                assert F._separated_by_disjoint_opens(s, a, b) == _separated_pairwise(s, a, b)

    def test_shared_facts_do_not_depend_on_labels(self):
        spaces = list(all_spaces(4))
        F.theorem_audit(spaces)  # reads every kind of fact
        computes = {
            "monads": F._monads,
            "closed": F._closed_sets,
            "point_closures": F._point_closures,
            "zblocks": F._z_blocks,
            "disjoint": F._disjoint_unions,
            "classically_normal": F._classically_normal,
            "closed_monads": F._closed_monads,
            "closed_mu_z": F._closed_mu_z,
            "disjoint_closed": F._disjoint_closed_pairs,
        }
        for name, decide in F.PROPERTY_CHECKS.items():
            computes[name] = lambda s, decide=decide: decide(s).holds
        for s in spaces:
            assert set(s._facts) <= set(computes)  # a one-point space reads no disjoint table
            labels = [f"p{s.n - i}" for i in range(s.n)]
            relabelled = F.FinSpace(labels, s.opens)
            assert relabelled._facts is s._facts
            fresh = F.FinSpace(labels, s.opens)
            object.__setattr__(fresh, "_facts", F._Facts())  # a table of its own
            for key, compute in computes.items():
                assert relabelled._fact(key, compute) == fresh._fact(key, compute), key
            assert [v.holds for v in F.check_properties(relabelled)] == [
                F._holds(fresh, name) for name in F.PROPERTY_CHECKS
            ]

    def test_tables_go_with_their_spaces(self):
        spaces = list(all_spaces(4))
        assert all((s.n, s.opens) in F._FACT_TABLES for s in spaces)
        del spaces
        assert cli.run_full_audit(4)["all_passed"]
        gc.collect()
        # every table left belongs to a space still alive (other modules keep a few)
        live = {(s.n, s.opens) for s in gc.get_objects() if type(s) is F.FinSpace}
        assert set(F._FACT_TABLES.keys()) <= live
        assert sum(n == 4 for n, _ in F._FACT_TABLES.keys()) < 355

    # caught mutant: is_regular computing monad_set_mask(F) for every point
    # outside F, and is_z_normal computing mu_z_set per pair, as they did
    def test_closed_set_monads_are_computed_once_per_space(self, monkeypatch):
        counts = {}
        monad_set_mask, mu_z_set = F.FinSpace.monad_set_mask, F.ZBlockPartition.mu_z_set

        def counted(kind, compute):
            def spy(owner, mask):
                space = owner if kind == "monad" else owner.space
                key = kind, space.n, space.opens, mask
                counts[key] = counts.get(key, 0) + 1
                return compute(owner, mask)

            return spy

        monkeypatch.setattr(F.FinSpace, "monad_set_mask", counted("monad", monad_set_mask))
        monkeypatch.setattr(F.ZBlockPartition, "mu_z_set", counted("mu_z", mu_z_set))
        deciders = (F.is_regular, F.is_normal, F.is_completely_regular, F.is_z_normal)
        for s in all_spaces(4):
            fresh = F.FinSpace(s.points, s.opens)
            object.__setattr__(fresh, "_facts", F._Facts())  # no fact read by an earlier test
            for decide in deciders:
                decide(fresh)
            for kind in ("monad", "mu_z"):
                computed = {mask for k, n, opens, mask in counts if (k, n, opens) == (kind, s.n, s.opens)}
                assert computed == set(s.closed_sets()), (kind, s.describe())
        assert set(counts.values()) == {1}

    def test_each_decider_runs_once_per_enumerated_space(self, monkeypatch):
        enumerated, calls = {}, {}
        enumerate_topologies = F.enumerate_topologies

        def recording(n):
            for s in enumerate_topologies(n):
                enumerated[id(s)] = s  # kept alive, so no other object shares the id
                yield s

        def counting(name, decide):
            def decider(space):
                # quotients and star spaces are other objects and are not counted
                if id(space) in enumerated:
                    calls[name, id(space)] = calls.get((name, id(space)), 0) + 1
                return decide(space)

            return decider

        monkeypatch.setattr(F, "enumerate_topologies", recording)
        for name, decide in list(F.PROPERTY_CHECKS.items()):
            monkeypatch.setitem(F.PROPERTY_CHECKS, name, counting(name, decide))
        report = cli.run_full_audit(4)
        assert report["all_passed"] and len(enumerated) == 389
        assert calls == {(name, key): 1 for name in F.PROPERTY_CHECKS for key in enumerated}
