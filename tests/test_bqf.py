import gc
import itertools
import json
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsatop import bqf as B
from nsatop import germs
from nsatop.bqf import Atom, FSet


a, b, c, d = Atom("a"), Atom("b"), Atom("c"), Atom("d")
A = FSet([a])
AB = FSet([a, b])
ABC = FSet([a, b, c])

# corpus of fifty formulas exercising the whole grammar
CORPUS = [
    "a = b",
    "a in B",
    "not a = b",
    "not not a in B",
    "(a = b and b = c)",
    "(a = b or a in B)",
    "(a = b => b = a)",
    "(a = b <=> b = a)",
    "(forall x in A)(x in B)",
    "(exists y in B) y = a",
    "(forall x in A)(exists y in B) x = y",
    "(exists x in A)(forall y in B) x = y",
    "(forall x in A)(forall y in A)(x = y or x in B)",
    "(forall p in P)(exists x in A)(exists y in B) p = <x, y>",
    "<a, b> = <c, d>",
    "(<a, b> = <c, d> <=> (a = c and b = d))",
    "{a, b} = {b, a}",
    "{} = {}",
    "{a} in P",
    "<a, <b, c>> = <a, <b, c>>",
    "{a, {b}} = {a, {b}}",
    "(forall x in {a, b})(x in B)",
    "(exists x in {a, b, c}) x = c",
    "(forall x in A) x = x",
    "(forall s in S)(forall t in S)((s in t or t in s) or s = t)",
    "(not a = b => not b = a)",
    "((a = b and b = c) => a = c)",
    "((a in B and b in B) => {a, b} = {b, a})",
    "(forall x in B)(x in B and x = x)",
    "(exists x in B)(x = a or x = b)",
    "(forall x in B) <x, x> in D",
    "(exists p in D)(exists x in B) p = <x, x>",
    "(forall x in A)(forall y in B)(<x, y> = <y, x> => x = y)",
    "({a} = {b} <=> a = b)",
    "({a, b} = {a} <=> b = a)",
    "(forall u in U)(exists v in U)(u in v or u = v)",
    "(a in B <=> {a} = {a})",
    "not (a = b and not a = b)",
    "(a = a or b = b)",
    "(forall x in {a})(forall y in {b}) <x, y> = <a, b>",
    "(exists x in P)(forall y in A) y in x",
    "((a = b or b = c) <=> (b = c or a = b))",
    "(forall x in S)(x = a => x in A)",
    "(exists x in S) not x = a",
    "(forall x in {a, b, c})(x = a or (x = b or x = c))",
    "<{a}, {b, c}> = <{a}, {b, c}>",
    "(forall q in Q)(exists r in Q)(q = r and r = q)",
    "(not (a = b or b = c) => not a = b)",
    "((forall x in A)(x in B) => (exists x in A)(x in B))",
    "(forall x in B)(forall y in B)(forall z in B)((x = y and y = z) => x = z)",
]


class TestParse:
    def test_quantified(self):
        f = B.parse("(forall x in A)(x in B)")
        assert isinstance(f, B.Quant) and f.kind == "forall"

    def test_exists(self):
        f = B.parse("(exists y in B) y = a")
        assert isinstance(f, B.Quant) and f.kind == "exists"

    def test_unbounded_rejected(self):
        with pytest.raises(B.UnboundedQuantifier):
            B.parse("(forall x)(x = x)")

    def test_unicode_aliases(self):
        assert B.parse("(∀ x ∈ A)(x ∈ B)") == B.parse("(forall x in A)(x in B)")
        assert B.parse("¬ a = b") == B.parse("not a = b")
        assert B.parse("(a = b ⇔ b = a)") == B.parse("(a = b <=> b = a)")

    def test_syntax_error_carries_position_and_expectations(self):
        with pytest.raises(B.FormulaSyntaxError) as err:
            B.parse("(a = b and)")
        assert err.value.position >= 0
        with pytest.raises(B.FormulaSyntaxError):
            B.parse("a =")
        with pytest.raises(B.FormulaSyntaxError):
            B.parse("{a, } = b")

    def test_syntax_error_positions_are_character_offsets(self):
        for text, position in (("a =    = b", 7), ("a =", 3), ("a = b   c", 8), ("a # b", 2)):
            with pytest.raises(B.FormulaSyntaxError) as err:
                B.parse(text)
            assert err.value.position == position, text

    def test_nesting_limit(self):
        B.parse("not " * 50 + "a = a")
        B.parse("{" * 50 + "}" * 50 + " = a")
        for text in ("not " * 3000 + "a = a", "(" * 3000 + "a = a", "{" * 3000 + "}" * 3000 + " = a"):
            with pytest.raises(B.NestingTooDeep):
                B.parse(text)
        # every opener: MAX_DEPTH levels parse, and the next raises at its own offset
        depth = B.MAX_DEPTH
        for text, position in (
            (lambda d: "not " * d + "a = a", 4 * depth),
            (lambda d: "(" * d + "a = a" + ")" * d, depth),
            (lambda d: "(forall x in A)" * d + "x = a", 15 * depth),
            (lambda d: "(∃ x ∈ A)" * d + "x = a", 9 * depth),
            (lambda d: "<" * d + "a" + ", a>" * d + " = a", depth),
            (lambda d: "{" * d + "}" * d + " = a", depth),
            (lambda d: "a in " + "{a, " * d + "a" + "}" * d, 5 + 4 * depth),
        ):
            B.parse(text(depth))
            with pytest.raises(B.NestingTooDeep) as err:
                B.parse(text(depth + 1))
            assert err.value.position == position, text(1)

    def test_corpus_roundtrip(self):
        assert len(CORPUS) == 50
        for text in CORPUS:
            ast = B.parse(text)
            assert B.parse(B.print_formula(ast)) == ast


# the tokens and aliases of the bqf, term and germ-formula grammars, names of
# each, numbers, and characters that start no token or only a bqf name
_FUZZ_TOKENS = (
    "forall exists in and or not <=> => < > = ( ) { } , ∀ ∃ ∈ ¬ ∧ ∨ ⇒ ⇔ ⟨ ⟩"
    " + - * / ^ [ ] ; != <= >= · rf ep n x y e A 0 1 7 10 x2 ² ½ # _"
).split()
_FUZZ_SPACES = ("", " ", "  ", "\t", "\n", "\u00a0")
# valid texts of each grammar, which the checker mutates token by token
_FUZZ_SEEDS = tuple(
    text.split()
    for text in (
        "( forall x in A ) ( exists y in B ) < x , y > in F",
        "( a = b and not { a , { } } in C )",
        "( ∀ x ∈ A ) ( x = a ⇔ ⟨ x , x ⟩ ∈ D )",
        "not ( x + 1 ) <= 2 or y != 1 / 3",
        "( x < x * x and - x >= 0 )",
        "rf ( ( 2 * n + 1 ) / ( n + 3 ) )",
        "ep ( [ 1 , - 1 / 2 ] ; [ 0 , 3 ] )",
        "- 3 / 2",
    )
)


def check_parsers_raise_typed_errors(n, seed):
    """Run bqf.parse, germs.parse_qf and germs.parse_germ on `n` seeded texts
    and fail on any exception other than the module's own base error.  Half
    the texts are random tokens; half are valid texts of the three grammars
    with up to three tokens deleted, replaced or inserted.  Returns, per
    entry point, how many texts parsed and how many raised."""
    entry_points = (
        ("bqf.parse", B.parse, B.BqfError),
        ("germs.parse_qf", germs.parse_qf, germs.GermError),
        ("germs.parse_germ", germs.parse_germ, germs.GermError),
    )
    rng = random.Random(seed)
    counts = {name: [0, 0] for name, _, _ in entry_points}
    for i in range(n):
        if i % 2:
            tokens, spaces = rng.choices(_FUZZ_TOKENS, k=rng.randint(0, 12)), _FUZZ_SPACES
        else:
            # a valid text's tokens stay apart, so it stays valid where it is not edited
            tokens, spaces = list(rng.choice(_FUZZ_SEEDS)), _FUZZ_SPACES[1:]
            for _ in range(rng.randint(0, 3)):
                at = rng.randrange(len(tokens) + 1)
                edit = rng.randrange(3)
                if edit < 2 and at < len(tokens):
                    del tokens[at]
                if edit > 0:
                    tokens.insert(at, rng.choice(_FUZZ_TOKENS))
        text = "".join(token + rng.choice(spaces) for token in tokens)
        for name, parse, error in entry_points:
            try:
                parse(text)
            except error:
                counts[name][1] += 1
            except Exception as exc:
                raise AssertionError(f"{name}({text!r}) raised {type(exc).__name__}: {exc}") from exc
            else:
                counts[name][0] += 1
    return counts


def test_parsers_raise_typed_errors():
    counts = check_parsers_raise_typed_errors(10000, seed=71)
    # each entry point both parsed texts and refused them
    assert all(parsed >= 300 and raised >= 300 for parsed, raised in counts.values()), counts


# random AST generator for the round-trip property
_names = st.sampled_from(["a", "b", "c", "x", "y", "zz"])
_terms = st.recursive(
    _names.map(B.Name),
    lambda child: st.one_of(
        st.tuples(child, child).map(lambda t: B.PairTerm(*t)),
        st.lists(child, max_size=3).map(B.SetTerm),
    ),
    max_leaves=6,
)
_formulas = st.recursive(
    st.one_of(
        st.tuples(_terms, _terms).map(lambda t: B.Eq(*t)),
        st.tuples(_terms, _terms).map(lambda t: B.Member(*t)),
    ),
    lambda child: st.one_of(
        child.map(B.Not),
        st.tuples(st.sampled_from(["and", "or", "=>", "<=>"]), child, child).map(
            lambda t: B.BinOp(*t)
        ),
        st.tuples(st.sampled_from(["forall", "exists"]), _names, _terms, child).map(
            lambda t: B.Quant(*t)
        ),
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(_formulas)
def test_print_parse_roundtrip(ast):
    assert B.parse(B.print_formula(ast)) == ast


class TestEval:
    def test_examples(self):
        f = B.parse("(forall x in A)(x in B)")
        assert B.evaluate(f, {"A": A, "B": AB}) is True
        assert B.evaluate(f, {"A": AB, "B": A}) is False

    def test_kuratowski_exhaustive(self):
        law = B.parse("(<x, y> = <u, v> <=> (x = u and y = v))")
        for size in (1, 2, 3, 4):
            atoms = [Atom(ch) for ch in "abcd"[:size]]
            for p, q, r, s in itertools.product(atoms, repeat=4):
                assert B.evaluate(law, {"x": p, "y": q, "u": r, "v": s})

    def test_membership_in_atom_is_false(self):
        assert B.evaluate("a in b", {"a": a, "b": b}) is False

    def test_quantifier_over_atom(self):
        # an atom has no members, as for `in`
        assert B.evaluate("(forall x in a) not x = x", {"a": a}) is True
        assert B.evaluate("(exists x in a) x = x", {"a": a}) is False
        # the verdict of the hash-order example does not depend on which member comes first
        assert B.evaluate("(exists x in B)(exists z in x) z = z", {"B": FSet([a, FSet([b])])}) is True

    def test_unbound_constant(self):
        with pytest.raises(B.UnboundConstant):
            B.evaluate("missing = a", {"a": a})
        # rejected before evaluation, even where no member or connective
        # would reach the name
        with pytest.raises(B.UnboundConstant):
            B.evaluate("(exists x in A) y = x", {"A": B.EMPTY})
        with pytest.raises(B.UnboundConstant):
            B.evaluate("(a in A and y in A)", {"a": a, "A": B.EMPTY})
        with pytest.raises(B.UnboundConstant):
            B.define_set(B.EMPTY, "(x = a or x = zz)", {"a": a}, var="x")

    def test_connectives_short_circuit(self, monkeypatch):
        # the compiled right side counts its evaluations
        probe, evaluated = B.parse("a in A"), []
        compile_formula = B._compile

        def compile_counted(f):
            compiled = compile_formula(f)
            if f != probe:
                return compiled
            return lambda env, pairs: evaluated.append(f) or compiled(env, pairs)

        monkeypatch.setattr(B, "_compile", compile_counted)
        env = {"a": a, "b": b, "A": A}
        for lhs, op, want in (("a = b", "and", False), ("a = a", "or", True), ("a = b", "=>", True)):
            assert B.evaluate(f"({lhs} {op} a in A)", env) is want
            assert evaluated == []
        # where the left side does not settle it, and always for <=>
        for lhs, op in (("a = a", "and"), ("a = b", "or"), ("a = a", "=>"), ("a = a", "<=>"), ("a = b", "<=>")):
            B.evaluate(f"({lhs} {op} a in A)", env)
            assert evaluated == [probe]
            evaluated.clear()

    def test_shadowing(self):
        f = B.parse("(forall a in S) a in S")
        assert B.evaluate(f, {"S": AB, "a": c})
        # the outer binding is back once the quantifier is done
        assert B.evaluate("((forall a in S) a in S and a = c)", {"S": AB, "a": c, "c": c})
        assert B.define_set(AB, "((exists x in S) x = c and x = a)", {"S": ABC, "a": a, "c": c}, var="x") == A

    def test_implication_truth_table(self):
        t = "a = a"
        f = "a = b"
        cases = [(t, t, True), (t, f, False), (f, t, True), (f, f, True)]
        for lhs, rhs, want in cases:
            assert B.evaluate(f"({lhs} => {rhs})", {"a": a, "b": b}) is want


_GRAPH_FIRST = (
    "((forall z in F)(exists x in A)(exists y in B) z = <x, y>"
    " and (forall x in A)(exists y in B) <x, y> in F)"
)
_SINGLE_VALUED = "(forall x in A)(forall y in B)(forall w in B)((<x, y> in F and <x, w> in F) => y = w)"

# Pairs of equivalent formulas, which must evaluate alike: a formula whose
# quantifier bodies start with an operand that does not mention the bound
# variable, next to the same formula with that operand moved out of the
# quantifier by hand.  Where the moved operand is evaluated, the rewrite first
# reads the bound through a guard `(exists v in B) v = v`, so an empty bound,
# or an atom, which has no members, still leaves the operand unevaluated.
HOISTED_PAIRS = [
    (_SINGLE_VALUED, "(forall x in A)(forall y in B)(not <x, y> in F or (forall w in B)(<x, w> in F => y = w))"),
    (
        f"({_GRAPH_FIRST} and {_SINGLE_VALUED})",
        f"({_GRAPH_FIRST} and (forall x in A)(forall y in B)"
        "(not <x, y> in F or (forall w in B)(<x, w> in F => y = w)))",
    ),
    # operands that quantify over C, which may be an atom
    (
        "(forall y in B)((forall z in C) z in D and y in D)",
        "((exists y in B) y = y => ((forall z in C) z in D and (forall y in B) y in D))",
    ),
    (
        "(exists y in B)((exists z in C) z = a or y = a)",
        "((exists y in B) y = y and ((exists z in C) z = a or (exists y in B) y = a))",
    ),
    (
        "(forall y in B)(not (exists z in C) z in D => <y, a> in F)",
        "((exists y in B) y = y => ((exists z in C) z in D or (forall y in B) <y, a> in F))",
    ),
    # the operand is the lower of two nodes on the left spine
    (
        "(forall y in B)((a in C and y in D) or b in D)",
        "((exists y in B) y = y => ((a in C and (forall y in B)(y in D or b in D))"
        " or (not a in C and (forall y in B) b in D)))",
    ),
    (
        "(exists y in B)((a in C <=> b in C) <=> y in D)",
        "((exists y in B) y = y and (((a in C <=> b in C) and (exists y in B) y in D)"
        " or (not (a in C <=> b in C) and (exists y in B) not y in D)))",
    ),
]


def _outcome(formula, env):
    try:
        return B.evaluate(formula, env)
    except B.BqfError as exc:
        return type(exc), str(exc)


class TestHoisting:
    def test_compiled_formulas_match_hand_hoisted_rewrites(self):
        rng = random.Random(73)
        atoms = [a, b, c, d]
        pairs = [B.make_pair(x, y) for x in atoms for y in atoms]

        def entity():
            roll = rng.random()
            if roll < 0.15:
                return rng.choice(atoms)
            if roll < 0.3:
                return B.EMPTY
            return FSet(rng.sample(atoms, rng.randint(1, 4)))

        seen = set()
        for hoisted, rewrite in HOISTED_PAIRS:
            f, g = B.parse(hoisted), B.parse(rewrite)
            for _ in range(300):
                env = {name: entity() for name in ("A", "B", "C", "D")}
                env["a"], env["b"] = rng.choice(atoms), rng.choice(atoms)
                env["F"] = FSet(rng.sample(pairs, rng.randint(0, 8))) if rng.random() < 0.9 else a
                got = _outcome(f, env)
                assert got == _outcome(g, env), (hoisted, env)
                seen.add(got if isinstance(got, bool) else got[0])
        assert seen == {True, False}

    # caught mutant: a compiler that compiles some node twice per level,
    # which doubles the work at every level
    def test_compile_work_grows_linearly_with_nesting(self, monkeypatch):
        compiled = []
        compile_formula = B._compile
        monkeypatch.setattr(B, "_compile", lambda f: compiled.append(f) or compile_formula(f))
        text = "a = a"
        for k in range(12):
            text = f"(forall v{k} in A)(a in A and (v{k} = v{k} and {text}))"
        assert B.evaluate(text, {"a": a, "A": AB}) is True
        assert len(compiled) == 1 + 5 * 12  # `a = a`, and five nodes per level


def _model_members(e):
    """Members of a plain entity: a str has none."""
    return () if isinstance(e, str) else e


def _model_term(t, env):
    if isinstance(t, B.Name):
        return env[t.name]
    if isinstance(t, B.PairTerm):
        x, y = _model_term(t.first, env), _model_term(t.second, env)
        return frozenset([frozenset([x]), frozenset([x, y])])
    return frozenset(_model_term(item, env) for item in t.items)


def _model(f, env, atom_bounds):
    """Truth value over plain nested frozensets of str, every subformula
    evaluated (no short-circuit, so no order); counts quantifiers over a str."""
    if isinstance(f, B.Eq):
        return _model_term(f.lhs, env) == _model_term(f.rhs, env)
    if isinstance(f, B.Member):
        return _model_term(f.lhs, env) in _model_members(_model_term(f.rhs, env))
    if isinstance(f, B.Not):
        return not _model(f.body, env, atom_bounds)
    if isinstance(f, B.BinOp):
        lhs, rhs = _model(f.lhs, env, atom_bounds), _model(f.rhs, env, atom_bounds)
        return {"and": lhs and rhs, "or": lhs or rhs, "=>": not lhs or rhs, "<=>": lhs == rhs}[f.op]
    bound = _model_term(f.bound, env)
    atom_bounds.append(isinstance(bound, str))
    values = [_model(f.body, {**env, f.var: m}, atom_bounds) for m in _model_members(bound)]
    return all(values) if f.kind == "forall" else any(values)


def _as_entity(e):
    return Atom(e) if isinstance(e, str) else FSet(map(_as_entity, e))


def random_cases(n, seed):
    """`n` seeded (formula, env) pairs: a formula of depth at most 4 over the
    names a, b, A, B, x and y, and env binding each name to a str or to a
    plain nested frozenset of str of depth at most 2."""
    rng = random.Random(seed)
    names = ["a", "b", "A", "B", "x", "y"]
    atoms = ["a", "b", "c"]

    def plain(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(atoms)
        return frozenset(plain(depth - 1) for _ in range(rng.randint(0, 3)))

    def term(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.7:
            return B.Name(rng.choice(names))
        if roll < 0.85:
            return B.PairTerm(term(depth - 1), term(depth - 1))
        return B.SetTerm([term(depth - 1) for _ in range(rng.randint(0, 2))])

    def formula(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.25:
            return (B.Eq if rng.random() < 0.5 else B.Member)(term(1), term(1))
        if roll < 0.35:
            return B.Not(formula(depth - 1))
        if roll < 0.6:
            op = rng.choice(["and", "or", "=>", "<=>"])
            return B.BinOp(op, formula(depth - 1), formula(depth - 1))
        kind = rng.choice(["forall", "exists"])
        return B.Quant(kind, rng.choice(["x", "y"]), term(1), formula(depth - 1))

    for _ in range(n):
        f = formula(4)
        yield f, {name: plain(2) for name in names}


class TestAgainstModel:
    # caught mutant: a quantifier that raises QuantifierOverAtom when its bound
    # is an atom, so whether it is reached depends on hash order
    def test_evaluate_define_set_and_transfer_match_plain_frozenset_model(self):
        verdicts, atom_bounds = [], []
        for f, env in random_cases(2000, seed=2024):
            want = _model(f, env, atom_bounds)
            entities = {k: _as_entity(v) for k, v in env.items()}
            assert B.evaluate(f, entities) is want, B.print_formula(f)
            assert B.check_transfer_finite(f, entities)["standard_truth"] is want
            if not isinstance(env["B"], str):
                subset = {m for m in env["B"] if _model(f, {**env, "x": m}, [])}
                assert B.define_set(entities["B"], f, entities, var="x") == subset
            verdicts.append(want)
        # both verdicts, and many quantifiers whose bound is an atom
        assert 200 < sum(verdicts) < 1800
        assert sum(atom_bounds) > 500


def _reference_star(e):
    """The star map with no memo: each call builds its image afresh."""
    if isinstance(e, Atom):
        return e
    return B._fset(map(_reference_star, e))


_REFERENCE_OPS = (("union", operator.or_), ("intersection", operator.and_), ("difference", operator.sub))


def _reference_transfer(formula, bindings):
    """`check_transfer_finite` as it was before starring went through one memo
    per check: every audit stars its operands afresh with `_reference_star`,
    and each side is evaluated with a pair table of its own."""
    if isinstance(formula, str):
        formula = B.parse(formula)
    standard = B.evaluate(formula, bindings)
    starred_bindings = {k: _reference_star(v) for k, v in bindings.items()}
    starred = B.evaluate(formula, starred_bindings)
    if standard != starred:
        raise B.AuditFailure(
            "transfer identity failed", instance={"formula": B.print_formula(formula)}
        )
    report = {
        "formula": B.print_formula(formula),
        "standard_truth": standard,
        "starred_truth": starred,
        "transfer_holds": True,
        "boolean_checks": 0,
        "product_checks": 0,
    }
    values = sorted(bindings.items())
    sets = [(k, v) for k, v in values if isinstance(v, FSet)]
    for i, (ka, a) in enumerate(sets):
        sa = starred_bindings[ka]
        for kb, b in sets[i:]:
            sb = starred_bindings[kb]
            for opname, op in _REFERENCE_OPS:
                if _reference_star(FSet(op(a, b))) != FSet(op(sa, sb)):
                    raise B.AuditFailure(
                        f"star does not preserve {opname}",
                        instance={"lhs": ka, "rhs": kb},
                    )
                report["boolean_checks"] += 1
    for i, (ka, a) in enumerate(values):
        for kb, b in values[i:]:
            if _reference_star(B.make_pair(a, b)) != B.make_pair(starred_bindings[ka], starred_bindings[kb]):
                raise B.AuditFailure(
                    "star does not preserve ordered pairs", instance={"lhs": ka, "rhs": kb}
                )
            report["product_checks"] += 1
    return report


def check_transfer_against_reference(n, seed):
    """Fail unless `check_transfer_finite` and `_reference_transfer` give equal
    reports on the `n` cases of `random_cases(n, seed)`.  Returns the number
    of Boolean and of pair checks the reports count in all."""
    counts = [0, 0]
    for f, env in random_cases(n, seed):
        entities = {k: _as_entity(v) for k, v in env.items()}
        got, want = B.check_transfer_finite(f, entities), _reference_transfer(f, entities)
        assert got == want, B.print_formula(f)
        counts[0] += got["boolean_checks"]
        counts[1] += got["product_checks"]
    return tuple(counts)


def test_transfer_matches_reference_without_memo():
    boolean_checks, product_checks = check_transfer_against_reference(2000, seed=2024)
    # six bindings give 21 pair checks; sets among them add Boolean ones
    assert product_checks == 21 * 2000 and boolean_checks > 2000


# quantifiers with a conjunct that pins their variable, which visit only the
# members that conjunct allows, and look-alikes that must visit every member;
# t is a pair component, s a pair or non-pair, K a set of pairs, non-pairs or
# both (or an atom), and the bounds A and B are sets or atoms
PINNED = [
    "(exists x in A) s = <t, x>",
    "(exists x in A) s = <x, t>",
    "(exists x in A) x = s",
    "(exists x in A) s = x",
    "(exists x in A) x in s",
    "(exists x in A) <t, x> in K",
    "(exists x in A) <x, t> in K",
    "(exists x in A)(exists y in B) s = <x, y>",
    "(exists x in A)((t in x or x = t) and <x, t> in K)",  # the pinning conjunct later
    "(forall x in A)(<x, t> in K => x = t)",
    "(forall x in A)((t in x and x in s) => x = t)",
    "(forall x in A)(forall y in A)((<t, y> in K and <x, t> in K) => x = y)",
]
UNPINNED = [
    "(exists x in A)(x in s or x = t)",  # the guard under an or
    "(exists x in A)(exists y in B)(x in y and y = t)",  # K mentions a block variable
    "(exists x in A)(exists y in A) <x, y> in K",  # the other component is in the block
    "(forall x in A)(x in s and t in x)",  # a forall over a conjunction
    "(exists x in A)(x in s => t in x)",  # an exists over an implication
    "(exists x in A) x = x",  # no side free of x
    "(exists x in A) <x, t> = <t, x>",  # both sides mention x
    "(exists x in A)(exists x in A) s = <x, t>",  # the inner x shadows x
    "(exists x in A)(exists y in x) s = <y, t>",  # an inner bound mentions x
    "(exists x in A)(forall y in A) s = <x, y>",  # a forall in the block
]


def _ranks(atoms):
    """Every entity of rank at most 1 on `atoms`, and every one of rank at most 2."""
    low = [Atom(n) for n in atoms]
    low += [FSet(s) for k in range(len(low) + 1) for s in itertools.combinations(low, k)]
    sets = (FSet(s) for k in range(len(low) + 1) for s in itertools.combinations(low, k))
    return low, [*low[: len(atoms)], *sets]


def check_pinned_quantifiers(atoms):
    """Fail unless the formulas of PINNED, and none of UNPINNED, pin their
    outer quantifier, and `evaluate` agrees with `_model` on all of them,
    with both verdicts.  s ranges over every entity of rank at most 2 on
    `atoms` (non-pairs such as {{a}, {b}}, {{a, b}} and three-member sets
    among them), t over those of rank at most 1; K over the atoms and every
    set of pairs of atoms, alone and with the non-pairs {{a}, {b}}, {{a, b}}
    and the first atom added; the bounds A and B over the atoms, the sets of
    atoms (the empty set among them) and the set of all entities of rank at
    most 1.  Then fail unless `_components` decodes exactly the pairs of
    entities of rank at most 1.  Returns the number of cases and of true
    verdicts."""
    low, every = _ranks(atoms)
    first, second = Atom(atoms[0]), Atom(atoms[1])
    junk = [FSet([FSet([first]), FSet([second])]), FSet([FSet([first, second])]), first]
    pairs = [B.make_pair(x, y) for x in low[: len(atoms)] for y in low[: len(atoms)]]
    some = [FSet(s) for k in range(len(pairs) + 1) for s in itertools.combinations(pairs, k)]
    values = {
        "A": [*low[len(atoms):], *low[: len(atoms)], FSet(low)],
        "s": every,
        "t": low,
        "K": [*low[: len(atoms)], *some, *(FSet([*s, *junk]) for s in some)],
    }
    values["B"] = values["A"]
    cases = verdicts = 0
    for text in PINNED + UNPINNED:
        f = B.parse(text)
        assert (B._candidates(f) is not None) is (text in PINNED), text
        names = sorted(B._free(f))
        seen, holds = set(), B._compile(f)
        for env in itertools.product(*(values[n] for n in names)):
            env = dict(zip(names, env))
            got = B.evaluate(f, env, _holds=holds)
            assert got is _model(f, env, []), (text, env)
            seen.add(got)
            cases, verdicts = cases + 1, verdicts + got
        assert seen == {True, False}, text
    decoded = {B.make_pair(x, y): (x, y) for x in low for y in low}
    for e in [*every, *decoded]:
        assert B._components(e) == decoded.get(e), f"_components({e!r})"
    return cases, verdicts


def test_pinned_existentials():
    assert check_pinned_quantifiers(["a", "b"]) == (34979, 9653)


# caught mutant: a quantifier that ignores its candidates and evaluates the
# body at every member of its bound (27 times here)
def test_body_is_evaluated_only_at_candidates(monkeypatch):
    f = B.parse(_SINGLE_VALUED)
    body, visited = f.body.body.body, []
    compile_formula = B._compile

    def compile_counted(g):
        compiled = compile_formula(g)
        if g is not body:
            return compiled
        return lambda env, pairs: visited.append((env["x"], env["y"], env["w"])) or compiled(env, pairs)

    monkeypatch.setattr(B, "_compile", compile_counted)
    # x = c is mapped to d, which is not in B, so no y is visited for it
    graph = FSet([B.make_pair(a, b), B.make_pair(b, c), B.make_pair(c, d)])
    assert B.evaluate(f, {"A": ABC, "B": ABC, "F": graph}) is True
    # x has no candidates (its pairs in F are keyed by y and w), y and w the values F gives x
    assert sorted(visited) == [(a, b, b), (b, c, c)]


_real_components = B._components


def _swapped_components(e):
    pair = _real_components(e)
    return pair and pair[::-1]


def _accepts_two_singletons(e):
    if isinstance(e, FSet) and len(e) == 2 and all(isinstance(m, FSet) and len(m) == 1 for m in e):
        return tuple(next(iter(m)) for m in sorted(e, key=B.entity_key))
    return _real_components(e)


# the body is evaluated at the candidate, so a decoder that accepts a
# non-pair changes no verdict; only the decoding check can catch it
@pytest.mark.parametrize(
    "mutant, caught_by",
    [(_swapped_components, r"s = <t, x>"), (_accepts_two_singletons, r"_components")],
    ids=["swapped", "accepts_two_singletons"],
)
def test_wrong_decoder_fails_the_check(monkeypatch, mutant, caught_by):
    monkeypatch.setattr(B, "_components", mutant)
    with pytest.raises(AssertionError, match=caught_by):
        check_pinned_quantifiers(["a", "b"])


_real_index = B._Pairs.index


def _index_keeping_one(pairs, k, i):
    return {other: found[:1] for other, found in _real_index(pairs, k, i).items()}


def _index_by_own_component(pairs, k, i):
    index = {}
    for e in k:
        parts = B._components(e)
        if parts:
            index.setdefault(parts[i], []).append(parts[1 - i])
    return index


@pytest.mark.parametrize(
    "mutant, caught_by",
    [(_index_keeping_one, r"in K"), (_index_by_own_component, r"in K")],
    ids=["drops_a_candidate", "swaps_components"],
)
def test_wrong_pair_index_fails_the_check(monkeypatch, mutant, caught_by):
    monkeypatch.setattr(B._Pairs, "index", mutant)
    with pytest.raises(AssertionError, match=caught_by):
        check_pinned_quantifiers(["a", "b"])


def _live_fsets() -> int:
    gc.collect()
    return sum(type(o) is FSet for o in gc.get_objects())


class TestPairsPerCall:
    # caught mutant: one (first, second) -> pair dict shared by every call,
    # which answers correctly but keeps every pair it built alive
    def test_evaluate(self):
        law = "(forall x in A)(forall y in A) <x, y> in F"
        square = FSet(B.make_pair(x, y) for x in (a, b) for y in (a, b))
        bindings = [{"A": AB, "F": square}, {"A": ABC, "F": square}, {"A": A, "F": B.EMPTY}]
        before = _live_fsets()
        assert [B.evaluate(law, env) for env in bindings] == [True, False, False]
        assert _live_fsets() == before

    def test_define_set(self):
        # atoms of its own, so no pair built by another test is reused
        p, q, r = Atom("p"), Atom("q"), Atom("r")
        diagonal = FSet(B.make_pair(x, x) for x in (p, q))
        before = _live_fsets()
        got = B.define_set(FSet([p, q, r]), "<x, x> in D", {"D": diagonal}, var="x")
        assert got == FSet([p, q])
        del got
        assert _live_fsets() == before

    # caught mutant: each pair building a singleton of its own
    def test_pairs_that_start_alike_share_a_singleton(self, monkeypatch):
        square = FSet(B.make_pair(x, y) for x in (a, b, c) for y in (a, b, c))
        built, fset = [], B._fset
        monkeypatch.setattr(B, "_fset", lambda members: built.append(members) or fset(members))
        assert B.evaluate("(forall x in A)(forall y in A) <x, y> in F", {"A": ABC, "F": square})
        # three singletons, then {x, y} and the pair for each of the nine pairs
        assert len(built) == 3 + 2 * 9

    # caught mutant: each side of a transfer check building its pairs in a
    # table of its own
    def test_transfer_check_builds_each_pair_once(self, monkeypatch):
        built = []

        class Counted(B._Pairs):
            def __missing__(self, key):
                built.append(key)
                return super().__missing__(key)

        monkeypatch.setattr(B, "_Pairs", Counted)
        square = FSet(B.make_pair(x, y) for x in (a, b, c) for y in (a, b, c))
        law, env = "(forall x in A)(forall y in A) <x, y> in F", {"A": ABC, "F": square}
        assert B.evaluate(law, env)
        assert len(built) == 3 + 9  # three singletons and nine pairs
        built.clear()
        assert B.check_transfer_finite(law, env)["starred_truth"]
        assert len(built) == 3 + 9


class TestEntities:
    def test_levels(self):
        assert B.type_level(a) == 0
        assert B.type_level(B.EMPTY) == 1
        assert B.type_level(FSet([a])) == 1
        assert B.type_level(B.make_pair(a, b)) == 2

    def test_pair_encoding(self):
        assert B.make_pair(a, b) == FSet([FSet([a]), FSet([a, b])])
        assert B.make_pair(a, a) == FSet([FSet([a])])

    def test_extensionality_random_nested(self):
        rng = random.Random(71)
        atoms = [a, b, c]
        for _ in range(200):
            base = [rng.choice(atoms) for _ in range(rng.randint(0, 4))]
            lvl1 = FSet(base)
            dup = FSet(base + base[: rng.randint(0, len(base))])
            assert lvl1 == dup
            nest = FSet([lvl1, rng.choice(atoms)])
            nest2 = FSet([dup, next(iter(nest))])
            assert (nest == nest2) == (frozenset(nest) == frozenset(nest2))

    # an Atom is a str and an FSet a frozenset: equality, hashing and
    # membership are the built-ins', so they must match plain nested
    # frozensets of names exactly; printing sorts, so it must not follow
    # the order a set was built in; members and bindings must be entities
    def test_entities_match_plain_frozensets(self):
        rng = random.Random(73)

        def random_json(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(["a", "b", "c", ""])
            return [random_json(depth - 1) for _ in range(rng.randint(0, 3))]

        def model(obj):
            return obj if isinstance(obj, str) else frozenset(map(model, obj))

        def rebuilt(e):
            if isinstance(e, Atom):
                return Atom(e.name)
            members = [rebuilt(m) for m in e]
            rng.shuffle(members)
            return FSet(members)

        objs = [random_json(3) for _ in range(300)]
        entities = [B.entity_from_json(o) for o in objs]
        models = [model(o) for o in objs]
        for e, m in zip(entities, models):
            assert hash(e) == hash(m)
            again = rebuilt(e)
            assert again == e and hash(again) == hash(e)
            assert B.entity_to_json(again) == B.entity_to_json(e)
            assert repr(again) == repr(e)
            if isinstance(e, FSet):
                assert B.entity_to_json(e) == [
                    B.entity_to_json(x) for x in sorted(e, key=B.entity_key)
                ]
        for _ in range(2000):
            i, j = rng.randrange(len(objs)), rng.randrange(len(objs))
            e, f, m, n = entities[i], entities[j], models[i], models[j]
            assert (e == f) == (m == n)
            if isinstance(f, FSet):
                assert (e in f) == (m in n)
        for bad in (["a"], [1], [a, "a"], [AB, frozenset([a])]):
            with pytest.raises(TypeError, match="not an entity"):
                FSet(bad)
        # a plain str binding would otherwise be read by `in` as its characters
        with pytest.raises(TypeError, match="'A'"):
            B.evaluate("a in A", {"a": a, "A": "abc"})
        with pytest.raises(TypeError, match="'n'"):
            B.check_transfer_finite("a = a", {"a": a, "n": 1})
        with pytest.raises(TypeError, match="'b'"):
            B.define_set(AB, "x = b", {"b": "b"})
        with pytest.raises(TypeError, match="bound"):
            B.define_set(frozenset([a]), "x = x", {})
        with pytest.raises(B.QuantifierOverAtom):
            B.define_set(a, "x = x", {})

    def test_json_nesting_limit(self):
        deep = []
        for _ in range(B.MAX_DEPTH - 1):
            deep = [deep]
        assert B.type_level(B.entity_from_json(deep)) == B.MAX_DEPTH
        with pytest.raises(B.NestingTooDeep):
            B.entity_from_json([deep])

    def test_json_of_no_entity_shape(self):
        for obj in (1, None, True, 2.5, {"a": "b"}, ["a", 1], [["a"], [None]]):
            with pytest.raises(B.NotAnEntity, match="cannot decode entity from"):
                B.entity_from_json(obj)

    def test_json_roundtrip(self):
        for e in (a, B.EMPTY, AB, B.make_pair(a, b), FSet([AB, FSet([c])])):
            assert B.entity_from_json(json.loads(json.dumps(B.entity_to_json(e)))) == e


class TestDefineSet:
    def test_examples(self):
        assert B.define_set(ABC, "(x = a or x = b)", {"a": a, "b": b}) == AB
        assert B.define_set(A, "not x = x", {}) == B.EMPTY

    def test_membership_filter(self):
        pairs = FSet([FSet([a]), FSet([a, b]), FSet([b, c]), B.EMPTY])
        got = B.define_set(pairs, "a in x", {"a": a})
        assert got == FSet([FSet([a]), FSet([a, b])])

    def test_subset_of_bound(self):
        rng = random.Random(72)
        atoms = [a, b, c, d]
        for _ in range(100):
            bound = FSet(rng.sample(atoms, rng.randint(0, 4)))
            got = B.define_set(bound, "(x = a or x in B)", {"a": a, "B": AB})
            assert got <= bound

    def test_explicit_var(self):
        got = B.define_set(ABC, "y = a", {"a": a}, var="y")
        assert got == A

    def test_ambiguous_variable_rejected(self):
        with pytest.raises(B.BqfError):
            B.define_set(ABC, "x = y", {})


# F is the graph of a total function A -> B: F is a relation, its domain is
# all of A, and its values are unique
FUNCTION_GRAPH = (
    "(((forall z in F)(exists x in A)(exists y in B) z = <x, y>"
    " and (forall x in A)(exists y in B) <x, y> in F)"
    " and (forall x in A)(forall y in B)(forall w in B)"
    "((<x, y> in F and <x, w> in F) => y = w))"
)


def is_function_graph(f, domain, codomain):
    return B.evaluate(FUNCTION_GRAPH, {"F": f, "A": domain, "B": codomain})


class TestFunctionGraph:
    def test_examples(self):
        graph = FSet([B.make_pair(a, a), B.make_pair(b, a)])
        assert is_function_graph(graph, AB, A) is True
        not_single_valued = FSet([B.make_pair(a, a), B.make_pair(a, b)])
        assert is_function_graph(not_single_valued, A, AB) is False

    def test_partial_map_rejected(self):
        graph = FSet([B.make_pair(a, a)])
        assert is_function_graph(graph, AB, AB) is False

    def test_junk_member_rejected(self):
        graph = FSet([B.make_pair(a, a), c])
        assert is_function_graph(graph, A, A) is False

    def test_all_small_graphs(self):
        # brute-force oracle: subsets of AB x AB that are total single-valued maps
        pts = [a, b]
        pair_of = {(x.name, y.name): B.make_pair(x, y) for x in pts for y in pts}
        keys = sorted(pair_of)
        for selector in itertools.product((0, 1), repeat=len(keys)):
            chosen = [pair_of[k] for k, keep in zip(keys, selector) if keep]
            graph = FSet(chosen)
            chosen_keys = [k for k, keep in zip(keys, selector) if keep]
            domain_exact = {k[0] for k in chosen_keys} == {"a", "b"}
            single = len({k[0] for k in chosen_keys}) == len(chosen_keys)
            want = domain_exact and single
            assert is_function_graph(graph, AB, AB) is want


class TestTransfer:
    def test_corpus_transfer_identity(self):
        bindings = {
            "a": a,
            "b": b,
            "c": c,
            "d": d,
            "A": A,
            "B": AB,
            "C": ABC,
            "S": ABC,
            "P": FSet([FSet([a]), B.make_pair(a, b)]),
            "D": FSet([B.make_pair(x, x) for x in (a, b, c)]),
            "U": FSet([A, AB]),
            "Q": AB,
        }
        for text in CORPUS:
            report = B.check_transfer_finite(text, bindings)
            assert report["transfer_holds"]

    def test_star_fixes_atom_pairs(self):
        for x, y in itertools.product((a, b, c), repeat=2):
            p = B.make_pair(x, y)
            assert B.star(p) == p

    def test_pinned_report(self):
        # caught mutant: the union check reading the left set's star for both
        # sides, which fails on the first pair of distinct sets
        bindings = {"a": a, "A": A, "B": AB, "P": FSet([B.make_pair(a, a)]), "U": FSet([A, AB])}
        report = B.check_transfer_finite("(forall x in A)(exists y in B) <x, y> in P", bindings)
        assert report == {
            "formula": "(forall x in A) (exists y in B) <x, y> in P",
            "standard_truth": True,
            "starred_truth": True,
            "transfer_holds": True,
            "boolean_checks": 30,  # 3 checks for each of the 10 pairs of the 4 sets
            "product_checks": 15,  # one for each of the 15 pairs of the 5 values
        }

    def test_boolean_and_product_audit_counts(self):
        report = B.check_transfer_finite("a = a", {"a": a, "A": A, "B": AB})
        assert report["boolean_checks"] == 9
        assert report["product_checks"] == 6


def _memoised_mutant(change):
    """A wrong `star`: `change` applied to every image, recursing through
    `bqf.star` and memoised in the caller's dict as `star` is."""

    def star(e, _memo=None):
        _memo = {} if _memo is None else _memo
        if e not in _memo:
            _memo[e] = change(e if isinstance(e, Atom) else FSet(B.star(m, _memo) for m in e))
        return _memo[e]

    return star


def _drop_least(e):
    return FSet(sorted(e, key=B.entity_key)[1:]) if isinstance(e, FSet) and len(e) >= 2 else e


def _a_to_b(e):
    return b if e == a else e


FUNCTION_GRAPH = (
    "(((forall z in F)(exists x in A)(exists y in B) z = <x, y>"
    " and (forall x in A)(exists y in B) <x, y> in F)"
    " and (forall x in A)(forall y in B)(forall w in B)"
    "((<x, y> in F and <x, w> in F) => y = w))"
)


class TestStarMemo:
    """One transfer check stars each distinct set once, and its audits read
    those images."""

    # the formula holds on both sides whatever star does, so only the
    # Boolean and pair audits, which read the memo, can catch the mutants
    @pytest.mark.parametrize(
        "change, bindings",
        [(_drop_least, {"a": a, "A": AB}), (_a_to_b, {"A": A, "B": FSet([b])})],
        ids=["drops_a_member", "maps_a_to_b"],
    )
    def test_wrong_star_fails_the_audit(self, monkeypatch, change, bindings):
        assert B.check_transfer_finite("A = A", bindings)["transfer_holds"]
        monkeypatch.setattr(B, "star", _memoised_mutant(change))
        with pytest.raises(B.AuditFailure, match="star does not preserve"):
            B.check_transfer_finite("A = A", bindings)

    # caught mutants: star with no memo, or a fresh memo per starring, builds
    # a new image on every call
    def test_each_set_is_starred_once(self, monkeypatch):
        real, sets, images = B.star, set(), []

        def spy(e, _memo=None):
            image = real(e, _memo)
            if isinstance(e, FSet):
                sets.add(e)
                images.append(image)  # kept alive, so ids stay distinct
            return image

        monkeypatch.setattr(B, "star", spy)
        points = [Atom(f"p{i}") for i in range(6)]
        graph = FSet(B.make_pair(x, points[(i + 1) % 6]) for i, x in enumerate(points))
        bindings = {"F": graph, "A": FSet(points), "B": FSet(points[:4])}
        report = B.check_transfer_finite(FUNCTION_GRAPH, bindings)
        assert report["standard_truth"] is False and report["boolean_checks"] == 18
        assert len(set(map(id, images))) <= len(sets) < len(images)

    # caught mutant: one memo shared by every check, which answers correctly
    # but keeps every image it built alive
    def test_nothing_is_kept_between_checks(self):
        p, q = Atom("p"), Atom("q")
        bindings = {"P": FSet([B.make_pair(p, q)]), "Q": FSet([p, q])}
        before = _live_fsets()
        assert B.check_transfer_finite("(exists x in Q) x = x", bindings)["transfer_holds"]
        assert _live_fsets() == before
