"""Bounded-quantifier formulas over lazily built finite set hierarchies.

Entities are atoms or finite sets of entities; ordered pairs are encoded as
{{x},{x,y}}.  Every quantifier must be bounded by a term, and quantifiers
range over the members of the bounding set, so evaluation is classical and
total.  The star map at finite scale is the structural identity, which makes
transfer an identity that can be checked, not assumed.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, Optional, Union

# MAX_DEPTH, the shared parser's nesting limit, bounds formulas and entities
# here too; evaluation, printing and hashing recurse once per level
from .hyperreal import MAX_DEPTH, PositionedError, _TermParser


class BqfError(Exception):
    pass


class FormulaSyntaxError(PositionedError, BqfError):
    """Bad formula text."""


class UnboundedQuantifier(BqfError):
    pass


class UnboundConstant(BqfError):
    pass


class QuantifierOverAtom(BqfError):
    pass


class NotAnEntity(BqfError):
    """Entity JSON that is neither a string nor a list."""


class NestingTooDeep(PositionedError, BqfError):
    """A formula or an entity nested deeper than MAX_DEPTH levels; `position`
    is the character offset of the formula's first opener past the limit,
    or None for an entity."""


class AuditFailure(BqfError):
    def __init__(self, message: str, instance=None):
        super().__init__(message)
        self.instance = instance


# -- entities ---------------------------------------------------------------------


class Entity:
    __slots__ = ()


class Atom(Entity, str):
    """An individual: a str, equal to and hashed as its name."""

    __slots__ = ()

    # both give the name as a plain str
    name = property(str.__str__)
    __repr__ = str.__str__


class FSet(Entity, frozenset):
    """Finite set of entities: a frozenset, iterated in hash order and printed
    sorted by `entity_key`; `FSet(...)` type-checks its members."""

    __slots__ = ()

    def __new__(cls, members: Iterable[Entity] = ()):
        members = tuple(members)
        for m in members:
            if not isinstance(m, Entity):
                raise TypeError(f"set member {m!r} is not an entity")
        return frozenset.__new__(cls, members)

    def __repr__(self):
        return "{" + ", ".join(map(repr, sorted(self, key=entity_key))) + "}"


EMPTY = FSet()


def type_level(e: Entity) -> int:
    """Smallest rank of the hierarchy containing e; atoms are rank 0."""
    if isinstance(e, Atom):
        return 0
    return 1 + max(map(type_level, e), default=0)


def entity_key(e: Entity):
    """Total order on entities used for deterministic printing."""
    if isinstance(e, Atom):
        return (0, e.name, ())
    return (1, "", tuple(sorted(map(entity_key, e))))


def _fset(members) -> FSet:
    """FSet of members already known to be entities (no type check)."""
    return frozenset.__new__(FSet, members)


def make_pair(a: Entity, b: Entity) -> FSet:
    """Ordered pair as the two-element coding {{a},{a,b}}."""
    return _fset((_fset((a,)), _fset((a, b))))


def _components(e: Entity) -> Optional[tuple]:
    """(a, b) when e is the ordered pair {{a},{a,b}}, else None."""
    if isinstance(e, FSet) and 0 < len(e) < 3:
        small, large = (*e, *e)[:2]  # both members, or the one member twice
        if len(small) > len(large):
            small, large = large, small
        if (isinstance(small, FSet) and isinstance(large, FSet)
                and len(small) == 1 and len(large) == len(e) and small <= large):
            return (*small, *(large - small or small))
    return None


def entity_to_json(e: Entity):
    if isinstance(e, Atom):
        return e.name
    return [entity_to_json(m) for m in sorted(e, key=entity_key)]


def entity_from_json(obj, _depth: int = 0) -> Entity:
    if isinstance(obj, str):
        return Atom(obj)
    if isinstance(obj, list):
        if _depth == MAX_DEPTH:
            raise NestingTooDeep(f"entity nested deeper than {MAX_DEPTH} levels")
        return FSet([entity_from_json(x, _depth + 1) for x in obj])
    raise NotAnEntity(f"cannot decode entity from {obj!r}")


def star(e: Entity, _memo: Optional[dict] = None) -> Entity:
    """Extension map at finite scale: identity on atoms, elementwise on sets.
    `_memo` maps each set starred to its image; one dict per caller stars each set once."""
    if isinstance(e, Atom):
        return e
    if _memo is None:
        _memo = {}
    if e not in _memo:
        _memo[e] = _fset([star(m, _memo) for m in e])
    return _memo[e]


# -- formula syntax ------------------------------------------------------------------
#
# formula ::= quant formula | '(' formula binop formula ')' | '(' formula ')'
#           | 'not' formula | atom
# quant   ::= '(' ('forall'|'exists') NAME 'in' term ')'
# binop   ::= 'and' | 'or' | '=>' | '<=>'
# atom    ::= term '=' term | term 'in' term
# term    ::= NAME | '<' term ',' term '>' | '{' [term {',' term}] '}'
#
# A NAME is a word that does not start with a decimal digit; the keywords are
# words of their own.  The Unicode aliases ∀ ∃ ∈ ¬ ∧ ∨ ⇒ ⇔ ⟨ ⟩ read as the ASCII
# spellings.


class _Node:
    """Immutable syntax node; equality and hashing compare the `__slots__` fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls.__slots__:
            cls._fields = operator.attrgetter(*cls.__slots__)

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __eq__(self, o):
        return type(o) is type(self) and self._fields(self) == o._fields(o)

    def __hash__(self):
        return hash((type(self), self._fields(self)))


class Term(_Node):
    __slots__ = ()


class Name(Term):
    __slots__ = ("name",)


class PairTerm(Term):
    __slots__ = ("first", "second")


class SetTerm(Term):
    __slots__ = ("items",)

    def __init__(self, items: Iterable[Term]):
        super().__init__(tuple(items))


class Formula(_Node):
    __slots__ = ()


class Eq(Formula):
    __slots__ = ("lhs", "rhs")


class Member(Formula):
    __slots__ = ("lhs", "rhs")


class Not(Formula):
    __slots__ = ("body",)


class BinOp(Formula):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Formula, rhs: Formula):
        assert op in ("and", "or", "=>", "<=>")
        super().__init__(op, lhs, rhs)


class Quant(Formula):
    __slots__ = ("kind", "var", "bound", "body")

    def __init__(self, kind: str, var: str, bound: Term, body: Formula):
        assert kind in ("forall", "exists")
        super().__init__(kind, var, bound, body)


class _Errors:
    """The shared cursor's errors, raised as this module's types."""

    syntax_error, too_deep = FormulaSyntaxError, NestingTooDeep


class _Parser(_TermParser):
    """The rules above on the shared scanner and cursor.  Each 'not', '(',
    quantifier, '<' and '{' opens one level; a quantifier's level, opened at
    its '(', holds its bound and its whole body."""

    TOKEN = re.compile(r"(?!)()|([^\W\d]\w*)|(<=>|=>|\S)")  # no number token
    WORDS = {"forall", "exists", "in", "and", "or", "not"}
    SYMBOLS = {"<=>", "=>", "<", ">", "=", "(", ")", "{", "}", ","}
    ALIASES = {"∀": "forall", "∃": "exists", "∈": "in", "¬": "not", "∧": "and", "∨": "or",
               "⇒": "=>", "⇔": "<=>", "⟨": "<", "⟩": ">"}

    def formula(self) -> Formula:
        kind = self.peek()
        if kind == "not":
            return Not(self.nested(self.formula))
        if kind != "(":
            lhs = self.entity()
            rel = self.peek()
            if rel not in ("=", "in"):
                raise self.error("expected '=' or 'in'")
            self.i += 1
            return (Eq if rel == "=" else Member)(lhs, self.entity())
        if self.tokens[self.i + 1][0] in ("forall", "exists"):
            return self.nested(self.quantifier)
        return self.nested(self.group)

    def quantifier(self) -> Formula:
        kind = self.peek()
        self.i += 1
        var = self.take("name")
        if self.peek() == ")":
            raise UnboundedQuantifier(
                f"quantifier over {var!r} has no bounding set; unbounded quantifiers are not allowed"
            )
        self.take("in")
        bound = self.entity()
        self.take(")")
        return Quant(kind, var, bound, self.formula())

    def group(self) -> Formula:
        """A formula in parentheses, e.g. the body in "(forall x in A)(x in B)",
        or two joined by a connective."""
        lhs = self.formula()
        op = self.peek()
        if op == ")":
            self.i += 1
            return lhs
        if op not in ("and", "or", "=>", "<=>"):
            raise self.error("expected 'and', 'or', '=>', '<=>' or ')'")
        self.i += 1
        rhs = self.formula()
        self.take(")")
        return BinOp(op, lhs, rhs)

    def entity(self) -> Term:
        """A term: a name, a pair or a set."""
        kind, value, _ = self.tokens[self.i]
        if kind == "name":
            self.i += 1
            return Name(value)
        if kind == "<":
            return self.nested(self.pair)
        if kind != "{":
            raise self.error("expected a name, '<' or '{'")
        return self.nested(self.members)

    def pair(self) -> Term:
        first = self.entity()
        self.take(",")
        second = self.entity()
        self.take(">")
        return PairTerm(first, second)

    def members(self) -> Term:
        items = [] if self.peek() == "}" else [self.entity()]
        while self.peek() == ",":
            self.i += 1
            items.append(self.entity())
        self.take("}")
        return SetTerm(items)


def parse(text: str) -> Formula:
    """Parse a bounded-quantifier formula; rejects unbounded quantifiers."""
    parser = _Parser(text, _Errors)
    return parser.whole(parser.formula)


def print_formula(f: Formula) -> str:
    if isinstance(f, Eq):
        return f"{print_term(f.lhs)} = {print_term(f.rhs)}"
    if isinstance(f, Member):
        return f"{print_term(f.lhs)} in {print_term(f.rhs)}"
    if isinstance(f, Not):
        return f"not {print_formula(f.body)}"
    if isinstance(f, BinOp):
        return f"({print_formula(f.lhs)} {f.op} {print_formula(f.rhs)})"
    if isinstance(f, Quant):
        return f"({f.kind} {f.var} in {print_term(f.bound)}) {print_formula(f.body)}"
    raise TypeError(f"not a formula: {f!r}")


def print_term(t: Term) -> str:
    if isinstance(t, Name):
        return t.name
    if isinstance(t, PairTerm):
        return f"<{print_term(t.first)}, {print_term(t.second)}>"
    if isinstance(t, SetTerm):
        return "{" + ", ".join(print_term(x) for x in t.items) + "}"
    raise TypeError(f"not a term: {t!r}")


def _free(node) -> set[str]:
    """Names occurring free in a formula or term, i.e. not bound by an
    enclosing quantifier."""
    if isinstance(node, Name):
        return {node.name}
    if isinstance(node, Quant):
        return _free(node.bound) | (_free(node.body) - {node.var})
    if isinstance(node, Not):
        return _free(node.body)
    if isinstance(node, SetTerm):
        return set().union(*map(_free, node.items))
    if isinstance(node, PairTerm):
        return _free(node.first) | _free(node.second)
    return _free(node.lhs) | _free(node.rhs)


# -- evaluation --------------------------------------------------------------------
#
# Each call compiles its formula into nested closures (env, pairs) -> value (SICP
# 4.1.7).  They evaluate in the tree's order: the left side first, and a
# quantifier's bound before its members, which are taken in frozenset order.
# The compiler has one pruning rule: a quantifier whose body has a conjunct
# that pins its variable visits only the members that conjunct allows
# (`_candidates`), and its body is evaluated afresh at each member it visits.


def _check_bindings(f: Formula, bindings: dict, var: Optional[str] = None) -> None:
    """Raise TypeError naming a binding that is not an entity (an Atom equals
    its name, so `in` would read a plain str as a string of characters), and
    UnboundConstant unless every free name of f is bound or is `var`."""
    for name, value in bindings.items():
        if not isinstance(value, Entity):
            raise TypeError(f"binding {name!r} is a {type(value).__name__}, not an entity")
    missing = sorted(_free(f).difference(bindings, [var]))
    if missing:
        raise UnboundConstant(f"no entity bound to {', '.join(map(repr, missing))}")


def evaluate(f: Formula, bindings: dict, _pairs: Optional[_Pairs] = None, _holds=None) -> bool:
    """Classical truth value; quantifiers range over the bounding set's members.

    Every free name must be bound to an entity; this is checked before
    evaluation, since connectives short-circuit and might otherwise never
    reach one.  `_pairs`, a pair table to read and extend, shares pairs
    between calls, and `_holds`, f compiled, shares its compilation.
    """
    if isinstance(f, str):
        f = parse(f)
    _check_bindings(f, bindings)
    holds = _compile(f) if _holds is None else _holds
    return holds(dict(bindings), _Pairs() if _pairs is None else _pairs)


class _Pairs(dict):
    """(first, second) -> make_pair(first, second), and first -> {first}, built
    on first use; the pairs that start with one entity share its singleton.
    `index(k, i)` reads k's pairs by their other component, built once per
    set object: keyed by identity, since an equal key (the other side's set
    in a transfer check) would be compared member by member at each lookup."""

    def __init__(self):
        super().__init__()
        self.indexes = {}

    def __missing__(self, key):
        value = self[key] = _fset((self[key[0]], _fset(key)) if type(key) is tuple else (key,))
        return value

    def index(self, k: FSet, i: int) -> dict:
        """other component -> the components i of the pairs in k."""
        entry = self.indexes.get((id(k), i))
        if entry is None:  # k is kept with its index, so its id is not reused
            index = {}
            for e in k:
                parts = _components(e)
                if parts:
                    index.setdefault(parts[1 - i], []).append(parts[i])
            entry = self.indexes[id(k), i] = (k, index)
        return entry[1]


def _compile_term(t: Term):
    if isinstance(t, Name):
        name = t.name
        return lambda env, pairs: env[name]
    if isinstance(t, PairTerm):
        if isinstance(t.first, Name) and isinstance(t.second, Name):  # <x, y>: names read inline
            first, second = t.first.name, t.second.name
            return lambda env, pairs: pairs[env[first], env[second]]
        first, second = _compile_term(t.first), _compile_term(t.second)
        return lambda env, pairs: pairs[first(env, pairs), second(env, pairs)]
    items = [_compile_term(item) for item in t.items]
    return lambda env, pairs: FSet([item(env, pairs) for item in items])


def _connect(op: str, lhs, rhs):
    """`(lhs op rhs)`."""
    if op == "and":
        return lambda env, pairs: lhs(env, pairs) and rhs(env, pairs)
    if op == "or":
        return lambda env, pairs: lhs(env, pairs) or rhs(env, pairs)
    if op == "=>":
        return lambda env, pairs: not lhs(env, pairs) or rhs(env, pairs)
    return lambda env, pairs: lhs(env, pairs) == rhs(env, pairs)


def _compile(f: Formula):
    if isinstance(f, Eq):
        lhs, rhs = _compile_term(f.lhs), _compile_term(f.rhs)
        if isinstance(f.lhs, Name):  # x = t: the name read inline
            name = f.lhs.name
            return lambda env, pairs: env[name] == rhs(env, pairs)
        return lambda env, pairs: lhs(env, pairs) == rhs(env, pairs)
    if isinstance(f, Member):  # nothing is a member of an atom
        lhs, rhs = _compile_term(f.lhs), _compile_term(f.rhs)
        return lambda env, pairs: not isinstance(s := rhs(env, pairs), Atom) and lhs(env, pairs) in s
    if isinstance(f, Quant):
        return _compile_quant(f)
    if isinstance(f, Not):
        body = _compile(f.body)
        return lambda env, pairs: not body(env, pairs)
    if isinstance(f, BinOp):
        return _connect(f.op, _compile(f.lhs), _compile(f.rhs))
    raise TypeError(f"not a formula: {f!r}")


def _conjuncts(f: Formula):
    """The operands of a tree of 'and's, left to right; f itself if it is no 'and'."""
    if isinstance(f, BinOp) and f.op == "and":
        yield from _conjuncts(f.lhs)
        yield from _conjuncts(f.rhs)
    else:
        yield f


def _is_name(t: Term, name: str) -> bool:
    return isinstance(t, Name) and t.name == name


def _candidates(f: Quant):
    """None, or (env, pairs) -> the values of f.var that a conjunct of its
    body allows.  That is, for an exists over a conjunction, or a forall over
    an implication whose antecedent is a conjunction (a lone atom is a
    conjunction of one), directly or under nested quantifiers of the same
    kind whose bounds do not mention f.var, the first conjunct `v = t`,
    `t = <..., v, ...>`, `v in K` or `<..., v, ...> in K` with t, K and the
    pair's other component free of the block's variables.  Every other value
    makes the body false (exists) or true (forall)."""
    block, body, var = {f.var}, f.body, f.var
    while isinstance(body, Quant) and body.kind == f.kind and body.var != f.var and f.var not in _free(body.bound):
        block.add(body.var)
        body = body.body
    if f.kind == "forall":
        if not (isinstance(body, BinOp) and body.op == "=>"):
            return None
        body = body.lhs
    for conjunct in _conjuncts(body):
        equation = isinstance(conjunct, Eq)
        if equation:
            sides = ((conjunct.lhs, conjunct.rhs), (conjunct.rhs, conjunct.lhs))
        elif isinstance(conjunct, Member):
            sides = ((conjunct.rhs, conjunct.lhs),)
        else:
            continue
        for known, other in sides:
            if _is_name(other, var):
                i = rest = None
            elif isinstance(other, PairTerm) and (_is_name(other.first, var) or _is_name(other.second, var)):
                i = 0 if _is_name(other.first, var) else 1
                rest = (other.second, other.first)[i]
            else:
                continue
            if not block.isdisjoint(_free(known)):
                continue
            if not equation and rest is not None and not block.isdisjoint(_free(rest)):
                continue  # a pair in K keyed by a block variable
            value = _compile_term(known)
            if i is None:
                if equation:
                    return lambda env, pairs: (value(env, pairs),)
                return lambda env, pairs: () if isinstance(k := value(env, pairs), Atom) else k
            if equation:
                def decoded(env, pairs):
                    parts = _components(value(env, pairs))
                    return parts[i:i + 1] if parts else ()

                return decoded
            rest = _compile_term(rest)
            return lambda env, pairs: () if isinstance(k := value(env, pairs), Atom) else (
                pairs.index(k, i).get(rest(env, pairs), ()))
    return None


def _compile_quant(f: Quant):
    bound, var, forall = _compile_term(f.bound), f.var, f.kind == "forall"
    candidates, body = _candidates(f), _compile(f.body)

    def quant(env, pairs):
        members = bound(env, pairs)
        if isinstance(members, Atom) or not members:  # an atom has no members
            return forall
        if candidates:  # the others settle the body as false (exists) or true (forall)
            members = [v for v in candidates(env, pairs) if v in members]
        env = dict(env)  # members are bound in a copy, so an outer binding of var stands
        for member in members:  # the body is evaluated afresh at each
            env[var] = member
            if body(env, pairs) is not forall:
                return not forall
        return forall

    return quant


def define_set(
    bound: FSet,
    formula: Union[str, Formula],
    bindings: dict,
    var: Optional[str] = None,
) -> FSet:
    """The subset of `bound` whose members satisfy the formula.

    The designated variable is the unique constant of the formula that is not
    already bound; pass `var` to name it explicitly.
    """
    if isinstance(formula, str):
        formula = parse(formula)
    if not isinstance(bound, Entity):
        raise TypeError(f"comprehension bound is a {type(bound).__name__}, not an entity")
    if not isinstance(bound, FSet):
        raise QuantifierOverAtom("comprehension bound must be a finite set")
    if var is None:
        free = sorted(_free(formula) - set(bindings))
        if len(free) != 1:
            raise BqfError(
                f"expected exactly one designated free variable, found {free or 'none'}"
            )
        var = free[0]
    _check_bindings(formula, bindings, var)
    holds, env, pairs, members = _compile(formula), dict(bindings), _Pairs(), []
    for m in bound:
        env[var] = m
        if holds(env, pairs):
            members.append(m)
    return FSet(members)


def is_function_graph(f: Entity, domain: Entity, codomain: Entity) -> bool:
    """Decide whether f is the graph of a total function domain -> codomain.

    Evaluates the three-conjunct characterization (f is a relation, the
    domain is all of `domain`, values are unique) through the formula
    evaluator rather than by direct set inspection.
    """
    phi = parse(
        "(((forall z in F)(exists x in A)(exists y in B) z = <x, y>"
        " and (forall x in A)(exists y in B) <x, y> in F)"
        " and (forall x in A)(forall y in B)(forall w in B)"
        "((<x, y> in F and <x, w> in F) => y = w))"
    )
    return evaluate(phi, {"F": f, "A": domain, "B": codomain})


_BOOLEAN_OPS = (("union", operator.or_), ("intersection", operator.and_), ("difference", operator.sub))


def check_transfer_finite(formula: Union[str, Formula], bindings: dict) -> dict:
    """Evaluate a formula and its starred counterpart; they must agree.

    Also audits that the star map preserves unions, intersections, set
    differences and ordered pairs on the supplied entities.  Returns a report;
    raises AuditFailure with the offending instance if any identity fails.
    """
    if isinstance(formula, str):
        formula = parse(formula)
    # both sides read one compilation and one pair table: star keeps every pair equal
    holds, pairs = _compile(formula), _Pairs()
    standard = evaluate(formula, bindings, _pairs=pairs, _holds=holds)
    memo = {}  # every starring below reads and extends it
    starred_bindings = {k: star(v, memo) for k, v in bindings.items()}
    starred = evaluate(formula, starred_bindings, _pairs=pairs, _holds=holds)
    text = print_formula(formula)
    if standard != starred:
        raise AuditFailure("transfer identity failed", instance={"formula": text})
    report = {
        "formula": text,
        "standard_truth": standard,
        "starred_truth": starred,
        "transfer_holds": True,
        "boolean_checks": 0,
        "product_checks": 0,
    }
    values = sorted(bindings.items())
    sets = [(k, v, starred_bindings[k]) for k, v in values if isinstance(v, FSet)]
    for i, (ka, a, sa) in enumerate(sets):
        for kb, b, sb in sets[i:]:
            for opname, op in _BOOLEAN_OPS:
                if star(_fset(op(a, b)), memo) != op(sa, sb):
                    raise AuditFailure(
                        f"star does not preserve {opname}",
                        instance={"lhs": ka, "rhs": kb},
                    )
                report["boolean_checks"] += 1
    for i, (ka, a) in enumerate(values):
        for kb, b in values[i:]:
            if star(make_pair(a, b), memo) != make_pair(starred_bindings[ka], starred_bindings[kb]):
                raise AuditFailure(
                    "star does not preserve ordered pairs", instance={"lhs": ka, "rhs": kb}
                )
            report["product_checks"] += 1
    return report
