"""Bounded-quantifier formulas over lazily built finite set hierarchies.

Entities are atoms or finite sets of entities; ordered pairs are encoded as
{{x},{x,y}}.  Every quantifier must be bounded by a term, and quantifiers
enumerate the members of the bounding set, so evaluation is classical and
total.  The star map at finite scale is the structural identity, which makes
transfer an identity that can be checked, not assumed.
"""

from __future__ import annotations

import operator
from typing import Iterable, Optional, Union


class BqfError(Exception):
    pass


class FormulaSyntaxError(BqfError):
    """Bad formula text; `position` is the character offset of the culprit."""

    def __init__(self, message: str, position: int, expected: tuple = ()):
        detail = f"{message} (at position {position}"
        if expected:
            detail += f", expected one of {', '.join(expected)}"
        detail += ")"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class UnboundedQuantifier(BqfError):
    pass


class UnboundConstant(BqfError):
    pass


class QuantifierOverAtom(BqfError):
    pass


class NestingTooDeep(BqfError):
    """A formula or an entity nested deeper than MAX_DEPTH levels."""


# deepest nesting the parser and entity_from_json accept; evaluation, printing
# and hashing recurse once per level, so this keeps them far from Python's
# recursion limit
MAX_DEPTH = 100


class AuditFailure(BqfError):
    def __init__(self, message: str, instance=None):
        super().__init__(message)
        self.instance = instance


# -- entities ---------------------------------------------------------------------


class Entity:
    __slots__ = ()


class Atom(Entity):
    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("atom", name)))

    def __setattr__(self, *args):
        raise AttributeError("Atom is immutable")

    def __eq__(self, other):
        return isinstance(other, Atom) and self.name == other.name

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.name


class FSet(Entity):
    """Finite set of entities; `FSet(...)` type-checks its members."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[Entity] = ()):
        ms = frozenset(members)
        for m in ms:
            if not isinstance(m, Entity):
                raise TypeError(f"set member {m!r} is not an entity")
        object.__setattr__(self, "members", ms)

    def __setattr__(self, *args):
        raise AttributeError("FSet is immutable")

    def __eq__(self, other):
        return isinstance(other, FSet) and self.members == other.members

    def __hash__(self):
        return hash(("fset", self.members))

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members, key=entity_key))

    def __contains__(self, item):
        return item in self.members

    def __repr__(self):
        return "{" + ", ".join(repr(m) for m in self) + "}"


EMPTY = FSet()


def type_level(e: Entity) -> int:
    """Smallest rank of the hierarchy containing e; atoms are rank 0."""
    if isinstance(e, Atom):
        return 0
    return 1 + max((type_level(m) for m in e.members), default=0)


def entity_key(e: Entity):
    """Total order on entities used for deterministic printing."""
    if isinstance(e, Atom):
        return (0, e.name, ())
    return (1, "", tuple(entity_key(m) for m in sorted(e.members, key=entity_key)))


def _fset(members: frozenset) -> FSet:
    """FSet of members already known to be entities (no type check)."""
    s = object.__new__(FSet)
    object.__setattr__(s, "members", members)
    return s


def make_pair(a: Entity, b: Entity) -> FSet:
    """Ordered pair as the two-element coding {{a},{a,b}}."""
    return _fset(frozenset((_fset(frozenset((a,))), _fset(frozenset((a, b))))))


def entity_to_json(e: Entity):
    if isinstance(e, Atom):
        return e.name
    return [entity_to_json(m) for m in e]


def entity_from_json(obj, _depth: int = 0) -> Entity:
    if isinstance(obj, str):
        return Atom(obj)
    if isinstance(obj, list):
        if _depth == MAX_DEPTH:
            raise NestingTooDeep(f"entity nested deeper than {MAX_DEPTH} levels")
        return FSet([entity_from_json(x, _depth + 1) for x in obj])
    raise TypeError(f"cannot decode entity from {obj!r}")


def star(e: Entity) -> Entity:
    """Extension map at finite scale: identity on atoms, elementwise on sets."""
    if isinstance(e, Atom):
        return e
    return FSet(star(m) for m in e.members)


# -- formula syntax ------------------------------------------------------------------
#
# formula ::= quant formula | '(' formula binop formula ')' | 'not' formula | atom
# quant   ::= '(' ('forall'|'exists') IDENT 'in' term ')'
# binop   ::= 'and' | 'or' | '=>' | '<=>'
# atom    ::= term '=' term | term 'in' term
# term    ::= IDENT | '<' term ',' term '>' | '{' [term {',' term}] '}'


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


_KEYWORDS = {"forall", "exists", "in", "and", "or", "not"}
_UNICODE_ALIASES = {
    "∀": "forall",
    "∃": "exists",
    "∈": "in",
    "¬": "not",
    "∧": "and",
    "∨": "or",
    "⇒": "=>",
    "⇔": "<=>",
    "⟨": "<",
    "⟩": ">",
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, position); kind is 'ident', 'kw' or 'sym'."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _UNICODE_ALIASES:
            val = _UNICODE_ALIASES[ch]
            kind = "kw" if val.isalpha() else "sym"
            out.append((kind, val, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            out.append(("kw" if word in _KEYWORDS else "ident", word, i))
            i = j
            continue
        matched = False
        for sym in ("<=>", "=>", "<", ">", "=", "(", ")", "{", "}", ","):
            if text.startswith(sym, i):
                out.append(("sym", sym, i))
                i += len(sym)
                matched = True
                break
        if not matched:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    return out


def _nested(parse):
    """Count the nesting depth of a recursive parse method.

    A parse that goes past MAX_DEPTH raises and is abandoned, so the count
    is only unwound on success.
    """

    def method(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise NestingTooDeep(
                f"formula nested deeper than {MAX_DEPTH} levels (at position {self.offset()})"
            )
        node = parse(self)
        self.depth -= 1
        return node

    return method


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.end = len(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Optional[tuple]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def offset(self) -> int:
        """Character offset of the next token, or the text's length at its end."""
        return self.tokens[self.pos][2] if self.pos < len(self.tokens) else self.end

    def next_is(self, kind: str, value: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == kind and (value is None or tok[1] == value)

    def take(self, kind: str, value: Optional[str] = None, expected: tuple = ()):
        tok = self.peek()
        if tok is None or tok[0] != kind or (value is not None and tok[1] != value):
            raise FormulaSyntaxError(
                f"unexpected {tok[1]!r}" if tok else "unexpected end of input",
                self.offset(),
                expected or ((value,) if value else (kind,)),
            )
        self.pos += 1
        return tok

    @_nested
    def parse_formula(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", self.offset(), ("formula",))
        if tok == ("kw", "not", tok[2]):
            self.pos += 1
            return Not(self.parse_formula())
        if tok[0] == "sym" and tok[1] == "(":
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if nxt is not None and nxt[0] == "kw" and nxt[1] in ("forall", "exists"):
                return self.parse_quant()
            self.pos += 1
            lhs = self.parse_formula()
            op_tok = self.peek()
            if op_tok is not None and op_tok[0] == "sym" and op_tok[1] == ")":
                # plain grouping, e.g. the body in "(forall x in A)(x in B)"
                self.pos += 1
                return lhs
            if op_tok is None or not (
                (op_tok[0] == "kw" and op_tok[1] in ("and", "or"))
                or (op_tok[0] == "sym" and op_tok[1] in ("=>", "<=>"))
            ):
                raise FormulaSyntaxError(
                    f"unexpected {op_tok[1]!r}" if op_tok else "unexpected end of input",
                    self.offset(),
                    ("and", "or", "=>", "<=>"),
                )
            self.pos += 1
            rhs = self.parse_formula()
            self.take("sym", ")")
            return BinOp(op_tok[1], lhs, rhs)
        return self.parse_atom()

    def parse_quant(self) -> Formula:
        self.take("sym", "(")
        kind = self.take("kw")[1]
        var = self.take("ident", expected=("variable name",))[1]
        nxt = self.peek()
        if nxt is not None and nxt[0] == "sym" and nxt[1] == ")":
            raise UnboundedQuantifier(
                f"quantifier over {var!r} has no bounding set; unbounded quantifiers are not allowed"
            )
        self.take("kw", "in")
        bound = self.parse_term()
        self.take("sym", ")")
        body = self.parse_formula()
        return Quant(kind, var, bound, body)

    def parse_atom(self) -> Formula:
        lhs = self.parse_term()
        tok = self.peek()
        if tok is not None and tok[0] == "sym" and tok[1] == "=":
            self.pos += 1
            return Eq(lhs, self.parse_term())
        if tok is not None and tok[0] == "kw" and tok[1] == "in":
            self.pos += 1
            return Member(lhs, self.parse_term())
        raise FormulaSyntaxError(
            f"unexpected {tok[1]!r}" if tok else "unexpected end of input",
            self.offset(),
            ("=", "in"),
        )

    @_nested
    def parse_term(self) -> Term:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", self.offset(), ("term",))
        if tok[0] == "ident":
            self.pos += 1
            return Name(tok[1])
        if tok[0] == "sym" and tok[1] == "<":
            self.pos += 1
            first = self.parse_term()
            self.take("sym", ",")
            second = self.parse_term()
            self.take("sym", ">")
            return PairTerm(first, second)
        if tok[0] == "sym" and tok[1] == "{":
            self.pos += 1
            items = []
            if not self.next_is("sym", "}"):
                items.append(self.parse_term())
                while self.next_is("sym", ","):
                    self.pos += 1
                    items.append(self.parse_term())
            self.take("sym", "}")
            return SetTerm(items)
        raise FormulaSyntaxError(
            f"unexpected {tok[1]!r}", self.offset(), ("identifier", "<", "{")
        )


def parse(text: str) -> Formula:
    """Parse a bounded-quantifier formula; rejects unbounded quantifiers."""
    parser = _Parser(text)
    formula = parser.parse_formula()
    tok = parser.peek()
    if tok is not None:
        raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2], ())
    return formula


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


def constants(f: Formula) -> set[str]:
    """Names occurring free, i.e. not bound by an enclosing quantifier."""
    out: set[str] = set()

    def term(t: Term, scope: frozenset):
        if isinstance(t, Name):
            if t.name not in scope:
                out.add(t.name)
        elif isinstance(t, PairTerm):
            term(t.first, scope)
            term(t.second, scope)
        else:
            for item in t.items:
                term(item, scope)

    def walk(g: Formula, scope: frozenset):
        if isinstance(g, (Eq, Member)):
            term(g.lhs, scope)
            term(g.rhs, scope)
        elif isinstance(g, Not):
            walk(g.body, scope)
        elif isinstance(g, BinOp):
            walk(g.lhs, scope)
            walk(g.rhs, scope)
        else:
            term(g.bound, scope)
            walk(g.body, scope | {g.var})

    walk(f, frozenset())
    return out


# -- evaluation --------------------------------------------------------------------


def _eval_term(t: Term, env: dict, pairs: dict) -> Entity:
    """Value of a term; `pairs` maps (first, second) to the ordered pair
    already built for it during the current evaluation."""
    if isinstance(t, Name):
        return env[t.name]
    if isinstance(t, PairTerm):
        key = (_eval_term(t.first, env, pairs), _eval_term(t.second, env, pairs))
        pair = pairs.get(key)
        if pair is None:
            pair = pairs[key] = make_pair(*key)
        return pair
    return FSet(_eval_term(item, env, pairs) for item in t.items)


def _check_bound(f: Formula, bound: Iterable[str]) -> None:
    """Raise UnboundConstant unless every free name of f is in `bound`."""
    missing = sorted(constants(f).difference(bound))
    if missing:
        raise UnboundConstant(f"no entity bound to {', '.join(map(repr, missing))}")


def evaluate(f: Formula, bindings: dict) -> bool:
    """Classical truth value; quantifiers enumerate the bounding set's members.

    Every free name must be bound; this is checked before evaluation, since
    connectives short-circuit and might otherwise never reach one.
    """
    if isinstance(f, str):
        f = parse(f)
    _check_bound(f, bindings)
    return _eval(f, dict(bindings), {})


def _eval(f: Formula, env: dict, pairs: dict) -> bool:
    if isinstance(f, Eq):
        return _eval_term(f.lhs, env, pairs) == _eval_term(f.rhs, env, pairs)
    if isinstance(f, Member):
        container = _eval_term(f.rhs, env, pairs)
        if isinstance(container, Atom):
            return False
        return _eval_term(f.lhs, env, pairs) in container
    if isinstance(f, Not):
        return not _eval(f.body, env, pairs)
    if isinstance(f, BinOp):
        a = _eval(f.lhs, env, pairs)
        op = f.op
        if op == "and":
            return a and _eval(f.rhs, env, pairs)
        if op == "or":
            return a or _eval(f.rhs, env, pairs)
        if op == "=>":
            return not a or _eval(f.rhs, env, pairs)
        return a == _eval(f.rhs, env, pairs)
    if isinstance(f, Quant):
        bound = _eval_term(f.bound, env, pairs)
        if isinstance(bound, Atom):
            raise QuantifierOverAtom(
                f"quantifier range {print_term(f.bound)} evaluates to the atom {bound!r}"
            )
        saved = env.get(f.var, _MISSING)
        try:
            for member in bound.members:
                env[f.var] = member
                truth = _eval(f.body, env, pairs)
                if f.kind == "forall" and not truth:
                    return False
                if f.kind == "exists" and truth:
                    return True
            return f.kind == "forall"
        finally:
            if saved is _MISSING:
                env.pop(f.var, None)
            else:
                env[f.var] = saved
    raise TypeError(f"not a formula: {f!r}")


_MISSING = object()


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
    if not isinstance(bound, FSet):
        raise QuantifierOverAtom("comprehension bound must be a finite set")
    if var is None:
        free = sorted(constants(formula) - set(bindings))
        if len(free) != 1:
            raise BqfError(
                f"expected exactly one designated free variable, found {free or 'none'}"
            )
        var = free[0]
    _check_bound(formula, [*bindings, var])
    env = dict(bindings)
    pairs = {}
    members = []
    for m in bound.members:
        env[var] = m
        if _eval(formula, env, pairs):
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


def check_transfer_finite(formula: Union[str, Formula], bindings: dict) -> dict:
    """Evaluate a formula and its starred counterpart; they must agree.

    Also audits that the star map preserves unions, intersections, set
    differences and ordered pairs on the supplied entities.  Returns a report;
    raises AuditFailure with the offending instance if any identity fails.
    """
    if isinstance(formula, str):
        formula = parse(formula)
    standard = evaluate(formula, bindings)
    starred_bindings = {k: star(v) for k, v in bindings.items()}
    starred = evaluate(formula, starred_bindings)
    if standard != starred:
        raise AuditFailure(
            "transfer identity failed", instance={"formula": print_formula(formula)}
        )
    report = {
        "formula": print_formula(formula),
        "standard_truth": standard,
        "starred_truth": starred,
        "transfer_holds": True,
        "boolean_checks": 0,
        "product_checks": 0,
    }
    values = sorted(bindings.items())
    sets = [(k, v) for k, v in values if isinstance(v, FSet)]
    for i, (ka, a) in enumerate(sets):
        sa = starred_bindings[ka].members
        for kb, b in sets[i:]:
            sb = starred_bindings[kb].members
            union = FSet(a.members | b.members)
            inter = FSet(a.members & b.members)
            diff = FSet(a.members - b.members)
            checks = (
                (star(union), FSet(sa | sb), "union"),
                (star(inter), FSet(sa & sb), "intersection"),
                (star(diff), FSet(sa - sb), "difference"),
            )
            for got, want, opname in checks:
                if got != want:
                    raise AuditFailure(
                        f"star does not preserve {opname}",
                        instance={"lhs": ka, "rhs": kb},
                    )
                report["boolean_checks"] += 1
    for i, (ka, a) in enumerate(values):
        for kb, b in values[i:]:
            if star(make_pair(a, b)) != make_pair(starred_bindings[ka], starred_bindings[kb]):
                raise AuditFailure(
                    "star does not preserve ordered pairs", instance={"lhs": ka, "rhs": kb}
                )
            report["product_checks"] += 1
    return report
