"""Sequences of rationals modulo almost-everywhere agreement.

Two decidable sequence classes are supported: rational functions of the index
and eventually periodic sequences.  Comparisons return three-valued verdicts:
a relation can hold on a cofinite set (true a.e.), a finite set (false a.e.),
or on a set whose measure would depend on the choice of ultrafilter.  The
latter only happens for eventually periodic inputs.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

# MAX_DEPTH, the nesting limit of the shared term parser, is the germ parsers' limit too
from .hyperreal import MAX_DEPTH, Classification, Hyperreal, PositionedError, _TermParser  # noqa: F401
from .poly import Poly, _exact


class GermError(Exception):
    pass


class MixedClasses(GermError):
    """Operands live in different sequence classes and neither is constant."""


class AlmostEverywhereZeroDivisor(GermError):
    pass


class UltrafilterDependentZeroDivisor(GermError):
    """Inverse of a germ whose zero set is periodic and nontrivial."""


class QuantifierPresent(GermError):
    pass


class VanishingDivisor(GermError, ZeroDivisionError):
    """A divisor that is zero where it is evaluated: a zero denominator
    polynomial, or a divisor that vanishes at the one index asked for."""


class GermSyntaxError(PositionedError, GermError):
    """Bad germ or formula text."""


class NestingTooDeep(GermSyntaxError):
    """A formula or term nested deeper than MAX_DEPTH levels, or a chain of
    terms or clauses too long for the recursive walks."""


class WindowTooLarge(GermError):
    """Periodic germs whose aligned window, the longest preperiod plus the lcm
    of the periods, holds more than MAX_WINDOW indices."""


# largest aligned window a periodic comparison or formula builds; the stored
# tails cost a few machine words per index, so this bounds time and memory
MAX_WINDOW = 2**20


class AeVerdict(Enum):
    TRUE_AE = "true-ae"
    FALSE_AE = "false-ae"
    ULTRAFILTER_DEPENDENT = "ultrafilter-dependent"

    def negate(self) -> "AeVerdict":
        if self is AeVerdict.TRUE_AE:
            return AeVerdict.FALSE_AE
        if self is AeVerdict.FALSE_AE:
            return AeVerdict.TRUE_AE
        return self


def _verdict_from_flags(flags: list) -> AeVerdict:
    """Verdict from the truth values (bools) at every residue of a window."""
    if False not in flags:
        return AeVerdict.TRUE_AE
    if True not in flags:
        return AeVerdict.FALSE_AE
    return AeVerdict.ULTRAFILTER_DEPENDENT


class RationalGerm:
    """Germ of n -> num(n)/den(n); the denominator is eventually nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly.ONE):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero():
            raise VanishingDivisor("denominator polynomial is zero")
        if num.is_zero():
            num, den = Poly.ZERO, Poly.ONE
        else:
            # only two non-constant sides can share a factor of positive degree
            g = num.gcd(den) if num.degree > 0 and den.degree > 0 else Poly.ONE
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading
            if lead != 1:
                num, den = num.scale(1 / lead), den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RationalGerm is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalGerm) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("rf", self.num, self.den))

    def __repr__(self) -> str:
        return f"rf(({self.num.to_str('n')})/({self.den.to_str('n')}))"

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree <= 0

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("germ is not constant")
        return self.num.coeff(0) / self.den.coeff(0)

    def value_at(self, n: int) -> Fraction:
        d = self.den.eval(n)
        if d == 0:
            raise VanishingDivisor(f"denominator vanishes at n={n}")
        return self.num.eval(n) / d


class PeriodicGerm:
    """Eventually periodic sequence, normalized to minimal period and preperiod.

    Entries are stored as int when integral and as Fraction otherwise; since
    Fraction(2) == 2 with equal hashes and the same str, this changes no
    comparison, hash or repr.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod, period):
        pre = [_exact(c) for c in preperiod]
        per = [_exact(c) for c in period]
        if not per:
            raise ValueError("period must be nonempty")
        # minimal period: the least divisor of the block length that tiles it
        length = len(per)
        for d in range(1, length + 1):
            if length % d == 0 and per[:d] * (length // d) == per:
                per = per[:d]
                break
        # absorb preperiod entries that already match the periodic tail
        while pre and pre[-1] == per[-1]:
            pre.pop()
            per = [per[-1]] + per[:-1]
        object.__setattr__(self, "preperiod", tuple(pre))
        object.__setattr__(self, "period", tuple(per))

    def __setattr__(self, *args):
        raise AttributeError("PeriodicGerm is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PeriodicGerm)
            and self.preperiod == other.preperiod
            and self.period == other.period
        )

    def __hash__(self) -> int:
        return hash(("ep", self.preperiod, self.period))

    def __repr__(self) -> str:
        pre = ",".join(str(c) for c in self.preperiod)
        per = ",".join(str(c) for c in self.period)
        return f"ep([{pre}];[{per}])"

    def is_constant(self) -> bool:
        return not self.preperiod and len(self.period) == 1

    def constant_value(self) -> Fraction:
        if len(self.period) != 1:
            raise ValueError("germ is not eventually constant")
        return Fraction(self.period[0])

    def value_at(self, n: int) -> Fraction:
        """Value at index n, counting from n = 1."""
        i = n - 1
        if i < len(self.preperiod):
            return Fraction(self.preperiod[i])
        return Fraction(self.period[(i - len(self.preperiod)) % len(self.period)])


Germ = Union[RationalGerm, PeriodicGerm]


def embed_constant(c) -> PeriodicGerm:
    """The constant sequence c, c, c, ..."""
    return PeriodicGerm((), (c,))


def _cauchy_bound(p: Poly) -> int:
    """Integer beyond every real root of p (at least 1)."""
    if p.degree <= 0:
        return 1
    # den cancels: max|c/den| / |lead/den| = max|c| / |lead| on the numerators
    return 1 + -(-max(map(abs, p.ints)) // abs(p.ints[-1]))


# -- class alignment -----------------------------------------------------------


def _to_rational(g: Germ) -> Optional[RationalGerm]:
    if isinstance(g, RationalGerm):
        return g
    if len(g.period) == 1:
        # eventually constant: a.e. equal to the constant rational function
        return RationalGerm(Poly.const(g.period[0]))
    return None


def _to_periodic(g: Germ) -> Optional[PeriodicGerm]:
    if isinstance(g, PeriodicGerm):
        return g
    if g.is_constant():
        return embed_constant(g.constant_value())
    return None


def _align(germs: Sequence[Germ]) -> tuple[Sequence[Germ], bool]:
    """Bring the germs into one sequence class: (germs, is_rational_class).

    Germs already in one class pass through, so periodic constants stay
    periodic; otherwise all become rational if they can, else periodic."""
    if all(isinstance(g, RationalGerm) for g in germs):
        return germs, True
    if all(isinstance(g, PeriodicGerm) for g in germs):
        return germs, False
    for convert, rational in ((_to_rational, True), (_to_periodic, False)):
        out = [convert(g) for g in germs]
        if all(g is not None for g in out):
            return out, rational
    first = type(germs[0])
    other = next(type(g) for g in germs if not isinstance(g, first))
    raise MixedClasses(f"cannot mix {first.__name__} with {other.__name__}")


def _window(germs) -> tuple[int, int]:
    """Common preperiod length and period lcm of periodic germs.

    Raises WindowTooLarge before any tail of that size is built."""
    pre, length = 0, 1
    for g in germs:
        pre = max(pre, len(g.preperiod))
        length = math.lcm(length, len(g.period))
    if pre + length > MAX_WINDOW:
        raise WindowTooLarge(
            f"aligned window of {pre + length} indices exceeds MAX_WINDOW = {MAX_WINDOW}"
        )
    return pre, length


def _tail(g: PeriodicGerm, pre: int, length: int, per=None):
    """Values of g at indices pre+1 ... pre+length, where pre is at least g's
    preperiod length and length a multiple of its period: the stored period,
    rotated to start at index pre+1 and repeated.  With per, a list aligned
    with g.period, its entries at those indices instead."""
    per = g.period if per is None else per
    shift = (pre - len(g.preperiod)) % len(per)
    return (per[shift:] + per[:shift]) * (length // len(per))


# -- arithmetic ------------------------------------------------------------------


def add(a: Germ, b: Germ) -> Germ:
    (a, b), rational = _align((a, b))
    if rational:
        return RationalGerm(a.num * b.den + b.num * a.den, a.den * b.den)
    return _pointwise(a, b, operator.add)


def sub(a: Germ, b: Germ) -> Germ:
    return add(a, neg(b))


def mul(a: Germ, b: Germ) -> Germ:
    (a, b), rational = _align((a, b))
    if rational:
        return RationalGerm(a.num * b.num, a.den * b.den)
    return _pointwise(a, b, operator.mul)


def neg(a: Germ) -> Germ:
    if isinstance(a, RationalGerm):
        return RationalGerm(-a.num, a.den)
    return PeriodicGerm([-c for c in a.preperiod], [-c for c in a.period])


def inv(a: Germ) -> Germ:
    if isinstance(a, RationalGerm):
        if a.num.is_zero():
            raise AlmostEverywhereZeroDivisor("inverse of the zero germ")
        return RationalGerm(a.den, a.num)
    zeros = sum(1 for c in a.period if c == 0)
    if zeros == len(a.period):
        raise AlmostEverywhereZeroDivisor("inverse of the zero germ")
    if zeros:
        raise UltrafilterDependentZeroDivisor(
            "zero set is one or more residue classes; the inverse depends on the ultrafilter"
        )
    # preperiod zeros sit in a finite set; any values will do there
    pre = [Fraction(0) if c == 0 else 1 / Fraction(c) for c in a.preperiod]
    return PeriodicGerm(pre, [1 / Fraction(c) for c in a.period])


def div(a: Germ, b: Germ) -> Germ:
    return mul(a, inv(b))


def _pointwise(a: PeriodicGerm, b: PeriodicGerm, op) -> PeriodicGerm:
    pre, length = _window((a, b))
    prefix = [op(a.value_at(n), b.value_at(n)) for n in range(1, pre + 1)]
    return PeriodicGerm(prefix, list(map(op, _tail(a, pre, length), _tail(b, pre, length))))


# -- almost-everywhere comparisons ----------------------------------------------


def _eventual_sign(a: RationalGerm) -> int:
    """Sign of a(n) for all large n: 0 exactly when a is the zero germ."""
    if a.num.is_zero():
        return 0
    # RationalGerm makes den monic, so the leading numerator decides
    return 1 if a.num.ints[-1] > 0 else -1


def ae_compare(a: Germ, b: Germ) -> tuple[AeVerdict, AeVerdict]:
    """(equality verdict, strict-less verdict) in one pass."""
    (a, b), rational = _align((a, b))
    if rational:
        s = _eventual_sign(RationalGerm(b.num * a.den - a.num * b.den, a.den * b.den))
        eq = AeVerdict.TRUE_AE if s == 0 else AeVerdict.FALSE_AE
        lt = AeVerdict.TRUE_AE if s > 0 else AeVerdict.FALSE_AE
        return eq, lt
    pre, length = _window((a, b))
    ta, tb = _tail(a, pre, length), _tail(b, pre, length)
    return (
        _verdict_from_flags(list(map(operator.eq, ta, tb))),
        _verdict_from_flags(list(map(operator.lt, ta, tb))),
    )


def ae_equal(a: Germ, b: Germ) -> AeVerdict:
    return ae_compare(a, b)[0]


def ae_less(a: Germ, b: Germ) -> AeVerdict:
    return ae_compare(a, b)[1]


# -- classification ----------------------------------------------------------------


class ResidueClassification:
    """Per-residue-class classification of an eventually periodic germ."""

    __slots__ = ("period", "classes")

    def __init__(self, period: int, classes):
        self.period = period
        self.classes = tuple(classes)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ResidueClassification)
            and self.period == other.period
            and self.classes == other.classes
        )

    def __repr__(self) -> str:
        names = ", ".join(c.value for c in self.classes)
        return f"ResidueClassification(period={self.period}: {names})"


def classify_germ(a: Germ) -> Union[Classification, ResidueClassification]:
    """Infinitesimal/appreciable/infinite, or a per-residue report.

    A definite answer needs the tail to settle against every rational: that
    holds for every rational-function germ, and for eventually periodic germs
    that are a.e. constant.  Other periodic germs get one verdict per residue
    class of the minimal period.
    """
    if isinstance(a, RationalGerm):
        if a.num.is_zero():
            return Classification.ZERO
        dn, dd = a.num.degree, a.den.degree
        if dn < dd:
            return Classification.INFINITESIMAL
        if dn == dd:
            return Classification.APPRECIABLE
        return Classification.INFINITE
    if len(a.period) == 1:
        c = a.period[0]
        return Classification.ZERO if c == 0 else Classification.APPRECIABLE
    return ResidueClassification(
        len(a.period),
        [Classification.ZERO if c == 0 else Classification.APPRECIABLE for c in a.period],
    )


def to_hyperreal(a: Germ) -> Hyperreal:
    """Order-preserving field embedding sending the germ of n to 1/e."""
    if isinstance(a, PeriodicGerm):
        r = _to_rational(a)
        if r is None:
            raise MixedClasses("only rational-function germs embed into the hyperreal field")
        a = r
    width = max(a.num.degree, a.den.degree) + 1
    return Hyperreal(a.num.reversed_to(width), a.den.reversed_to(width))


# -- quantifier-free transfer checking ----------------------------------------------
#
# formula := or ;  or := and {'or' and} ;  and := not {'and' not}
# not     := 'not' not | atom-or-group
# atom    := expr REL expr          REL in  = != < <= > >=
# group   := '(' formula ')'
# expr    := the term grammar of hyperreal.py, with variables as names and no '^'
# germ    := 'rf' '(' expr ')' | 'ep' '(' list ';' list ')' | const
# list    := '[' [const {',' const}] ']' ;  const := ['+'|'-'] INT ['/' INT]


def _chain_limited(fn):
    """Report a RecursionError as NestingTooDeep.

    A flat chain such as n+n+...+n nests no parentheses, so the depth count
    passes it, but it parses to a left-deep tree that the walks below
    descend one frame per term."""

    @functools.wraps(fn)
    def limited(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise NestingTooDeep("chain of terms or clauses too long to evaluate") from None

    return limited


_QfAtom = namedtuple("_QfAtom", "rel lhs rhs")
_QfNot = namedtuple("_QfNot", "body")
_QfBin = namedtuple("_QfBin", "op lhs rhs")


_TERM_KINDS = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


class _GermTerms:
    """_TermParser builder of the term tuples the evaluators below read:
    ("const", Fraction), ("var", name), ("neg", t) and (kind, t, t) for the
    kinds add, sub, mul and div."""

    syntax_error, too_deep = GermSyntaxError, NestingTooDeep

    def binary(self, op: str, lhs: tuple, rhs: tuple) -> tuple:
        if op == "/" and lhs[0] == rhs[0] == "const" and rhs[1]:
            return ("const", lhs[1] / rhs[1])  # a rational literal such as 1/3
        return (_TERM_KINDS[op], lhs, rhs)

    def unary(self, op: str, value: tuple) -> tuple:
        return ("neg", value) if op == "-" else value

    def power(self, base: tuple, exp: Fraction, position: int):
        raise GermSyntaxError("'^' is not part of germ terms", position)

    def atom(self, kind: str, value, position: int) -> tuple:
        return ("const", Fraction(value)) if kind == "num" else ("var", value)


class _GermParser(_TermParser):
    """The formula and germ rules over the shared term parser and its tokens."""

    def or_expr(self):
        node = self.and_expr()
        while self.peek() == "or":
            self.i += 1
            node = _QfBin("or", node, self.and_expr())
        return node

    def and_expr(self):
        node = self.not_expr()
        while self.peek() == "and":
            self.i += 1
            node = _QfBin("and", node, self.not_expr())
        return node

    def not_expr(self):
        if self.peek() == "not":
            return _QfNot(self.nested(self.not_expr))
        if self.peek() == "(":
            # could be a grouped formula or a parenthesized term; try the atom
            save = self.i, self.depth
            try:
                return self.comparison()
            except GermSyntaxError:
                self.i, self.depth = save
            node = self.nested(self.or_expr)
            self.take(")")
            return node
        return self.comparison()

    def comparison(self):
        lhs = self.expr()
        rel = self.peek()
        if rel not in _RELATIONS:
            raise self.error("expected a relation")
        self.i += 1
        return _QfAtom(rel, lhs, self.expr())

    def germ(self) -> Germ:
        word = self.tokens[self.i][1]
        if word not in ("rf", "ep"):
            return embed_constant(self.constant())
        self.i += 1
        self.take("(")
        if word == "ep":
            pre = self.constants()
            self.take(";")
            per = self.constants()
            if not per:
                raise GermSyntaxError("period list must be nonempty", self.tokens[self.i][2])
            self.take(")")
            return PeriodicGerm(pre, per)
        # names are checked before the body is read, so an unknown one is the first error
        for kind, name, position in self.tokens[self.i :]:
            if kind == "name" and name != "n":
                raise GermSyntaxError(f"unknown symbol {name!r} in rf()", position)
        node = self.expr()
        self.take(")")
        return _eval_term_germ(node, {"n": RationalGerm(Poly.X)})

    def constants(self) -> list:
        self.take("[")
        values = [] if self.peek() == "]" else [self.constant()]
        while self.peek() == ",":
            self.i += 1
            values.append(self.constant())
        self.take("]")
        return values

    def constant(self) -> Union[int, Fraction]:
        sign = self.peek()
        if sign in ("+", "-"):
            self.i += 1
        value = self.take("num")
        if self.peek() == "/":
            self.i += 1
            if self.tokens[self.i][:2] == ("num", 0):
                raise self.error("zero denominator")
            value = Fraction(value, self.take("num"))
        return -value if sign == "-" else value


def _term_vars(node, acc):
    if node[0] == "var":
        acc.add(node[1])
    elif node[0] != "const":
        for child in node[1:]:
            _term_vars(child, acc)


def _atoms(node):
    if isinstance(node, _QfAtom):
        yield node
    elif isinstance(node, _QfNot):
        yield from _atoms(node.body)
    else:
        yield from _atoms(node.lhs)
        yield from _atoms(node.rhs)


def _eval_term_germ(node, env) -> RationalGerm:
    kind = node[0]
    if kind == "const":
        return RationalGerm(Poly.const(node[1]))
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return neg(_eval_term_germ(node[1], env))
    return _GERM_OPS[kind](_eval_term_germ(node[1], env), _eval_term_germ(node[2], env))


def _eval_term_at(node, env, n: int) -> Fraction:
    kind = node[0]
    if kind == "const":
        return node[1]
    if kind == "var":
        return env[node[1]].value_at(n)
    if kind == "neg":
        return -_eval_term_at(node[1], env, n)
    a = _eval_term_at(node[1], env, n)
    b = _eval_term_at(node[2], env, n)
    if kind != "div":
        return _TERM_OPS[kind](a, b)
    if b == 0:
        raise VanishingDivisor(f"divisor vanishes at n={n}")
    return a / b


_GERM_OPS = {"add": add, "sub": sub, "mul": mul, "div": div}
_TERM_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_RELATIONS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _values_over(node, tails: dict, idx) -> list:
    """Values of a term at the window positions idx, one node at a time."""
    kind = node[0]
    if kind == "const":
        return [_exact(node[1])] * len(idx)
    if kind == "var":
        return list(map(tails[node[1]].__getitem__, idx))
    if kind == "neg":
        return list(map(operator.neg, _values_over(node[1], tails, idx)))
    a = _values_over(node[1], tails, idx)
    b = _values_over(node[2], tails, idx)
    if kind != "div":
        return list(map(_TERM_OPS[kind], a, b))
    # inv's rule for a divisor that vanishes at evaluated residues
    zeros = b.count(0)
    if zeros and zeros == len(b):
        raise AlmostEverywhereZeroDivisor("divisor is zero at every evaluated residue")
    if zeros:
        raise UltrafilterDependentZeroDivisor(
            "divisor is zero at some residues; the quotient depends on the ultrafilter"
        )
    return [Fraction(x) / y for x, y in zip(a, b)]


def _flags_over(node, tails: dict, idx) -> list:
    """Truth of a formula at the window positions idx.

    The right side of 'and'/'or' is evaluated only at the positions the left
    side leaves open, the ones _formula_truth_at would reach."""
    if isinstance(node, _QfAtom):
        lhs = _values_over(node.lhs, tails, idx)
        return list(map(_RELATIONS[node.rel], lhs, _values_over(node.rhs, tails, idx)))
    if isinstance(node, _QfNot):
        return [not f for f in _flags_over(node.body, tails, idx)]
    flags = _flags_over(node.lhs, tails, idx)
    settled = node.op == "or"  # the left value that decides the connective
    open_idx = [i for i, f in zip(idx, flags) if f is not settled]
    rest = iter(_flags_over(node.rhs, tails, open_idx))
    return [f if f is settled else next(rest) for f in flags]


def _atom_difference(atom: _QfAtom, env) -> RationalGerm:
    """rhs - lhs as a rational germ."""
    return sub(_eval_term_germ(atom.rhs, env), _eval_term_germ(atom.lhs, env))


def _atom_eventual_truth(atom: _QfAtom, env) -> bool:
    # lhs rel rhs holds exactly when 0 rel (rhs - lhs) does
    return _RELATIONS[atom.rel](0, _eventual_sign(_atom_difference(atom, env)))


def _formula_eventual_truth(node, env) -> bool:
    if isinstance(node, _QfAtom):
        return _atom_eventual_truth(node, env)
    if isinstance(node, _QfNot):
        return not _formula_eventual_truth(node.body, env)
    if node.op == "and":
        return _formula_eventual_truth(node.lhs, env) and _formula_eventual_truth(node.rhs, env)
    return _formula_eventual_truth(node.lhs, env) or _formula_eventual_truth(node.rhs, env)


def _formula_truth_at(node, env, n: int) -> bool:
    if isinstance(node, _QfAtom):
        lhs = _eval_term_at(node.lhs, env, n)
        return _RELATIONS[node.rel](lhs, _eval_term_at(node.rhs, env, n))
    if isinstance(node, _QfNot):
        return not _formula_truth_at(node.body, env, n)
    if node.op == "and":
        return _formula_truth_at(node.lhs, env, n) and _formula_truth_at(node.rhs, env, n)
    return _formula_truth_at(node.lhs, env, n) or _formula_truth_at(node.rhs, env, n)


def parse_qf(text: str):
    """Parse a quantifier-free formula over =, <, +, * and rational constants."""
    parser = _GermParser(text, _GermTerms())
    for kind, word, position in parser.tokens:
        if kind in ("forall", "exists"):
            raise QuantifierPresent(f"quantifier {word!r} (at position {position})")
    return parser.whole(parser.or_expr)


def _prepare(formula, assignment: dict):
    """(parsed formula, aligned environment of its variables, is_rational_class)."""
    node = parse_qf(formula) if isinstance(formula, str) else formula
    names = set()
    for atom in _atoms(node):
        _term_vars(atom.lhs, names)
        _term_vars(atom.rhs, names)
    missing = names - set(assignment)
    if missing:
        raise GermError(f"unbound variables: {sorted(missing)}")
    names = sorted(names)
    germs, rational = _align([assignment[k] for k in names])
    return node, dict(zip(names, germs)), rational


@_chain_limited
def los_check_qf(formula, assignment: dict) -> AeVerdict:
    """Three-valued a.e. truth of a quantifier-free formula under the assignment.

    For rational-function germs every atom settles to a finite or cofinite
    truth set, so the verdict is two-valued.  For eventually periodic germs
    the formula is decided per residue class of the common period; a mixed
    outcome is ultrafilter dependent.  A window past MAX_WINDOW raises
    WindowTooLarge, and a divisor that vanishes at evaluated residues raises
    a zero-divisor error by inv's rule.
    """
    node, env, rational = _prepare(formula, assignment)
    if rational:
        truth = _formula_eventual_truth(node, env)
        return AeVerdict.TRUE_AE if truth else AeVerdict.FALSE_AE
    pre, length = _window(env.values())
    # the verdict reads which flags occur, not where, and a position's flag is
    # a function of its row of values: so one position per distinct row
    codes, values = [], []
    for g in env.values():
        code = {}
        per = [code.setdefault(v, len(code)) for v in g.period]
        codes.append(_tail(g, pre, length, per))
        values.append(list(code))
    rows = list(dict.fromkeys(zip(*codes)))
    tails = {name: [vals[row[k]] for row in rows] for k, (name, vals) in enumerate(zip(env, values))}
    return _verdict_from_flags(_flags_over(node, tails, range(len(rows))))


@_chain_limited
def stabilization_bound(formula, assignment: dict) -> int:
    """Index beyond which pointwise truth matches the a.e. verdict.

    Only meaningful for rational-function assignments: past every root of
    every atom's cross-multiplied difference, atom truth values are constant.
    """
    node, env, rational = _prepare(formula, assignment)
    if not rational:
        return max((len(g.preperiod) for g in env.values()), default=0)
    bound = 1
    for atom in _atoms(node):
        diff = _atom_difference(atom, env)
        if not diff.num.is_zero():
            bound = max(bound, _cauchy_bound(diff.num))
        bound = max(bound, _cauchy_bound(diff.den))
    return bound


@_chain_limited
def check_pointwise(formula, assignment: dict, n: int) -> bool:
    """Plain truth of the formula at one index (cross-check helper)."""
    node, env, _ = _prepare(formula, assignment)
    return _formula_truth_at(node, env, n)


# -- textual forms ---------------------------------------------------------------


@_chain_limited
def parse_germ(text: str) -> Germ:
    """Parse ``rf(<rational function of n>)``, ``ep([pre];[period])`` or a rational."""
    parser = _GermParser(text, _GermTerms())
    return parser.whole(parser.germ)
