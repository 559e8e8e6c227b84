"""Command-line surface for the library.

Subcommands
    hyper eval|st|root      evaluate infinitesimal-field expressions
    germ  compare|classify|los
    bqf   eval|define
    topo  check|hull|reflect|dot
    audit

Exit codes: 0 success / property holds / all audits pass; 1 property false,
verdict not established, or an audit counterexample (a machine-readable
witness is emitted); 2 input error, whose payload gives a syntax error's
character offset as "position".

One term grammar serves `hyper` expressions, rf(...) germs and `germ los`:
    expr     := term { ('+'|'-') term }
    term     := unary { ('*'|'/') unary }
    unary    := ('-'|'+') unary | power
    power    := atom [ '^' exponent ]
    atom     := INT | NAME | '(' expr ')'
    exponent := ['-'] ( INT | '(' INT '/' INT ')' )
In `hyper` the one name is `e`, the positive infinitesimal: (2+e)/(1+3*e),
e^(1/2), 1/e - 7.  Germ terms name n (in rf) or the bound variables (in
`germ los`) instead, and have no '^'.  '/' is left-associative and spacing
never changes meaning: x/1/2 is x / 1 / 2.  `bqf` formulas such as
(forall x in A)(x in B) have a grammar of their own, read by the same
scanner and parser cursor.  Every grammar accepts 100 levels of openers:
'(' and signs in terms, 'not', and in `bqf` a quantifier, '<' and '{'.

Germ textual forms: rf((2*n+1)/(n+3)) for rational functions of the index n,
ep([1,-2];[0,1/2]) for eventually periodic sequences (preperiod; period), or a
constant germ such as -3/2.  Constants, bare or in ep lists, are
['+'|'-'] INT ['/' INT]: no decimal, exponent or underscore literals.
Verdicts serialize as true-ae / false-ae / ultrafilter-dependent.

Space JSON: {"points": ["a","b"], "opens": [[], ["a"], ["a","b"]]}.
Family JSON: {"f": {"a": "0", "b": "1/2"}}; `topo hull` takes a family file
or --stone-cech (the default), not both.
Global flags: --format json|table (`topo dot` prints DOT under either) and
--seed S, which is accepted and has no effect: every audit stage is
exhaustive and none reads a seed.  The flag stays parseable because the
benchmark's audit workload passes it on every pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bqf, fintop, germs, hull, hyperreal
from .poly import NumberTooLarge, Poly, _frac_str


def _emit(obj, fmt: str) -> None:
    if fmt == "table":
        for line in _tabulate(obj):
            print(line)
    else:
        print(json.dumps(obj, sort_keys=True, indent=2, default=str))


def _tabulate(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _tabulate(obj[key], f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(obj, list):
        yield f"{prefix[:-1]}: {json.dumps(obj, sort_keys=True, default=str)}"
    else:
        yield f"{prefix[:-1]}: {obj}"


def _error(kind: str, message: str, fmt: str, witness=None, position=None) -> int:
    payload = {"error": {"type": kind, "message": message}}
    if witness is not None:
        payload["error"]["witness"] = witness
    if position is not None:
        payload["error"]["position"] = position
    _emit(payload, fmt)
    return 2


def _raised(exc: Exception, fmt: str) -> int:
    """The error payload of a typed exception; syntax errors add the
    character offset of their culprit as "position"."""
    return _error(type(exc).__name__, str(exc), fmt, position=getattr(exc, "position", None))


# -- hyper ------------------------------------------------------------------------


def _hyper_report(x: hyperreal.Hyperreal) -> dict:
    canonical, st = str(x), x.st()
    report = {
        "canonical": canonical,
        "ramification": x.ram,
        "classification": x.classify().value,
        "st": str(st),
    }
    order = x.order()
    report["order"] = None if order is None else _frac_str(order)
    if x.is_finite():
        report["decomposition"] = {
            "real_part": _frac_str(st.value),
            "infinitesimal_part": _infinitesimal_part(x, st.value, canonical),
        }
    return report


def _infinitesimal_part(x: hyperreal.Hyperreal, real, canonical: str) -> str:
    """str(x - real) for finite x.  A polynomial's is its canonical terms after
    the constant, so they are not formatted again (no term holds a space)."""
    if not real:
        return canonical
    if x.den != Poly.ONE:
        return str(x - real)
    terms = canonical.split(" ", 2)  # [constant] or [constant, sign, the rest]
    if len(terms) == 1:
        return "0"
    return terms[2] if terms[1] == "+" else f"-{terms[2]}"


def cmd_hyper(args, fmt: str) -> int:
    x = hyperreal.parse_hyperreal(args.expr)
    if args.action == "eval":
        _emit(_hyper_report(x), fmt)
        return 0
    if args.action == "st":
        _emit({"expr": str(x), "st": str(x.st())}, fmt)
        return 0
    # root
    try:
        r = hyperreal.nth_root(x, args.degree)
    except hyperreal.NotRepresentable as exc:
        _emit(
            {
                "root_exists": False,
                "witness": {"type": "NotRepresentable", "message": str(exc)},
            },
            fmt,
        )
        return 1
    _emit({"root_exists": True, "root": str(r), "degree": args.degree}, fmt)
    return 0


# -- germ --------------------------------------------------------------------------


def cmd_germ(args, fmt: str) -> int:
    if args.action == "compare":
        a = germs.parse_germ(args.lhs)
        b = germs.parse_germ(args.rhs)
        verdict = germs.ae_equal(a, b) if args.relation == "eq" else germs.ae_less(a, b)
        _emit(
            {"lhs": repr(a), "rhs": repr(b), "relation": args.relation, "verdict": verdict.value},
            fmt,
        )
        return 0 if verdict is germs.AeVerdict.TRUE_AE else 1
    if args.action == "classify":
        g = germs.parse_germ(args.germ)
        result = germs.classify_germ(g)
        report = {"germ": repr(g)}
        if isinstance(result, germs.ResidueClassification):
            report["classification"] = "per-residue-class"
            report["residues"] = {
                str(r): c.value for r, c in enumerate(result.classes)
            }
        else:
            report["classification"] = result.value
            if isinstance(g, germs.RationalGerm) or len(g.period) == 1:
                report["st"] = str(germs.to_hyperreal(g).st())
        _emit(report, fmt)
        return 0
    # los
    assignment = {}
    for binding in args.bind or []:
        name, _, text = binding.partition("=")
        if not _:
            raise germs.GermSyntaxError(f"binding {binding!r} is not name=germ")
        assignment[name.strip()] = germs.parse_germ(text.strip())
    verdict = germs.los_check_qf(args.formula, assignment)
    _emit({"formula": args.formula, "verdict": verdict.value}, fmt)
    return 0 if verdict is germs.AeVerdict.TRUE_AE else 1


# -- bqf ---------------------------------------------------------------------------


def _json_int(digits: str) -> int:
    """The integers of JSON input, with a typed error past the digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise NumberTooLarge(f"a JSON integer of {len(digits)} characters has too many digits") from None


def _entity(text: str) -> bqf.Entity:
    try:
        obj = json.loads(text, parse_int=_json_int)
    except RecursionError:
        raise bqf.NestingTooDeep("JSON value nested too deeply to decode") from None
    return bqf.entity_from_json(obj)


def _parse_bindings(pairs) -> dict:
    out = {}
    for binding in pairs or []:
        name, sep, text = binding.partition("=")
        if not sep:
            raise bqf.BqfError(f"binding {binding!r} is not name=json")
        out[name.strip()] = _entity(text)
    return out


def cmd_bqf(args, fmt: str) -> int:
    bindings = _parse_bindings(args.bind)
    formula = bqf.parse(args.formula)
    if args.action == "eval":
        transfer = bqf.check_transfer_finite(formula, bindings)
        value = transfer["standard_truth"]
        _emit(
            {
                "formula": transfer["formula"],
                "value": value,
                "transfer_holds": transfer["transfer_holds"],
            },
            fmt,
        )
        return 0 if value else 1
    bound = _entity(args.bound)
    result = bqf.define_set(bound, formula, bindings, var=args.var)
    _emit(
        {
            "formula": bqf.print_formula(formula),
            "bound": bqf.entity_to_json(bound),
            "subset": bqf.entity_to_json(result),
        },
        fmt,
    )
    return 0


# -- topo --------------------------------------------------------------------------


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_json_int)
        except RecursionError:
            raise fintop.SpaceError(f"{path}: JSON nested too deeply to decode") from None
        except UnicodeDecodeError:
            raise fintop.SpaceError(f"{path}: not UTF-8 text") from None


def cmd_topo(args, fmt: str) -> int:
    if args.action == "hull" and args.family and args.stone_cech:
        message = "topo hull takes a family file or --stone-cech, not both"
        return _error("ConflictingInputs", message, fmt)
    try:
        space = fintop.space_from_json(_load_json(args.space))
        if args.action == "check":
            names = [args.property] if args.property else None
            verdicts = fintop.check_properties(space, names)
            report = {
                "space": space.to_json(),
                "properties": {v.name: v.to_json() for v in verdicts},
            }
            _emit(report, fmt)
            if any(not v.agree for v in verdicts):
                return 1
            return 0 if all(v.holds for v in verdicts) else 1
        if args.action == "dot":
            print(fintop.dot_specialization(space))
            return 0
        if args.action == "reflect":
            built = hull.t0_reflection(space)
            report = hull.t0_reflection_report(built)
        else:
            if args.family:
                built = hull.build_hull(space, hull.validate_family(space, _load_json(args.family)))
            else:
                built = hull.stone_cech_finite(space)
            report = hull.hull_report(built)
        _emit({"hull": built.to_json(), **report}, fmt)
        return 0
    except hull.DiscontinuousFamilyMember as exc:
        return _error(
            "DiscontinuousFamilyMember",
            str(exc),
            fmt,
            witness={"member": exc.name, "point": str(exc.point), "monad": sorted(map(str, exc.monad))},
        )
    except fintop.AuditFailure as exc:
        _emit({"error": {"type": "AuditFailure", "message": str(exc), "witness": exc.witness}}, fmt)
        return 1


# -- audit -------------------------------------------------------------------------


def run_full_audit(max_points: int) -> dict:
    spaces = [s for n in range(1, max_points + 1) for s in fintop.enumerate_topologies(n)]
    part3 = fintop.theorem_audit(spaces)
    hulls = hull.hull_theorem_audit(spaces)
    compact_failures = []
    robinson_failures = []
    for space in spaces:
        try:
            fintop.compactness_identities(space)
        except fintop.AuditFailure as exc:
            compact_failures.append(f"{space.describe()}: {exc}")
        for m in space.subsets():
            if space.closure_robinson_mask(m) != space.closure_classical_mask(m):
                robinson_failures.append(f"{space.describe()}: closure {space.sorted_labels(m)}")
            if space.interior_robinson_mask(m) != space.interior_classical_mask(m):
                robinson_failures.append(f"{space.describe()}: interior {space.sorted_labels(m)}")
    counts = {str(n): sum(1 for s in spaces if s.n == n) for n in range(1, max_points + 1)}
    report = {
        "max_points": max_points,
        "topology_counts": counts,
        "spaces_checked": part3["spaces_checked"],
        "separation_and_order": part3,
        "hulls": hulls,
        "compactness_identities": {
            "counterexamples": compact_failures,
            "passed": not compact_failures,
        },
        "closure_interior_operators": {
            "counterexamples": robinson_failures,
            "passed": not robinson_failures,
        },
    }
    report["all_passed"] = (
        part3["all_passed"]
        and hulls["all_passed"]
        and not compact_failures
        and not robinson_failures
    )
    return report


def cmd_audit(args, fmt: str) -> int:
    if args.max_points > fintop.EXHAUSTIVE_LIMIT:
        raise fintop.TooLarge(f"exhaustive audit is capped at {fintop.EXHAUSTIVE_LIMIT} points")
    if args.max_points < 1:
        raise fintop.TooLarge("need at least one point")
    report = run_full_audit(args.max_points)
    _emit(report, fmt)
    return 0 if report["all_passed"] else 1


# -- argument parsing ---------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises usage errors so that `main` reports them in the error schema;
    subparsers inherit the class."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


_PARSER = None


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by later ones;
    parsing leaves nothing on it (argparse fills a fresh Namespace)."""
    global _PARSER
    if _PARSER is not None:
        return _PARSER
    parser = _Parser(
        prog="nsatop",
        description="infinitesimal arithmetic, germs, bounded-quantifier formulas, "
        "and monad-based finite topology",
    )
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--seed", type=int, default=0, help="accepted and ignored: no audit stage samples")
    sub = parser.add_subparsers(dest="command", required=True)

    hyper = sub.add_parser("hyper", help="infinitesimal field expressions")
    hyper_sub = hyper.add_subparsers(dest="action", required=True)
    for action, doc in (("eval", "full report"), ("st", "standard part"), ("root", "n-th root")):
        p = hyper_sub.add_parser(action, help=doc)
        p.add_argument("expr")
        if action == "root":
            p.add_argument("degree", type=int)
    germ = sub.add_parser("germ", help="sequence germs modulo a.e. agreement")
    germ_sub = germ.add_subparsers(dest="action", required=True)
    p = germ_sub.add_parser("compare", help="a.e. comparison of two germs")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("relation", choices=("eq", "lt"))
    p = germ_sub.add_parser("classify", help="infinitesimal / appreciable / infinite")
    p.add_argument("germ")
    p = germ_sub.add_parser("los", help="a.e. truth of a quantifier-free formula")
    p.add_argument("formula")
    p.add_argument("--bind", action="append", metavar="NAME=GERM")

    bq = sub.add_parser("bqf", help="bounded-quantifier formulas over finite sets")
    bq_sub = bq.add_subparsers(dest="action", required=True)
    p = bq_sub.add_parser("eval", help="evaluate a formula (also checks transfer)")
    p.add_argument("formula")
    p.add_argument("--bind", action="append", metavar="NAME=JSON")
    p = bq_sub.add_parser("define", help="comprehension inside a bounding set")
    p.add_argument("formula")
    p.add_argument("--bound", required=True, metavar="JSON")
    p.add_argument("--var", default=None)
    p.add_argument("--bind", action="append", metavar="NAME=JSON")

    topo = sub.add_parser("topo", help="finite topological spaces")
    topo_sub = topo.add_subparsers(dest="action", required=True)
    p = topo_sub.add_parser("check", help="separation properties with oracles")
    p.add_argument("space")
    p.add_argument("--property", choices=sorted(fintop.PROPERTY_CHECKS), default=None)
    p = topo_sub.add_parser("hull", help="function hull (default: canonical family)")
    p.add_argument("space")
    p.add_argument("family", nargs="?", default=None)
    p.add_argument("--stone-cech", action="store_true", help="use the canonical family")
    p = topo_sub.add_parser("reflect", help="T0 reflection")
    p.add_argument("space")
    p = topo_sub.add_parser("dot", help="specialization preorder as DOT")
    p.add_argument("space")

    audit = sub.add_parser("audit", help="run every audit over all small spaces")
    audit.add_argument("--max-points", type=int, default=3)
    _PARSER = parser
    return parser


def main(argv=None) -> int:
    try:
        try:
            code = _dispatch(build_parser().parse_args(argv))
        except _UsageError as exc:
            code = _error("UsageError", str(exc), "json")
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (as `nsatop audit | head -1` does); send
        # what is left to devnull so the interpreter's last flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _dispatch(args) -> int:
    command = {"hyper": cmd_hyper, "germ": cmd_germ, "bqf": cmd_bqf, "topo": cmd_topo}
    try:
        return command.get(args.command, cmd_audit)(args, args.format)
    except BrokenPipeError:
        raise  # the reader is gone; `main` exits 141
    except (hyperreal.HyperrealError, germs.GermError, bqf.BqfError, fintop.SpaceError,
            NumberTooLarge, json.JSONDecodeError, OSError) as exc:
        # the typed errors of every module, a number past the digit limit and
        # unreadable input; every report is built before it is printed, so
        # nothing is half out
        return _raised(exc, args.format)


if __name__ == "__main__":
    sys.exit(main())
