"""`queries` workload: one closed-loop client sending `cli.main(argv)` requests.

One operation is one request, run in process with stdout captured.  Requests
are a seeded mix over `hyper`, `germ`, `bqf` and `topo`: mostly small ones
about the size of the README examples, plus heavy ones (large powers, periodic
germs with a period lcm in the hundreds, formulas over sets of 8-12 members,
spaces of 5-7 points).  No argv repeats within a run, so a cache kept across
requests cannot show a gain.  The mix and the memory the generator holds do
not depend on how many requests a run gets through, so a faster program is
measured on the same traffic.

Every answer is checked by a route that does not use the layer under test:
integer binomials for powers, plain lists for periodic germs, Python sets for
formulas and the generator's own relation for spaces.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from nsatop import cli, germs

NAME = "queries"
IN_PROCESS = True
MIN_ITEMS = 1000
OPS_PER_ITEM = 1
TRACE_OPS = 500
PROPERTIES = (
    "t0",
    "t1",
    "t2",
    "weakly_hausdorff",
    "regular",
    "normal",
    "functionally_separated",
    "completely_regular",
    "z_normal",
    "sober",
)


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _nonzero(rng, lo=-9, hi=9) -> int:
    return rng.choice([v for v in range(lo, hi + 1) if v])


# -- small requests -------------------------------------------------------------------


def hyper_eval(rng, ctx):
    p, r, q, s = _nonzero(rng), _nonzero(rng), rng.randint(-9, 9), rng.randint(-9, 9)
    argv = ["hyper", "eval", f"({p}+{q}*e)/({r}+{s}*e)"]
    return argv, {"st": Fraction(p, r), "order": "0", "classification": "appreciable"}


def hyper_st(rng, ctx):
    p, r, q, s = _nonzero(rng), _nonzero(rng), rng.randint(-9, 9), _nonzero(rng)
    argv = ["hyper", "st", f"({p}+{q}*e)/({r}+{s}*e^2)"]
    return argv, {"st_only": Fraction(p, r)}


def hyper_root(rng, ctx):
    p, q, n = rng.randint(1, 99), _nonzero(rng, -99, 99), rng.randint(2, 4)
    if rng.random() < 0.5:
        return ["hyper", "root", f"({p}+{q}*e)^{n}", str(n)], {"root_exists": True}
    # p + q*e is not an n-th power of a rational function for n >= 2
    return ["hyper", "root", f"{p}+{q}*e", str(n)], {"root_exists": False}


def germ_compare(rng, ctx):
    a, b, c, d = _nonzero(rng), rng.randint(-9, 9), rng.randint(1, 9), rng.randint(-9, 9)
    rel = rng.choice(("lt", "eq"))
    # the difference is (d - b)/(n + c), whose eventual sign is that of d - b
    argv = ["germ", "compare", f"rf(({a}*n+{b})/(n+{c}))", f"rf(({a}*n+{d})/(n+{c}))", rel]
    truth = b < d if rel == "lt" else b == d
    return argv, {"verdict": "true-ae" if truth else "false-ae"}


def germ_classify(rng, ctx):
    a, c, b, d = _nonzero(rng), _nonzero(rng), rng.randint(-9, 9), rng.randint(1, 9)
    i, j = rng.randint(0, 2), rng.randint(0, 2)
    num = [f"{a}", f"{a}*n+{b}", f"{a}*n*n+{b}"][i]
    den = [f"{c}", f"{c}*n+{d}", f"{c}*n*n+{d}"][j]
    kind = "infinitesimal" if i < j else "appreciable" if i == j else "infinite"
    expect = {"classification": kind}
    if kind == "appreciable":
        expect["st"] = Fraction(a, c)
    return ["germ", "classify", f"rf(({num})/({den}))"], expect


# atom templates over linear rational germs x = p1*n + q1, y = p2*n + q2:
# (text, coefficients of rhs - lhs as a polynomial in n, lowest degree first)
def _lin(p, q):
    return [q, p]


def _poly_sub(u, v):
    n = max(len(u), len(v))
    return [(u[i] if i < len(u) else 0) - (v[i] if i < len(v) else 0) for i in range(n)]


def _poly_mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _eventual_sign(coeffs) -> int:
    for c in reversed(coeffs):
        if c:
            return 1 if c > 0 else -1
    return 0


def germ_los(rng, ctx):
    x = _lin(rng.randint(-4, 4), rng.randint(-9, 9))
    y = _lin(rng.randint(-4, 4), rng.randint(-9, 9))
    atoms = [
        ("x < y", _poly_sub(y, x), lambda s: s > 0),
        ("x*x <= y", _poly_sub(y, _poly_mul(x, x)), lambda s: s >= 0),
        ("x*y > x", _poly_sub(x, _poly_mul(x, y)), lambda s: s < 0),
        ("x + y != 0", [-(x[0] + y[0]), -(x[1] + y[1])], lambda s: s != 0),
    ]
    (t1, d1, f1), (t2, d2, f2) = rng.sample(atoms, 2)
    op = rng.choice(("and", "or"))
    truth = (f1(_eventual_sign(d1)) and f2(_eventual_sign(d2))) if op == "and" else (
        f1(_eventual_sign(d1)) or f2(_eventual_sign(d2))
    )
    binds = [f"x=rf({x[1]}*n+{x[0]})", f"y=rf({y[1]}*n+{y[0]})"]
    argv = ["germ", "los", f"({t1}) {op} ({t2})", "--bind", binds[0], "--bind", binds[1]]
    return argv, {"verdict": "true-ae" if truth else "false-ae"}


_ATOMS = [f"a{i}" for i in range(12)]


def _atom_set(rng, lo, hi, pool=_ATOMS):
    return sorted(rng.sample(pool, rng.randint(lo, hi)))


def bqf_eval(rng, ctx):
    a, b = _atom_set(rng, 2, 4), _atom_set(rng, 2, 4)
    if rng.random() < 0.5:
        formula, truth = "(forall x in A)(x in B)", set(a) <= set(b)
    else:
        formula, truth = "(exists x in A)(x in B)", bool(set(a) & set(b))
    argv = ["bqf", "eval", formula, "--bind", f"A={json.dumps(a)}", "--bind", f"B={json.dumps(b)}"]
    return argv, {"value": truth}


def bqf_define(rng, ctx):
    bound = _atom_set(rng, 3, 6)
    u, v = rng.choice(_ATOMS), rng.choice(_ATOMS)
    argv = [
        "bqf", "define", "(x = u or x = v)", "--bound", json.dumps(bound),
        "--bind", f'u="{u}"', "--bind", f'v="{v}"',
    ]
    return argv, {"subset": sorted({u, v} & set(bound))}


# -- heavy requests -------------------------------------------------------------------
#
# Sizes of heavy requests follow low-discrepancy sequences from a seeded
# offset, so each run covers its size range evenly and the run-to-run spread
# comes from the system, not from how many large inputs a seed happened to
# draw.  Each quantity steps by the square root of its own prime: these are
# linearly independent over the rationals, so quantities drawn for the same
# request (the power and its coefficients) cover their joint range instead of
# moving in step.

_STEPS = {
    key: math.sqrt(prime) % 1.0
    for key, prime in zip(
        ("power", "a", "a/", "b", "b/", "epower", "domain", "codomain"), (2, 3, 5, 7, 11, 13, 17, 19)
    )
}


def _spread(ctx, key: str, lo: int, hi: int) -> int:
    i = ctx["draws"][key] = ctx["draws"].get(key, 0) + 1
    u = (ctx["offset"] + i * _STEPS[key]) % 1.0
    return lo + int(u * (hi - lo + 1))


def hyper_power(rng, ctx):
    # coefficient sizes set the cost as much as k does, so they are spread too
    a = Fraction(rng.choice((-1, 1)) * _spread(ctx, "a", 1, 5), _spread(ctx, "a/", 1, 4))
    b = Fraction(rng.choice((-1, 1)) * _spread(ctx, "b", 1, 5), _spread(ctx, "b/", 1, 4))
    k = _spread(ctx, "power", 50, 150)
    argv = ["hyper", "eval", f"({_frac_text(a)}+{_frac_text(b)}*e)^{k}"]
    # st of (a + b e)^k is the constant binomial term a^k
    return argv, {"st": a**k, "order": "0", "classification": "appreciable"}


def hyper_epower(rng, ctx):
    n = _spread(ctx, "epower", 10_000, 50_000)
    return ["hyper", "eval", f"e^{n}"], {
        "st": Fraction(0),
        "order": str(n),
        "classification": "infinitesimal",
        "canonical": f"e^{n}",
    }


def _periods(rng, count):
    """Period lengths whose lcm lies between 100 and 999."""
    while True:
        lengths = [rng.randint(6, 40) for _ in range(count)]
        if 100 <= math.lcm(*lengths) <= 999:
            return lengths


def _periodic(rng, length, pool):
    pre = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
    return pre, [rng.choice(pool) for _ in range(length)]


def _ep_text(pre, per) -> str:
    return f"ep([{','.join(map(_frac_text, pre))}];[{','.join(map(_frac_text, per))}])"


def _residue_flags(seqs, pred):
    """Truth of pred at every index of one full common period (plain lists)."""
    pre = max(len(p) for p, _ in seqs)
    lcm = math.lcm(*(len(per) for _, per in seqs))

    def value(p, per, n):
        return p[n] if n < len(p) else per[(n - len(p)) % len(per)]

    return [pred(*[value(p, per, n) for p, per in seqs]) for n in range(pre, pre + lcm)]


def _verdict(flags) -> str:
    if all(flags):
        return "true-ae"
    if not any(flags):
        return "false-ae"
    return "ultrafilter-dependent"


def germ_periodic_compare(rng, ctx):
    la, lb = _periods(rng, 2)
    low = [Fraction(v) for v in (0, 1, 2)]
    high = [Fraction(v) for v in (3, Fraction(7, 2), 4)]
    if rng.random() < 0.4:
        # a < b everywhere except where a's residue i and b's residue j meet,
        # which happens once per common period (or never): the verdict hangs
        # on one element of the whole lcm window
        a = _periodic(rng, la, low[:2])
        b = _periodic(rng, lb, high)
        a[1][rng.randrange(la)] = Fraction(5, 2)
        b[1][rng.randrange(lb)] = Fraction(2)
        rel = "lt"
    else:
        a = _periodic(rng, la, low)
        b = _periodic(rng, lb, high if rng.random() < 0.3 else low)
        rel = rng.choice(("lt", "eq"))
    pred = (lambda u, v: u < v) if rel == "lt" else (lambda u, v: u == v)
    argv = ["germ", "compare", _ep_text(*a), _ep_text(*b), rel]
    return argv, {"verdict": _verdict(_residue_flags([a, b], pred))}


_LOS_FORMULAS = [
    ("x < y", lambda x, y, z: x < y),
    ("x + y <= z", lambda x, y, z: x + y <= z),
    ("x*y > z or x = y", lambda x, y, z: x * y > z or x == y),
    ("not x = z and y >= x", lambda x, y, z: x != z and y >= x),
    ("x*x + 1 > y*z", lambda x, y, z: x * x + 1 > y * z),
]


def germ_periodic_los(rng, ctx):
    lengths = _periods(rng, 3)
    pool = [Fraction(v) for v in (-1, 0, 1, 2)] + [Fraction(1, 2)]
    seqs = [_periodic(rng, n, pool) for n in lengths]
    text, pred = rng.choice(_LOS_FORMULAS)
    argv = ["germ", "los", text]
    for name, seq in zip("xyz", seqs):
        argv += ["--bind", f"{name}={_ep_text(*seq)}"]
    return argv, {"verdict": _verdict(_residue_flags(seqs, pred))}


FUNCTION_GRAPH = (
    "(((forall z in F)(exists x in A)(exists y in B) z = <x, y>"
    " and (forall x in A)(exists y in B) <x, y> in F)"
    " and (forall x in A)(forall y in B)(forall w in B)"
    "((<x, y> in F and <x, w> in F) => y = w))"
)


def bqf_function_graph(rng, ctx):
    pool = [f"d{i}" for i in range(16)]
    dom = sorted(rng.sample(pool, _spread(ctx, "domain", 8, 12)))
    cod = sorted(rng.sample(pool, _spread(ctx, "codomain", 8, 12)))
    graph = {x: [rng.choice(cod)] for x in dom}
    broken = rng.choice((None, "missing", "two_values", "outside"))
    x = rng.choice(dom)
    if broken == "missing":
        del graph[x]
    elif broken == "two_values":
        graph[x].append(rng.choice([y for y in cod if y not in graph[x]]))
    elif broken == "outside":
        graph[x] = [rng.choice([y for y in pool if y not in cod])]
    pairs = [[[u], [u, v]] for u, vs in sorted(graph.items()) for v in vs]
    argv = [
        "bqf", "eval", FUNCTION_GRAPH,
        "--bind", f"F={json.dumps(pairs)}",
        "--bind", f"A={json.dumps(dom)}",
        "--bind", f"B={json.dumps(cod)}",
    ]
    return argv, {"value": broken is None}


def bqf_transfer(rng, ctx):
    pool = [f"s{i}" for i in range(16)]
    a, b = _atom_set(rng, 8, 12, pool), _atom_set(rng, 8, 12, pool)
    sa, sb = set(a), set(b)
    formula, truth = rng.choice(
        [
            ("(forall x in A)(exists y in B) x = y", sa <= sb),
            ("(exists x in A)(forall y in B) not x = y", bool(sa - sb)),
            ("(forall x in A)(forall y in B)(x = y => y in A)", True),
            ("((exists x in A) x in B and (exists y in B) not y in A)", bool(sa & sb) and bool(sb - sa)),
        ]
    )
    argv = ["bqf", "eval", formula, "--bind", f"A={json.dumps(a)}", "--bind", f"B={json.dumps(b)}"]
    return argv, {"value": truth}


# -- spaces ------------------------------------------------------------------------------


def _random_preorder(rng, n: int) -> list:
    """Reflexive transitive relation; rows[i] is the monad of point i."""
    p = rng.uniform(0.05, 0.3)
    rows = [1 << i | sum(1 << j for j in range(n) if j != i and rng.random() < p) for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            r = rows[i]
            for j in range(n):
                if r >> j & 1:
                    r |= rows[j]
            if r != rows[i]:
                rows[i], changed = r, True
    return rows


def _space_json(rows: list) -> dict:
    n = len(rows)
    labels = [f"p{i}" for i in range(n)]
    opens = [u for u in range(1 << n) if all(rows[i] | u == u for i in range(n) if u >> i & 1)]
    return {"points": labels, "opens": [[labels[i] for i in range(n) if u >> i & 1] for u in opens]}


def _new_space(rng, ctx):
    """Write a fresh 5-7 point space file; its path is new, so no argv repeats.

    Files are written by the request generator, between timed requests, one
    per `topo` request, so the supply never runs out however fast the
    requests go."""
    rows = _random_preorder(rng, rng.randint(5, 7))
    path = ctx["space_dir"] / f"space{ctx['spaces_written']}.json"
    ctx["spaces_written"] += 1
    path.write_text(json.dumps(_space_json(rows)), encoding="utf-8")
    return str(path), rows


def topo_check(rng, ctx):
    path, rows = _new_space(rng, ctx)
    argv = ["topo", "check", path]
    if rng.random() < 0.5:
        argv += ["--property", rng.choice(PROPERTIES)]
    return argv, {"topo": "check", "rows": rows}


def topo_hull(rng, ctx):
    path, rows = _new_space(rng, ctx)
    return ["topo", "hull", path], {"topo": "hull", "rows": rows}


def topo_reflect(rng, ctx):
    path, rows = _new_space(rng, ctx)
    return ["topo", "reflect", path], {"topo": "reflect", "rows": rows}


# -- the mix ----------------------------------------------------------------------------
#
# One small kind per README example of `hyper`, `germ` and `bqf`, and one heavy
# kind per heavy request form (the `topo` kinds are heavy: 5-7 points).  The
# weights are a choice, not measured traffic: a deck holds every small kind
# SMALL_WEIGHT times and every heavy kind once, so 24 of its 33 requests are
# small.  latency_p50_ms then falls on a small request, where the cli layer
# dominates, and latency_p99_ms inside the slowest heavy kinds (each heavy
# kind is 3% of the requests), where poly and hyperreal dominate.

SMALL = [hyper_eval, hyper_st, hyper_root, germ_compare, germ_classify, germ_los, bqf_eval, bqf_define]
HEAVY = [
    hyper_power,
    hyper_epower,
    germ_periodic_compare,
    germ_periodic_los,
    bqf_function_graph,
    bqf_transfer,
    topo_check,
    topo_hull,
    topo_reflect,
]
SMALL_WEIGHT = 3


def setup(seed: int, out_dir: Path) -> dict:
    """Make an empty directory for the space files of `topo` requests."""
    space_dir = out_dir / "spaces"
    space_dir.mkdir(parents=True, exist_ok=True)
    for old in space_dir.glob("*.json"):
        old.unlink()
    return {"space_dir": space_dir}


class _Seen:
    """Fixed-size Bloom filter of argvs.  Its memory does not grow with the
    number of requests, so a faster program does not read as a larger one.  A
    false positive (about 1 in 10^4 after 10^5 requests) only makes the
    generator draw another request of the same kind."""

    BITS = 1 << 23

    def __init__(self):
        self.bits = bytearray(self.BITS // 8)

    def add(self, argv) -> bool:
        """Record argv; False if it was (probably) recorded before."""
        digest = hashlib.blake2b("\0".join(argv).encode(), digest_size=16).digest()
        new = False
        for k in range(0, 16, 4):
            h = int.from_bytes(digest[k : k + 4], "little") % self.BITS
            if not self.bits[h >> 3] >> (h & 7) & 1:
                self.bits[h >> 3] |= 1 << (h & 7)
                new = True
        return new


def ops(seed: int, ctx: dict):
    """Endless stream of distinct requests; the same seed gives the same stream.

    Requests come in decks holding each kind as often as the weights say,
    shuffled by the seed, so every run sends nearly the same mix whatever its
    length.  Every kind holds at least 4*10^4 distinct requests (`e^N` the
    fewest), enough for more than 10^6 requests in the deck's proportions; a
    kind that keeps repeating itself stops the run rather than being
    replaced."""
    rng = random.Random(seed)
    ctx = {"space_dir": ctx["space_dir"], "spaces_written": 0, "draws": {}, "offset": rng.random()}
    deck = SMALL * SMALL_WEIGHT + HEAVY
    seen = _Seen()
    while True:
        rng.shuffle(deck)
        for kind in deck:
            for _ in range(1000):
                made = kind(rng, ctx)
                if seen.add(made[0]):
                    break
            else:
                raise RuntimeError(f"{kind.__name__} keeps repeating itself")
            yield made


def execute(op, trace: bool = False) -> tuple:
    """Run one request in process; returns (seconds, (exit code, stdout), extra).

    Runs in this process; tracing, when on, is installed around it."""
    argv, _ = op
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
    except (Exception, SystemExit) as exc:
        rc = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return elapsed, (rc, buf.getvalue()), {}


def command(op) -> str:
    return op[0][0]


# -- output checks ---------------------------------------------------------------------


def _components(rows: list) -> int:
    n = len(rows)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(n)})


def _t0_classes(rows: list) -> int:
    n = len(rows)
    return len({frozenset(j for j in range(n) if rows[i] >> j & 1 and rows[j] >> i & 1) for i in range(n)})


def check(op, result) -> bool:
    _, expect = op
    rc, out = result
    if rc not in (0, 1):
        return False
    try:
        return _check_report(expect, rc, json.loads(out))
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
        return False  # not JSON, or a report without the expected fields


def _check_report(expect, rc, report) -> bool:
    if "topo" in expect:
        return _check_topo(expect, rc, report)
    if "st_only" in expect:
        return rc == 0 and report["st"] == _frac_text(expect["st_only"])
    if "root_exists" in expect:
        want_rc = 0 if expect["root_exists"] else 1
        return rc == want_rc and report["root_exists"] is expect["root_exists"]
    if "verdict" in expect:
        return report["verdict"] == expect["verdict"] and rc == (0 if expect["verdict"] == "true-ae" else 1)
    if "value" in expect:
        return (
            report["value"] is expect["value"]
            and report["transfer_holds"] is True
            and rc == (0 if expect["value"] else 1)
        )
    if "subset" in expect:
        return rc == 0 and sorted(report["subset"]) == expect["subset"]
    # hyper eval and germ classify reports
    if rc != 0:
        return False
    for key in ("order", "classification", "canonical"):
        if key in expect and report[key] != expect[key]:
            return False
    return "st" not in expect or report["st"] == _frac_text(expect["st"])


def _check_topo(expect, rc, report) -> bool:
    rows, action = expect["rows"], expect["topo"]
    if action == "check":
        props = report["properties"].values()
        all_hold = all(p["holds"] for p in props)
        return all(p["agree"] for p in props) and rc == (0 if all_hold else 1)
    if rc != 0:
        return False
    classes = len(report["hull"]["classes"])
    if action == "hull":
        return classes == _components(rows)
    return classes == _t0_classes(rows) and all(report["checks"].values())


def roadmap_rows(op_list, seconds) -> tuple:
    """The ROADMAP row "periodic ae_compare": times `germs.ae_compare`,
    untraced, on the periodic pairs of the requests, per pair and per element."""
    pairs = [
        (germs.parse_germ(argv[2]), germs.parse_germ(argv[3]))
        for argv, _ in op_list
        if argv[:2] == ["germ", "compare"] and argv[2].startswith("ep(")
    ]
    window = sum(
        max(len(a.preperiod), len(b.preperiod)) + math.lcm(len(a.period), len(b.period))
        for a, b in pairs
    )
    t0 = time.perf_counter()
    for a, b in pairs:
        germs.ae_compare(a, b)
    us = (time.perf_counter() - t0) * 1e6
    return {"ae_pair_us": us / len(pairs)}, {
        f"ROADMAP row: periodic ae_compare, us per pair ({len(pairs)} pairs)": us / len(pairs),
        "ROADMAP row: periodic ae_compare, us per element": us / window,
    }
