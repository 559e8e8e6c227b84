"""`algebra` workload: library use of the infinitesimal field and germs.

One operation is one item drawn from the seed: a triple of hyperreals, a
finite pair and a pair of rational germs, given as raw coefficient lists so
that construction (normalisation) is part of the timed work.  Each item is run
through the ordered-field laws, the standard-part laws, decomposition,
interval membership and the `to_hyperreal` bridge; every law must hold.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from nsatop import germs, hyperreal
from nsatop.germs import AeVerdict, RationalGerm
from nsatop.hyperreal import ONE, ZERO, Classification, Hyperreal
from nsatop.poly import Poly

NAME = "algebra"
IN_PROCESS = True
MIN_ITEMS = 1000
OPS_PER_ITEM = 1
RAMIFICATIONS = (1, 1, 1, 2, 3)
TRACE_OPS = 150


def _fraction(rng) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 2))


def _coeffs(rng, nonzero: bool) -> tuple:
    while True:
        cs = tuple(_fraction(rng) for _ in range(rng.randint(1, 3)))
        if not nonzero or any(cs):
            return cs


def _element(rng) -> tuple:
    return (_coeffs(rng, False), _coeffs(rng, True), rng.choice(RAMIFICATIONS))


def setup(seed: int, out_dir) -> dict:
    return {}


def ops(seed: int, ctx: dict):
    """Endless stream of items; the same seed gives the same stream."""
    rng = random.Random(seed)
    while True:
        yield {
            "triple": tuple(_element(rng) for _ in range(3)),
            "pair": (_element(rng), _element(rng)),
            "germs": tuple((_coeffs(rng, False), _coeffs(rng, True)) for _ in range(2)),
            "power": rng.randint(1, 4),
        }


def _finite(x: Hyperreal) -> Hyperreal:
    return x.inverse() if x.classify() is Classification.INFINITE else x


def _field_laws(a, b, c) -> list:
    return [
        a + (b + c) == (a + b) + c,
        a + b == b + a,
        a + ZERO == a and a * ZERO == ZERO,
        a + (-a) == ZERO,
        a * (b * c) == (a * b) * c,
        a * b == b * a,
        a * ONE == a,
        a.sign() == 0 or a * a.inverse() == ONE,
        a * (b + c) == a * b + a * c,
        (a < b) + (a == b) + (b < a) == 1,
        not a < b or a + c < b + c,
        a.sign() <= 0 or b.sign() <= 0 or ZERO < a * b,
    ]


def _st_laws(x, y, n: int) -> list:
    sx, sy = x.st().value, y.st().value
    base = x if (n % 2 or x.sign() >= 0) else -x
    close = hyperreal.infinitesimally_close(x, y)
    return [
        (x + y).st().value == sx + sy,
        (x - y).st().value == sx - sy,
        (x * y).st().value == sx * sy,
        sy == 0 or (x / y).st().value == sx / sy,
        (x**n).st().value == sx**n,
        hyperreal.nth_root(base**n, n) == base,
        close == (sx == sy),
        close or (x < y) == (sx < sy),
        not x <= y or sx <= sy,
    ]


def _decompose_laws(x) -> list:
    r, h = hyperreal.decompose(x)
    s = h.sign()
    return [
        r == x.st().value,
        h.classify() in (Classification.ZERO, Classification.INFINITESIMAL),
        Hyperreal.from_rational(r) + h == x,
        hyperreal.in_star_interval(x, r - 1, r + 1, "open"),
        hyperreal.in_star_interval(x, r, r + 1, "half-open") == (s >= 0),
        hyperreal.in_star_interval(x, r - 1, r, "(]") == (s <= 0),
    ]


def _bridge_laws(g, h) -> list:
    tg, th = germs.to_hyperreal(g), germs.to_hyperreal(h)
    eq, lt = germs.ae_compare(g, h)
    return [
        germs.to_hyperreal(germs.add(g, h)) == tg + th,
        germs.to_hyperreal(germs.mul(g, h)) == tg * th,
        (lt is AeVerdict.TRUE_AE) == (tg < th),
        (eq is AeVerdict.TRUE_AE) == (tg == th),
        germs.classify_germ(g) == tg.classify(),
    ]


def execute(item, trace: bool = False) -> tuple:
    """Run one item; returns (seconds, output, extra).

    Runs in this process; tracing, when on, is installed around it."""
    t0 = time.perf_counter()
    try:
        a, b, c = (Hyperreal(Poly(n), Poly(d), r) for n, d, r in item["triple"])
        x, y = (_finite(Hyperreal(Poly(n), Poly(d), r)) for n, d, r in item["pair"])
        g, h = (RationalGerm(Poly(n), Poly(d)) for n, d in item["germs"])
        laws = tuple(
            _field_laws(a, b, c)
            + _st_laws(x, y, item["power"])
            + _decompose_laws(x)
            + _bridge_laws(g, h)
        )
        witness = (str(a * b + c), str(x - y), repr(germs.add(g, h)))
    except Exception as exc:  # an item that raises is a failed operation
        laws, witness = (False,), (f"raised {type(exc).__name__}: {exc}",)
    elapsed = time.perf_counter() - t0
    return elapsed, (laws, witness), {}


def check(item, result) -> bool:
    laws, _ = result
    return all(laws)


def command(item) -> str:
    return NAME


def roadmap_rows(items, seconds) -> tuple:
    """The ROADMAP row "Hyperreal order per compare": times `<`, untraced, on
    neighbouring elements of the items' triples."""
    elems = [Hyperreal(Poly(n), Poly(d), r) for item in items for n, d, r in item["triple"]]
    pairs = list(zip(elems, elems[1:]))
    t0 = time.perf_counter()
    for u, v in pairs:
        u < v
    us = (time.perf_counter() - t0) * 1e6 / len(pairs)
    return {"order_us": us}, {f"ROADMAP row: Hyperreal order, us per compare ({len(pairs)} compares)": us}
