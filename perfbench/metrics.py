"""Metric names, units and their derivation; must match BENCHMARK.json.

End-to-end metrics come from the untraced run.  Per-layer metrics come from a
traced run over a fixed list of operations, so their counts repeat exactly
for a seed.  Suffixes of span-based metrics:

    .calls    spans of that name (nested same-name calls fold into one)
    .s        summed span duration, seconds
    .self_s   summed self time (duration minus child spans), seconds
    .ms       mean duration per call, milliseconds
    .self_ms  mean self time per call, milliseconds
"""

from __future__ import annotations

from spans import DECIDERS, LAYERS

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

_SPAN_METRICS = [
    "cli.main.self_ms",
    "cli.build_parser.ms",
    "cli.run_full_audit.self_s",
    "poly.mul.calls",
    "poly.mul.s",
    "poly.gcd.calls",
    "poly.gcd.s",
    "poly.divmod.s",
    "poly.nth_root.s",
    "hyperreal.new.calls",
    "hyperreal.new.self_s",
    "hyperreal.add.s",
    "hyperreal.mul.s",
    "hyperreal.order.calls",
    "hyperreal.order.s",
    "hyperreal.nth_root.s",
    "hyperreal.parse.s",
    "germs.ae_compare_periodic.calls",
    "germs.ae_compare_periodic.s",
    "germs.los_check_qf.calls",
    "germs.los_check_qf.s",
    "germs.parse_germ.s",
    "germs.ae_compare_rational.calls",
    "germs.ae_compare_rational.s",
    "germs.to_hyperreal.s",
    "bqf.parse.s",
    "bqf.evaluate.calls",
    "bqf.evaluate.s",
    "bqf.check_transfer_finite.self_s",
    "bqf.star.calls",
    "bqf.star.s",
    "bqf.define_set.s",
    "fintop.enumerate.s",
    *[f"fintop.{d}.{k}" for d in DECIDERS for k in ("calls", "s")],
    "fintop.theorem_audit.self_s",
    "fintop.compactness_identities.s",
    "fintop.z_partition.calls",
    "fintop.closure_interior.calls",
    "fintop.closure_interior.s",
    "hull.hull_theorem_audit.self_s",
    "hull.build_hull.calls",
    "hull.build_hull.s",
    "hull.hull_report.s",
    "hull.t0_reflection_report.s",
    "hull.zero_set_formulas.s",
    "hull.ring_correspondence.s",
]

_UNITS = {"calls": "count", "s": "s", "self_s": "s", "ms": "ms", "self_ms": "ms"}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _row(snap, name):
    return snap["spans"].get(name, (0, 0, 0))


def _span_metric(snap, metric: str) -> float:
    name, _, kind = metric.rpartition(".")
    calls, total, self_ns = _row(snap, name)
    if kind == "calls":
        return calls
    if kind == "s":
        return total / 1e9
    if kind == "self_s":
        return self_ns / 1e9
    if kind == "ms":
        return _ratio(total / 1e6, calls)
    return _ratio(self_ns / 1e6, calls)


def _counter(snap, key) -> int:
    return snap["counters"].get(key, 0)


def _self_share(layer):
    def share(snap, extra):
        own = sum(row[2] for name, row in snap["spans"].items() if name.startswith(layer + "."))
        return _ratio(own, _row(snap, "bench.op")[1])

    return share


def _decider_calls(snap) -> int:
    return sum(_row(snap, f"fintop.{d}")[0] for d in DECIDERS)


# metric name -> (unit, function(snapshot, extra))
_SPECIAL = {
    "cli.hyper.p50_ms": ("ms", lambda s, e: e["command_p50_ms"].get("hyper", 0.0)),
    "cli.germ.p50_ms": ("ms", lambda s, e: e["command_p50_ms"].get("germ", 0.0)),
    "cli.bqf.p50_ms": ("ms", lambda s, e: e["command_p50_ms"].get("bqf", 0.0)),
    "cli.topo.p50_ms": ("ms", lambda s, e: e["command_p50_ms"].get("topo", 0.0)),
    "poly.mul.max_degree": ("count", lambda s, e: _counter(s, "poly.mul.degree.max")),
    "hyperreal.new_per_order": (
        "ratio",
        lambda s, e: _ratio(_counter(s, "hyperreal.new.in_order"), _row(s, "hyperreal.order")[0]),
    ),
    "hyperreal.gcd_per_new": (
        "ratio",
        lambda s, e: _ratio(_counter(s, "poly.gcd.in_new"), _row(s, "hyperreal.new")[0]),
    ),
    "germs.ae_compare_periodic.window": (
        "count",
        lambda s, e: _ratio(
            _counter(s, "germs.ae_compare_periodic.window"),
            _row(s, "germs.ae_compare_periodic")[0],
        ),
    ),
    "germs.ae_compare_periodic.us_per_elem": (
        "us",
        lambda s, e: _ratio(
            _row(s, "germs.ae_compare_periodic")[1] / 1e3,
            _counter(s, "germs.ae_compare_periodic.window"),
        ),
    ),
    # without the scan helper, every relation is taken to be yielded
    "fintop.enumerate.yield_ratio": (
        "ratio",
        lambda s, e: _ratio(
            _counter(s, "fintop.enumerate.yielded"),
            _counter(s, "fintop.enumerate.scanned") or _counter(s, "fintop.enumerate.yielded"),
        ),
    ),
    "fintop.decider.calls_per_space": (
        "ratio",
        lambda s, e: _ratio(_decider_calls(s), _counter(s, "fintop.decider.spaces")),
    ),
    "fintop.decider.reuse_ratio": (
        "ratio",
        lambda s, e: _ratio(_counter(s, "fintop.decider.pairs"), _decider_calls(s)),
    ),
    "hull.build_hull.per_space": (
        "ratio",
        lambda s, e: _ratio(_row(s, "hull.build_hull")[0], _counter(s, "hull.build_hull.spaces")),
    ),
    "trace.overhead_ratio": ("ratio", lambda s, e: e["overhead_ratio"]),
    "audit.pass_s": ("s", lambda s, e: e.get("audit_pass_s", 0.0)),
    "hyperreal.order.us_per_compare": ("us", lambda s, e: e.get("order_us", 0.0)),
    "germs.ae_compare_periodic.us_per_pair": ("us", lambda s, e: e.get("ae_pair_us", 0.0)),
}
_SPECIAL.update({f"{layer}.self_share": ("ratio", _self_share(layer)) for layer in LAYERS})

PER_LAYER = {m: _UNITS[m.rpartition(".")[2]] for m in _SPAN_METRICS}
PER_LAYER.update({m: unit for m, (unit, _) in _SPECIAL.items()})


def per_layer(snap: dict, extra: dict) -> dict:
    out = {m: _span_metric(snap, m) for m in _SPAN_METRICS}
    out.update({m: fn(snap, extra) for m, (_, fn) in _SPECIAL.items()})
    return out


# Spans that must record calls on each workload, and layers that must record
# none; the traced run fails otherwise.
EXPECTED = {
    "audit": [
        "cli.main",
        "cli.build_parser",
        "cli.run_full_audit",
        "fintop.enumerate",
        *[f"fintop.{d}" for d in DECIDERS],
        "fintop.theorem_audit",
        "fintop.compactness_identities",
        "fintop.z_partition",
        "fintop.closure_interior",
        "hull.hull_theorem_audit",
        "hull.build_hull",
        "hull.hull_report",
        "hull.t0_reflection_report",
        "hull.zero_set_formulas",
        "hull.ring_correspondence",
    ],
    "algebra": [
        "poly.mul",
        "poly.gcd",
        "poly.divmod",
        "poly.nth_root",
        "hyperreal.new",
        "hyperreal.add",
        "hyperreal.mul",
        "hyperreal.order",
        "hyperreal.nth_root",
        "germs.ae_compare_rational",
        "germs.to_hyperreal",
    ],
    "queries": [
        "cli.main",
        "cli.build_parser",
        "poly.mul",
        "poly.gcd",
        "hyperreal.new",
        "hyperreal.parse",
        "germs.ae_compare_periodic",
        "germs.los_check_qf",
        "germs.parse_germ",
        "bqf.parse",
        "bqf.evaluate",
        "bqf.check_transfer_finite",
        "bqf.star",
        "bqf.define_set",
        *[f"fintop.{d}" for d in DECIDERS],
        "hull.build_hull",
        "hull.hull_report",
        "hull.t0_reflection_report",
    ],
}
FORBIDDEN = {
    "audit": ("poly", "hyperreal", "germs", "bqf"),
    "algebra": ("fintop", "hull", "bqf", "cli"),
    "queries": (),
}


def coverage_problems(workload: str, snap: dict) -> list:
    problems = [f"{n} recorded no calls" for n in EXPECTED[workload] if not _row(snap, n)[0]]
    for name in snap["spans"]:
        if name.split(".")[0] in FORBIDDEN[workload]:
            problems.append(f"{name} recorded spans")
    return problems
