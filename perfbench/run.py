"""Benchmark for nsatop: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload audit|algebra|queries|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; nsatop is imported from `src/`.

`--trace 0` measures for S seconds with tracing off and prints the end-to-end
metrics.  `--trace 1` runs a fixed, seeded list of operations twice, untraced
and then traced, checks that both give the same outputs and that every layer
expected on the workload recorded calls, and prints the per-layer metrics.
Outputs are checked in both modes.  Human-readable lines come first; the last
line of standard output is one JSON object with the result.  Files the run
writes (spaces, span dumps) go to `.perfbench-out/` in the checkout.

Each workload module (`audit`, `algebra`, `queries`) provides NAME,
IN_PROCESS (False when operations run in child processes), OPS_PER_ITEM,
MIN_ITEMS, TRACE_OPS and the functions setup, ops, execute, check, command
and roadmap_rows.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import metrics
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("audit", "algebra", "queries")
SETUP_SAMPLES = 40
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import nsatop.cli; "
    "print(time.perf_counter() - t0)"
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    """Time for a fresh interpreter to finish `import nsatop.cli`."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def _quantile_ms(samples, q: int) -> float:
    if len(samples) == 1:
        return samples[0] * 1e3
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3


def timed_run(wl, ctx, seed: int, seconds: float) -> dict:
    """Closed loop over the workload for `seconds`.

    `setup_s` samples are taken between operations, spread over the run, so
    that they see the same machine as the operations do.  One untimed import
    first writes the bytecode cache, as any earlier use of nsatop would have."""
    import_seconds()
    # latencies are kept as 8-byte floats, so that the memory of an
    # in-process workload grows little with the number of operations
    setup, latencies, attempted, failed, rss_kb = [], array("d"), 0, 0, 0
    start = time.perf_counter()
    deadline = start + seconds
    for op in wl.ops(seed, ctx):
        while (
            len(setup) < SETUP_SAMPLES
            and time.perf_counter() >= start + len(setup) * seconds / SETUP_SAMPLES
        ):
            setup.append(import_seconds())
        dt, output, extra = wl.execute(op)
        latencies.append(dt)
        attempted += wl.OPS_PER_ITEM
        if not wl.check(op, output):
            failed += wl.OPS_PER_ITEM
        rss_kb = max(rss_kb, extra.get("maxrss_kb", 0))
        if time.perf_counter() >= deadline and len(latencies) >= wl.MIN_ITEMS:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_seconds())
    if wl.IN_PROCESS:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": attempted / sum(latencies),
        "latency_p50_ms": _quantile_ms(latencies, 50),
        "latency_p99_ms": _quantile_ms(latencies, 99),
        "peak_rss_mb": rss_kb / 1024,
    }
    notes = {"samples": len(latencies), "failed_ratio": failed / attempted}
    return {"attempted": attempted, "failed": failed, "metrics": values, "notes": notes}


def traced_run(wl, ctx, seed: int) -> dict:
    op_list = list(itertools.islice(wl.ops(seed, ctx), wl.TRACE_OPS))
    plain, durations, by_command = [], [], {}
    for op in op_list:
        dt, output, _ = wl.execute(op)
        plain.append(output)
        durations.append(dt)
        by_command.setdefault(wl.command(op), []).append(dt)
    extra, notes = wl.roadmap_rows(op_list, durations)
    extra["command_p50_ms"] = {c: statistics.median(v) * 1e3 for c, v in by_command.items()}

    tracer = spans.Tracer()
    if wl.IN_PROCESS:
        spans.install(tracer)
    traced, traced_s, snap = [], 0.0, {"spans": {}, "counters": {}}
    for index, op in enumerate(op_list):
        tracer.op = index
        if wl.IN_PROCESS:
            with tracer.span("bench.op"):
                dt, output, child = wl.execute(op)
        else:
            dt, output, child = wl.execute(op, trace=True)
            snap = spans.merge(snap, child["trace"])
        traced.append(output)
        traced_s += dt
    if wl.IN_PROCESS:
        snap = tracer.snapshot()
        notes["spans written"] = tracer.write(OUT / f"spans-{wl.NAME}.tsv")
    extra["overhead_ratio"] = traced_s / sum(durations)

    attempted = len(op_list) * wl.OPS_PER_ITEM
    failed = sum(wl.OPS_PER_ITEM for op, out in zip(op_list, plain) if not wl.check(op, out))
    problems = metrics.coverage_problems(wl.NAME, snap)
    if traced != plain:
        problems.append("traced outputs differ from untraced ones")
    notes["failed_ratio"] = failed / attempted
    notes["coverage problems"] = problems
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.per_layer(snap, extra),
        "notes": notes,
        "problems": problems,
    }


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    wl = importlib.import_module(args.workload)
    OUT.mkdir(exist_ok=True)
    ctx = wl.setup(args.seed, OUT)
    if args.trace:
        result = traced_run(wl, ctx, args.seed)
        units = metrics.PER_LAYER
    else:
        result = timed_run(wl, ctx, args.seed, args.seconds)
        result["problems"] = []
        units = metrics.END_TO_END
    correct = result["failed"] == 0 and not result["problems"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in result["notes"].items():
        print(f"  {key}: {value}")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process, in sequence."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nsatop" / "cli.py").is_file():
        print(f"nsatop sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
