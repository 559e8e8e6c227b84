"""`audit` workload: `nsatop audit --max-points 4`, one fresh interpreter per pass.

One operation is one space audited; a pass audits all 389 labelled topologies
on at most four points.  Each pass runs `cli.main` in a new process, as a real
`nsatop audit` call does, so nothing cached in one pass can help the next.

Run as a script, this file is the child process of one pass: it imports
nsatop, optionally installs the tracer, runs the audit with stdout captured,
checks the report and prints one JSON line for the parent.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

NAME = "audit"
IN_PROCESS = False
OPS_PER_ITEM = 389
MIN_ITEMS = 3
TRACE_OPS = 2
COUNTS = {"1": 1, "2": 4, "3": 29, "4": 355}
HERE = Path(__file__).resolve().parent


def setup(seed: int, out_dir: Path) -> dict:
    return {"out_dir": out_dir}


def ops(seed: int, ctx: dict):
    """Endless stream of passes, each with its own audit seed."""
    rng = random.Random(seed)
    index = 0
    while True:
        yield {"seed": rng.randrange(10**6), "index": index, "out_dir": ctx["out_dir"]}
        index += 1


def command(op) -> str:
    return NAME


def execute(op, trace: bool = False) -> tuple:
    """Run one pass in a child process; returns (seconds, output, extra)."""
    argv = [sys.executable, str(HERE / "audit.py"), "--seed", str(op["seed"])]
    if trace:
        spans_path = op["out_dir"] / f"spans-audit-pass{op['index']}.tsv"
        argv += ["--trace", str(op["index"]), "--spans", str(spans_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"audit pass failed to run: {proc.stderr.strip()[-2000:]}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    output = (child["rc"], child["digest"], child["ok"])
    return child["seconds"], output, {"maxrss_kb": child["maxrss_kb"], "trace": child.get("trace")}


def roadmap_rows(op_list, seconds) -> tuple:
    """The ROADMAP baseline row for the audit, from the untraced passes."""
    median = statistics.median(seconds)
    return {"audit_pass_s": median}, {"ROADMAP row: nsatop audit --max-points 4, median pass (s)": median}


def check(op, output) -> bool:
    return output[2]


def check_report(rc, text: str) -> bool:
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return False
    return (
        rc == 0
        and report.get("all_passed") is True
        and report.get("topology_counts") == COUNTS
        and report.get("spaces_checked") == OPS_PER_ITEM
    )


def _child(argv) -> int:
    import argparse
    import contextlib
    import io
    import resource
    import time

    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=None, help="operation id; enables tracing")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from nsatop import cli

    tracer = None
    if args.trace is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.op = args.trace
    request = ["--seed", str(args.seed), "audit", "--max-points", "4"]
    buf = io.StringIO()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.span("bench.op"))
        stack.enter_context(contextlib.redirect_stdout(buf))
        t0 = time.perf_counter()
        try:
            rc = cli.main(request)
        except Exception as exc:  # a pass that raises is a failed operation
            rc = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    text = buf.getvalue()
    result = {
        "seconds": elapsed,
        "rc": rc,
        "ok": check_report(rc, text),
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
