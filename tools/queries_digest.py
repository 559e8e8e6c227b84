"""Per-kind digests of what the CLI prints on the `queries` benchmark stream.

    python3 tools/queries_digest.py            # compare with the golden file
    python3 tools/queries_digest.py --write    # rewrite it, for a change made by design

For each seed in SEEDS, the `queries` generator (perfbench/queries.py) draws
REQUESTS requests, and each runs through `cli.main` in this process.  Each
request kind (the generator function that drew it) gets one sha256 over its
requests in order: the argv, with each space file's content in place of its
temporary path, the exit code and the stdout.  The digests, with the count of
requests per kind, are compared with tests/golden/queries_digest.json; the
run exits 1 and names every kind whose digest or count differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no cache files beside the benchmark's sources
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import queries  # noqa: E402 (needs the paths above)

GOLDEN = ROOT / "tests" / "golden" / "queries_digest.json"
SEEDS = (5, 131)
REQUESTS = 6600


def _tag_kinds(drawn: list) -> None:
    """Make every request kind record its name in drawn[0] when it draws; a
    kind that repeats an argv is drawn again, so the last name recorded is the
    kind of the request the stream yields.  Draws are passed through unchanged,
    so the stream is the one the benchmark sends."""

    def tagged(kind):
        def draw(rng, ctx):
            drawn[0] = kind.__name__
            return kind(rng, ctx)

        return draw

    queries.SMALL = [tagged(k) for k in queries.SMALL]
    queries.HEAVY = [tagged(k) for k in queries.HEAVY]


def digests(seed: int, drawn: list) -> dict:
    """{kind: {"requests": count, "sha256": hex}} over REQUESTS requests."""
    hashes, counts = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        ctx = queries.setup(seed, Path(tmp))
        space_dir = str(ctx["space_dir"])
        stream = queries.ops(seed, ctx)
        for _ in range(REQUESTS):
            op = next(stream)
            kind = drawn[0]
            _, (code, out), _ = queries.execute(op)
            argv = [
                Path(arg).read_text(encoding="utf-8") if arg.startswith(space_dir) else arg
                for arg in op[0]
            ]
            record = json.dumps([argv, code, out]).encode() + b"\n"
            hashes.setdefault(kind, hashlib.sha256()).update(record)
            counts[kind] = counts.get(kind, 0) + 1
    return {k: {"requests": counts[k], "sha256": hashes[k].hexdigest()} for k in sorted(hashes)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the golden file")
    args = parser.parse_args(argv)
    drawn = [None]
    _tag_kinds(drawn)
    got = {str(seed): digests(seed, drawn) for seed in SEEDS}
    if args.write:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
        return 0
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    differ = [
        f"seed {seed} {kind}"
        for seed in sorted(set(got) | set(want), key=int)
        for kind in sorted(set(got.get(seed, {})) | set(want.get(seed, {})))
        if got.get(seed, {}).get(kind) != want.get(seed, {}).get(kind)
    ]
    for line in differ:
        print("differs:", line)
    total = sum(v["requests"] for kinds in got.values() for v in kinds.values())
    print(f"{total} requests, {sum(map(len, got.values()))} (seed, kind) digests, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
