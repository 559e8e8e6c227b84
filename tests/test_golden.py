"""Byte-level guard on CLI output.

`golden/cli.json` records, for each case, the argv, the exit code and the
exact stdout of `nsatop.cli.main`.  Argv entries `{space}` and `{family}` are
replaced by the paths of the fixture files below.  An intended change to CLI
output shows up as a diff of the golden file.
"""

import json
from pathlib import Path

import pytest

from nsatop.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

# Two components, {a,b} with a in every neighbourhood of b and {c,d} likewise.
SPACE = {
    "points": ["a", "b", "c", "d"],
    "opens": [
        [],
        ["a"],
        ["c"],
        ["a", "c"],
        ["a", "b"],
        ["c", "d"],
        ["a", "b", "c"],
        ["a", "c", "d"],
        ["a", "b", "c", "d"],
    ],
}
FAMILY = {"f": {"a": "0", "b": "0", "c": "1/2", "d": "1/2"}}

CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture
def fixture_paths(tmp_path):
    paths = {}
    for name, body in (("space", SPACE), ("family", FAMILY)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        paths["{%s}" % name] = str(path)
    return paths


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_golden(case, fixture_paths, capsys):
    code = main([fixture_paths.get(arg, arg) for arg in case["argv"]])
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])
