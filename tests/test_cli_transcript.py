"""Every subcommand's exit code, stdout and stderr on the fixture files,
replayed in-process against a recorded transcript.

The transcript pins the CLI's output bytes, so a change meant to keep
them can be checked in one test.  After a deliberate output change,
rewrite it with

    PYTHONPATH=src python tests/test_cli_transcript.py

from the repository root, and say why in the change.
"""

import itertools
import json
import os
import sys

from conftest import ROOT, run_cli

TRANSCRIPT = ROOT / "tests" / "cli_transcript.json"
MAPS = ["fixtures/case1.map", "fixtures/case3.map", "fixtures/n2.map"]
ATLASES = ["fixtures/atlas_order2.jsonl", "fixtures/atlas_order3.jsonl"]
FORMATS = [[], ["--format", "json"]]


def invocations() -> list[list[str]]:
    out = []
    for f in MAPS:
        for cmd in ("validate", "faces", "refine", "selfdual"):
            out += [[cmd, f, *fmt] for fmt in FORMATS]
        out.append(["dual", f])
        out += [["pgraph", f, *fmt] for fmt in FORMATS + [["--format", "dot"]]]
        out += [["canon", f], ["canon", f, "--op"]]
        out += [["newton", f, *fmt] for fmt in FORMATS]
        out += [["export", f, "--to", to] for to in ("dot", "json", "doc")]
    for a, b in itertools.product(MAPS, repeat=2):
        out += [["iso", a, b], ["iso", a, b, "--op"]]
    for f in ATLASES:
        out += [["atlas", f, *fmt] for fmt in FORMATS]
    out += [["classify", "--order", "2", *fmt] for fmt in FORMATS]
    # input errors, for stderr
    out += [["validate", "fixtures/no-such.map"], ["atlas", MAPS[0]],
            ["refine", ATLASES[0]], ["classify", "--order", "1"]]
    return out


def replay(argv: list[str]) -> dict:
    return {"argv": argv, **run_cli(*argv)._asdict()}


def test_cli_transcript_is_unchanged(monkeypatch):
    monkeypatch.chdir(ROOT)
    recorded = json.loads(TRANSCRIPT.read_text())
    assert [r["argv"] for r in recorded] == invocations()
    for want in recorded:
        assert replay(want["argv"]) == want


if __name__ == "__main__":
    os.chdir(ROOT)
    records = [replay(argv) for argv in invocations()]
    TRANSCRIPT.write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(records)} invocations written to {TRANSCRIPT}", file=sys.stderr)
