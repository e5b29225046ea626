"""Command-line behavior on inputs the transcript lacks: hand-built maps,
corrupted or forged atlases, file-system faults, exit codes and the
order-3 golden files."""

import json
import os
import random
import subprocess
import sys

import pytest

from conftest import (FIXTURES, ROOT, build_chiral, build_efail_n2,
                      build_grid4, build_sphere_n2, canonical_form, run_cli)
from newtonmaps import (atlas_to_jsonl, canon, canonical_key, cli, dual,
                        embedded_map, make_map, mirror, parse, relabel,
                        serialize)
from newtonmaps.enumeration import _atlas_entry
from test_duality import CASE1_DUAL_DOC

N2 = str(FIXTURES / "n2.map")
CASE1 = str(FIXTURES / "case1.map")
CASE3 = str(FIXTURES / "case3.map")


@pytest.fixture(scope="session")
def docs(tmp_path_factory):
    d = tmp_path_factory.mktemp("docs")
    (d / "efail.map").write_text(serialize(build_efail_n2()))
    (d / "sphere.map").write_text(serialize(build_sphere_n2()))
    ch = build_chiral()
    (d / "chiral.map").write_text(serialize(ch))
    (d / "chiral_mirror.map").write_text(serialize(mirror(ch)))
    disc = make_map(
        [("a", ("v1", "v2")), ("b", ("v1", "v2")),
         ("c", ("v3", "v4")), ("d", ("v3", "v4"))],
        {"v1": ["a", "b"], "v2": ["a", "b"], "v3": ["c", "d"], "v4": ["c", "d"]})
    (d / "disc.map").write_text(serialize(disc))
    (d / "loop.map").write_text(
        "order 2\nedge a w w\nedge b w x\nedge c w x\n"
        "rot w a.0 a.1 b c\nrot x b c\n")
    (d / "bad.map").write_text("flip a b\n")
    return d


def test_module_entry_point_exit_codes():
    # the one test of the process boundary: python -m newtonmaps hands
    # main's code, or argparse's, to the shell
    for code, args in ((0, ["--version"]), (1, ["iso", CASE1, CASE3]),
                       (2, ["newton"]), (3, ["validate", "no-such.map"])):
        r = subprocess.run([sys.executable, "-m", "newtonmaps", *args],
                           capture_output=True, cwd=ROOT)
        assert r.returncode == code, args


def test_usage_errors():
    # a map states its order, reflection is the default sense, and pgraph
    # takes DOT as a --format
    for argv in ((), ("no-such-command",), ("newton", N2, "--order", "2"),
                 ("canon", N2, "--reflect"), ("iso", N2, N2, "--reflect"),
                 ("pgraph", N2, "--dot")):
        assert run_cli(*argv).code == 2


def test_validate_reports_defects(docs):
    r = run_cli("validate", str(docs / "disc.map"))
    assert r.code == 1
    lines = r.stdout.splitlines()
    assert lines[0] == "invalid"
    assert any("disconnected" in ln for ln in lines)


def test_validate_advisory_keeps_exit_zero(docs):
    r = run_cli("validate", str(docs / "loop.map"))
    assert r.code == 0
    assert "advisory: loop-present" in r.stdout


def test_validate_json(docs):
    r = run_cli("validate", str(docs / "disc.map"), "--format", "json")
    payload = json.loads(r.stdout)
    assert payload["ok"] is False
    assert payload["defects"][0]["code"] == "disconnected"


def test_input_errors(docs):
    r = run_cli("validate", str(docs / "bad.map"))
    assert r.code == 3
    assert "line 1" in r.stderr


@pytest.mark.parametrize("digit", ["\u00b2", "\u0661"])
def test_non_ascii_order_digit_is_an_input_error(tmp_path, digit):
    path = tmp_path / "order.map"
    body = (FIXTURES / "n2.map").read_text().split("\n", 1)[1]
    path.write_text(f"order {digit}\n" + body, encoding="utf-8")
    r = run_cli("validate", str(path))
    assert r.code == 3
    assert "line 1: order needs one positive integer" in r.stderr


def test_faces_traces_once(monkeypatch, case1):
    passes = []
    real = embedded_map._cycles
    monkeypatch.setattr(embedded_map, "_cycles",
                        lambda perm: passes.append(tuple(perm)) or real(perm))
    r = run_cli("faces", CASE1, "--format", "json")
    assert r.code == 0
    payload = json.loads(r.stdout)
    assert (payload["euler_characteristic"], payload["genus"]) == (0, 1)
    # validation's sigma-cycles, then one pass over phi for the faces
    assert passes == [case1.sigma, tuple(embedded_map._phi(case1.sigma))]


def test_faces_refuses_invalid_map(docs):
    assert run_cli("faces", str(docs / "disc.map")).code == 3


def test_dual_stdout_and_file(tmp_path):
    out = tmp_path / "dual.map"
    assert run_cli("dual", CASE1, "--out", str(out)) == (0, "", "")
    assert out.read_text() == CASE1_DUAL_DOC


def test_dual_twice_is_original(tmp_path):
    d1 = tmp_path / "d1.map"
    d2 = tmp_path / "d2.map"
    run_cli("dual", CASE1, "--out", str(d1))
    run_cli("dual", str(d1), "--out", str(d2))
    assert run_cli("iso", str(d2), CASE1, "--op") == (0, "equivalent\n", "")


def test_refine_rejects_repeated_edges(docs):
    assert run_cli("refine", str(docs / "efail.map")).code == 3


def test_canon_hex(docs):
    op_a = run_cli("canon", str(docs / "chiral.map"), "--op").stdout
    op_b = run_cli("canon", str(docs / "chiral_mirror.map"), "--op").stdout
    assert op_a != op_b
    refl_a = run_cli("canon", str(docs / "chiral.map")).stdout
    refl_b = run_cli("canon", str(docs / "chiral_mirror.map")).stdout
    assert refl_a == refl_b


def test_main_reuses_one_parser(monkeypatch, docs):
    # one parser serves every call in a process, and no call leaves state
    # behind for the next: senses, usage errors and --version
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    chiral = str(docs / "chiral_mirror.map")
    keys = [canonical_key(mirror(build_chiral()), sense).hex()
            for sense in (False, True)]
    assert keys[0] != keys[1]
    assert run_cli("canon", chiral, "--op") == (0, keys[0] + "\n", "")
    assert run_cli("canon", chiral) == (0, keys[1] + "\n", "")
    code, out, err = run_cli("newton")
    assert (code, out) == (2, "")
    assert err.startswith("usage: newtonmaps newton [-h]")
    assert "the following arguments are required: file" in err
    assert run_cli("validate", N2) == (0, "ok\n", "")
    for _ in range(2):
        assert run_cli("--version") == (0, "0.1.0\n", "")
    assert run_cli("iso", N2, N2, "--op") == (0, "equivalent\n", "")
    assert len(built) == 1


def test_iso(docs):
    chiral = [str(docs / "chiral.map"), str(docs / "chiral_mirror.map")]
    assert run_cli("iso", *chiral) == (0, "equivalent (reflected)\n", "")
    assert run_cli("iso", *chiral, "--orientation-preserving") == (
        1, "not-equivalent\n", "")


def test_iso_refuses_invalid_map(docs):
    disc = str(docs / "disc.map")
    for args in (("iso", disc, disc), ("iso", N2, disc), ("canon", disc)):
        r = run_cli(*args)
        assert r.code == 3
        assert r.stderr.startswith("error:")
        assert "disconnected" in r.stderr  # the message names the defect


def _parallel_edges(n: int, u: str, v: str) -> tuple[list, dict]:
    names = [f"{u}{v}{k}" for k in range(n)]
    return [(e, (u, v)) for e in names], {u: names, v: names}


def test_canon_refuses_wide_key_before_searching(monkeypatch, tmp_path):
    # 130 parallel edges: 260 darts, more than a key's text form holds
    edges, rot = _parallel_edges(130, "u", "v")
    wide = tmp_path / "wide.map"
    wide.write_text(serialize(make_map(edges, rot)))
    # two such components: the defect is reported, not the width
    edges2, rot2 = _parallel_edges(130, "x", "y")
    split = tmp_path / "split.map"
    split.write_text(serialize(make_map(edges + edges2, {**rot, **rot2})))

    def no_search(*args):
        raise AssertionError("the key search ran")

    monkeypatch.setattr(canon, "_best_trace", no_search)
    for sense in ([], ["--op"]):
        code, out, err = run_cli("canon", str(wide), *sense)
        assert (code, out) == (3, "")
        assert "trace entries exceed one byte" in err
        code, out, err = run_cli("canon", str(split), *sense)
        assert (code, out) == (3, "")
        assert "disconnected" in err


def test_canon_keys_the_widest_map_its_text_holds(tmp_path):
    # 128 parallel edges make 256 darts, the most a key's text holds: two
    # trace bytes per dart, 1,024 hex digits.  129 edges are too many
    for n, code, digits in ((128, 0, 1024), (129, 3, 0)):
        edges, rot = _parallel_edges(n, "u", "v")
        path = tmp_path / f"parallel{n}.map"
        path.write_text(serialize(make_map(edges, rot)))
        got, out, err = run_cli("canon", str(path))
        assert (got, len(out.strip())) == (code, digits)


def test_iso_broken_witness_exits_4_under_optimize():
    # the witness check must survive python -O, which strips asserts
    script = (
        "import sys\n"
        "from newtonmaps import canon, cli\n"
        "real = canon._best_trace_sided\n"
        "calls = []\n"
        "def wrong(m, *sense_and_bound):\n"
        "    trace, order, mirrored = real(m, *sense_and_bound)\n"
        "    calls.append(m)\n"
        "    if len(calls) == 2:\n"
        "        order = order[1:] + order[:1]\n"
        "    return trace, order, mirrored\n"
        "canon._best_trace_sided = wrong\n"
        "sys.exit(cli.main(sys.argv[1:]))\n")
    r = subprocess.run([sys.executable, "-O", "-c", script, "iso", N2, N2],
                       capture_output=True, text=True, cwd=ROOT)
    assert r.returncode == 4
    assert "internal consistency failure" in r.stderr


def test_cli_import_loads_no_pool_machinery():
    # only a run with --jobs above 1 starts a pool and imports its modules
    script = ("import sys, newtonmaps.cli\n"
              "print(sorted({'concurrent.futures.process', 'multiprocessing'}\n"
              "             & sys.modules.keys()))\n")
    r = subprocess.run([sys.executable, "-c", script],
                       capture_output=True, text=True, cwd=ROOT)
    assert (r.returncode, r.stdout) == (0, "[]\n")


def test_selfdual(docs):
    assert run_cli("selfdual", str(docs / "chiral.map")) == (
        0, "reflective: true\norientation-preserving: false\n", "")
    # not a Newton graph, so the question is refused
    assert run_cli("selfdual", str(docs / "sphere.map")).code == 3


def test_newton_verdicts(docs):
    r = run_cli("newton", str(docs / "efail.map"))
    assert r.code == 1
    assert "e-witness: edge a repeats in walk 0" in r.stdout
    assert "verdict: not-newton" in r.stdout


def test_newton_json(docs):
    r = run_cli("newton", str(docs / "efail.map"), "--format", "json")
    payload = json.loads(r.stdout)
    assert payload["e_property"] is False
    assert payload["e_witness"] == {"walk_index": 0, "repeated_edge": "a"}
    assert payload["verdict"] == "not-newton"


def test_classify_order3_golden_files(tmp_path):
    r = run_cli("classify", "--order", "3", "--out", str(tmp_path))
    assert r.code == 0
    assert "classes (reflection-allowed): 12" in r.stdout
    assert "classes (orientation-preserving): 14" in r.stdout
    assert "classes (up to duality): 9" in r.stdout
    assert (tmp_path / "atlas_order3.jsonl").read_text() == (
        FIXTURES / "atlas_order3.jsonl").read_text()
    assert (tmp_path / "classification_order3.json").read_text() == (
        FIXTURES / "classification_order3.json").read_text()


def test_classify_runs_one_process_by_default():
    assert cli.build_parser().parse_args(["classify", "--order", "3"]).jobs == 1


def test_atlas_audit_catches_corruption(tmp_path):
    text = (FIXTURES / "atlas_order3.jsonl").read_text()
    assert '"self_dual":true' in text
    corrupted = text.replace('"self_dual":true', '"self_dual":false', 1)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(corrupted)
    r = run_cli("atlas", str(bad))
    assert r.code == 4
    assert "internal consistency failure" in r.stderr

    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("not json\n")
    assert run_cli("atlas", str(garbage)).code == 3


def _keep(recs, keep):
    recs[:] = [r for r in recs if keep(r)]


def _drop_dual_pair(recs):
    pair = next((r["key"], r["dual_key"]) for r in recs if not r["self_dual"])
    _keep(recs, lambda r: r["key"] not in pair)


@pytest.mark.parametrize("edit", [
    lambda recs: next(r for r in recs if r["op_forms"] == 2).update(op_forms=1),
    lambda recs: recs[0].update(delta=[x + 1 for x in recs[0]["delta"]]),
    lambda recs: recs[0].update(delta_star=[x + 1 for x in recs[0]["delta_star"]]),
    lambda recs: recs[0].update(max_face=recs[0]["max_face"] + 1),
    lambda recs: recs[0].update(self_dual_op=not recs[0]["self_dual_op"]),
    lambda recs: recs[0].update(verdict="e-only"),
    lambda recs: [r.update(order=4) for r in recs],
    lambda recs: recs.append(dict(recs[0])),
    # an isomorphic copy derives every field but is not its key's map
    lambda recs: recs[0].update(representative=serialize(relabel(
        parse(recs[0]["representative"]), rng=random.Random(1)))),
    # the order-3 labels and the 12/9 counts are checked too
    lambda recs: recs.remove(next(r for r in recs if r["self_dual"])),
    _drop_dual_pair,
    lambda recs: _keep(recs, lambda r: r["self_dual"]),
    lambda recs: recs[0].update(paper_label=recs[0]["paper_label"] + "-x"),
    lambda recs: recs[0].update(label_ambiguous=not recs[0]["label_ambiguous"]),
], ids=["chiral-op_forms", "delta", "delta_star", "max_face", "self_dual_op",
        "verdict", "order-all", "duplicate-class", "non-canonical-representative",
        "self-dual-class-removed", "dual-pair-removed", "only-self-dual-kept",
        "paper_label", "label_ambiguous"])
def test_atlas_audit_rederives_every_field(tmp_path, edit):
    records = [json.loads(line) for line in
               (FIXTURES / "atlas_order3.jsonl").read_text().splitlines()]
    edit(records)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    r = run_cli("atlas", str(bad))
    assert r.code == 4
    assert "internal consistency failure" in r.stderr


@pytest.mark.parametrize("field, value", [
    ("paper_label", "case1-f44-d44-selfdual"),
    ("label_ambiguous", True),
])
def test_atlas_audit_checks_labels_at_order2(tmp_path, field, value):
    # order 2 has no paper labels, so any label is a forgery
    rec = json.loads((FIXTURES / "atlas_order2.jsonl").read_text())
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({**rec, field: value}) + "\n")
    assert run_cli("atlas", str(bad)) == (4, "", (
        f"internal consistency failure: entry {rec['key'][:12]}: "
        f"field {field!r} does not match its representative\n"))


def test_atlas_audit_takes_records_without_optional_fields(tmp_path):
    # an omitted paper_label or label_ambiguous takes its default
    golden = FIXTURES / "atlas_order2.jsonl"
    rec = json.loads(golden.read_text())
    del rec["paper_label"], rec["label_ambiguous"]
    path = tmp_path / "atlas.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    want = run_cli("atlas", str(golden))
    assert want[0] == 0 and run_cli("atlas", str(path)) == want


def test_atlas_skips_blank_lines(tmp_path):
    # a fault after blank lines is reported at its line of the file
    golden = FIXTURES / "atlas_order3.jsonl"
    lines = golden.read_text().splitlines()
    path = tmp_path / "atlas.jsonl"
    path.write_text("\n" + "\n \n".join(lines) + "\n\n")
    want = run_cli("atlas", str(golden))
    assert want.code == 0 and run_cli("atlas", str(path)) == want
    path.write_text("\n" + lines[0] + "\n \nnot json\n")
    assert run_cli("atlas", str(path)) == (3, "", (
        "error: line 4: bad atlas record: Expecting value: line 1 column 1 (char 0)\n"))


def test_atlas_audit_names_the_missing_dual(tmp_path):
    records = [json.loads(line) for line in
               (FIXTURES / "atlas_order3.jsonl").read_text().splitlines()]
    gone = next(r for r in records if not r["self_dual"])
    path = tmp_path / "atlas.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records if r is not gone))
    assert run_cli("atlas", str(path)) == (4, "", (
        f"internal consistency failure: dual of class "
        f"{gone['dual_key'][:12]} missing from atlas\n"))


@pytest.mark.parametrize("build", [build_efail_n2, build_sphere_n2])
@pytest.mark.parametrize("canonical", [False, True], ids=["as-built", "canonical"])
def test_atlas_audit_refuses_non_newton_classes(tmp_path, build, canonical):
    # every field derives from the map, so only the key and verdict checks
    # can tell this atlas from a genuine one
    m = build()
    reps = [m, dual(m)]
    if canonical:
        reps = [canonical_form(x) for x in reps]
    path = tmp_path / "forged.jsonl"
    path.write_text(atlas_to_jsonl([_atlas_entry(x) for x in reps]))
    r = run_cli("atlas", str(path))
    assert r.code == 4
    first = json.loads(path.read_text().splitlines()[0])
    reason = (f"representative does not have verdict {first['verdict']!r}"
              if canonical else "representative is not the map its key describes")
    assert r.stderr == (f"internal consistency failure: entry {first['key'][:12]}: "
                        f"{reason}\n")


def _atlas_line(edit):
    rec = json.loads((FIXTURES / "atlas_order2.jsonl").read_text())
    return json.dumps(edit(rec))


@pytest.mark.parametrize("bad", [
    _atlas_line(lambda rec: {k: v for k, v in rec.items() if k != "key_op"}),
    _atlas_line(lambda rec: list(rec)),
    _atlas_line(lambda rec: {**rec, "delta": 5}),
    _atlas_line(lambda rec: rec)[:-1],
    _atlas_line(lambda rec: {**rec, "key": "zz"}),
    _atlas_line(lambda rec: {**rec, "representative": 5}),
    _atlas_line(lambda rec: {**rec, "op_forms": "2"}),
    _atlas_line(lambda rec: {**rec, "order": "two"}),
    _atlas_line(lambda rec: {**rec, "delta": [4, "x"]}),
    _atlas_line(lambda rec: {**rec, "self_dual": "yes"}),
    _atlas_line(lambda rec: {**rec, "op_forms": True}),
    _atlas_line(lambda rec: {**rec, "note": "x"}),
    _atlas_line(lambda rec: {**rec, "representative_doc": rec["representative"]}),
    _atlas_line(lambda rec: {**rec, "key": "0A"}),
    _atlas_line(lambda rec: {**rec, "dual_key": " ".join(
        rec["dual_key"][i:i + 2] for i in range(0, len(rec["dual_key"]), 2))}),
    # the same map, but not as serialize() writes it
    _atlas_line(lambda rec: {**rec, "representative": rec["representative"]
                             .replace("rot v1 a b c d", "rot v1 b c d a")}),
    _atlas_line(lambda rec: {**rec, "representative": "# n2\n" + rec["representative"]}),
    _atlas_line(lambda rec: {**rec, "representative": "orientation clockwise-faces\n"
                             + rec["representative"]}),
], ids=["missing-key_op", "json-list", "delta-int", "malformed-json",
        "bad-key-hex", "representative-int", "op_forms-str", "order-str",
        "delta-str-item", "self_dual-str", "op_forms-bool", "unknown-field",
        "representative_doc-field", "key-upper-case-hex", "dual_key-spaced-hex",
        "representative-rotated-rot", "representative-comment",
        "representative-orientation"])
def test_atlas_refuses_malformed_record(tmp_path, bad):
    path = tmp_path / "bad.jsonl"
    path.write_text((FIXTURES / "atlas_order2.jsonl").read_text() + bad + "\n")
    r = run_cli("atlas", str(path))
    assert r.code == 3
    assert r.stderr.startswith("error: line 2:")


@pytest.mark.parametrize("field, value, reason", [
    ("delta", 5, "field 'delta' should be list of int, not 5"),
    ("op_forms", "2", "field 'op_forms' should be int, not '2'"),
    # the inner line number counts lines of the representative's document
    ("representative", (FIXTURES / "n2.map").read_text().replace(
        "rot v1 a b c d", "rot v1 a b c x"),
     "field 'representative': document line 6: unknown edge 'x' at vertex 'v1'"),
], ids=["list", "scalar", "representative"])
def test_atlas_names_the_field_at_fault(tmp_path, field, value, reason):
    path = tmp_path / "bad.jsonl"
    path.write_text(_atlas_line(lambda rec: {**rec, field: value}) + "\n")
    assert run_cli("atlas", str(path)) == (
        3, "", f"error: line 1: bad atlas record: {reason}\n")


@pytest.mark.parametrize("extra, reason", [
    ([], "empty atlas"),
    # a self-dual order-4 class passes every per-record check
    ([_atlas_entry(canonical_form(build_grid4()))], "mixed orders in atlas"),
], ids=["empty", "order-2-and-order-4"])
def test_atlas_refuses_empty_or_mixed_order_atlas(tmp_path, extra, reason):
    text = "" if not extra else (
        (FIXTURES / "atlas_order2.jsonl").read_text() + atlas_to_jsonl(extra))
    path = tmp_path / "atlas.jsonl"
    path.write_text(text)
    r = run_cli("atlas", str(path))
    assert r.code == 4
    assert reason in r.stderr


@pytest.mark.parametrize("command", ["validate", "atlas"])
def test_non_utf8_file_is_an_input_error(tmp_path, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfeorder 2\n")
    r = run_cli(command, str(path))
    assert r.code == 3
    assert r.stderr.startswith("error:")


def test_unexpected_value_error_is_not_an_input_error(monkeypatch):
    def broken(m):
        raise ValueError("internal fault")
    monkeypatch.setattr(cli, "serialize", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run_cli("dual", N2)


def test_dual_out_keeps_old_file_when_replace_fails(tmp_path, monkeypatch):
    target = tmp_path / "out.map"
    target.write_text("old")

    def fail(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr(os, "replace", fail)
    assert run_cli("dual", N2, "--out", str(target)).code == 3
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.map"]


@pytest.mark.parametrize("out", [".", "/"])
def test_dual_out_refuses_a_directory(tmp_path, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    r = run_cli("dual", N2, "--out", out)
    assert r.code == 3
    assert r.stderr.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_json_output_is_json_dumps_indent_2(monkeypatch, docs):
    # every payload a subcommand emits prints as json.dumps(payload,
    # sort_keys=True, indent=2) does, plus a newline
    emitted = []
    real = cli._emit_json

    def recording(payload):
        emitted.append(payload)
        real(payload)

    monkeypatch.setattr(cli, "_emit_json", recording)
    maps = [N2, CASE1, CASE3] + [str(p) for p in sorted(docs.glob("*.map"))]
    argvs = [["atlas", str(FIXTURES / f"atlas_order{r}.jsonl"), "--format", "json"]
             for r in (2, 3)]
    for path in maps:
        argvs += [[cmd, path, "--format", "json"] for cmd in
                  ("validate", "faces", "refine", "pgraph", "selfdual")]
        argvs += [["newton", path, "--format", "json"], ["export", path, "--to", "json"]]
    commands = set()
    for argv in argvs:
        del emitted[:]
        out = run_cli(*argv).stdout
        if emitted:
            commands.add(argv[0])
            assert out == json.dumps(emitted[0], sort_keys=True, indent=2) + "\n"
    assert commands == {"validate", "faces", "refine", "pgraph", "selfdual",
                        "newton", "atlas", "export"}


def _payload(rng, depth):
    """A nested JSON value: containers empty or not, dicts keyed by one key
    type, and leaves that json spells in its own way."""
    leaves = ["", "a", "\u00e9t\u00e9", "snow \u2603", "clef \U0001d11e",
              'quote " back \\ slash', "tab\tnew\nline", "\x00\x1f\x7f", "</",
              True, False, 1, 0, -7, 2 ** 70, None, 0.5, -0.0, 1e300,
              float("inf"), float("nan")]
    r = rng.random()
    if depth == 0 or r < 0.3:
        return rng.choice(leaves)
    items = [_payload(rng, depth - 1) for _ in range(rng.randrange(4))]
    if r < 0.5:
        return items
    if r < 0.6:
        return tuple(items)
    keys = rng.choice([["b", "a", "\u00e9", "\n", "A", "aa", ""], [3, -1, 20],
                       [True, False], [None], [0.5, 2.0]])
    return dict(zip(rng.sample(keys, min(len(items), len(keys))), items))


def test_json_writer_matches_json_dumps_on_nested_payloads(capsys):
    rng = random.Random(17)
    payloads = [{}, [], (), {"a": []}, {"a": {}}, [True, 1, 1.0, None],
                (1, True), {"x": ("a", ["b", ()])}]
    payloads += [_payload(rng, 5) for _ in range(300)]
    for payload in payloads:
        cli._emit_json(payload)
        assert capsys.readouterr().out == json.dumps(
            payload, sort_keys=True, indent=2) + "\n"
