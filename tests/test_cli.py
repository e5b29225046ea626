"""Command-line behavior, exit codes, and golden output files."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

from conftest import (FIXTURES, ROOT, build_chiral, build_efail_n2,
                      build_grid4, build_sphere_n2, canonical_form)
from newtonmaps import (atlas_to_jsonl, canon, canonical_key, cli, dual,
                        embedded_map, make_map, mirror, parse, relabel,
                        serialize)
from newtonmaps.enumeration import _atlas_entry
from test_canon import N2_KEY_HEX
from test_duality import CASE1_DUAL_DOC

N2 = str(FIXTURES / "n2.map")
CASE1 = str(FIXTURES / "case1.map")
CASE3 = str(FIXTURES / "case3.map")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "newtonmaps", *args],
        capture_output=True, text=True, cwd=ROOT)


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


def test_version():
    r = run_cli("--version")
    assert r.returncode == 0
    assert r.stdout.strip() == "0.1.0"


def test_usage_errors():
    assert run_cli().returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("newton", N2).returncode == 2  # --order is required


def test_validate_ok():
    r = run_cli("validate", N2)
    assert r.returncode == 0
    assert r.stdout == "ok\n"


def test_validate_reports_defects(docs):
    r = run_cli("validate", str(docs / "disc.map"))
    assert r.returncode == 1
    lines = r.stdout.splitlines()
    assert lines[0] == "invalid"
    assert any("disconnected" in ln for ln in lines)


def test_validate_advisory_keeps_exit_zero(docs):
    r = run_cli("validate", str(docs / "loop.map"))
    assert r.returncode == 0
    assert "advisory: loop-present" in r.stdout


def test_validate_json(docs):
    r = run_cli("validate", str(docs / "disc.map"), "--format", "json")
    payload = json.loads(r.stdout)
    assert payload["ok"] is False
    assert payload["defects"][0]["code"] == "disconnected"


def test_input_errors(docs):
    r = run_cli("validate", str(docs / "missing.map"))
    assert r.returncode == 3
    assert r.stderr.startswith("error:")
    r = run_cli("validate", str(docs / "bad.map"))
    assert r.returncode == 3
    assert "line 1" in r.stderr


@pytest.mark.parametrize("digit", ["\u00b2", "\u0661"])
def test_non_ascii_order_digit_is_an_input_error(tmp_path, digit):
    path = tmp_path / "order.map"
    body = (FIXTURES / "n2.map").read_text().split("\n", 1)[1]
    path.write_text(f"order {digit}\n" + body, encoding="utf-8")
    r = run_cli("validate", str(path))
    assert r.returncode == 3
    assert "line 1: order needs one positive integer" in r.stderr


def test_faces_text():
    r = run_cli("faces", CASE1)
    assert r.returncode == 0
    assert r.stdout == (
        "f1 (length 6): v1 a v2 b v3 c v1 d v2 e v3 f\n"
        "f2 (length 3): v2 a v1 c v3 e\n"
        "f3 (length 3): v3 b v2 d v1 f\n"
        "faces 3  chi 0  genus 1\n"
    )


def test_faces_json():
    r = run_cli("faces", CASE1, "--format", "json")
    payload = json.loads(r.stdout)
    assert payload["euler_characteristic"] == 0
    assert payload["genus"] == 1
    assert payload["face_degrees"] == [6, 3, 3]
    assert payload["walks"][0]["face"] == "f1"
    assert payload["walks"][0]["steps"][0] == ["v1", "a"]
    assert payload == {
        "euler_characteristic": 0,
        "genus": 1,
        "face_degrees": [6, 3, 3],
        "walks": [
            {"face": "f1", "length": 6,
             "steps": [["v1", "a"], ["v2", "b"], ["v3", "c"],
                       ["v1", "d"], ["v2", "e"], ["v3", "f"]]},
            {"face": "f2", "length": 3,
             "steps": [["v2", "a"], ["v1", "c"], ["v3", "e"]]},
            {"face": "f3", "length": 3,
             "steps": [["v3", "b"], ["v2", "d"], ["v1", "f"]]},
        ],
    }


def test_faces_traces_once(monkeypatch, capsys, case1):
    passes = []
    real = embedded_map._cycles
    monkeypatch.setattr(embedded_map, "_cycles",
                        lambda perm: passes.append(tuple(perm)) or real(perm))
    assert cli.main(["faces", CASE1, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["euler_characteristic"], payload["genus"]) == (0, 1)
    # validation's sigma-cycles, then one pass over phi for the faces
    assert passes == [case1.sigma, tuple(embedded_map._phi(case1.sigma))]


def test_faces_refuses_invalid_map(docs):
    assert run_cli("faces", str(docs / "disc.map")).returncode == 3


def test_dual_stdout_and_file(tmp_path):
    r = run_cli("dual", CASE1)
    assert r.returncode == 0
    assert r.stdout == CASE1_DUAL_DOC
    out = tmp_path / "dual.map"
    r = run_cli("dual", CASE1, "--out", str(out))
    assert r.returncode == 0
    assert r.stdout == ""
    assert out.read_text() == CASE1_DUAL_DOC


def test_dual_twice_is_original(tmp_path):
    d1 = tmp_path / "d1.map"
    d2 = tmp_path / "d2.map"
    run_cli("dual", CASE1, "--out", str(d1))
    run_cli("dual", str(d1), "--out", str(d2))
    r = run_cli("iso", str(d2), CASE1, "--op")
    assert r.returncode == 0
    assert r.stdout == "equivalent\n"


def test_refine_text():
    r = run_cli("refine", N2)
    assert r.returncode == 0
    assert r.stdout == (
        "vertices 8 (level1 2, level2 4, level3 2)\n"
        "edges 16\n"
        "faces 8\n"
    )


def test_refine_rejects_repeated_edges(docs):
    assert run_cli("refine", str(docs / "efail.map")).returncode == 3


def test_pgraph_summary_and_dot():
    r = run_cli("pgraph", CASE1)
    assert r.stdout == "level1 3  level2 6  level3 3  arcs 24\n"
    d1 = run_cli("pgraph", CASE1, "--dot")
    d2 = run_cli("pgraph", CASE1, "--dot")
    assert d1.returncode == 0
    assert d1.stdout == d2.stdout
    assert "shape=point" in d1.stdout
    assert '"s:a" -> "f:f1";' in d1.stdout


def test_canon_hex(docs):
    r = run_cli("canon", N2)
    assert r.returncode == 0
    assert r.stdout.strip() == N2_KEY_HEX
    assert run_cli("canon", N2, "--reflect").stdout.strip() == N2_KEY_HEX
    op_a = run_cli("canon", str(docs / "chiral.map"), "--op").stdout
    op_b = run_cli("canon", str(docs / "chiral_mirror.map"), "--op").stdout
    assert op_a != op_b
    refl_a = run_cli("canon", str(docs / "chiral.map")).stdout
    refl_b = run_cli("canon", str(docs / "chiral_mirror.map")).stdout
    assert refl_a == refl_b


def _in_process(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


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
    assert _in_process("canon", chiral, "--op") == (0, keys[0] + "\n", "")
    assert _in_process("canon", chiral) == (0, keys[1] + "\n", "")
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        cli.main(["newton", N2])
    assert exc.value.code == 2
    assert err.getvalue().startswith("usage: newtonmaps newton [-h]")
    assert "the following arguments are required: --order" in err.getvalue()
    assert _in_process("validate", N2) == (0, "ok\n", "")
    for _ in range(2):
        out = io.StringIO()
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(out):
            cli.main(["--version"])
        assert (exc.value.code, out.getvalue()) == (0, "0.1.0\n")
    assert _in_process("iso", N2, N2, "--op") == (0, "equivalent\n", "")
    assert len(built) == 1


def test_iso(docs):
    r = run_cli("iso", N2, N2)
    assert (r.returncode, r.stdout) == (0, "equivalent\n")
    r = run_cli("iso", CASE1, CASE3)
    assert (r.returncode, r.stdout) == (1, "not-equivalent\n")
    r = run_cli("iso", str(docs / "chiral.map"), str(docs / "chiral_mirror.map"))
    assert (r.returncode, r.stdout) == (0, "equivalent (reflected)\n")
    r = run_cli("iso", str(docs / "chiral.map"), str(docs / "chiral_mirror.map"),
                "--orientation-preserving")
    assert (r.returncode, r.stdout) == (1, "not-equivalent\n")


def test_iso_refuses_invalid_map(docs):
    disc = str(docs / "disc.map")
    for args in (("iso", disc, disc), ("iso", N2, disc), ("canon", disc)):
        r = run_cli(*args)
        assert r.returncode == 3
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
        code, out, err = _in_process("canon", str(wide), *sense)
        assert (code, out) == (3, "")
        assert "trace entries exceed one byte" in err
        code, out, err = _in_process("canon", str(split), *sense)
        assert (code, out) == (3, "")
        assert "disconnected" in err


def test_iso_broken_witness_exits_4_under_optimize():
    # the witness check must survive python -O, which strips asserts
    script = (
        "import sys\n"
        "from newtonmaps import canon, cli\n"
        "real = canon._best_trace_sided\n"
        "calls = []\n"
        "def wrong(m, allow_reflection):\n"
        "    trace, order, mirrored = real(m, allow_reflection)\n"
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
    r = run_cli("selfdual", CASE3)
    assert r.returncode == 0
    assert r.stdout == "reflective: true\norientation-preserving: true\n"
    assert run_cli("selfdual", CASE1).returncode == 1
    r = run_cli("selfdual", str(docs / "chiral.map"))
    assert r.returncode == 0
    assert r.stdout == "reflective: true\norientation-preserving: false\n"
    # not a Newton graph, so the question is refused
    assert run_cli("selfdual", str(docs / "sphere.map")).returncode == 3


def test_newton_verdicts(docs):
    r = run_cli("newton", CASE1, "--order", "3")
    assert r.returncode == 0
    assert "verdict: newton" in r.stdout
    r = run_cli("newton", str(docs / "efail.map"), "--order", "2")
    assert r.returncode == 1
    assert "e-witness: edge a repeats in walk 0" in r.stdout
    assert "verdict: not-newton" in r.stdout
    r = run_cli("newton", CASE1, "--order", "2")
    assert r.returncode == 1


def test_newton_json(docs):
    r = run_cli("newton", str(docs / "efail.map"), "--order", "2",
                "--format", "json")
    payload = json.loads(r.stdout)
    assert payload["e_property"] is False
    assert payload["e_witness"] == {"walk_index": 0, "repeated_edge": "a"}
    assert payload["verdict"] == "not-newton"


def test_classify_order2_json():
    r = run_cli("classify", "--order", "2", "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["count_refl"] == 1
    assert payload["count_op"] == 1
    assert payload["strata"] == [
        {"max_face": 4, "vertex_pattern": [2, 2], "classes": 1}]


def test_classify_order2_golden_files(tmp_path):
    r = run_cli("classify", "--order", "2", "--out", str(tmp_path))
    assert r.returncode == 0
    assert (tmp_path / "atlas_order2.jsonl").read_text() == (
        FIXTURES / "atlas_order2.jsonl").read_text()
    assert (tmp_path / "classification_order2.json").read_text() == (
        FIXTURES / "classification_order2.json").read_text()


def test_classify_order3_golden_files(tmp_path):
    r = run_cli("classify", "--order", "3", "--out", str(tmp_path))
    assert r.returncode == 0
    assert "classes (reflection-allowed): 12" in r.stdout
    assert "classes (orientation-preserving): 14" in r.stdout
    assert "classes (up to duality): 9" in r.stdout
    assert (tmp_path / "atlas_order3.jsonl").read_text() == (
        FIXTURES / "atlas_order3.jsonl").read_text()
    assert (tmp_path / "classification_order3.json").read_text() == (
        FIXTURES / "classification_order3.json").read_text()


def test_classify_unsupported_order():
    assert run_cli("classify", "--order", "1").returncode == 3


def test_atlas_audit():
    r = run_cli("atlas", str(FIXTURES / "atlas_order3.jsonl"))
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "entries: 12"
    assert "case3-f444-d444-selfdual" in r.stdout
    assert "[self-dual, chiral]" in r.stdout


def test_atlas_audit_catches_corruption(tmp_path):
    text = (FIXTURES / "atlas_order3.jsonl").read_text()
    assert '"self_dual":true' in text
    corrupted = text.replace('"self_dual":true', '"self_dual":false', 1)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(corrupted)
    r = run_cli("atlas", str(bad))
    assert r.returncode == 4
    assert "internal consistency failure" in r.stderr

    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("not json\n")
    assert run_cli("atlas", str(garbage)).returncode == 3


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
    assert r.returncode == 4
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
    r = run_cli("atlas", str(bad))
    assert r.returncode == 4
    assert r.stdout == ""
    assert f"field {field!r} does not match" in r.stderr


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
    assert r.returncode == 4
    reason = "does not have verdict" if canonical else "not the map its key"
    assert reason in r.stderr


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
    assert r.returncode == 3
    assert r.stderr.startswith("error: line 2:")


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
    assert r.returncode == 4
    assert reason in r.stderr


@pytest.mark.parametrize("command", ["validate", "atlas"])
def test_non_utf8_file_is_an_input_error(tmp_path, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfeorder 2\n")
    r = run_cli(command, str(path))
    assert r.returncode == 3
    assert r.stderr.startswith("error:")


def test_unexpected_value_error_is_not_an_input_error(monkeypatch):
    def broken(m):
        raise ValueError("internal fault")
    monkeypatch.setattr(cli, "serialize", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["dual", N2])


def test_dual_out_keeps_old_file_when_replace_fails(tmp_path, monkeypatch):
    target = tmp_path / "out.map"
    target.write_text("old")

    def fail(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr(os, "replace", fail)
    assert cli.main(["dual", N2, "--out", str(target)]) == 3
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.map"]


@pytest.mark.parametrize("out", [".", "/"])
def test_dual_out_refuses_a_directory(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["dual", N2, "--out", out]) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_export_formats():
    r = run_cli("export", CASE1, "--to", "doc")
    assert r.stdout == (FIXTURES / "case1.map").read_text()
    r = run_cli("export", N2, "--to", "dot")
    assert r.stdout.startswith("graph map {\n")
    assert '"v1" -- "v2" [label="a"];' in r.stdout
    r = run_cli("export", CASE3, "--to", "json")
    payload = json.loads(r.stdout)
    assert payload["order"] == 3
    assert payload["rotations"]["v1"] == ["a", "b", "c", "d"]
