"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from mapgen import make_cases, shape_of
from spans import Span, Tracer, self_times

sys.path.insert(0, str(run.SRC))
import newtonmaps  # noqa: E402
from newtonmaps import cli  # noqa: E402

HELD_OUT_SEED = 90210  # used by no tuning run


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", "t", -1, 0.0, 10.0),
        Span("a", "t", 0, 1.0, 4.0),
        Span("b", "t", 1, 2.0, 3.0),
        Span("c", "t", 0, 5.0, 9.0),
        Span("d", "t", 3, 5.0, 6.0),
        Span("e", "t", 3, 6.5, 8.0),
        Span("f", "t", 2, 2.25, 2.75),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 0.5, 1.5, 1.0, 1.5, 0.5])


def test_instrument_records_cross_module_calls_and_restores(tmp_path):
    modules = {layer: sys.modules[f"newtonmaps.{layer}"] for layer in run.LAYERS}
    before = {(l, k): v for l, m in modules.items() for k, v in vars(m).items()}
    doc = tmp_path / "n2.map"
    shutil.copy(run.FIXTURES / "n2.map", doc)
    tracer = Tracer()
    tracer.instrument(modules)
    try:
        assert cli.main(["faces", str(doc)]) == 0
    finally:
        tracer.restore()
    spans = tracer.take()
    names = {(s.name, s.site) for s in spans}
    assert ("mapdoc.parse", "cli") in names
    assert ("embedded_map.facial_walks", "cli") in names
    assert ("embedded_map.validate", "embedded_map") in names
    after = {(l, k): v for l, m in modules.items() for k, v in vars(m).items()}
    assert after == before


def _fake_classify(goldens_src: Path):
    def main(argv):
        out = Path(argv[argv.index("--out") + 1])
        for name in run.GOLDENS:
            shutil.copy(goldens_src / name, out / name)
        return 0
    return main


def test_corrupted_golden_byte_is_a_failure(tmp_path):
    corrupted = tmp_path / "goldens"
    corrupted.mkdir()
    for name in run.GOLDENS:
        shutil.copy(run.FIXTURES / name, corrupted / name)
    atlas = corrupted / run.GOLDENS[0]
    data = bytearray(atlas.read_bytes())
    data[len(data) // 2] ^= 0x01
    atlas.write_bytes(bytes(data))

    work = tmp_path / "work"
    work.mkdir()
    w = run.Classify(jobs=1)
    tally = run.Tally()
    w.setup(1, newtonmaps, work, goldens_dir=run.FIXTURES)
    w.classify(_fake_classify(run.FIXTURES), tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    w.setup(1, newtonmaps, work, goldens_dir=corrupted)
    w.classify(_fake_classify(run.FIXTURES), tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)


def _one_case_queries(tmp_path, seed=HELD_OUT_SEED):
    case = make_cases(seed, 2, newtonmaps.relabel, newtonmaps.parse,
                      newtonmaps.serialize)[0]
    a, b = tmp_path / "a.map", tmp_path / "b.map"
    a.write_text(case.doc)
    b.write_text(case.twin)
    return case, run.queries_for(case, a, b, tmp_path)


def test_wrong_iso_exit_code_is_a_failure(tmp_path):
    _, queries = _one_case_queries(tmp_path)
    iso = next(q for q in queries if q.argv[0] == "iso")
    tally = run.Tally()
    iso(lambda argv: 1, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)
    iso(cli.main, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def _crash(argv):
    raise RuntimeError("crash")


def _refuse_key_width(argv):
    print(f"error: {run.KEY_WIDTH_REFUSAL}", file=sys.stderr)
    return 3


def test_only_canon_on_maps_over_256_darts_may_refuse(tmp_path):
    cases = make_cases(HELD_OUT_SEED, 8, newtonmaps.relabel, newtonmaps.parse,
                       newtonmaps.serialize)
    small = next(c for c in cases if c.darts <= 256)
    large = next(c for c in cases if c.darts > 256)
    for case, canon_refusal in ((small, run.WRONG), (large, run.REFUSED)):
        a, b = tmp_path / f"{case.name}.map", tmp_path / f"{case.name}-twin.map"
        a.write_text(case.doc)
        b.write_text(case.twin)
        for q in run.queries_for(case, a, b, tmp_path):
            for main in (_refuse_key_width, lambda argv: 3, lambda argv: 4, _crash):
                tally = run.Tally()
                q(main, tally)
                if main is _refuse_key_width and q.argv[0] == "canon":
                    outcome = canon_refusal
                else:
                    outcome = run.WRONG
                want = (1, 0) if outcome == run.REFUSED else (0, 1)
                assert (tally.refused, tally.wrong) == want, (q.label, tally.problems)
                # a refusal is not a failure, but it counts in error_frac
                assert tally.failed == tally.wrong
                assert tally.error_frac == 1.0


def test_classify_exit_or_crash_is_wrong(tmp_path):
    w = run.Classify(jobs=1)
    w.setup(1, newtonmaps, tmp_path)
    tally = run.Tally()
    for main in (lambda argv: 3, lambda argv: 4, _crash):
        w.classify(main, tally)
    assert (tally.attempted, tally.refused, tally.wrong) == (3, 0, 3)


def test_held_out_seed_agrees_with_oracle(tmp_path):
    cases = make_cases(HELD_OUT_SEED, 4, newtonmaps.relabel, newtonmaps.parse,
                       newtonmaps.serialize)
    assert {c.kind for c in cases} == {"random", "grid"}
    for c in cases:
        assert shape_of(c.twin) == c.shape
        if c.kind == "grid":
            assert c.shape.genus == 1 and set(c.shape.faces) == {4}
    tally = run.Tally()
    refusals_expected = 0
    for i, c in enumerate(cases):
        a, b = tmp_path / f"{i}a.map", tmp_path / f"{i}b.map"
        a.write_text(c.doc)
        b.write_text(c.twin)
        for q in run.queries_for(c, a, b, tmp_path):
            q(cli.main, tally)
        # the one-byte key encoding refuses dart indices above 255
        refusals_expected += 4 if c.darts > 256 else 0
    assert tally.attempted == 11 * len(cases)
    assert tally.wrong == 0, tally.problems
    assert tally.refused == refusals_expected, tally.problems
    assert tally.failed == 0


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    repo = run.ROOT
    shutil.copy(repo / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(repo / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "maps-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, kind):
    """A two-second run prints the contract's last line and exits 0."""
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload",
         "maps-large", "--seed", str(HELD_OUT_SEED), "--seconds", "2",
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in bench[kind]}
    units = {m["name"]: m["unit"] for m in bench[kind]}
    assert all(m["unit"] == units[name] for name, m in last["metrics"].items())
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in last["metrics"].values())
