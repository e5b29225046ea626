"""Benchmark for newtonmaps: order-3 classification and queries on large maps.

    python3 perfbench/run.py --workload classify3 --seed 1 --seconds 30 --trace 0

Every operation is one in-process call of `newtonmaps.cli.main`, in a
closed loop: one client, and the next call starts when the last returns.

Workloads
  classify3        `classify --order 3 --jobs 1 --out DIR`; both output
                   files must equal the goldens in fixtures/ byte for byte.
  classify3-jobs2  the same with `--jobs 2`, the only workload that starts
                   the process pool (2 workers, one per core).
  maps-large       one subcommand per query (validate, faces --format json,
                   canon, canon --op, iso A A', dual --out) on seeded maps of
                   40-160 edges and their relabelled copies A', checked
                   against the oracle in mapgen.py.

The seed shapes only the maps-large input; the classify workloads read no
seeded input, and their detail record says so.

`--trace 0` measures the end-to-end metrics.  Their times are scaled to a
fixed speed of a reference loop timed all through the run in a separate
stdlib-only process (class Reference), because a shared host's speed
drifts; the detail record keeps the unscaled figures.  `--trace 1` runs
the loop untraced for half the time and traced (spans.py) for the other
half, and reports per-layer metrics, unscaled and averaged per operation,
and the tracing overhead.
Each traced classify3 operation must reproduce the pinned order-3 funnel
exactly.

stdout ends with one JSON line {correct, attempted, failed, metrics}.
`failed` counts wrong answers: operations whose outcome the checks do not
accept.  One refusal is accepted, and counted apart as `refused`: `canon`
exiting 3 with "trace entries exceed one byte" on a map over 256 darts,
whose dart indices the one-byte key encoding cannot hold (a key that
matches its twin's is accepted there too).  Any other nonzero exit, or an
exception, is a wrong answer.  error_frac = (refused + failed) / attempted
is printed with the metrics and kept in the detail record.  A wrong
answer, or a funnel that differs from the pinned counts, makes `correct`
false and the exit code 1.  The lines before it name every metric with its
unit, then a JSON detail record with machine facts and sample counts.  Run with src/ or fixtures/ missing,
the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import itertools
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from mapgen import MAX_EDGES, MIN_EDGES, MapCase, make_cases, shape_of
from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".perfbench-work"
GOLDENS = ("atlas_order3.jsonl", "classification_order3.json")
LAYERS = ("cli", "enumeration", "newton", "embedded_map", "canon", "duality", "mapdoc")
SETUP_REPEATS = 5  # before the loop, and again after it
MAP_COUNT = 40
REFERENCE_EVERY_S = 0.5
REFERENCE_NOMINAL_S = 0.020  # the loop's median reading on that machine, rounded

FUNNEL_STAGES = ("candidates", "connected", "cellular_toroidal", "e_property",
                 "degree_bounds", "accepted")
FUNNEL_ORDER3 = dict(zip(FUNNEL_STAGES, (9432, 9432, 6076, 1372, 1372, 1372)))
CLASSES_ORDER3 = {"classes_op": 14, "classes_refl": 12, "classes_dual": 9}

OK, REFUSED, WRONG = "ok", "refused", "wrong"
KEY_WIDTH_REFUSAL = "trace entries exceed one byte"


@dataclass
class Result:
    seconds: float
    code: Optional[int]  # None when main raised
    stdout: str
    stderr: str


def call_cli(main, argv: list[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
    return Result(seconds, code, out.getvalue(), err.getvalue())


def exit_outcome(code: Optional[int], may_refuse: bool = False) -> Optional[str]:
    """None for exit 0; exit 3 is a refusal where `may_refuse`; else wrong."""
    if code == 0:
        return None
    return REFUSED if code == 3 and may_refuse else WRONG


@dataclass
class Tally:
    times: list[float] = field(default_factory=list)
    refused: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, seconds: float, outcome: str, what: str = "") -> None:
        self.times.append(seconds)
        if outcome == REFUSED:
            self.refused += 1
        elif outcome == WRONG:
            self.wrong += 1
        if outcome == WRONG and len(self.problems) < 20:
            self.problems.append(f"{outcome}: {what}")

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return self.wrong

    @property
    def error_frac(self) -> float:
        return (self.refused + self.wrong) / self.attempted


REFERENCE_LOOP = """
import sys
from time import perf_counter

def loop():
    start = perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return perf_counter() - start

for _ in sys.stdin:
    print(loop(), flush=True)
"""


class Reference:
    """Readings of a fixed pure-Python loop, taken all through a run.

    On a shared 2-vCPU virtual machine (CPython 3.11) the host's speed
    drifted by up to 2x within minutes.  Over 30-second windows there,
    order-3 classification time varied with a coefficient of variation of
    0.23, and its ratio to this loop's time with 0.07.  The end-to-end
    times are therefore scaled by REFERENCE_NOMINAL_S / (median reading of
    the run): they read as times on a host where the loop takes
    REFERENCE_NOMINAL_S.

    The loop runs in a child interpreter started before the package is
    imported (`python -I`, stdlib only), one reading per request, and never
    while the package runs.  Whatever the package does to its own
    interpreter (a trace or profile hook, a thread holding the GIL) does not
    reach the loop and is not divided out.  What slows the whole host does:
    processes left running, busy on both cores, would slow both.
    """

    def __init__(self):
        self.readings: list[float] = []
        self._last = -math.inf
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-c", REFERENCE_LOOP], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def sample(self) -> None:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        self.readings.append(float(self._proc.stdout.readline()))
        self._last = perf_counter()

    def sample_if_due(self) -> None:
        """One reading per REFERENCE_EVERY_S since the last, at most four.

        Single readings scatter widely on a shared host; several after a long
        operation keep the run's median reading steady.
        """
        due = int((perf_counter() - self._last) / REFERENCE_EVERY_S)
        for _ in range(min(due, 4)):
            self.sample()

    def scale(self, first: int = 0) -> float:
        """The factor for readings[first:], or for all when there are none."""
        return REFERENCE_NOMINAL_S / statistics.median(
            self.readings[first:] or self.readings)


# ---------------------------------------------------------------------------
# classify workloads

def check_classify(code: Optional[int], out_dir: Path,
                   goldens: dict[str, bytes]) -> tuple[str, str]:
    bad = exit_outcome(code)
    if bad:
        return bad, f"classify exited {code}"
    for name, want in goldens.items():
        path = out_dir / name
        if not path.is_file() or path.read_bytes() != want:
            return WRONG, f"{name} differs from fixtures/{name}"
    return OK, ""


def classes_in(report_path: Path) -> dict[str, int]:
    try:
        rep = json.loads(report_path.read_text())
        return {"classes_op": rep["count_op"], "classes_refl": rep["count_refl"],
                "classes_dual": rep["count_dual"]}
    except (OSError, ValueError, KeyError, TypeError):
        return {}


class Classify:
    seeded = False

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.workers = jobs if jobs > 1 else 0

    def setup(self, seed: int, pkg, workdir: Path, goldens_dir: Path = FIXTURES) -> None:
        self.goldens = {name: (goldens_dir / name).read_bytes() for name in GOLDENS}
        self.out = workdir / "classify"
        self.out.mkdir(exist_ok=True)

    def schedule(self) -> list[Callable]:
        return [self.classify]

    def classify(self, main, tally: Tally) -> dict:
        for name in GOLDENS:
            (self.out / name).unlink(missing_ok=True)
        res = call_cli(main, ["classify", "--order", "3", "--jobs", str(self.jobs),
                              "--out", str(self.out)])
        outcome, what = check_classify(res.code, self.out, self.goldens)
        tally.record(res.seconds, outcome, f"{what} {res.stderr[-200:].strip()}")
        return classes_in(self.out / GOLDENS[1])

    def pin_problems(self, funnel: dict, facts: dict) -> list[str]:
        problems = []
        if facts != CLASSES_ORDER3:
            problems.append(f"classes {facts} != pinned {CLASSES_ORDER3}")
        # with --jobs 2 the scan runs in workers, whose spans are not kept
        if self.jobs == 1 and funnel != FUNNEL_ORDER3:
            problems.append(f"funnel {funnel} != pinned {FUNNEL_ORDER3}")
        return problems

    def describe(self) -> dict:
        return {"input": "fixed: order 3; the seed is not used", "jobs": self.jobs}


# ---------------------------------------------------------------------------
# maps-large

@dataclass
class Query:
    label: str
    argv: list[str]
    check: Callable[[Result], tuple[str, str]]
    out: Optional[Path] = None  # file the query writes; removed beforehand

    def __call__(self, main, tally: Tally) -> dict:
        if self.out is not None:
            self.out.unlink(missing_ok=True)
        res = call_cli(main, self.argv)
        outcome, what = self.check(res)
        tally.record(res.seconds, outcome,
                     f"{self.label}: {what} {res.stderr[-200:].strip()}")
        return {}


def _is_hex(s: str) -> bool:
    return bool(s) and len(s) % 2 == 0 and all(c in "0123456789abcdef" for c in s)


def queries_for(case: MapCase, a: Path, b: Path, workdir: Path) -> list[Query]:
    """The eleven queries on one map A and its twin A', with their checks."""
    shape = case.shape
    keys: dict[bool, str] = {}

    def validate(res):
        bad = exit_outcome(res.code)
        if bad:
            return bad, f"exit {res.code}"
        if res.stdout.splitlines()[:1] != ["ok"]:
            return WRONG, "output does not start with ok"
        return OK, ""

    def faces(res):
        bad = exit_outcome(res.code)
        if bad:
            return bad, f"exit {res.code}"
        try:
            got = json.loads(res.stdout)
            seen = (len(got["walks"]), tuple(got["face_degrees"]), got["genus"],
                    got["euler_characteristic"])
        except (ValueError, KeyError, TypeError):
            return WRONG, "unreadable faces JSON"
        want = (len(shape.faces), shape.faces, shape.genus, shape.euler_characteristic)
        if seen != want:
            return WRONG, f"faces {seen[0]}, genus {seen[2]}; oracle {want[0]}, {want[2]}"
        return OK, ""

    def canon(op: bool, twin: bool):
        def check(res):
            bad = exit_outcome(res.code, may_refuse=case.darts > 256
                               and KEY_WIDTH_REFUSAL in res.stderr)
            if bad:
                keys.pop(op, None)
                return bad, f"exit {res.code}"
            key = res.stdout.strip()
            if not _is_hex(key):
                return WRONG, "not a hex key"
            if not twin:
                keys[op] = key
            elif keys.pop(op, key) != key:
                return WRONG, "key of A' differs from key of A"
            return OK, ""
        return check

    def iso(res):
        bad = exit_outcome(res.code)
        if bad:
            return bad, f"exit {res.code}"
        if not res.stdout.startswith("equivalent"):
            return WRONG, "A and A' not reported equivalent"
        return OK, ""

    def dual(out: Path):
        def check(res):
            bad = exit_outcome(res.code)
            if bad:
                return bad, f"exit {res.code}"
            try:
                d = shape_of(out.read_text())
            except (OSError, ValueError) as exc:
                return WRONG, f"unreadable dual document: {exc}"
            if (d.vertices, d.edges, len(d.faces)) != (
                    len(shape.faces), shape.edges, shape.vertices):
                return WRONG, (f"dual V/E/F {d.vertices}/{d.edges}/{len(d.faces)}; "
                               f"primal F/E/V {len(shape.faces)}/{shape.edges}/"
                               f"{shape.vertices}")
            return OK, ""
        return check

    qs = [Query(f"validate {path.name}", ["validate", str(path)], validate)
          for path in (a, b)]
    for path in (a, b):
        qs.append(Query(f"faces {path.name}",
                        ["faces", str(path), "--format", "json"], faces))
    for op in (False, True):
        flag = ["--op"] if op else []
        for twin, path in ((False, a), (True, b)):
            qs.append(Query(f"canon{' --op' if op else ''} {path.name}",
                            ["canon", str(path)] + flag, canon(op, twin)))
    qs.append(Query(f"iso {a.name} {b.name}", ["iso", str(a), str(b)], iso))
    for path in (a, b):
        out = workdir / f"{path.stem}-dual.map"
        qs.append(Query(f"dual {path.name}", ["dual", str(path), "--out", str(out)],
                        dual(out), out))
    return qs


class MapsLarge:
    seeded = True
    workers = 0

    def setup(self, seed: int, pkg, workdir: Path) -> None:
        self.cases = make_cases(seed, MAP_COUNT, pkg.relabel, pkg.parse, pkg.serialize)
        maps = workdir / "maps"
        maps.mkdir(exist_ok=True)
        self.queries = []
        for case in self.cases:
            a, b = maps / f"{case.name}.map", maps / f"{case.name}-twin.map"
            a.write_text(case.doc)
            b.write_text(case.twin)
            self.queries += queries_for(case, a, b, maps)

    def schedule(self) -> list[Callable]:
        return self.queries

    def pin_problems(self, funnel: dict, facts: dict) -> list[str]:
        return []

    def describe(self) -> dict:
        edges = [c.shape.edges for c in self.cases]
        return {"input": "seeded", "maps": len(self.cases),
                "kinds": dict(Counter(c.kind for c in self.cases)),
                "edges_min_max": [min(edges), max(edges)],
                "edge_range": [MIN_EDGES, MAX_EDGES],
                # canon's one-byte key encoding refuses dart indices above 255
                "maps_over_256_darts": sum(c.darts > 256 for c in self.cases),
                "queries_per_pass": len(self.queries)}


WORKLOADS = {
    "classify3": lambda: Classify(jobs=1),
    "classify3-jobs2": lambda: Classify(jobs=2),
    "maps-large": MapsLarge,
}


# ---------------------------------------------------------------------------
# set-up, loop, tracing

def load_package():
    """Fresh imports of the package, so each set-up pays for them."""
    for name in [n for n in sys.modules if n.split(".")[0] == "newtonmaps"]:
        del sys.modules[name]
    pkg = importlib.import_module("newtonmaps")
    return pkg, importlib.import_module("newtonmaps.cli")


def set_up(workload, seed: int, workdir: Path, repeats: int, ref: Reference):
    times = []
    for _ in range(repeats):
        ref.sample()
        gc.collect()  # each set-up starts from the same heap, as in a fresh process
        start = perf_counter()
        pkg, cli = load_package()
        workload.setup(seed, pkg, workdir)
        times.append(perf_counter() - start)
    return cli, times


def run_loop(workload, main, seconds: float, tally: Tally, ref: Reference,
             after_op=None) -> None:
    """Closed loop over the workload's schedule, from its start, for `seconds`."""
    gc.collect()
    ops = itertools.cycle(workload.schedule())
    start = perf_counter()
    while perf_counter() - start < seconds:
        facts = next(ops)(main, tally)
        if after_op is not None:
            after_op(facts)
        ref.sample_if_due()


class LayerStats:
    """Per-layer sums over traced operations, fed by spans and observers."""

    def __init__(self, tracer: Tracer):
        self.ops = 0
        self.calls = Counter()
        self.incl = Counter()
        self.own = Counter()
        self.layer_own = Counter()
        self.funnel = Counter()
        self.classes = Counter()
        self.keys_computed = 0
        self.keys_distinct = 0
        self.task_share = 0.0
        self.op_funnel = Counter()
        self._keys = set()
        self._tasks = Counter()
        tracer.observe("embedded_map.validate", self._on_validate)
        tracer.observe("newton.is_newton", self._on_newton)
        tracer.observe("canon.canonical_key", self._on_key)

    def _on_validate(self, site, args, report):
        if site == "enumeration":
            self.op_funnel["candidates"] += 1
            # one task per multiplicity vector; its candidates share dart_origin
            self._tasks[getattr(args[0], "dart_origin", None)] += 1

    def _on_newton(self, site, args, rep):
        passed = (rep.connected, rep.cellular_toroidal, rep.e_property.holds,
                  rep.degree_bounds, rep.verdict != "not-newton")
        for stage, ok in zip(FUNNEL_STAGES[1:], passed):
            if not ok:
                break
            self.op_funnel[stage] += 1

    def _on_key(self, site, args, key):
        self.keys_computed += 1
        self._keys.add(key)

    def end_op(self, spans, facts: dict) -> dict:
        """Fold one operation's spans in; returns its funnel."""
        self.ops += 1
        for span, own in zip(spans, self_times(spans)):
            self.calls[span.name] += 1
            self.incl[span.name] += span.end - span.start
            self.own[span.name] += own
            self.layer_own[span.name.split(".")[0]] += own
        self.classes.update(facts)
        self.keys_distinct += len(self._keys)
        self._keys.clear()
        if self._tasks:
            self.task_share += max(self._tasks.values()) / sum(self._tasks.values())
            self._tasks.clear()
        funnel = {s: self.op_funnel[s] for s in FUNNEL_STAGES}
        self.funnel.update(funnel)
        self.op_funnel.clear()
        return funnel

    def metrics(self) -> dict:
        n = max(self.ops, 1)
        fn = lambda name: (self.calls[name] / n, self.incl[name] / n, self.own[name] / n)
        m = {}
        for name, unit_keys in (
                ("newton.is_newton", ("calls", None, "self_s")),
                ("embedded_map.validate", ("calls", "s", None)),
                ("embedded_map.facial_walks", ("calls", "s", None)),
                ("canon.canonical_key", ("calls", "s", None)),
                ("canon.canonical_form", (None, "s", None)),
                ("canon.are_equivalent", (None, "s", None)),
                ("mapdoc.parse", ("calls", "s", None)),
                ("mapdoc.serialize", ("calls", "s", None)),
                ("duality.dual", ("calls", "s", None))):
            for key, value in zip(unit_keys, fn(name)):
                if key:
                    m[f"{name}.{key}"] = (value, "count" if key == "calls" else "s")
        reports = self.calls["newton.is_newton"]
        m["newton.accept_ratio"] = (self.funnel["accepted"] / reports if reports else 0.0,
                                    "ratio")
        m["canon.distinct_key_ratio"] = (
            self.keys_distinct / self.keys_computed if self.keys_computed else 0.0, "ratio")
        m["enumeration.self_s"] = (self.layer_own["enumeration"] / n, "s")
        m["enumeration.candidates"] = (self.funnel["candidates"] / n, "count")
        m["enumeration.max_task_share"] = (self.task_share / n, "ratio")
        m["enumeration.label_atlas_s"] = (self.incl["enumeration.label_atlas"] / n, "s")
        m["cli.self_s"] = (self.own["cli.main"] / n, "s")
        for stage in FUNNEL_STAGES:
            m[f"newton.funnel.{stage}"] = (self.funnel[stage] / n, "count")
        for name in CLASSES_ORDER3:
            m[f"enumeration.{name}"] = (self.classes[name] / n, "count")
        return m


def traced_loop(workload, cli, seconds: float, tally: Tally, ref: Reference,
                pin: list[str]) -> LayerStats:
    tracer = Tracer()
    stats = LayerStats(tracer)
    modules = {layer: importlib.import_module(f"newtonmaps.{layer}") for layer in LAYERS}

    def main(argv):
        span = tracer.open("cli.main", "bench")
        try:
            return cli.main(argv)
        finally:
            tracer.close(span)

    def after_op(facts):
        funnel = stats.end_op(tracer.take(), facts)
        pin.extend(workload.pin_problems(funnel, facts))

    tracer.instrument(modules)
    try:
        run_loop(workload, main, seconds, tally, ref, after_op)
    finally:
        tracer.restore()
    return stats


# ---------------------------------------------------------------------------
# reporting

def peak_rss_mb(workers: int) -> float:
    """Own peak plus `workers` times the largest finished child's peak.

    Forked workers map this process's pages, and a worker's peak counts the
    shared ones it touches, as a sum of the processes' resident sizes
    would: a change in this process's heap shows in all three terms.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024  # ru_maxrss is in KiB on Linux


def end_to_end(setup_times: list[float], tally: Tally, workers: int,
               scale: float = 1.0) -> tuple[dict, dict]:
    """The end-to-end metrics, every time multiplied by `scale`."""
    ms = [t * 1000 * scale for t in tally.times]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    metrics = {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "ops_per_s": (len(ms) / sum(ms) * 1000, "1/s"),
        "peak_rss_mb": (peak_rss_mb(workers), "MB"),
    }
    samples = {"setup_s": len(setup_times), "op_p50_ms": len(ms), "op_p90_ms": len(ms),
               "beyond_p90": len(ms) - math.ceil(0.9 * len(ms)), "ops_per_s": len(ms)}
    return metrics, samples


def overhead(untraced: list[float], traced: list[float], untraced_scale: float,
             traced_scale: float) -> dict:
    """Traced minus untraced time over the operations both phases ran.

    Each phase's times are scaled by its own reference readings, so a
    change of host speed between the phases does not count as overhead.
    """
    k = min(len(untraced), len(traced))
    if k == 0:
        return {"tracing.overhead_s": (0.0, "s"), "tracing.overhead_frac": (0.0, "ratio")}
    u, t = sum(untraced[:k]) * untraced_scale, sum(traced[:k]) * traced_scale
    return {"tracing.overhead_s": ((t - u) / k, "s"),
            "tracing.overhead_frac": (t / u - 1, "ratio")}


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "mp_start_method": multiprocessing.get_start_method()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [SRC / "newtonmaps" / "cli.py"] + [FIXTURES / n for n in GOLDENS]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        with Reference() as ref:
            cli, setup_times = set_up(workload, args.seed, workdir, SETUP_REPEATS, ref)
            tally = Tally()
            pin: list[str] = []
            raw = {}
            if args.trace:
                first = len(ref.readings)
                run_loop(workload, cli.main, args.seconds / 2, tally, ref)
                untraced = list(tally.times)
                untraced_scale, first = ref.scale(first), len(ref.readings)
                stats = traced_loop(workload, cli, args.seconds / 2, tally, ref, pin)
                metrics = stats.metrics()
                metrics.update(overhead(untraced, tally.times[len(untraced):],
                                        untraced_scale, ref.scale(first)))
                samples = {"untraced_ops": len(untraced), "traced_ops": stats.ops}
            else:
                run_loop(workload, cli.main, args.seconds, tally, ref)
                # as many set-ups again after the loop: the machine's speed
                # drifts over a run, and the median should see both ends of it
                setup_times += set_up(workload, args.seed, workdir, SETUP_REPEATS,
                                      ref)[1]
                metrics, samples = end_to_end(setup_times, tally, workload.workers,
                                              ref.scale())
                raw = {k: v for k, (v, _) in end_to_end(
                    setup_times, tally, workload.workers)[0].items()}
            samples["reference"] = len(ref.readings)
            detail = {
                "reference_s": statistics.median(ref.readings), "unscaled": raw,
                "workload": args.workload, "seed": args.seed,
                "seed_used": workload.seeded, "trace": args.trace,
                "seconds": args.seconds, "machine": machine(), "samples": samples,
                "workload_input": workload.describe(),
                "error_frac": tally.error_frac,
                "refused": tally.refused, "wrong": tally.wrong,
                "problems": tally.problems + pin[:20],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    correct = tally.wrong == 0 and not pin
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    print(f"  {'error_frac':32s} {detail['error_frac']:14.6f} "
          f"(refused {tally.refused}, wrong {tally.wrong} of {tally.attempted})")
    print(f"  reference loop median {detail['reference_s'] * 1000:.3f} ms over "
          f"{samples['reference']} readings")
    if not args.trace:
        print(f"  times above are scaled to a {REFERENCE_NOMINAL_S * 1000:g} ms "
              f"reference loop; unscaled: {json.dumps(raw, sort_keys=True)}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
