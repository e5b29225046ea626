import io
import pathlib
import random
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout

import pytest

from newtonmaps import canonical_key, cli, enumerate_newton, make_map, parse
from newtonmaps.canon import _map_from_trace
from newtonmaps.enumeration import _multiplicity_vectors, _vector_candidates

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


CliRun = namedtuple("CliRun", "code stdout stderr")


def run_cli(*argv: str) -> CliRun:
    """cli.main(argv) in this process, with its exit code and captured
    output; argparse's SystemExit (usage errors, --version) becomes its
    code, and any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return CliRun(code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="session")
def n2():
    return parse(fixture_text("n2.map"))


@pytest.fixture(scope="session")
def case1():
    return parse(fixture_text("case1.map"))


@pytest.fixture(scope="session")
def case3():
    return parse(fixture_text("case3.map"))


@pytest.fixture(scope="session")
def atlas2():
    return enumerate_newton(2)


@pytest.fixture(scope="session")
def atlas3():
    return enumerate_newton(3)


def raw_candidates(order: int):
    """Every rotation system of the degree-pruned vectors, connected or not."""
    for mult in _multiplicity_vectors(order, 2):
        yield from _vector_candidates(order, mult)


def canonical_form(m, allow_reflection: bool = True):
    """The class representative the pipeline decodes from m's key."""
    return _map_from_trace(canonical_key(m, allow_reflection).trace)


def build_sphere_n2():
    # same four parallel edges as the torus model, one rotation reversed
    return make_map(
        [("a", ("v1", "v2")), ("b", ("v1", "v2")), ("c", ("v1", "v2")), ("d", ("v1", "v2"))],
        {"v1": ["a", "b", "c", "d"], "v2": ["a", "d", "c", "b"]},
    )


def build_efail_n2():
    # toroidal counts but one facial walk repeats edge a
    return make_map(
        [("a", ("v1", "v2")), ("b", ("v1", "v2")), ("c", ("v1", "v2")), ("d", ("v1", "v2"))],
        {"v1": ["a", "b", "c", "d"], "v2": ["a", "c", "b", "d"]},
    )


def build_chiral():
    """Order-3 class with delta = delta* = (5,5,2), reflectively but not
    orientation-preservingly self-dual."""
    return make_map(
        [
            ("a", ("v1", "v2")),
            ("b", ("v1", "v3")),
            ("c", ("v2", "v3")),
            ("d", ("v2", "v3")),
            ("e", ("v2", "v3")),
            ("f", ("v2", "v3")),
        ],
        {
            "v1": ["a", "b"],
            "v2": ["a", "c", "d", "e", "f"],
            "v3": ["b", "c", "d", "f", "e"],
        },
    )


def build_grid4():
    """Quadrangulated torus on four vertices: passes every filter at
    order 4 but the A-property is out of reach there."""
    edges = []
    rot = {}
    for i in range(2):
        for j in range(2):
            edges.append((f"E{i}{j}", (f"v{i}{j}", f"v{(i + 1) % 2}{j}")))
            edges.append((f"N{i}{j}", (f"v{i}{j}", f"v{i}{(j + 1) % 2}")))
    for i in range(2):
        for j in range(2):
            rot[f"v{i}{j}"] = [
                f"E{i}{j}",
                f"N{i}{j}",
                f"E{(i + 1) % 2}{j}",
                f"N{i}{(j + 1) % 2}",
            ]
    return make_map(edges, rot)


def build_loop_map():
    return parse(
        "order 2\n"
        "edge a w w\n"
        "edge b w x\n"
        "edge c w x\n"
        "rot w a.0 a.1 b c\n"
        "rot x b c\n"
    )


def build_torus_grid(k: int, l: int):
    """The k x l square grid on the torus: 4kl darts, every root ties."""
    def x(i, j):
        return f"x{i % k}_{j % l}"
    edges, rotations = [], {}
    for i in range(k):
        for j in range(l):
            edges += [(f"h{i}_{j}", (x(i, j), x(i + 1, j))),
                      (f"u{i}_{j}", (x(i, j), x(i, j + 1)))]
            # anti-clockwise: east, north, west, south
            rotations[x(i, j)] = [f"h{i}_{j}", f"u{i}_{j}",
                                  f"h{(i - 1) % k}_{j}", f"u{i}_{(j - 1) % l}"]
    return make_map(edges, rotations)


def build_random_multigraph(rng: random.Random, n_edges: int):
    """A connected loopless multigraph with random rotations: high genus,
    usually without symmetry."""
    n_vertices = max(2, n_edges // 3)
    pairs = [(rng.randrange(v), v) for v in range(1, n_vertices)]
    while len(pairs) < n_edges:
        a, b = rng.randrange(n_vertices), rng.randrange(n_vertices)
        if a != b:
            pairs.append((a, b))
    edges = [(f"e{k}", (f"v{a}", f"v{b}")) for k, (a, b) in enumerate(pairs)]
    rotations: dict = {f"v{i}": [] for i in range(n_vertices)}
    for name, (u, v) in edges:
        rotations[u].append(name)
        rotations[v].append(name)
    for toks in rotations.values():
        rng.shuffle(toks)
    return make_map(edges, rotations)
