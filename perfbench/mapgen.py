"""Seeded map documents for the maps-large workload, and their oracle.

Half of the maps are random connected loopless multigraphs with random
rotations (high genus); half are k x l torus-grid quadrangulations, whose
symmetry makes every root of the canonical-key search tie.  Edge counts
are stratified over [MIN_EDGES, MAX_EDGES], so every seed sees the same
spread of sizes, including maps beyond 255 darts.

The oracle reads a document in the package's text format on its own and
counts phi = sigma o alpha orbits; it imports nothing from the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MIN_EDGES = 40
MAX_EDGES = 160


def write_doc(edges: list[tuple[str, str, str]], rotations: dict) -> str:
    """Document text: edges are (name, u, v), rotations vertex -> names."""
    lines = [f"order {len(rotations)}"]
    lines += [f"edge {name} {u} {v}" for name, u, v in edges]
    lines += [f"rot {v} " + " ".join(toks) for v, toks in rotations.items()]
    return "\n".join(lines) + "\n"


def random_multigraph_doc(rng: random.Random, n_edges: int) -> str:
    n_vertices = max(2, n_edges // 3)
    pairs = [(rng.randrange(v), v) for v in range(1, n_vertices)]  # spanning tree
    while len(pairs) < n_edges:
        a, b = rng.randrange(n_vertices), rng.randrange(n_vertices)
        if a != b:
            pairs.append((a, b))
    edges = [(f"e{k + 1}", f"v{a + 1}", f"v{b + 1}") for k, (a, b) in enumerate(pairs)]
    rotations = {f"v{i + 1}": [] for i in range(n_vertices)}
    for name, u, v in edges:
        rotations[u].append(name)
        rotations[v].append(name)
    for toks in rotations.values():
        rng.shuffle(toks)
    return write_doc(edges, rotations)


def torus_grid_doc(rng: random.Random, n_edges: int) -> str:
    """The k x l grid on the torus (2kl edges, k, l >= 3), faces all squares."""
    k = rng.randint(3, max(3, int((n_edges / 2) ** 0.5)))
    lo = -(-MIN_EDGES // (2 * k))
    hi = MAX_EDGES // (2 * k)
    l = min(hi, max(lo, 3, round(n_edges / (2 * k))))

    def x(i: int, j: int) -> str:
        return f"x{i % k}_{j % l}"

    edges = []
    rotations = {}
    for i in range(k):
        for j in range(l):
            edges.append((f"h{i}_{j}", x(i, j), x(i + 1, j)))
            edges.append((f"u{i}_{j}", x(i, j), x(i, j + 1)))
            # anti-clockwise: east, north, west, south
            rotations[x(i, j)] = [f"h{i}_{j}", f"u{i}_{j}",
                                  f"h{(i - 1) % k}_{j}", f"u{i}_{(j - 1) % l}"]
    return write_doc(edges, rotations)


def read_doc(text: str) -> tuple[int, int, list[int]]:
    """(vertex count, edge count, sigma) of a loop-aware document.

    Edge k owns darts 2k (first declared end) and 2k+1, as in the package.
    Raises ValueError when the rotations do not place every dart once.
    """
    ends: dict[str, tuple[str, str]] = {}
    index: dict[str, int] = {}
    rots = []
    for line in text.splitlines():
        f = line.split()
        if not f or f[0].startswith("#"):
            continue
        if f[0] == "edge":
            index[f[1]] = len(ends)
            ends[f[1]] = (f[2], f[3])
        elif f[0] == "rot":
            rots.append((f[1], f[2:]))
    sigma = [-1] * (2 * len(ends))
    for vertex, toks in rots:
        darts = []
        for tok in toks:
            name, _, end = tok.partition(".")
            if name not in ends:
                raise ValueError(f"unknown edge {name!r}")
            u, _ = ends[name]
            darts.append(2 * index[name] + (int(end) if end else int(vertex != u)))
        for a, b in zip(darts, darts[1:] + darts[:1]):
            if sigma[a] != -1:
                raise ValueError("dart placed twice")
            sigma[a] = b
    if -1 in sigma:
        raise ValueError("dart never placed")
    return len(rots), len(ends), sigma


def face_lengths(sigma: list[int]) -> list[int]:
    """Lengths of the phi-orbits, phi(d) = sigma(d ^ 1), largest first."""
    seen = [False] * len(sigma)
    lengths = []
    for d0 in range(len(sigma)):
        n = 0
        d = d0
        while not seen[d]:
            seen[d] = True
            n += 1
            d = sigma[d ^ 1]
        if n:
            lengths.append(n)
    return sorted(lengths, reverse=True)


@dataclass(frozen=True)
class Shape:
    vertices: int
    edges: int
    faces: tuple[int, ...]  # face lengths, largest first

    @property
    def euler_characteristic(self) -> int:
        return self.vertices - self.edges + len(self.faces)

    @property
    def genus(self) -> int:
        return (2 - self.euler_characteristic) // 2


def shape_of(text: str) -> Shape:
    v, e, sigma = read_doc(text)
    return Shape(v, e, tuple(face_lengths(sigma)))


@dataclass(frozen=True)
class MapCase:
    name: str
    kind: str     # random | grid
    doc: str      # A
    twin: str     # A': a relabelled copy of A
    shape: Shape

    @property
    def darts(self) -> int:
        return 2 * self.shape.edges


def make_cases(seed: int, count: int, relabel, parse, serialize) -> list[MapCase]:
    """count maps, alternating kinds, sizes stratified, in seeded order.

    The twin is A through the package's `relabel` (edges renumbered, ends
    flipped at random) and `serialize`, which declares edges sorted by name;
    parsing numbers darts in declaration order, so the twin's darts are
    numbered differently from A's.
    """
    rng = random.Random(seed)
    span = MAX_EDGES - MIN_EDGES + 1
    cases = []
    for i in range(count):
        n_edges = MIN_EDGES + int(span * (i + rng.random()) / count)
        kind = "random" if i % 2 == 0 else "grid"
        make = random_multigraph_doc if kind == "random" else torus_grid_doc
        doc = make(rng, n_edges)
        twin = serialize(relabel(parse(doc), rng=rng))
        cases.append(MapCase(f"m{i:03d}", kind, doc, twin, shape_of(doc)))
    rng.shuffle(cases)
    return cases
