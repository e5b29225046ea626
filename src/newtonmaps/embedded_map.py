"""Embedded multigraphs on closed orientable surfaces, as combinatorial maps.

A map is stored as one permutation acting on darts (edge-ends).
Edge k owns darts 2k and 2k+1, so the involution alpha that swaps the
two darts of an edge is fixed by the numbering (alpha(d) = d ^ 1) and
is derived rather than stored; sigma rotates the darts around their
origin vertex in anti-clockwise order.

Orientation convention: with anti-clockwise vertex rotations, the face
permutation phi = sigma o alpha traces every facial walk clockwise, so
each face lies to the right of its boundary walk.  A dart is read as
"traverse the edge away from its origin"; the walk step after dart d
continues with sigma(alpha(d)).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from operator import eq, ne
from typing import Mapping, NamedTuple, Optional, Sequence


class MapStructureError(ValueError):
    """Raised when an operation receives a structurally invalid map."""

    vertex = edge = None  # make_map sets the rotation or declaration at fault


class UnsuitableMapError(ValueError):
    """Raised when a valid map lies outside what an operation can take."""


@dataclass(frozen=True)
class Defect:
    code: str
    message: str
    advisory: bool = False


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    defects: tuple[Defect, ...] = ()


@dataclass(frozen=True)
class EmbeddedMap:
    """Combinatorial map: vertex rotation sigma on darts 0..2|E|-1.

    vertices and edges are identifier tuples in display order; dart_origin
    maps each dart to the vertex it emanates from.  The edge pairing alpha
    is d -> d ^ 1 and is not stored.  The fields are immutable, so the
    validation report, the faces (each dart's face index and the facial
    walks, from one pass over phi) and the vertex rotations are computed
    at most once per map and kept out of equality, hashing and repr.
    """

    vertices: tuple
    edges: tuple
    sigma: tuple[int, ...]
    dart_origin: tuple

    @cached_property
    def _report(self) -> ValidationReport:
        return _structure_report(self)

    def _share_report(self, report: Optional[ValidationReport]) -> ValidationReport:
        return vars(self).setdefault("_report", report or self._report)

    @cached_property
    def _faces(self) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
        # face i is walk i: (each dart's face index, the facial walks)
        return _cycles(_phi(self.sigma))

    @cached_property
    def _sigma_cycles(self) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
        return _cycles(self.sigma)  # read by validation and the rotations

    @cached_property
    def _rotations(self) -> dict:
        # reversed, so a vertex keeps its first cycle, at its least dart
        return {self.dart_origin[c[0]]: c for c in self._sigma_cycles[1][::-1]}

    @property
    def n_darts(self) -> int:
        return len(self.sigma)

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_of(self, dart: int):
        return self.edges[dart // 2]

    def endpoints(self, edge_index: int) -> tuple:
        return (self.dart_origin[2 * edge_index], self.dart_origin[2 * edge_index + 1])

    def rotation_at(self, vertex) -> tuple[int, ...]:
        """The sigma-cycle at vertex, rotated to start at its smallest dart."""
        return self._rotations[vertex]


def make_map(edges: Sequence[tuple], rotations: Mapping) -> EmbeddedMap:
    """Build a map from edge declarations and per-vertex rotation lists.

    edges: ordered (name, (u, v)) pairs; edge k receives darts 2k (at u)
    and 2k+1 (at v).  rotations: vertex -> anti-clockwise list of tokens,
    each an edge name or a (name, end) pair; the explicit end is required
    on a loop and allowed on any edge.  This is the one place where tokens
    are resolved to darts: a MapStructureError names in its vertex or edge
    attribute the rotation or edge declaration at fault.
    """
    ends = {}
    for name, (u, v) in edges:
        if name in ends:
            raise _fault(f"duplicate edge name {name!r}", edge=name)
        ends[name] = (u, v)
    index = {name: k for k, name in enumerate(ends)}

    n = 2 * len(ends)
    sigma = [-1] * n
    origin: list = [None] * n
    for vertex, tokens in rotations.items():
        darts = []
        for tok in tokens:
            name, end = tok if isinstance(tok, tuple) else (tok, None)
            if name not in index:
                raise _fault(f"unknown edge {name!r} at vertex {vertex!r}", vertex)
            u, v = ends[name]
            if end is None:
                if u == v:
                    raise _fault(f"loop {name!r} needs an end selector in the "
                                 f"rotation at {vertex!r}", vertex)
                if vertex not in (u, v):
                    raise _fault(f"edge {name!r} is not incident to vertex "
                                 f"{vertex!r}", vertex)
                end = 0 if vertex == u else 1
            elif end not in (0, 1):
                raise _fault(f"bad end selector {end!r} for edge {name!r}", vertex)
            elif (u, v)[end] != vertex:
                raise _fault(f"edge {name!r} end {end} belongs to vertex "
                             f"{(u, v)[end]!r}, so it is not incident to "
                             f"vertex {vertex!r}", vertex)
            d = 2 * index[name] + end
            if origin[d] is not None:
                raise _fault(f"dart of edge {name!r} listed twice "
                             f"(vertex {vertex!r})", vertex)
            origin[d] = vertex
            darts.append(d)
        for i, d in enumerate(darts):
            sigma[d] = darts[(i + 1) % len(darts)]
    for k, name in enumerate(ends):
        placed = (origin[2 * k] is not None) + (origin[2 * k + 1] is not None)
        if placed != 2:
            raise _fault(f"a dart of edge {name!r} is never placed: it appears "
                         f"in {placed} rotation position(s); need 2", edge=name)
    return EmbeddedMap(
        vertices=tuple(rotations.keys()),
        edges=tuple(ends),
        sigma=tuple(sigma),
        dart_origin=tuple(origin),
    )


def _fault(message: str, vertex=None, edge=None) -> MapStructureError:
    exc = MapStructureError(message)
    exc.vertex, exc.edge = vertex, edge
    return exc


def _cycles(perm) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Each element's cycle index, and the cycles of a permutation of
    range(len(perm)): each cycle starts at its least element, and the
    cycles are numbered and listed by that element."""
    label = [-1] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if label[start] < 0:
            i, cyc, d = len(cycles), [], start
            while label[d] < 0:
                label[d] = i
                cyc.append(d)
                d = perm[d]
            cycles.append(tuple(cyc))
    return label, tuple(cycles)


def validate(m: EmbeddedMap) -> ValidationReport:
    return m._report


def _structure_report(m: EmbeddedMap) -> ValidationReport:
    n, sigma, origin = m.n_darts, m.sigma, m.dart_origin
    if n == 0:
        return ValidationReport(False, (Defect("empty-map", "map has no darts"),))
    if len(origin) != n or n != 2 * len(m.edges):
        return ValidationReport(False, (Defect(
            "length-mismatch", "sigma/dart_origin/edge lengths disagree"),))

    frame = _frame(m.vertices, origin)
    defects: list[Defect] = []
    if sorted(sigma) != list(range(n)):
        defects.append(Defect("sigma-not-permutation", "sigma is not a permutation"))
    defects += frame.defects
    if defects:
        return ValidationReport(False, tuple(defects))

    mixes = any(map(ne, map(origin.__getitem__, sigma), origin))
    if mixes:
        defects.append(Defect("sigma-mixes-vertices",
                              "a sigma cycle crosses between vertices"))
    for i in frame.isolated:
        defects.append(Defect("isolated-vertex",
                              f"vertex {m.vertices[i]!r} has no darts"))
    cycle_of, cycles = m._sigma_cycles
    if not mixes and len(cycles) != frame.n_origins:
        defects.append(Defect("split-vertex",
                              "a vertex's darts form more than one sigma cycle"))
    # the surface is connected iff <sigma, alpha> is transitive: alpha
    # joins every sigma-cycle to the one at dart 0
    seen = [False] * len(cycles)
    seen[0] = True
    reached = [0]
    for c in reached:
        for d in cycles[c]:
            e = cycle_of[d ^ 1]
            if not seen[e]:
                seen[e] = True
                reached.append(e)
    if len(reached) != len(cycles):
        defects.append(Defect("disconnected", "underlying surface is disconnected"))

    ok = not defects

    if frame.first_loop is not None:
        defects.append(Defect("loop-present", f"edge {m.edges[frame.first_loop]!r} "
                              "is a loop", advisory=True))
    if frame.min_degree == 1:
        defects.append(Defect("degree-one-vertex",
                              "a vertex has degree 1", advisory=True))
    return ValidationReport(ok, tuple(defects)) if defects else _VALID


_VALID = ValidationReport(True, ())


class _Frame(NamedTuple):
    """What vertices and dart origins alone decide.  Vertices and edges
    are held by index, not id: equal frames may hold 1 and True."""
    defects: tuple[Defect, ...]  # duplicate or out-of-range vertices
    isolated: tuple[int, ...]
    n_origins: int
    first_loop: Optional[int]    # index of the first loop edge
    min_degree: int
    max_degree: int


@lru_cache(maxsize=1)  # the candidates of a multiplicity vector share one
def _frame(vertices: tuple, origin: tuple) -> _Frame:
    degree = Counter(origin)
    vset = set(vertices)
    defects = []
    if len(vset) != len(vertices):
        defects.append(Defect("duplicate-vertex", "vertex listed twice"))
    if not degree.keys() <= vset:
        defects.append(Defect("origin-out-of-range",
                              "dart origin is not a listed vertex"))
    loops = map(eq, origin[0::2], origin[1::2])
    return _Frame(tuple(defects),
                  tuple([i for i, v in enumerate(vertices) if v not in degree]),
                  len(degree), next(compress(range(len(origin)), loops), None),
                  min(degree.values()), max(degree.values()))


def _checked(m: EmbeddedMap) -> EmbeddedMap:
    report = validate(m)
    if not report.ok:
        codes = ", ".join(d.code for d in report.defects if not d.advisory)
        raise MapStructureError(f"invalid map: {codes}")
    return m


def facial_walks(m: EmbeddedMap) -> tuple[tuple[int, ...], ...]:
    """All face boundaries as clockwise closed walks of darts, one per phi-orbit.

    Dart d of a walk starts at m.dart_origin[d] and runs along
    m.edge_of(d).  Walks are listed by their smallest dart, and each walk
    starts at that dart, so the output is fully determined by sigma.
    """
    return _checked(m)._faces[1]


def _phi(sigma) -> list[int]:
    """The face permutation phi = sigma o alpha: phi(d) = sigma(d ^ 1)."""
    phi = [0] * len(sigma)
    phi[0::2] = sigma[1::2]
    phi[1::2] = sigma[0::2]
    return phi


def euler_characteristic(m: EmbeddedMap) -> int:
    return m.order - m.n_edges + len(facial_walks(m))


def genus(m: EmbeddedMap) -> int:
    # validation makes chi even (sign φ = sign σ·sign α) and ≤ 2 (⟨σ, α⟩ transitive)
    return (2 - euler_characteristic(m)) // 2


def degree_sequence(m: EmbeddedMap) -> tuple[int, ...]:
    degree = Counter(m.dart_origin)
    return tuple(sorted((degree[v] for v in m.vertices), reverse=True))


def face_degree_sequence(m: EmbeddedMap) -> tuple[int, ...]:
    return tuple(sorted(map(len, facial_walks(m)), reverse=True))


def mirror(m: EmbeddedMap) -> EmbeddedMap:
    """The reflected map: every vertex rotation reversed."""
    inv = [0] * m.n_darts
    for d in range(m.n_darts):
        inv[m.sigma[d]] = d
    return EmbeddedMap(m.vertices, m.edges, tuple(inv), m.dart_origin)


def relabel(m: EmbeddedMap, rng: random.Random) -> EmbeddedMap:
    """An isomorphic copy of m with edges renumbered and ends swapped at random.

    rng first shuffles the edge sequence, then draws one flip bit per old
    edge; a set bit swaps that edge's two darts.
    """
    ne = m.n_edges
    edge_order = list(range(ne))
    rng.shuffle(edge_order)
    flips = [rng.randrange(2) for _ in range(ne)]
    pos = {old: new for new, old in enumerate(edge_order)}
    # old dart -> new dart
    perm = [2 * pos[d // 2] + (d % 2 ^ flips[d // 2]) for d in range(m.n_darts)]
    n = m.n_darts
    sigma = [0] * n
    origin: list = [None] * n
    for d in range(n):
        sigma[perm[d]] = perm[m.sigma[d]]
        origin[perm[d]] = m.dart_origin[d]
    return EmbeddedMap(m.vertices, tuple(m.edges[k] for k in edge_order),
                       tuple(sigma), tuple(origin))
