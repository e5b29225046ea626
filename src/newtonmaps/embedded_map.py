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
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import compress
from operator import eq, ne
from typing import Iterable, Iterator, Mapping, Sequence


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
    validation report and the faces (each dart's face index and the facial
    walks, from one pass over phi) are computed at most once per map and
    kept out of equality, hashing and repr.
    """

    vertices: tuple
    edges: tuple
    sigma: tuple[int, ...]
    dart_origin: tuple

    @cached_property
    def _report(self) -> ValidationReport:
        return _structure_report(self)

    def _siblings(self, sigmas: Iterable[tuple[int, ...]]) -> Iterator[EmbeddedMap]:
        """A map per sigma on this map's frame, sharing its validation report:
        each sigma is one cycle per vertex over its darts, so a permutation that
        mixes no vertices, transitive with alpha iff the multigraph is connected,
        and the frame decides validation.  Fields fill the dict in field order."""
        frame = {f.name: getattr(self, f.name) for f in fields(self)}
        frame["_report"] = self._report
        for sigma in sigmas:
            m = object.__new__(EmbeddedMap)
            frame["sigma"] = sigma
            vars(m).update(frame)
            yield m

    @cached_property
    def _faces(self) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
        # face i is walk i: (each dart's face index, the facial walks)
        return _cycles(_phi(self.sigma))

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


def make_map(edges: Sequence[tuple], rotations: Mapping) -> EmbeddedMap:
    """Build a map from edge declarations and per-vertex rotation lists.

    edges: ordered (name, (u, v)) pairs; edge k receives darts 2k (at u)
    and 2k+1 (at v).  rotations: vertex -> anti-clockwise list of tokens,
    each an edge name or a (name, end) pair with end the int 0 or 1; the
    explicit end is required on a loop and allowed on any edge.  This is
    the one place where tokens are resolved to darts: a MapStructureError
    names in its vertex or edge attribute the rotation or edge declaration
    at fault.
    """
    ends = {}  # name -> (k, u, v)
    table = {}  # (name, vertex) -> dart, for a plain name at a non-loop edge's end
    for k, (name, (u, v)) in enumerate(edges):
        try:
            if name in ends:
                raise _fault(f"duplicate edge name {name!r}", edge=name)
            ends[name] = (k, u, v)
            if u != v and not isinstance(name, tuple):
                table[name, u], table[name, v] = 2 * k, 2 * k + 1
            else:  # (name, end) tokens only, but an unhashable end is refused too
                hash((u, v))
        except TypeError:
            raise _fault(f"edge declaration {(name, (u, v))!r} is unhashable",
                         edge=name) from None

    n = 2 * len(ends)
    sigma = [None] * n + [None]  # slot n keeps a rotation's first dart
    origin: list = [None] * n
    for vertex, tokens in rotations.items():
        last = n
        for tok in tokens:
            try:
                d = table.get((tok, vertex))
            except TypeError:
                raise _fault(f"token {tok!r} at {vertex!r} is unhashable", vertex) from None
            if d is None:
                d = _resolve(tok, vertex, ends)
            if origin[d] is not None:
                name = tok[0] if isinstance(tok, tuple) else tok
                raise _fault(f"dart of edge {name!r} listed twice "
                             f"(vertex {vertex!r})", vertex)
            origin[d] = vertex
            sigma[last] = last = d
        sigma[last] = sigma[n]
    if None in origin:  # name the edge of the first dart in no rotation
        d = origin.index(None)
        name, placed = tuple(ends)[d // 2], int(origin[d ^ 1] is not None)
        raise _fault(f"a dart of edge {name!r} is never placed: it appears "
                     f"in {placed} rotation position(s); need 2", edge=name)
    return EmbeddedMap(tuple(rotations), tuple(ends), tuple(sigma[:n]), tuple(origin))


def _resolve(tok, vertex, ends: dict) -> int:
    """The dart of a token make_map's table lacks, or the fault that forbids
    tok: only a (name, end) pair names a dart here, since the table holds
    every plain name that names one."""
    pair = isinstance(tok, tuple)
    if pair and len(tok) != 2:
        raise _fault(f"token {tok!r} at vertex {vertex!r} is not a "
                     "(name, end) pair", vertex)
    name, end = tok if pair else (tok, None)
    if name not in ends:
        raise _fault(f"unknown edge {name!r} at vertex {vertex!r}", vertex)
    k, u, v = ends[name]
    if not pair:
        if u == v:
            raise _fault(f"loop {name!r} needs an end selector in the "
                         f"rotation at {vertex!r}", vertex)
        raise _fault(f"edge {name!r} is not incident to vertex {vertex!r}", vertex)
    if type(end) is not int or end not in (0, 1):
        raise _fault(f"bad end selector {end!r} for edge {name!r}", vertex)
    if (u, v)[end] == vertex:
        return 2 * k + end
    raise _fault(f"edge {name!r} end {end} belongs to vertex {(u, v)[end]!r}, "
                 f"so it is not incident to vertex {vertex!r}", vertex)


def _fault(message: str, vertex=None, edge=None) -> MapStructureError:
    exc = MapStructureError(message)
    exc.vertex, exc.edge = vertex, edge
    return exc


def _cycles(perm) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Each element's cycle index, and the cycles of a permutation of
    range(len(perm)): each cycle starts at its least element, and the
    cycles are numbered and listed by that element."""
    label = [None] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if label[start] is None:
            i, cyc, d = len(cycles), [], start
            while label[d] is None:
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

    degree, vset = Counter(origin), set(m.vertices)
    defects: list[Defect] = []
    if sorted(sigma) != list(range(n)):
        defects.append(Defect("sigma-not-permutation", "sigma is not a permutation"))
    if len(vset) != len(m.vertices):
        defects.append(Defect("duplicate-vertex", "vertex listed twice"))
    if not degree.keys() <= vset:
        defects.append(Defect("origin-out-of-range",
                              "dart origin is not a listed vertex"))
    if defects:
        return ValidationReport(False, tuple(defects))

    mixes = any(map(ne, map(origin.__getitem__, sigma), origin))
    if mixes:
        defects.append(Defect("sigma-mixes-vertices",
                              "a sigma cycle crosses between vertices"))
    for v in m.vertices:
        if v not in degree:
            defects.append(Defect("isolated-vertex", f"vertex {v!r} has no darts"))
    cycle_of, cycles = _cycles(sigma)
    if not mixes and len(cycles) != len(degree):
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

    loop = next(compress(range(len(m.edges)), map(eq, origin[0::2], origin[1::2])), None)
    if loop is not None:
        defects.append(Defect("loop-present", f"edge {m.edges[loop]!r} is a loop",
                              advisory=True))
    if 1 in degree.values():
        defects.append(Defect("degree-one-vertex",
                              "a vertex has degree 1", advisory=True))
    return ValidationReport(ok, tuple(defects)) if defects else _VALID


_VALID = ValidationReport(True, ())


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
    phi = [None] * len(sigma)
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
    inv = [None] * m.n_darts
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
    sigma = [None] * n
    origin: list = [None] * n
    for d in range(n):
        sigma[perm[d]] = perm[m.sigma[d]]
        origin[perm[d]] = m.dart_origin[d]
    return EmbeddedMap(m.vertices, tuple(m.edges[k] for k in edge_order),
                       tuple(sigma), tuple(origin))
