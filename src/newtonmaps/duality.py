"""Dual maps, the common refinement, and its abstract three-level digraph.

The dual lives on the same darts: its vertex rotation is the face
permutation phi of the primal, and the edge pairing is unchanged, so
dualizing twice returns the original map exactly.  With the clockwise
facial-walk convention this realizes the orientation-reversed geometric
dual, which is the sense in which self-duality is usually asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq

from .embedded_map import EmbeddedMap, MapStructureError, _checked, _phi


def dual(m: EmbeddedMap) -> EmbeddedMap:
    """The dual map on the same dart set; dual(dual(m)) == m up to face names.

    Dual vertices are the faces of m, labeled f1, f2, ... in facial-walk
    order; every edge e is identified with its crossing dual edge, so the
    edge tuple is carried over unchanged.
    """
    face, walks = _checked(m)._faces
    labels = tuple(f"f{i + 1}" for i in range(len(walks)))
    origin = tuple(labels[f] for f in face)
    return EmbeddedMap(labels, m.edges, tuple(_phi(m.sigma)), origin)


def _require_no_repeated_edge(m: EmbeddedMap) -> tuple[list[int], tuple]:
    """m's faces (face index of each dart, facial walks); refuses a face
    repeating an edge, and a repeated edge name, which names two crossings."""
    face, walks = _checked(m)._faces
    if any(map(eq, face[0::2], face[1::2])):
        raise MapStructureError(
            "refinement needs every facial walk to use each edge at most once")
    if len(set(m.edges)) < len(m.edges):
        raise MapStructureError("refinement needs distinct edge names")
    return face, walks


def refinement(m: EmbeddedMap) -> EmbeddedMap:
    """Subdivide every edge at its dual crossing and join crossings to faces.

    Vertices of the refinement are tagged tuples, and the tag gives the
    level: ("v", vertex) at level 1, ("s", e) at level 2 for the point
    where edge e crosses its dual edge, and ("f", i) at level 3 for face i.

    Each of the n darts d contributes a primal half-edge ("h", d), edge d,
    from d's origin to the crossing on d's edge, and a dual half-edge
    ("g", d), edge n + d, from that crossing to the face on the right of d.
    Rotations: level 1 keeps the base rotation, the crossing interleaves
    the four halves anti-clockwise as (h d, g d, h alpha d, g alpha d), and
    level 3 takes the reversed facial walk, the dual's anti-clockwise
    rotation.  For an order-r toroidal map with r faces this yields 4r
    vertices, 8r edges and 4r quadrilateral faces, one per corner of m.
    """
    face, walks = _require_no_repeated_edge(m)
    n = m.n_darts
    sigma = [None] * (4 * n)
    for d, s in enumerate(m.sigma):
        sigma[2 * d], sigma[2 * d + 1] = 2 * s, 2 * (n + d)
        sigma[2 * (n + d)] = 2 * (d ^ 1) + 1
        # s follows d ^ 1 on its facial walk, which the face's rotation reverses
        sigma[2 * (n + s) + 1] = 2 * (n + (d ^ 1)) + 1
    vs = {v: ("v", v) for v in m.vertices}
    ss = [("s", e) for e in m.edges]
    fs = [("f", i + 1) for i in range(len(walks))]
    origin = [x for d in range(n) for x in (vs[m.dart_origin[d]], ss[d // 2])]
    origin += [x for d in range(n) for x in (ss[d // 2], fs[face[d]])]
    edges = tuple((tag, d) for tag in "hg" for d in range(n))
    return EmbeddedMap((*vs.values(), *ss, *fs), edges, tuple(sigma), tuple(origin))


@dataclass(frozen=True)
class PGraph:
    """Abstract three-level digraph of a refinement: vertices, crossings, faces.

    Arcs run level 1 -> 2 (one per dart, vertex to crossing) and
    level 2 -> 3 (one per dart, crossing to the face right of the dart).
    """

    level1: tuple
    level2: tuple
    level3: tuple
    arcs: tuple  # ((level, id), (level, id)) pairs

    def to_dot(self) -> str:
        """DOT rendering: level 1 as open circles, level 2 as points,
        level 3 as filled circles."""
        lines = ["digraph pgraph {", "  rankdir=TB;", '  node [fontsize=11];']
        for v in self.level1:
            lines.append(f'  "v:{v}" [label="{v}", shape=circle];')
        for e in self.level2:
            lines.append(f'  "s:{e}" [label="", shape=point];')
        for f in self.level3:
            lines.append(f'  "f:{f}" [label="{f}", shape=circle, style=filled, '
                         'fillcolor=black, fontcolor=white];')
        tag = {1: "v", 2: "s", 3: "f"}
        for (la, a), (lb, b) in self.arcs:
            lines.append(f'  "{tag[la]}:{a}" -> "{tag[lb]}:{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def abstract_p_graph(m: EmbeddedMap) -> PGraph:
    face, walks = _require_no_repeated_edge(m)
    labels = tuple(f"f{i + 1}" for i in range(len(walks)))
    arcs = []
    for d in range(m.n_darts):
        arcs.append(((1, m.dart_origin[d]), (2, m.edge_of(d))))
    for d in range(m.n_darts):
        arcs.append(((2, m.edge_of(d)), (3, labels[face[d]])))
    return PGraph(level1=tuple(m.vertices), level2=tuple(m.edges),
                  level3=labels, arcs=tuple(arcs))
