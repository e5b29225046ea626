"""Newton-graph predicates for cellularly embedded toroidal multigraphs.

An order-r Newton graph has r vertices, 2r edges and r faces on the
torus, no loops, and satisfies two conditions on its facial walks: the
boundary condition checked here (no facial walk repeats an edge, so each
walk is an Eulerian circuit of its own boundary subgraph and every edge
separates two distinct faces), and an angle condition at the vertices.
The angle condition needs no separate check at small orders: it always
holds at order 2 and follows from the boundary condition at order 3, and
no finite criterion for it is implemented beyond that, so larger orders
can only ever be certified "e-only".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .canon import canonical_key
from .duality import dual
from .embedded_map import (EmbeddedMap, UnsuitableMapError, _repeated_edge,
                           facial_walks, validate)


@dataclass(frozen=True)
class EWitness:
    walk_index: int
    repeated_edge: object


@dataclass(frozen=True)
class EPropertyReport:
    holds: bool
    witness: Optional[EWitness] = None

    def __bool__(self) -> bool:
        return self.holds


def check_e_property(m: EmbeddedMap) -> EPropertyReport:
    """No facial walk may traverse any edge twice.

    Equivalently: every edge lies on two distinct faces, and the dual is
    loopless.  A closed walk visits every vertex of the subgraph formed
    by its own edges, so once no edge repeats, each walk is an Eulerian
    circuit of its boundary.
    """
    found = _repeated_edge(m)
    if found is None:
        return EPropertyReport(True)
    return EPropertyReport(False, EWitness(found[0], m.edge_of(found[1])))


def check_degree_bounds(m: EmbeddedMap, order: int) -> bool:
    """Vertex and face degrees must lie in (1, 2r]; both sums count the 4r darts."""
    fdegs = [len(w) for w in facial_walks(m)]  # raises on an invalid map
    degs = list(Counter(m.dart_origin).values())
    return m.n_darts == 4 * order and all(1 < d <= 2 * order for d in degs + fdegs)


def _a_property_status(order: int) -> str:
    if order == 2:
        return "always-holds"
    if order == 3:
        return "implied-by-E"
    return "unavailable"


@dataclass(frozen=True)
class NewtonReport:
    order: int
    connected: bool
    cellular_toroidal: bool
    loopless: bool
    e_property: EPropertyReport
    degree_bounds: bool
    a_property_status: str
    verdict: str  # newton | e-only | not-newton


def is_newton(m: EmbeddedMap, order: int) -> NewtonReport:
    """The Newton verdict: toroidal, loopless and E-property.

    The degree bounds are reported but do not gate the verdict, since
    the other conditions imply them at every order.  Looplessness keeps
    every vertex degree at most 2r and rules out faces of length 1; the
    E-property keeps every face at most 2r long and rules out a degree-1
    vertex, whose pendant edge would run twice through one face; and both
    degree sums count the 4r darts.
    """
    status = _a_property_status(order)
    report = validate(m)
    if not report.ok:
        return NewtonReport(order, False, False, False,
                            EPropertyReport(False), False, status, "not-newton")
    loopless = all(m.dart_origin[2 * k] != m.dart_origin[2 * k + 1]
                   for k in range(m.n_edges))
    # r vertices, 2r edges and r faces force characteristic 0
    toroidal = (m.order == order and m.n_edges == 2 * order
                and len(facial_walks(m)) == order)
    e_rep = check_e_property(m)
    bounds = check_degree_bounds(m, order)
    if toroidal and loopless and e_rep.holds:
        verdict = "newton" if status != "unavailable" else "e-only"
    else:
        verdict = "not-newton"
    return NewtonReport(order, True, toroidal, loopless, e_rep, bounds,
                        status, verdict)


@dataclass(frozen=True)
class SelfDuality:
    reflective: bool
    orientation_preserving: bool


def self_duality(m: EmbeddedMap) -> SelfDuality:
    """Whether a Newton map is equivalent to its dual, in both senses."""
    rep = is_newton(m, m.order)
    if rep.verdict != "newton":
        raise UnsuitableMapError(f"self-duality is defined for Newton graphs; "
                                 f"verdict here is {rep.verdict!r}")
    d = dual(m)
    return SelfDuality(
        reflective=canonical_key(m, True) == canonical_key(d, True),
        orientation_preserving=canonical_key(m, False) == canonical_key(d, False),
    )
