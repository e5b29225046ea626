"""Newton-graph predicates for cellularly embedded toroidal multigraphs.

An order-r Newton graph has r vertices, 2r edges and r faces on the
torus, no loops, and satisfies two conditions on its facial walks: the
boundary condition checked here, or E-property, and an angle condition
at the vertices.  The E-property asks that no facial walk repeat an
edge.  A closed walk visits every vertex of the subgraph its edges form,
so each walk is then an Eulerian circuit of its own boundary subgraph;
and every edge separates two distinct faces, so the dual is loopless.
The angle condition needs no separate check at small orders: it always
holds at order 2 and follows from the boundary condition at order 3, and
no finite criterion for it is implemented beyond that, so larger orders
can only ever be certified "e-only".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .embedded_map import EmbeddedMap, _repeated_edge, facial_walks, validate


@dataclass(frozen=True)
class EWitness:
    walk_index: int
    repeated_edge: object


@dataclass(frozen=True)
class EPropertyReport:
    holds: bool
    witness: Optional[EWitness] = None


_A_PROPERTY = {2: "always-holds", 3: "implied-by-E"}


def _accepted_verdict(order: int) -> str:
    """The verdict of a map that passes every check at this order: "newton"
    where the angle condition is settled, "e-only" where it is not."""
    return "newton" if order in _A_PROPERTY else "e-only"


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

    The E-witness is the first walk that holds both darts of an edge, with
    the edge of its first such dart.  The degree bounds (vertex and face
    degrees in (1, 2r], and 4r darts) are reported but do not gate the
    verdict, since the other conditions imply them at every order.
    Looplessness keeps every vertex degree at most 2r and rules out faces
    of length 1; the E-property keeps every face at most 2r long and rules
    out a degree-1 vertex, whose pendant edge would run twice through one
    face; and both degree sums count the 4r darts.
    """
    status = _A_PROPERTY.get(order, "unavailable")
    if not validate(m).ok:
        return NewtonReport(order, False, False, False,
                            EPropertyReport(False), False, status, "not-newton")
    walks = facial_walks(m)
    loopless = all(m.dart_origin[2 * k] != m.dart_origin[2 * k + 1]
                   for k in range(m.n_edges))
    # r vertices, 2r edges and r faces force characteristic 0
    toroidal = (m.order == order and m.n_edges == 2 * order
                and len(walks) == order)
    found = _repeated_edge(walks)
    e_rep = (EPropertyReport(True) if found is None else
             EPropertyReport(False, EWitness(found[0], m.edge_of(found[1]))))
    degrees = chain(Counter(m.dart_origin).values(), map(len, walks))
    bounds = m.n_darts == 4 * order and all(1 < d <= 2 * order for d in degrees)
    newton = toroidal and loopless and e_rep.holds
    return NewtonReport(order, True, toroidal, loopless, e_rep, bounds, status,
                        _accepted_verdict(order) if newton else "not-newton")

