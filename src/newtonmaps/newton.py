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
can only ever be certified "e-only".  is_newton finds all faces in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import eq
from typing import Optional

from .embedded_map import EmbeddedMap, _cycles, _frame, _phi, validate


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

    Faces are phi-cycles, numbered by least dart, and a face's degree is
    its walk's length; looplessness and vertex degrees come from
    validation's frame facts.  The E-property holds when every edge's two
    darts lie on different faces; else the witness is the first face
    holding both, with the first dart of its walk whose partner is on it.
    The degree bounds (vertex and face degrees in (1, 2r], and 4r darts)
    are reported but do not gate the verdict, since the other conditions
    imply them: no loops keeps vertex degrees at most 2r and faces longer
    than 1; the E-property keeps faces at most 2r long and rules out a
    pendant edge, which would run twice through one face; and both sums
    count 4r darts.
    """
    status = _A_PROPERTY.get(order, "unavailable")
    if not validate(m).ok:
        return NewtonReport(order, False, False, False,
                            EPropertyReport(False), False, status, "not-newton")
    # one pass over phi, not the cached m._faces: most candidates are
    # thrown away, and a cache entry on each costs more than it saves
    face, walks = _cycles(_phi(m.sigma))
    # r vertices, 2r edges and r faces force characteristic 0
    toroidal = m.order == order and m.n_edges == 2 * order and len(walks) == order
    f = min(compress(face[0::2], map(eq, face[0::2], face[1::2])), default=None)
    e_rep = EPropertyReport(True)
    if f is not None:
        d = next(d for d in walks[f] if face[d ^ 1] == f)
        e_rep = EPropertyReport(False, EWitness(f, m.edge_of(d)))
    frame = _frame(m.vertices, m.dart_origin)
    loopless = frame.first_loop is None
    degrees = (frame.min_degree, frame.max_degree, *map(len, walks))
    bounds = m.n_darts == 4 * order and 1 < min(degrees) and max(degrees) <= 2 * order
    newton = toroidal and loopless and e_rep.holds
    return NewtonReport(order, True, toroidal, loopless, e_rep, bounds, status,
                        _accepted_verdict(order) if newton else "not-newton")
