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
can only ever be certified "e-only".  is_newton labels faces in one loop,
shares one report per distinct outcome and caches nothing on the map.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import eq
from typing import Optional

from .embedded_map import EmbeddedMap, validate


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


@lru_cache(maxsize=1024, typed=True)
def _report(order: int, connected: bool, toroidal: bool, loopless: bool,
            f: Optional[int], edge: object, bounds: bool) -> NewtonReport:
    """One outcome's report, built once and shared (reports are frozen).  f is
    the first face repeating an edge, or None, and edge is that edge's name.
    Only a None or str edge may come through the cache; any other name takes
    the uncached _report.__wrapped__, since == may equal names of other types."""
    e_rep = EPropertyReport(connected and f is None,
                            None if f is None else EWitness(f, edge))
    newton = toroidal and loopless and e_rep.holds
    return NewtonReport(order, connected, toroidal, loopless, e_rep, bounds,
                        _A_PROPERTY.get(order, "unavailable"),
                        _accepted_verdict(order) if newton else "not-newton")


def is_newton(m: EmbeddedMap) -> NewtonReport:
    """The Newton verdict at m's order: toroidal, loopless and E-property.

    Faces are phi-cycles, numbered by least dart, and a face's degree is
    its length; looplessness and degree-one vertices are read from the
    validation report's advisories.  The E-property holds when every edge's
    two darts lie on different faces; else the witness is the first face
    holding both, with the first dart, on its walk from its least dart,
    whose partner is on it.
    The degree bounds (vertex and face degrees in (1, 2r], and 4r darts)
    are reported but do not gate the verdict, since the other conditions
    imply them: no loops keeps vertex degrees at most 2r and faces longer
    than 1; the E-property keeps faces at most 2r long and rules out a
    pendant edge, which would run twice through one face; and both sums
    count 4r darts.  So only a looped map counts its vertex degrees.  Equal
    outcomes share one report; the map caches nothing.
    """
    order, report = m.order, validate(m)
    if not report.ok:
        return _report(order, False, False, False, None, None, False)
    # label each dart's face and count face lengths, reading phi(d) = sigma(d ^ 1)
    # inline; unlike _cycles this lists no walks and caches none: most maps are dropped
    sigma, face, sizes = m.sigma, [-1] * len(m.sigma), []
    for s in range(len(sigma)):
        if face[s] == -1:
            f, d, k = len(sizes), s, 0
            while face[d] == -1:
                face[d] = f
                d = sigma[d ^ 1]
                k += 1
            sizes.append(k)
    # r vertices, 4r darts (so 2r edges) and r faces force characteristic 0
    toroidal = len(sizes) == order and len(sigma) == 4 * order
    even = face[0::2]
    same = list(map(eq, even, face[1::2]))
    f = edge = None
    if True in same:
        f = min(compress(even, same))
        d = face.index(f)
        for _ in range(sizes[f]):
            if face[d ^ 1] == f:
                break
            d = sigma[d ^ 1]
        edge = m.edges[d // 2]
    # a valid map's defects are advisories: a loop, a degree-one vertex
    codes = [d.code for d in report.defects] if report.defects else ()
    loopless = "loop-present" not in codes
    bounds = (len(sigma) == 4 * order and "degree-one-vertex" not in codes
              and 1 < min(sizes) and max(sizes) <= 2 * order
              and (loopless or max(Counter(m.dart_origin).values()) <= 2 * order))
    build = _report if edge is None or type(edge) is str else _report.__wrapped__
    return build(order, True, toroidal, loopless, f, edge, bounds)
