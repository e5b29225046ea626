"""Independent cross-check implementations for the test suite.

Deliberately avoids the package's permutation machinery: facial walks
are recomputed straight from document text via rotation lists and the
corner rule (arrive on an edge-end, leave on its anti-clockwise
successor), so agreement with the package is a genuine two-path check;
the Newton report's fields are read from those walks and rotation lists.
Map equivalence is decided by anchored exhaustive propagation, without
the canonical keys, and the canonical key search is checked against the
search it replaced, which traces every root in full.  Structural
validation is checked against the per-dart checks and dart search it
replaced.  The class counts are checked by the orbit-counting lemma over
the accepted candidates' symmetries, again without keys.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, prod

from newtonmaps.embedded_map import Defect, ValidationReport
from newtonmaps.enumeration import _multiplicity_vectors, _vector_candidates
from newtonmaps.newton import is_newton


def _doc_tables(text: str):
    ends: dict = {}
    rots: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        f = line.split()
        if f[0] == "edge":
            ends[f[1]] = (f[2], f[3])
        elif f[0] == "rot":
            toks = []
            for w in f[2:]:
                if "." in w:
                    name, _, e = w.partition(".")
                    toks.append((name, int(e)))
                else:
                    name = w
                    u, v = ends[name]
                    toks.append((name, 0 if f[1] == u else 1))
            rots[f[1]] = toks
    return ends, rots


def walk_circuits(text: str) -> list[list[str]]:
    """Edge-name circuits of all facial walks, one list per face."""
    ends, rots = _doc_tables(text)
    succ = {}
    vertex_of = {}
    for v, toks in rots.items():
        for i, t in enumerate(toks):
            succ[t] = toks[(i + 1) % len(toks)]
            vertex_of[t] = v
    circuits = []
    visited = set()
    # a traversal step is "leave through edge-end t"; after crossing the
    # edge we arrive at the opposite end and turn by the corner rule
    for start in sorted(succ, key=str):
        if start in visited:
            continue
        circuit = []
        t = start
        while t not in visited:
            visited.add(t)
            circuit.append(t[0])
            arrive = (t[0], 1 - t[1])
            t = succ[arrive]
        circuits.append(circuit)
    return circuits


def euler_from_doc(text: str) -> int:
    ends, rots = _doc_tables(text)
    return len(rots) - len(ends) + len(walk_circuits(text))


def newton_reference(text: str) -> dict:
    """The document's Newton report fields, read from its rotation lists,
    at its order, the number of those lists.

    Face lengths come from walk_circuits and vertex degrees from the
    rotation lists.  The E-witness is (face index, edge) for the first
    circuit that runs along an edge twice, at that edge's first step;
    circuits are listed, and start, by their least edge-end.  That is the
    package's least-dart order for a map whose edges are listed by name,
    as every enumerated candidate's are, so the witnesses are comparable.
    """
    ends, rots = _doc_tables(text)
    circuits = walk_circuits(text)
    witness = next(((i, e) for i, c in enumerate(circuits) for e in c
                    if c.count(e) == 2), None)
    degrees = [len(toks) for toks in rots.values()] + [len(c) for c in circuits]
    order = len(rots)
    return {
        "cellular_toroidal": (order - len(ends) + len(circuits) == 0
                              and len(ends) == 2 * order and len(circuits) == order),
        "loopless": all(u != v for u, v in ends.values()),
        "e_property": witness is None,
        "e_witness": witness,
        "degree_bounds": (len(ends) == 2 * order
                          and all(1 < d <= 2 * order for d in degrees)),
    }


def cyclic_normal(seq) -> tuple:
    """Least rotation of a cyclic sequence, for order-free comparison."""
    seq = list(seq)
    best = None
    for i in range(len(seq)):
        rot = tuple(seq[i:] + seq[:i])
        if best is None or rot < best:
            best = rot
    return best


def circuit_multiset(circuits) -> tuple:
    return tuple(sorted(cyclic_normal(c) for c in circuits))


class SizeGuardError(ValueError):
    """Brute-force search refused: the map is too large for it to be honest."""


_BRUTE_FORCE_DART_LIMIT = 16


def _inverse(p) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def _propagate(sigma_a, sigma_b, anchor_image: int) -> bool:
    n = len(sigma_a)
    inv_a = _inverse(sigma_a)
    inv_b = _inverse(sigma_b)
    f = [-1] * n
    f[0] = anchor_image
    stack = [0]
    while stack:
        d = stack.pop()
        for src, dst in ((sigma_a[d], sigma_b[f[d]]),
                         (inv_a[d], inv_b[f[d]]),
                         (d ^ 1, f[d] ^ 1)):
            if f[src] == -1:
                f[src] = dst
                stack.append(src)
            elif f[src] != dst:
                return False
    if -1 in f or len(set(f)) != n:
        return False
    return all(f[sigma_a[d]] == sigma_b[f[d]] and f[d ^ 1] == f[d] ^ 1
               for d in range(n))


def brute_force_iso(a, b, allow_reflection: bool = True) -> bool:
    """Reference equivalence test by anchored exhaustive propagation.

    Independent of the canonical key machinery; guarded to small maps so
    it stays an oracle rather than an attractive nuisance.
    """
    if max(a.n_darts, b.n_darts) > _BRUTE_FORCE_DART_LIMIT:
        raise SizeGuardError(
            f"brute force limited to {_BRUTE_FORCE_DART_LIMIT} darts")
    if a.n_darts != b.n_darts:
        return False
    targets = [b.sigma]
    if allow_reflection:
        targets.append(_inverse(b.sigma))
    for sb in targets:
        for t in range(b.n_darts):
            if _propagate(a.sigma, sb, t):
                return True
    return False


def orbit_class_counts(order: int) -> tuple[Fraction, Fraction, Fraction]:
    """(OP, reflection, duality) class counts of the order's Newton maps,
    by the orbit-counting lemma and without keys.

    Relabeling the vertices and parallel edges, w = r!·∏ m_ij! ways for a
    candidate of multiplicities m_ij, permutes the accepted candidates
    (those the package's Newton filter, checked against newton_reference,
    keeps), so a class whose maps have |Aut⁺| automorphisms holds
    w/|Aut⁺| of them: the sum of |Aut⁺|/w counts OP classes.  Averaging
    over mirror and dual as well counts the coarser classes.  Each count is of the dart bijections f
    with f(d ^ 1) = f(d) ^ 1 and f∘σ = τ∘f, for τ = σ (Aut⁺), σ⁻¹ (Aut⁻),
    φ and φ⁻¹ (the dualities), where φ(d) = σ(d ^ 1); only σ is read.
    """
    op = refl = dual = Fraction(0)
    for mult in _multiplicity_vectors(order, 2):
        w = factorial(order) * prod(map(factorial, mult))
        for m in _vector_candidates(order, mult):
            if is_newton(m).verdict == "not-newton":
                continue
            sigma = m.sigma
            phi = tuple(sigma[d ^ 1] for d in range(len(sigma)))
            aut, aut_mirror, *dualities = (
                sum(_propagate(sigma, tau, t) for t in range(len(sigma)))
                for tau in (sigma, _inverse(sigma), phi, _inverse(phi)))
            op += Fraction(aut, w)
            refl += Fraction(aut + aut_mirror, 2 * w)
            dual += Fraction(aut + aut_mirror + sum(dualities), 4 * w)
    return op, refl, dual


def trace_from(sigma, root: int):
    """Breadth-first relabeling from root; returns (trace, visit order)."""
    idx = {root: 0}
    order = [root]
    trace = []
    for d in order:
        for nxt in (sigma[d], d ^ 1):
            if nxt not in idx:
                idx[nxt] = len(order)
                order.append(nxt)
            trace.append(idx[nxt])
    return tuple(trace), order


def full_search_trace(sigma):
    """Least trace over all roots for a fixed chirality, every root traced
    in full; returns (trace, visit order of the first root attaining it)."""
    best = None
    best_order = None
    for root in range(len(sigma)):
        trace, order = trace_from(sigma, root)
        if best is None or trace < best:
            best, best_order = trace, order
    return best, best_order


def full_search_sided(sigma, allow_reflection: bool):
    """(trace, order, mirrored) of the full search over permitted chiralities;
    the mirror, every rotation reversed, wins only when strictly smaller."""
    trace, order = full_search_trace(sigma)
    mirrored = False
    if allow_reflection:
        trace2, order2 = full_search_trace(_inverse(sigma))
        if trace2 < trace:
            trace, order, mirrored = trace2, order2, True
    return trace, order, mirrored


def _cycle_count(perm) -> int:
    seen = set()
    count = 0
    for start in range(len(perm)):
        if start not in seen:
            count += 1
            d = start
            while d not in seen:
                seen.add(d)
                d = perm[d]
    return count


def structure_report(m) -> ValidationReport:
    """The validation report by per-dart checks and a depth-first search
    over darts for connectivity."""
    defects: list[Defect] = []
    n = m.n_darts

    if n == 0:
        return ValidationReport(False, (Defect("empty-map", "map has no darts"),))
    if len(m.dart_origin) != n or n != 2 * len(m.edges):
        defects.append(Defect("length-mismatch",
                              "sigma/dart_origin/edge lengths disagree"))
        return ValidationReport(False, tuple(defects))

    if sorted(m.sigma) != list(range(n)):
        defects.append(Defect("sigma-not-permutation", "sigma is not a permutation"))
    vset = set(m.vertices)
    if len(vset) != len(m.vertices):
        defects.append(Defect("duplicate-vertex", "vertex listed twice"))
    if any(v not in vset for v in m.dart_origin):
        defects.append(Defect("origin-out-of-range",
                              "dart origin is not a listed vertex"))
    if defects:
        return ValidationReport(False, tuple(defects))

    mixes = any(m.dart_origin[m.sigma[d]] != m.dart_origin[d] for d in range(n))
    if mixes:
        defects.append(Defect("sigma-mixes-vertices",
                              "a sigma cycle crosses between vertices"))
    present = set(m.dart_origin)
    for v in m.vertices:
        if v not in present:
            defects.append(Defect("isolated-vertex", f"vertex {v!r} has no darts"))
    if not mixes and _cycle_count(m.sigma) != len(present):
        defects.append(Defect("split-vertex",
                              "a vertex's darts form more than one sigma cycle"))

    # transitivity of <sigma, alpha> on darts
    seen = {0}
    stack = [0]
    while stack:
        d = stack.pop()
        for e in (m.sigma[d], d ^ 1):
            if e not in seen:
                seen.add(e)
                stack.append(e)
    if len(seen) != n:
        defects.append(Defect("disconnected", "underlying surface is disconnected"))

    ok = not defects

    for k in range(len(m.edges)):
        if m.dart_origin[2 * k] == m.dart_origin[2 * k + 1]:
            defects.append(Defect("loop-present",
                                  f"edge {m.edges[k]!r} is a loop", advisory=True))
            break
    if 1 in Counter(m.dart_origin).values():
        defects.append(Defect("degree-one-vertex",
                              "a vertex has degree 1", advisory=True))
    return ValidationReport(ok, tuple(defects))
