"""Canonical labeling and isomorphism of oriented maps.

Two maps are orientation-preserving equivalent when a dart bijection
conjugates sigma to sigma and alpha to alpha; allowing reflection also
admits conjugating sigma to its inverse.  The canonical key is the
lexicographically least breadth-first trace over all root darts (and,
in the reflection-allowed sense, over both chiralities), so equal keys
mean equivalent maps and the key is independent of labeling.

The search finds that minimum as nauty does (McKay 1981; McKay and
Piperno 2014).  A root is dropped at its first trace entry above the
best so far.  Two roots with equal traces give an automorphism, and
darts in one orbit have equal traces, so only the least dart of each
orbit found so far is tried as a root.  Neither changes the minimum.
A search bound by a least trace stops at the first root that ties it:
a trace fixes its map, so the bound is the searched map's least trace,
and no earlier root reached it, so an unbounded search picks that root.
`are_equivalent` searches b with a's trace as the bound: b's roots are
dropped above a's key, and b's search finds the trace, root and
chirality of an unbounded search exactly when b's key equals a's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .embedded_map import EmbeddedMap, UnsuitableMapError, _checked, _cycles, mirror


class WitnessError(RuntimeError):
    """An equivalence witness failed its own check: an internal fault."""


@dataclass(frozen=True)
class CanonicalKey:
    trace: tuple[int, ...]
    allow_reflection: bool

    # the text form spends one byte per trace entry, and the entries are
    # visit positions, so it holds the keys of maps of at most 256 darts
    MAX_DARTS = 256

    def hex(self) -> str:
        _require_text_width(max(self.trace, default=-1) + 1)
        return bytes(self.trace).hex()

    @classmethod
    def from_hex(cls, text: str, allow_reflection: bool) -> "CanonicalKey":
        if bytes.fromhex(text).hex() != text:  # each key has one text
            raise ValueError(f"key text {text!r} is not as hex() writes it")
        return cls(tuple(bytes.fromhex(text)), allow_reflection)

    def __lt__(self, other: "CanonicalKey") -> bool:
        if self.allow_reflection != other.allow_reflection:
            raise TypeError("keys of different senses are not comparable")
        return self.trace < other.trace


def _require_text_width(n_darts: int) -> None:
    """Refuses a key of more darts than its text form can hold."""
    if n_darts > CanonicalKey.MAX_DARTS:
        raise UnsuitableMapError("trace entries exceed one byte")


@dataclass(frozen=True)
class IsoResult:
    equivalent: bool
    dart_map: Optional[tuple[int, ...]] = None  # dart of a -> dart of b
    reflected: Optional[bool] = None

    def __bool__(self) -> bool:
        return self.equivalent


def _trace_from(sigma, root: int, bound: tuple[int, ...], idx: list[int]):
    """Breadth-first relabeling from root: (trace, visit order), or (None,
    None) at the first entry that makes the trace exceed bound.  idx maps
    darts to visit positions; it is all -1 on entry and again on return."""
    idx[root] = 0
    order = [root]
    trace = []
    push = trace.append
    n, k = 1, 0 if bound else None  # len(order); bound's next entry, None once below
    try:
        for d in order:
            s = sigma[d]
            i = idx[s]
            if i < 0:
                i = idx[s] = n
                n += 1
                order.append(s)
            d ^= 1
            j = idx[d]
            if j < 0:
                j = idx[d] = n
                n += 1
                order.append(d)
            if k is not None:
                b, c = bound[k], bound[k + 1]
                if i != b or j != c:
                    if i > b or i == b and j > c:
                        return None, None
                    k = None
                else:
                    k += 2
            push(i)
            push(j)
        return tuple(trace), order
    finally:
        for d in order:
            idx[d] = -1


def _best_trace(sigma, bound: tuple[int, ...] = ()):
    """Least trace over all roots for a fixed chirality, as (trace, order).

    Roots are traced against the best trace so far, starting from bound;
    (bound, None) means none reached it.  The first root tying bound is
    returned: a trace fixes its map, so bound is this map's least trace,
    and no earlier root reached it.  A later tie pairs its visit order
    with the best root's into an automorphism; a union-find keeps those
    orbits by least dart, and skips a root whose orbit has a smaller one.
    """
    orbit = list(range(len(sigma)))
    idx = [-1] * len(sigma)  # shared by every root's trace
    best, best_order = bound, None
    for root in range(len(sigma)):
        if orbit[root] != root:  # links run to smaller darts: roots are least
            continue
        trace, order = _trace_from(sigma, root, best, idx)
        if trace is None:
            continue
        if trace == best:
            if best_order is None:  # a tie with bound: its minimum, so stop
                return trace, order
            for d, e in zip(best_order, order):
                while orbit[d] != d:
                    orbit[d] = d = orbit[orbit[d]]
                while orbit[e] != e:
                    orbit[e] = e = orbit[orbit[e]]
                if d < e:
                    orbit[e] = d
                else:
                    orbit[d] = e
        else:
            best, best_order = trace, order
    return best, best_order


def _count_isomorphisms(sigma, tau) -> int:
    """The number of dart bijections f with f(d ^ 1) = f(d) ^ 1 and
    f(sigma(d)) = tau(f(d)); with tau = sigma, |Aut+| of sigma's map.

    Both maps must be connected, on equally many darts: f(0) fixes f, and
    f is onto, as its image is closed under tau and alpha.  One propagation
    per target, O(n^2) in all; it shares nothing with the key search, so a
    pruning fault there cannot make a count agree with the keys.
    """
    return sum(_extends(sigma, tau, target) for target in range(len(sigma)))


def _extends(sigma, tau, target: int) -> bool:
    """Whether f(0) = target propagates to such a map f, over every dart."""
    f = [None] * len(sigma)
    f[0] = target
    reached = [0]
    for d in reached:
        for e, fe in ((sigma[d], tau[f[d]]), (d ^ 1, f[d] ^ 1)):
            if f[e] is None:
                f[e] = fe
                reached.append(e)
            elif f[e] != fe:
                return False
    return True


def _best_trace_sided(m: EmbeddedMap, allow_reflection: bool,
                      bound: tuple[int, ...] = ()):
    """(trace, order, mirrored), least over the permitted chiralities against
    bound, order None if none reached it; the mirror, unsearched if the first
    tied bound and else bound by its result, wins if strictly less or alone."""
    trace, order = _best_trace(m.sigma, bound)
    mirrored = False
    if allow_reflection and (order is None or trace != bound):
        trace2, order2 = _best_trace(mirror(m).sigma, trace)
        if order is None or trace2 < trace:
            trace, order, mirrored = trace2, order2, True
    return trace, order, mirrored


def canonical_key(m: EmbeddedMap, allow_reflection: bool = True) -> CanonicalKey:
    trace, _, _ = _best_trace_sided(_checked(m), allow_reflection)
    return CanonicalKey(trace, allow_reflection)


def _map_from_trace(trace: tuple[int, ...]) -> EmbeddedMap:
    """The map a canonical key's trace describes: its class representative.

    Edge k (named a, b, ...) is the k-th dart pair in trace order, its
    lower trace dart becoming dart 2k; vertices v1, v2, ... are the
    trace's sigma-cycles in the order of their least trace dart.  So
    every member of a class yields the identical map object.  In the
    reflection-allowed sense the representative may be a mirror image.
    """
    n = len(trace) // 2
    sigma, alpha = trace[0::2], trace[1::2]
    dart = [None] * n  # trace dart -> map dart
    pairs = [d for d in range(n) if d < alpha[d]]
    for k, d in enumerate(pairs):
        dart[d], dart[alpha[d]] = 2 * k, 2 * k + 1
    vertex, cycles = _cycles(sigma)
    vertices = tuple(f"v{i + 1}" for i in range(len(cycles)))
    origin: list = [None] * n
    new_sigma = [None] * n
    for d in range(n):
        origin[dart[d]] = vertices[vertex[d]]
        new_sigma[dart[d]] = dart[sigma[d]]
    edges = tuple(_edge_label(k) for k in range(len(pairs)))
    return EmbeddedMap(vertices, edges, tuple(new_sigma), tuple(origin))


def _edge_label(k: int) -> str:
    if k < 26:
        return chr(ord("a") + k)
    return f"e{k + 1}"


def are_equivalent(a: EmbeddedMap, b: EmbeddedMap,
                   allow_reflection: bool = True) -> IsoResult:
    """Equivalence test returning an explicit dart bijection when it holds.

    The witness f satisfies f(alpha(d)) = alpha(f(d)) and either
    f(sigma(d)) = sigma_b(f(d)) or, when reflected, f(sigma(d)) =
    sigma_b^{-1}(f(d)).
    """
    if _checked(a).n_darts != _checked(b).n_darts:
        return IsoResult(False)
    ta, order_a, mir_a = _best_trace_sided(a, allow_reflection)
    # b's search prunes every root whose trace exceeds a's key
    tb, order_b, mir_b = _best_trace_sided(b, allow_reflection, ta)
    if order_b is None or tb != ta:
        return IsoResult(False)
    pos_a = {d: i for i, d in enumerate(order_a)}
    f = tuple(order_b[pos_a[d]] for d in range(a.n_darts))
    reflected = mir_a != mir_b
    target = mirror(b).sigma if reflected else b.sigma
    for d in range(a.n_darts):
        if f[a.sigma[d]] != target[f[d]] or f[d ^ 1] != f[d] ^ 1:
            raise WitnessError(f"equivalence witness fails at dart {d}")
    return IsoResult(True, f, reflected)
