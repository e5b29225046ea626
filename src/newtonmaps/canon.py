"""Canonical labeling and isomorphism of oriented maps.

Two maps are orientation-preserving equivalent when a dart bijection
conjugates sigma to sigma and alpha to alpha; allowing reflection also
admits conjugating sigma to its inverse.  The canonical key is the
lexicographically least breadth-first trace over all root darts (and,
in the reflection-allowed sense, over both chiralities), so equal keys
mean equivalent maps and the key is independent of labeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .embedded_map import (EmbeddedMap, MapStructureError, UnsuitableMapError,
                           _cycles, mirror, validate)


class WitnessError(RuntimeError):
    """An equivalence witness failed its own check: an internal fault."""


@dataclass(frozen=True)
class CanonicalKey:
    trace: tuple[int, ...]
    allow_reflection: bool

    def hex(self) -> str:
        # one byte per entry; dart counts beyond 255 are out of scope here
        if any(x > 0xFF for x in self.trace):
            raise UnsuitableMapError("trace entries exceed one byte")
        return bytes(self.trace).hex()

    def __lt__(self, other: "CanonicalKey") -> bool:
        if self.allow_reflection != other.allow_reflection:
            raise TypeError("keys of different senses are not comparable")
        return self.trace < other.trace

    def __str__(self) -> str:
        return self.hex()


@dataclass(frozen=True)
class IsoResult:
    equivalent: bool
    dart_map: Optional[tuple[int, ...]] = None  # dart of a -> dart of b
    reflected: Optional[bool] = None

    def __bool__(self) -> bool:
        return self.equivalent


def _trace_from(sigma, root: int):
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


def _best_trace(sigma):
    """Least trace over all roots for a fixed chirality."""
    best = None
    best_order = None
    for root in range(len(sigma)):
        trace, order = _trace_from(sigma, root)
        if best is None or trace < best:
            best, best_order = trace, order
    return best, best_order


def _best_trace_sided(m: EmbeddedMap, allow_reflection: bool):
    """Returns (trace, order, mirrored) minimizing over permitted chiralities."""
    trace, order = _best_trace(m.sigma)
    mirrored = False
    if allow_reflection:
        trace2, order2 = _best_trace(mirror(m).sigma)
        if trace2 < trace:
            trace, order, mirrored = trace2, order2, True
    return trace, order, mirrored


def canonical_key(m: EmbeddedMap, allow_reflection: bool = True) -> CanonicalKey:
    if not validate(m).ok:
        raise MapStructureError("cannot key an invalid map")
    trace, _, _ = _best_trace_sided(m, allow_reflection)
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
    dart = [0] * n  # trace dart -> map dart
    pairs = [d for d in range(n) if d < alpha[d]]
    for k, d in enumerate(pairs):
        dart[d], dart[alpha[d]] = 2 * k, 2 * k + 1
    cycles = _cycles(sigma)
    vertices = tuple(f"v{i + 1}" for i in range(len(cycles)))
    origin: list = [None] * n
    for v, cyc in zip(vertices, cycles):
        for d in cyc:
            origin[dart[d]] = v
    new_sigma = [0] * n
    for d in range(n):
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
    if not (validate(a).ok and validate(b).ok):
        raise MapStructureError("cannot compare an invalid map")
    if a.n_darts != b.n_darts:
        return IsoResult(False)
    ta, order_a, mir_a = _best_trace_sided(a, allow_reflection)
    tb, order_b, mir_b = _best_trace_sided(b, allow_reflection)
    if ta != tb:
        return IsoResult(False)
    pos_a = {d: i for i, d in enumerate(order_a)}
    f = tuple(order_b[pos_a[d]] for d in range(a.n_darts))
    reflected = mir_a != mir_b
    target = mirror(b).sigma if reflected else b.sigma
    for d in range(a.n_darts):
        if f[a.sigma[d]] != target[f[d]] or f[d ^ 1] != f[d] ^ 1:
            raise WitnessError(f"equivalence witness fails at dart {d}")
    return IsoResult(True, f, reflected)
