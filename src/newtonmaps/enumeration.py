"""Exhaustive enumeration and classification of toroidal Newton graphs.

The search frame: loopless multigraphs on r labeled vertices with 2r
edges, described by edge-multiplicity vectors over the unordered vertex
pairs, with every degree at least 2 (a degree-1 vertex forces a facial
walk through its pendant edge twice, so the pruning loses nothing); for
each multigraph, all rotation systems with the first dart of every
vertex rotation fixed (global canonical deduplication absorbs the
rotational redundancy).  A vector's candidates share one validation
report, since the vector decides it.  Kept maps are those whose Newton
verdict passes.  Workers key kept maps in the orientation-preserving
(OP) sense, which searches one chirality, until a certificate is met: by
orbit-stabilizer, the OP classes found, weighted by their automorphism
counts, account for every kept map of the vector (see _scan_vector).
The OP classes are then joined into reflection-allowed classes, each
recording how many OP classes it holds.

Everything downstream of the candidate stream is deterministic: class
representatives are decoded from their canonical keys, so the atlas
bytes do not depend on enumeration order or worker count.
"""

from __future__ import annotations

import json
import os
import warnings
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, fields, replace
from itertools import (chain, combinations, combinations_with_replacement,
                       groupby, permutations, product, repeat)
from math import factorial, prod
from operator import itemgetter
from typing import (Iterator, Optional, Sequence, get_args, get_origin,
                    get_type_hints)

from .canon import (CanonicalKey, canonical_key, _count_isomorphisms,
                    _edge_label, _map_from_trace)
from .duality import dual
from .embedded_map import (EmbeddedMap, UnsuitableMapError, degree_sequence,
                           face_degree_sequence, facial_walks, mirror, validate)
from .mapdoc import ParseError, _json_text, parse, serialize
from .newton import _accepted_verdict, is_newton


class UnsupportedOrderError(ValueError):
    pass


class ClassificationMismatchError(RuntimeError):
    """The computed classification contradicts its own invariants."""


@dataclass(frozen=True)
class AtlasEntry:
    order: int
    key: CanonicalKey            # reflection-allowed
    key_op: CanonicalKey         # orientation-preserving key of the representative
    representative: EmbeddedMap  # decoded from key
    delta: tuple[int, ...]
    delta_star: tuple[int, ...]
    max_face: int
    vertex_pattern_on_max_face: tuple[int, ...]
    self_dual: bool
    self_dual_op: bool
    dual_key: CanonicalKey
    op_forms: int                # orientation-preserving classes inside this class
    verdict: str                 # newton | e-only
    paper_label: Optional[str] = None
    label_ambiguous: bool = False


@dataclass(frozen=True)
class SelfDuality:
    reflective: bool
    orientation_preserving: bool


@dataclass(frozen=True)
class Stratum:
    max_face: int
    vertex_pattern: tuple[int, ...]
    classes: int


@dataclass(frozen=True)
class ClassificationReport:
    order: int
    count_op: int
    count_refl: int
    count_dual: int
    self_dual_count: int
    dual_pairs: tuple[tuple[str, str], ...]  # key hex pairs, lexicographic
    strata: tuple[Stratum, ...]


def _multiplicity_vectors(order: int, min_degree: int) -> list[tuple[int, ...]]:
    """Edge counts per vertex pair of the 2r-edge multigraphs, sorted."""
    pairs = list(combinations(range(order), 2))
    out = []
    for edges in combinations_with_replacement(pairs, 2 * order):
        deg = Counter(chain.from_iterable(edges))
        if all(deg[v] >= min_degree for v in range(order)):
            out.append(tuple(edges.count(p) for p in pairs))
    return sorted(out)


def _vector_candidates(order: int, mult: tuple[int, ...]) -> Iterator[EmbeddedMap]:
    pairs = combinations(range(order), 2)
    # dart -> vertex index; darts 2k and 2k+1 of edge k sit at its pair's ends
    ends = [i for p, c in zip(pairs, mult) for _ in range(c) for i in p]
    vertices = tuple(f"v{i + 1}" for i in range(order))
    edges = tuple(_edge_label(k) for k in range(2 * order))
    origin = tuple(vertices[i] for i in ends)
    # darts vertex by vertex, in dart order at each; every vertex has darts
    by_vertex = sorted(range(len(ends)), key=ends.__getitem__)
    darts_at = [list(darts) for _, darts in groupby(by_vertex, ends.__getitem__)]
    # first dart of each rotation pinned; each rotation as its darts' next darts
    cycles = [[(d0,) + tail for tail in permutations(rest)] for d0, *rest in darts_at]
    rotations = [[tuple(n for _, n in sorted(zip(c, c[1:] + c[:1]))) for c in cs]
                 for cs in cycles]
    # one rotation per vertex, joined, lists sigma over the darts vertex by vertex
    to_darts = itemgetter(*map(by_vertex.index, range(len(ends))))
    sigmas = map(to_darts, map(sum, product(*rotations), repeat(())))
    first = EmbeddedMap(vertices, edges, next(sigmas), origin)
    yield first
    yield from first._siblings(sigmas)


def _scan_vector(args) -> set:
    """Worker: the OP key traces of one vector's Newton maps.

    The vertex relabelings that fix the vector, each with every
    relabeling of the parallel edges, permute its candidates, and their
    orbits are its OP classes: by orbit-stabilizer a class with |Aut+|
    automorphisms holds _relabelings(v)/|Aut+| of the accepted
    candidates.  So the accepted candidates are keyed in order only until
    the classes found hold all of them.
    Keys carry no labels, so the union of the results of any partition
    of the vectors is the same set.
    """
    order, mult = args
    # validate looks up the vector's one report and is_newton refuses what it
    # refuses, but perfbench's traced funnel counts these calls (ROADMAP item 1b)
    accepted = [m for m in _vector_candidates(order, mult)
                if validate(m).ok and is_newton(m).verdict != "not-newton"]
    weight = _relabelings(order, mult)
    left = len(accepted)  # accepted candidates in no class found yet
    found = set()
    for m in accepted:
        if not left:
            break
        trace = canonical_key(m, False).trace
        if trace in found:
            continue
        found.add(trace)
        aut = _count_isomorphisms(m.sigma, m.sigma)
        if aut < 1 or weight % aut:
            raise ClassificationMismatchError(
                f"vector {mult}: {aut} automorphisms do not divide {weight} "
                "relabelings")
        left -= weight // aut
        if left < 0:
            raise ClassificationMismatchError(
                f"vector {mult}: classes hold more than its {len(accepted)} "
                "accepted candidates")
    if left:
        raise ClassificationMismatchError(
            f"vector {mult}: classes hold {len(accepted) - left} of its "
            f"{len(accepted)} accepted candidates")
    return found


def _relabelings(order: int, mult: tuple[int, ...]) -> int:
    """stab(v)·∏ m_ij!: the vertex permutations that fix vector mult, each
    with every permutation of the parallel edges of each pair."""
    pairs = list(combinations(range(order), 2))
    index = {p: k for k, p in enumerate(pairs)}
    stab = sum(all(mult[index[min(p[i], p[j]), max(p[i], p[j])]] == c
                   for (i, j), c in zip(pairs, mult))
               for p in permutations(range(order)))
    return stab * prod(map(factorial, mult))


def _resolve_jobs(jobs: int, n_tasks: int) -> int:
    """Worker count: the request, at most one per CPU and one per task."""
    return max(1, min(jobs, os.cpu_count() or 1, n_tasks))


def enumerate_newton(order: int, jobs: int = 1) -> tuple[AtlasEntry, ...]:
    """All Newton maps of the given order, one atlas entry per class.

    Orders 2 and 3 are fully certified; for order >= 4 the angle
    condition has no implemented criterion, so enumeration proceeds in
    e-only mode behind a warning and entries carry verdict "e-only".
    Entries are sorted by key, labeled at order 3, and independent of job
    count: the atlas as `classify --out` writes it.
    """
    if order < 2:
        raise UnsupportedOrderError(f"order {order} < 2 has no Newton graphs")
    if _accepted_verdict(order) == "e-only":
        warnings.warn(f"order {order}: angle condition unavailable; "
                      "running in e-only mode", stacklevel=2)
    tasks = [(order, mult) for mult in _multiplicity_vectors(order, 2)]
    jobs = _resolve_jobs(jobs, len(tasks))
    if jobs == 1:
        results = map(_scan_vector, tasks)
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scan_vector, tasks))
    op_traces = set().union(*results)
    traces = {canonical_key(_map_from_trace(t), True).trace for t in op_traces}
    entries = _derive_atlas([_map_from_trace(t) for t in sorted(traces)])
    n_op = sum(e.op_forms for e in entries)  # each from its representative
    if len(op_traces) != n_op:
        raise ClassificationMismatchError(f"{len(op_traces)} OP keys, {n_op} OP forms")
    return entries


def _derive_atlas(reps: Sequence[EmbeddedMap]) -> tuple[AtlasEntry, ...]:
    """The atlas of the classes reps stand for, labeled at order 3: the one
    place atlas entries are built.  Each representative must be the map its
    own key decodes to."""
    entries = tuple(map(_atlas_entry, reps))
    for e in entries:
        if e.representative != _map_from_trace(e.key.trace):
            raise ClassificationMismatchError(
                f"entry {e.key.hex()[:12]}: representative is not the map "
                "its key describes")
    if any(e.order == 3 for e in entries):
        return label_atlas(entries)
    return entries


def _atlas_entry(rep: EmbeddedMap) -> AtlasEntry:
    """The unlabeled atlas entry of rep's class: every field derives from rep."""
    delta_star = face_degree_sequence(rep)
    max_face = delta_star[0]
    pattern = max(
        tuple(sorted(Counter(rep.dart_origin[d] for d in w).values(), reverse=True))
        for w in facial_walks(rep) if len(w) == max_face)
    return AtlasEntry(
        order=rep.order,
        representative=rep,
        delta=degree_sequence(rep),
        delta_star=delta_star,
        max_face=max_face,
        vertex_pattern_on_max_face=pattern,
        verdict=_accepted_verdict(rep.order),
        **_duality_fields(rep),
    )


def _duality_fields(m: EmbeddedMap) -> dict:
    """The key and duality fields of m's atlas entry, by AtlasEntry name."""
    key = canonical_key(m, True)
    d = dual(m)
    dual_key = canonical_key(d, True)
    # every rotation system is a candidate and mirroring keeps the Newton
    # conditions, so the class's OP classes are those of m and its mirror
    return dict(key=key, key_op=canonical_key(m, False), dual_key=dual_key,
                self_dual=dual_key == key,
                self_dual_op=_count_isomorphisms(m.sigma, d.sigma) > 0,
                op_forms=1 if _count_isomorphisms(m.sigma, mirror(m).sigma) else 2)


def self_duality(m: EmbeddedMap) -> SelfDuality:
    """Whether a Newton map is equivalent to its dual, in both senses."""
    verdict = is_newton(m).verdict
    if verdict != "newton":
        raise UnsuitableMapError(f"self-duality is defined for Newton graphs; "
                                 f"verdict here is {verdict!r}")
    f = _duality_fields(m)
    return SelfDuality(f["self_dual"], f["self_dual_op"])


def _dual_partners(entries: Sequence[AtlasEntry]) -> list[AtlasEntry]:
    """Each entry's dual entry, in entry order (a self-dual entry's is itself)."""
    by_key = {e.key: e for e in entries}
    if len(by_key) != len(entries):
        raise ClassificationMismatchError("atlas lists a class more than once")
    for e in entries:
        if e.dual_key not in by_key:
            raise ClassificationMismatchError(
                f"dual of class {e.key.hex()[:12]} missing from atlas")
    return [by_key[e.dual_key] for e in entries]


def _stands_for_itself(e: AtlasEntry, partner: AtlasEntry) -> bool:
    """A class is counted in its own stratum, and labeled as itself rather
    than as its dual partner's dual, iff its maximum face is at least its
    partner's; so self-dual classes always are, and both of a tied pair."""
    return e.max_face >= partner.max_face


def classify(entries: Sequence[AtlasEntry]) -> ClassificationReport:
    if not entries:
        raise ClassificationMismatchError("empty atlas")
    order = entries[0].order
    if any(e.order != order for e in entries):
        raise ClassificationMismatchError("mixed orders in atlas")
    partners = _dual_partners(entries)
    pairs = sorted((e.key.hex(), p.key.hex())
                   for e, p in zip(entries, partners) if e.key < p.key)
    self_dual = sum(p is e for e, p in zip(entries, partners))
    # per (max_face, vertex_pattern), not counting duals-of: each dual pair
    # contributes one class, or both when tied
    tally = Counter((e.max_face, e.vertex_pattern_on_max_face)
                    for e, p in zip(entries, partners) if _stands_for_itself(e, p))
    strata = tuple(Stratum(mf, pat, count)
                   for (mf, pat), count in sorted(tally.items(), reverse=True))
    return ClassificationReport(
        order=order,
        count_op=sum(e.op_forms for e in entries),
        count_refl=len(entries),
        count_dual=self_dual + len(pairs),
        self_dual_count=self_dual,
        dual_pairs=tuple(pairs),
        strata=strata,
    )


def _base_label(e: AtlasEntry) -> str:
    case = {6: "case1", 5: "case2", 4: "case3"}.get(e.max_face)
    if case is None:
        raise ClassificationMismatchError(
            f"order-3 maximum face {e.max_face} outside 4..6")
    faces = "".join(str(x) for x in e.delta_star)
    degs = "".join(str(x) for x in e.delta)
    label = f"{case}-f{faces}-d{degs}"
    if e.self_dual:
        label += "-selfdual"
    if e.op_forms == 2:
        label += "-chiral"
    return label


def label_atlas(entries: Sequence[AtlasEntry]) -> tuple[AtlasEntry, ...]:
    """Entries labeled against the published order-3 case taxonomy.

    Labels are built from the invariant vector (max face, face and degree
    multisets, self-duality, chirality); a class whose maximum face is
    smaller than its dual partner's is labeled as that partner's dual.
    Classes an invariant vector cannot separate share a label and are
    flagged ambiguous instead of being matched to individual drawings.
    Counts inconsistent with the established classification (12 classes,
    9 up to duality) are a hard failure.
    """
    report = classify(entries)
    if report.order != 3:
        raise ClassificationMismatchError("paper matching is defined for order 3")
    if report.count_refl != 12 or report.count_dual != 9:
        raise ClassificationMismatchError(
            f"expected 12 classes with 9 duality classes, got {report.count_refl} "
            f"with {report.count_dual}")
    partners = _dual_partners(entries)

    labels = [_base_label(e) if _stands_for_itself(e, p) else _base_label(p) + "-dual"
              for e, p in zip(entries, partners)]
    counts = Counter(labels)
    return tuple(replace(e, paper_label=lab, label_ambiguous=counts[lab] > 1)
                 for e, lab in zip(entries, labels))


# ---------------------------------------------------------------------------
# atlas and report serialization

# The record is AtlasEntry's fields by name, as JSON, under one rule: a map
# or key is held as its one text, as serialize() or hex() writes it, and a
# key is read back in the sense named here.
_KEY_SENSES = {"key": True, "key_op": False, "dual_key": True}
_HINTS = get_type_hints(AtlasEntry)


def entry_to_json_dict(e: AtlasEntry) -> dict:
    rec = {f.name: getattr(e, f.name) for f in fields(AtlasEntry)}
    rec["representative"] = serialize(e.representative)
    for name in _KEY_SENSES:
        rec[name] = rec[name].hex()
    return {name: list(v) if type(v) is tuple else v for name, v in rec.items()}


def atlas_to_jsonl(entries: Sequence[AtlasEntry]) -> str:
    lines = [json.dumps(entry_to_json_dict(e), sort_keys=True,
                        separators=(",", ":"))
             for e in sorted(entries, key=lambda e: e.key.hex())]
    return "\n".join(lines) + "\n"


def _field(name: str, value):
    """Record field name as AtlasEntry holds it, if JSON decoded value as
    the field's kind (a tuple's is a list of integers)."""
    hint = _HINTS[name]
    if hint in (CanonicalKey, EmbeddedMap):
        kinds = (str,)
    elif get_origin(hint) is tuple:
        kinds = (list,)
    else:
        kinds = get_args(hint) or (hint,)  # Optional[str]: (str, NoneType)
    # type(), not isinstance(): a JSON true must not pass for an integer
    if type(value) not in kinds or (
            type(value) is list and any(type(x) is not int for x in value)):
        want = "list of int" if list in kinds else kinds[0].__name__
        raise TypeError(f"field {name!r} should be {want}, not {value!r}")
    if hint is CanonicalKey:
        return CanonicalKey.from_hex(value, _KEY_SENSES[name])
    if hint is EmbeddedMap:
        try:
            m = parse(value)
        except ParseError as exc:  # its line counts lines of the field's text
            raise ValueError(f"field {name!r}: document {exc}") from None
        if serialize(m) != value:  # each map has one text, as each key does
            raise ValueError(f"field {name!r} is not as serialize() writes it")
        return m
    return tuple(value) if type(value) is list else value


def atlas_from_jsonl(text: str) -> tuple[AtlasEntry, ...]:
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if type(rec) is not dict:
                raise TypeError("record is not a JSON object")
            unknown = sorted(rec.keys() - {f.name for f in fields(AtlasEntry)})
            if unknown:
                raise TypeError(f"unknown field {unknown[0]!r}")
            values = {f.name: _field(f.name, rec[f.name] if f.default is MISSING
                                     else rec.get(f.name, f.default))
                      for f in fields(AtlasEntry)}
            entries.append(AtlasEntry(**values))
        except KeyError as exc:
            raise ParseError(f"atlas record lacks field {exc}", lineno) from None
        except (ValueError, TypeError) as exc:
            raise ParseError(f"bad atlas record: {exc}", lineno) from None
    return tuple(entries)


def verify_atlas(entries: Sequence[AtlasEntry]) -> None:
    """Audit of a (possibly re-read) atlas.

    Each entry must equal, field by field and labels included, the entry
    that _derive_atlas builds from the atlas's representatives, and its
    representative must carry the entry's Newton verdict; the atlas must
    hold at least one class, all of one order, each once and together
    with its dual.
    """
    for e, want in zip(entries, _derive_atlas([e.representative for e in entries])):
        for f in fields(AtlasEntry):
            if getattr(e, f.name) != getattr(want, f.name):
                raise ClassificationMismatchError(
                    f"entry {e.key.hex()[:12]}: field {f.name!r} does not match "
                    "its representative")
        if is_newton(e.representative).verdict != e.verdict:
            raise ClassificationMismatchError(
                f"entry {e.key.hex()[:12]}: representative does not have "
                f"verdict {e.verdict!r}")
    classify(entries)


def report_to_json(r: ClassificationReport) -> str:
    return _json_text(asdict(r), "\n") + "\n"
