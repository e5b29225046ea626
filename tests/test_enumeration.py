"""Exhaustive enumeration, classification, labeling, and atlas files."""

import dataclasses
import itertools
import math
import os
import random
import warnings
from collections import Counter

import pytest

from _oracle import brute_force_iso, orbit_class_counts
from conftest import (FIXTURES, build_chiral, build_grid4, build_sphere_n2,
                      raw_candidates, run_cli)
from newtonmaps import (ClassificationMismatchError, EmbeddedMap, SelfDuality,
                        Stratum, UnsuitableMapError, UnsupportedOrderError,
                        atlas_from_jsonl, atlas_to_jsonl, canonical_key,
                        classify, dual, enumerate_newton, facial_walks,
                        is_newton, make_map, mirror, parse, report_to_json,
                        self_duality, serialize, validate, verify_atlas)
from newtonmaps import embedded_map, enumeration as en
from newtonmaps.canon import _count_isomorphisms, _map_from_trace
from newtonmaps.embedded_map import _cycles, _structure_report
from newtonmaps.enumeration import (_multiplicity_vectors, _orbits,
                                    _resolve_jobs, _scan_vector,
                                    _vector_candidates, label_atlas)

# every class of the order-3 table, as
# (delta_star, delta, self_dual, self_dual_op, op_forms) with multiplicity
ORDER3_TABLE = Counter({
    ((4, 4, 4), (4, 4, 4), True, True, 1): 1,
    ((4, 4, 4), (6, 3, 3), False, False, 1): 1,
    ((4, 4, 4), (6, 4, 2), False, False, 1): 1,
    ((5, 4, 3), (5, 4, 3), True, False, 2): 1,
    ((5, 4, 3), (5, 5, 2), False, False, 1): 1,
    ((5, 5, 2), (5, 4, 3), False, False, 1): 1,
    ((5, 5, 2), (5, 5, 2), True, False, 2): 1,
    ((5, 5, 2), (5, 5, 2), True, True, 1): 1,
    ((6, 3, 3), (4, 4, 4), False, False, 1): 1,
    ((6, 4, 2), (4, 4, 4), False, False, 1): 1,
    ((6, 4, 2), (6, 4, 2), True, True, 1): 2,
})

ORDER3_LABELS = Counter({
    "case1-f633-d444": 1,
    "case1-f633-d444-dual": 1,
    "case1-f642-d444": 1,
    "case1-f642-d444-dual": 1,
    "case1-f642-d642-selfdual": 2,
    "case2-f543-d543-selfdual-chiral": 1,
    "case2-f543-d552": 1,
    "case2-f552-d543": 1,
    "case2-f552-d552-selfdual": 1,
    "case2-f552-d552-selfdual-chiral": 1,
    "case3-f444-d444-selfdual": 1,
})


def test_candidates_are_valid_and_pinned():
    for m in raw_candidates(2):
        assert validate(m).ok
        assert m.vertices == ("v1", "v2")
        assert m.n_edges == 4


def test_multiplicity_vectors():
    assert _multiplicity_vectors(2, 2) == [(4,)]
    vecs = _multiplicity_vectors(3, 2)
    assert all(sum(v) == 6 for v in vecs)
    assert (2, 2, 2) in vecs
    assert (6, 0, 0) not in vecs  # degree of the opposite vertex would be 0
    loose = _multiplicity_vectors(3, 1)
    assert set(vecs) <= set(loose)
    assert (5, 1, 0) in loose


@pytest.mark.parametrize("order", [2, 3, 4])
def test_multiplicity_vectors_match_brute_force(order):
    pairs = list(itertools.combinations(range(order), 2))
    want = {1: [], 2: []}
    for vec in itertools.product(range(2 * order + 1), repeat=len(pairs)):
        if sum(vec) != 2 * order:
            continue
        deg = [0] * order
        for (i, j), c in zip(pairs, vec):
            deg[i] += c
            deg[j] += c
        for min_degree, vecs in want.items():
            if min(deg) >= min_degree:
                vecs.append(vec)
    for min_degree, vecs in want.items():
        assert _multiplicity_vectors(order, min_degree) == vecs


def test_vector_candidates_are_every_rotation_system_once():
    # first dart of each vertex pinned: (deg v - 1)! rotations per vertex
    for mult in _multiplicity_vectors(3, 1):
        maps = list(_vector_candidates(3, mult))
        assert len({m.sigma for m in maps}) == len(maps)
        first = maps[0]
        assert len(maps) == math.prod(
            math.factorial(first.dart_origin.count(v) - 1) for v in first.vertices)
        for m in maps:
            assert validate(m).ok
            assert (sorted(map(sorted, _cycles(m.sigma)[1]))
                    == sorted([d for d in range(m.n_darts) if m.dart_origin[d] == v]
                              for v in m.vertices))


def _multigraph_connected(order, mult):
    """Whether the vector's multigraph is connected, by a search over its
    vertex pairs."""
    reached = {0}
    for _ in range(order):
        reached |= {v for p, c in zip(itertools.combinations(range(order), 2), mult)
                    if c and reached & set(p) for v in p}
    return len(reached) == order


def test_vector_candidates_share_one_report():
    """The vector decides every structure check, so its candidates share
    one report, and it is each candidate's own: every candidate at orders
    2 and 3, the first five of each vector at order 4, whose 15
    disconnected vectors report only that.  At orders 2 and 3 each
    candidate also equals, hashes and prints as the map the constructor
    builds from its fields."""
    samples = [(o, mult, list(_vector_candidates(o, mult)))
               for o in (2, 3) for mult in _multiplicity_vectors(o, 2)]
    samples += [(4, mult, list(itertools.islice(_vector_candidates(4, mult), 5)))
                for mult in _multiplicity_vectors(4, 2)]
    assert [sum(o == k for o, _, _ in samples) for k in (2, 3, 4)] == [1, 19, 735]
    assert sum(len(maps) for _, _, maps in samples) == 36 + 9432 + 5 * 735
    fields = [f.name for f in dataclasses.fields(EmbeddedMap)]
    disconnected = []
    for order, mult, maps in samples:
        shared = validate(maps[0])
        for i, m in enumerate(maps):
            assert validate(m) is shared
            if order < 4:
                # a later candidate is built without the constructor, yet it
                # is the constructor's map and holds its fields and report only
                if i:
                    assert list(vars(m)) == fields + ["_report"]
                built = EmbeddedMap(m.vertices, m.edges, m.sigma, m.dart_origin)
                assert m == built and type(m) is EmbeddedMap
                assert hash(m) == hash(built) and repr(m) == repr(built)
            assert validate(m) == _structure_report(m)
        # no loops and no degree below 2: connectivity is the one check left
        assert shared.ok == _multigraph_connected(order, mult)
        if not shared.ok:
            disconnected.append(mult)
            assert [d.code for d in shared.defects] == ["disconnected"]
    assert len(disconnected) == 15 and (4, 0, 0, 0, 0, 4) in disconnected


def test_scan_builds_one_report_per_vector(monkeypatch):
    # per-candidate validate and is_newton stay for the traced funnel, but
    # the structure checks run once on each vector's first candidate
    origins = []
    real = embedded_map._structure_report
    monkeypatch.setattr(embedded_map, "_structure_report",
                        lambda m: origins.append(m.dart_origin) or real(m))
    vectors = _multiplicity_vectors(3, 2)
    for mult in vectors:
        _scan_vector((3, mult, _weight(3, mult)))
    assert len(vectors) == len(origins) == len(set(origins)) == 19


def _vertex_images(order, mult):
    """The vector's images under every vertex permutation, by relabeling
    its multigraph's edges."""
    pairs = list(itertools.combinations(range(order), 2))
    edges = [p for p, c in zip(pairs, mult) for _ in range(c)]
    images = set()
    for perm in itertools.permutations(range(order)):
        moved = Counter(tuple(sorted((perm[i], perm[j]))) for i, j in edges)
        images.add(tuple(moved[p] for p in pairs))
    return images


def _weight(order, mult):
    """stab(v)·∏ m_ij!, with stab(v) = r!/|orbit| by orbit-stabilizer."""
    return (math.factorial(order) // len(_vertex_images(order, mult))
            * math.prod(map(math.factorial, mult)))


# small connected order-4 vectors, keyed by stab(v): the vertex
# permutations that fix them number 1, 2, 4 and 8, and no 8-edge vector
# on four vertices is fixed by more
ORDER4_SAMPLE = {1: (0, 1, 2, 3, 1, 1), 2: (1, 1, 1, 1, 2, 2),
                 4: (1, 1, 1, 1, 1, 3), 8: (1, 1, 2, 2, 1, 1)}


def _scanned_vectors(order):
    """Every vector at orders 2 and 3; the sample at order 4."""
    if order == 4:
        return list(ORDER4_SAMPLE.values())
    return _multiplicity_vectors(order, 2)


def _accepted(order, mult):
    return [m for m in _vector_candidates(order, mult)
            if validate(m).ok and is_newton(m).verdict != "not-newton"]


@pytest.mark.parametrize("order, n_op", [(2, 1), (3, 14), (4, 47)])
def test_op_keyed_scan_matches_reflection_keys(order, n_op, request):
    """The scan, which stops keying a vector once its classes hold every
    accepted candidate, finds the OP classes that keying every accepted
    candidate finds; keyed with reflection allowed, they are the atlas's
    classes.  Every vector is keyed here, representative or not."""
    vectors = _scanned_vectors(order)
    accepted = [m for mult in vectors for m in _accepted(order, mult)]
    every = {canonical_key(m, True) for m in accepted}
    op = set().union(*(_scan_vector((order, mult, _weight(order, mult)))[1]
                       for mult in vectors))
    assert op == {canonical_key(m, False).trace for m in accepted}
    assert len(op) == n_op
    assert {canonical_key(_map_from_trace(t), True) for t in op} == every
    if order == 4:  # no order-4 atlas
        return
    atlas = request.getfixturevalue(f"atlas{order}")
    assert {e.key for e in atlas} == every
    assert sum(e.op_forms for e in atlas) == n_op


@pytest.mark.parametrize("order, total", [(2, 6), (3, 1372), (4, 588)])
def test_classes_hold_each_vector_s_accepted_candidates(order, total):
    # orbit-stabilizer: in each vector, the class of a map with |Aut+|
    # automorphisms holds stab(v)·∏ m_ij!/|Aut+| accepted candidates
    seen = 0
    for mult in _scanned_vectors(order):
        members = Counter()
        sigma_of = {}
        for m in _accepted(order, mult):
            trace = canonical_key(m, False).trace
            members[trace] += 1
            sigma_of.setdefault(trace, m.sigma)
        weight = _orbits(order, [mult])[mult][1]
        for trace, count in members.items():
            sigma = sigma_of[trace]
            assert count * _count_isomorphisms(sigma, sigma) == weight
        seen += sum(members.values())
    assert seen == total
    if order == 4:  # the weights hold, so the sample's stab(v) are as named
        assert [_orbits(4, [mult])[mult][1] // math.prod(map(math.factorial, mult))
                for mult in ORDER4_SAMPLE.values()] == list(ORDER4_SAMPLE)


def test_scan_keys_until_the_classes_hold_every_candidate(monkeypatch):
    import newtonmaps.enumeration as en
    keyed = []

    def counting(m, allow_reflection):
        keyed.append(m)
        return canonical_key(m, allow_reflection)

    monkeypatch.setattr(en, "canonical_key", counting)
    for order, keys in ((2, 1), (3, 31)):  # of 6 and 1372 accepted
        keyed.clear()
        orbits = _orbits(order, _multiplicity_vectors(order, 2))
        for mult, (least, weight, _) in orbits.items():
            _scan_vector((order, mult, weight if mult == least else 0))
        assert len(keyed) == keys


@pytest.mark.parametrize("delta", [1, -1])
def test_miscounted_automorphisms_are_a_mismatch(monkeypatch, tmp_path, delta):
    import newtonmaps.enumeration as en
    monkeypatch.setattr(en, "_count_isomorphisms",
                        lambda sigma, tau: _count_isomorphisms(sigma, tau) + delta)
    with pytest.raises(ClassificationMismatchError, match="vector"):
        en.enumerate_newton(3)
    code, _, err = run_cli("classify", "--order", "3", "--out", str(tmp_path))
    assert code == 4
    assert "internal consistency failure: vector" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scale, reason", [
    (2, "hold more than its"), (0.5, "hold 20 of its 40")])
def test_misweighted_vector_is_a_mismatch(scale, reason):
    with pytest.raises(ClassificationMismatchError, match=reason):
        _scan_vector((3, (2, 2, 2), int(_weight(3, (2, 2, 2)) * scale)))


def test_missing_op_class_is_a_mismatch(monkeypatch):
    # drop one mirror form of a chiral class: every reflection class is
    # still found, but 13 OP keys no longer match the classes' 14 forms
    import newtonmaps.enumeration as en
    op = set().union(*(_scan_vector((3, mult, _weight(3, mult)))[1]
                       for mult in _multiplicity_vectors(3, 2)))
    refl = {t: canonical_key(_map_from_trace(t), True) for t in op}
    forms = Counter(refl.values())
    dropped = next(t for t, key in refl.items() if forms[key] == 2)

    def dropping(task):
        count, traces = _scan_vector(task)
        return count, traces - {dropped}

    monkeypatch.setattr(en, "_scan_vector", dropping)
    with pytest.raises(ClassificationMismatchError, match="13 OP keys, 14 OP forms"):
        en.enumerate_newton(3)


@pytest.mark.parametrize("order, n_orbits", [(3, 5), (4, 46)])
def test_one_representative_per_orbit(order, n_orbits):
    vectors = _multiplicity_vectors(order, 2)
    orbits = _orbits(order, vectors)
    assert sorted(orbits) == vectors
    sizes = Counter(least for least, _, _ in orbits.values())
    assert len(sizes) == n_orbits and sum(sizes.values()) == len(vectors)
    for mult in vectors:
        images = _vertex_images(order, mult)
        least, weight, count = orbits[mult]
        assert least == min(images)
        if least == mult:
            assert sizes[mult] == len(images)
        assert weight == _weight(order, mult)
        assert count == _candidate_counts(order, mult)


def test_miscounted_non_representative_is_a_mismatch(monkeypatch, tmp_path):
    # (4, 2, 0) relabels (0, 2, 4), the least of its orbit, so both have
    # the same accepted count
    assert _orbits(3, _multiplicity_vectors(3, 2))[4, 2, 0][0] == (0, 2, 4)

    def miscounting(task):
        count, traces = _scan_vector(task)
        return count + (task[1] == (4, 2, 0)), traces

    monkeypatch.setattr(en, "_scan_vector", miscounting)
    with pytest.raises(ClassificationMismatchError,
                       match=r"vector \(4, 2, 0\): 121 .* \(0, 2, 4\) has 120"):
        en.enumerate_newton(3)
    code, _, err = run_cli("classify", "--order", "3", "--out", str(tmp_path))
    assert code == 4
    assert "internal consistency failure: vector (4, 2, 0)" in err
    assert list(tmp_path.iterdir()) == []


def _candidate_counts(order, mult):
    """∏ (deg v - 1)! from the vector's degree sequence."""
    deg = Counter()
    for p, c in zip(itertools.combinations(range(order), 2), mult):
        for v in p:
            deg[v] += c
    return math.prod(math.factorial(deg[v] - 1) for v in range(order))


@pytest.mark.parametrize("order", [3, 4])
def test_tasks_reach_the_pool_largest_first(monkeypatch, order):
    """The tasks come in falling candidate count, ties in vector order,
    each weighted iff its vector is its orbit's representative."""
    seen = []
    monkeypatch.setattr(en, "_scan_vector", lambda task: seen.append(task) or (0, set()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # order 4 is e-only
        assert en.enumerate_newton(order) == ()
    vectors = _multiplicity_vectors(order, 2)
    if order == 3:  # the counts are the candidates' own
        sizes = {mult: len(list(_vector_candidates(3, mult))) for mult in vectors}
        assert sizes == {mult: _candidate_counts(3, mult) for mult in vectors}
    assert seen == [
        (order, mult, _weight(order, mult) if min(_vertex_images(order, mult)) == mult
         else 0)
        for mult in sorted(vectors,
                           key=lambda mult: (-_candidate_counts(order, mult), mult))]


def test_order2_atlas(atlas2):
    assert len(atlas2) == 1
    e = atlas2[0]
    assert e.order == 2
    assert e.delta == (4, 4)
    assert e.delta_star == (4, 4)
    assert e.max_face == 4
    assert e.vertex_pattern_on_max_face == (2, 2)
    assert e.self_dual and e.self_dual_op
    assert e.op_forms == 1
    assert e.verdict == "newton"
    assert e.paper_label is None
    rep = e.representative
    assert all(len(w) == 4 for w in facial_walks(rep))


def test_order2_atlas_contains_fixture(n2, atlas2):
    assert atlas2[0].key == canonical_key(n2, True)
    assert serialize(atlas2[0].representative) == (FIXTURES / "n2.map").read_text()


@pytest.mark.parametrize("order, counts", [(2, (1, 1, 1)), (3, (14, 12, 9))])
def test_key_free_class_counts(order, counts, request):
    # (OP, reflection, duality) classes by the orbit-counting lemma, keyless
    assert orbit_class_counts(order) == counts
    report = classify(request.getfixturevalue(f"atlas{order}"))
    assert (report.count_op, report.count_refl, report.count_dual) == counts


def test_order3_atlas_table(atlas3):
    assert len(atlas3) == 12
    rows = Counter((e.delta_star, e.delta, e.self_dual, e.self_dual_op,
                    e.op_forms) for e in atlas3)
    assert rows == ORDER3_TABLE
    assert all(e.verdict == "newton" for e in atlas3)
    assert all(e.order == 3 for e in atlas3)


def test_order3_atlas_sorted_and_distinct(atlas3):
    hexes = [e.key.hex() for e in atlas3]
    assert hexes == sorted(hexes)
    assert len(set(hexes)) == 12
    assert len({e.key_op.hex() for e in atlas3}) == 12


def test_order3_strata(atlas3):
    assert classify(atlas3).strata == (
        Stratum(max_face=6, vertex_pattern=(3, 2, 1), classes=2),
        Stratum(max_face=6, vertex_pattern=(2, 2, 2), classes=2),
        Stratum(max_face=5, vertex_pattern=(2, 2, 1), classes=5),
        Stratum(max_face=4, vertex_pattern=(2, 1, 1), classes=1),
    )


def test_order3_dual_closure(atlas3):
    by_key = {e.key.hex(): e for e in atlas3}
    for e in atlas3:
        partner = by_key[e.dual_key.hex()]
        assert partner.dual_key.hex() == e.key.hex()
        assert e.self_dual == (e.key == e.dual_key)
        assert partner.delta == e.delta_star
        assert partner.delta_star == e.delta


def test_self_duality_senses(case1, case3):
    sd = self_duality(case3)
    assert sd.reflective and sd.orientation_preserving
    sd = self_duality(case1)
    assert not sd.reflective and not sd.orientation_preserving


def test_self_duality_chiral_class():
    m = build_chiral()
    sd = self_duality(m)
    assert sd.reflective
    assert not sd.orientation_preserving


def test_self_duality_requires_newton_verdict():
    with pytest.raises(UnsuitableMapError, match="not-newton"):
        self_duality(build_sphere_n2())
    with pytest.raises(UnsuitableMapError, match="e-only"):
        self_duality(build_grid4())


def test_self_duality_takes_any_names():
    # the chiral class with integer names, which no map document can hold
    m = make_map([(0, (1, 2)), (1, (1, 3)), (2, (2, 3)), (3, (2, 3)),
                  (4, (2, 3)), (5, (2, 3))],
                 {1: [0, 1], 2: [0, 2, 3, 4, 5], 3: [1, 2, 3, 5, 4]})
    assert self_duality(m) == SelfDuality(True, False)


def test_duality_fields_match_brute_force(atlas2, atlas3):
    # decided without keys: each representative against its dual and mirror
    for e in atlas2 + atlas3:
        rep = e.representative
        d = dual(rep)
        assert e.self_dual == brute_force_iso(rep, d, True)
        assert e.self_dual_op == brute_force_iso(rep, d, False)
        assert e.op_forms == (1 if brute_force_iso(rep, mirror(rep), False) else 2)
        assert self_duality(rep) == SelfDuality(e.self_dual, e.self_dual_op)


def test_order3_representatives_are_canonical(atlas3):
    for e in atlas3:
        doc = serialize(e.representative)
        m = parse(doc)
        assert m == e.representative and serialize(m) == doc
        assert canonical_key(m, True) == e.key
        assert canonical_key(m, False) == e.key_op
        assert is_newton(m).verdict == "newton"


def test_known_maps_hit_their_classes(case1, case3, atlas3):
    by_key = {e.key.hex(): e for e in atlas3}
    e1 = by_key[canonical_key(case1, True).hex()]
    assert e1.delta == (4, 4, 4)
    assert e1.delta_star == (6, 3, 3)
    assert e1.paper_label == "case1-f633-d444"
    e3 = by_key[canonical_key(case3, True).hex()]
    assert e3.paper_label == "case3-f444-d444-selfdual"
    ch = by_key[canonical_key(build_chiral(), True).hex()]
    assert ch.paper_label == "case2-f552-d552-selfdual-chiral"
    assert ch.op_forms == 2


def test_labels(atlas3):
    assert Counter(e.paper_label for e in atlas3) == ORDER3_LABELS
    ambiguous = [e for e in atlas3 if e.label_ambiguous]
    assert len(ambiguous) == 2
    assert {e.paper_label for e in ambiguous} == {"case1-f642-d642-selfdual"}


def test_label_matching_rejects_wrong_shapes(atlas2, atlas3):
    with pytest.raises(ClassificationMismatchError):
        label_atlas(atlas2)
    # dropping a self-dual class keeps the pairing closed but breaks the count
    sd = next(e for e in atlas3 if e.self_dual)
    rest = [e for e in atlas3 if e.key != sd.key]
    with pytest.raises(ClassificationMismatchError, match="expected 12"):
        label_atlas(rest)
    # a self-dual class is labeled by its own maximum face, which must be 4..6
    odd = [dataclasses.replace(e, max_face=7) if e is sd else e for e in atlas3]
    with pytest.raises(ClassificationMismatchError, match="maximum face 7 outside 4..6"):
        label_atlas(odd)


@pytest.mark.parametrize("counts", [dict(count_refl=11), dict(count_dual=8)],
                         ids=["classes", "duality-classes"])
def test_label_matching_rejects_one_wrong_count(monkeypatch, atlas3, counts):
    # either count wrong alone is a failure, the other as published
    report = dataclasses.replace(classify(atlas3), **counts)
    monkeypatch.setattr(en, "classify", lambda entries: report)
    with pytest.raises(ClassificationMismatchError, match="expected 12"):
        label_atlas(atlas3)


def test_enumeration_deduplicates_against_brute_force(atlas3):
    rng = random.Random(17)
    newts = [m for m in raw_candidates(3)
             if is_newton(m).verdict == "newton"]
    by_key = {e.key.hex(): e for e in atlas3}
    for m in rng.sample(newts, 60):
        entry = by_key[canonical_key(m, True).hex()]
        assert brute_force_iso(m, entry.representative, True)


def test_atlas_entries_pairwise_inequivalent(atlas3):
    reps = [e.representative for e in atlas3]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not brute_force_iso(reps[i], reps[j], True)


def test_atlas_jsonl_round_trip(atlas2, atlas3):
    for atlas in (atlas2, atlas3):
        text = atlas_to_jsonl(atlas)
        back = atlas_from_jsonl(text)
        # every field, representative maps and labels included
        assert back == tuple(atlas)
        verify_atlas(back)
        assert atlas_to_jsonl(back) == text


def test_atlas_matches_committed_golden(atlas2, atlas3):
    assert atlas_to_jsonl(atlas2) == (FIXTURES / "atlas_order2.jsonl").read_text()
    assert atlas_to_jsonl(atlas3) == (FIXTURES / "atlas_order3.jsonl").read_text()


def test_report_matches_committed_golden(atlas2, atlas3):
    assert report_to_json(classify(atlas2)) == (
        FIXTURES / "classification_order2.json").read_text()
    assert report_to_json(classify(atlas3)) == (
        FIXTURES / "classification_order3.json").read_text()


def test_verify_atlas_catches_tampering(atlas3):
    flipped = list(atlas3)
    flipped[0] = dataclasses.replace(flipped[0],
                                     self_dual=not flipped[0].self_dual)
    with pytest.raises(ClassificationMismatchError, match="self_dual"):
        verify_atlas(flipped)

    non_sd = next(e for e in atlas3 if not e.self_dual)
    pruned = [e for e in atlas3 if e.key != non_sd.key]
    with pytest.raises(ClassificationMismatchError, match="missing"):
        verify_atlas(pruned)
    with pytest.raises(ClassificationMismatchError, match="more than once"):
        verify_atlas(list(atlas3) + [atlas3[0]])


def test_resolve_jobs_is_clamped(monkeypatch):
    # a pure function of its inputs: no worker is started here
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _resolve_jobs(10**6, 19) == 2
    assert _resolve_jobs(2, 19) == 2
    assert _resolve_jobs(10**6, 1) == 1
    assert _resolve_jobs(0, 19) == 1
    assert _resolve_jobs(-5, 0) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _resolve_jobs(10**6, 19) == 1


def test_degree_pruning_loses_no_newton_map():
    # the vectors that the degree-2 pruning drops hold no Newton map
    dropped = set(_multiplicity_vectors(3, 1)) - set(_multiplicity_vectors(3, 2))
    assert len(dropped) == 6
    maps = [m for mult in sorted(dropped) for m in _vector_candidates(3, mult)]
    assert len(maps) == 17280
    assert all(is_newton(m).verdict == "not-newton" for m in maps)


def test_unsupported_orders():
    with pytest.raises(UnsupportedOrderError):
        enumerate_newton(1)


def test_order4_warns_e_only(monkeypatch):
    monkeypatch.setattr(en, "_multiplicity_vectors", lambda order, md: [])
    with pytest.warns(UserWarning, match="e-only") as warned:
        entries = en.enumerate_newton(4)
    assert entries == ()
    # the warning points at the caller of enumerate_newton
    assert [w.filename for w in warned] == [__file__]


def test_classify_rejects_mixed_input(atlas2, atlas3):
    with pytest.raises(ClassificationMismatchError, match="mixed"):
        classify(list(atlas2) + list(atlas3))
    with pytest.raises(ClassificationMismatchError, match="empty"):
        classify([])
