"""Core map structure: construction, validation, walks."""

import random
from operator import ne

import pytest

from conftest import (build_efail_n2, build_loop_map, build_sphere_n2,
                      fixture_text)
from newtonmaps import (EmbeddedMap, MapStructureError, abstract_p_graph,
                        are_equivalent, canonical_key, degree_sequence, dual,
                        embedded_map, euler_characteristic,
                        face_degree_sequence, facial_walks, genus, is_newton,
                        make_map, mirror, newton, parse, refinement, relabel,
                        validate)
from newtonmaps.enumeration import _multiplicity_vectors, _vector_candidates
from _oracle import (circuit_multiset, euler_from_doc, structure_report,
                     walk_circuits)


def test_dart_layout(n2):
    assert n2.n_darts == 8
    assert n2.order == 2
    assert n2.n_edges == 4
    assert n2.edges == ("a", "b", "c", "d")
    # alpha is d ^ 1: the two darts of an edge run between its ends
    assert [d ^ 1 for d in range(n2.n_darts)] == [1, 0, 3, 2, 5, 4, 7, 6]
    assert all(n2.edge_of(d) == n2.edge_of(d ^ 1)
               and {n2.dart_origin[d], n2.dart_origin[d ^ 1]} == {"v1", "v2"}
               for d in range(n2.n_darts))
    assert n2.edge_of(5) == "c"
    assert n2.endpoints(2) == ("v1", "v2")


def test_rotation_and_degree(n2):
    assert tuple(d for d in range(n2.n_darts)
                 if n2.dart_origin[d] == "v1") == (0, 2, 4, 6)
    assert n2.rotation_at("v1") == (0, 2, 4, 6)
    assert n2.rotation_at("v2") == (1, 3, 5, 7)
    assert n2.dart_origin.count("v1") == 4
    assert degree_sequence(n2) == (4, 4)


def test_facial_walks_n2(n2):
    walks = facial_walks(n2)
    assert len(walks) == 2
    assert walks[0] == (0, 3, 4, 7)
    assert tuple(n2.dart_origin[d] for d in walks[0]) == ("v1", "v2", "v1", "v2")
    assert tuple(n2.edge_of(d) for d in walks[0]) == ("a", "b", "c", "d")
    assert walks[1] == (1, 2, 5, 6)
    assert all(len(w) == 4 for w in walks)
    assert face_degree_sequence(n2) == (4, 4)
    assert euler_characteristic(n2) == 0
    assert genus(n2) == 1


def test_facial_walks_partition_darts(case1):
    walks = facial_walks(case1)
    assert all(type(w) is tuple and all(type(d) is int for d in w) for w in walks)
    seen = [d for w in walks for d in w]
    assert sorted(seen) == list(range(case1.n_darts))
    # each walk starts at its least dart, and walks are listed by that dart
    starts = [w[0] for w in walks]
    assert all(w[0] == min(w) for w in walks)
    assert starts == sorted(starts)


def test_case1_walks(case1):
    walks = facial_walks(case1)
    assert [tuple(case1.edge_of(d) for d in w) for w in walks] == [
        ("a", "b", "c", "d", "e", "f"),
        ("a", "c", "e"),
        ("b", "d", "f"),
    ]
    assert tuple(case1.dart_origin[d] for d in walks[0]) == (
        "v1", "v2", "v3", "v1", "v2", "v3")
    assert face_degree_sequence(case1) == (6, 3, 3)
    assert genus(case1) == 1


def test_sphere_variant():
    m = build_sphere_n2()
    assert face_degree_sequence(m) == (2, 2, 2, 2)
    assert euler_characteristic(m) == 2
    assert genus(m) == 0


def test_walks_agree_with_independent_reading(n2, case1, case3):
    for m in (n2, case1, case3, build_sphere_n2(), build_efail_n2(),
              build_loop_map()):
        from newtonmaps import serialize
        doc = serialize(m)
        assert circuit_multiset(walk_circuits(doc)) == circuit_multiset(
            [tuple(m.edge_of(d) for d in w) for w in facial_walks(m)])
        assert euler_from_doc(doc) == euler_characteristic(m)


def test_make_map_duplicate_edge():
    with pytest.raises(MapStructureError, match="duplicate edge"):
        make_map([("a", ("u", "v")), ("a", ("u", "v"))],
                 {"u": ["a", "a"], "v": ["a", "a"]})


def test_make_map_unknown_edge():
    with pytest.raises(MapStructureError, match="unknown edge"):
        make_map([("a", ("u", "v"))], {"u": ["z"], "v": ["a"]})


def test_make_map_loop_needs_selector():
    edges = [("a", ("u", "u")), ("b", ("u", "v"))]
    with pytest.raises(MapStructureError, match="end selector"):
        make_map(edges, {"u": ["a", "a", "b"], "v": ["b"]})
    m = make_map(edges, {"u": [("a", 0), ("a", 1), "b"], "v": ["b"]})
    assert m.n_darts == 4
    assert m.rotation_at("u") == (0, 1, 2)
    # an explicit end is allowed on a non-loop edge too
    assert make_map(edges, {"u": [("a", 0), ("a", 1), ("b", 0)], "v": ["b"]}) == m


def test_make_map_bad_selector():
    edges = [("a", ("u", "u")), ("b", ("u", "v"))]
    with pytest.raises(MapStructureError, match="bad end selector"):
        make_map(edges, {"u": [("a", 2), ("a", 1), "b"], "v": ["b"]})
    with pytest.raises(MapStructureError, match="not incident"):
        make_map(edges, {"u": [("a", 0), ("a", 1)], "v": [("b", 0)]})


def test_make_map_not_incident():
    with pytest.raises(MapStructureError, match="not incident"):
        make_map([("a", ("u", "v")), ("b", ("u", "v"))],
                 {"u": ["a", "b"], "v": ["a"], "w": ["b"]})


def test_make_map_dart_listed_twice():
    with pytest.raises(MapStructureError, match="listed twice"):
        make_map([("a", ("u", "v")), ("b", ("u", "v"))],
                 {"u": ["a", "a"], "v": ["a", "b"]})


def test_make_map_missing_darts():
    with pytest.raises(MapStructureError, match="never placed"):
        make_map([("a", ("u", "v")), ("b", ("u", "v"))],
                 {"u": ["a", "b"], "v": ["a"]})


def test_validate_ok(n2, case1, case3):
    for m in (n2, case1, case3):
        report = validate(m)
        assert report.ok
        assert report.defects == ()


def test_validate_disconnected():
    m = make_map(
        [("a", ("v1", "v2")), ("b", ("v1", "v2")),
         ("c", ("v3", "v4")), ("d", ("v3", "v4"))],
        {"v1": ["a", "b"], "v2": ["a", "b"], "v3": ["c", "d"], "v4": ["c", "d"]})
    report = validate(m)
    assert not report.ok
    assert [d.code for d in report.defects if not d.advisory] == ["disconnected"]


def test_validate_advisories():
    report = validate(build_loop_map())
    assert report.ok
    assert [d.code for d in report.defects if d.advisory] == ["loop-present"]

    path = make_map([("a", ("v1", "v2")), ("b", ("v2", "v3"))],
                    {"v1": ["a"], "v2": ["a", "b"], "v3": ["b"]})
    report = validate(path)
    assert report.ok
    assert [d.code for d in report.defects if d.advisory] == ["degree-one-vertex"]
    assert euler_characteristic(path) == 2


def test_validate_broken_sigma(n2):
    bad = EmbeddedMap(n2.vertices, n2.edges, (0,) * 8, n2.dart_origin)
    report = validate(bad)
    assert not report.ok
    assert "sigma-not-permutation" in [d.code for d in report.defects]


def test_validate_rejects_split_vertex(n2):
    # v1's rotation (0 2 4 6) cut into the two cycles (0 2)(4 6)
    sigma = list(n2.sigma)
    sigma[2], sigma[6] = 0, 4
    split = EmbeddedMap(n2.vertices, n2.edges, tuple(sigma), n2.dart_origin)
    report = validate(split)
    assert not report.ok
    assert [d.code for d in report.defects] == ["split-vertex"]
    with pytest.raises(MapStructureError, match="split-vertex"):
        genus(split)
    one_edge = EmbeddedMap(("u",), ("a",), (0, 1), ("u", "u"))
    assert [d.code for d in validate(one_edge).defects
            if not d.advisory] == ["split-vertex"]


def test_validate_empty():
    empty = EmbeddedMap((), (), (), ())
    report = validate(empty)
    assert not report.ok
    assert report.defects[0].code == "empty-map"


def _defective_copies(m, rng, every_fault: bool):
    """Copies of m with two sigma entries swapped and, with every_fault,
    with one more hand-made fault each: a sigma entry repeated, a dart
    moved to another vertex or to an unlisted one, an extra vertex and a
    vertex listed twice."""
    i, j = rng.sample(range(m.n_darts), 2)
    swapped = list(m.sigma)
    swapped[i], swapped[j] = m.sigma[j], m.sigma[i]
    yield EmbeddedMap(m.vertices, m.edges, tuple(swapped), m.dart_origin)
    if not every_fault:
        return
    repeated = list(m.sigma)
    repeated[i] = m.sigma[j]
    yield EmbeddedMap(m.vertices, m.edges, tuple(repeated), m.dart_origin)
    for v in (rng.choice([v for v in m.vertices if v != m.dart_origin[i]]), "w"):
        moved = m.dart_origin[:i] + (v,) + m.dart_origin[i + 1:]
        yield EmbeddedMap(m.vertices, m.edges, m.sigma, moved)
    yield EmbeddedMap(m.vertices + ("extra",), m.edges, m.sigma, m.dart_origin)
    yield EmbeddedMap(m.vertices + m.vertices[:1], m.edges, m.sigma, m.dart_origin)


def test_validate_matches_reference(n2):
    # the one-pass report against the set-based dart search it replaced:
    # ok, defect codes, messages and their order
    rng = random.Random(17)
    sigma = list(n2.sigma)
    sigma[2], sigma[6] = 0, 4
    maps = [
        EmbeddedMap(n2.vertices, n2.edges, tuple(sigma), n2.dart_origin),  # split
        make_map([(e, ("v1", "v2")) for e in "abcd"]
                 + [(e, ("v3", "v4")) for e in "efgh"],
                 {"v1": list("abcd"), "v2": list("abcd"),
                  "v3": list("efgh"), "v4": list("efgh")}),  # two tori
        build_loop_map(),
        make_map([("a", ("w", "w")), ("b", ("w", "w"))],
                 {"w": [("a", 0), ("b", 0), ("a", 1), ("b", 1)]}),  # two loops
        make_map([("a", ("v1", "v2")), ("b", ("v2", "v3"))],
                 {"v1": ["a"], "v2": ["a", "b"], "v3": ["b"]}),  # pendant
        EmbeddedMap(("u",), ("a",), (0, 1), ("u", "u")),
        EmbeddedMap(n2.vertices, n2.edges, n2.sigma, n2.dart_origin[:-1]),
        EmbeddedMap((), (), (), ()),
    ]
    candidates = [m for order in (2, 3) for mult in _multiplicity_vectors(order, 1)
                  for m in _vector_candidates(order, mult)]
    assert len(candidates) == 36 + 26712
    for k, m in enumerate(candidates):
        maps.append(m)
        maps += _defective_copies(m, rng, k % 10 == 0)
    codes = set()
    for m in maps:
        want = structure_report(m)
        assert validate(m) == want
        codes.update(d.code for d in want.defects)
    assert codes == {"empty-map", "length-mismatch", "sigma-not-permutation",
                     "duplicate-vertex", "origin-out-of-range",
                     "sigma-mixes-vertices", "isolated-vertex", "split-vertex",
                     "disconnected", "loop-present", "degree-one-vertex"}


def test_frame_facts_are_never_stale(n2):
    """Validation keeps the facts of the last frame (vertices and dart
    origins); maps that share sigma but not their frame, validated in
    turn, each get their own defects and messages."""
    loops = build_loop_map()
    moved = n2.dart_origin[:1] + ("v2",) + n2.dart_origin[2:]
    swapped = tuple(n2.dart_origin[d ^ 1] for d in range(n2.n_darts))
    fields = [
        (n2.vertices, n2.edges, n2.sigma, n2.dart_origin),
        (n2.vertices, n2.edges, n2.sigma, moved),  # mixes vertices
        (n2.vertices, n2.edges, n2.sigma, swapped),  # every edge reversed
        (n2.vertices + (1,), n2.edges, n2.sigma, n2.dart_origin),
        (n2.vertices + (True,), n2.edges, n2.sigma, n2.dart_origin),
        (n2.vertices + (1.0,), n2.edges, n2.sigma, n2.dart_origin),
        (n2.vertices + ("v1",), n2.edges, n2.sigma, n2.dart_origin),
        ((1, 2), n2.edges, n2.sigma, tuple(1 if v == "v1" else 2
                                           for v in n2.dart_origin)),
        ((True, 2), n2.edges, n2.sigma, tuple(True if v == "v1" else 2
                                              for v in n2.dart_origin)),
        (loops.vertices, (1,) + loops.edges[1:], loops.sigma, loops.dart_origin),
        (loops.vertices, (True,) + loops.edges[1:], loops.sigma, loops.dart_origin),
        (loops.vertices + (1,), loops.edges, loops.sigma, loops.dart_origin),
    ]
    for _ in range(2):
        for f in fields + fields[::-1]:
            m = EmbeddedMap(*f)  # a fresh map, so nothing is cached on it
            assert validate(m) == structure_report(m)
            rep = is_newton(EmbeddedMap(*f), 2)
            origin = f[3]
            assert rep.connected == validate(m).ok
            assert rep.loopless == (rep.connected
                                    and all(map(ne, origin[0::2], origin[1::2])))
            # the valid relabellings of n2 meet the order-2 bounds; the
            # loop map has 6 darts, not 8
            assert rep.degree_bounds == (rep.connected and len(f[0]) == 2
                                         and rep.loopless)
    messages = [[d.message for d in validate(EmbeddedMap(*f)).defects]
                for f in fields[3:6] + fields[9:]]
    assert messages == [
        ["vertex 1 has no darts"], ["vertex True has no darts"],
        ["vertex 1.0 has no darts"], ["edge 1 is a loop"],
        ["edge True is a loop"], ["vertex 1 has no darts", "edge 'a' is a loop"]]


def test_disjoint_tori_are_disconnected():
    # two order-2 tori side by side: four edges v1-v2 and four edges v3-v4
    assert (4, 0, 0, 0, 0, 4) in _multiplicity_vectors(4, 2)
    maps = list(_vector_candidates(4, (4, 0, 0, 0, 0, 4)))
    assert len(maps) == 6 ** 4
    assert len({id(validate(m)) for m in maps}) == 1  # the vector's one report
    for m in maps:
        assert validate(m) == structure_report(m)
        assert [d.code for d in validate(m).defects] == ["disconnected"]
        rep = is_newton(m, 4)
        assert not rep.connected and rep.verdict == "not-newton"


def test_facial_walks_require_valid_map():
    m = make_map(
        [("a", ("v1", "v2")), ("b", ("v1", "v2")),
         ("c", ("v3", "v4")), ("d", ("v3", "v4"))],
        {"v1": ["a", "b"], "v2": ["a", "b"], "v3": ["c", "d"], "v4": ["c", "d"]})
    with pytest.raises(MapStructureError, match="disconnected"):
        facial_walks(m)


def test_each_map_validates_and_traces_once(monkeypatch):
    reports, passes = [], []
    real_report, real_cycles = embedded_map._structure_report, embedded_map._cycles
    monkeypatch.setattr(embedded_map, "_structure_report",
                        lambda m: reports.append(m) or real_report(m))
    def counted(perm):
        passes.append(tuple(perm))
        return real_cycles(perm)
    for module in (embedded_map, newton):
        monkeypatch.setattr(module, "_cycles", counted)
    m = parse(fixture_text("case1.map"))
    sigma, phi = m.sigma, tuple(embedded_map._phi(m.sigma))
    assert validate(m).ok
    assert len(facial_walks(m)) == 3
    rep = is_newton(m, 3)
    assert rep.verdict == "newton"
    assert rep.e_property.holds and rep.degree_bounds
    canonical_key(m)
    assert (euler_characteristic(m), genus(m)) == (0, 1)
    assert passes == [sigma, phi, phi]
    dual(m)
    assert passes == [sigma, phi, phi]
    refinement(m)
    abstract_p_graph(m)
    assert len(reports) == 1
    # the cached sigma-cycles, which validation and the vertex rotations
    # that refinement reads share, the cached faces and is_newton's own
    # pass (it caches nothing on a candidate): dual, refinement and
    # abstract_p_graph find no faces of their own
    assert passes == [sigma, phi, phi]
    # the cached values stay out of equality, hashing and repr
    fresh = parse(fixture_text("case1.map"))
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)


def test_genus_rejects_odd_characteristic(n2):
    # a vertex without darts would make chi odd; validation refuses the map
    # first, so genus never sees a characteristic it cannot read
    bad = EmbeddedMap(n2.vertices + ("v3",), n2.edges, n2.sigma, n2.dart_origin)
    with pytest.raises(MapStructureError, match="isolated-vertex"):
        genus(bad)


def test_mirror_involution(n2, case1):
    for m in (n2, case1, build_efail_n2()):
        assert mirror(mirror(m)) == m
    assert mirror(n2).rotation_at("v1") == (0, 6, 4, 2)


def test_relabel_explicit(n2):
    m = relabel(n2, rng=random.Random(3))
    # replay relabel's draws: one shuffle of the edge sequence, then one
    # flip bit per old edge
    replay = random.Random(3)
    edge_order = list(range(4))
    replay.shuffle(edge_order)
    flips = [replay.randrange(2) for _ in range(4)]
    assert edge_order != sorted(edge_order) and 0 < sum(flips) < 4
    assert m.edges == tuple(n2.edges[k] for k in edge_order)
    # slot new holds old edge edge_order[new], its ends swapped when flipped
    for new, old in enumerate(edge_order):
        ends = n2.endpoints(old)
        assert m.endpoints(new) == (ends[::-1] if flips[old] else ends)
    assert degree_sequence(m) == degree_sequence(n2)
    assert face_degree_sequence(m) == face_degree_sequence(n2)
    assert are_equivalent(m, n2, False)


def test_relabel_random_is_isomorphic(case1):
    rng = random.Random(7)
    for _ in range(25):
        m = relabel(case1, rng=rng)
        assert validate(m).ok
        assert degree_sequence(m) == degree_sequence(case1)
        assert face_degree_sequence(m) == face_degree_sequence(case1)
        assert are_equivalent(m, case1, False)


def test_fixture_documents_parse(n2, case1, case3):
    assert (n2.order, n2.n_edges) == (2, 4)
    assert (case1.order, case1.n_edges) == (3, 6)
    assert (case3.order, case3.n_edges) == (3, 6)
    assert fixture_text("n2.map").startswith("order 2\n")
