"""Dual maps, the common refinement, and the three-level digraph."""

import dataclasses
from collections import Counter

import pytest

from conftest import build_efail_n2, build_loop_map, build_torus_grid
from newtonmaps import (MapStructureError, abstract_p_graph, are_equivalent,
                        canonical_key, degree_sequence, dual,
                        euler_characteristic, face_degree_sequence,
                        facial_walks, make_map, refinement, serialize)
from newtonmaps.embedded_map import _cycles

CASE1_DUAL_DOC = (
    "order 3\n"
    "edge a f1 f2\n"
    "edge b f1 f3\n"
    "edge c f1 f2\n"
    "edge d f1 f3\n"
    "edge e f1 f2\n"
    "edge f f1 f3\n"
    "rot f1 a b c d e f\n"
    "rot f2 a c e\n"
    "rot f3 b d f\n"
)


def test_dual_basic(n2):
    d = dual(n2)
    assert d.vertices == ("f1", "f2")
    assert d.edges == n2.edges
    assert degree_sequence(d) == face_degree_sequence(n2)
    assert face_degree_sequence(d) == degree_sequence(n2)
    assert euler_characteristic(d) == 0
    assert serialize(d) == (
        "order 2\n"
        "edge a f1 f2\n"
        "edge b f2 f1\n"
        "edge c f1 f2\n"
        "edge d f2 f1\n"
        "rot f1 a b c d\n"
        "rot f2 a b c d\n"
    )


def test_dual_case1_document(case1):
    assert serialize(dual(case1)) == CASE1_DUAL_DOC
    assert degree_sequence(dual(case1)) == (6, 3, 3)


def test_dual_is_exact_involution(n2, case1, case3):
    for m in (n2, case1, case3, build_efail_n2(), build_loop_map()):
        dd = dual(dual(m))
        assert dd.sigma == m.sigma
        assert dd.n_darts == m.n_darts  # so the pairing d ^ 1 is the same
        assert dd.edges == m.edges
        # vertex labels are regenerated, but the map is the same one
        assert are_equivalent(dd, m, False)


def test_dual_keys_match_under_involution(case1):
    assert canonical_key(dual(dual(case1)), True) == canonical_key(case1, True)
    assert canonical_key(dual(dual(case1)), False) == canonical_key(case1, False)


def test_dual_of_edge_repeating_map_has_loop():
    d = dual(build_efail_n2())
    assert any(d.dart_origin[2 * k] == d.dart_origin[2 * k + 1]
               for k in range(d.n_edges))


def _level_counts(ref):
    # a refined vertex's tag gives its level: "v" 1, "s" 2, "f" 3
    counts = Counter(tag for tag, _ in ref.vertices)
    return (counts["v"], counts["s"], counts["f"])


def test_refinement_counts(n2, case1, case3):
    for m, r in ((n2, 2), (case1, 3), (case3, 3)):
        ref = refinement(m)
        assert _level_counts(ref) == (r, 2 * r, r)
        assert ref.order == 4 * r
        assert ref.n_edges == 8 * r
        walks = facial_walks(ref)
        assert len(walks) == 4 * r
        assert all(len(w) == 4 for w in walks)
        assert euler_characteristic(ref) == 0


def test_refinement_faces_are_corners(case1):
    """Each quadrilateral of the refinement matches one corner of the base:
    its level-1 and level-3 vertices name a (vertex, face) incidence, with
    multiplicity equal to the number of base walk positions at that pair."""
    ref = refinement(case1)
    base_corners = Counter()
    for i, w in enumerate(facial_walks(case1)):
        for d in w:
            base_corners[(case1.dart_origin[d], i + 1)] += 1
    refined_corners = Counter()
    for w in facial_walks(ref):
        corner = [ref.dart_origin[d] for d in w]
        assert sorted(tag for tag, _ in corner) == ["f", "s", "s", "v"]
        vname = next(v[1] for v in corner if v[0] == "v")
        fname = next(v[1] for v in corner if v[0] == "f")
        refined_corners[(vname, fname)] += 1
    assert refined_corners == base_corners


def test_refinement_crossing_neighborhoods(case1):
    # a crossing joins the two distinct endpoints of its edge and the two
    # distinct faces the edge separates
    m = refinement(case1)
    for k, e in enumerate(case1.edges):
        # ("s", e) subdivides edge e, so it neighbors e's two endpoints
        s = ("s", e)
        neighbors = [m.dart_origin[d ^ 1] for d in range(m.n_darts)
                     if m.dart_origin[d] == s]
        assert len(neighbors) == 4
        vside = {v for v in neighbors if v[0] == "v"}
        fside = {v for v in neighbors if v[0] == "f"}
        assert vside == {("v", x) for x in case1.endpoints(k)}
        assert len(fside) == 2


def test_refinement_handles_loops_when_walks_are_clean():
    # a loop is fine as long as no single walk repeats an edge
    ref = refinement(build_loop_map())
    assert _level_counts(ref) == (2, 3, 3)
    assert euler_characteristic(ref) == 2


def _refinement_from_tokens(m):
    """The refinement as make_map builds it from its definition: tagged edge
    declarations, and rotations of (name, end) tokens."""
    walks = facial_walks(m)
    face = {d: i for i, w in enumerate(walks) for d in w}
    edges = [(("h", d), (("v", m.dart_origin[d]), ("s", m.edge_of(d))))
             for d in range(m.n_darts)]
    edges += [(("g", d), (("s", m.edge_of(d)), ("f", face[d] + 1)))
              for d in range(m.n_darts)]
    cycle = {m.dart_origin[c[0]]: c for c in _cycles(m.sigma)[1]}
    rotations = {("v", v): [(("h", d), 0) for d in cycle[v]] for v in m.vertices}
    for k, e in enumerate(m.edges):
        rotations[("s", e)] = [(("h", 2 * k), 1), (("g", 2 * k), 0),
                               (("h", 2 * k + 1), 1), (("g", 2 * k + 1), 0)]
    for i, w in enumerate(walks):
        rotations[("f", i + 1)] = [(("g", d), 1) for d in reversed(w)]
    return make_map(edges, rotations)


def test_refinement_is_its_token_built_map(n2, case1, case3):
    for m in (n2, case1, case3, build_loop_map(), build_torus_grid(5, 7)):
        assert refinement(m) == _refinement_from_tokens(m)
    # built directly, a map may name two edges alike; their crossings
    # would then be one vertex
    twice = dataclasses.replace(case1, edges=case1.edges[:-1] + case1.edges[:1])
    with pytest.raises(MapStructureError):
        _refinement_from_tokens(twice)
    for build in (refinement, abstract_p_graph):
        with pytest.raises(MapStructureError, match="distinct edge names"):
            build(twice)


def test_refinement_rejects_edge_repeating_walks():
    with pytest.raises(MapStructureError, match="at most once"):
        refinement(build_efail_n2())
    with pytest.raises(MapStructureError, match="at most once"):
        abstract_p_graph(build_efail_n2())


def test_pgraph_shape(n2, case1):
    for m, r in ((n2, 2), (case1, 3)):
        pg = abstract_p_graph(m)
        assert len(pg.level1) == r
        assert len(pg.level2) == 2 * r
        assert len(pg.level3) == r
        assert len(pg.arcs) == 8 * r
        out_degree = Counter(a for a, _ in pg.arcs)
        for v in pg.level1:
            assert out_degree[(1, v)] == m.dart_origin.count(v)
        for e in pg.level2:
            assert out_degree[(2, e)] == 2
        for f in pg.level3:
            assert out_degree[(3, f)] == 0
        # the faces are the dual's vertices, and dart d's arc reaches d's face
        star = dual(m)
        assert pg.level3 == star.vertices
        into_faces = [b for a, b in pg.arcs if a[0] == 2]
        assert into_faces == [(3, star.dart_origin[d]) for d in range(m.n_darts)]


def test_pgraph_arcs_follow_incidence(case1):
    pg = abstract_p_graph(case1)
    # the hexagon f1 receives one arc per boundary edge
    into_f1 = [a for a, b in pg.arcs if b == (3, "f1")]
    assert sorted(e for _, e in into_f1) == ["a", "b", "c", "d", "e", "f"]
    assert ((1, "v1"), (2, "a")) in pg.arcs


def test_pgraph_dot(case1):
    dot = abstract_p_graph(case1).to_dot()
    assert dot.startswith("digraph pgraph {")
    assert dot.endswith("}\n")
    assert '"v:v1" [label="v1", shape=circle];' in dot
    assert '"s:a" [label="", shape=point];' in dot
    assert 'style=filled' in dot and 'fillcolor=black' in dot
    assert '"v:v1" -> "s:a";' in dot
    assert '"s:a" -> "f:f1";' in dot
    # rendering is deterministic
    assert dot == abstract_p_graph(case1).to_dot()
