"""Newton-graph predicates."""

import random
from collections import Counter
from dataclasses import replace
from itertools import islice

from conftest import (build_efail_n2, build_grid4, build_loop_map,
                      build_random_multigraph, build_sphere_n2,
                      build_torus_grid, fixture_text, raw_candidates)
from newtonmaps import (EPropertyReport, EWitness, NewtonReport, facial_walks,
                        is_newton, make_map, parse, serialize, validate)
from newtonmaps.enumeration import _multiplicity_vectors, _vector_candidates
from _oracle import newton_reference


def test_n2_is_newton(n2):
    rep = is_newton(n2)
    assert rep.order == 2
    assert rep.connected
    assert rep.cellular_toroidal
    assert rep.loopless
    assert rep.e_property.holds
    assert rep.e_property.witness is None
    assert rep.degree_bounds
    assert rep.a_property_status == "always-holds"
    assert rep.verdict == "newton"


def test_case1_case3_are_newton(case1, case3):
    for m in (case1, case3):
        rep = is_newton(m)
        assert rep.verdict == "newton"
        assert rep.a_property_status == "implied-by-E"


def test_e_property_witness():
    full = is_newton(build_efail_n2())
    assert full.e_property.witness == EWitness(walk_index=0, repeated_edge="a")
    assert full.cellular_toroidal
    assert full.loopless
    assert not full.e_property.holds
    # the doubled edge stretches one walk past the face-degree cap
    assert not full.degree_bounds
    assert full.verdict == "not-newton"


def test_e_property_passes(n2, case1):
    assert is_newton(n2).e_property.holds
    assert is_newton(case1).e_property.witness is None


def test_sphere_is_not_newton():
    rep = is_newton(build_sphere_n2())
    assert rep.connected
    assert not rep.cellular_toroidal
    assert rep.verdict == "not-newton"


def test_loop_map_is_not_newton():
    rep = is_newton(build_loop_map())
    assert not rep.loopless
    assert rep.verdict == "not-newton"


def test_invalid_map_short_circuits():
    from newtonmaps import EmbeddedMap
    bad = EmbeddedMap(("u",), ("a",), (0, 1), ("u", "u"))
    rep = is_newton(bad)
    assert not rep.connected
    assert rep.verdict == "not-newton"


def test_order4_is_e_only():
    rep = is_newton(build_grid4())
    assert rep.cellular_toroidal
    assert rep.loopless
    assert rep.e_property.holds
    assert rep.degree_bounds
    assert rep.a_property_status == "unavailable"
    assert rep.verdict == "e-only"


def test_degree_bounds(n2, case1):
    assert is_newton(n2).degree_bounds
    assert is_newton(case1).degree_bounds
    # a looped map's vertex degrees are counted: u has degree 6 > 4 in the
    # first, and both vertices have degree 4 in the second
    docs = {("edge a u u\nedge b u u\nedge c u v\nedge d u v\n"
             "rot u a.0 b.0 c a.1 b.1 d\nrot v c d\n"): False,
            ("edge a u u\nedge b v v\nedge c u v\nedge d u v\n"
             "rot u a.0 c a.1 d\nrot v b.0 c b.1 d\n"): True}
    for doc, bounds in docs.items():
        rep = is_newton(parse("order 2\n" + doc))
        assert not rep.loopless and rep.degree_bounds == bounds
        assert _report_fields(rep) == newton_reference("order 2\n" + doc)


def _report_fields(rep) -> dict:
    w = rep.e_property.witness
    return {"cellular_toroidal": rep.cellular_toroidal, "loopless": rep.loopless,
            "e_property": rep.e_property.holds,
            "e_witness": None if w is None else (w.walk_index, w.repeated_edge),
            "degree_bounds": rep.degree_bounds}


def test_is_newton_agrees_with_reference():
    """is_newton's fields equal those read from each candidate's document."""
    funnels = {2: [36, 36, 30, 6, 6, 6], 3: [9432, 9432, 6076, 1372, 1372, 1372]}
    for order, funnel in funnels.items():
        tally = Counter()
        for m in raw_candidates(order):
            rep = is_newton(m)
            assert _report_fields(rep) == newton_reference(serialize(m))
            stages = (True, rep.connected, rep.cellular_toroidal,
                      rep.e_property.holds, rep.degree_bounds,
                      rep.verdict == "newton")
            for i, passed in enumerate(stages):
                if not passed:
                    break
                tally[i] += 1
        assert [tally[i] for i in range(6)] == funnel
    # past 12 darts: torus grids up to 7 x 7 (up to 49 faces, E holds), each
    # with its last rotation's first two tokens swapped (a 12-dart walk then
    # repeats an edge), and random high-genus maps with long walks.  The
    # reference lists faces by least edge-end as text, so the random maps'
    # edges are renamed to one width to keep its order the document's.
    docs = []
    for k, l in ((3, 3), (3, 5), (4, 6), (5, 7), (7, 7)):
        doc = serialize(build_torus_grid(k, l))
        *head, last = doc.splitlines()
        rot, v, a, b, *rest = last.split()
        swapped = "\n".join([*head, " ".join([rot, v, b, a, *rest])]) + "\n"
        docs += [doc, swapped]
    for seed, n_edges in ((2, 60), (3, 150), (5, 45)):
        m = build_random_multigraph(random.Random(seed), n_edges)
        m = replace(m, edges=tuple(f"e{k:03d}" for k in range(m.n_edges)))
        docs.append(serialize(m))
    verdicts = Counter()
    for doc in docs:
        rep = is_newton(parse(doc))
        assert _report_fields(rep) == newton_reference(doc)
        verdicts[rep.verdict, rep.e_property.witness is None] += 1
    assert verdicts == {("e-only", True): 5, ("not-newton", False): 8}


def test_witness_is_the_first_face_repeating_an_edge():
    """On the order-3 candidates with a degree-1 vertex, where several
    faces can each repeat an edge, is_newton's fields equal the reference's."""
    dropped = set(_multiplicity_vectors(3, 1)) - set(_multiplicity_vectors(3, 2))
    several = 0
    for mult in sorted(dropped):
        for m in _vector_candidates(3, mult):
            assert _report_fields(is_newton(m)) == newton_reference(serialize(m))
            several += sum(any(d ^ 1 in w for d in w) for w in facial_walks(m)) > 1
    assert several == 2880


def test_order4_candidates_agree_with_reference():
    """The first 3 candidates of each order-4 vector: a connected one's
    fields equal the reference's, and a disconnected one, which the
    reference cannot tell, gets the invalid map's report."""
    invalid = NewtonReport(4, False, False, False, EPropertyReport(False), False,
                           "unavailable", "not-newton")
    tally = Counter()
    for mult in _multiplicity_vectors(4, 2):
        for m in islice(_vector_candidates(4, mult), 3):
            rep = is_newton(m)
            if validate(m).ok:
                assert _report_fields(rep) == newton_reference(serialize(m))
            else:
                assert rep == invalid
            tally[rep.verdict, rep.connected] += 1
    assert tally == {("e-only", True): 336, ("not-newton", True): 1824,
                     ("not-newton", False): 45}


def test_is_newton_caches_nothing():
    """is_newton leaves on a map only what validation caches, and no faces."""
    fields = {"vertices", "edges", "sigma", "dart_origin"}
    for build, holds in ((lambda: parse(fixture_text("case1.map")), True),
                         (build_efail_n2, False)):
        m, validated = build(), build()
        assert is_newton(m).e_property.holds == holds
        assert is_newton(m) is is_newton(m)  # one shared report
        validate(validated)
        assert vars(m).keys() == vars(validated).keys()
        assert vars(m).keys() - fields == {"_report"}
    # a vector's later candidates hold the first one's report, so nothing
    # but that report
    for m in islice(_vector_candidates(3, _multiplicity_vectors(3, 2)[0]), 1, 6):
        is_newton(m)
        assert vars(m).keys() - fields == {"_report"}


def test_equal_outcomes_share_one_report():
    """The 9432 order-3 candidates have 35 distinct outcomes, and each
    outcome's report is one object."""
    reports = [is_newton(m) for m in raw_candidates(3)]
    assert len(reports) == 9432
    assert len(set(reports)) == len({id(r) for r in reports}) == 35


def test_shared_witness_keeps_its_edge_type():
    """Maps equal but for the repeated edge's name, whose type differs at some
    depth from an equal name's (1 or True, ("a", 1) or ("a", True)), each get
    a witness naming their own edge, in either order."""
    def efail(name):
        # a tuple name would read as a (name, end) token, so it takes one
        end0, end1 = ((name, 0), (name, 1)) if isinstance(name, tuple) else (name, name)
        return make_map([(name, ("v1", "v2")), ("b", ("v1", "v2")),
                         ("c", ("v1", "v2")), ("d", ("v1", "v2"))],
                        {"v1": [end0, "b", "c", "d"], "v2": [end1, "c", "b", "d"]})
    pairs = [(1, True), (("a", 1), ("a", True)), (("a", (1,)), ("a", (True,))),
             (("a", (1.0, "x")), ("a", (1, "x")))]
    for pair in pairs + [pair[::-1] for pair in pairs]:
        for name in pair:
            edge = is_newton(efail(name)).e_property.witness.repeated_edge
            assert type(edge) is type(name)
            assert repr(edge) == repr(name)
