"""Document format: parsing, canonical serialization, exports."""

import dataclasses
import random

import pytest

from conftest import (build_loop_map, build_random_multigraph, canonical_form,
                      fixture_text)
from newtonmaps import (ParseError, make_map, map_to_dot, map_to_json_dict,
                        parse, refinement, serialize, validate)

N2_DOC = fixture_text("n2.map")
CASE1_DOC = fixture_text("case1.map")
CASE3_DOC = fixture_text("case3.map")

LOOP_DOC = (
    "order 2\n"
    "edge a w w\n"
    "edge b w x\n"
    "edge c w x\n"
    "rot w a.0 a.1 b c\n"
    "rot x b c\n"
)


@pytest.mark.parametrize("doc", [N2_DOC, CASE1_DOC, CASE3_DOC, LOOP_DOC])
def test_round_trip_bytes(doc):
    assert serialize(parse(doc)) == doc


def test_parse_n2_structure():
    m = parse(N2_DOC)
    assert m.vertices == ("v1", "v2")
    assert m.edges == ("a", "b", "c", "d")
    assert m.dart_origin == ("v1", "v2") * 4
    assert m.sigma == (2, 3, 4, 5, 6, 7, 0, 1)


def test_parse_skips_comments_and_blanks():
    doc = "# a comment\n\norder 2\n" + N2_DOC.split("\n", 1)[1]
    assert serialize(parse(doc)) == N2_DOC


def test_parse_loop_selectors():
    m = parse(LOOP_DOC)
    assert m.endpoints(0) == ("w", "w")
    assert validate(m).ok
    assert [d.code for d in validate(m).defects if d.advisory] == ["loop-present"]


def test_orientation_marker_normalizes():
    # same embedding recorded with reversed lists and the marker
    marked = (
        "orientation anticlockwise-faces\n"
        "order 3\n"
        "edge a v1 v2\nedge b v2 v3\nedge c v3 v1\n"
        "edge d v1 v2\nedge e v2 v3\nedge f v3 v1\n"
        "rot v1 f d c a\n"
        "rot v2 e d b a\n"
        "rot v3 f e c b\n"
    )
    assert serialize(parse(marked)) == CASE1_DOC


def test_orientation_marker_validated():
    with pytest.raises(ParseError, match="orientation"):
        parse("orientation widdershins\n" + N2_DOC)


@pytest.mark.parametrize("doc,lineno,fragment", [
    ("flip a b\n", 1, "unknown directive"),
    ("order 2\norder 2\n" + N2_DOC.split("\n", 1)[1], 2, "duplicate order"),
    ("order zero\n", 1, "positive integer"),
    ("order 0\n", 1, "positive integer"),
    ("order \u00b2\n", 1, "order needs one positive integer"),
    ("order \u0661\n", 1, "order needs one positive integer"),
    ("order 2\nedge a v1\n", 2, "edge needs"),
    ("order 2\nedge a v1 v-2\n", 2, "bad vertex name 'v-2'"),
    ("order 1\nedge a v1 v1\nrot v-1 a.0 a.1\n", 3, "bad vertex name 'v-1'"),
    ("order 2\nedge a v1 v2\nedge a v1 v2\n", 3, "duplicate edge"),
    ("order 1\nedge a v1 v1\nrot v1\n", 3, "at least one token"),
    (N2_DOC + "rot v1 a b c d\n", 8, "duplicate rotation"),
    ("order 2\nedge a v1 v2\nedge b v1 v2\nrot v1 a z\nrot v2 a b\n", 4,
     "unknown edge 'z'"),
    ("order 1\nedge a w w\nrot w a a\n", 3, "needs .0/.1"),
    ("order 2\nedge a v1 v2\nedge b v1 v2\nrot v1 a.0 b\nrot v2 a b\n", 4,
     "end selector on non-loop"),
    ("order 1\nedge a w w\nrot w a.0 a.2\n", 3, "bad end selector"),
    ("order 2\nedge a w w\nedge b w x\nrot w a.0 a.1 b\nrot x a.0 b\n", 5,
     "belongs to vertex"),
    ("order 2\nedge a v1 v2\nedge b v1 v2\nrot v1 a b\nrot v2 b b\n", 5,
     "listed twice"),
    ("order 2\nedge a v1 v2\nedge b v1 v3\nrot v1 a b\nrot v2 a b\n", 5,
     "not incident"),
    ("order 2\nedge a w w\nedge b w x\nrot w a.0 a.0 b\nrot x b\n", 4,
     "dart of edge 'a' listed twice"),
    ("order 2\nedge a v1 v2\nedge b v1 v2\nedge c v1 v2\nrot v1 a b\n"
     "rot v2 a b\n", 4, "appears in 0 rotation position"),
    ("order 2\nedge a v1 v2\nedge b v1 v3\nrot v1 a b\nrot v3 a b\n", 5,
     "not incident"),
])
def test_parse_errors_with_line_numbers(doc, lineno, fragment):
    with pytest.raises(ParseError) as exc:
        parse(doc)
    assert exc.value.line == lineno
    assert fragment in str(exc.value)
    assert str(exc.value).startswith(f"line {lineno}:")


def test_parse_repeated_token_in_one_rotation():
    doc = ("order 2\n"
           "edge a v1 v2\n"
           "edge b v1 v2\n"
           "edge c v1 v2\n"
           "rot v1 a b c\n"
           "rot v2 a b b\n")
    with pytest.raises(ParseError) as exc:
        parse(doc)
    assert exc.value.line == 6
    assert "listed twice" in str(exc.value)


def test_parse_occurrence_count_blames_edge_line():
    doc = ("order 2\n"
           "edge a v1 v2\n"
           "edge b v1 v2\n"
           "edge c v1 v2\n"
           "rot v1 a b c\n"
           "rot v2 a b\n")
    # c appears once over all rotations; the complaint points at its declaration
    with pytest.raises(ParseError) as exc:
        parse(doc)
    assert "appears in 1 rotation position" in str(exc.value)
    assert exc.value.line == 4


@pytest.mark.parametrize("doc,fragment", [
    ("", "missing order"),
    ("edge a v1 v2\n", "missing order"),
    ("order 2\n", "no edges"),
    ("order 3\n" + N2_DOC.split("\n", 1)[1], "3 but 2 rotation"),
])
def test_parse_document_level_errors(doc, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse(doc)


def test_parse_bad_names():
    with pytest.raises(ParseError, match="bad edge name"):
        parse("order 2\nedge a* v1 v2\n")
    with pytest.raises(ParseError, match="bad vertex name"):
        parse("order 2\nedge a v-1 v2\n")


def test_serialize_rotates_to_least_token():
    # both rotations are cyclic shifts of a b c d, so they normalize back
    doc = ("order 2\n"
           "edge a v1 v2\nedge b v1 v2\nedge c v1 v2\nedge d v1 v2\n"
           "rot v1 c d a b\n"
           "rot v2 b c d a\n")
    assert serialize(parse(doc)) == N2_DOC


def test_serialize_orders_edge_lines():
    doc = ("order 2\n"
           "edge d v1 v2\nedge c v1 v2\nedge b v1 v2\nedge a v1 v2\n"
           "rot v1 d c b a\n"
           "rot v2 d c b a\n")
    out = serialize(parse(doc))
    lines = out.splitlines()
    assert lines[1:5] == ["edge a v1 v2", "edge b v1 v2",
                          "edge c v1 v2", "edge d v1 v2"]
    assert lines[5] == "rot v1 a d c b"


# n2 as only the Python API builds it, whose sigma is not one cycle per
# listed vertex of that vertex's darts, and the vertex each writer names
UNWRITABLE = [({"sigma": (2, 3, 0, 5, 6, 7, 4, 1)}, "v1"),  # splits v1
              ({"sigma": (3, 2, 4, 5, 6, 7, 0, 1)}, "v1"),  # mixes v1 and v2
              ({"vertices": ("v1", "v2", "v3")}, "v3"),  # v3 has no darts
              ({"dart_origin": ("v1", "v9") * 4}, "v9")]  # v9 is not listed


def test_serialize_requires_plain_names(n2):
    with pytest.raises(ValueError, match="not serializable"):
        serialize(refinement(n2))
    for name in ("x-y", 5):  # vertex names are plain words here
        m = dataclasses.replace(n2, edges=n2.edges[:-1] + (name,))
        with pytest.raises(ValueError, match=f"edge id {name!r} not serializable"):
            serialize(m)
    with pytest.raises(ValueError, match="edge ids repeat"):
        serialize(dataclasses.replace(n2, edges=("a", "a", "c", "d")))
    for change, vertex in UNWRITABLE:
        with pytest.raises(ValueError, match=f"at vertex {vertex!r}"):
            serialize(dataclasses.replace(n2, **change))


def test_map_to_dot(n2):
    assert map_to_dot(n2) == (
        "graph map {\n"
        '  "v1";\n'
        '  "v2";\n'
        '  "v1" -- "v2" [label="a"];\n'
        '  "v1" -- "v2" [label="b"];\n'
        '  "v1" -- "v2" [label="c"];\n'
        '  "v1" -- "v2" [label="d"];\n'
        "}\n"
    )
    with pytest.raises(ValueError, match="vertex ids 1 and '1' both print as '1'"):
        map_to_dot(_alike_ids())


def _alike_ids():
    """Two vertices whose ids, 1 and "1", print alike; only the Python API
    builds such a map."""
    return make_map([("a", (1, "1")), ("b", (1, "1"))],
                    {1: ["a", "b"], "1": ["b", "a"]})


def test_map_to_json_dict(n2):
    payload = map_to_json_dict(n2)
    assert payload == {
        "order": 2,
        "edges": [["a", "v1", "v2"], ["b", "v1", "v2"],
                  ["c", "v1", "v2"], ["d", "v1", "v2"]],
        "rotations": {"v1": ["a", "b", "c", "d"], "v2": ["a", "b", "c", "d"]},
    }
    # vertex ids of two types, which only the Python API builds, are
    # listed by their text, as map_to_dot lists them
    mixed = make_map([("a", (10, "x")), ("b", (10, "x"))],
                     {10: ["a", "b"], "x": ["a", "b"]})
    payload = map_to_json_dict(mixed)
    assert payload == {"order": 2, "edges": [["a", "10", "x"], ["b", "10", "x"]],
                       "rotations": {"x": ["a", "b"], "10": ["a", "b"]}}
    assert list(payload["rotations"]) == ["x", "10"]
    assert map_to_dot(mixed).splitlines()[1:3] == ['  "x";', '  "10";']
    with pytest.raises(ValueError, match="vertex ids 1 and '1' both print as '1'"):
        map_to_json_dict(_alike_ids())
    for change, vertex in UNWRITABLE:
        with pytest.raises(ValueError, match=f"at vertex {vertex!r}"):
            map_to_json_dict(dataclasses.replace(n2, **change))


def test_exports_follow_the_document_order():
    # a decoded 40-edge map names its edges a ... z, e27 ... e40 and its
    # vertices v1 ... v13; the exports list them as the document does
    m = canonical_form(build_random_multigraph(random.Random(5), 40))
    lines = serialize(m).splitlines()
    edges = [line.split()[1:] for line in lines if line.startswith("edge ")]
    vertices = [line.split()[1] for line in lines if line.startswith("rot ")]
    assert edges[25:27] == [["z", "v8", "v6"], ["e27", "v7", "v13"]]
    assert vertices[8:10] == ["v9", "v10"]
    assert map_to_json_dict(m)["edges"] == edges
    assert list(map_to_json_dict(m)["rotations"]) == vertices
    dot = [line.split('"') for line in map_to_dot(m).splitlines()]
    assert [f[1] for f in dot if len(f) == 3] == vertices
    assert [[f[5], f[1], f[3]] for f in dot if len(f) == 7] == edges


def test_loop_tokens_in_export():
    payload = map_to_json_dict(build_loop_map())
    assert payload["rotations"]["w"] == ["a.0", "a.1", "b", "c"]
