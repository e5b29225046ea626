"""Line-oriented text format for embedded maps, plus DOT/JSON exports.

A document lists `order R`, one `edge NAME U V` line per edge, and one
`rot V TOKENS...` line per vertex giving the anti-clockwise rotation.
Tokens are edge names; the two ends of a loop are written NAME.0 and
NAME.1 (ends refer to the declared endpoint order).  Blank lines and
`#` comments are skipped.  An optional `orientation` line declares how
the rotations were recorded: under the default `clockwise-faces` the
lists are anti-clockwise rotations and facial walks run clockwise;
`anticlockwise-faces` marks lists recorded in the opposite sense, which
the parser normalizes by reversing, so parsing always yields the same
convention.

Serialization is canonical: edges and vertices sorted by name, shorter
names first (so v2 before v10, and z before e27, as decoded class maps
number them), each rotation rotated to start at its lexicographically
smallest token, no orientation marker.  On such documents parse and
serialize are mutually inverse byte for byte.  The DOT and JSON exports
list edges and vertices in the same name order.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii

from .embedded_map import EmbeddedMap, MapStructureError, _cycles, make_map

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _check_name(word: str, what: str, line: int) -> str:
    if not _NAME_RE.match(word):
        raise ParseError(f"bad {what} name {word!r}", line)
    return word


def parse(text: str) -> EmbeddedMap:
    order = None
    orientation = "clockwise-faces"
    edge_line: dict = {}
    ends: dict = {}
    rots: list[tuple] = []
    rot_seen: dict = {}
    named: set = set()  # vertex names checked: each is checked once

    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        kind = fields[0]
        if kind == "edge":
            if len(fields) != 4:
                raise ParseError("edge needs: edge NAME U V", lineno)
            _, name, u, v = fields
            _check_name(name, "edge", lineno)
            if u not in named:
                named.add(_check_name(u, "vertex", lineno))
            if v not in named:
                named.add(_check_name(v, "vertex", lineno))
            if name in ends:
                raise ParseError(f"duplicate edge {name!r}", lineno)
            ends[name] = (u, v)
            edge_line[name] = lineno
        elif kind == "rot":
            if len(fields) < 3:
                raise ParseError("rot needs a vertex and at least one token", lineno)
            vertex = fields[1]
            if vertex not in named:
                named.add(_check_name(vertex, "vertex", lineno))
            if vertex in rot_seen:
                raise ParseError(f"duplicate rotation for vertex {vertex!r}", lineno)
            rot_seen[vertex] = lineno
            rots.append((vertex, fields[2:], lineno))
        elif kind == "order":
            if order is not None:
                raise ParseError("duplicate order line", lineno)
            # str.isdigit alone also accepts non-ASCII digits such as "²"
            if (len(fields) != 2 or not fields[1].isascii()
                    or not fields[1].isdigit() or int(fields[1]) < 1):
                raise ParseError("order needs one positive integer", lineno)
            order = int(fields[1])
        elif kind == "orientation":
            if len(fields) != 2 or fields[1] not in ("clockwise-faces",
                                                     "anticlockwise-faces"):
                raise ParseError("orientation must be clockwise-faces or "
                                 "anticlockwise-faces", lineno)
            orientation = fields[1]
        elif not kind.startswith("#"):
            raise ParseError(f"unknown directive {kind!r}", lineno)

    if order is None:
        raise ParseError("missing order line")
    if not ends:
        raise ParseError("no edges declared")
    if len(rots) != order:
        raise ParseError(f"order is {order} but {len(rots)} rotation line(s) given")

    # spelling only: make_map resolves the tokens and reports structural
    # faults; a rotation listing only names of non-loop edges is spelled already
    plain = {name for name, (u, v) in ends.items() if u != v}
    rotations: dict = {}
    for vertex, words, lineno in rots:
        toks = words if plain.issuperset(words) else [
            _spell(word, ends, lineno) for word in words]
        if orientation == "anticlockwise-faces":
            toks.reverse()
        rotations[vertex] = toks
    try:
        return make_map(list(ends.items()), rotations)
    except MapStructureError as exc:
        line = rot_seen.get(exc.vertex, edge_line.get(exc.edge))
        raise ParseError(str(exc), line) from exc


def _spell(word: str, ends: dict, line: int):
    """A rotation word as make_map's token: NAME, or (NAME, end) for a loop's
    NAME.0 and NAME.1; make_map names an unknown NAME."""
    name, dot, endtxt = word.partition(".")
    loop = name in ends and ends[name][0] == ends[name][1]
    if dot:
        if endtxt not in ("0", "1"):
            raise ParseError(f"bad end selector in {word!r}", line)
        if name in ends and not loop:
            raise ParseError(f"end selector on non-loop edge {name!r}", line)
        return name, int(endtxt)
    if loop:
        raise ParseError(f"loop {name!r} needs .0/.1 end selectors", line)
    return name


def _rotations(m: EmbeddedMap) -> dict:
    """Each listed vertex's rotation as tokens, NAME or a loop's NAME.0 and
    NAME.1, started at its least token.  Refuses a sigma that no document
    can express: one that is not a permutation of two darts per edge, at
    least two, each with one origin, or not one cycle per listed vertex of
    its darts."""
    origin, edges, n = m.dart_origin, m.edges, m.n_darts
    if (not n or n != 2 * len(edges) or len(origin) != n
            or sorted(m.sigma) != list(range(n))):
        raise ValueError("sigma must permute the map's darts, two per edge and "
                         "at least two, each with one origin")
    tokens = [f"{edges[d // 2]}.{d % 2}" if origin[d] == origin[d ^ 1]
              else str(edges[d // 2]) for d in range(n)]
    table = dict.fromkeys(m.vertices)
    for cyc in _cycles(m.sigma)[1]:
        v = origin[cyc[0]]  # a second cycle at v, or one at an unlisted v
        if table.get(v, cyc) is not None or any(origin[d] != v for d in cyc):
            raise ValueError(f"sigma is not one cycle of the darts at vertex {v!r}")
        toks = [tokens[d] for d in cyc]
        start = toks.index(min(toks))
        table[v] = toks[start:] + toks[:start]
    for v, toks in table.items():
        if toks is None:
            raise ValueError(f"sigma is not one cycle of the darts at vertex {v!r}")
    return table


def _name_order(name: str) -> tuple[int, str]:
    return len(name), name


def _vertices_by_name(m: EmbeddedMap) -> list[tuple[str, object]]:
    """(text, id) of each vertex, in name order; the exports name vertices by
    text, so two ids of one text (1 and "1") are refused."""
    named = sorted(((str(v), v) for v in m.vertices), key=lambda p: _name_order(p[0]))
    for (text, u), (other, v) in zip(named, named[1:]):
        if text == other:
            raise ValueError(f"vertex ids {u!r} and {v!r} both print as {text!r}")
    return named


def _edges_by_name(m: EmbeddedMap) -> list[int]:
    order = [_name_order(str(e)) for e in m.edges]
    return sorted(range(m.n_edges), key=order.__getitem__)


def serialize(m: EmbeddedMap) -> str:
    """Canonical document for m; requires plain-word vertex and edge names."""
    for v in m.vertices:
        if not isinstance(v, str) or not _NAME_RE.match(v):
            raise ValueError(f"vertex id {v!r} not serializable")
    for e in m.edges:
        if not isinstance(e, str) or not _NAME_RE.match(e):
            raise ValueError(f"edge id {e!r} not serializable")
    if len(set(m.vertices)) < m.order:
        raise ValueError("vertex ids repeat, so a document cannot tell them apart")
    if len(set(m.edges)) < m.n_edges:
        raise ValueError("edge ids repeat, so a document cannot tell them apart")

    origin, rotations = m.dart_origin, _rotations(m)
    lines = [f"order {m.order}"]
    lines += [f"edge {m.edges[k]} {origin[2 * k]} {origin[2 * k + 1]}"
              for k in _edges_by_name(m)]
    lines += [f"rot {vertex} " + " ".join(rotations[vertex])
              for vertex in sorted(m.vertices, key=_name_order)]
    return "\n".join(lines) + "\n"


def map_to_dot(m: EmbeddedMap) -> str:
    """Undirected multigraph rendering of the map's underlying graph."""
    lines = ["graph map {"]
    for text, _ in _vertices_by_name(m):
        lines.append(f'  "{text}";')
    for k in _edges_by_name(m):
        u, v = m.endpoints(k)
        lines.append(f'  "{u}" -- "{v}" [label="{m.edges[k]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def map_to_json_dict(m: EmbeddedMap) -> dict:
    named, table = _vertices_by_name(m), _rotations(m)
    rotations = {text: table[vertex] for text, vertex in named}
    edges = [[str(m.edges[k]), *map(str, m.endpoints(k))]
             for k in _edges_by_name(m)]
    return {"order": m.order, "edges": edges, "rotations": rotations}


def _json_text(value, newline: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2), whose indent would select
    json's pure-Python encoder; strings take its C escaper.  newline is the
    line break plus the indent of value's own line."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:  # repr spells it as json does, and faster
        return repr(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        brackets, items = "[]", [encode_basestring_ascii(v) if type(v) is str
                                 else _json_text(v, inner) for v in value]
    elif isinstance(value, dict):
        brackets, items = "{}", [
            encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))
            + ": " + _json_text(v, inner) for k, v in sorted(value.items())]
    else:
        return json.dumps(value)  # True, False, None, floats
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]
