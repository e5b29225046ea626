"""Command-line interface.

Exit codes: 0 success (or predicate true), 1 predicate false, 2 usage
error, 3 input error (missing file, malformed document, unsuitable
map), 4 internal consistency failure.  Results go to stdout,
diagnostics to stderr; `--format json` output has sorted keys and a
fixed layout.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .canon import (WitnessError, _require_text_width, are_equivalent,
                    canonical_key)
from .duality import abstract_p_graph, dual, refinement
from .embedded_map import (EmbeddedMap, MapStructureError, UnsuitableMapError,
                           _checked, euler_characteristic, facial_walks, genus,
                           validate)
from .enumeration import (ClassificationMismatchError, UnsupportedOrderError,
                          atlas_from_jsonl, atlas_to_jsonl, classify,
                          enumerate_newton, report_to_json, self_duality,
                          verify_atlas)
from .mapdoc import (ParseError, _json_text, map_to_dot, map_to_json_dict, parse,
                     serialize)
from .newton import is_newton


def _load(path: str) -> EmbeddedMap:
    return parse(Path(path).read_text())


def _emit_json(payload: dict) -> None:
    print(_json_text(payload, "\n"))


def _write_atomic(path: Path, text: str) -> None:
    """Replace path's content with text in one step, or leave it as it was."""
    if not path.name:  # "." or "/": a directory, with no file name to write
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _sense(args) -> bool:
    return not args.orientation_preserving


def _add_sense_flags(sub) -> None:
    sub.add_argument("--orientation-preserving", "--op", dest="orientation_preserving",
                     action="store_true",
                     help="strict oriented sense (default: reflection allowed)")


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")


def cmd_validate(args) -> int:
    m = _load(args.file)
    report = validate(m)
    if args.format == "json":
        _emit_json(asdict(report))
    else:
        print("ok" if report.ok else "invalid")
        for d in report.defects:
            kind = "advisory" if d.advisory else "defect"
            print(f"{kind}: {d.code}: {d.message}")
    return 0 if report.ok else 1


def cmd_faces(args) -> int:
    m = _load(args.file)
    walks = facial_walks(m)
    steps = [[(str(m.dart_origin[d]), str(m.edge_of(d))) for d in w] for w in walks]
    chi, g = euler_characteristic(m), genus(m)
    if args.format == "json":
        _emit_json({
            "euler_characteristic": chi,
            "genus": g,
            "face_degrees": sorted(map(len, walks), reverse=True),
            "walks": [{"face": f"f{i + 1}", "length": len(w), "steps": w}
                      for i, w in enumerate(steps)],
        })
    else:
        for i, w in enumerate(steps):
            print(f"f{i + 1} (length {len(w)}): "
                  + " ".join(f"{v} {e}" for v, e in w))
        print(f"faces {len(walks)}  chi {chi}  genus {g}")
    return 0


def cmd_dual(args) -> int:
    text = serialize(dual(_load(args.file)))
    if args.out:
        _write_atomic(Path(args.out), text)
    else:
        print(text, end="")
    return 0


def cmd_refine(args) -> int:
    m = refinement(_load(args.file))
    tags = Counter(tag for tag, _ in m.vertices)
    levels = [tags["v"], tags["s"], tags["f"]]
    n_faces = len(facial_walks(m))
    if args.format == "json":
        _emit_json({"vertices": m.order, "edges": m.n_edges, "faces": n_faces,
                    "levels": {str(i + 1): c for i, c in enumerate(levels)}})
    else:
        print(f"vertices {m.order} (level1 {levels[0]}, level2 {levels[1]}, "
              f"level3 {levels[2]})")
        print(f"edges {m.n_edges}")
        print(f"faces {n_faces}")
    return 0


def cmd_pgraph(args) -> int:
    pg = abstract_p_graph(_load(args.file))
    if args.format == "dot":
        print(pg.to_dot(), end="")
    elif args.format == "json":
        _emit_json({
            "level1": [str(v) for v in pg.level1],
            "level2": [str(e) for e in pg.level2],
            "level3": [str(f) for f in pg.level3],
            "arcs": [[[a[0], str(a[1])], [b[0], str(b[1])]]
                     for a, b in pg.arcs],
        })
    else:
        print(f"level1 {len(pg.level1)}  level2 {len(pg.level2)}  "
              f"level3 {len(pg.level3)}  arcs {len(pg.arcs)}")
    return 0


def cmd_canon(args) -> int:
    # defects first, then the key's width, before any search
    m = _checked(_load(args.file))
    _require_text_width(m.n_darts)
    print(canonical_key(m, _sense(args)).hex())
    return 0


def cmd_iso(args) -> int:
    res = are_equivalent(_load(args.a), _load(args.b), _sense(args))
    if res:
        suffix = " (reflected)" if res.reflected else ""
        print("equivalent" + suffix)
        return 0
    print("not-equivalent")
    return 1


def cmd_selfdual(args) -> int:
    sd = self_duality(_load(args.file))
    if args.format == "json":
        _emit_json(asdict(sd))
    else:
        print(f"reflective: {'true' if sd.reflective else 'false'}")
        print(f"orientation-preserving: "
              f"{'true' if sd.orientation_preserving else 'false'}")
    return 0 if sd.reflective else 1


def cmd_newton(args) -> int:
    rep = is_newton(_load(args.file))
    e_wit = None
    if rep.e_property.witness is not None:
        w = rep.e_property.witness
        e_wit = {"walk_index": w.walk_index, "repeated_edge": str(w.repeated_edge)}
    if args.format == "json":
        _emit_json({
            "order": rep.order,
            "connected": rep.connected,
            "cellular_toroidal": rep.cellular_toroidal,
            "loopless": rep.loopless,
            "e_property": rep.e_property.holds,
            "e_witness": e_wit,
            "degree_bounds": rep.degree_bounds,
            "a_property_status": rep.a_property_status,
            "verdict": rep.verdict,
        })
    else:
        print(f"connected: {rep.connected}")
        print(f"cellular-toroidal: {rep.cellular_toroidal}")
        print(f"loopless: {rep.loopless}")
        print(f"e-property: {rep.e_property.holds}")
        if e_wit is not None:
            print(f"e-witness: edge {e_wit['repeated_edge']} repeats in walk "
                  f"{e_wit['walk_index']}")
        print(f"degree-bounds: {rep.degree_bounds}")
        print(f"a-property: {rep.a_property_status}")
        print(f"verdict: {rep.verdict}")
    return 0 if rep.verdict == "newton" else 1


def cmd_classify(args) -> int:
    entries = enumerate_newton(args.order, jobs=args.jobs)
    report = classify(entries)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_atomic(outdir / f"atlas_order{args.order}.jsonl",
                      atlas_to_jsonl(entries))
        _write_atomic(outdir / f"classification_order{args.order}.json",
                      report_to_json(report))
    if args.format == "json":
        print(report_to_json(report), end="")
    else:
        print(f"order {report.order}")
        print(f"classes (reflection-allowed): {report.count_refl}")
        print(f"classes (orientation-preserving): {report.count_op}")
        print(f"classes (up to duality): {report.count_dual}")
        print(f"self-dual classes: {report.self_dual_count}")
        print(f"dual pairs: {len(report.dual_pairs)}")
        print("strata (max_face, vertex pattern: classes)")
        for s in report.strata:
            pat = ",".join(str(x) for x in s.vertex_pattern)
            print(f"  {s.max_face} ({pat}): {s.classes}")
    return 0


def cmd_atlas(args) -> int:
    entries = atlas_from_jsonl(Path(args.file).read_text())
    verify_atlas(entries)
    if args.format == "json":
        _emit_json({"entries": len(entries),
                    "keys": [e.key.hex() for e in entries]})
    else:
        print(f"entries: {len(entries)}")
        for e in entries:
            flags = []
            if e.self_dual:
                flags.append("self-dual")
            if e.op_forms == 2:
                flags.append("chiral")
            label = e.paper_label or "-"
            fl = f" [{', '.join(flags)}]" if flags else ""
            print(f"  {e.key.hex()[:16]}  faces {e.delta_star}  "
                  f"degrees {e.delta}{fl}  {label}")
    return 0


def cmd_export(args) -> int:
    m = _load(args.file)
    if args.to == "dot":
        print(map_to_dot(m), end="")
    elif args.to == "json":
        _emit_json(map_to_json_dict(m))
    else:
        print(serialize(m), end="")
    return 0


def _command(sub, name: str, func, help: str, *positionals: str):
    s = sub.add_parser(name, help=help)
    for arg in positionals:
        s.add_argument(arg)
    s.set_defaults(func=func)
    return s


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="newtonmaps",
        description="Combinatorial maps on the torus and the classification "
                    "of Newton graphs")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    _add_format(_command(sub, "validate", cmd_validate,
                         "structural validation of a map document", "file"))
    _add_format(_command(sub, "faces", cmd_faces,
                         "facial walks, characteristic and genus", "file"))
    s = _command(sub, "dual", cmd_dual, "write the dual map document", "file")
    s.add_argument("--out")
    _add_format(_command(sub, "refine", cmd_refine,
                         "sizes of the common refinement with the dual", "file"))
    s = _command(sub, "pgraph", cmd_pgraph, "abstract three-level digraph", "file")
    s.add_argument("--format", choices=("text", "json", "dot"), default="text")
    _add_sense_flags(_command(sub, "canon", cmd_canon, "canonical key (hex)", "file"))
    _add_sense_flags(_command(sub, "iso", cmd_iso, "equivalence of two maps",
                              "a", "b"))
    _add_format(_command(sub, "selfdual", cmd_selfdual,
                         "self-duality, both senses", "file"))
    _add_format(_command(sub, "newton", cmd_newton,
                         "Newton-graph verdict", "file"))
    s = _command(sub, "classify", cmd_classify, "enumerate and classify an order")
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--jobs", type=int, default=1,
                   help="processes that scan, this one included, at most one per "
                        "CPU (default: 1)")
    s.add_argument("--out", help="directory for atlas and report files")
    _add_format(s)
    _add_format(_command(sub, "atlas", cmd_atlas,
                         "audit and summarize an atlas file", "file"))
    s = _command(sub, "export", cmd_export, "export a map as dot/json/doc", "file")
    s.add_argument("--to", choices=("dot", "json", "doc"), default="dot")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built by the first main call and then reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, UnicodeDecodeError, MapStructureError,
            UnsuitableMapError, UnsupportedOrderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ClassificationMismatchError, WitnessError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4
