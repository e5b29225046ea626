"""Acceptance gate: the headline results this package must reproduce.

One test per criterion; each prints a single "ACCEPTANCE n: PASS/FAIL"
line (visible with -s, and in the failure report otherwise) and then
asserts the criterion exactly as stated.  Criteria 4 and 5 pin the
orientation-preserving refinement at order 3: seven classes over the
pentagon strata and fourteen in total, 12 + 2, because two self-dual
pentagon classes, with face vectors (5,4,3) and (5,5,2), are chiral and
split into two mirror forms each.  Both tests carry their own proof,
independent of the canonical keys: criterion 4 decides chirality by
brute-force isomorphism of each pentagon representative with its
mirror, and criterion 5 partitions the accepted order-3 candidates by
brute-force orientation-preserving isomorphism and counts the parts.
"""

import random
import time

from _oracle import brute_force_iso
from conftest import FIXTURES, fixture_text, run_cli
from newtonmaps import (are_equivalent, canonical_key, classify, dual,
                        enumerate_newton, facial_walks, is_newton, mirror,
                        parse, refinement, relabel)
from test_properties import pool


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_acceptance_1_order2_classification():
    t0 = time.perf_counter()
    entries = enumerate_newton(2)
    report = classify(entries)
    elapsed = time.perf_counter() - t0
    walk_lengths = [len(w) for e in entries
                    for w in facial_walks(e.representative)]
    ok = (report.count_refl == 1 and entries[0].self_dual
          and walk_lengths == [4, 4] and elapsed < 1.0)
    _verdict(1, ok, f"order 2: {report.count_refl} class, "
                    f"self_dual={entries[0].self_dual}, "
                    f"walk lengths {walk_lengths}, {elapsed:.3f}s")
    assert report.count_refl == 1
    assert entries[0].self_dual
    assert walk_lengths == [4, 4]
    assert elapsed < 1.0


def test_acceptance_2_order3_headline_counts():
    t0 = time.perf_counter()
    report = classify(enumerate_newton(3, jobs=1))
    elapsed = time.perf_counter() - t0
    ok = (report.count_refl == 12 and report.count_dual == 9
          and elapsed < 60.0)
    _verdict(2, ok, f"order 3: count_refl={report.count_refl}, "
                    f"count_dual={report.count_dual}, {elapsed:.1f}s")
    assert report.count_refl == 12
    assert report.count_dual == 9
    assert elapsed < 60.0


def test_acceptance_3_order3_duality_structure(atlas3):
    report = classify(atlas3)
    ok = (report.self_dual_count == 6 and len(report.dual_pairs) == 3
          and report.count_refl == report.self_dual_count
          + 2 * len(report.dual_pairs))
    _verdict(3, ok, f"order 3: {report.self_dual_count} self-dual + "
                    f"2*{len(report.dual_pairs)} = {report.count_refl}")
    assert report.self_dual_count == 6
    assert len(report.dual_pairs) == 3
    assert report.count_refl == report.self_dual_count + 2 * len(report.dual_pairs)


def test_acceptance_4_order3_strata(atlas3):
    strata = {(s.max_face, s.vertex_pattern): s.classes
              for s in classify(atlas3).strata}
    hexagon_222 = strata.get((6, (2, 2, 2)), 0)

    sub321 = [e for e in atlas3
              if e.max_face == 6 and e.vertex_pattern_on_max_face == (3, 2, 1)]
    sub321_ok = (len(sub321) == 2 and all(e.self_dual for e in sub321)
                 and not brute_force_iso(sub321[0].representative,
                                         sub321[1].representative, True))

    mf5 = [e for e in atlas3 if e.max_face == 5]
    op5 = sum(e.op_forms for e in mf5)
    merges5 = sum(1 for e in mf5 if e.op_forms == 2)
    keys5 = {e.key.hex() for e in mf5}
    dual_pairs5 = sum(1 for p in classify(atlas3).dual_pairs
                      if p[0] in keys5 and p[1] in keys5)
    # a class splits into two orientation-preserving forms exactly when
    # its representative is not equivalent to its own mirror image
    chiral5 = [e for e in mf5 if not brute_force_iso(
        e.representative, mirror(e.representative), False)]
    forms_match_mirror = all((e.op_forms == 2) == (e in chiral5) for e in mf5)
    chiral_self_dual = all(e.self_dual for e in chiral5)
    chiral_faces = sorted(e.delta_star for e in chiral5)

    square = [e for e in atlas3 if e.max_face == 4 and e.self_dual]
    square_ok = strata.get((4, (2, 1, 1)), 0) == 1 and len(square) == 1

    ok = (hexagon_222 == 2 and sub321_ok and op5 == 7 and merges5 == 2
          and forms_match_mirror and chiral_self_dual
          and chiral_faces == [(5, 4, 3), (5, 5, 2)]
          and dual_pairs5 == 1 and square_ok)
    _verdict(4, ok, f"strata: hexagon(2,2,2)={hexagon_222}, "
                    f"hexagon(3,2,1) self-dual inequivalent={sub321_ok}, "
                    f"pentagon op classes={op5} (certified 7), "
                    f"pentagon reflection merges={merges5} (certified 2), "
                    f"op forms match brute-force mirror test="
                    f"{forms_match_mirror}, chiral face vectors={chiral_faces} "
                    f"(self-dual={chiral_self_dual}), "
                    f"pentagon dual pairs={dual_pairs5}, "
                    f"square self-dual={square_ok}")
    assert hexagon_222 == 2
    assert sub321_ok
    assert dual_pairs5 == 1
    assert square_ok
    assert forms_match_mirror, (
        "op_forms disagrees with the brute-force mirror test on a "
        "pentagon class")
    assert chiral_self_dual
    assert chiral_faces == [(5, 4, 3), (5, 5, 2)]
    assert op5 == 7, (
        f"pentagon strata hold {op5} orientation-preserving classes, not 7")
    assert merges5 == 2, (
        f"{merges5} pentagon classes merge a chiral pair under reflection, "
        "not 2")


def _brute_force_classes(maps, allow_reflection):
    """One representative per class of a greedy brute-force partition."""
    reps = []
    for m in maps:
        if not any(brute_force_iso(r, m, allow_reflection) for r in reps):
            reps.append(m)
    return reps


def test_acceptance_5_orientation_preserving_total(atlas3):
    report = classify(atlas3)
    accepted = [m for m in pool(3) if is_newton(m).verdict == "newton"]
    op_reps = _brute_force_classes(accepted, False)
    # reflection classes are unions of orientation-preserving ones
    refl_reps = _brute_force_classes(op_reps, True)
    ok = (report.count_op == 14 and report.count_op == report.count_refl + 2
          and report.count_op == len(op_reps)
          and report.count_refl == len(refl_reps))
    _verdict(5, ok, f"orientation-preserving total={report.count_op} "
                    f"(certified 14 = 12 + 2); brute-force partition of "
                    f"{len(accepted)} accepted candidates: {len(op_reps)} "
                    f"orientation-preserving, {len(refl_reps)} reflection "
                    f"classes")
    assert report.count_op == len(op_reps), (
        f"enumeration yields {report.count_op} orientation-preserving "
        f"classes; brute-force isomorphism partitions the accepted "
        f"candidates into {len(op_reps)}")
    assert report.count_refl == len(refl_reps)
    assert report.count_op == 14
    assert report.count_op == report.count_refl + 2


def test_acceptance_6_property_suites(atlas2, atlas3):
    entries = list(atlas2) + list(atlas3)
    ok = False
    stage = "dual involution"
    try:
        for e in entries:
            m = e.representative
            assert canonical_key(dual(dual(m)), True) == canonical_key(m, True)
            assert canonical_key(dual(dual(m)), False) == canonical_key(m, False)

        stage = "edge repetition vs dual loops"
        checked = 0
        for order in (2, 3):
            for m in pool(order):
                d = dual(m)
                loopy = any(d.dart_origin[2 * k] == d.dart_origin[2 * k + 1]
                            for k in range(d.n_edges))
                assert is_newton(m).e_property.holds == (not loopy)
                checked += 1
        assert checked == 36 + 9432

        stage = "refinement counts"
        for e in entries:
            r = e.order
            ref = refinement(e.representative)
            assert ref.order == 4 * r
            assert ref.n_edges == 8 * r
            assert len(facial_walks(ref)) == 4 * r

        stage = "key invariance under relabeling"
        rng = random.Random(2024)
        for name in ("n2.map", "case1.map", "case3.map"):
            m = parse(fixture_text(name))
            kr = canonical_key(m, True)
            ko = canonical_key(m, False)
            for _ in range(100):
                other = relabel(m, rng=rng)
                assert canonical_key(other, True) == kr
                assert canonical_key(other, False) == ko

        stage = "witness vs brute force, order 2 exhaustive"
        maps2 = pool(2)
        pairs2 = 0
        for i in range(len(maps2)):
            for j in range(i, len(maps2)):
                for sense in (True, False):
                    assert (brute_force_iso(maps2[i], maps2[j], sense)
                            == are_equivalent(maps2[i], maps2[j], sense)
                            .equivalent)
                pairs2 += 1

        stage = "witness vs brute force, order 3 sampled"
        maps3 = pool(3)
        sampled = 0
        for _ in range(700):
            a, b = rng.choice(maps3), rng.choice(maps3)
            for sense in (True, False):
                assert (brute_force_iso(a, b, sense)
                        == are_equivalent(a, b, sense).equivalent)
            sampled += 1
        for _ in range(300):
            a = rng.choice(maps3)
            b = relabel(a, rng=rng)
            for sense in (True, False):
                assert brute_force_iso(a, b, sense)
                assert are_equivalent(a, b, sense).equivalent
            sampled += 1
        assert sampled >= 1000
        ok = True
    finally:
        detail = (f"dual involution, edge-repetition/dual-loop match on "
                  f"{36 + 9432} candidates, refinement counts, key "
                  f"invariance x300, witness vs brute force on "
                  f"{666 + 1000}+ pairs"
                  if ok else f"failed during: {stage}")
        _verdict(6, ok, detail)


def test_acceptance_7_parallel_determinism(tmp_path):
    outs = []
    for jobs, sub in (("1", "j1"), ("2", "j2")):
        d = tmp_path / sub
        assert run_cli("classify", "--order", "3", "--jobs", jobs,
                       "--out", str(d)).code == 0
        outs.append((d / "atlas_order3.jsonl").read_bytes())
    same = outs[0] == outs[1]
    golden = outs[0] == (FIXTURES / "atlas_order3.jsonl").read_bytes()
    _verdict(7, same and golden,
             f"jobs=1 vs jobs=2 atlas bytes identical={same}, "
             f"matches committed atlas={golden}")
    assert same
    assert golden
