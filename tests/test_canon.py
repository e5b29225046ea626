"""Canonical keys, canonical forms, and isomorphism witnesses."""

import random

import pytest

from _oracle import (SizeGuardError, brute_force_iso, full_search_sided,
                     full_search_trace, trace_from)
from conftest import (FIXTURES, build_chiral, build_random_multigraph,
                      build_sphere_n2, build_torus_grid, canonical_form,
                      raw_candidates)
from newtonmaps import (CanonicalKey, MapStructureError, are_equivalent,
                        atlas_from_jsonl, canon, canonical_key, dual,
                        is_newton, make_map, mirror, parse, refinement,
                        relabel, serialize, validate)
from newtonmaps.canon import IsoResult, _count_isomorphisms, _map_from_trace

N2_KEY_HEX = "01020304040005060601000707030205"


def test_key_is_deterministic(n2):
    k1 = canonical_key(n2, True)
    k2 = canonical_key(parse(serialize(n2)), True)
    assert k1 == k2
    assert k1.hex() == N2_KEY_HEX
    assert len(k1.hex()) == 4 * n2.n_darts  # two trace bytes per dart


def test_key_senses_coincide_on_achiral_map(n2):
    assert canonical_key(n2, False).hex() == N2_KEY_HEX


def test_key_invariant_under_relabeling(n2, case1, case3):
    rng = random.Random(11)
    for m in (n2, case1, case3, build_chiral()):
        kr = canonical_key(m, True)
        ko = canonical_key(m, False)
        for _ in range(20):
            other = relabel(m, rng=rng)
            assert canonical_key(other, True) == kr
            assert canonical_key(other, False) == ko


def test_chirality_shows_only_in_oriented_sense():
    m = build_chiral()
    mm = mirror(m)
    assert canonical_key(m, True) == canonical_key(mm, True)
    assert canonical_key(m, False) != canonical_key(mm, False)
    assert canonical_key(m, False).hex() == (
        "010200030400050106050704080709060a0b0b0a02090308")
    assert canonical_key(mm, False).hex() == (
        "010200030400050106070706080509040a090b08020b030a")


def test_mirror_of_achiral_map_is_op_equivalent(n2, case1):
    for m in (n2, case1):
        assert are_equivalent(m, mirror(m), False)
        assert brute_force_iso(m, mirror(m), False)


def test_are_equivalent_witness(case1):
    rng = random.Random(3)
    other = relabel(case1, rng=rng)
    res = are_equivalent(case1, other, True)
    assert res.equivalent
    assert bool(res)
    assert res.reflected is False
    f = res.dart_map
    assert sorted(f) == list(range(case1.n_darts))
    for d in range(case1.n_darts):
        assert f[case1.sigma[d]] == other.sigma[f[d]]
        assert f[d ^ 1] == f[d] ^ 1
        assert other.edge_of(f[d]) is not None


def test_are_equivalent_reflected_witness():
    m = build_chiral()
    mm = mirror(m)
    assert not are_equivalent(m, mm, False)
    res = are_equivalent(m, mm, True)
    assert res.equivalent
    assert res.reflected is True
    inv = [0] * mm.n_darts
    for d in range(mm.n_darts):
        inv[mm.sigma[d]] = d
    f = res.dart_map
    for d in range(m.n_darts):
        assert f[m.sigma[d]] == inv[f[d]]
        assert f[d ^ 1] == f[d] ^ 1


def test_are_equivalent_negative(n2, case1, case3):
    assert not are_equivalent(n2, case1, True)        # different sizes
    assert not are_equivalent(case1, case3, True)     # different classes
    assert not are_equivalent(n2, build_sphere_n2(), True)
    assert are_equivalent(case1, case3, True).dart_map is None


def test_brute_force_agrees(n2, case1, case3):
    maps = [n2, build_sphere_n2()]
    for a in maps:
        for b in maps:
            for sense in (True, False):
                assert (brute_force_iso(a, b, sense)
                        == are_equivalent(a, b, sense).equivalent)
    assert brute_force_iso(case1, case3, True) == bool(
        are_equivalent(case1, case3, True))


def test_brute_force_size_guard(n2):
    big = refinement(n2)
    assert big.n_darts == 32
    with pytest.raises(SizeGuardError):
        brute_force_iso(big, big, True)


def test_key_ordering_within_one_sense(case1, case3):
    ka = canonical_key(case1, True)
    kb = canonical_key(case3, True)
    assert (ka < kb) != (kb < ka)
    assert sorted([kb, ka]) == sorted([ka, kb])


def test_key_ordering_across_senses_is_an_error(n2):
    with pytest.raises(TypeError):
        canonical_key(n2, True) < canonical_key(n2, False)


def test_key_hex_round_trip(case1):
    k = canonical_key(case1, True)
    assert CanonicalKey.from_hex(k.hex(), True) == k
    # only the text hex() writes decodes: no upper case, spaces or newline
    pairs = [k.hex()[i:i + 2] for i in range(0, len(k.hex()), 2)]
    for text in (k.hex().upper(), " ".join(pairs), k.hex() + "\n"):
        with pytest.raises(ValueError, match="not as hex"):
            CanonicalKey.from_hex(text, True)


def test_key_requires_valid_map():
    m = make_map(
        [("a", ("v1", "v2")), ("b", ("v1", "v2")),
         ("c", ("v3", "v4")), ("d", ("v3", "v4"))],
        {"v1": ["a", "b"], "v2": ["a", "b"], "v3": ["c", "d"], "v4": ["c", "d"]})
    with pytest.raises(MapStructureError):
        canonical_key(m)


def test_canonical_form_is_class_function(case1):
    rng = random.Random(5)
    doc = serialize(canonical_form(case1))
    for _ in range(10):
        other = relabel(case1, rng=rng)
        assert serialize(canonical_form(other)) == doc


def test_canonical_form_idempotent(n2, case1, case3):
    for m in (n2, case1, case3, build_chiral()):
        cf = canonical_form(m)
        assert validate(cf).ok
        assert canonical_form(cf) == cf
        assert canonical_key(cf, True) == canonical_key(m, True)
        assert are_equivalent(cf, m, True)


def test_canonical_form_oriented_sense():
    m = build_chiral()
    cf = canonical_form(m, allow_reflection=False)
    assert are_equivalent(cf, m, False)
    assert canonical_key(cf, False) == canonical_key(m, False)
    # the reflection-allowed form may be the mirror image instead
    cf_refl = canonical_form(m, allow_reflection=True)
    assert are_equivalent(cf_refl, m, True)


def test_canonical_form_naming(case1):
    cf = canonical_form(case1)
    assert cf.vertices == ("v1", "v2", "v3")
    assert cf.edges == ("a", "b", "c", "d", "e", "f")
    assert serialize(cf).startswith("order 3\nedge a v1 ")


def test_dual_key_closure(case1, case3):
    # duals of these classes are again keyable maps with matching involution
    for m in (case1, case3):
        d = dual(m)
        assert canonical_key(dual(d), True) == canonical_key(m, True)


@pytest.mark.parametrize("build", [
    lambda: build_torus_grid(3, 5), lambda: build_torus_grid(4, 7),
    lambda: build_random_multigraph(random.Random(5), 40),
    lambda: build_random_multigraph(random.Random(6), 120),
], ids=["grid-3x5", "grid-4x7", "random-40", "random-120"])
@pytest.mark.parametrize("sense", [True, False], ids=["refl", "op"])
def test_key_decodes_to_its_fixpoint_past_26_edges(build, sense):
    # the atlas takes a class's representative to be the map its key
    # decodes to; past 26 edges the decoded names run on as e27, e28, ...
    m = build()
    key = canonical_key(m, sense)
    rep = _map_from_trace(key.trace)
    assert canonical_key(rep, sense) == key
    assert are_equivalent(rep, m, sense)
    assert rep.edges[24:27] == ("y", "z", "e27")
    assert rep.edges[-1] == f"e{m.n_edges}"
    doc = serialize(rep)
    assert serialize(parse(doc)) == doc
    assert parse(doc) == rep


def test_key_search_matches_full_search():
    # the pruned search must find the full search's minimum, chirality and
    # a root whose visit order reaches that minimum
    rng = random.Random(23)
    accepted = [m for m in raw_candidates(3)
                if is_newton(m).verdict == "newton"]
    assert len(accepted) == 1372
    maps = accepted + [mirror(m) for m in accepted]
    maps += [build_torus_grid(k, l) for k, l in ((3, 3), (3, 5), (4, 7), (8, 10))]
    maps += [build_random_multigraph(rng, e) for e in (12, 30, 60, 100, 160)]
    assert max(m.n_darts for m in maps) == 320
    for m in maps + [relabel(m, rng) for m in maps]:
        for sense in (True, False):
            trace, order, mirrored = canon._best_trace_sided(m, sense)
            want, _, want_mirrored = full_search_sided(m.sigma, sense)
            assert (trace, mirrored) == (want, want_mirrored)
            sigma = mirror(m).sigma if mirrored else m.sigma
            assert trace_from(sigma, order[0]) == (trace, order)
    for m in maps[-9:]:
        for sense in (True, False):
            assert are_equivalent(m, relabel(m, rng), sense)


def _traced_roots(monkeypatch) -> list:
    """Each root trace's sigma and visit order, None if aborted, in call order."""
    traced = []
    real = canon._trace_from

    def recording(sigma, *args):
        trace, order = real(sigma, *args)
        traced.append((tuple(sigma), order))
        return trace, order

    monkeypatch.setattr(canon, "_trace_from", recording)
    return traced


def _finished(traced, sigma) -> int:
    return sum(s == sigma and order is not None for s, order in traced)


def test_key_search_prunes_ties_on_symmetric_grid(monkeypatch):
    # every root of a square grid ties, and a tie pairs its visit order with
    # the first root's into an automorphism: a root onto which the
    # automorphisms found so far map the first root is never traced.  The
    # mirror pass, whose first tie is with the bound, stops at that tie
    traced = _traced_roots(monkeypatch)
    for grid in (build_torus_grid(9, 9), build_torus_grid(5, 5)):
        traced.clear()
        key = canonical_key(grid, True)
        assert key.trace == full_search_sided(grid.sigma, True)[0]
        assert _finished(traced, mirror(grid).sigma) == 1
        first, *ties = [order for s, order in traced if s == grid.sigma]
        assert None not in ties
        assert sum(order is not None for _, order in traced) <= 10
        found = []  # automorphisms, each as a dart -> dart tuple
        for order in ties:
            orbit, reached = {first[0]}, [first[0]]
            for d in reached:
                for e in (g[d] for g in found):
                    if e not in orbit:
                        orbit.add(e)
                        reached.append(e)
            assert order[0] not in orbit
            found.append(tuple(order[first.index(d)] for d in range(grid.n_darts)))


def test_iso_searches_b_up_to_its_first_witness_root(monkeypatch):
    # b ties a's key at its first finished root, in the first chirality, so
    # its search ends there and mirror(b) is never searched
    rng = random.Random(47)
    traced = _traced_roots(monkeypatch)
    for m in (build_torus_grid(4, 6), build_torus_grid(9, 9)):
        for sense in (True, False):
            b = relabel(m, rng)
            traced.clear()
            result = are_equivalent(m, b, sense)
            assert (result.equivalent, result.reflected) == (True, False)
            assert _finished(traced, b.sigma) == 1
            assert mirror(b).sigma not in [s for s, _ in traced]


def test_key_search_leaves_shared_array_unset(monkeypatch):
    # the index array of a chirality is all -1 between roots: after one
    # traced to the end, one aborted above the bound, and one skipped as a
    # member of a known orbit (checked on entry to the next root's trace)
    calls = {}
    real = canon._trace_from

    def checked(sigma, root, bound, idx):
        assert idx == [-1] * len(sigma)
        trace, order = real(sigma, root, bound, idx)
        assert idx == [-1] * len(sigma)
        calls.setdefault(tuple(sigma), []).append(trace is not None)
        return trace, order

    monkeypatch.setattr(canon, "_trace_from", checked)
    kinds = set()
    for m in (build_torus_grid(9, 9),
              build_random_multigraph(random.Random(31), 160)):
        calls.clear()
        canonical_key(m, True)
        assert len(calls) == 2  # both chiralities
        for finished in calls.values():
            if any(finished):
                kinds.add("traced")
            if not all(finished):
                kinds.add("aborted")
            if len(finished) < m.n_darts:
                kinds.add("skipped")
    assert kinds == {"traced", "aborted", "skipped"}


def _unbounded_iso(a, b, sense: bool) -> IsoResult:
    """The IsoResult of searching each map in full, b without a's trace as
    its bound: the witness pairs the visit orders of each map's first root
    reaching the least trace."""
    if a.n_darts != b.n_darts:
        return IsoResult(False)
    ta, order_a, mir_a = full_search_sided(a.sigma, sense)
    tb, order_b, mir_b = full_search_sided(b.sigma, sense)
    if ta != tb:
        return IsoResult(False)
    pos_a = {d: i for i, d in enumerate(order_a)}
    return IsoResult(True, tuple(order_b[pos_a[d]] for d in range(a.n_darts)),
                     mir_a != mir_b)


def test_bounded_iso_matches_unbounded_search():
    # b is searched against a's trace; the answer, witness and chirality must
    # be those of an unbounded search, on relabelled, mirrored, dual and
    # inequivalent pairs of equal size, in both senses
    rng = random.Random(41)
    atlas = atlas_from_jsonl((FIXTURES / "atlas_order3.jsonl").read_text())
    reps = [e.representative for e in atlas]
    pairs = [(a, b) for a in reps for b in reps]
    pairs += [(m, other(m)) for m in reps for other in (mirror, dual)]
    maps = [build_random_multigraph(rng, e) for e in (12, 12, 30, 30, 45)]
    maps += [build_torus_grid(k, l) for k, l in ((3, 3), (3, 4), (4, 6), (3, 8))]
    for m in maps:
        pairs += [(m, relabel(m, rng)), (m, mirror(relabel(m, rng)))]
    pairs += [(maps[0], maps[1]), (maps[2], relabel(maps[3], rng)),
              (maps[-2], maps[-1]), (maps[-1], mirror(maps[-2]))]
    # larger inputs of 200 and 320 darts, the grid with 160 automorphisms
    for m in (build_random_multigraph(random.Random(43), 100), build_torus_grid(8, 10)):
        pairs += [(m, relabel(m, rng)), (m, mirror(relabel(m, rng)))]
    seen = set()
    for a, b in pairs:
        for sense in (True, False):
            got = are_equivalent(a, b, sense)
            assert got == _unbounded_iso(a, b, sense)
            seen.add((got.equivalent, got.reflected))
    assert seen == {(True, False), (True, True), (False, None)}


def test_automorphism_count_matches_full_search():
    # |Aut+| is the number of roots whose full trace is the least one
    accepted = [m for m in raw_candidates(2) if is_newton(m).verdict == "newton"]
    accepted += [m for m in raw_candidates(3) if is_newton(m).verdict == "newton"]
    assert len(accepted) == 6 + 1372
    maps = accepted + [mirror(m) for m in accepted]
    maps += [build_torus_grid(3, 3), build_torus_grid(4, 7)]
    # a pendant edge: sigma fixes dart 0
    maps.append(make_map([("a", ("u", "v"))], {"u": ["a"], "v": ["a"]}))
    counts = set()
    for m in maps:
        least = full_search_trace(m.sigma)[0]
        want = sum(trace_from(m.sigma, root)[0] == least
                   for root in range(m.n_darts))
        assert _count_isomorphisms(m.sigma, m.sigma) == want
        counts.add(want)
    assert counts == {1, 2, 6, 8, 36, 56}  # 3x3: 9 shifts x 4 turns; 4x7: 28 x 2


@pytest.mark.parametrize("step", [lambda m, d: d ^ 1, lambda m, d: m.sigma[d]],
                         ids=["keeps-alpha", "keeps-sigma"])
def test_broken_witness_is_an_internal_fault(monkeypatch, case1, step):
    # the second map's visit order is moved by step, so the witness f is
    # step itself; on case1, d -> d ^ 1 respects alpha but not sigma, and
    # d -> sigma(d) respects sigma but not alpha
    real, calls = canon._best_trace_sided, []

    def skewed(m, *sense_and_bound):
        trace, order, mirrored = real(m, *sense_and_bound)
        calls.append(m)
        if len(calls) == 2:
            order = [step(m, d) for d in order]
        return trace, order, mirrored

    monkeypatch.setattr(canon, "_best_trace_sided", skewed)
    with pytest.raises(canon.WitnessError, match="witness fails at dart"):
        are_equivalent(case1, case1, False)
