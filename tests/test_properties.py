"""Property-based invariants over the raw candidate pools."""

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical_form, raw_candidates
from newtonmaps import (are_equivalent, canonical_key, dual,
                        euler_characteristic, facial_walks, genus, mirror,
                        parse, relabel, serialize)
from newtonmaps.embedded_map import _cycles

common = settings(max_examples=40, deadline=None, derandomize=True)


@functools.lru_cache(maxsize=None)
def pool(order: int):
    return tuple(raw_candidates(order))


def draw_map(data):
    order = data.draw(st.sampled_from([2, 3]))
    ms = pool(order)
    return ms[data.draw(st.integers(0, len(ms) - 1))]


@common
@given(st.data())
def test_keys_are_relabeling_invariant(data):
    m = draw_map(data)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    other = relabel(m, rng=rng)
    assert canonical_key(other, True) == canonical_key(m, True)
    assert canonical_key(other, False) == canonical_key(m, False)


@common
@given(st.data())
def test_document_round_trip(data):
    m = draw_map(data)
    doc = serialize(m)
    assert serialize(parse(doc)) == doc


@common
@given(st.data())
def test_walks_partition_darts(data):
    m = draw_map(data)
    darts = [d for w in facial_walks(m) for d in w]
    assert sorted(darts) == list(range(m.n_darts))


@common
@given(st.data())
def test_dual_and_mirror_are_involutions(data):
    m = draw_map(data)
    dd = dual(dual(m))
    assert dd.sigma == m.sigma
    assert dd.n_darts == m.n_darts  # so the pairing d ^ 1 is the same
    assert mirror(mirror(m)) == m


@common
@given(st.data())
def test_mirror_preserves_reflection_key(data):
    m = draw_map(data)
    assert canonical_key(mirror(m), True) == canonical_key(m, True)


@common
@given(st.data())
def test_dual_commutes_with_mirror(data):
    m = draw_map(data)
    assert are_equivalent(dual(mirror(m)), mirror(dual(m)), False)


@common
@given(st.data())
def test_characteristic_is_even_and_bounded(data):
    m = draw_map(data)
    chi = euler_characteristic(m)
    assert chi % 2 == 0
    assert chi <= 2
    assert genus(m) in (0, 1, 2)


@common
@given(st.data())
def test_canonical_form_is_stable(data):
    m = draw_map(data)
    cf = canonical_form(m)
    assert canonical_form(cf) == cf
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    assert serialize(canonical_form(relabel(m, rng=rng))) == serialize(cf)


@common
@given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(n))))
def test_cycles_partition_a_permutation(perm):
    label, cycles = _cycles(perm)
    assert sorted(d for c in cycles for d in c) == list(range(len(perm)))
    assert len(label) == len(perm)
    for i, c in enumerate(cycles):
        assert c[0] == min(c)
        assert all(perm[d] == c[(j + 1) % len(c)] for j, d in enumerate(c))
        assert all(label[d] == i for d in c)
    starts = [c[0] for c in cycles]
    assert starts == sorted(starts)
