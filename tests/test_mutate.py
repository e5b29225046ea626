"""The mutation audit's site list, mutants, equivalent list and wall; no
tier-1 run is let finish."""

import ast
import time

import mutate


def _differences(a, b) -> list:
    """The outermost nodes or values at which two syntax trees differ."""
    if type(a) is not type(b):
        return [a]
    if isinstance(a, list):
        if len(a) != len(b):
            return [a]
        return [d for x, y in zip(a, b) for d in _differences(x, y)]
    if not isinstance(a, ast.AST):
        return [] if a == b else [a]
    pairs = list(zip(ast.iter_fields(a), ast.iter_fields(b)))
    if any(x != y for (_, x), (_, y) in pairs
           if not isinstance(x, (ast.AST, list))):
        return [a]
    return [d for (_, x), (_, y) in pairs for d in _differences(x, y)]


def test_sites_are_deterministic():
    first = [s for m in mutate.modules() for s in mutate.sites(m)]
    assert first == [s for m in mutate.modules() for s in mutate.sites(m)]
    assert len({mutate._key(s) for s in first}) == len(first)  # one site a key
    assert {s.module for s in first} >= {"canon", "embedded_map", "enumeration"}


def test_each_mutant_changes_one_node():
    source = ast.parse((mutate.PACKAGE / "newton.py").read_text())
    sites = mutate.sites("newton")
    assert {s.operator.split()[0] for s in sites} >= {"==", "and", "drop", "0"}
    for site in sites:
        text = mutate.mutant_source(site)
        compile(text, "newton.py", "exec")
        assert len(_differences(source, ast.parse(text))) == 1, site


def test_equivalent_mutants_are_still_sites():
    keys = {mutate._key(s) for m in mutate.modules() for s in mutate.sites(m)}
    assert sorted(set(mutate.EQUIVALENT) - keys) == []
    assert all(mutate.EQUIVALENT.values())


def test_a_run_past_its_wall_is_killed():
    start = time.monotonic()
    assert mutate._tier1(None, 0.1)[0] == "timeout"
    assert time.monotonic() - start < 5
