"""The package's export list."""

import newtonmaps


def test_all_is_sorted_unique_and_resolves():
    names = newtonmaps.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(newtonmaps, n)] == []
    namespace = {}
    exec("from newtonmaps import *", namespace)
    assert set(names) <= set(namespace)
