"""The package's public names: ``weibtail.__all__`` against the module."""

import weibtail as wt


def test_all_names_resolve_once():
    assert len(wt.__all__) == len(set(wt.__all__))
    assert [name for name in wt.__all__ if not hasattr(wt, name)] == []


def test_star_import():
    namespace = {}
    exec("from weibtail import *", namespace)
    assert set(wt.__all__) <= set(namespace)
