"""The package's public name list stays in step with what it defines."""

import contextprob


def test_star_import_succeeds():
    namespace = {}
    exec("from contextprob import *", namespace)
    assert set(contextprob.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    assert len(contextprob.__all__) == len(set(contextprob.__all__))


def test_every_name_in_all_resolves():
    missing = [name for name in contextprob.__all__ if not hasattr(contextprob, name)]
    assert missing == []
