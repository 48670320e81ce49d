from __future__ import annotations

import pytest

from oracles import mask_connected_classes
from rdom import enumeration


@pytest.fixture(scope="session")
def oracle_connected():
    """Connected isomorphism classes for n <= 7 from the naive labeled
    enumeration (the ground truth the production enumerator is checked
    against). Computed once per session; n = 7 is the expensive level."""
    return {n: mask_connected_classes(n) for n in range(1, 8)}


@pytest.fixture
def no_enumeration(monkeypatch):
    """Every enumeration step fails the test: the augmentation step behind
    every augmented class, its subtree roots included, and the
    degree-bipartite generator. The cache is emptied first, so a check
    that must come before enumerating is tested whatever ran before."""
    enumeration.connected_classes.cache_clear()
    fail = lambda *args: pytest.fail("enumerated")
    monkeypatch.setattr(enumeration, "_canonical_children", fail)
    monkeypatch.setattr(enumeration, "_degree_bipartite_classes", fail)
