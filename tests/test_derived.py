"""Derived structure is computed once per semigroup and shared."""

import gc

import numpy as np
import pytest

import semikit as sk
from semikit.corpus import census
from semikit.errors import SearchCapExceeded
from semikit.greens import _ideal_rows
from semikit.ideals import kernel_members


def fresh_copy(S):
    return sk.FiniteSemigroup(S.table.copy(), name=S.name, validate=False)


def test_greens_structure_shared(t2):
    G = sk.greens_structure(t2)
    assert sk.greens_structure(t2) is G
    assert "d_order" not in vars(G)  # built on first read
    assert G.d_order is G.d_order  # and kept
    assert np.array_equal(G.d_order, sk.greens_structure(fresh_copy(t2)).d_order)
    with pytest.raises(ValueError):
        G.l_class[0] = 1  # shared labels are read-only
    with pytest.raises(ValueError):
        G.d_order[0, 1] = True  # so is the kept D-order


def test_cached_members_match_fresh_computation(census4):
    for S in census4:
        for _ in range(2):  # the second round reads the cache
            copy = fresh_copy(S)
            assert kernel_members(S) == kernel_members(copy)
            assert sk.is_monoid(S) == sk.is_monoid(copy)
            assert sk.idempotents(S).members == sk.idempotents(copy).members
            got = [T.members for T in sk.enumerate_subsemigroups(S)]
            assert got == [T.members for T in sk.enumerate_subsemigroups(copy)]


def test_ideal_rows_kept_once(census4, seeded_closures):
    for S in list(census4) + seeded_closures:
        pair = _ideal_rows(S)
        assert _ideal_rows(S) is pair
        assert sk.greens_structure(S).ideal_rows is pair  # the D-order reads the same pair
        assert not any(rows.flags.writeable for rows in pair)
        fresh = _ideal_rows(fresh_copy(S))
        assert all(np.array_equal(a, b) for a, b in zip(pair, fresh))


def test_enumerate_subsemigroups_returns_a_new_list(rb22):
    first = sk.enumerate_subsemigroups(rb22)
    expected = [T.members for T in first]
    first.pop()
    first[0] = sk.SubsetHandle(rb22, (0, 1, 2, 3))
    assert [T.members for T in sk.enumerate_subsemigroups(rb22)] == expected
    with pytest.raises(SearchCapExceeded):
        sk.enumerate_subsemigroups(rb22, cap=3)  # the cap holds after caching


def test_verify_leaves_no_reference_cycle():
    # a cached value that referred back to its semigroup would make a cycle
    # that only the garbage collector frees
    gc.collect()
    gc.disable()
    try:
        semigroups = census(4)
        assert sk.verify_suite(semigroups).summary == {"pass": 3052, "fail": 0}
        del semigroups
        assert gc.collect() == 0
    finally:
        gc.enable()
