import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import semikit as sk
from semikit.core import associativity_witness
from semikit.errors import ElementNotInSubset, NotAnIdeal, NotIdempotent, SearchCapExceeded
from semikit.greens import _right_ideal_members
from semikit.ideals import (
    _is_two_sided_ideal,
    _minimal_ideal_table,
    _swelling_verdicts,
    enumerate_ideals,
    is_minimal_one_sided_ideal,
    kernel_members,
    minimal_ideal_equivalences,
)


def exhaustive_is_minimal(S, members, side):
    """Oracle: a one-sided ideal is minimal iff no proper nonempty subset
    is itself a one-sided ideal on the same side."""
    n = S.order
    mem = sorted(set(int(m) for m in members))

    def is_ideal(sub):
        if side == "left":
            return all(S.product(x, a) in sub for x in range(n) for a in sub)
        return all(S.product(a, x) in sub for x in range(n) for a in sub)

    assert is_ideal(set(mem))
    return not any(
        is_ideal(set(sub)) for size in range(1, len(mem)) for sub in combinations(mem, size)
    )


def test_kernel_group_is_simple(z3):
    report = sk.kernel(z3)
    assert report.kernel.members == (0, 1, 2)


def test_kernel_pb(pb):
    report = sk.kernel(pb)
    assert report.kernel.members == (0, 1)
    assert [h.members for h in report.min_left] == [(0, 1)]
    assert [h.members for h in report.min_right] == [(0,), (1,)]
    assert report.idempotents == (0, 1)


def test_kernel_t2(t2):
    report = sk.kernel(t2)
    assert report.kernel.members == (2, 3)
    assert [h.members for h in report.min_left] == [(2, 3)]
    assert [h.members for h in report.min_right] == [(2,), (3,)]


def test_kernel_contained_in_every_ideal(t2, pb, l2):
    for S in (t2, pb, l2):
        K = set(kernel_members(S))
        for ideal in enumerate_ideals(S):
            assert K <= set(ideal)


def test_kernel_equals_ses_for_kernel_idempotents(t2, pb):
    for S in (t2, pb):
        report = sk.kernel(S)
        K = np.asarray(report.kernel.members)
        for e in report.idempotents:
            se = np.unique(S.table[:, e])
            ses = np.unique(S.table[se, :])
            assert np.array_equal(ses, K)


def test_minimal_ideal_equivalences_t2(t2):
    assert tuple(minimal_ideal_equivalences(t2, 2)) == (True, True, True, True)
    assert tuple(minimal_ideal_equivalences(t2, 0)) == (False, False, False, False)


def test_minimal_ideal_equivalences_z3(z3):
    assert minimal_ideal_equivalences(z3, 0).verdict


def test_minimal_ideal_equivalences_rejects_non_idempotent(t2):
    with pytest.raises(NotIdempotent):
        minimal_ideal_equivalences(t2, 1)


def minimal_ideal_oracle(S, e):
    """The four statements at one idempotent e, each from its own sets: Se
    and eS tested for minimality element by element, eSe re-tabled and
    asked is_group, and SeS as the union of the rows xS."""
    T = S.table
    se = _right_ideal_members(T.T, e)  # Se = S^1 e, as e = ee
    es = _right_ideal_members(T, e)
    ese = np.unique(T[T[e, :], e])
    ses = np.unique(T[se, :].ravel())
    sub, _ = sk.subsemigroup_table(S, ese)
    return (
        is_minimal_one_sided_ideal(S, se, "left"),
        sk.is_group(sub),
        is_minimal_one_sided_ideal(S, es, "right"),
        np.array_equal(np.asarray(kernel_members(S)), ses),
    )


def test_minimal_ideal_table_matches_oracle(census5, seeded_closures):
    rows = set()
    for S in list(census5) + seeded_closures:
        E = sk.idempotents(S).members
        se, es, table = _minimal_ideal_table(S, E)
        for i, e in enumerate(E):
            assert tuple(table[i].tolist()) == minimal_ideal_oracle(S, e), (S.name, e)
            assert se[i].nonzero()[0].tolist() == _right_ideal_members(S.table.T, e).tolist()
            assert es[i].nonzero()[0].tolist() == _right_ideal_members(S.table, e).tolist()
        rows |= set(map(tuple, table.tolist()))
    assert rows == {(True,) * 4, (False,) * 4}


def test_minimal_ideal_equivalences_is_a_table_row(census4):
    for S in census4:
        E = sk.idempotents(S).members
        table = _minimal_ideal_table(S, E)[2].tolist()
        verdicts = [tuple(minimal_ideal_equivalences(S, e)) for e in E]
        assert verdicts == [tuple(row) for row in table]
        assert all(type(v) is bool for row in verdicts for v in row)  # json.dumps refuses np.bool_


def test_kernel_memory_bounded():
    # all 1024 elements of RB(32,32) are kernel idempotents; the statements
    # are decided slice by slice, not over 1024×1024×32 gathers at once
    S = sk.gen_standard("rect_band", 32, 32)
    tracemalloc.start()
    try:
        report = sk.kernel(S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.idempotents) == 1024 and len(report.min_left) == 32
    assert all(all(v) for v in report.witnesses.values())
    assert peak < 20 << 20


def test_minimality_methods_agree(t2, pb, rb22, z3):
    for S in (t2, pb, rb22, z3):
        for e in sk.idempotents(S):
            se = sorted(set(int(x) for x in S.table[:, e]))
            es = sorted(set(int(x) for x in S.table[e, :]))
            for members, side in ((se, "left"), (es, "right")):
                assert exhaustive_is_minimal(S, members, side) == (
                    is_minimal_one_sided_ideal(S, members, side)
                )


@pytest.mark.parametrize("members, side", [([], "left"), ([], "right"), ([0, 1], "left")])
def test_minimal_one_sided_ideal_rejects_non_ideal(t2, members, side):
    with pytest.raises(NotAnIdeal):
        is_minimal_one_sided_ideal(t2, members, side)


def test_enumerate_ideals_cap():
    with pytest.raises(SearchCapExceeded):
        enumerate_ideals(sk.gen_standard("cyclic", 7))


def test_minimal_left_ideals_have_stated_form(t2, pb):
    # every minimal left ideal is Se for an idempotent of K, and each of its
    # elements generates it
    for S in (t2, pb):
        report = sk.kernel(S)
        for h in report.min_left:
            assert any(
                set(h.members) == set(int(v) for v in S.table[:, e])
                for e in report.idempotents
            )
            for x in h.members:
                left = set(int(v) for v in S.table[:, x]) | {x}
                assert left == set(h.members)


def test_idempotent_poset_pb(pb):
    poset = sk.idempotent_poset(pb)
    assert poset.elements == (0, 1, 2, 3)
    leq_pairs = {
        (poset.elements[i], poset.elements[j])
        for i in range(4)
        for j in range(4)
        if poset.leq[i, j] and i != j
    }
    assert leq_pairs == {(0, 2), (1, 3)}
    assert poset.primitives == (0, 1)


def test_idempotent_poset_z3(z3):
    poset = sk.idempotent_poset(z3)
    assert poset.elements == (0,)
    assert poset.primitives == (0,)


def test_idempotent_poset_rb22_antichain(rb22):
    poset = sk.idempotent_poset(rb22)
    assert poset.primitives == (0, 1, 2, 3)
    assert np.array_equal(poset.leq, np.eye(4, dtype=bool))


def test_idempotent_poset_matches_double_loop(census5):
    for S in census5:
        E = sk.idempotents(S).members
        leq = np.zeros((len(E), len(E)), dtype=bool)
        for i, e in enumerate(E):
            for j, f in enumerate(E):
                leq[i, j] = S.product(e, f) == e and S.product(f, e) == e
        primitives = tuple(
            E[i] for i in range(len(E)) if all(not leq[j, i] or j == i for j in range(len(E)))
        )
        poset = sk.idempotent_poset(S)
        assert poset.elements == E
        assert poset.leq.dtype == bool and np.array_equal(poset.leq, leq), S.name
        assert poset.primitives == primitives and all(type(e) is int for e in primitives)


def test_idempotent_poset_is_partial_order(census4):
    for S in census4:
        leq = sk.idempotent_poset(S).leq
        k = leq.shape[0]
        assert leq.diagonal().all()
        assert not (leq & leq.T & ~np.eye(k, dtype=bool)).any()
        assert not ((leq.astype(int) @ leq.astype(int) > 0) & ~leq).any()


def test_rees_quotient_pb(pb):
    K = sk.kernel(pb).kernel
    Q, pi = sk.rees_quotient(pb, K)
    assert Q.order == 3
    # derived cell by cell from the collapse rule on the PB table
    expected = [[0, 0, 0], [0, 1, 1], [0, 2, 2]]
    assert Q.table.tolist() == expected
    assert pi.is_homomorphism
    # projection restricted to the survivors is injective
    survivors = [x for x in range(pb.order) if x not in K]
    assert len({pi(x) for x in survivors}) == len(survivors)


def test_rees_quotient_whole_semigroup(pb):
    ideal = sk.SubsetHandle(pb, (0, 1, 2, 3))
    Q, _ = sk.rees_quotient(pb, ideal)
    assert Q.order == 1


def test_rees_quotient_t2(t2):
    ideal = sk.SubsetHandle(t2, (2, 3))
    Q, pi = sk.rees_quotient(t2, ideal)
    assert Q.order == 3
    survivors = sorted({pi(0), pi(1)})
    sub, _ = sk.subsemigroup_table(Q, survivors)
    assert sk.is_group(sub)


def test_rees_quotient_rejects_non_ideal(t2):
    for members in ((0, 1), ()):
        with pytest.raises(NotAnIdeal):
            sk.rees_quotient(t2, sk.SubsetHandle(t2, members))


def test_rees_quotient_size_invariant(t2, pb):
    for S in (t2, pb):
        for ideal in enumerate_ideals(S):
            Q, _ = sk.rees_quotient(S, sk.SubsetHandle(S, ideal))
            assert Q.order == S.order - len(ideal) + 1


def test_rees_quotient_every_census_ideal(census4):
    # the quotient table is not re-validated, so check it here: S/I is a
    # semigroup and the projection a homomorphism for every ideal I
    for S in census4:
        for ideal in enumerate_ideals(S):
            Q, pi = sk.rees_quotient(S, sk.SubsetHandle(S, ideal))
            assert associativity_witness(Q.table) is None
            assert pi.is_homomorphism


def test_swelling_group_translation(z3):
    A = sk.SubsetHandle(z3, (0, 1, 2))
    assert sk.swelling_check(z3, A, 1) == (True, True)


def test_swelling_hypothesis_fails(t2):
    A = sk.SubsetHandle(t2, (2, 3))
    assert sk.swelling_check(t2, A, 2) == (False, None)


def test_swelling_requires_membership(z3):
    A = sk.SubsetHandle(z3, (0, 1))
    with pytest.raises(ElementNotInSubset):
        sk.swelling_check(z3, A, 2)


def test_swelling_exhaustive_small(t2, pb):
    for S in (t2, pb):
        n = S.order
        for bits in range(1, 1 << n):
            members = tuple(x for x in range(n) if bits >> x & 1)
            A = sk.SubsetHandle(S, members)
            for t in members:
                assert sk.swelling_check(S, A, t) != (True, False)


@pytest.mark.parametrize("side", ["bogus", "Left", ""])
def test_minimal_one_sided_ideal_rejects_unknown_side(t2, side):
    # {2} is a minimal right ideal of T2; an unknown side must not be read as "right"
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        is_minimal_one_sided_ideal(t2, [2], side)


def subsets(n):
    """Every nonempty subset of range(n), in ascending bitmask order."""
    return [tuple(x for x in range(n) if bits >> x & 1) for bits in range(1, 1 << n)]


def test_enumerate_ideals_matches_subset_scan(census4):
    for S in census4:
        expected = [A for A in subsets(S.order) if _is_two_sided_ideal(S.table, A)]
        assert enumerate_ideals(S) == expected, S.name


def test_swelling_verdicts_match_swelling_check(census4):
    for S in census4:
        held, equal = _swelling_verdicts(S)
        assert held.shape == equal.shape == (2**S.order - 1, S.order)
        for i, members in enumerate(subsets(S.order)):
            A = sk.SubsetHandle(S, members)
            for t in range(S.order):
                verdict = sk.swelling_check(S, A, t) if t in A else (False, False)
                assert (held[i, t], equal[i, t]) == (verdict[0], bool(verdict[1])), (S.name, members, t)
