import itertools
import time

import numpy as np
import pytest

import semikit as sk
from semikit import core
from semikit.core import _closure_mask, _generating_set, associativity_witness, dumps_sg, loads_sg
from semikit.corpus import gen_transformation_closure
from semikit.errors import (
    EmptyGenerators,
    NotAssociative,
    OutOfRange,
)


def brute_associative(table) -> bool:
    """Independent triple-loop oracle."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def test_from_table_trivial():
    S = sk.from_table(1, [[0]])
    assert S.order == 1


def test_from_table_left_zero():
    # all 8 triples hold: (a*b)*c = a = a*(b*c)
    assert brute_associative([[0, 0], [1, 1]])
    S = sk.from_table(2, [[0, 0], [1, 1]])
    assert S.product(0, 1) == 0


def test_from_table_out_of_range():
    with pytest.raises(OutOfRange):
        sk.from_table(2, [[0, 1], [2, 1]])


def test_from_table_not_associative_with_witness():
    # x*y = 1 constantly except 1*1 = 0: (0*0)*1 = 1*1 = 0 but 0*(0*1) = 0*1 = 1
    bad = [[1, 1], [1, 0]]
    assert not brute_associative(bad)
    with pytest.raises(NotAssociative) as exc:
        sk.from_table(2, bad)
    a, b, c = exc.value.witness
    t = bad
    assert t[t[a][b]][c] != t[a][t[b][c]]


def test_adjoin_identity_monoid_unchanged(z3, trivial):
    for S in (z3, trivial):
        out, phi = sk.adjoin_identity(S)
        assert out is S
        assert phi.map == tuple(range(S.order))


def test_adjoin_identity_l2(l2):
    out, phi = sk.adjoin_identity(l2)
    assert out.order == 3
    assert sk.is_monoid(out) == 2
    assert phi.is_homomorphism and phi.is_injective
    assert associativity_witness(out.table) is None


def test_direct_product_identity_factor(trivial, l2):
    from semikit.corpus import canonical_form

    P = sk.direct_product(trivial, l2)
    assert canonical_form(P) == canonical_form(l2)


def test_direct_product_rectangular_group(z3, rb22):
    P = sk.direct_product(z3, rb22)
    assert P.order == 12
    assert sk.is_completely_simple(P)


def test_direct_product_left_zero(l2):
    P = sk.direct_product(l2, l2)
    assert P.order == 4
    # (x,y)(u,v) = (x,y): every row is constant at its own index
    assert all(set(P.table[a]) == {a} for a in range(4))


def test_closure_group(z3):
    assert sk.closure(z3, [1]).members == (0, 1, 2)


def test_closure_t2(t2):
    assert sk.closure(t2, [1]).members == (0, 1)


def test_closure_idempotent_fixed_point(pb):
    for e in sk.idempotents(pb):
        assert sk.closure(pb, [e]).members == (e,)


def test_closure_empty_generators(z3):
    with pytest.raises(EmptyGenerators):
        sk.closure(z3, [])


def test_idempotents(z3, pb, t2):
    assert sk.idempotents(z3).members == (0,)
    assert sk.idempotents(pb).members == (0, 1, 2, 3)
    assert sk.idempotents(t2).members == (0, 2, 3)


def test_is_cancellative(z3, l2, pb):
    assert sk.is_cancellative(z3) == (True, True, None)
    left, right, witness = sk.is_cancellative(l2)
    assert (left, right) == (False, True)
    assert witness == (0, 1, 0)  # 0*0 = 0*1 in the left-zero band
    left, right, witness = sk.is_cancellative(pb)
    assert (left, right) == (False, False)
    assert witness is not None


def test_is_cancellative_group_skips_witness_search():
    # a group has no witness to find: the two collision sorts, one per side,
    # take about 0.03 s, while searching the n^2(n-1)/2 triples takes over 10 s
    S = sk.gen_standard("cyclic", 1000)
    start = time.perf_counter()
    assert sk.is_cancellative(S) == (True, True, None)
    assert time.perf_counter() - start < 5


def cancellative_oracle(S):
    """The interleaved triple loop: the first (a, b, c), a < b, with
    c*a = c*b on a failing left side or a*c = b*c on a failing right side."""
    T, n = S.table.tolist(), S.order
    left = all(len(set(row)) == n for row in T)
    right = all(len(set(col)) == n for col in zip(*T))
    for a, b in itertools.combinations(range(n), 2):
        for c in range(n):
            if (not left and T[c][a] == T[c][b]) or (not right and T[a][c] == T[b][c]):
                return left, right, (a, b, c)
    return left, right, None


def test_is_cancellative_matches_triple_loop(census5, seeded_closures):
    sides = set()
    for S in list(census5) + seeded_closures:
        result = tuple(sk.is_cancellative(S))
        assert result == cancellative_oracle(S), (S.name, result)
        sides.add(result[:2])
    # left-only, right-only and two-sided failures all occur
    assert sides == {(True, True), (False, True), (True, False), (False, False)}


def test_first_collision_keeps_column_order_among_equal_entries():
    # order 300 gives uint16 keys; row 0 holds 20 at columns 0 and 20 and is
    # otherwise a permutation.  Only a stable sort keeps column 0 ahead of
    # column 20; an unstable one may report the collision from column 20.
    U = np.tile(np.arange(300), (300, 1))
    U[0, 0] = 20
    assert core._first_collision(U) == (0, 20, 0)


def monoid_oracle(S):
    """The first e whose row and column are both the identity map, or None."""
    idx = np.arange(S.order)
    for e in range(S.order):
        if np.array_equal(S.table[e], idx) and np.array_equal(S.table[:, e], idx):
            return e
    return None


def group_oracle(S):
    """A monoid whose every element a has some b with ab = e and some c with ca = e."""
    e, T = monoid_oracle(S), S.table
    return e is not None and all((T[a] == e).any() and (T[:, a] == e).any() for a in range(S.order))


def test_is_monoid_is_group_match_loops(census5, seeded_closures):
    instances = list(census5) + seeded_closures + [sk.gen_standard("sym3")]
    found = set()
    for S in instances:
        S = sk.FiniteSemigroup(S.table, validate=False)  # nothing cached yet
        monoid, group = sk.is_monoid(S), sk.is_group(S)
        assert (monoid, group) == (monoid_oracle(S), group_oracle(S)), S.name
        assert type(group) is bool and (monoid is None or type(monoid) is int)
        found.add((monoid is not None, group))
    assert found == {(False, False), (True, False), (True, True)}


def test_is_group_is_monoid(z3, l2, t2):
    assert sk.is_group(z3) and sk.is_monoid(z3) == 0
    assert not sk.is_group(l2) and sk.is_monoid(l2) is None
    assert not sk.is_group(t2) and sk.is_monoid(t2) == 0


def test_center(z3, l2):
    assert sk.center(z3).members == (0, 1, 2)
    assert sk.center(l2).members == ()


def test_centralizer(t2):
    assert sk.centralizer(t2, 2).members == (0, 2)


def test_monogenic(z3, t2, l2):
    result = sk.monogenic(z3, 1)
    assert result.subset.members == (0, 1, 2)
    assert (result.index, result.period) == (1, 3)
    assert result.idempotent == 0

    result = sk.monogenic(t2, 2)
    assert result.subset.members == (2,)
    assert result.idempotent == 2

    assert sk.monogenic(l2, 0).subset.members == (0,)


def test_monogenic_unique_idempotent_everywhere(t2, pb, z3):
    for S in (t2, pb, z3):
        for s in range(S.order):
            members = sk.monogenic(S, s).subset.members
            assert sum(1 for x in members if S.product(x, x) == x) == 1


def test_sg_roundtrip(tmp_path, t2):
    path = tmp_path / "t2.sg"
    sk.write_sg(t2, path)
    back = sk.read_sg(path)
    assert np.array_equal(back.table, t2.table)
    # writer emits one '#' header line, then n, then n rows
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and lines[1] == "4" and len(lines) == 6


def test_sg_comments_ignored():
    text = "# comment\n2\n# another\n0 0\n1 1\n"
    S = loads_sg(text)
    assert S.order == 2
    assert dumps_sg(S).count("#") == 1


def test_light_test_matches_direct(monkeypatch):
    # the generating-set path, forced by lowering the direct-check threshold
    monkeypatch.setattr(core, "DIRECT_CHECK_LIMIT", 0)
    table = sk.gen_standard("cyclic", 7).table
    assert brute_associative(table.tolist())
    assert associativity_witness(table) is None
    bad = [[1, 1], [1, 0]]
    assert not brute_associative(bad)
    a, g, c = associativity_witness(np.asarray(bad))
    assert bad[bad[a][g]][c] != bad[a][bad[g][c]]


def test_subsemigroup_table(t2):
    sub, incl = sk.subsemigroup_table(t2, [2, 3])
    assert sub.order == 2
    assert incl.map == (2, 3)
    assert incl.is_homomorphism


def test_subsemigroup_table_rejects_out_of_range(t2):
    # -1 must not wrap around to element n-1
    for members in ([99], [-1], [2, 4]):
        with pytest.raises(OutOfRange):
            sk.subsemigroup_table(t2, members)


@pytest.mark.parametrize(
    "text",
    [
        "1\n0\n5 5 5\n",  # a row after the table
        "2\n0 0\n",  # a row missing
        "2\n0 0\n0\n",  # a short row
    ],
)
def test_loads_sg_rejects_malformed(text):
    with pytest.raises(ValueError):
        loads_sg(text)


def generating_set_oracle(table):
    """The greedy generating set, each closure taken from scratch."""
    covered = np.zeros(len(table), dtype=bool)
    gens = []
    for x in range(len(table)):
        if not covered[x]:
            gens.append(x)
            covered |= _closure_mask(table, gens)
    return gens


def test_generating_set_matches_oracle(census4):
    # the seed-3 relabelling puts T(6,4,0)'s generators far from the front
    T = gen_transformation_closure(6, 4, 0).table
    p = np.random.default_rng(3).permutation(len(T))
    inv = np.argsort(p)
    for table in [S.table for S in census4] + [p[T[np.ix_(inv, inv)]]]:
        assert _generating_set(table) == generating_set_oracle(table)


def test_closure_mask_extends_closed_mask(census4):
    for S in census4:
        for x, y in itertools.product(range(S.order), repeat=2):
            closed = _closure_mask(S.table, [x])
            assert np.array_equal(_closure_mask(S.table, [y], closed), _closure_mask(S.table, [x, y]))
