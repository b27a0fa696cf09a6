import itertools
import time
from unittest import mock

import numpy as np
import pytest

import semikit as sk
from semikit import core
from semikit.core import _generating_set, associativity_witness, dumps_sg, loads_sg
from semikit.corpus import gen_transformation_closure
from semikit.errors import (
    EmptyGenerators,
    NotAssociative,
    OutOfRange,
    Overflow,
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


def test_from_table_refuses_non_integer_entries():
    # 0.7 must not be truncated to element 0
    with pytest.raises(OutOfRange, match=r"table entries must lie in \[0,2\)"):
        sk.from_table(2, [[0, 0.7], [0, 0]])


def test_constructor_refuses_non_integer_entries():
    # 1.5 must not be truncated to element 1, which would make Z2
    with pytest.raises(OutOfRange, match=r"table entries must lie in \[0,2\)"):
        sk.FiniteSemigroup([[0, 1.5], [1, 0]])


@pytest.mark.parametrize("n, entry", [(5, 257), (300, 65536 + 299)])
def test_range_check_precedes_the_narrow_copy(n, entry):
    # Light's test runs on a uint8 (order 5) or uint16 (order 300) copy, in
    # which this entry would wrap into range; it is refused first, as itself
    table = np.zeros((n, n), dtype=np.int64)
    table[3, 4] = entry
    for make in (lambda: sk.from_table(n, table), lambda: sk.FiniteSemigroup(table.tolist())):
        with pytest.raises(OutOfRange) as info:
            make()
        assert str(info.value) == f"entry at (3,4) = {entry} not in [0,{n})"


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
    from test_corpus import canonical_form

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


@pytest.mark.parametrize("gen", [1.5, "1", 1.0, None])
def test_closure_refuses_non_integer_generators(gen):
    # 1.5 must not be truncated to 1, whose closure is all of Z6
    with pytest.raises(OutOfRange, match="not an integer"):
        sk.closure(sk.gen_standard("cyclic", 6), [gen])


def test_closure_accepts_numpy_integers(z3):
    assert sk.closure(z3, [np.int64(1)]).members == sk.closure(z3, [np.uint8(1)]).members == (0, 1, 2)


# a float must not be truncated to an index: 1.5 would name element 1
@pytest.mark.parametrize("members", [(1.5,), (1.0,), ("1",), (0, 1.5), (None,)])
def test_subset_handle_refuses_non_integer_members(z3, members):
    with pytest.raises(OutOfRange, match=r"members must lie in \[0,3\)"):
        sk.SubsetHandle(z3, members)


def test_subset_handle_accepts_empty_and_numpy_members(z3):
    assert sk.SubsetHandle(z3, ()).members == ()
    assert sk.SubsetHandle(z3, (np.uint8(2), np.int64(0), 2)).members == (0, 2)


@pytest.mark.parametrize("members", [[0.2], [0, 1.0], ["0"]])
def test_subsemigroup_table_refuses_non_integer_members(z3, members):
    # [0.2] would re-table {0}
    with pytest.raises(OutOfRange, match=r"members must lie in \[0,3\)"):
        sk.subsemigroup_table(z3, members)


@pytest.mark.parametrize("entries", [(0, 1.9, 2), (0, 1.0, 2), ("0", "1", "2")])
def test_morphism_refuses_non_integer_entries(z3, entries):
    # (0, 1.9, 2) would read as the identity map
    with pytest.raises(OutOfRange, match="map entries must be valid target indices"):
        sk.SemigroupMorphism(z3, z3, entries)


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


def int_rows_oracle(lines, width, what):
    """The per-line int() parser that core._int_rows falls back to."""
    rows = []
    for i, line in enumerate(lines):
        row = [int(tok) for tok in line.split()]
        if len(row) != width:
            raise ValueError(f"{what} row {i} has {len(row)} entries, expected {width}")
        rows.append(row)
    return rows


def dumps_sg_oracle(S):
    """The writer that joins str() of every entry, row by row."""
    header = S.name if S.name else f"semigroup of order {S.order}"
    lines = [f"# {header}", str(S.order)]
    lines.extend(" ".join(map(str, row)) for row in S.table.tolist())
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("1\n" + str(2**70), OutOfRange, "table entries must lie in [0,1)"),
        ("1\n" + str(2**63), OutOfRange, "table entries must lie in [0,1)"),
        ("2\n0 0 0\n0\n", ValueError, "table row 0 has 3 entries, expected 2"),
        ("2\n0 0 0\n0 0 0\n", ValueError, "table row 0 has 3 entries, expected 2"),
        ("2\n0 1 # c\n0 1\n", ValueError, "invalid literal for int() with base 10: '#'"),
        ("2\n0 1\n1 0 # c\n", ValueError, "invalid literal for int() with base 10: '#'"),
        ("1\n1_0", OutOfRange, "entry at (0,0) = 10 not in [0,1)"),
        # np.loadtxt reads U+01FE as the digit 462; int() refuses it
        ("1\n\u01fe", ValueError, "invalid literal for int() with base 10: '\u01fe'"),
        ("2\n0 1\n1 \u01fe", ValueError, "invalid literal for int() with base 10: '\u01fe'"),
    ],
)
def test_loads_sg_error_contract(text, error, message):
    with pytest.raises(error) as info:
        loads_sg(text)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("text", ["1\n\u0660", "1\n+0", "1\n-0", "1\n\t0\x1f", "2\n0\u30001\n1 1"])
def test_loads_sg_reads_what_int_reads(text):
    # Arabic-Indic zero, signs and Unicode spaces load as int() reads them
    with mock.patch.object(core, "_int_rows", int_rows_oracle):
        expected = loads_sg(text).table
    assert np.array_equal(loads_sg(text).table, expected)


def test_loads_sg_refuses_over_cap_header_before_parsing(monkeypatch):
    # an order-838 body of 838 bad rows: the header alone is refused
    monkeypatch.setenv("SEMIKIT_MAX_ORDER", "4")
    with mock.patch.object(core, "_int_rows", side_effect=AssertionError("parsed")):
        with pytest.raises(Overflow, match="order 838 exceeds configured maximum 4"):
            loads_sg("838\n" + "x\n" * 838)
        with pytest.raises(ValueError, match="^semigroup must have at least one element$"):
            loads_sg("0\n")


def test_dumps_sg_matches_join_writer(census4, seeded_closures):
    i = np.arange(1024)
    chain = sk.FiniteSemigroup(np.minimum.outer(i, i), validate=False)
    for S in [*census4, *seeded_closures]:
        assert dumps_sg(S) == dumps_sg_oracle(S)
        assert np.array_equal(loads_sg(dumps_sg(S)).table, S.table)
    assert dumps_sg(chain) == dumps_sg_oracle(chain)  # loading it takes seconds


def closure_oracle(table, gens):
    """Mask of the subsemigroup generated by gens: a plain fixpoint that adds
    the products of all pairs of members until none is new."""
    mask = np.zeros(len(table), dtype=bool)
    mask[gens] = True
    while True:
        members = np.flatnonzero(mask)
        grown = mask.copy()
        grown[table[np.ix_(members, members)]] = True
        if np.array_equal(grown, mask):
            return mask
        mask = grown


def generating_set_oracle(table):
    """The greedy generating set, ascending: candidates scanned by how often
    they occur in the table, fewest first and ties by index, each closure
    taken from scratch."""
    occurs = np.zeros(len(table), dtype=np.int64)
    for v in np.asarray(table).ravel().tolist():
        occurs[v] += 1
    covered = np.zeros(len(table), dtype=bool)
    gens = []
    for x in sorted(range(len(table)), key=lambda x: (occurs[x], x)):
        if not covered[x]:
            gens.append(x)
            covered = closure_oracle(table, gens)
    return sorted(gens)


def relabelled(T, seed):
    """T with element x renamed p[x], for a seeded permutation p."""
    p = np.random.default_rng(seed).permutation(len(T))
    inv = np.argsort(p)
    return p[T[np.ix_(inv, inv)]]


def test_generating_set_matches_oracle(census4):
    # the seed-3 relabelling puts T(6,4,0)'s generators far from the front
    T = gen_transformation_closure(6, 4, 0).table
    for table in [S.table for S in census4] + [relabelled(T, 3)]:
        assert _generating_set(table) == generating_set_oracle(table)


@pytest.mark.parametrize("maps", [3, 4])
def test_generating_set_size_does_not_follow_the_labelling(maps):
    # T(6,3,0) (order 560) and T(6,4,0) (order 838): an ascending scan took
    # up to 25 and 28 generators over these relabellings, fewest-first 5 and 8
    T = gen_transformation_closure(6, maps, 0).table
    assert max(len(_generating_set(relabelled(T, seed))) for seed in range(20)) <= 8


def test_witness_above_the_direct_limit_through_from_table():
    # one-cell perturbations of a relabelled order-560 semigroup: the
    # witness from the narrow copy is the int64 table's, and a real violation
    T = relabelled(gen_transformation_closure(6, 3, 0).table, 1)
    n = len(T)
    assert n > core.DIRECT_CHECK_LIMIT
    rng = np.random.default_rng(0)
    for _ in range(8):
        bad = T.copy()
        i, j = rng.integers(n, size=2)
        bad[i, j] = (bad[i, j] + rng.integers(1, n)) % n
        with pytest.raises(NotAssociative) as info:
            sk.from_table(n, bad)
        a, g, c = info.value.witness
        assert (a, g, c) == associativity_witness(bad)
        assert bad[bad[a, g], c] != bad[a, bad[g, c]]


def test_closure_matches_fixpoint(census4):
    for S in census4:
        for x, y in itertools.product(range(S.order), repeat=2):
            expected = tuple(np.flatnonzero(closure_oracle(S.table, [x, y])).tolist())
            assert sk.closure(S, [x, y]).members == expected, (S.name, x, y)


@pytest.mark.parametrize("x", [-1, 4])
@pytest.mark.parametrize(
    "call",
    [
        sk.principal_ideals,
        sk.is_regular,
        sk.minimal_ideal_equivalences,
        sk.centralizer,
        sk.monogenic,
        sk.rees_decompose,
    ],
)
def test_element_arguments_are_range_checked(t2, call, x):
    # on T2 (order 4), -1 must not wrap around to element 3, and 4 must not
    # reach numpy as an IndexError
    with pytest.raises(OutOfRange, match=rf"element {x} not in \[0,4\)"):
        call(t2, x)
