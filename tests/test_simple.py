import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semikit as sk
from semikit import simple
from semikit.core import (
    FiniteSemigroup,
    SubsetHandle,
    associativity_witness,
    is_group,
    is_monoid,
    subsemigroup_table,
)
from semikit.corpus import _GROUPS, gen_random_rees, resolve_group
from semikit.errors import (
    BadSandwichEntry,
    NotAGroup,
    NotASubsemigroup,
    NotCompletelySimple,
    OutOfRange,
    Overflow,
    SearchCapExceeded,
)
from semikit.greens import _ideal_rows
from semikit.ideals import kernel_members
from semikit.simple import dumps_rms, loads_rms
from test_corpus import canonical_form, normalize_sandwich


def test_is_simple(z3, rb22, t2):
    assert sk.is_simple(z3) and sk.is_completely_simple(z3)
    assert sk.is_simple(rb22) and sk.is_completely_simple(rb22)
    assert not sk.is_simple(t2) and not sk.is_completely_simple(t2)


def rees_table_oracle(i_size, lambda_size, group, P):
    """Oracle: the Rees matrix table filled cell by cell from
    (i,g,lam)(j,h,mu) = (i, g p[lam,j] h, mu)."""
    ng = group.order
    GT = group.table
    m = i_size * ng * lambda_size
    table = np.empty((m, m), dtype=np.int64)
    for i in range(i_size):
        for g in range(ng):
            for lam in range(lambda_size):
                a = (i * ng + g) * lambda_size + lam
                for j in range(i_size):
                    prods = GT[GT[g, P[lam][j]], :]  # g p[lam,j] h over h
                    for h in range(ng):
                        base = (i * ng + prods[h]) * lambda_size
                        row_start = (j * ng + h) * lambda_size
                        table[a, row_start : row_start + lambda_size] = base + np.arange(
                            lambda_size
                        )
    return table


@st.composite
def rees_data(draw):
    group = _GROUPS[draw(st.sampled_from(sorted(_GROUPS)))]()
    i_size = draw(st.integers(1, 3))
    lambda_size = draw(st.integers(1, 3))
    entry = st.integers(0, group.order - 1)
    P = draw(st.lists(st.lists(entry, min_size=i_size, max_size=i_size),
                      min_size=lambda_size, max_size=lambda_size))
    return i_size, lambda_size, group, P


@given(rees_data())
@settings(max_examples=60, deadline=None)
def test_rees_construct_matches_loop_oracle(data):
    # the realized table skips validation, so check it against the loop
    # construction and for associativity here
    i_size, lambda_size, group, P = data
    table = sk.rees_construct(i_size, lambda_size, group, P).realized.table
    assert np.array_equal(table, rees_table_oracle(i_size, lambda_size, group, P))
    assert associativity_witness(table) is None


def test_rees_construct_group_case(z3):
    rms = sk.rees_construct(1, 1, z3, [[0]])
    assert canonical_form(rms.realized) == canonical_form(z3)


def test_rees_construct_rectangular_band(rb22, trivial):
    rms = sk.rees_construct(2, 2, trivial, [[0, 0], [0, 0]])
    assert canonical_form(rms.realized) == canonical_form(rb22)


def test_rees_construct_nontrivial_sandwich():
    z2 = resolve_group("z2")
    rms = sk.rees_construct(2, 1, z2, [[0, 1]])
    assert rms.realized.order == 4
    assert sk.is_completely_simple(rms.realized)


def test_rees_construct_rejects_non_group(l2):
    with pytest.raises(NotAGroup):
        sk.rees_construct(1, 1, l2, [[0]])


def test_rees_construct_rejects_bad_sandwich(z3):
    with pytest.raises(BadSandwichEntry):
        sk.rees_construct(1, 1, z3, [[3]])


def test_rees_construct_refuses_non_integer_sandwich():
    # 0.9 must not be stored as P = [[0]]
    with pytest.raises(BadSandwichEntry):
        sk.rees_construct(1, 1, sk.gen_standard("cyclic", 2), [[0.9]])


def test_rees_construct_rejects_order_above_cap(z3, monkeypatch):
    # refused before the |I||G||Lambda|-square table is allocated
    monkeypatch.setenv("SEMIKIT_MAX_ORDER", "5")
    with pytest.raises(Overflow):
        sk.rees_construct(2, 1, z3, [[0, 0]])


def test_rees_decompose_group(z3):
    dec = sk.rees_decompose(z3, 0)
    assert dec.rms.i_size == dec.rms.lambda_size == 1
    assert canonical_form(dec.rms.group) == canonical_form(z3)
    assert dec.phi.is_isomorphism


def test_rees_decompose_rb22(rb22):
    for e in sk.idempotents(rb22):
        dec = sk.rees_decompose(rb22, e)
        assert dec.rms.i_size == 2 and dec.rms.lambda_size == 2
        assert dec.rms.group.order == 1


def test_rees_decompose_kernel_of_t2(t2):
    K = sk.kernel(t2).kernel
    sub, _ = sk.subsemigroup_table(t2, K.members)
    dec = sk.rees_decompose(sub)
    assert dec.rms.i_size == 2 and dec.rms.lambda_size == 1
    assert dec.rms.group.order == 1


def test_rees_decompose_rejects(t2, z3):
    with pytest.raises(NotCompletelySimple):
        sk.rees_decompose(t2)
    from semikit.errors import NotIdempotent

    with pytest.raises(NotIdempotent):
        sk.rees_decompose(z3, 1)


def test_rees_decompose_rejects_out_of_range(rb22):
    for e in (99, 4, -1):
        with pytest.raises(OutOfRange):
            sk.rees_decompose(rb22, e)


def test_rees_roundtrip_identities(z3, rb22):
    for S in (z3, rb22):
        dec = sk.rees_decompose(S)
        n = S.order
        assert [dec.phi(dec.psi(x)) for x in range(n)] == list(range(n))
        assert [dec.psi(dec.phi(x)) for x in range(n)] == list(range(n))


def closed_form_oracle(S, dec):
    """psi read element by element off s -> (s(ese)^-1, ese, (ese)^-1 s),
    with the inverse taken in H_e."""
    T, e = S.table, dec.e
    I, G, L = dec.i_elements, dec.group_elements, dec.lambda_elements
    psi = []
    for s in range(S.order):
        ese = int(T[T[e, s], e])
        [inv] = [h for h in G if T[ese, h] == e]
        i, lam = int(T[s, inv]), int(T[inv, s])
        psi.append((I.index(i) * len(G) + G.index(ese)) * len(L) + L.index(lam))
    return psi


def test_psi_is_the_closed_form_and_the_printed_form_agrees_only_at_e(census5):
    grid = [
        gen_random_rees(i, lam, group, seed).realized
        for group in ("z2", "z3", "z2xz2", "s3")
        for i in (1, 2, 3)
        for lam in (1, 2)
        for seed in (0, 1)
    ]
    instances = [S for S in census5 if sk.is_completely_simple(S)] + grid
    for S in instances:
        for e in sk.idempotents(S):
            dec = sk.rees_decompose(S, e)
            assert list(dec.psi.map) == closed_form_oracle(S, dec)
            # the printed (s(ses)^-1, ses, (ese)^-1 s) is psi only at s = e
            assert [s for s, ok in enumerate(dec.closed_form_agreement) if ok] == [e]


def rees_fields_oracle(S, e):
    """I, Lambda and H_e of the decomposition at e, its group table, P, the
    realized table and phi, each read element by element off S's table."""
    T, n = S.table, S.order
    E = {x for x in range(n) if T[x, x] == x}
    I = sorted({int(T[s, e]) for s in range(n)} & E)  # Se ∩ E(S)
    L = sorted({int(T[e, s]) for s in range(n)} & E)  # eS ∩ E(S)
    G = sorted({int(T[T[e, s], e]) for s in range(n)})  # eSe = H_e
    group = [[G.index(T[g, h]) for h in G] for g in G]
    P = [[G.index(T[lam, i]) for i in I] for lam in L]
    realized = rees_table_oracle(len(I), len(L), sk.FiniteSemigroup(group, validate=False), P)
    phi = [int(T[T[i, g], lam]) for i in I for g in G for lam in L]  # (i, g, lam) -> i*g*lam
    return tuple(I), tuple(L), tuple(G), group, P, realized.tolist(), phi


def test_rees_fields_match_element_loops(census5):
    # every idempotent of the rees_roundtrip grid and of census(5)'s kernels
    grid = [
        gen_random_rees(i, lam, group, seed).realized
        for group in ("trivial", "z2", "z3", "z4", "z2xz2", "s3")
        for i in (1, 2, 3)
        for lam in (1, 2, 3)
        for seed in (1, 2)
    ]
    kernels = [sk.subsemigroup_table(S, kernel_members(S))[0] for S in census5]
    for S in grid + kernels:
        for e in sk.idempotents(S):
            dec = sk.rees_decompose(S, e)
            assert "closed_form_agreement" not in vars(dec)  # computed on first read
            fields = (
                dec.i_elements,
                dec.lambda_elements,
                dec.group_elements,
                dec.rms.group.table.tolist(),
                dec.rms.sandwich.tolist(),
                dec.rms.realized.table.tolist(),
                list(dec.phi.map),
            )
            assert fields == rees_fields_oracle(S, e)


def test_decomposition_reported_sizes(rb22):
    dec = sk.rees_decompose(rb22)
    E = set(sk.idempotents(rb22).members)
    se = set(int(v) for v in rb22.table[:, dec.e])
    es = set(int(v) for v in rb22.table[dec.e, :])
    assert dec.rms.i_size == len(se & E)
    assert dec.rms.lambda_size == len(es & E)


def test_base_point_independence(rb22):
    decs = [sk.rees_decompose(rb22, e) for e in sk.idempotents(rb22)]
    base = decs[0]
    for other in decs[1:]:
        iso = other.psi.compose(base.phi)
        assert iso.is_isomorphism


def test_subsemigroup_decompose_full(rb22):
    T = sk.SubsetHandle(rb22, tuple(range(4)))
    J, W, Gamma, dec = sk.subsemigroup_decompose(rb22, T)
    assert len(J) == 2 and len(Gamma) == 2 and len(W) == 1


def test_subsemigroup_decompose_l_class(rb22):
    with pytest.raises(NotASubsemigroup):
        sk.subsemigroup_decompose(rb22, sk.SubsetHandle(rb22, (0, 3)))
    T = sk.SubsetHandle(rb22, (0, 2))
    J, W, Gamma, dec = sk.subsemigroup_decompose(rb22, T)
    assert len(J) == 2 and len(Gamma) == 1 and len(W) == 1


def test_subsemigroup_decompose_product(z3, rb22):
    S = sk.direct_product(z3, rb22)
    members = tuple(0 * 4 + b for b in range(4))  # {identity} x RB22
    T = sk.SubsetHandle(S, members)
    J, W, Gamma, dec = sk.subsemigroup_decompose(S, T)
    assert len(W) == 1
    assert len(J) == 2 and len(Gamma) == 2


def test_band_predicates(rb22, pb, z3):
    assert sk.band_predicates(rb22) == (True, True, True)
    assert sk.band_predicates(pb) == (True, False, False)
    assert sk.band_predicates(z3) == (False, False, True)


def rectangular_band_oracle(S):
    """A band with (ab)a = a for every a, b."""
    T, idx = S.table, np.arange(S.order)[:, None]
    return bool((T.diagonal() == idx[:, 0]).all() and (T[T, idx] == idx).all())


def test_rectangular_band_matches_aba_oracle(census5):
    # a band is a rectangular band iff it is completely simple
    fixtures = [sk.gen_standard("rect_band", i, j) for i, j in ((1, 5), (2, 3), (3, 2), (4, 4))]
    fixtures += [sk.gen_standard(name, k) for name in ("left_zero", "right_zero") for k in (1, 3, 6)]
    verdicts = set()
    for S in [*census5, *fixtures, sk.direct_product(resolve_group("z2"), fixtures[1])]:
        band, rect_band, _ = sk.band_predicates(S)
        assert rect_band == rectangular_band_oracle(S)
        verdicts.add((band, rect_band))
    assert verdicts == {(False, False), (True, False), (True, True)}


def test_rectangular_group_detected_on_product(z3, rb22):
    P = sk.direct_product(z3, rb22)
    assert sk.band_predicates(P) == (False, False, True)


def test_non_rectangular_group_sandwich():
    # one twisted sandwich entry over Z2 breaks the rectangular-group form
    z2 = resolve_group("z2")
    rms = sk.rees_construct(2, 2, z2, [[0, 0], [0, 1]])
    assert not sk.band_predicates(rms.realized).is_rectangular_group
    norm = normalize_sandwich(rms)
    assert norm[0, 0] == 0 and norm[0, 1] == 0 and norm[1, 0] == 0
    assert norm[1, 1] == 1


def test_h_finiteness(z3, rb22):
    assert sk.h_finiteness(z3) == (1, 1, 1)
    assert sk.h_finiteness(rb22) == (4, 2, 2)
    P = sk.direct_product(z3, rb22)
    count, i_size, lambda_size = sk.h_finiteness(P)
    assert (count, i_size, lambda_size) == (4, 2, 2)
    G = sk.greens_structure(P)
    assert all(len(h) == 3 for h in G.h_classes)


def test_h_finiteness_on_rees_grid():
    # the H-class count equals |I|*|Lambda| on the acceptance-criterion-3 grid
    for group in ("trivial", "z2", "z3", "z4", "z2xz2", "s3"):
        for i_size in (1, 2, 3):
            for lam in (1, 2, 3):
                for seed in (1, 2):
                    S = gen_random_rees(i_size, lam, group, seed).realized
                    assert sk.h_finiteness(S) == (i_size * lam, i_size, lam)


def test_h_finiteness_rejects_not_completely_simple(pb, t2):
    for S in (pb, t2):
        with pytest.raises(NotCompletelySimple, match="h_finiteness requires"):
            sk.h_finiteness(S)


def rees_grid_and_products():
    """Seeded Rees matrix semigroups over every group of the registry, and
    each group times a rectangular band, |I| and |Lambda| in 1..3."""
    shapes = [(i_size, lam) for i_size in (1, 2, 3) for lam in (1, 2, 3)]
    for name in _GROUPS:
        for i_size, lam in shapes:
            for seed in (1, 2):
                yield gen_random_rees(i_size, lam, name, seed).realized
            yield sk.direct_product(resolve_group(name), sk.gen_standard("rect_band", i_size, lam))


def rectangular_group_oracle(S):
    """Completely simple, with the sandwich of its Rees decomposition all
    identity once normalised."""
    if not sk.is_completely_simple(S):
        return False
    rms = sk.rees_decompose(S).rms
    return bool((normalize_sandwich(rms) == is_monoid(rms.group)).all())


def test_rectangular_group_matches_normalised_sandwich(census5):
    # efe = e over E(S) at one idempotent e, against P normalised to identity
    verdicts = set()
    for S in [*census5, *rees_grid_and_products()]:
        verdict = sk.band_predicates(S).is_rectangular_group
        assert verdict == rectangular_group_oracle(S)
        verdicts.add((sk.is_completely_simple(S), verdict))
    assert verdicts == {(False, False), (True, False), (True, True)}


def test_h_finiteness_matches_rees_decompose_at_every_idempotent(census5):
    # |I| = R-classes and |Lambda| = L-classes, whichever idempotent is the base
    simple_ones = [S for S in [*census5, *rees_grid_and_products()] if sk.is_completely_simple(S)]
    for S in simple_ones:
        sizes = sk.h_finiteness(S)[1:]
        for e in sk.idempotents(S).members:
            rms = sk.rees_decompose(S, e).rms
            assert sizes == (rms.i_size, rms.lambda_size)


def test_band_predicates_memory_bounded(monkeypatch):
    monkeypatch.delenv("SEMIKIT_MAX_ORDER", raising=False)
    cases = [
        # efe = e over E(S) = {0}, not a Rees decomposition's n×n realized table (384 MB)
        (sk.gen_standard("cyclic", 4096), (False, False, True)),
        # complete simplicity, already kept, not an n×n int64 gather of (ab)a (144 MB)
        (sk.gen_standard("rect_band", 64, 64), (True, True, True)),
    ]
    for S, expected in cases:
        _ideal_rows(S)  # kept per semigroup: not this call's cost
        assert sk.is_completely_simple(S)
        tracemalloc.start()
        try:
            result = sk.band_predicates(S)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == expected
        assert peak < 16 << 20


def brute_subsemigroups(S):
    """Independent oracle: the exhaustive filter over all 2^n - 1 bitmasks
    A, keeping those where no product a*b of members escapes A; sorted by
    size, then by members."""
    n = S.order
    masks = np.arange(1, 1 << n)
    inside = (masks[:, None] >> np.arange(n) & 1).astype(bool)
    escapes = ((1 << S.table) & ~masks[:, None, None]) != 0
    closed = ~(escapes & inside[:, :, None] & inside[:, None, :]).any(axis=(1, 2))
    return sorted((tuple(np.flatnonzero(row).tolist()) for row in inside[closed]),
                  key=lambda m: (len(m), m))


def random_small_semigroups(count, pool):
    """Seeded random associative tables of order <= 8: a product of two
    pool members, sometimes with an identity adjoined, relabelled by a
    random permutation."""
    rng = np.random.default_rng(11)
    out = []
    while len(out) < count:
        A, B = (pool[i] for i in rng.integers(len(pool), size=2))
        S = sk.direct_product(A, B) if A.order * B.order <= 8 else A
        if S.order < 8 and rng.integers(2):
            S, _ = sk.adjoin_identity(S)
        p = rng.permutation(S.order)
        table = np.empty_like(S.table)
        table[np.ix_(p, p)] = p[S.table]
        out.append(sk.from_table(S.order, table))  # validated: still associative
    return out


def test_enumerate_subsemigroups_z3(z3):
    subs = [h.members for h in sk.enumerate_subsemigroups(z3)]
    assert subs == [(0,), (0, 1, 2)]


def test_enumerate_subsemigroups_l2(l2):
    subs = [h.members for h in sk.enumerate_subsemigroups(l2)]
    assert subs == [(0,), (1,), (0, 1)]


def test_enumerate_subsemigroups_matches_oracle(rb22, t2, pb, census4):
    randoms = random_small_semigroups(200, census4)
    assert max(S.order for S in randoms) == 8
    for S in (rb22, t2, pb, *census4, *randoms):
        assert [h.members for h in sk.enumerate_subsemigroups(S)] == brute_subsemigroups(S)


def test_enumerate_subsemigroups_above_default_cap():
    # Z17 has no proper subgroup; every subsemigroup of RB(2,9) is a
    # rectangle I' x Lambda' of nonempty I', Lambda'
    z17 = sk.gen_standard("cyclic", 17)
    assert [h.members for h in sk.enumerate_subsemigroups(z17, cap=20)] == [(0,), tuple(range(17))]
    rb = sk.gen_standard("rect_band", 2, 9)
    rectangles = [
        tuple(i * 9 + lam for i in range(2) if rows >> i & 1 for lam in range(9) if cols >> lam & 1)
        for rows in range(1, 4)
        for cols in range(1, 512)
    ]
    subs = [h.members for h in sk.enumerate_subsemigroups(rb, cap=20)]
    assert subs == sorted(rectangles, key=lambda m: (len(m), m))


def test_enumerate_subsemigroups_in_single_row_slices(monkeypatch, census4):
    # one frontier row and one candidate per slice: the slice offsets matter
    monkeypatch.setattr(simple, "_BLOCK", 1)
    for S in [sk.gen_standard("rect_band", 2, 3), *census4[-20:]]:
        fresh = sk.FiniteSemigroup(S.table, validate=False)  # nothing kept yet
        assert [h.members for h in sk.enumerate_subsemigroups(fresh)] == brute_subsemigroups(S)


def test_enumerate_subsemigroups_rb22_pinned(rb22):
    # 3 nonempty row choices x 3 nonempty column choices (oracle-pinned)
    assert len(sk.enumerate_subsemigroups(rb22)) == 9


def test_enumerate_subsemigroups_cap(z3):
    with pytest.raises(SearchCapExceeded):
        sk.enumerate_subsemigroups(z3, cap=2)


def test_counting_bound_rb22(rb22):
    subs = sk.enumerate_subsemigroups(rb22)
    # trivial group: single subgroup; bound 1 * 2^2 * 2^2
    assert len(subs) <= 16


def subsemigroup_of_group_check(G: FiniteSemigroup, T: SubsetHandle) -> bool:
    """Oracle: whether the subsemigroup T of the group G is a subgroup:
    contains the identity and is inverse-closed."""
    if not is_group(G):
        raise NotAGroup("subsemigroup_of_group_check requires a group")
    subsemigroup_table(G, T.members)  # raises NotASubsemigroup
    identity, m = is_monoid(G), list(T.members)
    return identity in T.member_set and bool((G.table[np.ix_(m, m)] == identity).any(axis=1).all())


def test_subsemigroup_of_group_check(z3):
    assert subsemigroup_of_group_check(z3, sk.SubsetHandle(z3, (0,)))
    z6 = resolve_group("z6")
    T = sk.closure(z6, [2])
    assert T.members == (0, 2, 4)
    assert subsemigroup_of_group_check(z6, T)
    s3 = resolve_group("s3")
    for T in sk.enumerate_subsemigroups(s3):
        assert subsemigroup_of_group_check(s3, T)


def test_rms_roundtrip_bit_exact(tmp_path):
    rms = gen_random_rees(2, 2, "z3", seed=7)
    path = tmp_path / "a.rms"
    sk.write_rms(rms, path)
    back = sk.read_rms(path)
    assert dumps_rms(back) == path.read_text()
    assert np.array_equal(back.sandwich, rms.sandwich)
    assert np.array_equal(back.realized.table, rms.realized.table)


def dumps_rms_oracle(rms):
    """The writer that joins str(int(v)) of every group-table and sandwich entry."""
    lines = ["# rees matrix semigroup", f"i_size {rms.i_size}", f"lambda_size {rms.lambda_size}", "group"]
    lines.append(str(rms.group.order))
    lines.extend(" ".join(str(int(v)) for v in row) for row in rms.group.table)
    lines.append("sandwich")
    lines.extend(" ".join(str(int(v)) for v in row) for row in rms.sandwich)
    return "\n".join(lines) + "\n"


def test_dumps_rms_matches_per_entry_join(census4, seeded_closures, tmp_path):
    # the decompositions of the kernels of census(4) and of the seeded closures,
    # the rees_roundtrip grid, and Z1024, whose group table has labels of 1-4
    # digits and is written in two row slices
    kernels = [sk.subsemigroup_table(S, kernel_members(S))[0] for S in [*census4, *seeded_closures]]
    grid = [
        gen_random_rees(i, lam, group, seed).realized
        for group in ("trivial", "z2", "z3", "z4", "z2xz2", "s3")
        for i in (1, 2, 3)
        for lam in (1, 2, 3)
        for seed in (1, 2)
    ]
    for S in kernels + grid + [sk.gen_standard("cyclic", 1024)]:
        rms = sk.rees_decompose(S).rms
        assert dumps_rms(rms) == dumps_rms_oracle(rms), S.name
        sk.write_rms(rms, tmp_path / "s.rms")
        assert (tmp_path / "s.rms").read_bytes() == dumps_rms(rms).encode(), S.name


@pytest.mark.parametrize(
    "text",
    [
        "i_size 1\nlambda_size 1\ngroup\n2\n0 1\n",  # group table cut short
        "i_size 1\nlambda_size 1\ngroup\n1\n0\nsandwich\n",  # no sandwich rows
        "i_size 2\nlambda_size 1\ngroup\n1\n0\nsandwich\n0\n",  # short sandwich row
        "i_size 1\nlambda_size 1\ngroup\n2\n0 1\n1\nsandwich\n0\n",  # short group row
        "i_size 1\nlambda_size 1\ngroup\n1\n0\nsandwich\n0\n0\n",  # extra sandwich row
        "i_size\nlambda_size 1\ngroup\n1\n0\nsandwich\n0\n",  # header without value
    ],
)
def test_loads_rms_rejects_malformed(text):
    with pytest.raises(ValueError):
        loads_rms(text)


@pytest.mark.parametrize(
    "text",
    [
        "i_size 1\nlambda_size 1\ngroup\n838\n" + "x\n" * 838 + "sandwich\n0\n",  # group over the cap
        "i_size 3\nlambda_size 3\ngroup\n2\n0 1\n1 0\nsandwich\n0 0 0\n0 x 0\n0 0 0\n",  # 3*2*3 = 18
    ],
    ids=["group-838", "realized-18"],
)
def test_loads_rms_refuses_declared_order_before_parsing_rows(text, monkeypatch):
    # the rows would fail to parse; the declared order is refused first
    monkeypatch.setenv("SEMIKIT_MAX_ORDER", "4")
    with pytest.raises(Overflow, match="exceeds configured maximum 4"):
        loads_rms(text)
