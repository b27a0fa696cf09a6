import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semikit as sk
from semikit import corpus as corpus_mod
from semikit.corpus import (
    CheckResult,
    SplitMix64,
    VerificationReport,
    _lex_less,
    _relabel,
    census,
    fingerprint,
    gen_random_rees,
    gen_transformation_closure,
    parse_descriptor,
    verify_suite,
)
from semikit.core import _BLOCK, max_order
from semikit.greens import _labels
from semikit.ideals import _minimal_ideal_table, kernel, kernel_members
from semikit.simple import _group_inverses, _rees_coordinates
from semikit.errors import CensusLimitExceeded, Overflow, UnknownGenerator


def test_gen_standard_tables(z3, rb22, pb):
    assert z3.table.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert rb22.table.tolist() == [[0, 1, 0, 1], [0, 1, 0, 1], [2, 3, 2, 3], [2, 3, 2, 3]]
    assert pb.table.tolist() == [[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 2, 2], [1, 1, 3, 3]]


def test_gen_standard_sym3():
    s3 = sk.gen_standard("sym3")
    assert s3.order == 6
    assert sk.is_group(s3)
    assert sk.center(s3).members == (sk.is_monoid(s3),)


def test_gen_standard_unknown():
    with pytest.raises(UnknownGenerator):
        sk.gen_standard("octonions")


def test_splitmix64_deterministic():
    a = [SplitMix64(42).next_u64() for _ in range(3)]
    b = [SplitMix64(42).next_u64() for _ in range(3)]
    assert a == b
    assert all(0 <= SplitMix64(1).below(7) < 7 for _ in range(5))


def test_gen_random_rees_single_cell():
    rms = gen_random_rees(1, 1, "z5", seed=3)
    assert sk.is_group(rms.realized)
    assert rms.realized.order == 5


def test_gen_random_rees_fixed_order():
    rms = gen_random_rees(2, 2, "z2", seed=1)
    assert rms.realized.order == 8
    assert sk.is_completely_simple(rms.realized)
    again = gen_random_rees(2, 2, "z2", seed=1)
    assert np.array_equal(rms.sandwich, again.sandwich)


def test_gen_random_rees_trivial_group_left_zero():
    rms = gen_random_rees(3, 1, "trivial", seed=9)
    S = rms.realized
    assert S.order == 3
    assert all(set(S.table[a]) == {a} for a in range(3))


def test_transformation_closure_deterministic():
    a = gen_transformation_closure(4, 2, 5)
    b = gen_transformation_closure(4, 2, 5)
    assert np.array_equal(a.table, b.table)
    from semikit.core import associativity_witness

    assert associativity_witness(a.table) is None


def transformation_closure_oracle(degree, n_maps, seed):
    """Reference closure: maps as Python tuples in a dict, multiplied one map
    at a time in the production numbering order (per frontier map f, f∘g over
    the round's snapshot, then g∘f)."""
    rng = SplitMix64(seed)
    maps = [tuple(rng.below(degree) for _ in range(degree)) for _ in range(n_maps)]
    index: dict[tuple[int, ...], int] = {}
    rows: list[tuple[int, ...]] = []
    for m in maps:
        if m not in index:
            index[m] = len(rows)
            rows.append(m)
    frontier = list(range(len(rows)))
    cap = max_order()
    while frontier:
        known = np.asarray(rows, dtype=np.int64)
        fresh: list[int] = []
        for a in frontier:
            f = known[a]
            for comp in (f[known], known[:, f]):  # f o g and g o f over all g
                for row in comp:
                    key = tuple(int(v) for v in row)
                    if key not in index:
                        if len(rows) >= cap:
                            raise Overflow(f"transformation closure exceeds max order {cap}")
                        index[key] = len(rows)
                        rows.append(key)
                        fresh.append(index[key])
        frontier = fresh
    n = len(rows)
    known = np.asarray(rows, dtype=np.int64)
    table = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        comp = known[a][known]  # f_a o g_b over all b
        table[a] = [index[tuple(int(v) for v in row)] for row in comp]
    return sk.FiniteSemigroup(table, name=f"T({degree},{n_maps},{seed})", validate=False)


def closure_outcome(build, degree, n_maps, seed, cap):
    """(name, table rows) of the closure under cap, or Overflow if it raised."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SEMIKIT_MAX_ORDER", str(cap))
        try:
            S = build(degree, n_maps, seed)
        except Overflow:
            return Overflow
    return S.name, S.table.tolist()


# degrees 16-24 are past the point where a radix key sum(f[x] * degree**x)
# overflows int64
closure_params = st.one_of(
    st.tuples(st.integers(1, 5), st.integers(1, 3)),
    st.tuples(st.integers(16, 24), st.just(1)),
)
seeds = st.integers(0, 2**64 - 1)


@given(params=closure_params, seed=seeds)
@settings(max_examples=150, deadline=None)
def test_transformation_closure_matches_oracle(params, seed):
    # the cap keeps the oracle fast; few degree <= 5 closures pass it
    args = (*params, seed, 600)
    assert closure_outcome(gen_transformation_closure, *args) == closure_outcome(
        transformation_closure_oracle, *args
    )


@pytest.mark.parametrize("seed", range(1, 6))
def test_transformation_closure_small_blocks_match_oracle(monkeypatch, seed):
    # 64 entries per block: the search, the table's recurrence, the replayed
    # rounds and the final gather each run in many slices
    monkeypatch.setattr(corpus_mod, "_BLOCK", 64)
    args = (4, 3, seed, 4096)
    assert closure_outcome(gen_transformation_closure, *args) == closure_outcome(
        transformation_closure_oracle, *args
    )


def test_transformation_closure_deep_cayley_graph_matches_oracle():
    # one generator: order 107, one element per level of the Cayley graph
    args = (30, 1, 17, 4096)
    outcome = closure_outcome(gen_transformation_closure, *args)
    assert len(outcome[1]) == 107
    assert outcome == closure_outcome(transformation_closure_oracle, *args)


@pytest.mark.parametrize(
    "params, digest",
    [
        ((6, 3, 0), "9c7f848a58daac3785a668fc9ebd91115ee83a1f1adcc928a330e7e4cd817f5c"),
        ((6, 4, 0), "ff2f522dd7de896eaab24496b277ea75941cccd155cae480cdc0a0a685dad10c"),
        ((7, 2, 5), "17aabcf3edcf7adb25d003dc42de273f8dbcfc56cebf6f25d9de1a1557810705"),
        ((500, 1, 1), "2cefc9e4498e8eb5452cf79e06861282dfa595d683c90aa4840fb304ce744aa7"),
        ((2048, 1, 10), "94a85415ce084ad5c46f00bba5c6bcd454afb19c7ed8df6bd96a648616fb672a"),
    ],
)
def test_transformation_closure_numbering_pinned(monkeypatch, params, digest):
    # orders 560, 838, 1822, 1895 and 988, too large for the oracle in
    # tier-1: the .sg bytes pin the element numbering; the last two have one
    # generator, so the search's frontier is a map or two wide
    monkeypatch.delenv("SEMIKIT_MAX_ORDER", raising=False)
    text = sk.dumps_sg(gen_transformation_closure(*params))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@given(params=closure_params, seed=seeds, cap=st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_transformation_closure_overflows_like_oracle(params, seed, cap):
    args = (*params, seed, cap)
    assert closure_outcome(gen_transformation_closure, *args) == closure_outcome(
        transformation_closure_oracle, *args
    )


@pytest.mark.parametrize("degree", [0, -1])
def test_transformation_closure_rejects_nonpositive_degree(degree):
    with pytest.raises(ValueError, match="degree"):
        gen_transformation_closure(degree, 2, 0)


def test_transformation_closure_overflow_is_cheap(monkeypatch):
    # degree 1000 passes the default order cap within three rounds; the
    # closure must refuse it without growing past bounded working memory
    monkeypatch.delenv("SEMIKIT_MAX_ORDER", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(Overflow, match="transformation closure exceeds max order"):
            gen_transformation_closure(1000, 2, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_transformation_closure_narrow_frontier_is_fast(monkeypatch):
    # one generator of degree 2048: order 988, found about one map per block
    # of the Cayley-graph search, so a lookup whose cost grows with the maps
    # known per block makes the search quadratic in the order
    monkeypatch.delenv("SEMIKIT_MAX_ORDER", raising=False)
    start = time.perf_counter()
    assert gen_transformation_closure(2048, 1, 10).order == 988
    assert time.perf_counter() - start < 2


def test_transformation_closure_degree_refused_before_generating(monkeypatch):
    # 4096 maps of degree 99999 would need 1.6 GB; refused from the header
    # arithmetic, before even the 200k generator entries are drawn
    monkeypatch.delenv("SEMIKIT_MAX_ORDER", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(Overflow, match="map budget"):
            parse_descriptor("transformation:99999,2,0")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the bound is on 4096 maps of 2-byte entries, 16 MiB up to degree 2048
    with pytest.raises(Overflow, match="map budget"):
        gen_transformation_closure(2049, 2, 0)
    monkeypatch.setenv("SEMIKIT_MAX_ORDER", "2")  # two such maps fit
    with pytest.raises(Overflow, match="exceeds max order 2"):
        gen_transformation_closure(2049, 2, 0)


@given(
    st.integers(1, 40).flatmap(
        lambda width: st.lists(st.lists(st.integers(0, 3), min_size=width, max_size=width), min_size=1, max_size=60)
    ),
    st.sampled_from([np.uint8, np.uint16, np.int64]),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_labels_across_blocks_match_dict(rows, dtype, data):
    # the closure numbers its products a block at a time through one dict
    labels: dict[tuple, int] = {}
    expected = [labels.setdefault(tuple(row), len(labels)) for row in rows]
    arr, seen = np.array(rows, dtype=dtype), {}
    m = data.draw(st.integers(0, len(rows)))
    got = np.concatenate((_labels(arr[:m], seen), _labels(arr[m:], seen)))
    assert got.tolist() == expected and len(seen) == len(labels)


@functools.cache
def associative_tables_oracle(n):
    """Every associative labelled n x n table, flattened: a DFS over the
    cells in row-major order that checks all n^3 triples after each cell."""
    total = n * n
    t = [-1] * total
    out = []
    triples = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]

    def consistent():
        for a, b, c in triples:
            ab, bc = t[a * n + b], t[b * n + c]
            if ab < 0 or bc < 0:
                continue
            x, y = t[ab * n + c], t[a * n + bc]
            if x >= 0 and y >= 0 and x != y:
                return False
        return True

    def rec(pos):
        if pos == total:
            out.append(tuple(t))
            return
        for v in range(n):
            t[pos] = v
            if consistent():
                rec(pos + 1)
            t[pos] = -1

    rec(0)
    return out


def canonical_form(S, fold_opposites=False):
    """Lexicographically minimal flattened table over all relabelings (of
    the table and, with fold_opposites, of its transpose): the isomorphism
    oracle, walking all n! relabellings in chunks of _BLOCK cells."""
    tables = (S.table, S.table.T) if fold_opposites else (S.table,)
    flat = np.array([t.ravel() for t in tables])
    perms, best = itertools.permutations(range(S.order)), None
    step = max(1, _BLOCK // flat.size)  # relabellings per chunk
    while chunk := list(itertools.islice(perms, step)):
        rel = _relabel(flat, np.array(chunk)).reshape(-1, S.order**2)
        least = rel[np.lexsort(rel.T[::-1])[0]]
        if best is None or _lex_less(least, best):
            best = least
    return tuple(best.tolist())


def normalize_sandwich(rms):
    """Re-base P by row/column group translations so row 0 and column 0
    become the identity; yields an isomorphic Rees matrix semigroup.  The
    rectangular-group oracle: S is one iff this P is all identity."""
    GT = rms.group.table
    inv = _group_inverses(GT, sk.is_monoid(rms.group))
    P = rms.sandwich
    # p'_{lam,i} = p_{lam,0}^-1 * p_{lam,i} * p_{0,i}^-1 * p_{0,0}
    v = GT[inv[P[:, :1]], P]
    v = GT[v, inv[P[:1, :]]]
    return GT[v, P[0, 0]]


def order_counts(semigroups, max_order):
    return [sum(S.order == n for S in semigroups) for n in range(1, max_order + 1)]


def automorphism_counts(semigroups, n):
    """|Aut(S)| of each order-n member: the relabellings that fix its table."""
    tables = np.array([S.table for S in semigroups if S.order == n])
    counts = np.zeros(len(tables), dtype=np.int64)
    for p in itertools.permutations(range(n)):
        p = np.array(p)
        inv = np.argsort(p)
        counts += (p[tables[:, inv][:, :, inv]] == tables).all(axis=(1, 2))
    return counts


def test_census_counts(census4, census5):
    # semigroups of order n up to isomorphism: OEIS A023814
    assert order_counts(census5, 5) == [1, 5, 24, 188, 1915]
    assert census5[: len(census4)] == census4


@pytest.mark.parametrize("fold", [False, True], ids=["plain", "folded"])
def test_census_matches_dfs_oracle(census4, fold):
    # the lex-least table of each class of the DFS's labelled tables, in
    # lexicographic order, under the same names
    expected = []
    for n in range(1, 5):
        tables = (sk.from_table(n, np.reshape(flat, (n, n))) for flat in associative_tables_oracle(n))
        forms = {canonical_form(S, fold_opposites=fold) for S in tables}
        expected += [(f"census-{n}-{i}", form) for i, form in enumerate(sorted(forms))]
    got = census(4, fold_opposites=True) if fold else census4
    assert [(S.name, tuple(S.table.ravel().tolist())) for S in got] == expected


def test_census_folded_counts_match_oeis():
    # semigroups of order n up to isomorphism or anti-isomorphism: OEIS A027851
    assert order_counts(census(5, fold_opposites=True), 5) == [1, 4, 18, 126, 1160]


def test_labelled_census_counts_match_oeis(census5):
    # associative labelled tables of order n, as the sum of n!/|Aut(S)| over
    # the classes: OEIS A023815
    labelled = [int((math.factorial(n) // automorphism_counts(census5, n)).sum()) for n in range(1, 6)]
    assert labelled == [1, 8, 113, 3492, 183732]
    assert labelled[:4] == [len(associative_tables_oracle(n)) for n in range(1, 5)]


def test_census_limit():
    with pytest.raises(CensusLimitExceeded):
        census(6)


@pytest.mark.parametrize("max_order", [0, -3])
def test_census_rejects_nonpositive_order(max_order):
    with pytest.raises(ValueError, match="must be positive"):
        census(max_order)


def test_census_deterministic_fingerprint():
    assert fingerprint(census(3)) == fingerprint(census(3))


def fingerprint_oracle(semigroups):
    """SHA-256 over "n:" and the comma-joined entries of each table, ";"."""
    h = hashlib.sha256()
    for S in semigroups:
        h.update(f"{S.order}:{','.join(str(int(v)) for v in S.table.ravel())};".encode())
    return h.hexdigest()


def test_fingerprint_matches_per_entry_encoding(census4, seeded_closures):
    assert fingerprint(census4) == fingerprint_oracle(census4)
    assert fingerprint(census4).startswith("f4b1549c")
    assert fingerprint(seeded_closures) == fingerprint_oracle(seeded_closures)


def test_table_text_memory_bounded(monkeypatch, tmp_path):
    # Z4096's .sg text is 79 MB: written and hashed a row slice at a time,
    # not held whole (152 MB traced when it was)
    monkeypatch.delenv("SEMIKIT_MAX_ORDER", raising=False)
    S = sk.gen_standard("cyclic", 4096)
    path = tmp_path / "z.sg"
    for write in (lambda: sk.write_sg(S, path), lambda: fingerprint([S])):
        tracemalloc.start()
        try:
            result = write()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20
    assert result == "b2772047f9ca6cd41f7b50cd7d4843aac34ad0ea35c2f9172929fbb27a392aff"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "ac5835d2e0230a39616187ee142b73bee2327a7325dd3dabf804fe33bc634c27"


def test_canonical_form_idempotent(t2, pb):
    for S in (t2, pb):
        c = canonical_form(S)
        T = sk.from_table(S.order, np.asarray(c).reshape(S.order, S.order))
        assert canonical_form(T) == c


def test_canonical_form_relabeling_invariant(t2):
    rng = np.random.default_rng(0)
    n = t2.order
    for _ in range(10):
        p = rng.permutation(n)
        inv = np.empty(n, dtype=np.int64)
        inv[p] = np.arange(n)
        relab = p[t2.table[np.ix_(inv, inv)]]
        assert canonical_form(sk.from_table(n, relab)) == canonical_form(t2)


def test_fold_opposites(l2):
    r2 = sk.gen_standard("right_zero", 2)
    assert canonical_form(l2) != canonical_form(r2)
    assert canonical_form(l2, fold_opposites=True) == canonical_form(
        r2, fold_opposites=True
    )


def test_build_corpus_descriptors(z3, rb22):
    # parse_descriptor names one semigroup per descriptor string
    assert parse_descriptor("cyclic:3") == z3
    assert parse_descriptor("rect_band:2,2") == rb22
    assert parse_descriptor("random_rees:2,1,z2,4") == gen_random_rees(2, 1, "z2", 4).realized
    assert parse_descriptor("transformation:3,2,0") == gen_transformation_closure(3, 2, 0)
    assert parse_descriptor("trivial").order == 1


def test_build_corpus_follows_order_cap(monkeypatch):
    # SEMIKIT_MAX_ORDER is the only order cap a descriptor answers to
    monkeypatch.setenv("SEMIKIT_MAX_ORDER", "4097")
    assert parse_descriptor("left_zero:4097").order == 4097


@pytest.mark.parametrize(
    "desc",
    ["census", "census:", "census:2,3", "census:,,2", "random_rees:1,1,z2", "transformation:3,2",
     "transformation:3,2,0,1", "transformation:3,,2,0"],
)
def test_build_corpus_rejects_wrong_arity(desc):
    # census is no descriptor (a census is many semigroups): it is refused
    # as an unknown generator, and like an arity error the message quotes
    # the whole descriptor
    error = UnknownGenerator if desc.startswith("census") else ValueError
    with pytest.raises(error, match=re.escape(repr(desc))):
        parse_descriptor(desc)


@pytest.mark.parametrize(
    "params",
    [("cyclic", 2000), ("left_zero", 2000), ("right_zero", 2000), ("rect_band", 40, 50)],
    ids=lambda p: p[0],
)
def test_fixture_order_checked_before_allocating(monkeypatch, params):
    monkeypatch.setenv("SEMIKIT_MAX_ORDER", "4")
    tracemalloc.start()
    try:
        with pytest.raises(Overflow):
            sk.gen_standard(*params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "params",
    [("cyclic", 0), ("left_zero", -1), ("right_zero", 0), ("rect_band", -2, -3), ("rect_band", 2, 0)],
    ids=lambda p: f"{p[0]}:{','.join(map(str, p[1:]))}",
)
def test_fixture_rejects_nonpositive_sizes(params):
    with pytest.raises(ValueError):
        sk.gen_standard(*params)


def test_verify_suite_census3_zero_failures():
    report = verify_suite(census(3))
    assert report.summary["fail"] == 0


def test_verify_suite_order5_sample(census5):
    # every 40th order-5 class; the swelling lemma is checked exhaustively
    # at order 5 as well
    sample = [S for S in census5 if S.order == 5][::40]
    report = verify_suite(sample)
    assert (len(sample), len(report.entries), report.summary["fail"]) == (48, 672, 0)


def test_verify_suite_order5_exhaustive(census5):
    # the whole theorem suite over all 2,133 semigroups of order <= 5
    report = verify_suite(census5)
    assert (len(report.entries), report.summary["fail"]) == (29862, 0)


def test_verify_suite_skips_subsemigroup_walks_above_limit(monkeypatch):
    # the checks that walk every subsemigroup run up to
    # SUBSEMIGROUP_CHECK_LIMIT (order 12) and skip the walk above it; on
    # RB(10,10), order 100, the walk alone would run for hours
    walked, walk = [], corpus_mod._subsemigroup_masks
    monkeypatch.setattr(corpus_mod, "_subsemigroup_masks", lambda S: walked.append(S.order) or walk(S))
    assert 12 <= corpus_mod.SUBSEMIGROUP_CHECK_LIMIT < 100
    report = verify_suite([sk.gen_standard("rect_band", 3, 4)])
    assert 12 in walked
    assert report.summary == {"pass": 14, "fail": 0}  # the Swelling Lemma included
    walked.clear()
    start = time.perf_counter()
    report = verify_suite([sk.gen_standard("rect_band", 10, 10)])
    assert time.perf_counter() - start < 5
    assert walked == []
    # RB(10,10) is no group, so the subgroup check holds vacuously and passes
    skipped = {e.check for e in report.entries if e.status == "skip"}
    assert skipped == {"regular_green_restriction", "subsemigroup_classification", "swelling_implication"}
    assert report.summary == {"pass": 11, "fail": 0, "skip": 3}
    assert all(e.witness is None for e in report.entries)


def test_verify_suite_order2048_chain():
    # the chain semilattice min(i, j): every element is an idempotent, and
    # only Se = {0} is a minimal left ideal, so only row 0 of the
    # minimal-ideal table is all True; the walks skip above order 12.
    # Built unvalidated: every element is a generator, so Light's test on
    # load would take minutes at this order
    i = np.arange(2048)
    S = sk.FiniteSemigroup(np.minimum.outer(i, i), validate=False)
    table = _minimal_ideal_table(S, i)[2]
    assert table[0].all() and not table[1:].any()
    report = kernel(S)
    assert (report.kernel.members, report.idempotents) == ((0,), (0,))
    assert verify_suite([S]).summary == {"pass": 12, "fail": 0, "skip": 2}


def test_verify_summary_counts_skip_only_when_nonzero(z3):
    doc = json.loads(verify_suite([("z3", z3)]).to_json())
    assert doc["summary"] == {"pass": 14, "fail": 0}
    # Z13 is a group above both limits: every walk is skipped
    doc = json.loads(verify_suite([sk.gen_standard("cyclic", 13)]).to_json())
    assert doc["summary"] == {"pass": 10, "fail": 0, "skip": 4}
    skipped = {e["check"] for e in doc["entries"] if e["status"] == "skip"}
    assert skipped == {"subsemigroup_of_group_is_subgroup", "swelling_implication",
                       "regular_green_restriction", "subsemigroup_classification"}


def swelling_always_fails(S):
    """A swelling verdict that claims A lies in tA but differs from it at
    every subset A and every t."""
    shape = (2**S.order - 1, S.order)
    return np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool)


def test_swelling_checked_at_order5(monkeypatch, census5):
    monkeypatch.setattr(corpus_mod, "_swelling_verdicts", swelling_always_fails)
    report = verify_suite(census5[-1:])
    assert {e.check for e in report.failures} == {"swelling_implication"}


def test_swelling_witness_is_the_least_subset_then_t(monkeypatch, t2):
    held, equal = corpus_mod._swelling_verdicts(t2)
    assert not (held & ~equal).any()
    bad = np.zeros_like(held)
    bad[0b1110 - 1, 3] = bad[0b1101 - 1, 3] = bad[0b1101 - 1, 2] = True
    monkeypatch.setattr(corpus_mod, "_swelling_verdicts", lambda S: (held | bad, equal & ~bad))
    [witness] = {e.witness for e in verify_suite([t2]).failures}
    assert witness == "A=[0, 2, 3] lies in tA but is not tA at t=2"


def test_verify_suite_pb_pinned(pb):
    report = verify_suite([("pb", pb)])
    assert not report.failures
    kernel_report = sk.kernel(pb)
    assert kernel_report.kernel.members == (0, 1)


def test_verify_suite_z3(z3):
    report = verify_suite([("z3", z3)])
    assert not report.failures


def test_verify_report_json_roundtrip(z3):
    import json

    report = verify_suite([("z3", z3)])
    doc = json.loads(report.to_json())
    assert doc["summary"]["fail"] == 0
    assert all(set(e) >= {"check", "status", "witness"} for e in doc["entries"])
    assert doc["rng_algorithm"] == "splitmix64"


def json_oracle(report):
    """The report as the indenting json encoder writes it."""
    doc = {
        "fingerprint": report.fingerprint,
        "rng_algorithm": report.rng_algorithm,
        "summary": report.summary,
        "entries": [e.to_dict() for e in report.entries],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_report_json_matches_json_dumps(census4):
    # the census, an empty report ("entries": []) and Z13's skip entries
    for report in (verify_suite(census4), verify_suite([]), verify_suite([sk.gen_standard("cyclic", 13)])):
        assert report.to_json() == json_oracle(report)
    assert '"entries": [],' in verify_suite([]).to_json()


def test_report_json_escapes_like_json_dumps():
    entries = (
        CheckResult('a "quoted" name', "kernel_unique_minimal", "fail", 'back\\slash, "quote"\nnew line'),
        CheckResult("S¹ x S¹", "stability", "fail", "S^1 x S^1 ≠ S¹xS¹\t\x00\u2028 é 😀"),
        CheckResult("plain", "stability", "skip"),
        CheckResult("plain", "stability", "pass"),
    )
    report = VerificationReport(entries, fingerprint="f")
    assert report.to_json() == json_oracle(report)
    assert json.loads(report.to_json())["entries"][1]["witness"] == entries[1].witness


def test_verify_reports_d_not_equal_j(monkeypatch, t2):
    # the D = J check lives in the verify harness: a structure whose D
    # partition is not J must be recorded as a failure, not pass silently.
    # Split into singletons, D ⊆ J holds and the D-order sees 0 J 1; merged
    # into one class, only D ⊆ J sees that 0 is not in S^1 2 S^1
    real = corpus_mod.greens_structure
    for d_class in (np.arange(t2.order), np.zeros(t2.order, dtype=np.int64)):
        monkeypatch.setattr(
            corpus_mod, "greens_structure", lambda S, d=d_class: dataclasses.replace(real(S), d_class=d)
        )
        report = verify_suite([("t2", t2)])
        failed = {e.check: e.witness for e in report.failures}
        assert failed.get("d_equals_rl_equals_lr") == "D != J"


def test_d_equals_j_check_memory_bounded(monkeypatch):
    # Z4096, one D-class: two n×n bool passes over the kept principal-ideal
    # pair and a 1×1 D-order, not an n×n float32 product of every S^1 x S^1
    # row (96 MB)
    monkeypatch.delenv("SEMIKIT_MAX_ORDER", raising=False)
    S = sk.gen_standard("cyclic", 4096)
    corpus_mod.greens_structure(S)  # kept per semigroup: not this call's cost
    tracemalloc.start()
    try:
        result = corpus_mod._check_d_composition(S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result is None
    assert peak < 48 << 20


def test_verify_reports_wrong_classification(monkeypatch, rb22):
    # a row {0, 3} that is no subsemigroup: at e = 0 it has J = W = Gamma = {0}
    real = corpus_mod._subsemigroup_masks

    def with_bad_row(S):
        bad = np.isin(np.arange(S.order), [0, 3])
        return np.vstack((real(S), bad))

    monkeypatch.setattr(corpus_mod, "_subsemigroup_masks", with_bad_row)
    report = verify_suite([("rb22", rb22)])
    failed = {e.check: e.witness for e in report.failures}
    assert failed == {"subsemigroup_classification": "T is not J*W*Gamma at T=[0, 3]"}


def ese_group_flipped_at_2(S, E):
    """The minimal-ideal table with "eSe is a group" negated at e = 2."""
    se, es, table = _minimal_ideal_table(S, E)
    table[list(E).index(2), 1] ^= True
    return se, es, table


@pytest.mark.parametrize(
    "name, verdict, fixture, check, witness",
    [
        ("_swelling_verdicts", swelling_always_fails, "t2", "swelling_implication",
         "A=[0] lies in tA but is not tA at t=0"),
        # x -> x + 1 as the inverse map: only the subgroup {0} of Z3 loses
        ("_group_inverses", lambda GT, e: np.roll(np.arange(len(GT)), -1), "z3",
         "subsemigroup_of_group_is_subgroup", "subsemigroup [0] of a group is not a subgroup"),
        ("_minimal_ideal_table", ese_group_flipped_at_2, "t2", "minimal_ideal_equivalences",
         "minimal-ideal equivalences disagree at e=2: (True, False, True, True)"),
    ],
    ids=["swelling_check", "subsemigroup_of_group_check", "minimal_ideal_table"],
)
def test_verify_records_wrong_verdict(monkeypatch, request, name, verdict, fixture, check, witness):
    # these functions return verdicts; only the verify harness judges them
    S = request.getfixturevalue(fixture)
    monkeypatch.setattr(corpus_mod, name, verdict)
    report = verify_suite([(fixture, S)])
    assert len(report.entries) == len(corpus_mod.CHECKS)
    assert {e.check: e.witness for e in report.failures} == {check: witness}


def test_verify_names_the_least_power_row_without_idempotent(monkeypatch, z3):
    # rows 1 and 2 of _cyclic_rows lose Z3's one idempotent, 0
    real = corpus_mod._cyclic_rows

    def without_zero(S):
        rows = real(S)
        rows[1:, 0] = False
        return rows

    monkeypatch.setattr(corpus_mod, "_cyclic_rows", without_zero)
    report = verify_suite([("z3", z3)])
    failed = {e.check: e.witness for e in report.failures}
    assert failed == {"monogenic_unique_idempotent": "<1> has 0 idempotents"}


def test_verify_reports_kernel_not_minimal(monkeypatch, t2):
    # a kernel() that reports all of T2 as K: {2, 3} is an ideal inside it
    real = corpus_mod.kernel

    def whole(S):
        return dataclasses.replace(real(S), kernel=sk.SubsetHandle(S, tuple(range(S.order))))

    monkeypatch.setattr(corpus_mod, "kernel", whole)
    report = verify_suite([("t2", t2)])
    failed = {e.check: e.witness for e in report.failures}
    assert failed == {"kernel_unique_minimal": "kernel not minimal: 2 generates a smaller ideal"}


def chain16():
    """The chain semilattice min(i, j) of order 16, above the subset walks'
    limit; its kernel is {0}."""
    i = np.arange(16)
    return sk.FiniteSemigroup(np.minimum.outer(i, i), validate=False)


@pytest.mark.parametrize(
    "members, witness",
    [((1,), "kernel is not an ideal"), ((0, 1), "kernel is not S^1 k S^1 at k=0")],
    ids=["not_an_ideal", "not_principal"],
)
def test_verify_reports_kernel_not_least(monkeypatch, members, witness):
    # a kernel() that reports a wrong K on the chain: min(1, 0) = 0 puts {1}
    # outside the ideals, and the ideal {0, 1} is larger than S^1 0 S^1 = {0}
    real = corpus_mod.kernel
    monkeypatch.setattr(
        corpus_mod, "kernel", lambda S: dataclasses.replace(real(S), kernel=sk.SubsetHandle(S, members))
    )
    report = verify_suite([("chain16", chain16())])
    failed = {e.check: e.witness for e in report.failures}
    assert failed == {"kernel_unique_minimal": witness}


def test_verify_reports_ideal_missing_kernel_above_order_12(monkeypatch):
    # both rows of x = 5 cut to {5}: then S^1 5 S^1 = {5} misses K = {0};
    # at order 16, above the subset walks' limit, uniqueness is still checked
    real = corpus_mod._ideal_rows

    def cut(S):
        left, right = (rows.copy() for rows in real(S))
        left[5] = right[5] = np.arange(S.order) == 5
        return left, right

    monkeypatch.setattr(corpus_mod, "_ideal_rows", cut)
    report = verify_suite([("chain16", chain16())])
    failed = {e.check: e.witness for e in report.failures}
    assert failed == {"kernel_unique_minimal": "S^1 x S^1 does not contain K at x=5"}


@pytest.mark.parametrize("name", ["_subsemigroup_masks", "_rees_coordinates"])
def test_verify_records_value_error_without_aborting(monkeypatch, rb22, name):
    # a ValueError raised inside a check becomes that check's failure witness
    def broken(*args):
        raise ValueError("bad decomposition")

    monkeypatch.setattr(corpus_mod, name, broken)
    report = verify_suite([("rb22", rb22)])
    assert len(report.entries) == len(corpus_mod.CHECKS)
    failed = {e.check: e.witness for e in report.failures}
    expected = {
        "_subsemigroup_masks": {"regular_green_restriction", "subsemigroup_classification"},
        "_rees_coordinates": {"kernel_rees_roundtrip"},
    }[name]
    assert set(failed) == expected
    assert set(failed.values()) == {"bad decomposition"}


def psi_swapped_at_0_1(S, e):
    """_rees_coordinates with psi(0) and psi(1) exchanged."""
    *fields, psi = _rees_coordinates(S, e)
    return (*fields, psi[[1, 0, *range(2, len(psi))]])


def psi_undefined_at_3(S, e):
    """_rees_coordinates with psi(3) undefined; on RB(2,2) phi is the
    identity map, so phi's last entry is 3."""
    *fields, psi = _rees_coordinates(S, e)
    return (*fields, np.where(np.arange(len(psi)) == 3, -1, psi))


def phi_psi_conjugated_by_0_3(S, e):
    """_rees_coordinates with realized elements 0 and 3 exchanged in phi
    and psi: still mutually inverse, but on RB(2,2) phi is no homomorphism."""
    *fields, phi, psi = _rees_coordinates(S, e)
    tau = np.array([3, 1, 2, 0])
    return (*fields, phi[tau], tau[psi])


@pytest.mark.parametrize(
    "broken, witness",
    [
        (psi_swapped_at_0_1, "phi(psi(s)) != s at s=0"),
        (psi_undefined_at_3, "phi(psi(s)) != s at s=3"),
        (phi_psi_conjugated_by_0_3, "phi is not a homomorphism"),
    ],
    ids=["psi_swapped", "psi_undefined", "phi_not_homomorphism"],
)
def test_verify_reports_wrong_rees_roundtrip(monkeypatch, rb22, broken, witness):
    # _rees_coordinates does not test its maps; the round-trip check does
    monkeypatch.setattr(corpus_mod, "_rees_coordinates", broken)
    report = verify_suite([("rb22", rb22)])
    assert {e.check: e.witness for e in report.failures} == {"kernel_rees_roundtrip": witness}


@pytest.mark.parametrize("i_size, lambda_size, seed", [(2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 3)])
def test_verify_suite_non_identity_sandwich(i_size, lambda_size, seed):
    # a normalised sandwich matrix other than all-identity: the Rees
    # checks see a group component that P actually twists
    rms = gen_random_rees(i_size, lambda_size, "z2", seed)
    assert (normalize_sandwich(rms) != sk.is_monoid(rms.group)).any()
    report = verify_suite([rms.realized])
    assert report.summary == {"pass": 14, "fail": 0}


def twisted_m22():
    """M(2, 2, Z2) with sandwich [[0, 0], [0, 1]]: (0,0,1)*(1,0,0) = (0,1,0)."""
    return sk.rees_construct(2, 2, corpus_mod.resolve_group("z2"), [[0, 0], [0, 1]]).realized


@pytest.mark.parametrize(
    "build, row, witness",
    [
        (lambda: sk.gen_standard("cyclic", 3), [0, 1], "W is not a subgroup of H_e at T=[0, 1]"),
        (twisted_m22, [0, 1, 4], "Gamma*J is not contained in W at T=[0, 1, 4]"),
    ],
    ids=["subgroup", "sandwich"],
)
def test_classification_names_the_first_false_statement(monkeypatch, build, row, witness):
    # one row that is no subsemigroup, appended last, breaks the statement
    # named; test_verify_reports_wrong_classification breaks T = J*W*Gamma
    S, real = build(), corpus_mod._subsemigroup_masks
    monkeypatch.setattr(
        corpus_mod, "_subsemigroup_masks", lambda S: np.vstack((real(S), np.isin(np.arange(S.order), row))))
    assert corpus_mod._check_subsemigroup_classification(S) == witness


def test_classification_rows_match_subsemigroup_decompose(census5):
    # J, W and Gamma read off S's rows at T's least idempotent are T's own
    # Rees coordinates, found by re-tabling T, for every subsemigroup T
    rees = [gen_random_rees(i, lam, "z2", seed).realized for i, lam, seed in ((2, 2, 1), (2, 3, 2), (3, 2, 3))]
    for S in [S for S in census5 if sk.is_completely_simple(S)] + rees:
        masks = corpus_mod._subsemigroup_masks(S)
        e, *rows = corpus_mod._classification_rows(S, masks)
        for t, mask in enumerate(masks):
            T = sk.SubsetHandle(S, tuple(np.flatnonzero(mask).tolist()))
            *parts, dec = sk.subsemigroup_decompose(S, T)
            assert T.members[dec.e] == e[t]
            assert [np.flatnonzero(r[t]).tolist() for r in rows] == [list(p.members) for p in parts]


def test_rees_coordinates_on_s_match_the_kernel_copy(census5):
    # S's coordinates at K's least idempotent are those of K re-tabled,
    # mapped through the inclusion: S^1 e = Ke, eS^1 = eK
    grid = [
        gen_random_rees(i, lam, group, seed).realized
        for group in ("trivial", "z2", "z3", "z4", "z2xz2", "s3")
        for i in (1, 2, 3)
        for lam in (1, 2, 3)
        for seed in (1, 2)
    ]
    closures = [gen_transformation_closure(4, 3, seed) for seed in range(1, 6)]
    for S in list(census5) + closures + grid:
        K = kernel_members(S)
        sub, incl = sk.subsemigroup_table(S, K)
        dec, inc = sk.rees_decompose(sub), np.asarray(incl.map)
        e = min(x for x in K if S.product(x, x) == x)
        assert incl(dec.e) == e
        *elements, GT, P, phi, psi = _rees_coordinates(S, e)
        expected = (dec.i_elements, dec.lambda_elements, dec.group_elements, dec.phi.map)
        assert [a.tolist() for a in (*elements, phi)] == [inc[list(x)].tolist() for x in expected]
        assert GT.tolist() == dec.rms.group.table.tolist()
        assert P.tolist() == dec.rms.sandwich.tolist()
        assert psi[inc].tolist() == list(dec.psi.map)


def child_stdout(code):
    """Run code in a fresh interpreter on this semikit and return its stdout;
    the child reports its own figures, as RUSAGE_CHILDREN would give the
    maximum over every child this process has reaped."""
    src = os.path.dirname(os.path.dirname(sk.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_kernel_rees_roundtrip_at_the_order_cap_stays_small():
    # Z4096, in a fresh process: the round-trip reads S's own rows, with no
    # re-tabled copy of K and no realized table kept whole
    code = (
        "import resource, semikit.corpus as c\n"
        "assert c._check_kernel_rees_roundtrip(c.parse_descriptor('cyclic:4096')) is None\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    assert int(child_stdout(code)) < 500 * 1024  # ru_maxrss is in KiB on Linux


def test_monogenic_check_at_the_order_cap_stays_fast_and_small():
    # Z4096, in a fresh process: <s> has up to 4,096 powers, walked for
    # every s at once by one gather per power, not element by element
    code = (
        "import resource, time, semikit.corpus as c\n"
        "S = c.parse_descriptor('cyclic:4096')\n"
        "start = time.perf_counter()\n"
        "assert c._check_monogenic_idempotent(S) is None\n"
        "print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    seconds, rss = child_stdout(code).split()
    assert float(seconds) < 5
    assert int(rss) < 500 * 1024  # ru_maxrss is in KiB on Linux


def test_kernel_statements_at_the_order_cap_stay_fast_and_small():
    # RB(64,64), in a fresh process: all 4,096 elements are kernel
    # idempotents, so the minimal-ideal table has 4,096 rows, and the kernel
    # check reads one S^1 k S^1 row and one membership pass, not a product
    # over the rows of E or of K
    code = (
        "import resource, time, semikit.corpus as c\n"
        "from semikit.ideals import kernel\n"
        "S = c.parse_descriptor('rect_band:64,64')\n"
        "start = time.perf_counter()\n"
        "assert len(kernel(S).idempotents) == 4096\n"
        "assert c._check_kernel(S) is None and c._check_minimal_ideal_equivalences(S) is None\n"
        "print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    seconds, rss = child_stdout(code).split()
    assert float(seconds) < 3
    assert int(rss) < 500 * 1024  # ru_maxrss is in KiB on Linux
