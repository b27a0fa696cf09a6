import dataclasses
import hashlib
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semikit as sk
from semikit import corpus as corpus_mod, greens
from semikit.core import FiniteSemigroup, SubsetHandle, subsemigroup_table
from semikit.corpus import gen_standard, gen_transformation_closure
from semikit.errors import NotAnHClass
from semikit.greens import _labels, _lrh_labels, greens_structure


def test_principal_ideals_l2(l2):
    left, right, two = sk.principal_ideals(l2, 0)
    assert left.members == (0, 1)
    assert right.members == (0,)
    assert two.members == (0, 1)


def test_principal_ideals_z3(z3):
    left, right, two = sk.principal_ideals(z3, 1)
    assert left.members == right.members == two.members == (0, 1, 2)


def test_principal_ideals_t2(t2):
    left, right, two = sk.principal_ideals(t2, 2)
    assert left.members == (2, 3)
    assert right.members == (2,)
    assert two.members == (2, 3)


def test_one_principal_ideal_reads_few_left_rows(monkeypatch):
    # RB(64,64), order 4096: x S^1 holds 64 middles, so S^1 x S^1 reads 64
    # left rows, not a float32 copy of all 4096 (64 MB)
    monkeypatch.delenv("SEMIKIT_MAX_ORDER", raising=False)
    S = gen_standard("rect_band", 64, 64)
    greens._ideal_rows(S)  # kept per semigroup: not this call's cost
    tracemalloc.start()
    try:
        left, right, two = sk.principal_ideals(S, 65)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert left.members == tuple(range(1, 4096, 64)) and right.members == tuple(range(64, 128))
    assert two.members == tuple(range(4096))
    assert peak < 8 << 20


def test_principal_two_sided_ideal_matches_python_sets(oracle_instances):
    # one S^1 x S^1 as a union of left rows, against the ideal as a Python set
    for S in oracle_instances:
        for x in range(S.order):
            assert sk.principal_ideals(S, x).two_sided.members == tuple(sorted(principal_ideal(S, x, "j")))


def test_greens_z3(z3):
    G = greens_structure(z3)
    for classes in (G.l_classes, G.r_classes, G.j_classes, G.h_classes, G.d_classes):
        assert classes == ((0, 1, 2),)


def test_greens_rb22(rb22):
    G = greens_structure(rb22)
    assert set(G.r_classes) == {(0, 1), (2, 3)}
    assert set(G.l_classes) == {(0, 2), (1, 3)}
    assert G.h_classes == ((0,), (1,), (2,), (3,))
    assert G.d_classes == ((0, 1, 2, 3),)


def test_greens_t2(t2):
    G = greens_structure(t2)
    assert set(G.d_classes) == {(0, 1), (2, 3)}
    assert (2,) in G.r_classes and (3,) in G.r_classes
    assert (2, 3) in G.l_classes


def principal_ideal(S, s, kind):
    """A principal ideal as a Python set: S^1 s for "l", s S^1 for "r",
    S^1 s S^1 for "j"."""
    n = S.order
    if kind == "l":
        return {s} | {S.product(x, s) for x in range(n)}
    ideal = {s} | {S.product(s, x) for x in range(n)}
    if kind == "j":
        ideal |= {S.product(x, y) for x in range(n) for y in ideal}
    return ideal


def principal_ideal_partition(S, kind):
    """Labels from principal ideals built as Python sets; classes are
    numbered by least member."""
    labels = {}
    out = [labels.setdefault(frozenset(principal_ideal(S, s, kind)), len(labels)) for s in range(S.order)]
    return np.asarray(out)


def test_greens_methods_agree(oracle_instances):
    # production L, R and D (the join of L and R) against the partitions by
    # principal ideals; D must equal J
    for S in oracle_instances:
        G = greens_structure(S)
        assert np.array_equal(G.l_class, principal_ideal_partition(S, "l")), S.name
        assert np.array_equal(G.r_class, principal_ideal_partition(S, "r")), S.name
        j = principal_ideal_partition(S, "j")
        assert np.array_equal(G.d_class, j), S.name
        assert np.array_equal(G.j_class, j), S.name


def greens_oracle(S):
    """L, R, H and D labels and the strict D-order pairs (lower, higher),
    sorted by the higher class, from principal ideals built as Python sets.
    Classes are numbered by least member."""
    n = S.order
    rows = S.table.tolist()
    left = [frozenset([s, *(rows[x][s] for x in range(n))]) for s in range(n)]
    right = [frozenset([s, *rows[s]]) for s in range(n)]
    two_sided = [frozenset().union(*(right[a] for a in left[s])) for s in range(n)]  # (S^1 s) S^1

    def number(keys):
        seen = {}
        return [seen.setdefault(k, len(seen)) for k in keys]

    l, r = number(left), number(right)
    ideals = list(dict.fromkeys(two_sided))
    d_order = tuple(
        (lo, hi)
        for hi, big in enumerate(ideals)
        for lo, small in enumerate(ideals)
        if lo != hi and small <= big
    )
    return {"l": l, "r": r, "h": number(zip(l, r)), "d": number(two_sided), "d_order": d_order}


def d_order_pairs(G):
    """The strict D-order pairs (lower, higher) read off the k×k matrix,
    sorted by the higher class, then the lower."""
    return tuple(map(tuple, np.argwhere(G.d_order.T)[:, ::-1].tolist()))


def assert_matches_greens_oracle(S):
    G = greens_structure(S)
    want = greens_oracle(S)
    got = {
        "l": G.l_class.tolist(),
        "r": G.r_class.tolist(),
        "h": G.h_class.tolist(),
        "d": G.d_class.tolist(),
        "d_order": d_order_pairs(G),
    }
    assert got == want, S.name


def test_greens_h_and_d_order_match_oracle(oracle_instances):
    # H against the meet of the oracle L and R, d_order against the
    # inclusions of two-sided principal ideals
    for S in oracle_instances:
        assert_matches_greens_oracle(S)


@given(degree=st.integers(1, 4), n_maps=st.integers(1, 3), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_greens_match_oracle_on_transformation_closures(degree, n_maps, seed):
    assert_matches_greens_oracle(gen_transformation_closure(degree, n_maps, seed))


def test_greens_chain_semilattice():
    # min(i, j) on 0..299: every D-class is a singleton, D_i lies under D_j
    # exactly when i < j, and the covers are the consecutive pairs
    n = 300
    i = np.arange(n)
    G = greens_structure(sk.FiniteSemigroup(np.minimum.outer(i, i), validate=False))
    assert G.d_classes == tuple((x,) for x in range(n))
    assert G.d_order.sum() == n * (n - 1) // 2
    assert set(d_order_pairs(G)) == {(lo, hi) for hi in range(n) for lo in range(hi)}
    edges = re.findall(r"ltail=cluster_d(\d+), lhead=cluster_d(\d+)", sk.eggbox_dot(G))
    assert sorted((int(lo), int(hi)) for hi, lo in edges) == [(x, x + 1) for x in range(n - 1)]


def chain(n):
    i = np.arange(n)
    return sk.FiniteSemigroup(np.minimum.outer(i, i), validate=False)


def test_eggbox_dot_pinned(census4):
    # clusters, H-class nodes and J-order covers, byte for byte
    h = hashlib.sha256()
    for S in list(census4) + [chain(300), gen_transformation_closure(6, 3, 0)]:
        h.update(sk.eggbox_dot(greens_structure(S)).encode())
    assert h.hexdigest() == "8a2a9f72f302543c95baad2d017e34ae5126b139ffbd25c8867ab81045bbd217"


def test_eggbox_dot_memory_bounded():
    # the order-2000 chain has 1,999,000 strict J-order pairs; the covers
    # come from the k×k matrix without building them
    tracemalloc.start()
    try:
        dot = sk.eggbox_dot(greens_structure(chain(2000)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dot.count("ltail=") == 1999
    assert peak < 120 << 20


def test_d_order_memory_bounded():
    # the order-2000 chain's D-order is a 2000×2000 bool matrix with
    # 1,999,000 True entries, read without a Python object per pair
    G = greens_structure(chain(2000))
    tracemalloc.start()
    try:
        below = G.d_order
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert below.shape == (2000, 2000) and below.dtype == bool
    assert below.sum() == 1999000
    assert peak < 64 << 20


@dataclasses.dataclass(frozen=True)
class RestrictionReport:
    ok: bool
    violations: tuple[tuple[str, int, int], ...]  # (relation, a, b) in S-indices


def greens_restriction_check(S: FiniteSemigroup, T: SubsetHandle) -> RestrictionReport:
    """Oracle: check L^T = L^S ∩ (T×T) (and the R, H analogues) for a
    regular subsemigroup T, one T at a time."""
    sub, incl = subsemigroup_table(S, T.members)
    U, idx = sub.table, np.arange(sub.order)[:, None]
    regular = (U[U, idx] == idx).any(axis=1)  # x*t*x = x for some t
    if not regular.all():
        x = incl(int(np.argmin(regular)))  # the least non-regular element
        raise ValueError(f"element {x} is not regular inside the subsemigroup")
    GS = greens_structure(S)
    members = np.asarray(incl.map)
    violations = []
    for name, attr, inner in zip("LRH", ("l_class", "r_class", "h_class"), _lrh_labels(sub)):
        outer = getattr(GS, attr)[members]
        if np.array_equal(_labels(outer), inner):
            continue  # T's classes are S's classes restricted to T
        differ = (inner[:, None] == inner) != (outer[:, None] == outer)
        pairs = np.argwhere(np.triu(differ, 1)).tolist()  # row-major: i < k
        violations += [(name, incl(i), incl(k)) for i, k in pairs]
    return RestrictionReport(not violations, tuple(violations))


def restriction_violations_oracle(GS, GT, incl):
    """The pairwise loop: pairs of the subsemigroup related in it but not in
    S, or the other way round."""
    violations = []
    m = len(GT.l_class)
    for name, rel_S, rel_T in (
        ("L", GS.l_class, GT.l_class),
        ("R", GS.r_class, GT.r_class),
        ("H", GS.h_class, GT.h_class),
    ):
        for i in range(m):
            for k in range(i + 1, m):
                inner = rel_T[i] == rel_T[k]
                outer = rel_S[incl(i)] == rel_S[incl(k)]
                if inner != outer:
                    violations.append((name, incl(i), incl(k)))
    return tuple(violations)


def test_restriction_violations_match_pairwise_loop(monkeypatch, census4):
    # S's L classes 0 and 1 are merged, so restrictions fail and the
    # violations, in order, must equal the pairwise loop's
    real = greens.greens_structure
    failing = 0
    for S in census4:
        G = real(S)
        if len(G.l_classes) < 2:
            continue
        merged = dataclasses.replace(G, l_class=np.where(G.l_class == 1, 0, G.l_class))
        monkeypatch.setattr(
            sys.modules[__name__], "greens_structure", lambda X, S=S, merged=merged: merged if X is S else real(X)
        )
        for T in sk.enumerate_subsemigroups(S):
            try:
                report = greens_restriction_check(S, T)
            except ValueError:
                continue
            sub, incl = sk.subsemigroup_table(S, T.members)
            expected = restriction_violations_oracle(merged, real(sub), incl)
            assert report.violations == expected, (S.name, T.members)
            assert report.ok == (not expected)
            failing += bool(expected)
    assert failing > 100, failing


def first_restriction_failure(S):
    """The verify witness written by a loop of greens_restriction_check
    over enumerate_subsemigroups, skipping the non-regular ones."""
    for T in sk.enumerate_subsemigroups(S):
        try:
            report = greens_restriction_check(S, T)
        except ValueError:
            continue
        if not report.ok:
            return f"restriction fails on {list(T.members)}: {report.violations[:1]}"
    return None


def merge_first_two(labels):
    return np.where(labels == 1, 0, labels)


@pytest.mark.parametrize("block", [None, 1], ids=["one_pass", "row_per_pass"])
@pytest.mark.parametrize("merged", [("l_class",), ("r_class", "h_class"), ("l_class", "r_class", "h_class")])
def test_batched_restriction_witness_matches_loop(monkeypatch, census4, merged, block):
    # S's cached classes 0 and 1 are merged in the named partitions; the
    # batched pass must name the same subsemigroup, relation and pair as
    # the loop of single-T checks
    if block:
        monkeypatch.setattr(greens, "_BLOCK", block)
    real = greens.greens_structure
    sample = [gen_standard("rect_band", 2, 3), gen_standard("rect_band", 3, 2), *census4]
    failing = 0
    for S in sample:
        G = real(S)
        stub = dataclasses.replace(G, **{attr: merge_first_two(getattr(G, attr)) for attr in merged})
        for module in (greens, sys.modules[__name__]):  # the batched pass and the oracle
            monkeypatch.setattr(module, "greens_structure", lambda X, S=S, stub=stub: stub if X is S else real(X))
        expected = first_restriction_failure(S)
        assert corpus_mod._check_green_restriction(S) == expected, S.name
        failing += expected is not None
    assert failing > 20, failing


def test_commutative_all_relations_equal(z3):
    G = greens_structure(z3)
    for attr in ("r_class", "j_class", "h_class", "d_class"):
        assert np.array_equal(G.l_class, getattr(G, attr))


def compose_partitions(first, second):
    """Oracle: relation pairs of second∘first, (a,b) with a first c and
    c second b."""
    n = first.shape[0]
    pairs = set()
    for c in range(n):
        for a in np.flatnonzero(first == first[c]):
            for b in np.flatnonzero(second == second[c]):
                pairs.add((int(a), int(b)))
    return pairs


def test_d_composition_identity(t2, pb, rb22):
    for S in (t2, pb, rb22):
        G = greens_structure(S)
        rl = compose_partitions(G.l_class, G.r_class)  # a L c, c R b
        lr = compose_partitions(G.r_class, G.l_class)
        d_pairs = {
            (a, b)
            for a in range(S.order)
            for b in range(S.order)
            if G.d_class[a] == G.d_class[b]
        }
        assert rl == lr == d_pairs


def test_eggbox_dot_trivial(trivial):
    dot = sk.eggbox_dot(greens_structure(trivial))
    assert dot.count("label=\"{0}") == 1
    assert dot.startswith("digraph")


def test_eggbox_dot_t2(t2):
    dot = sk.eggbox_dot(greens_structure(t2))
    assert dot.count("subgraph cluster_") == 2
    assert '{2}*' in dot and '{3}*' in dot


def test_eggbox_dot_rb22(rb22):
    dot = sk.eggbox_dot(greens_structure(rb22))
    assert dot.count("subgraph cluster_") == 1
    assert dot.count("*") == 4


def test_eggbox_dot_deterministic(t2):
    a = sk.eggbox_dot(greens_structure(t2))
    b = sk.eggbox_dot(greens_structure(t2))
    assert a == b


def test_h_class_is_group(z3, t2, pb):
    assert sk.h_class_is_group(z3, sk.SubsetHandle(z3, (0, 1, 2)))
    assert sk.h_class_is_group(t2, sk.SubsetHandle(t2, (2,)))
    for box in greens_structure(pb).h_classes:
        assert sk.h_class_is_group(pb, sk.SubsetHandle(pb, box))


def test_h_class_is_group_rejects_non_h_class(t2):
    with pytest.raises(NotAnHClass):
        sk.h_class_is_group(t2, sk.SubsetHandle(t2, (0, 2)))


def test_h_class_idempotent_iff_group(census4):
    for S in census4:
        for members in greens_structure(S).h_classes:
            closed = all(S.product(a, b) in members for a in members for b in members)
            forms_group = closed and sk.is_group(sk.subsemigroup_table(S, members)[0])
            assert sk.h_class_is_group(S, sk.SubsetHandle(S, members)) == forms_group


def test_is_regular(z3, t2, pb):
    for e in sk.idempotents(pb):
        assert sk.is_regular(pb, e)
    assert sk.is_regular(z3, 1)
    # brute-force oracle over all fixtures
    for S in (z3, t2, pb):
        for s in range(S.order):
            oracle = any(
                S.product(S.product(s, t), s) == s for t in range(S.order)
            )
            assert sk.is_regular(S, s) == oracle


def test_restriction_full_subsemigroup(rb22):
    T = sk.SubsetHandle(rb22, (0, 1, 2, 3))
    assert greens_restriction_check(rb22, T).ok


def test_restriction_unit_group(t2):
    T = sk.SubsetHandle(t2, (0, 1))
    assert greens_restriction_check(t2, T).ok


def test_restriction_completely_simple_subsemigroups(rb22):
    for T in sk.enumerate_subsemigroups(rb22):
        assert greens_restriction_check(rb22, T).ok


def test_restriction_rejects_irregular(t2):
    # {0,1,2,3} is all of T2; element 1 is regular, but the submonoid {0,2}
    # is fine; use a handle that is not regular: none in T2 - construct a
    # semigroup with a non-regular element instead.
    S = sk.from_table(3, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])  # 2*2=1, 1 not regular
    T = sk.SubsetHandle(S, (0, 1, 2))
    with pytest.raises(ValueError, match="element 1 is not regular"):
        greens_restriction_check(S, T)


def test_stability(z3, l2, t2, pb, rb22):
    for S in (z3, l2, t2, pb, rb22):
        assert corpus_mod._check_stability(S) is None


def regularity_message_oracle(S, T):
    """The per-element loop: the message for the first non-regular element
    of the subsemigroup T, or None when T is regular."""
    sub, incl = sk.subsemigroup_table(S, T.members)
    for x in range(sub.order):
        if not sk.is_regular(sub, x):
            return f"element {incl(x)} is not regular inside the subsemigroup"
    return None


def test_restriction_regularity_matches_loop(census4):
    irregular = 0
    for S in census4:
        for T in sk.enumerate_subsemigroups(S):
            try:
                greens_restriction_check(S, T)
                message = None
            except ValueError as exc:
                message = str(exc)
            assert message == regularity_message_oracle(S, T), (S.name, T.members)
            irregular += message is not None
    assert irregular > 100, irregular


def stability_oracle(S, G):
    """The per-row loop: right side before left side for each s."""
    T = S.table
    right, left, witness = True, True, None
    for s in range(S.order):
        bad = (G.j_class[T[s, :]] == G.j_class[s]) & (G.r_class[T[s, :]] != G.r_class[s])
        if bad.any():
            right = False
            witness = witness or (s, int(np.flatnonzero(bad)[0]))
        bad = (G.j_class[T[:, s]] == G.j_class[s]) & (G.l_class[T[:, s]] != G.l_class[s])
        if bad.any():
            left = False
            witness = witness or (s, int(np.flatnonzero(bad)[0]))
    return (right, left, witness)


def stability_text(oracle):
    """The verify check's witness text for stability_oracle's verdict."""
    return None if oracle[2] is None else f"unstable witness {oracle[2]}"


def test_stability_matches_row_loop(monkeypatch, census4):
    # merging two L (or R) classes can only hide instability, so the broken
    # structures merge J classes or split L or R into singletons; the check's
    # witness, with its side order, must equal the per-row loop's, and the
    # broken structures must fail on each side alone and on both
    real = corpus_mod.greens_structure
    seen = set()
    for S in census4:
        G = real(S)
        assert stability_oracle(S, G) == (True, True, None)
        assert corpus_mod._check_stability(S) is None
        merged_j = np.where(G.j_class == 1, 0, G.j_class)
        singletons = np.arange(S.order)
        for broken in (
            dataclasses.replace(G, j_class=merged_j),
            dataclasses.replace(G, j_class=merged_j, r_class=singletons),
            dataclasses.replace(G, l_class=singletons),
            dataclasses.replace(G, r_class=singletons),
            dataclasses.replace(G, j_class=0 * singletons, l_class=singletons, r_class=singletons),
        ):
            monkeypatch.setattr(corpus_mod, "greens_structure", lambda X, S=S, b=broken: b if X is S else real(X))
            oracle = stability_oracle(S, broken)
            witness = corpus_mod._check_stability(S)
            assert witness == stability_text(oracle), (S.name, witness)
            seen.add(oracle[:2])
    assert seen == {(True, True), (False, True), (True, False), (False, False)}


def test_verify_reports_instability_with_the_oracle_witness(monkeypatch, t2):
    # under a Green structure with one J-class and singleton L- and R-classes,
    # verify_suite's stability entry fails with the per-row loop's witness
    real = corpus_mod.greens_structure
    singletons = np.arange(t2.order)
    broken = dataclasses.replace(real(t2), j_class=0 * singletons, l_class=singletons, r_class=singletons)
    monkeypatch.setattr(corpus_mod, "greens_structure", lambda X: broken if X is t2 else real(X))
    oracle = stability_oracle(t2, broken)
    assert oracle[2] is not None
    [entry] = [e for e in corpus_mod.verify_suite([("t2", t2)]).entries if e.check == "stability"]
    assert (entry.status, entry.witness) == ("fail", stability_text(oracle))
