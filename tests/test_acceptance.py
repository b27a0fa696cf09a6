"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from contextlib import contextmanager

import numpy as np

import semikit as sk
from semikit.corpus import (
    SUBSEMIGROUP_CHECK_LIMIT,
    _check_subsemigroup_classification,
    census,
    fingerprint,
    gen_random_rees,
    gen_transformation_closure,
    verify_suite,
)
from semikit.greens import greens_structure
from semikit.ideals import is_minimal_one_sided_ideal, kernel_members
from test_greens import principal_ideal_partition
from test_ideals import exhaustive_is_minimal


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def kernel_by_intersection(S):
    """Oracle: the kernel as the intersection of all principal two-sided
    ideals S^1 s S^1."""
    n = S.order
    members = set(range(n))
    for s in range(n):
        right = {s} | {S.product(s, x) for x in range(n)}
        members &= right | {S.product(x, y) for x in range(n) for y in right}
    return tuple(sorted(members))


def test_criterion_1_theorem_suite_exhaustive(census4):
    with criterion(1, "theorem suite over census order <= 4"):
        start = time.monotonic()
        report = verify_suite(census4)
        assert report.summary["fail"] == 0, report.failures[:3]
        assert time.monotonic() - start < 300


def test_criterion_2_paper_example_reproduction(pb):
    with criterion(2, "kernel of the rectangular-band example"):
        report = sk.kernel(pb)
        assert report.kernel.members == (0, 1)
        assert [h.members for h in report.min_right] == [(0,), (1,)]
        assert [h.members for h in report.min_left] == [(0, 1)]
        assert sk.idempotents(pb).members == (0, 1, 2, 3)


def test_criterion_3_rees_roundtrip():
    with criterion(3, "Rees round-trip on >= 100 random instances"):
        start = time.monotonic()
        groups = ("trivial", "z2", "z3", "z4", "z2xz2", "s3")
        count = 0
        for group in groups:
            for i_size in (1, 2, 3):
                for lam in (1, 2, 3):
                    for seed in (1, 2):
                        rms = gen_random_rees(i_size, lam, group, seed)
                        S = rms.realized
                        decs = [
                            sk.rees_decompose(S, e)
                            for e in sk.idempotents(S).members
                        ]
                        for dec in decs:
                            assert dec.phi.is_isomorphism
                            n = S.order
                            assert all(dec.phi(dec.psi(x)) == x for x in range(n))
                            assert all(dec.psi(dec.phi(x)) == x for x in range(n))
                        base = decs[0]
                        for other in decs[1:]:
                            # base-point independence via the composed isos
                            assert other.psi.compose(base.phi).is_isomorphism
                        count += 1
        assert count >= 100
        assert time.monotonic() - start < 60


def test_criterion_4_oracle_equivalence(oracle_instances):
    with criterion(4, "production methods equal exhaustive oracles"):
        for S in oracle_instances:
            j_oracle = principal_ideal_partition(S, "j")
            assert np.array_equal(greens_structure(S).d_class, j_oracle)
            assert kernel_members(S) == kernel_by_intersection(S)
            K = np.asarray(kernel_members(S))
            for e in K[S.table[K, K] == K]:  # idempotents of K
                se = np.unique(S.table[:, e])
                ses = np.unique(S.table[se, :])
                assert np.array_equal(ses, K)
                es = np.unique(S.table[e, :])
                for members, side in ((se, "left"), (es, "right")):
                    assert exhaustive_is_minimal(S, members, side)
                    assert is_minimal_one_sided_ideal(S, members, side)


def test_criterion_5_counting_bound(census4, rb22, z3):
    with criterion(5, "subsemigroup counting bound and classification"):
        instances = [S for S in census4 if sk.is_completely_simple(S)]
        instances.append(rb22)
        instances.append(sk.direct_product(z3, rb22))
        instances.append(gen_random_rees(2, 2, "z3", seed=4).realized)
        for S in instances:
            assert S.order <= 12
            # the check below passes larger semigroups unchecked
            assert S.order <= SUBSEMIGROUP_CHECK_LIMIT
            # the (J, W, Gamma) classification of every subsemigroup and the
            # counting bound, as replayed by the theorem suite
            assert _check_subsemigroup_classification(S) is None
            dec = sk.rees_decompose(S)
            subs = sk.enumerate_subsemigroups(S, cap=12)
            n_subgroups = len(sk.enumerate_subsemigroups(dec.rms.group, cap=12))
            bound = n_subgroups * 2**dec.rms.i_size * 2**dec.rms.lambda_size
            assert len(subs) <= bound


def test_criterion_6_census_regression(census4):
    with criterion(6, "census counts and fingerprint determinism"):
        counts = {}
        for S in census4:
            counts[S.order] = counts.get(S.order, 0) + 1
        # semigroups of order n up to isomorphism: OEIS A023814
        assert counts == {1: 1, 2: 5, 3: 24, 4: 188}
        assert fingerprint(census(3)) == fingerprint(census(3))


def test_criterion_7_scale_smoke():
    with criterion(7, "order >= 500 greens and kernel under 10 s"):
        S = gen_transformation_closure(6, 3, 0)
        assert S.order >= 500
        start = time.monotonic()
        G = greens_structure(S)
        K = kernel_members(S)
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"took {elapsed:.1f}s"
        # spot-check with the minimality-criterion oracle on 10 elements
        rng = np.random.default_rng(0)
        K_arr = np.asarray(K)
        for x in rng.choice(K_arr, size=10, replace=True):
            right = np.unique(np.append(S.table[x, :], x))
            two = np.unique(np.concatenate([right, S.table[:, right].ravel()]))
            assert np.array_equal(two, K_arr)
        sample = rng.integers(0, S.order, size=10)
        for a in sample:
            for b in sample:
                same_l = G.l_class[a] == G.l_class[b]
                la = np.unique(np.append(S.table[:, a], a))
                lb = np.unique(np.append(S.table[:, b], b))
                assert same_l == bool(np.array_equal(la, lb))
