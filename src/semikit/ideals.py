"""Kernels, minimal one-sided ideals, the idempotent poset, Rees quotients,
and the Swelling-Lemma check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    FiniteSemigroup,
    SemigroupMorphism,
    SubsetHandle,
    _derived,
    idempotents,
    is_group,
    subsemigroup_table,
)
from .errors import (
    ElementNotInSubset,
    NotAnIdeal,
    NotIdempotent,
    SearchCapExceeded,
)
from .greens import _right_ideal_members, _two_sided_ideal_members

# Full ideal enumeration walks 2^n subsets.
IDEAL_ENUM_LIMIT = 6


def _is_right_ideal(T: np.ndarray, members) -> bool:
    """Nonempty and closed under multiplication on the right; over T.T,
    closed on the left (a left ideal)."""
    mem = np.asarray(members, dtype=np.int64)
    inside = np.zeros(T.shape[0], dtype=bool)
    inside[mem] = True
    return bool(mem.size and inside[T[mem, :]].all())


def _is_two_sided_ideal(T: np.ndarray, members) -> bool:
    return _is_right_ideal(T.T, members) and _is_right_ideal(T, members)


def is_minimal_one_sided_ideal(S: FiniteSemigroup, members: Sequence[int], side: str) -> bool:
    """Decide minimality of a one-sided ideal: the left ideal L is minimal
    iff S^1 x = L for every x in L (dually for right ideals)."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    U = S.table.T if side == "left" else S.table  # left ideals are right ideals of U
    mem = sorted(set(int(m) for m in members))
    if not _is_right_ideal(U, mem):
        raise NotAnIdeal(f"{mem} is not a {side} ideal")
    return all(np.array_equal(_right_ideal_members(U, x), mem) for x in mem)


class MinimalIdealVerdict(NamedTuple):
    """The four equivalent statements of the minimal-ideal proposition at e."""

    se_minimal_left: bool
    ese_group: bool
    es_minimal_right: bool
    kernel_is_ses: bool

    @property
    def verdict(self) -> bool:
        return self.se_minimal_left


def minimal_ideal_equivalences(S: FiniteSemigroup, e: int) -> MinimalIdealVerdict:
    """Evaluate, independently, the four statements (Se minimal left ideal;
    eSe a group; eS minimal right ideal; K = SeS).  They agree on every
    finite semigroup; the verify harness checks that they do."""
    T = S.table
    if S.product(e, e) != e:
        raise NotIdempotent(f"{e} is not idempotent")
    se = _right_ideal_members(T.T, e)  # Se = S^1 e, as e = ee
    es = _right_ideal_members(T, e)
    ese = np.unique(T[T[e, :], e])
    ses = np.unique(T[se, :].ravel())

    p1 = is_minimal_one_sided_ideal(S, se, "left")
    sub, _ = subsemigroup_table(S, ese)
    p2 = is_group(sub)
    p3 = is_minimal_one_sided_ideal(S, es, "right")
    K = kernel_members(S)
    p4 = np.array_equal(np.asarray(K, dtype=np.int64), ses)
    return MinimalIdealVerdict(p1, p2, p3, p4)


@_derived
def kernel_members(S: FiniteSemigroup) -> tuple[int, ...]:
    """The unique minimal ideal K = S^1 z S^1, once per semigroup: z, the
    product of all elements, lies in every principal ideal, hence in K."""
    T = S.table
    z = 0
    for x in range(1, S.order):
        z = T[z, x]
    return tuple(int(x) for x in _two_sided_ideal_members(T, z))


@dataclass(frozen=True)
class KernelReport:
    kernel: SubsetHandle
    idempotents: tuple[int, ...]
    witnesses: dict  # e in E(K) -> MinimalIdealVerdict
    min_left: tuple[SubsetHandle, ...]
    min_right: tuple[SubsetHandle, ...]

    def to_dict(self) -> dict:
        return {
            "kernel": list(self.kernel.members),
            "kernel_idempotents": list(self.idempotents),
            "min_left": [list(h.members) for h in self.min_left],
            "min_right": [list(h.members) for h in self.min_right],
            "verdicts": {
                str(e): list(v) for e, v in sorted(self.witnesses.items())
            },
        }


def kernel(S: FiniteSemigroup) -> KernelReport:
    """Kernel K with its idempotents and the minimal one-sided ideals
    Se / eS for e in E(K)."""
    T = S.table
    members = kernel_members(S)
    handle = SubsetHandle(S, members)
    ek = tuple(int(e) for e in members if S.product(e, e) == e)

    witnesses = {}
    left_sets: dict[tuple[int, ...], SubsetHandle] = {}
    right_sets: dict[tuple[int, ...], SubsetHandle] = {}
    for e in ek:
        witnesses[e] = minimal_ideal_equivalences(S, e)
        se = tuple(_right_ideal_members(T.T, e).tolist())
        es = tuple(_right_ideal_members(T, e).tolist())
        left_sets.setdefault(se, SubsetHandle(S, se))
        right_sets.setdefault(es, SubsetHandle(S, es))

    min_left = tuple(left_sets[k] for k in sorted(left_sets))
    min_right = tuple(right_sets[k] for k in sorted(right_sets))
    return KernelReport(handle, ek, witnesses, min_left, min_right)


def enumerate_ideals(S: FiniteSemigroup) -> list[tuple[int, ...]]:
    """All nonempty two-sided ideals in ascending bitmask order: the subsets
    A that hold aS ∪ Sa for every a in A (order-capped)."""
    n = S.order
    if n > IDEAL_ENUM_LIMIT:
        raise SearchCapExceeded(
            f"ideal enumeration capped at order {IDEAL_ENUM_LIMIT} (2^n subsets)"
        )
    bit = np.int64(1) << np.arange(n)
    reach = np.bitwise_or.reduce(bit[S.table] | bit[S.table.T], axis=1)  # aS ∪ Sa
    subsets = np.arange(1, 1 << n)
    ideals = subsets[_subset_unions(reach) & ~subsets == 0]
    return [tuple(x for x in range(n) if bits >> x & 1) for bits in ideals.tolist()]


def _subset_unions(values: np.ndarray) -> np.ndarray:
    """out[A - 1]: the OR of values[x] over the members x of A, for every
    nonempty subset A of range(len(values)) as a bitmask, ascending."""
    out = np.zeros((1,) + values.shape[1:], dtype=values.dtype)
    for v in values:  # the subsets holding x follow those below x, in order
        out = np.concatenate((out, out | v))
    return out[1:]


@dataclass(frozen=True)
class IdempotentPoset:
    """The natural partial order e <= f iff ef = fe = e on E(S)."""

    parent: FiniteSemigroup
    elements: tuple[int, ...]
    leq: np.ndarray  # k x k bool, leq[i, j] <=> elements[i] <= elements[j]
    primitives: tuple[int, ...]


def idempotent_poset(S: FiniteSemigroup) -> IdempotentPoset:
    E = idempotents(S).members
    k = len(E)
    leq = np.zeros((k, k), dtype=bool)
    for i, e in enumerate(E):
        for j, f in enumerate(E):
            leq[i, j] = S.product(e, f) == e and S.product(f, e) == e
    primitives = tuple(
        E[i] for i in range(k) if all(not leq[j, i] or j == i for j in range(k))
    )
    return IdempotentPoset(S, E, leq, primitives)


def rees_quotient(S: FiniteSemigroup, I: SubsetHandle):
    """Collapse the two-sided ideal I to a zero at index 0.

    Surviving elements keep their relative order at indices 1..|S|-|I|.
    Returns (quotient, projection).  Nothing is re-verified here: S/I is a
    semigroup and the projection a homomorphism whenever I is an ideal,
    which is the one condition checked.
    """
    T = S.table
    if not _is_two_sided_ideal(T, I.members):
        raise NotAnIdeal(f"{list(I.members)} is not a two-sided ideal")
    survivors = np.setdiff1d(np.arange(S.order), I.members)
    proj = np.zeros(S.order, dtype=np.int64)
    proj[survivors] = np.arange(1, survivors.size + 1)
    m = survivors.size + 1
    table = np.zeros((m, m), dtype=np.int64)
    table[1:, 1:] = proj[T[survivors[:, None], survivors]]
    quotient = FiniteSemigroup(table, name=f"{S.name}/I" if S.name else None, validate=False)
    return quotient, SemigroupMorphism(S, quotient, tuple(proj))


class SwellingVerdict(NamedTuple):
    hypothesis_held: bool  # A subset of tA
    equal: Optional[bool]  # A == tA, only evaluated when the hypothesis held


def swelling_check(S: FiniteSemigroup, A: SubsetHandle, t: int) -> SwellingVerdict:
    """The Swelling Lemma at t in A: if A is a subset of tA then A = tA.
    It holds on every finite semigroup (|tA| <= |A|); the verify harness
    records a (True, False) verdict as a failure."""
    if t not in A:
        raise ElementNotInSubset(f"t={t} not in A")
    mem = np.asarray(A.members, dtype=np.int64)
    tA = set(int(x) for x in np.unique(S.table[t, mem]))
    if not A.member_set <= tA:
        return SwellingVerdict(False, None)
    return SwellingVerdict(True, tA == A.member_set)


def _swelling_verdicts(S: FiniteSemigroup) -> tuple[np.ndarray, np.ndarray]:
    """swelling_check at every nonempty subset A, a bitmask in ascending
    order, and every t: held[A - 1, t] (A lies in tA) and equal[A - 1, t]
    (A = tA), both False where t is not in A."""
    n = S.order
    bit = np.int64(1) << np.arange(n)
    t_a = _subset_unions(bit[S.table.T])  # [A - 1, t]: tA
    subsets = np.arange(1, 1 << n)[:, None]
    held = (subsets >> np.arange(n) & 1 == 1) & (subsets & ~t_a == 0)
    return held, held & (t_a == subsets)
