"""Kernels, minimal one-sided ideals, the idempotent poset, Rees quotients,
and the Swelling-Lemma check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    _BLOCK,
    FiniteSemigroup,
    SemigroupMorphism,
    SubsetHandle,
    _check_element,
    _derived,
    idempotents,
)
from .errors import (
    ElementNotInSubset,
    NotAnIdeal,
    NotIdempotent,
    SearchCapExceeded,
)
from .greens import _ideal_rows, _two_sided_rows


def _is_ideal(rows: np.ndarray, members) -> bool:
    """Nonempty and holding the row of each member: a left ideal over the
    left rows of _ideal_rows, a right ideal over the right ones."""
    mem = np.asarray(members, dtype=np.int64)
    inside = np.zeros(len(rows), dtype=bool)
    inside[mem] = True
    return bool(mem.size) and not rows[mem][:, ~inside].any()


def _is_two_sided_ideal(S: FiniteSemigroup, members) -> bool:
    return all(_is_ideal(rows, members) for rows in _ideal_rows(S))


def is_minimal_one_sided_ideal(S: FiniteSemigroup, members: Sequence[int], side: str) -> bool:
    """Decide minimality of a one-sided ideal: the left ideal L is minimal
    iff S^1 x = L for every x in L (dually for right ideals)."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    left, right = _ideal_rows(S)
    rows = left if side == "left" else right
    mem = list(SubsetHandle(S, tuple(members)).members)  # sorted, distinct, range-checked
    if not _is_ideal(rows, mem):
        raise NotAnIdeal(f"{mem} is not a {side} ideal")
    return bool(rows[np.ix_(mem, mem)].all())  # each S^1 x lies in L, so holds L


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
    finite semigroup; the verify harness checks that they do.  K = SeS is
    read as e in K, which relies on K being the least ideal; the check
    kernel_unique_minimal replays that."""
    _check_element(S, e)
    if S.product(e, e) != e:
        raise NotIdempotent(f"{e} is not idempotent")
    return MinimalIdealVerdict(*_minimal_ideal_table(S, [e])[2][0].tolist())


def _minimal_ideal_table(S: FiniteSemigroup, E) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the idempotents E: the membership rows of Se and eS, and the
    len(E)×4 bool table of minimal_ideal_equivalences at each e, every
    statement decided on its own from the kept principal-ideal pair in one
    pass over E.  SeS = S^1 e S^1 (as e = eee) is an ideal holding e, so it
    is K, the least ideal, exactly when e lies in K: statement 4 relies on
    K being least, which the check kernel_unique_minimal replays."""
    E = np.asarray(E, dtype=np.int64)
    left, right = _ideal_rows(S)  # row x: S^1 x, x S^1
    se, es = left[E], right[E]
    back_l, back_r = left[:, E].T, right[:, E].T  # [i, x]: e_i in S^1 x, in x S^1
    table = np.stack((
        # S^1 x lies in Se for x in Se, so Se is minimal iff each such S^1 x holds e
        ~(se & ~back_l).any(axis=1),
        # eSe = eS ∩ Se is a group iff e is in uS^1 and S^1 u for each u in it:
        # from e = ut, u·ete = e with ete in eSe (a left inverse dually)
        ~(se & es & ~(back_l & back_r)).any(axis=1),
        ~(es & ~back_r).any(axis=1),
        np.isin(E, kernel_members(S)),
    ), axis=1)
    return se, es, table


@_derived
def kernel_members(S: FiniteSemigroup) -> tuple[int, ...]:
    """The unique minimal ideal K = S^1 z S^1, once per semigroup: z, the
    product of all elements, lies in every principal ideal, hence in K."""
    T, z = S.table, 0
    for x in range(1, S.order):
        z = T[z, x]
    return tuple(np.flatnonzero(_two_sided_rows(_ideal_rows(S), [z])[0]).tolist())


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
    K = np.asarray(kernel_members(S), dtype=np.int64)
    ek = K[S.table[K, K] == K]
    se, es, table = _minimal_ideal_table(S, ek)
    witnesses = dict(zip(ek.tolist(), (MinimalIdealVerdict(*row) for row in table.tolist())))
    min_left, min_right = (tuple(SubsetHandle(S, m) for m in _distinct_members(rows)) for rows in (se, es))
    return KernelReport(SubsetHandle(S, tuple(K.tolist())), tuple(ek.tolist()), witnesses, min_left, min_right)


def _distinct_members(rows: np.ndarray) -> list[tuple[int, ...]]:
    """The distinct rows of a bool membership array as sorted member tuples."""
    keys = np.packbits(rows, axis=1)
    first = np.unique(keys.view(f"V{keys.shape[1]}").ravel(), return_index=True)[1]
    return sorted(tuple(np.flatnonzero(row).tolist()) for row in rows[first])


def enumerate_ideals(S: FiniteSemigroup) -> list[tuple[int, ...]]:
    """All nonempty two-sided ideals in ascending bitmask order: the subsets
    A that hold aS ∪ Sa for every a in A.  One row per subset, so refused
    above _BLOCK rows, from order 20."""
    n = S.order
    if 1 << n > _BLOCK:
        raise SearchCapExceeded(f"ideal enumeration at order {n} walks 2^{n} subsets, above {_BLOCK}")
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
    ef = S.table[np.ix_(E, E)]  # [i, j]: e_i e_j, so ef.T[i, j] is e_j e_i
    leq = (ef == ef.T) & (ef == np.asarray(E)[:, None])
    primitives = tuple(np.asarray(E)[~(leq & ~np.eye(len(E), dtype=bool)).any(axis=0)].tolist())
    return IdempotentPoset(S, E, leq, primitives)


def rees_quotient(S: FiniteSemigroup, I: SubsetHandle):
    """Collapse the two-sided ideal I to a zero at index 0.

    Surviving elements keep their relative order at indices 1..|S|-|I|.
    Returns (quotient, projection).  Nothing is re-verified here: S/I is a
    semigroup and the projection a homomorphism whenever I is an ideal,
    which is the one condition checked.
    """
    T = S.table
    if not _is_two_sided_ideal(S, I.members):
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
