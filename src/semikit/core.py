"""Cayley-table finite semigroups and element-level predicates.

Elements are dense indices 0..n-1; the product of a and b is ``table[a, b]``.
All structures are immutable after construction and every operation here is a
pure function of its inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    EmptyGenerators,
    NotAssociative,
    NotASubsemigroup,
    OutOfRange,
    Overflow,
)

DEFAULT_MAX_ORDER = 4096
# Above this order the O(n^3) direct check gives way to Light's test.
DIRECT_CHECK_LIMIT = 256
_ASSOC_BLOCK = 32


def max_order() -> int:
    """Configured order cap; SEMIKIT_MAX_ORDER overrides the default."""
    env = os.environ.get("SEMIKIT_MAX_ORDER")
    if not env:
        return DEFAULT_MAX_ORDER
    try:
        value = int(env)
    except ValueError:
        value = 0  # rejected below with every other non-positive value
    if value < 1:
        raise ValueError(f"SEMIKIT_MAX_ORDER must be a positive integer, got {env!r}")
    return value


def _check_order(n: int) -> int:
    """Refuse an order below 1 or above the cap; returns n.  Builders call
    it before allocating a table of that order."""
    if n < 1:
        raise ValueError("semigroup must have at least one element")
    if n > max_order():
        raise Overflow(f"order {n} exceeds configured maximum {max_order()}")
    return n


class FiniteSemigroup:
    """A finite semigroup given by its Cayley table.

    Construct through :func:`from_table` (or the generators in
    :mod:`semikit.corpus`); the constructor validates entry ranges and
    associativity unless told the table is already known associative.
    """

    __slots__ = ("order", "table", "name", "__dict__")

    def __init__(self, table, name: Optional[str] = None, validate: bool = True):
        arr = np.ascontiguousarray(table, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"table must be square, got shape {arr.shape}")
        n = _check_order(arr.shape[0])
        if validate:
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                bad = np.argwhere((arr < 0) | (arr >= n))[0]
                raise OutOfRange(
                    f"entry at ({bad[0]},{bad[1]}) = {arr[bad[0], bad[1]]} "
                    f"not in [0,{n})"
                )
            witness = associativity_witness(arr)
            if witness is not None:
                raise NotAssociative(witness)
        arr.setflags(write=False)
        self.order = n
        self.table = arr
        self.name = name

    def product(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteSemigroup)
            and self.order == other.order
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self) -> int:
        return hash((self.order, self.table.tobytes()))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<FiniteSemigroup{label} order={self.order}>"

    @cached_property
    def identity(self) -> Optional[int]:
        return is_monoid(self)


def associativity_witness(table: np.ndarray):
    """A triple (a,b,c) violating associativity, or None.

    Up to DIRECT_CHECK_LIMIT a direct blockwise O(n^3) scan returns the
    lexicographically first such triple.  Above it, Light's test on a greedy
    generating set returns a triple (a, g, b) whose middle element g is a
    generator.
    """
    n = table.shape[0]
    if n <= DIRECT_CHECK_LIMIT:
        for start in range(0, n, _ASSOC_BLOCK):
            rows = np.arange(start, min(start + _ASSOC_BLOCK, n))
            # left[a,b,c] = (a*b)*c ; right[a,b,c] = a*(b*c)
            left = table[table[rows]]
            right = table[rows][:, table.reshape(-1)].reshape(len(rows), n, n)
            if not np.array_equal(left, right):
                bad = np.argwhere(left != right)
                a, b, c = bad[np.lexsort((bad[:, 2], bad[:, 1], bad[:, 0]))][0]
                return (int(rows[a]), int(b), int(c))
        return None
    return _light_witness(table)


def _light_witness(table: np.ndarray):
    """Light's associativity test against a greedy generating set."""
    n = table.shape[0]
    for g in _generating_set(table):
        # left[a,b] = (a*g)*b ; right[a,b] = a*(g*b)
        left = table[table[:, g]]
        right = table[:, table[g]]
        if not np.array_equal(left, right):
            a, b = np.argwhere(left != right)[0]
            return (int(a), int(g), int(b))
    return None


def _closure_mask(table: np.ndarray, gens: Sequence[int], closed: Optional[np.ndarray] = None) -> np.ndarray:
    """Mask of the subsemigroup generated by gens and the product-closed mask
    ``closed`` if given: a worklist closure from the gens outside it."""
    mask = np.zeros(table.shape[0], dtype=bool) if closed is None else closed.copy()
    frontier = np.unique(np.asarray(list(gens), dtype=np.int64))
    frontier = frontier[~mask[frontier]]
    mask[frontier] = True
    while frontier.size:
        current = np.flatnonzero(mask)
        products = np.concatenate(
            [table[np.ix_(frontier, current)].ravel(), table[np.ix_(current, frontier)].ravel()]
        )
        new = np.unique(products)
        new = new[~mask[new]]
        mask[new] = True
        frontier = new
    return mask


def _generating_set(table: np.ndarray) -> list[int]:
    """Greedy generating set: scan ascending, add elements not yet generated."""
    n = table.shape[0]
    covered = np.zeros(n, dtype=bool)
    gens: list[int] = []
    for x in range(n):
        if not covered[x]:
            gens.append(x)
            covered = _closure_mask(table, [x], covered)
    return gens


@dataclass(frozen=True)
class SubsetHandle:
    """A subset of a semigroup's elements: the parent and its sorted
    distinct members, each checked to be an index of the parent.

    A handle claims nothing more.  Each function that takes one checks what
    it needs itself: closure (``subsemigroup_table``), absorption
    (``rees_quotient``, ``is_minimal_one_sided_ideal``), being an H-class
    (``h_class_is_group``) or membership (``swelling_check``).
    """

    parent: FiniteSemigroup
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted(set(int(m) for m in self.members)))
        object.__setattr__(self, "members", members)
        n = self.parent.order
        if members and (members[0] < 0 or members[-1] >= n):
            raise OutOfRange(f"members must lie in [0,{n})")

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __contains__(self, x) -> bool:
        return int(x) in self.member_set

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SemigroupMorphism:
    """An element map between two semigroups with verification flags."""

    source: FiniteSemigroup
    target: FiniteSemigroup
    map: tuple[int, ...]

    def __post_init__(self):
        m = tuple(int(x) for x in self.map)
        object.__setattr__(self, "map", m)
        if len(m) != self.source.order:
            raise ValueError("map length must equal source order")
        if m and (min(m) < 0 or max(m) >= self.target.order):
            raise OutOfRange("map entries must be valid target indices")

    @cached_property
    def is_homomorphism(self) -> bool:
        f = np.asarray(self.map, dtype=np.int64)
        return bool(np.array_equal(f[self.source.table], self.target.table[np.ix_(f, f)]))

    @cached_property
    def is_injective(self) -> bool:
        return len(set(self.map)) == self.source.order

    @cached_property
    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target.order

    @property
    def is_isomorphism(self) -> bool:
        return self.is_homomorphism and self.is_injective and self.is_surjective

    def __call__(self, x: int) -> int:
        return self.map[x]

    def compose(self, inner: "SemigroupMorphism") -> "SemigroupMorphism":
        """self after inner: inner.source -> self.target."""
        if inner.target is not self.source and inner.target != self.source:
            raise ValueError("composition mismatch")
        return SemigroupMorphism(
            inner.source, self.target, tuple(self.map[v] for v in inner.map)
        )

    def inverse(self) -> "SemigroupMorphism":
        if not self.is_isomorphism:
            raise ValueError("only isomorphisms invert")
        inv = [0] * self.target.order
        for a, b in enumerate(self.map):
            inv[b] = a
        return SemigroupMorphism(self.target, self.source, tuple(inv))


# ---------------------------------------------------------------------------
# construction operations


def from_table(n: int, entries, name: Optional[str] = None) -> FiniteSemigroup:
    """Validate an n x n Cayley table and wrap it as a FiniteSemigroup."""
    try:
        arr = np.asarray(entries, dtype=np.int64)
    except OverflowError:
        raise OutOfRange(f"table entries must lie in [0,{n})") from None
    if arr.shape != (n, n):
        raise ValueError(f"expected shape ({n},{n}), got {arr.shape}")
    return FiniteSemigroup(arr, name=name)


def identity_morphism(S: FiniteSemigroup) -> SemigroupMorphism:
    return SemigroupMorphism(S, S, tuple(range(S.order)))


def adjoin_identity(S: FiniteSemigroup):
    """Return (S^1, inclusion).  S is returned unchanged when already a monoid."""
    e = is_monoid(S)
    if e is not None:
        return S, identity_morphism(S)
    n = S.order
    table = np.empty((n + 1, n + 1), dtype=np.int64)
    table[:n, :n] = S.table
    table[n, : n + 1] = np.arange(n + 1)
    table[: n + 1, n] = np.arange(n + 1)
    monoid = FiniteSemigroup(table, name=f"{S.name}^1" if S.name else None)
    return monoid, SemigroupMorphism(S, monoid, tuple(range(n)))


def direct_product(A: FiniteSemigroup, B: FiniteSemigroup) -> FiniteSemigroup:
    """Componentwise product on pairs; (a,b) sits at index a*|B| + b."""
    na, nb = A.order, B.order
    _check_order(na * nb)
    a_part = A.table[:, None, :, None] * nb  # broadcast over (a, b, a', b')
    b_part = B.table[None, :, None, :]
    table = (a_part + b_part).reshape(na * nb, na * nb)
    name = f"{A.name}x{B.name}" if A.name and B.name else None
    return FiniteSemigroup(table, name=name, validate=False)


def closure(S: FiniteSemigroup, gens: Sequence[int]) -> SubsetHandle:
    """Smallest product-closed subset containing gens."""
    gens = list(gens)
    if not gens:
        raise EmptyGenerators("closure requires at least one generator")
    for g in gens:
        if not 0 <= int(g) < S.order:
            raise OutOfRange(f"generator {g} not in [0,{S.order})")
    return SubsetHandle(S, tuple(np.flatnonzero(_closure_mask(S.table, gens))))


# ---------------------------------------------------------------------------
# element-level predicates


def idempotents(S: FiniteSemigroup) -> SubsetHandle:
    """E(S) = {e : e*e = e}; nonempty for every finite semigroup."""
    diag = np.flatnonzero(S.table[np.arange(S.order), np.arange(S.order)] == np.arange(S.order))
    return SubsetHandle(S, tuple(diag))


class CancellativityResult(NamedTuple):
    left: bool
    right: bool
    witness: Optional[tuple[int, int, int]]


def is_cancellative(S: FiniteSemigroup) -> CancellativityResult:
    """Left/right cancellativity with a deterministic first witness.

    The witness triple is (a, b, c) with a < b; it means c*a = c*b when the
    left side fails, a*c = b*c when only the right side fails.
    """
    T = S.table
    n = S.order
    left = all(len(set(T[c])) == n for c in range(n))
    right = all(len(set(T[:, c])) == n for c in range(n))
    witness = None
    if not (left and right):
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(n):
                    if not left and T[c, a] == T[c, b]:
                        witness = (a, b, c)
                        break
                    if not right and T[a, c] == T[b, c]:
                        witness = (a, b, c)
                        break
                if witness:
                    break
            if witness:
                break
    return CancellativityResult(left, right, witness)


def is_monoid(S: FiniteSemigroup) -> Optional[int]:
    """Index of the two-sided identity, if any (it is unique)."""
    n = S.order
    idx = np.arange(n)
    for e in range(n):
        if np.array_equal(S.table[e], idx) and np.array_equal(S.table[:, e], idx):
            return e
    return None


def is_group(S: FiniteSemigroup) -> bool:
    e = S.identity
    if e is None:
        return False
    T = S.table
    return all((T[a] == e).any() and (T[:, a] == e).any() for a in range(S.order))


def center(S: FiniteSemigroup) -> SubsetHandle:
    """Z(S) = {x : xy = yx for all y}; may be empty."""
    commutes = np.flatnonzero((S.table == S.table.T).all(axis=1))
    return SubsetHandle(S, tuple(commutes))


def centralizer(S: FiniteSemigroup, a: int) -> SubsetHandle:
    """C(a) = {x : xa = ax}."""
    if not 0 <= a < S.order:
        raise OutOfRange(f"element {a} not in [0,{S.order})")
    members = np.flatnonzero(S.table[:, a] == S.table[a, :])
    return SubsetHandle(S, tuple(members))


class MonogenicResult(NamedTuple):
    subset: SubsetHandle
    index: int
    period: int
    idempotent: int


def monogenic(S: FiniteSemigroup, s: int) -> MonogenicResult:
    """<s> = {s, s^2, ...} with the (index, period) of its eventual cycle.

    The unique idempotent of <s> is s^k for the least multiple k of the
    period with k >= index.
    """
    if not 0 <= s < S.order:
        raise OutOfRange(f"element {s} not in [0,{S.order})")
    seen: dict[int, int] = {}
    powers = []
    x = s
    k = 1
    while x not in seen:
        seen[x] = k
        powers.append(x)
        x = S.product(x, s)
        k += 1
    index = seen[x]
    period = k - index
    k_idem = period * ((index + period - 1) // period)
    e = powers[k_idem - 1]
    handle = SubsetHandle(S, tuple(powers))
    return MonogenicResult(handle, index, period, e)


# ---------------------------------------------------------------------------
# re-tabling


def _positions(n: int, members: np.ndarray) -> np.ndarray:
    """pos[members[k]] = k, and -1 at every other index of [0, n)."""
    pos = np.full(n, -1, dtype=np.int64)
    pos[members] = np.arange(members.size)
    return pos


def subsemigroup_table(S: FiniteSemigroup, members: Sequence[int]):
    """Re-table a closed subset as its own semigroup.

    Returns (T, inclusion) where inclusion maps T's dense indices back to S.
    """
    mem = sorted(set(int(m) for m in members))
    if not mem:
        raise NotASubsemigroup("empty set cannot be re-tabled")
    if mem[0] < 0 or mem[-1] >= S.order:
        raise OutOfRange(f"members must lie in [0,{S.order})")
    idx = np.asarray(mem, dtype=np.int64)
    products = S.table[idx[:, None], idx]
    table = _positions(S.order, idx)[products]
    if table.min() < 0:
        i, j = np.argwhere(table < 0)[0]
        raise NotASubsemigroup(f"{mem[i]}*{mem[j]} = {products[i, j]} escapes the subset")
    sub = FiniteSemigroup(table, validate=False)
    return sub, SemigroupMorphism(sub, S, tuple(mem))


# ---------------------------------------------------------------------------
# .sg text format


def dumps_sg(S: FiniteSemigroup) -> str:
    """Cayley-table text: one '#' header, then n, then n rows of n entries."""
    header = S.name if S.name else f"semigroup of order {S.order}"
    lines = [f"# {header}", str(S.order)]
    lines.extend(" ".join(map(str, row)) for row in S.table.tolist())
    return "\n".join(lines) + "\n"


def _int_rows(lines: Sequence[str], width: int, what: str) -> list[list[int]]:
    """Parse text lines of exactly ``width`` whitespace-separated integers."""
    rows = []
    for i, line in enumerate(lines):
        row = [int(tok) for tok in line.split()]
        if len(row) != width:
            raise ValueError(f"{what} row {i} has {len(row)} entries, expected {width}")
        rows.append(row)
    return rows


def loads_sg(text: str, name: Optional[str] = None) -> FiniteSemigroup:
    rows = [line for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")]
    if not rows:
        raise ValueError("empty .sg document")
    n = int(rows[0].strip())
    if len(rows) != n + 1:
        raise ValueError(f"expected {n} table rows, found {len(rows) - 1}")
    return from_table(n, _int_rows(rows[1:], n, "table"), name=name)


def write_sg(S: FiniteSemigroup, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_sg(S))


def read_sg(path) -> FiniteSemigroup:
    with open(path) as fh:
        return loads_sg(fh.read(), name=os.path.splitext(os.path.basename(path))[0])
