"""Cayley-table finite semigroups and element-level predicates.

Elements are dense indices 0..n-1; the product of a and b is ``table[a, b]``.
All structures are immutable after construction and every operation here is a
pure function of its inputs.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    EmptyGenerators,
    NotAssociative,
    NotASubsemigroup,
    OutOfRange,
    Overflow,
)

DEFAULT_MAX_ORDER = 4096
# Above this order associativity is checked against a generating set only.
DIRECT_CHECK_LIMIT = 256
_BLOCK = 1 << 19  # entries gathered at once; bounds transient memory
# Bytes of maps a transformation closure may hold at the order cap, so its
# memory is bounded by degree too; its product blocks are a few times this.
_MAPS_BUDGET = 1 << 24


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


def _is_index_dtype(dtype) -> bool:
    """Not a float, which would truncate to an index, nor a Python int past
    int64, which arrives as uint64 (wrapping when cast) or object."""
    return dtype.kind in "iu" and dtype != np.uint64


def _indices(values, n: int, message: str) -> list[int]:
    """values as Python ints, each an integer in [0, n); OutOfRange with
    message otherwise.  A float is refused, not truncated."""
    arr = np.asarray(values)
    out = arr.tolist()
    if out and (not _is_index_dtype(arr.dtype) or min(out) < 0 or max(out) >= n):
        raise OutOfRange(message)
    return out


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
        arr = np.asarray(table)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"table must be square, got shape {arr.shape}")
        n = _check_order(arr.shape[0])
        if validate:
            if not _is_index_dtype(arr.dtype):
                raise OutOfRange(f"table entries must lie in [0,{n})")
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                bad = np.argwhere((arr < 0) | (arr >= n))[0]
                raise OutOfRange(
                    f"entry at ({bad[0]},{bad[1]}) = {arr[bad[0], bad[1]]} "
                    f"not in [0,{n})"
                )
            # in range, so a narrower copy is exact, and the test only gathers
            narrow = np.min_scalar_type(n - 1)
            witness = associativity_witness(arr if arr.itemsize <= narrow.itemsize else arr.astype(narrow))
            if witness is not None:
                raise NotAssociative(witness)
        arr = np.ascontiguousarray(arr, dtype=np.int64)
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


def _derived(compute: Callable) -> Callable:
    """Run compute(S) once per semigroup and keep its result, plain data with
    no reference back to S, in ``S.__dict__``; the table is read-only."""
    key = f"{compute.__module__}.{compute.__qualname__}"  # never an attribute name

    @wraps(compute)
    def once(S: FiniteSemigroup):
        if key not in S.__dict__:
            S.__dict__[key] = compute(S)
        return S.__dict__[key]

    return once


def associativity_witness(table: np.ndarray):
    """A triple (a, g, c) violating associativity, or None.

    Light's test: (a*g)*c == a*(g*c) for every a and c and every g in a
    generating set, blockwise over a.  Up to DIRECT_CHECK_LIMIT the set is
    every element, so the triple is the lexicographically first violation;
    above it the set is the greedy generating set (ascending), and the
    triple is the least (a, g, c) with g a generator.  The cost is
    O(n^2*|A|) for that set A.  The test only gathers, so any integer dtype
    holding the entries will do; a narrower one moves fewer bytes.
    """
    n = table.shape[0]
    gens = np.arange(n) if n <= DIRECT_CHECK_LIMIT else np.asarray(_generating_set(table))
    step = max(1, _BLOCK // (len(gens) * n))
    for start in range(0, n, step):
        rows = table[start : start + step]
        # left[a,g,c] = (a*g)*c ; right[a,g,c] = a*(g*c)
        left = table[rows[:, gens]]
        right = rows[:, table[gens].ravel()].reshape(left.shape)
        bad = left != right
        if bad.any():
            a, g, c = np.argwhere(bad)[0]  # row-major: the least triple first
            return (start + int(a), int(gens[g]), int(c))
    return None


def _cover(table: np.ndarray, gens, mask: np.ndarray, frontier) -> None:
    """Mark in mask everything reachable from frontier by right products
    with gens: a breadth-first search of the right Cayley graph, in which
    each newly covered element is multiplied by every generator once."""
    frontier = np.unique(np.asarray(frontier, dtype=np.int64))
    while frontier.size:
        frontier = frontier[~mask[frontier]]
        mask[frontier] = True
        frontier = np.unique(table[np.ix_(frontier, gens)])


def _generating_set(table: np.ndarray) -> list[int]:
    """Greedy generating set, ascending.  Candidates are tried by how often
    they occur in the table, fewest first, ties by index: elements outside
    S^2 (which every generating set holds) come first and products of many
    pairs last, so the set's size follows the semigroup, not its labelling.
    Adding x covers x and c*x for each covered c, then their right products
    by the generators so far: O(n*|A|) products for the final set A."""
    n = table.shape[0]
    step = max(1, _BLOCK // n)  # bincount widens each block to intp
    occurs = sum(np.bincount(table[s : s + step].ravel(), minlength=n) for s in range(0, n, step))
    covered = np.zeros(n, dtype=bool)
    gens: list[int] = []
    for x in np.argsort(occurs, kind="stable").tolist():
        if not covered[x]:
            gens.append(x)
            _cover(table, gens, covered, np.append(table[covered, x], x))
    return sorted(gens)


@dataclass(frozen=True)
class SubsetHandle:
    """A subset of a semigroup's elements: the parent and its sorted
    distinct members, each checked to be an index of the parent.

    A handle claims nothing more.  Each function that takes one checks what
    it needs itself: closure (``subsemigroup_table``), absorption
    (``rees_quotient``, ``is_minimal_one_sided_ideal``) or being an H-class
    (``h_class_is_group``).
    """

    parent: FiniteSemigroup
    members: tuple[int, ...]

    def __post_init__(self):
        n = self.parent.order
        members = _indices(self.members, n, f"members must lie in [0,{n})")
        object.__setattr__(self, "members", tuple(sorted(set(members))))

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
        m = _indices(self.map, self.target.order, "map entries must be valid target indices")
        object.__setattr__(self, "map", tuple(m))
        if len(m) != self.source.order:
            raise ValueError("map length must equal source order")

    @cached_property
    def is_homomorphism(self) -> bool:
        f = np.asarray(self.map, dtype=np.int64)
        return bool(np.array_equal(f[self.source.table], self.target.table[f[:, None], f]))

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
        return SemigroupMorphism(inner.source, self.target, np.take(self.map, inner.map))


# ---------------------------------------------------------------------------
# construction operations


def from_table(n: int, entries, name: Optional[str] = None) -> FiniteSemigroup:
    """Validate an n x n Cayley table and wrap it as a FiniteSemigroup."""
    arr = np.asarray(entries)
    if arr.shape != (n, n):
        raise ValueError(f"expected shape ({n},{n}), got {arr.shape}")
    return FiniteSemigroup(arr, name=name)


def adjoin_identity(S: FiniteSemigroup):
    """Return (S^1, inclusion).  S is returned unchanged when already a monoid."""
    if is_monoid(S) is not None:
        return S, SemigroupMorphism(S, S, tuple(range(S.order)))
    n = S.order
    table = np.empty((n + 1, n + 1), dtype=np.int64)
    table[:n, :n] = S.table
    table[n, : n + 1] = np.arange(n + 1)
    table[: n + 1, n] = np.arange(n + 1)
    name = f"{S.name}^1" if S.name else None
    monoid = FiniteSemigroup(table, name=name, validate=False)  # associative as S is
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
        _check_element(S, g)
    mask, gens = np.zeros(S.order, dtype=bool), np.asarray(gens, dtype=np.int64)
    _cover(S.table, gens, mask, gens)
    return SubsetHandle(S, tuple(np.flatnonzero(mask)))


# ---------------------------------------------------------------------------
# element-level predicates


def _check_element(S: FiniteSemigroup, x: int) -> None:
    """Refuse an element argument that is not an integer in [0, n): a float
    must not truncate, a bool must not pass as 0 or 1, -1 must not wrap to n-1."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise OutOfRange(f"element {x!r} is not an integer")
    if not 0 <= x < S.order:
        raise OutOfRange(f"element {x} not in [0,{S.order})")


def idempotents(S: FiniteSemigroup) -> SubsetHandle:
    """E(S) = {e : e*e = e}; nonempty for every finite semigroup."""
    return SubsetHandle(S, _idempotent_members(S))


@_derived
def _idempotent_members(S: FiniteSemigroup) -> tuple[int, ...]:
    return tuple(np.flatnonzero(S.table.diagonal() == np.arange(S.order)).tolist())


class CancellativityResult(NamedTuple):
    left: bool
    right: bool
    witness: Optional[tuple[int, int, int]]


def is_cancellative(S: FiniteSemigroup) -> CancellativityResult:
    """Left/right cancellativity with a deterministic first witness: the
    least (a, b, c), a < b, with c*a = c*b on a failing left side or a*c = b*c
    on a failing right side, which is the left side of the opposite table T.T."""
    left, right = _first_collision(S.table), _first_collision(S.table.T)
    found = [w for w in (left, right) if w is not None]
    return CancellativityResult(left is None, right is None, min(found, default=None))


def _first_collision(U: np.ndarray) -> Optional[tuple[int, int, int]]:
    """The least (a, b, c) with a < b and U[c, a] == U[c, b], or None."""
    n = len(U)
    a, step = n, max(1, _BLOCK // n)
    for start in range(0, n, step):
        block = U[start : start + step].astype(np.min_scalar_type(n - 1))  # radix-sorted
        order = block.argsort(axis=1, kind="stable")  # equal entries keep column order
        runs = np.sort(block, axis=1)
        a = min(a, int(order[:, :-1][runs[:, 1:] == runs[:, :-1]].min(initial=n)))
    if a == n:
        return None
    same = U[:, a + 1 :] == U[:, a, None]
    b = int(same.any(axis=0).argmax())
    return a, a + 1 + b, int(same[:, b].argmax())


@_derived
def is_monoid(S: FiniteSemigroup) -> Optional[int]:
    """Index of the two-sided identity, if any (it is unique)."""
    idx = np.arange(S.order)
    identity = (S.table == idx).all(axis=1) & (S.table.T == idx).all(axis=1)
    return int(identity.argmax()) if identity.any() else None


def is_group(S: FiniteSemigroup) -> bool:
    """A monoid in which every element has a right and a left inverse."""
    e = is_monoid(S)
    if e is None:
        return False
    hit = S.table == e
    return bool(hit.any(axis=1).all() and hit.any(axis=0).all())


def center(S: FiniteSemigroup) -> SubsetHandle:
    """Z(S) = {x : xy = yx for all y}; may be empty."""
    commutes = np.flatnonzero((S.table == S.table.T).all(axis=1))
    return SubsetHandle(S, tuple(commutes))


def centralizer(S: FiniteSemigroup, a: int) -> SubsetHandle:
    """C(a) = {x : xa = ax}."""
    _check_element(S, a)
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
    _check_element(S, s)
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


def _cyclic_rows(S: FiniteSemigroup) -> np.ndarray:
    """n×n bool, row s the membership row of <s>: p[s] = s^k for every s at
    once, one gather per power, until every power has repeated."""
    s = np.arange(S.order)
    rows, p = np.zeros((S.order, S.order), dtype=bool), s
    while not rows[s, p].all():
        rows[s, p] = True
        p = S.table[p, s]
    return rows


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
    mem = sorted(set(_indices(members, S.order, f"members must lie in [0,{S.order})")))
    if not mem:
        raise NotASubsemigroup("empty set cannot be re-tabled")
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


@lru_cache(maxsize=16)
def _decimal_labels(n: int, sep: str) -> np.ndarray:
    """ASCII bytes of each x in range(n), null-padded to one width, then sep; read-only, as it is shared."""
    labels = np.array([str(x).ljust(len(str(n - 1)), "\0") + sep for x in range(n)], dtype=bytes)
    labels.flags.writeable = False
    return labels


def _table_text(rows: np.ndarray, n: int, sep: str, end: str):
    """Rows of entries in range(n) as text, at most _BLOCK cells at a time: each
    entry's decimal label, then sep, or end (both one ASCII character) in a row's last column."""
    labels, step = _decimal_labels(n, sep), max(1, _BLOCK // rows.shape[1])
    for a in range(0, len(rows), step):
        cells = labels.take(rows[a : a + step])
        cells.view(np.uint8)[:, -1] = ord(end)  # each row's last byte is its last label's sep
        yield cells.tobytes().translate(None, b"\0").decode("ascii")


def _sg_text(S: FiniteSemigroup):
    """.sg text in row slices; each line boundary str.splitlines finds in the
    name is a space, a trailing one too, as a "\\0" sentinel keeps it."""
    header = S.name if S.name else f"semigroup of order {S.order}"
    yield "# " + " ".join((header + "\0").splitlines())[:-1] + f"\n{S.order}\n"
    yield from _table_text(S.table, S.order, " ", "\n")


def dumps_sg(S: FiniteSemigroup) -> str:
    """Cayley-table text: one '#' header, then n, then n rows of n entries."""
    return "".join(_sg_text(S))


def _int_rows(lines: Sequence[str], width: int, what: str):
    """Parse text lines of exactly ``width`` whitespace-separated integers.
    On ASCII, np.loadtxt accepts a subset of what int() does, with the same
    values (elsewhere it reads letters as digits, and U+10FFFF crashes it),
    here in the narrowest signed dtype holding every index below the cap;
    the rest is reparsed by int(), line by line, for the same result or error."""
    if lines and all(line.isascii() for line in lines):
        try:
            # comments=None: int() refuses a trailing '# ...', so must this; numpy 1.23+
            # casts a token its dtype refuses through a float unless that warning is an error
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(lines, dtype=np.min_scalar_type(-max_order()), ndmin=2, comments=None)
        except ValueError:
            pass
        else:
            if rows.shape == (len(lines), width):
                return rows
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
    _check_order(n)  # before parsing n*n entries
    return from_table(n, _int_rows(rows[1:], n, "table"), name=name)


def write_sg(S: FiniteSemigroup, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_sg_text(S))


def read_sg(path) -> FiniteSemigroup:
    with open(path) as fh:
        return loads_sg(fh.read(), name=os.path.splitext(os.path.basename(path))[0])
