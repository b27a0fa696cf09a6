"""Fixture generators, the small-order census up to isomorphism, and the
verification harness that replays the structure theorems over every
generated instance."""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as quote
from typing import Callable, Iterable, Optional

import numpy as np

from .core import (
    _BLOCK,
    _MAPS_BUDGET,
    FiniteSemigroup,
    _check_order,
    _cyclic_rows,
    _idempotent_members,
    _permutation_rows,
    _table_text,
    direct_product,
    from_table,
    is_group,
    is_monoid,
)
from .errors import (
    CensusLimitExceeded,
    Overflow,
    SemigroupError,
    UnknownGenerator,
)
from .greens import (
    _first_restriction_violation,
    _ideal_rows,
    _labels,
    greens_structure,
)
from .ideals import (
    _distinct_rows,
    _is_ideal,
    _kernel_row,
    _minimal_ideal_table,
    _swelling_verdicts,
    kernel,
    kernel_members,
)
from .simple import (
    _group_inverses,
    _product_rows,
    _rees_coordinates,
    _rees_table,
    _subsemigroup_masks,
    is_completely_simple,
    rees_construct,
    ReesMatrixSemigroup,
)

CENSUS_LIMIT = 5
RNG_ALGORITHM = "splitmix64"
# The checks that walk every subsemigroup, or every nonempty subset as the
# Swelling Lemma does, skip larger semigroups.  The walk costs per
# subsemigroup, and a left-zero band of order n has 2^n - 1 of them:
# verify_suite takes about 2.5 s on L12, 12 s on L14 and 61 s on L16.
SUBSEMIGROUP_CHECK_LIMIT = 12
SKIP = object()  # what a check returns when it checked nothing


class SplitMix64:
    """Deterministic 64-bit stream; identical across platforms."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        # rejection sampling keeps the draw unbiased
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound


# ---------------------------------------------------------------------------
# standard fixtures


def _cyclic(k: int) -> FiniteSemigroup:
    _check_order(k)
    table = np.add.outer(np.arange(k), np.arange(k))
    np.remainder(table, k, out=table)  # in place: one n×n array, not two
    return FiniteSemigroup(table, name=f"Z{k}", validate=False)


def _sym3() -> FiniteSemigroup:
    perms = sorted(itertools.permutations(range(3)))
    pos = {p: i for i, p in enumerate(perms)}
    table = [
        [pos[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms
    ]
    return from_table(6, table, name="S3")


def _left_zero(k: int) -> FiniteSemigroup:
    _check_order(k)
    table = np.repeat(np.arange(k)[:, None], k, axis=1)
    return FiniteSemigroup(table, name=f"LZ{k}", validate=False)


def _right_zero(k: int) -> FiniteSemigroup:
    _check_order(k)
    table = np.repeat(np.arange(k)[None, :], k, axis=0)
    return FiniteSemigroup(table, name=f"RZ{k}", validate=False)


def _rect_band(a: int, b: int) -> FiniteSemigroup:
    # element (i, lam) at index i*b + lam; (i,lam)(j,mu) = (i,mu)
    if a < 1 or b < 1:
        raise ValueError(f"rectangular band sizes must be positive, got {a} and {b}")
    n = _check_order(a * b)
    idx = np.arange(n)
    i_part = (idx // b)[:, None]
    mu_part = (idx % b)[None, :]
    return FiniteSemigroup(i_part * b + mu_part, name=f"RB{a}{b}", validate=False)


def _t2() -> FiniteSemigroup:
    return from_table(
        4, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 2, 2, 2], [3, 3, 3, 3]], name="T2"
    )


def _paper_band() -> FiniteSemigroup:
    # the semilattice ({0,1}, *) times the left-zero band on {x,y}:
    # (a,b)*(c,d) = (a*c, b), with (a,b) at index 2a+b (b = 0 for x, 1 for y)
    table = [[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 2, 2], [1, 1, 3, 3]]
    return from_table(4, table, name="PB")


_GENERATORS: dict[str, Callable[..., FiniteSemigroup]] = {
    "trivial": lambda: _cyclic(1),
    "cyclic": _cyclic,
    "sym3": _sym3,
    "left_zero": _left_zero,
    "right_zero": _right_zero,
    "rect_band": _rect_band,
    "t2": _t2,
    "paper_band": _paper_band,
}


def gen_standard(name: str, *params: int) -> FiniteSemigroup:
    if name not in _GENERATORS:
        raise UnknownGenerator(f"unknown generator {name!r}")
    try:
        return _GENERATORS[name](*params)
    except TypeError as exc:
        raise UnknownGenerator(f"bad parameters for {name!r}: {exc}") from exc


_GROUPS: dict[str, Callable[[], FiniteSemigroup]] = {
    "trivial": lambda: _cyclic(1),
    "z2": lambda: _cyclic(2),
    "z3": lambda: _cyclic(3),
    "z4": lambda: _cyclic(4),
    "z5": lambda: _cyclic(5),
    "z6": lambda: _cyclic(6),
    "z2xz2": lambda: direct_product(_cyclic(2), _cyclic(2)),
    "s3": _sym3,
}


def resolve_group(name: str) -> FiniteSemigroup:
    key = name.lower()
    if key in _GROUPS:
        return _GROUPS[key]()
    raise UnknownGenerator(f"unknown group {name!r}")


def gen_random_rees(
    i_size: int, lambda_size: int, group, seed: int
) -> ReesMatrixSemigroup:
    """Seeded random sandwich matrix over the given group (name or table)."""
    if isinstance(group, str):
        group = resolve_group(group)
    rng = SplitMix64(seed)
    sandwich = [
        [rng.below(group.order) for _ in range(i_size)] for _ in range(lambda_size)
    ]
    return rees_construct(i_size, lambda_size, group, sandwich)


def gen_transformation_closure(degree: int, n_maps: int, seed: int) -> FiniteSemigroup:
    """Close seeded random self-maps of [0, degree) under composition.

    The product of maps f and g is x -> f[g[x]].  The elements are found
    by a breadth-first search of the right Cayley graph over the distinct
    generators (Froidure and Pin): blocks of maps f, in order of discovery,
    times every generator a; the ids of the products f∘a, looked up in one
    dict of row bytes kept for the whole search, are the graph's edges.  Each
    element c past the generators is first found as p∘a for an earlier p,
    so y∘c = (y∘p)∘a fills its column of the table from p's.

    Elements are numbered as the whole-table closure numbers them: the
    distinct generators, then round by round, for each map f found in the
    previous round, f∘g over every map g known at the start of the round,
    then g∘f.  Those rounds are replayed on ids read from the table.
    Overflow comes once more than ``max_order()`` maps are found, and before
    anything is generated when ``max_order()`` maps of this degree would
    outgrow ``_MAPS_BUDGET`` bytes.
    """
    from .core import max_order  # census() has a parameter of that name

    if degree < 1 or n_maps < 1:
        raise ValueError(f"transformation degree {degree} and map count {n_maps} must be positive")
    cap = max_order()
    dtype = np.min_scalar_type(degree - 1)
    if cap * degree * dtype.itemsize > _MAPS_BUDGET:
        raise Overflow(f"{cap} maps of degree {degree} exceed the closure's map budget")
    rng = SplitMix64(seed)
    maps, seen = np.empty((cap, degree), dtype=dtype), {}  # the known maps; their ids by row bytes

    def grow(rows: np.ndarray):
        """Number rows through seen and append the new ones to maps, in order
        of first occurrence; return each row's id and the positions of the
        rows appended."""
        k = len(seen)
        ids = _labels(rows, seen)
        if len(seen) > cap:
            raise Overflow(f"transformation closure exceeds max order {cap}")
        labels, first = np.unique(ids, return_index=True)
        new = first[labels >= k]
        maps[k : len(seen)] = rows[new]
        return ids, new

    grow(np.array([[rng.below(degree) for _ in range(degree)] for _ in range(n_maps)], dtype))
    gens, k = maps[: len(seen)], len(seen)
    # breadth-first search of the right Cayley graph, a block of maps at a
    # time: right[x * k + a] is the id of x∘a, and the element c past the
    # generators is first found as right[edge[c - k]]
    right, edge, x = [], [], 0
    step = max(1, _BLOCK // (k * degree))
    while x < len(seen):
        f = maps[x : min(x + step, len(seen))]
        ids, new = grow(f[:, gens].reshape(-1, degree))
        right.append(ids)
        edge.append(x * k + new)
        x += len(f)
    n, id_type = len(seen), np.min_scalar_type(len(seen) - 1)
    right, edge = np.concatenate(right).astype(id_type), np.concatenate(edge)
    # cols[c, y] = y∘c: for c = p∘a, y∘c = (y∘p)∘a, so row c is read off row
    # p; edge grows with c, so the rows [c, d) with edges below c * k read
    # only rows below c
    cols = np.empty((n, n), dtype=id_type)
    cols[:k] = right.reshape(n, k).T
    c, step = k, max(1, _BLOCK // n)
    while c < n:
        d = min(c + step, k + np.searchsorted(edge, c * k))
        p, a = np.divmod(edge[c - k : d - k], k)
        cols[c:d] = right[cols[p].astype(np.intp) * k + a[:, None]]
        c = d
    # replay the rounds on ids: found[i] is the element numbered i, and
    # found[:hi] the snapshot of the round whose frontier map a is next
    found, unseen = np.arange(n), np.arange(n) >= k
    count, a, hi = k, 0, 0
    while count < n:
        if a == hi:
            hi = count
        f, known = found[a : min(a + max(1, _BLOCK // (2 * hi)), hi)], found[:hi]
        # per frontier map: f∘g over the snapshot, then g∘f
        ids = np.empty((len(f), 2, hi), dtype=id_type)
        ids[:, 0] = cols[np.ix_(known, f)].T
        ids[:, 1] = cols[f][:, known]
        new, first = np.unique(ids[np.take(unseen, ids)], return_index=True)
        new = new[np.argsort(first)]
        unseen[new] = False
        found[count : count + len(new)] = new
        count, a = count + len(new), a + len(f)
    # out[i, j] = label[cols[found[j], found[i]]], a block of columns at a time
    label = np.argsort(found).astype(id_type)
    out = np.empty((n, n), dtype=np.int64)
    step = max(1, _BLOCK // n)
    for j in range(0, n, step):
        out[:, j : j + step] = np.take(label, cols[found[j : j + step]][:, found].T)
    return FiniteSemigroup(out, name=f"T({degree},{n_maps},{seed})", validate=False)


# ---------------------------------------------------------------------------
# census up to isomorphism


def _relabel(flat: np.ndarray, perms: np.ndarray, width: Optional[int] = None) -> np.ndarray:
    """out[t, p]: row-major table flat[t] with each x renamed perms[p, x],
    cut to ``width`` cells; an unknown entry (-1) reads as n, above all."""
    m, n = perms.shape
    inv = np.argsort(perms, axis=1)
    src = (inv[:, :, None] * n + inv[:, None, :]).reshape(m, n * n)[:, :width]
    lut = np.concatenate((perms, np.full((m, 1), n, perms.dtype)), axis=1)
    return lut[np.arange(m)[:, None], flat[:, src]]


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each row of a is lexicographically below the matching row of b."""
    b = np.broadcast_to(b, a.shape)
    first = (a != b).argmax(axis=-1)[..., None]  # 0 when equal: not below
    return np.take_along_axis(a, first, -1)[..., 0] < np.take_along_axis(b, first, -1)[..., 0]


def _undercut(rows: np.ndarray, ref: np.ndarray, perms: np.ndarray, width: int) -> np.ndarray:
    """Mask of the rows that some relabelling in perms takes below the
    first ``width`` cells of the matching row of ref."""
    out = np.empty(len(rows), dtype=bool)
    step = max(1, _BLOCK // (len(perms) * width))
    for a in range(0, len(rows), step):
        rel = _relabel(rows[a : a + step], perms, width)
        out[a : a + step] = _lex_less(rel, ref[a : a + step, None, :width]).any(axis=1)
    return out


def _lex_leaders(n: int, fold_opposites: bool) -> np.ndarray:
    """The flattened associative n x n tables, in lex order, that no
    relabelling lowers (folded: nor lowers to a relabelled transpose).
    Cells are filled breadth first in row-major order, -1 marking unknown
    ones; a partial table is dropped once a known triple fails associativity
    or a relabelling lowers its known prefix, and so every completion."""
    cells = n * n
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    a, b, c = (x.ravel() for x in np.indices((n, n, n)))
    tables = np.full((1, cells), -1, dtype=np.int8)
    for k in range(cells):
        tables = np.repeat(tables, n, axis=0)
        tables[:, k] = np.tile(np.arange(n, dtype=np.int8), len(tables) // n)
        i, j = divmod(k, n)
        t = (a == i) | (c == j)  # the triples that read cell (i, j)
        ab = tables[:, a[t] * n + b[t]].astype(np.intp)
        bc = tables[:, b[t] * n + c[t]].astype(np.intp)
        # an unknown ab or bc indexes some other cell; the mask drops it
        left = np.take_along_axis(tables, ab * n + c[t], axis=1)
        right = np.take_along_axis(tables, a[t] * n + bc, axis=1)
        bad = (ab >= 0) & (bc >= 0) & (left >= 0) & (right >= 0) & (left != right)
        tables = tables[~bad.any(axis=1)]
        tables = tables[~_undercut(tables, tables, perms, k + 1)]
    if fold_opposites:
        opposite = tables.reshape(-1, n, n).transpose(0, 2, 1).reshape(-1, cells)
        tables = tables[~_undercut(opposite, tables, perms, cells)]
    return tables


def census(max_order: int, fold_opposites: bool = False) -> list[FiniteSemigroup]:
    """All semigroups of order <= max_order up to isomorphism, as the
    least table of each class by lex-leader generation (``census-n-i`` is
    the i-th of order n): 1, 5, 24, 188, 1,915 (OEIS A023814).  With
    fold_opposites an anti-isomorphic pair counts once: 1, 4, 18, 126,
    1,160 (A027851)."""
    if max_order < 1:
        raise ValueError(f"census max_order must be positive, got {max_order}")
    if max_order > CENSUS_LIMIT:
        raise CensusLimitExceeded(f"census max_order {max_order} exceeds limit {CENSUS_LIMIT}")
    return [
        FiniteSemigroup(flat.reshape(n, n), name=f"census-{n}-{i}", validate=False)
        for n in range(1, max_order + 1)
        for i, flat in enumerate(_lex_leaders(n, fold_opposites))
    ]


def fingerprint(semigroups: Iterable[FiniteSemigroup]) -> str:
    """SHA-256 over each table's encoding in turn: f"{n}:", its entries in
    row-major order as decimals joined by ",", then ";".  Each row slice is
    hashed once the next is made, so the last can end in ";", not ","."""
    h = hashlib.sha256()
    for S in semigroups:
        text = f"{S.order}:"
        for chunk in _table_text(S.table, S.order, ",", ","):
            h.update(text.encode())
            text = chunk
        h.update(f"{text[:-1]};".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# generator descriptors


def parse_descriptor(desc: str) -> FiniteSemigroup:
    """The semigroup a descriptor string names: "cyclic:3", "rect_band:2,2",
    "sym3", "t2", "paper_band", "left_zero:2", "right_zero:3", "trivial",
    "random_rees:I,L,group,seed" or "transformation:degree,maps,seed".
    Every generator refuses an order above the cap (``SEMIKIT_MAX_ORDER``)."""
    head, _, tail = desc.partition(":")
    args = tail.split(",") if tail else []
    # gen_standard checks the arity of the other descriptors
    arity = {"random_rees": 4, "transformation": 3}.get(head)
    if arity is not None and len(args) != arity:
        raise ValueError(f"descriptor {desc!r} takes {arity} arguments, got {len(args)}")
    if head == "random_rees":
        i_size, lam, group_name, seed = args
        return gen_random_rees(int(i_size), int(lam), group_name, int(seed)).realized
    if head == "transformation":
        return gen_transformation_closure(*(int(a) for a in args))
    if head not in _GENERATORS:
        raise UnknownGenerator(f"unknown generator {head!r} in descriptor {desc!r}")
    return gen_standard(head, *(int(a) for a in args))


# ---------------------------------------------------------------------------
# verification harness


@dataclass(frozen=True)
class CheckResult:
    semigroup: str
    check: str
    status: str  # "pass" | "fail" | "skip"
    witness: Optional[str] = None

    def to_dict(self) -> dict:
        return {"semigroup": self.semigroup, "check": self.check, "status": self.status, "witness": self.witness}


# One report entry as json.dumps(indent=2, sort_keys=True) lays it out,
# each %s a JSON string or null.
_ENTRY = """    {
      "check": %s,
      "semigroup": %s,
      "status": %s,
      "witness": %s
    }"""


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple[CheckResult, ...]
    fingerprint: str
    rng_algorithm: str = RNG_ALGORITHM

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(e for e in self.entries if e.status == "fail")

    @property
    def summary(self) -> dict[str, int]:
        """Entries per status; "skip" only when some check was skipped."""
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for e in self.entries:
            counts[e.status] += 1
        if not counts["skip"]:
            del counts["skip"]
        return counts

    def to_json(self) -> str:
        """The bytes of json.dumps(doc, indent=2, sort_keys=True) + "\\n" for
        doc = the head plus "entries", the entries' to_dict.  "entries" sorts
        first; each entry is one _ENTRY over json's C string encoder, as the
        indenting encoder is pure Python."""
        head = json.dumps(
            {"fingerprint": self.fingerprint, "rng_algorithm": self.rng_algorithm, "summary": self.summary},
            indent=2, sort_keys=True,
        )
        entries = ",\n".join(
            _ENTRY % (quote(e.check), quote(e.semigroup), quote(e.status),
                      "null" if e.witness is None else quote(e.witness))
            for e in self.entries
        )
        body = f"[\n{entries}\n  ]" if entries else "[]"
        return f'{{\n  "entries": {body},\n{head[2:]}\n'


def _check_idempotent_existence(S):
    if not _idempotent_members(S):
        return "no idempotent"


def _check_kernel(S):
    """K is the least ideal: an ideal, S^1 k S^1 at its least member k, and
    inside every S^1 x S^1, as k lies there, so inside every ideal.  An x
    outside K whose ideal misses k is the uniqueness witness, reported last."""
    report = kernel(S)
    K = list(report.kernel.members)
    left, right = pair = _ideal_rows(S)
    if not all(_is_ideal(rows, K) for rows in pair):
        return "kernel is not an ideal"
    k = K[0]
    in_kernel = np.zeros(S.order, dtype=bool)
    in_kernel[K] = True
    if (left[right[k]].any(axis=0) != in_kernel).any():  # S^1 y over y in k S^1
        return f"kernel is not S^1 k S^1 at k={k}"
    misses = ~(right & left[:, k]).any(axis=1)  # [x]: k not in S^1 x S^1
    smaller = misses & in_kernel
    if smaller.any():
        return f"kernel not minimal: {int(smaller.argmax())} generates a smaller ideal"
    if not report.idempotents:
        return "kernel has no idempotent"
    failing = np.flatnonzero(~report.verdicts.all(axis=1))
    if failing.size:
        e, verdict = report.idempotents[failing[0]], tuple(report.verdicts[failing[0]].tolist())
        return f"minimal-ideal proposition fails at e={e} in E(K): {verdict}"
    for rows, side in ((report.se, "left"), (report.es, "right")):
        distinct = _distinct_rows(rows)  # a partition of K: its union, and sizes summing to |K|
        if distinct.sum() != len(K) or (distinct.any(axis=0) != in_kernel).any():
            return f"minimal {side} ideals do not partition K"
    if misses.any():
        return f"S^1 x S^1 does not contain K at x={int(misses.argmax())}"


def _check_minimal_ideal_equivalences(S):
    E = _idempotent_members(S)
    table = _minimal_ideal_table(S, E)[2]
    disagree = table.any(axis=1) != table.all(axis=1)
    if disagree.any():
        i = int(disagree.argmax())
        return f"minimal-ideal equivalences disagree at e={E[i]}: {tuple(table[i].tolist())}"


def _check_cancellative_iff_group(S):
    cancellative = _permutation_rows(S.table) and _permutation_rows(S.table.T)
    if cancellative != is_group(S):
        return f"cancellative={cancellative} but group={is_group(S)}"


def _check_single_idempotent_monoid(S):
    if is_monoid(S) is not None and len(_idempotent_members(S)) == 1 and not is_group(S):
        return "monoid with E(S)={1} is not a group"


def _check_subsemigroups_of_groups(S):
    if not is_group(S):
        return None
    if S.order > SUBSEMIGROUP_CHECK_LIMIT:
        return SKIP
    masks, identity = _subsemigroup_masks(S), is_monoid(S)
    # a subgroup holds the identity and, with each member x, its inverse
    bad = ~masks[:, identity] | (masks & ~masks[:, _group_inverses(S.table, identity)]).any(axis=1)
    if bad.any():
        return f"subsemigroup {np.flatnonzero(masks[bad.argmax()]).tolist()} of a group is not a subgroup"


def _check_swelling(S):
    if S.order > SUBSEMIGROUP_CHECK_LIMIT:
        return SKIP
    held, equal = _swelling_verdicts(S)
    bad = held & ~equal
    if bad.any():
        bits, t = np.unravel_index(np.argmax(bad), bad.shape)  # least subset, then least t
        members = [x for x in range(S.order) if (bits + 1) >> x & 1]
        return f"A={members} lies in tA but is not tA at t={t}"


def _check_d_composition(S):
    """D = J from each D-class's least member r(x), kept on the structure.  D ⊆ J:
    x lies in S^1 r(x) S^1 and r(x) in S^1 x S^1, each S^1 y S^1 read as the union
    of S^1 z over z in y S^1.  J ⊆ D: no two least members are J-related, so the
    strict D-order and its transpose share no entry."""
    G = greens_structure(S)
    left, right = G.ideal_rows
    r = G.d_least[G.d_class]  # [x]: r(x)
    mutual = (right[r] & left.T).any(axis=1) & (right & left[:, r].T).any(axis=1)
    if not mutual.all() or (G.d_order & G.d_order.T).any():
        return "D != J"
    # every egg-box cell nonempty (#H = #R·#L) <=> D = RL = LR inside each D-class,
    # and cells of one size: each D-class's {R}, {L} and cell sizes, in one pass
    boxes: dict[int, tuple[set, set, list]] = {}
    for (d, r, l), size in collections.Counter(zip(*(c.tolist() for c in (G.d_class, G.r_class, G.l_class)))).items():
        rows, cols, sizes = boxes.setdefault(d, (set(), set(), []))
        rows.add(r)
        cols.add(l)
        sizes.append(size)
    for d in sorted(boxes):
        rows, cols, sizes = boxes[d]
        if len(sizes) != len(rows) * len(cols):
            return f"empty egg-box cell in D-class {d}"
        if len(set(sizes)) != 1:
            return f"unequal H-class sizes inside D-class {d}"


def _check_h_meet(S):
    """H = L ∧ R: the partitions by h and by (l, r) are equal iff each has as
    many classes as their meet.  On a failure, pairs are scanned for the first
    witness in slices of _BLOCK // n rows."""
    G = greens_structure(S)
    h, l, r = (c.tolist() for c in (G.h_class, G.l_class, G.r_class))
    if len(set(h)) == len(set(zip(l, r))) == len(set(zip(h, l, r))):
        return None
    h, l, r, step = G.h_class, G.l_class, G.r_class, max(1, _BLOCK // S.order)
    for a in range(0, S.order, step):
        rows = slice(a, a + step)
        bad = (h[rows, None] == h) != ((l[rows, None] == l) & (r[rows, None] == r))
        if bad.any():
            i, b = np.unravel_index(np.argmax(bad), bad.shape)  # first True, row-major
            return f"H != L^R at ({a + i},{b})"


def _check_kernel_rees_roundtrip(S):
    """K's Rees round-trip at its least idempotent e, on S's own rows: K is
    an ideal holding e, so S^1 e lies in K, and x = xe on S^1 e, so S^1 e =
    Ke; so too eS^1 = eK and eS^1 e = eKe.  Witnesses name elements of S."""
    T, K = S.table, np.asarray(kernel_members(S))
    is_idem = T.diagonal() == np.arange(S.order)
    E = np.flatnonzero(_kernel_row(S) & is_idem)  # E(K), ascending
    left, right = _ideal_rows(S)  # f <= g, f = fg = gf, puts f in S^1 g ∩ g S^1
    if ((left[E] & right[E] & is_idem).sum(axis=1) > 1).all():
        return "kernel has no primitive idempotent"
    i_arr, lam_arr, g_arr, GT, P, phi, psi = _rees_coordinates(S, int(E[0]))
    if P.min() < 0 or i_arr.size * g_arr.size * lam_arr.size != K.size:
        return "kernel not completely simple"
    step = max(1, _BLOCK // K.size)  # realized rows per slice
    for a in range(0, K.size, step):
        rows = slice(a, a + step)
        if not np.array_equal(phi[_rees_table(i_arr.size, lam_arr.size, GT, P, rows)], T[phi[rows, None], phi]):
            return "phi is not a homomorphism"
    back = np.append(phi, -1)[psi[K]]  # -1 where psi is undefined
    for bad, law in ((K[back != K], "phi(psi(s)) != s at s"),
                     (np.flatnonzero(psi[phi] != np.arange(phi.size)), "psi(phi(x)) != x at x")):
        if len(bad):
            return f"{law}={bad[0]}"


def _check_green_restriction(S):
    if S.order > SUBSEMIGROUP_CHECK_LIMIT:
        return SKIP
    masks = _subsemigroup_masks(S)
    found = _first_restriction_violation(S, masks)
    if found is not None:
        row, violation = found
        return f"restriction fails on {np.flatnonzero(masks[row]).tolist()}: {(violation,)}"


def _classification_rows(S, masks):
    """Per row T of masks, T's least idempotent e and J = T∩Se∩E(S) =
    Te∩E(T), W = T∩H_e = eTe and Gamma = T∩eS∩E(S): x in Se means x = xe."""
    is_idem = S.table.diagonal() == np.arange(S.order)
    e = np.argmax(masks & is_idem, axis=1)
    se, es = (rows[e] for rows in _ideal_rows(S))
    return e, masks & se & is_idem, masks & se & es, masks & es & is_idem


def _check_subsemigroup_classification(S):
    """Every subsemigroup T of a completely simple S is M(J, W, Gamma, P
    restricted), at T's least idempotent e: W is a subgroup of H_e, Gamma*J
    lies in W and T = J*W*Gamma, decided for every T at once.  There are at
    most (subgroups of G) * 2^|I| * 2^|Lambda| of them."""
    if not is_completely_simple(S):
        return None
    if S.order > SUBSEMIGROUP_CHECK_LIMIT:
        return SKIP
    table, masks = S.table, _subsemigroup_masks(S)
    e, J, W, Gamma = _classification_rows(S, masks)
    verdicts = np.array([  # a closed subset of the finite group H_e that holds e is a subgroup
        W[np.arange(len(W)), e] & ~(_product_rows(table, W, W) & ~W).any(axis=1),
        ~(_product_rows(table, Gamma, J) & ~W).any(axis=1),
        (_product_rows(table, _product_rows(table, J, W), Gamma) == masks).all(axis=1),
    ])
    failing = ~verdicts.all(axis=0)
    if failing.any():
        k = int(failing.argmax())  # the first failing T, then its first false statement
        claim = ("W is not a subgroup of H_e", "Gamma*J is not contained in W", "T is not J*W*Gamma")
        return f"{claim[int(verdicts[:, k].argmin())]} at T={np.flatnonzero(masks[k]).tolist()}"
    # the last row is S itself, at S's first idempotent: there J = I, W = G
    # and Gamma = Lambda; every subsemigroup of the group G is a subgroup
    n_subgroups = int((masks <= W[-1]).all(axis=1).sum())
    bound = n_subgroups * 2 ** int(J[-1].sum()) * 2 ** int(Gamma[-1].sum())
    if len(masks) > bound:
        return f"subsemigroup count {len(masks)} exceeds bound {bound}"


def _check_stability(S):
    """Stability, which every finite semigroup has: s J sx => s R sx (right)
    and s J xs => s L xs (left).  The witness (s, x) has the least s, and
    its right-side failure before its left."""
    G = greens_structure(S)
    T, j = S.table, G.j_class
    bad = np.stack(  # bad[s, side, x]: side 0 reads sx, side 1 reads xs
        ((j[T] == j[:, None]) & (G.r_class[T] != G.r_class[:, None]),
         (j[T.T] == j[:, None]) & (G.l_class[T.T] != G.l_class[:, None])),
        axis=1,
    )
    if bad.any():
        s, _, x = np.unravel_index(np.argmax(bad), bad.shape)  # first True, row-major
        return f"unstable witness {(int(s), int(x))}"


def _check_monogenic_idempotent(S):
    """Each <s> holds exactly one idempotent, counted in every row of
    _cyclic_rows at once; the witness names the least failing s."""
    counts = _cyclic_rows(S)[:, S.table.diagonal() == np.arange(S.order)].sum(axis=1)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        return f"<{bad[0]}> has {counts[bad[0]]} idempotents"


CHECKS: tuple[tuple[str, Callable], ...] = (
    ("idempotent_existence", _check_idempotent_existence),
    ("kernel_unique_minimal", _check_kernel),
    ("minimal_ideal_equivalences", _check_minimal_ideal_equivalences),
    ("cancellative_iff_group", _check_cancellative_iff_group),
    ("single_idempotent_monoid_is_group", _check_single_idempotent_monoid),
    ("subsemigroup_of_group_is_subgroup", _check_subsemigroups_of_groups),
    ("swelling_implication", _check_swelling),
    ("d_equals_rl_equals_lr", _check_d_composition),
    ("h_equals_l_meet_r", _check_h_meet),
    ("kernel_rees_roundtrip", _check_kernel_rees_roundtrip),
    ("regular_green_restriction", _check_green_restriction),
    ("subsemigroup_classification", _check_subsemigroup_classification),
    ("stability", _check_stability),
    ("monogenic_unique_idempotent", _check_monogenic_idempotent),
)


def verify_suite(corpus) -> VerificationReport:
    """Run every theorem check over each instance, a semigroup or a (name,
    semigroup) pair; failures become report entries, never aborts.  A check
    returns None on a pass, SKIP when it checked nothing, else a witness."""
    instances = [
        (S.name or f"instance-{i}", S) if isinstance(S, FiniteSemigroup) else S
        for i, S in enumerate(corpus)
    ]
    entries = []
    for name, S in instances:
        for check_name, fn in CHECKS:
            try:
                witness = fn(S)
            except (SemigroupError, ValueError) as exc:
                witness = str(exc)
            if witness is SKIP:
                entries.append(CheckResult(name, check_name, "skip"))
            else:
                status = "pass" if witness is None else "fail"
                entries.append(CheckResult(name, check_name, status, witness))
    return VerificationReport(tuple(entries), fingerprint(S for _, S in instances))
