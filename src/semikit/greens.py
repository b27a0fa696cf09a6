"""Green's relations, principal ideals, egg-box structure, and stability."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .core import _BLOCK, FiniteSemigroup, SubsetHandle, _check_element, _derived, subsemigroup_table
from .errors import NotAnHClass, NotRegularSubsemigroup


class PrincipalIdeals(NamedTuple):
    left: SubsetHandle
    right: SubsetHandle
    two_sided: SubsetHandle


def principal_ideals(S: FiniteSemigroup, s: int) -> PrincipalIdeals:
    """The three principal ideals S^1 s, s S^1 and S^1 s S^1."""
    _check_element(S, s)
    left, right = pair = _ideal_rows(S)
    rows = (left[s], right[s], _two_sided_rows(pair, [s])[0])
    return PrincipalIdeals(*(SubsetHandle(S, tuple(np.flatnonzero(row).tolist())) for row in rows))


@_derived
def _ideal_rows(S: FiniteSemigroup) -> tuple[np.ndarray, np.ndarray]:
    """The principal one-sided ideals, once per semigroup: read-only n×n bool
    membership rows (left, right), row x being S^1 x and x S^1.  A left ideal
    is a right ideal of the opposite semigroup, whose table is T.T."""
    n = S.order
    pair = (np.eye(n, dtype=bool), np.eye(n, dtype=bool))
    for rows, U in zip(pair, (S.table.T, S.table)):
        rows[np.arange(n)[:, None], U] = True  # row x holds U[x, y]: y*x on the left, x*y on the right
        rows.setflags(write=False)
    return pair


def _two_sided_rows(pair, rows, cols=slice(None)) -> np.ndarray:
    """out[i, k] says cols[k] (every element by default) lies in S^1 x S^1
    for x = rows[i], read off the pair of _ideal_rows; rows is nonempty.
    The only computation of principal two-sided ideals: S^1 x S^1 is the
    union of S^1 y over y in x S^1, a float32 product of membership rows,
    exact below order 2**24, in slices of _BLOCK // n rows.  Only the left
    rows of the middles y that some x S^1 holds are read, converted to
    float32 once per call."""
    left, right = pair
    rows = np.asarray(rows, dtype=np.int64)
    used = right[rows].any(axis=0)
    ideals = left[used][:, cols].astype(np.float32)
    step = max(1, _BLOCK // len(left))
    return np.concatenate([
        right[rows[a : a + step]][:, used].astype(np.float32) @ ideals > 0
        for a in range(0, len(rows), step)
    ])


def _labels(keys: np.ndarray, seen: Optional[dict] = None) -> np.ndarray:
    """Number the rows of keys (its entries, if 1-D) by first occurrence, so
    equal rows share a label and classes are numbered by least member.  A
    dict ``seen`` of row bytes from earlier calls on rows of the same shape
    and dtype carries their numbering on: a row met before keeps its label,
    and new rows are numbered from ``len(seen)``; ``seen`` is extended."""
    rows = np.ascontiguousarray(keys if keys.ndim == 2 else keys[:, None])
    rows = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))[:, 0]
    seen = {} if seen is None else seen
    return np.array([seen.setdefault(row, len(seen)) for row in rows.tolist()], dtype=np.int64)


def _members_of(labels: np.ndarray) -> list[tuple[int, ...]]:
    out: list[list[int]] = [[] for _ in range(int(labels.max()) + 1)]
    for x, c in enumerate(labels.tolist()):
        out[c].append(x)
    return [tuple(m) for m in out]


@dataclass(frozen=True)
class EggBox:
    """One D-class grid: R-classes as rows, L-classes as columns."""

    d_id: int
    r_ids: tuple[int, ...]
    l_ids: tuple[int, ...]
    cells: tuple[tuple[tuple[int, ...], ...], ...]  # [row][col] -> H-class members


@dataclass(frozen=True)
class GreensStructure:
    table: np.ndarray  # the semigroup's read-only Cayley table
    ideal_rows: tuple[np.ndarray, np.ndarray]  # _ideal_rows: S^1 x and x S^1
    l_class: np.ndarray
    r_class: np.ndarray
    j_class: np.ndarray
    h_class: np.ndarray
    d_class: np.ndarray
    l_classes: tuple[tuple[int, ...], ...]
    r_classes: tuple[tuple[int, ...], ...]
    j_classes: tuple[tuple[int, ...], ...]
    h_classes: tuple[tuple[int, ...], ...]
    d_classes: tuple[tuple[int, ...], ...]
    eggbox: tuple[EggBox, ...]

    @cached_property
    def _below(self) -> np.ndarray:
        """k×k bool, built on first read: [lo, hi] when D_lo lies strictly
        under D_hi, each D-class read at its least member."""
        reps = [m[0] for m in self.d_classes]
        below = _two_sided_rows(self.ideal_rows, reps, reps).T
        np.fill_diagonal(below, False)
        return below

    @property
    def d_order(self) -> tuple[tuple[int, int], ...]:
        """Strict J-order pairs (lower d_id, higher d_id), sorted by the higher."""
        hi, lo = np.nonzero(self._below.T)  # row-major: sorted by hi, then lo
        return tuple(zip(lo.tolist(), hi.tolist()))

    def to_dict(self) -> dict:
        return {
            "l_classes": [list(c) for c in self.l_classes],
            "r_classes": [list(c) for c in self.r_classes],
            "j_classes": [list(c) for c in self.j_classes],
            "h_classes": [list(c) for c in self.h_classes],
            "d_classes": [list(c) for c in self.d_classes],
            "eggbox": [
                {
                    "d_class": box.d_id,
                    "r_ids": list(box.r_ids),
                    "l_ids": list(box.l_ids),
                    "cells": [[list(cell) for cell in row] for row in box.cells],
                }
                for box in self.eggbox
            ],
        }


def _lrh_labels(S: FiniteSemigroup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L and R labels from principal one-sided ideals, and H, their meet."""
    l, r = (_labels(np.packbits(rows, axis=1)) for rows in _ideal_rows(S))
    return l, r, _labels(np.stack((l, r), axis=1))


@_derived
def greens_structure(S: FiniteSemigroup) -> GreensStructure:
    """The five Green partitions and the egg-box grids, once per semigroup.
    D is L∘R, so the least member of D_x is the least member of R_z over z
    in L_x.  On a finite semigroup D = J, so the J partition is D's."""
    n = S.order
    l, r, h = _lrh_labels(S)
    r_least = np.full(n, n)
    np.minimum.at(r_least, r, np.arange(n))
    d_least = np.full(n, n)
    np.minimum.at(d_least, l, r_least[r])
    d = _labels(d_least[l])
    for labels in (l, r, h, d):
        labels.setflags(write=False)  # shared by every caller

    eggboxes = []
    d_members = _members_of(d)
    l_of, r_of = l.tolist(), r.tolist()
    for d_id, dm in enumerate(d_members):
        r_ids = sorted({r_of[x] for x in dm})
        l_ids = sorted({l_of[x] for x in dm})
        grid: dict[tuple[int, int], list[int]] = {}
        for x in dm:
            grid.setdefault((r_of[x], l_of[x]), []).append(x)
        cells = tuple(
            tuple(tuple(grid.get((ri, li), ())) for li in l_ids) for ri in r_ids
        )
        eggboxes.append(EggBox(d_id, tuple(r_ids), tuple(l_ids), cells))

    d_classes = tuple(tuple(m) for m in d_members)
    return GreensStructure(
        table=S.table,
        ideal_rows=_ideal_rows(S),
        l_class=l,
        r_class=r,
        j_class=d,
        h_class=h,
        d_class=d,
        l_classes=tuple(_members_of(l)),
        r_classes=tuple(_members_of(r)),
        j_classes=d_classes,
        h_classes=tuple(_members_of(h)),
        d_classes=d_classes,
        eggbox=tuple(eggboxes),
    )


def eggbox_dot(G: GreensStructure) -> str:
    """Deterministic DOT rendering: one cluster per D-class, one node per
    H-class (starred when the H-class is a group), J-order edges between
    clusters."""
    E = set(np.flatnonzero(G.table.diagonal() == np.arange(len(G.table))).tolist())
    lines = ["digraph eggbox {", "  compound=true;", "  node [shape=box];"]
    first_node: dict[int, str] = {}
    for box in G.eggbox:
        lines.append(f"  subgraph cluster_d{box.d_id} {{")
        lines.append(f'    label="D{box.d_id}";')
        for ri, row in zip(box.r_ids, box.cells):
            for li, cell in zip(box.l_ids, row):
                node = f"d{box.d_id}_r{ri}_l{li}"
                first_node.setdefault(box.d_id, node)
                star = "*" if any(x in E for x in cell) else ""
                label = "{" + ",".join(str(x) for x in cell) + "}" + star
                lines.append(f'    {node} [label="{label}"];')
        lines.append("  }")
    below = G._below.astype(np.float32)  # float for BLAS; 0 only where no middle class
    covers = np.argwhere((below > 0) & (below @ below == 0))  # row-major: sorted
    for lo, hi in covers.tolist():
        lines.append(
            f"  {first_node[hi]} -> {first_node[lo]} "
            f"[ltail=cluster_d{hi}, lhead=cluster_d{lo}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def h_class_is_group(S: FiniteSemigroup, h: SubsetHandle) -> bool:
    """True iff the H-class contains an idempotent, iff it is a group."""
    G = greens_structure(S)
    members = set(h.members)
    ids = {int(G.h_class[x]) for x in members}
    if len(ids) != 1 or set(G.h_classes[ids.pop()]) != members:
        raise NotAnHClass(f"{sorted(members)} is not an H-class")
    return any(S.product(x, x) == x for x in members)


def is_regular(S: FiniteSemigroup, s: int) -> bool:
    """True iff some t satisfies s*t*s = s."""
    _check_element(S, s)
    T = S.table
    return bool((T[T[s, :], s] == s).any())


@dataclass(frozen=True)
class RestrictionReport:
    ok: bool
    violations: tuple[tuple[str, int, int], ...]  # (relation, a, b) in S-indices


def greens_restriction_check(S: FiniteSemigroup, T: SubsetHandle) -> RestrictionReport:
    """Check L^T = L^S ∩ (T×T) (and the R, H analogues) for a regular
    subsemigroup T."""
    sub, incl = subsemigroup_table(S, T.members)
    U, idx = sub.table, np.arange(sub.order)[:, None]
    regular = (U[U, idx] == idx).any(axis=1)  # x*t*x = x for some t
    if not regular.all():
        x = incl(int(np.argmin(regular)))  # the least non-regular element
        raise NotRegularSubsemigroup(f"element {x} is not regular inside the subsemigroup")
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


def _first_restriction_violation(S: FiniteSemigroup, masks: np.ndarray):
    """greens_restriction_check over the subsemigroups given as rows of a
    bool membership matrix, in one pass per block of rows.  Returns the
    first regular row whose L, R or H is not S's restricted, with its first
    violation (relation, a, b) in greens_restriction_check's order, or None."""
    n = S.order
    T, x = S.table, np.arange(n)
    regular_at = T[T, x[:, None]] == x[:, None]  # [x, t]: x*t*x = x
    GS = greens_structure(S)
    outer = np.stack([c[:, None] == c for c in (GS.l_class, GS.r_class, GS.h_class)])
    upper = x[:, None] < x
    step = max(1, _BLOCK // (n * n))  # rows per pass: <= _BLOCK member pairs
    for start in range(0, len(masks), step):
        m = masks[start : start + step]
        both = m[:, :, None] & m[:, None, :]
        # every member x of row k has a member t with x*t*x = x
        regular = ~(m & ~(both & regular_at).any(axis=2)).any(axis=1)
        # over row k's members a, b: c = a*b lies in the principal left ideal
        # of b (ideals[0, k, b, c]) and in the principal right ideal of a
        k, a, b = np.nonzero(both)
        c = T[a, b]
        ideals = np.zeros((2, len(m), n, n), dtype=bool)
        ideals[0, k, b, c] = ideals[1, k, a, c] = True
        ideals[:, :, x, x] = True
        same = ideals & ideals.swapaxes(2, 3)  # L and R inside each row's subsemigroup
        inner = np.concatenate((same, same[:1] & same[1:]))  # [relation, k, a, b]
        bad = (inner != outer[:, None]) & (both & upper & regular[:, None, None])
        hit = bad.any(axis=(0, 2, 3))
        if hit.any():
            row = int(np.argmax(hit))
            rel, a, b = np.unravel_index(np.argmax(bad[:, row]), bad[:, row].shape)
            return start + row, ("LRH"[rel], int(a), int(b))
    return None


class StabilityResult(NamedTuple):
    right: bool
    left: bool
    witness: Optional[tuple[int, int]]


def is_stable(S: FiniteSemigroup) -> StabilityResult:
    """Right: s J sx => s R sx; left: s J xs => s L xs.  Finite semigroups
    are stable, so a False here signals an internal bug.  The witness
    (s, x) has the least s, and its right-side failure before its left."""
    G = greens_structure(S)
    T, j = S.table, G.j_class
    bad = np.stack(  # bad[s, side, x]: side 0 reads sx, side 1 reads xs
        ((j[T] == j[:, None]) & (G.r_class[T] != G.r_class[:, None]),
         (j[T.T] == j[:, None]) & (G.l_class[T.T] != G.l_class[:, None])),
        axis=1,
    )
    s, _, x = np.unravel_index(np.argmax(bad), bad.shape)  # first True, row-major
    right, left = (~bad.any(axis=(0, 2))).tolist()
    return StabilityResult(right, left, None if right and left else (int(s), int(x)))
