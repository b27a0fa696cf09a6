"""Green's relations, principal ideals, egg-box structure, and stability."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import FiniteSemigroup, SubsetHandle, idempotents, subsemigroup_table
from .errors import NotAnHClass, NotRegularSubsemigroup


class PrincipalIdeals(NamedTuple):
    left: SubsetHandle
    right: SubsetHandle
    two_sided: SubsetHandle


def _left_ideal_members(T: np.ndarray, s: int) -> np.ndarray:
    """S^1 s as a sorted index array ({s} together with column s)."""
    return np.unique(np.append(T[:, s], s))


def _right_ideal_members(T: np.ndarray, s: int) -> np.ndarray:
    return np.unique(np.append(T[s, :], s))


def _two_sided_ideal_members(T: np.ndarray, s: int) -> np.ndarray:
    right = _right_ideal_members(T, s)
    return np.unique(np.concatenate([right, T[:, right].ravel()]))


def principal_ideals(S: FiniteSemigroup, s: int) -> PrincipalIdeals:
    """The three principal ideals S^1 s, s S^1 and S^1 s S^1."""
    T = S.table
    return PrincipalIdeals(
        SubsetHandle(S, tuple(_left_ideal_members(T, s))),
        SubsetHandle(S, tuple(_right_ideal_members(T, s))),
        SubsetHandle(S, tuple(_two_sided_ideal_members(T, s))),
    )


def _canonical_labels(raw: np.ndarray) -> np.ndarray:
    """Relabel class ids so classes are numbered by their least member."""
    n = raw.shape[0]
    first = {}
    order = []
    for x in range(n):
        if raw[x] not in first:
            first[raw[x]] = len(order)
            order.append(raw[x])
    lookup = np.empty(raw.max() + 1, dtype=np.int64)
    for new, old in enumerate(order):
        lookup[old] = new
    return lookup[raw]


def _classes_naive(T: np.ndarray, kind: str) -> np.ndarray:
    """Label elements by their principal ideal of the given kind, so two
    elements share a label iff they generate the same ideal.  Labels are
    handed out in element order, so classes are numbered by least member."""
    n = T.shape[0]
    fn = {
        "l": _left_ideal_members,
        "r": _right_ideal_members,
        "j": _two_sided_ideal_members,
    }[kind]
    keys: dict[bytes, int] = {}
    labels = np.empty(n, dtype=np.int64)
    for s in range(n):
        key = fn(T, s).tobytes()
        labels[s] = keys.setdefault(key, len(keys))
    return labels


def _pair_labels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    combo = a * (b.max() + 1) + b
    _, labels = np.unique(combo, return_inverse=True)
    return _canonical_labels(labels.astype(np.int64))


def _join_labels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest common coarsening of two partitions (union-find)."""
    n = a.shape[0]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for labels in (a, b):
        reps: dict[int, int] = {}
        for x in range(n):
            c = labels[x]
            if c in reps:
                parent[find(x)] = find(reps[c])
            else:
                reps[c] = x
    raw = np.array([find(x) for x in range(n)], dtype=np.int64)
    return _canonical_labels(raw)


def _members_of(labels: np.ndarray) -> list[tuple[int, ...]]:
    out: list[list[int]] = [[] for _ in range(int(labels.max()) + 1)]
    for x, c in enumerate(labels):
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
    parent: FiniteSemigroup
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
    d_order: tuple[tuple[int, int], ...]  # (lower d_id, higher d_id) J-order pairs

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


def greens_structure(S: FiniteSemigroup) -> GreensStructure:
    """Compute the five Green partitions and the egg-box grids.

    L and R compare principal one-sided ideals; H is their meet and D their
    join.  On a finite semigroup D = J, so the J partition is D's.
    """
    T = S.table
    l = _classes_naive(T, "l")
    r = _classes_naive(T, "r")
    h = _pair_labels(l, r)
    d = _join_labels(l, r)

    eggboxes = []
    d_members = _members_of(d)
    for d_id, dm in enumerate(d_members):
        r_ids = sorted(set(int(r[x]) for x in dm))
        l_ids = sorted(set(int(l[x]) for x in dm))
        grid: dict[tuple[int, int], list[int]] = {}
        for x in dm:
            grid.setdefault((int(r[x]), int(l[x])), []).append(x)
        cells = tuple(
            tuple(tuple(grid.get((ri, li), ())) for li in l_ids) for ri in r_ids
        )
        eggboxes.append(EggBox(d_id, tuple(r_ids), tuple(l_ids), cells))

    d_order = _d_class_order(T, d, d_members)
    d_classes = tuple(tuple(m) for m in d_members)
    return GreensStructure(
        parent=S,
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
        d_order=d_order,
    )


def _d_class_order(T, d, d_members) -> tuple[tuple[int, int], ...]:
    """Strict J-order pairs (lower, higher) between D-classes (finite: D=J)."""
    k = len(d_members)
    below = np.zeros((k, k), dtype=bool)
    for hi, dm in enumerate(d_members):
        ideal = _two_sided_ideal_members(T, dm[0])
        for lo in set(int(d[x]) for x in ideal):
            if lo != hi:
                below[lo, hi] = True
    return tuple((lo, hi) for hi in range(k) for lo in range(k) if below[lo, hi])


def eggbox_dot(G: GreensStructure) -> str:
    """Deterministic DOT rendering: one cluster per D-class, one node per
    H-class (starred when the H-class is a group), J-order edges between
    clusters."""
    S = G.parent
    E = set(idempotents(S).members)
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
    covers = _hasse(G.d_order, len(G.d_classes))
    for lo, hi in covers:
        lines.append(
            f"  {first_node[hi]} -> {first_node[lo]} "
            f"[ltail=cluster_d{hi}, lhead=cluster_d{lo}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _hasse(order_pairs: Sequence[tuple[int, int]], k: int) -> list[tuple[int, int]]:
    below = {(lo, hi) for lo, hi in order_pairs}
    covers = []
    for lo, hi in sorted(below):
        if not any((lo, m) in below and (m, hi) in below for m in range(k)):
            covers.append((lo, hi))
    return covers


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
    for x in range(sub.order):
        if not is_regular(sub, x):
            raise NotRegularSubsemigroup(
                f"element {incl(x)} is not regular inside the subsemigroup"
            )
    GS = greens_structure(S)
    GT = greens_structure(sub)
    rel_S = {"L": GS.l_class, "R": GS.r_class, "H": GS.h_class}
    rel_T = {"L": GT.l_class, "R": GT.r_class, "H": GT.h_class}
    violations = []
    m = sub.order
    for name in ("L", "R", "H"):
        for i in range(m):
            for k in range(i + 1, m):
                inner = rel_T[name][i] == rel_T[name][k]
                outer = rel_S[name][incl(i)] == rel_S[name][incl(k)]
                if inner != outer:
                    violations.append((name, incl(i), incl(k)))
    return RestrictionReport(not violations, tuple(violations))


class StabilityResult(NamedTuple):
    right: bool
    left: bool
    witness: Optional[tuple[int, int]]


def is_stable(S: FiniteSemigroup) -> StabilityResult:
    """Right: s J sx => s R sx; left: s J xs => s L xs.  Finite semigroups
    are stable, so a False here signals an internal bug."""
    G = greens_structure(S)
    T = S.table
    n = S.order
    right = True
    left = True
    witness = None
    for s in range(n):
        sx = T[s, :]
        bad = (G.j_class[sx] == G.j_class[s]) & (G.r_class[sx] != G.r_class[s])
        if bad.any():
            right = False
            witness = witness or (s, int(np.flatnonzero(bad)[0]))
        xs = T[:, s]
        bad = (G.j_class[xs] == G.j_class[s]) & (G.l_class[xs] != G.l_class[s])
        if bad.any():
            left = False
            witness = witness or (s, int(np.flatnonzero(bad)[0]))
    return StabilityResult(right, left, witness)
