"""Completely simple semigroups: recognition, Rees matrix construction and
decomposition, subsemigroup classification and enumeration, and band
predicates.  Nothing here re-proves its own answers: the verify harness
replays the Rees and classification theorems."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    FiniteSemigroup,
    SemigroupMorphism,
    SubsetHandle,
    _BLOCK,
    _check_element,
    _check_order,
    _cyclic_rows,
    _derived,
    _idempotent_members,
    _int_rows,
    _is_index_dtype,
    _positions,
    _table_text,
    from_table,
    is_group,
    max_order,
    subsemigroup_table,
)
from .errors import (
    BadSandwichEntry,
    NotAGroup,
    NotCompletelySimple,
    NotIdempotent,
    Overflow,
    SearchCapExceeded,
)
from .greens import _ideal_rows, greens_structure
from .ideals import _kernel_row

DEFAULT_SEARCH_CAP = 16


def is_simple(S: FiniteSemigroup) -> bool:
    """No proper two-sided ideal: the kernel is all of S."""
    return bool(_kernel_row(S).all())


def is_completely_simple(S: FiniteSemigroup) -> bool:
    """Simple with a primitive idempotent.  On a finite semigroup every
    simple semigroup qualifies: E(S) is finite and nonempty, so the natural
    order on it has a minimal element."""
    return is_simple(S)


@dataclass(frozen=True)
class ReesMatrixSemigroup:
    """The data (I, G, Lambda, P) and the Cayley table it induces.

    Element (i, g, lam) of the realized semigroup sits at index
    (i*|G| + g)*|Lambda| + lam.
    """

    i_size: int
    lambda_size: int
    group: FiniteSemigroup
    sandwich: np.ndarray  # lambda_size x i_size, group-element indices
    realized: FiniteSemigroup


def rees_construct(i_size: int, lambda_size: int, group: FiniteSemigroup, sandwich) -> ReesMatrixSemigroup:
    """Build M(I, G, Lambda, P): product (i,g,lam)(j,h,mu) = (i, g p[lam,j] h, mu)."""
    if i_size < 1 or lambda_size < 1:
        raise ValueError("i_size and lambda_size must be positive")
    if not is_group(group):
        raise NotAGroup("Rees matrix semigroups require a group component")
    P = np.asarray(sandwich)
    if P.shape != (lambda_size, i_size):
        raise ValueError(f"sandwich must be {lambda_size}x{i_size}, got {P.shape}")
    if not _is_index_dtype(P.dtype) or P.min() < 0 or P.max() >= group.order:
        raise BadSandwichEntry(f"sandwich entries must lie in [0,{group.order})")
    P = P.astype(np.int64)
    _check_order(i_size * group.order * lambda_size)
    # M(I, G, Lambda, P) is associative for every group G and sandwich P
    realized = FiniteSemigroup(_rees_table(i_size, lambda_size, group.table, P), validate=False)
    return ReesMatrixSemigroup(i_size, lambda_size, group, P, realized)


def _rees_table(i_size: int, lambda_size: int, GT: np.ndarray, P: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Rows (all by default) of the realized table of M(I, G, Lambda, P) from
    G's table GT and an int64 sandwich P of group indices, by arithmetic."""
    ng = len(GT)
    # coordinates of every index; a = (i, g, lam) on rows, b = (j, h, mu) on columns
    j, h, mu = np.unravel_index(np.arange(i_size * ng * lambda_size), (i_size, ng, lambda_size))
    i, g, lam = j[rows], h[rows], mu[rows]
    gp = GT[g[:, None], P[lam]]  # g * p[lam, j] per row and j
    table = gp[:, j]
    table *= ng
    table += h  # flat index of (g p[lam, j], h) in the group table
    table = GT.ravel()[table]
    table += (i * ng)[:, None]
    table *= lambda_size
    table += mu
    return table


@dataclass(frozen=True)
class ReesDecomposition:
    """Rees coordinates of a completely simple semigroup at a base
    idempotent e: I = Se∩E(S), Lambda = eS∩E(S), G = H_e, P(lam,i) = lam*i."""

    source: FiniteSemigroup
    e: int
    i_elements: tuple[int, ...]  # members of I as source indices
    lambda_elements: tuple[int, ...]
    group_elements: tuple[int, ...]  # members of H_e as source indices
    rms: ReesMatrixSemigroup
    phi: SemigroupMorphism  # realized -> source, (i,g,lam) -> i*g*lam
    psi: SemigroupMorphism  # source -> realized, s -> (s(ese)^-1, ese, (ese)^-1 s)

    @cached_property
    def closed_form_agreement(self) -> tuple[bool, ...]:
        """Per source element s, whether the printed form
        (s(ses)^-1, ses, (ese)^-1 s) matches psi, computed on first read.
        It differs from psi's form only in ses for ese, so it matches where
        ses = ese: only at s = e."""
        T, e = self.source.table, self.e
        return tuple((T[T[:, e], np.arange(len(T))] == T[T[e], e]).tolist())


def rees_decompose(S: FiniteSemigroup, e: Optional[int] = None) -> ReesDecomposition:
    if e is not None:
        _check_element(S, e)
    if not is_completely_simple(S):
        raise NotCompletelySimple("rees_decompose requires a completely simple semigroup")
    e = _idempotent_members(S)[0] if e is None else int(e)
    if S.table[e, e] != e:
        raise NotIdempotent(f"{e} is not idempotent")
    i_arr, lam_arr, g_arr, GT, P, phi, psi = _rees_coordinates(S, e)
    realized = FiniteSemigroup(_rees_table(i_arr.size, lam_arr.size, GT, P), validate=False)
    rms = ReesMatrixSemigroup(i_arr.size, lam_arr.size, FiniteSemigroup(GT, validate=False), P, realized)
    phi, psi = SemigroupMorphism(realized, S, phi), SemigroupMorphism(S, realized, psi)
    return ReesDecomposition(S, e, *(tuple(a.tolist()) for a in (i_arr, lam_arr, g_arr)), rms, phi, psi)


def _rees_coordinates(S: FiniteSemigroup, e: int):
    """Arrays at the idempotent e of S, unchecked: I = Se∩E(S), Lambda =
    eS∩E(S), H_e = Se∩eS, H_e's table, P(lam, i) = lam*i in H_e, phi's map
    (i, g, lam) -> i*g*lam and psi's s -> (s(ese)^-1, ese, (ese)^-1 s), -1
    where P or psi falls outside its coordinates."""
    T, s = S.table, np.arange(S.order)
    is_idem = T.diagonal() == s
    se, es = (rows[e] for rows in _ideal_rows(S))  # Se = S^1 e, as e = ee
    i_arr, lam_arr, g_arr = (np.flatnonzero(m) for m in (se & is_idem, es & is_idem, se & es))
    gpos = _positions(S.order, g_arr)
    GT, step = np.empty((g_arr.size, g_arr.size), dtype=np.int64), max(1, _BLOCK // S.order)
    for a in range(0, g_arr.size, step):  # H_e's table, gathered in _BLOCK-sized slices
        GT[a : a + step] = gpos[T[g_arr[a : a + step, None], g_arr]]
    P = gpos[T[lam_arr[:, None], i_arr]]
    phi = T[T[i_arr[:, None], g_arr][:, :, None], lam_arr].ravel()
    g = gpos[T[T[e], e]]  # the position of ese in H_e
    inv = g_arr[_group_inverses(GT, gpos[e])[g]]  # (ese)^-1 in H_e, whose identity is e
    i, lam = _positions(S.order, i_arr)[T[s, inv]], _positions(S.order, lam_arr)[T[inv, s]]
    psi = np.where((i >= 0) & (lam >= 0), (i * g_arr.size + g) * lam_arr.size + lam, -1)
    return i_arr, lam_arr, g_arr, GT, P, phi, psi


def _group_inverses(GT: np.ndarray, identity: int) -> np.ndarray:
    """inv[g] for every element g of the group with table GT and that identity."""
    return np.argmax(GT == identity, axis=1)


class SubsemigroupDecomposition(NamedTuple):
    j: SubsetHandle  # J = Te ∩ E(T), a subset of I
    w: SubsetHandle  # W = H_e^T, a subgroup of G
    gamma: SubsetHandle  # Gamma = eT ∩ E(T), a subset of Lambda
    decomposition: ReesDecomposition  # T's own Rees decomposition at e


def subsemigroup_decompose(S: FiniteSemigroup, T: SubsetHandle) -> SubsemigroupDecomposition:
    """Classify a subsemigroup T of a completely simple S as
    M(J, W, Gamma, P restricted to Gamma x J), in T's own Rees coordinates
    at its first idempotent, by re-tabling T: the oracle of the verify
    harness, which reads J, W and Gamma off S's rows for every T at once."""
    if not is_completely_simple(S):
        raise NotCompletelySimple("subsemigroup_decompose requires completely simple S")
    sub, incl = subsemigroup_table(S, T.members)  # raises NotASubsemigroup
    dec_T = rees_decompose(sub)
    return SubsemigroupDecomposition(
        SubsetHandle(S, tuple(incl(x) for x in dec_T.i_elements)),
        SubsetHandle(S, tuple(incl(x) for x in dec_T.group_elements)),
        SubsetHandle(S, tuple(incl(x) for x in dec_T.lambda_elements)),
        dec_T,
    )


class BandPredicates(NamedTuple):
    is_band: bool
    is_rectangular_band: bool
    is_rectangular_group: bool


def band_predicates(S: FiniteSemigroup) -> BandPredicates:
    """Band, rectangular band, rectangular group.  A band is a rectangular
    band iff it is completely simple.  A completely simple S is a
    rectangular group iff efe = e for every idempotent f, at any one
    idempotent e: with P normalised at e, e = (1, 1, 1) and f = (j, p^-1, mu)
    for p = p(mu, j), so efe = (1, p^-1, 1), which is e iff P is all identity."""
    T = S.table
    E = np.flatnonzero(T.diagonal() == np.arange(S.order))
    band, simple = E.size == S.order, is_completely_simple(S)
    rect_group = simple and bool((T[T[E[0], E], E[0]] == E[0]).all())
    return BandPredicates(band, band and simple, rect_group)


class HFiniteness(NamedTuple):
    h_class_count: int
    i_size: int
    lambda_size: int


def h_finiteness(S: FiniteSemigroup) -> HFiniteness:
    """H-class count, |I| and |Lambda| of a completely simple semigroup, read
    off the kept Green classes: in M(I, G, Lambda; P), (i, g, lam) R (j, h, mu)
    iff i = j, and dually for L, so |I| counts R-classes and |Lambda|
    L-classes.  The count is |I|*|Lambda|; every finite instance is H-finite."""
    if not is_completely_simple(S):
        raise NotCompletelySimple("h_finiteness requires a completely simple semigroup")
    G = greens_structure(S)
    return HFiniteness(len(G.h_classes), len(G.r_classes), len(G.l_classes))


def enumerate_subsemigroups(S: FiniteSemigroup, cap: int = DEFAULT_SEARCH_CAP) -> list[SubsetHandle]:
    """All nonempty product-closed subsets, sorted by size, then by members.

    Nothing is re-verified here; on completely simple S the verify harness
    replays the (J, W, Gamma) classification and the counting bound over
    this list.
    """
    if S.order > cap:
        raise SearchCapExceeded(f"order {S.order} exceeds cap {cap}")
    return [SubsetHandle(S, tuple(np.flatnonzero(m))) for m in _subsemigroup_masks(S)]


@_derived
def _subsemigroup_masks(S: FiniteSemigroup) -> np.ndarray:
    """Membership rows of every subsemigroup, sorted by size, then by members.

    A level-synchronous worklist from the empty set: each level joins <x>,
    for each x outside, to every subset the level before found, closes all
    those candidates at once and keeps the ones not found before.
    """
    n = S.order
    monogenic = _cyclic_rows(S)  # row x: <x>
    found: dict[bytes, np.ndarray] = {}
    frontier = np.zeros((1, n), dtype=bool)
    step = max(1, _BLOCK // (n * n))  # frontier rows per slice: <= _BLOCK candidate cells
    while len(frontier):
        level = []
        for start in range(0, len(frontier), step):
            row, x = np.nonzero(~frontier[start : start + step])
            for cand in _close(frontier[start + row] | monogenic[x], S.table):
                if (key := cand.tobytes()) not in found:
                    found[key] = cand
                    level.append(cand)
        frontier = np.array(level).reshape(-1, n)
    masks = np.array(list(found.values()))
    # size first; among equal sizes, the one holding the least differing member
    masks = masks[np.lexsort(np.vstack((~masks.T[::-1], masks.sum(axis=1))))]
    masks.setflags(write=False)  # shared by every caller
    return masks


def _close(masks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Close every row of a bool membership matrix under the product, in
    place, by adding the products of all pairs of members until none is new."""
    step = max(1, _BLOCK // table.size)  # rows per pass: <= _BLOCK member pairs
    for start in range(0, len(masks), step):
        block, size = masks[start : start + step], -1
        while size < (size := block.sum()):
            block |= _product_rows(table, block, block)
    return masks


def _product_rows(table: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per row t, the membership row of the product set A[t]*B[t]."""
    t, a, b = np.nonzero(A[:, :, None] & B[:, None, :])
    out = np.zeros_like(A)
    out[t, table[a, b]] = True
    return out


# ---------------------------------------------------------------------------
# .rms text format


def _rms_text(rms: ReesMatrixSemigroup):
    """.rms text a row slice at a time; the group table and sandwich entries are group indices."""
    ng = rms.group.order
    yield f"# rees matrix semigroup\ni_size {rms.i_size}\nlambda_size {rms.lambda_size}\ngroup\n{ng}\n"
    yield from _table_text(rms.group.table, ng, " ", "\n")
    yield "sandwich\n"
    yield from _table_text(rms.sandwich, ng, " ", "\n")


def dumps_rms(rms: ReesMatrixSemigroup) -> str:
    return "".join(_rms_text(rms))


def _rms_header(line: str, key: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise ValueError(f"expected '{key} <int>', got {line!r}")
    return int(parts[1])


def loads_rms(text: str) -> ReesMatrixSemigroup:
    rows = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if len(rows) < 4:
        raise ValueError("malformed .rms document")
    i_size = _rms_header(rows[0], "i_size")
    lambda_size = _rms_header(rows[1], "lambda_size")
    if rows[2] != "group":
        raise ValueError("expected 'group' section")
    ng = int(rows[3])
    group_rows = rows[4 : 4 + ng]
    if len(group_rows) != ng:
        raise ValueError(f"expected {ng} group table rows, found {len(group_rows)}")
    rest = rows[4 + ng :]
    if not rest or rest[0] != "sandwich":
        raise ValueError("expected 'sandwich' section")
    if len(rest) - 1 != lambda_size:
        raise ValueError(f"expected {lambda_size} sandwich rows, found {len(rest) - 1}")
    for order in (ng, i_size * ng * lambda_size):  # refused at the cap before any row is parsed
        if order > max_order():
            raise Overflow(f"order {order} exceeds configured maximum {max_order()}")
    group = from_table(ng, _int_rows(group_rows, ng, "group table"))
    sandwich = _int_rows(rest[1:], i_size, "sandwich")
    return rees_construct(i_size, lambda_size, group, sandwich)


def write_rms(rms: ReesMatrixSemigroup, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_rms_text(rms))


def read_rms(path) -> ReesMatrixSemigroup:
    with open(path) as fh:
        return loads_rms(fh.read())
