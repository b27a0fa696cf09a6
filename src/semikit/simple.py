"""Completely simple semigroups: recognition, Rees matrix construction and
decomposition, subsemigroup classification and enumeration, and band
predicates.  Nothing here re-proves its own answers: the verify harness
replays the Rees and classification theorems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    FiniteSemigroup,
    SemigroupMorphism,
    SubsetHandle,
    _BLOCK,
    _check_order,
    _derived,
    _int_rows,
    _positions,
    from_table,
    is_group,
    is_monoid,
    subsemigroup_table,
)
from .errors import (
    BadSandwichEntry,
    NotAGroup,
    NotCompletelySimple,
    NotIdempotent,
    OutOfRange,
    SearchCapExceeded,
)
from .greens import _right_ideal_members, greens_structure
from .ideals import kernel_members

DEFAULT_SEARCH_CAP = 16


def is_simple(S: FiniteSemigroup) -> bool:
    """No proper two-sided ideal: the kernel is all of S."""
    return len(kernel_members(S)) == S.order


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


def rees_construct(
    i_size: int,
    lambda_size: int,
    group: FiniteSemigroup,
    sandwich,
    name: Optional[str] = None,
) -> ReesMatrixSemigroup:
    """Build M(I, G, Lambda, P): product (i,g,lam)(j,h,mu) = (i, g p[lam,j] h, mu)."""
    if i_size < 1 or lambda_size < 1:
        raise ValueError("i_size and lambda_size must be positive")
    if not is_group(group):
        raise NotAGroup("Rees matrix semigroups require a group component")
    try:
        P = np.asarray(sandwich, dtype=np.int64)
    except OverflowError:
        raise BadSandwichEntry(f"sandwich entries must lie in [0,{group.order})") from None
    if P.shape != (lambda_size, i_size):
        raise ValueError(f"sandwich must be {lambda_size}x{i_size}, got {P.shape}")
    if P.size and (P.min() < 0 or P.max() >= group.order):
        raise BadSandwichEntry(f"sandwich entries must lie in [0,{group.order})")
    ng = group.order
    m = _check_order(i_size * ng * lambda_size)
    GT = group.table
    # coordinates of every index; a = (i, g, lam) on rows, b = (j, h, mu) on columns
    i, g, lam = np.unravel_index(np.arange(m), (i_size, ng, lambda_size))
    gp = GT[g[:, None], P[lam]]  # g * p[lam, j] per row and j
    table = gp[:, i]
    table *= ng
    table += g  # flat index of (g p[lam, j], h) in the group table
    table = GT.ravel()[table]
    table += (i * ng)[:, None]
    table *= lambda_size
    table += lam
    # M(I, G, Lambda, P) is associative for every group G and sandwich P
    realized = FiniteSemigroup(table, name=name, validate=False)
    return ReesMatrixSemigroup(i_size, lambda_size, group, P, realized)


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
    psi: SemigroupMorphism  # source -> realized, the exact inverse of phi
    closed_form_agreement: tuple[bool, ...]  # per source element, whether the
    # printed closed-form inverse (s(ses)^-1, ses, (ese)^-1 s) matches psi


def rees_decompose(S: FiniteSemigroup, e: Optional[int] = None) -> ReesDecomposition:
    if e is not None and not 0 <= e < S.order:
        raise OutOfRange(f"element {e} not in [0,{S.order})")
    if not is_completely_simple(S):
        raise NotCompletelySimple("rees_decompose requires a completely simple semigroup")
    T = S.table
    is_idem = T.diagonal() == np.arange(S.order)
    e = int(np.argmax(is_idem)) if e is None else int(e)
    if not is_idem[e]:
        raise NotIdempotent(f"{e} is not idempotent")
    se = _right_ideal_members(T.T, e)  # Se = S^1 e, as e = ee
    es = _right_ideal_members(T, e)
    i_arr = se[is_idem[se]]
    lam_arr = es[is_idem[es]]
    g_arr = np.unique(T[T[e, :], e])  # eSe = H_e
    group, _ = subsemigroup_table(S, g_arr)
    gpos = _positions(S.order, g_arr)
    # an entry outside H_e stays -1 and is refused as a BadSandwichEntry
    P = gpos[T[lam_arr[:, None], i_arr]]
    rms = rees_construct(i_arr.size, lam_arr.size, group, P)
    # (i, g, lam) -> i*g*lam, laid out in the realized index order
    phi_map = T[T[i_arr[:, None], g_arr][:, :, None], lam_arr].ravel()
    phi = SemigroupMorphism(rms.realized, S, tuple(phi_map))
    psi = phi.inverse()  # refuses a map that is not an isomorphism
    agreement = _closed_form_agreement(S, e, rms, gpos, i_arr, lam_arr, g_arr, psi)
    i_elements, lambda_elements, group_elements = (
        tuple(a.tolist()) for a in (i_arr, lam_arr, g_arr)
    )
    return ReesDecomposition(
        S, e, i_elements, lambda_elements, group_elements, rms, phi, psi, agreement
    )


def _group_inverses(G: FiniteSemigroup) -> np.ndarray:
    """inv[g] for every element g of the group G."""
    return np.argmax(G.table == is_monoid(G), axis=1)


def _closed_form_agreement(S, e, rms, gpos, i_arr, lam_arr, g_arr, psi) -> tuple[bool, ...]:
    """Per element s, whether the candidate closed form
    s -> (s(ses)^-1, ses, (ese)^-1 s), with inverses taken inside H_e,
    equals psi(s); a component outside its coordinate set disagrees."""
    T = S.table
    n = S.order
    s = np.arange(n)
    ses = T[T[:, e], s]
    ese = T[T[e, :], e]
    inv = _group_inverses(rms.group)
    # a -1 position reads a wrapped entry; ok masks it out
    inv_ses = g_arr[inv[gpos[ses]]]
    inv_ese = g_arr[inv[gpos[ese]]]
    i = _positions(n, i_arr)[T[s, inv_ses]]
    lam = _positions(n, lam_arr)[T[inv_ese, s]]
    ok = (gpos[ses] >= 0) & (gpos[ese] >= 0) & (i >= 0) & (lam >= 0)
    closed = (i * rms.group.order + gpos[ses]) * rms.lambda_size + lam
    return tuple(bool(x) for x in ok & (closed == np.asarray(psi.map)))


class SubsemigroupDecomposition(NamedTuple):
    j: SubsetHandle  # J = Te ∩ E(T), a subset of I
    w: SubsetHandle  # W = H_e^T, a subgroup of G
    gamma: SubsetHandle  # Gamma = eT ∩ E(T), a subset of Lambda
    decomposition: ReesDecomposition  # T's own Rees decomposition at e


def subsemigroup_decompose(S: FiniteSemigroup, T: SubsetHandle) -> SubsemigroupDecomposition:
    """Classify a subsemigroup T of a completely simple S as
    M(J, W, Gamma, P restricted to Gamma x J), in T's own Rees coordinates
    at its first idempotent."""
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


def normalize_sandwich(rms: ReesMatrixSemigroup) -> np.ndarray:
    """Re-base P by row/column group translations so row 0 and column 0
    become the identity; yields an isomorphic Rees matrix semigroup."""
    GT = rms.group.table
    inv = _group_inverses(rms.group)
    P = rms.sandwich
    # p'_{lam,i} = p_{lam,0}^-1 * p_{lam,i} * p_{0,i}^-1 * p_{0,0}
    v = GT[inv[P[:, :1]], P]
    v = GT[v, inv[P[:1, :]]]
    return GT[v, P[0, 0]]


def band_predicates(S: FiniteSemigroup) -> BandPredicates:
    T, idx = S.table, np.arange(S.order)[:, None]
    band = bool((T.diagonal() == idx[:, 0]).all())
    rect_band = band and bool((T[T, idx] == idx).all())  # [a, b]: (ab)a = a
    rect_group = False
    if is_completely_simple(S):
        dec = rees_decompose(S)
        norm = normalize_sandwich(dec.rms)
        rect_group = bool((norm == is_monoid(dec.rms.group)).all())
    return BandPredicates(band, rect_band, rect_group)


class HFiniteness(NamedTuple):
    h_class_count: int
    i_size: int
    lambda_size: int


def h_finiteness(S: FiniteSemigroup) -> HFiniteness:
    """H-class count of a completely simple semigroup; equals |I|*|Lambda|.
    Every finite instance is H-finite."""
    dec = rees_decompose(S)  # raises NotCompletelySimple
    count = len(greens_structure(S).h_classes)
    return HFiniteness(count, dec.rms.i_size, dec.rms.lambda_size)


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
    monogenic = _close(np.eye(n, dtype=bool), S.table)  # row x: <x>
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
            k, a, b = np.nonzero(block[:, :, None] & block[:, None, :])
            block[k, table[a, b]] = True
    return masks


def subsemigroup_of_group_check(G: FiniteSemigroup, T: SubsetHandle) -> bool:
    """Whether the subsemigroup T of the group G is a subgroup: contains the
    identity and is inverse-closed.  On a finite group it always is; the
    verify harness records a False verdict as a failure."""
    if not is_group(G):
        raise NotAGroup("subsemigroup_of_group_check requires a group")
    subsemigroup_table(G, T.members)  # raises NotASubsemigroup
    identity, m = is_monoid(G), list(T.members)
    return identity in T.member_set and bool((G.table[np.ix_(m, m)] == identity).any(axis=1).all())


# ---------------------------------------------------------------------------
# .rms text format


def dumps_rms(rms: ReesMatrixSemigroup) -> str:
    lines = [
        "# rees matrix semigroup",
        f"i_size {rms.i_size}",
        f"lambda_size {rms.lambda_size}",
        "group",
    ]
    lines.append(str(rms.group.order))
    lines.extend(" ".join(str(int(v)) for v in row) for row in rms.group.table)
    lines.append("sandwich")
    lines.extend(" ".join(str(int(v)) for v in row) for row in rms.sandwich)
    return "\n".join(lines) + "\n"


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
    group = from_table(ng, _int_rows(group_rows, ng, "group table"))
    rest = rows[4 + ng :]
    if not rest or rest[0] != "sandwich":
        raise ValueError("expected 'sandwich' section")
    if len(rest) - 1 != lambda_size:
        raise ValueError(f"expected {lambda_size} sandwich rows, found {len(rest) - 1}")
    sandwich = _int_rows(rest[1:], i_size, "sandwich")
    return rees_construct(i_size, lambda_size, group, sandwich)


def write_rms(rms: ReesMatrixSemigroup, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_rms(rms))


def read_rms(path) -> ReesMatrixSemigroup:
    with open(path) as fh:
        return loads_rms(fh.read())
