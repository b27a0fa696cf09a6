"""Completely simple semigroups: recognition, Rees matrix construction and
decomposition, subsemigroup classification, band predicates, and the
subsemigroup counting bound."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    FiniteSemigroup,
    SemigroupMorphism,
    SubsetHandle,
    _closure_mask,
    _int_rows,
    from_table,
    idempotents,
    is_group,
    is_monoid,
    max_order,
    subsemigroup_table,
)
from .errors import (
    BadSandwichEntry,
    InvariantViolation,
    NotAGroup,
    NotCompletelySimple,
    NotIdempotent,
    Overflow,
    SearchCapExceeded,
)
from .greens import greens_structure
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

    def index(self, i: int, g: int, lam: int) -> int:
        return (i * self.group.order + g) * self.lambda_size + lam

    def triple(self, idx: int) -> tuple[int, int, int]:
        lam = idx % self.lambda_size
        rest = idx // self.lambda_size
        return rest // self.group.order, rest % self.group.order, lam


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
    m = i_size * ng * lambda_size
    if m > max_order():
        raise Overflow(f"order {m} exceeds configured maximum {max_order()}")
    GT = group.table
    table = np.empty((m, m), dtype=np.int64)
    for i in range(i_size):
        for g in range(ng):
            for lam in range(lambda_size):
                a = (i * ng + g) * lambda_size + lam
                for j in range(i_size):
                    # g * p[lam, j] * h for all h, vectorized over (h, mu)
                    gp = GT[g, P[lam, j]]
                    prods = GT[gp, :]  # over h
                    for h in range(ng):
                        base = (i * ng + prods[h]) * lambda_size
                        row_start = (j * ng + h) * lambda_size
                        table[a, row_start : row_start + lambda_size] = base + np.arange(
                            lambda_size
                        )
    realized = FiniteSemigroup(table, name=name)
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
    if not is_completely_simple(S):
        raise NotCompletelySimple("rees_decompose requires a completely simple semigroup")
    E = idempotents(S).members
    if e is None:
        e = E[0]
    if S.product(e, e) != e:
        raise NotIdempotent(f"{e} is not idempotent")
    T = S.table
    e_set = set(E)
    se = np.unique(T[:, e])
    es = np.unique(T[e, :])
    i_elements = tuple(int(x) for x in se if int(x) in e_set)
    lambda_elements = tuple(int(x) for x in es if int(x) in e_set)
    group_elements = tuple(int(x) for x in np.unique(T[T[e, :], e]))  # eSe = H_e
    group, incl = subsemigroup_table(S, group_elements)
    if not is_group(group):
        raise InvariantViolation("H-class of e is not a group")
    gpos = {x: k for k, x in enumerate(group_elements)}
    P = np.empty((len(lambda_elements), len(i_elements)), dtype=np.int64)
    for li, lam in enumerate(lambda_elements):
        for ii, i in enumerate(i_elements):
            p = S.product(lam, i)
            if p not in gpos:
                raise InvariantViolation("sandwich product escapes H_e")
            P[li, ii] = gpos[p]
    rms = rees_construct(len(i_elements), len(lambda_elements), group, P)
    phi_map = []
    for idx in range(rms.realized.order):
        i, g, lam = rms.triple(idx)
        s = S.product(S.product(i_elements[i], group_elements[g]), lambda_elements[lam])
        phi_map.append(s)
    phi = SemigroupMorphism(rms.realized, S, tuple(phi_map))
    if not phi.is_isomorphism:
        raise InvariantViolation("Rees coordinate map is not an isomorphism")
    psi = phi.inverse()
    agreement = tuple(
        _closed_form_inverse(S, e, s, rms, group_elements, i_elements, lambda_elements)
        == psi(s)
        for s in range(S.order)
    )
    return ReesDecomposition(
        S, int(e), i_elements, lambda_elements, group_elements, rms, phi, psi, agreement
    )


def _closed_form_inverse(S, e, s, rms, group_elements, i_elements, lambda_elements):
    """The candidate closed form s -> (s(ses)^-1, ses, (ese)^-1 s), with
    inverses taken inside H_e; returns the realized index or None when a
    component falls outside the expected coordinate sets."""
    T = S.table
    ses = T[T[s, e], s]
    ese = T[T[e, s], e]
    gpos = {x: k for k, x in enumerate(group_elements)}
    if ses not in gpos or ese not in gpos:
        return None
    identity = is_monoid(rms.group)
    GT = rms.group.table
    inv_ses = group_elements[int(np.flatnonzero(GT[gpos[ses]] == identity)[0])]
    inv_ese = group_elements[int(np.flatnonzero(GT[gpos[ese]] == identity)[0])]
    i_part = T[s, inv_ses]
    lam_part = T[inv_ese, s]
    try:
        i = i_elements.index(int(i_part))
        lam = lambda_elements.index(int(lam_part))
    except ValueError:
        return None
    return rms.index(i, gpos[int(ses)], lam)


class SubsemigroupDecomposition(NamedTuple):
    j: SubsetHandle  # J = Te ∩ E(T), a subset of I
    w: SubsetHandle  # W = H_e^T, a subgroup of G
    gamma: SubsetHandle  # Gamma = eT ∩ E(T), a subset of Lambda
    decomposition: ReesDecomposition  # T's own Rees decomposition at e


def subsemigroup_decompose(S: FiniteSemigroup, T: SubsetHandle) -> SubsemigroupDecomposition:
    """Classify a subsemigroup T of a completely simple S as
    M(J, W, Gamma, P restricted to Gamma x J) at a shared base idempotent."""
    if not is_completely_simple(S):
        raise NotCompletelySimple("subsemigroup_decompose requires completely simple S")
    sub, incl = subsemigroup_table(S, T.members)  # raises NotASubsemigroup
    if not is_completely_simple(sub):
        raise InvariantViolation("subsemigroup of a completely simple semigroup must be one")
    e_sub = idempotents(sub).members[0]
    e = incl(e_sub)
    dec_S = rees_decompose(S, e)
    dec_T = rees_decompose(sub, e_sub)

    j_members = tuple(incl(x) for x in dec_T.i_elements)
    gamma_members = tuple(incl(x) for x in dec_T.lambda_elements)
    w_members = tuple(incl(x) for x in dec_T.group_elements)
    if not set(j_members) <= set(dec_S.i_elements):
        raise InvariantViolation("J is not contained in I")
    if not set(gamma_members) <= set(dec_S.lambda_elements):
        raise InvariantViolation("Gamma is not contained in Lambda")
    if not set(w_members) <= set(dec_S.group_elements):
        raise InvariantViolation("W is not contained in G")
    # T's sandwich must be the restriction of S's to Gamma x J
    for li, lam in enumerate(gamma_members):
        for ji, jj in enumerate(j_members):
            s_entry = dec_S.group_elements[
                dec_S.rms.sandwich[
                    dec_S.lambda_elements.index(lam), dec_S.i_elements.index(jj)
                ]
            ]
            t_entry = incl(dec_T.group_elements[dec_T.rms.sandwich[li, ji]])
            if s_entry != t_entry:
                raise InvariantViolation("sandwich matrix does not restrict correctly")
    return SubsemigroupDecomposition(
        SubsetHandle(S, j_members, "idempotents"),
        SubsetHandle(S, w_members, "subsemigroup"),
        SubsetHandle(S, gamma_members, "idempotents"),
        dec_T,
    )


class BandPredicates(NamedTuple):
    is_band: bool
    is_rectangular_band: bool
    is_rectangular_group: bool


def normalize_sandwich(rms: ReesMatrixSemigroup) -> np.ndarray:
    """Re-base P by row/column group translations so row 0 and column 0
    become the identity; yields an isomorphic Rees matrix semigroup."""
    G = rms.group
    GT = G.table
    identity = is_monoid(G)
    inv = np.empty(G.order, dtype=np.int64)
    for g in range(G.order):
        inv[g] = int(np.flatnonzero(GT[g] == identity)[0])
    P = rms.sandwich
    out = np.empty_like(P)
    for lam in range(rms.lambda_size):
        for i in range(rms.i_size):
            # p'_{lam,i} = p_{lam,0}^-1 * p_{lam,i} * p_{0,i}^-1 * p_{0,0}
            v = GT[inv[P[lam, 0]], P[lam, i]]
            v = GT[v, inv[P[0, i]]]
            out[lam, i] = GT[v, P[0, 0]]
    return out


def band_predicates(S: FiniteSemigroup) -> BandPredicates:
    T = S.table
    n = S.order
    diag = T[np.arange(n), np.arange(n)]
    band = bool((diag == np.arange(n)).all())
    rect_band = band and all(
        T[T[a, b], a] == a for a in range(n) for b in range(n)
    )
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
    if not is_completely_simple(S):
        raise NotCompletelySimple("h_finiteness requires a completely simple semigroup")
    dec = rees_decompose(S)
    count = len(greens_structure(S).h_classes)
    if count != dec.rms.i_size * dec.rms.lambda_size:
        raise InvariantViolation("H-class count differs from |I|*|Lambda|")
    return HFiniteness(count, dec.rms.i_size, dec.rms.lambda_size)


def enumerate_subsemigroups(
    S: FiniteSemigroup, cap: int = DEFAULT_SEARCH_CAP, verify: bool = True
) -> list[SubsetHandle]:
    """All nonempty product-closed subsets, by closure-based generation.

    When S is completely simple and verify is set, every subsemigroup is
    pushed through the (J, W, Gamma) classification and the counting bound
    sum over subgroups W of 2^|I| * 2^|Lambda| is asserted.
    """
    if S.order > cap:
        raise SearchCapExceeded(f"order {S.order} exceeds cap {cap}")
    T = S.table

    def generated(gens) -> tuple[int, ...]:
        return tuple(int(x) for x in np.flatnonzero(_closure_mask(T, gens)))

    found: set[tuple[int, ...]] = set()
    frontier: list[tuple[int, ...]] = [()]
    while frontier:
        base = frontier.pop()
        for x in range(S.order):
            if x in base:
                continue
            members = generated(base + (x,))
            if members not in found:
                found.add(members)
                frontier.append(members)
    result = [
        SubsetHandle(S, members, "subsemigroup")
        for members in sorted(found, key=lambda m: (len(m), m))
    ]
    if verify and is_completely_simple(S):
        _verify_subsemigroup_census(S, result)
    return result


def _verify_subsemigroup_census(S: FiniteSemigroup, subs: Sequence[SubsetHandle]) -> None:
    dec = rees_decompose(S)
    for T in subs:
        subsemigroup_decompose(S, T)
    n_subgroups = len(enumerate_subsemigroups(dec.rms.group, cap=max(16, dec.rms.group.order), verify=False))
    bound = n_subgroups * (2 ** dec.rms.i_size) * (2 ** dec.rms.lambda_size)
    if len(subs) > bound:
        raise InvariantViolation(
            f"subsemigroup count {len(subs)} exceeds bound {bound}"
        )


def subsemigroup_of_group_check(G: FiniteSemigroup, T: SubsetHandle) -> bool:
    """A subsemigroup of a finite group is a subgroup: contains the identity
    and is inverse-closed.  Failure is an InvariantViolation."""
    if not is_group(G):
        raise NotAGroup("subsemigroup_of_group_check requires a group")
    sub, _ = subsemigroup_table(G, T.members)  # raises NotASubsemigroup
    identity = is_monoid(G)
    if identity not in T.member_set:
        raise InvariantViolation("subsemigroup of a group missing the identity")
    for x in T.members:
        if not any(G.product(x, y) == identity for y in T.members):
            raise InvariantViolation(f"subsemigroup of a group not inverse-closed at {x}")
    return True


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
