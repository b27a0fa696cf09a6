"""Property-based checks over random tables and corpus instances."""

import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

import semikit as sk
from semikit import core, simple
from semikit.core import associativity_witness
from semikit.corpus import census, gen_random_rees
from semikit.errors import NotAssociative, SemigroupError
from semikit.simple import dumps_rms, loads_rms
from test_core import int_rows_oracle


def brute_associative(table):
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


@st.composite
def random_tables(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    flat = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=n * n,
            max_size=n * n,
        )
    )
    return n, [flat[i * n : (i + 1) * n] for i in range(n)]


@given(random_tables())
@settings(max_examples=300, deadline=None)
def test_from_table_accepts_iff_brute_force_agrees(tn):
    n, table = tn
    expected = brute_associative(table)
    try:
        sk.from_table(n, table)
        accepted = True
    except NotAssociative:
        accepted = False
    assert accepted == expected


_CORPUS = None


def corpus3():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = census(3)
    return _CORPUS


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_closure_idempotence_and_leastness(data):
    S = data.draw(st.sampled_from(corpus3()))
    gens = data.draw(
        st.lists(st.integers(0, S.order - 1), min_size=1, max_size=S.order)
    )
    closed = sk.closure(S, gens)
    again = sk.closure(S, list(closed.members))
    assert again.members == closed.members
    # least closed superset of gens, against subset enumeration
    n = S.order
    for bits in range(1, 1 << n):
        members = {x for x in range(n) if bits >> x & 1}
        if set(gens) <= members and all(
            S.product(a, b) in members for a in members for b in members
        ):
            assert set(closed.members) <= members


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_monogenic_unique_idempotent(data):
    S = data.draw(st.sampled_from(corpus3()))
    s = data.draw(st.integers(0, S.order - 1))
    result = sk.monogenic(S, s)
    members = result.subset.members
    assert sum(1 for x in members if S.product(x, x) == x) == 1
    e = result.idempotent
    assert e in members and S.product(e, e) == e


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_cancellative_iff_group(data):
    S = data.draw(st.sampled_from(corpus3()))
    c = sk.is_cancellative(S)
    assert (c.left and c.right) == sk.is_group(S)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_greens_refinement_chain(data):
    S = data.draw(st.sampled_from(corpus3()))
    G = sk.greens_structure(S)

    def refines(fine, coarse):
        seen = {}
        return all(
            seen.setdefault(int(f), int(c)) == c for f, c in zip(fine, coarse)
        )

    assert refines(G.h_class, G.l_class)
    assert refines(G.h_class, G.r_class)
    assert refines(G.l_class, G.d_class)
    assert refines(G.r_class, G.d_class)
    assert refines(G.d_class, G.j_class)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_relabeling_preserves_validation(data):
    S = data.draw(st.sampled_from(corpus3()))
    n = S.order
    perm = data.draw(st.permutations(range(n)))
    p = np.asarray(perm, dtype=np.int64)
    inv = np.empty(n, dtype=np.int64)
    inv[p] = np.arange(n)
    relab = p[S.table[np.ix_(inv, inv)]]
    assert associativity_witness(relab) is None


@given(random_tables(max_n=5))
@settings(max_examples=300, deadline=None)
def test_light_witness_agrees_with_direct_scan(tn):
    # the generating-set path, forced by lowering the direct-check threshold
    n, table = tn
    with mock.patch.object(core, "DIRECT_CHECK_LIMIT", 0):
        witness = associativity_witness(np.asarray(table, dtype=np.int64))
    assert (witness is None) == brute_associative(table)
    if witness is not None:
        a, g, b = witness
        assert table[table[a][g]][b] != table[a][table[g][b]]


def first_violation(table, middles):
    """The first (a, g, c) of the loop over a, then g in middles, then c
    with (a*g)*c != a*(g*c), or None."""
    n = len(table)
    for a in range(n):
        for g in middles:
            for c in range(n):
                if table[table[a][g]][c] != table[a][table[g][c]]:
                    return (a, g, c)
    return None


@given(random_tables(max_n=6))
@settings(max_examples=300, deadline=None)
def test_associativity_witness_is_the_least_triple(tn):
    # up to the limit: the lexicographically first violation; above it (here
    # forced by a limit of 0): the least (a, g, c) with g a greedy generator.
    # _BLOCK = 1 scans one row a per block.
    n, table = tn
    arr = np.asarray(table, dtype=np.int64)
    middles = core._generating_set(arr)
    for block in (core._BLOCK, 1):
        with mock.patch.object(core, "_BLOCK", block):
            assert associativity_witness(arr) == first_violation(table, range(n))
            with mock.patch.object(core, "DIRECT_CHECK_LIMIT", 0):
                assert associativity_witness(arr) == first_violation(table, middles)


@given(st.text())
@example("a\n0")  # once read back as a third table row
@example("a\r\nb\rc\x0bd\x0ce\x1cf\x1dg\x1eh\x85i\u2028j\u2029")
@settings(max_examples=200, deadline=None)
def test_sg_roundtrip_any_name(name):
    # every str.splitlines boundary in the name is written as a space
    S = sk.FiniteSemigroup(np.array([[0, 1], [1, 0]]), name=name)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "s.sg")
        sk.write_sg(S, path)
        assert np.array_equal(sk.read_sg(path).table, S.table)
    lines = sk.dumps_sg(S).splitlines()
    assert lines[1:] == ["2", "0 1", "1 0"]
    if name.splitlines() == [name]:
        assert lines[0] == f"# {name}"


_DOCUMENTS = (
    dumps_rms(gen_random_rees(2, 1, "z2", seed=3)).splitlines(),
    sk.dumps_sg(sk.gen_standard("cyclic", 2)).splitlines(),
)
_LINES = st.lists(
    st.sampled_from(["0", "1", "2", "-1", str(2**70), "x", "group", "sandwich", "i_size"]),
    max_size=3,
).map(" ".join)


@st.composite
def near_documents(draw):
    """A valid .rms or .sg document, truncated, with lines dropped,
    duplicated or replaced."""
    lines = draw(st.sampled_from(_DOCUMENTS))
    out = []
    for line in lines[: draw(st.integers(0, len(lines)))]:
        op = draw(st.sampled_from(("keep", "keep", "drop", "dup", "replace")))
        if op == "replace":
            out.append(draw(_LINES))
        elif op != "drop":
            out.extend([line] * (2 if op == "dup" else 1))
    return "\n".join(out)


@given(near_documents())
@example("1\n" + str(2**70))
@example("i_size 1\nlambda_size 1\ngroup\n1\n0\nsandwich\n" + str(2**70))
@settings(max_examples=300, deadline=None)
def test_text_loaders_parse_or_raise_input_errors(text):
    for loads in (sk.loads_sg, loads_rms):
        try:
            loads(text)
        except (SemigroupError, ValueError):
            pass


def loaded(loads, text):
    """What loads(text) gives: its table and sandwich, or its exception
    type and message."""
    try:
        out = loads(text)
    except (SemigroupError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(out, sk.FiniteSemigroup):
        return out.table.tolist()
    return out.realized.table.tolist(), np.asarray(out.sandwich).tolist()


def assert_loads_like_per_line_parser(text):
    for loads in (sk.loads_sg, loads_rms):
        with mock.patch.object(core, "_int_rows", int_rows_oracle), mock.patch.object(
            simple, "_int_rows", int_rows_oracle
        ):
            expected = loaded(loads, text)
        assert loaded(loads, text) == expected


@given(near_documents())
@example("1\n" + str(2**70))
@example("1\n٠")
@example("2\n0 1 # c\n0 1\n")
@example("i_size 1\nlambda_size 1\ngroup\n1\nǾ\nsandwich\n0")
# at and past the int16 bounds that np.loadtxt reads below the default cap
@example("1\n32767")
@example("1\n32768")
@example("1\n-32769")
@example("1\n40000")
@example("2\n0 40000\n0 0")
@example("i_size 1\nlambda_size 1\ngroup\n1\n32767\nsandwich\n0")
@example("i_size 1\nlambda_size 1\ngroup\n1\n-32769\nsandwich\n0")
@example("i_size 2\nlambda_size 1\ngroup\n2\n0 40000\n0 0\nsandwich\n0 0")
@example("i_size 1\nlambda_size 1\ngroup\n1\n0\nsandwich\n32768")
@example("i_size 2\nlambda_size 1\ngroup\n1\n0\nsandwich\n0 40000")
@settings(max_examples=300, deadline=None)
def test_text_loaders_match_per_line_parser(text):
    assert_loads_like_per_line_parser(text)


_TOKENS = st.sampled_from(["0", "1", "2", "-1", "+1", "1_0", "#"]) | st.text(max_size=3)


@st.composite
def rows_of_text(draw):
    """An order n from 1 to 3 and n lines of up to n + 1 tokens, each a
    near-integer or any short Unicode text."""
    n = draw(st.integers(1, 3))
    line = st.lists(_TOKENS, max_size=n + 1).map(" ".join)
    return n, draw(st.lists(line, min_size=n, max_size=n))


@given(rows_of_text())
@settings(max_examples=400, deadline=None)
def test_sg_rows_of_any_text_match_per_line_parser(doc):
    # any Unicode: np.loadtxt misreads many non-ASCII letters as digits
    n, lines = doc
    assert_loads_like_per_line_parser("\n".join([str(n), *lines]))
    group = "\n".join(["i_size 1", "lambda_size 1", "group", str(n), *lines, "sandwich", "0"])
    assert_loads_like_per_line_parser(group)
