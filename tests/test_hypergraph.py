import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_hypergraph
from sparsehg import (
    BadIndex,
    DuplicateEdge,
    Hypergraph,
    NonUniform,
    OutOfRange,
    ParseError,
    canonicalize,
    parse_hg,
    serialize_hg,
)


def test_canonicalize_sorts_within_and_across():
    h = canonicalize([[3, 1, 2]], 5)
    assert h.edges == ((1, 2, 3),)
    h = canonicalize([[4, 5, 6], [1, 2, 3]], 6)
    assert h.edges == ((1, 2, 3), (4, 5, 6))


def test_canonicalize_duplicate_rejected_unless_multi():
    with pytest.raises(DuplicateEdge):
        canonicalize([[1, 2, 3], [3, 2, 1]], 4)
    h = canonicalize([[1, 2, 3], [1, 2, 3]], 4, multi=True)
    assert h.m == 2 and h.edges[0] == h.edges[1]


def test_canonicalize_errors():
    with pytest.raises(NonUniform):
        canonicalize([[1, 2, 3], [1, 2]], 5)
    with pytest.raises(OutOfRange):
        canonicalize([[1, 2, 9]], 5)
    with pytest.raises(OutOfRange):
        canonicalize([[0, 1, 2]], 5)
    with pytest.raises(NonUniform):
        canonicalize([[1, 2, 2]], 5)
    with pytest.raises(OutOfRange):
        canonicalize([], 0, r=3)
    with pytest.raises(NonUniform):
        canonicalize([], 5)  # no edge to read r from
    # parse_hg rejects r < 1, so no such hypergraph may be built
    with pytest.raises(NonUniform):
        canonicalize([()], 3)  # r read off an empty first edge
    with pytest.raises(NonUniform):
        canonicalize([], 3, r=0)


def test_canonicalize_idempotent(rng):
    for _ in range(50):
        h = random_hypergraph(rng)
        again = canonicalize([list(e) for e in h.edges], h.n, multi=h.multi, r=h.r)
        assert again.edges == h.edges


def test_union_span_examples():
    h = canonicalize([[1, 2, 3], [3, 4, 5]], 5)
    assert h.union_span([0, 1]) == 5
    assert h.union_span([0]) == 3
    assert h.union_span([1, 0]) == 5


def test_union_span_bad_index():
    h = canonicalize([[1, 2, 3]], 3)
    with pytest.raises(BadIndex):
        h.union_span([1])
    with pytest.raises(BadIndex):
        h.union_span([-1])
    with pytest.raises(BadIndex):
        h.union_span([0, 0])


def test_union_span_matches_naive_recount(rng):
    for _ in range(200):
        h = random_hypergraph(rng)
        k = rng.randint(1, h.m)
        idx = rng.sample(range(h.m), k)
        assert h.union_span(idx) == oracles.span(h.edges, idx)


def test_union_span_bounds(rng):
    for _ in range(100):
        h = random_hypergraph(rng)
        idx = rng.sample(range(h.m), rng.randint(1, h.m))
        s = h.union_span(idx)
        assert h.r <= s <= h.r * len(idx)


def test_parse_minimal():
    h = parse_hg("3 1 3\n1 2 3\n")
    assert (h.n, h.m, h.r) == (3, 1, 3)
    assert h.edges == ((1, 2, 3),)


def test_roundtrip_canonical(rng):
    for _ in range(50):
        h = random_hypergraph(rng, multi=rng.random() < 0.3)
        text = serialize_hg(h)
        assert serialize_hg(parse_hg(text)) == text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as ei:
        parse_hg("bogus\n")
    assert ei.value.line == 1
    with pytest.raises(ParseError) as ei:
        parse_hg("4 2 3\n1 2 3\n1 2\n")
    assert ei.value.line == 3
    with pytest.raises(ParseError):
        parse_hg("4 2 3\n1 2 3\n")  # declared two edges, got one
    for text, line in [
        ("", 1),
        ("4 x 3\n", 1),
        ("0 1 3\n1 2 3\n", 1),
        ("4 1 3\n1 y 3\n", 2),
        ("4 2 3\n1 2 3\n2 3 5\n", 3),
    ]:
        with pytest.raises(ParseError) as ei:
            parse_hg(text)
        assert ei.value.line == line, text


def test_parse_rejects_noncanonical_order():
    with pytest.raises(ParseError):
        parse_hg("5 2 3\n2 3 4\n1 2 3\n")
    with pytest.raises(ParseError):
        parse_hg("5 1 3\n3 2 1\n")


def test_parse_rejects_duplicate_without_multi_flag():
    with pytest.raises(ParseError):
        parse_hg("4 2 3\n1 2 3\n1 2 3\n")
    h = parse_hg("4 2 3 multi\n1 2 3\n1 2 3\n")
    assert h.multi and h.m == 2



def test_serialize_rejects_repeated_edges_without_multi_flag():
    # the constructor takes repeated edges with multi left False; the text
    # would fail parse_hg, so serialize_hg refuses to write it
    h = Hypergraph(9, 3, ((1, 2, 3), (1, 2, 3), (4, 5, 6)), False)
    with pytest.raises(DuplicateEdge):
        serialize_hg(h)
    text = serialize_hg(Hypergraph(9, 3, h.edges, True))
    assert parse_hg(text) == Hypergraph(9, 3, h.edges, True)

@given(st.integers(2, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(r, data):
    n = data.draw(st.integers(r, 9))
    pool = list(itertools.combinations(range(1, n + 1), r))
    edges = data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=min(8, len(pool)), unique=True)
    )
    h = canonicalize([list(e) for e in edges], n, r=r)
    assert parse_hg(serialize_hg(h)) == h


def test_subhypergraph_keeps_invariants():
    h = canonicalize([[1, 2, 3], [2, 3, 4], [3, 4, 5]], 5)
    sub = h.subhypergraph([2, 0])
    assert sub.edges == ((1, 2, 3), (3, 4, 5))
    assert sub.n == h.n and sub.r == h.r
    with pytest.raises(BadIndex):
        h.subhypergraph([0, 3])


def test_hypergraph_is_hashable_value():
    a = canonicalize([[1, 2, 3]], 4)
    b = canonicalize([[3, 2, 1]], 4)
    assert a == b and hash(a) == hash(b)
    assert isinstance(a, Hypergraph)
