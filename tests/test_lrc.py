"""Field arithmetic, parity-check construction, exact minimum distance,
and the optimality/freeness cross-check for locally recoverable codes."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from sparsehg import lrc
from sparsehg.errors import (
    BadRange,
    BadShape,
    BudgetExceeded,
    DuplicateElement,
    InsufficientYield,
    NotACode,
    ParseError,
)

PRIMES = [2, 3, 5, 7, 11, 23]


def test_is_prime():
    assert all(lrc.is_prime(q) for q in PRIMES + [10007])
    assert not any(lrc.is_prime(q) for q in [0, 1, 4, 9, 15, 21, 25, 561])


def test_prime_field_rejects_composite():
    with pytest.raises(BadRange):
        lrc.PrimeField(4)
    with pytest.raises(BadRange):
        lrc.PrimeField(1)


@given(st.data())
def test_field_axioms(data):
    q = data.draw(st.sampled_from(PRIMES))
    f = lrc.PrimeField(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.sub(f.add(a, b), b) == a
    if a:
        assert f.mul(a, f.inv(a)) == 1
    assert f.pow(a, 3) == pow(a, 3, q)


def test_inverse_of_zero():
    with pytest.raises(BadRange):
        lrc.PrimeField(7).inv(0)


def test_fq_matrix_validation():
    f = lrc.PrimeField(7)
    assert lrc.fq_matrix(f, [[9, -1]]).entries == ((2, 6),)
    with pytest.raises(BadShape):
        lrc.FqMatrix(f, ((0, 1), (2,)))
    with pytest.raises(BadShape):
        lrc.FqMatrix(f, ((7,),))  # constructor wants reduced entries


def test_rank_small():
    f = lrc.PrimeField(5)
    assert lrc.rank(lrc.fq_matrix(f, [[1, 0], [0, 1]])) == 2
    assert lrc.rank(lrc.fq_matrix(f, [[0, 0], [0, 0]])) == 0
    assert lrc.rank(lrc.fq_matrix(f, [[1, 2], [2, 4]])) == 1
    assert lrc.rank(lrc.fq_matrix(f, [])) == 0


def test_rank_matches_oracle(rng):
    for _ in range(200):
        q = rng.choice(PRIMES)
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 7)
        entries = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        m = lrc.fq_matrix(lrc.PrimeField(q), entries)
        assert lrc.rank(m) == oracles.rank_mod(entries, q)


def test_rank_row_permutation_invariant(rng):
    q = 7
    entries = [[rng.randrange(q) for _ in range(6)] for _ in range(4)]
    f = lrc.PrimeField(q)
    base = lrc.rank(lrc.fq_matrix(f, entries))
    for _ in range(10):
        shuffled = entries[:]
        rng.shuffle(shuffled)
        assert lrc.rank(lrc.fq_matrix(f, shuffled)) == base


def test_vandermonde():
    f = lrc.PrimeField(7)
    vm = lrc.vandermonde((3, 5), 4, f)
    assert vm.entries == ((3, 5), (2, 4))  # powers 1 and 2
    assert lrc.vandermonde((0, 1, 2), 3, f).rows == 1
    with pytest.raises(BadShape):
        lrc.vandermonde((3, 5), 2, f)
    with pytest.raises(BadShape):
        lrc.vandermonde((), 4, f)
    with pytest.raises(DuplicateElement):
        lrc.vandermonde((3, 3), 4, f)


SMALL = lrc.LrcSpec(q=7, r=2, d=3, a_list=((0, 1, 2), (3, 4, 5)))
FLAGSHIP = lrc.LrcSpec(
    q=23, r=10, d=11, a_list=(tuple(range(11)), tuple(range(10, 21)))
)
PLANTED = lrc.LrcSpec(
    q=23, r=10, d=11, a_list=(tuple(range(11)), tuple(range(9, 20)))
)


def test_spec_validation():
    with pytest.raises(BadShape):
        lrc.LrcSpec(q=7, r=2, d=3, a_list=((0, 1),))
    with pytest.raises(DuplicateElement):
        lrc.LrcSpec(q=7, r=2, d=3, a_list=((0, 1, 1),))
    with pytest.raises(BadRange):
        lrc.LrcSpec(q=7, r=2, d=3, a_list=((0, 1, 7),))
    with pytest.raises(BadRange):
        lrc.LrcSpec(q=7, r=0, d=3, a_list=((0,),))
    with pytest.raises(BadRange):
        lrc.LrcSpec(q=7, r=2, d=2, a_list=((0, 1, 2),))
    with pytest.raises(BadRange):
        lrc.LrcSpec(q=7, r=2, d=3, a_list=())
    with pytest.raises(BadRange):
        lrc.LrcSpec(q=6, r=2, d=3, a_list=((0, 1, 2),))


def test_spec_properties_and_flags():
    assert (SMALL.m, SMALL.n) == (2, 6)
    assert SMALL.hypothesis_flags == (
        "d < 11: outside the stated equivalence hypotheses",
    )
    low_r = lrc.LrcSpec(q=7, r=2, d=5, a_list=((0, 1, 2),))
    assert len(low_r.hypothesis_flags) == 2  # d < 11 and r < d - 2
    assert FLAGSHIP.hypothesis_flags == ()


def test_spec_json_round_trip():
    text = SMALL.to_json()
    assert text.endswith("\n")
    assert lrc.LrcSpec.from_json(text) == SMALL
    with pytest.raises(ParseError):
        lrc.LrcSpec.from_json("{nope")
    with pytest.raises(ParseError):
        lrc.LrcSpec.from_json('{"q": 7, "r": 2, "d": 3}')


def test_parity_check_structure():
    h = lrc.parity_check(SMALL)
    assert h.entries == (
        (1, 1, 1, 0, 0, 0),
        (0, 0, 0, 1, 1, 1),
        (0, 1, 2, 3, 4, 5),
    )
    flag = lrc.parity_check(FLAGSHIP)
    assert (flag.rows, flag.cols) == (11, 22)  # m + d - 2 rows
    # every column meets exactly one locality row
    for j in range(flag.cols):
        assert sum(1 for i in range(FLAGSHIP.m) if flag.entries[i][j]) == 1


def test_code_dimension():
    assert lrc.code_dimension(SMALL) == 3
    assert lrc.code_dimension(FLAGSHIP) == 11


def test_min_distance_small_cases():
    f3 = lrc.PrimeField(3)
    assert lrc.min_distance(lrc.fq_matrix(f3, [[0, 0], [0, 0]])) == 1
    assert lrc.min_distance(lrc.fq_matrix(f3, [[1, 1, 1, 1]])) == 2
    assert lrc.min_distance(lrc.parity_check(SMALL)) == 3
    with pytest.raises(NotACode):
        lrc.min_distance(lrc.fq_matrix(f3, []))
    with pytest.raises(NotACode):
        lrc.min_distance(
            lrc.fq_matrix(lrc.PrimeField(5), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        )


def test_min_distance_budget_counts_leaves():
    # ones row over F_3: four size-1 leaves, then (0,1) is dependent on the
    # fifth leaf, so budget 5 exactly suffices and 4 does not
    m = lrc.fq_matrix(lrc.PrimeField(3), [[1, 1, 1, 1]])
    assert lrc.min_distance(m, budget=5) == 2
    with pytest.raises(BudgetExceeded) as exc:
        lrc.min_distance(m, budget=4)
    assert exc.value.checked_up_to == 1


def test_min_distance_matches_oracles(rng):
    for _ in range(80):
        q = rng.choice([2, 3, 5])
        rows = rng.randint(1, 4)
        cols = rng.randint(2, 7)
        entries = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        m = lrc.fq_matrix(lrc.PrimeField(q), entries)
        expected = oracles.min_dependent_columns(entries, q)
        if expected is None:
            with pytest.raises(NotACode):
                lrc.min_distance(m)
            continue
        d = lrc.min_distance(m)
        assert d == expected
        # same number through the codeword lens: minimum nonzero weight
        assert d == oracles.code_min_weight(entries, q)


# primes at the edges of the integer types the search computes and stores in
WIDTH_PRIMES = [181, 46337, 65537, 2**31 - 1]


def test_big_prime_elimination_is_exact():
    # [[1, a], [a, a^2]] has rank 1; in int64 the product a * a wraps
    q = 2**61 - 1
    a = 3**30 % q
    m = lrc.fq_matrix(lrc.PrimeField(q), [[1, a], [a, a * a % q]])
    assert lrc.rank(m) == 1
    assert lrc.min_distance(m) == 2


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_elimination_and_distance_match_oracles_for_every_prime_size(data):
    q = data.draw(st.sampled_from([2, 23] + WIDTH_PRIMES + [2**61 - 1]))
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.just(1), st.just(q - 1), st.integers(0, q - 1))
    entries = data.draw(
        st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    if rows > 1 and data.draw(st.booleans()):
        # a multiple of the first row: exercises products near q^2
        c = data.draw(st.integers(1, q - 1))
        entries[-1] = [x * c % q for x in entries[0]]
    if cols > 2 and data.draw(st.booleans()):
        # the last column a combination of two others: the search must
        # reduce it to exactly zero
        a, b = data.draw(st.lists(st.integers(0, cols - 2), min_size=2, max_size=2, unique=True))
        ca, cb = data.draw(st.integers(1, q - 1)), data.draw(st.integers(1, q - 1))
        for row in entries:
            row[-1] = (ca * row[a] + cb * row[b]) % q
    m = lrc.fq_matrix(lrc.PrimeField(q), entries)
    assert lrc.rank(m) == oracles.rank_mod(entries, q)
    expected = oracles.min_dependent_columns(entries, q)
    if expected is None:
        with pytest.raises(NotACode):
            lrc.min_distance(m)
    else:
        assert lrc.min_distance(m) == expected


@pytest.mark.parametrize("q", WIDTH_PRIMES + [2**61 - 1])
def test_batched_elimination_contracts_the_column_exactly(rng, q):
    # extending a state by column 0 must leave the later columns with
    # exactly the dependencies they have modulo column 0, in every state
    # of the batch, with entries at the top of the integer type's range
    search = lrc._ColumnSearch(np.ones((1, 2), np.int64), q, 1)
    values = [0, 1, 2, q - 2, q - 1]
    for _ in range(20):
        rows, cols = rng.randint(2, 4), rng.randint(3, 5)
        states = []
        for _ in range(6):
            # column 0's pivot comes from a later row, and the last column
            # is a combination of columns 0 and 1, so it stays parallel to
            # column 1 only if the arithmetic is exact
            state = [[rng.choice(values + [rng.randrange(q)]) for _ in range(cols)] for _ in range(rows)]
            state[0][0], state[-1][0] = 0, rng.choice([1, q - 1])
            a, b = rng.choice(values[1:]), rng.choice(values[1:])
            for row in state:
                row[-1] = (a * row[0] + b * row[1]) % q
            states.append(state)
        x = np.array(states, dtype=lrc._storage_dtype(q)).transpose(1, 2, 0)
        child = search._eliminate(x, 0)
        for i, state in enumerate(states):
            reduced = [[int(v) for v in row] for row in child[:, :, i]]
            for size in range(1, cols):
                for subset in itertools.combinations(range(cols - 1), size):
                    with_0 = [[row[0]] + [row[1 + u] for u in subset] for row in state]
                    alone = [[row[u] for u in subset] for row in reduced]
                    assert oracles.rank_mod(alone, q) == oracles.rank_mod(with_0, q) - 1


@pytest.fixture
def split_search(monkeypatch):
    """Shrinks the frontier cap so the distance search splits into slabs,
    and records every search run, to check the cap."""
    searches = []

    class Recorded(lrc._ColumnSearch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

    monkeypatch.setattr(lrc, "_ColumnSearch", Recorded)

    def shrink(cap):
        monkeypatch.setattr(lrc, "_FRONTIER_BYTES", cap)
        return searches

    return shrink


def _swept_sizes(n, budget):
    """Largest subset size whose every subset, with all smaller ones,
    fits in the budget: where an exhaustive sweep stops."""
    swept, size = 0, 0
    while size < n and swept + math.comb(n, size + 1) <= budget:
        size += 1
        swept += math.comb(n, size)
    return size


@pytest.mark.parametrize("cap", [None, 0, 256])
def test_min_distance_budget_matches_exhaustive_sweep(rng, split_search, cap):
    # the budget meters column subsets in size-then-lex order; the result
    # comes back exactly when the sweep up to the first dependent subset
    # fits, and is the same however the search is split into slabs
    searches = split_search(cap) if cap is not None else []
    for _ in range(60):
        q = rng.choice([2, 3, 5, 23])
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 7)
        entries = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        if not any(map(any, entries)):
            continue  # the zero matrix is answered before any search
        m = lrc.fq_matrix(lrc.PrimeField(q), entries)
        leaves = oracles.min_distance_leaves(entries, q)
        d = oracles.min_dependent_columns(entries, q)
        for budget in range(1, leaves + 2):
            if budget < leaves:
                with pytest.raises(BudgetExceeded) as exc:
                    lrc.min_distance(m, budget=budget)
                assert exc.value.checked_up_to == _swept_sizes(cols, budget)
            elif d is None:
                with pytest.raises(NotACode):
                    lrc.min_distance(m, budget=budget)
            else:
                assert lrc.min_distance(m, budget=budget) == d
    assert all(s.peak <= cap for s in searches)


@pytest.mark.parametrize("cap", [None, 1 << 16])
def test_flagship_distance_with_split_frontier(split_search, cap):
    # 1744435 subsets of sizes 1..10, then the first 11-subset, the first
    # block's columns, is dependent; unsplit, the search holds about 2.8 MB
    searches = split_search(cap) if cap is not None else []
    h = lrc.parity_check(FLAGSHIP)
    assert lrc.min_distance(h) == 11
    assert lrc.min_distance(h, budget=1744436) == 11
    with pytest.raises(BudgetExceeded) as exc:
        lrc.min_distance(h, budget=1744435)
    assert exc.value.checked_up_to == 10
    assert all(0 < s.peak <= cap for s in searches)


def test_singleton_bound():
    assert lrc.singleton_bound(22, 11, 10) == 11
    assert lrc.singleton_bound(6, 3, 2) == 3
    assert lrc.singleton_bound(10, 4, 2) == 6


def test_check_optimal_small():
    v = lrc.check_optimal(SMALL)
    assert v.holds
    assert v.witness == (3, 3, 3)  # (k, bound, d_actual)
    assert v.spanned == 3
    assert v.flags == SMALL.hypothesis_flags


def test_check_optimal_trivial_code():
    # one block, d large enough that the parities fill the whole space
    spec = lrc.LrcSpec(q=7, r=2, d=5, a_list=((0, 1, 2),))
    with pytest.raises(NotACode):
        lrc.check_optimal(spec)


def test_block_hypergraph():
    h = lrc.block_hypergraph(FLAGSHIP)
    assert h.n == 23
    assert h.r == 11
    assert h.multi
    assert h.edges == (tuple(range(1, 12)), tuple(range(11, 22)))


def test_freeness_profile():
    prof = lrc.freeness_profile(FLAGSHIP)
    assert prof.tag == "lrc"
    assert [(c.e, c.v) for c in prof.constraints] == [
        (i, 10 * i) for i in range(1, 6)
    ]
    assert [(c.e, c.v) for c in lrc.freeness_profile(SMALL).constraints] == [(1, 2)]


def test_check_equivalence_small():
    rep = lrc.check_equivalence(SMALL)
    assert rep.optimal and rep.free and rep.agree
    assert (rep.k, rep.bound, rep.d_actual) == (3, 3, 3)
    assert rep.to_report()["agree"] is True


def test_check_equivalence_planted():
    # blocks sharing two points: two blocks span 20 <= 2r, and the four
    # columns of the shared points are dependent, so both sides fail together
    rep = lrc.check_equivalence(PLANTED)
    assert not rep.optimal
    assert not rep.free
    assert rep.agree
    assert (rep.k, rep.bound, rep.d_actual) == (11, 11, 4)
    assert rep.flags == ()


def test_fqm_serialization_round_trip():
    h = lrc.parity_check(SMALL)
    text = lrc.serialize_fqm(h)
    assert text.splitlines()[0] == "3 6 7"
    assert lrc.parse_fqm(text) == h
    assert lrc.serialize_fqm(lrc.parity_check(FLAGSHIP)).splitlines()[0] == "11 22 23"


def test_fqm_parse_errors():
    with pytest.raises(ParseError):
        lrc.parse_fqm("")
    with pytest.raises(ParseError) as exc:
        lrc.parse_fqm("3 6\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        lrc.parse_fqm("1 2 7\n0 1\n0 2\n")  # too many rows
    with pytest.raises(ParseError) as exc:
        lrc.parse_fqm("1 3 7\n0 x 1\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        lrc.parse_fqm("1 3 7\n0 1\n")  # short row
    with pytest.raises(ParseError) as exc:
        lrc.parse_fqm("1 3 7\n0 7 1\n")
    assert exc.value.line == 2


def test_construct_lrc_rejects_bad_parameters():
    with pytest.raises(BadRange):
        lrc.construct_lrc(23, 10, 9, 2)
    with pytest.raises(BadRange):
        lrc.construct_lrc(23, 8, 11, 2)
    with pytest.raises(BadRange):
        lrc.construct_lrc(22, 10, 11, 2)
    with pytest.raises(BadRange):
        lrc.construct_lrc(11, 10, 11, 2)
    with pytest.raises(BadRange):
        lrc.construct_lrc(23, 10, 11, 0)


def test_construct_lrc_counting_bound():
    # 3 blocks of 11 points overlapping pairwise in <= 1 need 30 > 23 points
    with pytest.raises(InsufficientYield) as exc:
        lrc.construct_lrc(23, 10, 11, 3)
    assert "30 > q = 23" in str(exc.value)


def test_construct_lrc_starved_sample():
    # with the sampling floor disabled the power law leaves the expected
    # sample near zero at n = 23, so the retries run dry
    with pytest.raises(InsufficientYield):
        lrc.construct_lrc(23, 10, 11, 2, seed=5, max_retries=3, min_expected_edges=1.0)
