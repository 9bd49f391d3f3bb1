"""Field arithmetic, parity-check construction, exact minimum distance,
and the optimality/freeness cross-check for locally recoverable codes."""

import itertools
import json
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from sparsehg import builder, freeness, lrc
from sparsehg.errors import (
    BadRange,
    BadShape,
    BudgetExceeded,
    DuplicateElement,
    InsufficientYield,
    NotACode,
    ParseError,
    RetriesExhausted,
)

PRIMES = [2, 3, 5, 7, 11, 23]


def test_is_prime():
    assert all(lrc.is_prime(q) for q in PRIMES + [10007])
    assert not any(lrc.is_prime(q) for q in [0, 1, 4, 9, 15, 21, 25, 561])
    # 41**2, and 151 * 751 * 28351 (no factor <= 37, a strong pseudoprime
    # to bases 2, 3, 5 and 7) pass trial division by the witnesses
    assert not lrc.is_prime(1681) and not lrc.is_prime(3215031751)
    assert lrc.is_prime(2**61 - 1)


def test_prime_field_rejects_composite():
    with pytest.raises(BadRange):
        lrc.PrimeField(4)
    with pytest.raises(BadRange):
        lrc.PrimeField(1)
    # a strong pseudoprime to all 12 bases of is_prime, over which a
    # diagonal matrix of nonzero entries would have rank 1; and a prime
    # past 2**64, beyond the range where is_prime is proven exact
    pseudoprime = 399165290221 * 798330580441
    for q in (pseudoprime, 2**64 + 13):
        with pytest.raises(BadRange, match="below 2\\*\\*64"):
            lrc.PrimeField(q)


@given(st.data())
def test_field_axioms(data):
    # the field arithmetic the library runs is the elimination in _eliminate:
    # its ranks must agree with plain modular algebra
    q = data.draw(st.sampled_from(PRIMES))
    f = lrc.PrimeField(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    for rows in ([[a]], [[a, b], [c * a, c * b]], [[a, b], [c, a * b + c]]):
        assert lrc.rank(lrc.fq_matrix(f, rows)) == oracles.rank_mod(rows, q)
    assert lrc.rank(lrc.fq_matrix(f, [[a, b], [c * a, c * b]])) == (1 if a or b else 0)
    assert f.pow(a, 3) == pow(a, 3, q)


def test_inverse_of_zero():
    # elimination never takes a zero entry as a pivot
    f = lrc.PrimeField(7)
    assert lrc._row_basis(lrc.fq_matrix(f, [[0]])).tolist() == []
    assert lrc._row_basis(lrc.fq_matrix(f, [[0, 3], [0, 5]])).tolist() == [[0, 3]]
    assert lrc.rank(lrc.fq_matrix(f, [[0, 0], [0, 5]])) == oracles.rank_mod([[0, 0], [0, 5]], 7) == 1


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


# primes for matrices with more rows than rank
ROW_PRIMES = [2, 3, 23, 257, 2**61 - 1]


def _more_rows_than_rank(rng, entries, q):
    """entries with a zero row, a repeated row and a scalar multiple of a
    row added, in shuffled order."""
    c = rng.randrange(1, q)
    rows = entries + [
        [0] * len(entries[0]),
        list(rng.choice(entries)),
        [x * c % q for x in rng.choice(entries)],
    ]
    rng.shuffle(rows)
    return rows


def test_rank_matches_oracle(rng):
    for _ in range(200):
        q = rng.choice(PRIMES)
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 7)
        entries = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        m = lrc.fq_matrix(lrc.PrimeField(q), entries)
        assert lrc.rank(m) == oracles.rank_mod(entries, q)
    for _ in range(200):
        q = rng.choice(ROW_PRIMES)
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 7)
        entries = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        entries = _more_rows_than_rank(rng, entries, q)
        m = lrc.fq_matrix(lrc.PrimeField(q), entries)
        assert lrc.rank(m) == oracles.rank_mod(entries, q) < len(entries)


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
    assert len(low_r.hypothesis_flags) == 2  # d < 11 and r < d - 1
    assert FLAGSHIP.hypothesis_flags == ()
    # at r = d - 2, k = (m - 1)r, so the bound n - k - ceil(k/r) + 2 is
    # d + 1: two disjoint blocks are free, yet the code is not optimal,
    # and the report must say the sides need not agree there
    disjoint = lrc.LrcSpec(q=31, r=9, d=11, a_list=(tuple(range(10)), tuple(range(10, 20))))
    assert disjoint.hypothesis_flags == ("r < d - 1: outside the stated equivalence hypotheses",)
    report = lrc.check_equivalence(disjoint)
    assert (report.free, report.optimal, report.bound, report.d_actual) == (True, False, 12, 11)
    assert report.flags == disjoint.hypothesis_flags


def test_spec_json_round_trip():
    text = SMALL.to_json()
    assert text.endswith("\n")
    assert lrc.LrcSpec.from_json(text) == SMALL
    with pytest.raises(ParseError):
        lrc.LrcSpec.from_json("{nope")
    with pytest.raises(ParseError):
        lrc.LrcSpec.from_json('{"q": 7, "r": 2, "d": 3}')


@pytest.mark.parametrize("value", ['"x"', "23.7", "23.0", "true"])
@pytest.mark.parametrize("field", ["q", "r", "d", "A"])
def test_spec_json_takes_only_json_integers(field, value):
    # int() would raise ValueError on "x", truncate 23.7 and read true as 1
    payload = json.loads(SMALL.to_json())
    if field == "A":
        payload["A"][0][1] = "@"
    else:
        payload[field] = "@"
    text = json.dumps(payload).replace('"@"', value)
    with pytest.raises(ParseError, match="must be JSON integers"):
        lrc.LrcSpec.from_json(text)


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
    for spec, k in ((SMALL, 3), (FLAGSHIP, 11)):
        assert spec.n - lrc.rank(lrc.parity_check(spec)) == k


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
    for _ in range(80):
        q = rng.choice(ROW_PRIMES)
        rows = rng.randint(1, 4)
        cols = rng.randint(2, 7)
        entries = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        entries = _more_rows_than_rank(rng, entries, q)
        m = lrc.fq_matrix(lrc.PrimeField(q), entries)
        expected = oracles.min_dependent_columns(entries, q)
        if expected is None:
            with pytest.raises(NotACode):
                lrc.min_distance(m)
        else:
            assert lrc.min_distance(m) == expected


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
    # contracting column 0 must leave the later columns with exactly the
    # dependencies they have modulo column 0, in every state of the batch,
    # with entries at the top of the integer type's range; x[0] is left as
    # the pivot row, which with the contracted rows spans the state's rows
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
        x = np.array(states, dtype=lrc._work_dtype(q)).transpose(1, 2, 0)
        child = np.empty((rows - 1, cols - 1, len(states)), x.dtype)
        lrc._eliminate(x, q, child)
        for i, state in enumerate(states):
            pivot = [int(v) for v in x[0, :, i]]
            reduced = [[int(v) for v in row] for row in child[:, :, i]]
            assert pivot[0] != 0
            basis = [pivot] + [[0] + row for row in reduced]
            rank = oracles.rank_mod(state, q)
            assert oracles.rank_mod(basis, q) == rank == oracles.rank_mod(state + basis, q)
            for size in range(1, cols):
                for subset in itertools.combinations(range(cols - 1), size):
                    with_0 = [[row[0]] + [row[1 + u] for u in subset] for row in state]
                    alone = [[row[u] for u in subset] for row in reduced]
                    assert oracles.rank_mod(alone, q) == oracles.rank_mod(with_0, q) - 1


@pytest.mark.parametrize("q", [2, 23, 181, 46337, 2**31 - 1, 2**61 - 1])
def test_eliminate_matches_the_masked_loop_reference(rng, q):
    # the pivot fix adds a later row to all of x[0], times 0 where the
    # pivot is already nonzero, and reduces in place; the rows written to
    # the destination, in the work dtype or in the search's storage dtype,
    # and the pivot row must equal a state-by-state masked loop's, for
    # every work dtype (int16, int32, int64, Python integers) and with the
    # first nonzero pivot entry in any row, so that the fix needs 0 to
    # h - 1 later rows
    values = [0, 1, q - 2, q - 1]
    for i in range(40):
        h, w, states = rng.randint(1, 6), rng.randint(1, 5), rng.randint(1, 12)
        x = np.array(
            [[[rng.choice(values + [rng.randrange(q)]) for _ in range(states)] for _ in range(w)] for _ in range(h)],
            dtype=lrc._work_dtype(q),
        )
        for s in range(states):
            k = s % h if s < h else rng.randrange(h)  # rows the fix must add
            x[:k, 0, s] = 0
            x[k, 0, s] = rng.choice([1, q - 1, rng.randrange(1, q)])
        y = x.copy()
        dtype = lrc._work_dtype(q) if i % 2 else lrc._storage_dtype(q)
        child = np.empty((h - 1, w - 1, states), dtype)
        lrc._eliminate(x, q, child)
        expected = oracles.eliminate_states(y, q)
        assert expected.dtype == np.dtype(lrc._work_dtype(q))
        assert child.shape == expected.shape
        assert np.array_equal(child, expected)
        assert np.array_equal(x, y)  # the same pivot rows, later rows untouched


@pytest.mark.parametrize("cap", [0, 256, lrc._FRONTIER_BYTES])
def test_column_search_tests_each_batch_it_builds(rng, monkeypatch, cap):
    # a group whose batches came out free of zero columns is not scanned
    # again, so the hit must still be the lex-first dependent set when every
    # group is clear up to the last level: Vandermonde rows are MDS, every
    # set of at most rank columns is independent and the first rank + 1
    # columns are the hit, found only after parents of height 1 are
    # extended (their batches have no rows, so every column is zero);
    # square full-rank shapes have no hit, and a planted late dependency
    # leaves a few groups to scan among clear ones.  No elimination builds
    # a state of no columns, in a slab or at a prefix split
    monkeypatch.setattr(lrc, "_FRONTIER_BYTES", cap)
    shapes = []
    real = lrc._eliminate
    monkeypatch.setattr(lrc, "_eliminate", lambda x, q, out: shapes.append(x.shape) or real(x, q, out))
    for i in range(60):
        q = rng.choice([23, 46337, 2**31 - 1, 2**61 - 1])
        k = rng.randint(1, 4)
        points = rng.sample(range(1, q), rng.randint(k, 8) if i % 3 else k)
        entries = [[pow(a, e, q) for a in points] for e in range(k)]
        if i % 3 == 2 and len(points) > 2:
            # the last column a combination of two earlier ones
            u, v = rng.sample(range(len(points) - 1), 2)
            c = rng.randrange(1, q)
            for row in entries:
                row[-1] = (row[u] + c * row[v]) % q
        rows = lrc._row_basis(lrc.fq_matrix(lrc.PrimeField(q), entries))
        assert len(rows) == oracles.rank_mod(entries, q)
        max_size = len(rows) + 1
        expected = oracles.lex_first_dependent_columns(entries, q, max_size)
        if i % 3 == 1:
            assert expected == (None if len(points) == k else tuple(range(k + 1)))
        walked = len(shapes)
        assert lrc._ColumnSearch(rows, q, max_size).hit == expected
        assert all(width >= 2 for _, width, _ in shapes[walked:])
    assert 1 in (height for height, _, _ in shapes)


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



@pytest.mark.parametrize("cap", [None, 0, 256, 4096])
def test_column_search_hit_is_the_lex_first_dependent_set(rng, monkeypatch, cap):
    # the set the search reports is the one an exhaustive sweep by size,
    # then in lex order, meets first, however the search is split into
    # slabs; square full-rank shapes run out of child groups before the
    # size cap.  The search starts from _row_basis, rank-many rows, also
    # when the matrix has more rows than rank
    if cap is not None:
        monkeypatch.setattr(lrc, "_FRONTIER_BYTES", cap)
    for i in range(250):
        q = rng.choice([2, 3, 5, 23, 257, 2**61 - 1] if i < 150 else ROW_PRIMES)
        n_rows, cols = rng.randint(1, 5), rng.randint(1, 8)
        density = rng.random()
        entries = [
            [rng.randrange(q) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(n_rows)
        ]
        if i >= 150:
            entries = _more_rows_than_rank(rng, entries, q)
        rows = lrc._row_basis(lrc.fq_matrix(lrc.PrimeField(q), entries))
        assert len(rows) == oracles.rank_mod(entries, q)
        max_size = rng.randint(1, len(rows) + 1)
        expected = oracles.lex_first_dependent_columns(entries, q, max_size)
        assert lrc._ColumnSearch(rows, q, max_size).hit == expected


@pytest.mark.parametrize("cap", [None, 0, 256])
def test_column_search_never_writes_to_a_stored_state(rng, monkeypatch, cap):
    # _eliminate rewrites x[0] in place, from column c on; a view of a
    # stored state would leave that state's columns before c unchanged and
    # corrupt its later children.  In Python integers (q >= 2^31) the work
    # and storage dtypes agree, so only an explicit copy guards this;
    # sparse rows make row 0 take on later rows often
    if cap is not None:
        monkeypatch.setattr(lrc, "_FRONTIER_BYTES", cap)
    q = 2**61 - 1
    values = [0, 1, 2, q - 1]
    for _ in range(60):
        cols = rng.randint(3, 8)
        entries = [
            [rng.choice(values + [rng.randrange(q)]) if rng.random() < 0.6 else 0 for _ in range(cols)]
            for _ in range(rng.randint(2, 5))
        ]
        a, b = rng.sample(range(cols - 1), 2)
        for row in entries:
            row[-1] = (row[a] + 2 * row[b]) % q
        rows = lrc._row_basis(lrc.fq_matrix(lrc.PrimeField(q), entries))
        if len(rows):
            expected = oracles.lex_first_dependent_columns(entries, q, len(rows) + 1)
            assert lrc._ColumnSearch(rows, q, len(rows) + 1).hit == expected


def test_peak_closed_form_matches_the_sum_over_max_columns():
    # _peak counts the columns a level stores as C(n - lo, j + 1); the
    # plain count sums n - 1 - l over the j-sets T with max(T) = l and
    # min(T) >= lo
    search = lrc._ColumnSearch(np.ones((1, 2), np.int64), 23, 1)
    for n in range(1, 25):
        search.n = n
        rank = n + 1
        for lo in range(n):
            level = [rank * (n - lo)]
            for j in range(1, n + 1):
                columns = sum(math.comb(l - lo, j - 1) * (n - 1 - l) for l in range(lo, n))
                level.append(columns * (rank - j))
            for best in range(2, n + 3):
                search.best = best
                stored = level[: best - 1] + [0]
                expected = max(a + b for a, b in zip(stored, stored[1:]))
                assert search._peak(0, rank, lo) == expected * search.entry_bytes


def test_unrank_reads_colex_order_off_binomials():
    # group l of level j holds the j-sets T with max(T) = l and min(T) >=
    # lo, in colex order of T; state idx with zero column c is T + {c}.
    # Level 0 is the prefix alone, keyed lo - 1
    for n in range(1, 10):
        for lo in range(n):
            for j in range(n - lo + 1):
                for l in range(lo + j - 1, n) if j else [lo - 1]:
                    rest = sorted(itertools.combinations(range(lo, l), max(j - 1, 0)), key=lambda t: t[::-1])
                    expected = [t + (l, n) for t in rest] if j else [(n,)]
                    idx = np.arange(len(expected))
                    sets = lrc._ColumnSearch._unrank(lo, j, l, np.full(len(idx), n), idx)
                    assert [tuple(row) for row in sets.tolist()] == expected


@pytest.mark.parametrize("cap", [1 << 16, 1 << 18, lrc._FRONTIER_BYTES])
def test_distance_search_memory_is_capped(monkeypatch, cap):
    # stored levels and every temporary of the search together stay within
    # twice the frontier cap, plus a fixed allowance for small objects
    monkeypatch.setattr(lrc, "_FRONTIER_BYTES", cap)
    h = lrc.parity_check(FLAGSHIP)
    tracemalloc.start()
    try:
        assert lrc.min_distance(h) == 11
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * cap + (64 << 10)


def test_flagship_search_makes_few_long_eliminations(monkeypatch):
    # at the default cap one [22, 11] search makes few, long batched steps:
    # 525 calls with the column walk's 11, and 178 on the planted twin of
    # distance 4.  Both are pinned, as a pass that speeds one of them up
    # slows the other: a first pass over the sizes that fit one slab took
    # the twin to 71 and the [22, 11] code to 620.  No child of c = n - 1
    # is built, as it keeps no column, so no call gets a single column.
    # Slabs over column ranges made 651; with them, batches of a twelfth
    # of the cap made 839, and the former 256 KiB cap 2,496
    widths = []
    real = lrc._eliminate
    monkeypatch.setattr(lrc, "_eliminate", lambda x, q, out: widths.append(x.shape[1]) or real(x, q, out))
    for spec, distance, calls in ((FLAGSHIP, 11, 525), (PLANTED, 4, 178)):
        widths.clear()
        assert lrc.min_distance(lrc.parity_check(spec)) == distance
        assert len(widths) <= calls
        assert min(widths) >= 2


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


def test_check_equivalence_witnesses_each_failing_side():
    # the code side names the lex-first smallest dependent columns, the
    # free side the blocks of a_list (not of the sorted hypergraph) that
    # span too few points; a side that holds has no witness, and a report
    # where both hold has no witness key at all
    rep = lrc.check_equivalence(PLANTED)
    assert rep.columns == (9, 10, 11, 12) and rep.blocks == (0, 1)
    assert rep.to_report()["witness"] == {"columns": [9, 10, 11, 12], "blocks": [0, 1]}
    entries = lrc.parity_check(PLANTED).entries
    assert oracles.rank_mod([[row[c] for c in rep.columns] for row in entries], 23) < 4
    # sorted, the blocks are (0,1,2) < (1,2,3) < (2,5,6): the hypergraph's
    # witness (0, 1) is blocks 2 and 1 of a_list
    shuffled = lrc.LrcSpec(q=7, r=2, d=5, a_list=((2, 5, 6), (1, 2, 3), (0, 1, 2)))
    rep = lrc.check_equivalence(shuffled)
    assert not rep.free and rep.blocks == (1, 2)
    assert (rep.columns is None) == rep.optimal
    both = lrc.check_equivalence(FLAGSHIP)
    assert both.columns is None and both.blocks is None
    assert "witness" not in both.to_report()


def test_fqm_serialization_round_trip():
    h = lrc.parity_check(SMALL)
    text = lrc.serialize_fqm(h)
    assert text == "3 6 7\n1 1 1 0 0 0\n0 0 0 1 1 1\n0 1 2 3 4 5\n"
    assert tuple(tuple(int(x) for x in line.split()) for line in text.splitlines()[1:]) == h.entries
    assert lrc.serialize_fqm(lrc.parity_check(FLAGSHIP)).splitlines()[0] == "11 22 23"


def test_construct_lrc_rejects_bad_parameters():
    with pytest.raises(BadRange):
        lrc.construct_lrc(23, 10, 9, 2)
    with pytest.raises(BadRange):
        lrc.construct_lrc(23, 8, 11, 2)
    with pytest.raises(BadRange):  # r = d - 2 can never be optimal
        lrc.construct_lrc(31, 9, 11, 2)
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


def test_construct_lrc_pair_packing_bound(monkeypatch):
    # blocks meeting pairwise in at most one point hold each pair of field
    # elements at most once: m * C(r + 1, 2) <= C(q, 2) caps m at 4 for
    # q = 23, r = 10, for every m, where the point count above passes every
    # m >= 21.  Both bounds reject before the builder runs
    monkeypatch.setattr(lrc, "construct", None)
    for m in (21, 2000, 10**5, 10**12):
        with pytest.raises(InsufficientYield) as exc:
            lrc.construct_lrc(23, 10, 11, m)
        assert f"cover {55 * m} > C(23, 2) = 253 pairs" in str(exc.value)
    with pytest.raises(InsufficientYield, match="need 38 > q = 23"):
        lrc.construct_lrc(23, 10, 11, 4)


def test_construct_lrc_rejects_a_population_past_the_sampler(monkeypatch):
    # C(q, r + 1) above 2**62 is rejected before the sampling floor, whose
    # float arithmetic would overflow; the largest population the sampler
    # takes still reaches the builder
    def reached(*args, **kwargs):
        raise RetriesExhausted("stub", best_yield=0)

    monkeypatch.setattr(lrc, "construct", reached)
    with pytest.raises(BadRange, match="C\\(1000003,1001\\) candidate blocks exceed the sampler's limit of 2\\*\\*62"):
        lrc.construct_lrc(1000003, 1000, 11, 2)
    q = next(q for q in range(12, 10**4) if math.comb(q, 11) <= 2**62 < math.comb(q + 1, 11))
    with pytest.raises(BadRange, match="sampler"):
        lrc.construct_lrc(next(p for p in range(q + 1, 2 * q) if lrc.is_prime(p)), 10, 11, 2)
    largest = next(p for p in range(q, 0, -1) if lrc.is_prime(p))
    with pytest.raises(InsufficientYield, match="at most 0 < target_m=2"):
        lrc.construct_lrc(largest, 10, 11, 2)


def test_construct_lrc_starved_sample(monkeypatch):
    # a builder whose retries run dry is reported as too few blocks, with
    # the best yield it reached
    def starved(*args, **kwargs):
        raise RetriesExhausted("yield 1 < min_yield 2 after 16 retries", best_yield=1)

    monkeypatch.setattr(lrc, "construct", starved)
    with pytest.raises(InsufficientYield, match="at most 1 < target_m=2"):
        lrc.construct_lrc(23, 10, 11, 2, seed=5)


def test_construct_lrc_at_small_fields_builds_one_block():
    # at q <= 2r no two (r+1)-subsets of F_q meet in at most one point,
    # so only one block can survive the overlap sweep
    for q in (13, 17, 19):
        spec = lrc.construct_lrc(q, 10, 11, 1)
        assert spec.m == 1 and spec.q == q
        report = lrc.check_equivalence(spec)
        assert report.optimal and report.free


def test_builder_ladder_is_the_freeness_profile():
    # construct_lrc takes the free side from the builder's certificate:
    # the ladder of (r + 1, t, t*r) has exactly freeness_profile's rungs
    # (i, i*r) for 2 <= i <= t, and rung 1 holds for any block
    for r in range(2, 40):
        for d in range(11, min(r + 2, 39) + 1):
            t = (d - 1) // 2
            spec = lrc.LrcSpec(q=41, r=r, d=d, a_list=(tuple(range(r + 1)),))
            rungs = [(c.e, c.v) for c in lrc.freeness_profile(spec).constraints]
            ladder = [(c.e, c.v) for c in freeness.ladder_profile(r + 1, t, t * r).constraints]
            assert rungs[0] == (1, r) and ladder == rungs[1:]


def test_construct_lrc_certifies_each_side_once(monkeypatch):
    # the free side is the certificate the builder takes on the output it
    # returns, not on attempts below min_yield (one independent_set per
    # attempt; seed 0 needs two attempts, seed 1 one); the code side is one
    # column walk, giving k and the distance search's rows, and one search
    calls = dict.fromkeys(["check_profile", "_row_basis", "min_distance", "independent_set"], 0)

    def count(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for real in (freeness.check_profile, lrc._row_basis, lrc.min_distance, builder.independent_set):
        wrapped = count(real.__name__, real)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("sparsehg") and getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__, wrapped)
    for seed, attempts in [(0, 2), (1, 1)]:
        calls.update(dict.fromkeys(calls, 0))
        spec = lrc.construct_lrc(23, 10, 11, 2, seed=seed)
        assert calls == {"check_profile": 1, "_row_basis": 1, "min_distance": 1, "independent_set": attempts}
        assert lrc.check_equivalence(spec).free
