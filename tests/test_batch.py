import itertools
import math

import pytest

import oracles
from conftest import cyclic_garbage, random_hypergraph
from sparsehg import (
    BadRange,
    CertificationFailed,
    GcdCondition,
    TooLarge,
    canonicalize,
    check_cbc,
    check_sdr_all,
    construct_cbc,
    find_sdr,
    span_deficits,
)


# --- find_sdr ----------------------------------------------------------------


def test_find_sdr_simple_cases():
    assert find_sdr([{1, 2, 3}, {1, 2, 3}, {1, 2, 3}]) is not None
    assert find_sdr([{1}, {1}]) is None
    assert find_sdr([]) == ()


def test_find_sdr_leaves_no_cyclic_garbage():
    # augmenting paths recurse; a recursive closure would keep each call's
    # owner map alive until the cyclic collector runs
    def call():
        assert find_sdr([(1, 2), (1, 2), (2, 3), (3, 4)]) == (2, 1, 3, 4)
        assert find_sdr([(1, 2), (1, 2), (1, 2)]) is None

    assert cyclic_garbage(call) == 0


def test_find_sdr_valid_and_matches_oracle(rng):
    for _ in range(200):
        k = rng.randint(1, 6)
        sets = [set(rng.sample(range(1, 9), rng.randint(1, 4))) for _ in range(k)]
        got = find_sdr(sets)
        assert (got is not None) == oracles.has_sdr(sets)
        if got is not None:
            assert len(set(got)) == k
            assert all(x in s for x, s in zip(got, sets))


# --- check_sdr_all -------------------------------------------------------------


def test_three_copies_have_sdr():
    h = canonicalize([[1, 2, 3]] * 3, 3, multi=True)
    assert check_sdr_all(h, 3).holds


def test_four_copies_fail():
    h = canonicalize([[1, 2, 3]] * 4, 3, multi=True)
    verdict = check_sdr_all(h, 4)
    assert not verdict.holds
    assert verdict.witness == (0, 1, 2, 3)
    assert h.union_span(verdict.witness) < len(verdict.witness)


def test_deficient_witness_is_hall_violator(rng):
    for _ in range(150):
        h = random_hypergraph(rng, n_max=8, m_max=7, multi=True)
        e = rng.randint(2, 4)
        verdict = check_sdr_all(h, e)
        if not verdict.holds:
            s = verdict.witness
            assert len(s) <= e
            assert h.union_span(s) < len(s)


def test_guard_and_force():
    edges = [list(t) for t in itertools.combinations(range(1, 8), 3)][:25]
    h = canonicalize(edges, 7)
    with pytest.raises(TooLarge):
        check_sdr_all(h, 3)
    assert check_sdr_all(h, 3, force=True).holds is not None


# --- check_cbc and the dual-route agreement ------------------------------------


def test_cbc_mirrors_sdr_examples():
    three = canonicalize([[1, 2, 3]] * 3, 3, multi=True)
    four = canonicalize([[1, 2, 3]] * 4, 3, multi=True)
    assert check_cbc(three, 3).holds == check_sdr_all(three, 3).holds == True
    assert check_cbc(four, 4).holds == check_sdr_all(four, 4).holds == False
    for check in (check_cbc, check_sdr_all):
        with pytest.raises(BadRange):
            check(three, 0)


def test_matching_and_span_routes_agree(rng):
    for _ in range(150):
        h = random_hypergraph(rng, n_max=8, m_max=7, multi=True)
        e = rng.randint(2, 4)
        assert check_cbc(h, e).holds == check_sdr_all(h, e).holds
        assert check_cbc(h, e).holds == oracles.sdr_all_subsets(h.edges, e)


# --- construct_cbc ---------------------------------------------------------------


def test_construct_cbc_gcd_condition():
    with pytest.raises(GcdCondition):
        construct_cbc(3, 4, 24)


def test_construct_cbc_requires_more_edges_than_uniformity():
    with pytest.raises(BadRange):
        construct_cbc(3, 3, 24)
    with pytest.raises(BadRange):
        construct_cbc(2, 5, 24)


def _containment_margins(r, e):
    """Margins i*r - f(i) - (i - 1) of the ladder at v = e - 1 over the
    deficit profile's rungs (i, i - 1), with f(1) = 0: each must be
    nonnegative for the ladder certificate to imply check_cbc."""
    f = {1: 0, **span_deficits(r, e, e - 1)}
    return {i: i * r - f[i] - (i - 1) for i in range(1, e + 1)}


def test_containment_margins_35():
    assert _containment_margins(3, 5) == {1: 3, 2: 2, 3: 1, 4: 0, 5: 0}


def test_containment_margins_36_nonnegative():
    margins = _containment_margins(3, 6)
    assert margins == {1: 3, 2: 2, 3: 1, 4: 1, 5: 0, 6: 0}
    assert all(v >= 0 for v in margins.values())
    # at v = e - 1, e*r - v = (e - 1)(r - 1) + r, so every margin is
    # r - ceil((i - 1)r/(e - 1)), never negative: construct_cbc needs no check
    for r in range(3, 13):
        for e in range(r + 1, 41):
            if math.gcd(e - 1, r) != 1:
                continue  # construct_cbc raises GcdCondition before it builds
            margins = _containment_margins(r, e)
            assert margins == {i: r - -(-(i - 1) * r // (e - 1)) for i in range(1, e + 1)}
            assert min(margins.values()) >= 0


def test_construct_cbc_35_certified():
    h = construct_cbc(3, 5, 24, seed=1)
    assert check_cbc(h, 5).holds
    assert not h.multi
    if h.m <= 12:
        assert check_sdr_all(h, 5).holds


def test_construct_cbc_36_certified():
    h = construct_cbc(3, 6, 16, seed=0)
    assert check_cbc(h, 6).holds
    assert oracles.sdr_all_subsets(h.edges, 6) if h.m <= 10 else True


def test_construct_cbc_outputs_pass_both_routes():
    # construct_cbc relies on the ladder certificate; the span and the
    # matching routes must still confirm every output
    matched = 0
    for seed in range(10):
        h = construct_cbc(3, 6, 8, seed=seed)
        assert check_cbc(h, 6).holds
        if h.m <= 20:
            assert check_sdr_all(h, 6).holds
            matched += 1
    assert matched >= 8


def test_construct_cbc_deterministic():
    a = construct_cbc(3, 5, 20, seed=5)
    b = construct_cbc(3, 5, 20, seed=5)
    assert a.edges == b.edges
