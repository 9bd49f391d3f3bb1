import itertools
import random

import pytest

import oracles
from sparsehg import (
    BadRange,
    CertificationFailed,
    FreenessConstraint,
    GcdCondition,
    Hypergraph,
    RetriesExhausted,
    TooLarge,
    Verdict,
    canonicalize,
    check_free,
    check_ipps,
    construct_ipps,
    link_e,
    minimal_covers,
)
from sparsehg import builder, ipps
from sparsehg.hypergraph import _edge_mask


def repair_free(rng, n, m, e, v):
    """Random r=3 graph with at least e edges, repaired to freeness by
    deleting a witness edge at a time.  Families below e edges can be
    vacuously free without being identifying, so those repairs restart."""
    pool = list(itertools.combinations(range(1, n + 1), 3))
    while True:
        edges = sorted(rng.sample(pool, m))
        while True:
            h = canonicalize([list(t) for t in edges], n)
            verdict = check_free(h, FreenessConstraint(e, v))
            if verdict.holds:
                break
            edges.remove(h.edges[max(verdict.witness)])
        if h.m >= e:
            return h


# --- link_e -------------------------------------------------------------------


def test_link_e_values():
    assert link_e(2) == 4
    assert link_e(3) == 6
    assert link_e(4) == 9
    assert link_e(5) == 12


def test_link_e_consistency():
    # e = floor((t/2+1)^2) always exceeds the denominator floor(t^2/4)+t by one
    for t in range(2, 12):
        assert link_e(t) == t * t // 4 + t + 1


def test_link_e_range():
    with pytest.raises(BadRange):
        link_e(1)


# --- check_ipps -----------------------------------------------------------------


def test_single_edge_holds():
    h = canonicalize([[1, 2, 3]], 3)
    assert check_ipps(h, 2).holds
    with pytest.raises(BadRange):
        check_ipps(h, 1)


def test_planted_negative_with_disjoint_covers():
    h = canonicalize([[1, 2, 4], [3, 5, 6], [1, 2, 7], [3, 8, 9]], 9)
    verdict = check_ipps(h, 2)
    assert not verdict.holds
    x, families = verdict.witness
    assert x == (1, 2, 3)
    fam_a, fam_b = families
    assert set(fam_a).isdisjoint(fam_b)
    for fam in families:
        covered = 0
        for k in fam:
            covered |= h.masks[k]
        assert covered & _edge_mask(x) == _edge_mask(x)


def test_witness_empty_intersection_by_recount():
    h = canonicalize([[1, 2, 4], [3, 5, 6], [1, 2, 7], [3, 8, 9]], 9)
    verdict = check_ipps(h, 2)
    x = verdict.witness[0]
    covers = []
    for size in (1, 2):
        for combo in itertools.combinations(range(h.m), size):
            merged = set()
            for k in combo:
                merged.update(h.edges[k])
            if set(x) <= merged:
                covers.append(set(combo))
    assert covers and not set.intersection(*covers)


def test_matches_literal_definition(rng):
    for _ in range(60):
        n = rng.randint(4, 8)
        m = rng.randint(1, 6)
        pool = list(itertools.combinations(range(1, n + 1), 3))
        edges = sorted(rng.sample(pool, min(m, len(pool))))
        h = canonicalize([list(t) for t in edges], n)
        verdict = check_ipps(h, 2)
        assert verdict.holds == oracles.is_ipps(h.edges, n, 3, 2)


def test_guard_and_force():
    h = canonicalize([[1, 2, 3]], 25)
    with pytest.raises(TooLarge):
        check_ipps(h, 2)
    assert check_ipps(h, 2, force=True).holds



def test_repeated_edges_are_rejected_without_the_multi_flag():
    h = Hypergraph(9, 3, ((1, 2, 3), (1, 2, 3), (4, 5, 6)), False)
    with pytest.raises(BadRange):
        check_ipps(h, 2)

def test_freeness_implies_identifying(rng):
    # 20 repaired instances of the Lemma 4.2 hypothesis, e=4, v=9
    for _ in range(20):
        h = repair_free(rng, rng.randint(10, 15), rng.randint(4, 10), 4, 9)
        assert check_ipps(h, 2).holds


def test_passing_is_stable_under_deletion(rng):
    # removing an edge removes covers, and fewer covers only grow the
    # common intersection, so a passing family keeps passing
    for _ in range(30):
        n = rng.randint(5, 9)
        pool = list(itertools.combinations(range(1, n + 1), 3))
        edges = sorted(rng.sample(pool, min(rng.randint(2, 6), len(pool))))
        h = canonicalize([list(t) for t in edges], n)
        if not check_ipps(h, 2).holds:
            continue
        drop = rng.randrange(h.m)
        keep = [k for k in range(h.m) if k != drop]
        assert check_ipps(h.subhypergraph(keep), 2).holds


def test_minimal_covers_are_minimal_and_cover():
    h = canonicalize([[1, 2, 4], [3, 5, 6], [1, 2, 7], [3, 8, 9]], 9)
    x_mask = _edge_mask((1, 2, 3))
    covers = minimal_covers(x_mask, list(h.masks), 2)
    assert covers == [(0, 2), (0, 3), (1, 2), (1, 3)]
    for c in covers:
        merged = 0
        for k in c:
            merged |= h.masks[k]
        assert merged & x_mask == x_mask
        for shorter in itertools.combinations(c, len(c) - 1):
            merged = 0
            for k in shorter:
                merged |= h.masks[k]
            assert merged & x_mask != x_mask


# --- construct_ipps ---------------------------------------------------------------


def test_below_e_edges_freeness_does_not_identify():
    # three pairwise-linked edges: vacuously free of any 4-edge system, yet
    # X = {2,3,5} is covered by all three pairs and no edge is common
    h = canonicalize([[1, 2, 5], [2, 3, 7], [3, 5, 7]], 10)
    assert check_free(h, FreenessConstraint(4, 9)).holds
    verdict = check_ipps(h, 2)
    assert not verdict.holds
    assert verdict.witness[0] == (2, 3, 5)
    assert not oracles.is_ipps(h.edges, h.n, 3, 2)
    # one or two edges can never fail in this way
    for keep in ([0], [0, 1]):
        assert check_ipps(h.subhypergraph(keep), 2).holds


def test_construct_gcd_conditions():
    # denominator floor(t^2/4) + t: t=2 gives 3, sharing a factor with r=3
    with pytest.raises(GcdCondition):
        construct_ipps(3, 2, 15)
    with pytest.raises(GcdCondition):
        construct_ipps(5, 3, 15)


def test_construct_ipps_inside_the_guard_passes_the_exhaustive_check():
    # a small n keeps the output within check_ipps's guard, so the
    # exhaustive identifying check runs on it and holds
    h = construct_ipps(4, 2, 16, seed=0, min_expected_edges=20.0)
    assert (h.n, h.m) == (16, 4)
    assert check_ipps(h, 2).holds
    assert oracles.is_ipps(h.edges, h.n, 4, 2)


def test_construct_33_certified():
    h = construct_ipps(3, 3, 500, seed=4)
    assert h.m >= 6
    assert check_free(h, FreenessConstraint(6, 15)).holds


def test_construct_ipps_defers_to_the_check_guard(monkeypatch):
    # construct_ipps keeps no copy of check_ipps's guard: it calls the check
    # with its defaults and treats TooLarge as out of scope
    calls = []

    def recording(h, t, **kwargs):
        calls.append(kwargs)
        return check_ipps(h, t, **kwargs)

    monkeypatch.setattr(ipps, "check_ipps", recording)
    h = construct_ipps(3, 3, 500, seed=4)  # n = 500 is past the guard
    assert calls == [{}] and h.m >= 6
    monkeypatch.setattr(ipps, "check_ipps", lambda h, t: Verdict(holds=False, witness="planted"))
    with pytest.raises(CertificationFailed, match="planted"):
        construct_ipps(3, 3, 500, seed=4)


def test_construct_ipps_plans_once(monkeypatch):
    # the attempt loop runs on the planned parameters, with the yield floor
    # raised to e, instead of planning again inside construct
    calls = []
    real_plan = builder.plan

    def counting(*args, **kwargs):
        calls.append(args)
        return real_plan(*args, **kwargs)

    monkeypatch.setattr(ipps, "plan", counting)
    monkeypatch.setattr(builder, "plan", counting)
    h = construct_ipps(3, 3, 500, seed=4)
    assert len(calls) == 1 and h.m >= link_e(3)


def test_construct_34_parameters_valid():
    # denominator 8, gcd(8,3)=1: e=9, v=24
    assert link_e(4) == 9
    h = construct_ipps(3, 4, 100_000, seed=0)
    assert h.m >= 9
    assert check_free(h, FreenessConstraint(9, 24)).holds


def test_construct_refuses_unidentifiable_yield():
    with pytest.raises(RetriesExhausted):
        construct_ipps(3, 3, 40, seed=2)
