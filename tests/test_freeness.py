import itertools
import math
import random

import pytest

import oracles
from conftest import random_hypergraph
from sparsehg import (
    BadRange,
    BudgetExceeded,
    ConstraintProfile,
    FreenessConstraint,
    GcdCondition,
    berge_girth,
    berge_profile,
    canonicalize,
    check_free,
    check_profile,
    deficit_profile,
    extract_berge_cycle,
    ladder_profile,
    span_bounded_systems,
    union_span,
    validate_berge_cycle,
)
from sparsehg.freeness import _pair_route, _root_threshold, _vertex_route


# --- single-constraint checks -------------------------------------------


def test_three_edges_in_four_vertices_violate():
    h = canonicalize([[1, 2, 3], [1, 2, 4], [1, 3, 4]], 4)
    verdict = check_free(h, FreenessConstraint(3, 6))
    assert not verdict.holds
    assert verdict.spanned == 4
    assert union_span(h, verdict.witness) == verdict.spanned


def test_disjoint_edges_hold():
    h = canonicalize([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 9)
    assert check_free(h, FreenessConstraint(3, 6)).holds


def test_witness_is_lexicographically_first():
    h = canonicalize([[1, 2, 3], [1, 2, 4], [1, 2, 5], [6, 7, 8]], 8)
    verdict = check_free(h, FreenessConstraint(2, 4))
    assert not verdict.holds
    assert verdict.witness == (0, 1)


def test_classification_flags():
    h = canonicalize([[1, 2, 3], [1, 2, 3]], 3, multi=True)
    trivial = check_free(h, FreenessConstraint(2, 2))
    assert trivial.holds and "trivial" in trivial.flags
    vacuous = check_free(h, FreenessConstraint(2, 6))
    assert not vacuous.holds and "unsatisfiable" in vacuous.flags
    assert vacuous.witness == (0, 1)


def test_fewer_edges_than_e_holds():
    h = canonicalize([[1, 2, 3]], 3)
    assert check_free(h, FreenessConstraint(2, 4)).holds


def test_oracle_equivalence_simple(rng):
    for _ in range(300):
        h = random_hypergraph(rng)
        e = rng.randint(2, 4)
        v = rng.randint(3, min(12, e * 3))
        verdict = check_free(h, FreenessConstraint(e, v))
        assert verdict.holds == oracles.is_free(h.edges, e, v)
        if not verdict.holds:
            assert union_span(h, verdict.witness) <= v


def test_oracle_equivalence_multigraph(rng):
    for _ in range(100):
        h = random_hypergraph(rng, n_max=9, m_max=6, multi=True)
        e = rng.randint(2, 4)
        v = rng.randint(2, 9)
        verdict = check_free(h, FreenessConstraint(e, v))
        assert verdict.holds == oracles.is_free(h.edges, e, v)


def test_monotone_under_edge_deletion(rng):
    for _ in range(60):
        h = random_hypergraph(rng)
        c = FreenessConstraint(rng.randint(2, 3), rng.randint(4, 8))
        if not check_free(h, c).holds:
            continue
        keep = sorted(rng.sample(range(h.m), rng.randint(1, h.m)))
        assert check_free(h.subhypergraph(keep), c).holds


def test_span_bounded_systems_matches_unpruned(rng):
    for _ in range(150):
        h = random_hypergraph(rng, n_max=10, m_max=7)
        size = rng.randint(2, 4)
        max_span = rng.randint(3, 10)
        got = span_bounded_systems(h.masks, size, max_span, simple=True)
        assert got == oracles.violations(h.edges, size, max_span)


def _dense_hypergraph(rng, r, multi, m_max=14):
    """Up to m_max r-edges on at most r + 5 vertices, so that many 5- and
    6-edge systems span few vertices."""
    n = rng.randint(r + 1, r + 5)
    pool = list(itertools.combinations(range(1, n + 1), r))
    if multi:
        raw = [rng.choice(pool) for _ in range(rng.randint(5, m_max))]
    else:
        raw = rng.sample(pool, rng.randint(min(5, len(pool)), min(m_max, len(pool))))
    return canonicalize([list(e) for e in raw], n, multi=multi, r=r)


def test_span_bounded_systems_tight_spans_match_oracle(rng):
    # at s* = 1 or 2 nearly every pair of a system can root it, so the
    # search cuts most branches for sorting a pair before their root
    seen = set()
    for _ in range(160):
        r = rng.choice((3, 4))
        multi = rng.random() < 0.5
        h = _dense_hypergraph(rng, r, multi)
        size = rng.choice((5, 6))
        bands: dict[int, list[int]] = {}
        for span in range(r, size * r):
            bands.setdefault(_root_threshold(r, size, span), []).append(span)
        max_span = rng.choice(bands[rng.choice([s for s in (1, 2) if s in bands])])
        got = _pair_route(h.masks, size, max_span)
        assert got == oracles.violations(h.edges, size, max_span)
        if got:
            seen.add((size, _root_threshold(r, size, max_span), multi))
    assert seen == {(size, s, multi) for size in (5, 6) for s in (1, 2) for multi in (False, True)}


def test_root_threshold_holds_on_every_violating_system(rng):
    assert _root_threshold(3, 6, 5) == 2  # cbc-e6's (6, 5) level
    assert _root_threshold(3, 3, 6) == 1  # the (3, 3, 6) ladder's top level
    checked = 0
    for _ in range(150):
        r = rng.choice((3, 4))
        h = _dense_hypergraph(rng, r, multi=rng.random() < 0.5, m_max=10)
        size = rng.randint(3, 6)
        max_span = rng.randint(r, size * r - 1)
        s_star = _root_threshold(r, size, max_span)
        assert s_star >= max(1, -(-(size * r - max_span) // math.comb(size, 2)))
        for system in oracles.violations(h.edges, size, max_span):
            assert any(
                len(set(h.edges[a]) & set(h.edges[b])) >= s_star
                for a, b in itertools.combinations(system, 2)
            )
            checked += 1
    assert checked >= 1000


def test_span_bounded_systems_differential(rng):
    # the pair route against the oracle at every span from r up, simple
    # graphs and multigraphs, and the budget edge at one span of each graph
    cases = budgeted = 0
    while cases < 1000:
        r = rng.choice((3, 4))
        multi = rng.random() < 0.5
        h = _dense_hypergraph(rng, r, multi, m_max=16)
        size = rng.randint(3, 6)
        # h has at most r + 5 vertices, so that span admits every size-subset
        spans = {c: oracles.span(h.edges, c) for c in oracles.violations(h.edges, size, r + 5)}
        answers = {}
        for max_span in range(r, r + 6):
            want = [c for c, span in spans.items() if span <= max_span]
            assert _pair_route(h.masks, size, max_span) == want
            answers[max_span] = want
            cases += 1
        nonempty = [max_span for max_span, want in answers.items() if want]
        if nonempty:
            max_span = rng.choice(nonempty)
            want = answers[max_span]
            assert _pair_route(h.masks, size, max_span, budget=len(want)) == want
            with pytest.raises(BudgetExceeded):
                _pair_route(h.masks, size, max_span, budget=len(want) - 1)
            budgeted += 1
    assert budgeted >= 100


def _tight_level(rng):
    """A random simple r-graph of up to 16 edges and its tight level for a
    random size: u is the fewest vertices that `size` distinct r-edges can
    span.  The graph has u vertices or a few more, and its edges may leave
    some of them untouched."""
    r = rng.choice((2, 3, 4))
    size = rng.randint(3, 6)
    u = r
    while math.comb(u, r) < size:
        u += 1
    n = u if rng.random() < 0.25 else rng.randint(u + 1, u + 6)
    touched = rng.sample(range(1, n + 1), rng.randint(u, n))
    pool = list(itertools.combinations(sorted(touched), r))
    edges = rng.sample(pool, rng.randint(size, min(16, len(pool))))
    return canonicalize([list(e) for e in edges], n, r=r), size, u


def test_span_bounded_system_routes_on_tight_levels(rng):
    # both routes and the dispatching kernel against the oracle, and the
    # vertex route's budget edge
    seen = set()
    for _ in range(400):
        h, size, u = _tight_level(rng)
        want = oracles.violations(h.edges, size, u)
        assert _vertex_route(h.masks, size, u) == want
        assert _pair_route(h.masks, size, u) == want
        assert span_bounded_systems(h.masks, size, u, simple=True) == want
        if not want:
            continue
        assert _vertex_route(h.masks, size, u, budget=len(want)) == want
        with pytest.raises(BudgetExceeded):
            _vertex_route(h.masks, size, u, budget=len(want) - 1)
        support = len({x for edge in h.edges for x in edge})
        seen.add((h.r, size, "nv == max_span" if h.n == u else "untouched" if support < h.n else "other"))
    assert {(r, size) for r, size, _ in seen} == {(r, size) for r in (2, 3, 4) for size in range(3, 7)}
    assert {"nv == max_span", "untouched"} <= {shape for _, _, shape in seen}


def test_span_bounded_systems_spans_below_r_are_empty():
    # no edge fits in fewer than r vertices, whatever the size
    for r in (3, 4):
        simple = canonicalize([list(e) for e in itertools.combinations(range(1, r + 3), r)], r + 2, r=r)
        dup = canonicalize([list(range(1, r + 1))] * 4 + [list(range(2, r + 2))], r + 1, multi=True, r=r)
        for h in (simple, dup):
            for size in range(1, 6):
                for max_span in (0, 1, r - 1):
                    for flag in {False, not h.multi}:
                        assert span_bounded_systems(h.masks, size, max_span, simple=flag) == []


def test_span_bounded_systems_budget_counts_each_system_once(rng):
    # the budget caps distinct systems: it fires exactly when their number
    # passes it, however many roots could have reached each one
    checked = 0
    for _ in range(40):
        h = _dense_hypergraph(rng, 3, multi=rng.random() < 0.5, m_max=12)
        size = rng.choice((5, 6))
        max_span = rng.randint(size - 1, size + 1)
        total = len(oracles.violations(h.edges, size, max_span))
        if total == 0:
            continue
        got = span_bounded_systems(h.masks, size, max_span, budget=total)
        assert len(got) == total
        with pytest.raises(BudgetExceeded):
            span_bounded_systems(h.masks, size, max_span, budget=total - 1)
        checked += 1
    assert checked >= 10


def test_span_bounded_systems_budget():
    h = canonicalize(
        [list(e) for e in itertools.combinations(range(1, 6), 3)], 5
    )
    with pytest.raises(BudgetExceeded):
        span_bounded_systems(h.masks, 2, 6, budget=2)


def test_simple_flag_prunes_impossible_spans():
    # 5 distinct triples always span at least 5 vertices
    h = canonicalize([list(e) for e in itertools.combinations(range(1, 6), 3)], 5)
    assert span_bounded_systems(h.masks, 5, 4, simple=True) == []
    # but 5 repeated edges of a multigraph can sit inside 3
    dup = canonicalize([[1, 2, 3]] * 5, 3, multi=True)
    assert span_bounded_systems(dup.masks, 5, 4) == [(0, 1, 2, 3, 4)]


# --- profile formulas ----------------------------------------------------


def test_ladder_profile_values():
    p = ladder_profile(3, 3, 6)
    assert [(c.e, c.v) for c in p.constraints] == [(2, 4), (3, 6)]
    p = ladder_profile(4, 5, 13)
    assert [(c.e, c.v) for c in p.constraints] == [(2, 6), (3, 8), (4, 10), (5, 13)]


def test_ladder_profile_gcd_condition():
    with pytest.raises(GcdCondition):
        ladder_profile(3, 3, 5)


def test_ladder_profile_range_checks():
    with pytest.raises(BadRange):
        ladder_profile(2, 3, 6)
    with pytest.raises(BadRange):
        ladder_profile(3, 2, 6)
    with pytest.raises(BadRange):
        ladder_profile(3, 3, 3)


def test_deficit_profile_values():
    p = deficit_profile(3, 0, 4)
    assert [(c.e, c.v) for c in p.constraints] == [(1, 0), (2, 1), (3, 2), (4, 3)]
    # i with i - q - 1 < 0 is vacuous even for multigraphs and is dropped
    p = deficit_profile(3, 1, 7)
    assert [(c.e, c.v) for c in p.constraints] == [(i, i - 2) for i in range(2, 8)]


def test_berge_profile_values():
    p = berge_profile(3, 4)
    assert [(c.e, c.v) for c in p.constraints] == [(2, 4), (3, 6), (4, 8)]
    assert [(c.e, c.v) for c in berge_profile(3, 3).constraints] == [(2, 4), (3, 6)]


def test_profile_distinct_e_enforced():
    with pytest.raises(Exception):
        ConstraintProfile((FreenessConstraint(2, 4), FreenessConstraint(2, 5)))


def test_empty_profile_holds():
    h = canonicalize([[1, 2, 3]], 3)
    assert check_profile(h, ConstraintProfile(())).holds


def test_check_profile_reports_first_failing_constraint(rng):
    for _ in range(100):
        h = random_hypergraph(rng)
        profile = ladder_profile(3, 3, 6)
        verdict = check_profile(h, profile)
        expected = all(
            oracles.is_free(h.edges, c.e, c.v) for c in profile.constraints
        )
        assert verdict.holds == expected
        if not verdict.holds:
            c = verdict.constraint
            assert union_span(h, verdict.witness) <= c.v
            # smaller-e constraints all hold
            for prior in profile.constraints:
                if prior.e < c.e:
                    assert oracles.is_free(h.edges, prior.e, prior.v)


# --- Berge girth ----------------------------------------------------------


def test_explicit_three_cycle():
    h = canonicalize([[1, 2, 5], [2, 3, 6], [1, 3, 7]], 7)
    cycle = berge_girth(h, 4)
    assert cycle is not None and cycle.length == 3
    validate_berge_cycle(h, cycle)


def test_two_disjoint_edges_have_no_cycle():
    h = canonicalize([[1, 2, 3], [4, 5, 6]], 6)
    assert berge_girth(h, 4) is None


def test_two_cycle_is_shared_pair():
    h = canonicalize([[1, 2, 3], [1, 2, 4]], 4)
    cycle = berge_girth(h, 4)
    assert cycle is not None and cycle.length == 2
    validate_berge_cycle(h, cycle)


def test_berge_girth_needs_t_at_least_two():
    h = canonicalize([[1, 2, 3]], 3)
    with pytest.raises(BadRange):
        berge_girth(h, 1)


def test_girth_matches_literal_search(rng):
    for _ in range(120):
        h = random_hypergraph(rng, n_max=10, m_max=6)
        cycle = berge_girth(h, 4)
        expected = oracles.berge_girth(h.edges, 4)
        assert (None if cycle is None else cycle.length) == expected
        if cycle is not None:
            validate_berge_cycle(h, cycle)


def test_girth_profile_duality(rng):
    for _ in range(150):
        h = random_hypergraph(rng)
        free = check_profile(h, berge_profile(3, 4)).holds
        assert free == (berge_girth(h, 4) is None)


def test_extract_cycle_from_violating_system():
    h = canonicalize([[1, 2, 5], [2, 3, 6], [1, 3, 7]], 7)
    cycle = extract_berge_cycle(h, (0, 1, 2))
    assert cycle.length == 3
    validate_berge_cycle(h, cycle)
