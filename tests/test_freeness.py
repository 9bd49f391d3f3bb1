import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import cyclic_garbage, random_hypergraph
from sparsehg import (
    BadRange,
    BergeCycle,
    BudgetExceeded,
    ConstraintProfile,
    FreenessConstraint,
    GcdCondition,
    Hypergraph,
    berge_girth,
    berge_profile,
    canonicalize,
    check_free,
    check_profile,
    construct,
    deficit_profile,
    freeness,
    ladder_profile,
    span_bounded_systems,
)
from sparsehg.batch import construct_cbc
from sparsehg.builder import plan, sample
from sparsehg.freeness import _colex_table, _pair_route, _root_threshold, _subset_ranks, _vertex_route


# --- single-constraint checks -------------------------------------------


def test_three_edges_in_four_vertices_violate():
    h = canonicalize([[1, 2, 3], [1, 2, 4], [1, 3, 4]], 4)
    verdict = check_free(h, FreenessConstraint(3, 6))
    assert not verdict.holds
    assert verdict.spanned == 4
    assert h.union_span(verdict.witness) == verdict.spanned


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
    for e, v in ((0, 3), (2, -1)):
        with pytest.raises(BadRange):
            FreenessConstraint(e, v)


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
            assert h.union_span(verdict.witness) <= v


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
        got = span_bounded_systems(h.masks, size, max_span)
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


def test_root_threshold_bounds_every_root_pair_span():
    # s* >= 2r - max_span, so the pair route needs no span test on its
    # roots: laying the edges cyclically on max_span vertices reaches the
    # convexity minimum, and every pair of them shares >= 2r - max_span
    for r in range(1, 30):
        for size in range(2, 30):
            for max_span in range(r, size * r):
                s_star = _root_threshold(r, size, max_span)
                assert s_star >= 2 * r - max_span, (r, size, max_span)
                if r < 16 and size < 16:  # all of r, size < 30 take 5 s
                    arcs = [((1 << r) - 1) << (j * r % max_span) for j in range(size)]
                    edges = [(a | a >> max_span) & ((1 << max_span) - 1) for a in arcs]
                    shares = [(a & b).bit_count() for a, b in itertools.combinations(edges, 2)]
                    assert min(shares) >= 2 * r - max_span
                    assert s_star == -(-sum(shares) // math.comb(size, 2))


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
    # loose levels of simple graphs, spans up to size*r - 1 on up to size*r
    # vertices: there any further edges may fit inside the span, and the
    # search's cut alone keeps each system to its own root
    loose = 0
    while loose < 600:
        r = rng.choice((2, 3, 4))
        size = rng.randint(4, 6)
        n = rng.randint(r + 2, size * r)
        pool = list(itertools.combinations(range(1, n + 1), r))
        h = canonicalize([list(e) for e in rng.sample(pool, rng.randint(size, min(9, len(pool))))], n, r=r)
        spans = {c: oracles.span(h.edges, c) for c in itertools.combinations(range(h.m), size)}
        for max_span in range(r, size * r):
            assert _pair_route(h.masks, size, max_span) == [c for c, span in spans.items() if span <= max_span]
            loose += 1


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
        assert span_bounded_systems(h.masks, size, u) == want
        if not want:
            continue
        assert _vertex_route(h.masks, size, u, budget=len(want)) == want
        with pytest.raises(BudgetExceeded):
            _vertex_route(h.masks, size, u, budget=len(want) - 1)
        support = len({x for edge in h.edges for x in edge})
        seen.add((h.r, size, "nv == max_span" if h.n == u else "untouched" if support < h.n else "other"))
    assert {(r, size) for r, size, _ in seen} == {(r, size) for r in (2, 3, 4) for size in range(3, 7)}
    assert {"nv == max_span", "untouched"} <= {shape for _, _, shape in seen}


def test_kernel_routes_leave_no_cyclic_garbage():
    # a recursive closure would keep each call's results and bitsets alive
    # until the cyclic collector runs; max_span 4 is a tight level of these
    # 3-edges (the vertex route), 5 is not (the pair route)
    h = canonicalize([list(e) for e in itertools.combinations(range(1, 7), 3)], 6)

    def call():
        for max_span in (4, 5):
            assert span_bounded_systems(h.masks, 3, max_span)
        assert _vertex_route(h.masks, 3, 4) == span_bounded_systems(h.masks, 3, 4)
        assert _pair_route(h.masks, 3, 5) == span_bounded_systems(h.masks, 3, 5)

    assert cyclic_garbage(call) == 0


def _colex(sets):
    """The sets in colex order: by largest element, then the next, ..."""
    return sorted(sets, key=lambda c: c[::-1])


def test_colex_tables_match_brute_force_ranks_as_they_grow(monkeypatch):
    # a small support first, then a larger one: the cache grows, and the
    # rows it held before keep their values and lead the grown table.  It
    # holds exactly the tables asked for, not those they are built from
    monkeypatch.setattr(freeness, "_TABLES", {})
    asked = ((1, 1), (3, 1), (3, 2), (4, 3), (5, 3), (5, 2), (6, 4), (5, 4))
    for u, r in asked:
        before = _colex_table(u + 2, u, r).copy()
        for s in (u + 2, u + 5):
            rank = {c: i for i, c in enumerate(_colex(itertools.combinations(range(s), r)))}
            want = [[rank[c] for c in _colex(itertools.combinations(v, r))] for v in _colex(itertools.combinations(range(s), u))]
            table = _colex_table(s, u, r)
            assert table.dtype == np.int32
            assert table.T.tolist() == want
            assert _subset_ranks(np.arange(len(want)), s, u, r).tolist() == want  # the same, by unranking
        assert np.array_equal(table[:, : before.shape[1]], before)
        assert _colex_table(u + 2, u, r).T.tolist() == before.T.tolist()  # a prefix of the grown table
    assert set(freeness._TABLES) == set(asked)


def test_vertex_route_on_fewer_vertices_than_a_level_spans():
    # the four triples of {1, 2, 3, 4}: five of them would span 5 vertices
    h = canonicalize([list(e) for e in itertools.combinations(range(1, 5), 3)], 4)
    assert _vertex_route(h.masks, 5, 5) == []
    assert _vertex_route(h.masks, 5, 5, budget=0) == []
    assert _colex_table(4, 5, 3).shape == (10, 0)


def _cbc_inputs(n: int, seeds) -> list:
    """The (3, 6, 5) samples and cbc outputs of these seeds at n."""
    return [h for seed in seeds for h in (sample(plan(3, 6, 5, n, seed=seed)), construct_cbc(3, 6, n, seed=seed))]


def test_vertex_route_matches_pair_route_at_production_size():
    # the builder's tight levels (6, 5) and (4, 4) on cbc-e6 samples and
    # outputs, on vertex sets few enough for the dispatch to pick the route
    inputs = _cbc_inputs(16, (7, 20, 23, 28, 30, 35, 44, 48)) + _cbc_inputs(20, (0, 1))
    found = 0
    for h in inputs:
        for size, u in ((6, 5), (4, 4)):
            assert math.comb(len({x for edge in h.edges for x in edge}), u) <= math.comb(h.m, 2)
            want = _pair_route(h.masks, size, u)
            assert _vertex_route(h.masks, size, u) == want
            total = len(want)
            assert _vertex_route(h.masks, size, u, budget=total) == want
            if total:
                with pytest.raises(BudgetExceeded):
                    _vertex_route(h.masks, size, u, budget=total - 1)
            found += total
    assert found > 10_000  # the samples hold systems at both levels


@pytest.mark.parametrize("n", [32, 48])
def test_vertex_route_memory_stays_within_its_bound(monkeypatch, n):
    # the docstring's bounds at the (6, 5) level of cbc samples, from an
    # empty cache: the tables, and the call's temporaries beside the
    # tables and the systems it returns.  At n = 32 the order-5 table fits
    # in the cache; at n = 48 it would take 68 MiB, and is never built
    h = sample(plan(3, 6, 5, n, seed=1))
    s, u, r = len({x for edge in h.edges for x in edge}), 5, 3
    monkeypatch.setattr(freeness, "_TABLES", {})
    tracemalloc.start()
    try:
        got = _vertex_route(h.masks, 6, u)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s == n and len(got) > 10_000
    assert math.comb(s, u) <= math.comb(h.m, 2)  # the dispatch takes the route
    cache = sum(table.nbytes for _, table in freeness._TABLES.values())
    assert cache <= 4 * freeness._TABLE_CAP == 16 * 2**20
    assert ((5, 3) in freeness._TABLES) == (n == 32)
    k = len({frozenset(x for i in system for x in h.edges[i]) for system in got})  # the V expanded
    call = 2**20 + h.m * (3 * h.n + 64 * r) + 5 * math.comb(s, r) + 4 * math.comb(s - 1, u - 1) + 128 * math.comb(u, r) * k
    assert peak - current <= call


@pytest.mark.parametrize("cap", [0, 1, 60, 2000])
def test_vertex_route_recurses_where_its_tables_do_not_fit(monkeypatch, rng, cap):
    # with little or no room in the cache, the count recurses by top vertex
    # and the expanded sets are unranked, with the same systems and budget
    # rule; the tables never pass the cap
    monkeypatch.setattr(freeness, "_TABLES", {})
    monkeypatch.setattr(freeness, "_TABLE_CAP", cap)
    levels = [_tight_level(rng) for _ in range(60)]
    inputs = [(h.masks, size, u, oracles.violations(h.edges, size, u)) for h, size, u in levels]
    for h in _cbc_inputs(16, (7,)):
        inputs += [(h.masks, size, u, _pair_route(h.masks, size, u)) for size, u in ((6, 5), (4, 4))]
    for masks, size, u, want in inputs:
        assert _vertex_route(masks, size, u) == want
        if want:
            assert _vertex_route(masks, size, u, budget=len(want)) == want
            with pytest.raises(BudgetExceeded):
                _vertex_route(masks, size, u, budget=len(want) - 1)
        assert sum(table.size for _, table in freeness._TABLES.values()) <= cap
    assert sum(len(want) for *_, want in inputs) > 1_000


def test_pair_level_budget_edge():
    # size-2 levels take the pair route's closed form; its budget counts
    # the pairs: their number passes, one fewer raises
    h = canonicalize([list(e) for e in itertools.combinations(range(1, 7), 3)], 6)
    for v in (4, 5):
        count = len(oracles.violations(h.edges, 2, v))
        verdict = check_free(h, FreenessConstraint(2, v), budget=count)
        assert not verdict.holds and verdict.witness == (0, 1)
        with pytest.raises(BudgetExceeded, match="pairs exceed budget"):
            check_free(h, FreenessConstraint(2, v), budget=count - 1)


def test_span_bounded_systems_spans_below_r_are_empty():
    # no edge fits in fewer than r vertices, whatever the size
    for r in (3, 4):
        simple = canonicalize([list(e) for e in itertools.combinations(range(1, r + 3), r)], r + 2, r=r)
        dup = canonicalize([list(range(1, r + 1))] * 4 + [list(range(2, r + 2))], r + 1, multi=True, r=r)
        for h in (simple, dup):
            for size in range(1, 6):
                for max_span in (0, 1, r - 1):
                    assert span_bounded_systems(h.masks, size, max_span) == []


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
    # single edges are systems too, budgeted like any other size
    assert span_bounded_systems(h.masks, 1, 3, budget=10) == [(i,) for i in range(10)]
    with pytest.raises(BudgetExceeded):
        span_bounded_systems(h.masks, 1, 3, budget=9)


def test_simple_flag_prunes_impossible_spans():
    # 5 distinct triples always span at least 5 vertices
    h = canonicalize([list(e) for e in itertools.combinations(range(1, 6), 3)], 5)
    assert span_bounded_systems(h.masks, 5, 4) == []
    # but 5 repeated edges of a multigraph can sit inside 3
    dup = canonicalize([[1, 2, 3]] * 5, 3, multi=True)
    assert span_bounded_systems(dup.masks, 5, 4) == [(0, 1, 2, 3, 4)]


def test_repeated_edges_are_detected_without_the_multi_flag(rng):
    # the Hypergraph constructor does not validate `multi`, so the kernel
    # must find repeated edges itself: three copies of {1, 2, 3} violate
    # (3, 3) whatever the flag says
    checked = 0
    for r in (3, 4):
        graphs = [[tuple(range(1, r + 1))] * 3]
        for _ in range(12):
            n = rng.randint(r + 1, r + 4)
            pool = list(itertools.combinations(range(1, n + 1), r))
            edges = rng.sample(pool, rng.randint(2, min(6, len(pool))))
            edges += rng.choices(edges, k=rng.randint(1, 2))
            graphs.append(edges)
        for edges in graphs:
            n = max(max(edge) for edge in edges)
            unflagged = Hypergraph(n, r, tuple(sorted(edges)), False)
            flagged = Hypergraph(n, r, tuple(sorted(edges)), True)
            for size in range(2, 5):
                for v in range(r, size * r):
                    want = oracles.violations(unflagged.edges, size, v)
                    assert span_bounded_systems(unflagged.masks, size, v) == want
                    c = FreenessConstraint(size, v)
                    verdict = check_free(unflagged, c)
                    assert verdict == check_free(flagged, c)
                    assert verdict.holds == (not want)
                    assert verdict.witness == (want[0] if want else None)
                    profile = ConstraintProfile((c,))
                    joint = check_profile(unflagged, profile)
                    assert joint == check_profile(flagged, profile)
                    assert (joint.holds, joint.witness) == (verdict.holds, verdict.witness)
                    checked += 1
    assert checked == 13 * (18 + 24)  # 13 graphs per r; 18 levels at r = 3, 24 at r = 4


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
    with pytest.raises(BadRange):
        deficit_profile(3, -1, 4)


def test_berge_profile_values():
    p = berge_profile(3, 4)
    assert [(c.e, c.v) for c in p.constraints] == [(2, 4), (3, 6), (4, 8)]
    assert [(c.e, c.v) for c in berge_profile(3, 3).constraints] == [(2, 4), (3, 6)]
    # a profile is its constraints: the (3, 3, 6) ladder is the 3-Berge profile
    assert berge_profile(3, 3) == ladder_profile(3, 3, 6)
    with pytest.raises(BadRange):
        berge_profile(3, 1)


def test_profile_distinct_e_enforced():
    with pytest.raises(Exception):
        ConstraintProfile((FreenessConstraint(2, 4), FreenessConstraint(2, 5)))
    with pytest.raises(BadRange):
        ConstraintProfile((FreenessConstraint(3, 6), FreenessConstraint(2, 4)))


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
            assert h.union_span(verdict.witness) <= c.v
            # smaller-e constraints all hold
            for prior in profile.constraints:
                if prior.e < c.e:
                    assert oracles.is_free(h.edges, prior.e, prior.v)


# --- Berge girth ----------------------------------------------------------


def test_explicit_three_cycle():
    h = canonicalize([[1, 2, 5], [2, 3, 6], [1, 3, 7]], 7)
    cycle = berge_girth(h, 4)
    assert cycle is not None and cycle.length == 3
    assert oracles.validate_berge_cycle(h.edges, cycle)
    for bad in (
        BergeCycle(2, cycle.vertices, cycle.edges),  # wrong length
        BergeCycle(3, (1, 2, 1), cycle.edges),  # repeated vertex
        BergeCycle(3, (1, 2, 3), (0, 1, 2)),  # edge 0 misses vertex 3
    ):
        assert not oracles.validate_berge_cycle(h.edges, bad)


def test_two_disjoint_edges_have_no_cycle():
    h = canonicalize([[1, 2, 3], [4, 5, 6]], 6)
    assert berge_girth(h, 4) is None


def test_two_cycle_is_shared_pair():
    h = canonicalize([[1, 2, 3], [1, 2, 4]], 4)
    cycle = berge_girth(h, 4)
    assert cycle is not None and cycle.length == 2
    assert oracles.validate_berge_cycle(h.edges, cycle)


def test_berge_girth_needs_t_at_least_two():
    h = canonicalize([[1, 2, 3]], 3)
    with pytest.raises(BadRange):
        berge_girth(h, 1)


def test_girth_matches_literal_search(rng):
    # simple 3-graphs, then r = 2, 3 and 4 with and without repeated edges
    # (a repeated edge is a Berge 2-cycle)
    cases = [(3, False)] * 120 + [(r, multi) for r in (2, 3, 4) for multi in (False, True) for _ in range(40)]
    for r, multi in cases:
        h = random_hypergraph(rng, n_max=10, m_max=6, r=r, multi=multi)
        cycle = berge_girth(h, 4)
        expected = oracles.berge_girth(h.edges, 4)
        assert (None if cycle is None else cycle.length) == expected
        if cycle is not None:
            assert oracles.validate_berge_cycle(h.edges, cycle)


def test_girth_profile_duality(rng):
    for _ in range(150):
        h = random_hypergraph(rng)
        verdict = check_profile(h, berge_profile(3, 4))
        cycle = berge_girth(h, 4)
        assert verdict.holds == (cycle is None)
        if cycle is not None:
            # at girth g the lex-first violating g-system is a g-cycle, and
            # its smallest edge is the smallest edge on any shortest cycle
            assert cycle.length == verdict.constraint.e
            assert cycle.edges[0] == verdict.witness[0]


def _cycle_among(h, system):
    """berge_girth on the edges of `system` alone, with the cycle's edge
    indices mapped back into h."""
    chosen = sorted(system)
    cycle = berge_girth(h.subhypergraph(chosen), len(chosen))
    return BergeCycle(cycle.length, cycle.vertices, tuple(chosen[k] for k in cycle.edges))


def test_berge_search_never_calls_the_span_kernel(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("the Berge search called span_bounded_systems")

    monkeypatch.setattr(freeness, "span_bounded_systems", refuse)
    found = 0
    for _ in range(100):
        h = random_hypergraph(rng, multi=rng.random() < 0.3)
        cycle = berge_girth(h, 4)
        if cycle is not None:
            assert oracles.validate_berge_cycle(h.edges, cycle)
            assert _cycle_among(h, cycle.edges) == cycle
            found += 1
    assert found


def test_extract_cycle_from_violating_system():
    h = canonicalize([[1, 2, 5], [2, 3, 6], [1, 3, 7]], 7)
    cycle = _cycle_among(h, (0, 1, 2))
    assert cycle.length == 3
    assert oracles.validate_berge_cycle(h.edges, cycle)


def test_extracted_cycle_starts_at_its_smallest_edge():
    # the search's first cycle here is edges (4, 2, 3); the witness is
    # rotated to start at edge 2 and oriented toward the smaller vertex
    h = canonicalize([[1, 4], [1, 5], [2, 3], [2, 5], [3, 5], [4, 5], [5, 6]], 6)
    cycle = _cycle_among(h, (0, 1, 2, 3, 4))
    assert cycle == BergeCycle(3, (2, 5, 3), (2, 3, 4))
    assert oracles.validate_berge_cycle(h.edges, cycle)


def test_planted_triangle_is_caught_at_production_size():
    # the certified (3,3,6) output at n = 256 has 514 edges; plant the
    # lex-first vertex triple that meets every edge in at most one vertex
    # (so the (2, 4) rung still holds) and closes a Berge triangle, a
    # (3, 6) system; for seed 0 that is (1, 2, 4), witness (0, 3, 16)
    h = construct(3, 3, 6, 256, seed=0).hypergraph
    for triple in itertools.combinations(range(1, h.n + 1), 3):
        t = sum(1 << (x - 1) for x in triple)
        touching = [mk for mk in h.masks if mk & t]
        if all((mk & t).bit_count() == 1 for mk in touching) and any(
            (a | b | t).bit_count() <= 6 for a, b in itertools.combinations(touching, 2)
        ):
            break
    planted = canonicalize([*h.edges, triple], h.n)
    k = planted.edges.index(triple)
    # the output was free, so every violating triple holds the planted edge
    others = [i for i in range(planted.m) if i != k]
    masks = planted.masks
    witness = min(
        tuple(sorted((k, a, b)))
        for a, b in itertools.combinations(others, 2)
        if (masks[k] | masks[a] | masks[b]).bit_count() <= 6
    )
    verdict = check_profile(planted, ladder_profile(3, 3, 6))
    assert not verdict.holds
    assert verdict.constraint == FreenessConstraint(3, 6)
    assert verdict.witness == witness
    cycle = berge_girth(planted, 3)
    assert cycle is not None and cycle.length == 3
    # the lex-first violating triple, (0, 3, 16) for seed 0, and the cycle
    # both start at the smallest edge on any shortest cycle
    assert cycle.edges[0] == witness[0]
    assert cycle == BergeCycle(3, (1, 28, 2), (0, 4, 11))
    assert oracles.validate_berge_cycle(planted.edges, cycle)


def test_ruzsa_szemeredi_family_is_free():
    # a (3,3,6)-free family at production size that no builder code made
    h = canonicalize(oracles.ruzsa_szemeredi(85), 510)
    assert h.m == 1615
    assert check_profile(h, ladder_profile(3, 3, 6)).holds
    assert berge_girth(h, 3) is None


def test_planted_triangle_in_ruzsa_szemeredi_family_is_caught():
    # plant the first edge that closes a Berge triangle with two edges
    # meeting at a vertex and meets every edge in at most one vertex, so the
    # (2, 4) rung still holds
    h = canonicalize(oracles.ruzsa_szemeredi(85), 510)
    a, b = next((a, b) for a, b in itertools.combinations(h.edges, 2) if len(set(a) & set(b)) == 1)
    candidates = (
        {u, w, z} for u in sorted(set(a) - set(b)) for w in sorted(set(b) - set(a)) for z in range(1, h.n + 1)
    )
    planted_edge = tuple(sorted(next(
        t for t in candidates if len(t) == 3 and all(len(set(edge) & t) <= 1 for edge in h.edges)
    )))
    planted = canonicalize([*h.edges, planted_edge], h.n)
    k = planted.edges.index(planted_edge)
    # the family is free, so every violating triple holds the planted edge;
    # three edges that pairwise meet in at most one vertex span at most 6
    # only if every two of them meet, so the triple's other two edges touch
    # the planted one, and the oracle need only search those
    sub = [k, *(i for i, edge in enumerate(planted.edges) if i != k and set(edge) & set(planted_edge))]
    witness = min(
        tuple(sorted(sub[j] for j in combo))
        for combo in oracles.violations([planted.edges[i] for i in sub], 3, 6)
    )
    verdict = check_profile(planted, ladder_profile(3, 3, 6))
    assert not verdict.holds
    assert verdict.constraint == FreenessConstraint(3, 6)
    assert verdict.witness == witness
    cycle = berge_girth(planted, 3)
    assert cycle is not None and cycle.length == 3
    assert cycle.edges[0] == witness[0]
    assert oracles.validate_berge_cycle(planted.edges, cycle)
