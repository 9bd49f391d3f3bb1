import dataclasses
import math
import random
import statistics
from fractions import Fraction

import pytest

import oracles
from sparsehg import (
    BadRange,
    BudgetExceeded,
    ConstructionParams,
    Degenerate,
    DegenerateP,
    GcdCondition,
    RetriesExhausted,
    TargetOrdering,
    alter,
    build_aux,
    canonicalize,
    check_free,
    check_profile,
    construct,
    independent_set,
    ladder_profile,
    plan,
    sample,
    serialize_hg,
    span_bounded_systems,
    union_span,
    FreenessConstraint,
)
from sparsehg import builder, freeness


# --- plan ------------------------------------------------------------------


def test_plan_336_window_and_probability():
    params = plan(3, 3, 6, 64)
    assert params.f == {2: 2, 3: 3}
    assert params.window_a == Fraction(1, 6)
    assert params.epsilon == Fraction(1, 12)
    # exponent -(v-r)/(e-1) + epsilon = -3/2 + 1/12 = -17/12
    assert params.p == pytest.approx(64.0 ** (-17 / 12))


def test_plan_window_matches_bracket_oracle():
    for r, e, v in [(3, 3, 6), (4, 5, 13), (3, 6, 5), (11, 5, 50), (3, 9, 24)]:
        params = plan(r, e, v, max(r + 1, v + 1))
        assert params.window_a == oracles.window_bound(r, e, v)
        assert 0 < params.epsilon < params.window_a


def test_plan_f_matches_ceiling_formula():
    params = plan(4, 5, 13, 20)
    assert params.f == {2: 2, 3: 4, 4: 6, 5: 7}
    assert params.f[5] == 5 * 4 - 13


def test_plan_gcd_condition():
    with pytest.raises(GcdCondition):
        plan(3, 3, 5, 32)


def test_plan_range_errors():
    with pytest.raises(BadRange):
        plan(2, 3, 6, 32)
    with pytest.raises(BadRange):
        plan(3, 3, 6, 2)  # n below the uniformity


def test_plan_allows_n_at_most_v():
    # small vertex sets are legal: with n <= v every output is capped below
    # e edges, which the block constructions rely on
    params = plan(11, 5, 50, 23)
    assert params.n == 23


def test_plan_extra_target_ordering():
    with pytest.raises(TargetOrdering):
        plan(3, 3, 6, 64, extra_targets=[(6, 3)])  # equal exponent
    with pytest.raises(TargetOrdering):
        plan(3, 3, 6, 64, extra_targets=[(8, 4)])  # 4/3 < 3/2
    params = plan(3, 3, 6, 64, extra_targets=[(7, 4)])
    assert params.window_b == Fraction(3, 2) - Fraction(4, 3)
    assert params.epsilon == min(params.window_a, params.window_b) / 2


def test_plan_degenerate_p_via_floor():
    with pytest.raises(DegenerateP):
        plan(3, 3, 6, 8, min_expected_edges=math.comb(8, 3))


def test_plan_probability_always_proper_fraction():
    for n in (8, 16, 64, 512, 4096):
        for r, e, v in [(3, 3, 6), (4, 5, 13), (3, 6, 5)]:
            if n <= max(r, 3):
                continue
            assert 0 < plan(r, e, v, n).p < 1


# --- sample ----------------------------------------------------------------


def _params_with_p(p, n=6, seed=0):
    return ConstructionParams(
        r=3,
        e=3,
        v=6,
        n=n,
        epsilon=Fraction(1, 12),
        p=p,
        f={2: 2, 3: 3},
        extra_targets=(),
        seed=seed,
        max_retries=1,
        min_yield=1,
        window_a=Fraction(1, 6),
        window_b=None,
    )


def test_sample_limits():
    full = sample(_params_with_p(1.0))
    assert full.m == math.comb(6, 3)
    empty = sample(_params_with_p(0.0))
    assert empty.m == 0


def test_sample_deterministic_and_seed_sensitive():
    a = sample(_params_with_p(0.4, n=10, seed=5))
    b = sample(_params_with_p(0.4, n=10, seed=5))
    c = sample(_params_with_p(0.4, n=10, seed=6))
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_sample_edges_canonical():
    h = sample(_params_with_p(0.5, n=9, seed=3))
    assert list(h.edges) == sorted(h.edges)
    assert all(list(e) == sorted(e) and len(set(e)) == 3 for e in h.edges)


def test_unrank_ascending_matches_unrank_combination():
    rng = random.Random(11)
    for n, r in [(3, 3), (9, 3), (12, 5), (40, 3), (23, 11), (1024, 3)]:
        population = math.comb(n, r)
        for count in (0, 1, min(population, 400)):
            ranks = sorted(rng.sample(range(population), count))
            expected = [oracles.unrank_combination(i, n, r) for i in ranks]
            assert builder.unrank_ascending(ranks, n, r) == expected, (n, r, count)
    every = range(math.comb(10, 4))
    assert builder.unrank_ascending(every, 10, 4) == [oracles.unrank_combination(i, 10, 4) for i in every]


def test_sample_mean_tracks_expectation():
    params = plan(3, 3, 6, 24)
    mean_target = params.expected_edges
    count = math.comb(24, 3)
    sd_of_mean = math.sqrt(count * params.p * (1 - params.p) / 200)
    runs = [sample(dataclasses.replace(params, seed=s)).m for s in range(200)]
    assert abs(statistics.fmean(runs) - mean_target) <= 5 * sd_of_mean


# --- alter -----------------------------------------------------------------


def test_alter_identity_when_clean():
    params = plan(3, 3, 6, 9)
    h0 = canonicalize([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 9)
    h1, trace = alter(h0, params)
    assert h1.edges == h0.edges
    assert trace.removed_edges == []
    assert trace.w_before == 0 and trace.w_after == 0


def test_alter_hand_example_dense_pairs():
    # all three pairs span 4 <= 3*2 - f(2); two removals break them all
    params = plan(3, 3, 6, 4)
    h0 = canonicalize([[1, 2, 3], [1, 2, 4], [1, 3, 4]], 4)
    h1, trace = alter(h0, params)
    assert trace.y_removed == {2: 2}
    assert trace.z_removed == {2: 0}
    assert h1.edges == ((1, 2, 3),)
    assert trace.x_sampled == 3
    assert len(trace.removed_edges) == 2


def test_alter_entangled_pair_removal():
    # four edges on six vertices: every triple of edges is a bad 3-system
    # and the systems pairwise share two edges, so the entangled-pair sweep
    # fires; one removal leaves a single bad system
    params = plan(3, 3, 6, 6)
    h0 = canonicalize([[1, 2, 3], [3, 4, 5], [1, 5, 6], [2, 4, 6]], 6)
    h1, trace = alter(h0, params)
    assert trace.w_before == 4
    assert trace.y_removed == {2: 0}
    assert trace.z_removed == {2: 1}
    assert trace.w_after == 1
    assert h1.edges == ((1, 2, 3), (1, 5, 6), (2, 4, 6))


def test_alter_dense_level_guarantee_on_random_runs():
    # alteration alone leaves no violator at any level i = 2..e-1 and none
    # of any extra target: alter does not re-check this, so the oracle does.
    # The (7, 4) sweep of the (3, 3, 6) runs finds nothing left to remove;
    # the (8, 5) sweep of the (3, 4, 7) runs does remove edges
    cases = [
        ((3, 3, 6, 20), None, (), range(100)),
        ((3, 4, 7, 9), 20, (), range(20)),
        ((3, 6, 5, 8), None, (), range(10)),
        ((3, 3, 6, 12), 30, ((7, 4),), range(20)),
        ((3, 4, 7, 9), 20, ((8, 5),), range(20)),
    ]
    removing = extra_removing = 0
    for (r, e, v, n), floor, extra, seeds in cases:
        params0 = plan(r, e, v, n, extra, min_expected_edges=floor)
        levels = [(i, i * r - params0.f[i]) for i in range(2, e)]
        levels += [(e_j, v_j) for v_j, e_j in extra]
        for seed in seeds:
            params = dataclasses.replace(params0, seed=seed)
            h0 = sample(params)
            try:
                h1, trace = alter(h0, params)
            except Degenerate:
                continue
            for size, max_span in levels:
                assert oracles.violations(h1.edges, size, max_span) == [], (r, e, v, seed, size)
            assert h1.m + len(trace.removed_edges) == h0.m
            removing += len(trace.removed_edges) > 0
            extra_removing += sum(trace.extra_removed.values()) > 0
    assert removing >= 40 and extra_removing >= 2


def test_alter_makes_no_check_free_call(monkeypatch):
    # the level and extra-target guarantees are certified once, on the
    # output of construct, not again inside alter
    def refuse(*args, **kwargs):
        raise AssertionError("alter called check_free")

    monkeypatch.setattr(builder, "check_free", refuse)
    for (r, e, v, n), floor, extra in [
        ((3, 3, 6, 24), None, ()),
        ((3, 4, 7, 9), 20, ()),
        ((3, 3, 6, 12), 30, ((7, 4),)),
    ]:
        params = plan(r, e, v, n, extra, min_expected_edges=floor)
        h1, trace = alter(sample(params), params)
        assert trace.removed_edges and h1.m > 0


def test_alter_makes_no_pair_kernel_call(monkeypatch):
    # level 2 is a greedy over the edges' shared vertices, never a listing
    # of the span-bounded pairs; the other levels and targets still are
    sizes = []

    def recording(masks, size, max_span, **kwargs):
        sizes.append(size)
        return span_bounded_systems(masks, size, max_span, **kwargs)

    monkeypatch.setattr(builder, "span_bounded_systems", recording)
    level_two = 0
    for (r, e, v, n), floor, extra in [
        ((3, 3, 6, 64), None, ()),
        ((3, 6, 5, 16), None, ()),
        ((3, 4, 7, 9), 20, ((8, 5),)),
        ((11, 5, 50, 23), 1000, ()),
    ]:
        params = plan(r, e, v, n, extra, min_expected_edges=floor)
        h1, trace = alter(sample(params), params)
        level_two += trace.y_removed[2] > 0
    assert 2 not in sizes and {3, 4, 5} <= set(sizes)
    # at (3, 6, 5) f(2) = 3 = r, so no two distinct edges conflict at level 2
    assert level_two == 3


def test_alter_level_two_budget_counts_every_pair():
    # level 2 lists no pairs, yet the budget still counts every pair of
    # sampled edges spanning at most 2r - f(2): count passes, count - 1
    # raises.  With n <= v nothing is enumerated before level 2
    checked = 0
    for (r, e, v, n), floor in [((3, 3, 6, 6), 9), ((3, 3, 6, 6), 14), ((11, 5, 50, 23), 300)]:
        params0 = plan(r, e, v, n, min_expected_edges=floor)
        for seed in range(4):
            params = dataclasses.replace(params0, seed=seed)
            h0 = sample(params)
            pairs = len(oracles.violations(h0.edges, 2, 2 * r - params.f[2]))
            alter(h0, params, budget=pairs)
            message = f"^{pairs} span-bounded pairs exceed budget {pairs - 1}$"
            with pytest.raises(BudgetExceeded, match=message):
                alter(h0, params, budget=pairs - 1)
            checked += pairs > 0
    assert checked == 12
    # at (3, 6, 5) f(2) = r: no two distinct edges conflict, nothing is
    # counted, and a budget below zero first trips the degenerate check
    params = plan(3, 6, 5, 16)
    two = sample(params).subhypergraph([0, 1])
    with pytest.raises(BudgetExceeded, match="all 0 e-subsets are bad"):
        alter(two, params, budget=-1)


def test_alter_counts_consistent(rng):
    params0 = plan(3, 3, 6, 24)
    for seed in range(20):
        params = dataclasses.replace(params0, seed=seed)
        h0 = sample(params)
        if h0.m == 0:
            continue
        h1, trace = alter(h0, params)
        assert trace.x_sampled == h0.m
        assert trace.w_before == len(oracles.violations(h0.edges, 3, 6))
        assert trace.w_after == len(oracles.violations(h1.edges, 3, 6))


def test_alter_matches_plain_alteration_rule():
    # dense samples, so that pairs of bad e-systems entangle often; at
    # (3, 6, 5, 8), seeds 77 and 134 remove edges in another order when a
    # system's entangled partners are not visited in lexicographic order
    cases = [
        ((3, 3, 6, 10), 40, (), range(8)),
        ((3, 4, 7, 9), 20, (), range(8)),
        ((3, 3, 6, 12), 30, ((7, 4),), range(8)),
        ((3, 6, 5, 8), None, (), (77, 134)),
    ]
    checked = 0
    for (r, e, v, n), floor, extra, seeds in cases:
        params0 = plan(r, e, v, n, extra, min_expected_edges=floor)
        level_spans = {i: i * r - params0.f[i] for i in range(2, e)}
        for seed in seeds:
            params = dataclasses.replace(params0, seed=seed)
            h0 = sample(params)
            expected = oracles.alteration_removals(h0.edges, e, v, level_spans, extra)
            try:
                _, trace = alter(h0, params)
            except Degenerate:
                assert len(expected) == h0.m
                continue
            assert trace.removed_edges == expected
            checked += sum(trace.z_removed.values()) > 0
    assert checked >= 14


def test_alter_bad_systems_match_fresh_enumeration():
    # the sample is enumerated once; W_before, W_after and the surviving
    # systems handed to build_aux must equal fresh enumerations, including
    # the degenerate n <= v case where every e-subset is bad
    cases = [((3, 3, 6, 24), None, 10), ((3, 6, 5, 12), None, 3), ((3, 3, 6, 6), 9, 6)]
    checked = 0
    for (r, e, v, n), floor, seeds in cases:
        params0 = plan(r, e, v, n, min_expected_edges=floor)
        for seed in range(seeds):
            params = dataclasses.replace(params0, seed=seed)
            h0 = sample(params)
            try:
                h1, trace = alter(h0, params)
            except Degenerate:
                continue
            assert trace.w_before == len(span_bounded_systems(h0.masks, e, v))
            fresh = span_bounded_systems(h1.masks, e, v)
            assert list(trace.bad_after) == fresh
            assert trace.w_after == len(fresh)
            if h0.m <= 30:
                assert trace.w_before == len(oracles.violations(h0.edges, e, v))
                assert fresh == oracles.violations(h1.edges, e, v)
            assert build_aux(h1, params, systems=trace.bad_after).edges == tuple(fresh)
            checked += 1
    assert checked >= 15


def test_alter_and_build_aux_enumerate_bad_systems_once(monkeypatch):
    calls = []

    def counting(masks, size, max_span, **kwargs):
        calls.append((size, max_span))
        return span_bounded_systems(masks, size, max_span, **kwargs)

    monkeypatch.setattr(builder, "span_bounded_systems", counting)
    monkeypatch.setattr(freeness, "span_bounded_systems", counting)
    for (r, e, v, n) in [(3, 3, 6, 48), (3, 6, 5, 12)]:
        params0 = plan(r, e, v, n)
        for seed in range(3):
            params = dataclasses.replace(params0, seed=seed)
            h0 = sample(params)
            calls.clear()
            h1, trace = alter(h0, params)
            build_aux(h1, params, systems=trace.bad_after)
            assert calls.count((e, v)) == 1
            assert trace.w_before > 0


# --- build_aux and independent_set ------------------------------------------


def test_aux_empty_when_no_bad_systems():
    params = plan(3, 3, 6, 9)
    h1 = canonicalize([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 9)
    aux = build_aux(h1, params, systems=())
    assert aux.edges == ()
    assert independent_set(aux, seed=0) == tuple(range(3))


def test_aux_edges_revalidate_and_linear():
    params0 = plan(3, 3, 6, 24)
    for seed in range(20):
        params = dataclasses.replace(params0, seed=seed)
        h0 = sample(params)
        if h0.m == 0:
            continue
        h1, trace = alter(h0, params)
        aux = build_aux(h1, params, systems=trace.bad_after)
        for sys in aux.edges:
            assert union_span(h1, list(sys)) <= 6
        for a in range(len(aux.edges)):
            for b in range(a + 1, len(aux.edges)):
                assert len(set(aux.edges[a]) & set(aux.edges[b])) <= 1
        # aux edges are exactly the bad systems
        assert list(aux.edges) == oracles.violations(h1.edges, 3, 6)


def test_independent_set_single_edge():
    params = plan(3, 3, 6, 6)
    h1 = canonicalize([[1, 2, 3], [1, 4, 5], [2, 4, 6]], 6)
    aux = build_aux(h1, params, systems=oracles.violations(h1.edges, 3, 6))
    assert aux.edges == ((0, 1, 2),)
    kept = independent_set(aux, seed=0)
    assert len(kept) == 2


def test_independent_set_meets_degree_floor_and_is_independent():
    params0 = plan(3, 3, 6, 32)
    for seed in range(10):
        params = dataclasses.replace(params0, seed=seed)
        h0 = sample(params)
        h1, trace = alter(h0, params)
        aux = build_aux(h1, params, systems=trace.bad_after)
        kept = independent_set(aux, seed=seed)
        floor = math.ceil(aux.num_vertices / (1 + aux.average_degree))
        assert len(kept) >= floor
        chosen = set(kept)
        assert all(not set(sys) <= chosen for sys in aux.edges)


def test_independent_set_matches_full_scan_exchange():
    # the exchange pass scans only free vertices and aux neighbours of the
    # member it tries to swap out; the oracle scans every vertex.  Some
    # swap must leave a vertex free, so that a stale free set shows
    cases = [
        ((3, 3, 6, 64), None),
        ((3, 3, 6, 128), None),
        ((3, 3, 6, 200), None),
        ((3, 4, 7, 40), None),
        ((3, 6, 5, 16), None),
    ]
    runs = swaps_leaving_free = 0
    for (r, e, v, n), floor in cases:
        params0 = plan(r, e, v, n, min_expected_edges=floor)
        for seed in range(12):
            params = dataclasses.replace(params0, seed=seed)
            try:
                h1, trace = alter(sample(params), params)
            except Degenerate:
                continue
            aux = build_aux(h1, params, systems=trace.bad_after)
            expected, left_free = oracles.greedy_exchange(aux.num_vertices, aux.edges, seed)
            assert independent_set(aux, seed) == expected, (r, e, v, n, seed)
            runs += 1
            swaps_leaving_free += left_free
    assert runs >= 50 and swaps_leaving_free >= 1


# --- construct ---------------------------------------------------------------


def test_construct_336_frozen_yield():
    result = construct(3, 3, 6, 64, seed=1)
    assert result.hypergraph.m == 60
    assert result.trace.x_sampled == 114
    assert result.trace.w_before == 555


def test_construct_output_certified_by_oracle():
    result = construct(3, 3, 6, 48, seed=3)
    edges = result.hypergraph.edges
    assert oracles.is_free(edges, 2, 4)
    assert oracles.is_free(edges, 3, 6)


def test_construct_result_carries_certificate():
    result = construct(3, 3, 6, 48, seed=3)
    assert result.certificate.holds
    assert result.certificate == check_profile(result.hypergraph, ladder_profile(3, 3, 6))


def test_construct_seed7_spec_point():
    h = construct(3, 3, 6, 64, seed=7).hypergraph
    assert check_profile(h, ladder_profile(3, 3, 6)).holds


def test_construct_deterministic():
    a = construct(3, 3, 6, 64, seed=2)
    b = construct(3, 3, 6, 64, seed=2)
    assert serialize_hg(a.hypergraph) == serialize_hg(b.hypergraph)
    assert a.trace.to_report() == b.trace.to_report()


def test_construct_extra_target_enforced():
    result = construct(3, 3, 6, 48, seed=0, extra_targets=[(7, 4)])
    h = result.hypergraph
    assert check_free(h, FreenessConstraint(4, 7)).holds
    assert oracles.is_free(h.edges, 4, 7)
    # removal counts are keyed by extra-target position
    assert list(result.trace.extra_removed) == [0]


def test_construct_retries_exhausted_reports_best():
    with pytest.raises(RetriesExhausted) as ei:
        construct(3, 3, 6, 16, seed=0, max_retries=2, min_yield=10**6)
    assert ei.value.best_yield >= 0


def test_construct_trace_report_shape():
    report = construct(3, 3, 6, 32, seed=4).trace.to_report()
    assert set(report) == {"X", "Y", "Z", "W_before", "W_after", "Wj", "removed", "yield"}
    assert report["X"] >= report["yield"] >= 1
    total_removed = len(report["removed"])
    assert report["X"] - total_removed >= report["yield"]
