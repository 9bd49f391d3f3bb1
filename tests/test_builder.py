import dataclasses
import hashlib
import json
import math
import random
import statistics
from fractions import Fraction

import pytest

import oracles
from conftest import cyclic_garbage
from sparsehg import (
    BadRange,
    BudgetExceeded,
    ConstructionParams,
    Degenerate,
    DegenerateP,
    GcdCondition,
    NotLinear,
    RetriesExhausted,
    TargetOrdering,
    TooLarge,
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
    FreenessConstraint,
)
from sparsehg import builder, freeness


# --- plan ------------------------------------------------------------------


def test_plan_336_window_and_probability():
    params = plan(3, 3, 6, 64)
    assert params.f == {2: 2, 3: 3}
    assert oracles.window_bound(3, 3, 6) == Fraction(1, 6)
    assert params.epsilon == Fraction(1, 12)
    # exponent -(v-r)/(e-1) + epsilon = -3/2 + 1/12 = -17/12
    assert params.p == pytest.approx(64.0 ** (-17 / 12))


def test_plan_window_matches_bracket_oracle():
    for r, e, v in [(3, 3, 6), (4, 5, 13), (3, 6, 5), (11, 5, 50), (3, 9, 24)]:
        params = plan(r, e, v, max(r + 1, v + 1))
        assert params.epsilon == oracles.window_bound(r, e, v) / 2


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
    with pytest.raises(BadRange):
        plan(3, 3, 6, 64, extra_targets=[(9, 3)])  # v_j above e_j*r - 1
    with pytest.raises(BadRange):
        plan(3, 3, 6, 32, max_retries=0)
    # a library error, not numpy's ValueError from default_rng
    with pytest.raises(BadRange):
        plan(3, 3, 6, 64, seed=-1)
    with pytest.raises(BadRange):
        construct(3, 3, 6, 64, seed=-1)


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
    gap = Fraction(3, 2) - Fraction(4, 3)
    assert params.epsilon == min(oracles.window_bound(3, 3, 6), gap) / 2
    # a gap of 3/2 - 7/5 = 1/10, below the bracket bound 1/6, sets epsilon
    params = plan(3, 3, 6, 64, extra_targets=[(7, 4), (10, 6)])
    assert params.epsilon == (Fraction(3, 2) - Fraction(7, 5)) / 2


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
    )


def test_sample_limits():
    full = sample(_params_with_p(1.0))
    assert full.m == math.comb(6, 3)
    empty = sample(_params_with_p(0.0))
    assert empty.m == 0
    with pytest.raises(BadRange):  # C(n, r) > 2**62 ranks
        sample(plan(3, 3, 6, 4_000_000))
    # the edge count is drawn first, so a sample the budget could not
    # list is refused before its ranks are drawn
    params = plan(3, 3, 6, 64, seed=3)
    count = sample(params).m
    assert sample(params, budget=count).m == count
    with pytest.raises(TooLarge, match=f"a sample of {count} edges exceeds budget {count - 1}"):
        sample(params, budget=count - 1)


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


def test_sample_matches_unrank_combination():
    # sample draws its sorted ranks from random.Random(seed); the edges must
    # be those ranks unranked, for none, one or two, and about 400 edges
    counts = set()
    for n, r in [(3, 3), (9, 3), (12, 5), (40, 3), (23, 11), (1024, 3), (70, 65)]:
        population = math.comb(n, r)
        for p in (0.0, min(1.0, 3 / population), min(1.0, 400 / population)):
            for seed in (11, 12):
                params = dataclasses.replace(_params_with_p(p, n=n, seed=seed), r=r)
                h = sample(params)
                ranks = sorted(random.Random(seed).sample(range(population), h.m))
                assert list(h.edges) == [oracles.unrank_combination(i, n, r) for i in ranks], (n, r, p, seed)
                counts.add(h.m)
    assert {0, 1, 2} <= counts and max(counts) > 300
    every = sample(dataclasses.replace(_params_with_p(1.0, n=10), r=4))
    assert list(every.edges) == [oracles.unrank_combination(i, 10, 4) for i in range(math.comb(10, 4))]


def test_sample_mean_tracks_expectation():
    params = plan(3, 3, 6, 24)
    count = math.comb(24, 3)
    mean_target = params.p * count
    sd_of_mean = math.sqrt(count * params.p * (1 - params.p) / 200)
    runs = [sample(dataclasses.replace(params, seed=s)).m for s in range(200)]
    assert abs(statistics.fmean(runs) - mean_target) <= 5 * sd_of_mean


# --- alter -----------------------------------------------------------------


def on_level_two_survivors(h0, trace, systems):
    """The systems of the sample `h0`, as index tuples, whose edges all
    survive level 2: it removes first, so its removals open
    `trace.removed_edges`."""
    gone = set(trace.removed_edges[: trace.y_removed[2]])
    return [s for s in systems if gone.isdisjoint(h0.edges[k] for k in s)]


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
    # at (3, 6, 5) f(2) = r: no two distinct edges conflict, so level 2
    # counts nothing and even a budget below zero passes it; two edges hold
    # no 6-system, so nothing else is listed either
    params = plan(3, 6, 5, 16)
    two = sample(params).subhypergraph([0, 1])
    h1, trace = alter(two, params, budget=-1)
    assert trace.y_removed[2] == 0 and h1.edges == two.edges


def test_alter_level_two_stops_at_the_budget(monkeypatch):
    # the sweep raises at the first edge whose partners take the pair count
    # past the budget, not after reading every edge's partners
    read = []

    def counting(*args):
        for partners in freeness._partners(*args):
            read.append(partners)
            yield partners

    monkeypatch.setattr(builder, "_partners", counting)
    params = plan(11, 5, 50, 23, min_expected_edges=1000)
    h0 = sample(params)
    with pytest.raises(BudgetExceeded, match="span-bounded pairs exceed budget 10$"):
        alter(h0, params, budget=10)
    assert 0 < len(read) < h0.m // 10


def test_alter_counts_consistent(rng):
    params0 = plan(3, 3, 6, 24)
    for seed in range(20):
        params = dataclasses.replace(params0, seed=seed)
        h0 = sample(params)
        if h0.m == 0:
            continue
        h1, trace = alter(h0, params)
        assert trace.x_sampled == h0.m
        sample_systems = oracles.violations(h0.edges, 3, 6)
        assert trace.w_before == len(on_level_two_survivors(h0, trace, sample_systems))
        assert trace.w_after == len(oracles.violations(h1.edges, 3, 6))


def test_alter_matches_plain_alteration_rule():
    # dense samples, so that pairs of bad e-systems entangle often; at
    # (3, 6, 5, 8), seeds 77 and 134 remove edges in another order when a
    # system's entangled partners are not visited in lexicographic order;
    # every seed there but seed 3 does when a partner that a removal earlier
    # in the same visit broke is not re-checked before it removes an edge
    cases = [
        ((3, 3, 6, 10), 40, (), range(8)),
        ((3, 4, 7, 9), 20, (), range(8)),
        ((3, 3, 6, 12), 30, ((7, 4),), range(8)),
        ((3, 6, 5, 8), None, (), (77, 134, *range(6))),
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
    assert checked >= 32


def test_alter_pinned_on_the_cbc_e6_path():
    # the cbc-e6 builder's (3, 6, 5, 16) alteration: reports, surviving
    # systems and edges recorded before the entangled-pair sweep counted
    # over live lists, so a faster sweep must not change what it removes.
    # `cbc construct` writes no trace, so its .hg digests alone would miss
    # a change that the independent set happens to hide
    pinned = {
        0: "07cfaccf921f143ee4c5173d984147420c1b1823be4f09ff308e2a7a0399d5d4",
        1: "6a84cd2024a45d8ce30422b637ef3bc560856b60454a096346ecf1217c62079d",
        2: "80a666092ae4b8f68eee371766fca319bcc7e70493630a0ef5c3dfafaef8114f",
        3: "c8df6442cb2cd2c5a3f956e6e16d67e4f91c8d8d8bc8c8e3fbfa5dc77ed91b39",
        4: "598cab26473c0b12973415df22d368b18c1fb2ea89e0889d2ab2f9416ba81419",
        5: "036e1fa157cbb9c959b202f8abcabb71d8af11882c49e4ef4b57640c007aa4a0",
        6: "52ce81609ecd913490abc456578a9eeafa4f0278adbc3c6eb93f7dac17ea7d6a",
        7: "62c07fab87d43ac6cbde9938950e49606dd4bbcfa0a482b56ce611a29f076af9",
        8: "8bc7635e452b56ee28000ba7a5ef766903647b9775a80d455c5fc543e2d713a3",
        9: "b5f6d386f9359dc7ceaa33297684e7bd03b6aa016f3e9186284f08ce582c8348",
        10: "b86ac2f6c3138c91fcb7c292d07459950ebc36d8df1a68a2f330f2b3414325b9",
        11: "74e9834de2171ddbc7678c2591f03d0fa92ace661366af69df1a81651872710a",
        12: "31a5ce2573f610e7b3426db9a5fd586caebb53811351918eed3cc3b38cb24c8c",
        13: "96f09dee7c4b678e5cd3f1e52efc4e9d4bd2115eee70b6a945b0b76eea996c4f",
        14: "cea889e0c2b87714b95e11458fcabcb8ad11e26ca1312c2e6a30e5c6056054b7",
        15: "596c8e0d1694b57cff3526cf4964a3c801ba7e3828408375c31151a197b14e28",
    }
    params0 = plan(3, 6, 5, 16)
    for seed, expected in pinned.items():
        params = dataclasses.replace(params0, seed=seed)
        h1, trace = alter(sample(params), params)
        record = json.dumps([trace.to_report(), trace.bad_after, h1.edges])
        assert hashlib.sha256(record.encode()).hexdigest() == expected, seed
        assert sum(trace.z_removed.values()) > 0, seed


def test_alter_leaves_no_cyclic_garbage():
    params = dataclasses.replace(plan(3, 6, 5, 16), seed=7)
    h0 = sample(params)
    assert cyclic_garbage(lambda: alter(h0, params)) == 0


def test_alter_bad_systems_match_fresh_enumeration():
    # level 2's survivors are enumerated once; W_before, W_after and the
    # surviving systems handed to build_aux must equal fresh enumerations,
    # including the degenerate n <= v case where every e-subset is bad.
    # W_before is the sample's systems whose edges all survive level 2
    cases = [
        ((3, 3, 6, 24), None, 10),
        ((3, 6, 5, 12), None, 3),
        ((3, 3, 6, 6), 9, 6),
        ((3, 4, 7, 9), 20, 6),
    ]
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
            sample_systems = span_bounded_systems(h0.masks, e, v)
            assert trace.w_before == len(on_level_two_survivors(h0, trace, sample_systems))
            fresh = span_bounded_systems(h1.masks, e, v)
            assert list(trace.bad_after) == fresh
            assert trace.w_after == len(fresh)
            if h0.m <= 30:
                assert sample_systems == oracles.violations(h0.edges, e, v)
                assert fresh == oracles.violations(h1.edges, e, v)
            assert build_aux(h1, params, systems=trace.bad_after).edges == tuple(fresh)
            checked += 1
    assert checked >= 15


def test_alter_and_build_aux_enumerate_bad_systems_once(monkeypatch):
    # the one (e, v) listing runs on level 2's survivors, not on the sample
    calls = []

    def counting(masks, size, max_span, **kwargs):
        calls.append((size, max_span, len(masks)))
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
            assert [c[2] for c in calls if c[:2] == (e, v)] == [h0.m - trace.y_removed[2]]
            assert trace.w_before > 0


# --- build_aux and independent_set ------------------------------------------


def test_aux_empty_when_no_bad_systems():
    params = plan(3, 3, 6, 9)
    h1 = canonicalize([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 9)
    aux = build_aux(h1, params, systems=())
    assert aux.edges == ()
    assert independent_set(aux, seed=0) == tuple(range(3))


def test_aux_rejects_systems_that_share_a_pair():
    # alter leaves no two bad systems sharing two edges; a list that does
    # is an internal failure, not an aux graph
    params = plan(3, 3, 6, 9)
    h1 = canonicalize([[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 2, 6]], 9)
    with pytest.raises(NotLinear, match=r"share two vertices: pair \(0, 1\)"):
        build_aux(h1, params, systems=((0, 1, 2), (0, 1, 3)))


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
            assert h1.union_span(list(sys)) <= 6
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
    # the bad 3-systems after level 2; the 114-edge sample holds 555
    assert result.trace.w_before == 125


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
