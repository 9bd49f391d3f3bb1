"""Randomized construction of span-free hypergraphs by alteration.

Pipeline: sample every r-subset of 1..n independently with probability p,
remove one edge from each small dense configuration (per-level violators
and entangled pairs of bad e-systems), then take an independent set in the
auxiliary hypergraph whose vertices are the surviving edges and whose aux
edges are the surviving bad e-systems.  The result provably satisfies the
graded profile, and the final check is run, not assumed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb

import numpy as np

from .errors import (
    BadRange,
    BudgetExceeded,
    CertificationFailed,
    Degenerate,
    DegenerateP,
    NotLinear,
    RetriesExhausted,
    SparseHgError,
    TargetOrdering,
)
from .freeness import (
    FreenessConstraint,
    Verdict,
    check_free,
    check_profile,
    ladder_profile,
    span_bounded_systems,
    span_deficits,
)
from .hypergraph import Hypergraph


@dataclass(frozen=True)
class ConstructionParams:
    """Validated parameters of one construction run.

    epsilon sits at the midpoint of the admissible window (0, min(a, b)):
    a is the bound extracted from the two bracket conditions on the
    deficits f(i), and b (present only with extra targets) keeps the
    sampling exponent below every extra target's critical exponent.
    """

    r: int
    e: int
    v: int
    n: int
    epsilon: Fraction
    p: float
    f: dict[int, int]
    extra_targets: tuple[tuple[int, int], ...]
    seed: int
    max_retries: int
    min_yield: int
    window_a: Fraction
    window_b: Fraction | None

    @property
    def expected_edges(self) -> float:
        return self.p * comb(self.n, self.r)


@dataclass
class AlterationTrace:
    """Counts of everything the alteration removed, plus the removed edges.

    `bad_after` holds the surviving bad e-systems as index tuples into the
    altered hypergraph, in lexicographic order, for `build_aux`.  It is not
    part of the report.
    """

    x_sampled: int
    y_removed: dict[int, int] = field(default_factory=dict)
    z_removed: dict[int, int] = field(default_factory=dict)
    w_before: int = 0
    w_after: int = 0
    extra_removed: dict[int, int] = field(default_factory=dict)
    removed_edges: list[tuple[int, ...]] = field(default_factory=list)
    final_yield: int | None = None
    bad_after: tuple[tuple[int, ...], ...] | None = None

    def to_report(self) -> dict:
        return {
            "X": self.x_sampled,
            "Y": {str(i): c for i, c in sorted(self.y_removed.items())},
            "Z": {str(i): c for i, c in sorted(self.z_removed.items())},
            "W_before": self.w_before,
            "W_after": self.w_after,
            "Wj": {str(j): c for j, c in sorted(self.extra_removed.items())},
            "removed": [list(e) for e in self.removed_edges],
            "yield": self.final_yield,
        }


@dataclass(frozen=True)
class AuxGraph:
    """Auxiliary hypergraph: vertices are edge indices of the altered graph,
    aux edges are its bad e-systems.  Linear by construction (checked)."""

    num_vertices: int
    size: int
    edges: tuple[tuple[int, ...], ...]

    @property
    def average_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.size * len(self.edges) / self.num_vertices


@dataclass(frozen=True)
class ConstructionResult:
    """The certified output, its attempt's parameters and trace, and the
    certificate: the ladder-profile verdict checked on the output."""

    hypergraph: Hypergraph
    params: ConstructionParams
    trace: AlterationTrace
    certificate: Verdict


def plan(
    r: int,
    e: int,
    v: int,
    n: int,
    extra_targets: tuple[tuple[int, int], ...] = (),
    seed: int = 0,
    *,
    max_retries: int = 16,
    min_yield: int | None = None,
    min_expected_edges: float | None = None,
) -> ConstructionParams:
    """Validate parameters and fix epsilon, p, and the deficits f(i).

    p follows n ** (-(v - r)/(e - 1) + epsilon) with unit constant; the
    optional min_expected_edges floor raises p so the expected sample is
    workable at small n (the asymptotic exponent is unchanged since the
    floor only binds when the power law falls below it).  Extra targets
    (v_j, e_j) must have a strictly larger critical exponent
    (e_j*r - v_j)/(e_j - 1) than the main target.
    """
    f = span_deficits(r, e, v)  # validates ranges and the gcd condition
    # n <= v is allowed: any e edges then span <= v, so certified outputs
    # are capped below e edges, which small-field block constructions use
    if n < r:
        raise BadRange(f"need n >= r = {r}, got n={n}")
    main_exp = Fraction(e * r - v, e - 1)
    for v_j, e_j in extra_targets:
        if e_j < 2 or v_j < r + 1 or v_j > e_j * r - 1:
            raise BadRange(f"extra target ({v_j}, {e_j}) out of range")
        if Fraction(e_j * r - v_j, e_j - 1) <= main_exp:
            raise TargetOrdering(
                f"extra target ({v_j}, {e_j}) is not strictly easier than ({v}, {e})"
            )

    window_a = None
    for i in range(2, e):
        g = Fraction((i - 1) * (e * r - v), e - 1)
        lo = (f[i] - g) / (i - 1)
        hi = (g + 1 - f[i]) / (2 * e - i - 1)
        for bound in (lo, hi):
            if window_a is None or bound < window_a:
                window_a = bound
    assert window_a is not None and window_a > 0

    window_b = None
    for v_j, e_j in extra_targets:
        gap = Fraction(v - r, e - 1) - Fraction(v_j - r, e_j - 1)
        if window_b is None or gap < window_b:
            window_b = gap
    epsilon = (window_a if window_b is None else min(window_a, window_b)) / 2

    exponent = float(-Fraction(v - r, e - 1) + epsilon)
    p = math.exp(exponent * math.log(n))
    n_edges = comb(n, r)
    if min_expected_edges is not None:
        p = max(p, min_expected_edges / n_edges)
    if not 0.0 < p < 1.0:
        raise DegenerateP(f"sampling probability p={p} not in (0,1) at n={n}")
    if min_yield is None:
        # the greedy independent-set stage divides the sample size by
        # roughly one plus the aux-graph degree, so the default floor is a
        # small fraction of the expected sample rather than a large one
        min_yield = max(1, math.ceil(0.05 * p * n_edges))
    if max_retries < 1:
        raise BadRange("max_retries must be >= 1")
    return ConstructionParams(
        r=r,
        e=e,
        v=v,
        n=n,
        epsilon=epsilon,
        p=p,
        f=f,
        extra_targets=tuple(extra_targets),
        seed=seed,
        max_retries=max_retries,
        min_yield=min_yield,
        window_a=window_a,
        window_b=window_b,
    )


def unrank_combination(idx: int, n: int, r: int) -> tuple[int, ...]:
    """The idx-th r-subset of 1..n in lexicographic order (0-based rank)."""
    edge = []
    x = 1
    for k in range(r, 0, -1):
        while comb(n - x, k - 1) <= idx:
            idx -= comb(n - x, k - 1)
            x += 1
        edge.append(x)
        x += 1
    return tuple(edge)


def sample(params: ConstructionParams) -> Hypergraph:
    """Draw the binomial random hypergraph for these parameters.

    The number of edges is Binomial(C(n, r), p); that many distinct edges
    are then chosen uniformly via rank sampling, so any two runs with the
    same seed produce identical hypergraphs.
    """
    n, r, p = params.n, params.r, params.p
    population = comb(n, r)
    if population > 2**62:
        raise BadRange(f"C({n},{r}) too large for the sampler")
    if p <= 0.0:
        count = 0
    elif p >= 1.0:
        count = population
    else:
        count = int(np.random.default_rng(params.seed).binomial(population, p))
    rng = random.Random(params.seed)
    ranks = sorted(rng.sample(range(population), count))
    edges = tuple(unrank_combination(i, n, r) for i in ranks)
    return Hypergraph(n, r, edges, False)


def _support(masks) -> int:
    u = 0
    for m in masks:
        u |= m
    return u.bit_count()


def alter(
    h0: Hypergraph, params: ConstructionParams, *, budget: int = 10**6
) -> tuple[Hypergraph, AlterationTrace]:
    """Remove one edge per dense violator, per entangled bad-system pair,
    and per extra-target violator, in deterministic lexicographic order.

    For each level i = 2..e-1 ascending: enumerate the current i-subsets
    spanning at most i*r - f(i) and remove the greatest edge of each
    still-intact one; then, for pairs of current bad e-systems (e edges
    spanning at most v) sharing precisely i edges whose shared union spans
    at least i*r - f(i) + 1, remove the greatest edge of the pair's union.
    Extra targets are swept last.  The output is re-checked against every
    per-level constraint.

    The bad e-systems are enumerated once, on the sample: alteration only
    deletes edges, so those of any later hypergraph are the sample's bad
    e-systems whose edges all survive.  The survivors' systems, re-indexed
    to the output, are left in `trace.bad_after` for `build_aux`.
    """
    r, e, v, f = params.r, params.e, params.v, params.f
    edges = list(h0.edges)
    masks = list(h0.masks)
    m = len(edges)
    alive = [True] * m
    trace = AlterationTrace(x_sampled=m)

    def alive_indices() -> list[int]:
        return [k for k in range(m) if alive[k]]

    def sub_systems(size: int, max_span: int) -> list[tuple[int, ...]]:
        """Systems of the current hypergraph, as original-index tuples."""
        sub = alive_indices()
        sub_edges = [edges[k] for k in sub]
        sub_masks = [masks[k] for k in sub]
        found = span_bounded_systems(sub_edges, sub_masks, size, max_span, budget=budget, simple=True)
        return [tuple(sub[a] for a in s) for s in found]

    def remove(k: int):
        alive[k] = False
        trace.removed_edges.append(edges[k])

    if m >= e and v >= min(e * r, _support(masks)):
        # every e-subset is bad, and stays so after any deletion while e
        # edges survive: current_bad lists them itself, so none are stored
        bad = []
        trace.w_before = comb(m, e)
    else:
        bad = span_bounded_systems(edges, masks, e, v, budget=budget, simple=True)
        trace.w_before = len(bad)

    def current_bad() -> list[tuple[int, ...]]:
        """Bad e-systems of the current hypergraph, as original-index
        tuples in lexicographic order."""
        nonlocal bad
        cur = alive_indices()
        if len(cur) >= e and v >= min(e * r, _support([masks[k] for k in cur])):
            if comb(len(cur), e) > budget:
                raise BudgetExceeded(
                    f"degenerate parameters: all {comb(len(cur), e)} e-subsets are bad"
                )
            return list(itertools.combinations(cur, e))
        bad = [s for s in bad if all(alive[k] for k in s)]
        return bad

    for i in range(2, e):
        thr = i * r - f[i]
        cur = alive_indices()
        removed_here = 0
        support = _support([masks[k] for k in cur])
        if cur and thr >= min(i * r, support):
            # every i-subset violates: keeping the first i-1 edges and
            # removing the rest matches lexicographic processing exactly
            for k in cur[i - 1 :]:
                remove(k)
                removed_here += 1
        else:
            for s in sub_systems(i, thr):
                if all(alive[k] for k in s):
                    remove(s[-1])
                    removed_here += 1
        trace.y_removed[i] = removed_here

        # entangled pairs of current bad e-systems sharing precisely i edges,
        # visited in lexicographic order of (s1, s2): one s1 at a time, so
        # only the partners of one system are held at once
        current = current_bad()
        buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for s in current:
            for t in itertools.combinations(s, i):
                buckets.setdefault(t, []).append(s)
        pair_thr = i * r - f[i] + 1
        shared = {
            t: members
            for t, members in buckets.items()
            if len(members) >= 2 and _support([masks[k] for k in t]) >= pair_thr
        }
        removed_here = 0
        for s1 in current:
            if not all(alive[k] for k in s1):
                continue  # every pair holding s1 is already broken
            partners = sorted(
                s2
                for t in itertools.combinations(s1, i)
                for s2 in shared.get(t, ())
                if s2 > s1 and len(set(s1).intersection(s2)) == i
            )
            for s2 in partners:
                both = set(s1) | set(s2)
                if all(alive[k] for k in both):
                    remove(max(both))
                    removed_here += 1
        trace.z_removed[i] = removed_here

    for j, (v_j, e_j) in enumerate(params.extra_targets):
        removed_here = 0
        for s in sub_systems(e_j, v_j):
            if all(alive[k] for k in s):
                remove(s[-1])
                removed_here += 1
        trace.extra_removed[j] = removed_here

    survivors = alive_indices()
    if not survivors:
        raise Degenerate("alteration removed every edge")
    h1 = h0.subhypergraph(survivors)
    position = {k: a for a, k in enumerate(survivors)}
    trace.bad_after = tuple(tuple(position[k] for k in s) for s in current_bad())
    trace.w_after = len(trace.bad_after)

    # guarantees are checked, not assumed
    for i in range(2, e):
        verdict = check_free(h1, FreenessConstraint(i, i * r - f[i]), budget=budget)
        if not verdict.holds:
            raise CertificationFailed(f"alteration left a level-{i} violator: {verdict.witness}")
    for v_j, e_j in params.extra_targets:
        verdict = check_free(h1, FreenessConstraint(e_j, v_j), budget=budget)
        if not verdict.holds:
            raise CertificationFailed(f"alteration left an extra-target violator: {verdict.witness}")
    return h1, trace


def build_aux(
    h1: Hypergraph,
    params: ConstructionParams,
    *,
    budget: int = 10**6,
    systems: tuple[tuple[int, ...], ...] | None = None,
) -> AuxGraph:
    """Auxiliary hypergraph on the surviving edges: one aux edge per bad
    e-system.  `systems` passes in the bad e-systems of `h1` when they are
    already known (`trace.bad_after` from `alter`); otherwise they are
    enumerated.  The alteration guarantees linearity (no two aux edges
    share two vertices); NotLinear means an internal failure."""
    e, v = params.e, params.v
    if h1.m < e:
        return AuxGraph(h1.m, e, ())
    if systems is None:
        if v >= min(e * h1.r, _support(h1.masks)):
            if comb(h1.m, e) > budget:
                raise BudgetExceeded("degenerate parameters: all e-subsets are bad")
            systems = list(itertools.combinations(range(h1.m), e))
        else:
            systems = span_bounded_systems(h1.edges, h1.masks, e, v, budget=budget, simple=True)
    seen_pairs: set[tuple[int, int]] = set()
    for s in systems:
        for pair in itertools.combinations(s, 2):
            if pair in seen_pairs:
                raise NotLinear(f"aux edges share two vertices: pair {pair}")
            seen_pairs.add(pair)
    return AuxGraph(h1.m, e, tuple(systems))


def independent_set(aux: AuxGraph, seed: int) -> tuple[int, ...]:
    """Greedy independent set in the aux hypergraph, plus one exchange pass.

    A vertex is kept unless it would complete an aux edge among kept
    vertices, so each aux edge blocks at most one vertex.  The exchange
    pass tries to swap one member for two non-members.  Result size is
    required to reach ceil(nv / (1 + average degree)); seeds derived from
    `seed` are retried if a permutation falls short (not observed in
    practice on linear aux graphs).
    """
    nv = aux.num_vertices
    if nv == 0:
        return ()
    if not aux.edges:
        return tuple(range(nv))
    member_of: dict[int, list[int]] = {}
    for a, s in enumerate(aux.edges):
        for k in s:
            member_of.setdefault(k, []).append(a)
    floor = math.ceil(nv / (1.0 + aux.average_degree))

    def run(order: list[int]) -> set[int]:
        kept: set[int] = set()
        for k in order:
            blocked = False
            for a in member_of.get(k, ()):
                others = [x for x in aux.edges[a] if x != k]
                if all(x in kept for x in others):
                    blocked = True
                    break
            if not blocked:
                kept.add(k)
        return kept

    def independent_with(kept: set[int], k: int) -> bool:
        for a in member_of.get(k, ()):
            others = [x for x in aux.edges[a] if x != k]
            if all(x in kept for x in others):
                return False
        return True

    def exchange(kept: set[int]) -> set[int]:
        for w in sorted(kept):
            base = kept - {w}
            gains = [u for u in range(nv) if u not in kept and independent_with(base, u)]
            del gains[256:]  # bounded scan keeps the pass near-linear
            done = False
            for ui in range(len(gains)):
                u = gains[ui]
                with_u = base | {u}
                for x in gains[ui + 1 :]:
                    if independent_with(with_u, x):
                        kept = with_u | {x}
                        done = True
                        break
                if done:
                    break
        return kept

    best: set[int] = set()
    for attempt in range(8):
        rng = random.Random(seed + (attempt << 32))
        order = list(range(nv))
        rng.shuffle(order)
        kept = exchange(run(order))
        for s in aux.edges:  # independence is re-scanned, not trusted
            if all(x in kept for x in s):
                raise SparseHgError(f"exchange pass broke independence on aux edge {s}")
        if len(kept) > len(best):
            best = kept
        if len(best) >= floor:
            return tuple(sorted(best))
    raise SparseHgError(
        f"independent set stuck at {len(best)} < greedy floor {floor}"
    )


def construct(
    r: int,
    e: int,
    v: int,
    n: int,
    extra_targets: tuple[tuple[int, int], ...] = (),
    seed: int = 0,
    *,
    max_retries: int = 16,
    min_yield: int | None = None,
    min_expected_edges: float | None = None,
    budget: int = 10**6,
) -> ConstructionResult:
    """Full pipeline with retry: sample, alter, take an independent set,
    and certify the graded profile plus every extra target on the output.
    Seeds advance by one per retry until the yield reaches min_yield."""
    params = plan(
        r,
        e,
        v,
        n,
        extra_targets,
        seed,
        max_retries=max_retries,
        min_yield=min_yield,
        min_expected_edges=min_expected_edges,
    )
    profile = ladder_profile(r, e, v)
    best_yield = 0
    for attempt in range(params.max_retries):
        attempt_params = replace(params, seed=seed + attempt)
        h0 = sample(attempt_params)
        try:
            h1, trace = alter(h0, attempt_params, budget=budget)
        except Degenerate:
            continue
        aux = build_aux(h1, attempt_params, budget=budget, systems=trace.bad_after)
        keep = independent_set(aux, seed + attempt)
        out = h1.subhypergraph(keep)
        verdict = check_profile(out, profile, budget=budget)
        if not verdict.holds:
            raise CertificationFailed(
                f"certification failed on constraint {verdict.constraint}: {verdict.witness}"
            )
        for v_j, e_j in params.extra_targets:
            extra_verdict = check_free(out, FreenessConstraint(e_j, v_j), budget=budget)
            if not extra_verdict.holds:
                raise CertificationFailed(
                    f"certification failed on extra target ({v_j}, {e_j})"
                )
        trace.final_yield = out.m
        best_yield = max(best_yield, out.m)
        if out.m >= params.min_yield:
            return ConstructionResult(out, attempt_params, trace, verdict)
    raise RetriesExhausted(
        f"no attempt reached min_yield={params.min_yield} "
        f"after {params.max_retries} retries (best {best_yield})",
        best_yield=best_yield,
    )
