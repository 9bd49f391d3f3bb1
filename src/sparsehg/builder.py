"""Randomized construction of span-free hypergraphs by alteration.

Pipeline: sample every r-subset of 1..n independently with probability p,
remove one edge from each small dense configuration (per-level violators
and entangled pairs of bad e-systems), then take an independent set in the
auxiliary hypergraph whose vertices are the surviving edges and whose aux
edges are the surviving bad e-systems.  The result provably satisfies the
graded profile, and the final check is run, not assumed.

Every stage but the span enumerations is near-linear in its input: the
sample is unranked all at once, by one searchsorted per vertex position
in `_colex_unrank`, the routine the exact verifiers unrank with; level 2
of the alteration is a greedy over per-vertex edge bitsets, with no list
of pairs; each entangled-pair sweep counts a system's shared edges over
per-edge lists trimmed to the intact systems after it; and the exchange
pass of the independent set scans only the vertices a swap can gain, not
every vertex.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
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
    TooLarge,
)
from .freeness import (
    FreenessConstraint,
    Verdict,
    _bit_indices,
    _colex_unrank,
    _incidence,
    _partners,
    _support,
    check_free,
    check_profile,
    ladder_profile,
    span_bounded_systems,
    span_deficits,
)
from .hypergraph import Hypergraph

# default cap on the systems (or pairs) one kernel search may produce
DEFAULT_BUDGET = 10**6


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


@dataclass
class AlterationTrace:
    """Counts of everything the alteration removed, plus the removed edges.

    `w_before` counts the bad e-systems left after level 2 (the sample's
    dense pairs) and `w_after` those of the altered hypergraph.
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
    if seed < 0:
        raise BadRange(f"need seed >= 0, got {seed}")
    if min_expected_edges is not None and not 0 <= min_expected_edges < math.inf:
        raise BadRange(f"need a finite min_expected_edges >= 0, got {min_expected_edges}")
    if min_yield is not None and min_yield < 0:
        raise BadRange(f"need min_yield >= 0, got {min_yield}")
    main_exp = Fraction(e * r - v, e - 1)
    for v_j, e_j in extra_targets:
        if e_j < 2 or v_j < r + 1 or v_j > e_j * r - 1:
            raise BadRange(f"extra target ({v_j}, {e_j}) out of range")
        if Fraction(e_j * r - v_j, e_j - 1) <= main_exp:
            raise TargetOrdering(
                f"extra target ({v_j}, {e_j}) is not strictly easier than ({v}, {e})"
            )

    window = []
    for i in range(2, e):
        g = Fraction((i - 1) * (e * r - v), e - 1)
        window += [(f[i] - g) / (i - 1), (g + 1 - f[i]) / (2 * e - i - 1)]
    assert min(window) > 0
    window += [Fraction(v - r, e - 1) - Fraction(v_j - r, e_j - 1) for v_j, e_j in extra_targets]
    epsilon = min(window) / 2

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
    )


def sample(params: ConstructionParams, *, budget: int = DEFAULT_BUDGET) -> Hypergraph:
    """Draw the binomial random hypergraph for these parameters.

    The number of edges is Binomial(C(n, r), p); that many distinct edges
    are then chosen uniformly via rank sampling, so any two runs with the
    same seed produce identical hypergraphs.  The sorted ranks are unranked
    all at once, by `_colex_unrank`.  A count above the budget raises
    TooLarge before any rank is drawn.
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
    if count > budget:
        raise TooLarge(f"a sample of {count} edges exceeds budget {budget}")
    rng = random.Random(params.seed)
    ranks = sorted(rng.sample(range(population), count))
    # reflecting every vertex v to n - v reverses lex order into colex order
    # on range(n), so the subset of lex rank x is the reflection of the one
    # of colex rank C(n, r) - 1 - x
    colex = _colex_unrank(population - 1 - np.asarray(ranks, np.int64), r, n)
    edges = tuple(map(tuple, (n - colex[:, ::-1]).tolist()))
    return Hypergraph(n, r, edges, False)


def alter(
    h0: Hypergraph, params: ConstructionParams, *, budget: int = DEFAULT_BUDGET
) -> tuple[Hypergraph, AlterationTrace]:
    """Remove one edge per dense violator, per entangled bad-system pair,
    and per extra-target violator, in deterministic lexicographic order.

    For each level i = 2..e-1 ascending: enumerate the current i-subsets
    spanning at most i*r - f(i) and remove the greatest edge of each
    still-intact one; then, for pairs of current bad e-systems (e edges
    spanning at most v) sharing precisely i edges, remove the greatest edge
    of the pair's union.  The level-i deletion leaves every i current edges
    spanning more than i*r - f(i), so the shared edges of such a pair do
    too.  Extra targets are swept last.  Deleting edges keeps every level
    free, so the level guarantees are certified once, on the final output,
    by `construct`.

    Level 2 needs no enumeration: two edges span at most 2r - f(2) iff
    they share at least f(2) vertices, so in lexicographic pair order each
    edge still alive removes its alive later partners, ascending, read
    from per-vertex edge bitsets.

    The bad e-systems are enumerated once, on level 2's survivors, and
    `trace.w_before` counts that list.  Alteration only deletes edges, so
    they are the sample's bad e-systems whose edges all survive, in the
    same order, and those of any later hypergraph are among them.  Each
    level indexes the intact systems by edge, and each removal marks the
    systems holding its edge broken.  The sweep visits the systems in order
    and counts a system's partners over live per-edge lists, which it
    trims, as it reads them, to the intact systems after the visited one.
    That is exact: within a level a broken system stays broken and the
    visits ascend, so a dropped entry is never a partner later; and no
    intact earlier system shares exactly i edges with the visited one, as
    their pair was broken when the earlier one was visited.  A removal
    during the visit can still break a partner already counted, so every
    partner is re-checked before it removes an edge.  The survivors'
    systems, re-indexed to the output, are left in `trace.bad_after` for
    `build_aux`.
    """
    r, e, v, f = params.r, params.e, params.v, params.f
    edges = list(h0.edges)
    masks = list(h0.masks)
    m = len(edges)
    alive = [True] * m
    trace = AlterationTrace(x_sampled=m)
    # bad e-systems as original-index tuples in lexicographic order; once a
    # level has indexed them, intact[a] says whether bad[a] is intact and
    # holding[k] lists the positions of the systems holding edge k
    intact = bytearray()
    holding: list[list[int]] = [[] for _ in range(m)]

    def alive_indices() -> list[int]:
        return [k for k in range(m) if alive[k]]

    def remove(k: int):
        alive[k] = False
        for a in holding[k]:
            intact[a] = 0
        trace.removed_edges.append(edges[k])

    def sub_systems(size: int, max_span: int) -> list[tuple[int, ...]]:
        """Systems of the current hypergraph, as original-index tuples."""
        sub = alive_indices()
        found = span_bounded_systems([masks[k] for k in sub], size, max_span, budget=budget)
        if len(sub) == m:
            return found  # every edge alive: positions are original indices
        return [tuple(map(sub.__getitem__, s)) for s in found]

    def break_each(systems) -> int:
        """Remove the greatest edge of each system still intact, in the
        given order; the number of edges removed."""
        removed = 0
        for s in systems:
            if all(alive[k] for k in s):
                remove(max(s))
                removed += 1
        return removed

    def break_pairs(shared: int) -> int:
        """Level 2, which runs first, on the whole sample: in order, each
        alive edge removes its alive later partners sharing at least
        `shared` vertices with it, ascending.  The pairs are counted
        against the budget as if listed, and the sweep stops at the first
        edge that takes the count past it."""
        if m < 2 or shared >= r:
            return 0  # no two distinct edges share r vertices
        pairs = removed = 0
        for k, partners in enumerate(_partners(_incidence(masks), masks, shared)):
            later = partners >> (k + 1) << (k + 1)
            pairs += later.bit_count()
            if pairs > budget:
                raise BudgetExceeded(f"{pairs} span-bounded pairs exceed budget {budget}")
            if alive[k]:
                for j in _bit_indices(later):
                    if alive[j]:
                        remove(j)
                        removed += 1
        return removed

    for i in range(2, e):
        thr = i * r - f[i]
        cur = alive_indices()
        if thr >= _support([masks[k] for k in cur]).bit_count():
            # every i-subset violates: keeping the first i-1 edges and
            # removing the rest matches lexicographic processing exactly
            trace.y_removed[i] = break_each((k,) for k in cur[i - 1 :])
        elif i == 2:
            trace.y_removed[i] = break_pairs(2 * r - thr)
        else:
            trace.y_removed[i] = break_each(sub_systems(i, thr))

        # the current hypergraph's bad e-systems: listed on level 2's
        # survivors, then narrowed by the previous level's index, which
        # marks those a removal broke
        if i == 2:
            bad = sub_systems(e, v)
            trace.w_before = len(bad)
        else:
            bad = list(itertools.compress(bad, intact))
        intact = bytearray([1]) * len(bad)
        holding = [[] for _ in range(m)]
        for a, s in enumerate(bad):
            for k in s:
                holding[k].append(a)
        live = holding[:]

        # entangled pairs of current bad e-systems sharing precisely i
        # edges, visited in lexicographic order of (s1, s2): the partners of
        # s1 are the positions counted i times over its edges' live lists,
        # which keep only the intact systems after s1
        removed_here = 0
        for a, s1 in enumerate(bad):
            if not intact[a]:
                continue  # every pair holding s1 is already broken
            for k in s1:
                live[k] = [b for b in live[k] if b > a and intact[b]]
            shared = Counter(itertools.chain.from_iterable(live[k] for k in s1))
            for b in sorted([b for b, c in shared.items() if c == i]):
                if not intact[a]:
                    break
                if intact[b]:
                    remove(max(s1[-1], bad[b][-1]))
                    removed_here += 1
        trace.z_removed[i] = removed_here

    for j, (v_j, e_j) in enumerate(params.extra_targets):
        trace.extra_removed[j] = break_each(sub_systems(e_j, v_j))

    survivors = alive_indices()
    if not survivors:
        raise Degenerate("alteration removed every edge")
    h1 = h0.subhypergraph(survivors)
    position = {k: a for a, k in enumerate(survivors)}
    trace.bad_after = tuple(tuple(position[k] for k in s) for s in itertools.compress(bad, intact))
    trace.w_after = len(trace.bad_after)
    return h1, trace


def build_aux(
    h1: Hypergraph,
    params: ConstructionParams,
    *,
    systems: tuple[tuple[int, ...], ...],
) -> AuxGraph:
    """Auxiliary hypergraph on the surviving edges: one aux edge per bad
    e-system of `h1`, as `alter` leaves them in `trace.bad_after`.  The
    alteration guarantees linearity (no two aux edges share two vertices);
    NotLinear means an internal failure."""
    seen_pairs: set[tuple[int, int]] = set()
    for s in systems:
        for pair in itertools.combinations(s, 2):
            if pair in seen_pairs:
                raise NotLinear(f"aux edges share two vertices: pair {pair}")
            seen_pairs.add(pair)
    return AuxGraph(h1.m, params.e, tuple(systems))


def independent_set(aux: AuxGraph, seed: int) -> tuple[int, ...]:
    """Greedy independent set in the aux hypergraph, plus one exchange pass.

    A vertex is kept unless it would complete an aux edge among kept
    vertices, so each aux edge blocks at most one vertex.  The exchange
    pass visits the members w in ascending order and swaps w for the first
    two non-members (among the first 256 that fit without w) that fit
    together.  Only a free vertex (one that fits next to every member) or
    an aux neighbour of w can fit without w, so the pass scans those: none
    are free after the greedy, and a swap changes freeness only at w and
    around w and the two newcomers.  Result size is required to reach
    ceil(nv / (1 + average degree)); seeds derived from `seed` are retried
    if a permutation falls short (not observed in practice on linear aux
    graphs).
    """
    nv = aux.num_vertices
    if not aux.edges:
        return tuple(range(nv))
    member_of: dict[int, list[int]] = {}
    for a, s in enumerate(aux.edges):
        for k in s:
            member_of.setdefault(k, []).append(a)
    floor = math.ceil(nv / (1.0 + aux.average_degree))

    def independent_with(kept: set[int], k: int, also: int | None = None) -> bool:
        """Whether k completes no aux edge among `kept` (and `also`)."""
        for a in member_of.get(k, ()):
            if all(x in kept or x == also for x in aux.edges[a] if x != k):
                return False
        return True

    def neighbours(k: int) -> set[int]:
        out = {x for a in member_of.get(k, ()) for x in aux.edges[a]}
        out.discard(k)
        return out

    def run(order: list[int]) -> set[int]:
        kept: set[int] = set()
        for k in order:
            if independent_with(kept, k):
                kept.add(k)
        return kept

    def exchange(kept: set[int]) -> set[int]:
        free: set[int] = set()  # the greedy result is maximal
        for w in sorted(kept):
            kept.remove(w)
            gains = [
                u for u in sorted(free | neighbours(w))
                if u not in kept and independent_with(kept, u)
            ]
            del gains[256:]  # bounded scan keeps the pass near-linear
            swap = next(
                ((u, x) for u, x in itertools.combinations(gains, 2) if independent_with(kept, x, u)),
                None,
            )
            if swap is None:
                kept.add(w)
                continue
            u, x = swap
            kept.update(swap)
            for y in {w, u, x} | neighbours(w) | neighbours(u) | neighbours(x):
                if y not in kept and independent_with(kept, y):
                    free.add(y)
                else:
                    free.discard(y)
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
    budget: int = DEFAULT_BUDGET,
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
    return _run_attempts(params, budget)


def _run_attempts(params: ConstructionParams, budget: int) -> ConstructionResult:
    """The retry loop of `construct` on planned parameters, from seed
    params.seed up."""
    profile = ladder_profile(params.r, params.e, params.v)
    seed = params.seed
    best_yield = 0
    for attempt in range(params.max_retries):
        attempt_params = replace(params, seed=seed + attempt)
        h0 = sample(attempt_params, budget=budget)
        try:
            h1, trace = alter(h0, attempt_params, budget=budget)
        except Degenerate:
            continue
        aux = build_aux(h1, attempt_params, systems=trace.bad_after)
        keep = independent_set(aux, seed + attempt)
        out = h1.subhypergraph(keep)
        trace.final_yield = out.m
        best_yield = max(best_yield, out.m)
        if out.m < params.min_yield:
            continue  # thrown away uncertified
        verdict = check_profile(out, profile, budget=budget)
        if not verdict.holds:
            raise CertificationFailed(
                f"certification failed on constraint {verdict.constraint}: {verdict.witness}"
            )
        for v_j, e_j in params.extra_targets:
            extra_verdict = check_free(out, FreenessConstraint(e_j, v_j), budget=budget)
            if not extra_verdict.holds:
                raise CertificationFailed(
                    f"certification failed on extra target ({v_j}, {e_j}): {extra_verdict.witness}"
                )
        return ConstructionResult(out, attempt_params, trace, verdict)
    raise RetriesExhausted(
        f"no attempt reached min_yield={params.min_yield} "
        f"after {params.max_retries} retries (best {best_yield})",
        best_yield=best_yield,
    )
