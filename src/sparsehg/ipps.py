"""Parent-identifying set systems.

A family of r-sets identifies parents against coalitions of size t when,
for every r-set X coverable by at most t edges, all covering families of
size at most t share a common edge.  Checking is brute force over candidate
X (guarded); construction routes through the span-free builder: freeness of
e = floor((t/2+1)^2) edges inside e*r - r vertices implies the identifying
property.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from .builder import DEFAULT_BUDGET, _run_attempts, plan
from .errors import BadRange, CertificationFailed, TooLarge
from .freeness import Verdict
from .hypergraph import Hypergraph, _edge_mask

# the largest n, m and t check_ipps searches exhaustively without force=True
MAX_N, MAX_M, MAX_T = 20, 12, 3


def link_e(t: int) -> int:
    """Edge count of the forbidden configuration for coalition bound t."""
    if t < 2:
        raise BadRange(f"need t >= 2, got {t}")
    # (t/2 + 1)^2 = t^2/4 + t + 1, and floor distributes over the integer part
    return t * t // 4 + t + 1


def minimal_covers(
    x_mask: int, masks: list[int], t: int
) -> list[tuple[int, ...]]:
    """All inclusion-minimal families of at most t edges covering X."""
    covers = []
    for size in range(1, t + 1):
        for family in itertools.combinations(range(len(masks)), size):
            u = 0
            for k in family:
                u |= masks[k]
            if x_mask & ~u:
                continue
            fam_set = set(family)
            if any(set(c) <= fam_set for c in covers):
                continue  # a smaller cover sits inside; not minimal
            covers.append(family)
    return covers


def check_ipps(h: Hypergraph, t: int, *, force: bool = False) -> Verdict:
    """Exhaustive identifying-parents check.

    For each r-subset X of the vertices coverable by at most t edges, all
    minimal covering families must share an edge (any cover contains a
    minimal one, so intersecting minimal covers is enough).  On failure the
    witness is (X, covers); when two covers are outright disjoint the first
    such pair is reported, which is the fingerprinting reading: two
    coalitions that both explain X with no common member.
    """
    if t < 2:
        raise BadRange(f"need t >= 2, got {t}")
    if len(set(h.masks)) != h.m:
        raise BadRange("identifying-parents check needs distinct edges")
    if (h.n > MAX_N or h.m > MAX_M or t > MAX_T) and not force:
        raise TooLarge(
            f"(n={h.n}, m={h.m}, t={t}) exceeds guard "
            f"(n <= {MAX_N}, m <= {MAX_M}, t <= {MAX_T}); pass force=True to override"
        )
    masks = list(h.masks)
    for x in itertools.combinations(range(1, h.n + 1), h.r):
        x_mask = _edge_mask(x)
        covers = minimal_covers(x_mask, masks, t)
        if not covers:
            continue  # X not coverable; out of scope
        common = set(covers[0])
        for c in covers[1:]:
            common &= set(c)
            if not common:
                break
        if common:
            continue
        disjoint = None
        for c1, c2 in itertools.combinations(covers, 2):
            if not set(c1) & set(c2):
                disjoint = (c1, c2)
                break
        flags = () if disjoint else ("no disjoint cover pair",)
        witness = (x, disjoint if disjoint else tuple(covers))
        return Verdict(holds=False, witness=witness, flags=flags)
    return Verdict(holds=True)


def construct_ipps(
    r: int,
    t: int,
    n: int,
    seed: int = 0,
    *,
    min_expected_edges: float | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Hypergraph:
    """Build an identifying-parents family via span-freeness.

    Freeness of e = floor((t/2+1)^2) edges within e*r - r vertices implies
    the t-identifying property; the deficit denominator e - 1 equals
    floor(t^2/4) + t, so the ladder needs gcd(floor(t^2/4) + t, r) = 1,
    which `plan` checks as gcd(e - 1, e*r - v) since e*r - v = r.
    The freeness target is the top rung of the ladder certificate that
    the builder checks on its output; the exhaustive identifying check
    additionally runs on outputs within `check_ipps`'s guard.

    The covering argument transfers freeness to the identifying property
    only for families of at least e edges (a family of 3..e-1 edges can be
    vacuously free yet fail to identify), so the yield floor is raised to e.
    """
    e = link_e(t)
    v = e * r - r
    params = plan(r, e, v, n, seed=seed, min_expected_edges=min_expected_edges)
    params = replace(params, min_yield=max(params.min_yield, e))
    h = _run_attempts(params, budget).hypergraph
    try:
        ipps_verdict = check_ipps(h, t)
    except TooLarge:
        return h  # beyond the exhaustive check's guard
    if not ipps_verdict.holds:
        raise CertificationFailed(
            f"identifying-parents certification failed: {ipps_verdict.witness}"
        )
    return h
