"""Uniform combinatorial batch codes.

A storage layout replicating m items over n servers, each item stored on an
r-set of servers, can serve any e distinct requests reading at most one item
per server exactly when every collection of at most e items has a system of
distinct representatives.  The items are the edges and the servers the
vertices, so by Hall's theorem that is a span condition: every i <= e edges
must cover at least i vertices.  Both routes are implemented and kept
independent: a matching-based SDR check and a span-profile check.
"""

from __future__ import annotations

import itertools
from math import gcd

from .builder import DEFAULT_BUDGET, construct
from .errors import BadRange, GcdCondition, TooLarge
from .freeness import Verdict, check_profile, deficit_profile
from .hypergraph import Hypergraph

# the most edges check_sdr_all enumerates subsets of without force=True
MAX_EDGES = 20


def find_sdr(sets: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Distinct representatives, one per set, via augmenting paths.

    Returns a tuple x with x[i] in sets[i], all distinct, or None when no
    such choice exists.
    """
    owner: dict[int, int] = {}  # vertex -> set index currently using it
    for i in range(len(sets)):
        if not _augment(sets, owner, i, set()):
            return None
    chosen = {i: x for x, i in owner.items()}
    return tuple(chosen[i] for i in range(len(sets)))


def _augment(sets, owner: dict[int, int], i: int, banned: set[int]) -> bool:
    """Give sets[i] a representative outside `banned`, moving the owners
    of taken ones along an augmenting path.  Module-level: a closure that
    calls itself is a reference cycle, which keeps `owner` alive until the
    cyclic garbage collector runs."""
    for x in sets[i]:
        if x in banned:
            continue
        banned.add(x)
        if x not in owner or _augment(sets, owner, owner[x], banned):
            owner[x] = i
            return True
    return False


def check_sdr_all(h: Hypergraph, e: int, *, force: bool = False) -> Verdict:
    """Does every subset of at most e edges admit distinct representatives?

    Subsets are scanned by increasing size, so the first failing subset is
    itself deficient (a Hall violator: it covers fewer vertices than its
    size).  e larger than the edge count clamps.
    """
    if e < 1:
        raise BadRange(f"need e >= 1, got {e}")
    if h.m > MAX_EDGES and not force:
        raise TooLarge(
            f"{h.m} edges exceeds the subset-enumeration guard ({MAX_EDGES}); "
            "pass force=True to override"
        )
    e = min(e, h.m)
    for size in range(1, e + 1):
        for subset in itertools.combinations(range(h.m), size):
            if find_sdr([h.edges[k] for k in subset]) is None:
                return Verdict(
                    holds=False,
                    witness=subset,
                    spanned=h.union_span(subset),
                )
    return Verdict(holds=True)


def check_cbc(h: Hypergraph, e: int, *, budget: int | None = None) -> Verdict:
    """Span-profile route to the same question: free of i edges covering
    fewer than i vertices, for every i <= e.  Independent of check_sdr_all
    by design; the two must agree on every input.  e larger than the edge
    count clamps, as no i > m distinct edges exist; e < 1 is BadRange."""
    return check_profile(h, deficit_profile(h.r, 0, min(e, max(h.m, 1))), budget=budget)


def construct_cbc(
    r: int,
    e: int,
    n: int,
    seed: int = 0,
    *,
    min_expected_edges: float | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Hypergraph:
    """Build a layout serving any e requests: the constructed hypergraph is
    certified free of i edges covering fewer than i vertices for all i <= e.

    Requires e > r >= 3 and gcd(e-1, r) = 1 (the deficit ladder needs
    integer rungs; with v = e-1, gcd(e-1, er-v) reduces to gcd(e-1, r)).
    """
    if not e > r >= 3:
        raise BadRange(f"need e > r >= 3, got e={e}, r={r}")
    if gcd(e - 1, r) != 1:
        raise GcdCondition(f"gcd(e-1, r) = gcd({e - 1}, {r}) != 1")
    result = construct(
        r,
        e,
        e - 1,
        n,
        seed=seed,
        min_expected_edges=min_expected_edges,
        budget=budget,
    )
    # construct raises unless its ladder certificate holds.  At v = e - 1,
    # e*r - v = (e - 1)(r - 1) + r, so every containment margin i*r - f(i) - (i - 1)
    # is r - ceil((i - 1)r/(e - 1)) >= 0: each ladder rung (i, i*r - f(i)) implies
    # the deficit rung (i, i - 1), rung 1 holds for any edge, and check_cbc
    # would repeat the same searches
    return result.hypergraph
