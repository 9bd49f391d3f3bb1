"""Span-freeness constraints, exact checkers, and Berge-cycle girth.

A constraint (e, v) demands that every e distinct edges span at least v+1
vertices.  The enumeration kernel below finds all e-subsets whose union
spans at most v vertices, by one of two exact routes; which one depends
only on its inputs.

The pair route serves every level.  The pair shares of a system sum to
sum_x C(deg(x), 2), where deg(x) counts its edges through vertex x; e*r
incidences on at most v vertices make that sum least when spread evenly,
so by convexity every violating system with r <= v < e*r holds a pair
sharing at least s* = ceil(least / C(e, 2)) vertices.  Rooting at the
lexicographically smallest such pair enumerates every system exactly
once: the search cuts every edge that would form a qualifying pair
sorting before its root, and that cut is exact, so each system is built
under its own root alone and never checked again.  The search keeps its
candidate edges, and the edges it cuts, as bitsets over edge indices.

The kernel detects repeated edges itself.  When the edges are pairwise
distinct, e of them span at least the fewest vertices u that e distinct
r-edges can span, so levels below u are empty.  The vertex route serves
the tight levels v = u of such graphs: every system spans exactly v
vertices and lies inside exactly one v-set of vertices.  It counts the
edges inside every v-set of the vertices the edges touch at once, by
colex ranks looked up in tables cached across calls, and emits every
e-subset of the edges inside each v-set that holds at least e.  The
tables share a fixed memory cap; where a table would pass it, the count
recurses by top vertex to smaller tables instead.  The route takes
e >= 3 only where there are at most C(m, 2) such v-sets, as many as the
pair route's possible roots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import BadRange, BudgetExceeded, GcdCondition
from .hypergraph import Hypergraph


@dataclass(frozen=True)
class FreenessConstraint:
    """Every `e` distinct edges must span at least `v + 1` vertices."""

    e: int
    v: int

    def __post_init__(self):
        if self.e < 1:
            raise BadRange(f"constraint needs e >= 1, got {self.e}")
        if self.v < 0:
            raise BadRange(f"constraint needs v >= 0, got {self.v}")

    def classify(self, r: int) -> str:
        """How the constraint behaves on an r-uniform hypergraph.

        'trivial' constraints hold for every hypergraph (any nonempty union
        spans at least r vertices); 'unsatisfiable' ones are violated by any
        e edges (e edges never span more than e*r vertices); the rest are
        'effective'.
        """
        if self.v < r:
            return "trivial"
        if self.v >= self.e * r:
            return "unsatisfiable"
        return "effective"


@dataclass(frozen=True)
class ConstraintProfile:
    """A conjunction of constraints with pairwise-distinct e values."""

    constraints: tuple[FreenessConstraint, ...]

    def __post_init__(self):
        es = [c.e for c in self.constraints]
        if sorted(es) != es:
            raise BadRange("profile constraints must be sorted by e")
        if len(set(es)) != len(es):
            raise BadRange("profile constraints must have distinct e values")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a freeness check, with a witness when it fails.

    The witness is the lexicographically smallest violating edge-index
    tuple and `spanned` is the size of its union.
    """

    holds: bool
    constraint: FreenessConstraint | None = None
    witness: tuple[int, ...] | None = None
    spanned: int | None = None
    flags: tuple[str, ...] = ()

    def to_report(self) -> dict:
        return {
            "holds": self.holds,
            "constraint": None
            if self.constraint is None
            else {"e": self.constraint.e, "v": self.constraint.v},
            "witness": None if self.witness is None else list(self.witness),
            "spanned": self.spanned,
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class BergeCycle:
    """An explicit Berge cycle: edges[i] contains vertices[i-1] and vertices[i]
    (cyclically, so edges[0] contains vertices[-1] and vertices[0])."""

    length: int
    vertices: tuple[int, ...]
    edges: tuple[int, ...]


def _bit_indices(mask: int) -> list[int]:
    """The positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _support(masks) -> int:
    """The vertices the edges touch, as a bitmask."""
    u = 0
    for mk in masks:
        u |= mk
    return u


def _root_threshold(r: int, size: int, max_span: int) -> int:
    """s*: any `size` r-edges spanning at most max_span vertices, where
    r <= max_span < size*r, hold a pair sharing at least this many (the
    convexity bound of the module docstring).  Since C(d, 2) >= d - 1, it
    is never below the excess bound ceil((size*r - max_span) / C(size, 2)).

    Nor is it below 2r - max_span, so no root pair spans more than max_span:
    edge j on vertices j*r .. j*r + r - 1 mod max_span has the degrees of
    `least`, and each of its C(size, 2) pairs shares >= 2r - max_span.
    """
    q, rem = divmod(size * r, max_span)
    least = rem * comb(q + 1, 2) + (max_span - rem) * comb(q, 2)
    return -(-least // comb(size, 2))


def span_bounded_systems(
    masks,
    size: int,
    max_span: int,
    *,
    budget: int | None = None,
) -> list[tuple[int, ...]]:
    """All `size`-subsets of edge indices whose union spans <= max_span vertices.

    The edges are given as vertex bitmasks of one size r (bit v-1 stands
    for vertex v) and may repeat.  Returns index tuples in lexicographic
    order.  `budget` caps the number of systems; exceeding it raises
    BudgetExceeded.  When the edges are pairwise distinct, a union of
    `size` of them spans at least the smallest u with C(u, r) >= size;
    spans below that are pruned without scanning, and a tight level
    (max_span == u) on few enough vertices takes the vertex route.
    """
    m = len(masks)
    if size < 1 or m < size:
        return []
    r = masks[0].bit_count()
    if max_span < r:
        return []  # no edge fits
    simple = len(set(masks)) == m
    if simple:
        u = r
        while comb(u, r) < size:
            u += 1
        if u > max_span:
            return []
    if max_span >= size * r:
        total = comb(m, size)
        if budget is not None and total > budget:
            raise BudgetExceeded(f"{total} span-bounded systems exceed budget {budget}")
        return list(itertools.combinations(range(m), size))
    # the vertex route counts the edges of C(support, max_span) vertex sets; the
    # pair route roots at up to C(m, 2) pairs (size 2 is a closed form there)
    if simple and size >= 3 and max_span == u:
        if comb(_support(masks).bit_count(), max_span) <= comb(m, 2):
            return _vertex_route(masks, size, max_span, budget)
    return _pair_route(masks, size, max_span, budget)


def _incidence(masks) -> list[int]:
    """inc[b]: the edges containing vertex b+1, as a bitset over edge indices."""
    inc = [0] * max((mk.bit_length() for mk in masks), default=0)
    for k, mk in enumerate(masks):
        for b in _bit_indices(mk):
            inc[b] |= 1 << k
    return inc


def _binomials(s: int, k: int) -> np.ndarray:
    """binom[j, c] = C(c, j) for j <= k and c < s, clipped at 2**62 so
    that int64 holds every entry."""
    return np.array([[min(comb(c, j), 1 << 62) for c in range(s)] for j in range(k + 1)], np.int64)


def _colex_rank(sets: np.ndarray, s: int) -> np.ndarray:
    """The colex ranks of ascending subsets of range(s), laid along the
    last axis: the sum of C(c, j + 1) over the j-th element c from 0."""
    binom = _binomials(s, sets.shape[-1])
    return sum(binom[j + 1, sets[..., j]] for j in range(sets.shape[-1]))


def _colex_unrank(ranks, k: int, s: int) -> np.ndarray:
    """The k-subsets of range(s) with the given colex ranks, one ascending
    row each: the inverse of `_colex_rank` (the combinatorial number
    system, Knuth, TAOCP 4A, 7.2.1.3).  The top element of the subset of
    rank x is the largest c with C(c, k) <= x, and the rest is the
    (k - 1)-subset of rank x - C(c, k).  One searchsorted per position
    reads it off `_binomials`; every rank is below their clip, 2**62, so
    the clip changes no result."""
    binom = _binomials(s, k)
    x = np.asarray(ranks, np.int64)
    out = np.empty((len(x), k), np.int64)
    for j in range(k, 0, -1):
        out[:, j - 1] = np.searchsorted(binom[j], x, side="right") - 1
        x = x - binom[j, out[:, j - 1]]
    return out


# Colex-rank tables of the vertex route, by (u, r): the largest support s
# asked for so far and table[j, V] = the colex rank of the j-th r-subset of
# the V-th u-subset of range(s), both in colex order.  They depend on
# nothing else, so every call in the process shares them.  Only the tables
# a count asks for are cached, and only while together they hold at most
# _TABLE_CAP ranks.  A table's ranks stay below C(s, r) <= C(s, u)*C(u, r),
# its own size, so int32 holds them.
_TABLES: dict[tuple[int, int], tuple[int, np.ndarray]] = {}
_TABLE_CAP = 1 << 22  # ranks all cached tables hold together: 16 MiB
_GATHER = 1 << 16  # ranks looked up per slab of the vertex route's count


def _build_table(s: int, u: int, r: int, memo: dict) -> np.ndarray:
    """The colex ranks of the r-subsets of every u-subset of range(s), as
    an array of shape (C(u, r), C(s, u)): column V lists the ranks for the
    V-th u-set.  The tables it is built from are built once each, in `memo`.

    The u-sets with top vertex t are t joined to the (u - 1)-sets of
    range(t), which are a prefix of those of range(s - 1) in colex order.
    Of such a set's r-subsets, those avoiding t come first in colex order,
    with the ranks of the order-(u - 1) table; those holding t follow, at
    C(t, r) plus the (r - 1)-ranks of that set.
    """
    if r == 0 or u < r or s < u:
        return np.zeros((comb(u, r), comb(s, u)), np.int32)  # the empty set ranks 0
    if (s, u, r) not in memo:
        avoid = _build_table(s - 1, u - 1, r, memo)
        hold = _build_table(s - 1, u - 1, r - 1, memo)
        table = np.empty((comb(u, r), comb(s, u)), np.int32)
        k = len(avoid)
        for t in range(u - 1, s):
            a, w = comb(t, u), comb(t, u - 1)
            table[:k, a : a + w] = avoid[:, :w]
            table[k:, a : a + w] = hold[:, :w]
            table[k:, a : a + w] += np.int32(comb(t, r))
        memo[(s, u, r)] = table
    return memo[(s, u, r)]


def _colex_table(s: int, u: int, r: int) -> np.ndarray | None:
    """The table of `_build_table`, cached by (u, r); a smaller s reads a
    prefix.  None where the cache would pass _TABLE_CAP ranks with it and
    the tables it is built from: by Vandermonde, C(s, u - 1)*C(u, r) more."""
    have, table = _TABLES.get((u, r), (-1, None))
    if s <= have:
        return table[:, : comb(s, u)]
    others = sum(t.size for key, (_, t) in _TABLES.items() if key != (u, r))
    if others + comb(s + 1, u) * comb(u, r) > _TABLE_CAP:  # C(s, u) + C(s, u - 1)
        return None
    _TABLES.pop((u, r), None)  # the old copy: a prefix of the new one
    table = _build_table(s, u, r, {})
    _TABLES[(u, r)] = (s, table)
    return table


def _count_blocks(hits: np.ndarray, s: int, u: int, r: int, top: int):
    """Yield (a, c) in turn, where c[i] counts the r-sets marked in `hits`
    inside the (a + i)-th u-subset of range(s) in colex order; hits[i] is
    1 iff the i-th r-subset of range(s) in colex order is marked.

    A table that fits in the cache gives the counts in slabs of `_GATHER`
    ranks.  Otherwise the u-sets come by top vertex t, by the recurrence
    of `_build_table`: those of t count the marks of their (u - 1)-set W,
    read off the counts of the (u - 1)-sets of range(s - 1), plus those of
    t's link, the marked r-sets holding t less t, inside W.  Tables are
    asked for at support `top` >= s, less one per level of recursion: the
    most any t reads, so each is built once and every t reads a prefix."""
    dtype = np.min_scalar_type(comb(u, r))
    if r == 0 or u < r or s < u:
        yield 0, np.full(comb(s, u), hits[0] if r == 0 else 0, dtype)
    elif (table := _colex_table(top, u, r)) is not None:
        table = table[:, : comb(s, u)]
        step = max(1, _GATHER // len(table))
        for a in range(0, table.shape[1], step):
            yield a, hits.take(table[:, a : a + step]).sum(axis=0, dtype=dtype)
    else:
        low = _counts(hits, s - 1, u - 1, r, top - 1)
        for t in range(u - 1, s):
            link = _counts(hits[comb(t, r) : comb(t + 1, r)], t, u - 1, r - 1, top - 1)
            yield comb(t, u), np.add(low[: len(link)], link, dtype=dtype)


def _counts(hits: np.ndarray, s: int, u: int, r: int, top: int) -> np.ndarray:
    """The counts of `_count_blocks`, joined."""
    return np.concatenate([c for _, c in _count_blocks(hits, s, u, r, top)])


def _subset_ranks(sets: np.ndarray, s: int, u: int, r: int) -> np.ndarray:
    """ranks[i, j]: the colex rank of the j-th r-subset of the sets[i]-th
    u-subset of range(s), both in colex order; the rows of
    `_build_table(s, u, r)` at columns `sets`, without the table.  The
    u-sets are read off their ranks by `_colex_unrank`."""
    subsets = np.array(sorted(itertools.combinations(range(u), r), key=lambda c: c[::-1]))  # colex
    return _colex_rank(_colex_unrank(sets, u, s)[:, subsets], s)


def _vertex_route(masks, size: int, max_span: int, budget: int | None = None) -> list[tuple[int, ...]]:
    """The systems of a tight level: pairwise-distinct edges, any `size` of
    which span at least max_span vertices, with 3 <= size and
    r <= max_span < size*r.

    Each system then spans exactly max_span = u vertices, so it lies inside
    exactly one u-set V of the s vertices the edges touch, and every `size`
    edges inside V form a system.  Numbering those vertices 0..s-1, each
    edge is keyed by the colex rank of its vertex tuple, and
    `_count_blocks` counts the edges of every V, one lookup per r-subset of
    V.  Only the V holding at least `size` edges are expanded: the ranks
    of their r-subsets, read off the cached table or, where it does not
    fit, computed by `_subset_ranks`, are mapped to edges by a slot array.
    The budget counts C(|E(V)|, size) per V before any tuple is built.

    Memory: the cache holds at most _TABLE_CAP ranks, 16 MiB, whatever the
    input, and so does the cache together with the tables one build holds
    while it runs.  A table that would not fit is never built: the count
    then recurses by top vertex, down to tables that fit or to no table at
    all.  Beside those and the systems it returns, a call holds under
    2**20 + m*(3*n + 64*r) + 5*C(s, r) + 4*c*C(s - 1, u - 1) +
    128*C(u, r)*k bytes at once, with n the largest vertex, c the bytes of
    one count (1 while C(u, r) < 256) and k the V expanded: the edges'
    vertex bits and ranks, the slot array and its marks, the counts of the
    (u - 1)-sets of range(s - 1) and one top vertex's block when the
    table does not fit, and one slab of lookups when it does, and the
    vertices, ranks and edges of each V expanded.
    """
    support = _support(masks)
    verts = _bit_indices(support)
    s, u, m = len(verts), max_span, len(masks)
    if s < u:
        return []
    r = masks[0].bit_count()
    # each edge's vertices, numbered within the support, ascending
    width = (support.bit_length() + 7) // 8
    raw = np.frombuffer(b"".join(mk.to_bytes(width, "little") for mk in masks), np.uint8)
    bits = np.unpackbits(raw, bitorder="little").reshape(m, -1)[:, verts]
    local = (np.flatnonzero(bits) % s).reshape(m, r)
    ranks = _colex_rank(local, s)
    slot = np.full(comb(s, r), -1, np.int32)
    slot[ranks] = np.arange(m, dtype=np.int32)

    full, inside = [], []
    for a, counts in _count_blocks((slot >= 0).view(np.uint8), s, u, r, s):
        keep = np.flatnonzero(counts >= size)
        full.append(a + keep)
        inside.append(counts[keep])
    full = np.concatenate(full)
    inside = np.concatenate(inside).tolist()
    # a level without systems passes any budget, as in `_extend_root`
    if budget is not None and inside and sum(comb(c, size) for c in inside) > budget:
        raise BudgetExceeded(f"span-bounded system count exceeds budget {budget}")
    if s <= _TABLES.get((u, r), (0,))[0]:
        sets = _TABLES[(u, r)][1][:, full].T  # the table the count read
    else:
        sets = _subset_ranks(full, s, u, r)
    results: list[tuple[int, ...]] = []
    # each V's edges ascending, after the -1 slots of its absent r-sets
    for row, c in zip(np.sort(slot[sets], axis=1).tolist(), inside):
        results.extend(itertools.combinations(row[len(row) - c :], size))
    results.sort()
    return results


def _add_vertices(inc: list[int], level: list[int], vertices: int):
    """Add the vertices of a bitmask to `level`, a list of bitsets over
    edge indices: level[t] holds the edges of level[0] holding at least t
    of the vertices added so far.  One vertex costs len(level) operations."""
    for b in _bit_indices(vertices):
        ib = inc[b]
        for t in range(len(level) - 1, 0, -1):
            level[t] |= level[t - 1] & ib


def _partners(inc: list[int], masks, shared: int):
    """For each edge k in order, the edges sharing at least `shared`
    vertices with it (k included), as a bitset over edge indices; `inc`
    is `_incidence(masks)`.  Callers keep the later ones with
    `>> (k + 1) << (k + 1)`.  A generator, so a caller can hold one bitset
    at a time."""
    everything = (1 << len(masks)) - 1
    for mk in masks:
        level = [everything] + [0] * shared
        _add_vertices(inc, level, mk)
        yield level[shared]


def _pair_route(masks, size: int, max_span: int, budget: int | None = None) -> list[tuple[int, ...]]:
    """The systems of any level with 2 <= size and r <= max_span < size*r,
    rooted at their lexicographically first pair sharing at least s*
    vertices (the convexity bound of the module docstring)."""
    m = len(masks)
    r = masks[0].bit_count()
    if size == 2:
        # exact threshold: span(a, b) <= max_span iff |a & b| >= 2r - max_span
        pairs = [
            (i, j)
            for i, partners in enumerate(_partners(_incidence(masks), masks, 2 * r - max_span))
            for j in _bit_indices(partners >> (i + 1) << (i + 1))
        ]
        if budget is not None and len(pairs) > budget:
            raise BudgetExceeded(f"{len(pairs)} span-bounded pairs exceed budget {budget}")
        return pairs

    # Sets of edges are bitsets over edge indices; a `level` list starts
    # from every edge (see _add_vertices).
    everything = (1 << m) - 1
    inc = _incidence(masks)
    shares = list(_partners(inc, masks, _root_threshold(r, size, max_span)))
    results: list[tuple[int, ...]] = []
    search = (masks, r, size, max_span, budget, everything, inc, shares, results)
    for i in range(m):
        for j in _bit_indices(shares[i] >> (i + 1) << (i + 1)):
            u0 = masks[i] | masks[j]
            level = [everything] + [0] * r
            _add_vertices(inc, level, u0)
            # the pairs (k, i) and (k, j) sorting before (i, j)
            forbid = (shares[i] & ((1 << j) - 1)) | (shares[j] & ((1 << i) - 1)) | (1 << i) | (1 << j)
            _extend_root(search, i, j, (), u0, u0.bit_count(), 0, level, forbid)
    results.sort()
    return results


def _extend_root(
    search, i: int, j: int, chosen: tuple[int, ...], u: int, span: int, start: int, level: list[int], forbid: int
):
    """The pair route's search from one branch: extend root (i, j) plus
    `chosen`, whose union u spans `span` vertices and meets the edges of
    level[t] in >= t vertices, by edges from `start` on.  `forbid` holds the
    edges that would form, with the root or with `chosen`, a qualifying
    pair sorting before the root.  The cut is exact: a pair sorting before
    (i, j) either holds i or j, which the root's cut forbids, or joins two
    chosen edges, the first below i, whose cut forbids the later one, as
    edges are chosen in ascending order.  So every system built here has
    (i, j) as its first qualifying pair.
    Module-level: a closure that calls itself is a reference cycle, which
    keeps `results` alive until the cyclic garbage collector runs."""
    masks, r, size, max_span, budget, everything, inc, shares, results = search
    t = size - 2 - len(chosen)
    cap = max_span - span
    # with cap < r the next edge must reuse at least r - cap spanned
    # vertices; with cap >= r any edge fits
    cands = (everything if cap >= r else level[r - cap]) >> start << start
    for k in _bit_indices(cands & ~forbid):
        if t == 1:
            results.append(tuple(sorted((i, j) + chosen + (k,))))
            if budget is not None and len(results) > budget:
                raise BudgetExceeded(f"span-bounded system count exceeds budget {budget}")
            continue
        new = masks[k] & ~u
        child = level[:]
        _add_vertices(inc, child, new)
        cut = shares[k] if k < i else shares[k] & ((1 << i) - 1)
        _extend_root(search, i, j, chosen + (k,), u | new, span + new.bit_count(), k + 1, child, forbid | cut)


def check_free(
    h: Hypergraph,
    constraint: FreenessConstraint,
    *,
    budget: int | None = None,
) -> Verdict:
    """Exact check that every `constraint.e` distinct edges of `h` span more
    than `constraint.v` vertices.  Edge indices refer to `h.edges`; repeated
    edges are distinct items."""
    e, v = constraint.e, constraint.v
    kind = constraint.classify(h.r)
    flags = () if kind == "effective" else (kind,)
    if h.m < e or kind == "trivial":
        return Verdict(True, constraint, flags=flags)
    if kind == "unsatisfiable" or _support(h.masks).bit_count() <= v:
        # any e edges span at most v vertices: the lex-first e are a witness
        witness = tuple(range(e))
        return Verdict(False, constraint, witness, h.union_span(witness), flags)
    systems = span_bounded_systems(h.masks, e, v, budget=budget)
    if not systems:
        return Verdict(True, constraint, flags=flags)
    witness = systems[0]
    return Verdict(False, constraint, witness, h.union_span(witness), flags)


def check_profile(
    h: Hypergraph,
    profile: ConstraintProfile,
    *,
    budget: int | None = None,
) -> Verdict:
    """Conjunction check; fails with the witness of the smallest failing e."""
    flags: tuple[str, ...] = ()
    for c in profile.constraints:
        verdict = check_free(h, c, budget=budget)
        flags = flags + tuple(f for f in verdict.flags if f not in flags)
        if not verdict.holds:
            return Verdict(False, c, verdict.witness, verdict.spanned, flags)
    return Verdict(True, None, flags=flags)


def span_deficits(r: int, e: int, v: int) -> dict[int, int]:
    """The per-level span deficits f(i) = ceil((i-1)(e*r - v)/(e - 1)) for
    2 <= i <= e-1, extended by f(e) = e*r - v.  Requires gcd(e-1, e*r-v) = 1,
    which keeps every f(i) strictly between the window bounds."""
    if r < 3 or e < 3:
        raise BadRange(f"need r >= 3 and e >= 3, got r={r} e={e}")
    if not (r + 1 <= v <= e * r - 1):
        raise BadRange(f"need r+1 <= v <= e*r-1, got v={v}")
    d = e * r - v
    if math.gcd(e - 1, d) != 1:
        raise GcdCondition(f"gcd(e-1, e*r-v) = gcd({e - 1}, {d}) != 1")
    f = {i: -(-((i - 1) * d) // (e - 1)) for i in range(2, e)}
    f[e] = d
    return f


def ladder_profile(r: int, e: int, v: int) -> ConstraintProfile:
    """The graded profile behind the main construction: for every i <= e,
    any i distinct edges must span more than i*r - f(i) vertices, where the
    deficits f interpolate linearly up to the target constraint (e, v)."""
    f = span_deficits(r, e, v)
    constraints = tuple(
        FreenessConstraint(i, i * r - f[i]) for i in range(2, e + 1)
    )
    return ConstraintProfile(constraints)


def deficit_profile(r: int, q: int, e: int) -> ConstraintProfile:
    """Every i <= e edges must span at least i - q vertices.

    Constraints with i - q - 1 < r hold for any r-uniform hypergraph (they
    are kept but flagged trivial at check time); for i - q - 1 >= r they
    bite, and on multigraphs already at i = r + q + 1 since i repeated
    edges span exactly r vertices.
    """
    if e < 1 or q < 0 or r < 1:
        raise BadRange(f"need e >= 1, q >= 0, r >= 1, got e={e} q={q} r={r}")
    constraints = tuple(FreenessConstraint(i, i - q - 1) for i in range(1, e + 1) if i - q - 1 >= 0)
    return ConstraintProfile(constraints)


def berge_profile(r: int, t: int) -> ConstraintProfile:
    """Freeness profile equivalent to having no Berge cycle of length <= t:
    for each 2 <= i <= t, any i distinct edges span more than i*(r-1)."""
    if t < 2 or r < 2:
        raise BadRange(f"need t >= 2 and r >= 2, got t={t} r={r}")
    constraints = tuple(FreenessConstraint(i, i * r - i) for i in range(2, t + 1))
    return ConstraintProfile(constraints)


def _trail(links, levels: list[int], node: int, depth: int) -> list[int]:
    """`node` of levels[depth], then the first node of each lower level
    that links to the one above: its search path back to the root."""
    path = [node]
    for d in range(depth - 1, -1, -1):
        path.append(_bit_indices(levels[d] & links[(d + 1) & 1][path[-1]])[0])
    return path


def _cycle_from(links, root: int, limit: int, allowance: int | None) -> tuple[list[int] | None, int]:
    """The first cycle of Berge length <= limit that a breadth-first search
    from edge `root` closes, as incidence nodes [root, vertex bit, edge,
    ..., vertex bit], or None; and the edge nodes it expanded, at most
    `allowance`.  A node that two nodes of the level below reach closes a
    cycle through the trails of both."""
    levels = [1 << root]
    seen = [(2 << root) - 1, 0]  # edges up to the root, vertex bits
    expanded = 0
    for depth in range(limit):
        side = depth & 1  # the level holds edges (0) or vertex bits (1)
        fresh, reached = ~seen[1 - side], 0
        for node in _bit_indices(levels[depth]):
            expanded += 1 - side  # edges count toward the allowance
            if allowance is not None and expanded > allowance:
                raise BudgetExceeded("Berge cycle search exceeds its budget of expanded edges")
            new = links[side][node] & fresh
            if new & reached:
                w = _bit_indices(new & reached)[0]
                return _trail(links, levels, node, depth)[::-1] + _trail(links, levels, w, depth + 1)[:-1], expanded
            reached |= new
        if not reached:
            break
        seen[1 - side] |= reached
        levels.append(reached)
    return None, expanded


def _shortest_cycle(masks, t_max: int, budget: int | None) -> BergeCycle | None:
    """A shortest Berge cycle of length <= t_max among the edges, or None.

    A Berge L-cycle is a cycle of length 2L in the vertex-edge incidence
    graph: an edge's vertices come off its mask, a vertex's edges off
    `_incidence`.  It is searched breadth first from each edge in turn,
    each level in ascending order, keeping to the edges from the root on,
    where every cycle whose smallest edge is the root lies.
    A closure at the least length L is a cycle through its root, as a
    shorter closed walk would hold a shorter cycle, so later roots search
    only below L and the first root to close an L-cycle is the smallest
    edge on any shortest cycle.  `budget` caps the edge nodes expanded,
    summed over roots.
    """
    links = (masks, _incidence(masks))  # an edge's vertex bits, a vertex's edge bits
    best, spent = None, 0
    for root in range(len(masks)):
        limit = t_max if best is None else len(best) // 2 - 1
        if limit < 2:
            break
        cycle, expanded = _cycle_from(links, root, limit, None if budget is None else budget - spent)
        spent += expanded
        best = cycle or best
    if best is None:
        return None
    if best[-1] < best[1]:  # run toward the root's smaller vertex
        best[1:] = best[:0:-1]
    return BergeCycle(len(best) // 2, tuple(b + 1 for b in best[1::2]), tuple(best[0::2]))


def berge_girth(h: Hypergraph, t_max: int, *, budget: int | None = None) -> BergeCycle | None:
    """Smallest t <= t_max such that `h` contains a Berge t-cycle, with an
    explicit witness; None when the girth exceeds t_max.  A two-edge Berge
    cycle means two edges sharing at least two vertices.

    A breadth-first search of the vertex-edge incidence graph decides it,
    apart from the span kernel.  The witness starts at the smallest edge
    on any shortest cycle and runs toward that edge's smaller vertex on
    it.  `budget` caps the edge nodes the search expands, summed over its
    roots; exceeding it raises BudgetExceeded.
    """
    if t_max < 2:
        raise BadRange(f"need t_max >= 2, got {t_max}")
    return _shortest_cycle(h.masks, t_max, budget)
