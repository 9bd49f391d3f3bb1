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
once.  A branch that already holds a qualifying pair sorting before its
root is cut, so a system is rarely built under a root that is not its
own.  The search keeps its candidate edges, and the edges it cuts, as
bitsets over edge indices.

The vertex route serves tight levels of simple graphs: v is the fewest
vertices that e distinct r-edges can span, so every system spans exactly
v vertices and lies inside exactly one v-set of vertices.  It walks the
v-sets of the vertices the edges touch, pruned by the edges still inside
them, and emits every e-subset of the edges inside each.  It takes e >= 3
only where there are at most C(m, 2) such v-sets, as many as the pair
route's possible roots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import comb

from .errors import BadRange, BudgetExceeded, GcdCondition, UniformityMismatch
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
    tag: str = "custom"

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


def _mask_vertices(mask: int) -> list[int]:
    """The vertices of a bitmask (bit v-1 is vertex v), ascending."""
    return [b + 1 for b in _bit_indices(mask)]


def _root_threshold(r: int, size: int, max_span: int) -> int:
    """s*: any `size` r-edges spanning at most max_span vertices, where
    r <= max_span < size*r, hold a pair sharing at least this many (the
    convexity bound of the module docstring).  Since C(d, 2) >= d - 1, it
    is never below the excess bound ceil((size*r - max_span) / C(size, 2)).
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
    simple: bool = False,
) -> list[tuple[int, ...]]:
    """All `size`-subsets of edge indices whose union spans <= max_span vertices.

    The edges are given as vertex bitmasks of one size r (bit v-1 stands
    for vertex v).  Returns index tuples in lexicographic order.  `budget`
    caps the number of systems; exceeding it raises BudgetExceeded.  With
    `simple=True` the edges are promised pairwise distinct, so a union of
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
    if size == 1:
        return [(i,) for i in range(m)]
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
    # the vertex route walks C(support, max_span) vertex sets at most; the
    # pair route roots at up to C(m, 2) pairs (size 2 is a closed form there)
    if simple and size >= 3 and max_span == u:
        support = 0
        for mk in masks:
            support |= mk
        if comb(support.bit_count(), max_span) <= comb(m, 2):
            return _vertex_route(masks, size, max_span, budget)
    return _pair_route(masks, size, max_span, budget)


def _incidence(masks) -> list[int]:
    """inc[b]: the edges containing vertex b+1, as a bitset over edge indices."""
    inc = [0] * max(mk.bit_length() for mk in masks)
    for k, mk in enumerate(masks):
        for b in _bit_indices(mk):
            inc[b] |= 1 << k
    return inc


def _vertex_route(masks, size: int, max_span: int, budget: int | None = None) -> list[tuple[int, ...]]:
    """The systems of a tight level: pairwise-distinct edges, any `size` of
    which span at least max_span vertices, with 3 <= size and
    r <= max_span < size*r.

    Each system then spans exactly max_span vertices, so it lies inside
    exactly one max_span-set V of the vertices the edges touch, and every
    `size` edges inside V form a system.  A depth-first search picks V in
    ascending vertex order, keeping `inside`, the edges that avoid every
    vertex it skipped, and cuts a branch once fewer than `size` remain.
    No system is reached twice, so the budget counts C(|E(V)|, size) per V
    before any tuple is built.
    """
    inc = _incidence(masks)
    verts = [b for b, ib in enumerate(inc) if ib]
    # closed[p]: the edges whose vertices all lie in verts[:p + 1]
    by_top = [0] * len(inc)
    for k, mk in enumerate(masks):
        by_top[mk.bit_length() - 1] |= 1 << k
    closed, acc = [], 0
    for b in verts:
        acc |= by_top[b]
        closed.append(acc)
    results: list[tuple[int, ...]] = []
    found = 0

    def rec(p: int, need: int, inside: int):
        """Pick the next of `need` vertices of V from verts[p:]."""
        nonlocal found
        for q in range(p, len(verts) - need + 1):
            if need > 1:
                rec(q + 1, need - 1, inside)
            else:
                within = inside & closed[q]
                count = within.bit_count()
                if count >= size:
                    found += comb(count, size)
                    if budget is not None and found > budget:
                        raise BudgetExceeded(f"span-bounded system count exceeds budget {budget}")
                    results.extend(itertools.combinations(_bit_indices(within), size))
            inside &= ~inc[verts[q]]  # skip verts[q] from here on
            if inside.bit_count() < size:
                return

    rec(0, max_span, (1 << len(masks)) - 1)
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


def _pair_route(masks, size: int, max_span: int, budget: int | None = None) -> list[tuple[int, ...]]:
    """The systems of any level with 2 <= size and r <= max_span < size*r,
    rooted at their lexicographically first pair sharing at least s*
    vertices (the convexity bound of the module docstring)."""
    m = len(masks)
    r = masks[0].bit_count()
    # Sets of edges are bitsets over edge indices; a `level` list starts
    # from every edge (see _add_vertices).
    everything = (1 << m) - 1
    inc = _incidence(masks)

    def sharing(k: int, s: int) -> int:
        """The edges sharing at least s vertices with edge k (k included)."""
        level = [everything] + [0] * s
        _add_vertices(inc, level, masks[k])
        return level[s]

    if size == 2:
        # exact threshold: span(a, b) <= max_span iff |a & b| >= 2r - max_span
        need = 2 * r - max_span
        pairs = [
            (i, j) for i in range(m) for j in _bit_indices(sharing(i, need) >> (i + 1) << (i + 1))
        ]
        if budget is not None and len(pairs) > budget:
            raise BudgetExceeded(f"{len(pairs)} span-bounded pairs exceed budget {budget}")
        return pairs

    s_star = _root_threshold(r, size, max_span)
    shares = [sharing(k, s_star) for k in range(m)]
    results: list[tuple[int, ...]] = []

    def lexmin_pair(system: tuple[int, ...]) -> tuple[int, int]:
        for a, b in itertools.combinations(system, 2):
            if (masks[a] & masks[b]).bit_count() >= s_star:
                return (a, b)
        raise AssertionError("system without a qualifying pair")

    def emit(i: int, j: int, rest: tuple[int, ...]):
        system = tuple(sorted((i, j) + rest))
        if lexmin_pair(system) == (i, j):
            results.append(system)
            if budget is not None and len(results) > budget:
                raise BudgetExceeded(
                    f"span-bounded system count exceeds budget {budget}"
                )

    def rec(chosen: tuple[int, ...], u: int, span: int, start: int, level: list[int], forbid: int):
        """Extend root (i, j) plus `chosen`, whose union u spans `span`
        vertices and meets the edges of level[t] in >= t vertices, by edges
        from `start` on.  `forbid` holds the edges that would form, with
        the root or with `chosen`, a qualifying pair sorting before the
        root; pairs only accumulate down a branch, so none of them could
        be part of a system emitted under this root."""
        t = size - 2 - len(chosen)
        cap = max_span - span
        if cap >= t * r:
            # any t further edges fit inside the span budget
            pool = _bit_indices(everything >> start << start & ~forbid)
            for combo in itertools.combinations(pool, t):
                emit(i, j, chosen + combo)
            return
        # with cap < r the next edge must reuse at least r - cap spanned
        # vertices; with cap >= r any edge fits
        cands = (everything if cap >= r else level[r - cap]) >> start << start
        for k in _bit_indices(cands & ~forbid):
            if t == 1:
                emit(i, j, chosen + (k,))
                continue
            new = masks[k] & ~u
            child = level[:]
            _add_vertices(inc, child, new)
            cut = shares[k] if k < i else shares[k] & below_i
            rec(chosen + (k,), u | new, span + new.bit_count(), k + 1, child, forbid | cut)

    for i in range(m):
        below_i = (1 << i) - 1
        for j in _bit_indices(shares[i] >> (i + 1) << (i + 1)):
            u0 = masks[i] | masks[j]
            span0 = u0.bit_count()
            if span0 > max_span:
                continue
            level = [everything] + [0] * r
            _add_vertices(inc, level, u0)
            # the pairs (k, i) and (k, j) sorting before (i, j)
            forbid = (shares[i] & ((1 << j) - 1)) | (shares[j] & below_i) | (1 << i) | (1 << j)
            rec((), u0, span0, 0, level, forbid)

    results.sort()
    return results


def check_free(
    h: Hypergraph,
    constraint: FreenessConstraint,
    *,
    r: int | None = None,
    budget: int | None = None,
) -> Verdict:
    """Exact check that every `constraint.e` distinct edges of `h` span more
    than `constraint.v` vertices.  Edge indices refer to `h.edges`; in a
    multigraph, repeated edges are distinct items."""
    if r is not None and h.r != r:
        raise UniformityMismatch(f"hypergraph is {h.r}-uniform, expected {r}")
    e, v = constraint.e, constraint.v
    kind = constraint.classify(h.r)
    flags = () if kind == "effective" else (kind,)
    if h.m < e or kind == "trivial":
        return Verdict(True, constraint, flags=flags)
    if kind == "unsatisfiable":
        witness = tuple(range(e))
        return Verdict(False, constraint, witness, h.union_span(witness), flags)
    systems = span_bounded_systems(h.masks, e, v, budget=budget, simple=not h.multi)
    if not systems:
        return Verdict(True, constraint, flags=flags)
    witness = systems[0]
    return Verdict(False, constraint, witness, h.union_span(witness), flags)


def check_profile(
    h: Hypergraph,
    profile: ConstraintProfile,
    *,
    r: int | None = None,
    budget: int | None = None,
) -> Verdict:
    """Conjunction check; fails with the witness of the smallest failing e."""
    if r is not None and h.r != r:
        raise UniformityMismatch(f"hypergraph is {h.r}-uniform, expected {r}")
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
    return ConstraintProfile(constraints, tag="ladder")


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
    return ConstraintProfile(constraints, tag="deficit")


def berge_profile(r: int, t: int) -> ConstraintProfile:
    """Freeness profile equivalent to having no Berge cycle of length <= t:
    for each 2 <= i <= t, any i distinct edges span more than i*(r-1)."""
    if t < 2 or r < 2:
        raise BadRange(f"need t >= 2 and r >= 2, got t={t} r={r}")
    constraints = tuple(FreenessConstraint(i, i * r - i) for i in range(2, t + 1))
    return ConstraintProfile(constraints, tag="berge")


def _shortest_incidence_cycle(adj: dict, nodes: list) -> list:
    """Shortest cycle in a small undirected graph, as a node list."""
    best: list | None = None
    for root in nodes:
        depth = {root: 0}
        parent = {root: None}
        queue = [root]
        qi = 0
        while qi < len(queue):
            w = queue[qi]
            qi += 1
            if best is not None and depth[w] * 2 + 1 >= len(best):
                break
            for u in adj[w]:
                if u == parent[w]:
                    continue
                if u not in depth:
                    depth[u] = depth[w] + 1
                    parent[u] = w
                    queue.append(u)
                    continue
                # cross edge: reconstruct the cycle through the BFS tree
                anc_w = [w]
                while anc_w[-1] is not None:
                    anc_w.append(parent[anc_w[-1]])
                anc_w.pop()
                anc_set = set(anc_w)
                path_u = [u]
                while path_u[-1] not in anc_set:
                    path_u.append(parent[path_u[-1]])
                lca = path_u[-1]
                cycle = anc_w[: anc_w.index(lca) + 1]
                cycle.reverse()
                cycle.extend(path_u[:-1])
                if best is None or len(cycle) < len(best):
                    best = cycle
    if best is None:
        raise AssertionError("no cycle in incidence graph")
    return best


def extract_berge_cycle(h: Hypergraph, system: tuple[int, ...]) -> BergeCycle:
    """Extract an explicit Berge cycle from edges spanning few vertices.

    If the k edges of `system` span at most k*(r-1) vertices, their
    vertex-edge incidence graph has at least as many links as nodes and so
    contains a cycle; any such cycle alternates edges and vertices and is
    exactly a Berge cycle.  Returns the shortest one, deterministically.
    """
    union = 0
    for i in system:
        union |= h.masks[i]
    nodes: list = [("e", i) for i in sorted(system)]
    nodes += [("v", x) for x in _mask_vertices(union)]
    adj: dict = {node: [] for node in nodes}
    for i in sorted(system):
        for x in h.edges[i]:
            adj[("e", i)].append(("v", x))
            adj[("v", x)].append(("e", i))
    for node in nodes:
        adj[node].sort()
    cycle = _shortest_incidence_cycle(adj, nodes)
    # rotate to the smallest edge node, orient toward the smaller neighbor
    estart = min(k for k, node in enumerate(cycle) if node[0] == "e")
    cycle = cycle[estart:] + cycle[:estart]
    if cycle[-1] < cycle[1]:
        cycle = [cycle[0]] + cycle[1:][::-1]
    edge_seq = tuple(node[1] for node in cycle[0::2])
    vert_seq = tuple(node[1] for node in cycle[1::2])
    return BergeCycle(len(edge_seq), vert_seq, edge_seq)


def validate_berge_cycle(h: Hypergraph, cycle: BergeCycle) -> bool:
    """Check the cycle convention: distinct vertices, distinct edges, and
    edges[i] contains vertices[i-1] and vertices[i] cyclically."""
    t = cycle.length
    vs, es = cycle.vertices, cycle.edges
    if len(vs) != t or len(es) != t:
        return False
    if len(set(vs)) != t or len(set(es)) != t:
        return False
    for i in range(t):
        edge = set(h.edges[es[i]])
        if vs[i - 1] not in edge or vs[i] not in edge:
            return False
    return True


def berge_girth(h: Hypergraph, t_max: int, *, budget: int | None = None) -> BergeCycle | None:
    """Smallest t <= t_max such that `h` contains a Berge t-cycle, with an
    explicit witness; None when the girth exceeds t_max.  `budget` caps the
    systems enumerated at each length, as in `span_bounded_systems`.

    Uses the equivalence with span-freeness: a Berge t-cycle's edges span
    at most t*(r-1) vertices, and conversely t edges spanning at most
    t*(r-1) vertices contain a Berge cycle of length <= t.  A two-edge
    Berge cycle means two edges sharing at least two vertices.
    """
    if t_max < 2:
        raise BadRange(f"need t_max >= 2, got {t_max}")
    for i in range(2, t_max + 1):
        systems = span_bounded_systems(h.masks, i, i * (h.r - 1), budget=budget, simple=not h.multi)
        if systems:
            cycle = extract_berge_cycle(h, systems[0])
            # scanning i upward means no shorter cycle exists anywhere
            assert cycle.length == i, "extraction found a shorter cycle than the scan"
            return cycle
    return None
