"""Core r-uniform hypergraph type, canonical form, and the .hg text format.

Vertices are 1..n.  Edges are stored as sorted vertex tuples in lexicographic
order, so equal hypergraphs compare equal and serialize to identical bytes.
Set operations on edges use integer bitmasks (bit v-1 stands for vertex v),
written only by `_edge_mask`, which stays private: it runs once per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BadIndex, DuplicateEdge, NonUniform, OutOfRange, ParseError


def _edge_mask(edge: tuple[int, ...]) -> int:
    m = 0
    for v in edge:
        m |= 1 << (v - 1)
    return m


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph in canonical form.

    Attributes
    ----------
    n : number of vertices (vertex set is 1..n)
    r : uniformity; every edge has exactly r distinct vertices
    edges : lexicographically sorted tuple of sorted vertex tuples
    multi : if True, repeated edges are allowed and kept as distinct items
    """

    n: int
    r: int
    edges: tuple[tuple[int, ...], ...]
    multi: bool = False

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(_edge_mask(e) for e in self.edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def union_span(self, indices: tuple[int, ...] | list[int]) -> int:
        """Number of vertices covered by the union of the indexed edges.

        Indices must be distinct and in range; duplicates are a caller bug
        and raise BadIndex rather than being silently collapsed.
        """
        seen = set()
        mask = 0
        for i in indices:
            if not 0 <= i < self.m:
                raise BadIndex(f"edge index {i} out of range 0..{self.m - 1}")
            if i in seen:
                raise BadIndex(f"repeated edge index {i}")
            seen.add(i)
            mask |= self.masks[i]
        return mask.bit_count()

    def subhypergraph(self, indices: list[int] | tuple[int, ...]) -> "Hypergraph":
        """Restriction to a subset of edge indices (kept in sorted order)."""
        idx = sorted(set(indices))
        if idx and (idx[0] < 0 or idx[-1] >= self.m):
            raise BadIndex(f"edge index out of range 0..{self.m - 1}")
        return Hypergraph(self.n, self.r, tuple(self.edges[i] for i in idx), self.multi)


def canonicalize(
    raw_edges,
    n: int,
    *,
    multi: bool = False,
    r: int | None = None,
) -> Hypergraph:
    """Validate raw edges and return the canonical Hypergraph.

    Each raw edge must consist of r distinct vertices in 1..n.  Vertex order
    inside an edge and edge order are both normalized by sorting.  Duplicate
    edges raise DuplicateEdge unless multi is set.  For an empty edge list the
    uniformity must be given explicitly; it must be at least 1, as in parse_hg.
    """
    if n < 1:
        raise OutOfRange(f"n must be positive, got {n}")
    if r is not None and r < 1:
        raise NonUniform(f"uniformity r must be positive, got {r}")
    normalized = []
    for raw in raw_edges:
        edge = tuple(sorted(raw))
        if not edge:
            raise NonUniform("empty edge; uniformity r must be positive")
        if len(set(edge)) != len(edge):
            raise NonUniform(f"repeated vertex in edge {tuple(raw)}")
        if r is None:
            r = len(edge)
        if len(edge) != r:
            raise NonUniform(f"edge {tuple(raw)} has {len(edge)} vertices, expected {r}")
        if edge[0] < 1 or edge[-1] > n:
            raise OutOfRange(f"edge {edge} outside 1..{n}")
        normalized.append(edge)
    if r is None:
        raise NonUniform("uniformity r must be given for an empty edge list")
    normalized.sort()
    if not multi:
        for a, b in zip(normalized, normalized[1:]):
            if a == b:
                raise DuplicateEdge(f"duplicate edge {a}")
    return Hypergraph(n, r, tuple(normalized), multi)


def serialize_hg(h: Hypergraph) -> str:
    """Render the canonical .hg text: header 'n m r [multi]', one edge per line.

    Repeated edges raise DuplicateEdge unless multi is set, as parse_hg
    would reject the text."""
    if not h.multi and len(set(h.edges)) != h.m:
        raise DuplicateEdge("repeated edges need the multi flag")
    header = f"{h.n} {h.m} {h.r}"
    if h.multi:
        header += " multi"
    lines = [header]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def parse_hg(text: str) -> Hypergraph:
    """Parse the .hg format, rejecting anything non-canonical.

    The format is strict so that serialize(parse(text)) == text: vertices
    inside an edge must be ascending and edge lines must be in lexicographic
    order.  Errors carry the offending 1-based line number.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty input", 1)
    head = lines[0].split()
    multi = False
    if len(head) == 4 and head[3] == "multi":
        multi = True
        head = head[:3]
    if len(head) != 3:
        raise ParseError("header must be 'n m r' or 'n m r multi'", 1)
    try:
        n, m, r = (int(x) for x in head)
    except ValueError:
        raise ParseError("header fields must be integers", 1) from None
    if n < 1 or m < 0 or r < 1:
        raise ParseError(f"invalid header values n={n} m={m} r={r}", 1)
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}", min(len(lines), m) + 1)
    edges: list[tuple[int, ...]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != r:
            raise ParseError(f"expected {r} vertices, found {len(parts)}", lineno)
        try:
            edge = tuple(int(x) for x in parts)
        except ValueError:
            raise ParseError("vertex fields must be integers", lineno) from None
        for a, b in zip(edge, edge[1:]):
            if a >= b:
                raise ParseError("vertices must be strictly ascending", lineno)
        if edge[0] < 1 or edge[-1] > n:
            raise ParseError(f"vertex outside 1..{n}", lineno)
        if edges and edge < edges[-1]:
            raise ParseError("edge lines must be in lexicographic order", lineno)
        if edges and edge == edges[-1] and not multi:
            raise ParseError(f"duplicate edge {edge}", lineno)
        edges.append(edge)
    return Hypergraph(n, r, tuple(edges), multi)
