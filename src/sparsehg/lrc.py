"""Locally recoverable codes with optimal minimum distance.

The code on n = m(r+1) symbols is cut out by one all-ones parity per block
of r+1 coordinates (the locality mechanism: any symbol is recovered from
the r others in its block) plus d-2 Vandermonde parities evaluated at the
block's support A_i inside a prime field.  Optimality, meaning the
Singleton-type bound d = n - k - ceil(k/r) + 2 is met, is equivalent to a
span condition on the family {A_i}: no i blocks inside i*r points, for
every i up to floor((d-1)/2).  Both sides are computed exactly.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .builder import construct
from .errors import (
    BadRange,
    BadShape,
    BudgetExceeded,
    CertificationFailed,
    DuplicateElement,
    InsufficientYield,
    NotACode,
    ParseError,
    RetriesExhausted,
)
from .freeness import ConstraintProfile, FreenessConstraint, Verdict, check_profile
from .hypergraph import Hypergraph, canonicalize

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin, exact for the 64-bit range."""
    if q < 2:
        return False
    if q in _MR_WITNESSES:
        return True
    if any(q % s == 0 for s in _MR_WITNESSES):
        return False
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    q: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise BadRange(f"{self.q} is not prime")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return a * b % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise BadRange("zero has no inverse")
        return pow(a, self.q - 2, self.q)

    def pow(self, a: int, k: int) -> int:
        return pow(a, k, self.q)


@dataclass(frozen=True)
class FqMatrix:
    field: PrimeField
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.entries:
            width = len(self.entries[0])
            if any(len(row) != width for row in self.entries):
                raise BadShape("ragged rows")
            q = self.field.q
            if any(not 0 <= x < q for row in self.entries for x in row):
                raise BadShape("entries must be reduced mod q")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def fq_matrix(field: PrimeField, rows) -> FqMatrix:
    q = field.q
    return FqMatrix(field, tuple(tuple(int(x) % q for x in row) for row in rows))


def _work_dtype(q: int):
    """Narrowest integer type in which a*b - c*d is exact for residues
    mod q: int16, int32 or int64 below 2^31, Python integers (object
    arrays) above."""
    if q >= 2**31:
        return object
    return next(t for t in (np.int16, np.int32, np.int64) if (q - 1) ** 2 <= np.iinfo(t).max)


def _echelon(m: FqMatrix) -> np.ndarray:
    """Reduced row echelon form over the prime field, zero rows dropped.

    Exact for every prime PrimeField accepts (see _work_dtype).  Row
    operations keep every column dependency, so the distance search runs
    on the rank-many rows this returns.
    """
    q = m.field.q
    a = np.array(m.entries, dtype=_work_dtype(q)).reshape(m.rows, m.cols)
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        below = np.flatnonzero(a[r:, c] != 0)
        if below.size == 0:
            continue
        pivot = r + int(below[0])
        a[[r, pivot]] = a[[pivot, r]]
        a[r] = a[r] * pow(int(a[r, c]), q - 2, q) % q
        others = np.flatnonzero(a[:, c] != 0)
        others = others[others != r]
        a[others] = (a[others] - a[others, c][:, None] * a[r]) % q
        r += 1
    return a[:r]


def rank(m: FqMatrix) -> int:
    """Rank over the prime field, by _echelon."""
    return len(_echelon(m))


def vandermonde(a_list: tuple[int, ...], d: int, field: PrimeField) -> FqMatrix:
    """(d-2) x |A| block of powers: entry (i, j) = a_j ** i for i = 1..d-2.

    Exponents start at 1: a constant row would repeat the all-ones locality
    parities and collapse rank.
    """
    if d < 3:
        raise BadShape(f"need d >= 3 for a nonempty block, got {d}")
    if not a_list:
        raise BadShape("empty evaluation set")
    if len(set(a_list)) != len(a_list):
        raise DuplicateElement(f"repeated evaluation point in {a_list}")
    return fq_matrix(
        field, [[field.pow(a, i) for a in a_list] for i in range(1, d - 1)]
    )


@dataclass(frozen=True)
class LrcSpec:
    """A code instance: field, locality, design distance, and the block
    supports A_1..A_m (each r+1 field elements)."""

    q: int
    r: int
    d: int
    a_list: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        field = PrimeField(self.q)
        if self.r < 1:
            raise BadRange(f"need r >= 1, got {self.r}")
        if self.d < 3:
            raise BadRange(f"need d >= 3, got {self.d}")
        if not self.a_list:
            raise BadRange("need at least one block")
        for a in self.a_list:
            if len(a) != self.r + 1:
                raise BadShape(f"block {a} has size {len(a)}, want r+1 = {self.r + 1}")
            if len(set(a)) != len(a):
                raise DuplicateElement(f"repeated element in block {a}")
            if any(not 0 <= x < field.q for x in a):
                raise BadRange(f"block {a} leaves 0..q-1")

    @property
    def m(self) -> int:
        return len(self.a_list)

    @property
    def n(self) -> int:
        return self.m * (self.r + 1)

    @property
    def field(self) -> PrimeField:
        return PrimeField(self.q)

    @property
    def hypothesis_flags(self) -> tuple[str, ...]:
        flags = []
        if self.d < 11:
            flags.append("d < 11: outside the stated equivalence hypotheses")
        if self.r < self.d - 2:
            flags.append("r < d - 2: outside the stated equivalence hypotheses")
        return tuple(flags)

    def to_json(self) -> str:
        payload = {
            "q": self.q,
            "r": self.r,
            "d": self.d,
            "A": [list(a) for a in self.a_list],
        }
        return json.dumps(payload, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "LrcSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from exc
        try:
            return LrcSpec(
                q=int(payload["q"]),
                r=int(payload["r"]),
                d=int(payload["d"]),
                a_list=tuple(tuple(int(x) for x in a) for a in payload["A"]),
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"missing or malformed field: {exc}") from exc


def parity_check(spec: LrcSpec) -> FqMatrix:
    """(m + d - 2) x n matrix: one all-ones row per block on top (locality:
    every column meets exactly one weight-(r+1) row), Vandermonde blocks
    evaluated at A_i side by side below."""
    field = spec.field
    width = spec.r + 1
    top = []
    for b in range(spec.m):
        row = [0] * spec.n
        row[b * width : (b + 1) * width] = [1] * width
        top.append(row)
    blocks = [vandermonde(a, spec.d, field) for a in spec.a_list]
    bottom = []
    for i in range(spec.d - 2):
        row = []
        for blk in blocks:
            row.extend(blk.entries[i])
        bottom.append(row)
    return fq_matrix(field, top + bottom)


def code_dimension(spec: LrcSpec) -> int:
    return spec.n - rank(parity_check(spec))


_FRONTIER_BYTES = 1 << 18
"""Cap on the bytes of stored search states, whatever the budget; the
temporaries of one elimination step stay under a quarter of it."""


def _storage_dtype(q: int):
    """Narrowest type holding every residue mod q."""
    if q >= 2**31:
        return object
    return next(t for t in (np.uint8, np.uint16, np.uint32) if q - 1 <= np.iinfo(t).max)


def _comb(n: int, k: int) -> int:
    return math.comb(n, k) if n >= 0 else 0


def _lex_rank(subset: tuple[int, ...], n: int) -> int:
    """0-based rank of a sorted subset among the same-size subsets of
    0..n-1 in lexicographic order."""
    d = len(subset)
    return math.comb(n, d) - 1 - sum(_comb(n - 1 - a, d - i) for i, a in enumerate(subset))


class _ColumnSearch:
    """The lex-first smallest dependent set of columns of a full-row-rank
    matrix, found level by level; `hit` is that set, or None when no set
    of at most max_size columns is dependent.

    A state is an independent column set S stored as the columns after
    max(S), reduced against span(S): one row fewer per column of S, since
    each elimination drops its pivot row.  A zero column in a state is a
    dependent set one larger.  Level j of a slab holds every independent
    set P + T with |T| = j and min(T) in the slab's range of first columns,
    one array (rows, columns, states) per group of equal max(T), states in
    colex order of T; one batched rank-1 update per (group, later column)
    builds level j + 1.  States run along the last axis so that numpy's
    inner loops are long.

    A slab whose two largest consecutive levels would pass _FRONTIER_BYTES
    is split by first column, and a single such column by the next one
    (a longer prefix P).  Slabs run in lex order, each searching only below
    the best size found so far, so the first set found at the final size
    is also the lex-first one.
    """

    def __init__(self, rows: np.ndarray, q: int, max_size: int):
        self.q = q
        self.n = rows.shape[1]
        self.work = _work_dtype(q)
        self.dtype = _storage_dtype(q)
        self.entry_bytes = np.dtype(self.dtype).itemsize
        if self.dtype is object:
            self.entry_bytes += sys.getsizeof(q)
        self.hit: tuple[int, ...] | None = None
        self.peak = 0  # most bytes of stored levels held at once
        state = rows.astype(self.dtype)
        # only sets smaller than self.best are searched.  A first pass
        # covers the sizes whose levels fit in one slab, so a small
        # distance is found without splitting; the full search runs only
        # when that pass finds nothing.
        self.best = max_size + 1
        while self.best > 2 and self._peak(0, len(state), 0, self.n) > _FRONTIER_BYTES:
            self.best -= 1
        self._prefix((), state, 0)
        if self.hit is None and self.best <= max_size:
            self.best = max_size + 1
            self._prefix((), state, 0)

    def _found(self, subset: tuple[int, ...]) -> None:
        self.best = len(subset)
        self.hit = subset

    def _eliminate(self, x: np.ndarray, t: int) -> np.ndarray:
        """States x, (rows, columns, states) with column t nonzero in
        each, extended by column t.

        Row operations keep a state's column dependencies, so row 0 first
        takes on later rows until its entry p in column t is nonzero.  Each
        later row y then becomes p*y - y_t*row0, p times the usual
        reduction (scaling keeps the dependencies too, and needs no
        inverse), and row 0 is dropped.
        """
        x = x[:, t:].astype(self.work)
        row0 = x[0]
        for i in range(1, len(x)):
            fix = row0[0] == 0
            if not fix.any():
                break
            row0[:, fix] = (row0[:, fix] + x[i][:, fix]) % self.q
        e = row0[:1] * x[1:, 1:]
        e -= x[1:, :1] * row0[1:]
        e -= e // self.q * self.q  # e %= q, but numpy divides faster than it takes remainders
        return e

    def _peak(self, base: int, rank: int, f_lo: int, f_hi: int) -> int:
        """Bytes of the two largest consecutive levels a slab stores: prefix
        length base, rank rows left, first columns in [f_lo, f_hi).  Level
        0 is the prefix, and the last level searched is never stored."""
        n = self.n
        level = [rank * (n - f_lo) * self.entry_bytes]
        for j in range(1, self.best - 1 - base):
            states = sum(
                (_comb(l - f_lo, j - 1) - _comb(l - f_hi, j - 1)) * (n - 1 - l)
                for l in range(f_lo, n)
            )
            level.append(states * (rank - j) * self.entry_bytes)
        level.append(0)
        return max(a + b for a, b in zip(level, level[1:]))

    def _prefix(self, prefix: tuple[int, ...], state: np.ndarray, lo: int) -> None:
        """Search prefix + T for every nonempty T with min(T) >= lo, in lex
        order; state holds columns lo.. reduced against span(prefix)."""
        base, rank, f = len(prefix), state.shape[0], lo
        while f < self.n and base + 1 < self.best:
            if self._peak(base, rank, f, f + 1) > _FRONTIER_BYTES:
                if not (state[:, f - lo] != 0).any():
                    self._found(prefix + (f,))
                else:
                    child = self._eliminate(state[:, :, None], f - lo)[:, :, 0].astype(self.dtype)
                    self._prefix(prefix + (f,), child, f + 1)
                f += 1
                continue
            # the widest slab [f, hi) that fits; peaks grow with hi
            hi = f + 1 + bisect.bisect_left(
                range(f + 2, self.n + 1),
                True,
                key=lambda end: self._peak(base, rank, f, end) > _FRONTIER_BYTES,
            )
            self._slab(prefix, state[:, f - lo :], f, hi)
            f = hi

    def _slab(self, prefix, state, f_lo: int, f_hi: int) -> None:
        """Every prefix + T with min(T) in [f_lo, f_hi), below the best
        size, level by level; state holds columns f_lo.. reduced against
        span(prefix).  Groups are keyed by max(T); level 0 is the prefix
        itself, keyed f_lo - 1."""
        n, base = self.n, len(prefix)
        groups = {f_lo - 1: state[:, :, None]}
        held = state.nbytes  # bytes of the stored levels
        sizes: list[np.ndarray] = []  # sizes[j - 1][l]: states in group l at level j
        j = 0
        while base + j + 1 < self.best:
            store = base + j + 2 < self.best
            # group c of level j + 1 is every state of the groups l < c in
            # order, so group l's children start at state nxt[l] of each
            nxt = np.zeros(n, np.int64)
            if j == 0:
                nxt[f_lo:f_hi] = 1
            else:
                nxt[1:] = np.cumsum(sizes[-1])[:-1]
            children: dict[int, np.ndarray] = {}
            hits = []
            for l in sorted(groups):
                x = groups.pop(l)
                ts = range(f_hi - f_lo) if j == 0 else range(x.shape[1])
                # three temporaries per child, each at most a parent chunk
                per_state = np.dtype(self.work).itemsize * max(1, x[:, :, 0].size)
                step = max(1, _FRONTIER_BYTES // (12 * per_state))
                for s in range(0, x.shape[2], step):
                    chunk = x[:, :, s : s + step]
                    zero = ~(chunk[:, : ts.stop] != 0).any(axis=0)
                    if zero.any():
                        t, idx = np.nonzero(zero)
                        hits.append((l, l + 1 + t, s + idx))
                        held -= sum(a.nbytes for a in children.values())
                        children, store = {}, False
                    if not store:
                        continue
                    for t in ts:
                        c = l + 1 + t
                        if c not in children:
                            children[c] = np.empty((len(x) - 1, n - 1 - c, nxt[c]), self.dtype)
                            held += children[c].nbytes
                            self.peak = max(self.peak, held)
                        at = (nxt[l] if j else 0) + s
                        children[c][:, :, at : at + chunk.shape[2]] = self._eliminate(chunk, t)
                held -= x.nbytes
            if hits:
                rows = np.concatenate([self._unrank(sizes, *hit) for hit in hits])
                first = rows[np.lexsort(rows.T[::-1])[0]]
                self._found(prefix + tuple(int(a) for a in first))
                return
            sizes.append(nxt)
            groups = children
            j += 1

    @staticmethod
    def _unrank(sizes, l, cs, idx) -> np.ndarray:
        """The sets T + {c}, one row each, for states idx of group l at
        level len(sizes) with zero column c: colex unranking through the
        group sizes of each level."""
        cols = [cs]
        if sizes:
            cols.append(np.full(len(idx), l))
            for count in reversed(sizes[:-1]):
                inclusive = np.cumsum(count)
                parent = np.searchsorted(inclusive, idx, side="right")
                idx = idx - (inclusive[parent] - count[parent])
                cols.append(parent)
        return np.stack(cols[::-1], axis=1)


def min_distance(m: FqMatrix, budget: int = 5 * 10**6) -> int:
    """Smallest number of linearly dependent columns.

    The search runs level by level (see _ColumnSearch): every independent
    set of one size is extended by every later column at once, and a zero
    column is a dependent set.  The budget meters the same work as an
    exhaustive sweep of column subsets, by size and then in lexicographic
    order, up to and including the first dependent one: the result is
    returned only if that count is at most the budget, and otherwise
    BudgetExceeded carries checked_up_to, the largest size whose subsets
    the budget covers entirely (every smaller size is then cleared).
    Arithmetic is exact for every prime PrimeField accepts, and the
    search's working memory is capped by _FRONTIER_BYTES whatever the
    budget.
    """
    n = m.cols
    if n == 0:
        raise NotACode("no columns")
    rows = _echelon(m)
    if not len(rows):
        return 1  # zero matrix: every single column is dependent
    # the first size the budget cannot sweep in full, if any
    swept, over = 0, None
    for size in range(1, n + 1):
        swept += math.comb(n, size)
        if swept > budget:
            over = size
            break
    hit = None
    if len(rows) < n:  # otherwise every column set is independent
        max_size = min(len(rows) + 1, over or n)
        hit = _ColumnSearch(rows, m.field.q, max_size).hit
    if hit is not None:
        spent = sum(math.comb(n, s) for s in range(1, len(hit))) + _lex_rank(hit, n) + 1
        if spent <= budget:
            return len(hit)
    elif over is None:
        raise NotACode("all columns independent: the code is trivial")
    raise BudgetExceeded(
        f"column search exhausted budget at subset size {over}; "
        f"distance exceeds {over - 1}",
        checked_up_to=over - 1,
    )


def singleton_bound(n: int, k: int, r: int) -> int:
    return n - k - math.ceil(k / r) + 2


def check_optimal(spec: LrcSpec, *, budget: int = 5 * 10**6) -> Verdict:
    """Does the actual minimum distance meet n - k - ceil(k/r) + 2?

    The verdict's spanned field carries the actual distance; the witness
    carries (k, bound, d_actual) for reporting.
    """
    h = parity_check(spec)
    k = spec.n - rank(h)
    if k <= 0:
        raise NotACode(f"dimension {k}; the parity checks leave no message space")
    d_actual = min_distance(h, budget=budget)
    bound = singleton_bound(spec.n, k, spec.r)
    return Verdict(
        holds=d_actual == bound,
        witness=(k, bound, d_actual),
        spanned=d_actual,
        flags=spec.hypothesis_flags,
    )


def block_hypergraph(spec: LrcSpec) -> Hypergraph:
    """The blocks as an (r+1)-graph on the field elements, 1-based."""
    edges = [[x + 1 for x in a] for a in spec.a_list]
    return canonicalize(edges, spec.q, multi=True, r=spec.r + 1)


def freeness_profile(spec: LrcSpec) -> ConstraintProfile:
    t = (spec.d - 1) // 2
    return ConstraintProfile(
        tuple(FreenessConstraint(i, i * spec.r) for i in range(1, t + 1)),
        tag="lrc",
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Both sides of the optimality test: the code side (distance meets the
    bound) and the combinatorial side (blocks span-free at every level)."""

    optimal: bool
    free: bool
    k: int
    bound: int
    d_actual: int
    flags: tuple[str, ...]

    @property
    def agree(self) -> bool:
        return self.optimal == self.free

    def to_report(self) -> dict:
        return {
            "optimal": self.optimal,
            "free": self.free,
            "agree": self.agree,
            "k": self.k,
            "bound": self.bound,
            "d_actual": self.d_actual,
            "flags": list(self.flags),
        }


def check_equivalence(spec: LrcSpec, *, budget: int = 5 * 10**6) -> EquivalenceReport:
    """Evaluate optimality and block freeness independently and report both.

    Inside the hypotheses d >= 11, r >= d - 2 the two sides must agree;
    outside them the report carries warning flags and makes no claim.
    """
    optimal = check_optimal(spec, budget=budget)
    free = check_profile(block_hypergraph(spec), freeness_profile(spec), budget=budget)
    k, bound, d_actual = optimal.witness
    return EquivalenceReport(
        optimal=optimal.holds,
        free=free.holds,
        k=k,
        bound=bound,
        d_actual=d_actual,
        flags=spec.hypothesis_flags,
    )


def serialize_fqm(m: FqMatrix) -> str:
    """`rows cols q` header, then row-major entries, one row per line."""
    lines = [f"{m.rows} {m.cols} {m.field.q}"]
    for row in m.entries:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_fqm(text: str) -> FqMatrix:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError("header must be 'rows cols q'", line=1)
    try:
        n_rows, n_cols, q = (int(x) for x in head)
    except ValueError as exc:
        raise ParseError(f"bad header: {exc}", line=1) from exc
    field = PrimeField(q)
    if len(lines) != n_rows + 1:
        raise ParseError(f"expected {n_rows} rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            row = [int(x) for x in line.split()]
        except ValueError as exc:
            raise ParseError(f"bad entry: {exc}", line=i) from exc
        if len(row) != n_cols:
            raise ParseError(f"expected {n_cols} entries, found {len(row)}", line=i)
        if any(not 0 <= x < q for x in row):
            raise ParseError("entries must lie in 0..q-1", line=i)
        rows.append(row)
    return fq_matrix(field, rows)


def construct_lrc(
    q: int,
    r: int,
    d: int,
    target_m: int,
    seed: int = 0,
    *,
    max_retries: int = 16,
    min_expected_edges: float | None = None,
    budget: int = 5 * 10**6,
) -> LrcSpec:
    """Build an optimal code by constructing a span-free block family.

    Blocks are (r+1)-subsets of the field; the builder's target is t
    blocks inside t*r points with t = floor((d-1)/2), whose ladder covers
    every level of the freeness profile (gcd(t-1, t) = 1 always).  The
    sampling probability gets a floor making the expected sample workable
    at field size q, which the power law alone would not reach.
    """
    if d < 11 or r < d - 2:
        raise BadRange(f"need d >= 11 and r >= d - 2, got d={d}, r={r}")
    field = PrimeField(q)  # validates primality
    if target_m < 1:
        raise BadRange(f"need target_m >= 1, got {target_m}")
    if q < r + 2:
        raise BadRange(f"field too small: need q >= r + 2 = {r + 2}")
    # pairwise overlaps <= 1 force m(r+1) - C(m,2) distinct points at most q
    needed = target_m * (r + 1) - target_m * (target_m - 1) // 2
    if needed > q:
        raise InsufficientYield(
            f"{target_m} blocks of size {r + 1} overlapping pairwise in at most "
            f"one point need {needed} > q = {q} field elements"
        )
    t = (d - 1) // 2
    if min_expected_edges is None:
        # the first surviving block is the lexicographically first sample;
        # each further sample survives the overlap sweep with probability
        # p_compat = P(two random (r+1)-subsets of F_q share <= 1 point),
        # so the sample floor scales with 1/p_compat at tight fields
        width = r + 1
        population = math.comb(q, width)
        compatible = math.comb(q - width, width) + width * math.comb(q - width, r)
        p_compat = compatible / population
        min_expected_edges = max(8.0, 4.0 * target_m, min(0.7 / p_compat, 0.5 * population))
    try:
        result = construct(
            r + 1,
            t,
            t * r,
            q,
            seed=seed,
            max_retries=max_retries,
            min_yield=target_m,
            min_expected_edges=min_expected_edges,
            budget=budget,
        )
    except RetriesExhausted as exc:
        raise InsufficientYield(
            f"construction yielded at most {exc.best_yield} < target_m={target_m} blocks"
        ) from exc
    edges = result.hypergraph.edges[:target_m]
    spec = LrcSpec(
        q=q, r=r, d=d, a_list=tuple(tuple(x - 1 for x in edge) for edge in edges)
    )
    report = check_equivalence(spec, budget=budget)
    if not (report.optimal and report.free):
        raise CertificationFailed(f"certification failed: {report.to_report()}")
    return spec
