"""Locally recoverable codes with optimal minimum distance.

The code on n = m(r+1) symbols is cut out by one all-ones parity per block
of r+1 coordinates (the locality mechanism: any symbol is recovered from
the r others in its block) plus d-2 Vandermonde parities evaluated at the
block's support A_i inside a prime field.  Optimality, meaning the
Singleton-type bound d = n - k - ceil(k/r) + 2 is met, is equivalent to a
span condition on the family {A_i}: no i blocks inside i*r points, for
every i up to floor((d-1)/2) (Guruswami, Xing and Yuan, "How long can
optimal locally repairable codes be?", IEEE Trans. Inf. Theory, 2019).
Both sides are computed exactly; rank and minimum distance by the one
fraction-free elimination step _eliminate.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
from .freeness import ConstraintProfile, FreenessConstraint, Verdict, _colex_unrank, check_profile
from .hypergraph import Hypergraph, canonicalize

# default cap on the work of a min_distance search and of a builder run
DEFAULT_BUDGET = 5 * 10**6

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin, exact for q < 2**64 (its first strong
    pseudoprime to these bases is above 3 * 10**23)."""
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
        if self.q >= 1 << 64:
            raise BadRange(f"field size {self.q} is not below 2**64, where primality is decided exactly")
        if not is_prime(self.q):
            raise BadRange(f"{self.q} is not prime")


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

    @cached_property
    def _basis(self) -> np.ndarray:
        """_row_basis(self), read-only: one column walk per matrix gives
        its rank and the rows min_distance starts from."""
        basis = _row_basis(self)
        basis.flags.writeable = False
        return basis


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


def _eliminate(x: np.ndarray, q: int, out: np.ndarray) -> None:
    """Contract column 0 of x, an array (rows, columns, states) in the work
    dtype that the caller owns, with column 0 nonzero in every state: the
    later columns of each state reduced against it, one row fewer, are
    written to out, of shape (rows - 1, columns - 1, states) in any integer
    dtype that holds a residue (the work dtype, or the search's storage
    dtype, so that a step writes its states straight where they are kept).

    Row operations keep a state's column dependencies, so x[0] first takes
    on later rows until its entry p in column 0 is nonzero: row i is added
    to all of x[0], times 1 in the states whose pivot is still zero and 0
    in the rest, and reduced mod q in place, so the other states' residues
    come back unchanged and no state is gathered by a mask (a sum of two
    residues fits every work dtype).  On return x[0] is the pivot row and
    the later rows of x are unchanged.  Each later row y then becomes
    p*y - y_0*x[0], p times the usual reduction (scaling keeps the
    dependencies too, and needs no inverse).  Besides that product, one
    temporary of its size holds y_0*x[0] and then q times the quotient,
    and the remainder goes straight into out.  Nothing here copies x.
    """
    row0 = x[0]
    for i in range(1, len(x)):
        if np.count_nonzero(row0[0]) == row0.shape[1]:
            break
        row0 += x[i] * (row0[0] == 0)
        row0 -= row0 // q * q
    e = row0[:1] * x[1:, 1:]
    t = x[1:, :1] * row0[1:]
    e -= t
    # e mod q, but numpy divides faster than it takes remainders
    np.floor_divide(e, q, out=t)
    t *= q
    np.subtract(e, t, out=out, casting="unsafe")


def _row_basis(m: FqMatrix) -> np.ndarray:
    """Rank-many rows with the row space of m, in the work dtype: a column
    walk with _eliminate keeps the pivot row of each nonzero column,
    zero-padded to full width, and skips each zero column."""
    q = m.field.q
    x = np.array(m.entries, dtype=_work_dtype(q)).reshape(m.rows, m.cols, 1)
    basis = np.zeros((min(m.rows, m.cols), m.cols), x.dtype)
    r = 0
    for c in range(m.cols):
        if np.count_nonzero(x[:, 0]):
            rest = np.empty((len(x) - 1, x.shape[1] - 1, 1), x.dtype)
            _eliminate(x, q, rest)
            basis[r, c:] = x[0, :, 0]
            x, r = rest, r + 1
        else:
            x = x[:, 1:]
    return basis[:r]


def rank(m: FqMatrix) -> int:
    """Rank over the prime field, by _row_basis."""
    return len(m._basis)


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
        if self.r < self.d - 1:
            flags.append("r < d - 1: outside the stated equivalence hypotheses")
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
            q, r, d = payload["q"], payload["r"], payload["d"]
            a_list = tuple(tuple(a) for a in payload["A"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"missing or malformed field: {exc}") from exc
        # no string, float or bool is read as an integer
        bad = [x for x in (q, r, d, *(x for a in a_list for x in a)) if type(x) is not int]
        if bad:
            raise ParseError(f"q, r, d and the block entries must be JSON integers, got {json.dumps(bad[0])}")
        return LrcSpec(q, r, d, a_list)


def parity_check(spec: LrcSpec) -> FqMatrix:
    """(m + d - 2) x n matrix: one all-ones row per block on top (locality:
    every column meets exactly one weight-(r+1) row), and below them row i,
    for i = 1..d-2, holds a ** i over the points a of every block in order.
    Exponents start at 1: a constant row would repeat the locality rows and
    collapse rank."""
    width = spec.r + 1
    top = []
    for b in range(spec.m):
        row = [0] * spec.n
        row[b * width : (b + 1) * width] = [1] * width
        top.append(row)
    points = [a for block in spec.a_list for a in block]
    bottom = [[pow(a, i, spec.q) for a in points] for i in range(1, spec.d - 1)]
    return fq_matrix(spec.field, top + bottom)


_FRONTIER_BYTES = 1 << 20
"""Cap on the bytes of stored search states, whatever the budget: a slab
runs when _slab_peak, the most its stored levels hold at once, fits.  The
temporaries of one elimination step take what the stored states leave of
twice the cap, and the hit scan's chunks at most the cap.  1 MiB from a
measured sweep of 512 KiB to 2 MiB (README): 2 MiB was faster on the
benchmark but held 2.2 MiB more peak RSS."""


def _storage_dtype(q: int):
    """Narrowest type holding every residue mod q."""
    if q >= 2**31:
        return object
    return next(t for t in (np.uint8, np.uint16, np.uint32) if q - 1 <= np.iinfo(t).max)


def _lex_rank(subset: tuple[int, ...], n: int) -> int:
    """0-based rank of a sorted subset among the same-size subsets of
    0..n-1 in lexicographic order."""
    d = len(subset)
    return math.comb(n, d) - 1 - sum(math.comb(n - 1 - a, d - i) for i, a in enumerate(subset))


@lru_cache(maxsize=256)  # searches of one code repeat a few shapes
def _slab_peak(width: int, rank: int, levels: int) -> int:
    """Most entries _slab stores at once when it builds `levels` levels
    after a prefix state of rank rows and width columns and finds no set:
    _slab's own schedule, replayed from binomials, with keys shifted so
    that the first column is 0 (the prefix is keyed -1).  Child c of
    level j + 1 holds C(c, j) states of rank - j - 1 rows and width - 1 - c
    columns; children are allocated in descending c, each after the parent
    groups of key >= c are freed, and a level's first group is freed after
    its last child.  Only the allocations count, as in _slab's peak."""
    parents = [(-1, rank * width)]  # (key, entries) of level j, by key
    held = rank * width
    peak = 0
    for j in range(levels):
        children = []
        for c in reversed(range(parents[0][0] + 1, width - 1)):
            while parents[-1][0] >= c:
                held -= parents.pop()[1]
            children.append((c, (rank - j - 1) * (width - 1 - c) * math.comb(c, j)))
            held += children[-1][1]
            peak = max(peak, held)
        if not children:
            break
        held -= parents[0][1]
        parents = children[::-1]
    return peak


class _ColumnSearch:
    """The lex-first smallest dependent set of columns of a full-row-rank
    matrix, found level by level; `hit` is that set, or None when no set
    of at most max_size columns is dependent.

    A state is an independent column set S stored as the columns after
    max(S), reduced against span(S): one row fewer per column of S, since
    each elimination drops its pivot row.  A zero column in a state is a
    dependent set one larger.  Level j of a slab holds every independent
    set P + T with |T| = j and min(T) >= lo, one array (rows, columns,
    states) per group of equal max(T), states in colex order of T.  Every
    group of a level is checked for zero columns before any child is
    built, so no set is ever dropped: group c of level j + 1 is every
    state of the groups l < c in order, C(c - lo, j) of them, and takes
    from each the columns from c on (all of width n - c).  One batched
    rank-1 update per batch of them extends these states by column c, for
    c < n - 1 only: a state of max(T) = n - 1 keeps no column.  A batch
    takes as many states as the stored levels leave room for in twice
    _FRONTIER_BYTES, so that few, long updates build a level, and is
    gathered by one concatenation of the parent groups it overlaps (a
    group's states start in the child where the groups below it end).
    _eliminate writes each batch straight into its slice of the child, in
    the storage dtype, so no state is copied after it is reduced.  Each
    child is tested for a zero column as soon as it is built, on what it
    stores, so the next level scans only the groups found to hold one (and
    the prefix's own level), in ascending max(T), and reads the lex-first
    dependent set off the first zero column of each such state by colex
    unranking, up to the first group that cannot hold a smaller set.
    States run along the last axis so that numpy's inner loops are long.

    The search runs once, from the empty prefix.  A prefix whose slab
    would store more than _FRONTIER_BYTES at once (_peak) is split by its
    next column: P + (f,) is searched on its own, and the rest from f + 1
    on.  Slabs run in lex order, each searching only below the best size
    found so far, so the first set found at the final size is also the
    lex-first one.
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
        self.best = max_size + 1  # only sets smaller than this are searched
        self._prefix((), rows.astype(self.dtype), 0)

    def _found(self, subset: tuple[int, ...]) -> None:
        self.best = len(subset)
        self.hit = subset

    def _peak(self, base: int, rank: int, lo: int) -> int:
        """Most bytes of stored levels that _slab holds at once for a prefix
        of length base, rank rows left and first columns from lo on: the
        peak it reaches when it finds no set, and a bound when it does.
        The last level searched, base + j + 1 = best - 1, is never stored."""
        return _slab_peak(self.n - lo, rank, self.best - base - 2) * self.entry_bytes

    def _prefix(self, prefix: tuple[int, ...], state: np.ndarray, lo: int) -> None:
        """Search prefix + T for every nonempty T with min(T) >= lo, in lex
        order; state holds columns lo.. reduced against span(prefix)."""
        base, rank = len(prefix), state.shape[0]
        for f in range(lo, self.n):
            if base + 1 >= self.best:
                return
            if self._peak(base, rank, f) <= _FRONTIER_BYTES:
                self._slab(prefix, state[:, f - lo :], f)
                return
            if not np.count_nonzero(state[:, f - lo]):
                self._found(prefix + (f,))
            elif f < self.n - 1:  # P + (n - 1,) keeps no column to search
                child = np.empty((rank - 1, self.n - 1 - f, 1), self.dtype)
                _eliminate(state[:, f - lo :, None].astype(self.work), self.q, child)
                self._prefix(prefix + (f,), child[:, :, 0], f + 1)

    def _slab(self, prefix, state, lo: int) -> None:
        """Every prefix + T with min(T) >= lo, below the best size, level
        by level; state holds columns lo.. reduced against span(prefix).
        Groups are keyed by max(T); level 0 is the prefix itself, keyed
        lo - 1."""
        n, base = self.n, len(prefix)
        groups = [(lo - 1, state[:, :, None])]  # (max(T), states), by key
        clear: set[int] = set()  # groups that hold no zero column
        held = state.size  # entries of the stored levels
        j = 0
        while groups and base + j + 1 < self.best:
            # zero columns of the whole level before any child is built
            hit = self._first_zero(lo, j, groups, clear)
            if hit is not None:
                self._found(prefix + hit)
                return
            if base + j + 2 == self.best:
                return  # the last level searched is never stored
            height = len(state) - j  # rows of each parent state
            # every child takes the groups below it whole, in key order, so
            # group l ends at state C(l + 1 - lo, j) of each, after the
            # j-sets with max(T) <= l (hockey stick)
            ends = [math.comb(l + 1 - lo, j) for l, _ in groups]
            parents = [(l, x, t - x.shape[2], t) for (l, x), t in zip(groups, ends)]
            groups, clear = [], set()
            # descending c, so each parent group is freed after its last
            # child; no child at c = n - 1, which would keep no column
            for c in reversed(range(parents[0][0] + 1, n - 1)):
                while parents[-1][0] >= c:
                    held -= parents.pop()[1].size
                total = math.comb(c - lo, j)
                child = np.empty((height - 1, n - 1 - c, total), self.dtype)
                held += child.size
                self.peak = max(self.peak, held * self.entry_bytes)
                # the parents' columns from c on, width n - c each, gathered
                # in batches of at most step states, in what the stored
                # levels leave of twice the cap.  The step is sized for four
                # arrays of a batch's size; three live at once, the batch and
                # _eliminate's two temporaries, as each batch is eliminated
                # straight into its slice of the child.  The pivot fix's
                # temporaries are one row each, as is the zero-column test's
                per_state = np.dtype(self.work).itemsize * max(1, height * (n - c))
                step = max(1, (2 * _FRONTIER_BYTES - held * self.entry_bytes) // (4 * per_state))
                for at in range(0, total, step):
                    end = min(at + step, total)
                    # a new array even for one piece: _eliminate overwrites x[0]
                    x = np.concatenate(
                        [g[:, c - l - 1 :, max(at - s, 0) : end - s] for l, g, s, t in parents if s < end and at < t],
                        axis=2,
                        dtype=self.work,
                    )
                    _eliminate(x, self.q, child[:, :, at:end])
                    del x  # freed before the next batch is gathered
                groups.append((c, child))
                # a child with no rows has every column zero: not clear
                if height > 1:
                    top = np.maximum.reduce(child, axis=0)
                    if np.count_nonzero(top) == top.size:
                        clear.add(c)
            held -= sum(x.size for _, x, _, _ in parents)
            del parents  # frees the first group, which every child took
            groups.reverse()
            j += 1

    def _first_zero(self, lo: int, j: int, groups, clear) -> tuple[int, ...] | None:
        """The lex-first set T + {c} of level j whose state has a zero
        column c, or None.  Groups not in clear are scanned in ascending
        max(T) = l.  The least set group l can hold, (lo, ..., lo + j - 2,
        l, l + 1), grows with l, so the scan stops at the first group whose
        least set is not below the best found (level 0 is one group).  A
        group's states are tested in chunks that need at most
        _FRONTIER_BYTES of temporaries, by one max over the rows, and the
        first zero column of each state that has one (its lex-first set) is
        unranked with the chunk's other hits."""
        best = None
        for l, x in groups:
            if best is not None and (*range(lo, lo + j - 1), l, l + 1) >= best:
                break
            if l in clear:
                continue
            step = max(1, _FRONTIER_BYTES // (16 * (x.shape[1] + j + 2)))
            for at in range(0, x.shape[2], step):
                # initial=0 answers a state of no rows: every column is zero
                zero = np.maximum.reduce(x[:, :, at : at + step], axis=0, initial=0) == 0
                idx = np.flatnonzero(zero.any(axis=0))
                if len(idx):
                    sets = self._unrank(lo, j, l, l + 1 + zero[:, idx].argmax(axis=0), at + idx)
                    for k in range(sets.shape[1]):
                        sets = sets[sets[:, k] == sets[:, k].min()]
                    found = tuple(int(a) for a in sets[0])
                    best = found if best is None else min(best, found)
        return best

    @staticmethod
    def _unrank(lo: int, j: int, l, cs, idx) -> np.ndarray:
        """The sets T + {c}, one row each, for states idx of groups l (one
        key, or one per state) at level j with zero column c.  T is l plus
        the (j - 1)-subset of lo..l-1 with colex rank idx, read off by
        `_colex_unrank`, which reads the same subset off any larger range."""
        l = np.broadcast_to(l, np.shape(idx))
        head = [lo + _colex_unrank(idx, j - 1, int(l.max()) - lo), l[:, None]] if j else []
        return np.hstack([*head, cs[:, None]])


class _Distance(int):
    """min_distance's result: the distance, which also names the lex-first
    smallest dependent set of columns (0-based) it counts, so that
    check_optimal reports the set without a second search."""

    columns: tuple[int, ...]

    def __new__(cls, columns: tuple[int, ...]):
        distance = super().__new__(cls, len(columns))
        distance.columns = columns
        return distance


def min_distance(m: FqMatrix, budget: int = DEFAULT_BUDGET) -> int:
    """Smallest number of linearly dependent columns, as a _Distance.

    The search runs once, in lex-ordered slabs, each level by level (see
    _ColumnSearch): a zero column is a dependent set, and the independent
    sets of one size are extended one new column at a time, all sets
    ending before it together.  The budget meters the same work as an
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
    rows = m._basis
    if not len(rows):
        return _Distance((0,))  # zero matrix: every single column is dependent
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
            return _Distance(hit)
    elif over is None:
        raise NotACode("all columns independent: the code is trivial")
    raise BudgetExceeded(
        f"column search exhausted budget at subset size {over}; "
        f"distance exceeds {over - 1}",
        checked_up_to=over - 1,
    )


def singleton_bound(n: int, k: int, r: int) -> int:
    return n - k - math.ceil(k / r) + 2


def check_optimal(spec: LrcSpec, *, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Does the actual minimum distance meet n - k - ceil(k/r) + 2?

    The verdict's spanned field carries the actual distance; the witness
    carries (k, bound, d_actual) for reporting.
    """
    return _check_optimal(spec, budget)[0]


def _check_optimal(spec: LrcSpec, budget: int) -> tuple[Verdict, tuple[int, ...]]:
    """check_optimal's verdict, and the dependent columns whose count is
    the actual distance."""
    h = parity_check(spec)
    k = spec.n - rank(h)
    if k <= 0:
        raise NotACode(f"dimension {k}; the parity checks leave no message space")
    distance = min_distance(h, budget=budget)
    d_actual = int(distance)
    bound = singleton_bound(spec.n, k, spec.r)
    verdict = Verdict(
        holds=d_actual == bound,
        witness=(k, bound, d_actual),
        spanned=d_actual,
        flags=spec.hypothesis_flags,
    )
    return verdict, distance.columns


def block_hypergraph(spec: LrcSpec) -> Hypergraph:
    """The blocks as an (r+1)-graph on the field elements, 1-based."""
    edges = [[x + 1 for x in a] for a in spec.a_list]
    return canonicalize(edges, spec.q, multi=True, r=spec.r + 1)


def freeness_profile(spec: LrcSpec) -> ConstraintProfile:
    t = (spec.d - 1) // 2
    return ConstraintProfile(tuple(FreenessConstraint(i, i * spec.r) for i in range(1, t + 1)))


@dataclass(frozen=True)
class EquivalenceReport:
    """Both sides of the optimality test: the code side (distance meets the
    bound) and the combinatorial side (blocks span-free at every level).

    A side that fails carries its witness: columns, the lex-first
    d_actual dependent columns (0-based code coordinates), or blocks, the
    0-based indices into a_list of check_profile's lex-first blocks that
    span too few points.
    """

    optimal: bool
    free: bool
    k: int
    bound: int
    d_actual: int
    flags: tuple[str, ...]
    columns: tuple[int, ...] | None = None
    blocks: tuple[int, ...] | None = None

    @property
    def agree(self) -> bool:
        return self.optimal == self.free

    def to_report(self) -> dict:
        report = {
            "optimal": self.optimal,
            "free": self.free,
            "agree": self.agree,
            "k": self.k,
            "bound": self.bound,
            "d_actual": self.d_actual,
            "flags": list(self.flags),
        }
        if not (self.optimal and self.free):
            report["witness"] = {
                "columns": None if self.columns is None else list(self.columns),
                "blocks": None if self.blocks is None else list(self.blocks),
            }
        return report


def check_equivalence(spec: LrcSpec, *, budget: int = DEFAULT_BUDGET) -> EquivalenceReport:
    """Evaluate optimality and block freeness independently and report both.

    Inside the hypotheses d >= 11, r >= d - 1 the two sides must agree;
    outside them the report carries warning flags and makes no claim.
    """
    optimal, columns = _check_optimal(spec, budget)
    free = check_profile(block_hypergraph(spec), freeness_profile(spec), budget=budget)
    k, bound, d_actual = optimal.witness
    blocks = None
    if not free.holds:
        # the witness indexes the hypergraph's sorted edges; map back to a_list
        order = sorted(range(spec.m), key=lambda i: sorted(spec.a_list[i]))
        blocks = tuple(sorted(order[w] for w in free.witness))
    return EquivalenceReport(
        optimal=optimal.holds,
        free=free.holds,
        k=k,
        bound=bound,
        d_actual=d_actual,
        flags=spec.hypothesis_flags,
        columns=None if optimal.holds else columns,
        blocks=blocks,
    )


def serialize_fqm(m: FqMatrix) -> str:
    """`rows cols q` header, then row-major entries, one row per line."""
    lines = [f"{m.rows} {m.cols} {m.field.q}"]
    for row in m.entries:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def construct_lrc(
    q: int,
    r: int,
    d: int,
    target_m: int,
    seed: int = 0,
    *,
    budget: int = DEFAULT_BUDGET,
) -> LrcSpec:
    """Build an optimal code by constructing a span-free block family.

    Blocks are (r+1)-subsets of the field; the builder's target is t
    blocks inside t*r points with t = floor((d-1)/2), whose ladder covers
    every level of the freeness profile (gcd(t-1, t) = 1 always).  The
    sampling probability gets a floor making the expected sample workable
    at field size q, which the power law alone would not reach.
    """
    if d < 11 or r < d - 1:
        raise BadRange(f"need d >= 11 and r >= d - 1, got d={d}, r={r}")
    PrimeField(q)  # validates primality
    if target_m < 1:
        raise BadRange(f"need target_m >= 1, got {target_m}")
    if q < r + 2:
        raise BadRange(f"field too small: need q >= r + 2 = {r + 2}")
    width = r + 1
    # pairwise overlaps <= 1 force m(r+1) - C(m,2) distinct points at most q
    needed = target_m * width - target_m * (target_m - 1) // 2
    if needed > q:
        raise InsufficientYield(
            f"{target_m} blocks of size {width} overlapping pairwise in at most "
            f"one point need {needed} > q = {q} field elements"
        )
    # and put each pair of points in at most one block
    pairs = target_m * math.comb(width, 2)
    if pairs > math.comb(q, 2):
        raise InsufficientYield(
            f"{target_m} blocks of size {width} overlapping pairwise in at most "
            f"one point cover {pairs} > C({q}, 2) = {math.comb(q, 2)} pairs of field elements"
        )
    population = math.comb(q, width)
    if population > 2**62:
        raise BadRange(f"C({q},{width}) candidate blocks exceed the sampler's limit of 2**62")
    t = (d - 1) // 2
    # the first surviving block is the lexicographically first sample;
    # each further sample survives the overlap sweep with probability
    # p_compat = P(two random (r+1)-subsets of F_q share <= 1 point),
    # so the sample floor scales with 1/p_compat at tight fields
    compatible = math.comb(q - width, width) + width * math.comb(q - width, r)
    # at q <= 2r no two blocks are compatible, so only one can survive
    p_compat = compatible / population
    tight = min(0.7 / p_compat, 0.5 * population) if p_compat else 0.0
    try:
        result = construct(
            r + 1,
            t,
            t * r,
            q,
            seed=seed,
            min_yield=target_m,
            min_expected_edges=max(8.0, 4.0 * target_m, tight),
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
    # the free side is the builder's certificate: its ladder rungs
    # (i, i*(r+1) - f(i)) are freeness_profile's (i, i*r) for 2 <= i <= t,
    # rung 1 holds for any block, and a subfamily of a free family is free
    verdict = check_optimal(spec, budget=budget)
    if not verdict.holds:
        raise CertificationFailed(f"certification failed: (k, bound, d_actual) = {verdict.witness}")
    return spec
