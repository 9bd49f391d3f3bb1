"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way on purpose: plain sets,
full enumeration, no pruning, no bitmasks.  The package under test must
agree with these on small instances.
"""

import itertools
import math
import random
from fractions import Fraction


def span(edges, indices):
    """Size of the union of the selected edges, by naive set merge."""
    seen = set()
    for k in indices:
        seen.update(edges[k])
    return len(seen)


def is_free(edges, e, v):
    """True iff every e distinct edges (by index) span more than v vertices."""
    if len(edges) < e:
        return True
    for combo in itertools.combinations(range(len(edges)), e):
        if span(edges, combo) <= v:
            return False
    return True


def violations(edges, size, max_span):
    """All size-subsets of edge indices spanning at most max_span vertices."""
    out = []
    for combo in itertools.combinations(range(len(edges)), size):
        if span(edges, combo) <= max_span:
            out.append(combo)
    return out


def has_berge_cycle(edges, t):
    """Literal definition: distinct edges A_1..A_t and distinct vertices
    v_1..v_t with v_i in A_i and A_{i+1} (cyclically).  t=2 means two
    distinct edges sharing at least two vertices."""
    m = len(edges)
    if m < t:
        return False
    if t == 2:
        for a, b in itertools.combinations(range(m), 2):
            if len(set(edges[a]) & set(edges[b])) >= 2:
                return True
        return False
    for edge_seq in itertools.permutations(range(m), t):
        pools = []
        for i in range(t):
            shared = set(edges[edge_seq[i]]) & set(edges[edge_seq[(i + 1) % t]])
            pools.append(sorted(shared))
        for verts in itertools.product(*pools):
            if len(set(verts)) == t:
                return True
    return False


def berge_girth(edges, t_max):
    """Smallest t in 2..t_max with a Berge t-cycle, else None."""
    for t in range(2, t_max + 1):
        if has_berge_cycle(edges, t):
            return t
    return None


def has_sdr(sets):
    """Brute-force system of distinct representatives."""
    if not sets:
        return True
    for choice in itertools.product(*[sorted(s) for s in sets]):
        if len(set(choice)) == len(sets):
            return True
    return False


def sdr_all_subsets(edges, e):
    """True iff every subset of at most e edges admits an SDR."""
    m = len(edges)
    for size in range(1, min(e, m) + 1):
        for combo in itertools.combinations(range(m), size):
            if not has_sdr([set(edges[k]) for k in combo]):
                return False
    return True


def is_ipps(edges, n, r, t):
    """Literal parent-identifying condition.

    For every r-subset X of 1..n, gather every cover (a set of at most t
    edge indices whose union contains X); if covers exist, they must all
    share a common edge index.
    """
    m = len(edges)
    vertex_sets = [set(e) for e in edges]
    for x in itertools.combinations(range(1, n + 1), r):
        need = set(x)
        covers = []
        for size in range(1, t + 1):
            for combo in itertools.combinations(range(m), size):
                merged = set()
                for k in combo:
                    merged |= vertex_sets[k]
                if need <= merged:
                    covers.append(set(combo))
        if covers:
            common = set.intersection(*covers)
            if not common:
                return False
    return True


def rank_mod(rows, q):
    """Row rank over the prime field F_q, by fraction-free elimination."""
    mat = [list(row) for row in rows]
    if not mat:
        return 0
    cols = len(mat[0])
    rank = 0
    for c in range(cols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][c] % q:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][c], -1, q)
        mat[rank] = [(x * inv) % q for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] % q:
                factor = mat[i][c]
                mat[i] = [(a - factor * b) % q for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def min_dependent_columns(rows, q, max_size=None):
    """Smallest number of columns of the matrix that are linearly dependent
    over F_q, by exhaustive ascending-size search.  None if all independent
    up to max_size."""
    if not rows:
        return None
    cols = len(rows[0])
    hi = cols if max_size is None else min(max_size, cols)
    column = [[row[c] for row in rows] for c in range(cols)]
    for size in range(1, hi + 1):
        for combo in itertools.combinations(range(cols), size):
            sub = [[column[c][i] for c in combo] for i in range(len(rows))]
            if rank_mod(sub, q) < size:
                return size
    return None


def min_distance_leaves(rows, q):
    """Column subsets an exhaustive distance search examines: sizes
    ascending, each size in lexicographic order, up to and including the
    first dependent subset (every subset when all columns are
    independent)."""
    cols = len(rows[0])
    column = [[row[c] for row in rows] for c in range(cols)]
    leaves = 0
    for size in range(1, cols + 1):
        for combo in itertools.combinations(range(cols), size):
            leaves += 1
            sub = [[column[c][i] for c in combo] for i in range(len(rows))]
            if rank_mod(sub, q) < size:
                return leaves
    return leaves


def code_min_weight(parity_rows, q):
    """Minimum Hamming weight of the code {x : Hx = 0} over F_q, by full
    codeword enumeration.  Only usable when q**k is tiny."""
    n = len(parity_rows[0]) if parity_rows else 0
    free_cols, basis = _null_space(parity_rows, q, n)
    k = len(basis)
    assert q**k <= 500_000, "oracle only enumerates tiny codes"
    best = None
    for coeffs in itertools.product(range(q), repeat=k):
        if not any(coeffs):
            continue
        word = [0] * n
        for c, vec in zip(coeffs, basis):
            if c:
                for j in range(n):
                    word[j] = (word[j] + c * vec[j]) % q
        weight = sum(1 for x in word if x)
        if best is None or weight < best:
            best = weight
    return best


def _null_space(rows, q, n):
    """Basis of the right null space of the matrix over F_q."""
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for c in range(n):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][c] % q:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][c], -1, q)
        mat[rank] = [(x * inv) % q for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] % q:
                factor = mat[i][c]
                mat[i] = [(a - factor * b) % q for a, b in zip(mat[i], mat[rank])]
        pivots.append(c)
        rank += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-mat[i][fc]) % q
        basis.append(vec)
    return free, basis


def window_bound(r, e, v):
    """The admissible epsilon window, straight from the two bracket terms.

    For each level i the ceiling offset g = (i-1)(er-v)/(e-1) sits strictly
    between f(i)-1 and f(i); the window is the tighter of the two slack
    terms scaled by the exponents that multiply epsilon on each side.
    """
    best = None
    for i in range(2, e):
        g = Fraction((i - 1) * (e * r - v), e - 1)
        f_i = -((-(i - 1) * (e * r - v)) // (e - 1))
        lo = Fraction(f_i - g, i - 1)
        hi = Fraction(g + 1 - f_i, 2 * e - i - 1)
        for term in (lo, hi):
            if best is None or term < best:
                best = term
    return best


def alteration_removals(edges, e, v, level_spans, extra_targets=()):
    """The alteration rule written out plainly, as the removed edges in
    order.  level_spans maps each level i to i*r - f(i).  Per level: remove
    the last edge of each still-intact i-subset spanning <= level_spans[i];
    then, over pairs of current bad e-systems (span <= v) sharing exactly i
    edges whose shared edges span more than level_spans[i], in
    lexicographic order, remove the largest edge of each still-intact
    pair.  Extra targets (v_j, e_j) go last like a level."""
    dead = set()
    removed = []

    def kill(k):
        dead.add(k)
        removed.append(edges[k])

    def intact(combo):
        return not dead.intersection(combo)

    def sweep(size, max_span):
        cur = [k for k in range(len(edges)) if k not in dead]
        for combo in itertools.combinations(cur, size):
            if span(edges, combo) <= max_span and intact(combo):
                kill(combo[-1])

    for i in sorted(level_spans):
        sweep(i, level_spans[i])
        cur = [k for k in range(len(edges)) if k not in dead]
        bad = [c for c in itertools.combinations(cur, e) if span(edges, c) <= v]
        pairs = sorted(
            (s1, s2)
            for s1, s2 in itertools.combinations(bad, 2)
            if len(set(s1) & set(s2)) == i
            and span(edges, sorted(set(s1) & set(s2))) > level_spans[i]
        )
        for s1, s2 in pairs:
            if intact(s1) and intact(s2):
                kill(max(set(s1) | set(s2)))
    for v_j, e_j in extra_targets:
        sweep(e_j, v_j)
    return removed


def greedy_exchange(num_vertices, aux_edges, seed):
    """The independent-set stage written out plainly, scanning every vertex
    in the exchange pass.  For each seeded shuffle: keep each vertex in
    order unless it completes an aux edge among the kept ones; then for
    each member w, ascending, list the first 256 non-members that fit
    without w and swap w for the first two of them (in lexicographic pair
    order) that fit together.  Returns the first result reaching the greedy
    floor ceil(nv / (1 + average degree)), or None, and the number of swaps
    after which some non-member fits next to every member."""
    containing = {u: [] for u in range(num_vertices)}
    for s in aux_edges:
        for u in s:
            containing[u].append(set(s) - {u})

    def fits(kept, u):
        return all(not others <= kept for others in containing[u])

    degree = len(aux_edges[0]) * len(aux_edges) / num_vertices if aux_edges else 0.0
    floor = math.ceil(num_vertices / (1.0 + degree))
    best = set()
    swaps_leaving_free = 0
    for attempt in range(8):
        order = list(range(num_vertices))
        random.Random(seed + (attempt << 32)).shuffle(order)
        kept = set()
        for u in order:
            if fits(kept, u):
                kept.add(u)
        for w in sorted(kept):
            base = kept - {w}
            gains = [u for u in range(num_vertices) if u not in kept and fits(base, u)][:256]
            for u, x in itertools.combinations(gains, 2):
                if fits(base | {u}, x):
                    kept = base | {u, x}
                    swaps_leaving_free += any(
                        fits(kept, y) for y in range(num_vertices) if y not in kept
                    )
                    break
        if len(kept) > len(best):
            best = kept
        if len(best) >= floor:
            return tuple(sorted(best)), swaps_leaving_free
    return None, swaps_leaving_free


def unrank_combination(idx, n, r):
    """The idx-th r-subset of 1..n in lexicographic order (0-based rank),
    by skipping whole blocks of subsets with a common first vertex."""
    edge = []
    x = 1
    for k in range(r, 0, -1):
        while math.comb(n - x, k - 1) <= idx:
            idx -= math.comb(n - x, k - 1)
            x += 1
        edge.append(x)
        x += 1
    return tuple(edge)
