"""Independent brute-force oracles and random-input generators.

Nothing in here calls back into the library's computational paths: the
characteristic polynomial is built by Faddeev-LeVerrier over exact
rationals, cokernel structure is recovered by explicit coset enumeration
with membership decided through a rational inverse, and group structure is
read off p-power torsion counts.  These are the reference values the fast
implementations are checked against.  ``smith_normal_form_dense`` is the
one Smith normal form reference: a dense-row elimination that logs its
row and column steps, and ``_replay`` rebuilds U and V^T from those logs
step by step, so the library's sparse elimination is checked on S, both
logs, U and V.  ``signature_fraction`` is an exact rational elimination
on dense rows from the highest index down, with 2x2 pivots for a zero
diagonal, and ``kernel_mod2_dense`` the Gauss-Jordan elimination over all
n columns, as the references for the library's sparse signature and its
mod-2 kernel.  Both take an ``IntMatrix`` and read only its dense
entries, apart from the symmetry check the signature starts with.
``recognize_dynkin_by_shape`` names an A-D-E diagram by walking its
degrees, forks and arms, the reference for recognition by sigma and H^2.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from linkimm.errors import NotSymmetric
from linkimm.plumbing import DynkinLabel

# The table sweep: A and D for n = 2..50, plus E6, E7 and E8 (101 labels)
SWEEP_LABELS = (
    [DynkinLabel("A", n) for n in range(2, 51)]
    + [DynkinLabel("D", n) for n in range(2, 51)]
    + [DynkinLabel("E", k) for k in (6, 7, 8)]
)


# ---------------------------------------------------------------------------
# exact characteristic polynomial and Descartes root counting


def char_poly(rows):
    """Coefficients [1, c1, ..., cn] of det(xI - A) via Faddeev-LeVerrier."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]

    def mat_mul(p, q):
        return [[sum(p[i][t] * q[t][j] for t in range(n)) for j in range(n)] for i in range(n)]

    m = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        ck = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(ck)
        m = [[am[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def _sign_changes(seq):
    signs = [1 if c > 0 else -1 for c in seq if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def signature_by_root_count(rows):
    """Signature of a symmetric matrix from its characteristic polynomial.

    All eigenvalues are real, so Descartes' rule is exact: the number of
    positive (resp. negative) roots equals the sign-change count of p(x)
    (resp. p(-x)), with multiplicity.
    """
    coeffs = char_poly(rows)
    n = len(rows)
    pos = _sign_changes(coeffs)
    neg = _sign_changes([c if (n - k) % 2 == 0 else -c for k, c in enumerate(coeffs)])
    return pos - neg


# ---------------------------------------------------------------------------
# rational linear algebra for coset membership


def rational_inverse(rows):
    """Inverse of a nonsingular integer matrix over Q (list of Fraction rows)."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class CosetGroup:
    """Z^n / A Z^n for nonsingular square A, materialized element by element.

    Membership in the image lattice is decided by integrality of A^{-1} x,
    which only uses rational Gaussian elimination; the group is then grown
    by breadth-first search over the standard generators.
    """

    def __init__(self, rows):
        self.n = len(rows)
        self.inv = rational_inverse(rows)
        self.reps = [(0,) * self.n]
        frontier = [(0,) * self.n]
        while frontier:
            new = []
            for v in frontier:
                for k in range(self.n):
                    w = tuple(x + (1 if i == k else 0) for i, x in enumerate(v))
                    if not any(self._in_image_diff(w, r) for r in self.reps):
                        self.reps.append(w)
                        new.append(w)
            frontier = new

    def _in_image_diff(self, x, y):
        d = [a - b for a, b in zip(x, y)]
        for row in self.inv:
            s = sum(c * v for c, v in zip(row, d))
            if s.denominator != 1:
                return False
        return True

    def in_image(self, x):
        return self._in_image_diff(x, (0,) * self.n)

    def same_class(self, x, y):
        return self._in_image_diff(x, y)

    @property
    def order(self):
        return len(self.reps)

    def torsion_count(self, m):
        """Number of classes killed by multiplication by m."""
        return sum(1 for r in self.reps if self.in_image(tuple(m * x for x in r)))

    def invariant_factors(self):
        """Invariant factors of the group from p-power torsion counts.

        For each prime p | order, t_k = log_p #{x : p^k x = 0} increases by
        the number of cyclic p-factors of exponent >= k; the conjugate
        partition gives the p-exponents, and aligning largest-with-largest
        across primes rebuilds the divisibility chain.
        """
        order = self.order
        if order == 1:
            return ()
        exps = {}
        for p in _prime_factors(order):
            counts_ge = []
            prev = 0
            k = 1
            while True:
                c = self.torsion_count(p ** k)
                tk = _plog(c, p)
                if tk == prev:
                    break
                counts_ge.append(tk - prev)
                prev = tk
                k += 1
            parts = []
            for idx in range(counts_ge[0] if counts_ge else 0):
                parts.append(sum(1 for c in counts_ge if c > idx))
            exps[p] = sorted(parts, reverse=True)
        width = max(len(v) for v in exps.values())
        factors = []
        for slot in range(width):
            d = 1
            for p, es in exps.items():
                if slot < len(es):
                    d *= p ** es[slot]
            factors.append(d)
        return tuple(sorted(factors))


def _plog(value, p):
    out = 0
    while value % p == 0 and value > 1:
        value //= p
        out += 1
    if value != 1:
        raise ValueError(f"{value} is not a power of {p}")
    return out


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense Smith normal form: the reference for the library's sparse one


def _xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    g, r = a, b
    while r:
        q = g // r
        g, r = r, g - q * r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if g < 0:
        g, x0, y0 = -g, -x0, -y0
    return g, x0, y0


def _find_min_pivot(m, t, nr, nc):
    """Position of a minimal-magnitude nonzero entry of m[t:, t:], or None."""
    best = None
    best_abs = None
    for i in range(t, nr):
        row = m[i]
        for j in range(t, nc):
            e = row[j]
            if e:
                a = -e if e < 0 else e
                if best_abs is None or a < best_abs:
                    best, best_abs = (i, j), a
                    if a == 1:
                        return best
    return best


def _row_axpy(m, i, k, c):
    """row_i += c * row_k (skipping zero source entries)."""
    ri, rk = m[i], m[k]
    for j, e in enumerate(rk):
        if e:
            ri[j] += c * e


def _replay(n: int, steps) -> list:
    """Rows of the n x n identity after the logged row steps, in order.

    A step is ``(op, i, j, c)``: "swap" rows i and j; "axpy" row_i += c *
    row_j; "neg" negates row i; "combine" replaces rows i and j by
    (x row_i + y row_j, p row_i + q row_j) for c = (x, y, p, q).
    """
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for op, i, j, c in steps:
        if op == "axpy":
            _row_axpy(m, i, j, c)
        elif op == "swap":
            m[i], m[j] = m[j], m[i]
        elif op == "neg":
            m[i] = [-e for e in m[i]]
        else:
            x, y, p, q = c
            ri, rj = m[i], m[j]
            m[i] = [x * e + y * f for e, f in zip(ri, rj)]
            m[j] = [p * e + q * f for e, f in zip(ri, rj)]
    return m


def smith_normal_form_dense(rows, nc):
    """(S as row lists, row step log, column step log) by dense elimination.

    The library's pivot rule on dense rows: every step walks whole rows,
    and a column swap touches every row.  The sparse elimination must log
    the same steps in the same order and end with the same S.
    ``_replay(len(rows), row_steps)`` rebuilds U and ``_replay(nc,
    col_steps)`` rebuilds V^T, which the library's U and V must equal.
    ``nc`` gives the column count of a matrix with no rows.
    """
    nr = len(rows)
    m = [list(r) for r in rows]
    # Row steps act on U, column steps on V; a column step on V is logged
    # as the same row step on V^T.
    row_steps, col_steps = [], []

    t = 0
    limit = min(nr, nc)
    while t < limit:
        pos = _find_min_pivot(m, t, nr, nc)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                m[t], m[i] = m[i], m[t]
                row_steps.append(("swap", t, i, None))
            if j != t:
                for row in m:
                    row[t], row[j] = row[j], row[t]
                col_steps.append(("swap", t, j, None))
            p = m[t][t]
            dirty = False
            for i in range(t + 1, nr):
                e = m[i][t]
                if e:
                    q = e // p
                    if q:
                        _row_axpy(m, i, t, -q)
                        row_steps.append(("axpy", i, t, -q))
                    if m[i][t]:
                        dirty = True
            if not dirty:
                # column t is p*e_t: col_j -= q*col_t changes m[t][j] alone
                mt = m[t]
                for j in range(t + 1, nc):
                    e = mt[j]
                    if e:
                        q = e // p
                        if q:
                            e -= q * p
                            mt[j] = e
                            col_steps.append(("axpy", j, t, -q))
                        if e:
                            dirty = True
            if not dirty:
                break
            pos = _find_min_pivot(m, t, nr, nc)
        t += 1

    # m is diagonal now; the remaining steps act on its diagonal d alone.
    d = [m[i][i] for i in range(limit)]
    for i, di in enumerate(d):
        if di < 0:
            d[i] = -di
            row_steps.append(("neg", i, i, None))

    # Divisibility chain: col_i += col_j, a 2x2 row combine and col_j -=
    # c*col_i turn diag(di, dj) into diag(g, di/g*dj), g = gcd(di, dj);
    # zero entries sink to the end (gcd(0, d) = d).
    changed = True
    while changed:
        changed = False
        for i in range(limit - 1):
            for j in range(i + 1, limit):
                di, dj = d[i], d[j]
                if di == 0 and dj == 0:
                    continue
                if di != 0 and dj % di == 0:
                    continue
                g, x, y = _xgcd(di, dj)
                col_steps.append(("axpy", i, j, 1))
                row_steps.append(("combine", i, j, (x, y, -(dj // g), di // g)))
                c = (y * dj) // g
                if c:
                    col_steps.append(("axpy", j, i, -c))
                d[i], d[j] = g, di // g * dj
                changed = True

    s = [[0] * nc for _ in range(nr)]
    for i, di in enumerate(d):
        s[i][i] = di
    return s, tuple(row_steps), tuple(col_steps)


# ---------------------------------------------------------------------------
# dense signature and dense mod-2 kernel: the references for the
# library's integer-only signature and its echelon-keyed kernel


def signature_fraction(a) -> int:
    """Signature of a symmetric integer matrix, by dense exact elimination, last index first.

    Row r of the remaining block is a dense list of integer numerators
    over one positive denominator, so every value is an exact rational
    and no ``Fraction`` is built.  The pivot is the highest remaining
    index k with a nonzero diagonal p: each remaining row r with an entry
    b in column k becomes p*num_r - b*num_k over p*den_r, and p
    contributes its sign.  When the remaining diagonal is all zero, the
    first entry A[i][j] != 0 of the remaining block, taken from the
    highest index down, gives the 2x2 pivot [[0, m], [m, 0]], one
    positive and one negative eigenvalue, and both rows go in one step.
    Each changed row is divided by the gcd of its denominator and
    numerators.  A zero remaining block ends the elimination: zero
    eigenvalues contribute nothing, so singular forms are fine.  Raises
    NotSymmetric otherwise.

    Going from the highest index down makes every pivot of a tree whose
    vertices are numbered parent first (a path, a star, a Dynkin diagram,
    the benchmark's trees) a leaf, so such a form has no fill.  The
    library's ``signature`` keeps sparse rows, takes its pivots by
    least fill from a heap and meets a zero diagonal with the congruence
    e_i -> e_i + e_j, so the two share neither the pivot order nor the
    zero-diagonal rule.
    """
    if not a.is_symmetric():
        raise NotSymmetric("signature requires a symmetric matrix")
    n = a.rows
    num = a.to_rows()
    den = [1] * n
    alive = list(range(n - 1, -1, -1))
    sigma = 0

    def update(r, row, scale):
        """Set row r to ``row`` over den[r] * scale, in lowest terms with a positive denominator."""
        d = den[r] * scale
        g = math.gcd(d, *row)
        if d < 0:
            g = -g
        den[r] = d // g
        num[r] = [x // g for x in row]

    while alive:
        k = next((k for k in alive if num[k][k]), None)
        if k is not None:
            alive.remove(k)
            nk = num[k]
            p = nk[k]
            sigma += 1 if p > 0 else -1
            for r in alive:
                b = num[r][k]
                if b:
                    update(r, [p * x - b * y for x, y in zip(num[r], nk)], p)
            continue
        pair = next(((i, j) for i in alive for j in alive if num[i][j]), None)
        if pair is None:
            break  # remaining block is zero
        # S_r = row_r - (A[r][j] row_i + A[r][i] row_j) / m with m = A[i][j];
        # mi and mj, the numerators of m in rows i and j, share its sign
        i, j = pair
        alive.remove(i)
        alive.remove(j)
        ni, nj = num[i], num[j]
        mi, mj = ni[j], nj[i]
        for r in alive:
            bi, bj = num[r][i], num[r][j]
            if bi or bj:
                row = [mi * mj * x - bi * mi * y - bj * mj * z for x, y, z in zip(num[r], nj, ni)]
                update(r, row, mi * mj)
    return sigma


def kernel_mod2_dense(a) -> list:
    """Basis of {x in Z_2^n : A x = 0 mod 2} for square A.

    Gaussian elimination over GF(2) with rows held as int bitmasks; the
    returned basis vectors are 0/1 tuples, one per free column.
    """
    if not a.is_square:
        raise ValueError("kernel_mod2 requires a square matrix")
    n = a.rows
    rows = []
    for row in a.to_rows():
        mask = 0
        for j, e in enumerate(row):
            if e & 1:
                mask |= 1 << j
        rows.append(mask)

    pivots = []
    r = 0
    for c in range(n):
        sel = next((i for i in range(r, n) if rows[i] >> c & 1), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(n):
            if i != r and rows[i] >> c & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1

    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        vec = [0] * n
        vec[f] = 1
        for idx, p in enumerate(pivots):
            vec[p] = rows[idx] >> f & 1
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# A-D-E diagrams by shape


def recognize_dynkin_by_shape(g):
    """The DynkinLabel of a plumbing graph read off its shape, or None.

    A match requires every weight -2, every edge sign +1, a tree shape,
    and either a path (type A) or a single trivalent vertex whose three
    arm lengths are (1, 1, m) for D or (1, 2, 2|3|4) for E_6/E_7/E_8: the
    classification of the simply-laced Dynkin diagrams, walked over
    degrees, forks and arm lengths, as the reference for the library's
    recognition by invariants of the form.
    """
    if any(w != -2 for _, w in g.vertices):
        return None
    if any(s != 1 for _, _, s in g.edges):
        return None
    if g.edge_count != g.vertex_count - 1:
        return None
    adj = {v: [] for v, _ in g.vertices}
    for a, b, _ in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    degrees = sorted(len(nb) for nb in adj.values())
    if degrees[-1] > 3:
        return None
    forks = [v for v, nb in adj.items() if len(nb) == 3]
    if not forks:
        return DynkinLabel("A", g.vertex_count + 1)
    if len(forks) > 1:
        return None
    fork = forks[0]
    arms = []
    for start in adj[fork]:
        length = 1
        prev, cur = fork, start
        while len(adj[cur]) == 2:
            nxt = next(v for v in adj[cur] if v != prev)
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return DynkinLabel("D", g.vertex_count - 2)
    if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
        return DynkinLabel("E", arms[2] + 4)
    return None


# ---------------------------------------------------------------------------
# random input generators (deterministic under a seeded Random)


def random_matrix(rng: random.Random, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def random_symmetric(rng: random.Random, n, lo=-5, hi=5):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(lo, hi)
            m[i][j] = m[j][i] = v
    return m


def random_tree_edges(rng: random.Random, n):
    """Uniform-ish random tree on vertices 0..n-1 by random attachment."""
    return [(v, rng.randrange(v)) for v in range(1, n)]


def random_negative_definite_tree(rng: random.Random, max_vertices=8):
    """Vertex/edge data for a tree whose intersection form is negative definite.

    Strict diagonal dominance with negative diagonal guarantees negative
    definiteness regardless of the edge signs.
    """
    n = rng.randint(1, max_vertices)
    edges = random_tree_edges(rng, n)
    degree = [0] * n
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    vertices = [(i, -(degree[i] + 1 + rng.randint(0, 2))) for i in range(n)]
    signed = [(a, b, rng.choice((1, -1))) for a, b in edges]
    return vertices, signed
