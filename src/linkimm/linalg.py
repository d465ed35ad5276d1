"""Exact integer linear algebra: Smith normal form, cokernels, signatures.

Everything here runs over Python's arbitrary-precision integers (and exact
rationals where division is unavoidable), so there is no overflow and no
tolerance anywhere.  The three workhorses are:

* ``smith_normal_form`` -- a unimodular factorization U*A*V = S with S
  diagonal, nonnegative, and divisibility-chained; this presents the
  cokernel Z^rows / A*Z^cols of any integer matrix.  The elimination
  runs on A alone and logs its steps; U and V are built from the logs
  on first read, so a caller that needs only the diagonal (``cokernel``)
  never builds them.
* ``signature`` -- the signature of a symmetric form by exact rational
  congruence (Schur-complement) elimination on sparse rows, with the
  usual hyperbolic 2x2 step when the remaining diagonal vanishes.
* ``kernel_mod2`` -- a basis of the mod-2 kernel by Gaussian elimination
  over GF(2), with rows stored as Python-int bitmasks.

Smith pivoting picks minimal-magnitude entries to keep coefficient growth
down; signature pivoting picks minimal fill, which keeps it linear on trees.

Matrices built from outside input (``IntMatrix(...)``, ``from_rows``,
``diagonal``) have every entry checked to be an int; matrices the library
computes itself (S, U, V, ``identity``, ``transpose``, ``@``, and the
intersection form of an already checked plumbing graph) skip that check.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotSymmetric


def _plain_ints(values) -> tuple:
    """Outside entries as plain ints (bools become 0/1); ValueError on any other type."""
    values = tuple(values)
    for e in values:
        if not isinstance(e, int):
            raise ValueError(f"non-integer entry {e!r}")
    return tuple(map(int, values))


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major, arbitrary-precision entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        for e in self.entries:
            if not isinstance(e, int):
                raise ValueError(f"non-integer entry {e!r}")

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple) -> "IntMatrix":
        """A matrix of entries the library computed itself: no per-entry check."""
        m = object.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, entries=entries)
        return m

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix._trusted(nr, nc, _plain_ints(x for r in rows for x in r))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix._trusted(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def diagonal(values) -> "IntMatrix":
        values = _plain_ints(values)
        n = len(values)
        return IntMatrix._trusted(n, n, tuple(values[i] if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, ij) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.entries[k * other.cols + j] for k in range(self.cols)))
        return IntMatrix._trusted(self.rows, other.cols, tuple(out))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        n, e = self.cols, self.entries
        return all(e[i * n : (i + 1) * n] == e[i::n] for i in range(n))

    def __str__(self):
        if not self.entries:
            return f"[] ({self.rows}x{self.cols})"
        width = max(len(str(e)) for e in self.entries)
        return "\n".join(
            "[ " + "  ".join(str(e).rjust(width) for e in self.row(i)) + " ]"
            for i in range(self.rows)
        )


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular U, V and diagonal S with U*A*V = S for the input A.

    The elimination keeps S and a log of its row steps and of its column
    steps.  U is built on the first read of ``u``, by replaying the row
    log on an identity matrix; V likewise on the first read of ``v``, from
    the column log replayed as row steps on V^T.  A caller that reads only
    ``s`` or ``diagonal`` never pays for the transforms, whose entries can
    run to hundreds of bits.
    """

    s: IntMatrix
    row_steps: tuple = field(repr=False)
    col_steps: tuple = field(repr=False)

    @functools.cached_property
    def u(self) -> IntMatrix:
        n = self.s.rows
        rows = _replay(n, self.row_steps)
        return IntMatrix._trusted(n, n, tuple(itertools.chain.from_iterable(rows)))

    @functools.cached_property
    def v(self) -> IntMatrix:
        n = self.s.cols
        rows = zip(*_replay(n, self.col_steps))  # the replay builds V^T
        return IntMatrix._trusted(n, n, tuple(itertools.chain.from_iterable(rows)))

    @property
    def diagonal(self) -> tuple:
        k = min(self.s.rows, self.s.cols)
        return tuple(self.s[i, i] for i in range(k))


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group in invariant-factor coordinates.

    ``invariant_factors`` is the ascending divisibility chain d_1 | d_2 | ...
    with every d_i >= 2; unit factors are never stored.  The torsion
    subgroup is the direct sum of Z/d_i, preceded by ``free_rank`` copies
    of Z.
    """

    free_rank: int = 0
    invariant_factors: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        fs = self.invariant_factors
        for d in fs:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"invariant factor {d!r} must be an integer >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValueError(f"broken divisibility chain: {a} does not divide {b}")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def order(self) -> int:
        """Order of the group; only defined when the free rank is zero."""
        if self.free_rank:
            raise ValueError("infinite group has no order")
        return math.prod(self.invariant_factors)

    @property
    def two_torsion_rank(self) -> int:
        """dim of (torsion tensor Z_2): the number of even invariant factors."""
        return sum(1 for d in self.invariant_factors if d % 2 == 0)

    def torsion_elements(self):
        """Iterate coordinate tuples of all torsion elements (free rank 0 only)."""
        if self.free_rank:
            raise ValueError("cannot enumerate a group of positive free rank")
        yield from itertools.product(*(range(d) for d in self.invariant_factors))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


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


def _col_axpy(m, j, k, c):
    """col_j += c * col_k."""
    for row in m:
        e = row[k]
        if e:
            row[j] += c * e


def _combine_rows(m, i, j, c):
    """(row_i, row_j) <- (x row_i + y row_j, p row_i + q row_j) for c = (x, y, p, q)."""
    x, y, p, q = c
    ri, rj = m[i], m[j]
    m[i] = [x * e + y * f for e, f in zip(ri, rj)]
    m[j] = [p * e + q * f for e, f in zip(ri, rj)]


def _replay(n: int, steps) -> list:
    """Rows of the n x n identity after the logged row steps, in order.

    A step is ``(op, i, j, c)``: "swap" rows i and j; "axpy" row_i += c *
    row_j; "neg" negates row i; "combine" replaces rows i and j by
    (x row_i + y row_j, p row_i + q row_j) for c = (x, y, p, q).
    """
    m = IntMatrix.identity(n).to_rows()
    for op, i, j, c in steps:
        if op == "axpy":
            _row_axpy(m, i, j, c)
        elif op == "swap":
            m[i], m[j] = m[j], m[i]
        elif op == "neg":
            m[i] = [-e for e in m[i]]
        else:
            _combine_rows(m, i, j, c)
    return m


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms: U*A*V = S exactly.

    U and V are unimodular; S is (rectangular-)diagonal and nonnegative
    with S[i,i] | S[i+1,i+1].  Works for any integer matrix, including
    empty and rectangular ones.  Pivots are chosen with minimal absolute
    value to limit coefficient growth.  The elimination runs on A alone
    and logs its steps; U and V are built from the logs on first read
    (see ``SmithDecomposition``).
    """
    nr, nc = a.rows, a.cols
    m = a.to_rows()
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
                for j in range(t + 1, nc):
                    e = m[t][j]
                    if e:
                        q = e // p
                        if q:
                            _col_axpy(m, j, t, -q)
                            col_steps.append(("axpy", j, t, -q))
                        if m[t][j]:
                            dirty = True
            if not dirty:
                break
            pos = _find_min_pivot(m, t, nr, nc)
        t += 1

    for i in range(limit):
        if m[i][i] < 0:
            for j in range(nc):
                m[i][j] = -m[i][j]
            row_steps.append(("neg", i, i, None))

    # Enforce the divisibility chain with gcd/lcm 2x2 transforms; zero
    # diagonal entries sink to the end (gcd(0, d) = d, lcm = 0).
    changed = True
    while changed:
        changed = False
        for i in range(limit - 1):
            for j in range(i + 1, limit):
                di, dj = m[i][i], m[j][j]
                if di == 0 and dj == 0:
                    continue
                if di != 0 and dj % di == 0:
                    continue
                g, x, y = _xgcd(di, dj)
                _col_axpy(m, i, j, 1)
                col_steps.append(("axpy", i, j, 1))
                combine = (x, y, -(dj // g), di // g)
                _combine_rows(m, i, j, combine)
                row_steps.append(("combine", i, j, combine))
                c = (y * dj) // g
                if c:
                    _col_axpy(m, j, i, -c)
                    col_steps.append(("axpy", j, i, -c))
                changed = True

    return SmithDecomposition(
        IntMatrix._trusted(nr, nc, tuple(itertools.chain.from_iterable(m))),
        tuple(row_steps),
        tuple(col_steps),
    )


def cokernel(a: IntMatrix) -> FinAbGroup:
    """Structure of Z^rows / A*Z^cols read off the Smith normal form."""
    diag = smith_normal_form(a).diagonal
    rank = sum(1 for d in diag if d)
    return FinAbGroup(
        free_rank=a.rows - rank,
        invariant_factors=tuple(d for d in diag if d > 1),
    )


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not a.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pk - mik * m[k][j]) // prev
            m[i][k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def signature(a: IntMatrix) -> int:
    """Signature of a symmetric integer matrix, by exact congruence.

    Repeatedly splits off a 1x1 block at a nonzero diagonal pivot (Schur
    complement over Q), falling back to a hyperbolic 2x2 block -- which
    contributes one positive and one negative eigenvalue -- whenever the
    remaining diagonal is identically zero.  Zero eigenvalues contribute
    nothing, so singular forms are fine.  Raises NotSymmetric otherwise.

    Each row is stored as a dict of its nonzero entries, so a pivot's fill
    (the other rows it touches) is its row length less one, and a step
    updates only the pivot's neighbours.  Pivots come from a heap keyed by
    (fill, index): the least fill, ties to the lowest index.  On a tree a
    leaf has fill 1 and is taken whenever its diagonal is nonzero, and its
    step updates one row: the leaf elimination of Neumann's plumbing
    calculus, linear up to the heap's log factor.
    """
    if not a.is_square:
        raise NotSymmetric("signature requires a symmetric matrix")
    indices = range(a.rows)
    rows = {}
    for i in indices:
        r = a.row(i)
        rows[i] = {j: Fraction(r[j]) for j in itertools.compress(indices, r)}
    if any(rows[j].get(i) != e for i, row in rows.items() for j, e in row.items()):
        raise NotSymmetric("signature requires a symmetric matrix")
    heap = [(len(row) - 1, i) for i, row in rows.items() if i in row]
    heapq.heapify(heap)
    pos = neg = 0
    while rows:
        pivot = None
        while heap:
            fill, i = heapq.heappop(heap)
            row = rows.get(i)
            # entries go stale when a row is eliminated or changes; skip those
            if row is not None and i in row and len(row) - 1 == fill:
                pivot = i
                break
        if pivot is not None:
            prow = rows.pop(pivot)
            d = prow.pop(pivot)
            if d > 0:
                pos += 1
            else:
                neg += 1
            for r, e in prow.items():
                row = rows[r]
                del row[pivot]
                f = e / d
                for c, x in prow.items():
                    v = row.get(c, 0) - f * x
                    if v:
                        row[c] = v
                    else:
                        row.pop(c, None)
                if r in row:
                    heapq.heappush(heap, (len(row) - 1, r))
            continue
        # Whole remaining diagonal is zero: look for a hyperbolic pair.
        pair = next(((i, j) for i, row in rows.items() for j in row if j != i), None)
        if pair is None:
            break  # remaining block is zero
        i, j = pair
        pos += 1
        neg += 1
        irow, jrow = rows.pop(i), rows.pop(j)
        d = irow.pop(j)
        del jrow[i]
        touched = irow.keys() | jrow.keys()
        for r in touched:
            row = rows[r]
            fi = row.pop(i, 0) / d
            fj = row.pop(j, 0) / d
            for c in touched:
                v = row.get(c, 0) - fi * jrow.get(c, 0) - fj * irow.get(c, 0)
                if v:
                    row[c] = v
                else:
                    row.pop(c, None)
            if r in row:
                heapq.heappush(heap, (len(row) - 1, r))
    return pos - neg


def kernel_mod2(a: IntMatrix) -> list:
    """Basis of {x in Z_2^n : A x = 0 mod 2} for square A.

    Gaussian elimination over GF(2) with rows held as int bitmasks; the
    returned basis vectors are 0/1 tuples, one per free column.
    """
    if not a.is_square:
        raise ValueError("kernel_mod2 requires a square matrix")
    n = a.rows
    rows = []
    for i in range(n):
        mask = 0
        for j, e in enumerate(a.row(i)):
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


def rank_mod2(a: IntMatrix) -> int:
    """Rank of A over GF(2)."""
    if not a.is_square:
        raise ValueError("rank_mod2 requires a square matrix")
    return a.rows - len(kernel_mod2(a))
