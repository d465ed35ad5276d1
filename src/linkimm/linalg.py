"""Exact integer linear algebra: Smith normal form, cokernels, signatures.

Everything here runs over Python's arbitrary-precision integers, and
every division is exact, so there is no overflow, no rounding and no
tolerance anywhere.  The three workhorses are:

* ``smith_normal_form`` -- a unimodular factorization U*A*V = S with S
  diagonal, nonnegative, and divisibility-chained; this presents the
  cokernel Z^rows / A*Z^cols of any integer matrix.  The elimination
  runs on A alone, each row a dict of its nonzero entries, and logs its
  steps.  The row pass visits only the rows up to the last one that can
  hold the pivot column, a row step reads the nonzeros of the pivot row,
  a column swap relabels two positions, a column step writes only the
  pivot row, and the sign and divisibility steps only the diagonal, so a
  path or a Dynkin form is reduced in time linear in its size.  The
  decomposition keeps that diagonal and builds S from it on first read;
  U, V and any chosen rows of U or columns of V are read off the logs on
  first read, by one backward replay that touches only the chosen rows,
  so a caller that needs only the diagonal (``cokernel``) builds neither
  S nor a transform, and one that needs a few rows builds only those.
  The decomposition is the one place that reads coker A off the diagonal:
  its ``factors`` and ``group``.  A matrix keeps its decomposition, and
  its signature, so all readers of one form share one elimination of
  each kind and need not pass it on.
* ``signature`` -- the signature of a symmetric form by fraction-free
  congruence (Schur-complement) elimination on sparse rows, one 1x1
  pivot at a time, each row held as integer numerators over one positive
  denominator; a vanishing remaining diagonal is first made nonzero by
  the congruence e_i -> e_i + e_j.
* ``kernel_mod2`` -- a basis of the mod-2 kernel: an echelon of Python-int
  bitmask rows keyed by their lowest set bit, back-substituted to the
  reduced echelon form.

Every one of them starts from ``IntMatrix.nonzero_rows``, one dict of
nonzero entries per row, built once per matrix, so none scans the dense
entries.  An intersection form is born with only those rows, built from
the graph, and builds its n^2 dense entries only if something reads
them (a certificate printing the matrix, say): the invariants of a
Dynkin form allocate nothing of size n^2.

Smith pivoting picks minimal-magnitude entries to keep coefficient growth
down; signature pivoting picks minimal fill, which keeps it linear on trees.

Matrices built from outside input (``IntMatrix(...)``, ``from_rows``)
have their shape and every entry checked to be ints (``record.ints``);
matrices the library computes itself (S, U, V and the intersection form
of an already checked plumbing graph) skip that check.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math

from .errors import NotSymmetric
from .record import Record, ints


class IntMatrix(Record):
    """Immutable integer matrix, row-major, arbitrary-precision entries.

    A matrix has two views of the same entries: ``entries``, the dense
    row-major tuple, and ``nonzero_rows``, one dict of nonzero entries per
    row.  It is born with one of them and builds the other from it on
    first read, then keeps it.  The constructor takes dense entries, stores
    them and the shape through ``record.ints``, and raises ValueError on a
    negative shape or a wrong entry count; a matrix born sparse (an
    intersection form, say) builds its n^2 dense entries only when
    something reads them: ``entries`` itself, ``to_rows`` (the one dense
    row reader), ``==``, ``hash`` or ``repr``.

    Matrices the library computes itself skip the checks through
    ``IntMatrix._trusted``: S, U and V of a Smith decomposition with their
    dense ``entries``, an intersection form with its ``nonzero_rows`` and
    ``_symmetric=True``.
    """

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = ints(entries, "entry")
        rows, cols = ints((rows, cols), "matrix dimension")
        for dim in (rows, cols):
            if dim < 0:
                raise ValueError(f"matrix dimension {dim!r} must be an integer >= 0")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self._store(rows, cols, entries)

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix(nr, nc, [x for r in rows for x in r])

    def to_rows(self) -> list:
        nc, e = self.cols, self.entries
        return [list(e[i * nc : (i + 1) * nc]) for i in range(self.rows)]

    @functools.cached_property
    def entries(self) -> tuple:
        """The dense row-major entries, built from ``nonzero_rows`` on first read."""
        nc = self.cols
        entries = [0] * (self.rows * nc)
        for i, row in enumerate(self.nonzero_rows):
            base = i * nc
            for j, x in row.items():
                entries[base + j] = x
        return tuple(entries)

    @functools.cached_property
    def nonzero_rows(self) -> tuple:
        """One dict {j: A[i, j]} of the nonzero entries of each row i.

        Built once per matrix, from ``entries`` unless the matrix was born
        with it, and shared by every reader: a caller copies a dict before
        it changes it.
        """
        nc, e = self.cols, self.entries
        rows = tuple([{} for _ in range(self.rows)])
        for k in itertools.compress(range(len(e)), e):
            rows[k // nc][k % nc] = e[k]
        return rows

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self._symmetric

    @functools.cached_property
    def _symmetric(self) -> bool:
        """Whether A equals its transpose: one scan of ``nonzero_rows`` per matrix.

        An intersection form is born holding the answer
        (``plumbing.intersection_matrix``) and is never scanned.
        """
        if not self.is_square:
            return False
        rows = self.nonzero_rows
        for i, row in enumerate(rows):
            for j, x in row.items():
                if rows[j].get(i) != x:
                    return False
        return True


class SmithDecomposition(Record):
    """Unimodular U, V and diagonal S with U*A*V = S for the rows x cols input A.

    The elimination keeps the diagonal of S it ends with, and a log of its
    row steps and of its column steps.  U is the product of the row steps,
    and V^T that of the column steps (a column step on V is logged as a
    row step on V^T).  ``_replay_rows`` reads any chosen rows of such a
    product off its log.  ``u`` and ``v`` ask it for every row, on first
    read; ``factor_rows`` asks for the rows of U at ``factors``, and
    ``v_columns`` for chosen rows of V^T, the columns of V.  ``s`` is
    built from the diagonal on first read.  A caller that reads only
    ``diagonal``, ``factors`` or ``group`` never pays for S or a
    transform, whose entries can run to hundreds of bits, and one that
    reads ``factor_rows`` or ``v_columns`` pays only for those rows.

    ``factors`` and ``group`` are the one reading of coker A off the
    diagonal; the coordinate of the factor at position i is read through
    row i of U.
    """

    _fields = ("rows", "cols", "diagonal", "row_steps", "col_steps")
    _hidden = ("row_steps", "col_steps")

    @functools.cached_property
    def s(self) -> IntMatrix:
        nr, nc = self.rows, self.cols
        entries = [0] * (nr * nc)
        for i, d in enumerate(self.diagonal):
            entries[i * nc + i] = d
        return IntMatrix._trusted(rows=nr, cols=nc, entries=tuple(entries))

    @functools.cached_property
    def u(self) -> IntMatrix:
        n = self.rows
        rows = _replay_rows(n, self.row_steps, range(n))
        return IntMatrix._trusted(rows=n, cols=n, entries=tuple(itertools.chain.from_iterable(rows)))

    @functools.cached_property
    def v(self) -> IntMatrix:
        n = self.cols
        rows = zip(*_replay_rows(n, self.col_steps, range(n)))  # the replay builds V^T
        return IntMatrix._trusted(rows=n, cols=n, entries=tuple(itertools.chain.from_iterable(rows)))

    @functools.cached_property
    def factor_rows(self) -> tuple:
        """Row i of U for each (i, d) in ``factors``, in order, as tuples."""
        picked = [i for i, _ in self.factors]
        return tuple(map(tuple, _replay_rows(self.rows, self.row_steps, picked)))

    def v_columns(self, positions) -> list:
        """Column j of V for each j in ``positions``, in order, as lists."""
        return _replay_rows(self.cols, self.col_steps, positions)

    @functools.cached_property
    def factors(self) -> tuple:
        """(i, d) for each diagonal position i with d = S[i, i] > 1, in order."""
        return tuple([(i, d) for i, d in enumerate(self.diagonal) if d > 1])

    @functools.cached_property
    def group(self) -> "FinAbGroup":
        """coker A: one Z/d per factor and one free Z per zero or missing pivot."""
        pivots = len(self.diagonal) - self.diagonal.count(0)
        return FinAbGroup(self.rows - pivots, tuple([d for _, d in self.factors]))


class FinAbGroup(Record):
    """Finitely generated abelian group in invariant-factor coordinates.

    ``invariant_factors`` is the ascending divisibility chain d_1 | d_2 | ...
    with every d_i >= 2, stored as a tuple; unit factors are never stored.
    The torsion subgroup is the direct sum of Z/d_i, preceded by
    ``free_rank`` copies of Z.  Both are read through ``record.ints``; a
    negative free rank, a factor below 2 or a broken chain raises ValueError.
    """

    _fields = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int = 0, invariant_factors: tuple = ()):
        (free_rank,) = ints((free_rank,), "free rank")
        if free_rank < 0:
            raise ValueError(f"free rank {free_rank!r} must be an integer >= 0")
        fs = ints(invariant_factors, "invariant factor")
        for d in fs:
            if d < 2:
                raise ValueError(f"invariant factor {d!r} must be an integer >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValueError(f"broken divisibility chain: {a} does not divide {b}")
        self._store(free_rank, fs)

    def order(self) -> int:
        """Order of the group; only defined when the free rank is zero."""
        if self.free_rank:
            raise ValueError("infinite group has no order")
        return math.prod(self.invariant_factors)

    @property
    def two_torsion_rank(self) -> int:
        """dim of (torsion tensor Z_2): the number of even invariant factors."""
        return sum(1 for d in self.invariant_factors if d % 2 == 0)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def _xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) and x*a + y*b = g, for a, b >= 0.

    Every remainder of Euclid's loop is then >= 0, so g needs no sign fix;
    the one caller passes diagonal entries after the sign step.
    """
    x0, x1, y0, y1 = 1, 0, 0, 1
    g, r = a, b
    while r:
        q = g // r
        g, r = r, g - q * r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return g, x0, y0


def _find_min_pivot(rows, t, pos):
    """(i, c): row i and column key c of a least-magnitude entry in rows t.., or None.

    Rows t.. hold entries only in the columns at positions >= t, and
    ``pos`` maps a column key to its position.  One scan walks each row
    once: ties go to the first row holding the least magnitude, and within
    that row to the entry of least position, and the scan ends after the
    first row holding a unit.
    """
    best = key = None
    best_abs = 0
    for i in range(t, len(rows)):
        for c, e in rows[i].items():
            if e < 0:
                e = -e
            if e < best_abs or not best_abs:
                best, key, best_abs = i, c, e
            elif e == best_abs and best == i:
                if pos[c] < pos[key]:
                    key = c
        if best_abs == 1:
            break
    if best is None:
        return None
    return best, key


def _replay_rows(n: int, steps, picked) -> list:
    """Rows ``picked``, in that order, of the n x n identity after the logged row steps.

    A step is ``(op, i, j, c)``: "swap" rows i and j; "axpy" row_i += c *
    row_j; "neg" negates row i; "combine" replaces rows i and j by
    (x row_i + y row_j, p row_i + q row_j) for c = (x, y, p, q).  With E
    the product of the steps, row r of E is e_r^T E, so the steps are
    walked backwards, each as the column step that multiplies the picked
    rows by it on the right.  A column of the picked rows is a dict of its
    nonzero entries, so a step costs the size of the columns it reads, and
    a few picked rows cost a few rows of work per step.
    """
    cols = [{} for _ in range(n)]  # cols[c][k]: entry of picked row k in column c
    for k, r in enumerate(picked):
        cols[r][k] = 1
    for op, i, j, c in reversed(steps):
        if op == "axpy":  # times I + c*e_i*e_j^T: col_j += c * col_i
            src = cols[i]
            if src:
                dst = cols[j]
                for k, x in src.items():
                    v = dst.get(k, 0) + c * x
                    if v:
                        dst[k] = v
                    else:
                        del dst[k]
        elif op == "swap":
            cols[i], cols[j] = cols[j], cols[i]
        elif op == "neg":
            col = cols[i]
            for k in col:
                col[k] = -col[k]
        else:  # col_i, col_j = x col_i + p col_j, y col_i + q col_j
            x, y, p, q = c
            ci, cj = cols[i], cols[j]
            new_i, new_j = {}, {}
            for k in ci.keys() | cj.keys():
                e, f = ci.get(k, 0), cj.get(k, 0)
                if v := x * e + p * f:
                    new_i[k] = v
                if v := y * e + q * f:
                    new_j[k] = v
            cols[i], cols[j] = new_i, new_j
    out = [[0] * n for _ in picked]
    for c, col in enumerate(cols):
        for k, x in col.items():
            out[k][c] = x
    return out


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms: U*A*V = S exactly.

    U and V are unimodular; S is (rectangular-)diagonal and nonnegative
    with S[i,i] | S[i+1,i+1].  Works for any integer matrix, including
    empty and rectangular ones, and keeps the decomposition on A: every
    call on A returns the object kept first, even when first calls overlap
    (each then eliminates).  Pivots are chosen with minimal absolute value
    to limit coefficient growth.  The elimination runs on A alone, each row
    held as a dict of its nonzero entries, and logs its steps; U and V are
    built from the logs on first read, and S from the diagonal the
    elimination ends with (see ``SmithDecomposition``).  A row step reads
    the nonzeros of the pivot row, and a column swap exchanges two positions
    without touching a row.  A column step follows a clean row pass, when
    column t is p*e_t, so it changes the pivot row alone; after the loop A
    is diagonal, so the sign and gcd/lcm steps change only the diagonal.

    The row pass clears the pivot column below the pivot.  It visits rows
    t+1 .. ``last[c]`` only, where ``last[c]`` bounds the index of the last
    row holding column key c.  A row step raises the bound of each key it
    writes that is new to its row, and the pivot swap that of each key of
    the row it moves down; nothing else adds a key to a row, so the bound
    holds, and the rows past it, which hold nothing in column c, are
    never visited.  The steps logged are those of a pass over every row.

    No row or column step is trivial.  The pivot p is an entry of least
    magnitude in rows t.. (the same loop picks it again at t after any
    pass that leaves the pivot row or column unclean), and neither pass
    changes an entry before dividing it by p, so each quotient q = x // p
    has |x| >= |p| and is nonzero.  The divisibility step combines two
    diagonal entries only when d_i does not divide d_j, so in
    x*d_i + y*d_j = g the coefficient y is nonzero, and so is y*d_j/g.

    One sweep of the divisibility chain makes S[i,i] | S[i+1,i+1].  Once
    index i has met every later index, d_i divides every later d_j (or
    d_i = 0 and every later d_j is 0).  A later step replaces two entries
    that d_i divides by their gcd and lcm, which d_i divides too, so no
    later step undoes what index i made.
    """
    if "_smith" in a.__dict__:
        return a._smith
    nr, nc = a.rows, a.cols
    rows = [dict(r) for r in a.nonzero_rows]
    # A column swap swaps two positions of ``pos`` and ``key``, not the
    # keys in the rows: rows key their entries by the original column.
    key = list(range(nc))  # key[j]: the column at position j
    pos = list(range(nc))  # pos[c]: the position of column c
    # Row steps act on U, column steps on V; a column step on V is logged
    # as the same row step on V^T.
    row_steps, col_steps = [], []
    # last[c] >= the index of the last row holding column key c (see above)
    last = [-1] * nc
    for i, row in enumerate(rows):
        for k in row:
            last[k] = i

    t = 0
    limit = min(nr, nc)
    while t < limit:
        found = _find_min_pivot(rows, t, pos)
        if found is None:
            break
        i, c = found
        if i != t:
            for k in rows[t]:  # row t moves down to row i
                if last[k] < i:
                    last[k] = i
            rows[t], rows[i] = rows[i], rows[t]
            row_steps.append(("swap", t, i, None))
        j = pos[c]
        if j != t:
            ct = key[t]
            key[t], key[j] = c, ct
            pos[c], pos[ct] = t, j
            col_steps.append(("swap", t, j, None))
        mt = rows[t]
        p = mt[c]
        dirty = False
        for i in range(t + 1, last[c] + 1):
            ri = rows[i]
            if c in ri:
                q = ri[c] // p  # never 0: |ri[c]| >= |p| (see the docstring)
                for k, x in mt.items():
                    v = ri.get(k)
                    if v is None:
                        ri[k] = -q * x
                        if last[k] < i:
                            last[k] = i
                    else:
                        v -= q * x
                        if v:
                            ri[k] = v
                        else:
                            del ri[k]
                row_steps.append(("axpy", i, t, -q))
                if c in ri:
                    dirty = True
        if not dirty:
            # column t is p*e_t: col_j -= q*col_t changes the pivot row alone
            for k in sorted(mt, key=pos.__getitem__):
                if k == c:
                    continue
                e = mt[k]
                q = e // p  # never 0: |e| >= |p| (see the docstring)
                col_steps.append(("axpy", pos[k], t, -q))
                e -= q * p
                if e:
                    mt[k] = e
                    dirty = True
                else:
                    del mt[k]
        if not dirty:
            t += 1

    # A is diagonal now; the remaining steps act on its diagonal d alone.
    d = [rows[i].get(key[i], 0) for i in range(limit)]
    for i, di in enumerate(d):
        if di < 0:
            d[i] = -di
            row_steps.append(("neg", i, i, None))

    # Divisibility chain: col_i += col_j, a 2x2 row combine and col_j -=
    # c*col_i turn diag(di, dj) into diag(g, di/g*dj), g = gcd(di, dj);
    # zero entries sink to the end (gcd(0, d) = d).  One sweep suffices
    # (see the docstring).
    for i in range(limit - 1):
        if d[i] == 1:
            continue  # 1 divides every d[j]
        for j in range(i + 1, limit):
            di, dj = d[i], d[j]
            if di == 0 and dj == 0:
                continue
            if di != 0 and dj % di == 0:
                continue
            g, x, y = _xgcd(di, dj)
            col_steps.append(("axpy", i, j, 1))
            row_steps.append(("combine", i, j, (x, y, -(dj // g), di // g)))
            # di does not divide dj, so y != 0 and the step is never trivial
            col_steps.append(("axpy", j, i, -((y * dj) // g)))
            d[i], d[j] = g, di // g * dj

    return a.__dict__.setdefault("_smith", SmithDecomposition(nr, nc, tuple(d), tuple(row_steps), tuple(col_steps)))


def cokernel(a: IntMatrix) -> FinAbGroup:
    """Structure of Z^rows / A*Z^cols, the group of its Smith decomposition."""
    return smith_normal_form(a).group


def signature(a: IntMatrix) -> int:
    """Signature of a symmetric integer matrix, by fraction-free congruence.

    Repeatedly splits off a 1x1 block at a nonzero diagonal pivot (Schur
    complement over Q).  Whenever the remaining diagonal is identically
    zero, the congruence e_i -> e_i + e_j, at the lowest remaining row i
    with an entry and its lowest column j, gives row i the diagonal
    2*A[i][j] first.  Zero eigenvalues contribute nothing, so singular
    forms are fine.  Raises NotSymmetric otherwise.  Keeps the value on A,
    as ``smith_normal_form`` keeps its decomposition.

    Each row of the remaining block is held as a dict of its nonzero
    integer numerators over one positive row denominator.  A pivot with
    numerator d turns row r, with entry b in the pivot column, into
    |d|*row_r - sgn(d)*b*prow over |d| times its old denominator, which is
    then divided by the gcd of the denominator and the numerators; the
    pivot's denominator cancels.  Every entry of a Schur complement is a
    ratio of minors (Sylvester's identity, as in Bareiss elimination), so
    the reduced numerators stay as small as the minors.  The sign of a
    pivot is the sign of its numerator.

    A pivot's fill (the other rows it touches) is its row length less one,
    and a step updates only the pivot's neighbours.  Pivots come from a
    heap keyed by (fill, index): the least fill, ties to the lowest index.
    On a tree a leaf has fill 1 and is taken whenever its diagonal is
    nonzero, and its step updates one row: the leaf elimination of
    Neumann's plumbing calculus, linear up to the heap's log factor.
    """
    if "_signature" in a.__dict__:
        return a._signature
    if not a.is_symmetric():
        raise NotSymmetric("signature requires a symmetric matrix")
    rows = {i: dict(row) for i, row in enumerate(a.nonzero_rows)}
    den = [1] * a.rows  # row i of the remaining block is rows[i] / den[i]
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
            m = abs(d)
            for r in prow:
                row = rows[r]
                b = row.pop(pivot)
                if d < 0:
                    b = -b
                dr = den[r]
                if m != 1:
                    dr *= m
                    for c in row:
                        row[c] *= m
                for c, x in prow.items():
                    v = row.get(c, 0) - b * x
                    if v:
                        row[c] = v
                    else:
                        row.pop(c, None)
                if dr != 1:
                    g = math.gcd(dr, *row.values())
                    if g != 1:
                        dr //= g
                        for c in row:
                            row[c] //= g
                den[r] = dr
                if r in row:
                    heapq.heappush(heap, (len(row) - 1, r))
            continue
        # Whole remaining diagonal is zero: for some A[i][j] != 0 the
        # congruence e_i -> e_i + e_j makes A[i][i] = 2*A[i][j] != 0, and
        # the 1x1 step above takes row i next.
        i = next((i for i, row in rows.items() if row), None)
        if i is None:
            break  # remaining block is zero
        irow = rows[i]
        j = min(irow)
        # row i += row j, over the common denominator l
        l = math.lcm(den[i], den[j])
        fi, fj = l // den[i], l // den[j]
        if fi != 1:
            for c in irow:
                irow[c] *= fi
        for c, x in rows[j].items():
            if c != i:
                v = irow.get(c, 0) + fj * x
                if v:
                    irow[c] = v
                else:
                    irow.pop(c, None)
                # column i += column j: row c keeps its own denominator
                rc = rows[c]
                v = rc.get(i, 0) + rc[j]
                if v:
                    rc[i] = v
                else:
                    rc.pop(i, None)
        irow[i] = 2 * irow[j]
        g = math.gcd(l, *irow.values())
        for c in irow:
            irow[c] //= g
        den[i] = l // g
        heapq.heappush(heap, (len(irow) - 1, i))
    return a.__dict__.setdefault("_signature", pos - neg)


def kernel_mod2(a: IntMatrix) -> list:
    """Basis of {x in Z_2^n : A x = 0 mod 2} for square A.

    Rows are held as int bitmasks, bit j for column j.  Each row is
    reduced against an echelon keyed by the lowest set bit of its rows and
    joins it under its own lowest bit if anything is left; a back
    substitution, from the highest pivot down, then clears every pivot
    column outside its own row.  That is the reduced echelon form, which
    is unique, so the basis does not depend on the order of the rows.  The
    returned basis vectors are 0/1 tuples, one per free column, in order.
    """
    if not a.is_square:
        raise ValueError("kernel_mod2 requires a square matrix")
    n = a.rows
    echelon = {}  # lowest set bit -> row
    for row in a.nonzero_rows:
        mask = 0
        for j, e in row.items():
            if e & 1:
                mask |= 1 << j
        while mask:
            low = mask & -mask
            other = echelon.get(low)
            if other is None:
                echelon[low] = mask
                break
            mask ^= other

    pivot_bits = sum(echelon)  # the keys are distinct powers of two
    for low in sorted(echelon, reverse=True):
        # the rows of the higher pivots are reduced already
        row = echelon[low]
        rest = row & pivot_bits & ~low
        while rest:
            bit = rest & -rest
            row ^= echelon[bit]
            rest ^= bit
        echelon[low] = row

    pivots = [(low.bit_length() - 1, row) for low, row in echelon.items()]
    basis = []
    for f in range(n):
        if pivot_bits >> f & 1:
            continue
        vec = [0] * n
        vec[f] = 1
        for p, row in pivots:
            vec[p] = row >> f & 1
        basis.append(tuple(vec))
    return basis
