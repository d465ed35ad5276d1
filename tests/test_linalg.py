import inspect
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest
from linkimm import cli, linalg
from linkimm.errors import NotSymmetric
from linkimm.linalg import (
    FinAbGroup,
    IntMatrix,
    cokernel,
    kernel_mod2,
    signature,
    smith_normal_form,
)

from check import _matmul, bareiss_det
from oracles import (
    CosetGroup,
    _replay as replay_dense,
    random_matrix,
    random_symmetric,
    random_tree_edges,
    signature_by_root_count,
    signature_fraction,
    smith_normal_form_dense,
)

# Cartan matrices (negative-definite convention: -2 diagonal, +1 adjacency)
CARTAN_A2 = [[-2, 1], [1, -2]]

# E_8: chain 0-1-2-3-4-5-6 with the eighth vertex attached to vertex 2.
E8_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]
E7_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)]


def cartan_from_edges(n, edges):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = -2
    for a, b in edges:
        m[a][b] = m[b][a] = 1
    return m


def cartan_a(k):
    """k-vertex path, i.e. the A_k diagram."""
    return cartan_from_edges(k, [(i, i + 1) for i in range(k - 1)])


def mixed_weight_tree(rng, n):
    rows = [[0] * n for _ in range(n)]
    for v in range(n):
        rows[v][v] = rng.choice((-2, -2, -3, -3, -4, -1, -5, 1, 2))
    for v, p in random_tree_edges(rng, n):
        rows[v][p] = rows[p][v] = rng.choice((1, -1))
    return rows


def check_decomposition(a: IntMatrix):
    dec = smith_normal_form(a)
    assert _matmul(_matmul(dec.u.to_rows(), a.to_rows()), dec.v.to_rows()) == dec.s.to_rows()
    assert abs(bareiss_det(dec.u.to_rows())) == 1
    assert abs(bareiss_det(dec.v.to_rows())) == 1
    diag = dec.diagonal
    assert all(d >= 0 for d in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    # off-diagonal entries vanish
    for i, row in enumerate(dec.s.to_rows()):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    return dec


class TestIntMatrixInput:
    @pytest.mark.parametrize("entry", [2.9, 2.0, "3", Fraction(3), Fraction(7, 2), None], ids=repr)
    def test_constructors_reject_non_int_entries(self, entry):
        with pytest.raises(ValueError, match="non-integer entry"):
            IntMatrix.from_rows([[1, entry], [entry, 4]])
        with pytest.raises(ValueError, match="non-integer entry"):
            IntMatrix(2, 2, [1, 0, 0, entry])
        with pytest.raises(ValueError, match="non-integer entry"):
            IntMatrix(1, 1, (entry,))
        with pytest.raises(ValueError, match="non-integer entry"):  # a bool before it is no excuse
            IntMatrix(1, 2, (True, entry))

    def test_ints_and_bools_become_plain_ints(self):
        m = IntMatrix.from_rows([[True, -2], [3, False]])
        assert m.entries == (1, -2, 3, 0)
        assert all(type(e) is int for e in m.entries)
        d = IntMatrix(2, 2, [True, 0, 0, 5])
        assert d.entries == (1, 0, 0, 5)
        assert all(type(e) is int for e in d.entries)
        m = IntMatrix(1, 1, (True,))
        assert m.entries == (1,) and type(m.entries[0]) is int
        m = IntMatrix(2, 2, [1, 2, 3, 4])  # a list is stored as a tuple
        assert m.entries == (1, 2, 3, 4) and type(m.entries) is tuple
        assert hash(m) == hash(IntMatrix.from_rows([[1, 2], [3, 4]]))
        m = IntMatrix(True, True, [6])  # the shape follows the same rule
        assert (m.rows, m.cols) == (1, 1) and type(m.rows) is int and type(m.cols) is int
        assert type(smith_normal_form(m).rows) is int
        g = FinAbGroup(True, (2,))  # and so does a group's free rank
        assert g.free_rank == 1 and type(g.free_rank) is int
        assert '"free_rank": 1' in json.dumps(cli.jsonable(cli.group_payload(g)))

    @pytest.mark.parametrize("rows, cols", [(2.0, 2), (2, 2.0), (-1, -4)], ids=repr)
    def test_constructor_rejects_a_bad_shape(self, rows, cols):
        # each shape has rows * cols == 4, the number of entries
        with pytest.raises(ValueError, match="matrix dimension"):
            IntMatrix(rows, cols, [0] * 4)

    def test_constructor_rejects_a_wrong_entry_count(self):
        with pytest.raises(ValueError, match="expected 4 entries, got 3"):
            IntMatrix(2, 2, [1, 2, 3])

    def test_from_rows_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged rows"):
            IntMatrix.from_rows([[1, 2], [3]])


class TestSmithNormalForm:
    def test_single_negative_entry(self):
        dec = check_decomposition(IntMatrix.from_rows([[-2]]))
        assert dec.diagonal == (2,)

    def test_cartan_a2(self):
        dec = check_decomposition(IntMatrix.from_rows(CARTAN_A2))
        assert dec.diagonal == (1, 3)

    def test_cartan_e8_is_unimodular(self):
        a = IntMatrix.from_rows(cartan_from_edges(8, E8_EDGES))
        dec = check_decomposition(a)
        assert dec.diagonal == (1,) * 8

    def test_empty_and_degenerate_shapes(self):
        check_decomposition(IntMatrix(0, 0, []))
        check_decomposition(IntMatrix(3, 0, []))
        check_decomposition(IntMatrix(0, 3, []))
        check_decomposition(IntMatrix(2, 2, [0] * 4))

    def test_random_small_matrices(self):
        rng = random.Random(20240917)
        for _ in range(150):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            a = IntMatrix.from_rows(random_matrix(rng, r, c))
            check_decomposition(a)

    def test_huge_entries_do_not_overflow(self):
        big = 10 ** 40
        a = IntMatrix.from_rows([[big, 1], [0, big]])
        dec = check_decomposition(a)
        assert dec.diagonal[0] == 1
        assert dec.diagonal[1] == big * big

    def test_a_matrix_keeps_its_one_decomposition(self, monkeypatch):
        searches = []
        find = linalg._find_min_pivot
        monkeypatch.setattr(linalg, "_find_min_pivot", lambda *args: searches.append(1) or find(*args))
        for rows in (CARTAN_A2, [[0, 3], [6, 4], [2, 2]], [[0]]):
            a = IntMatrix.from_rows(rows)
            dec = smith_normal_form(a)
            del searches[:]
            assert smith_normal_form(a) is dec
            assert not searches  # the second call eliminates nothing
            # an equal matrix is another object, and eliminates afresh
            other = smith_normal_form(IntMatrix.from_rows(rows))
            assert other is not dec and other == dec and searches

    def test_overlapping_first_calls_return_the_decomposition_kept_first(self, monkeypatch):
        # the outer call, about to keep its result, first lets a second call
        # on the same fresh form run to the end and keep its own
        a = IntMatrix.from_rows(CARTAN_A2)
        build = linalg.SmithDecomposition
        inner = []

        def overlapped(*args):
            monkeypatch.setattr(linalg, "SmithDecomposition", build)  # the inner call builds as usual
            inner.append(smith_normal_form(a))
            return build(*args)

        monkeypatch.setattr(linalg, "SmithDecomposition", overlapped)
        outer = smith_normal_form(a)
        assert outer is inner[0] is a._smith


class TestPivotSearch:
    """``_find_min_pivot`` and how often the elimination calls it."""

    class Rows(list):
        """A list of rows that records the index of each row read."""

        def __init__(self, rows):
            super().__init__(rows)
            self.read = []

        def __getitem__(self, i):
            self.read.append(i)
            return super().__getitem__(i)

    def test_ties_go_to_the_first_row_and_the_least_position(self):
        # a column swap put key 4 at position 1 and key 1 at position 4, so
        # in row 1 the dict order of the two entries of magnitude 2 is the
        # reverse of their position order; row 0 lies before t and is not read
        pos = [0, 4, 2, 3, 1]
        rows = self.Rows([{0: 1}, {1: -2, 2: 6, 4: 2}, {3: 2, 2: -3}, {2: 2}])
        assert linalg._find_min_pivot(rows, 1, pos) == (1, 4)
        assert set(rows.read) == {1, 2, 3}

    def test_the_scan_ends_after_the_first_row_holding_a_unit(self):
        rows = self.Rows([{0: 3}, {1: 2, 3: 1, 2: -1}, {3: 1}, {2: 1}])
        assert linalg._find_min_pivot(rows, 0, [0, 1, 2, 3]) == (1, 2)
        assert set(rows.read) == {0, 1}  # row 2 and on are never read

    @staticmethod
    def grid_form(side, weight):
        """The form of the side x side grid graph, every weight ``weight``, every edge +1."""
        rows = [[0] * side ** 2 for _ in range(side ** 2)]
        for v in range(side ** 2):
            rows[v][v] = weight
            for w in (v + 1, v + side):
                if w < side ** 2 and (w == v + side or w % side):
                    rows[v][w] = rows[w][v] = 1
        return rows

    def test_searches_stay_within_their_ceiling(self, monkeypatch):
        # each ceiling is the count the elimination makes now: one search per
        # pass, and a pass per pivot position on a Dynkin form
        rng = random.Random(7373)
        inputs = {
            "A_400": ([cartan_a(400)], 400),
            "D_200": ([cartan_from_edges(200, [(i, i + 1) for i in range(198)] + [(197, 199)])], 200),
            "grid 10x10 of -5": ([self.grid_form(10, -5)], 243),
            "mixed-weight trees": ([mixed_weight_tree(rng, n) for n in (100, 130, 160, 200)], 1386),
        }
        searches = []
        find = linalg._find_min_pivot
        monkeypatch.setattr(linalg, "_find_min_pivot", lambda *args: searches.append(1) or find(*args))
        for name, (forms, ceiling) in inputs.items():
            del searches[:]
            for rows in forms:
                smith_normal_form(IntMatrix.from_rows(rows))
            assert len(searches) <= ceiling, name


class _SmithInputs:
    """Small and awkward forms; each subclass compares them its own way."""

    @staticmethod
    def assert_matches(a: IntMatrix):
        raise NotImplementedError

    def test_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 2), (4, 1), (1, 4)]:
            self.assert_matches(IntMatrix(r, c, [0] * (r * c)))
        for e in (-7, -1, 0, 1, 12):
            self.assert_matches(IntMatrix.from_rows([[e]]))

    def test_random_square_and_rectangular(self):
        rng = random.Random(6161)
        for _ in range(200):
            r, c = rng.randint(1, 7), rng.randint(1, 7)
            self.assert_matches(IntMatrix.from_rows(random_matrix(rng, r, c, -9, 9)))

    def test_random_singular(self):
        rng = random.Random(6262)
        for _ in range(60):
            n, k = rng.randint(2, 7), rng.randint(1, 3)
            left, right = random_matrix(rng, n, k), random_matrix(rng, k, n)
            a = IntMatrix.from_rows(_matmul(left, right))
            self.assert_matches(a)
            self.assert_matches(IntMatrix.from_rows(random_symmetric(rng, n, -1, 1)))

    def test_mixed_weight_trees(self):
        rng = random.Random(6363)
        for n in (2, 5, 13, 30, 55, 80, 100):
            self.assert_matches(IntMatrix.from_rows(mixed_weight_tree(rng, n)))

    def test_diagonal(self):
        # most of these are out of divisibility order or carry a sign, so
        # the sign and gcd/lcm chain steps run on the diagonal
        values = (-6, -4, 0, 2, 3, 9)
        for x, y, z in itertools.product(values, repeat=3):
            self.assert_matches(IntMatrix.from_rows([[x, 0, 0], [0, y, 0], [0, 0, z]]))
        # longer diagonals of entries sharing some primes, such as (4, 6, 10,
        # 15): a later index then combines two entries that an earlier index
        # already changed, and one sweep must still end in divisibility order
        rng = random.Random(6868)
        for _ in range(150):
            n = rng.randint(4, 6)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.choice((0, 4, -4, 6, 9, 10, 15, 35))
            self.assert_matches(IntMatrix.from_rows(rows))

    def test_two_by_two_block_diagonal(self):
        rng = random.Random(6464)
        for _ in range(60):
            blocks = [random_matrix(rng, 2, 2, -6, 6) for _ in range(rng.randint(2, 3))]
            n = 2 * len(blocks)
            rows = [[0] * n for _ in range(n)]
            for k, block in enumerate(blocks):
                for i in range(2):
                    rows[2 * k + i][2 * k : 2 * k + 2] = block[i]
            self.assert_matches(IntMatrix.from_rows(rows))

    def test_repeated_pivot_search_finds_a_smaller_pivot(self, monkeypatch):
        # Row and column steps leave remainders smaller than the pivot, so
        # each new search at one position finds a strictly smaller pivot and
        # the elimination ends.  A column step logged without writing its
        # remainder into the pivot row would find the same pivot forever.
        find = linalg._find_min_pivot
        sizes = {}

        def checked(m, t, columns):
            pos = find(m, t, columns)
            if pos is not None:
                size = abs(m[pos[0]][pos[1]])
                assert size < sizes.get(t, size + 1), f"pivot {t} did not shrink"
                sizes[t] = size
            return pos

        monkeypatch.setattr(linalg, "_find_min_pivot", checked)
        rng = random.Random(6565)
        for _ in range(100):
            sizes.clear()
            r, c = rng.randint(1, 7), rng.randint(1, 7)
            self.assert_matches(IntMatrix.from_rows(random_matrix(rng, r, c, -9, 9)))

    def test_transforms_are_built_on_first_read(self):
        dec = smith_normal_form(IntMatrix.from_rows(cartan_from_edges(8, E8_EDGES)))
        assert dec.diagonal == (1,) * 8
        assert "u" not in vars(dec) and "v" not in vars(dec)
        assert dec.u is dec.u
        assert "v" not in vars(dec)
        assert dec.v is dec.v
        # the factor rows of U and chosen columns of V never build U or V
        d4 = smith_normal_form(IntMatrix.from_rows(cartan_from_edges(4, [(0, 1), (0, 2), (0, 3)])))
        rows, columns = d4.factor_rows, d4.v_columns([3, 0, 2])
        assert "u" not in vars(d4) and "v" not in vars(d4)
        assert d4.factors == ((2, 2), (3, 2))
        assert rows == tuple(map(tuple, d4.u.to_rows()[2:4]))
        assert columns == [[row[j] for row in d4.v.to_rows()] for j in (3, 0, 2)]


class TestSmithAgainstEager(_SmithInputs):
    """The small forms' U and V, read in full, against the dense logs replayed.

    U and the columns of V must equal the dense reference's step logs
    replayed forward; S and the logs themselves are compared in
    ``TestSmithAgainstDense``.
    """

    @staticmethod
    def assert_matches(a: IntMatrix):
        _, row_steps, col_steps = smith_normal_form_dense(a.to_rows(), a.cols)
        dec = smith_normal_form(a)
        assert dec.u.to_rows() == replay_dense(a.rows, row_steps)
        v_columns = [[row[j] for row in dec.v.to_rows()] for j in range(a.cols)]
        assert v_columns == replay_dense(a.cols, col_steps)
        assert (dec.u.rows, dec.u.cols, dec.v.rows, dec.v.cols) == (a.rows, a.rows, a.cols, a.cols)


class TestSmithAgainstDense(_SmithInputs):
    """S and both step logs against the dense reference.

    The small forms of ``_SmithInputs`` run here, and so does a ladder of
    larger and sparser forms.  U and V are not read: replaying them would
    more than double the time of the larger rungs, and comparing S and
    the logs must not build them.
    """

    @staticmethod
    def assert_matches(a: IntMatrix):
        s, row_steps, col_steps = smith_normal_form_dense(a.to_rows(), a.cols)
        dec = smith_normal_form(a)
        assert dec.s.to_rows() == s
        assert dec.row_steps == row_steps
        assert dec.col_steps == col_steps
        assert "u" not in vars(dec) and "v" not in vars(dec)

    def test_mixed_weight_trees_100_to_200(self):
        rng = random.Random(7171)
        for n in (100, 130, 160, 200):
            self.assert_matches(IntMatrix.from_rows(mixed_weight_tree(rng, n)))

    def test_a_and_d_paths(self):
        for n in sorted({2, 3, 10, 50, 145, 400, *range(2, 400, 17)}):
            self.assert_matches(IntMatrix.from_rows(cartan_a(n)))
        for n in sorted({10, 50, 145, 400, *range(4, 201, 9)}):
            edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
            self.assert_matches(IntMatrix.from_rows(cartan_from_edges(n, edges)))

    def test_e6_e7_e8(self):
        for edges in (E7_EDGES[:-2] + [(2, 5)], E7_EDGES, E8_EDGES):
            self.assert_matches(IntMatrix.from_rows(cartan_from_edges(len(edges) + 1, edges)))

    def test_chains_with_weights_two_to_six(self):
        # paths whose diagonal weights are not all -2
        rng = random.Random(7474)
        for n in (2, 3, 8, 25, 60, 120, 200, 300):
            rows = cartan_a(n)
            for i in range(n):
                rows[i][i] = -rng.randint(2, 6)
            self.assert_matches(IntMatrix.from_rows(rows))

    def test_stars(self):
        for leaves in range(1, 17):  # alpha up to 15
            for centre in (-1, -3, -4, 2):
                rows = [[0] * (leaves + 1) for _ in range(leaves + 1)]
                rows[0][0] = centre
                for v in range(1, leaves + 1):
                    rows[v][v] = -2
                    rows[0][v] = rows[v][0] = (-1) ** v
                self.assert_matches(IntMatrix.from_rows(rows))

    def test_empty_and_rectangular(self):
        rng = random.Random(7272)
        for r, c in [(0, 0), (0, 9), (9, 0), (1, 12), (12, 1), (6, 20), (20, 6), (15, 15)]:
            sparse = [[rng.choice((0, 0, 0, 0, 1, -1, 2, -3)) for _ in range(c)] for _ in range(r)]
            self.assert_matches(IntMatrix.from_rows(sparse) if r else IntMatrix(0, c, []))


def test_smith_work_on_a_path_is_linear():
    # The row pass stops at the last row holding the pivot column, so a
    # path costs the same few lines per pivot: twice the path runs about
    # twice the lines, where a pass over every row below the pivot runs
    # about four times as many.
    def lines(n):
        a = IntMatrix.from_rows(cartan_a(n))
        count = 0

        def trace(frame, event, arg):
            nonlocal count
            if frame.f_code.co_filename != linalg.__file__:
                return None
            count += event == "line"
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            smith_normal_form(a)
        finally:
            sys.settrace(previous)
        return count

    assert lines(400) / lines(200) < 2.5


class TestReplayRows:
    """Chosen rows of U and columns of V equal the rows of the full transforms."""

    @staticmethod
    def forms():
        rng = random.Random(7373)
        yield IntMatrix.from_rows(cartan_from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        for n in (1, 7, 40, 90):
            yield IntMatrix.from_rows(mixed_weight_tree(rng, n))
        for _ in range(20):
            r, c = rng.randint(1, 8), rng.randint(1, 8)
            yield IntMatrix.from_rows(random_matrix(rng, r, c, -9, 9))

    def test_random_subsets_match_the_full_transforms(self):
        rng = random.Random(7474)
        for a in self.forms():
            dec = smith_normal_form(a)
            u, vt = replay_dense(a.rows, dec.row_steps), replay_dense(a.cols, dec.col_steps)
            assert dec.u.to_rows() == u
            assert [[row[j] for row in dec.v.to_rows()] for j in range(a.cols)] == vt
            for steps, full in ((dec.row_steps, u), (dec.col_steps, vt)):
                n = len(full)
                for k in {0, 1, n // 2, n}:
                    picked = rng.sample(range(n), k)
                    assert linalg._replay_rows(n, steps, picked) == [full[r] for r in picked]
            picked = rng.sample(range(a.cols), a.cols // 2)
            assert dec.v_columns(picked) == [vt[j] for j in picked]
            assert dec.factor_rows == tuple(tuple(u[i]) for i, _ in dec.factors)
            # the same rows read first, off a fresh decomposition of a copy of A
            fresh = smith_normal_form(IntMatrix.from_rows(a.to_rows()))
            assert fresh.factor_rows == dec.factor_rows and "u" not in vars(fresh)


class TestCokernel:
    def test_cartan_a4_gives_z5(self):
        assert cokernel(IntMatrix.from_rows(cartan_a(4))) == FinAbGroup(0, (5,))

    def test_d4_gives_z2_z2(self):
        # central vertex 0 joined to three leaves, all weights -2
        d4 = cartan_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert cokernel(IntMatrix.from_rows(d4)) == FinAbGroup(0, (2, 2))

    def test_zero_matrix_is_free(self):
        assert cokernel(IntMatrix(2, 2, [0] * 4)) == FinAbGroup(2, ())

    def test_rectangular(self):
        # diag(2, 3) is equivalent to diag(1, 6): the chain absorbs coprimes
        a = IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]])
        assert cokernel(a) == FinAbGroup(0, (6,))

    def test_against_coset_enumeration(self):
        rng = random.Random(5150)
        tried = 0
        while tried < 25:
            n = rng.randint(1, 3)
            rows = random_matrix(rng, n, n, -4, 4)
            det = bareiss_det(rows)
            if det == 0 or abs(det) > 30:
                continue
            tried += 1
            group = CosetGroup(rows)
            assert group.order == abs(det)
            got = cokernel(IntMatrix.from_rows(rows))
            assert got.free_rank == 0
            assert got.invariant_factors == group.invariant_factors()
            assert got.order() == abs(det)


class TestSignature:
    def test_examples(self):
        assert signature(IntMatrix.from_rows([[-2]])) == -1
        assert signature(IntMatrix.from_rows(cartan_from_edges(8, E8_EDGES))) == -8
        assert signature(IntMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 0]])) == 0

    def test_hyperbolic_block(self):
        assert signature(IntMatrix.from_rows([[0, 3], [3, 0]])) == 0
        assert signature(IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 5]])) == 1

    def test_a_matrix_keeps_its_one_signature(self):
        for rows in (CARTAN_A2, [[0, 3], [3, 4]], [[0]]):
            a = IntMatrix.from_rows(rows)
            assert signature(a) == signature_fraction(a)
            # the second call reads the value kept on A, and eliminates nothing
            vars(a)["_signature"] = planted = 10 ** 9
            assert signature(a) == planted
            assert signature(IntMatrix.from_rows(rows)) == signature_fraction(a)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            signature(IntMatrix.from_rows([[0, 1], [2, 0]]))
        with pytest.raises(NotSymmetric):
            signature(IntMatrix.from_rows([[1, 2, 3], [2, 1, 4]]))

    def test_against_root_counting(self):
        rng = random.Random(777)
        for _ in range(80):
            n = rng.randint(1, 6)
            rows = random_symmetric(rng, n)
            assert signature(IntMatrix.from_rows(rows)) == signature_by_root_count(rows)

    @pytest.mark.parametrize("rows, sigma", [
        ([[0, 0, 0, 0, 0, -2, -3], [0, 0, 0, 1, 3, 0, 0], [0, 0, 0, -1, 2, 0, 2],
          [0, 1, -1, 0, 0, 0, 0], [0, 3, 2, 0, 0, 1, 0], [-2, 0, 0, 0, 1, 0, 0],
          [-3, 0, 2, 0, 0, 0, 0]], 1),
        # without the scaling these two give a KeyError and sigma = -2
        ([[0, 0, -2, 0, 3, 0], [0, 0, 0, 0, 0, -2], [-2, 0, 0, 0, 0, -1],
          [0, 0, 0, 0, -3, 0], [3, 0, 0, -3, 0, 0], [0, -2, -1, 0, 0, 0]], 0),
        ([[0, 0, -1, 0, -1, 0, -3, 0], [0, 0, 0, 0, 3, 0, 0, -2], [-1, 0, 0, 0, 0, 0, 0, 0],
          [0, 0, 0, 0, 0, 0, 0, -2], [-1, 3, 0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 0, -3, 2],
          [-3, 0, 0, 0, 1, -3, 0, 0], [0, -2, 0, -2, 0, 2, 0, 0]], 0),
    ])
    def test_zero_diagonal_rows_over_different_denominators(self, rows, sigma):
        """The congruence e_i -> e_i + e_j when rows i and j have different denominators.

        Row i is then first scaled to the common denominator (``if fi !=
        1``).  No random form of the suite reaches that branch; each of
        these does, which a line trace of the elimination confirms.
        """
        source = inspect.getsource(linalg).splitlines()
        (test,) = [k for k, line in enumerate(source, 1) if line.strip() == "if fi != 1:"]
        runs = 0
        last = None

        def trace(frame, event, arg):
            nonlocal runs, last
            if frame.f_code.co_filename != linalg.__file__:
                return None
            if event == "line":
                runs += last == test and frame.f_lineno == test + 1  # the test passed
                last = frame.f_lineno
            return trace

        a = IntMatrix.from_rows(rows)
        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            signature(a)
        finally:
            sys.settrace(previous)
        assert runs >= 1
        # again on a fresh matrix (A keeps its value) with the caller's
        # tracer back, so a coverage run sees the branch run
        assert signature(IntMatrix.from_rows(rows)) == sigma == signature_fraction(a) == signature_by_root_count(rows)

    def test_awkward_forms_against_root_counting(self):
        """Zero diagonals, hyperbolic blocks and singular forms, n <= 10."""
        rng = random.Random(4242)
        kinds = {"zero diagonal": 0, "hyperbolic": 0, "singular": 0}
        for _ in range(90):
            n = rng.randint(1, 10)
            kind = rng.choice(sorted(kinds))
            if kind == "hyperbolic":
                # zero diagonal, sparse coupling: only the e_i -> e_i + e_j step applies at first
                rows = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < 0.3:
                            rows[i][j] = rows[j][i] = rng.choice((-3, -1, 1, 2))
            else:
                rows = random_symmetric(rng, n, -3, 3)
                for i in range(n):
                    if kind == "zero diagonal" or rng.random() < 0.3:
                        rows[i][i] = 0
                if kind == "singular" and n >= 2:
                    # make vertex k a copy of vertex j: e_k - e_j is in the kernel
                    j, k = rng.sample(range(n), 2)
                    pick = [j if t == k else t for t in range(n)]
                    rows = [[rows[pick[r]][pick[c]] for c in range(n)] for r in range(n)]
                    assert bareiss_det(rows) == 0
            kinds[kind] += 1
            assert signature(IntMatrix.from_rows(rows)) == signature_by_root_count(rows), rows
        assert min(kinds.values()) >= 20

    @staticmethod
    def leaf_elimination(weights, parent, signs):
        """Signature of a tree form by continued fractions, leaves first.

        Vertex v > 0 hangs below parent[v] < v, so descending order visits
        children before parents.  A vertex whose reduced weight is 0 pairs
        with its parent into a hyperbolic block (one + and one -), which
        cuts the parent off from the rest of the tree; further zero
        children of that parent are left isolated and count nothing.
        """
        n = len(weights)
        reduced = [Fraction(w) for w in weights]
        cut = [False] * n
        zero_child = [False] * n
        pos = neg = 0
        for v in range(n - 1, -1, -1):
            if zero_child[v]:
                pos += 1
                neg += 1
                cut[v] = True
                continue
            e = reduced[v]
            if e > 0:
                pos += 1
            elif e < 0:
                neg += 1
            if v == 0:
                continue
            p = parent[v]
            if e == 0:
                zero_child[p] = True
            else:
                reduced[p] -= Fraction(signs[v] ** 2) / e
        return pos - neg

    def test_random_trees_against_leaf_elimination(self):
        rng = random.Random(8080)
        for _ in range(60):
            n = rng.randint(1, 120)
            parent = [None] + [p for _, p in random_tree_edges(rng, n)]
            signs = [None] + [rng.choice((1, -1)) for _ in range(1, n)]
            weights = [rng.randint(-4, 4) for _ in range(n)]
            rows = [[0] * n for _ in range(n)]
            for v in range(n):
                rows[v][v] = weights[v]
                if v:
                    rows[v][parent[v]] = rows[parent[v]][v] = signs[v]
            expected = self.leaf_elimination(weights, parent, signs)
            assert signature(IntMatrix.from_rows(rows)) == expected

    def test_leaf_elimination_against_root_counting(self):
        rng = random.Random(9090)
        for _ in range(60):
            n = rng.randint(1, 8)
            parent = [None] + [p for _, p in random_tree_edges(rng, n)]
            signs = [None] + [rng.choice((1, -1)) for _ in range(1, n)]
            weights = [rng.randint(-2, 2) for _ in range(n)]
            rows = [[0] * n for _ in range(n)]
            for v in range(n):
                rows[v][v] = weights[v]
                if v:
                    rows[v][parent[v]] = rows[parent[v]][v] = signs[v]
            assert self.leaf_elimination(weights, parent, signs) == signature_by_root_count(rows)

    @pytest.mark.parametrize("vertices, edges", [
        (400, [(i, i + 1) for i in range(399)]),  # A_400
        (200, [(i, i + 1) for i in range(197)] + [(197, 198), (197, 199)]),  # D_200
        (8, E8_EDGES),
    ])
    def test_large_dynkin_forms(self, vertices, edges):
        a = IntMatrix.from_rows(cartan_from_edges(vertices, edges))
        start = time.perf_counter()
        assert signature(a) == -vertices
        # a generous bound: the dense min-fill search took seconds on A_400
        assert time.perf_counter() - start < 1.0


class TestKernelMod2:
    def test_even_matrix_has_full_kernel(self):
        assert kernel_mod2(IntMatrix.from_rows([[-2]])) == [(1,)]

    def test_cartan_a2_invertible_mod2(self):
        assert kernel_mod2(IntMatrix.from_rows(CARTAN_A2)) == []

    def test_cartan_e7_kernel_dimension(self):
        a = IntMatrix.from_rows(cartan_from_edges(7, E7_EDGES))
        basis = kernel_mod2(a)
        assert len(basis) == 1

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            kernel_mod2(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))

    def test_kernel_vectors_satisfy_equation(self):
        rng = random.Random(31337)
        for _ in range(60):
            n = rng.randint(1, 6)
            a = IntMatrix.from_rows(random_matrix(rng, n, n))
            basis = kernel_mod2(a)
            a_rows = a.to_rows()
            for vec in basis:
                prod = [sum(a_rows[i][j] * vec[j] for j in range(n)) for i in range(n)]
                assert all(x % 2 == 0 for x in prod)


class TestFinAbGroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            FinAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FinAbGroup(0, (4, 6))
        with pytest.raises(ValueError):
            FinAbGroup(-1, ())
        for bad in (1.5, 2.0, "1", None):
            with pytest.raises(ValueError, match="free rank"):
                FinAbGroup(bad, ())

    def test_order_and_two_torsion(self):
        g = FinAbGroup(0, (2, 4))
        assert g.order() == 8
        assert g.two_torsion_rank == 2
        assert FinAbGroup(0, (3,)).two_torsion_rank == 0
        with pytest.raises(ValueError):
            FinAbGroup(1, ()).order()

    def test_display(self):
        assert str(FinAbGroup(0, ())) == "0"
        assert str(FinAbGroup(0, (4,))) == "Z_4"
        assert str(FinAbGroup(0, (2, 2))) == "Z_2 + Z_2"
        assert str(FinAbGroup(2, ())) == "Z^2"
        assert str(FinAbGroup(1, (3,))) == "Z + Z_3"

    def test_factors_are_stored_as_a_tuple(self):
        for factors in ([2, 4], (d for d in (2, 4)), (2, 4)):
            g = FinAbGroup(0, factors)
            assert g.invariant_factors == (2, 4) and type(g.invariant_factors) is tuple
            assert hash(g) == hash(FinAbGroup(0, (2, 4)))
        with pytest.raises(ValueError):
            FinAbGroup(0, (d for d in (4, 6)))


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(99)

    def cofactor_det(rows):
        n = len(rows)
        if n == 0:
            return 1
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(minor)
        return total

    for _ in range(40):
        n = rng.randint(0, 5)
        rows = random_matrix(rng, n, n)
        assert bareiss_det(rows) == cofactor_det(rows)


def test_is_symmetric_matches_entry_pairs():
    rng = random.Random(31)

    def pairwise(rows):
        n = len(rows)
        return all(len(r) == n for r in rows) and all(
            rows[i][j] == rows[j][i] for i in range(n) for j in range(i + 1, n))

    cases = [IntMatrix(0, 0, []), IntMatrix(2, 3, [0] * 6)]
    for _ in range(60):
        n = rng.randint(1, 7)
        rows = random_symmetric(rng, n, -2, 2)
        if n > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(n), 2)
            rows[i][j] += rng.choice((-1, 1))  # one broken pair
        cases.append(IntMatrix.from_rows(rows))
        cases.append(IntMatrix.from_rows(random_matrix(rng, n, rng.randint(1, 7), -1, 1)))
    for a in cases:
        assert a.is_symmetric() == pairwise(a.to_rows()), a
