import random
import time
from fractions import Fraction

import pytest
from linkimm.errors import NotSymmetric
from linkimm.linalg import (
    FinAbGroup,
    IntMatrix,
    cokernel,
    determinant,
    kernel_mod2,
    rank_mod2,
    signature,
    smith_normal_form,
)

from oracles import (
    CosetGroup,
    random_matrix,
    random_symmetric,
    random_tree_edges,
    signature_by_root_count,
    smith_normal_form_eager,
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


def check_decomposition(a: IntMatrix):
    dec = smith_normal_form(a)
    assert dec.u @ a @ dec.v == dec.s
    assert abs(determinant(dec.u)) == 1
    assert abs(determinant(dec.v)) == 1
    diag = dec.diagonal
    assert all(d >= 0 for d in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    # off-diagonal entries vanish
    for i in range(dec.s.rows):
        for j in range(dec.s.cols):
            if i != j:
                assert dec.s[i, j] == 0
    return dec


class TestIntMatrixInput:
    @pytest.mark.parametrize("entry", [2.9, 2.0, "3", Fraction(3), Fraction(7, 2), None], ids=repr)
    def test_constructors_reject_non_int_entries(self, entry):
        with pytest.raises(ValueError, match="non-integer entry"):
            IntMatrix.from_rows([[1, entry], [entry, 4]])
        with pytest.raises(ValueError, match="non-integer entry"):
            IntMatrix.diagonal([1, entry])
        with pytest.raises(ValueError, match="non-integer entry"):
            IntMatrix(1, 1, (entry,))

    def test_ints_and_bools_become_plain_ints(self):
        m = IntMatrix.from_rows([[True, -2], [3, False]])
        assert m.entries == (1, -2, 3, 0)
        assert all(type(e) is int for e in m.entries)
        d = IntMatrix.diagonal([True, 5])
        assert d.entries == (1, 0, 0, 5)
        assert all(type(e) is int for e in d.entries)


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
        check_decomposition(IntMatrix.zero(0, 0))
        check_decomposition(IntMatrix.zero(3, 0))
        check_decomposition(IntMatrix.zero(0, 3))
        check_decomposition(IntMatrix.zero(2, 2))

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


class TestSmithAgainstEager:
    """The logged elimination rebuilds exactly the U, S, V of the eager one."""

    @staticmethod
    def assert_matches(a: IntMatrix):
        u, s, v = smith_normal_form_eager(a.to_rows(), a.cols)
        dec = smith_normal_form(a)
        assert dec.s.to_rows() == s
        assert dec.u.to_rows() == u
        assert dec.v.to_rows() == v
        assert (dec.u.rows, dec.u.cols, dec.v.rows, dec.v.cols) == (a.rows, a.rows, a.cols, a.cols)

    def test_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 2), (4, 1), (1, 4)]:
            self.assert_matches(IntMatrix.zero(r, c))
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
            a = IntMatrix.from_rows(left) @ IntMatrix.from_rows(right)
            self.assert_matches(a)
            self.assert_matches(IntMatrix.from_rows(random_symmetric(rng, n, -1, 1)))

    def test_mixed_weight_trees(self):
        rng = random.Random(6363)
        for n in (2, 5, 13, 30, 55, 80, 100):
            rows = [[0] * n for _ in range(n)]
            for v in range(n):
                rows[v][v] = rng.choice((-2, -2, -3, -3, -4, -1, -5, 1, 2))
            for v, p in random_tree_edges(rng, n):
                rows[v][p] = rows[p][v] = rng.choice((1, -1))
            self.assert_matches(IntMatrix.from_rows(rows))

    def test_transforms_are_built_on_first_read(self):
        dec = smith_normal_form(IntMatrix.from_rows(cartan_from_edges(8, E8_EDGES)))
        assert dec.diagonal == (1,) * 8
        assert "u" not in vars(dec) and "v" not in vars(dec)
        assert dec.u is dec.u
        assert "v" not in vars(dec)
        assert dec.v is dec.v


class TestCokernel:
    def test_cartan_a4_gives_z5(self):
        assert cokernel(IntMatrix.from_rows(cartan_a(4))) == FinAbGroup(0, (5,))

    def test_d4_gives_z2_z2(self):
        # central vertex 0 joined to three leaves, all weights -2
        d4 = cartan_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert cokernel(IntMatrix.from_rows(d4)) == FinAbGroup(0, (2, 2))

    def test_zero_matrix_is_free(self):
        assert cokernel(IntMatrix.zero(2, 2)) == FinAbGroup(2, ())

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
            det = determinant(IntMatrix.from_rows(rows))
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
        assert signature(IntMatrix.diagonal([1, -1, 0])) == 0

    def test_hyperbolic_block(self):
        assert signature(IntMatrix.from_rows([[0, 3], [3, 0]])) == 0
        assert signature(IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 5]])) == 1

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

    def test_awkward_forms_against_root_counting(self):
        """Zero diagonals, hyperbolic blocks and singular forms, n <= 10."""
        rng = random.Random(4242)
        kinds = {"zero diagonal": 0, "hyperbolic": 0, "singular": 0}
        for _ in range(90):
            n = rng.randint(1, 10)
            kind = rng.choice(sorted(kinds))
            if kind == "hyperbolic":
                # zero diagonal, sparse coupling: only hyperbolic steps apply at first
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
                    assert determinant(IntMatrix.from_rows(rows)) == 0
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

    def test_kernel_vectors_satisfy_equation(self):
        rng = random.Random(31337)
        for _ in range(60):
            n = rng.randint(1, 6)
            a = IntMatrix.from_rows(random_matrix(rng, n, n))
            basis = kernel_mod2(a)
            assert len(basis) + rank_mod2(a) == n
            for vec in basis:
                prod = [sum(a[i, j] * vec[j] for j in range(n)) for i in range(n)]
                assert all(x % 2 == 0 for x in prod)


class TestFinAbGroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            FinAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FinAbGroup(0, (4, 6))
        with pytest.raises(ValueError):
            FinAbGroup(-1, ())

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

    def test_element_enumeration(self):
        g = FinAbGroup(0, (2, 4))
        assert sorted(g.torsion_elements()) == [(a, b) for a in range(2) for b in range(4)]
        assert list(FinAbGroup(0, ()).torsion_elements()) == [()]


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
        assert determinant(IntMatrix.from_rows(rows) if n else IntMatrix.zero(0, 0)) == cofactor_det(rows)


def test_is_symmetric_matches_entry_pairs():
    rng = random.Random(31)

    def pairwise(rows):
        n = len(rows)
        return all(len(r) == n for r in rows) and all(
            rows[i][j] == rows[j][i] for i in range(n) for j in range(i + 1, n))

    cases = [IntMatrix.zero(0, 0), IntMatrix.zero(2, 3)]
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
