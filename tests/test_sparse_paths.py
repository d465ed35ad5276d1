"""The sparse-row and integer-only paths against the dense code they replaced.

``signature`` runs fraction-free on ``IntMatrix.nonzero_rows`` and
``kernel_mod2`` keys its echelon by each row's lowest set bit; both must
give exactly what ``oracles.signature_fraction`` and
``oracles.kernel_mod2_dense`` give.  The rows that
``plumbing.intersection_matrix`` builds from the graph must equal the view
read off its dense entries, and the sparse ``is_symmetric``, the symmetry
an intersection form is born with and the ``SmithDecomposition.diagonal``
must agree with their dense definitions.
A matrix born sparse builds its dense entries, and a decomposition its S,
only when something reads them, and then exactly the ones the code built
eagerly before.  The benchmark's tree and star pools come from
``bench/workloads.py``.
"""

import random

import pytest
from linkimm import cli
from linkimm.classify import table_row
from linkimm.linalg import IntMatrix, SmithDecomposition, kernel_mod2, signature, smith_normal_form
from linkimm.plumbing import DynkinLabel, PlumbingGraph, dynkin_graph, intersection_matrix

import workloads
from check import bareiss_det
from oracles import (
    kernel_mod2_dense,
    random_matrix,
    random_symmetric,
    signature_by_root_count,
    signature_fraction,
    smith_normal_form_dense,
)


@pytest.fixture(scope="module")
def pool_graphs():
    """The graphs of the tree_reports and torsion_stars pools at seed 1."""
    return workloads.TreeReports(1).graphs + workloads.TorsionStars(1).graphs


@pytest.fixture(scope="module")
def pool_forms(pool_graphs):
    """The intersection forms of the pool graphs."""
    return [intersection_matrix(g) for g in pool_graphs]


def dense(a: IntMatrix) -> IntMatrix:
    """The same matrix with no sparse rows attached: its view is read off the entries."""
    return IntMatrix(a.rows, a.cols, a.entries)


def random_graph(rng, n):
    """A connected graph with zero weights and repeated edges, some of opposite signs."""
    vertices = [(v, rng.choice((0, 0, -1, 1, -2, 2, -3))) for v in range(n)]
    edges = [(v, rng.randrange(v), rng.choice((1, -1))) for v in range(1, n)]
    for _ in range(rng.randint(0, 2 * n)):
        if n < 2:
            break
        a, b = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        edges.append((a, b, s))
        if rng.random() < 0.5:
            edges.append((b, a, -s))  # cancels the edge just added
    rng.shuffle(edges)
    return PlumbingGraph(tuple(vertices), tuple(edges))


class TestSignature:
    def test_small_forms_match_the_fraction_elimination(self):
        rng = random.Random(2024)
        zero_diagonal = 0
        for k in range(20000):
            n = rng.randint(1, 9)
            rows = random_symmetric(rng, n, -4, 4)
            if k % 2:
                for i in range(n):
                    rows[i][i] = 0
                zero_diagonal += 1
            a = IntMatrix.from_rows(rows)
            assert signature(a) == signature_fraction(a), rows
        assert zero_diagonal == 10000

    def test_the_oracle_matches_root_counting(self):
        # the oracle itself against the characteristic polynomial, with
        # zero diagonals (its 2x2 pivots) and singular forms among them
        rng = random.Random(4048)
        kinds = set()
        for k in range(360):
            n = rng.randint(1, 6)
            rows = random_symmetric(rng, n, -3, 3)
            if k % 2:
                for i in range(n):
                    rows[i][i] = 0
            if k % 3 == 0 and n > 1:
                rows[-1] = list(rows[0])  # a repeated row and column: singular
                for i in range(n):
                    rows[i][-1] = rows[i][0]
            sigma = signature_fraction(IntMatrix.from_rows(rows))
            assert sigma == signature_by_root_count(rows), rows
            kinds.add((k % 2, bareiss_det(rows) == 0))
        assert kinds == {(0, False), (0, True), (1, False), (1, True)}

    def test_a_and_d_paths_up_to_400(self):
        sizes = list(range(2, 400, 23)) + [400]
        labels = [DynkinLabel("A", n + 1) for n in sizes] + [DynkinLabel("D", n - 2) for n in sizes
                                                              if n >= 4]
        for label in labels:
            a = intersection_matrix(dynkin_graph(label))
            assert signature(a) == signature_fraction(a) == -label.vertex_count, label

    def test_tree_and_star_pools(self, pool_forms):
        for a in pool_forms:
            assert signature(a) == signature_fraction(a)

    def test_weights_of_two_to_the_sixty(self):
        rng = random.Random(60)
        big = 2 ** 60
        for _ in range(300):
            n = rng.randint(1, 12)
            g = random_graph(rng, n)
            vertices = tuple((v, rng.choice((big, -big, w))) for v, w in g.vertices)
            a = intersection_matrix(PlumbingGraph(vertices, g.edges))
            assert signature(a) == signature_fraction(a), a.to_rows()
        for _ in range(300):
            n = rng.randint(1, 7)
            rows = random_symmetric(rng, n, -3, 3)
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.3:
                        rows[i][j] = rows[j][i] = rng.choice((big, -big, big + 1, 1 - big))
            a = IntMatrix.from_rows(rows)
            assert signature(a) == signature_fraction(a), rows

    def test_graphs_with_zero_weights_and_cancelling_edges(self):
        rng = random.Random(77)
        for _ in range(400):
            a = intersection_matrix(random_graph(rng, rng.randint(1, 15)))
            assert signature(a) == signature_fraction(a), a.to_rows()


class TestNonzeroRows:
    def test_intersection_matrix_rows_match_the_dense_view(self):
        rng = random.Random(5)
        for _ in range(300):
            a = intersection_matrix(random_graph(rng, rng.randint(1, 20)))
            assert a.nonzero_rows == dense(a).nonzero_rows
            assert all(x for row in a.nonzero_rows for x in row.values())

    def test_view_of_the_dense_entries(self):
        a = IntMatrix.from_rows([[0, 3, 0], [-1, 0, 0]])
        assert a.nonzero_rows == ({1: 3}, {0: -1})
        assert IntMatrix(0, 4, []).nonzero_rows == ()
        assert IntMatrix(2, 0, []).nonzero_rows == ({}, {})

    def test_readers_leave_the_view_unchanged(self, pool_forms):
        for a in pool_forms[:40]:
            before = [dict(row) for row in a.nonzero_rows]
            signature(a)
            kernel_mod2(a)
            assert list(a.nonzero_rows) == before


def test_is_symmetric_matches_the_dense_slices():
    def sliced(a):
        if a.rows != a.cols:
            return False
        n, e = a.cols, a.entries
        return all(e[i * n : (i + 1) * n] == e[i::n] for i in range(n))

    rng = random.Random(13)
    cases = [IntMatrix(0, 0, []), IntMatrix(0, 3, []), IntMatrix(3, 0, []),
             IntMatrix.from_rows([[1, 0], [2, 1]]), IntMatrix.from_rows([[1, 2], [0, 1]]),
             IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])]
    for _ in range(300):
        n = rng.randint(1, 8)
        rows = random_symmetric(rng, n, -2, 2)
        if n > 1 and rng.random() < 0.6:
            i, j = rng.sample(range(n), 2)
            rows[i][j] = 0 if rows[i][j] else rng.choice((-1, 1))  # a zero on one side only
        cases.append(IntMatrix.from_rows(rows))
        cases.append(IntMatrix.from_rows(random_matrix(rng, n, rng.randint(1, 8), -1, 1)))
    # intersection forms are born symmetric and never scanned; graphs with
    # zero weights and cancelling multi-edges must still give symmetric forms
    cases += [intersection_matrix(random_graph(rng, rng.randint(1, 20))) for _ in range(300)]
    for _ in range(60):
        n = rng.randint(2, 8)
        rows = random_symmetric(rng, n, -2, 2)
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = rng.choice((-2, 2))
        rows[i][j] += rng.choice((-1, 1))  # one pair off by one, both sides nonzero
        cases.append(IntMatrix.from_rows(rows))
    for a in cases:
        assert a.is_symmetric() == sliced(a), a


def test_kernel_mod2_matches_the_dense_elimination(pool_forms):
    rng = random.Random(404)
    matrices = list(pool_forms)
    for n in range(41):
        for _ in range(4):
            matrices.append(IntMatrix(n, n, [x for r in random_matrix(rng, n, n) for x in r]))
    for a in matrices:
        assert kernel_mod2(a) == kernel_mod2_dense(a)


def test_diagonal_slice_matches_the_entrywise_definition():
    rng = random.Random(8)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (7, 3)]
    for rows, cols in shapes:
        diagonal = tuple(rng.randint(-9, 9) for _ in range(min(rows, cols)))
        dec = SmithDecomposition(rows, cols, diagonal, (), ())
        s = dec.s.to_rows()
        assert dec.diagonal == tuple(s[i][i] for i in range(min(rows, cols)))


def ladder_graphs(pool_graphs):
    """The pool trees and stars, A/D paths up to 400, weights of +-2^60, cancelling multi-edges."""
    rng = random.Random(61)
    big = 2 ** 60
    sizes = list(range(2, 400, 23)) + [400]
    graphs = list(pool_graphs)
    graphs += [dynkin_graph(DynkinLabel("A", n + 1)) for n in sizes]
    graphs += [dynkin_graph(DynkinLabel("D", n - 2)) for n in sizes if n >= 4]
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 15))
        vertices = tuple((v, rng.choice((big, -big, w))) for v, w in g.vertices)
        graphs += [g, PlumbingGraph(vertices, g.edges)]
    return graphs


def eager_rows(g):
    """The intersection form of g as dense rows, summed entry by entry from weights and edges."""
    index = {v: i for i, (v, _) in enumerate(g.vertices)}
    n = g.vertex_count
    rows = [[0] * n for _ in range(n)]
    for i, (_, w) in enumerate(g.vertices):
        rows[i][i] = w
    for a, b, s in g.edges:
        i, j = index[a], index[b]
        rows[i][j] += s
        rows[j][i] += s
    return rows


class TestDenseOnRead:
    def test_dynkin_reports_build_no_dense_matrix(self, record_results):
        forms = record_results(intersection_matrix)
        decs = record_results(smith_normal_form)
        for label in (DynkinLabel("A", 146), DynkinLabel("D", 144)):
            table_row(label)
            cli.link_payload(label)
        assert forms and decs
        assert not [a for a in forms if "entries" in vars(a)]
        assert not [d for d in decs if {"s", "u", "v"} & vars(d).keys()]

    def test_lazy_entries_equal_the_eager_ones(self, pool_graphs):
        for g in ladder_graphs(pool_graphs):
            rows = eager_rows(g)
            eager = IntMatrix.from_rows(rows)
            a = intersection_matrix(g)
            assert "entries" not in vars(a)
            assert a.to_rows() == rows
            assert a.entries == eager.entries
            b = intersection_matrix(g)  # this time == and hash build the entries
            assert b == eager and hash(b) == hash(eager)
            if g.vertex_count <= 15:
                assert str(intersection_matrix(g)) == str(eager)

    def test_lazy_s_equals_the_eager_one(self, pool_graphs):
        rng = random.Random(62)
        small = [IntMatrix(r, c, [0] * (r * c)) for r, c in [(0, 0), (0, 3), (3, 0), (2, 0), (0, 2), (2, 3)]]
        small += [IntMatrix.from_rows(random_matrix(rng, r, c)) for r in range(1, 7) for c in range(1, 7)]
        for a in small + [intersection_matrix(g) for g in ladder_graphs(pool_graphs)]:
            dec = smith_normal_form(a)
            assert "s" not in vars(dec)
            d = dec.diagonal
            eager = IntMatrix(a.rows, a.cols,
                              [d[i] if i == j else 0 for i in range(a.rows) for j in range(a.cols)])
            assert dec.s == eager
        for a in small:
            s, _, _ = smith_normal_form_dense(a.to_rows(), a.cols)
            assert smith_normal_form(a).s.to_rows() == s
