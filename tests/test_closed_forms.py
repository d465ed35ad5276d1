"""Closed-form and metamorphic oracles from the plumbing calculus.

Every oracle in ``tests/oracles.py`` is brute force or a second
elimination, so it checks exactness only at small n or against the
library's own method.  Topology gives checks that are exact at any size
and cost linear time, so they run here on trees of about 400 vertices and
chains of 2000:

* blow-up invariance (Neumann, "A calculus for plumbing applied to the
  topology of complex surface singularities and degenerating complex
  curves", Trans. AMS 268, 1981, move R1): a vertex of weight e = +-1 added
  as a leaf of u, with w_u -> w_u + e, or subdividing an edge u-v, with
  w_u, w_v -> w_u + e, w_v + e, leaves M unchanged, and on a tree so do
  flipping an edge sign and renumbering the vertices.  H^2, alpha,
  dim H^1(M; Z_2) and |Gamma_2(0)| stay; sigma shifts by exactly e and the
  formal Smale type 3/2 (sigma - alpha) by 3e/2, so its integrality flips.
  On an edge u-v of sign s that lies on a cycle the new edges must carry
  signs -e (u-x) and s (x-v), so that the Schur complement of x gives back
  the edge u-v of sign s; a sign-blind subdivision flips that edge;
* lens spaces: the chain of weights -a_1, ..., -a_n (every a_i >= 2) has
  H^2 = Z/p, where p/q = [a_1, ..., a_n] is the Hirzebruch-Jung continued
  fraction a_1 - 1/(a_2 - 1/(... - 1/a_n)), and sigma = -n;
* Seifert stars: centre weight -b and chain arms of continued fractions
  p_i/q_i give |H^2| = |e| * prod p_i with e = b - sum q_i/p_i, and
  sigma = -(n - 1) - sgn(e); e = 0 is a degenerate form;
* graphs with cycles (grids, random multigraphs): when every weight has
  one sign and |w_v| exceeds the sum of |signs| of the edges at v, the
  form is strictly diagonally dominant, hence definite (Gershgorin), and
  sigma = sgn(w) * n.  Their Smith diagonal multiplies out to |det A|,
  and at n <= 60 the sparse elimination logs the steps of the dense one;
* random graphs of average degree 10 with weights -6..6 give indefinite
  forms with no closed form.  Up to n = 100 their Smith form logs the
  steps of the dense one and multiplies out to |det A|, and sigma
  matches a dense elimination over Q.
"""

import inspect
import math
import random
import sys
from fractions import Fraction

import pytest
from linkimm import linalg
from linkimm.classify import formal_smale_type
from linkimm.errors import NotRationalHomologySphere
from linkimm.linalg import FinAbGroup, cokernel, kernel_mod2, smith_normal_form
from linkimm.plumbing import PlumbingGraph, filling_signature, intersection_matrix, link_first_homology
from linkimm.wu import gamma2

from check import bareiss_det
from oracles import signature_fraction, smith_normal_form_dense


def invariants(g: PlumbingGraph) -> tuple:
    """(coker A, sigma, dim H^1(M; Z_2), |Gamma_2(0)| or None) of a graph's form.

    |Gamma_2(0)| is listed only for a finite H^2 with alpha <= 8.
    """
    a = intersection_matrix(g)
    h2 = cokernel(a)
    listed = None
    if not h2.free_rank and h2.two_torsion_rank <= 8:
        listed = len(gamma2(h2))
    return h2, filling_signature(a), len(kernel_mod2(a)), listed


def random_tree(rng, n):
    """(weights, edges) of a random tree with mixed weights and edge signs."""
    weights = [rng.choice((-2, -2, -3, -3, -4, -1, -5, 1, 2, 0)) for _ in range(n)]
    edges = [(v, rng.randrange(v), rng.choice((1, -1))) for v in range(1, n)]
    return weights, edges


def blow_up(rng, weights, edges, sign_of_move=1):
    """One random blow-up with e = +-1: a new leaf, or a subdivided edge.

    The neighbours' weights move by ``sign_of_move * e``; +1 is move R1,
    which keeps M, and -1 is the wrong move the oracle must tell apart.
    Returns (weights, edges, e).
    """
    e = rng.choice((1, -1))
    new = len(weights)
    weights = weights + [e]
    edges = list(edges)
    if edges and rng.random() < 0.5:
        k = rng.randrange(len(edges))
        u, v, s = edges[k]
        # the u-v entry of the Schur complement of the new vertex is
        # -s * (-e) / e = s, the sign of the edge it replaces
        edges[k:k + 1] = [(u, new, s), (new, v, -e)]
        touched = (u, v)
    else:
        u = rng.randrange(new)
        edges.append((u, new, rng.choice((1, -1))))
        touched = (u,)
    for u in touched:
        weights[u] += sign_of_move * e
    return weights, edges, e


def shuffled(rng, weights, edges):
    """The same tree with renumbered, reordered vertices and some edge signs flipped."""
    ids = rng.sample(range(10 * len(weights)), len(weights))
    vertices = [(ids[v], w) for v, w in enumerate(weights)]
    rng.shuffle(vertices)
    flipped = [(ids[a], ids[b], -s if rng.random() < 0.3 else s) for a, b, s in edges]
    rng.shuffle(flipped)
    return PlumbingGraph(tuple(vertices), tuple(flipped))


def graph(weights, edges) -> PlumbingGraph:
    return PlumbingGraph(tuple(enumerate(weights)), tuple(edges))


class TestBlowUp:
    SIZES = [8, 13, 21, 34, 55, 89, 144, 233, 400]

    def test_blow_ups_keep_the_link(self):
        rng = random.Random(2024)
        moves = 0
        for n in self.SIZES + [rng.randint(5, 60) for _ in range(12)]:
            weights, edges = random_tree(rng, n)
            h2, sigma, h1, listed = invariants(graph(weights, edges))
            shift = 0
            for _ in range(rng.randint(1, 5)):
                weights, edges, e = blow_up(rng, weights, edges)
                shift += e
                moves += 1
            assert invariants(shuffled(rng, weights, edges)) == (h2, sigma + shift, h1, listed), n
            if not h2.free_rank:
                alpha = h2.two_torsion_rank
                before, integral = formal_smale_type(sigma, alpha)
                after, integral_after = formal_smale_type(sigma + shift, alpha)
                assert after - before == Fraction(3 * shift, 2)
                assert integral_after == (integral == (shift % 2 == 0))
        assert moves >= 40

    def test_the_wrong_sign_changes_the_link(self):
        """w_u - e in place of w_u + e: the oracle tells the moves apart."""
        rng = random.Random(7)
        caught = 0
        for _ in range(60):
            weights, edges = random_tree(rng, rng.randint(4, 30))
            h2, sigma, _, _ = invariants(graph(weights, edges))
            weights, edges, e = blow_up(rng, weights, edges, sign_of_move=-1)
            h2_after, sigma_after, _, _ = invariants(graph(weights, edges))
            caught += (h2_after, sigma_after) != (h2, sigma + e)
        assert caught >= 45


def cyclic_graph(rng, n, extra):
    """(weights, edges, on_cycle) of a random tree plus ``extra`` random edges.

    ``on_cycle[k]`` marks the extra edges, each of which closes a cycle
    with the tree path between its ends.
    """
    weights, edges = random_tree(rng, n)
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        edges.append((a, b, rng.choice((1, -1))))
    return weights, edges, [False] * (n - 1) + [True] * extra


def blow_up_cycle_edge(rng, weights, edges, on_cycle, signed=True):
    """Move R1 on a random cycle edge u-v of sign s, with e = +-1.

    A new vertex x of weight e replaces u-v by u-x of sign -e and x-v of
    sign s, and w_u, w_v -> w_u + e, w_v + e.  ``signed=False`` gives u-x
    the sign +1, the sign-blind move.  Returns (weights, edges, on_cycle, e).
    """
    e = rng.choice((1, -1))
    k = rng.choice([i for i, c in enumerate(on_cycle) if c])
    u, v, s = edges[k]
    x = len(weights)
    weights = weights + [e]
    weights[u] += e
    weights[v] += e
    edges = edges[:k] + [(u, x, -e if signed else 1), (x, v, s)] + edges[k + 1:]
    on_cycle = on_cycle[:k] + [True, True] + on_cycle[k + 1:]
    return weights, edges, on_cycle, e


class TestBlowUpOnCycles:
    def test_signed_blow_ups_keep_the_link(self):
        rng = random.Random(1981)
        finite = 0
        for _ in range(150):
            weights, edges, on_cycle = cyclic_graph(rng, rng.randint(3, 30), rng.randint(1, 4))
            h2, sigma, h1, listed = invariants(graph(weights, edges))
            shift = 0
            for _ in range(rng.randint(1, 3)):
                weights, edges, on_cycle, e = blow_up_cycle_edge(rng, weights, edges, on_cycle)
                shift += e
            assert invariants(graph(weights, edges)) == (h2, sigma + shift, h1, listed)
            finite += not h2.free_rank
        assert finite >= 100

    def test_the_sign_blind_move_changes_the_link(self):
        rng = random.Random(1982)
        caught = 0
        for _ in range(100):
            weights, edges, on_cycle = cyclic_graph(rng, rng.randint(3, 30), rng.randint(1, 4))
            h2, sigma, _, _ = invariants(graph(weights, edges))
            weights, edges, _, e = blow_up_cycle_edge(rng, weights, edges, on_cycle, signed=False)
            h2_after, sigma_after, _, _ = invariants(graph(weights, edges))
            caught += (h2_after, sigma_after) != (h2, sigma + e)
        assert caught >= 30


def continued_fraction(a) -> tuple:
    """(p, q) with p/q = [a_1, ..., a_n] = a_1 - 1/(a_2 - 1/(... - 1/a_n)) in lowest terms."""
    p, q = 1, 0
    for x in reversed(a):
        p, q = x * p - q, p
    return p, q


class TestLensSpaces:
    def test_continued_fraction(self):
        assert continued_fraction([2] * 4) == (5, 4)  # A_4: Z/5
        assert continued_fraction([3, 2]) == (5, 2)
        assert continued_fraction([5]) == (5, 1)

    def test_chains(self):
        rng = random.Random(11)
        lengths = [rng.randint(1, 40) for _ in range(40)] + [500, 2000]
        for n in lengths:
            a = [rng.randint(2, 6) for _ in range(n)]
            g = graph([-x for x in a], [(i, i + 1, 1) for i in range(n - 1)])
            p, _ = continued_fraction(a)
            h2 = link_first_homology(intersection_matrix(g))
            assert h2 == FinAbGroup(0, (p,)), n
            assert h2.two_torsion_rank == (p % 2 == 0)
            assert filling_signature(intersection_matrix(g)) == -n
        assert p.bit_length() > 2000  # the 2000-vertex chain


def star(b, arms) -> tuple:
    """(graph, e, prod p_i): centre 0 of weight -b and one chain of weights -a per arm a."""
    weights, edges, e, prod = [-b], [], Fraction(b), 1
    for a in arms:
        previous = 0
        for x in a:
            weights.append(-x)
            edges.append((previous, len(weights) - 1, 1))
            previous = len(weights) - 1
        p, q = continued_fraction(a)
        e -= Fraction(q, p)
        prod *= p
    return graph(weights, edges), e, prod


class TestSeifertStars:
    def check(self, g, e, prod):
        sign = (e > 0) - (e < 0)
        assert filling_signature(intersection_matrix(g)) == -(g.vertex_count - 1) - sign
        if e:
            assert link_first_homology(intersection_matrix(g)).order() == abs(e) * prod
        else:
            with pytest.raises(NotRationalHomologySphere):
                link_first_homology(intersection_matrix(g))

    def test_random_stars(self):
        rng = random.Random(5)
        for k in range(300):
            longest = 60 if k % 30 == 0 else 6
            arms = [[rng.randint(2, 5) for _ in range(rng.randint(1, longest))]
                    for _ in range(rng.randint(1, 5))]
            self.check(*star(rng.randint(-2, 6), arms))

    @pytest.mark.parametrize("b, arms", [
        (1, [[2], [2]]),
        (2, [[2], [2], [2], [2]]),
        (1, [[3], [3], [3]]),
        (1, [[2, 2], [3]]),
    ])
    def test_degenerate_stars(self, b, arms):
        g, e, prod = star(b, arms)
        assert e == 0
        self.check(g, e, prod)


def grid(rng, rows, cols, weight):
    """The rows x cols grid graph, every weight ``weight``, edge signs at random."""
    cells = [[i * cols + j for j in range(cols)] for i in range(rows)]
    edges = [(r[j], r[j + 1]) for r in cells for j in range(cols - 1)]
    edges += [(r[j], below[j]) for r, below in zip(cells, cells[1:]) for j in range(cols)]
    return graph([weight] * (rows * cols), [(a, b, rng.choice((1, -1))) for a, b in edges])


def dominant_multigraph(rng, n, extra, sign):
    """A random connected multigraph with ``extra`` edges beyond a spanning tree.

    About a third of the extra edges come with a twin of the opposite
    sign, so their entries cancel.  Every weight has the sign ``sign`` and
    exceeds in size the sum of |signs| of the edges at its vertex.
    """
    edges = [(v, rng.randrange(v), rng.choice((1, -1))) for v in range(1, n)]
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        edges.append((a, b, s))
        if rng.random() < 0.3:
            edges.append((b, a, -s))
    load = [0] * n
    for a, b, _ in edges:
        load[a] += 1
        load[b] += 1
    rng.shuffle(edges)
    return graph([sign * (load[v] + rng.randint(1, 3)) for v in range(n)], edges)


def degree_ten_graph(rng, n):
    """A random connected multigraph of average degree 10 whose form has det A != 0.

    The edges of ``cyclic_graph`` with 4n + 1 extra edges, and weights in
    -6..6; a draw whose form is degenerate is drawn again.
    """
    while True:
        _, edges, _ = cyclic_graph(rng, n, 4 * n + 1)
        g = graph([rng.randint(-6, 6) for _ in range(n)], edges)
        if bareiss_det(intersection_matrix(g).to_rows()):
            return g


class TestGraphsWithCycles:
    @staticmethod
    def graphs():
        """(graph, sgn w): grids and random multigraphs from 4 to 400 vertices."""
        rng = random.Random(1981)
        out = []
        for rows, cols in [(2, 2), (3, 4), (5, 5), (4, 12), (8, 8), (10, 10), (12, 12), (20, 20)]:
            sign = rng.choice((1, -1))
            out.append((grid(rng, rows, cols, sign * rng.randint(5, 6)), sign))
        for n in [5, 9, 17, 30, 45, 60, 60, 100, 150, 200, 400]:
            sign = rng.choice((1, -1))
            out.append((dominant_multigraph(rng, n, rng.randint(n // 4, n // 2 + 2), sign), sign))
        return out

    def test_dominant_forms_are_definite(self):
        cancelled = 0
        for g, sign in self.graphs():
            assert g.edge_count >= g.vertex_count  # at least one cycle
            a = intersection_matrix(g)
            assert filling_signature(a) == sign * g.vertex_count
            cancelled += sum(len(row) for row in a.nonzero_rows) < g.vertex_count + 2 * g.edge_count
        assert cancelled  # some multigraph lost an entry to a cancelling pair

    def test_smith_diagonal_is_the_determinant(self):
        checked = 0
        for g, _ in self.graphs():
            if g.vertex_count <= 100:  # the dense determinant is cubic
                a = intersection_matrix(g)
                diagonal = smith_normal_form(a).diagonal
                assert len(diagonal) == g.vertex_count
                assert math.prod(diagonal) == abs(bareiss_det(a.to_rows())) != 0
                checked += 1
        assert checked == 14

    def test_smith_matches_the_dense_elimination(self):
        for g, _ in self.graphs():
            if g.vertex_count <= 60:
                a = intersection_matrix(g)
                s, row_steps, col_steps = smith_normal_form_dense(a.to_rows(), a.cols)
                dec = smith_normal_form(a)
                assert dec.s.to_rows() == s
                assert (dec.row_steps, dec.col_steps) == (row_steps, col_steps)

    def test_signature_numerators_obey_hadamard(self):
        """Every reduced row of the signature elimination is bounded by a minor.

        A definite form takes no zero-diagonal step.  After pivots P, row r
        is the Schur row det A[P+r, P+c] / det A[P, P] over its least
        common denominator, which divides det A[P, P], so each numerator
        and the denominator is at most a minor of A in size, and a minor
        is at most the product of the row norms (Hadamard): x^2 <= prod
        |a_i|^2.  Without the gcd reduction the numerators outgrow that
        bound within a few pivots, long before the run would finish.
        """
        lines, first = inspect.getsourcelines(linalg.signature)
        (store,) = [first + k for k, line in enumerate(lines) if line.strip() == "den[r] = dr"]
        forms = [intersection_matrix(grid(random.Random(5), 10, 10, -5))]
        forms += [intersection_matrix(g) for g, _ in self.graphs() if g.vertex_count <= 100]
        for a in forms:
            bound = math.prod(sum(x * x for x in row.values()) for row in a.nonzero_rows)
            checked = 0

            def trace(frame, event, arg):
                nonlocal checked
                if frame.f_code is not linalg.signature.__code__:
                    return None
                if event == "line" and frame.f_lineno == store:
                    values = [frame.f_locals["dr"], *frame.f_locals["row"].values()]
                    assert max(x * x for x in values) <= bound
                    checked += 1
                return trace

            previous = sys.gettrace()
            sys.settrace(trace)
            try:
                assert abs(linalg.signature(a)) == a.rows
            finally:
                sys.settrace(previous)
            assert checked >= a.rows - 1


class TestIndefiniteGraphsWithCycles:
    """Average degree 10: no dominance, so no closed form; the dense oracles decide."""

    @pytest.mark.parametrize("n", [20, 50, 100])
    def test_smith_and_signature_match_the_dense_oracles(self, n):
        a = intersection_matrix(degree_ten_graph(random.Random(7), n))
        rows = a.to_rows()
        dec = smith_normal_form(a)
        s, row_steps, col_steps = smith_normal_form_dense(rows, a.cols)
        assert dec.s.to_rows() == s
        assert (dec.row_steps, dec.col_steps) == (row_steps, col_steps)
        assert math.prod(dec.diagonal) == abs(bareiss_det(rows)) != 0
        assert linalg.signature(a) == signature_fraction(a)
