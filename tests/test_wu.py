import itertools
import random

import pytest
from linkimm.errors import (
    FreeRankUnsupported,
    NoPreimageFound,
    NotACocycle,
    NotRationalHomologySphere,
    NotSymmetric,
    NotTwoTorsion,
)
from linkimm.linalg import FinAbGroup, IntMatrix, cokernel, kernel_mod2, smith_normal_form
from linkimm.plumbing import DynkinLabel, PlumbingGraph, alpha, dynkin_graph, intersection_matrix
from linkimm.wu import CohClass, Z2Class, bockstein, gamma2, realize_parallelization, wu_switch

from oracles import CosetGroup, random_negative_definite_tree

A1 = IntMatrix.from_rows([[-2]])


def e7_matrix():
    return intersection_matrix(dynkin_graph(DynkinLabel("E", 7)))


def kernel_span(a):
    """All elements of the mod-2 kernel as Z2Class values."""
    basis = kernel_mod2(a)
    out = []
    for picks in itertools.product((0, 1), repeat=len(basis)):
        v = Z2Class.zero(a.rows)
        for take, vec in zip(picks, basis):
            if take:
                v = v + Z2Class(vec)
        out.append(v)
    return out


class TestCohClass:
    def test_reduction_and_equality(self):
        g = FinAbGroup(0, (2, 4))
        assert CohClass(g, (3, 7)) == CohClass(g, (1, 3))
        assert CohClass(g, (1, 0)) != CohClass(g, (0, 1))

    def test_group_law(self):
        g = FinAbGroup(0, (4,))
        x = CohClass(g, (3,))
        assert (x + x).coords == (2,)
        assert (-x).coords == (1,)
        assert (2 * x).coords == (2,)
        assert CohClass.zero(g).is_zero

    def test_parent_mismatch(self):
        with pytest.raises(ValueError):
            CohClass(FinAbGroup(0, (2,)), (1,)) + CohClass(FinAbGroup(0, (4,)), (1,))

    def test_two_torsion_flag(self):
        g = FinAbGroup(0, (4,))
        assert CohClass(g, (2,)).is_two_torsion
        assert not CohClass(g, (1,)).is_two_torsion


class TestGamma2:
    def test_trivial_group(self):
        g = FinAbGroup(0, ())
        assert gamma2(g, CohClass.zero(g)) == [CohClass.zero(g)]

    def test_all_two_torsion(self):
        g = FinAbGroup(0, (2, 2))
        sols = gamma2(g, CohClass.zero(g))
        assert len(sols) == 4
        assert sorted(s.coords for s in sols) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_odd_order_unique(self):
        g = FinAbGroup(0, (5,))
        assert gamma2(g, CohClass.zero(g)) == [CohClass.zero(g)]
        # 2c = 3 mod 5 -> c = 4
        assert gamma2(g, CohClass(g, (3,))) == [CohClass(g, (4,))]

    def test_unsolvable(self):
        g = FinAbGroup(0, (4,))
        assert gamma2(g, CohClass(g, (1,))) == []
        assert [s.coords for s in gamma2(g, CohClass(g, (2,)))] == [(1,), (3,)]

    def test_free_rank_rejected(self):
        g = FinAbGroup(1, ())
        with pytest.raises(FreeRankUnsupported):
            gamma2(g, CohClass.zero(g))

    def test_matches_brute_force_enumeration(self):
        for factors in [(), (2,), (3,), (4,), (2, 2), (2, 4), (3, 9), (2, 6), (4, 8)]:
            g = FinAbGroup(0, factors)
            for chi_coords in g.torsion_elements():
                chi = CohClass(g, chi_coords)
                expected = sorted(
                    c for c in g.torsion_elements()
                    if tuple((2 * x) % d for x, d in zip(c, factors)) == chi.coords
                )
                assert sorted(s.coords for s in gamma2(g, chi)) == expected


class TestBockstein:
    def test_a1_generator(self):
        cls = bockstein(A1, smith_normal_form(A1), Z2Class((1,)))
        assert cls.parent == FinAbGroup(0, (2,))
        assert cls.coords == (1,)

    def test_zero_maps_to_zero(self):
        for mat in [A1, e7_matrix()]:
            assert bockstein(mat, smith_normal_form(mat), Z2Class.zero(mat.rows)).is_zero

    def test_e7_generator_nonzero(self):
        a = e7_matrix()
        (gen,) = kernel_mod2(a)
        cls = bockstein(a, smith_normal_form(a), Z2Class(gen))
        assert cls.parent == FinAbGroup(0, (2,))
        assert cls.coords == (1,)

    def test_rejects_non_cocycle(self):
        a = IntMatrix.from_rows([[-2, 1], [1, -2]])
        with pytest.raises(NotACocycle):
            bockstein(a, smith_normal_form(a), Z2Class((1, 0)))

    def test_rejects_asymmetric(self):
        a = IntMatrix.from_rows([[-2, 1], [0, -2]])
        with pytest.raises(NotSymmetric):
            bockstein(a, smith_normal_form(a), Z2Class((0, 0)))

    def test_rejects_degenerate(self):
        a = IntMatrix.from_rows([[0]])
        with pytest.raises(NotRationalHomologySphere):
            bockstein(a, smith_normal_form(a), Z2Class((1,)))

    def test_image_is_two_torsion_and_additive(self):
        rng = random.Random(271828)
        for _ in range(40):
            vertices, edges = random_negative_definite_tree(rng)
            a = intersection_matrix(PlumbingGraph.build(vertices, edges))
            dec = smith_normal_form(a)
            span = kernel_span(a)
            for x in span:
                assert bockstein(a, dec, x).is_two_torsion
            for _ in range(5):
                x, y = rng.choice(span), rng.choice(span)
                assert bockstein(a, dec, x + y) == bockstein(a, dec, x) + bockstein(a, dec, y)

    def test_lift_independence_by_brute_force(self):
        """All 2^n integral lifts with coordinates in {b, b-2} give one class."""
        for mat, bits in [
            (A1, (1,)),
            (IntMatrix.from_rows([[-2, 1], [1, -2]]), (0, 0)),
            (e7_matrix(), kernel_mod2(e7_matrix())[0]),
        ]:
            n = mat.rows
            group = CosetGroup(mat.to_rows())
            halves = []
            for offsets in itertools.product((0, -2), repeat=n):
                lift = [b + o for b, o in zip(bits, offsets)]
                image = [sum(mat[i, j] * lift[j] for j in range(n)) for i in range(n)]
                assert all(v % 2 == 0 for v in image)
                halves.append(tuple(v // 2 for v in image))
            assert all(group.same_class(h, halves[0]) for h in halves)


class TestBocksteinAgainstCosetOracle:
    """Pin the fast implementation against the coset-enumeration model."""

    def oracle_half(self, mat, bits):
        n = mat.rows
        image = [sum(mat[i, j] * bits[j] for j in range(n)) for i in range(n)]
        return tuple(v // 2 for v in image)

    @pytest.mark.parametrize("label", [("A", 4), ("A", 5), ("D", 2), ("D", 3), ("E", 6), ("E", 7)])
    def test_equality_structure_matches(self, label):
        a = intersection_matrix(dynkin_graph(DynkinLabel(*label)))
        group = CosetGroup(a.to_rows())
        span = kernel_span(a)
        dec = smith_normal_form(a)
        lib = {x.bits: bockstein(a, dec, x) for x in span}
        for x in span:
            for y in span:
                same_by_oracle = group.same_class(self.oracle_half(a, x.bits), self.oracle_half(a, y.bits))
                assert (lib[x.bits] == lib[y.bits]) == same_by_oracle
        # zero detection agrees too
        for x in span:
            assert lib[x.bits].is_zero == group.in_image(self.oracle_half(a, x.bits))

    @pytest.mark.parametrize("label", [("A", 4), ("D", 2), ("D", 3), ("E", 6), ("E", 7)])
    def test_gamma2_zero_size_matches_oracle(self, label):
        from linkimm.linalg import cokernel

        a = intersection_matrix(dynkin_graph(DynkinLabel(*label)))
        group = CosetGroup(a.to_rows())
        doubled_in_image = sum(
            1 for rep in group.reps if group.in_image(tuple(2 * v for v in rep))
        )
        h = cokernel(a)
        assert len(gamma2(h, CohClass.zero(h))) == doubled_in_image


class TestWuSwitch:
    def test_zero_difference(self):
        h = FinAbGroup(0, (2,))
        c0 = CohClass.zero(h)
        assert wu_switch(c0, A1, Z2Class((0,))) == c0

    def test_a1_switch(self):
        h = FinAbGroup(0, (2,))
        nonzero = CohClass(h, (1,))
        assert wu_switch(CohClass.zero(h), A1, Z2Class((1,))) == nonzero
        assert wu_switch(nonzero, A1, Z2Class((1,))) == CohClass.zero(h)


class TestRealizeParallelization:
    def test_zero_target(self):
        h = FinAbGroup(0, (2,))
        assert realize_parallelization(A1, CohClass.zero(h)) == Z2Class((0,))

    def test_a1_nonzero_target(self):
        h = FinAbGroup(0, (2,))
        assert realize_parallelization(A1, CohClass(h, (1,))) == Z2Class((1,))

    def test_e8_trivial_kernel(self):
        a = intersection_matrix(dynkin_graph(DynkinLabel("E", 8)))
        h = FinAbGroup(0, ())
        assert realize_parallelization(a, CohClass.zero(h)) == Z2Class.zero(8)

    def test_rejects_non_torsion_target(self):
        a = intersection_matrix(dynkin_graph(DynkinLabel("A", 5)))
        h = FinAbGroup(0, (5,))
        with pytest.raises(NotTwoTorsion):
            realize_parallelization(a, CohClass(h, (1,)))

    def test_no_preimage_for_foreign_target(self):
        # coker of this form is Z_3: a 2-torsion target from a different
        # group has no preimage and must be reported, not solved for
        a = IntMatrix.from_rows([[-2, 1], [1, -2]])
        foreign = CohClass(FinAbGroup(0, (2,)), (1,))
        with pytest.raises(NoPreimageFound):
            realize_parallelization(a, foreign)

    def test_rejects_asymmetric_with_trivial_kernel(self):
        # odd determinant, so no Bockstein is ever taken: the form is still checked
        a = IntMatrix.from_rows([[1, 1], [0, 1]])
        with pytest.raises(NotSymmetric):
            realize_parallelization(a, CohClass.zero(FinAbGroup(0, ())))

    def test_alpha_15_star_is_one_solve(self, count_calls):
        # centre -1 with 16 leaves of -2: H^2 = Z_2^14 + Z_28, alpha = 15
        g = PlumbingGraph.build([(0, -1)] + [(v, -2) for v in range(1, 17)],
                                [(0, v, 1) for v in range(1, 17)])
        a = intersection_matrix(g)
        h = cokernel(a)
        assert h.two_torsion_rank == 15
        target = CohClass(h, tuple(d // 2 if k % 3 else 0 for k, d in enumerate(h.invariant_factors)))
        snf, kernel, beta = (count_calls(fn) for fn in (smith_normal_form, kernel_mod2, bockstein))
        x = realize_parallelization(a, target)
        assert (len(snf), len(kernel), len(beta)) == (1, 0, 1)
        assert not x.is_zero
        assert all(sum(itertools.compress(a.row(i), x.bits)) % 2 == 0 for i in range(a.rows))
        assert bockstein(a, smith_normal_form(a), x) == target

    @staticmethod
    def first_preimages(a):
        """Brute force: the first candidate in product order hitting each class."""
        dec = smith_normal_form(a)
        first = {}
        for candidate in kernel_span(a):
            first.setdefault(bockstein(a, dec, candidate).coords, candidate)
        return first

    def assert_matches_brute_force(self, a):
        h = cokernel(a)
        first = self.first_preimages(a)
        targets = gamma2(h, CohClass.zero(h))
        assert len(first) == len(targets)
        for target in targets:
            assert realize_parallelization(a, target) == first[target.coords]

    def test_matches_brute_force_on_stars(self):
        rng = random.Random(5150)
        seen = set()
        while len(seen) < 7:
            leaves = rng.randint(1, 8)
            vertices = [(0, rng.randint(-6, -1))] + [(v, rng.choice((-2, -3, -4))) for v in range(1, leaves + 1)]
            edges = [(0, v, rng.choice((1, -1))) for v in range(1, leaves + 1)]
            a = intersection_matrix(PlumbingGraph.build(vertices, edges))
            h = cokernel(a)
            if h.free_rank or h.two_torsion_rank > 6 or h.two_torsion_rank in seen:
                continue
            seen.add(h.two_torsion_rank)
            self.assert_matches_brute_force(a)

    def test_matches_brute_force_on_random_trees(self):
        rng = random.Random(314159)
        for _ in range(40):
            vertices, edges = random_negative_definite_tree(rng)
            self.assert_matches_brute_force(intersection_matrix(PlumbingGraph.build(vertices, edges)))

    def test_surjectivity_on_random_trees(self):
        rng = random.Random(314159)
        from linkimm.linalg import cokernel

        for _ in range(40):
            vertices, edges = random_negative_definite_tree(rng)
            g = PlumbingGraph.build(vertices, edges)
            a = intersection_matrix(g)
            h = cokernel(a)
            targets = gamma2(h, CohClass.zero(h))
            assert len(targets) == 2 ** alpha(g)
            dec = smith_normal_form(a)
            hit = {bockstein(a, dec, realize_parallelization(a, t)).coords for t in targets}
            assert hit == {t.coords for t in targets}
