import itertools
import random
from fractions import Fraction

import pytest
from linkimm.errors import (
    FreeRankUnsupported,
    NoPreimageFound,
    NotACocycle,
    NotRationalHomologySphere,
    NotSymmetric,
    NotTwoTorsion,
)
from linkimm.linalg import (
    FinAbGroup,
    IntMatrix,
    SmithDecomposition,
    cokernel,
    kernel_mod2,
    smith_normal_form,
)
from linkimm.plumbing import (
    DynkinLabel,
    PlumbingGraph,
    dynkin_graph,
    intersection_matrix,
    link_first_homology,
)
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
        # Z2Class reduces each coordinate of the sum mod 2
        out.append(Z2Class(tuple(sum(p * vec[i] for p, vec in zip(picks, basis)) for i in range(a.rows))))
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
        assert (-1 * x).coords == (1,)
        assert (2 * x).coords == (2,)
        assert CohClass.zero(g).is_zero

    def test_parent_mismatch(self):
        with pytest.raises(ValueError):
            CohClass(FinAbGroup(0, (2,)), (1,)) + CohClass(FinAbGroup(0, (4,)), (1,))

    @pytest.mark.parametrize("coords", [(), (1,), (1, 0, 0)])
    def test_one_coordinate_per_generator(self, coords):
        with pytest.raises(ValueError, match=f"expected 2 coordinates, got {len(coords)}"):
            CohClass(FinAbGroup(1, (2,)), coords)

    def test_two_torsion_flag(self):
        g = FinAbGroup(0, (4,))
        assert CohClass(g, (2,)).is_two_torsion
        assert not CohClass(g, (1,)).is_two_torsion

    @pytest.mark.parametrize("bad", [1.5, 2.0, "3", Fraction(2), None])
    def test_non_integer_coordinates_raise(self, bad):
        # as for IntMatrix entries: ints only, never a silent int() coercion
        with pytest.raises(ValueError, match="non-integer coordinate"):
            CohClass(FinAbGroup(0, (4,)), (bad,))
        with pytest.raises(ValueError, match="non-integer coordinate"):
            CohClass(FinAbGroup(1, ()), (bad,))
        with pytest.raises(ValueError, match="non-integer bit"):
            Z2Class((1, bad, 0))

    def test_bool_coordinates_become_ints(self):
        c = CohClass(FinAbGroup(1, (4,)), (True, False))
        assert c.coords == (1, 0) and all(type(x) is int for x in c.coords)
        z = Z2Class((True, False, 3))
        assert z.bits == (1, 0, 1) and all(type(x) is int for x in z.bits)

    def test_z2class_takes_an_iterator(self):
        assert Z2Class(b for b in (1, 0, 1)).bits == (1, 0, 1)
        with pytest.raises(ValueError, match="non-integer bit 0.5"):
            Z2Class(b for b in (1, 0.5))


class TestGamma2:
    def test_trivial_group(self):
        g = FinAbGroup(0, ())
        assert gamma2(g) == [CohClass.zero(g)]

    def test_all_two_torsion(self):
        g = FinAbGroup(0, (2, 2))
        sols = gamma2(g)
        assert len(sols) == 4
        assert sorted(s.coords for s in sols) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_odd_order_unique(self):
        g = FinAbGroup(0, (5,))
        assert gamma2(g) == [CohClass.zero(g)]

    def test_free_rank_rejected(self):
        g = FinAbGroup(1, ())
        with pytest.raises(FreeRankUnsupported):
            gamma2(g)

    def test_matches_brute_force_enumeration(self):
        for factors in [(), (2,), (3,), (4,), (2, 2), (2, 4), (3, 9), (2, 6), (4, 8)]:
            g = FinAbGroup(0, factors)
            elements = list(itertools.product(*map(range, g.invariant_factors)))
            expected = sorted(
                c for c in elements
                if all((2 * x) % d == 0 for x, d in zip(c, factors))
            )
            assert sorted(s.coords for s in gamma2(g)) == expected

    def test_classes_equal_the_checked_constructor(self):
        """Every divisibility chain over {2, 3, 4, 6, 8} with alpha <= 6."""
        next_factors = {2: (2, 4, 6, 8), 3: (3, 6), 4: (4, 8), 6: (6,), 8: (8,)}
        chains = [(d,) for d in next_factors]
        groups = [FinAbGroup(0, ())]
        while chains:
            groups += [FinAbGroup(0, c) for c in chains]
            chains = [c + (d,) for c in chains for d in next_factors[c[-1]]
                      if len(c) < 6 and FinAbGroup(0, c + (d,)).two_torsion_rank <= 6]
        assert max(g.two_torsion_rank for g in groups) == 6
        for g in groups:
            per_factor = [[c for c in range(d) if (2 * c) % d == 0] for d in g.invariant_factors]
            expected = [CohClass(g, combo) for combo in itertools.product(*per_factor)]
            got = gamma2(g)
            assert got == expected, g
            assert all(type(c.coords) is tuple and hash(c) == hash(e)
                       for c, e in zip(got, expected))


class TestBockstein:
    def test_a1_generator(self):
        cls = bockstein(A1, Z2Class((1,)))
        assert cls.parent == FinAbGroup(0, (2,))
        assert cls.coords == (1,)

    def test_zero_maps_to_zero(self):
        for mat in [A1, e7_matrix()]:
            assert bockstein(mat, Z2Class((0,) * mat.rows)).is_zero

    def test_e7_generator_nonzero(self):
        a = e7_matrix()
        (gen,) = kernel_mod2(a)
        cls = bockstein(a, Z2Class(gen))
        assert cls.parent == FinAbGroup(0, (2,))
        assert cls.coords == (1,)

    def test_rejects_non_cocycle(self):
        a = IntMatrix.from_rows([[-2, 1], [1, -2]])
        with pytest.raises(NotACocycle):
            bockstein(a, Z2Class((1, 0)))

    def test_rejects_asymmetric(self):
        a = IntMatrix.from_rows([[-2, 1], [0, -2]])
        with pytest.raises(NotSymmetric):
            bockstein(a, Z2Class((0, 0)))

    def test_rejects_degenerate(self):
        a = IntMatrix.from_rows([[0]])
        with pytest.raises(NotRationalHomologySphere):
            bockstein(a, Z2Class((1,)))

    @pytest.mark.parametrize("bits", [(), (0, 0)])
    def test_rejects_a_cochain_of_the_wrong_length(self, bits):
        with pytest.raises(NotACocycle, match="does not match form size 1"):
            bockstein(A1, Z2Class(bits))

    def test_image_is_two_torsion_and_additive(self):
        rng = random.Random(271828)
        for _ in range(40):
            vertices, edges = random_negative_definite_tree(rng)
            a = intersection_matrix(PlumbingGraph(vertices, edges))
            span = kernel_span(a)
            for x in span:
                assert bockstein(a, x).is_two_torsion
            for _ in range(5):
                x, y = rng.choice(span), rng.choice(span)
                x_plus_y = Z2Class(tuple(b + c for b, c in zip(x.bits, y.bits)))
                assert bockstein(a, x_plus_y) == bockstein(a, x) + bockstein(a, y)

    def test_lift_independence_by_brute_force(self):
        """All 2^n integral lifts with coordinates in {b, b-2} give one class."""
        for mat, bits in [
            (A1, (1,)),
            (IntMatrix.from_rows([[-2, 1], [1, -2]]), (0, 0)),
            (e7_matrix(), kernel_mod2(e7_matrix())[0]),
        ]:
            n = mat.rows
            mat_rows = mat.to_rows()
            group = CosetGroup(mat_rows)
            halves = []
            for offsets in itertools.product((0, -2), repeat=n):
                lift = [b + o for b, o in zip(bits, offsets)]
                image = [sum(mat_rows[i][j] * lift[j] for j in range(n)) for i in range(n)]
                assert all(v % 2 == 0 for v in image)
                halves.append(tuple(v // 2 for v in image))
            assert all(group.same_class(h, halves[0]) for h in halves)


class TestBocksteinAgainstCosetOracle:
    """Pin the fast implementation against the coset-enumeration model."""

    def oracle_half(self, mat, bits):
        n = mat.rows
        mat_rows = mat.to_rows()
        image = [sum(mat_rows[i][j] * bits[j] for j in range(n)) for i in range(n)]
        return tuple(v // 2 for v in image)

    @pytest.mark.parametrize("label", [("A", 4), ("A", 5), ("D", 2), ("D", 3), ("E", 6), ("E", 7)])
    def test_equality_structure_matches(self, label):
        a = intersection_matrix(dynkin_graph(DynkinLabel(*label)))
        group = CosetGroup(a.to_rows())
        span = kernel_span(a)
        lib = {x.bits: bockstein(a, x) for x in span}
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
        assert len(gamma2(h)) == doubled_in_image


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
        assert realize_parallelization(a, CohClass.zero(h)) == Z2Class((0,) * 8)

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

    def test_closing_bockstein_catches_a_wrong_preimage(self, monkeypatch):
        # with no columns of V read, the solved preimage is 0, whose Bockstein misses (1,)
        monkeypatch.setattr(SmithDecomposition, "v_columns", lambda self, positions: [])
        with pytest.raises(NoPreimageFound, match="no mod-2 class maps to"):
            realize_parallelization(A1, CohClass(FinAbGroup(0, (2,)), (1,)))

    def test_rejects_asymmetric_with_trivial_kernel(self):
        # odd determinant, so no Bockstein is ever taken: the form is still checked
        a = IntMatrix.from_rows([[1, 1], [0, 1]])
        with pytest.raises(NotSymmetric):
            realize_parallelization(a, CohClass.zero(FinAbGroup(0, ())))

    def test_alpha_15_star_is_one_solve(self, count_calls, record_results):
        # centre -1 with 16 leaves of -2: H^2 = Z_2^14 + Z_28, alpha = 15
        g = PlumbingGraph([(0, -1)] + [(v, -2) for v in range(1, 17)],
                          [(0, v, 1) for v in range(1, 17)])
        a = intersection_matrix(g)
        h = cokernel(a)
        assert h.two_torsion_rank == 15
        target = CohClass(h, tuple(d // 2 if k % 3 else 0 for k, d in enumerate(h.invariant_factors)))
        decs = record_results(smith_normal_form)
        kernel, beta = count_calls(kernel_mod2), count_calls(bockstein)
        x = realize_parallelization(a, target)
        assert (len({id(d) for d in decs}), len(kernel), len(beta)) == (1, 0, 1)
        assert not x.is_zero
        assert all(sum(itertools.compress(row, x.bits)) % 2 == 0 for row in a.to_rows())
        assert bockstein(a, x) == target

    def test_reads_columns_of_v_only(self, record_results):
        decs = record_results(smith_normal_form)
        for leaves in range(1, 9):
            g = PlumbingGraph([(0, -1)] + [(v, -2) for v in range(1, leaves + 1)],
                              [(0, v, 1) for v in range(1, leaves + 1)])
            a = intersection_matrix(g)
            h = cokernel(a)
            if h.free_rank:  # centre -1 with two leaves is degenerate
                continue
            for target in gamma2(h):
                del decs[:]
                realize_parallelization(a, target)
                assert len({id(d) for d in decs}) == 1
                assert "u" not in vars(decs[0]) and "v" not in vars(decs[0])

    @staticmethod
    def first_preimages(a):
        """Brute force: the first candidate in product order hitting each class."""
        first = {}
        for candidate in kernel_span(a):
            first.setdefault(bockstein(a, candidate).coords, candidate)
        return first

    def assert_matches_brute_force(self, a):
        h = cokernel(a)
        first = self.first_preimages(a)
        targets = gamma2(h)
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
            a = intersection_matrix(PlumbingGraph(vertices, edges))
            h = cokernel(a)
            if h.free_rank or h.two_torsion_rank > 6 or h.two_torsion_rank in seen:
                continue
            seen.add(h.two_torsion_rank)
            self.assert_matches_brute_force(a)

    def test_matches_brute_force_on_random_trees(self):
        rng = random.Random(314159)
        for _ in range(40):
            vertices, edges = random_negative_definite_tree(rng)
            self.assert_matches_brute_force(intersection_matrix(PlumbingGraph(vertices, edges)))

    def test_surjectivity_on_random_trees(self):
        rng = random.Random(314159)
        from linkimm.linalg import cokernel

        for _ in range(40):
            vertices, edges = random_negative_definite_tree(rng)
            g = PlumbingGraph(vertices, edges)
            a = intersection_matrix(g)
            h = cokernel(a)
            targets = gamma2(h)
            assert len(targets) == 2 ** link_first_homology(a).two_torsion_rank
            hit = {bockstein(a, realize_parallelization(a, t)).coords for t in targets}
            assert hit == {t.coords for t in targets}
