import random
from fractions import Fraction

import pytest
from linkimm.errors import (
    ConsistencyViolation,
    HalfIntegerResult,
    NotDivisibleBy4,
    NotUnit,
)
from linkimm.plumbing import DynkinLabel
from linkimm.smale import (
    QUAT_I,
    QUAT_J,
    QUAT_K,
    QUAT_ONE,
    Quaternion,
    RotationMatrix4,
    SmaleClassR4,
    SmaleClassR5,
    ekholm_szucs_smale,
    ekholm_takase_smale,
    kinjo_smale,
    kinjo_smale_reversed,
    pushforward_j,
    reverse_orientation,
    rho_map,
    sigma_map,
    smale_type_invariant,
)


def rational_unit_quaternions(rng: random.Random, count):
    """Unit quaternions with rational coordinates via the Cayley transform.

    For a pure quaternion v, ((1 - |v|^2) + 2v) / (1 + |v|^2) is a unit;
    this hits every rational point of S^3 except -1, which we add by
    random sign flips.
    """
    out = []
    while len(out) < count:
        v = Quaternion.of(
            0,
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
        )
        n = v.norm_sq()
        d = 1 + n
        u = Quaternion((1 - n) / d, 2 * v.i / d, 2 * v.j / d, 2 * v.k / d)
        if rng.random() < 0.5:
            u = -u
        assert u.is_unit
        out.append(u)
    return out


class TestQuaternionAlgebra:
    def test_defining_relations(self):
        minus_one = -QUAT_ONE
        assert QUAT_I * QUAT_I == minus_one
        assert QUAT_J * QUAT_J == minus_one
        assert QUAT_K * QUAT_K == minus_one
        assert QUAT_I * QUAT_J * QUAT_K == minus_one
        assert QUAT_I * QUAT_J == QUAT_K
        assert QUAT_J * QUAT_K == QUAT_I
        assert QUAT_K * QUAT_I == QUAT_J
        assert QUAT_J * QUAT_I == -QUAT_K

    def test_norm_multiplicative(self):
        rng = random.Random(2)
        for _ in range(20):
            p = Quaternion.of(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            q = Quaternion.of(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()

    def test_inverse(self):
        q = Quaternion.of(Fraction(3, 5), Fraction(4, 5), 0, 0)
        assert q * q.inverse() == QUAT_ONE
        assert q.is_unit

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError, match="zero quaternion"):
            Quaternion.of().inverse()

    @pytest.mark.parametrize("entries", [
        ((1, 0, 0, 0),) * 3,
        ((1, 0, 0, 0),) * 3 + ((1, 0, 0),),
    ])
    def test_rotation_matrix_needs_four_by_four(self, entries):
        with pytest.raises(ValueError, match="4x4"):
            RotationMatrix4(entries)


class TestSigmaMap:
    def test_identity(self):
        assert sigma_map(QUAT_ONE) == RotationMatrix4.identity()

    def test_at_i(self):
        # columns are i*1 = i, i*i = -1, i*j = k, i*k = -j
        m = sigma_map(QUAT_I)
        f = Fraction
        assert m.to_rows() == [
            [f(0), f(-1), f(0), f(0)],
            [f(1), f(0), f(0), f(0)],
            [f(0), f(0), f(0), f(-1)],
            [f(0), f(0), f(1), f(0)],
        ]

    def test_section_property(self):
        q = Quaternion.of(Fraction(3, 5), Fraction(4, 5), 0, 0)
        m = sigma_map(q)
        assert m.column(0) == q.coords()
        assert m.is_special_orthogonal()

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnit):
            sigma_map(Quaternion.of(1, 1, 0, 0))

    def test_random_units_land_in_so4(self):
        rng = random.Random(14)
        for q in rational_unit_quaternions(rng, 25):
            m = sigma_map(q)
            assert m.is_special_orthogonal()
            assert m.column(0) == q.coords()


class TestRhoMap:
    def test_identity_and_center(self):
        assert rho_map(QUAT_ONE) == RotationMatrix4.identity()
        assert rho_map(-QUAT_ONE) == RotationMatrix4.identity()

    def test_at_i(self):
        m = rho_map(QUAT_I)
        f = Fraction
        assert m.to_rows() == [
            [f(1), f(0), f(0), f(0)],
            [f(0), f(1), f(0), f(0)],
            [f(0), f(0), f(-1), f(0)],
            [f(0), f(0), f(0), f(-1)],
        ]

    def test_double_cover_and_fiber(self):
        rng = random.Random(15)
        e1 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        for q in rational_unit_quaternions(rng, 25):
            m = rho_map(q)
            assert m == rho_map(-q)
            assert m.column(0) == e1
            assert m.is_special_orthogonal()

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnit):
            rho_map(Quaternion.of(0, 2, 0, 0))


class TestGroupOperations:
    def test_reverse_orientation_examples(self):
        assert reverse_orientation(SmaleClassR4(1079, 0)) == SmaleClassR4(-1081, 1)
        assert reverse_orientation(SmaleClassR4(3, 0)) == SmaleClassR4(-5, 1)

    def test_reverse_orientation_involution(self):
        rng = random.Random(8)
        assert reverse_orientation(reverse_orientation(SmaleClassR4(0, 0))) == SmaleClassR4(0, 0)
        for _ in range(30):
            s = SmaleClassR4(rng.randint(-999, 999), rng.randint(-999, 999))
            assert reverse_orientation(reverse_orientation(s)) == s

    def test_pushforward_examples(self):
        assert pushforward_j(SmaleClassR4(0, 0)) == SmaleClassR5(0)
        assert pushforward_j(SmaleClassR4(-5, 1)) == SmaleClassR5(-3)
        assert pushforward_j(SmaleClassR4(1, 1)) == SmaleClassR5(3)

    def test_pushforward_is_homomorphism(self):
        rng = random.Random(9)
        for _ in range(30):
            s = SmaleClassR4(rng.randint(-99, 99), rng.randint(-99, 99))
            t = SmaleClassR4(rng.randint(-99, 99), rng.randint(-99, 99))
            assert pushforward_j(s + t) == pushforward_j(s) + pushforward_j(t)
            assert pushforward_j(-s) == -pushforward_j(s)


class TestSeifertFormulas:
    def test_r4_examples(self):
        assert ekholm_takase_smale(1, 0, 0) == SmaleClassR4(0, 0)
        assert ekholm_takase_smale(2, 1, 3) == SmaleClassR4(1, 1)
        assert ekholm_takase_smale(4, 0, 6) == SmaleClassR4(3, 0)

    def test_r4_parity_rejected(self):
        with pytest.raises(NotDivisibleBy4):
            ekholm_takase_smale(1, 1, 0)

    def test_r5_examples(self):
        assert ekholm_szucs_smale(0, 0, 0, 0) == SmaleClassR5(0)
        assert ekholm_szucs_smale(-8) == SmaleClassR5(-12)
        assert ekholm_szucs_smale(-2, 1, 1, 0) == SmaleClassR5(-3)

    def test_r5_parity_rejected(self):
        with pytest.raises(HalfIntegerResult) as exc:
            ekholm_szucs_smale(-1)
        assert exc.value.value == Fraction(-3, 2)

    def test_smale_type_examples(self):
        assert smale_type_invariant(-7, 1) == -12
        assert smale_type_invariant(0, 0) == 0
        assert smale_type_invariant(-6, 0) == -9

    def test_smale_type_parity_rejected(self):
        with pytest.raises(HalfIntegerResult) as exc:
            smale_type_invariant(-5, 0)
        assert exc.value.value == Fraction(-15, 2)


class TestKinjoClasses:
    def test_examples(self):
        assert kinjo_smale(DynkinLabel("E", 6)) == SmaleClassR4(167, 0)
        assert kinjo_smale(DynkinLabel("A", 5)) == SmaleClassR4(24, 0)
        assert kinjo_smale(DynkinLabel("D", 2)) == SmaleClassR4(39, 0)

    def test_reversed_examples(self):
        assert kinjo_smale_reversed(DynkinLabel("E", 7)) == SmaleClassR4(-385, 1)
        assert kinjo_smale_reversed(DynkinLabel("A", 2)) == SmaleClassR4(-5, 1)
        assert kinjo_smale_reversed(DynkinLabel("D", 15)) == SmaleClassR4(-1081, 1)
        assert kinjo_smale_reversed(DynkinLabel("D", 15)) == kinjo_smale_reversed(DynkinLabel("E", 8))

    def test_family_formulas(self):
        for n in range(2, 30):
            assert kinjo_smale(DynkinLabel("A", n)) == SmaleClassR4(n * n - 1, 0)
            assert kinjo_smale(DynkinLabel("D", n)) == SmaleClassR4(4 * n * n + 12 * n - 1, 0)

    def test_pushforward_consistency(self):
        from linkimm.smale import np_smale_invariant

        labels = [DynkinLabel("A", 7), DynkinLabel("D", 5), DynkinLabel("E", 6), DynkinLabel("E", 8)]
        for label in labels:
            assert pushforward_j(kinjo_smale_reversed(label)) == np_smale_invariant(label)

    def test_consistency_guard_on_corrupt_catalog(self, monkeypatch):
        import linkimm.smale as smale
        from linkimm.catalog import SingularityRecord

        e6 = smale.singularity_record(DynkinLabel("E", 6))

        def corrupt(np_smale):
            monkeypatch.setattr(smale, "singularity_record", lambda label: SingularityRecord(
                label, e6.germ, e6.group_name, e6.group_order, np_smale))

        # odd mismatch: rho component would be half-integral
        corrupt(0)
        with pytest.raises(ConsistencyViolation):
            kinjo_smale(DynkinLabel("E", 6))
        # even mismatch: rho component would be a nonzero integer
        corrupt(-165)
        with pytest.raises(ConsistencyViolation):
            kinjo_smale(DynkinLabel("E", 6))

    def test_unique_coincidence_small_range(self):
        seen = {}
        for label in (
            [DynkinLabel("A", n) for n in range(2, 40)]
            + [DynkinLabel("D", n) for n in range(2, 40)]
            + [DynkinLabel("E", k) for k in (6, 7, 8)]
        ):
            seen.setdefault(kinjo_smale_reversed(label), []).append(label.name)
        collisions = {k: v for k, v in seen.items() if len(v) > 1}
        assert collisions == {SmaleClassR4(-1081, 1): ["D_17", "E_8"]}
