from fractions import Fraction

import pytest
from linkimm.classify import (
    RegularHomotopyClass,
    are_regularly_homotopic,
    classify_kinjo_pushforward,
    classify_link_inclusion,
    formal_smale_type,
    table_row,
)
from linkimm.errors import IncomparableManifolds, NotTwoTorsion
from linkimm.linalg import FinAbGroup
from linkimm.plumbing import DynkinLabel, PlumbingGraph, alpha, filling_signature
from linkimm.wu import CohClass

ALL_LABELS = (
    [DynkinLabel("A", n) for n in range(2, 51)]
    + [DynkinLabel("D", n) for n in range(2, 51)]
    + [DynkinLabel("E", k) for k in (6, 7, 8)]
)


def expected_table_entry(label):
    """Closed-form table values, written straight from the published table."""
    n = label.parameter
    if label.family == "A":
        h2 = (n,)
        sig = -(n - 1)
        al = 1 if n % 2 == 0 else 0
        smale = -3 * n // 2 if n % 2 == 0 else -3 * (n - 1) // 2
    elif label.family == "D":
        h2 = (2, 2) if n % 2 == 0 else (4,)
        sig = -(n + 2)
        al = 2 if n % 2 == 0 else 1
        smale = -3 * (n + 4) // 2 if n % 2 == 0 else -3 * (n + 3) // 2
    else:
        h2, sig, al, smale = {
            6: ((3,), -6, 0, -9),
            7: ((2,), -7, 1, -12),
            8: ((), -8, 0, -12),
        }[n]
    return h2, sig, al, smale


class TestClassification:
    def test_link_inclusion_examples(self):
        assert classify_link_inclusion(DynkinLabel("E", 7)).smale_type == -12
        assert classify_link_inclusion(DynkinLabel("A", 2)).smale_type == -3
        assert classify_link_inclusion(DynkinLabel("D", 3)).smale_type == -9
        assert classify_link_inclusion(DynkinLabel("E", 7)).wu.is_zero

    def test_pushforward_examples(self):
        assert classify_kinjo_pushforward(DynkinLabel("E", 8)).smale_type == -12
        assert classify_kinjo_pushforward(DynkinLabel("D", 2)).smale_type == -9
        assert classify_kinjo_pushforward(DynkinLabel("A", 3)).smale_type == -3

    def test_parallelization_tag(self):
        cls = classify_link_inclusion(DynkinLabel("E", 6))
        assert cls.parallelization_tag == "almost-contact"

    def test_families_agree(self):
        for label in ALL_LABELS:
            c1 = classify_link_inclusion(label)
            c2 = classify_kinjo_pushforward(label)
            assert are_regularly_homotopic(c1, c2), label


class TestAreRegularlyHomotopic:
    def test_same_group_differs_by_smale_type(self):
        h = FinAbGroup(0, (3,))
        c1 = RegularHomotopyClass(CohClass.zero(h), -12)
        c2 = RegularHomotopyClass(CohClass.zero(h), -9)
        assert not are_regularly_homotopic(c1, c2)

    def test_differs_by_wu(self):
        h = FinAbGroup(0, (2,))
        c1 = RegularHomotopyClass(CohClass.zero(h), -3)
        c2 = RegularHomotopyClass(CohClass(h, (1,)), -3)
        assert not are_regularly_homotopic(c1, c2)

    def test_incomparable_groups(self):
        c1 = RegularHomotopyClass(CohClass.zero(FinAbGroup(0, (2,))), 0)
        c2 = RegularHomotopyClass(CohClass.zero(FinAbGroup(0, (4,))), 0)
        with pytest.raises(IncomparableManifolds):
            are_regularly_homotopic(c1, c2)

    def test_wu_must_be_two_torsion(self):
        h = FinAbGroup(0, (5,))
        with pytest.raises(NotTwoTorsion):
            RegularHomotopyClass(CohClass(h, (1,)), 0)


class TestTableRow:
    def test_examples(self):
        row = table_row(DynkinLabel("E", 6))
        assert (row.h2.invariant_factors, row.signature, row.alpha, row.smale_type) == ((3,), -6, 0, -9)
        row = table_row(DynkinLabel("A", 6))
        assert (row.h2.invariant_factors, row.signature, row.alpha, row.smale_type) == ((6,), -5, 1, -9)
        row = table_row(DynkinLabel("D", 3))
        assert (row.h2.invariant_factors, row.signature, row.alpha, row.smale_type) == ((4,), -5, 1, -9)

    def test_against_closed_forms(self):
        for label in ALL_LABELS:
            row = table_row(label)
            h2, sig, al, smale = expected_table_entry(label)
            assert row.h2 == FinAbGroup(0, h2), label
            assert row.signature == sig, label
            assert row.alpha == al, label
            assert row.smale_type == smale, label

    def test_parity_always_even(self):
        for label in ALL_LABELS:
            row = table_row(label)
            assert (row.signature - row.alpha) % 2 == 0


class TestFormalSmaleType:
    def test_integral_case(self):
        g = PlumbingGraph.build([(0, -2)])
        value, integral = formal_smale_type(filling_signature(g), alpha(g))
        assert integral and value == -3  # sigma = -1, alpha = 1

    def test_non_integral_case(self):
        # sigma = -1, alpha = 0: 3/2*(-1) is a half-integer
        g = PlumbingGraph.build([(0, -3)])
        value, integral = formal_smale_type(filling_signature(g), alpha(g))
        assert not integral
        assert value == Fraction(-3, 2)
