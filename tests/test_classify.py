from fractions import Fraction

import pytest
from linkimm import cli
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
from linkimm.plumbing import (
    DynkinLabel,
    PlumbingGraph,
    dynkin_graph,
    filling_euler_characteristic,
    filling_signature,
    intersection_matrix,
    link_first_homology,
)
from linkimm.wu import CohClass

from oracles import SWEEP_LABELS


class TestClassification:
    def test_link_inclusion_examples(self):
        assert classify_link_inclusion(table_row(DynkinLabel("E", 7))).smale_type == -12
        assert classify_link_inclusion(table_row(DynkinLabel("A", 2))).smale_type == -3
        assert classify_link_inclusion(table_row(DynkinLabel("D", 3))).smale_type == -9
        assert classify_link_inclusion(table_row(DynkinLabel("E", 7))).wu.is_zero

    def test_pushforward_examples(self):
        assert classify_kinjo_pushforward(table_row(DynkinLabel("E", 8))).smale_type == -12
        assert classify_kinjo_pushforward(table_row(DynkinLabel("D", 2))).smale_type == -9
        assert classify_kinjo_pushforward(table_row(DynkinLabel("A", 3))).smale_type == -3

    def test_parallelization_tag(self):
        cls = classify_link_inclusion(table_row(DynkinLabel("E", 6)))
        assert cli.class_payload(cls)["parallelization"] == "almost-contact"

    def test_families_agree(self):
        for label in SWEEP_LABELS:
            row = table_row(label)
            c1 = classify_link_inclusion(row)
            c2 = classify_kinjo_pushforward(row)
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

    def test_parity_always_even(self):
        for label in SWEEP_LABELS:
            row = table_row(label)
            assert (row.signature - row.alpha) % 2 == 0

    def test_euler_characteristic_is_the_graphs(self):
        for label in SWEEP_LABELS:
            row = table_row(label)
            assert row.euler_characteristic == filling_euler_characteristic(dynkin_graph(label)), label

    def test_checks_no_connectivity(self, monkeypatch):
        # the library builds the Dynkin diagram unchecked; only outside graphs are checked
        checked = []
        check = PlumbingGraph.__init__

        def counted(g, *args):
            checked.append(g)
            check(g, *args)

        monkeypatch.setattr(PlumbingGraph, "__init__", counted)
        for label in (DynkinLabel("A", 2), DynkinLabel("D", 7), DynkinLabel("E", 8)):
            table_row(label)
        assert checked == []
        PlumbingGraph([(0, -2), (1, -2)], [(0, 1)])
        assert len(checked) == 1


class TestFormalSmaleType:
    def test_integral_case(self):
        a = intersection_matrix(PlumbingGraph([(0, -2)]))
        value, integral = formal_smale_type(filling_signature(a), link_first_homology(a).two_torsion_rank)
        assert integral and value == -3  # sigma = -1, alpha = 1

    def test_non_integral_case(self):
        # sigma = -1, alpha = 0: 3/2*(-1) is a half-integer
        a = intersection_matrix(PlumbingGraph([(0, -3)]))
        value, integral = formal_smale_type(filling_signature(a), link_first_homology(a).two_torsion_rank)
        assert not integral
        assert value == Fraction(-3, 2)
