from linkimm.catalog import singularity_record
from linkimm.plumbing import DynkinLabel, dynkin_graph
from linkimm.smale import SmaleClassR5, np_smale_invariant

from oracles import SWEEP_LABELS


def test_group_orders():
    assert singularity_record(DynkinLabel("A", 5)).group_order == 5
    assert singularity_record(DynkinLabel("D", 2)).group_order == 8
    assert singularity_record(DynkinLabel("E", 6)).group_order == 24
    assert singularity_record(DynkinLabel("E", 7)).group_order == 48
    assert singularity_record(DynkinLabel("E", 8)).group_order == 120


def test_np_values():
    assert np_smale_invariant(DynkinLabel("A", 4)) == SmaleClassR5(-15)
    assert np_smale_invariant(DynkinLabel("E", 8)) == SmaleClassR5(-1079)
    assert np_smale_invariant(DynkinLabel("D", 2)) == SmaleClassR5(-39)
    assert np_smale_invariant(DynkinLabel("E", 6)) == SmaleClassR5(-167)
    assert np_smale_invariant(DynkinLabel("E", 7)) == SmaleClassR5(-383)


def test_records_are_self_consistent():
    for label in SWEEP_LABELS:
        rec = singularity_record(label)
        assert rec.label == label
        assert rec.group_order >= 2
        assert rec.germ.startswith("x^2")
        assert rec.np_smale < 0


def test_np_equals_negated_degree_formula():
    # The published R^5 value must equal -(#Gamma*(1 + #V) - 1) for every label.
    for label in SWEEP_LABELS:
        order = singularity_record(label).group_order
        verts = dynkin_graph(label).vertex_count
        assert np_smale_invariant(label).value == -(order * (1 + verts) - 1)
