"""The value semantics every linkimm record shares: repr, equality, hash, immutability.

Each sample is built twice by its factory; the expected repr strings are
the library's published ones and must not drift.  The constructor
``Record`` compiles for a class with no checks of its own takes its
fields as an explicit signature would, every record keeps its fields
out of a per-instance dict, and no record class changes after import.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import linkimm
import pytest
from linkimm import (
    CohClass,
    DynkinLabel,
    FinAbGroup,
    IntMatrix,
    PlumbingGraph,
    Quaternion,
    RegularHomotopyClass,
    RotationMatrix4,
    SingularityRecord,
    SmaleClassR4,
    SmaleClassR5,
    SmithDecomposition,
    TableRow,
    Z2Class,
    dynkin_graph,
    gamma2,
    singularity_record,
    smith_normal_form,
    table_row,
)

G24 = FinAbGroup(0, (2, 4))

SAMPLES = {
    "singularity_record": (
        lambda: singularity_record(DynkinLabel("E", 6)),
        "SingularityRecord(label=DynkinLabel(family='E', parameter=6), germ='x^2 + y^3 + z^4', "
        "group_name='2T (binary tetrahedral)', group_order=24, np_smale=-167)",
    ),
    "singularity_record_kw": (
        lambda: SingularityRecord(label=DynkinLabel("A", 3), germ="x^2 + y^2 + z^3",
                                  group_name="C_3 (cyclic)", group_order=3, np_smale=-8),
        "SingularityRecord(label=DynkinLabel(family='A', parameter=3), germ='x^2 + y^2 + z^3', "
        "group_name='C_3 (cyclic)', group_order=3, np_smale=-8)",
    ),
    "regular_homotopy_class_kw": (
        lambda: RegularHomotopyClass(wu=CohClass.zero(FinAbGroup(0, (2,))), smale_type=-3),
        "RegularHomotopyClass(wu=CohClass(parent=FinAbGroup(free_rank=0, invariant_factors=(2,)), "
        "coords=(0,)), smale_type=-3)",
    ),
    "regular_homotopy_class_positional": (
        lambda: RegularHomotopyClass(CohClass(G24, (0, 2)), 6),
        "RegularHomotopyClass(wu=CohClass(parent=FinAbGroup(free_rank=0, invariant_factors=(2, 4)), "
        "coords=(0, 2)), smale_type=6)",
    ),
    "table_row": (
        lambda: table_row(DynkinLabel("D", 2)),
        "TableRow(label=DynkinLabel(family='D', parameter=2), h2=FinAbGroup(free_rank=0, "
        "invariant_factors=(2, 2)), signature=-4, alpha=2, smale_type=-9, euler_characteristic=5)",
    ),
    "table_row_kw": (
        lambda: TableRow(label=DynkinLabel("A", 2), h2=FinAbGroup(0, (2,)), signature=-1, alpha=1,
                         smale_type=-3, euler_characteristic=2),
        "TableRow(label=DynkinLabel(family='A', parameter=2), h2=FinAbGroup(free_rank=0, "
        "invariant_factors=(2,)), signature=-1, alpha=1, smale_type=-3, euler_characteristic=2)",
    ),
    "smith_decomposition": (
        lambda: smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])),
        "SmithDecomposition(rows=2, cols=2, diagonal=(2, 4))",
    ),
    "smith_decomposition_kw": (
        lambda: SmithDecomposition(rows=1, cols=2, diagonal=(3,), row_steps=(),
                                   col_steps=(("swap", 0, 1, None),)),
        "SmithDecomposition(rows=1, cols=2, diagonal=(3,))",
    ),
    "fin_ab_group": (lambda: FinAbGroup(0, (2, 4)), "FinAbGroup(free_rank=0, invariant_factors=(2, 4))"),
    "fin_ab_group_default": (FinAbGroup, "FinAbGroup(free_rank=0, invariant_factors=())"),
    "dynkin_label": (lambda: DynkinLabel("A", 2), "DynkinLabel(family='A', parameter=2)"),
    "dynkin_label_kw": (lambda: DynkinLabel(family="E", parameter=8), "DynkinLabel(family='E', parameter=8)"),
    "plumbing_graph": (
        lambda: PlumbingGraph(((0, -2), (1, -3)), ((0, 1, 1),)),
        "PlumbingGraph(vertices=((0, -2), (1, -3)), edges=((0, 1, 1),))",
    ),
    "plumbing_graph_kw": (
        lambda: PlumbingGraph(vertices=[(5, True)]),
        "PlumbingGraph(vertices=((5, 1),), edges=())",
    ),
    "smale_class_r4": (lambda: SmaleClassR4(1, -2), "SmaleClassR4(a=1, b=-2)"),
    "smale_class_r5_kw": (lambda: SmaleClassR5(value=-1079), "SmaleClassR5(value=-1079)"),
    "quaternion": (
        lambda: Quaternion.of(1, 0, Fraction(1, 2), -3),
        "Quaternion(r=Fraction(1, 1), i=Fraction(0, 1), j=Fraction(1, 2), k=Fraction(-3, 1))",
    ),
    "rotation_matrix4": (
        lambda: RotationMatrix4.identity(),
        "RotationMatrix4(entries=("
        + ", ".join("(" + ", ".join(f"Fraction({int(i == j)}, 1)" for j in range(4)) + ")"
                    for i in range(4))
        + "))",
    ),
    "coh_class": (
        lambda: CohClass(G24, (3, -1)),
        "CohClass(parent=FinAbGroup(free_rank=0, invariant_factors=(2, 4)), coords=(1, 3))",
    ),
    "coh_class_kw": (
        lambda: CohClass(parent=FinAbGroup(1, (3,)), coords=(4, -7)),
        "CohClass(parent=FinAbGroup(free_rank=1, invariant_factors=(3,)), coords=(1, -7))",
    ),
    "z2_class": (lambda: Z2Class((1, 0, 3, -1)), "Z2Class(bits=(1, 0, 1, 1))"),
    "int_matrix": (
        lambda: IntMatrix.from_rows([[1, -2], [3, True]]),
        "IntMatrix(rows=2, cols=2, entries=(1, -2, 3, 1))",
    ),
    "int_matrix_kw": (
        lambda: IntMatrix(rows=1, cols=3, entries=[0, 5, 0]),
        "IntMatrix(rows=1, cols=3, entries=(0, 5, 0))",
    ),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_repr(name):
    make, expected = SAMPLES[name]
    assert repr(make()) == expected


@pytest.mark.parametrize("name", SAMPLES)
def test_equal_fields_give_equal_objects_and_hashes(name):
    make, _ = SAMPLES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", SAMPLES)
def test_assignment_and_deletion_raise(name):
    make, expected = SAMPLES[name]
    record = make()
    field = expected[expected.index("(") + 1 : expected.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        setattr(record, "extra", 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == expected and not hasattr(record, "extra")


def test_equal_field_values_in_other_classes_are_unequal():
    pairs = [
        (FinAbGroup(0, (2,)), SmaleClassR4(0, (2,))),
        (Z2Class((1, 0, 1)), SmaleClassR5((1, 0, 1))),
        (SmaleClassR5(-1079), -1079),
        (DynkinLabel("A", 2), ("A", 2)),
        (FinAbGroup(0, (2,)), (0, (2,))),
        (IntMatrix(1, 1, [2]), (1, 1, (2,))),
    ]
    for x, y in pairs:
        assert x != y and y != x and not x == y
    assert DynkinLabel("A", 2).__eq__(("A", 2)) is NotImplemented
    assert SmaleClassR5(1).__eq__(Z2Class((1,))) is NotImplemented


def test_smith_steps_take_part_in_equality_but_not_in_repr():
    plain = SmithDecomposition(1, 2, (3,), (), ())
    swapped = SmithDecomposition(1, 2, (3,), (), (("swap", 0, 1, None),))
    assert repr(plain) == repr(swapped)
    assert plain != swapped
    assert plain == SmithDecomposition(1, 2, (3,), (), ())


# the classes whose constructor is the one Record compiles, with one valid argument tuple each
DEFAULT_CONSTRUCTED = {
    SingularityRecord: (DynkinLabel("A", 3), "x^2 + y^2 + z^3", "C_3 (cyclic)", 3, -8),
    TableRow: (DynkinLabel("A", 2), FinAbGroup(0, (2,)), -1, 1, -3, 2),
    SmithDecomposition: (1, 1, (3,), (), ()),
    SmaleClassR4: (1, -2),
    SmaleClassR5: (-1079,),
    Quaternion: (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
}


@pytest.mark.parametrize("cls", DEFAULT_CONSTRUCTED, ids=lambda cls: cls.__name__)
def test_default_constructor_takes_exactly_the_fields(cls):
    args = DEFAULT_CONSTRUCTED[cls]
    assert cls(*args) == cls(**dict(zip(cls._fields, args)))
    with pytest.raises(TypeError, match="missing 1 required positional argument"):
        cls(*args[:-1])
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*args, 0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(*args, extra=0)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*args, **{cls._fields[0]: args[0]})


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info < (3, 11),
                    reason="inline instance values came with CPython 3.11")
def test_gamma2_classes_keep_no_instance_dict():
    class DictBacked:
        """Two fields stored in a real instance dict, as records stored them before.

        Assigning a dict keeps it a dict on every CPython; ``__dict__.update``
        lets 3.13 store the two fields inline instead.
        """

        def __init__(self, parent, coords):
            self.__dict__ = {"parent": parent, "coords": coords}

    group = FinAbGroup(0, (2,) * 14)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        classes = gamma2(group)
        middle = tracemalloc.get_traced_memory()[0]
        backed = [DictBacked(c.parent, c.coords) for c in classes]
        end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n = len(classes)
    # gamma2 also makes each class's coords tuple; DictBacked shares them
    coords = sum(sys.getsizeof(c.coords) for c in classes)
    per_class = (middle - start - sys.getsizeof(classes) - coords) / n
    per_backed = (end - middle - sys.getsizeof(backed)) / n
    assert n == 2 ** 14 and vars(classes[0]) == {"parent": group, "coords": (0,) * 14}
    assert 0 < per_class <= per_backed / 2, (per_class, per_backed)


# Run in a fresh interpreter, so that no earlier test has already called
# any method: prints the attributes of Record classes that a report added,
# replaced or removed after import.
UNCHANGED_AFTER_IMPORT = """
import contextlib, io, json, sys
from linkimm import cli
from linkimm.record import Record

def records(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from records(sub)

before = {cls: dict(vars(cls)) for cls in records(Record)}
path = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["table"], ["link", "E8"], ["smale", "D", "3", "--immersion", "pushforward"],
                 ["graph", path], ["bockstein", path]):
        assert cli.main(argv) == 0, argv
assert list(records(Record)) == list(before)
absent = object()
print(json.dumps(sorted(f"{cls.__qualname__}.{name}" for cls, names in before.items()
                        for name in names.keys() | vars(cls).keys()
                        if names.get(name, absent) is not vars(cls).get(name, absent))))
"""


def test_reports_leave_every_record_class_as_imported(tmp_path):
    path = tmp_path / "d4.json"
    path.write_text(json.dumps(dynkin_graph(DynkinLabel("D", 2)).to_dict()))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(linkimm.__file__)))
    proc = subprocess.run([sys.executable, "-c", UNCHANGED_AFTER_IMPORT, str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
