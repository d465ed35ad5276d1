import json
import random

import pytest
from linkimm import cli
from linkimm.errors import InvalidGraph, InvalidParameter, NotRationalHomologySphere, NotSymmetric
from linkimm.linalg import FinAbGroup, IntMatrix, kernel_mod2, smith_normal_form
from linkimm.plumbing import (
    DynkinLabel,
    PlumbingGraph,
    dynkin_graph,
    filling_euler_characteristic,
    filling_signature,
    intersection_matrix,
    link_first_homology,
    recognize_dynkin,
)

from check import bareiss_det
from oracles import random_negative_definite_tree, random_tree_edges, recognize_dynkin_by_shape


def dynkin_form(family, parameter):
    return intersection_matrix(dynkin_graph(DynkinLabel(family, parameter)))


class TestDynkinLabel:
    def test_accepts_valid(self):
        assert DynkinLabel("A", 2).name == "A_1"
        assert DynkinLabel("A", 10).name == "A_9"
        assert DynkinLabel("D", 2).name == "D_4"
        assert DynkinLabel("D", 15).name == "D_17"
        assert DynkinLabel("E", 7).name == "E_7"

    @pytest.mark.parametrize("family,param", [("A", 1), ("D", 1), ("D", 0), ("E", 5), ("E", 9), ("F", 4),
                                              ("A", 3.0), ("E", 6.0), ("E", True), (["A"], 2)])
    def test_rejects_invalid(self, family, param):
        with pytest.raises(InvalidParameter):
            DynkinLabel(family, param)

    def test_vertex_counts(self):
        assert DynkinLabel("A", 2).vertex_count == 1
        assert DynkinLabel("D", 2).vertex_count == 4
        assert DynkinLabel("E", 8).vertex_count == 8


class TestDynkinGraph:
    def test_a1_single_vertex(self):
        g = dynkin_graph(DynkinLabel("A", 2))
        assert g.vertex_count == 1
        assert g.edge_count == 0
        assert g.vertices[0][1] == -2

    def test_e8_shape(self):
        g = dynkin_graph(DynkinLabel("E", 8))
        assert g.vertex_count == 8
        assert g.edge_count == 7
        deg = {v: 0 for v, _ in g.vertices}
        for a, b, s in g.edges:
            assert s == 1
            deg[a] += 1
            deg[b] += 1
        assert sorted(deg.values()).count(3) == 1

    def test_d4_star(self):
        g = dynkin_graph(DynkinLabel("D", 2))
        assert g.vertex_count == 4
        deg = {v: 0 for v, _ in g.vertices}
        for a, b, _ in g.edges:
            deg[a] += 1
            deg[b] += 1
        assert sorted(deg.values()) == [1, 1, 1, 3]

    def test_all_weights_minus_two(self):
        for label in cli.TABLE_LABELS:
            g = dynkin_graph(label)
            assert all(w == -2 for _, w in g.vertices)
            assert g.edge_count == g.vertex_count - 1
            assert g.vertex_count == label.vertex_count

    def test_edges_are_the_textbook_lists_in_order(self):
        # the order of the edges fixes the Smith steps, so U and V, of the form
        def path(last):
            return tuple((i, i + 1, 1) for i in range(last))

        for n in range(2, 401):
            assert dynkin_graph(DynkinLabel("A", n)).edges == path(n - 2)  # A_{n-1}
            assert dynkin_graph(DynkinLabel("D", n)).edges == path(n) + ((n - 1, n + 1, 1),)  # D_{n+2}
        for k in (6, 7, 8):
            assert dynkin_graph(DynkinLabel("E", k)).edges == path(k - 2) + ((2, k - 1, 1),)

    def test_recognized_back(self):
        labels = ([DynkinLabel(f, n) for f in "AD" for n in range(2, 401)]
                  + [DynkinLabel("E", k) for k in (6, 7, 8)])
        for label in labels:
            g = dynkin_graph(label)
            assert recognize_dynkin(g, intersection_matrix(g)) == label

    def test_equals_the_validated_graph(self):
        # the diagram skips the constructor's checks; it must pass them
        labels = ([DynkinLabel(f, n) for f in "AD" for n in range(2, 201)]
                  + [DynkinLabel("E", k) for k in (6, 7, 8)])
        for label in labels:
            g = dynkin_graph(label)
            assert g == PlumbingGraph(g.vertices, g.edges), label
            assert all(type(x) is int for item in g.vertices + g.edges for x in item), label


class TestGraphValidation:
    def test_duplicate_ids(self):
        with pytest.raises(InvalidGraph):
            PlumbingGraph(((0, -2), (0, -3)), ())

    def test_dangling_edge(self):
        with pytest.raises(InvalidGraph):
            PlumbingGraph(((0, -2),), ((0, 1, 1),))

    def test_self_loop(self):
        with pytest.raises(InvalidGraph):
            PlumbingGraph(((0, -2),), ((0, 0, 1),))

    def test_disconnected(self):
        with pytest.raises(InvalidGraph):
            PlumbingGraph(((0, -2), (1, -2)), ())

    def test_bad_sign(self):
        with pytest.raises(InvalidGraph):
            PlumbingGraph(((0, -2), (1, -2)), ((0, 1, 2),))

    def test_empty(self):
        with pytest.raises(InvalidGraph):
            PlumbingGraph((), ())

    @pytest.mark.parametrize("vertices, edges", [
        ([(0, 2.7), (1, -2)], [(0, 1, 1)]),   # float weight
        ([(0, -2), ("1", -2)], [(0, "1")]),   # string id
        ([(0, 2.7), ("1", "-2")], [("0", 1, 1.0)]),
    ], ids=["float-weight", "string-id", "mixed"])
    def test_build_rejects_non_int_values(self, vertices, edges):
        # the constructor does not round or parse a value
        with pytest.raises(InvalidGraph):
            PlumbingGraph(vertices, edges)

    @pytest.mark.parametrize("vertices, edges", [
        (((0,),), ()),
        ((5,), ()),
        ((None,), ()),
        (((0, -2, 1),), ()),
        (((0, -2), (1, -2)), ((0, 1, 1, 1),)),
        (((0, -2), (1, -2)), ((0,),)),
        (((0, -2), (1, -2)), (5,)),
        (((0, -2), (1, -2)), (([0], 1),)),
        (((0, -2), (1, -2)), ((0, 1, [1]),)),
    ], ids=["short-vertex", "int-vertex", "none-vertex", "long-vertex", "long-edge", "short-edge",
            "int-edge", "list-endpoint", "list-sign"])
    def test_malformed_records_raise_invalid_graph(self, vertices, edges):
        with pytest.raises(InvalidGraph, match="record|sign"):
            PlumbingGraph(vertices, edges)

    def test_two_field_edge_has_sign_one(self):
        g = PlumbingGraph(((0, -2), (1, -2)), ((0, 1),))
        assert g.edges == ((0, 1, 1),)
        assert g == PlumbingGraph(iter([(0, -2), (1, -2)]), iter([[0, 1, 1]]))

    def test_json_roundtrip(self):
        g = dynkin_graph(DynkinLabel("E", 6))
        assert PlumbingGraph.from_dict(g.to_dict()) == g

    @pytest.mark.parametrize("vertices, edges", [
        (((0, True),), ()),
        (((True, -2), (2, -3)), ((True, 2, 1),)),
        (((0, -2), (1, -3)), ((0, 1.0, 1),)),
        (((0, -2), (1, -3)), ((0, 1, 1.0),)),
    ], ids=["bool-weight", "bool-id", "float-endpoint", "float-sign"])
    def test_checked_values_round_trip_through_json(self, vertices, edges):
        g = PlumbingGraph(vertices, edges)
        assert PlumbingGraph.from_dict(json.loads(json.dumps(g.to_dict()))) == g
        assert all(type(x) is int for vertex in g.vertices for x in vertex)
        assert all(type(x) is int for edge in g.edges for x in edge)

    def test_json_sign_defaults_to_one(self):
        g = PlumbingGraph.from_dict(
            {"vertices": [{"id": 0, "weight": -2}, {"id": 7, "weight": -3}], "edges": [{"a": 0, "b": 7}]}
        )
        assert g.edges == ((0, 7, 1),)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            {"vertices": [{"id": 0}]},
            {"vertices": [{"id": 0, "weight": -2}], "edges": [{"a": 0}]},
            {"vertices": [{"id": 0, "weight": "x"}]},
            {"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}],
             "edges": [{"a": 0, "b": 1, "sign": 3}]},
            # a record that is a list, a string or null
            *[{"vertices": [{"id": 0, "weight": -2}, item]} for item in ([1, -2], "1", None)],
            *[{"vertices": [{"id": 0, "weight": -2}], "edges": [item]} for item in ([0, 0], "0", None)],
        ],
    )
    def test_json_schema_violations(self, doc):
        with pytest.raises(InvalidGraph):
            PlumbingGraph.from_dict(doc)

    @pytest.mark.parametrize("value", [True, False, 1.0, "1"], ids=["true", "false", "1.0", "string"])
    @pytest.mark.parametrize("key", ["id", "weight", "a", "b", "sign"])
    def test_json_numbers_must_be_json_integers(self, key, value):
        doc = {"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}],
               "edges": [{"a": 0, "b": 1, "sign": 1}]}
        assert PlumbingGraph.from_dict(doc).edges == ((0, 1, 1),)
        record = doc["vertices"][1] if key in ("id", "weight") else doc["edges"][0]
        record[key] = value
        with pytest.raises(InvalidGraph, match="not a JSON integer"):
            PlumbingGraph.from_dict(doc)

    @pytest.mark.parametrize("doc", [
        {"vertices": {"id": 0, "weight": -2}},
        {"vertices": [{"id": 0, "weight": -2}], "edges": {"a": 0, "b": 0}},
    ])
    def test_json_lists_must_be_arrays(self, doc):
        with pytest.raises(InvalidGraph, match="must be arrays"):
            PlumbingGraph.from_dict(doc)


class TestIntersectionMatrix:
    def test_a1(self):
        g = dynkin_graph(DynkinLabel("A", 2))
        assert intersection_matrix(g).to_rows() == [[-2]]

    def test_a2(self):
        g = dynkin_graph(DynkinLabel("A", 3))
        assert intersection_matrix(g).to_rows() == [[-2, 1], [1, -2]]

    def test_negative_edge_sign(self):
        g = PlumbingGraph([(0, -2), (1, -2)], [(0, 1, -1)])
        assert intersection_matrix(g).to_rows() == [[-2, -1], [-1, -2]]

    def test_multi_edges_sum(self):
        g = PlumbingGraph([(0, -1), (1, -3)], [(0, 1, 1), (0, 1, 1), (0, 1, -1)])
        assert intersection_matrix(g).to_rows() == [[-1, 1], [1, -3]]

    def test_always_symmetric(self):
        rng = random.Random(4242)
        graphs = [dynkin_graph(label) for label in cli.TABLE_LABELS]
        graphs += [PlumbingGraph(*random_negative_definite_tree(rng)) for _ in range(30)]
        for g in graphs:
            a = intersection_matrix(g)
            assert vars(a).get("_symmetric") is True  # born symmetric: no scan
            assert a.is_symmetric()

    def test_entries_are_exact_ints(self):
        rng = random.Random(77)
        graphs = [dynkin_graph(label) for label in cli.TABLE_LABELS]
        for _ in range(10):
            vertices, edges = random_negative_definite_tree(rng)
            built = PlumbingGraph(vertices, edges)
            graphs += [built, PlumbingGraph.from_dict(built.to_dict())]
        for g in graphs:
            assert all(type(e) is int for e in intersection_matrix(g).entries)

    def test_checked_non_int_inputs_become_ints(self):
        # bool is an int subclass and 1.0 == 1, so the graph accepts both
        a = intersection_matrix(PlumbingGraph(((0, True),)))
        assert a.entries == (1,) and type(a.entries[0]) is int
        a = intersection_matrix(PlumbingGraph(((0, -2), (1, -3)), ((0, 1, 1.0),)))
        assert a.to_rows() == [[-2, 1], [1, -3]]
        assert all(type(e) is int for e in a.entries)


class TestFillingInvariants:
    def test_signature_examples(self):
        assert filling_signature(dynkin_form("E", 6)) == -6
        assert filling_signature(dynkin_form("D", 3)) == -5
        assert filling_signature(dynkin_form("A", 10)) == -9

    def test_cartan_negative_definite(self):
        for label in cli.TABLE_LABELS:
            g = dynkin_graph(label)
            assert filling_signature(intersection_matrix(g)) == -g.vertex_count

    def test_euler_characteristic(self):
        assert filling_euler_characteristic(dynkin_graph(DynkinLabel("E", 8))) == 9
        assert filling_euler_characteristic(dynkin_graph(DynkinLabel("A", 2))) == 2
        assert filling_euler_characteristic(dynkin_graph(DynkinLabel("D", 15))) == 18

    def test_euler_characteristic_with_cycle(self):
        g = PlumbingGraph(
            [(0, -2), (1, -2), (2, -2)], [(0, 1, 1), (1, 2, 1), (2, 0, 1)]
        )
        assert filling_euler_characteristic(g) == 3  # 1 - b_1 + #V = 1 - 1 + 3


class TestLinkHomology:
    def test_examples(self):
        assert link_first_homology(dynkin_form("D", 3)) == FinAbGroup(0, (4,))
        assert link_first_homology(dynkin_form("E", 6)) == FinAbGroup(0, (3,))
        assert link_first_homology(dynkin_form("E", 8)) == FinAbGroup(0, ())

    def test_a_family_is_cyclic(self):
        for n in range(2, 12):
            g = dynkin_graph(DynkinLabel("A", n))
            assert link_first_homology(intersection_matrix(g)) == FinAbGroup(0, (n,))

    def test_d_family_parity(self):
        for n in range(2, 12):
            g = dynkin_graph(DynkinLabel("D", n))
            expected = (2, 2) if n % 2 == 0 else (4,)
            assert link_first_homology(intersection_matrix(g)).invariant_factors == expected

    def test_degenerate_rejected(self):
        g = PlumbingGraph([(0, 0)])
        with pytest.raises(NotRationalHomologySphere) as exc:
            link_first_homology(intersection_matrix(g))
        assert exc.value.free_rank == 1

    def test_asymmetric_rejected_before_any_elimination(self, count_calls):
        eliminations = count_calls(smith_normal_form)
        for rows in ([[1, 1], [0, 1]], [[0, 1], [0, 0]], [[2, 1, 0]]):  # unimodular, degenerate, not square
            with pytest.raises(NotSymmetric):
                link_first_homology(IntMatrix.from_rows(rows))
        assert not eliminations

    def test_order_equals_det(self):
        rng = random.Random(11)
        for _ in range(25):
            vertices, edges = random_negative_definite_tree(rng)
            g = PlumbingGraph(vertices, edges)
            a = intersection_matrix(g)
            group = link_first_homology(a)
            assert group.order() == abs(bareiss_det(a.to_rows()))


class TestAlpha:
    def test_examples(self):
        assert link_first_homology(dynkin_form("A", 4)).two_torsion_rank == 1
        assert link_first_homology(dynkin_form("D", 2)).two_torsion_rank == 2
        assert link_first_homology(dynkin_form("E", 6)).two_torsion_rank == 0

    def test_matches_mod2_kernel_dimension(self):
        rng = random.Random(6021023)
        graphs = [dynkin_graph(lbl) for lbl in cli.TABLE_LABELS]
        for _ in range(30):
            vertices, edges = random_negative_definite_tree(rng)
            graphs.append(PlumbingGraph(vertices, edges))
        for g in graphs:
            a = intersection_matrix(g)
            assert link_first_homology(a).two_torsion_rank == len(kernel_mod2(a))


class TestRecognizeDynkin:
    def test_rejects_wrong_weight(self):
        g = PlumbingGraph([(0, -3)])
        assert recognize_dynkin(g, intersection_matrix(g)) is None

    def test_rejects_negative_sign(self):
        g = PlumbingGraph([(0, -2), (1, -2)], [(0, 1, -1)])
        assert recognize_dynkin(g, intersection_matrix(g)) is None

    def test_rejects_cycle(self):
        g = PlumbingGraph([(0, -2), (1, -2), (2, -2)], [(0, 1), (1, 2), (2, 0)])
        assert recognize_dynkin(g, intersection_matrix(g)) is None

    def test_rejects_degree_four(self):
        g = PlumbingGraph(
            [(0, -2), (1, -2), (2, -2), (3, -2), (4, -2)],
            [(0, 1), (0, 2), (0, 3), (0, 4)],
        )
        assert recognize_dynkin(g, intersection_matrix(g)) is None

    def test_rejects_two_forks(self):
        # two trivalent vertices: an H-shaped tree
        g = PlumbingGraph(
            [(i, -2) for i in range(6)],
            [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)],
        )
        assert recognize_dynkin(g, intersection_matrix(g)) is None

    def test_recognizes_relabeled_path(self):
        g = PlumbingGraph([(10, -2), (20, -2), (30, -2)], [(30, 20), (20, 10)])
        assert recognize_dynkin(g, intersection_matrix(g)) == DynkinLabel("A", 4)

    def test_rejects_long_e_arm(self):
        # single fork with arms (1, 2, 5): neither D nor E
        edges = [(i, i + 1) for i in range(7)] + [(2, 8)]
        g = PlumbingGraph([(i, -2) for i in range(9)], edges)
        assert recognize_dynkin(g, intersection_matrix(g)) is None

    def test_rejects_t237(self):
        # T(2,3,7), the E10 shape: arms of 1, 2 and 6 edges.  H^2 = 0 as for
        # E8, but sigma = -8, so the form is not definite and no E label is built
        edges = [(i, i + 1) for i in range(8)] + [(2, 9)]
        g = PlumbingGraph([(i, -2) for i in range(10)], edges)
        a = intersection_matrix(g)
        assert (filling_signature(a), link_first_homology(a)) == (-8, FinAbGroup())
        assert recognize_dynkin(g, a) is None

    def test_agrees_with_the_shape_walk(self):
        labels = ([DynkinLabel("A", n) for n in range(2, 62)] + [DynkinLabel("D", n) for n in range(2, 60)]
                  + [DynkinLabel("E", k) for k in (6, 7, 8)])
        for label in labels:
            g = dynkin_graph(label)
            assert recognize_dynkin(g, intersection_matrix(g)) == recognize_dynkin_by_shape(g) == label
        # random recursive -2/+1 trees, some with an extra edge (a cycle or a
        # multi-edge), one -1 or -3 weight, one -1 sign, or a cancelling +1/-1 pair
        rng = random.Random(3102)
        found = set()
        for _ in range(6000):
            n = rng.randint(1, 14)
            vertices = [(i, -2) for i in range(n)]
            edges = [(a, b, 1) for a, b in random_tree_edges(rng, n)]
            change = rng.randrange(5)
            if change == 1 and n > 1:
                edges.append((*rng.sample(range(n), 2), 1))
            elif change == 2:
                k = rng.randrange(n)
                vertices[k] = (k, rng.choice((-1, -3)))
            elif change == 3 and n > 1:
                k = rng.randrange(n - 1)
                edges[k] = (*edges[k][:2], -1)
            elif change == 4 and n > 1:
                a, b = rng.sample(range(n), 2)
                edges += [(a, b, 1), (a, b, -1)]
            g = PlumbingGraph(vertices, edges)
            label = recognize_dynkin_by_shape(g)
            assert recognize_dynkin(g, intersection_matrix(g)) == label, g
            found.add(label.family if label else None)
        assert found == {"A", "D", "E", None}
