import json
import random
from fractions import Fraction

import pytest
from linkimm import cli
from linkimm.cli import jsonable, main, parse_label
from linkimm.errors import InvalidParameter, NotRationalHomologySphere
from linkimm.linalg import signature, smith_normal_form
from linkimm.plumbing import DynkinLabel, PlumbingGraph, alpha, dynkin_graph

from oracles import random_tree_edges


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_graph(tmp_path, label, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(dynkin_graph(label).to_dict()))
    return str(path)


class TestParseLabel:
    def test_forms(self):
        assert parse_label(["A", "2"]) == DynkinLabel("A", 2)
        assert parse_label(["D", "15"]) == DynkinLabel("D", 15)
        assert parse_label(["E6"]) == DynkinLabel("E", 6)
        assert parse_label(["e7"]) == DynkinLabel("E", 7)
        assert parse_label(["E", "8"]) == DynkinLabel("E", 8)

    @pytest.mark.parametrize("words", [["A2"], ["E"], ["A", "x"], ["Q", "3"], ["E", "9"], ["A", "1"]])
    def test_rejects(self, words):
        with pytest.raises(InvalidParameter):
            parse_label(words)


class TestTable:
    def test_full_table_is_array_of_19_rows(self, capsys):
        doc = run_json(capsys, "table", "--format", "json")
        assert isinstance(doc, list)
        assert len(doc) == 19

    def test_e8_row_values(self, capsys):
        doc = run_json(capsys, "table", "--format", "json")
        e8 = next(r for r in doc if r["label"] == "E_8")
        assert e8["h2"]["invariant_factors"] == []
        assert (e8["signature"], e8["alpha"], e8["smale_type"]) == (-8, 0, -12)

    def test_markdown_contains_e8_row(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "md")
        assert code == 0
        assert "| E_8 | 8 | 0 | -8 | 0 | -12 |" in out

    def test_single_row(self, capsys):
        doc = run_json(capsys, "table", "--family", "A", "--n", "4", "--format", "json")
        (row,) = doc
        assert row["label"] == "A_3"
        assert row["h2"]["display"] == "Z_4"
        assert (row["signature"], row["alpha"], row["smale_type"]) == (-3, 1, -6)

    def test_family_without_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "table", "--family", "A")
        assert code == 2
        assert "error" in err

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "table")
        _, out2, _ = run(capsys, "table")
        assert out1 == out2


class TestLink:
    def test_e8_report(self, capsys):
        doc = run_json(capsys, "link", "E8", "--format", "json")
        assert doc["label"] == "E_8"
        assert doc["smale_r4"]["kinjo"] == {"a": 1079, "b": 0}
        assert doc["smale_r4"]["kinjo-reversed"] == {"a": -1081, "b": 1}
        assert doc["smale_r5"] == {"np": -1079, "pushforward": -1079, "consistent": True}
        assert doc["regularly_homotopic"] is True
        assert doc["link_inclusion"]["wu"] == []
        assert doc["link_inclusion"]["parallelization"] == "almost-contact"

    def test_a2_smale_type(self, capsys):
        doc = run_json(capsys, "link", "A", "2", "--format", "json")
        assert doc["label"] == "A_1"
        assert doc["link_inclusion"]["smale_type"] == -3
        assert doc["germ"] == "x^2 + y^2 + z^2"

    def test_bad_label_exits_2(self, capsys):
        code, _, err = run(capsys, "link", "E", "9")
        assert code == 2
        assert "error" in err

    def test_label_echo_prevents_off_by_one(self, capsys):
        doc = run_json(capsys, "link", "D", "2", "--format", "json")
        assert doc["label"] == "D_4"
        assert doc["n"] == 2


class TestGraph:
    def test_matches_link_plumbing_section(self, capsys, tmp_path):
        path = write_graph(tmp_path, DynkinLabel("E", 6))
        graph_doc = run_json(capsys, "graph", path, "--format", "json")
        link_doc = run_json(capsys, "link", "E6", "--format", "json")
        for key in ("h2", "signature", "alpha", "euler_characteristic"):
            assert graph_doc[key] == link_doc["plumbing"][key]
        assert graph_doc["resolved_label"] == "E_6"
        assert graph_doc["formal"] is False
        assert graph_doc["class"]["smale_type"] == link_doc["link_inclusion"]["smale_type"]

    def test_single_vertex_bockstein_row(self, capsys, tmp_path):
        path = tmp_path / "a1.json"
        path.write_text('{"vertices": [{"id": 0, "weight": -2}]}')
        doc = run_json(capsys, "graph", str(path), "--format", "json")
        assert doc["bockstein"] == [{"kernel_vector": [1], "class": [1]}]
        assert doc["gamma2_zero"] == [[0], [1]]

    def test_degenerate_exits_3(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text('{"vertices": [{"id": 0, "weight": 0}]}')
        code, _, err = run(capsys, "graph", str(path))
        assert code == 3
        assert "free rank 1" in err

    def test_schema_violation_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": [{"id": 0}]}')
        code, _, err = run(capsys, "graph", str(path))
        assert code == 2

    def test_not_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        assert run(capsys, "graph", str(path))[0] == 2

    @pytest.mark.parametrize("content", [
        b'{"vertices": [{"id": 0, "weight": "\xff"}]}',  # not UTF-8
        b'{"vertices": [{"id": 0, "weight": ' + b"7" * 5000 + b"}]}",  # past the int-string limit
        b"[" * 200_000 + b"]" * 200_000,  # nested past the recursion limit
    ], ids=["not-utf8", "huge-int-literal", "deep-nesting"])
    def test_undecodable_file_exits_2(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "graph", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert run(capsys, "graph", str(tmp_path / "absent.json"))[0] == 2

    def test_formal_graph_flagged(self, capsys, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({
            "vertices": [{"id": 0, "weight": -3}, {"id": 1, "weight": -2}],
            "edges": [{"a": 0, "b": 1}],
        }))
        doc = run_json(capsys, "graph", str(path), "--format", "json")
        assert doc["formal"] is True
        assert doc["resolved_label"] is None

    def test_non_integral_smale_type_warns(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"vertices": [{"id": 0, "weight": -3}]}')
        doc = run_json(capsys, "graph", str(path), "--format", "json")
        assert doc["class"]["integral"] is False
        assert doc["class"]["smale_type"] == "-3/2"
        assert "warning" in doc["class"]

    def test_snf_factorization_reported(self, capsys, tmp_path):
        path = write_graph(tmp_path, DynkinLabel("A", 3))
        doc = run_json(capsys, "graph", path, "--format", "json")
        assert doc["intersection_matrix"] == [[-2, 1], [1, -2]]
        assert doc["smith"]["diagonal"] == [1, 3]


class TestBocksteinCommand:
    def test_alias_matches_graph_section(self, capsys, tmp_path):
        path = write_graph(tmp_path, DynkinLabel("D", 2))
        graph_doc = run_json(capsys, "graph", path, "--format", "json")
        bock_doc = run_json(capsys, "bockstein", path, "--format", "json")
        for key in ("h1_z2_basis", "h2", "gamma2_zero", "bockstein"):
            assert bock_doc[key] == graph_doc[key]

    def test_d4_has_two_rows(self, capsys, tmp_path):
        path = write_graph(tmp_path, DynkinLabel("D", 2))
        doc = run_json(capsys, "bockstein", path, "--format", "json")
        assert len(doc["bockstein"]) == 2
        assert len(doc["gamma2_zero"]) == 4

    @staticmethod
    def corpus():
        """Two random trees per alpha = 0..6, stars with alpha 3..8, A/D/E diagrams."""
        rng = random.Random(77)
        trees = {a: [] for a in range(7)}
        while any(len(found) < 2 for found in trees.values()):
            n = rng.randint(8, 40)
            g = PlumbingGraph.from_dict({
                "vertices": [{"id": i, "weight": rng.choice((-2, -2, -2, -4, 2, -1, -3, -5, 1))}
                             for i in range(n)],
                "edges": [{"a": a, "b": b, "sign": rng.choice((1, -1))}
                          for a, b in random_tree_edges(rng, n)],
            })
            try:
                a = alpha(g)
            except NotRationalHomologySphere:
                continue
            if a in trees and len(trees[a]) < 2:
                trees[a].append(g)
        stars = [PlumbingGraph.from_dict({
            "vertices": [{"id": 0, "weight": rng.choice((-1, -5, 1, 3))}]  # 2w != -#leaves
                        + [{"id": i, "weight": -2} for i in range(1, k + 2)],
            "edges": [{"a": 0, "b": i, "sign": rng.choice((1, -1))} for i in range(1, k + 2)],
        }) for k in range(3, 9)]
        dynkin = [dynkin_graph(DynkinLabel(f, n)) for f in "AD" for n in range(2, 10)]
        dynkin += [dynkin_graph(DynkinLabel("E", k)) for k in (6, 7, 8)]
        return [g for found in trees.values() for g in found] + stars + dynkin

    def test_payload_is_the_graph_payload_slice(self):
        keys = ("source", "resolved_label", "formal", "h1_z2_basis", "h2", "gamma2_zero", "bockstein")
        for k, g in enumerate(self.corpus()):
            full = cli.graph_payload(g, f"g{k}")
            assert cli.bockstein_payload(g, f"g{k}") == {key: full[key] for key in keys}

    def test_degenerate_star_exits_3(self, capsys, tmp_path):
        # 2m leaves of weight -2 around a centre of weight -m: det = 0
        path = tmp_path / "star.json"
        path.write_text(json.dumps({
            "vertices": [{"id": 0, "weight": -2}] + [{"id": i, "weight": -2} for i in range(1, 5)],
            "edges": [{"a": 0, "b": i} for i in range(1, 5)],
        }))
        code, out, err = run(capsys, "bockstein", str(path))
        assert code == 3 and not out
        assert "free rank 1" in err


class TestOneAnalysisPerForm:
    """A Dynkin report runs one Smith form and one signature of its form."""

    LABELS = (DynkinLabel("A", 2), DynkinLabel("D", 5), DynkinLabel("E", 8))

    @pytest.mark.parametrize("label", LABELS, ids=str)
    @pytest.mark.parametrize("build", [cli.link_payload, lambda label: cli.table_payload([label])],
                             ids=["link", "table"])
    def test_call_counts(self, count_calls, label, build):
        snf = count_calls(smith_normal_form)
        sig = count_calls(signature)
        build(label)
        assert (len(snf), len(sig)) == (1, 1)


class TestSmale:
    def test_kinjo(self, capsys):
        doc = run_json(capsys, "smale", "D", "2", "--immersion", "kinjo", "--format", "json")
        assert doc["smale_r4"] == {"a": 39, "b": 0}

    def test_np(self, capsys):
        doc = run_json(capsys, "smale", "E7", "--immersion", "np", "--format", "json")
        assert doc["smale_r5"] == -383

    def test_pushforward_verdict(self, capsys):
        doc = run_json(capsys, "smale", "E7", "--immersion", "pushforward", "--format", "json")
        assert doc["smale_r5"] == -383
        assert doc["np"] == -383
        assert doc["verdict"] == "consistent"

    def test_bad_selector_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["smale", "E7", "--immersion", "nonsense"])
        assert exc.value.code == 2


class TestJsonExactness:
    def test_round_trip_against_library(self, capsys):
        from linkimm.classify import table_row
        from linkimm.plumbing import DynkinLabel as L

        doc = run_json(capsys, "table", "--format", "json")
        for row in doc:
            lib = table_row(L(row["family"], row["n"]))
            assert row["signature"] == lib.signature
            assert row["alpha"] == lib.alpha
            assert row["smale_type"] == lib.smale_type
            assert row["h2"]["invariant_factors"] == list(lib.h2.invariant_factors)
            assert row["h2"]["free_rank"] == lib.h2.free_rank

    def test_big_integers_become_strings(self, capsys, tmp_path):
        # weight large enough that H^2 coordinates leave the 53-bit range
        big = -(2 ** 60)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"vertices": [{"id": 0, "weight": big}]}))
        doc = run_json(capsys, "graph", str(path), "--format", "json")
        assert doc["intersection_matrix"] == [[str(big)]]
        assert doc["h2"]["invariant_factors"] == [str(-big)]
        assert int(doc["h2"]["invariant_factors"][0]) == -big

    def test_jsonable_policy(self):
        assert jsonable(2 ** 53 - 1) == 2 ** 53 - 1
        assert jsonable(2 ** 53) == str(2 ** 53)
        assert jsonable(-(2 ** 53)) == str(-(2 ** 53))
        assert jsonable(Fraction(-3, 2)) == "-3/2"
        assert jsonable({"x": [True, None, "s"]}) == {"x": [True, None, "s"]}
        out = jsonable([1, True, 0, False])
        assert out == [1, True, 0, False] and [type(v) for v in out] == [int, bool, int, bool]
        out = jsonable((True, 2))
        assert out == [True, 2] and [type(v) for v in out] == [bool, int]
        big = 2 ** 53
        assert jsonable([[big - 1, big], (-big, 1 - big), [[(big,)]]]) == [
            [big - 1, str(big)], [str(-big), 1 - big], [[[str(big)]]]]
        assert jsonable([Fraction(1, 2), 3, Fraction(4)]) == ["1/2", 3, "4/1"]

    @staticmethod
    def recursive_jsonable(value):
        """The converter before its type-dispatch fast path: the reference."""
        if isinstance(value, bool) or value is None or isinstance(value, str):
            return value
        if isinstance(value, int):
            return value if -(2 ** 53 - 1) <= value <= 2 ** 53 - 1 else str(value)
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        if isinstance(value, (list, tuple)):
            return [TestJsonExactness.recursive_jsonable(v) for v in value]
        if isinstance(value, dict):
            return {k: TestJsonExactness.recursive_jsonable(v) for k, v in value.items()}
        raise TypeError(f"cannot serialize {value!r}")

    def test_jsonable_matches_recursive_reference(self):
        odd = PlumbingGraph.from_dict({"vertices": [{"id": 0, "weight": -3}]})
        big = PlumbingGraph.from_dict({"vertices": [{"id": 0, "weight": -(2 ** 60)}]})
        for g in (dynkin_graph(DynkinLabel("D", 6)), odd, big) + tuple(TestBocksteinCommand.corpus()[:4]):
            payload = cli.graph_payload(g, "g.json")
            expected = self.recursive_jsonable(payload)
            assert json.dumps(jsonable(payload)) == json.dumps(expected)
