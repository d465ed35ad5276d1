import io
import json
import os
import random
import runpy
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from linkimm import cli, linalg, wu
from linkimm.catalog import singularity_record
from linkimm.classify import table_row
from linkimm.cli import jsonable, main, parse_label
from linkimm.errors import InvalidParameter, NotRationalHomologySphere
from linkimm.linalg import IntMatrix, cokernel, signature, smith_normal_form
from linkimm.plumbing import (
    DynkinLabel,
    PlumbingGraph,
    dynkin_graph,
    intersection_matrix,
    link_first_homology,
)
from linkimm.smale import kinjo_smale

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

    @pytest.mark.parametrize("words", [["A2"], ["E"], ["A", "x"], ["Q", "3"], ["E", "9"], ["A", "1"],
                                       ["A", "²"], ["E²"], ["A", "--3"], ["A", "2", "3"],
                                       # past int()'s limit of 4300 decimal digits
                                       ["A", "9" * 5000], ["E" + "9" * 5000]])
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
        # a digit that str.isdigit accepts and int() rejects
        assert main(["link", "A", "²"]) == 2
        # more digits than int() converts
        assert main(["link", "A", "9" * 5000]) == 2

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

    BOOL_WEIGHT = '{"vertices": [{"id": 0, "weight": true}]}'
    FLOAT_SIGN = ('{"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}], '
                  '"edges": [{"a": 0, "b": 1, "sign": 1.0}]}')

    @pytest.mark.parametrize("command, doc", [
        pytest.param("graph", BOOL_WEIGHT, id="graph"),
        pytest.param("bockstein", BOOL_WEIGHT, id="bockstein"),
        pytest.param("graph", FLOAT_SIGN, id="graph-float-sign"),
        pytest.param("bockstein", FLOAT_SIGN, id="bockstein-float-sign"),
    ])
    def test_non_integer_number_exits_2(self, capsys, tmp_path, command, doc):
        path = tmp_path / "number.json"
        path.write_text(doc)
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "JSON integer" in err and "Traceback" not in err

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

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # the A_200 report runs to megabytes, far past a pipe's buffer, so
        # the print is still writing when the reader goes away
        path = write_graph(tmp_path, DynkinLabel("A", 201))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.Popen([sys.executable, "-m", "linkimm.cli", "graph", path, "--format", "json"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err, err

    def test_closed_stdout_in_process_points_stdout_at_devnull(self, monkeypatch, tmp_path):
        with open(tmp_path / "out", "w") as target:
            class ClosedStdout:
                def write(self, text):
                    raise BrokenPipeError

                def fileno(self):
                    return target.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedStdout())
            assert main(["link", "E8"]) == 1
            assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))

    @pytest.mark.parametrize("command", ["graph", "bockstein"])
    def test_stdout_that_cannot_write_the_path_exits_2(self, capsys, monkeypatch, tmp_path, command):
        # the markdown header prints the path as given; JSON escapes it
        path = write_graph(tmp_path, DynkinLabel("D", 2), name="d4-\u2713.json")
        written = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(written, encoding="ascii"))
        assert main([command, path]) == 2
        sys.stdout.flush()
        assert written.getvalue() == b""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "ascii" in err and "--format json" in err
        assert main([command, path, "--format", "json"]) == 0
        assert json.loads(written.getvalue())["source"] == path

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
                a = link_first_homology(intersection_matrix(g)).two_torsion_rank
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

    def test_one_smith_form_per_payload(self, count_calls, record_results):
        # link_first_homology is the one gate for H^2: the payload asks it
        # once, and so does each Bockstein; every answer is the same decomposition
        graphs = self.corpus()
        decs = record_results(smith_normal_form)
        gates = count_calls(link_first_homology), count_calls(cokernel)
        for k, g in enumerate(graphs):
            del decs[:], gates[0][:], gates[1][:]
            doc = cli.bockstein_payload(g, f"g{k}")
            assert len({id(d) for d in decs}) == 1
            assert [len(calls) for calls in gates] == [1 + len(doc["bockstein"])] * 2

    def test_graph_payload_builds_one_form_and_eliminates_once(self, count_calls, record_results):
        forms = record_results(intersection_matrix)
        decs = record_results(smith_normal_form)
        sigs = count_calls(signature)
        for k, g in enumerate(self.corpus()):
            del forms[:], decs[:], sigs[:]
            cli.graph_payload(g, f"g{k}")
            assert (len(forms), len({id(d) for d in decs})) == (1, 1)
            assert decs[0] is smith_normal_form(forms[0])
            # an A-D-E diagram's recognizer reads sigma too; the form keeps the value
            assert sigs and {id(args[0]) for args in sigs} == {id(forms[0])}

    def test_transforms_are_built_for_the_certificate_only(self, record_results):
        decs = record_results(smith_normal_form)
        for k, g in enumerate(self.corpus()):
            del decs[:]
            cli.bockstein_payload(g, f"g{k}")
            assert not [d for d in decs if "u" in vars(d) or "v" in vars(d)]
            del decs[:]
            cli.graph_payload(g, f"g{k}")
            assert len({id(d) for d in decs if "u" in vars(d)}) == 1
            assert len({id(d) for d in decs if "v" in vars(d)}) == 1

    def test_graph_payload_replays_u_and_v_once(self, count_calls, record_results):
        # U and V once each for the certificate, and the factor rows of U
        # once more when the Bockstein table reads them (alpha > 0)
        decs = record_results(smith_normal_form)
        replays = count_calls(linalg._replay_rows)
        alphas = set()
        for k, g in enumerate(self.corpus()):
            del decs[:], replays[:]
            doc = cli.graph_payload(g, f"g{k}")
            alphas.add(doc["alpha"])
            dec, everything = decs[0], list(range(doc["vertices"]))
            log = {id(dec.row_steps): "U", id(dec.col_steps): "V"}
            want = [("U", everything), ("V", everything)]
            if doc["alpha"]:
                want.append(("U", [i for i, _ in dec.factors]))
            assert sorted((log[id(steps)], list(picked)) for _, steps, picked in replays) == sorted(want)
        assert max(alphas) >= 3

    def test_one_symmetry_scan_per_form(self, monkeypatch, count_calls):
        scanned = []  # keeps every scanned matrix alive, so ids stay distinct
        scan = IntMatrix.__dict__["_symmetric"]
        original = scan.func

        def counted(m):
            scanned.append(m)
            return original(m)

        monkeypatch.setattr(scan, "func", counted)
        bocksteins = count_calls(wu.bockstein)
        for k, g in enumerate(self.corpus()):
            del scanned[:], bocksteins[:]
            if cli.graph_payload(g, f"g{k}")["alpha"] >= 3:
                assert len(bocksteins) >= 3
                assert len({id(m) for m in scanned}) == len(scanned)

    @pytest.mark.parametrize("command", ["graph", "bockstein"])
    def test_alpha_past_the_limit_exits_2(self, capsys, tmp_path, command):
        # centre -1 with 18 leaves of -2: alpha = 17, so Gamma_2(0) has 2^17 classes
        path = tmp_path / "star.json"
        path.write_text(json.dumps({
            "vertices": [{"id": 0, "weight": -1}] + [{"id": i, "weight": -2} for i in range(1, 19)],
            "edges": [{"a": 0, "b": i} for i in range(1, 19)],
        }))
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(path), "--format", "json")
        assert code == 2 and not out
        assert "alpha = 17" in err and "limit 16" in err
        assert time.perf_counter() - start < 2


class TestGateOrder:
    """Both graph reports reject in one order: the vertex cap (``graph``
    only), then det A = 0 (exit 3), then alpha past MAX_ALPHA (exit 2)."""

    @pytest.mark.parametrize("command", ["graph", "bockstein"])
    def test_a_degenerate_form_exits_3_before_the_alpha_limit(self, capsys, tmp_path, command):
        # centre -10 with 20 leaves of -2: det A = 0, and the torsion has 18 factors Z/2
        path = tmp_path / "star.json"
        path.write_text(json.dumps({
            "vertices": [{"id": 0, "weight": -10}] + [{"id": i, "weight": -2} for i in range(1, 21)],
            "edges": [{"a": 0, "b": i} for i in range(1, 21)],
        }))
        code, out, err = run(capsys, command, str(path), "--format", "json")
        assert code == 3 and not out
        assert "free rank 1" in err

    @pytest.mark.parametrize("command, exit_code", [("graph", 2), ("bockstein", 3)])
    def test_the_vertex_cap_comes_first(self, capsys, tmp_path, command, exit_code):
        # a 501-vertex chain of weight 0: det A = 0, since n is odd
        n = cli.MAX_VERTICES + 1
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({
            "vertices": [{"id": i, "weight": 0} for i in range(n)],
            "edges": [{"a": i, "b": i + 1} for i in range(n - 1)],
        }))
        code, out, err = run(capsys, command, str(path), "--format", "json")
        assert code == exit_code and not out
        assert ("501 vertices" in err) == (command == "graph")


class TestVertexCap:
    """``graph`` prints n x n matrices, so it rejects more than MAX_VERTICES vertices."""

    @staticmethod
    def write_chain(tmp_path, n):
        path = tmp_path / f"chain{n}.json"
        path.write_text(json.dumps({
            "vertices": [{"id": i, "weight": -2 - i % 5} for i in range(n)],
            "edges": [{"a": i, "b": i + 1} for i in range(n - 1)],
        }))
        return str(path)

    def test_chain_past_the_limit_exits_2(self, capsys, tmp_path):
        # at 501 vertices the report would print about 22 MB
        path = self.write_chain(tmp_path, cli.MAX_VERTICES + 1)
        start = time.perf_counter()
        code, out, err = run(capsys, "graph", path, "--format", "json")
        assert code == 2 and not out
        assert "501 vertices" in err and "limit 500" in err
        assert time.perf_counter() - start < 2

    def test_the_limit_is_inclusive_and_graph_only(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_VERTICES", 6)
        assert run_json(capsys, "graph", self.write_chain(tmp_path, 6), "--format", "json")["vertices"] == 6
        code, out, _ = run(capsys, "graph", self.write_chain(tmp_path, 7), "--format", "json")
        assert code == 2 and not out
        # the Bockstein report prints no n x n matrix, so it keeps no cap
        doc = run_json(capsys, "bockstein", self.write_chain(tmp_path, 7), "--format", "json")
        assert "intersection_matrix" not in doc


class TestDiagramCap:
    """``link`` and ``table --family/--n`` build the diagram, so they reject more than MAX_DIAGRAM_VERTICES."""

    def test_a_nine_digit_label_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "link", "A", "1000000001")
        assert code == 2 and not out
        assert f"limit {cli.MAX_DIAGRAM_VERTICES}" in err
        assert time.perf_counter() - start < 2

    # A n has n - 1 vertices and D n has n + 2: each at_cap has 7
    @pytest.mark.parametrize("argv, at_cap", [(["link", "A", "{}"], 8), (["link", "D", "{}"], 5),
                                              (["table", "--family", "A", "--n", "{}"], 8)])
    def test_the_limit_is_inclusive(self, capsys, monkeypatch, argv, at_cap):
        monkeypatch.setattr(cli, "MAX_DIAGRAM_VERTICES", 7)
        code, out, _ = run(capsys, *[w.format(at_cap) for w in argv])
        assert code == 0 and out
        code, out, err = run(capsys, *[w.format(at_cap + 1) for w in argv])
        assert code == 2 and not out and "limit 7" in err

    def test_smale_builds_no_diagram_and_keeps_no_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_DIAGRAM_VERTICES", 7)
        assert run_json(capsys, "smale", "A", "1000000000000", "--immersion", "np",
                        "--format", "json")["smale_r5"] == str(-(10 ** 24 - 1))


class TestDigitLimit:
    """A report integer past Python's int-to-str limit exits 2 with a message, not a traceback."""

    @staticmethod
    def write_chain(tmp_path, n, weight):
        path = tmp_path / f"chain{n}.json"
        path.write_text(json.dumps({
            "vertices": [{"id": i, "weight": weight} for i in range(n)],
            "edges": [{"a": i, "b": i + 1} for i in range(n - 1)],
        }))
        return str(path)

    @pytest.mark.parametrize("command", ["graph", "bockstein"])
    @pytest.mark.parametrize("fmt", ["json", "md"])
    @pytest.mark.parametrize("n, weight", [(3, -10 ** 2000), (300, -2 ** 60)],
                             ids=["3 weights of 2001 digits", "300 weights of 60 bits"])
    def test_exits_2_naming_the_limit(self, capsys, tmp_path, command, fmt, n, weight):
        path = self.write_chain(tmp_path, n, weight)
        start = time.perf_counter()
        code, out, err = run(capsys, command, path, "--format", fmt)
        assert code == 2 and not out
        assert f"more than {sys.get_int_max_str_digits()} decimal digits" in err
        assert time.perf_counter() - start < 5

    def test_other_value_errors_keep_their_traceback(self, capsys, monkeypatch):
        def broken(label):
            raise ValueError("a fault, not an input too big to print")

        monkeypatch.setattr(cli, "link_payload", broken)
        with pytest.raises(ValueError, match="a fault"):
            main(["link", "A", "2"])


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

    @pytest.mark.parametrize("label", LABELS, ids=str)
    def test_table_row_builds_one_form(self, count_calls, label):
        forms = count_calls(intersection_matrix)
        table_row(label)
        assert len(forms) == 1

    @pytest.mark.parametrize("label", [DynkinLabel("A", 2), DynkinLabel("D", 2), DynkinLabel("E", 6),
                                       DynkinLabel("A", 146)], ids=str)
    def test_link_report_builds_one_graph_and_one_kinjo_class(self, count_calls, label):
        graphs = count_calls(dynkin_graph)
        kinjo = count_calls(kinjo_smale)
        cli.link_payload(label)
        assert (len(graphs), len(kinjo)) == (1, 1)

    def test_kinjo_class_reads_the_catalog_once(self, count_calls):
        records = count_calls(singularity_record)
        kinjo_smale(DynkinLabel("D", 7))
        assert len(records) == 1
        records.clear()
        cli.link_payload(DynkinLabel("D", 7))
        assert len(records) == 3  # the report's own record, kinjo_smale and np_smale_invariant

    def test_link_plumbing_section_is_the_table_row(self):
        labels = cli.TABLE_LABELS + [DynkinLabel(f, n) for f in "AD" for n in range(2, 51)]
        for label in labels:
            row = table_row(label)
            payload = cli.link_payload(label)
            assert payload["vertices"] == dynkin_graph(label).vertex_count, label
            assert payload["plumbing"] == {
                "h2": cli.group_payload(row.h2),
                "signature": row.signature,
                "alpha": row.alpha,
                "euler_characteristic": row.euler_characteristic,
            }, label


class TestDispatch:
    def test_unknown_command_exits_2(self):
        # argparse admits only the five subcommands, so dispatch needs no fallback
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["link", "E8"], ["link", "E", "9"]], ids=" ".join)
    def test_the_module_runs_as_a_script(self, argv, monkeypatch, capsys):
        # `python -m linkimm.cli`, in process: the entry point exits with
        # main's code and prints main's report; the cached module goes first,
        # or runpy warns that linkimm.cli was imported before it ran
        expected = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["linkimm", *argv])
        monkeypatch.delitem(sys.modules, "linkimm.cli")
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("linkimm.cli", run_name="__main__")
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == expected


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
        for value in (1.5, object(), [0, 1.5], {"x": object()}):
            with pytest.raises(TypeError):
                jsonable(value)

    def test_jsonable_shares_rows_of_safe_ints(self):
        # a report of 2^alpha classes holds its rows once, not a second copy
        row, coords = [0, -3, 2 ** 53 - 1], (1, 0)
        assert jsonable(row) is row and jsonable(coords) is coords
        out = jsonable([row, (True, 1), [2 ** 53]])
        assert out[0] is row and out[1:] == [[True, 1], [str(2 ** 53)]]
        payload = cli.graph_payload(TestBocksteinCommand.corpus()[0], "g.json")
        assert all(type(c) is tuple for c in payload["gamma2_zero"])

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
