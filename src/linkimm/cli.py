"""Command-line surface: catalog queries, custom graphs, table reproduction.

Subcommands
-----------
table      reproduce the reference table (A and D families at n = 2..9
           plus E_6, E_7, E_8), or a single row via --family/--n
link       full invariant report for one singularity type
graph      invariant report for a plumbing graph given as a JSON file
smale      one Smale class, selected by --immersion
bockstein  just the Bockstein section of the graph report

Labels are written the way the germs are indexed: ``A 2`` is the type with
germ x^2 + y^2 + z^2 (diagram A_1), ``D 3`` is D_5, and the E types are
``E6``/``E7``/``E8`` (also accepted as ``E 6`` etc.).  The resolved
diagram name is echoed in every report.

Every subcommand takes ``--format {json,md}`` (default md).  JSON output
round-trips exactly: integers beyond the 53-bit safe range are emitted as
decimal strings, exact rationals as "p/q" strings.  Exit codes: 0 success,
2 usage or parse error (also a graph whose alpha exceeds ``MAX_ALPHA``,
since Gamma_2(0) has 2^alpha classes; a ``graph`` input of more than
``MAX_VERTICES`` vertices, since its report prints n x n matrices of
entries about n bits long; a ``link`` label or ``table --family/--n``
row whose diagram has more than ``MAX_DIAGRAM_VERTICES`` vertices, since
the report builds the diagram vertex by vertex; and a report holding an
integer of more decimal digits than ``sys.get_int_max_str_digits()``,
the most Python will write out), 3 mathematical rejection
(degenerate form), 1 when the reader closes stdout before the report is
written (no traceback).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction

from .catalog import singularity_record
from .classify import (
    ALMOST_CONTACT,
    RegularHomotopyClass,
    are_regularly_homotopic,
    classify_kinjo_pushforward,
    classify_link_inclusion,
    formal_smale_type,
    table_row,
)
from .errors import InvalidGraph, InvalidParameter, NotRationalHomologySphere
from .linalg import kernel_mod2, smith_normal_form
from .plumbing import (
    DynkinLabel,
    PlumbingGraph,
    filling_euler_characteristic,
    filling_signature,
    intersection_matrix,
    link_first_homology,
    recognize_dynkin,
)
from .smale import (
    kinjo_smale,
    kinjo_smale_reversed,
    np_smale_invariant,
    pushforward_j,
    reverse_orientation,
)
from .wu import CohClass, Z2Class, bockstein, gamma2

TABLE_LABELS = (
    [DynkinLabel("A", n) for n in range(2, 10)]
    + [DynkinLabel("D", n) for n in range(2, 10)]
    + [DynkinLabel("E", k) for k in (6, 7, 8)]
)

JSON_SAFE_MAX = 2 ** 53 - 1

# Gamma_2(0) lists 2^alpha classes; alpha = 16 already prints about 10 MB.
MAX_ALPHA = 16

# The graph report prints A, U, S and V, whose entries on a chain grow to
# about n bits: a 500-vertex chain already prints about 22 MB of JSON.
MAX_VERTICES = 500

# The link and table reports build the diagram of a label, about 1.4 KB a
# vertex: A 100001 takes 148 MiB, where a label of nine digits would take
# all memory.  ``smale`` reads a closed form and builds no diagram.
MAX_DIAGRAM_VERTICES = 100_000


# ---------------------------------------------------------------------------
# label parsing


def _parameter(digits: str) -> int:
    """The int of a label's decimal digits; past int()'s digit limit, InvalidParameter."""
    try:
        return int(digits)
    except ValueError:
        raise InvalidParameter(f"label parameter of {len(digits)} characters is too long") from None


def parse_label(words) -> DynkinLabel:
    """Parse CLI label words: 'A n', 'D n', 'E n', or joined 'E6'/'E7'/'E8'."""
    if len(words) == 1:
        word = words[0].upper()
        if len(word) >= 2 and word[0] == "E" and word[1:].isdecimal():
            return DynkinLabel("E", _parameter(word[1:]))
        raise InvalidParameter(
            f"cannot parse label {words[0]!r}: expected 'A n', 'D n', 'E n', or 'E6'/'E7'/'E8'"
        )
    if len(words) == 2:
        family = words[0].upper()
        if family in ("A", "D", "E") and words[1].removeprefix("-").isdecimal():
            return DynkinLabel(family, _parameter(words[1]))
    raise InvalidParameter(f"cannot parse label {' '.join(words)!r}")


def _buildable(label: DynkinLabel) -> DynkinLabel:
    """label itself; InvalidParameter, before any building, past MAX_DIAGRAM_VERTICES vertices."""
    if label.vertex_count > MAX_DIAGRAM_VERTICES:
        raise InvalidParameter(f"the diagram of {label.family} has more vertices than the limit "
                               f"{MAX_DIAGRAM_VERTICES} of the link and table reports")
    return label


# ---------------------------------------------------------------------------
# payload helpers (plain dicts; renderers below turn them into text)


def jsonable(value):
    """Recursively convert a payload to JSON-safe values, exactly.

    Integers outside +-(2^53 - 1) and all exact rationals become strings,
    so parsing the document recovers every number bit-exactly.  Values
    are dispatched on their exact type: int, bool, str, None, Fraction,
    list, tuple and dict, the types payloads hold; any other value, a
    subclass included, raises TypeError.  A list or tuple of JSON-safe
    ints is returned as it is, not copied: ``json.dumps`` writes either
    as an array, and a report of 2^alpha classes then holds one copy of
    its rows, not two.
    """
    kind = type(value)
    if kind is int:
        return value if -JSON_SAFE_MAX <= value <= JSON_SAFE_MAX else str(value)
    if kind is list or kind is tuple:
        for v in value:
            if type(v) is not int or not -JSON_SAFE_MAX <= v <= JSON_SAFE_MAX:
                return [v if type(v) is int and -JSON_SAFE_MAX <= v <= JSON_SAFE_MAX else jsonable(v)
                        for v in value]
        return value
    if kind is dict:
        return {k: jsonable(v) for k, v in value.items()}
    if kind is bool or kind is str or value is None:
        return value
    if kind is Fraction:
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"cannot serialize {value!r}")


def group_payload(group) -> dict:
    return {
        "free_rank": group.free_rank,
        "invariant_factors": list(group.invariant_factors),
        "display": str(group),
    }


def label_payload(label: DynkinLabel) -> dict:
    return {"label": label.name, "family": label.family, "n": label.parameter}


def smale4_payload(s) -> dict:
    return {"a": s.a, "b": s.b}


def class_payload(c: RegularHomotopyClass) -> dict:
    return {"wu": list(c.wu.coords), "parallelization": ALMOST_CONTACT, "smale_type": c.smale_type}


def row_invariants(row) -> dict:
    """The h2, signature and alpha keys of a table row, shared by table and link reports."""
    return {"h2": group_payload(row.h2), "signature": row.signature, "alpha": row.alpha}


def table_payload(labels) -> list:
    rows = []
    for label in labels:
        row = table_row(label)
        rows.append(label_payload(label) | row_invariants(row) | {"smale_type": row.smale_type})
    return rows


def link_payload(label: DynkinLabel) -> dict:
    record = singularity_record(label)
    row = table_row(label)
    inclusion = classify_link_inclusion(row)
    pushed = classify_kinjo_pushforward(row)
    smale_cover = kinjo_smale(label)
    smale_cover_rev = reverse_orientation(smale_cover)
    np_value = np_smale_invariant(label)
    pushed_r5 = pushforward_j(smale_cover_rev)
    return label_payload(label) | {
        "germ": record.germ,
        "group": {"name": record.group_name, "order": record.group_order},
        "vertices": label.vertex_count,
        "plumbing": row_invariants(row) | {"euler_characteristic": row.euler_characteristic},
        "link_inclusion": class_payload(inclusion),
        "kinjo_pushforward": class_payload(pushed),
        "regularly_homotopic": are_regularly_homotopic(inclusion, pushed),
        "smale_r4": {
            "kinjo": smale4_payload(smale_cover),
            "kinjo-reversed": smale4_payload(smale_cover_rev),
        },
        "smale_r5": {
            "np": np_value.value,
            "pushforward": pushed_r5.value,
            "consistent": pushed_r5 == np_value,
        },
    }


def _graph_cohomology(g: PlumbingGraph, a) -> tuple:
    """H^2 of a graph's form, its label keys, and its H^1(M; Z_2) basis,
    Gamma_2(0) and Bockstein table as payload rows.

    Raises NotRationalHomologySphere when det A = 0, then InvalidGraph when
    alpha exceeds MAX_ALPHA, before any listing.
    """
    h2 = link_first_homology(a)
    alpha = h2.two_torsion_rank
    if alpha > MAX_ALPHA:
        raise InvalidGraph(f"alpha = {alpha} exceeds the limit {MAX_ALPHA}: "
                           f"Gamma_2(0) would list 2^{alpha} classes")
    label = recognize_dynkin(g, a)
    basis = kernel_mod2(a)
    return (
        h2,
        {"resolved_label": label.name if label else None, "formal": label is None},
        [list(v) for v in basis],
        [c.coords for c in gamma2(h2)],  # 2^alpha rows: no list copies
        [{"kernel_vector": list(vec), "class": list(bockstein(a, Z2Class(vec)).coords)}
         for vec in basis],
    )


def graph_payload(g: PlumbingGraph, source: str) -> dict:
    if g.vertex_count > MAX_VERTICES:
        raise InvalidGraph(f"{g.vertex_count} vertices exceed the limit {MAX_VERTICES} "
                           f"of the graph report, which prints n x n matrices")
    a = intersection_matrix(g)
    h2, labels, basis, torsion_square, bock_table = _graph_cohomology(g, a)
    dec = smith_normal_form(a)  # the decomposition link_first_homology built
    sigma = filling_signature(a)
    value, integral = formal_smale_type(sigma, h2.two_torsion_rank)
    payload = {"source": source} | labels | {
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "intersection_matrix": a.to_rows(),
        "smith": {
            "u": dec.u.to_rows(),
            "s": dec.s.to_rows(),
            "v": dec.v.to_rows(),
            "diagonal": list(dec.diagonal),
        },
        "h1_z2_basis": basis,
        "h2": group_payload(h2),
        "alpha": h2.two_torsion_rank,
        "signature": sigma,
        "euler_characteristic": filling_euler_characteristic(g),
        "gamma2_zero": torsion_square,
        "bockstein": bock_table,
        "class": class_payload(RegularHomotopyClass(CohClass.zero(h2), value))
                 | {"integral": integral},
    }
    if not integral:
        payload["class"]["warning"] = "sigma - alpha is odd: no embedded Seifert data exists"
    return payload


def bockstein_payload(g: PlumbingGraph, source: str) -> dict:
    """The Bockstein keys of ``graph_payload``: no certificate, and a -2/+1 graph's signature not printed."""
    h2, labels, basis, torsion_square, bock_table = _graph_cohomology(g, intersection_matrix(g))
    return {"source": source} | labels | {
        "h1_z2_basis": basis,
        "h2": group_payload(h2),
        "gamma2_zero": torsion_square,
        "bockstein": bock_table,
    }


def smale_payload(label: DynkinLabel, immersion: str) -> dict:
    base = label_payload(label) | {"immersion": immersion}
    if immersion == "kinjo":
        return base | {"smale_r4": smale4_payload(kinjo_smale(label))}
    if immersion == "kinjo-reversed":
        return base | {"smale_r4": smale4_payload(kinjo_smale_reversed(label))}
    if immersion == "np":
        return base | {"smale_r5": np_smale_invariant(label).value}
    pushed = pushforward_j(kinjo_smale_reversed(label))
    np_value = np_smale_invariant(label)
    return base | {
        "smale_r5": pushed.value,
        "np": np_value.value,
        "verdict": "consistent" if pushed == np_value else "inconsistent",
    }


# ---------------------------------------------------------------------------
# markdown rendering


def _md_table(headers, rows) -> str:
    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(lines)


def _md_matrix(rows) -> str:
    # rows is a graph's intersection matrix, and a graph has a vertex: never empty
    cell = {v: str(v) for v in set(itertools.chain.from_iterable(rows))}
    width = max(map(len, cell.values()))
    cell = {v: c.rjust(width) for v, c in cell.items()}
    return "\n".join("    [ " + "  ".join(map(cell.__getitem__, row)) + " ]" for row in rows)


def _bits(vec) -> str:
    return "(" + "".join(map(str, vec)) + ")"


def _coords(coords) -> str:
    return "(" + ", ".join(map(str, coords)) + ")" if coords else "0"


def render_table_md(payload) -> str:
    rows = [
        (
            r["label"],
            r["n"],
            r["h2"]["display"],
            r["signature"],
            r["alpha"],
            r["smale_type"],
        )
        for r in payload
    ]
    return _md_table(["type", "n", "H^2(K; Z)", "sigma(F)", "alpha(K)", "i(f)"], rows)


def render_link_md(p) -> str:
    pl = p["plumbing"]
    out = [
        f"# {p['label']}  (family {p['family']}, n = {p['n']})",
        "",
        f"- germ: {p['germ']}",
        f"- covering group: {p['group']['name']}, order {p['group']['order']}",
        f"- diagram vertices: {p['vertices']}",
        "",
        "## Plumbing invariants",
        "",
        _md_table(
            ["H^2(K; Z)", "sigma(F)", "alpha(K)", "chi(X)"],
            [(pl["h2"]["display"], pl["signature"], pl["alpha"], pl["euler_characteristic"])],
        ),
        "",
        "## Complete invariants in R^5",
        "",
        f"- Wu invariant ({p['link_inclusion']['parallelization']} gauge): "
        f"{_coords(p['link_inclusion']['wu'])}",
        f"- link inclusion smale type: {p['link_inclusion']['smale_type']}",
        f"- pushed plumbing immersion smale type: {p['kinjo_pushforward']['smale_type']}",
        f"- regularly homotopic: {'yes' if p['regularly_homotopic'] else 'no'}",
        "",
        "## Smale classes",
        "",
        f"- kinjo (R^4): ({p['smale_r4']['kinjo']['a']}, {p['smale_r4']['kinjo']['b']})",
        f"- kinjo-reversed (R^4): ({p['smale_r4']['kinjo-reversed']['a']}, "
        f"{p['smale_r4']['kinjo-reversed']['b']})",
        f"- np (R^5): {p['smale_r5']['np']}",
        f"- pushforward of kinjo-reversed (R^5): {p['smale_r5']['pushforward']} "
        f"({'consistent' if p['smale_r5']['consistent'] else 'inconsistent'})",
    ]
    return "\n".join(out)


def _render_bockstein_section(p) -> list:
    out = [
        f"- H^1(M; Z_2) basis: "
        + (", ".join(_bits(v) for v in p["h1_z2_basis"]) if p["h1_z2_basis"] else "(trivial)"),
        f"- H^2(M; Z): {p['h2']['display']}",
        f"- Gamma_2(0): " + ", ".join(_coords(c) for c in p["gamma2_zero"]),
    ]
    if p["bockstein"]:
        out.append("")
        out.append(
            _md_table(
                ["kernel vector", "beta(vector)"],
                [(_bits(row["kernel_vector"]), _coords(row["class"])) for row in p["bockstein"]],
            )
        )
    return out


def render_graph_md(p) -> str:
    kind = "formal (not an A-D-E diagram)" if p["formal"] else f"diagram {p['resolved_label']}"
    cls = p["class"]
    out = [
        f"# Plumbing graph: {p['source']}",
        "",
        f"- recognized as: {kind}",
        f"- vertices: {p['vertices']}, edges: {p['edges']}",
        "",
        "## Intersection form",
        "",
        _md_matrix(p["intersection_matrix"]),
        "",
        f"- smith diagonal: {p['smith']['diagonal']}",
        f"- signature: {p['signature']}",
        f"- euler characteristic of filling: {p['euler_characteristic']}",
        f"- alpha: {p['alpha']}",
        "",
        "## Cohomology and Bockstein",
        "",
    ]
    out += _render_bockstein_section(p)
    out += [
        "",
        "## Invariant pair",
        "",
        f"- wu: {_coords(cls['wu'])} ({cls['parallelization']} gauge)",
        f"- smale type: {cls['smale_type']}" + ("" if cls["integral"] else "  [non-integral]"),
    ]
    if not cls["integral"]:
        out.append(f"- warning: {cls['warning']}")
    if p["formal"]:
        out.append("- note: formal values; no geometric claim for non-A-D-E graphs")
    return "\n".join(out)


def render_bockstein_md(p) -> str:
    kind = "formal" if p["formal"] else p["resolved_label"]
    out = [f"# Bockstein table: {p['source']} ({kind})", ""]
    out += _render_bockstein_section(p)
    return "\n".join(out)


def render_smale_md(p) -> str:
    out = [f"# {p['label']}, immersion {p['immersion']}", ""]
    if "smale_r4" in p:
        out.append(f"- smale class (R^4): ({p['smale_r4']['a']}, {p['smale_r4']['b']})")
    if "smale_r5" in p:
        out.append(f"- smale class (R^5): {p['smale_r5']}")
    if "np" in p:
        out.append(f"- np constant: {p['np']}")
    if "verdict" in p:
        out.append(f"- verdict: {p['verdict']}")
    return "\n".join(out)


def report_text(payload, md_renderer, fmt: str) -> str:
    """A report's text as ``main`` prints it, less the newline: JSON with indent 2, or markdown."""
    return json.dumps(jsonable(payload), indent=2) if fmt == "json" else md_renderer(payload)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument("--format", choices=("json", "md"), default="md",
                            help="output format (default md)")

    parser = argparse.ArgumentParser(
        prog="linkimm",
        description="Exact regular-homotopy invariants of immersed singularity links "
                    "and plumbed 3-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", parents=[fmt_parent],
                             help="reproduce the reference table")
    p_table.add_argument("--family", choices=("A", "D", "E"))
    p_table.add_argument("--n", type=int)

    p_link = sub.add_parser("link", parents=[fmt_parent],
                            help="full report for one singularity type")
    p_link.add_argument("label", nargs="+", help="'A n', 'D n', 'E n', or 'E6'/'E7'/'E8'")

    p_graph = sub.add_parser("graph", parents=[fmt_parent],
                             help="report for a plumbing graph JSON file")
    p_graph.add_argument("path")

    p_smale = sub.add_parser("smale", parents=[fmt_parent], help="one Smale class")
    p_smale.add_argument("label", nargs="+")
    p_smale.add_argument("--immersion", required=True,
                         choices=("kinjo", "kinjo-reversed", "np", "pushforward"))

    p_bock = sub.add_parser("bockstein", parents=[fmt_parent],
                            help="Bockstein section of the graph report")
    p_bock.add_argument("path")
    return parser


def _load_graph(path: str) -> PlumbingGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidGraph(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, a file that is not UTF-8 and an integer literal
        # past the int-string limit are ValueErrors; deep nesting recurses
        raise InvalidGraph(f"{path} is not valid JSON: {exc}") from exc
    return PlumbingGraph.from_dict(doc)


def _dispatch(args):
    if args.command == "table":
        if (args.family is None) != (args.n is None):
            raise InvalidParameter("--family and --n must be given together")
        if args.family is None:
            labels = TABLE_LABELS
        else:
            labels = [_buildable(DynkinLabel(args.family, args.n))]
        return table_payload(labels), render_table_md
    if args.command == "link":
        return link_payload(_buildable(parse_label(args.label))), render_link_md
    if args.command == "graph":
        return graph_payload(_load_graph(args.path), args.path), render_graph_md
    if args.command == "bockstein":
        return bockstein_payload(_load_graph(args.path), args.path), render_bockstein_md
    return smale_payload(parse_label(args.label), args.immersion), render_smale_md


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, md_renderer = _dispatch(args)
        text = report_text(payload, md_renderer, args.format)
    except (InvalidParameter, InvalidGraph) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotRationalHomologySphere as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # str() of an int past the digit limit is an input too big to print;
        # any other ValueError is a fault and keeps its traceback
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: the report holds an integer of more than {sys.get_int_max_str_digits()} "
              f"decimal digits, the most Python writes out (sys.get_int_max_str_digits())",
              file=sys.stderr)
        return 2
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``| head``, say).  Point stdout at
        # devnull so the flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
