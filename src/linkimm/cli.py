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
2 usage or parse error, 3 mathematical rejection (degenerate form).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .catalog import np_smale_invariant, singularity_record
from .classify import (
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
    dynkin_graph,
    filling_euler_characteristic,
    filling_signature,
    intersection_matrix,
    link_first_homology,
    recognize_dynkin,
)
from .smale import kinjo_smale, kinjo_smale_reversed, pushforward_j
from .wu import CohClass, Z2Class, bockstein, gamma2

TABLE_LABELS = (
    [DynkinLabel("A", n) for n in range(2, 10)]
    + [DynkinLabel("D", n) for n in range(2, 10)]
    + [DynkinLabel("E", k) for k in (6, 7, 8)]
)

JSON_SAFE_MAX = 2 ** 53 - 1


# ---------------------------------------------------------------------------
# label parsing


def parse_label(words) -> DynkinLabel:
    """Parse CLI label words: 'A n', 'D n', 'E n', or joined 'E6'/'E7'/'E8'."""
    if len(words) == 1:
        word = words[0].upper()
        if len(word) >= 2 and word[0] == "E" and word[1:].isdigit():
            return DynkinLabel("E", int(word[1:]))
        raise InvalidParameter(
            f"cannot parse label {words[0]!r}: expected 'A n', 'D n', 'E n', or 'E6'/'E7'/'E8'"
        )
    if len(words) == 2:
        family = words[0].upper()
        if family in ("A", "D", "E") and words[1].lstrip("-").isdigit():
            return DynkinLabel(family, int(words[1]))
    raise InvalidParameter(f"cannot parse label {' '.join(words)!r}")


# ---------------------------------------------------------------------------
# payload helpers (plain dicts; renderers below turn them into text)


def jsonable(value):
    """Recursively convert a payload to JSON-safe values, exactly.

    Integers outside +-(2^53 - 1) and all exact rationals become strings,
    so parsing the document recovers every number bit-exactly.
    """
    kind = type(value)
    if kind is int:
        return value if -JSON_SAFE_MAX <= value <= JSON_SAFE_MAX else str(value)
    if kind is list or kind is tuple:
        # matrix rows are mostly small ints; convert those in place
        return [v if type(v) is int and -JSON_SAFE_MAX <= v <= JSON_SAFE_MAX else jsonable(v)
                for v in value]
    if kind is dict:
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value if -JSON_SAFE_MAX <= value <= JSON_SAFE_MAX else str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
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
    return {"wu": list(c.wu.coords), "parallelization": c.parallelization_tag,
            "smale_type": c.smale_type}


def table_payload(labels) -> list:
    rows = []
    for label in labels:
        row = table_row(label)
        rows.append(
            label_payload(label)
            | {
                "h2": group_payload(row.h2),
                "signature": row.signature,
                "alpha": row.alpha,
                "smale_type": row.smale_type,
            }
        )
    return rows


def link_payload(label: DynkinLabel) -> dict:
    record = singularity_record(label)
    g = dynkin_graph(label)
    row = table_row(label)
    inclusion = classify_link_inclusion(row)
    pushed = classify_kinjo_pushforward(row)
    smale_cover = kinjo_smale(label)
    smale_cover_rev = kinjo_smale_reversed(label)
    np_value = np_smale_invariant(label)
    pushed_r5 = pushforward_j(smale_cover_rev)
    return label_payload(label) | {
        "germ": record.germ,
        "group": {"name": record.group_name, "order": record.group_order},
        "vertices": g.vertex_count,
        "plumbing": {
            "h2": group_payload(row.h2),
            "signature": row.signature,
            "alpha": row.alpha,
            "euler_characteristic": filling_euler_characteristic(g),
        },
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


def _cohomology_rows(a, h2, dec) -> tuple:
    """H^1(M; Z_2) basis, Gamma_2(0) and Bockstein table of a form, as payload rows."""
    basis = kernel_mod2(a)
    return (
        [list(v) for v in basis],
        [list(c.coords) for c in gamma2(h2, CohClass.zero(h2))],
        [{"kernel_vector": list(vec), "class": list(bockstein(a, dec, Z2Class(vec)).coords)}
         for vec in basis],
    )


def graph_payload(g: PlumbingGraph, source: str) -> dict:
    a = intersection_matrix(g)
    h2 = link_first_homology(g)  # raises NotRationalHomologySphere when det = 0
    dec = smith_normal_form(a)
    sigma = filling_signature(g)
    basis, torsion_square, bock_table = _cohomology_rows(a, h2, dec)
    value, integral = formal_smale_type(sigma, h2.two_torsion_rank)
    label = recognize_dynkin(g)
    payload = {
        "source": source,
        "resolved_label": label.name if label else None,
        "formal": label is None,
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
    """The Bockstein keys of ``graph_payload``, with no signature and no certificate."""
    a = intersection_matrix(g)
    h2 = link_first_homology(g)  # raises NotRationalHomologySphere when det = 0
    basis, torsion_square, bock_table = _cohomology_rows(a, h2, smith_normal_form(a))
    label = recognize_dynkin(g)
    return {
        "source": source,
        "resolved_label": label.name if label else None,
        "formal": label is None,
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
    if not rows:
        return "    (empty)"
    width = max(len(str(e)) for r in rows for e in r)
    return "\n".join("    [ " + "  ".join(str(e).rjust(width) for e in r) + " ]" for r in rows)


def _bits(vec) -> str:
    return "(" + "".join(str(b) for b in vec) + ")"


def _coords(coords) -> str:
    return "(" + ", ".join(str(c) for c in coords) + ")" if coords else "0"


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
            labels = [DynkinLabel(args.family, args.n)]
        return table_payload(labels), render_table_md
    if args.command == "link":
        return link_payload(parse_label(args.label)), render_link_md
    if args.command == "graph":
        return graph_payload(_load_graph(args.path), args.path), render_graph_md
    if args.command == "bockstein":
        return bockstein_payload(_load_graph(args.path), args.path), render_bockstein_md
    if args.command == "smale":
        return smale_payload(parse_label(args.label), args.immersion), render_smale_md
    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, md_renderer = _dispatch(args)
    except (InvalidParameter, InvalidGraph) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotRationalHomologySphere as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(jsonable(payload), indent=2) if args.format == "json" else md_renderer(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
