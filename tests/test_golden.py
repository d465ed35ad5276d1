"""Golden bytes: the CLI renderings of a fixed corpus hash to recorded digests.

Each group renders its payloads through ``cli.report_text``, the function
``linkimm`` prints with, in both formats (JSON, then markdown, each with
the newline ``print`` adds) and hashes the lot, so any byte drift in a
report fails here before it reaches a user.  A degenerate form's exit-3
message is hashed in place of its report.  The graph, bockstein and
smale digests were recorded from the code before the Smith transforms
became lazy, the link and table digests (over the longer label list)
from the code before link reports shared one table row, and the realize
digest (the ``realize_parallelization`` answer for every 2-torsion
target of the corpus stars) from the exhaustive search that the direct
solve replaced; a deliberate output change must update them in the same
change.
"""

import hashlib
import random

import pytest
from linkimm import cli
from linkimm.errors import NotRationalHomologySphere
from linkimm.linalg import cokernel
from linkimm.plumbing import DynkinLabel, PlumbingGraph, dynkin_graph, intersection_matrix
from linkimm.wu import gamma2, realize_parallelization

from oracles import random_tree_edges

LABELS = (
    [DynkinLabel("A", n) for n in range(2, 13)]
    + [DynkinLabel("D", n) for n in range(2, 11)]
    + [DynkinLabel("E", k) for k in (6, 7, 8)]
)
# link and table reports read H^2 and the signature of the whole form, so
# they also run on longer A and D diagrams (up to 39 and 42 vertices)
FORM_LABELS = (
    [DynkinLabel("A", n) for n in range(2, 41)]
    + [DynkinLabel("D", n) for n in range(2, 41)]
    + [DynkinLabel("E", k) for k in (6, 7, 8)]
)

DIGESTS = {
    "bockstein": "275b57678e0dc74dc00bb156bdd09b1a51673aa43280bf3d8a94bfb0a09edebc",
    "graph": "d99844d92319c5900fe9850e7ee8459515636347f026f3688a7dad06ce4ec4be",
    "link": "13a1bc228e4b52c62e3b69db33a3874f507238d1b3d2e6b11fbf41c742b1f33c",
    "realize": "f5afb3a39d76688913f077c1c410ad0a46d67fbfb0d394cce9a053ee67f2ae0e",
    "smale": "b8f815aa2d2251af97a4b5c2e22ef5a582b00e85469afd35be8c31efba1e3529",
    "table": "84a79b57c1a510ca81dd6de86c2fa4f5836bf7e36f49328fad4fc49055ae3265",
}

TREE_SIZES = (1, 2, 3, 5, 8, 12, 17, 23, 30, 40) * 2
STAR_LEAVES = range(4, 10)


def graph_corpus():
    """Seeded mixed-weight trees of 1..40 vertices, stars with alpha 3..8, D_4 and E_8."""
    rng = random.Random(4242)
    docs = []
    for n in TREE_SIZES:
        weights = [rng.choice((-2, -2, -3, -3, -4, -1, -5, 1, 2)) for _ in range(n)]
        docs.append({
            "vertices": [{"id": i, "weight": w} for i, w in enumerate(weights)],
            "edges": [{"a": a, "b": b, "sign": rng.choice((1, -1))}
                      for a, b in random_tree_edges(rng, n)],
        })
    for leaves in STAR_LEAVES:
        centre = rng.choice((-1, -3, -5, 1, 3))
        docs.append({
            "vertices": [{"id": 0, "weight": centre}]
                        + [{"id": i, "weight": -2} for i in range(1, leaves + 1)],
            "edges": [{"a": 0, "b": i, "sign": rng.choice((1, -1))} for i in range(1, leaves + 1)],
        })
    return ([PlumbingGraph.from_dict(doc) for doc in docs]
            + [dynkin_graph(DynkinLabel("D", 2)), dynkin_graph(DynkinLabel("E", 8))])


def rendered(payload, md_renderer) -> str:
    return "".join(cli.report_text(payload, md_renderer, fmt) + "\n" for fmt in ("json", "md"))


def graph_outputs(build, md_renderer):
    for k, g in enumerate(graph_corpus()):
        try:
            yield rendered(build(g, f"g{k}.json"), md_renderer)
        except NotRationalHomologySphere as exc:
            yield f"exit 3: {exc}\n"


def realize_outputs():
    """One line per 2-torsion target of each corpus star: the target and its preimage."""
    stars = graph_corpus()[len(TREE_SIZES):len(TREE_SIZES) + len(STAR_LEAVES)]
    for g in stars:
        a = intersection_matrix(g)
        h = cokernel(a)
        for target in gamma2(h):
            yield f"{list(target.coords)} -> {realize_parallelization(a, target)}\n"


def outputs(group):
    if group == "graph":
        return graph_outputs(cli.graph_payload, cli.render_graph_md)
    if group == "bockstein":
        return graph_outputs(cli.bockstein_payload, cli.render_bockstein_md)
    if group == "link":
        return (rendered(cli.link_payload(label), cli.render_link_md) for label in FORM_LABELS)
    if group == "realize":
        return realize_outputs()
    if group == "table":
        return [rendered(cli.table_payload(FORM_LABELS), cli.render_table_md)]
    return (rendered(cli.smale_payload(label, imm), cli.render_smale_md)
            for label in LABELS for imm in ("kinjo", "kinjo-reversed", "np", "pushforward"))


def digest(group) -> str:
    h = hashlib.sha256()
    for text in outputs(group):
        h.update(text.encode())
    return h.hexdigest()


@pytest.mark.parametrize("group", sorted(DIGESTS))
def test_golden_bytes(group):
    assert digest(group) == DIGESTS[group]
