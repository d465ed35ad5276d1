"""Cost as a tested property: exact ceilings on the work of a Smith form.

The Smith elimination logs every row and column operation it makes
(``SmithDecomposition.row_steps`` and ``col_steps``), and U and V are
rebuilt from those logs.  For a given input and pivot rule the log
lengths and the size of the largest entry of U and V are exact numbers,
so a change that keeps every answer but makes more steps, or lets the
coefficients grow, fails here with no clock involved.  The byte length of
a graph report and of a Bockstein report, in JSON and in markdown, is
exact in the same way.

Each ceiling is the value the elimination reaches today, with no
headroom.  A change that lowers a count lowers its ceiling with it; a
change that raises one says why.
"""

import random

import pytest
from linkimm import cli
from linkimm.linalg import IntMatrix, smith_normal_form
from linkimm.plumbing import DynkinLabel, dynkin_graph, intersection_matrix

from test_closed_forms import degree_ten_graph, graph, grid
from test_linalg import mixed_weight_tree


def alpha_15_star():
    """Centre of weight -3 with 16 leaves of weight -2, every sign +1: H^2 has alpha = 15."""
    return graph([-3] + [-2] * 16, [(0, leaf, 1) for leaf in range(1, 17)])


# name: (form builder, (row steps, column steps, largest U or V entry in bits))
LADDER = {
    "A_400": (lambda: intersection_matrix(dynkin_graph(DynkinLabel("A", 401))), (798, 798, 9)),
    "grid_10x10": (lambda: intersection_matrix(grid(random.Random(7), 10, 10, -5)), (1517, 856, 830)),
    "mixed_tree_100": (lambda: IntMatrix.from_rows(mixed_weight_tree(random.Random(7), 100)),
                       (981, 779, 381)),
    "mixed_tree_200": (lambda: IntMatrix.from_rows(mixed_weight_tree(random.Random(7), 200)),
                       (2925, 1884, 1144)),
    "mixed_tree_300": (lambda: IntMatrix.from_rows(mixed_weight_tree(random.Random(7), 300)),
                       (8044, 4331, 3362)),
    "grid_20x20": (lambda: intersection_matrix(grid(random.Random(7), 20, 20, -5)), (14299, 6480, 5780)),
    # no bits: the chain's 2000 x 2000 U and V take about 2 s to build
    "chain_2000": (lambda: intersection_matrix(graph([-2 - i % 5 for i in range(2000)],
                                                     [(i, i + 1, 1) for i in range(1999)])),
                   (3998, 3998, None)),
    "alpha_15_star": (lambda: intersection_matrix(alpha_15_star()), (66, 134, 4)),
    "degree_ten_50": (lambda: intersection_matrix(degree_ten_graph(random.Random(7), 50)),
                      (1932, 831, 632)),
    "degree_ten_100": (lambda: intersection_matrix(degree_ten_graph(random.Random(7), 100)),
                       (15190, 3808, 3679)),
    "degree_ten_150": (lambda: intersection_matrix(degree_ten_graph(random.Random(7), 150)),
                       (61385, 8498, 11760)),
}


@pytest.mark.parametrize("name", LADDER)
def test_smith_work_stays_under_its_ceiling(name):
    build, ceiling = LADDER[name]
    dec = smith_normal_form(build())
    work = [len(dec.row_steps), len(dec.col_steps)]
    if ceiling[2] is not None:
        work.append(max(abs(e).bit_length() for m in (dec.u, dec.v) for row in m.to_rows() for e in row))
    assert all(w <= c for w, c in zip(work, ceiling)), (work, ceiling)


# name: (graph builder, (graph json, graph md, bockstein json, bockstein md) in UTF-8 bytes)
REPORTS = {
    "A_400": (lambda: dynkin_graph(DynkinLabel("A", 401)), (6871796, 644367, 258, 102)),
    "grid_10x10": (lambda: grid(random.Random(7), 10, 10, -5), (537979, 41573, 384, 167)),
    "degree_ten_50": (lambda: degree_ten_graph(random.Random(7), 50), (179168, 11263, 1462, 322)),
}


@pytest.mark.parametrize("name", REPORTS)
def test_report_bytes_stay_under_their_ceiling(name):
    build, ceiling = REPORTS[name]
    g = build()
    sizes = [len(cli.report_text(payload(g, "g.json"), md_renderer, fmt).encode())
             for payload, md_renderer in ((cli.graph_payload, cli.render_graph_md),
                                          (cli.bockstein_payload, cli.render_bockstein_md))
             for fmt in ("json", "md")]
    assert all(s <= c for s, c in zip(sizes, ceiling)), (sizes, ceiling)
