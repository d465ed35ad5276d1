"""The four benchmark workloads: seeded input generators and report steps.

Every input comes from the seed through the generators here; the library
only ever sees the resulting graph documents, labels and files.  Each
workload builds a fixed pool of distinct inputs in ``__init__`` (that is
the set-up ``setup_s`` times) and then serves one closed-loop report per
``report(i)`` call, cycling through the pool in ``order``.  A report
returns its rendered outputs as strings; ``check(i, outputs)`` verifies
them with :mod:`check`, which never calls library code.

Why these four (also in BENCHMARK.json):

* ``tree_reports``: random trees with mixed weights and edge signs.  One
  report runs Smith normal form 3 + alpha times per graph payload on the
  same matrix and renders large U/V matrices to JSON; the main SNF load.
* ``dynkin_sweep``: the A/D/E family sweep users actually run.  Long
  paths make ``signature`` dominate the slowest reports; alpha <= 2 and no
  Bockstein is called, so a ``wu``-only change must leave it unchanged.
* ``torsion_stars``: tiny star graphs with alpha 3..8, where Gamma_2(0)
  and the parallelization search grow as 2^alpha; bypasses the long
  ``signature`` runs.
* ``cli_catalog``: fresh ``python -m linkimm.cli`` processes, so
  interpreter start, import and dispatch cost show up, including the
  exit-2 and exit-3 paths.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from fractions import Fraction

import check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CLI_CHILD = os.path.join(ROOT, "bench", "cli_child.py")
TMP = os.path.join(ROOT, ".bench_tmp")  # scratch files of a run, removed when it ends

IMMERSIONS = ("kinjo", "kinjo-reversed", "np", "pushforward")

# traced functions (see tracer.TARGETS) each kind of report runs at seed
PIPELINE = ("linalg.smith_normal_form", "linalg.signature", "linalg.cokernel",
            "plumbing.intersection_matrix", "plumbing.link_first_homology",
            "plumbing.filling_signature")
GRAPH_REPORT = ("linalg.kernel_mod2", "plumbing.recognize_dynkin", "wu.bockstein", "wu.gamma2",
                "classify.formal_smale_type", "cli.graph_payload")


def render(payload, md_renderer):
    """Both CLI formats of one payload, as the CLI prints them (less the newline)."""
    from linkimm import cli

    return json.dumps(cli.jsonable(payload), indent=2), md_renderer(payload)


# ---------------------------------------------------------------------------
# generators


def _gf2_corank(n, weights, edges):
    rows = [(w & 1) << i for i, w in enumerate(weights)]
    for a, b, _ in edges:
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
    return n - check.mask_rank(rows)


def _zero_pivot(weights, parents):
    """First vertex with a zero pivot in leaf elimination, or None.

    Eliminates from the highest index down; every parent index is lower.
    """
    value = [Fraction(w) for w in weights]
    for i in range(len(weights) - 1, 0, -1):
        if value[i] == 0:
            return i
        value[parents[i]] -= 1 / value[i]
    return 0 if value[0] == 0 else None


def random_tree_doc(rng, n, alpha, weights=(-2, -2, -3, -3, -4, -1, -5, 1, 2)):
    """A nondegenerate tree with mixed weights and signs whose mod-2 corank is alpha.

    The tree is a uniform random recursive tree: each vertex hangs off a
    uniformly chosen earlier one.  Swapping single weights for ones of the
    other parity walks the corank (= alpha for a nondegenerate form) to the
    target; swaps that keep the parity then clear any zero pivot without
    moving alpha.
    """
    parity = ([w for w in weights if w % 2 == 0], [w for w in weights if w % 2])
    current = None
    while current != alpha:  # a fresh tree whenever the walk gets stuck
        parents = [0] + [rng.randrange(i) for i in range(1, n)]
        edges = [(parents[i], i, rng.choice((1, -1))) for i in range(1, n)]
        w = [rng.choice(weights) for _ in range(n)]
        current = _gf2_corank(n, w, edges)
        for _ in range(20 * n):
            if current == alpha:
                break
            i = rng.randrange(n)
            old = w[i]
            w[i] = rng.choice(parity[1 - old % 2])
            new = _gf2_corank(n, w, edges)
            if abs(new - alpha) <= abs(current - alpha):
                current = new
            else:
                w[i] = old
    while (i := _zero_pivot(w, parents)) is not None:
        w[i] = rng.choice(parity[w[i] % 2])
    return {
        "vertices": [{"id": i, "weight": w[i]} for i in range(n)],
        "edges": [{"a": a, "b": b, "sign": s} for a, b, s in edges],
    }


def star_doc(rng, leaves, centre_weights=(-1, -3, -4, -5, -7, 1, 2, 3)):
    """A centre with ``leaves`` leaves of weight -2 (alpha = leaves - 1), in shuffled order."""
    w = rng.choice([c for c in centre_weights if 2 * c != -leaves])
    ids = rng.sample(range(100), leaves + 1)
    order = list(range(leaves + 1))
    rng.shuffle(order)
    vertices = [{"id": ids[0], "weight": w}] + [{"id": i, "weight": -2} for i in ids[1:]]
    return {
        "vertices": [vertices[k] for k in order],
        "edges": [{"a": ids[0], "b": i, "sign": rng.choice((1, -1))} for i in ids[1:]],
    }


def degenerate_star_doc(rng):
    """A star with 2m leaves of weight -2 and centre weight -m: det = 0."""
    m = rng.randint(1, 4)
    return {
        "vertices": [{"id": 0, "weight": -m}] + [{"id": i, "weight": -2} for i in range(1, 2 * m + 1)],
        "edges": [{"a": 0, "b": i} for i in range(1, 2 * m + 1)],
    }


def make_tmp(prefix):
    os.makedirs(TMP, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=TMP)


def remove_tmp(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(TMP)
    except OSError:  # another run's files are still there
        pass


def run_child(cmd, cwd, env, timeout):
    """Run ``cmd`` to its end: (stdout, stderr, exit code, peak RSS of that child in KiB).

    The child is reaped with ``os.wait4``, so its own peak RSS is read and
    no other child of this process counts towards it.  SIGALRM bounds the
    wait without a polling loop, which would blur the wall time.
    """
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)

        def expired(signum, frame):
            raise subprocess.TimeoutExpired(cmd, timeout)

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (out.read().decode(), err.read().decode(), proc.returncode, usage.ru_maxrss)


def spread_order(items, cost):
    """Items sorted by cost, then visited in bit-reversed rank order.

    Every prefix of a pass then samples the whole range of costs evenly, so
    where in a pass a time-limited run stops barely moves its figures.
    """
    ranked = sorted(items, key=cost)
    bits = max(1, (len(ranked) - 1).bit_length())
    flipped = sorted(range(len(ranked)), key=lambda j: int(f"{j:0{bits}b}"[::-1], 2))
    return [ranked[j] for j in flipped]


def label_words(family, n):
    return [f"E{n}"] if family == "E" else [family, str(n)]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A fixed pool of distinct inputs and the seeded order they are visited in.

    ``order`` is a permutation of the whole pool; a run cycles through it,
    and every input of the pool is rendered and checked once per run, so
    ``output_bytes`` does not depend on how many reports a run fits in.
    Workloads whose cost depends on the random input (trees, stars) size
    their pool to about what one run at seed speed gets through, so the
    tail is set by many distinct inputs rather than by repeats of one.
    ``coverage`` lists a few inputs that between them reach every traced
    function the workload uses, named in ``REACHES``; the traced run
    checks the tracer against them.
    """

    name = ""
    REACHES = ()

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.build()

    def build(self):
        """Set ``inputs``, ``order`` and ``coverage``."""
        raise NotImplementedError

    def peak_rss_kib(self):
        """Peak RSS of the process the workload's reports run in."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self):
        pass


class TreeReports(Workload):
    name = "tree_reports"
    # One round: 24 trees of 30..99 vertices, alpha = 0..6 in turn.  Close
    # sizes keep the median report between neighbouring costs.
    SIZES = tuple(range(30, 100, 3))
    ROUNDS = 3  # about what a run at seed speed gets through
    REACHES = PIPELINE + GRAPH_REPORT + ("cli.bockstein_payload",)

    def build(self):
        from linkimm import plumbing

        ladder = spread_order(range(len(self.SIZES)), cost=lambda k: k)
        self.inputs = [random_tree_doc(self.rng, self.SIZES[k], k % 7)
                       for _ in range(self.ROUNDS) for k in ladder]
        self.graphs = [plumbing.PlumbingGraph.from_dict(doc) for doc in self.inputs]
        self.order = list(range(len(self.inputs)))
        # the first tree of each alpha; only alpha > 0 calls the Bockstein
        self.coverage = [self.order[ladder.index(a)] for a in range(7)]

    def report(self, i):
        from linkimm import cli

        g, source = self.graphs[i], f"tree-{i}.json"
        return (render(cli.graph_payload(g, source), cli.render_graph_md)
                + render(cli.bockstein_payload(g, source), cli.render_bockstein_md))

    def check(self, i, outs):
        full, errors = check.parse_json(outs[0])
        section, more = check.parse_json(outs[2])
        if errors or more:
            return errors + more
        errors = check.check_graph_report(self.inputs[i], full, outs[1])
        errors += check.check_bockstein_report(full, section)
        return errors + check.check_md(outs[3], [f"- H^2(M; Z): {full['h2']['display']}"])


class TorsionStars(Workload):
    """Each round has one star per alpha = 3..8 and three more at alpha = 5.

    A report's cost grows as 2^alpha, so with one star per alpha the median
    report falls in the gap between two alpha levels and jumps with every
    change of mix; the extra alpha = 5 stars put it inside one level.  The
    search cost of a uniformly random target is uniform on 1..2^alpha tries,
    so a run's figures average over a thousand fresh targets; with alpha up
    to 10 the few largest searches alone set the tail and the seed-to-seed
    spread exceeds any usable bound.
    """

    name = "torsion_stars"
    ROUND = (3, 4, 5, 5, 5, 5, 6, 7, 8)
    ROUNDS = 180  # about what a run at seed speed gets through
    REACHES = PIPELINE + GRAPH_REPORT + ("wu.realize_parallelization",)

    def build(self):
        from linkimm import plumbing

        self.inputs = []
        for _ in range(self.ROUNDS):
            for alpha in self.rng.sample(self.ROUND, len(self.ROUND)):
                bits = [self.rng.getrandbits(1) for _ in range(alpha + 2)]
                self.inputs.append((star_doc(self.rng, alpha + 1), bits))
        self.graphs = [plumbing.PlumbingGraph.from_dict(doc) for doc, _ in self.inputs]
        self.order = list(range(len(self.inputs)))
        self.coverage = self.order[: len(self.ROUND)]  # one round: every alpha

    def report(self, i):
        from linkimm import cli, linalg, plumbing, wu

        g, bits = self.graphs[i], self.inputs[i][1]
        payload = cli.graph_payload(g, f"star-{i}.json")
        outs = render(payload, cli.render_graph_md)
        factors = tuple(payload["h2"]["invariant_factors"])
        coords = tuple(d // 2 if d % 2 == 0 and bit else 0 for d, bit in zip(factors, bits))
        target = wu.CohClass(linalg.FinAbGroup(0, factors), coords)
        answer = wu.realize_parallelization(plumbing.intersection_matrix(g), target)
        return outs + (json.dumps({"target": coords, "answer": answer.bits}),)

    def check(self, i, outs):
        doc = self.inputs[i][0]
        rep, errors = check.parse_json(outs[0])
        if errors:
            return errors
        errors = check.check_graph_report(doc, rep, outs[1])
        found = json.loads(outs[2])
        return errors + check.check_realization(doc, rep, found["target"], found["answer"])


class DynkinSweep(Workload):
    name = "dynkin_sweep"
    REACHES = PIPELINE + (
        "classify.table_row", "classify.classify_link_inclusion",
        "classify.classify_kinjo_pushforward", "smale.kinjo_smale",
        "catalog.singularity_record", "cli.table_payload", "cli.link_payload",
        "cli.smale_payload")

    def build(self):
        from linkimm import plumbing

        # every A and D label up to 24 vertices, then one label per 8
        # vertices up to ~146, each nudged by 0..2 vertices by the seed
        sizes = list(range(1, 25)) + [24 + 8 * k + self.rng.randrange(3) for k in range(1, 16)]
        self.inputs = ([("A", v + 1) for v in sizes]
                       + [("D", v - 2) for v in sizes if v >= 4]
                       + [("E", 6), ("E", 7), ("E", 8)])
        self.labels = [plumbing.DynkinLabel(f, n) for f, n in self.inputs]
        vertices = {i: label.vertex_count for i, label in enumerate(self.labels)}
        self.order = spread_order(vertices, cost=vertices.get)
        self.coverage = [self.inputs.index(first) for first in (("A", 2), ("D", 2), ("E", 6))]

    def report(self, i):
        from linkimm import cli

        label = self.labels[i]
        outs = render(cli.table_payload([label]), cli.render_table_md)
        outs += render(cli.link_payload(label), cli.render_link_md)
        for immersion in IMMERSIONS:
            outs += render(cli.smale_payload(label, immersion), cli.render_smale_md)
        return outs

    def check(self, i, outs):
        family, n = self.inputs[i]
        docs = []
        for text in outs[0::2]:
            doc, errors = check.parse_json(text)
            if errors:
                return errors
            docs.append(doc)
        errors = check.check_table_rows(docs[0], [(family, n)])
        errors += check.check_link_report(docs[1], family, n)
        for doc, immersion in zip(docs[2:], IMMERSIONS):
            errors += check.check_smale_report(doc, family, n, immersion)
        np_line = f"- np (R^5): {docs[1]['smale_r5']['np']}"
        return errors + check.check_md(outs[3], [np_line])


class CliCatalog(Workload):
    """One report is one fresh CLI process; its outputs are stdout and the exit code."""

    name = "cli_catalog"
    traced = False  # set by the harness: run the timing child instead of -m linkimm.cli

    def build(self):
        self.workdir = make_tmp("cli-")
        rng = self.rng
        docs = [random_tree_doc(rng, 8, 1), random_tree_doc(rng, 10, 2),
                degenerate_star_doc(rng)]
        self.files = []  # (path relative to workdir, the CLI's cwd; document)
        for k, doc in enumerate(docs):
            path = f"graph-{k}.json"
            with open(os.path.join(self.workdir, path), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.files.append((path, doc))
        family, n = rng.choice([("A", rng.randint(2, 9)), ("D", rng.randint(2, 9)), ("E", 7)])
        link_labels = [("A", rng.randint(2, 30)), rng.choice([("D", rng.randint(2, 20)),
                                                              ("E", rng.randint(6, 8))])]
        smale_label = rng.choice([("A", rng.randint(2, 30)), ("D", rng.randint(2, 20))])
        self.inputs = []
        for fmt in ("json", "md"):
            tail = ["--format", fmt]
            self.inputs += [
                (["table", *tail], 0, ("table", None)),
                (["table", "--family", family, "--n", str(n), *tail], 0, ("table", (family, n))),
                *[(["link", *label_words(*lab), *tail], 0, ("link", lab)) for lab in link_labels],
                *[(["smale", *label_words(*smale_label), "--immersion", imm, *tail], 0,
                   ("smale", (*smale_label, imm))) for imm in rng.sample(IMMERSIONS, 2)],
                (["graph", self.files[0][0], *tail], 0, ("graph", 0)),
                (["graph", self.files[1][0], *tail], 0, ("graph", 1)),
                (["bockstein", self.files[1][0], *tail], 0, ("bockstein", 1)),
                (["link", "A", str(rng.randint(-3, 1)), *tail], 2, ("error", None)),
                (["graph", self.files[2][0], *tail], 3, ("error", None)),
            ]
        self.child_times = []  # (import_ms, run_ms) per traced call
        self.child_rss_kib = 0  # largest peak RSS of a CLI child
        self.order = self.rng.sample(range(len(self.inputs)), len(self.inputs))
        self.coverage = []  # the library runs in the child processes only

    def report(self, i):
        args, _, _ = self.inputs[i]
        if self.traced:
            cmd = [sys.executable, CLI_CHILD, *args]
        else:
            cmd = [sys.executable, "-m", "linkimm.cli", *args]
        env = dict(os.environ, PYTHONPATH=SRC)
        stdout, stderr, code, rss_kib = run_child(cmd, self.workdir, env, timeout=120)
        self.child_rss_kib = max(self.child_rss_kib, rss_kib)
        if self.traced:
            marker = stderr.rstrip("\n").rsplit("\n", 1)[-1]
            timing = json.loads(marker.split(" ", 1)[1])
            self.child_times.append((timing["import_ms"], timing["run_ms"]))
        return (stdout, str(code))

    def peak_rss_kib(self):
        return self.child_rss_kib

    def check(self, i, outs):
        from linkimm import cli, plumbing

        args, want_code, (kind, what) = self.inputs[i]
        stdout, code = outs
        if int(code) != want_code:
            return [f"{' '.join(args)}: exit code {code}, expected {want_code}"]
        if want_code:
            return [] if stdout == "" else [f"{' '.join(args)}: output on a failing call"]
        fmt = args[-1]
        if kind == "table":
            labels = [plumbing.DynkinLabel(*what)] if what else cli.TABLE_LABELS
            payload, md = cli.table_payload(labels), cli.render_table_md
        elif kind == "link":
            payload, md = cli.link_payload(plumbing.DynkinLabel(*what)), cli.render_link_md
        elif kind == "smale":
            label = plumbing.DynkinLabel(what[0], what[1])
            payload, md = cli.smale_payload(label, what[2]), cli.render_smale_md
        else:
            path, doc = self.files[what]
            make_payload = cli.graph_payload if kind == "graph" else cli.bockstein_payload
            payload = make_payload(plumbing.PlumbingGraph.from_dict(doc), path)
            md = cli.render_graph_md if kind == "graph" else cli.render_bockstein_md
        if fmt == "md":
            return [] if stdout == md(payload) + "\n" else [f"{' '.join(args)}: md differs"]
        doc, errors = check.parse_json(stdout)
        if errors:
            return errors
        if doc != check.to_json_value(payload):
            return [f"{' '.join(args)}: JSON does not parse back to the in-process payload"]
        if kind == "table":
            labs = [what] if what else [(lab.family, lab.parameter) for lab in cli.TABLE_LABELS]
            return check.check_table_rows(doc, labs)
        if kind == "link":
            return check.check_link_report(doc, *what)
        if kind == "smale":
            return check.check_smale_report(doc, *what)
        if kind == "graph":
            return check.check_graph_report(self.files[what][1], doc)
        return []

    def close(self):
        remove_tmp(self.workdir)


WORKLOADS = {w.name: w for w in (TreeReports, DynkinSweep, TorsionStars, CliCatalog)}
