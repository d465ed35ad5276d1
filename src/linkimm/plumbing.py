"""Plumbing graphs, Dynkin diagrams, and invariants of X(G) and M(G).

A plumbing graph is a connected weighted graph: each vertex carries the
Euler number of a disk bundle over S^2 and each edge a gluing sign.  The
graph determines a 4-manifold X(G) with intersection form

    A[i][i] = euler weight of vertex i,
    A[i][j] = sum of the signs of the edges joining i and j,

and a plumbed 3-manifold M(G) as its boundary.  The boundary's first
homology is coker(A), so all link invariants here reduce to the exact
linear algebra in :mod:`linkimm.linalg`.

Dynkin diagrams of types A, D, E enter with the weight convention of
minimal resolutions of simple singularities: every vertex weight is -2 and
every edge sign +1.  The family parameter follows the germ exponent: ``A``
with parameter n is the diagram A_{n-1} (n >= 2), ``D`` with parameter n
is D_{n+2} (n >= 2), and ``E`` takes parameter 6, 7, or 8 directly.
"""

from __future__ import annotations

from .errors import InvalidGraph, InvalidParameter, NotRationalHomologySphere, NotSymmetric
from .linalg import FinAbGroup, IntMatrix, cokernel, signature
from .record import Record

FAMILIES = ("A", "D", "E")


class DynkinLabel(Record):
    """A simple-singularity type: family A, D, or E plus its parameter."""

    _fields = ("family", "parameter")

    def __init__(self, family: str, parameter: int):
        if family not in FAMILIES:
            raise InvalidParameter(f"unknown family {family!r}, expected A, D, or E")
        if family in ("A", "D"):
            if not isinstance(parameter, int) or parameter < 2:
                raise InvalidParameter(
                    f"family {family} needs an integer parameter n >= 2, got {parameter!r}"
                )
        elif not isinstance(parameter, int) or parameter not in (6, 7, 8):
            raise InvalidParameter(f"family E needs parameter 6, 7, or 8, got {parameter!r}")
        self._store(family, parameter)

    @property
    def vertex_count(self) -> int:
        if self.family == "A":
            return self.parameter - 1
        if self.family == "D":
            return self.parameter + 2
        return self.parameter

    @property
    def name(self) -> str:
        """Subscripted diagram name, e.g. A 2 -> 'A_1', D 3 -> 'D_5'."""
        return f"{self.family}_{self.vertex_count}"

    def __str__(self):
        return self.name


class PlumbingGraph(Record):
    """Connected weighted graph: (id, euler weight) vertices, signed edges.

    Edge endpoints must be existing vertex ids, self-loops are rejected,
    and multi-edges are allowed (their signs add up in the intersection
    form).  Disconnected graphs are rejected outright.  Checked values
    are stored as plain ints (True as 1, 1.0 as 1), so the JSON of
    ``to_dict`` always parses back through ``from_dict``.
    """

    _fields = ("vertices", "edges")  # of (id, weight); of (id_a, id_b, sign)

    def __init__(self, vertices: tuple, edges: tuple = ()):
        ids = [v for v, _ in vertices]
        if not ids:
            raise InvalidGraph("a plumbing graph needs at least one vertex")
        if len(set(ids)) != len(ids):
            raise InvalidGraph("duplicate vertex ids")
        for v, w in vertices:
            if not isinstance(v, int) or not isinstance(w, int):
                raise InvalidGraph(f"vertex ({v!r}, {w!r}) must be integer id and weight")
        known = set(ids)
        for a, b, s in edges:
            if a not in known or b not in known:
                raise InvalidGraph(f"edge ({a}, {b}) references a missing vertex")
            if a == b:
                raise InvalidGraph(f"self-loop at vertex {a}")
            if s not in (1, -1):
                raise InvalidGraph(f"edge sign must be +1 or -1, got {s!r}")
        # tuple() of a list, not of a generator: CPython resizes the latter,
        # and once freed it stays in the tuple free list until a full garbage
        # collection, so a long run of small graphs grows that list by megabytes
        self._store(tuple([(int(v), int(w)) for v, w in vertices]),
                    tuple([(int(a), int(b), int(s)) for a, b, s in edges]))
        if not self._is_connected():
            raise InvalidGraph("graph is not connected")

    def _is_connected(self) -> bool:
        ids = [v for v, _ in self.vertices]
        adj = {v: set() for v in ids}
        for a, b, _ in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(ids)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_tree(self) -> bool:
        return self.edge_count == self.vertex_count - 1

    @staticmethod
    def build(vertices, edges=()) -> "PlumbingGraph":
        """Construct from iterables of (id, weight) and (a, b[, sign]).

        Values pass through unchanged, so the constructor's checks apply:
        InvalidGraph on an id or weight that is not an int, or a sign that
        is not +1 or -1.
        """
        vs = tuple([(v, w) for v, w in vertices])
        es = tuple([(*e, 1) if len(e) == 2 else tuple(e) for e in edges])
        return PlumbingGraph(vs, es)

    @staticmethod
    def from_dict(data) -> "PlumbingGraph":
        """Parse the JSON graph schema.

        Expected shape: {"vertices": [{"id": int, "weight": int}, ...],
        "edges": [{"a": int, "b": int, "sign": 1|-1}, ...]}.  The "sign"
        key defaults to 1 when omitted.
        """
        if not isinstance(data, dict):
            raise InvalidGraph("graph document must be a JSON object")
        try:
            raw_vertices = data["vertices"]
        except KeyError:
            raise InvalidGraph('missing "vertices" key') from None
        raw_edges = data.get("edges", [])
        if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
            raise InvalidGraph('"vertices" and "edges" must be arrays')
        def require_int(value, context):
            # JSON booleans are Python ints; keep them out of ids and weights
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidGraph(f"{context} must be an integer, got {value!r}")
            return value

        vertices = []
        for item in raw_vertices:
            if not isinstance(item, dict) or "id" not in item or "weight" not in item:
                raise InvalidGraph(f"vertex record {item!r} needs 'id' and 'weight'")
            vertices.append((require_int(item["id"], "vertex id"),
                             require_int(item["weight"], "vertex weight")))
        edges = []
        for item in raw_edges:
            if not isinstance(item, dict) or "a" not in item or "b" not in item:
                raise InvalidGraph(f"edge record {item!r} needs 'a' and 'b'")
            sign = item.get("sign", 1)
            if sign not in (1, -1) or isinstance(sign, bool):
                raise InvalidGraph(f"edge record {item!r} has a malformed sign")
            edges.append((require_int(item["a"], "edge endpoint"),
                          require_int(item["b"], "edge endpoint"), sign))
        return PlumbingGraph(tuple(vertices), tuple(edges))

    def to_dict(self) -> dict:
        return {
            "vertices": [{"id": v, "weight": w} for v, w in self.vertices],
            "edges": [{"a": a, "b": b, "sign": s} for a, b, s in self.edges],
        }


def dynkin_graph(label: DynkinLabel) -> PlumbingGraph:
    """The Dynkin diagram of the label as a plumbing graph.

    All vertex weights are -2 and all edge signs +1.  Vertices are numbered
    0..k-1: families A and D lay out a path 0-1-...; D appends its two
    extra leaves to the far end of the path; E attaches its extra vertex to
    position 2 of the path.  The diagram is a valid connected graph by
    construction, so it skips the constructor's checks.
    """
    k = label.vertex_count
    vertices = tuple([(i, -2) for i in range(k)])
    if label.family == "A":
        edges = [(i, i + 1, 1) for i in range(k - 1)]
    elif label.family == "D":
        n = label.parameter
        edges = [(i, i + 1, 1) for i in range(n - 1)]  # path 0..n-1
        edges += [(n - 1, n, 1), (n - 1, n + 1, 1)]  # two leaves at the fork
    else:
        edges = [(i, i + 1, 1) for i in range(k - 2)]  # path 0..k-2
        edges.append((2, k - 1, 1))
    return PlumbingGraph._trusted(vertices=vertices, edges=tuple(edges))


def intersection_matrix(g: PlumbingGraph) -> IntMatrix:
    """Symmetric intersection form of X(G), in the graph's vertex order.

    The matrix is born with its sparse rows (``IntMatrix.nonzero_rows``),
    built from the weights and edges, leaving out entries that cancel (a
    weight of 0, multi-edges of opposite signs); its n^2 dense entries are
    built only if something reads them, so a form whose readers all work
    on the ~3n nonzeros of a tree never allocates them.  The graph stores
    every weight and sign as a checked plain int, so the matrix skips the
    per-entry check; each edge adds its sign to both (i, j) and (j, i), so
    the matrix is born symmetric (``_symmetric=True``) and ``signature``
    and ``link_first_homology`` skip the symmetry scan.
    """
    index = {v: i for i, (v, _) in enumerate(g.vertices)}
    rows = tuple([{i: w} if w else {} for i, (_, w) in enumerate(g.vertices)])
    for a, b, s in g.edges:
        i, j = index[a], index[b]
        for r, c in ((i, j), (j, i)):
            row = rows[r]
            v = row.get(c, 0) + s
            if v:
                row[c] = v
            else:
                del row[c]
    n = len(rows)
    return IntMatrix._trusted(rows=n, cols=n, nonzero_rows=rows, _symmetric=True)


def filling_signature(a: IntMatrix) -> int:
    """sigma(X(G)) = ``signature(a)``; kept apart only because the bench's coverage list names it."""
    return signature(a)


def filling_euler_characteristic(g: PlumbingGraph) -> int:
    """chi(X(G)) = 1 - b_1 + #V; b_1 = 0 for trees."""
    b1 = g.edge_count - g.vertex_count + 1
    return 1 - b1 + g.vertex_count


def link_first_homology(a: IntMatrix) -> FinAbGroup:
    """H_1(M(G); Z) = H^2(M(G); Z) = coker A, for A the intersection form of G.

    Raises NotSymmetric, before any elimination, unless A is a symmetric
    form, then NotRationalHomologySphere (with the free rank) when det A = 0.
    """
    if not a.is_symmetric():
        raise NotSymmetric("intersection form must be symmetric")
    group = cokernel(a)
    if group.free_rank:
        raise NotRationalHomologySphere(group.free_rank)
    return group


def recognize_dynkin(g: PlumbingGraph):
    """The DynkinLabel this graph realizes, or None.

    A match requires every weight -2, every edge sign +1, a tree shape,
    and either a path (type A) or a single trivalent vertex whose three
    arm lengths are (1, 1, m) for D or (1, 2, 2|3|4) for E_6/E_7/E_8.
    """
    if any(w != -2 for _, w in g.vertices):
        return None
    if any(s != 1 for _, _, s in g.edges):
        return None
    if not g.is_tree:
        return None
    adj = {v: [] for v, _ in g.vertices}
    for a, b, _ in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    degrees = sorted(len(nb) for nb in adj.values())
    if degrees[-1] > 3:
        return None
    forks = [v for v, nb in adj.items() if len(nb) == 3]
    if not forks:
        return DynkinLabel("A", g.vertex_count + 1)
    if len(forks) > 1:
        return None
    fork = forks[0]
    arms = []
    for start in adj[fork]:
        length = 1
        prev, cur = fork, start
        while len(adj[cur]) == 2:
            nxt = next(v for v in adj[cur] if v != prev)
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return DynkinLabel("D", g.vertex_count - 2)
    if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
        return DynkinLabel("E", arms[2] + 4)
    return None
