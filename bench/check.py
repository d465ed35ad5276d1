"""Independent output checks for the benchmark.

Nothing here imports linkimm: every check recomputes what it needs from
the generated input and the rendered output alone.  Each function returns
a list of mismatch messages (empty when the output is right).

Graph reports are checked against their certificate: U*A*V = S, U and V
unimodular, the invariant factors against |det A|, every Bockstein row
against U*(A*x/2) reduced mod the factors, Gamma_2(0) against its
expected size, and the signature against a leaf-elimination count.  For
n <= EXACT_MAX the product U*A*V and the determinants of U and V are
computed exactly (fraction-free Bareiss).  Above that, the product is
checked by Freivalds' test with 64-bit random vectors (a false pass has
probability below 2^-128), and unimodularity follows exactly from
det(U) det(A) det(V) = det(S) = +-det(A) != 0 with integer determinants.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

EXACT_MAX = 24
JSON_SAFE_MAX = 2 ** 53 - 1  # larger integers appear in reports as decimal strings


def to_json_value(value):
    """The report's JSON encoding, rebuilt here: big ints and rationals as strings."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value if -JSON_SAFE_MAX <= value <= JSON_SAFE_MAX else str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [to_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json_value(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {value!r}")


# ---------------------------------------------------------------------------
# exact arithmetic of our own


def intersection_rows(doc) -> list:
    """Intersection form of a graph document, in its vertex order."""
    index = {v["id"]: i for i, v in enumerate(doc["vertices"])}
    n = len(index)
    rows = [[0] * n for _ in range(n)]
    for i, v in enumerate(doc["vertices"]):
        rows[i][i] = v["weight"]
    for e in doc["edges"]:
        i, j = index[e["a"]], index[e["b"]]
        rows[i][j] += e.get("sign", 1)
        rows[j][i] += e.get("sign", 1)
    return rows


def bareiss_det(rows) -> int:
    n = len(rows)
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pk, rk = m[k][k], m[k]
        for i in range(k + 1, n):
            ri = m[i]
            mik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - mik * rk[j]) // prev
            ri[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1] if n else 1


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of integer vectors, parity taken."""
    return mask_rank(sum(1 << j for j, e in enumerate(vec) if e & 1) for vec in vectors)


def mask_rank(masks) -> int:
    """Rank over GF(2) of vectors held as int bitmasks."""
    pivots = {}
    for mask in masks:
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = mask
                break
            mask ^= pivots[top]
    return len(pivots)


def tree_signature(rows):
    """Signature of a tree-shaped symmetric form by leaf elimination.

    Eliminating a leaf with nonzero pivot p subtracts s^2/p from its
    neighbour.  A zero pivot pairs the leaf with its neighbour: that 2x2
    block has signature 0 and, since the leaf touches nothing else, the
    rest of the form is unchanged once both are removed.
    """
    n = len(rows)
    adj = [{j for j in range(n) if j != i and rows[i][j]} for i in range(n)]
    value = [Fraction(rows[i][i]) for i in range(n)]
    alive = set(range(n))
    leaves = [i for i in range(n) if len(adj[i]) <= 1]
    sig = 0
    while leaves:
        i = leaves.pop()
        if i not in alive:
            continue
        alive.discard(i)
        nbrs = [j for j in adj[i] if j in alive]
        if value[i] == 0 and nbrs:
            (p,) = nbrs
            alive.discard(p)
            for q in adj[p]:
                if q in alive and len([r for r in adj[q] if r in alive]) <= 1:
                    leaves.append(q)
            continue
        sig += (value[i] > 0) - (value[i] < 0)
        for p in nbrs:
            value[p] -= Fraction(rows[i][p] ** 2) / value[i]
            if len([r for r in adj[p] if r in alive]) <= 1:
                leaves.append(p)
    return sig


def _matvec(rows, vec):
    return [sum(a * b for a, b in zip(r, vec) if a) for r in rows]


def _matmul(p, q):
    cols = list(zip(*q))
    return [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in p]


def beta(u, a, diag, x):
    """Bockstein of the 0/1 cochain x: U*(A*x/2) read mod the factors > 1."""
    image = _matvec(a, x)
    if any(v % 2 for v in image):
        return None
    t = _matvec(u, [v // 2 for v in image])
    return [c % d for c, d in zip(t, diag) if d > 1]


# ---------------------------------------------------------------------------
# report checks


def check_smith(a, u, s, v, diag) -> list:
    errors = []
    n = len(a)
    if any(len(m) != n or any(len(r) != n for r in m) for m in (u, s, v)):
        return ["smith: U, S, V are not all n x n"]
    if [s[i][i] for i in range(n)] != diag:
        errors.append("smith: diagonal list differs from S")
    if any(s[i][j] for i in range(n) for j in range(n) if i != j):
        errors.append("smith: S is not diagonal")
    if any(d < 0 for d in diag) or any(b % a for a, b in zip(diag, diag[1:]) if a):
        errors.append("smith: diagonal is not a nonnegative divisibility chain")
    if n <= EXACT_MAX:
        if _matmul(_matmul(u, a), v) != s:
            errors.append("smith: U*A*V != S")
        if abs(bareiss_det(u)) != 1 or abs(bareiss_det(v)) != 1:
            errors.append("smith: U or V is not unimodular")
    else:
        rng = random.Random(n)
        for _ in range(2):
            r = [rng.getrandbits(64) for _ in range(n)]
            if _matvec(u, _matvec(a, _matvec(v, r))) != _matvec(s, r):
                errors.append("smith: U*A*V != S (Freivalds)")
                break
    return errors


def check_graph_report(doc, rep, md=None) -> list:
    """Check a parsed `graph` report against the graph document it came from."""
    a = intersection_rows(doc)
    n = len(a)
    errors = []
    if [[int(x) for x in r] for r in rep["intersection_matrix"]] != a:
        return ["intersection matrix differs from the input graph"]
    sm = rep["smith"]
    u, s, v = ([[int(x) for x in r] for r in sm[k]] for k in ("u", "s", "v"))
    diag = [int(d) for d in sm["diagonal"]]
    errors += check_smith(a, u, s, v, diag)
    det_a = bareiss_det(a)
    if det_a == 0 or abs(det_a) != math.prod(diag):
        errors.append(f"product of invariant factors {math.prod(diag)} != |det A| = {abs(det_a)}")
    factors = [d for d in diag if d > 1]
    h2 = rep["h2"]
    if [int(d) for d in h2["invariant_factors"]] != factors or h2["free_rank"] != 0:
        errors.append("h2 does not match the Smith diagonal")
    alpha = sum(1 for d in factors if d % 2 == 0)
    if rep["alpha"] != alpha or alpha != n - gf2_rank(a):
        errors.append(f"alpha {rep['alpha']} != even factor count {alpha} / mod-2 corank")
    errors += _check_cohomology(a, u, diag, factors, alpha, rep)
    edges = len(doc["edges"])
    sig = tree_signature(a) if edges == n - 1 else None
    if sig is not None and rep["signature"] != sig:
        errors.append(f"signature {rep['signature']} != {sig}")
    if rep["resolved_label"] is not None and rep["signature"] != -n:
        errors.append(f"A-D-E signature {rep['signature']} != -#V = {-n}")
    if rep["formal"] != (rep["resolved_label"] is None):
        errors.append("formal flag does not match the resolved label")
    if rep["euler_characteristic"] != 1 - (edges - n + 1) + n:
        errors.append("euler characteristic is wrong")
    cls = rep["class"]
    num = 3 * (rep["signature"] - alpha)
    expected = num // 2 if num % 2 == 0 else f"{num}/2"
    if cls["smale_type"] != expected or cls["integral"] != (num % 2 == 0):
        errors.append(f"class smale type {cls['smale_type']} != 3/2(sigma - alpha)")
    if cls["wu"] != [0] * len(factors):
        errors.append("class wu is not zero")
    if md is not None:
        errors += check_md(md, [f"- signature: {rep['signature']}", f"- alpha: {alpha}",
                                f"- smith diagonal: {diag}"])
    return errors


def _check_cohomology(a, u, diag, factors, alpha, rep) -> list:
    errors = []
    basis = rep["h1_z2_basis"]
    if len(basis) != alpha or gf2_rank(basis) != alpha:
        errors.append("h1_z2_basis is not a basis of rank alpha")
    if any(x % 2 for vec in basis for x in _matvec(a, vec)):
        errors.append("an h1_z2_basis vector is not in the mod-2 kernel")
    rows = rep["bockstein"]
    if [r["kernel_vector"] for r in rows] != basis:
        errors.append("bockstein rows do not follow the kernel basis")
    for r in rows:
        if [int(c) for c in r["class"]] != beta(u, a, diag, r["kernel_vector"]):
            errors.append(f"bockstein row {r['kernel_vector']} != U*(A*x/2) mod factors")
            break
    classes = [tuple(int(c) for c in cls) for cls in rep["gamma2_zero"]]
    if len(classes) != 2 ** alpha or len(set(classes)) != len(classes):
        errors.append(f"Gamma_2(0) has {len(classes)} distinct classes, expected 2^{alpha}")
    if any((2 * c) % d for cls in classes for c, d in zip(cls, factors)):
        errors.append("a Gamma_2(0) class is not 2-torsion")
    return errors


def check_bockstein_report(graph_rep, rep) -> list:
    keys = ("source", "resolved_label", "formal", "h1_z2_basis", "h2", "gamma2_zero", "bockstein")
    if rep != {k: graph_rep[k] for k in keys}:
        return ["bockstein report is not the matching section of the graph report"]
    return []


def check_realization(doc, rep, target, answer) -> list:
    """The parallelization found must be a mod-2 cocycle mapping to the target."""
    a = intersection_rows(doc)
    u = [[int(x) for x in r] for r in rep["smith"]["u"]]
    diag = [int(d) for d in rep["smith"]["diagonal"]]
    if beta(u, a, diag, answer) != list(target):
        return [f"realize_parallelization answer {answer} does not map to {list(target)}"]
    return []


def check_md(md, lines) -> list:
    have = set(md.splitlines())
    return [f"md output lacks {line!r}" for line in lines if line not in have]


# ---------------------------------------------------------------------------
# A-D-E catalog facts, from their closed forms


def ade_facts(family, n) -> dict:
    """Vertex count, H^2 factors, group order and published R^5 Smale value."""
    if family == "A":
        return {"v": n - 1, "factors": [n], "order": n, "np": -(n * n - 1)}
    if family == "D":
        return {"v": n + 2, "factors": [2, 2] if n % 2 == 0 else [4], "order": 4 * n,
                "np": -(4 * n * n + 12 * n - 1)}
    return {"v": n, "factors": {6: [3], 7: [2], 8: []}[n], "order": {6: 24, 7: 48, 8: 120}[n],
            "np": {6: -167, 7: -383, 8: -1079}[n]}


def _ade_invariants(family, n):
    f = ade_facts(family, n)
    alpha = sum(1 for d in f["factors"] if d % 2 == 0)
    sig = -f["v"]
    kinjo = (f["order"] * (1 + f["v"]) - 1, 0)
    reverse = (-kinjo[0] - 2, -kinjo[1] + 1)
    return f, alpha, sig, kinjo, reverse


def check_table_rows(rows, labels) -> list:
    errors = []
    if len(rows) != len(labels):
        return ["table has the wrong number of rows"]
    for row, (family, n) in zip(rows, labels):
        f, alpha, sig, _, _ = _ade_invariants(family, n)
        want = {"label": f"{family}_{f['v']}", "family": family, "n": n,
                "h2": row["h2"] | {"free_rank": 0, "invariant_factors": f["factors"]},
                "signature": sig, "alpha": alpha, "smale_type": 3 * (sig - alpha) // 2}
        if row != want:
            errors.append(f"table row {family} {n} is wrong")
    return errors


def check_link_report(rep, family, n) -> list:
    f, alpha, sig, kinjo, reverse = _ade_invariants(family, n)
    smale = 3 * (sig - alpha) // 2
    want = {
        "label": f"{family}_{f['v']}", "n": n, "vertices": f["v"],
        "group_order": f["order"],
        "plumbing": (f["factors"], sig, alpha, 1 + f["v"]),
        "classes": ([0] * len(f["factors"]), smale, [0] * len(f["factors"]), smale, True),
        "smale_r4": (list(kinjo), list(reverse)),
        "smale_r5": (f["np"], reverse[0] + 2 * reverse[1], reverse[0] + 2 * reverse[1] == f["np"]),
    }
    pl, li, kp = rep["plumbing"], rep["link_inclusion"], rep["kinjo_pushforward"]
    got = {
        "label": rep["label"], "n": rep["n"], "vertices": rep["vertices"],
        "group_order": rep["group"]["order"],
        "plumbing": (pl["h2"]["invariant_factors"], pl["signature"], pl["alpha"],
                     pl["euler_characteristic"]),
        "classes": (li["wu"], li["smale_type"], kp["wu"], kp["smale_type"],
                    rep["regularly_homotopic"]),
        "smale_r4": ([rep["smale_r4"]["kinjo"]["a"], rep["smale_r4"]["kinjo"]["b"]],
                     [rep["smale_r4"]["kinjo-reversed"]["a"], rep["smale_r4"]["kinjo-reversed"]["b"]]),
        "smale_r5": (rep["smale_r5"]["np"], rep["smale_r5"]["pushforward"],
                     rep["smale_r5"]["consistent"]),
    }
    return [f"link {family} {n}: {k} is {got[k]}, expected {want[k]}"
            for k in want if got[k] != want[k]]


def check_smale_report(rep, family, n, immersion) -> list:
    f, _, _, kinjo, reverse = _ade_invariants(family, n)
    if immersion == "kinjo":
        ok = rep["smale_r4"] == {"a": kinjo[0], "b": kinjo[1]}
    elif immersion == "kinjo-reversed":
        ok = rep["smale_r4"] == {"a": reverse[0], "b": reverse[1]}
    elif immersion == "np":
        ok = rep["smale_r5"] == f["np"]
    else:
        pushed = reverse[0] + 2 * reverse[1]
        ok = (rep["smale_r5"], rep["np"]) == (pushed, f["np"]) and rep["verdict"] == (
            "consistent" if pushed == f["np"] else "inconsistent")
    return [] if ok else [f"smale {family} {n} {immersion} is wrong"]


def parse_json(text):
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
