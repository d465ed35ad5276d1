"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All comparisons are exact; the criteria that carry runtime bounds
assert them with time.perf_counter.
"""

import itertools
import random
import time
from fractions import Fraction

from linkimm import cli
from linkimm.classify import classify_kinjo_pushforward, classify_link_inclusion, table_row
from linkimm.linalg import (
    FinAbGroup,
    IntMatrix,
    cokernel,
    kernel_mod2,
    signature,
    smith_normal_form,
)
from linkimm.plumbing import DynkinLabel, PlumbingGraph, dynkin_graph, intersection_matrix
from linkimm.smale import (
    SmaleClassR4,
    kinjo_smale,
    kinjo_smale_reversed,
    np_smale_invariant,
    pushforward_j,
    rho_map,
    sigma_map,
)
from linkimm.wu import Z2Class, bockstein, gamma2, realize_parallelization

from check import _matmul, bareiss_det
from oracles import (
    SWEEP_LABELS,
    CosetGroup,
    random_matrix,
    random_negative_definite_tree,
    random_symmetric,
    signature_by_root_count,
)
from test_smale import rational_unit_quaternions


def report(num, name, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num} [{name}]: {status}{timing}")
    assert ok, f"criterion {num} ({name}) failed"


def expected_table_values(label):
    n = label.parameter
    if label.family == "A":
        return ((n,), -(n - 1), 1 if n % 2 == 0 else 0,
                -3 * n // 2 if n % 2 == 0 else -3 * (n - 1) // 2)
    if label.family == "D":
        return ((2, 2) if n % 2 == 0 else (4,), -(n + 2), 2 if n % 2 == 0 else 1,
                -3 * (n + 4) // 2 if n % 2 == 0 else -3 * (n + 3) // 2)
    return {
        6: ((3,), -6, 0, -9),
        7: ((2,), -7, 1, -12),
        8: ((), -8, 0, -12),
    }[n]


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    ok = True
    for label in SWEEP_LABELS:
        row = table_row(label)
        h2, sig, al, smale = expected_table_values(label)
        ok = ok and row.h2 == FinAbGroup(0, h2) and row.signature == sig
        ok = ok and row.alpha == al and row.smale_type == smale
    elapsed = time.perf_counter() - start
    report(1, "table reproduction, n = 2..50", ok and elapsed < 1.0, elapsed)


def test_criterion_2_covering_smale_classes():
    ok = True
    for n in range(2, 51):
        ok = ok and kinjo_smale(DynkinLabel("A", n)) == SmaleClassR4(n * n - 1, 0)
        ok = ok and kinjo_smale(DynkinLabel("D", n)) == SmaleClassR4(4 * n * n + 12 * n - 1, 0)
    ok = ok and kinjo_smale(DynkinLabel("E", 6)) == SmaleClassR4(167, 0)
    ok = ok and kinjo_smale(DynkinLabel("E", 7)) == SmaleClassR4(383, 0)
    ok = ok and kinjo_smale(DynkinLabel("E", 8)) == SmaleClassR4(1079, 0)
    report(2, "covering-immersion Smale classes", ok)


def test_criterion_3_reversed_smale_classes():
    ok = True
    for n in range(2, 51):
        ok = ok and kinjo_smale_reversed(DynkinLabel("A", n)) == SmaleClassR4(-n * n - 1, 1)
        ok = ok and kinjo_smale_reversed(DynkinLabel("D", n)) == SmaleClassR4(-4 * n * n - 12 * n - 1, 1)
    ok = ok and kinjo_smale_reversed(DynkinLabel("E", 6)) == SmaleClassR4(-169, 1)
    ok = ok and kinjo_smale_reversed(DynkinLabel("E", 7)) == SmaleClassR4(-385, 1)
    ok = ok and kinjo_smale_reversed(DynkinLabel("E", 8)) == SmaleClassR4(-1081, 1)
    report(3, "reversed-orientation Smale classes", ok)


def test_criterion_4_pushforward_consistency():
    ok = all(
        pushforward_j(kinjo_smale_reversed(label)) == np_smale_invariant(label)
        for label in SWEEP_LABELS
    )
    report(4, "pushforward matches published R^5 values", ok)


def test_criterion_5_regular_homotopy_and_coincidence():
    ok = True
    for label in SWEEP_LABELS:
        row = table_row(label)
        c1 = classify_link_inclusion(row)
        c2 = classify_kinjo_pushforward(row)
        ok = ok and c1.wu == c2.wu and c1.smale_type == c2.smale_type
    by_class = {}
    for label in (
        [DynkinLabel("A", n) for n in range(2, 101)]
        + [DynkinLabel("D", n) for n in range(2, 101)]
        + [DynkinLabel("E", k) for k in (6, 7, 8)]
    ):
        by_class.setdefault(kinjo_smale_reversed(label), []).append(label.name)
    collisions = {tuple(v) for v in by_class.values() if len(v) > 1}
    ok = ok and collisions == {("D_17", "E_8")}
    report(5, "classifications agree; only D_17/E_8 coincide", ok)


def test_criterion_6_bockstein_properties():
    rng = random.Random(160928)
    start = time.perf_counter()
    matrices = [intersection_matrix(dynkin_graph(label)) for label in cli.TABLE_LABELS]
    graphs = []
    for _ in range(100):
        vertices, edges = random_negative_definite_tree(rng, 8)
        graphs.append(PlumbingGraph(vertices, edges))
    matrices += [intersection_matrix(g) for g in graphs]
    ok = True
    for a in matrices:
        n = a.rows
        h2 = cokernel(a)
        basis = kernel_mod2(a)
        span = []
        for picks in itertools.product((0, 1), repeat=len(basis)):
            # Z2Class reduces each coordinate of the sum mod 2
            span.append(Z2Class(tuple(sum(p * vec[i] for p, vec in zip(picks, basis)) for i in range(n))))
        torsion_square = gamma2(h2)
        ok = ok and len(torsion_square) == 2 ** h2.two_torsion_rank
        dec = smith_normal_form(a)
        a_rows, u_rows = a.to_rows(), dec.u.to_rows()
        classes = {}
        for x in span:
            cls = bockstein(a, x)
            classes[x.bits] = cls
            # lands in Gamma_2(0)
            ok = ok and cls.is_two_torsion and cls in torsion_square
            # lift independence: a random integral lift gives the same class
            lift = [b - 2 * rng.randint(-2, 2) for b in x.bits]
            image = [sum(a_rows[i][j] * lift[j] for j in range(n)) for i in range(n)]
            assert all(v % 2 == 0 for v in image)
            half = [v // 2 for v in image]
            transformed = [sum(u_rows[i][j] * half[j] for j in range(n)) for i in range(n)]
            coords = tuple(t % d for t, d in zip(transformed, dec.diagonal) if d > 1)
            ok = ok and coords == cls.coords
        # additivity over random pairs
        for _ in range(4):
            x, y = rng.choice(span), rng.choice(span)
            x_plus_y = Z2Class(tuple(b + c for b, c in zip(x.bits, y.bits)))
            ok = ok and classes[x_plus_y.bits] == classes[x.bits] + classes[y.bits]
        # surjectivity onto Gamma_2(0), both directly and through realize
        ok = ok and {c.coords for c in classes.values()} == {t.coords for t in torsion_square}
        for target in torsion_square:
            ok = ok and bockstein(a, realize_parallelization(a, target)) == target
    elapsed = time.perf_counter() - start
    report(6, "Bockstein property suite", ok and elapsed < 5.0, elapsed)


def test_criterion_7_linear_algebra_oracles():
    rng = random.Random(271)
    start = time.perf_counter()
    ok = True
    # SNF factorization identity and unimodularity, 500 random matrices
    for _ in range(500):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = IntMatrix.from_rows(random_matrix(rng, r, c))
        dec = smith_normal_form(a)
        ok = ok and _matmul(_matmul(dec.u.to_rows(), a.to_rows()), dec.v.to_rows()) == dec.s.to_rows()
        ok = ok and abs(bareiss_det(dec.u.to_rows())) == 1 and abs(bareiss_det(dec.v.to_rows())) == 1
        diag = dec.diagonal
        ok = ok and all(d >= 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            ok = ok and (y == 0 if x == 0 else y % x == 0)
    # cokernel vs coset enumeration
    checked = 0
    while checked < 30:
        n = rng.randint(1, 3)
        rows = random_matrix(rng, n, n, -4, 4)
        det = bareiss_det(rows)
        if det == 0 or abs(det) > 30:
            continue
        checked += 1
        group = CosetGroup(rows)
        got = cokernel(IntMatrix.from_rows(rows))
        ok = ok and group.order == abs(det)
        ok = ok and got.invariant_factors == group.invariant_factors()
    # signature vs characteristic-polynomial root counting
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = random_symmetric(rng, n)
        ok = ok and signature(IntMatrix.from_rows(rows)) == signature_by_root_count(rows)
    elapsed = time.perf_counter() - start
    report(7, "linear-algebra oracles", ok and elapsed < 30.0, elapsed)


def test_criterion_8_quaternion_generators():
    rng = random.Random(43)
    ok = True
    units = rational_unit_quaternions(rng, 100)
    e1 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    for q in units:
        s = sigma_map(q)
        r = rho_map(q)
        ok = ok and s.is_special_orthogonal() and r.is_special_orthogonal()
        ok = ok and s.column(0) == q.coords()  # section of R -> R(e_1)
        ok = ok and r == rho_map(-q)  # double cover degeneracy
        ok = ok and r.column(0) == e1  # conjugation fixes the reals
    report(8, "quaternion generator suite", ok)
