"""The value group of the Wu invariant and its Bockstein calculus.

The cohomology of a plumbed rational homology sphere with intersection
form A is modeled on the two-term complex Z^n --A--> Z^n:

    H^2(M; Z)   = coker(A), in invariant-factor coordinates,
    H^1(M; Z_2) = ker(A mod 2), as 0/1 cochain vectors.

H^2 and the coordinates of its classes come from the one Smith
decomposition U*A*V = S that A keeps (``smith_normal_form(a)``):
``plumbing.link_first_homology`` takes its group and rejects asymmetric
and degenerate forms (det A = 0) rather than supporting them partially,
and each coordinate belongs to one of the diagonal positions in
``SmithDecomposition.factors``.

``gamma2`` lists Gamma_2(0) = {C : 2C = 0}, the value group of the Wu
invariant of an immersion with trivial normal bundle.  ``bockstein`` is the
connecting map of 0 -> Z -> Z -> Z_2 -> 0 computed on cochains: lift a
mod-2 cocycle x to the 0/1 vector, halve A*x (exact by the cocycle
condition), and read the class of the result in coker(A) through the
same decomposition, which A keeps, so no caller passes it in.  Changing
a parallelization shifts the Wu invariant by the Bockstein of the
difference class (``wu_switch``), and ``realize_parallelization`` inverts
that shift by reading the preimage off a few columns of the transform V
of that decomposition, checked by one Bockstein.  Neither map builds
a whole transform: the Bockstein reads the rows of U at the factors
(``SmithDecomposition.factor_rows``), the preimage the columns of V at the
factors it needs (``SmithDecomposition.v_columns``).
"""

from __future__ import annotations

import itertools

from .errors import (
    FreeRankUnsupported,
    NoPreimageFound,
    NotACocycle,
    NotTwoTorsion,
)
from .linalg import FinAbGroup, IntMatrix, smith_normal_form
from .plumbing import link_first_homology
from .record import Record, ints


class CohClass(Record):
    """Element of a finitely generated abelian group, one coordinate per factor.

    ``coords`` holds one residue per invariant factor (already reduced)
    followed by one integer per free generator.  Equality is coordinate-wise
    and requires structurally equal parent groups.  After its length check
    the constructor reads the coordinates through ``record.ints``.
    """

    _fields = ("parent", "coords")

    def __init__(self, parent: FinAbGroup, coords: tuple):
        facs = parent.invariant_factors
        expected = len(facs) + parent.free_rank
        if len(coords) != expected:
            raise ValueError(f"expected {expected} coordinates, got {len(coords)}")
        coords = ints(coords, "coordinate")
        reduced = [c % d for c, d in zip(coords, facs)]
        reduced += coords[len(facs):]
        self._store(parent, tuple(reduced))

    @staticmethod
    def zero(parent: FinAbGroup) -> "CohClass":
        return CohClass(parent, (0,) * (len(parent.invariant_factors) + parent.free_rank))

    def __add__(self, other: "CohClass") -> "CohClass":
        if self.parent != other.parent:
            raise ValueError(f"mismatched parent groups {self.parent} and {other.parent}")
        return CohClass(self.parent, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, scalar: int) -> "CohClass":
        return CohClass(self.parent, tuple(scalar * c for c in self.coords))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def is_two_torsion(self) -> bool:
        return (2 * self).is_zero

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + f") in {self.parent}"


class Z2Class(Record):
    """A mod-2 cochain: 0/1 vector of length n.

    Instances meant to represent H^1(M; Z_2) classes must lie in the mod-2
    kernel of the intersection form; the operations that consume them
    check that and raise NotACocycle otherwise.  The bits are read through
    ``record.ints`` and stored mod 2.
    """

    _fields = ("bits",)

    def __init__(self, bits: tuple):
        self._store(tuple([b % 2 for b in ints(bits, "bit")]))

    @property
    def is_zero(self) -> bool:
        return not any(self.bits)

    def __str__(self):
        return "(" + "".join(str(b) for b in self.bits) + ")"


def gamma2(group: FinAbGroup) -> list:
    """Gamma_2(0) = {C : 2C = 0} in the given group, factor by factor.

    Only torsion groups are supported (FreeRankUnsupported otherwise); an
    odd factor d contributes 0 alone, an even one 0 and d/2.
    """
    if group.free_rank:
        raise FreeRankUnsupported("gamma2 requires a finite group (free rank 0)")
    per_factor = [(0, d // 2) if d % 2 == 0 else (0,) for d in group.invariant_factors]
    # each per-factor solution is already reduced mod its factor
    return [CohClass._trusted(parent=group, coords=combo) for combo in itertools.product(*per_factor)]


def bockstein(a: IntMatrix, x: Z2Class) -> CohClass:
    """Connecting homomorphism H^1(M; Z_2) -> H^2(M; Z) on cochains.

    Lifts x to its 0/1 representative, halves A*lift (integral exactly
    when x is a cocycle), and expresses the result in invariant-factor
    coordinates through the rows of the transform U at the factors of
    ``smith_normal_form(a)`` (``factor_rows``, built once per
    decomposition without the rest of U).  The group is
    ``link_first_homology(a)``, so an asymmetric or degenerate A raises
    NotSymmetric or NotRationalHomologySphere.
    """
    group = link_first_homology(a)
    smith = smith_normal_form(a)
    n = a.rows
    if len(x.bits) != n:
        raise NotACocycle(f"cochain length {len(x.bits)} does not match form size {n}")
    # A*lift for a 0/1 lift: A is symmetric, so the sum of the rows of A
    # on the lift's support
    image = [0] * n
    rows = a.nonzero_rows
    for j in itertools.compress(range(n), x.bits):
        for i, e in rows[j].items():
            image[i] += e
    if any(v % 2 for v in image):
        raise NotACocycle(f"{x} is not in the mod-2 kernel")
    half = [v // 2 for v in image]
    coords = tuple(sum(e * h for e, h in zip(row, half)) % d
                   for row, (_, d) in zip(smith.factor_rows, smith.factors))
    return CohClass(group, coords)


def wu_switch(c0: CohClass, a: IntMatrix, d: Z2Class) -> CohClass:
    """Wu invariant after a parallelization change with difference class d."""
    return c0 + bockstein(a, d)


def realize_parallelization(a: IntMatrix, target: CohClass) -> Z2Class:
    """The difference class whose Bockstein is the given 2-torsion target.

    With U*A*V = S, the target's coordinate on the factor d = S[i, i]
    (position i of ``smith.factors``) is 0 or d/2.  Setting z_i = 1 where
    it is d/2 (and 0 elsewhere), y = V*z solves A*y = 2*U^-1*c, so y mod 2
    -- the mod-2 sum of those columns of V -- is a cocycle whose Bockstein
    is the target.  Only those columns are replayed
    (``smith.v_columns``), never the whole of V.  The Bockstein of a
    rational homology sphere is injective, so that is the only preimage.
    NoPreimageFound signals input outside those hypotheses (a target from
    another group, say), or a closing Bockstein that misses the target.
    """
    if not target.is_two_torsion:
        raise NotTwoTorsion(f"target {target} does not satisfy 2C = 0")
    if target.parent != link_first_homology(a):
        raise NoPreimageFound(f"{target} is not a class of coker A")
    smith = smith_normal_form(a)
    picked = [i for (i, _), c in zip(smith.factors, target.coords) if c]
    columns = smith.v_columns(picked)
    x = Z2Class(tuple(sum(col[r] for col in columns) for r in range(a.cols)))
    if bockstein(a, x) != target:
        raise NoPreimageFound(f"no mod-2 class maps to {target}")
    return x
