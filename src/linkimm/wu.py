"""The value group of the Wu invariant and its Bockstein calculus.

The cohomology of a plumbed rational homology sphere with intersection
form A is modeled on the two-term complex Z^n --A--> Z^n:

    H^2(M; Z)   = coker(A), in invariant-factor coordinates,
    H^1(M; Z_2) = ker(A mod 2), as 0/1 cochain vectors.

Degenerate forms (det A = 0) are rejected rather than partially supported.

``gamma2`` solves 2C = chi factor by factor.  ``bockstein`` is the
connecting map of 0 -> Z -> Z -> Z_2 -> 0 computed on cochains: lift a
mod-2 cocycle x to the 0/1 vector, halve A*x (exact by the cocycle
condition), and read the class of the result in coker(A) through a Smith
decomposition of A that the caller computes once and passes in.  Changing
a parallelization shifts the Wu invariant by the Bockstein of the
difference class (``wu_switch``), and ``realize_parallelization`` inverts
that shift by reading the preimage off the transform V of one Smith
decomposition, checked by one Bockstein.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    FreeRankUnsupported,
    NoPreimageFound,
    NotACocycle,
    NotRationalHomologySphere,
    NotSymmetric,
    NotTwoTorsion,
)
from .linalg import FinAbGroup, IntMatrix, SmithDecomposition, smith_normal_form


@dataclass(frozen=True)
class CohClass:
    """Element of a finitely generated abelian group, one coordinate per factor.

    ``coords`` holds one residue per invariant factor (already reduced)
    followed by one integer per free generator.  Equality is coordinate-wise
    and requires structurally equal parent groups.
    """

    parent: FinAbGroup
    coords: tuple

    def __post_init__(self):
        expected = len(self.parent.invariant_factors) + self.parent.free_rank
        if len(self.coords) != expected:
            raise ValueError(f"expected {expected} coordinates, got {len(self.coords)}")
        object.__setattr__(self, "coords", self._reduce(self.coords))

    def _reduce(self, coords):
        facs = self.parent.invariant_factors
        torsion = tuple(int(c) % d for c, d in zip(coords, facs))
        free = tuple(int(c) for c in coords[len(facs):])
        return torsion + free

    @staticmethod
    def zero(parent: FinAbGroup) -> "CohClass":
        return CohClass(parent, (0,) * (len(parent.invariant_factors) + parent.free_rank))

    def _check_parent(self, other: "CohClass"):
        if self.parent != other.parent:
            raise ValueError(f"mismatched parent groups {self.parent} and {other.parent}")

    def __add__(self, other: "CohClass") -> "CohClass":
        self._check_parent(other)
        return CohClass(self.parent, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "CohClass":
        return CohClass(self.parent, tuple(-c for c in self.coords))

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-other)

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


@dataclass(frozen=True)
class Z2Class:
    """A mod-2 cochain: 0/1 vector of length n.

    Instances meant to represent H^1(M; Z_2) classes must lie in the mod-2
    kernel of the intersection form; the operations that consume them
    check that and raise NotACocycle otherwise.
    """

    bits: tuple

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) % 2 for b in self.bits))

    @staticmethod
    def zero(n: int) -> "Z2Class":
        return Z2Class((0,) * n)

    def __add__(self, other: "Z2Class") -> "Z2Class":
        if len(self.bits) != len(other.bits):
            raise ValueError("length mismatch")
        return Z2Class(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    @property
    def is_zero(self) -> bool:
        return not any(self.bits)

    def __str__(self):
        return "(" + "".join(str(b) for b in self.bits) + ")"


def gamma2(group: FinAbGroup, chi: CohClass) -> list:
    """All solutions C of 2C = chi in the given group, factor by factor.

    Only torsion groups are supported (FreeRankUnsupported otherwise); for
    an odd factor the congruence 2c = chi_i has exactly one solution, for
    an even one it has two or none.  Returns [] when unsolvable.
    """
    if group.free_rank:
        raise FreeRankUnsupported("gamma2 requires a finite group (free rank 0)")
    if chi.parent != group:
        raise ValueError("chi does not belong to the given group")
    per_factor = []
    for d, x in zip(group.invariant_factors, chi.coords):
        if d % 2:
            per_factor.append(((x * ((d + 1) // 2)) % d,))
        elif x % 2:
            return []
        else:
            half = (x // 2) % d
            per_factor.append(tuple(sorted((half, (half + d // 2) % d))))
    return [CohClass(group, combo) for combo in itertools.product(*per_factor)]


def _form_group(a: IntMatrix, smith: SmithDecomposition) -> FinAbGroup:
    """coker(A) read off the given Smith decomposition of A.

    Raises NotSymmetric unless A is a symmetric form, and
    NotRationalHomologySphere (with the zero count) when the Smith
    diagonal has zeros.
    """
    if not a.is_square or not a.is_symmetric():
        raise NotSymmetric("intersection form must be symmetric")
    diag = smith.diagonal
    zero_count = sum(1 for d in diag if d == 0)
    if zero_count:
        raise NotRationalHomologySphere(zero_count)
    return FinAbGroup(0, tuple(d for d in diag if d > 1))


def bockstein(a: IntMatrix, smith: SmithDecomposition, x: Z2Class) -> CohClass:
    """Connecting homomorphism H^1(M; Z_2) -> H^2(M; Z) on cochains.

    Lifts x to its 0/1 representative, halves A*lift (integral exactly
    when x is a cocycle), and expresses the result in invariant-factor
    coordinates through the transform U of ``smith``, which must be a
    Smith decomposition of A (as ``smith_normal_form(a)`` returns).
    """
    group = _form_group(a, smith)
    n = a.rows
    if len(x.bits) != n:
        raise NotACocycle(f"cochain length {len(x.bits)} does not match form size {n}")
    lift = x.bits
    # A*lift for a 0/1 lift: each row's sum over the lift's support
    image = [sum(itertools.compress(a.row(i), lift)) for i in range(n)]
    if any(v % 2 for v in image):
        raise NotACocycle(f"{x} is not in the mod-2 kernel")
    half = [v // 2 for v in image]
    u = smith.u
    coords = tuple(
        sum(e * h for e, h in zip(u.row(i), half)) % d
        for i, d in enumerate(smith.diagonal)
        if d > 1
    )
    return CohClass(group, coords)


def wu_switch(c0: CohClass, a: IntMatrix, d: Z2Class) -> CohClass:
    """Wu invariant after a parallelization change with difference class d."""
    return c0 + bockstein(a, smith_normal_form(a), d)


def realize_parallelization(a: IntMatrix, target: CohClass) -> Z2Class:
    """The difference class whose Bockstein is the given 2-torsion target.

    With U*A*V = S, the target's coordinate on the factor d = S[i, i] is
    0 or d/2.  Setting z_i = 1 where it is d/2 (and 0 elsewhere), y = V*z
    solves A*y = 2*U^-1*c, so y mod 2 -- the mod-2 sum of those columns of
    V -- is a cocycle whose Bockstein is the target.  The Bockstein of a
    rational homology sphere is injective, so that is the only preimage.
    NoPreimageFound signals input outside those hypotheses (a target from
    another group, say), or a closing Bockstein that misses the target.
    """
    if not target.is_two_torsion:
        raise NotTwoTorsion(f"target {target} does not satisfy 2C = 0")
    smith = smith_normal_form(a)
    if target.parent != _form_group(a, smith):
        raise NoPreimageFound(f"{target} is not a class of coker A")
    # the group's coordinates sit at the diagonal positions with d > 1
    factor_positions = (i for i, d in enumerate(smith.diagonal) if d > 1)
    picked = [i for i, c in zip(factor_positions, target.coords) if c]
    v = smith.v
    x = Z2Class(tuple(sum(v.row(r)[i] for i in picked) for r in range(v.rows)))
    if bockstein(a, smith, x) != target:
        raise NoPreimageFound(f"no mod-2 class maps to {target}")
    return x
