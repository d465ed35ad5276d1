"""Regular-homotopy classes of S^3-immersions and their arithmetic.

Immersions S^3 -> R^4 are classified by pi_3(SO(4)) = Z sigma (+) Z rho,
where sigma(x): y -> x*y and rho(x): y -> x*y*x^{-1} under the quaternion
identification R^4 = H; immersions S^3 -> R^5 by pi_3(SO(5)) = Z with
generator the inclusion of sigma.  ``SmaleClassR4`` and ``SmaleClassR5``
are elements of these groups with connected sum as addition.

The quaternion side is kept exact: components are rationals, so "lands in
SO(4)" is an equality check, never a tolerance.  Only unit quaternions
with rational components are supported.

The closed-form invariants:

* ``ekholm_takase_smale`` turns singular-Seifert data (normal degree,
  filling signature, cusp count) into a class in Z (+) Z;
* ``ekholm_szucs_smale`` does the same for R^5 targets;
* ``smale_type_invariant`` is the integer half of the complete invariant
  for immersed 3-manifolds with trivial normal bundle;
* ``np_smale_invariant`` is the published R^5 class of a simple
  singularity's parametrization immersion, from the catalog;
* ``kinjo_smale`` / ``kinjo_smale_reversed`` evaluate the classes of the
  Dynkin-diagram immersions pulled back to S^3, deriving the sigma
  component from the covering degree times the filling Euler
  characteristic and pinning the rho component against the published
  R^5 constants.
"""

from __future__ import annotations

from fractions import Fraction

from .catalog import singularity_record
from .errors import (
    ConsistencyViolation,
    HalfIntegerResult,
    NotDivisibleBy4,
    NotUnit,
)
from .record import Record


class SmaleClassR4(Record):
    """Element of pi_3(SO(4)): a is the sigma-component, b the rho-component."""

    _fields = ("a", "b")

    def __add__(self, other: "SmaleClassR4") -> "SmaleClassR4":
        return SmaleClassR4(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "SmaleClassR4":
        return SmaleClassR4(-self.a, -self.b)


class SmaleClassR5(Record):
    """Element of pi_3(SO(5)) = Z."""

    _fields = ("value",)

    def __add__(self, other: "SmaleClassR5") -> "SmaleClassR5":
        return SmaleClassR5(self.value + other.value)

    def __neg__(self) -> "SmaleClassR5":
        return SmaleClassR5(-self.value)


class Quaternion(Record):
    """Quaternion with exact rational components (1, i, j, k coordinates)."""

    _fields = ("r", "i", "j", "k")  # Fractions

    @staticmethod
    def of(r=0, i=0, j=0, k=0) -> "Quaternion":
        return Quaternion(Fraction(r), Fraction(i), Fraction(j), Fraction(k))

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.r, -self.i, -self.j, -self.k)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a1, b1, c1, d1 = self.r, self.i, self.j, self.k
        a2, b2, c2, d2 = other.r, other.i, other.j, other.k
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.r, -self.i, -self.j, -self.k)

    def norm_sq(self) -> Fraction:
        return self.r ** 2 + self.i ** 2 + self.j ** 2 + self.k ** 2

    def inverse(self) -> "Quaternion":
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        c = self.conjugate()
        return Quaternion(c.r / n, c.i / n, c.j / n, c.k / n)

    @property
    def is_unit(self) -> bool:
        return self.norm_sq() == 1

    def coords(self) -> tuple:
        return (self.r, self.i, self.j, self.k)


QUAT_ONE = Quaternion.of(1)
QUAT_I = Quaternion.of(0, 1)
QUAT_J = Quaternion.of(0, 0, 1)
QUAT_K = Quaternion.of(0, 0, 0, 1)
_BASIS = (QUAT_ONE, QUAT_I, QUAT_J, QUAT_K)


class RotationMatrix4(Record):
    """4x4 matrix with exact rational entries, stored as a tuple of rows."""

    _fields = ("entries",)  # 4 rows of 4 Fractions

    def __init__(self, entries: tuple):
        if len(entries) != 4 or any(len(r) != 4 for r in entries):
            raise ValueError("RotationMatrix4 needs 4x4 entries")
        self._store(entries)

    @staticmethod
    def from_columns(cols) -> "RotationMatrix4":
        return RotationMatrix4(tuple(tuple(cols[j][i] for j in range(4)) for i in range(4)))

    @staticmethod
    def identity() -> "RotationMatrix4":
        return RotationMatrix4(tuple(tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)))

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(4))

    def transpose(self) -> "RotationMatrix4":
        return RotationMatrix4(tuple(tuple(self.entries[j][i] for j in range(4)) for i in range(4)))

    def __matmul__(self, other: "RotationMatrix4") -> "RotationMatrix4":
        return RotationMatrix4(
            tuple(
                tuple(sum(self.entries[i][t] * other.entries[t][j] for t in range(4)) for j in range(4))
                for i in range(4)
            )
        )

    def det(self) -> Fraction:
        # Laplace expansion along the first row; 4x4 is small enough.
        def det3(m):
            return (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )

        total = Fraction(0)
        rows = self.entries
        for j in range(4):
            minor = [[rows[i][c] for c in range(4) if c != j] for i in range(1, 4)]
            term = rows[0][j] * det3(minor)
            total += term if j % 2 == 0 else -term
        return total

    def is_special_orthogonal(self) -> bool:
        return self.transpose() @ self == RotationMatrix4.identity() and self.det() == 1

    def to_rows(self) -> list:
        return [list(r) for r in self.entries]


def _require_unit(x: Quaternion):
    if not x.is_unit:
        raise NotUnit(f"quaternion with |x|^2 = {x.norm_sq()} is not a unit")


def sigma_map(x: Quaternion) -> RotationMatrix4:
    """Left multiplication y -> x*y as a rotation matrix in basis (1,i,j,k).

    Its first column is x itself, so this is a section of the bundle
    SO(4) -> S^3, R -> R(e_1); it generates the first Z summand.
    """
    _require_unit(x)
    return RotationMatrix4.from_columns([(x * e).coords() for e in _BASIS])


def rho_map(x: Quaternion) -> RotationMatrix4:
    """Conjugation y -> x*y*x^{-1}; fixes e_1 and double-covers SO(3)."""
    _require_unit(x)
    inv = x.inverse()
    return RotationMatrix4.from_columns([(x * e * inv).coords() for e in _BASIS])


def reverse_orientation(s: SmaleClassR4) -> SmaleClassR4:
    """Class of the same immersion with the source orientation reversed.

    Precomposition with an orientation-reversing diffeomorphism sends a
    class w to -w + (-2, 1); the map is an involution.
    """
    return SmaleClassR4(-s.a - 2, -s.b + 1)


def pushforward_j(s: SmaleClassR4) -> SmaleClassR5:
    """Composition with the inclusion R^4 -> R^5: (a, b) -> a + 2b."""
    return SmaleClassR5(s.a + 2 * s.b)


def ekholm_takase_smale(normal_degree: int, filling_signature: int, cusp_count: int = 0) -> SmaleClassR4:
    """Smale class of an immersion S^3 -> R^4 from singular-Seifert data.

    Takes the normal mapping degree D, the signature of the bounding
    4-manifold, and the algebraic count of its planar-type (Sigma^2)
    singular points; yields

        (D - 1, (3*sigma + cusps - 2*(D - 1)) / 4).

    Raises NotDivisibleBy4 when the data cannot come from a genuine
    singular Seifert surface.
    """
    a = normal_degree - 1
    num = 3 * filling_signature + cusp_count - 2 * a
    if num % 4:
        raise NotDivisibleBy4(f"{num} is not divisible by 4: inconsistent Seifert data")
    return SmaleClassR4(a, num // 4)


def ekholm_szucs_smale(filling_signature: int, triple_points: int = 0,
                       locus_euler: int = 0, linking_term: int = 0) -> SmaleClassR5:
    """Smale class of an immersion S^3 -> R^5 from singular-Seifert data.

    Evaluates (3/2)*sigma + (1/2)*(3t - 3l + L) exactly; all four counts
    default to the embedded-Seifert case where they vanish.
    """
    num = 3 * filling_signature + 3 * triple_points - 3 * locus_euler + linking_term
    if num % 2:
        raise HalfIntegerResult(Fraction(num, 2))
    return SmaleClassR5(num // 2)


def smale_type_invariant(filling_signature: int, torsion_alpha: int) -> int:
    """Integer component of the complete invariant for M^3 -> R^5.

    i = (3/2)*(sigma - alpha) for an embedded Seifert surface, where the
    singular corrections of ``ekholm_szucs_smale`` vanish.  Raises
    HalfIntegerResult (carrying the exact rational) on odd parity.
    """
    num = 3 * (filling_signature - torsion_alpha)
    if num % 2:
        raise HalfIntegerResult(Fraction(num, 2))
    return num // 2


def np_smale_invariant(label) -> SmaleClassR5:
    """Published Smale invariant of the parametrization immersion S^3 -> S^5."""
    return SmaleClassR5(singularity_record(label).np_smale)


def kinjo_smale(label) -> SmaleClassR4:
    """Smale class of the Dynkin-diagram immersion composed with the covering.

    The sigma component is (covering degree) * chi(X(G)) - 1, i.e.
    #Gamma * (1 + #V) - 1; the rho component is forced by the published
    R^5 value through the pushforward law and must come out 0, which is
    asserted rather than assumed.  Both constants come from one catalog
    record.
    """
    record = singularity_record(label)
    a = record.group_order * (1 + label.vertex_count) - 1
    twice_b = -record.np_smale - a
    if twice_b:
        raise ConsistencyViolation(f"{label}: expected rho component 0, derived {Fraction(twice_b, 2)}")
    return SmaleClassR4(a, 0)


def kinjo_smale_reversed(label) -> SmaleClassR4:
    """Class of the same immersion with the source orientation reversed."""
    return reverse_orientation(kinjo_smale(label))
