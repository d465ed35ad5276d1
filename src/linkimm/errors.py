"""Exception types raised by the library.

Every error derives from LinkImmError so callers can catch the whole
family at once.  Errors fall into two camps: malformed input (bad label
parameters, non-symmetric matrices, schema violations) and mathematical
rejection (degenerate intersection forms, parity failures).  ``cli.main``
exits 2 on InvalidParameter and InvalidGraph and 3 on
NotRationalHomologySphere; it also exits 2 on a report holding an integer
past Python's digit limit or on one that stdout's encoding cannot write,
and 1 when stdout is closed.  Any other error keeps its traceback.
"""


class LinkImmError(Exception):
    """Base class for all library errors."""


class InvalidParameter(LinkImmError, ValueError):
    """A Dynkin label (or similar enumerated input) is out of range."""


class InvalidGraph(LinkImmError, ValueError):
    """A plumbing graph violates its structural invariants."""


class NotSymmetric(LinkImmError, ValueError):
    """An operation requiring a symmetric matrix received A != A^T."""


class NotRationalHomologySphere(LinkImmError):
    """The intersection form is degenerate (det = 0), so H_1 has free rank.

    Carries the offending free rank for diagnostics.
    """

    def __init__(self, free_rank):
        self.free_rank = free_rank
        super().__init__(f"degenerate form: H_1 has free rank {free_rank}")


class FreeRankUnsupported(LinkImmError):
    """Torsion-only computation requested on a group with free rank > 0."""


class NotACocycle(LinkImmError, ValueError):
    """A mod-2 vector was not in the mod-2 kernel of the given matrix."""


class NotTwoTorsion(LinkImmError, ValueError):
    """A cohomology class required to satisfy 2C = 0 does not."""


class NoPreimageFound(LinkImmError):
    """A 2-torsion class has no mod-2 preimage under the Bockstein.

    Raised for a target outside coker A, or when the Bockstein of the
    solved preimage misses the target.  Unreachable for nondegenerate
    forms; signals input outside the supported hypotheses rather than
    being silently accepted.
    """


class NotUnit(LinkImmError, ValueError):
    """A quaternion expected to have norm 1 does not."""


class NotDivisibleBy4(LinkImmError, ValueError):
    """Seifert data fed to the R^4 Smale formula has inconsistent parity."""


class HalfIntegerResult(LinkImmError):
    """An invariant that must be an integer came out half-integral.

    The exact rational value is kept on the exception for diagnostics.
    """

    def __init__(self, value):
        self.value = value
        super().__init__(f"non-integral result {value}")


class ConsistencyViolation(LinkImmError):
    """Two independently derived values that must agree do not."""


class IncomparableManifolds(LinkImmError, ValueError):
    """Regular-homotopy comparison across structurally different H^2 groups."""
