"""Static reference data for the simple (A-D-E) surface singularities.

Each type carries its defining germ, the finite subgroup of SU(2) whose
quotient realizes it (the covering degree of S^3 over the link), and the
published Smale invariant of the immersion S^3 -> S^5 induced by the
invariant-polynomial parametrization of the germ, as a plain integer
(``smale.np_smale_invariant`` wraps it as a class).  The last column is a
catalog constant: counting singularities of holomorphic perturbations is
out of scope here, so the family formulas are stored, not recomputed.
"""

from __future__ import annotations

from .plumbing import DynkinLabel
from .record import Record


class SingularityRecord(Record):
    """One row of the catalog; ``germ`` is display-only, never parsed."""

    _fields = ("label", "germ", "group_name", "group_order", "np_smale")


def singularity_record(label: DynkinLabel) -> SingularityRecord:
    n = label.parameter
    if label.family == "A":
        return SingularityRecord(
            label=label,
            germ=f"x^2 + y^2 + z^{n}",
            group_name=f"C_{n} (cyclic)",
            group_order=n,
            np_smale=-(n * n - 1),
        )
    if label.family == "D":
        return SingularityRecord(
            label=label,
            germ=f"x^2 + y^2 z + z^{n + 1}",
            group_name=f"Dic_{n} (binary dihedral)",
            group_order=4 * n,
            np_smale=-(4 * n * n + 12 * n - 1),
        )
    germ, name, order, smale = {
        6: ("x^2 + y^3 + z^4", "2T (binary tetrahedral)", 24, -167),
        7: ("x^2 + y^3 + y z^3", "2O (binary octahedral)", 48, -383),
        8: ("x^2 + y^3 + z^5", "2I (binary icosahedral)", 120, -1079),
    }[n]
    return SingularityRecord(label, germ, name, order, smale)
