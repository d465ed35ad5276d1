"""Complete regular-homotopy classification of the two immersion families.

For each simple-singularity type there are two immersions of the same
3-manifold into R^5: the inclusion of the singularity link, and the
plumbing immersion associated with the Dynkin diagram pushed forward from
R^4.  Both have trivial normal bundle, so each is classified completely by
the pair (Wu invariant in Gamma_2(0), Smale-type integer).  In the almost
contact gauge both Wu invariants vanish, leaving

    link inclusion:    (0, 3/2 * (sigma(F) - alpha)),
    pushed plumbing:   (0, 3/2 * (-#V - alpha)),

and since the Dynkin intersection forms are negative definite the two
agree: the immersions are regularly homotopic for every type.

``table_row`` computes H^2, sigma and alpha of a type's form once (one
Smith form and one signature); ``classify_link_inclusion`` and
``classify_kinjo_pushforward`` read both classes off that row and run no
linear algebra of their own.

Non-Dynkin plumbing graphs run through the same formulas; the result is
the formal value of the invariant pair, with no geometric claim attached
(the CLI labels such output "formal").
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HalfIntegerResult, IncomparableManifolds, NotTwoTorsion
from .linalg import FinAbGroup
from .plumbing import DynkinLabel, dynkin_graph, filling_signature, link_first_homology
from .smale import smale_type_invariant
from .wu import CohClass

ALMOST_CONTACT = "almost-contact"


@dataclass(frozen=True)
class RegularHomotopyClass:
    """Complete invariant of an immersion M^3 -> R^5 with trivial normal bundle.

    The Wu class must be 2-torsion (the normal Euler class is twice it and
    vanishes); the tag records the parallelization gauge the Wu value is
    stated in.
    """

    wu: CohClass
    smale_type: int
    parallelization_tag: str = ALMOST_CONTACT

    def __post_init__(self):
        if not self.wu.is_two_torsion:
            raise NotTwoTorsion(f"Wu class {self.wu} is not 2-torsion")

    def __str__(self):
        return f"(wu = {self.wu}, i = {self.smale_type})"


@dataclass(frozen=True)
class TableRow:
    """The four computed columns for one singularity type."""

    label: DynkinLabel
    h2: FinAbGroup
    signature: int
    alpha: int
    smale_type: int


def classify_link_inclusion(row: TableRow) -> RegularHomotopyClass:
    """Invariants of the link's inclusion into the 5-sphere, from its table row.

    The Wu invariant vanishes in any almost contact parallelization; the
    Smale-type integer comes from the Milnor fiber as an embedded Seifert
    surface, so all singularity corrections are zero and it is the row's
    own smale type.
    """
    return RegularHomotopyClass(wu=CohClass.zero(row.h2), smale_type=row.smale_type)


def classify_kinjo_pushforward(row: TableRow) -> RegularHomotopyClass:
    """Invariants of the Dynkin-diagram immersion pushed into R^5, from a table row.

    Same shape as the inclusion, with the filling signature replaced by
    -#V(G) (the plumbing bounds the immersed filling of Euler
    characteristic 1 + #V whose form is the negative-definite one).
    """
    value = smale_type_invariant(-row.label.vertex_count, row.alpha)
    return RegularHomotopyClass(wu=CohClass.zero(row.h2), smale_type=value)


def are_regularly_homotopic(c1: RegularHomotopyClass, c2: RegularHomotopyClass) -> bool:
    """Whether two complete invariants agree.

    Classes over structurally different H^2 groups are not comparable and
    raise IncomparableManifolds instead of returning False.
    """
    if c1.wu.parent != c2.wu.parent:
        raise IncomparableManifolds(
            f"classes live over different groups {c1.wu.parent} and {c2.wu.parent}"
        )
    return c1.wu == c2.wu and c1.smale_type == c2.smale_type


def table_row(label: DynkinLabel) -> TableRow:
    """One row of the reference table, recomputed from the plumbing data."""
    g = dynkin_graph(label)
    sig = filling_signature(g)
    h2 = link_first_homology(g)
    a = h2.two_torsion_rank
    return TableRow(
        label=label,
        h2=h2,
        signature=sig,
        alpha=a,
        smale_type=smale_type_invariant(sig, a),
    )


def formal_smale_type(sigma: int, alpha: int):
    """(value, is_integral) of 3/2*(sigma - alpha) for an arbitrary graph.

    ``sigma`` is the filling signature and ``alpha`` the 2-torsion rank of
    H^2, both computed by the caller.  Odd sigma - alpha cannot arise from
    embedded Seifert data; the exact rational is reported with a flag
    instead of raising, since the non-integrality is itself the diagnosis.
    """
    try:
        return smale_type_invariant(sigma, alpha), True
    except HalfIntegerResult as exc:
        return exc.value, False
