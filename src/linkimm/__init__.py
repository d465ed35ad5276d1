"""Exact regular-homotopy invariants of immersed singularity links.

The package computes, over exact integer and rational arithmetic, the
complete invariants (Wu class and Smale-type integer) of immersions of
plumbed 3-manifolds into 5-space, the Smale invariants of the associated
sphere immersions into 4- and 5-space, and all the homological data of
plumbing graphs these are built from.  See the README for the CLI.
"""

from .catalog import SingularityRecord, singularity_record
from .classify import (
    RegularHomotopyClass,
    TableRow,
    are_regularly_homotopic,
    classify_kinjo_pushforward,
    classify_link_inclusion,
    formal_smale_type,
    table_row,
)
from .errors import (
    ConsistencyViolation,
    FreeRankUnsupported,
    HalfIntegerResult,
    IncomparableManifolds,
    InvalidGraph,
    InvalidParameter,
    LinkImmError,
    NoPreimageFound,
    NotACocycle,
    NotDivisibleBy4,
    NotRationalHomologySphere,
    NotSymmetric,
    NotTwoTorsion,
    NotUnit,
)
from .linalg import (
    FinAbGroup,
    IntMatrix,
    SmithDecomposition,
    cokernel,
    kernel_mod2,
    signature,
    smith_normal_form,
)
from .plumbing import (
    DynkinLabel,
    PlumbingGraph,
    dynkin_graph,
    filling_euler_characteristic,
    filling_signature,
    intersection_matrix,
    link_first_homology,
    recognize_dynkin,
)
from .smale import (
    Quaternion,
    RotationMatrix4,
    SmaleClassR4,
    SmaleClassR5,
    ekholm_szucs_smale,
    ekholm_takase_smale,
    kinjo_smale,
    kinjo_smale_reversed,
    np_smale_invariant,
    pushforward_j,
    reverse_orientation,
    rho_map,
    sigma_map,
    smale_type_invariant,
)
from .wu import CohClass, Z2Class, bockstein, gamma2, realize_parallelization, wu_switch

__version__ = "0.1.0"
