"""Exact stringy cohomology rings of linear quotient orbifolds.

Given a finite group acting on C^n by monomial matrices over roots of unity,
this package computes the sector geometry (ages, fixed-space dimensions,
degree shifts), builds the two graded sector algebras exactly, and verifies
that the doubled orbifold's cr ring reproduces the original's virtual ring.
"""

from .cyclotomic import (
    DEFAULT_CONDUCTOR_CAP,
    CyclotomicNumber,
    RationalPhase,
    cyclotomic_polynomial,
    euler_phi,
)
from .errors import ConsistencyError, InputError, OrbringError, ResourceCapError
from .monomial import (
    DEFAULT_GROUP_ORDER_CAP, DIMENSION_CAP, ConjugacyPartition, GroupTable, MonomialMap
)
from .orbifold import OrbifoldSpec, cotangent_double
from .sectors import SectorData, SectorGeometry, eigen_phases
from .rings import (
    CR,
    THEORIES,
    VIRT,
    AlgebraReport,
    AxiomCheck,
    InvariantRing,
    OrbifoldModel,
    SectorAlgebra,
    verify_algebra,
)
from .cotangent import (
    CheckResult,
    VerificationReport,
    decomposition_check,
    grading_check,
    k_rank,
    main_theorem_check,
    run_full_verification,
    sector_bijection,
)

__version__ = "0.1.0"

__all__ = [
    "CR",
    "THEORIES",
    "VIRT",
    "DEFAULT_CONDUCTOR_CAP",
    "DEFAULT_GROUP_ORDER_CAP",
    "DIMENSION_CAP",
    "AlgebraReport",
    "AxiomCheck",
    "CheckResult",
    "ConjugacyPartition",
    "ConsistencyError",
    "CyclotomicNumber",
    "GroupTable",
    "InputError",
    "InvariantRing",
    "MonomialMap",
    "OrbifoldModel",
    "OrbifoldSpec",
    "OrbringError",
    "RationalPhase",
    "ResourceCapError",
    "SectorAlgebra",
    "SectorData",
    "SectorGeometry",
    "VerificationReport",
    "cotangent_double",
    "cyclotomic_polynomial",
    "decomposition_check",
    "eigen_phases",
    "euler_phi",
    "grading_check",
    "k_rank",
    "main_theorem_check",
    "run_full_verification",
    "sector_bijection",
    "verify_algebra",
]
