"""torcheck: exact homological algebra over Artinian local algebras.

Computes Tor by specializing a symbolic free resolution into a
finite-dimensional local algebra and taking homology of the induced complex,
entirely in exact arithmetic (rationals or a prime field).  Ships a bundled
non-rigidity example whose every finitely checkable claim is verified by
:func:`torcheck.rigidity.full_report` and by the ``torcheck`` command line.
"""

from .algebras import (
    AlgebraElement,
    ArtinAlgebra,
    FDModule,
    check_module_axioms,
    free_module,
    monomial_square_zero_algebra,
)
from .complexes import (
    AlgebraMatrix,
    ChainComplex,
    HomologySummary,
    ModuleMap,
    NotAComplexError,
    TorReport,
    check_module_map,
    induced_map,
    substitute_matrix,
    tor_from_resolution,
)
from .linalg import (
    GF,
    QQ,
    FieldMismatchError,
    Matrix,
    PrimeField,
    RationalField,
    ShapeError,
    same_span,
    subspace_leq,
)
from .poly import PolyMatrix, VarTable, WeightedPoly
from .rigidity import (
    CheckResult,
    GenericComplexData,
    SpecializationData,
    VerificationReport,
    build_generic_data,
    build_specialization,
    check_grading,
    check_homomorphism,
    check_pd_witness,
    check_psquare,
    full_report,
    run_tor_checks,
)

__version__ = "0.1.0"
