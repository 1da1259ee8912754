"""Sparse eigenvector bases of the discrete Fourier transform.

The unitary DFT has order four, so its eigenvalues are the fourth roots of
unity.  This package builds, for every dimension n, a deterministic basis
of n eigenvectors each supported on at most 2*(eta1+eta2) coordinates,
where eta1 and eta2 are the divisors of n closest to sqrt(n) - within a
factor of four of the sparsest possible.  It certifies the construction
against a quadratic reference transform (eigenvector residuals, eigenvalue
multiplicities, support bounds, support/spectrum uncertainty constraints,
orthogonality classification) and changes basis in O(n log n) by stopping
an FFT at the strided-subsequence stage.
"""

from .numerics import (
    DEFAULT_TOL,
    EliminationState,
    VerificationError,
    as_vector,
    dft_matrix,
    naive_dft,
    omega_power,
    try_extend_rank,
)
from .trains import (
    DivisorPair,
    ModulatedDeltaTrain,
    densify,
    dft_train,
    eta_pair,
)
from .projection import (
    EIGENVALUES,
    TrainSum,
    densify_sum,
    eigenvalue_of,
    project,
    verify_eigenvector,
)
from .basis import (
    BasisVectorRecord,
    EigenBasis,
    GramReport,
    SparsityAudit,
    audit_sparsity,
    build_basis,
    check_uncertainty,
    enumerate_candidates,
    gram_report,
    multiplicities,
    orthogonality_survey,
)
from .fast import (
    CorrelationTensor,
    analyze,
    synthesize,
    to_coefficients,
    train_correlations,
)
from .fileio import (
    export_basis,
    import_basis,
    read_vector,
    write_vector,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "EliminationState",
    "VerificationError",
    "as_vector",
    "dft_matrix",
    "naive_dft",
    "omega_power",
    "try_extend_rank",
    "DivisorPair",
    "ModulatedDeltaTrain",
    "densify",
    "dft_train",
    "eta_pair",
    "EIGENVALUES",
    "TrainSum",
    "densify_sum",
    "eigenvalue_of",
    "project",
    "verify_eigenvector",
    "BasisVectorRecord",
    "EigenBasis",
    "GramReport",
    "SparsityAudit",
    "audit_sparsity",
    "build_basis",
    "check_uncertainty",
    "enumerate_candidates",
    "gram_report",
    "multiplicities",
    "orthogonality_survey",
    "CorrelationTensor",
    "analyze",
    "synthesize",
    "to_coefficients",
    "train_correlations",
    "export_basis",
    "import_basis",
    "read_vector",
    "write_vector",
    "__version__",
]
