"""Quaternion skew-symmetric matrix toolkit.

Scalar quaternions, dense quaternion matrices, a self-contained complex
eigen/LU engine, right eigenvalues through the complex adjoint, the
canonical pair form for complex skew-symmetric matrices, 3x3 spectrum
classification, inverse skew contrasts, a seeded candidate search, and
dual quaternion matrices.
"""

from .clinalg import (ConvergenceError, SingularMatrixError, even_clusters, herm_eig,
                      lu_inverse, mgs_orthonormalize, positive_clusters)
from .dual import (DualQuatMatrix, dq_hermitian_direct, dq_hermitian_split,
                   is_dq_hermitian)
from .hua import HuaForm, even_multiplicity_check, hua_decompose
from .matio import (MatrixFormatError, complex_matrix_to_dict, load_matrix,
                    matrix_from_dict, quat_matrix_to_dict, save_matrix)
from .qmatrix import QuatMatrix, random_skew_symmetric
from .quaternion import I, J, K, ONE, ZERO, Quaternion
from .skew import (BasicCandidate, InverseSkewReport, SkewTriple,
                   SpectrumReport, basic_candidate_search, classify_3x3,
                   inverse_skew_report, is_solid,
                   quaternion_even_multiplicity_check, reference_4x4,
                   reference_4x4_variant, sample_degenerate_triple,
                   sample_generic_triple, trial_seed, verify_classification)
from .spectra import (RightSpectrum, gram_product, gram_spectrum,
                      is_positive_definite, is_positive_semidefinite,
                      quat_inverse, right_eigenvalues_hermitian)

__version__ = "0.1.0"
