"""Exact q-analogues of k-Fibonacci numbers from weighted board tilings.

The package enumerates tilings of an n x 1 board by tiles of length at most
k, computes joint distributions of permutation and set partition statistics
over the layered families those tilings encode, and verifies the resulting
polynomial identities (recursion, break convolution, k-reduction, and the
shifted Toeplitz minor determinant) in exact integer arithmetic.
"""

from ._backend import BACKEND
from .errors import (
    CapacityError,
    DomainError,
    InvalidShiftError,
    PolyJsonError,
    PolyParseError,
    QfibError,
    RingMismatchError,
    SizeLimitError,
    UnsupportedSchemeError,
)
from .identities import (
    convolution_count,
    k_reduction_count,
    verify_convolution,
    verify_k_reduction,
    verify_recursion,
    verify_specializations,
)
from .lattice import (
    MinorSpec,
    PathTuple,
    PolyMatrix,
    build_minor,
    closed_form_det,
    determinant,
    enumerate_noncrossing_tuples,
    miles_sign_check,
)
from .layered import (
    PAIRS,
    SCHEMED_PAIRS,
    StatPair,
    builtin_scheme,
    distribution,
    enumerate_family,
    format_partition,
    format_permutation,
    inv,
    ls,
    maj,
    rb,
    tiling_to_lp,
    tiling_to_partition,
    tiling_to_prlp,
    tiling_to_rlp,
)
from .polyring import Monomial, Poly, diff_witness
from .report import IdentityReport
from .tiling import (
    AppendSpec,
    Tiling,
    WeightScheme,
    corrupted_scheme,
    enumerate_tilings,
    fibonacci_k,
    random_scheme,
    tiling_weight,
    validate_weight_scheme,
    weighted_sum_enumerative,
    weighted_sum_recursive,
)

__version__ = "0.1.0"

__all__ = [
    "AppendSpec",
    "BACKEND",
    "CapacityError",
    "DomainError",
    "IdentityReport",
    "InvalidShiftError",
    "MinorSpec",
    "Monomial",
    "PAIRS",
    "PathTuple",
    "Poly",
    "PolyJsonError",
    "PolyMatrix",
    "PolyParseError",
    "QfibError",
    "RingMismatchError",
    "SCHEMED_PAIRS",
    "SizeLimitError",
    "StatPair",
    "Tiling",
    "UnsupportedSchemeError",
    "WeightScheme",
    "build_minor",
    "builtin_scheme",
    "closed_form_det",
    "convolution_count",
    "corrupted_scheme",
    "determinant",
    "diff_witness",
    "distribution",
    "enumerate_family",
    "enumerate_noncrossing_tuples",
    "enumerate_tilings",
    "fibonacci_k",
    "format_partition",
    "format_permutation",
    "inv",
    "k_reduction_count",
    "ls",
    "maj",
    "miles_sign_check",
    "random_scheme",
    "rb",
    "tiling_to_lp",
    "tiling_to_partition",
    "tiling_to_prlp",
    "tiling_to_rlp",
    "tiling_weight",
    "validate_weight_scheme",
    "verify_convolution",
    "verify_k_reduction",
    "verify_recursion",
    "verify_specializations",
    "weighted_sum_enumerative",
    "weighted_sum_recursive",
]
