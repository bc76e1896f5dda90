"""Exact similarity normal forms over Q and GF(p).

Rational normal forms with explicit transforms, affine representative
families indexed by partitions, and the invariant and normal-form
machinery for pairs of trace-zero 2x2 matrices under simultaneous
conjugation.  All arithmetic is exact; there is no floating point
anywhere.
"""

from .affine import (
    AffineRepresentative,
    JumpData,
    affine_point,
    generalized_companion,
    jump_data,
    nilpotent_base,
    to_affine,
    to_rnf,
)
from .errors import (
    BasisFailure,
    ChainViolation,
    DegenerateComposite,
    DegenerateDiagonal,
    DegreeMismatch,
    DegreeZero,
    DimensionMismatch,
    DivisionByZero,
    EmptyInput,
    FieldMismatch,
    MatcanonError,
    NonSquare,
    NotInW,
    NotInY,
    NotMonic,
    NotPrime,
    ParseError,
    RootsMissingInField,
    SingularMatrix,
    TraceNonzero,
)
from .fields import GF, QQ, Field, PrimeField, Rationals, Scalar, sqrt_if_exists
from .matrix import Matrix, block_diagonal, similarity_defect
from .pairs import (
    InvariantTriple,
    PairPoint,
    QForm,
    Sl2Pair,
    common_eigenvector,
    g_value,
    hom_dimension,
    intertwiners,
    invariants,
    q_points,
    reduce_to_q,
    simple_pair,
    split_off_simple,
)
from .poly import Polynomial, product
from .rnf import (
    Partition,
    RationalNormalForm,
    assemble_rnf_matrix,
    companion,
    invariant_factors,
    partition_of,
    rnf_transform,
)

__version__ = "0.1.0"
