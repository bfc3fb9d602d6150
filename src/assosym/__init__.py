"""Module structure of free assosymmetric algebras, exactly.

Dimension formulas, S_n / A_n / GL decompositions, cocharacter, codimension
and colength sequences, plus a certified T-ideal oracle that re-derives
the small-degree numbers from the defining identities alone.
"""

from .algebra import (
    an_decomposition,
    an_gl_decomposition,
    cocharacter,
    codimension,
    colength,
    gl_decomposition,
    graded_dim,
    multigraded_dim,
    sn_decomposition,
    two_row_multiplicity,
)
from .characters import (
    CharacterVector,
    CycleType,
    alternating_label_dimension,
    character_table,
    character_table_json,
    class_size,
    inner_product,
    involution_count,
    irreducible_character,
    mn_character,
    restrict_to_alternating,
)
from .decomposition import Decomposition, Label
from .oracle import (
    MultiplicityError,
    QuotientBasis,
    RankMismatchError,
    consequence_span,
    enumerate_multilinear,
    identity_generators,
    oracle_multiplicities,
    quotient_basis,
    quotient_character,
    quotient_dim,
    quotient_dim_multigraded,
    write_consequence_matrix,
)
from .partitions import (
    Partition,
    conjugate,
    generate_partitions,
    is_self_conjugate,
    multinomial,
    specht_dim,
    syt_count_bruteforce,
    two_row_partitions,
    weyl_dim,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterVector",
    "CycleType",
    "Decomposition",
    "Label",
    "MultiplicityError",
    "Partition",
    "QuotientBasis",
    "RankMismatchError",
    "alternating_label_dimension",
    "an_decomposition",
    "an_gl_decomposition",
    "character_table",
    "character_table_json",
    "class_size",
    "cocharacter",
    "codimension",
    "colength",
    "conjugate",
    "consequence_span",
    "enumerate_multilinear",
    "generate_partitions",
    "gl_decomposition",
    "graded_dim",
    "identity_generators",
    "inner_product",
    "involution_count",
    "irreducible_character",
    "is_self_conjugate",
    "mn_character",
    "multigraded_dim",
    "multinomial",
    "oracle_multiplicities",
    "quotient_basis",
    "quotient_character",
    "quotient_dim",
    "quotient_dim_multigraded",
    "restrict_to_alternating",
    "sn_decomposition",
    "specht_dim",
    "syt_count_bruteforce",
    "two_row_multiplicity",
    "two_row_partitions",
    "weyl_dim",
    "write_consequence_matrix",
]
