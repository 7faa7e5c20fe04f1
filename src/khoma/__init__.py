"""Exact Khovanov (sl2) homology of braid-word closures over the integers.

The package computes bigraded integral homology tables of links presented as
closures of braid-like words, derives polynomial and diagonal invariants from
them, and ships a verification harness for torus-knot thickness and twist
stability checks at desk scale.
"""

__version__ = "0.1.0"

from .diagram import (
    CrossingLabel,
    CrossingLimitError,
    Letter,
    ResolvedState,
    Word,
    circle_count,
    circles,
    label_crossings,
    mirror,
    neg_cross,
    parse_word,
    pos_cross,
    resolve_crossing,
    smooth,
    torus_word,
)
from .zalgebra import (
    SnfResult,
    SparseIntMat,
    image_basis_q,
    kernel_basis_q,
    rank_q,
    snf,
)
from .cube import (
    CubeComplex,
    EdgeData,
    VertexData,
    build_cube,
    mapping_cone_split,
)
from .homology import (
    AbGroup,
    BigradedTable,
    homology,
    homology_group_at,
    homology_unnormalized,
    normalize,
)
from .invariants import (
    THICK,
    THIN,
    DiagonalProfile,
    LaurentPoly1,
    LaurentPoly2,
    diagonal_profile,
    graded_euler,
    jones_from_bracket,
    kauffman_bracket,
    poincare,
    thickness_class,
)
from .verify import (
    CheckReport,
    StablePoly,
    check_conjecture1,
    check_e_vanishing,
    check_f1,
    check_f2,
    check_f3,
    check_les,
    check_low_degree_table,
    check_rem2,
    check_t1,
    check_width_lower_bound,
    d_diagram,
    e_diagram,
    stable_poly,
    stable_poly_report,
)

__all__ = [
    "__version__",
    # words and resolutions
    "CrossingLabel",
    "CrossingLimitError",
    "Letter",
    "ResolvedState",
    "Word",
    "circle_count",
    "circles",
    "label_crossings",
    "mirror",
    "neg_cross",
    "parse_word",
    "pos_cross",
    "resolve_crossing",
    "smooth",
    "torus_word",
    # integer linear algebra
    "SnfResult",
    "SparseIntMat",
    "image_basis_q",
    "kernel_basis_q",
    "rank_q",
    "snf",
    # the cube
    "CubeComplex",
    "EdgeData",
    "VertexData",
    "build_cube",
    "mapping_cone_split",
    # homology tables
    "AbGroup",
    "BigradedTable",
    "homology",
    "homology_group_at",
    "homology_unnormalized",
    "normalize",
    # invariants
    "THICK",
    "THIN",
    "DiagonalProfile",
    "LaurentPoly1",
    "LaurentPoly2",
    "diagonal_profile",
    "graded_euler",
    "jones_from_bracket",
    "kauffman_bracket",
    "poincare",
    "thickness_class",
    # verification harness
    "CheckReport",
    "StablePoly",
    "check_conjecture1",
    "check_e_vanishing",
    "check_f1",
    "check_f2",
    "check_f3",
    "check_les",
    "check_low_degree_table",
    "check_rem2",
    "check_t1",
    "check_width_lower_bound",
    "d_diagram",
    "e_diagram",
    "stable_poly",
    "stable_poly_report",
]
