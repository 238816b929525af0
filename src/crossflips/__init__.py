"""Local moves on balanced simplicial complexes.

Simplicial complexes with facet-derived face queries, the cross-polytope
diamond constructions with their degree-lexicographic shellings, bistellar
flips, elementary shellings, cross-flips, and the catalog of basic flip
classes with theorem-level verifications.
"""

from .complexes import (
    Complex,
    ComplexError,
    FaceNotPresent,
    ManifoldVerdict,
    NotPure,
    NotSubcomplex,
    VertexCollision,
    are_isomorphic,
    base,
    boundary_complex,
    complex_from_doc,
    complex_to_doc,
    delete_face,
    delete_subcomplex,
    dumps,
    f_vector,
    face,
    find_balanced_coloring,
    h_vector,
    is_combinatorial_manifold,
    is_induced,
    is_proper_coloring,
    join,
    link,
    loads,
    relabel,
    star,
    sub,
)
from .diamond import (
    absolute_shelling_order,
    canonicalize,
    char_vector,
    complement_index,
    cross_polytope,
    deg_lex_less,
    diamond_closed_form,
    decompose_rho_sigma,
    decompose_zero,
    gamma,
    h_vector_formula,
    initial_facet,
    relative_shelling_order,
    simplex_boundary,
    standard_coloring,
)
from .moves import (
    BistellarFlip,
    CrossFlip,
    ShellingMove,
    apply_bistellar,
    apply_cross_flip,
    apply_cross_flip_detailed,
    boundary_bistellar_realization,
    find_cross_flip_sites,
    inverse_flip,
    inverse_shelling,
    list_bistellar,
    preserves_balancedness,
    shelling_move,
    stellar_subdivide,
    stellar_weld,
)
from .shelling import (
    RelativeComplex,
    ShellingCertificate,
    ShellingVerdict,
    find_shelling,
    h_from_shelling,
    is_co_shellable_in_crosspolytope,
    is_relative_shelling,
    is_shellable,
    is_shelling,
)
from .catalog import (
    FlipClass,
    barycentric_sphere,
    check_matroid_bases,
    enumerate_basic_flips,
    stacked_cross_sphere,
    verify_pentagon_composition,
    verify_reducibility_composition,
)

__version__ = "0.1.0"
