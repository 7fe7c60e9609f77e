"""Domains of linear fractional transformations over complex matrix spaces.

The package builds domains cut out by an invertibility condition CZ + D,
their symmetries and transitive automorphism chains, affine transport and
equivalence maps, the projection-built involution exchanging signed
contractions with the unit ball, entire curves through any two domain
points, and the circular domains with transitive linear groups.
"""

from .exceptions import (
    ConvergenceError,
    HypothesisError,
    InternalCheckError,
    LftdomError,
    PathLeavesDomainError,
    ShapeError,
    SingularMatrixError,
    SpaceClosureError,
    SpectrumError,
    StepBoundError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_cmatrix,
    as_cstack,
    ball_roots,
    binomial_series,
    binomial_series_grid,
    binomial_series_shifted,
    dagger,
    invert,
    operator_norm,
    principal_sqrt,
    singular_test,
    try_invert,
)
from .spaces import (
    OperatorSpace,
    closed_under_quadratic,
    diagonal_space,
    full_space,
    is_power_algebra,
    symmetric_space,
    upper_triangular_space,
)
from .domains import (
    ConnectivityReport,
    Domain,
    LFTMap,
    QuadricModel,
    Verdict,
    connectivity_class,
    det_membership,
    hyperplane_complement_domain,
    invertibles_domain,
    lft_apply,
    lft_images,
    projection_domain,
    quadric_domain,
    rank_one_pairing_domain,
    whole_space_domain,
)
from .automorphisms import (
    AffineEquivalence,
    AffineMap,
    AutomorphismChain,
    LiouvilleCurve,
    SwapInvolution,
    affine_equivalence,
    affine_transport,
    affine_transport_identity_residual,
    ball_margin,
    compose_symmetries_affine,
    find_midpoint,
    fixed_point_derivative,
    form_margin,
    liouville_curve,
    potapov_ginzburg_map,
    signature_from_projection,
    swap_involution,
    symmetry_direct,
    symmetry_map,
    transitive_chain,
)
from .circular import (
    HyperbolicSpec,
    HyperbolicTransport,
    ProductTransport,
    SiegelLinearAuto,
    SiegelSpec,
    SpaceLinearMap,
    cayley_map,
    exterior_member,
    hyperbolic_member,
    hyperbolic_transitive,
    mobius_direct,
    mobius_map,
    product_member,
    product_split,
    product_transitive,
    siegel_gram,
    siegel_invariant_residual,
    siegel_linear_auto,
    siegel_member,
)
from .verify import RunConfig, example_domains, run_verify

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
