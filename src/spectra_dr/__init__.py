"""Exact rational cohomology engine.

Everything is computed exactly over the rationals — no floating point, no
tolerance knobs.  A matrix stores an integral entry as an int and any other
entry as a fractions.Fraction, and hands entries out as Fractions.  The
layers, bottom up:

- linalg: matrices, fraction-free elimination, subquotients, induced maps
- cochain: bounded cochain complexes, shifts, duals, chain maps, cohomology
- bicomplex: double complexes, totalization, double duals, comparison witnesses
- tensorops: tensor products of complexes and of double complexes
- spectral: the column-filtration spectral sequence of a double complex
- truncation: column-window truncations, hypercohomology, exact sequences
- models: finite exterior-algebra Dolbeault models (torus, Lie models,
  products), wedge/cup/duality, and the closed-form dimension predictors
- randgen / suites: seeded generators and randomized verification suites
- cli: the spectra-dr command-line tool
"""

from .errors import (
    ContainmentViolation,
    EngineError,
    IntegralNotClosed,
    JacobiViolation,
    NotChainCompatible,
    NotClosed,
    ParseError,
    PreconditionViolation,
    ValidationError,
    WitnessFailure,
)
from .linalg import (
    RatMatrix,
    Subquotient,
    image_basis,
    induced_map,
    kernel_basis,
    rank,
    rat_from,
    rat_str,
    solve_matrix,
    subquotient,
)
from .cochain import (
    ChainMap,
    CochainComplex,
    betti_numbers,
    cohomology,
    cohomology_dim,
    dual,
    euler_characteristic,
    shift,
)
from .bicomplex import (
    BicomplexMap,
    DoubleComplex,
    dual2,
    shift2,
    total,
    transpose2,
    verify_total_dual_iso,
)
from .tensorops import (
    QuadComplex,
    kunneth_check,
    parity_iso,
    quad_tensor,
    ss_collapse,
    tensor,
)
from .spectral import (
    SpectralPage,
    convergence_check,
    degenerates_at_first_page,
    filtration_dims,
    limit_page,
    page,
    stabilization_index,
)
from .truncation import (
    connecting_matrix,
    four_term_check,
    frolicher_check,
    hodge_filtration_dims,
    hyper_dims,
    hypercohomology,
    les_check,
    truncate,
    truncated_total,
    window_map,
)
from .models import (
    BUILTIN_SPECS,
    LieModelSpec,
    ModelDoubleComplex,
    blowup_predict,
    bott_chern_dim,
    cup_map,
    degeneration_equivalence,
    duality_map,
    integral,
    iwasawa_spec,
    kunneth_predict,
    leray_hirsch_predict,
    lie_model,
    point_model,
    product_model,
    projective_bundle_predict,
    torus_model,
    wedge,
)
from .suites import SUITES, run_suite

__version__ = "0.1.0"
