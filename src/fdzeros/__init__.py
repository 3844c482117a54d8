"""Linear finite-difference operators with constant coefficients acting on
polynomials, and the machinery to track where their zeros go: operator
classification, the de Bruijn family T_{theta,h}, Walsh convolution, mesh and
root-interval bounds, large-h root asymptotics, and a seeded property suite.
"""

from .errors import (
    ConstantPolynomial,
    DegenerateQ,
    DegreeExceedsFrame,
    DegreeGapTooLarge,
    DegreeTooSmall,
    FDZerosError,
    ImaginaryResidue,
    InvalidInput,
    MatchAmbiguity,
    NonConvergence,
    NotRealRooted,
    TooFewRoots,
    ZeroPolynomial,
)
from .poly import (
    Polynomial,
    ZERO,
    coeff_scale,
    coerce_real,
    derivative,
    evaluate,
    evaluate_many,
    from_roots,
    is_real_coeffs,
    linear_combine,
    make_poly,
    monomial,
    multiply,
    poly_from_json,
    poly_to_json,
    reflect,
    shift_arg,
)
from .rootfind import (
    DEFAULT_REAL_TOL,
    RootSet,
    classify_real,
    extremes,
    interlace,
    mesh,
    pencil_hyperbolic_sample,
    roots,
    roots_many,
    rootset_to_json,
    sorted_real_parts,
)
from .operators import (
    FDOperator,
    GeneratingFn,
    OperatorVerdict,
    Witness,
    analyze,
    apply_op,
    compose,
    generating_fn,
    make_operator,
    operator_from_json,
    operator_to_json,
    verdict_to_json,
    witness_search,
    witness_to_json,
)
from .debruijn import (
    CotangentZeros,
    DeBruijnOp,
    apply_tb,
    as_fd_operator,
    extremal_bounds,
    gn,
    line_image,
    mesh_floor,
    qn,
    qn_zeros,
    qn_zeros_report,
    simplicity_margin,
)
from .walsh import (
    apolar,
    apolar_report,
    tb_via_walsh,
    walsh_convolve,
    walsh_interval_bound,
)
from .asymptotics import (
    AsymptoticReport,
    MonicHead,
    RootRecord,
    actual_roots,
    monic_head,
    predict_roots,
    report_summary,
    report_to_csv,
    residual_sweep,
    sweep_h_floor,
)
from .harness import (
    ALL_PROPERTIES,
    Property,
    PropertyRecord,
    SuiteConfig,
    SuiteReport,
    random_hyperbolic,
    random_line_poly,
    random_preserver,
    random_strip_operator,
    replay,
    report_to_json,
    run_properties,
    run_suite,
)

__version__ = "0.1.0"
