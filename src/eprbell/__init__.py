"""Evaluable strictly correlated state on the Weyl algebra, with Bell checks.

The package has five layers:

- ``weyl``: exact symbolic arithmetic for the Weyl relations over R^2/R^4;
- ``states``: the correlated state functional, kernel positivity, support
  structure, multiplicativity and traciality checks;
- ``gns``: finite generator frames, Gram matrices, compressions, norm bounds;
- ``bell``: Bell operators, a closed-form calibration family, a seeded
  derivative-free search for certified lower bounds, and Weyl-level doubles;
- ``surrogate``: an exact finite matrix model reaching the CHSH maximum
  sqrt(2), with the transpose anti-isomorphism and matrix doubles.

``cli`` wires everything into the ``eprbell`` command.
"""

__version__ = "0.1.0"

from .bell import (
    BellCandidate,
    SearchConfig,
    SearchResult,
    bell_operator,
    bell_value,
    correlation_deviation,
    monomial_candidate,
    monomial_family_value,
    optimize_bell,
    weyl_double,
)
from .gns import (
    GnsFrame,
    build_frame,
    collinearity_check,
    compress_operator,
    norm_lower_bound,
)
from .states import (
    EquivalenceError,
    StateFunctional,
    SupportPartition,
    eval_point,
    eval_poly,
    eval_product,
    kernel_matrix,
    multiplicativity_check,
    positivity_check,
    psd_check,
    rank_one_class_check,
    support_relation,
    trace_vector_check,
    traciality_check,
    uniqueness_support_check,
)
from .surrogate import (
    MatrixModel,
    a_theta,
    bell_expectation,
    build_model,
    chsh_value,
    correlation,
    correlation_grid,
    double_deviation,
    double_of,
    gamma,
)
from .weyl import (
    DEFAULT_TERM_CAP,
    Point,
    TermBudgetError,
    WeylPolynomial,
    ZERO_THRESHOLD,
    adjoint,
    from_records,
    is_self_adjoint,
    one_norm,
    parse_points,
    point,
    tensor_embed,
    to_records,
    weyl_multiply,
)
