"""Buckley-Feuring solution verification for non-polynomial fuzzy PDEs.

The library decides whether a fuzzified candidate Y(x1, x2) solves

    (dV/dx1) / (dV/dx2) = F(x1, x2, parameters)

in the Buckley-Feuring sense: it builds alpha-cut envelopes of the candidate
and the right-hand side over a sample grid, applies the quotient-of-partials
operator to the envelope ends, and checks fuzzy-number validity,
differentiability, equality and boundary conditions.
"""

__version__ = "0.1.0"

from .fuzzy import (
    AlphaCut,
    FuzzyVector,
    TriangularFuzzyNumber,
    alpha_cut,
    cut_box,
    is_crisp,
)
from .expr import (
    EvalDomainError,
    EvalError,
    Expression,
    ParseError,
    UnboundVariableError,
    differentiate,
    evaluate,
    finite_difference,
    free_variables,
    parse,
    to_string,
)
from .engine import (
    BF_SOLUTION,
    BOUNDARY_FAILS,
    EQUALITY_FAILS,
    NOT_DIFFERENTIABLE,
    NOT_FUZZY_VALID,
    STRUCTURE_FAILS,
    BoundaryCondition,
    CheckReport,
    DomainBox,
    EnvelopeCurve,
    GridSpec,
    NearZeroDenominatorError,
    NonFiniteValueError,
    ProblemSpec,
    Tolerances,
    Verdict,
    check_boundary,
    check_differentiability,
    check_equality,
    check_fuzzy_validity,
    check_structure,
    compute_curves,
    envelope,
    envelope_curve,
    gamma_curves,
    verify,
)
from .io import (
    ProblemFormatError,
    emit_curves,
    emit_report,
    load_problem,
    problem_to_dict,
    report_to_dict,
    save_problem,
)
