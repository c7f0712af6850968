"""Lerch zeta function as a multivalued function of three complex variables.

Evaluation of sum_{n>=0} e^{2*pi*i*n*a} (n+c)^{-s} on its convergence
regions, analytic continuation over the punctured (s,a,c)-domain, and the
exact algebra of its monodromy on the maximal abelian cover.
"""

from .branching import (
    PRINCIPAL_LOG,
    PrincipalLogConvention,
    branched_pow,
    complex_gamma,
    principal_log,
    reciprocal_gamma,
)
from .continuation import (
    ShiftDirection,
    dde_shift,
    evaluate_on_cover,
    evaluate_principal,
    pde_residual,
    transform_eval,
)
from .domain import ContourSpec, Point3, SymKind
from .errors import (
    ContourHitsPole,
    CutViolation,
    DerivativeCircleLeavesDomain,
    DivergentSeries,
    InvalidPoint,
    InvalidRegion,
    LerchError,
    NonConvergence,
    PoleAtNonpositiveInteger,
    SZero,
    WordParseError,
)
from .evaluator import (
    LerchValue,
    Method,
    dirichlet_series,
    integral_eval,
    residue_discrepancy,
    series_eval,
    two_sided_series,
)
from .funceq import (
    CompletedL,
    IteratedVariant,
    completed_l,
    fe_iterated_residual,
    fe_monodromy_residual,
    fe_residual,
    l_pm,
    three_term_residual,
)
from .monodromy import (
    MonodromySpaceBasis,
    compose_check,
    monodromy_generator,
    monodromy_of_branch,
    monodromy_of_word,
    monodromy_power,
    monodromy_space_basis,
    word_fold_monodromy,
)
from .words import BranchState, Generator, Word, abelianize, parse_branch, rep_apply

__version__ = "0.1.0"

__all__ = [
    "BranchState",
    "CompletedL",
    "ContourHitsPole",
    "ContourSpec",
    "CutViolation",
    "DerivativeCircleLeavesDomain",
    "DivergentSeries",
    "Generator",
    "InvalidPoint",
    "InvalidRegion",
    "IteratedVariant",
    "LerchError",
    "LerchValue",
    "Method",
    "MonodromySpaceBasis",
    "NonConvergence",
    "PRINCIPAL_LOG",
    "Point3",
    "PoleAtNonpositiveInteger",
    "PrincipalLogConvention",
    "SZero",
    "ShiftDirection",
    "SymKind",
    "Word",
    "WordParseError",
    "abelianize",
    "branched_pow",
    "complex_gamma",
    "completed_l",
    "compose_check",
    "dde_shift",
    "dirichlet_series",
    "evaluate_on_cover",
    "evaluate_principal",
    "fe_iterated_residual",
    "fe_monodromy_residual",
    "fe_residual",
    "integral_eval",
    "l_pm",
    "monodromy_generator",
    "monodromy_of_branch",
    "monodromy_of_word",
    "monodromy_power",
    "monodromy_space_basis",
    "parse_branch",
    "pde_residual",
    "principal_log",
    "reciprocal_gamma",
    "rep_apply",
    "residue_discrepancy",
    "series_eval",
    "three_term_residual",
    "transform_eval",
    "two_sided_series",
    "word_fold_monodromy",
]
