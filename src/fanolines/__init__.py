"""Chains of families of lines on embedded Fano manifolds.

A symbolic engine over a closed term algebra of embedded varieties: family-
of-lines rewrite rules, the memoized chain invariant with witness chains,
exhaustive catalog verification of the classification statements it feeds,
and an exact finite-field laboratory for spans and secant dimensions.
"""

from .catalog import Catalog, build_catalog
from .chains import (
    ChainEngine,
    covering_ls_bound,
    default_engine,
    max_linear_in,
    s_invariant,
    witness_chain,
)
from .checks import (
    classify_by_s,
    golden_suite,
    run_suite,
    verify_classification,
    verify_family_lemmas,
    verify_next_to_maximal,
)
from .dsl import parse_variety, to_text
from .errors import (
    DegenerateRandomness,
    EngineError,
    NoRule,
    NotCoveredByLines,
    ParseError,
    PreconditionFailed,
    TraceError,
    ValidationError,
)
from .families import (
    FamilyRecord,
    RULE_PROVENANCE,
    line_families,
)
from .reports import CheckRecord, SuiteReport
from .secant import (
    DEFAULT_PRIMES,
    DEFAULT_SEED,
    Parameterization,
    RankConfig,
    scroll,
    secant_dim_chordmap,
    secant_dim_terracini,
    segre_veronese,
    span_dim_numeric,
    verify_secant_dimensions,
)
from .terms import (
    Bound,
    CompleteIntersection,
    Grassmann,
    LinearSectionG25,
    LinearSpace,
    PolarizedProduct,
    ProjBundleP1,
    Quadric,
    SympGrassmann,
    VarietyTerm,
    ambient_dim,
    covered_by_lines,
    dim,
    family_dim,
    is_fano,
    is_linear,
    normalize,
    picard_number,
)
from .trace import TraceReport, classification_trace

__version__ = "0.1.0"

__all__ = [
    "Bound",
    "Catalog",
    "ChainEngine",
    "CheckRecord",
    "CompleteIntersection",
    "DEFAULT_PRIMES",
    "DEFAULT_SEED",
    "DegenerateRandomness",
    "EngineError",
    "FamilyRecord",
    "Grassmann",
    "LinearSectionG25",
    "LinearSpace",
    "NoRule",
    "NotCoveredByLines",
    "Parameterization",
    "ParseError",
    "PolarizedProduct",
    "PreconditionFailed",
    "ProjBundleP1",
    "Quadric",
    "RULE_PROVENANCE",
    "RankConfig",
    "SuiteReport",
    "SympGrassmann",
    "TraceError",
    "TraceReport",
    "ValidationError",
    "VarietyTerm",
    "ambient_dim",
    "build_catalog",
    "classification_trace",
    "classify_by_s",
    "covered_by_lines",
    "covering_ls_bound",
    "default_engine",
    "dim",
    "family_dim",
    "golden_suite",
    "is_fano",
    "is_linear",
    "line_families",
    "max_linear_in",
    "normalize",
    "parse_variety",
    "picard_number",
    "run_suite",
    "s_invariant",
    "scroll",
    "secant_dim_chordmap",
    "secant_dim_terracini",
    "segre_veronese",
    "span_dim_numeric",
    "to_text",
    "verify_classification",
    "verify_family_lemmas",
    "verify_next_to_maximal",
    "verify_secant_dimensions",
    "witness_chain",
]
