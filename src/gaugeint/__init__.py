"""Numerical gauge-integration toolkit.

Total Kurzweil-Henstock integrals of functions with finitely many singular
or exceptional points, verification of the endpoint-difference identity,
and residue extraction at discontinuities.
"""

from .builders import (
    BuildLimits,
    RefinementSchedule,
    build_anchored,
    build_cousin,
    build_straddle_verified,
)
from .catalog import CATALOG_NAMES, CatalogEntry, catalog, catalog_entry
from .dsl import UNDEFINED, CompiledFunction, FunctionDef, ParseError, evaluate, parse, render
from .errors import (
    AnchorOverlapError,
    BudgetExceeded,
    BuildError,
    EvaluationError,
    FloorReached,
    GaugeIntError,
    NotLocallyConstant,
    StraddleFailure,
)
from .integrate import (
    DecompositionReport,
    ResidueReport,
    TotalReport,
    VerificationRow,
    decompose,
    plain_kh,
    report_json,
    residue_check,
    residue_table,
    total_kh,
)
from .models import (
    ExceptionalSet,
    SingularFunctionModel,
    consistency_check,
    evaluate_extended,
    increment,
)
from .partition import (
    Gauge,
    Interval,
    TaggedPartition,
    ValidationReport,
    Violation,
    anchor_cells,
    anchored_gauge,
    is_fine,
    partition_to_csv,
    restrict,
    validate,
)
from .sums import (
    KahanAccumulator,
    SumBreakdown,
    basic_sum_sequence,
    increment_sum,
    residual_estimate,
    riemann_sum,
)
from .verdicts import Converged, ConvergenceVerdict, Diverged, Inconclusive, classify

__version__ = "0.1.0"
