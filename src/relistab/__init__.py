"""relistab: reliability (between annotators) x stability (within annotators)
analysis for multi-round annotation projects.

The package computes chance-corrected agreement on both axes, places
datasets and items on the resulting 2x2 matrix, associates item stability
with meta-labels explaining the variation, and ships a generative simulator
whose per-item causes provide ground truth for the whole pipeline.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .association import (
    AssociationResult,
    ContingencyTable,
    RationalisationRecord,
    build_contingency,
    compare_item_scores,
    compare_reliability,
    compare_stability,
    permutation_p,
    phi,
    resolve_rationalisation,
)
from .core import (
    AnnotationRecord,
    AnnotationSet,
    LabelSchema,
    RecordColumns,
    RepeatPairs,
    build_repeat_pairs,
    coincidence_counts,
    normalize_label,
    resolve_rounds,
    validate_dataset,
)
from .errors import (
    ChanceDegenerateError,
    CoverageMismatchError,
    DegenerateError,
    DuplicateCellError,
    EmptyInputError,
    InsufficientVarianceError,
    InvalidConfigError,
    NoIntervalsError,
    NonFiniteError,
    NoOverlapError,
    NoQualifyingItemsError,
    NoRepeatsError,
    NotIntervalError,
    RelistabError,
    SchemaMismatchError,
    TooFewBucketsError,
    TooManyDegenerateError,
    UnknownLabelError,
    ValidationError,
    ZeroMarginError,
)
from .ingest import (
    format_rfc3339,
    load_schema,
    parse_rfc3339,
    read_annotation_records,
    read_annotation_records_csv,
    read_annotation_records_jsonl,
    read_rationalisations_csv,
    save_schema,
    write_annotations_csv,
    write_annotations_jsonl,
    write_rationalisations_csv,
)
from .quadrant import (
    Quadrant,
    QuadrantAssignment,
    QuadrantThresholds,
    classify,
    classify_dataset,
    classify_items,
)
from .reliability import (
    AgreementResult,
    MetricCall,
    bootstrap_ci,
    cohens_kappa,
    fleiss_kappa,
    icc,
    krippendorff_alpha,
    percent_agreement,
    resample_items,
)
from .reporting import (
    build_provenance,
    canonicalize,
    dumps_report,
    load_report_schema,
    render_markdown,
    render_svg_quadrant,
    round_sig,
)
from .simulator import (
    DEFAULT_CAUSE_QUADRANT,
    SimConfig,
    SimTruth,
    recovery_accuracy,
    simulate,
)
from .stability import (
    DEFAULT_BUCKET_EDGES,
    IntervalProfile,
    ItemStabilityLabel,
    RepeatTable,
    StabilityResult,
    annotator_stability,
    dataset_stability,
    interval_profile,
    item_stability_labels,
    items_without_repeats,
    repeat_table,
)

__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
