"""The names ``relistab`` exports."""

import relistab

#: every public name; adding or removing one is a deliberate edit here and
#: in the README's list of removed names
PUBLIC_NAMES = [
    "AgreementResult", "AnnotationRecord", "AnnotationSet", "AssociationResult",
    "ChanceDegenerateError", "ContingencyTable", "CoverageMismatchError",
    "DEFAULT_BUCKET_EDGES", "DEFAULT_CAUSE_QUADRANT", "DegenerateError", "DuplicateCellError",
    "EmptyInputError", "InsufficientVarianceError", "IntervalProfile", "InvalidConfigError",
    "ItemStabilityLabel", "LabelSchema", "MetricCall", "NoIntervalsError", "NoOverlapError",
    "NoQualifyingItemsError", "NoRepeatsError", "NonFiniteError", "NotIntervalError",
    "Quadrant", "QuadrantAssignment", "QuadrantThresholds", "RationalisationRecord",
    "RecordColumns", "RelistabError", "RepeatPairs", "RepeatTable", "SchemaMismatchError",
    "SimConfig", "SimTruth", "StabilityResult", "TooFewBucketsError", "TooManyDegenerateError",
    "UnknownLabelError", "ValidationError", "ZeroMarginError", "annotator_stability",
    "bootstrap_ci", "build_contingency", "build_provenance", "build_repeat_pairs",
    "canonicalize", "classify", "classify_dataset", "classify_items", "cohens_kappa",
    "coincidence_counts", "compare_item_scores", "compare_reliability", "compare_stability",
    "dataset_stability", "dumps_report", "fleiss_kappa", "format_rfc3339", "icc",
    "interval_profile", "item_stability_labels", "items_without_repeats", "krippendorff_alpha",
    "load_report_schema", "load_schema", "normalize_label", "parse_rfc3339",
    "percent_agreement", "permutation_p", "phi", "read_annotation_records",
    "read_annotation_records_csv", "read_annotation_records_jsonl",
    "read_rationalisations_csv", "recovery_accuracy", "render_markdown", "render_svg_quadrant",
    "repeat_table", "resample_items", "resolve_rationalisation", "resolve_rounds", "round_sig",
    "save_schema", "simulate", "validate_dataset", "write_annotations_csv",
    "write_annotations_jsonl", "write_rationalisations_csv",
]


def test_public_names_are_pinned():
    assert sorted(relistab.__all__) == PUBLIC_NAMES
