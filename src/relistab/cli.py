"""Command-line entry point.

Subcommands: validate, reliability, stability, matrix, phi, compare,
simulate, report. Every long flag mirrors a key in an optional JSON config
document (``--config run.json``, dashes becoming underscores); explicit
flags win on conflict. Any subcommand that resamples (bootstrap,
permutation, comparison, simulation) requires a seed so runs are
reproducible.

Exit codes: 0 success, 1 unexpected failure, 2 I/O, 3 validation/config,
4 degenerate input (a metric's precondition cannot be met). Failures print
a one-line JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from pathlib import Path

from . import __version__
from .association import (
    build_contingency,
    compare_reliability,
    compare_stability,
    permutation_p,
    phi,
    resolve_rationalisation,
)
from .core import AnnotationSet, build_repeat_pairs, validate_dataset
from .errors import (
    DegenerateError,
    InvalidConfigError,
    NoIntervalsError,
    RelistabError,
    TooFewBucketsError,
    ValidationError,
)
from .ingest import (
    _open_text,
    load_schema,
    read_annotation_records,
    read_rationalisations_csv,
    save_schema,
    write_annotations_csv,
    write_rationalisations_csv,
)
from .quadrant import (
    RELIABILITY_METRICS,
    STABILITY_METRICS,
    QuadrantThresholds,
    classify_dataset,
    classify_items,
)
from .reliability import ICC_MODELS, METRICS, bootstrap_ci
from .reporting import (
    SECTION_KEYS,
    build_provenance,
    dumps_report,
    render_markdown,
    render_svg_quadrant,
)
from .simulator import (
    DEFAULT_CAUSE_QUADRANT,
    load_sim_config,
    rationalisations_from_truth,
    recovery_accuracy,
    simulate,
)
from .stability import (
    DEFAULT_BUCKET_EDGES,
    annotator_stability,
    dataset_stability,
    interval_profile,
    item_stability_labels,
    items_without_repeats,
    repeat_table,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors routed through the config-error path."""

    def error(self, message):
        raise InvalidConfigError(message)


def _read_config_file(path: str) -> dict:
    with _open_text(path) as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"{path}: config is not valid JSON") from exc
    if not isinstance(obj, dict):
        raise InvalidConfigError(f"{path}: config must be a JSON object")
    return obj


class _Options:
    """Flag/config merger: flags win, then config file, then defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _read_config_file(args.config) if args.config else {}
        # every key the subcommand has a flag for, and no other
        allowed_keys = set(vars(args)) - {"config", "func", "subcommand"}
        unknown = sorted(set(self.config) - allowed_keys)
        if unknown:
            raise InvalidConfigError(
                f"unknown config key(s) {unknown}; allowed: {sorted(allowed_keys)}"
            )
        self.resolved: dict = {}

    def get(self, key: str, default=None, cast=None, required=False):
        value = getattr(self.args, key, None)
        if value is None:
            value = self.config.get(key, default)
        if value is not None and cast is not None:
            try:
                value = cast(value)
            except (TypeError, ValueError) as exc:
                raise InvalidConfigError(f"bad value for {key!r}: {value!r}") from exc
        if required and value is None:
            raise InvalidConfigError(f"missing required option {key!r}")
        self.resolved[key] = value
        return value


def _parse_rounds(value):
    if isinstance(value, int):
        return value
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    text = str(value)
    if "," in text:
        return [int(part) for part in text.split(",") if part.strip()]
    return int(text)


def _parse_edges(value):
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(part) for part in str(value).split(",") if part.strip()]


def _require_seed(seed, what: str) -> int:
    if seed is None:
        raise InvalidConfigError(f"{what} resamples; a --seed is required")
    return int(seed)


def _load_dataset(annotations_path: str, schema_path: str) -> AnnotationSet:
    schema = load_schema(schema_path)
    return validate_dataset(read_annotation_records(annotations_path), schema)


def _emit(report: dict, out_dir: str | None, svg: str | None = None) -> None:
    if out_dir is None:
        sys.stdout.write(dumps_report(report))
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(dumps_report(report), encoding="utf-8")
    (out / "report.md").write_text(render_markdown(report), encoding="utf-8")
    if svg is not None:
        (out / "matrix.svg").write_text(svg, encoding="utf-8")


def _provenance(opts: _Options, subcommand: str, inputs: dict, seed) -> dict:
    config = {"subcommand": subcommand}
    # output routing doesn't affect the computation, so it stays out of the
    # provenance: the same analysis gives the same report bytes wherever it
    # is written
    config.update({k: v for k, v in opts.resolved.items() if k != "out"})
    return build_provenance(inputs, config, seed)


# --- subcommands ------------------------------------------------------------


def cmd_validate(args) -> int:
    opts = _Options(args)
    annotations = opts.get("annotations", required=True)
    schema_path = opts.get("schema", required=True)
    out = opts.get("out")
    aset = _load_dataset(annotations, schema_path)
    report = {
        "report_kind": "validate",
        "provenance": _provenance(
            opts, "validate", {"annotations": annotations, "schema": schema_path}, None
        ),
        "validation": {
            "n_records": len(aset),
            "n_items": len(aset.items()),
            "n_annotators": len(aset.annotators()),
            "rounds": list(aset.rounds()),
        },
    }
    _emit(report, out)
    return 0


#: ``reliability --metric`` names: the registered metrics with the ICC
#: models folded into one ``icc`` chosen by ``--icc-model``
RELIABILITY_CHOICES = [name for name in METRICS if not name.startswith("icc_")] + ["icc"]


def _reliability_battery(aset: AnnotationSet) -> list[str]:
    battery = ["percent_agreement", "fleiss_kappa", "krippendorff_alpha"]
    if len(aset.annotators()) == 2:
        battery.append("cohens_kappa")
    if aset.schema.scale_kind == "interval":
        battery.append("icc")
    return battery


def cmd_reliability(args) -> int:
    opts = _Options(args)
    annotations = opts.get("annotations", required=True)
    schema_path = opts.get("schema", required=True)
    metric = opts.get("metric")
    rounds = opts.get("round", default=1, cast=_parse_rounds)
    annotator_a = opts.get("annotator_a")
    annotator_b = opts.get("annotator_b")
    icc_model = opts.get("icc_model", default="oneway_random")
    distance = opts.get("distance")
    replicates = opts.get("bootstrap", cast=int)
    confidence = opts.get("confidence", default=0.95, cast=float)
    seed = opts.get("seed", cast=int)
    out = opts.get("out")

    aset = _load_dataset(annotations, schema_path)
    names = [metric] if metric else _reliability_battery(aset)

    def _pair() -> tuple[str, str]:
        if annotator_a and annotator_b:
            return annotator_a, annotator_b
        annotators = aset.annotators()
        if len(annotators) == 2:
            return annotators[0], annotators[1]
        raise InvalidConfigError(
            "cohens_kappa needs --annotator-a/--annotator-b unless the dataset "
            "has exactly 2 annotators"
        )

    def kernel_for(name: str):
        if name not in RELIABILITY_CHOICES:
            raise InvalidConfigError(f"unknown reliability metric {name!r}")
        options = {}
        if name == "icc":
            if icc_model not in ICC_MODELS:
                raise InvalidConfigError(f"model must be one of {ICC_MODELS}, got {icc_model!r}")
            name = f"icc_{icc_model}"
        elif name == "cohens_kappa":
            ann_a, ann_b = _pair()
            options = {"annotator_a": ann_a, "annotator_b": ann_b}
        elif name == "krippendorff_alpha":
            options = {"distance": distance}
        kernel = METRICS[name].kernel
        return lambda s: kernel(s, rounds, **options)

    results = []
    for name in names:
        fn = kernel_for(name)
        result = fn(aset)
        if replicates:
            ci = bootstrap_ci(
                fn, aset, replicates=replicates, confidence=confidence,
                seed=_require_seed(seed, "bootstrap"),
            )
            result = result.with_ci(ci)
        results.append(result)

    report = {
        "report_kind": "reliability",
        "provenance": _provenance(
            opts, "reliability", {"annotations": annotations, "schema": schema_path}, seed
        ),
        "reliability": [r.to_report() for r in results],
    }
    _emit(report, out)
    return 0


def cmd_stability(args) -> int:
    opts = _Options(args)
    annotations = opts.get("annotations", required=True)
    schema_path = opts.get("schema", required=True)
    pairing = opts.get("pairing", default="consecutive")
    edges = opts.get("bucket_edges", default=list(DEFAULT_BUCKET_EDGES), cast=_parse_edges)
    replicates = opts.get("permutation", default=1000, cast=int)
    seed = opts.get("seed", cast=int)
    out = opts.get("out")

    aset = _load_dataset(annotations, schema_path)
    pairs = build_repeat_pairs(aset, pairing)
    try:
        profile = interval_profile(
            pairs, bucket_edges=edges, permutation_replicates=replicates,
            seed=None if seed is None else int(seed),
        ).to_report()
    except (NoIntervalsError, TooFewBucketsError):
        profile = None
    table = repeat_table(aset, pairs)
    del pairs  # the table holds what the rest needs; free the pair objects
    dataset = dataset_stability(table)
    annotators = annotator_stability(table)
    items = item_stability_labels(aset)

    report = {
        "report_kind": "stability",
        "provenance": _provenance(
            opts, "stability", {"annotations": annotations, "schema": schema_path}, seed
        ),
        "stability": {
            "dataset": dataset.to_report(),
            "annotators": [a.to_report() for a in annotators],
            "items": [i.to_report() for i in items],
            "excluded_items": list(items_without_repeats(aset)),
            "intervals": profile,
        },
    }
    _emit(report, out)
    return 0


def _thresholds_from(opts: _Options) -> QuadrantThresholds:
    return QuadrantThresholds(
        reliability_cut=opts.get("reliability_cut", cast=float),
        stability_cut=opts.get("stability_cut", cast=float),
        reliability_metric=opts.get("reliability_metric", default="krippendorff_alpha"),
        stability_metric=opts.get("stability_metric", default="self_kappa"),
    )


def cmd_matrix(args) -> int:
    opts = _Options(args)
    annotations = opts.get("annotations", required=True)
    schema_path = opts.get("schema", required=True)
    thresholds = _thresholds_from(opts)
    out = opts.get("out")

    aset = _load_dataset(annotations, schema_path)
    dataset_assignment = classify_dataset(aset, thresholds)
    item_assignments, excluded = classify_items(aset, thresholds)
    svg = render_svg_quadrant([dataset_assignment, *item_assignments], thresholds)

    report = {
        "report_kind": "matrix",
        "provenance": _provenance(
            opts, "matrix", {"annotations": annotations, "schema": schema_path}, None
        ),
        "matrix": {
            "dataset": dataset_assignment.to_report(),
            "items": [a.to_report() for a in item_assignments],
            "excluded": list(excluded),
        },
    }
    _emit(report, out, svg=svg)
    return 0


def cmd_phi(args) -> int:
    opts = _Options(args)
    annotations = opts.get("annotations", required=True)
    schema_path = opts.get("schema", required=True)
    rationalisations_path = opts.get("rationalisations", required=True)
    replicates = opts.get("permutation", default=10000, cast=int)
    seed = opts.get("seed", cast=int)
    out = opts.get("out")

    aset = _load_dataset(annotations, schema_path)
    labels = item_stability_labels(aset)
    records = read_rationalisations_csv(rationalisations_path)
    resolved, ties = resolve_rationalisation(records)
    table = build_contingency(labels, resolved)
    result = phi(table, n_excluded_ties=len(ties))
    if seed is not None:
        result = dataclasses.replace(
            result, p_value=permutation_p(table, replicates=replicates, seed=int(seed))
        )

    report = {
        "report_kind": "phi",
        "provenance": _provenance(
            opts,
            "phi",
            {
                "annotations": annotations,
                "schema": schema_path,
                "rationalisations": rationalisations_path,
            },
            seed,
        ),
        "association": result.to_report(),
    }
    _emit(report, out)
    return 0


def cmd_compare(args) -> int:
    opts = _Options(args)
    annotations_a = opts.get("annotations_a", required=True)
    annotations_b = opts.get("annotations_b", required=True)
    schema_path = opts.get("schema", required=True)
    schema_b_path = opts.get("schema_b", default=schema_path)
    axis = opts.get("axis", required=True)
    if axis not in ("reliability", "stability"):
        raise InvalidConfigError("axis must be 'reliability' or 'stability'")
    metric = opts.get(
        "metric", default="krippendorff_alpha" if axis == "reliability" else "exact_rate"
    )
    replicates = opts.get("replicates", default=1000, cast=int)
    seed = _require_seed(opts.get("seed", cast=int), "compare")
    confidence = opts.get("confidence", default=0.95, cast=float)
    out = opts.get("out")

    set_a = _load_dataset(annotations_a, schema_path)
    set_b = _load_dataset(annotations_b, schema_b_path)
    fn = compare_reliability if axis == "reliability" else compare_stability
    difference, ci = fn(
        set_a, set_b, replicates=replicates, seed=seed, metric=metric, confidence=confidence
    )

    report = {
        "report_kind": "compare",
        "provenance": _provenance(
            opts,
            "compare",
            {
                "annotations_a": annotations_a,
                "annotations_b": annotations_b,
                "schema": schema_path,
                "schema_b": schema_b_path,
            },
            seed,
        ),
        "comparison": {
            "axis": axis,
            "metric": metric,
            "difference": difference,
            "ci": list(ci),
            "replicates": replicates,
            "confidence": confidence,
        },
    }
    _emit(report, out)
    return 0


def cmd_simulate(args) -> int:
    opts = _Options(args)
    config_path = opts.get("sim_config", required=True)
    out = opts.get("out", required=True)
    end_to_end = bool(opts.get("end_to_end", default=False))
    config = load_sim_config(config_path)
    seed = opts.get("seed", cast=int)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)

    aset, truth = simulate(config)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_annotations_csv(aset, out_dir / "annotations.csv")
    (out_dir / "truth.json").write_text(
        json.dumps(truth.to_json(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    save_schema(aset.schema, out_dir / "schema.json")
    rationalisations = rationalisations_from_truth(truth)
    if rationalisations:
        write_rationalisations_csv(rationalisations, out_dir / "rationalisations.csv")

    recovery = None
    svg = None
    if end_to_end:
        thresholds = _thresholds_from(opts)
        dataset_assignment = classify_dataset(aset, thresholds)
        item_assignments, _excluded = classify_items(aset, thresholds)
        svg = render_svg_quadrant([dataset_assignment, *item_assignments], thresholds)
        causes = sorted(set(truth.causes.values()))
        expected = DEFAULT_CAUSE_QUADRANT[causes[0]].value if len(causes) == 1 else None
        recovery = {
            "accuracy": recovery_accuracy(item_assignments, truth),
            "n_items": len(item_assignments),
            "dataset_quadrant": dataset_assignment.quadrant.value,
            "expected_quadrant": expected,
            "dataset_match": None
            if expected is None
            else dataset_assignment.quadrant.value == expected,
        }

    report = {
        "report_kind": "simulate",
        "provenance": _provenance(
            opts, "simulate", {"sim_config": config_path}, config.seed
        ),
        "simulation": {
            "config": config.to_json(),
            "n_records": len(aset),
            "items_per_cause": dict(config.items_per_cause),
            "recovery": recovery,
        },
    }
    _emit(report, out, svg=svg)
    return 0


def cmd_report(args) -> int:
    opts = _Options(args)
    inputs = opts.get("inputs", required=True)
    if isinstance(inputs, str):
        inputs = [inputs]
    out = opts.get("out")
    merged: dict = {}
    section_source: dict[str, str] = {}
    seeds = []
    for path in inputs:
        with _open_text(path) as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: not valid JSON") from exc
        if not isinstance(doc, dict) or "report_kind" not in doc or "provenance" not in doc:
            raise ValidationError(f"{path}: not a report document")
        seeds.append(doc["provenance"].get("seed"))
        for key in SECTION_KEYS:
            if key in doc:
                if key in merged:
                    raise ValidationError(
                        f"section {key!r} appears in both {section_source[key]} and {path}"
                    )
                merged[key] = doc[key]
                section_source[key] = path
    if not merged:
        raise ValidationError("input reports contain no sections to merge")
    distinct_seeds = sorted({s for s in seeds if s is not None})
    report = {
        "report_kind": "bundle",
        "provenance": _provenance(
            opts,
            "report",
            {f"report_{i}": path for i, path in enumerate(inputs)},
            distinct_seeds[0] if len(distinct_seeds) == 1 else None,
        ),
        **merged,
    }
    _emit(report, out)
    return 0


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relistab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"relistab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, helptext):
        p = sub.add_parser(name, help=helptext, description=helptext)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file mirroring the flags")
        p.add_argument("--out", help="output directory (default: JSON to stdout)")
        return p

    p = add("validate", cmd_validate, "ingest a dataset and check every invariant")
    p.add_argument("--annotations")
    p.add_argument("--schema")

    p = add("reliability", cmd_reliability, "between-annotator agreement metrics")
    p.add_argument("--annotations")
    p.add_argument("--schema")
    p.add_argument("--metric", choices=RELIABILITY_CHOICES)
    p.add_argument("--round", help="round selector: an integer or comma list")
    p.add_argument("--annotator-a", dest="annotator_a")
    p.add_argument("--annotator-b", dest="annotator_b")
    p.add_argument("--icc-model", dest="icc_model", choices=list(ICC_MODELS))
    p.add_argument("--distance", choices=["nominal", "ordinal", "interval"])
    p.add_argument("--bootstrap", type=int, help="bootstrap replicates for CIs")
    p.add_argument("--confidence", type=float)
    p.add_argument("--seed", type=int)

    p = add("stability", cmd_stability, "within-annotator consistency across rounds")
    p.add_argument("--annotations")
    p.add_argument("--schema")
    p.add_argument("--pairing", choices=["consecutive", "first_last", "all_pairs"])
    p.add_argument("--bucket-edges", dest="bucket_edges", help="comma list of seconds")
    p.add_argument("--permutation", type=int, help="trend permutation replicates")
    p.add_argument("--seed", type=int)

    p = add("matrix", cmd_matrix, "dataset + item quadrant placement and SVG")
    p.add_argument("--annotations")
    p.add_argument("--schema")
    p.add_argument("--reliability-metric", dest="reliability_metric", choices=list(RELIABILITY_METRICS))
    p.add_argument("--stability-metric", dest="stability_metric", choices=list(STABILITY_METRICS))
    p.add_argument("--reliability-cut", dest="reliability_cut", type=float)
    p.add_argument("--stability-cut", dest="stability_cut", type=float)

    p = add("phi", cmd_phi, "stability x rationalisation contingency and phi")
    p.add_argument("--annotations")
    p.add_argument("--schema")
    p.add_argument("--rationalisations", help="CSV: item_id,rater_id,label")
    p.add_argument("--permutation", type=int)
    p.add_argument("--seed", type=int)

    p = add("compare", cmd_compare, "two-dataset difference with bootstrap CI")
    p.add_argument("--annotations-a", dest="annotations_a")
    p.add_argument("--annotations-b", dest="annotations_b")
    p.add_argument("--schema")
    p.add_argument("--schema-b", dest="schema_b")
    p.add_argument("--axis", choices=["reliability", "stability"])
    p.add_argument("--metric")
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--confidence", type=float)

    p = add("simulate", cmd_simulate, "generate a synthetic dataset with ground truth")
    p.add_argument("--sim-config", dest="sim_config", help="JSON simulation config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--end-to-end", dest="end_to_end", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--reliability-metric", dest="reliability_metric", choices=list(RELIABILITY_METRICS))
    p.add_argument("--stability-metric", dest="stability_metric", choices=list(STABILITY_METRICS))
    p.add_argument("--reliability-cut", dest="reliability_cut", type=float)
    p.add_argument("--stability-cut", dest="stability_cut", type=float)

    p = add("report", cmd_report, "merge prior report JSONs into one bundle")
    p.add_argument("--inputs", nargs="+", help="report.json files to merge")

    return parser


def _fail(code: str, exc: Exception, status: int) -> int:
    sys.stderr.write(
        json.dumps(
            {"error": {"code": code, "type": type(exc).__name__, "message": str(exc)}}
        )
        + "\n"
    )
    return status


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        return _fail(exc.code, exc, 3)
    except DegenerateError as exc:
        return _fail(exc.code, exc, 4)
    except RelistabError as exc:
        return _fail(exc.code, exc, 1)
    except OSError as exc:
        return _fail("IO", exc, 2)
    except Exception as exc:  # pragma: no cover - safety net
        traceback.print_exc()
        return _fail("Unexpected", exc, 1)


if __name__ == "__main__":
    sys.exit(main())
