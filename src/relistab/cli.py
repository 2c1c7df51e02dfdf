"""Command-line entry point.

Subcommands: validate, reliability, stability, matrix, phi, compare,
simulate, report. Every long flag mirrors a key in an optional JSON config
document (``--config run.json``, dashes becoming underscores) and goes
through that flag's converter and choices; explicit flags win on
conflict. Any subcommand that resamples (bootstrap,
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
from .core import AnnotationSet, as_integer, as_number, as_text, build_repeat_pairs, validate_dataset
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
    read_json_object,
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
from .reliability import ICC_MODELS, METRICS, MetricCall, bootstrap_ci
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
    repeat_table,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors routed through the config-error path.

    A subcommand's parser keeps its options by dest, so that a ``--config``
    value goes through the same converter and choices as its flag, and
    checks ``required`` only once either source may have given the value.
    """

    def __init__(self, *args, **kwargs):
        self.options: dict[str, argparse.Action] = {}
        self.required_options: list[str] = []
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise InvalidConfigError(message)

    def add_argument(self, *args, required=False, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.default is not argparse.SUPPRESS:  # not --help or --version
            self.options[action.dest] = action
        if required:
            self.required_options.append(action.dest)
        return action

    def config_defaults(self, config: dict) -> dict:
        """``config``'s values, converted and checked as their flags would be:
        a switch takes a JSON boolean, an option that takes several values
        one value or a list, any other option one value through its
        ``type`` (text when it has none). A null is the same as no key."""
        allowed = sorted(set(self.options) - {"config"})
        unknown = sorted(set(config) - set(allowed))
        if unknown:
            raise InvalidConfigError(f"unknown config key(s) {unknown}; allowed: {allowed}")
        defaults = {}
        for key, value in config.items():
            if value is None:
                continue
            action = self.options[key]
            convert = action.type or as_text
            try:
                if action.nargs == 0:
                    if not isinstance(value, bool):
                        raise TypeError("expected true or false")
                    converted = value
                elif action.nargs == "+" and isinstance(value, list) and value:
                    converted = [convert(v) for v in value]
                else:
                    converted = convert(value)
                if action.choices is not None and converted not in action.choices:
                    raise ValueError(f"choose from {list(action.choices)}")
            except (TypeError, ValueError) as exc:
                raise InvalidConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc
            defaults[key] = converted
        return defaults


# --- option converters: each takes a flag's text or a config's JSON value ----


def nonnegative(value) -> int:
    result = as_integer(value)
    if result < 0:
        raise ValueError(f"{value!r} is negative")
    return result


def number(value) -> float:
    """:func:`core.as_number`, by the name flag errors show."""
    return as_number(value)


def rounds(value):
    """One round, or a list of them given as comma text or a JSON list."""
    if isinstance(value, str) and "," in value:
        value = [part for part in value.split(",") if part.strip()]
    return [as_integer(v) for v in value] if isinstance(value, list) else as_integer(value)


def edges(value) -> list[float]:
    """Bucket edges in seconds: comma text, a JSON list or one number."""
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    return [as_number(v) for v in (value if isinstance(value, list) else [value])]


def _load_dataset(annotations_path: str, schema_path: str) -> AnnotationSet:
    schema = load_schema(schema_path)
    return validate_dataset(read_annotation_records(annotations_path), schema)


def _emit(report: dict, out_dir: str | None, svg: str | None = None) -> None:
    """Write the report, rendering every file before writing any."""
    text = dumps_report(report)
    if out_dir is None:
        sys.stdout.write(text)
        return
    markdown = render_markdown(report)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(text, encoding="utf-8")
    (out / "report.md").write_text(markdown, encoding="utf-8")
    if svg is not None:
        (out / "matrix.svg").write_text(svg, encoding="utf-8")


def _provenance(args, inputs: dict, seed, omit=()) -> dict:
    # output routing doesn't affect the computation, so it stays out of the
    # provenance: the same analysis gives the same report bytes wherever it
    # is written
    config = {k: v for k, v in vars(args).items() if k not in ("config", "func", "out", *omit)}
    return build_provenance(inputs, config, seed)


def _inputs(args, *keys) -> dict:
    return {key: getattr(args, key) for key in keys}


#: the options that ``matrix`` and ``simulate --end-to-end`` place items by
THRESHOLD_OPTIONS = tuple(field.name for field in dataclasses.fields(QuadrantThresholds))


def _place(aset: AnnotationSet, args):
    """The dataset's and each item's quadrant under the threshold options,
    the items left unplaced, and the matrix SVG."""
    thresholds = QuadrantThresholds(**{name: getattr(args, name) for name in THRESHOLD_OPTIONS})
    dataset = classify_dataset(aset, thresholds)
    items, excluded = classify_items(aset, thresholds)
    return dataset, items, excluded, render_svg_quadrant([dataset, *items], thresholds)


# --- subcommands ------------------------------------------------------------


def cmd_validate(args) -> int:
    aset = _load_dataset(args.annotations, args.schema)
    report = {
        "report_kind": "validate",
        "provenance": _provenance(args, _inputs(args, "annotations", "schema"), None),
        "validation": {
            "n_records": len(aset),
            "n_items": len(aset.items()),
            "n_annotators": len(aset.annotators()),
            "rounds": list(aset.rounds()),
        },
    }
    _emit(report, args.out)
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
    if args.bootstrap and args.seed is None:
        raise InvalidConfigError("bootstrap resamples; a --seed is required")
    aset = _load_dataset(args.annotations, args.schema)
    names = [args.metric] if args.metric else _reliability_battery(aset)

    def _pair() -> tuple[str, str]:
        if args.annotator_a and args.annotator_b:
            return args.annotator_a, args.annotator_b
        annotators = aset.annotators()
        if len(annotators) == 2:
            return annotators[0], annotators[1]
        raise InvalidConfigError(
            "cohens_kappa needs --annotator-a/--annotator-b unless the dataset "
            "has exactly 2 annotators"
        )

    def call_for(name: str) -> MetricCall:
        options = {}
        if name == "icc":
            name = f"icc_{args.icc_model}"
        elif name == "cohens_kappa":
            ann_a, ann_b = _pair()
            options = {"annotator_a": ann_a, "annotator_b": ann_b}
        elif name == "krippendorff_alpha":
            options = {"distance": args.distance}
        return MetricCall(name, args.round, options)

    results = []
    for name in names:
        call = call_for(name)
        result = call(aset)
        if args.bootstrap:
            ci = bootstrap_ci(call, aset, replicates=args.bootstrap,
                              confidence=args.confidence, seed=args.seed)
            result = result.with_ci(ci)
        results.append(result)

    report = {
        "report_kind": "reliability",
        "provenance": _provenance(args, _inputs(args, "annotations", "schema"), args.seed),
        "reliability": [r.to_report() for r in results],
    }
    _emit(report, args.out)
    return 0


def cmd_stability(args) -> int:
    aset = _load_dataset(args.annotations, args.schema)
    pairs = build_repeat_pairs(aset, args.pairing)
    try:
        profile = interval_profile(
            pairs, bucket_edges=args.bucket_edges,
            permutation_replicates=args.permutation, seed=args.seed,
        ).to_report()
    except (NoIntervalsError, TooFewBucketsError):
        profile = None
    table = repeat_table(aset, pairs)
    del pairs  # the table holds what the rest needs; free the pair arrays
    dataset = dataset_stability(table)
    annotators = annotator_stability(table)
    items = item_stability_labels(aset)

    report = {
        "report_kind": "stability",
        "provenance": _provenance(args, _inputs(args, "annotations", "schema"), args.seed),
        "stability": {
            "dataset": dataset.to_report(),
            "annotators": [a.to_report() for a in annotators],
            "items": [i.to_report() for i in items],
            # nobody relabelled the items without a label
            "excluded_items": sorted(set(aset.items()) - {i.item_id for i in items}),
            "intervals": profile,
        },
    }
    _emit(report, args.out)
    return 0


def cmd_matrix(args) -> int:
    aset = _load_dataset(args.annotations, args.schema)
    dataset_assignment, item_assignments, excluded, svg = _place(aset, args)

    report = {
        "report_kind": "matrix",
        "provenance": _provenance(args, _inputs(args, "annotations", "schema"), None),
        "matrix": {
            "dataset": dataset_assignment.to_report(),
            "items": [a.to_report() for a in item_assignments],
            "excluded": list(excluded),
        },
    }
    _emit(report, args.out, svg=svg)
    return 0


def cmd_phi(args) -> int:
    aset = _load_dataset(args.annotations, args.schema)
    labels = item_stability_labels(aset)
    records = read_rationalisations_csv(args.rationalisations)
    resolved, ties = resolve_rationalisation(records)
    table = build_contingency(labels, resolved)
    result = phi(table, n_excluded_ties=len(ties))
    if args.seed is not None:
        result = dataclasses.replace(
            result, p_value=permutation_p(table, replicates=args.permutation, seed=args.seed)
        )

    report = {
        "report_kind": "phi",
        "provenance": _provenance(
            args, _inputs(args, "annotations", "schema", "rationalisations"), args.seed
        ),
        "association": result.to_report(),
    }
    _emit(report, args.out)
    return 0


def cmd_compare(args) -> int:
    # the two defaults that depend on other options
    if args.schema_b is None:
        args.schema_b = args.schema
    if args.metric is None:
        args.metric = "krippendorff_alpha" if args.axis == "reliability" else "exact_rate"

    set_a = _load_dataset(args.annotations_a, args.schema)
    set_b = _load_dataset(args.annotations_b, args.schema_b)
    fn = compare_reliability if args.axis == "reliability" else compare_stability
    difference, ci = fn(
        set_a, set_b, replicates=args.replicates, seed=args.seed, metric=args.metric,
        confidence=args.confidence,
    )

    report = {
        "report_kind": "compare",
        "provenance": _provenance(
            args, _inputs(args, "annotations_a", "annotations_b", "schema", "schema_b"), args.seed
        ),
        "comparison": {
            "axis": args.axis,
            "metric": args.metric,
            "difference": difference,
            "ci": list(ci),
            "replicates": args.replicates,
            "confidence": args.confidence,
        },
    }
    _emit(report, args.out)
    return 0


def cmd_simulate(args) -> int:
    config = load_sim_config(args.sim_config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    aset, truth = simulate(config)
    out_dir = Path(args.out)
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
    if args.end_to_end:
        dataset_assignment, item_assignments, _excluded, svg = _place(aset, args)
        quadrant = dataset_assignment.quadrant.value
        causes = sorted(set(truth.causes.values()))
        expected = DEFAULT_CAUSE_QUADRANT[causes[0]].value if len(causes) == 1 else None
        recovery = {
            "accuracy": recovery_accuracy(item_assignments, truth),
            "n_items": len(item_assignments),
            "dataset_quadrant": quadrant,
            "expected_quadrant": expected,
            "dataset_match": None if expected is None else expected == quadrant,
        }

    report = {
        "report_kind": "simulate",
        # the thresholds count only when the data is placed in the matrix
        "provenance": _provenance(
            args, _inputs(args, "sim_config"), config.seed,
            omit=() if args.end_to_end else THRESHOLD_OPTIONS,
        ),
        "simulation": {
            "config": config.to_json(),
            "n_records": len(aset),
            "items_per_cause": dict(config.items_per_cause),
            "recovery": recovery,
        },
    }
    _emit(report, args.out, svg=svg)
    return 0


def cmd_report(args) -> int:
    # a config may give one path as a string; the provenance keeps it so
    inputs = [args.inputs] if isinstance(args.inputs, str) else args.inputs
    merged: dict = {}
    section_source: dict[str, str] = {}
    seeds = []
    for path in inputs:

        def refuse(constant: str, path=path):
            # json.loads reads NaN and Infinity, which JSON does not have
            raise ValidationError(f"{path}: {constant} is not a JSON value")

        with _open_text(path) as handle:
            text = handle.read()
        try:
            doc = json.loads(text, parse_constant=refuse)
        # a plain ValueError for an integer past Python's digit limit
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path}: not valid JSON") from exc
        if not isinstance(doc, dict) or "report_kind" not in doc \
                or not isinstance(doc.get("provenance"), dict):
            raise ValidationError(f"{path}: not a report document")
        seed = doc["provenance"].get("seed")
        if seed is not None and type(seed) is not int:  # not bool
            raise ValidationError(f"{path}: seed {seed!r} is not an integer")
        seeds.append(seed)
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
            args,
            {f"report_{i}": path for i, path in enumerate(inputs)},
            distinct_seeds[0] if len(distinct_seeds) == 1 else None,
        ),
        **merged,
    }
    try:
        _emit(report, args.out)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        # the sections come from files; one the renderers cannot read is malformed
        raise ValidationError(f"input reports hold a malformed section ({exc!r})") from exc
    return 0


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The parser; ``parser.commands`` maps each subcommand to its own."""
    parser = _Parser(prog="relistab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"relistab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.commands = sub.choices

    def add(name, func, helptext, dataset=True, out_required=False):
        p = sub.add_parser(name, help=helptext, description=helptext)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file mirroring the flags")
        p.add_argument("--out", required=out_required,
                       help="output directory (default: JSON to stdout)")
        if dataset:
            p.add_argument("--annotations", required=True)
            p.add_argument("--schema", required=True)
        return p

    def add_thresholds(p):
        p.add_argument("--reliability-metric", choices=list(RELIABILITY_METRICS),
                       default="krippendorff_alpha")
        p.add_argument("--stability-metric", choices=list(STABILITY_METRICS),
                       default="self_kappa")
        p.add_argument("--reliability-cut", type=number)
        p.add_argument("--stability-cut", type=number)

    add("validate", cmd_validate, "ingest a dataset and check every invariant")

    p = add("reliability", cmd_reliability, "between-annotator agreement metrics")
    p.add_argument("--metric", choices=RELIABILITY_CHOICES)
    p.add_argument("--round", type=rounds, default=1,
                   help="round selector: an integer or comma list")
    p.add_argument("--annotator-a")
    p.add_argument("--annotator-b")
    p.add_argument("--icc-model", choices=list(ICC_MODELS), default="oneway_random")
    p.add_argument("--distance", choices=["nominal", "ordinal", "interval"])
    p.add_argument("--bootstrap", type=nonnegative, help="bootstrap replicates for CIs")
    p.add_argument("--confidence", type=number, default=0.95)
    p.add_argument("--seed", type=nonnegative)

    p = add("stability", cmd_stability, "within-annotator consistency across rounds")
    p.add_argument("--pairing", choices=["consecutive", "first_last", "all_pairs"],
                   default="consecutive")
    p.add_argument("--bucket-edges", type=edges, default=list(DEFAULT_BUCKET_EDGES),
                   help="comma list of seconds")
    p.add_argument("--permutation", type=nonnegative, default=1000,
                   help="trend permutation replicates")
    p.add_argument("--seed", type=nonnegative)

    p = add("matrix", cmd_matrix, "dataset + item quadrant placement and SVG")
    add_thresholds(p)

    p = add("phi", cmd_phi, "stability x rationalisation contingency and phi")
    p.add_argument("--rationalisations", required=True, help="CSV: item_id,rater_id,label")
    p.add_argument("--permutation", type=nonnegative, default=10000)
    p.add_argument("--seed", type=nonnegative)

    p = add("compare", cmd_compare, "two-dataset difference with bootstrap CI", dataset=False)
    p.add_argument("--annotations-a", required=True)
    p.add_argument("--annotations-b", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--schema-b", help="schema of B (default: --schema)")
    p.add_argument("--axis", required=True, choices=["reliability", "stability"])
    p.add_argument("--metric", help="default: krippendorff_alpha or exact_rate, by axis")
    p.add_argument("--replicates", type=nonnegative, default=1000)
    p.add_argument("--seed", type=nonnegative, required=True)
    p.add_argument("--confidence", type=number, default=0.95)

    p = add("simulate", cmd_simulate, "generate a synthetic dataset with ground truth",
            dataset=False, out_required=True)
    p.add_argument("--sim-config", required=True, help="JSON simulation config")
    p.add_argument("--seed", type=nonnegative, help="override the config seed")
    p.add_argument("--end-to-end", action=argparse.BooleanOptionalAction, default=False)
    add_thresholds(p)

    p = add("report", cmd_report, "merge prior report JSONs into one bundle", dataset=False)
    p.add_argument("--inputs", nargs="+", required=True, help="report.json files to merge")

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Flags win over ``--config`` values, which win over the defaults.

    The config's values, converted and checked like flags, become the
    subcommand's defaults, and the flags are parsed again over them.
    Required options are checked last, as either source may give them.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    command = parser.commands[args.subcommand]
    if args.config:
        command.set_defaults(**command.config_defaults(read_json_object(args.config, "config")))
        args = parser.parse_args(argv)
    missing = [dest for dest in command.required_options if getattr(args, dest) is None]
    if missing:
        raise InvalidConfigError(f"missing required option {missing[0]!r}")
    return args


def _fail(code: str, exc: Exception, status: int) -> int:
    sys.stderr.write(
        json.dumps(
            {"error": {"code": code, "type": type(exc).__name__, "message": str(exc)}}
        )
        + "\n"
    )
    return status


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
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
