"""In-process span recording around the package's public functions.

Spans are taken from outside the package: while a :class:`Tracer` is
installed, each function named in :data:`TARGETS` is replaced, in every
``relistab`` module that holds a reference to it, by a wrapper that records
one span per call. Calls between modules (``quadrant`` calling
``krippendorff_alpha``, ``bootstrap_ci`` calling ``resample_items``) go
through those module attributes, so nested calls become child spans.

A span is ``{id, name, parent, start, end, n}``: ``n`` is a count of the
work the call returned (records, pairs, bytes, replicates) where one
applies. Spans stay in memory while the traced process runs; ``run.py``
adds the pass and step they belong to and writes them out as JSON lines
when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _length(result, *_args, **_kwargs):
    return len(result)


def _text_bytes(result, *_args, **_kwargs):
    return len(result.encode("utf-8"))


def _classified(result, *_args, **_kwargs):
    assignments, excluded = result
    return (len(assignments), len(assignments) + len(excluded))


def _replicates(_result, _metric, _aset, replicates=1000, *_args, **_kwargs):
    """The replicate count a ``bootstrap_ci`` call asked for."""
    return replicates


#: (module, function) -> work count taken from the call, or None. Functions
#: no metric names are traced too, so that their time counts as the self
#: time of their own layer rather than of their caller.
TARGETS = {
    ("ingest", "read_annotation_records_csv"): _length,
    ("ingest", "read_annotation_records_jsonl"): _length,
    ("ingest", "write_annotations_csv"): None,
    ("ingest", "read_rationalisations_csv"): None,
    ("ingest", "load_schema"): None,
    ("core", "validate_dataset"): None,
    ("core", "build_repeat_pairs"): _length,
    ("core", "coincidence_counts"): None,
    ("reliability", "percent_agreement"): None,
    ("reliability", "fleiss_kappa"): None,
    ("reliability", "krippendorff_alpha"): None,
    ("reliability", "icc"): None,
    ("reliability", "cohens_kappa"): None,
    ("reliability", "resample_items"): None,
    ("reliability", "bootstrap_ci"): _replicates,
    ("stability", "dataset_stability"): None,
    ("stability", "annotator_stability"): None,
    ("stability", "item_stability_labels"): None,
    ("stability", "items_without_repeats"): None,
    ("stability", "interval_profile"): None,
    ("association", "resolve_rationalisation"): None,
    ("association", "build_contingency"): None,
    ("association", "phi"): None,
    ("association", "permutation_p"): None,
    ("association", "compare_reliability"): None,
    ("association", "compare_stability"): None,
    ("quadrant", "classify_dataset"): None,
    ("quadrant", "classify_items"): _classified,
    ("simulator", "simulate"): None,
    ("simulator", "recovery_accuracy"): None,
    ("simulator", "rationalisations_from_truth"): None,
    ("reporting", "build_provenance"): None,
    ("reporting", "dumps_report"): _text_bytes,
    ("reporting", "render_markdown"): _text_bytes,
    ("reporting", "render_svg_quadrant"): _text_bytes,
    ("cli", "main"): None,
}

LAYERS = ("ingest", "core", "reliability", "stability", "quadrant", "association",
          "simulator", "reporting", "cli")


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "parent": stack[-1] if stack else None,
                    "start": 0.0, "end": 0.0, "n": None}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if count is not None:
                span["n"] = count(result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "relistab" or key.startswith("relistab.")]
        for (module, func), count in TARGETS.items():
            original = getattr(sys.modules[f"relistab.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *_exc):
        self.uninstall()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Calls are sequential within one thread, so children never overlap and
    the covered part is the sum of their durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}


def pass_summary(spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers for the spans of one pass.

    ``<module>.<function>`` totals are inclusive times; ``<layer>.self_s``
    sums the self time of every span of that layer.
    """
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    count: dict[str, list] = defaultdict(list)
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        total[span["name"]] += span["end"] - span["start"]
        if span["n"] is not None:
            count[span["name"]].append(span["n"])
        layer_self[span["name"].split(".")[0]] += own[span["id"]]

    def t(name):
        return total.get(name, 0.0)

    records = sum(count["ingest.read_annotation_records_csv"]) + sum(
        count["ingest.read_annotation_records_jsonl"])
    read_s = t("ingest.read_annotation_records_csv") + t("ingest.read_annotation_records_jsonl")
    classified = count["quadrant.classify_items"]
    replicates = sum(count["reliability.bootstrap_ci"])
    out = {
        "ingest.read_csv_s": t("ingest.read_annotation_records_csv"),
        "ingest.read_jsonl_s": t("ingest.read_annotation_records_jsonl"),
        "ingest.records_per_s": records / read_s if read_s else 0.0,
        "ingest.write_csv_s": t("ingest.write_annotations_csv"),
        "core.validate_s": t("core.validate_dataset"),
        "core.repeat_pairs_s": t("core.build_repeat_pairs"),
        "core.repeat_pairs_n": float(sum(count["core.build_repeat_pairs"])),
        "core.coincidence_s": t("core.coincidence_counts"),
        "reliability.percent_agreement_s": t("reliability.percent_agreement"),
        "reliability.fleiss_kappa_s": t("reliability.fleiss_kappa"),
        "reliability.krippendorff_alpha_s": t("reliability.krippendorff_alpha"),
        "reliability.icc_s": t("reliability.icc"),
        "reliability.cohens_kappa_s": t("reliability.cohens_kappa"),
        "reliability.resample_items_s": t("reliability.resample_items"),
        "reliability.bootstrap_ci_s": t("reliability.bootstrap_ci"),
        "reliability.bootstrap_s_per_replicate": (
            t("reliability.bootstrap_ci") / replicates if replicates else 0.0),
        "stability.dataset_stability_s": t("stability.dataset_stability"),
        "stability.annotator_stability_s": t("stability.annotator_stability"),
        "stability.item_labels_s": t("stability.item_stability_labels"),
        "stability.interval_profile_s": t("stability.interval_profile"),
        "association.compare_reliability_s": t("association.compare_reliability"),
        "association.compare_stability_s": t("association.compare_stability"),
        "association.permutation_p_s": t("association.permutation_p"),
        "quadrant.classify_dataset_s": t("quadrant.classify_dataset"),
        "quadrant.classify_items_s": t("quadrant.classify_items"),
        "quadrant.items_classified_ratio": (
            sum(c[0] for c in classified) / sum(c[1] for c in classified)
            if classified else 0.0),
        "simulator.simulate_s": t("simulator.simulate"),
        "reporting.dumps_report_s": t("reporting.dumps_report"),
        "reporting.render_markdown_s": t("reporting.render_markdown"),
        "reporting.render_svg_s": t("reporting.render_svg_quadrant"),
        "reporting.bytes_out": float(sum(count["reporting.dumps_report"])
                                     + sum(count["reporting.render_markdown"])
                                     + sum(count["reporting.render_svg_quadrant"])),
        "cli.main_s": t("cli.main"),
    }
    out.update({f"{layer}.self_s": value for layer, value in layer_self.items()})
    return out
