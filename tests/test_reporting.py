import json
import re
from collections import OrderedDict
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relistab import (
    Quadrant,
    QuadrantAssignment,
    QuadrantThresholds,
    build_provenance,
    canonicalize,
    dumps_report,
    load_report_schema,
    render_markdown,
    render_svg_quadrant,
    round_sig,
)
from relistab.errors import EmptyInputError
from relistab.reporting import REPORT_KINDS, SECTION_KEYS, file_sha256


def assignment(reliability, stability, scope="dataset", subject=None,
               thresholds=None):
    thresholds = thresholds or QuadrantThresholds()
    from relistab import classify
    return QuadrantAssignment(
        scope=scope,
        subject_id=subject,
        reliability_score=reliability,
        stability_score=stability,
        quadrant=classify(reliability, stability, thresholds),
        thresholds=thresholds,
    )


SAMPLE_REPORT = {
    "report_kind": "bundle",
    "provenance": {
        "inputs": {},
        "config": {"rounds": [1, 2]},
        "seed": 17,
        "version": "0.1.0",
    },
    "validation": {"n_records": 24, "n_items": 6, "n_annotators": 2,
                   "rounds": [1, 2]},
    "reliability": [
        {"metric": "krippendorff_alpha", "value": 0.123456789012345,
         "n_items": 6, "n_annotators": 2, "round": 1,
         "ci": [0.05, 0.25], "exclusions": []},
        {"metric": "percent_agreement", "value": 2 / 3, "n_items": 6,
         "n_annotators": 2, "round": [1, 2], "ci": None,
         "exclusions": ["item 'i9' round 1: fewer than 2 labels"]},
    ],
    "stability": {
        "dataset": {"scope": "dataset", "subject_id": None,
                    "exact_rate": 0.75, "self_kappa": 0.5, "n_pairs": 12},
        "annotators": [
            {"scope": "annotator", "subject_id": "a", "exact_rate": 1.0,
             "self_kappa": 1.0, "n_pairs": 6},
        ],
        "items": [
            {"item_id": "i0", "stability": "stable", "stability_rate": 1.0,
             "n_annotators_repeating": 2},
        ],
        "excluded_items": ["i9"],
        "intervals": {
            "buckets": [
                {"low": 0.0, "high": 3600.0, "exact_rate": 0.9, "n_pairs": 10},
                {"low": 3600.0, "high": None, "exact_rate": 0.7, "n_pairs": 10},
            ],
            "trend": {"rho": -1.0, "p": None},
        },
    },
    "matrix": {
        "dataset": {"scope": "dataset", "subject_id": None,
                    "reliability": 0.9, "stability": 0.8,
                    "quadrant": "Straightforward",
                    "thresholds": {"reliability_cut": 0.6,
                                   "stability_cut": 0.6,
                                   "reliability_metric": "krippendorff_alpha",
                                   "stability_metric": "self_kappa"}},
        "items": [],
        "excluded": [],
    },
    "association": {
        "table": {"a": 10, "b": 0, "c": 0, "d": 10},
        "phi": -1.0, "convention": "paper(bc-ad)", "p_value": 0.0001,
        "excluded_ties": 0,
    },
    "comparison": {
        "axis": "stability", "metric": "exact_rate",
        "difference": 0.98765432101234567, "confidence": 0.95,
        "ci": [0.9, 1.0], "replicates": 1000,
    },
    "simulation": {
        "config": {"seed": 17, "rounds": 2},
        "items_per_cause": {"ambiguous": 3, "straightforward": 3},
        "n_records": 48,
        "recovery": {"accuracy": 1.0, "n_items": 6,
                     "dataset_quadrant": "Straightforward",
                     "expected_quadrant": None, "dataset_match": None},
    },
}


class TestCanonicalFloats:
    @pytest.mark.parametrize("value,expected", [
        (0.1234567890123456, 0.123456789),
        (1.0, 1.0),
        (-1.0, -1.0),
        (2 / 3, 0.6666666667),
        (1e-15, 1e-15),
        (0.0, 0.0),
    ])
    def test_round_sig(self, value, expected):
        assert round_sig(value) == expected

    def test_round_sig_digits(self):
        assert round_sig(2 / 3, 2) == 0.67

    def test_canonicalize_nested(self):
        obj = {"a": (1, 2 / 3), "b": [{"c": True}], "d": None, "e": "s"}
        assert canonicalize(obj) == {
            "a": [1, 0.6666666667], "b": [{"c": True}], "d": None, "e": "s",
        }

    def test_bool_not_coerced_to_int(self):
        out = canonicalize({"flag": True, "n": 1})
        assert out["flag"] is True
        assert out["n"] == 1 and out["n"] is not True

    def test_numpy_and_abc_types_canonicalize_as_builtins(self):
        """The exact built-in types take a shortcut; NumPy scalars, other
        mappings and subclasses give what their built-in forms give."""
        class Count(int):
            pass

        plain = {"a": [1, 2 / 3, True, None, "s"], "b": (3, {"c": 0.1 + 0.2, 4: -0.0})}
        other = MappingProxyType({
            "a": [np.int64(1), np.float64(2 / 3), True, None, "s"],
            "b": (Count(3), OrderedDict([("c", np.float64(0.1 + 0.2)), (np.int8(4), -0.0)]))})
        out = canonicalize(other)
        assert out == canonicalize(plain) == {"a": [1, 0.6666666667, True, None, "s"],
                                              "b": [3, {"c": 0.3, "4": -0.0}]}
        assert json.dumps(out) == json.dumps(canonicalize(plain))
        assert [type(v) for v in out["a"]] == [int, float, bool, type(None), str]
        assert type(out["b"][0]) is int and type(out["b"][1]) is dict

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_round_sig_idempotent(self, value):
        once = round_sig(value)
        assert round_sig(once) == once


class TestDumpsReport:
    def test_byte_stable_under_key_order(self):
        doc_a = {"z": 1, "a": {"y": 2 / 3, "b": 0}}
        doc_b = {"a": {"b": 0, "y": 2 / 3}, "z": 1}
        assert dumps_report(doc_a) == dumps_report(doc_b)

    def test_trailing_newline_and_sorted(self):
        text = dumps_report(SAMPLE_REPORT)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)

    def test_floats_rounded_in_serialization(self):
        parsed = json.loads(dumps_report(SAMPLE_REPORT))
        assert parsed["reliability"][0]["value"] == 0.123456789
        assert parsed["comparison"]["difference"] == 0.987654321


class TestProvenance:
    def test_digests_and_fields(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_bytes(b"task_id,item_id\n")
        prov = build_provenance({"annotations": path}, {"seed": 3}, seed=3)
        assert prov["inputs"]["annotations"]["sha256"] == file_sha256(path)
        assert len(prov["inputs"]["annotations"]["sha256"]) == 64
        assert prov["seed"] == 3
        assert prov["config"] == {"seed": 3}
        assert isinstance(prov["version"], str)

    def test_digest_tracks_content(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"one")
        first = file_sha256(path)
        path.write_bytes(b"two")
        assert file_sha256(path) != first


class TestMarkdown:
    def test_is_projection_of_json(self):
        """Every number shown in markdown is a value from the canonical JSON."""
        text = render_markdown(SAMPLE_REPORT)
        doc = canonicalize(SAMPLE_REPORT)
        json_scalars = set()

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                json_scalars.add(json.dumps(node))

        walk(doc)
        shown = re.findall(r"(?<![\d.])-?\d+\.\d+(?:e-?\d+)?(?![\d.])", text)
        for number in shown:
            assert number in json_scalars, number

    def test_full_precision_never_leaks(self):
        text = render_markdown(SAMPLE_REPORT)
        assert "0.123456789" in text
        assert "0.1234567890123456" not in text
        assert "0.987654321" in text

    def test_sections_render(self):
        text = render_markdown(SAMPLE_REPORT)
        for heading in ("## Validation", "## Between-annotator agreement",
                        "## Within-annotator consistency",
                        "## Reliability x stability matrix",
                        "## Stability x rationalisation association",
                        "## Two-dataset comparison", "## Simulation"):
            assert heading in text
        assert "paper(bc-ad)" in text
        assert "straightforward" in text

    def test_none_round_renders_as_null(self):
        text = render_markdown(SAMPLE_REPORT)
        assert "null" in text

    def test_minimal_report(self):
        text = render_markdown({"report_kind": "validate",
                                "provenance": {"seed": None, "version": "x"}})
        assert text.startswith("# Annotation report (validate)")
        assert "## Validation" not in text


class TestSvg:
    def marker_positions(self, svg):
        return [(float(m.group(1)), float(m.group(2)))
                for m in re.finditer(r'<circle cx="([\d.]+)" cy="([\d.]+)"', svg)]

    def cut_positions(self, svg):
        xs = re.search(r'<line x1="([\d.]+)" y1="40\.0" x2="\1" y2="470\.0"', svg)
        ys = re.search(r'<line x1="90\.0" y1="([\d.]+)" x2="610\.0" y2="\1"', svg)
        return float(xs.group(1)), float(ys.group(1))

    def test_high_both_lands_top_left(self):
        svg = render_svg_quadrant([assignment(0.9, 0.9)])
        (cx, cy), = self.marker_positions(svg)
        cut_x, cut_y = self.cut_positions(svg)
        # stability axis is reversed: high stability is LEFT of the cut
        assert cx < cut_x
        assert cy < cut_y

    def test_low_stability_lands_right(self):
        svg = render_svg_quadrant([assignment(0.9, -0.5)])
        (cx, _), = self.marker_positions(svg)
        cut_x, _ = self.cut_positions(svg)
        assert cx > cut_x

    def test_low_reliability_lands_bottom(self):
        svg = render_svg_quadrant([assignment(-0.2, 0.9)])
        (_, cy), = self.marker_positions(svg)
        _, cut_y = self.cut_positions(svg)
        assert cy > cut_y

    def test_quadrant_labels_present(self):
        svg = render_svg_quadrant([assignment(0.9, 0.9)])
        for label in ("Straightforward / good quality",
                      "Systematic errors / value changes",
                      "Variable perspectives (subjectivity)",
                      "Ambiguous or difficult / poor quality"):
            assert label in svg

    def test_marker_radius_by_scope(self):
        svg = render_svg_quadrant([
            assignment(0.9, 0.9),
            assignment(0.2, 0.2, scope="item", subject="i0"),
        ])
        assert 'r="7"' in svg
        assert 'r="4"' in svg

    def test_deterministic(self):
        marks = [assignment(0.9, 0.9), assignment(0.1, 0.3, scope="item",
                                                  subject="i1")]
        assert render_svg_quadrant(marks) == render_svg_quadrant(marks)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            render_svg_quadrant([])

    def test_scores_outside_range_clamped_inside_plot(self):
        svg = render_svg_quadrant([assignment(1.0, 1.0)])
        (cx, cy), = self.marker_positions(svg)
        assert 90.0 <= cx <= 610.0
        assert 40.0 <= cy <= 470.0

    def test_subject_title_present(self):
        svg = render_svg_quadrant(
            [assignment(0.2, 0.2, scope="item", subject="item &7")])
        assert "<title>item &amp;7:" in svg


class TestReportSchema:
    def test_loads_and_names_sections(self):
        schema = load_report_schema()
        assert schema["$schema"].startswith("https://json-schema.org/")
        for key in SECTION_KEYS:
            assert key in schema["properties"], key
        assert set(schema["properties"]["report_kind"]["enum"]) == set(REPORT_KINDS)

    def test_sample_report_validates(self):
        jsonschema = pytest.importorskip("jsonschema")
        doc = json.loads(dumps_report(SAMPLE_REPORT))
        jsonschema.Draft202012Validator(load_report_schema()).validate(doc)
