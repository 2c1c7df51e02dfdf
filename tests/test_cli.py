import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from relistab import (
    AnnotationRecord,
    AnnotationSet,
    LabelSchema,
    RationalisationRecord,
    SimConfig,
    load_report_schema,
    save_schema,
    read_annotation_records,
    write_annotations_csv,
    write_annotations_jsonl,
    write_rationalisations_csv,
)
from relistab.cli import RELIABILITY_CHOICES, build_parser, main
from relistab.core import RECORD_FIELDS as CSV_FIELDS
from relistab.core import validate_dataset
from relistab.errors import DuplicateCellError

from conftest import make_rounds

DAY = 86400.0


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small on-disk dataset: 2 annotators, 4 items, 2 rounds, 1 day apart."""
    root = tmp_path_factory.mktemp("cli")
    aset = make_rounds(
        {
            "a": {1: ["x", "x", "y", "y"], 2: ["x", "x", "y", "y"]},
            "b": {1: ["x", "x", "y", "x"], 2: ["x", "x", "y", "y"]},
        },
        timestamps={1: 1_600_000_000.0, 2: 1_600_000_000.0 + DAY},
    )
    write_annotations_csv(aset, root / "annotations.csv")
    save_schema(aset.schema, root / "schema.json")
    write_rationalisations_csv(
        [
            RationalisationRecord("i0", "r0", "subjective"),
            RationalisationRecord("i1", "r0", "ambiguous"),
            RationalisationRecord("i2", "r0", "subjective"),
            RationalisationRecord("i3", "r0", "difficult"),
        ],
        root / "rationalisations.csv",
    )
    return root


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def error_of(err: str) -> dict:
    lines = [line for line in err.strip().splitlines() if line]
    assert len(lines) == 1, err
    return json.loads(lines[0])["error"]


class TestValidate:
    def test_stdout_json(self, capsys, workspace):
        doc = run_json(capsys, "validate",
                       "--annotations", str(workspace / "annotations.csv"),
                       "--schema", str(workspace / "schema.json"))
        assert doc["report_kind"] == "validate"
        assert doc["validation"] == {"n_records": 16, "n_items": 4,
                                     "n_annotators": 2, "rounds": [1, 2]}
        assert doc["provenance"]["seed"] is None
        assert set(doc["provenance"]["inputs"]) == {"annotations", "schema"}

    def test_missing_file_is_io_error(self, capsys, workspace):
        code, _, err = run(capsys, "validate",
                           "--annotations", str(workspace / "nope.csv"),
                           "--schema", str(workspace / "schema.json"))
        assert code == 2
        assert error_of(err)["code"] == "IO"

    def test_bad_data_is_validation_error(self, capsys, workspace, tmp_path):
        bad = tmp_path / "bad.csv"
        text = (workspace / "annotations.csv").read_text()
        bad.write_text(text.replace("x", "zebra", 1))
        code, _, err = run(capsys, "validate", "--annotations", str(bad),
                           "--schema", str(workspace / "schema.json"))
        assert code == 3
        assert error_of(err)["code"] == "UnknownLabel"

    def test_missing_required_flag(self, capsys, workspace):
        code, _, err = run(capsys, "validate",
                           "--schema", str(workspace / "schema.json"))
        assert code == 3
        assert "annotations" in error_of(err)["message"]

    def test_usage_error_is_exit_3(self, capsys, workspace):
        code, _, err = run(capsys, "validate", "--no-such-flag", "x")
        assert code == 3

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 3


    def test_a_file_reports_a_reader_fault_before_a_record_check(self, capsys, workspace,
                                                                 tmp_path):
        """Readers refuse in line order first; the duplicate on line 3 is a
        check of validate_dataset, which the same rows as mappings reach."""
        rows = [("t", "i0", "a", "1", "x"), ("t", "i0", "a", "1", "y"), ("t", "i1", "a", "1.5", "x")]
        two = tmp_path / "two.csv"
        two.write_text("\n".join(",".join(row) for row in [CSV_FIELDS[:5], *rows]) + "\n")
        code, _, err = run(capsys, "validate", "--annotations", str(two),
                           "--schema", str(workspace / "schema.json"))
        assert code == 3
        assert error_of(err)["message"] == f"{two}:4: round '1.5' is not an integer"
        with pytest.raises(DuplicateCellError):
            validate_dataset([dict(zip(CSV_FIELDS, row)) for row in rows],
                             LabelSchema("t", ("x", "y")))


class TestReliability:
    def test_default_battery(self, capsys, workspace):
        doc = run_json(capsys, "reliability",
                       "--annotations", str(workspace / "annotations.csv"),
                       "--schema", str(workspace / "schema.json"))
        metrics = [r["metric"] for r in doc["reliability"]]
        # 2 annotators, nominal scale: battery adds cohens, not icc
        assert metrics == ["percent_agreement", "fleiss_kappa",
                           "krippendorff_alpha", "cohens_kappa"]
        assert all(r["round"] == 1 for r in doc["reliability"])
        assert all(r["ci"] is None for r in doc["reliability"])

    def test_single_metric_with_bootstrap(self, capsys, workspace):
        doc = run_json(capsys, "reliability",
                       "--annotations", str(workspace / "annotations.csv"),
                       "--schema", str(workspace / "schema.json"),
                       "--metric", "percent_agreement",
                       "--bootstrap", "200", "--seed", "11")
        (entry,) = doc["reliability"]
        lo, hi = entry["ci"]
        assert lo <= entry["value"] <= hi
        assert doc["provenance"]["seed"] == 11

    def test_bootstrap_without_seed(self, capsys, workspace):
        code, _, err = run(capsys, "reliability",
                           "--annotations", str(workspace / "annotations.csv"),
                           "--schema", str(workspace / "schema.json"),
                           "--metric", "percent_agreement", "--bootstrap", "50")
        assert code == 3
        assert "seed" in error_of(err)["message"]

    def test_round_list(self, capsys, workspace):
        doc = run_json(capsys, "reliability",
                       "--annotations", str(workspace / "annotations.csv"),
                       "--schema", str(workspace / "schema.json"),
                       "--metric", "percent_agreement", "--round", "1,2")
        (entry,) = doc["reliability"]
        assert entry["round"] == [1, 2]
        assert entry["value"] == pytest.approx(7 / 8)

    def test_icc_on_nominal_is_degenerate(self, capsys, workspace):
        code, _, err = run(capsys, "reliability",
                           "--annotations", str(workspace / "annotations.csv"),
                           "--schema", str(workspace / "schema.json"),
                           "--metric", "icc")
        assert code == 4
        assert error_of(err)["code"] == "NotInterval"


class TestConfigFile:
    def test_config_supplies_options(self, capsys, workspace, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "annotations": str(workspace / "annotations.csv"),
            "schema": str(workspace / "schema.json"),
            "metric": "percent_agreement",
        }))
        doc = run_json(capsys, "reliability", "--config", str(cfg))
        assert [r["metric"] for r in doc["reliability"]] == ["percent_agreement"]

    def test_flags_beat_config(self, capsys, workspace, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "annotations": str(workspace / "annotations.csv"),
            "schema": str(workspace / "schema.json"),
            "metric": "percent_agreement",
            "round": 1,
        }))
        doc = run_json(capsys, "reliability", "--config", str(cfg),
                       "--metric", "krippendorff_alpha", "--round", "2")
        (entry,) = doc["reliability"]
        assert entry["metric"] == "krippendorff_alpha"
        assert entry["round"] == 2

    def test_unknown_config_key(self, capsys, workspace, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "annotations": str(workspace / "annotations.csv"),
            "schema": str(workspace / "schema.json"),
            "metrics": "percent_agreement",
        }))
        code, _, err = run(capsys, "reliability", "--config", str(cfg))
        assert code == 3
        assert "metrics" in error_of(err)["message"]

    def test_config_not_json(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{nope")
        code, _, err = run(capsys, "reliability", "--config", str(cfg))
        assert code == 3

    @pytest.mark.parametrize("subcommand, key, value", [
        ("validate", "out", 5),
        ("validate", "annotations", 5),
        ("report", "inputs", 5),
        ("report", "inputs", [5]),
        ("reliability", "seed", 7.9),
        ("reliability", "seed", True),
        ("reliability", "seed", -1),
        ("stability", "permutation", True),
        ("reliability", "round", True),
        ("reliability", "confidence", "inf"),
        ("stability", "bucket_edges", [float("nan"), 3600]),
        ("simulate", "end_to_end", "no"),
    ])
    def test_bad_value_is_config_error(self, capsys, workspace, tmp_path, subcommand, key,
                                       value):
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps(SimConfig(
            n_annotators=2, items_per_cause={"straightforward": 2}, categories=("x", "y"),
        ).to_json()))
        dataset = {"annotations": str(workspace / "annotations.csv"),
                   "schema": str(workspace / "schema.json")}
        base = {
            "validate": dataset,
            "reliability": {**dataset, "bootstrap": 3, "seed": 1},
            "stability": {**dataset, "seed": 1},
            "simulate": {"sim_config": str(sim), "out": str(tmp_path / "sim")},
            "report": {},
        }[subcommand]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**base, key: value}))
        code, out, err = run(capsys, subcommand, "--config", str(cfg))
        assert (code, out) == (3, "")
        error = error_of(err)
        assert error["code"] == "InvalidConfig"
        assert f"bad value for {key!r}" in error["message"]
        assert not (tmp_path / "sim").exists()

    def test_config_and_flag_values_convert_alike(self, capsys, workspace, tmp_path):
        dataset = ["--annotations", str(workspace / "annotations.csv"),
                   "--schema", str(workspace / "schema.json")]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"round": "1,2", "bootstrap": 5.0, "seed": "3",
                                   "confidence": 0.9, "metric": "percent_agreement"}))
        from_config = run_json(capsys, "reliability", *dataset, "--config", str(cfg))
        from_flags = run_json(capsys, "reliability", *dataset, "--round", "1,2",
                              "--bootstrap", "5", "--seed", "3", "--confidence", "0.9",
                              "--metric", "percent_agreement")
        assert from_config["reliability"] == from_flags["reliability"]
        assert from_config["provenance"]["config"] == from_flags["provenance"]["config"]
        assert from_config["provenance"]["config"]["round"] == [1, 2]

    def test_config_recorded_in_provenance(self, capsys, workspace, tmp_path):
        doc = run_json(capsys, "stability",
                       "--annotations", str(workspace / "annotations.csv"),
                       "--schema", str(workspace / "schema.json"))
        config = doc["provenance"]["config"]
        assert config["subcommand"] == "stability"
        assert config["pairing"] == "consecutive"
        assert "out" not in config


class TestStability:
    def test_sections(self, capsys, workspace):
        doc = run_json(capsys, "stability",
                       "--annotations", str(workspace / "annotations.csv"),
                       "--schema", str(workspace / "schema.json"))
        s = doc["stability"]
        # only b's i3 flips: 7/8 pairs exact
        assert s["dataset"]["exact_rate"] == pytest.approx(7 / 8)
        assert [e["subject_id"] for e in s["annotators"]] == ["a", "b"]
        assert len(s["items"]) == 4
        assert s["excluded_items"] == []
        # single 1-day interval: every pair lands in one bucket
        assert s["intervals"] is None

    def test_interval_profile_with_custom_edges(self, capsys, workspace):
        doc = run_json(capsys, "stability",
                       "--annotations", str(workspace / "annotations.csv"),
                       "--schema", str(workspace / "schema.json"),
                       "--bucket-edges", "3600")
        assert doc["stability"]["intervals"] is None  # still one occupied bucket

    def test_unknown_pairing(self, capsys, workspace):
        code, _, err = run(capsys, "stability",
                           "--annotations", str(workspace / "annotations.csv"),
                           "--schema", str(workspace / "schema.json"),
                           "--pairing", "sideways")
        assert code == 3


    @pytest.mark.parametrize("replicates", ["0", "-5"])
    def test_permutation_must_be_positive_with_seed(self, capsys, workspace, replicates):
        code, _, err = run(capsys, "stability",
                           "--annotations", str(workspace / "annotations.csv"),
                           "--schema", str(workspace / "schema.json"),
                           "--permutation", replicates, "--seed", "1")
        assert code == 3
        assert error_of(err)["code"] == "InvalidConfig"


@pytest.fixture(scope="module")
def reversed_round(tmp_path_factory, workspace):
    """The workspace data with b's round 2 of i1 stamped before its round 1."""
    path = tmp_path_factory.mktemp("reversed") / "annotations.csv"
    lines = (workspace / "annotations.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    item, ann, rnd, stamp = (header.index(k) for k in ("item_id", "annotator_id", "round",
                                                       "timestamp"))
    out = [lines[0]]
    for line in lines[1:]:
        row = line.split(",")
        if (row[item], row[ann], row[rnd]) == ("i1", "b", "2"):
            row[stamp] = "1500000000"
        out.append(",".join(row))
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("argv", [
    ["stability", "--annotations", "{data}"],
    ["matrix", "--annotations", "{data}"],
    ["compare", "--annotations-a", "{data}", "--annotations-b", "{data}",
     "--axis", "stability", "--seed", "2", "--replicates", "5"],
], ids=["stability", "matrix", "compare"])
def test_time_reversed_round_names_the_cell(capsys, workspace, reversed_round, argv):
    code, _, err = run(capsys, *(a.format(data=reversed_round) for a in argv),
                       "--schema", str(workspace / "schema.json"))
    assert code == 3
    message = error_of(err)["message"]
    assert "'i1'" in message and "'b'" in message and "predates" in message


@pytest.mark.parametrize("name, text", [
    ("empty.csv", ",".join(CSV_FIELDS) + "\n"), ("empty.jsonl", "")], ids=["csv", "jsonl"])
@pytest.mark.parametrize("argv, degenerate", [
    (["validate", "--annotations", "{data}"], False),
    (["reliability", "--annotations", "{data}"], False),
    (["reliability", "--annotations", "{data}", "--bootstrap", "5", "--seed", "1"], False),
    (["stability", "--annotations", "{data}"], False),
    (["matrix", "--annotations", "{data}", "--out", "{out}"], True),
    (["phi", "--annotations", "{data}", "--rationalisations", "{why}"], False),
    (["compare", "--annotations-a", "{data}", "--annotations-b", "{data}",
      "--axis", "reliability", "--seed", "2", "--replicates", "5"], True),
    (["compare", "--annotations-a", "{data}", "--annotations-b", "{data}",
      "--axis", "stability", "--seed", "2", "--replicates", "5"], True),
], ids=["validate", "reliability", "bootstrap", "stability", "matrix", "phi",
        "compare-reliability", "compare-stability"])
def test_empty_annotations_end_in_a_documented_exit_code(capsys, workspace, tmp_path, name,
                                                         text, argv, degenerate):
    """A header-only CSV or an empty JSONL file gives a report or a typed
    error, never an unexpected failure; the subcommands that need a first
    round find none and raise DegenerateError naming the empty set."""
    data = tmp_path / name
    data.write_text(text, encoding="utf-8")
    argv = [a.format(data=data, out=tmp_path / "out", why=workspace / "rationalisations.csv")
            for a in argv]
    code, _, err = run(capsys, *argv, "--schema", str(workspace / "schema.json"))
    assert code in {0, 2, 3, 4}, err
    if degenerate:
        assert code == 4 and error_of(err)["code"] == "Degenerate"
        assert error_of(err)["message"] == "the annotation set has no records"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("argv", [
    ("validate",),
    ("reliability",),
    ("stability", "--permutation", "20", "--seed", "1"),
    ("matrix", "--out", "{out}"),
    ("phi", "--rationalisations", "{why}"),
])
def test_subcommands_build_no_annotation_records(capsys, monkeypatch, workspace, tmp_path,
                                                 fmt, argv):
    """The readers, validation and every metric these runs use work on the
    set's columns; an AnnotationRecord is built only when asked for."""
    annotations = workspace / "annotations.csv"
    if fmt == "jsonl":
        annotations = tmp_path / "annotations.jsonl"
        write_annotations_jsonl(read_annotation_records(workspace / "annotations.csv"),
                                annotations)
    built = []
    real_init = AnnotationRecord.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(AnnotationRecord, "__init__", counted_init)
    argv = [a.format(out=tmp_path / "out", why=workspace / "rationalisations.csv")
            for a in argv]
    code, _, err = run(capsys, *argv, "--annotations", str(annotations),
                       "--schema", str(workspace / "schema.json"))
    assert code == 0, err
    assert built == []


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("argv", [
    ("stability", "--permutation", "20", "--seed", "1"),
    ("stability", "--pairing", "all_pairs"),
    ("matrix", "--out", "{out}"),
    ("phi", "--rationalisations", "{why}"),
])
def test_stability_runs_decode_no_columns(capsys, monkeypatch, workspace, tmp_path, fmt, argv):
    """Pairing, the repeat table, the interval profile, the item votes and
    the reliability kernels read the set's codes: no set decodes its
    columns from them."""
    annotations = workspace / "annotations.csv"
    if fmt == "jsonl":
        annotations = tmp_path / "annotations.jsonl"
        write_annotations_jsonl(read_annotation_records(workspace / "annotations.csv"),
                                annotations)
    decoded = []
    decode = AnnotationSet.columns.func
    monkeypatch.setattr(AnnotationSet, "columns",
                        property(lambda aset: decoded.append("columns") or decode(aset)))
    argv = [a.format(out=tmp_path / "out", why=workspace / "rationalisations.csv")
            for a in argv]
    code, _, err = run(capsys, *argv, "--annotations", str(annotations),
                       "--schema", str(workspace / "schema.json"))
    assert code == 0, err
    assert decoded == []


class TestMatrix:
    def test_writes_report_and_svg(self, capsys, workspace, tmp_path):
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "matrix",
                              "--annotations", str(workspace / "annotations.csv"),
                              "--schema", str(workspace / "schema.json"),
                              "--out", str(out))
        assert code == 0
        assert stdout == ""
        doc = json.loads((out / "report.json").read_text())
        assert doc["matrix"]["dataset"]["quadrant"] in (
            "Straightforward", "SystematicErrorOrValueChange",
            "SubjectivePerspectives", "AmbiguousDifficultOrPoor")
        assert (out / "report.md").read_text().startswith("# Annotation report")
        assert (out / "matrix.svg").read_text().startswith("<svg")

    def test_custom_cuts_recorded(self, capsys, workspace):
        doc = run_json(capsys, "matrix",
                       "--annotations", str(workspace / "annotations.csv"),
                       "--schema", str(workspace / "schema.json"),
                       "--reliability-cut", "0.3", "--stability-cut", "0.9")
        thresholds = doc["matrix"]["dataset"]["thresholds"]
        assert thresholds["reliability_cut"] == 0.3
        assert thresholds["stability_cut"] == 0.9

    def test_out_of_range_cut(self, capsys, workspace):
        code, _, err = run(capsys, "matrix",
                           "--annotations", str(workspace / "annotations.csv"),
                           "--schema", str(workspace / "schema.json"),
                           "--reliability-cut", "1.5")
        assert code == 3


class TestPhi:
    def test_point_estimate_only(self, capsys, workspace):
        doc = run_json(capsys, "phi",
                       "--annotations", str(workspace / "annotations.csv"),
                       "--schema", str(workspace / "schema.json"),
                       "--rationalisations", str(workspace / "rationalisations.csv"))
        a = doc["association"]
        assert a["p_value"] is None
        assert a["convention"] == "paper(bc-ad)"
        table = a["table"]
        assert table["a"] + table["b"] + table["c"] + table["d"] == 4

    def test_permutation_p_with_seed(self, capsys, workspace):
        doc = run_json(capsys, "phi",
                       "--annotations", str(workspace / "annotations.csv"),
                       "--schema", str(workspace / "schema.json"),
                       "--rationalisations", str(workspace / "rationalisations.csv"),
                       "--permutation", "400", "--seed", "3")
        assert 0.0 < doc["association"]["p_value"] <= 1.0


    @pytest.mark.parametrize("rows, line, message", [
        (["i0,r0,subjective", '"' + "i" * 140_000 + '",r0,subjective'], 3,
         "field larger than field limit (131072)"),
        (["i0,r0,subjective", "i1,r0,foo"], 3, "rationalisation label must be one of"),
    ], ids=["oversized field", "unknown label"])
    def test_a_faulty_rationalisation_names_its_line(self, capsys, workspace, tmp_path, rows,
                                                      line, message):
        why = tmp_path / "why.csv"
        why.write_text("\n".join(["item_id,rater_id,label", *rows]) + "\n")
        code, _, err = run(capsys, "phi",
                           "--annotations", str(workspace / "annotations.csv"),
                           "--schema", str(workspace / "schema.json"),
                           "--rationalisations", str(why))
        assert code == 3
        error = error_of(err)
        assert error["code"] == "Validation"
        assert error["message"].startswith(f"{why}:{line}: {message}")


class TestCompare:
    def test_self_comparison_centers_on_zero(self, capsys, workspace):
        doc = run_json(capsys, "compare",
                       "--annotations-a", str(workspace / "annotations.csv"),
                       "--annotations-b", str(workspace / "annotations.csv"),
                       "--schema", str(workspace / "schema.json"),
                       "--axis", "stability", "--replicates", "200",
                       "--seed", "5")
        c = doc["comparison"]
        assert c["difference"] == 0.0
        assert c["ci"][0] <= 0.0 <= c["ci"][1]
        assert c["metric"] == "exact_rate"

    def test_seed_required(self, capsys, workspace):
        code, _, err = run(capsys, "compare",
                           "--annotations-a", str(workspace / "annotations.csv"),
                           "--annotations-b", str(workspace / "annotations.csv"),
                           "--schema", str(workspace / "schema.json"),
                           "--axis", "stability")
        assert code == 3
        assert "seed" in error_of(err)["message"]

    @pytest.mark.parametrize("replicates", ["0", "-5"])
    def test_replicates_must_be_positive(self, capsys, workspace, replicates):
        code, _, err = run(capsys, "compare",
                           "--annotations-a", str(workspace / "annotations.csv"),
                           "--annotations-b", str(workspace / "annotations.csv"),
                           "--schema", str(workspace / "schema.json"),
                           "--axis", "reliability", "--replicates", replicates,
                           "--seed", "5")
        assert code == 3
        assert error_of(err)["code"] == "InvalidConfig"

    def test_bad_axis(self, capsys, workspace):
        code, _, err = run(capsys, "compare",
                           "--annotations-a", str(workspace / "annotations.csv"),
                           "--annotations-b", str(workspace / "annotations.csv"),
                           "--schema", str(workspace / "schema.json"),
                           "--axis", "vibes", "--seed", "5")
        assert code == 3


def test_metric_options_take_what_they_took():
    commands = build_parser().commands
    assert RELIABILITY_CHOICES == ["percent_agreement", "cohens_kappa", "fleiss_kappa",
                                   "krippendorff_alpha", "icc"]
    assert commands["reliability"].options["metric"].choices == RELIABILITY_CHOICES
    for name in ("matrix", "simulate"):
        options = commands[name].options
        assert options["reliability_metric"].choices == [
            "percent_agreement", "fleiss_kappa", "krippendorff_alpha", "icc_oneway_random",
            "icc_twoway_random_single"]
        assert options["stability_metric"].choices == ["self_kappa", "exact_rate"]
    assert commands["compare"].options["metric"].choices is None


class TestSimulate:
    def sim_config(self, tmp_path, **overrides):
        cfg = SimConfig(n_annotators=6, items_per_cause={"straightforward": 4,
                                                         "ambiguous": 4},
                        categories=("x", "y"), seed=9)
        payload = {**cfg.to_json(), **overrides}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(payload))
        return path

    def test_writes_sidecars(self, capsys, tmp_path):
        cfg = self.sim_config(tmp_path)
        out = tmp_path / "sim_out"
        code, _, _ = run(capsys, "simulate", "--sim-config", str(cfg),
                         "--out", str(out))
        assert code == 0
        assert (out / "annotations.csv").exists()
        assert (out / "schema.json").exists()
        assert (out / "rationalisations.csv").exists()
        truth = json.loads((out / "truth.json").read_text())
        assert truth["ambiguous_0000"] == "ambiguous"
        doc = json.loads((out / "report.json").read_text())
        assert doc["simulation"]["n_records"] == 6 * 8 * 2
        assert doc["simulation"]["recovery"] is None

    def test_rounds_past_year_9999_exit_3_before_writing(self, capsys, tmp_path):
        cfg = self.sim_config(tmp_path, interval_per_round=[251_802_300_800])
        out = tmp_path / "sim_far"
        code, _, err = run(capsys, "simulate", "--sim-config", str(cfg), "--out", str(out))
        assert code == 3 and error_of(err)["code"] == "InvalidConfig"
        assert not out.exists()

    def test_end_to_end_recovery(self, capsys, tmp_path):
        cfg = self.sim_config(tmp_path, items_per_cause={"straightforward": 6})
        out = tmp_path / "sim_e2e"
        code, _, _ = run(capsys, "simulate", "--sim-config", str(cfg),
                         "--out", str(out), "--end-to-end")
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        recovery = doc["simulation"]["recovery"]
        assert recovery["dataset_quadrant"] == "Straightforward"
        assert recovery["expected_quadrant"] == "Straightforward"
        assert recovery["dataset_match"] is True
        assert (out / "matrix.svg").exists()

    def test_seed_flag_overrides_config(self, capsys, tmp_path):
        cfg = self.sim_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(capsys, "simulate", "--sim-config", str(cfg), "--out", str(out_a),
            "--seed", "123")
        run(capsys, "simulate", "--sim-config", str(cfg), "--out", str(out_b))
        doc_a = json.loads((out_a / "report.json").read_text())
        doc_b = json.loads((out_b / "report.json").read_text())
        assert doc_a["simulation"]["config"]["seed"] == 123
        assert doc_b["simulation"]["config"]["seed"] == 9
        assert ((out_a / "annotations.csv").read_bytes()
                != (out_b / "annotations.csv").read_bytes())

    def test_byte_determinism_across_output_dirs(self, capsys, tmp_path):
        cfg = self.sim_config(tmp_path)
        out_a, out_b = tmp_path / "d1", tmp_path / "d2"
        run(capsys, "simulate", "--sim-config", str(cfg), "--out", str(out_a))
        run(capsys, "simulate", "--sim-config", str(cfg), "--out", str(out_b))
        for name in ("annotations.csv", "report.json", "truth.json",
                     "schema.json", "rationalisations.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestReportBundle:
    def test_merges_sections(self, capsys, workspace, tmp_path):
        rel_dir, stab_dir = tmp_path / "rel", tmp_path / "stab"
        run(capsys, "reliability",
            "--annotations", str(workspace / "annotations.csv"),
            "--schema", str(workspace / "schema.json"), "--out", str(rel_dir))
        run(capsys, "stability",
            "--annotations", str(workspace / "annotations.csv"),
            "--schema", str(workspace / "schema.json"), "--out", str(stab_dir))
        doc = run_json(capsys, "report", "--inputs",
                       str(rel_dir / "report.json"), str(stab_dir / "report.json"))
        assert doc["report_kind"] == "bundle"
        assert "reliability" in doc and "stability" in doc
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.Draft202012Validator(load_report_schema()).validate(doc)

    def test_refuses_repeated_section(self, capsys, workspace, tmp_path):
        for name in ("r1", "r2"):
            run(capsys, "reliability",
                "--annotations", str(workspace / "annotations.csv"),
                "--schema", str(workspace / "schema.json"), "--out", str(tmp_path / name))
        paths = [str(tmp_path / name / "report.json") for name in ("r1", "r2")]
        code, _, err = run(capsys, "report", "--inputs", *paths)
        assert code == 3
        message = error_of(err)["message"]
        assert "'reliability'" in message and paths[0] in message and paths[1] in message

    def test_rejects_non_report(self, capsys, tmp_path):
        path = tmp_path / "notes.json"
        path.write_text(json.dumps({"hello": 1}))
        code, _, err = run(capsys, "report", "--inputs", str(path))
        assert code == 3

    @pytest.mark.parametrize("edit", [
        {"provenance": [1]}, {"provenance": None}, {"provenance": {"seed": [1]}},
        {"provenance": {"seed": "7"}}, {"provenance": {"seed": True}},
        {"validation": 5}, {"validation": {}}, {"validation": {"n_records": []}},
    ])
    def test_malformed_report_is_validation_error(self, capsys, workspace, tmp_path, edit):
        out = tmp_path / "validate"
        run(capsys, "validate", "--annotations", str(workspace / "annotations.csv"),
            "--schema", str(workspace / "schema.json"), "--out", str(out))
        doc = json.loads((out / "report.json").read_text())
        path = tmp_path / "edited.json"
        path.write_text(json.dumps({**doc, **edit}))
        code, _, err = run(capsys, "report", "--inputs", str(path), "--out", str(tmp_path / "b"))
        assert code == 3, err
        assert error_of(err)["code"] == "Validation"
        assert not (tmp_path / "b" / "report.json").exists()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_is_validation_error(self, capsys, workspace, tmp_path,
                                                     constant):
        out = tmp_path / "validate"
        run(capsys, "validate", "--annotations", str(workspace / "annotations.csv"),
            "--schema", str(workspace / "schema.json"), "--out", str(out))
        path = tmp_path / "edited.json"
        text = (out / "report.json").read_text()
        path.write_text(text.replace('"n_records": ', f'"n_records": {constant}, "was": ', 1))
        code, _, err = run(capsys, "report", "--inputs", str(path), "--out", str(tmp_path / "b"))
        assert code == 3, err
        error = error_of(err)
        assert error["code"] == "Validation"
        assert str(path) in error["message"] and constant in error["message"]
        assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("flag, name", [("--annotations", "bad.csv"),
                                        ("--annotations", "bad.jsonl"),
                                        ("--rationalisations", "bad.csv")])
def test_undecodable_input_is_validation_error(capsys, workspace, tmp_path, flag, name):
    files = {"--annotations": workspace / "annotations.csv",
             "--rationalisations": workspace / "rationalisations.csv"}
    bad = tmp_path / name
    bad.write_bytes(files[flag].read_bytes() + b"i9,r0,\xff\xfe\n")
    files[flag] = bad
    code, _, err = run(capsys, "phi", "--schema", str(workspace / "schema.json"),
                       *(arg for pair in files.items() for arg in map(str, pair)))
    assert code == 3
    error = error_of(err)
    assert error["code"] == "Validation"
    assert str(bad) in error["message"]


@pytest.mark.parametrize("flag", ["--schema", "--config", "--sim-config", "--inputs"])
def test_undecodable_side_file_is_validation_error(capsys, workspace, tmp_path, flag):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"task_id": "\xff"}\n')
    annotations, schema = str(workspace / "annotations.csv"), str(workspace / "schema.json")
    argv = {
        "--schema": ["validate", "--annotations", annotations, "--schema", str(bad)],
        "--config": ["validate", "--annotations", annotations, "--schema", schema,
                     "--config", str(bad)],
        "--sim-config": ["simulate", "--sim-config", str(bad), "--out", str(tmp_path)],
        "--inputs": ["report", "--inputs", str(bad)],
    }[flag]
    code, _, err = run(capsys, *argv)
    assert code == 3
    error = error_of(err)
    assert error["code"] == "Validation"
    assert str(bad) in error["message"]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python reads integer text of any length")
@pytest.mark.parametrize("flag, code, where", [
    ("--annotations", "Validation", ":2: invalid JSON"),
    ("--schema", "InvalidConfig", ": invalid JSON"),
    ("--config", "InvalidConfig", ": invalid JSON"),
    ("--inputs", "Validation", ": not valid JSON"),
])
def test_integers_past_the_digit_limit_are_refused(capsys, workspace, tmp_path, flag, code,
                                                   where):
    """``json`` raises a plain ValueError for an integer of more digits
    than ``int()`` reads from text; each JSON input names its file (and a
    JSON Lines file its line) and exits 3."""
    huge = "1" * 5_000
    line = '{"task_id": "t", "item_id": "i0", "annotator_id": "a", "round": %s, "label": "x"}'
    bad = tmp_path / ("bad.jsonl" if flag == "--annotations" else "bad.json")
    bad.write_text({"--annotations": f"{line % 1}\n{line % huge}\n",
                    "--schema": f'{{"task_id": "t", "categories": ["x", "y"], "n": {huge}}}',
                    "--config": f'{{"seed": {huge}}}',
                    "--inputs": f'{{"report_kind": "validate", "n": {huge}}}'}[flag])
    annotations, schema = str(workspace / "annotations.csv"), str(workspace / "schema.json")
    argv = {
        "--annotations": ["validate", "--annotations", str(bad), "--schema", schema],
        "--schema": ["validate", "--annotations", annotations, "--schema", str(bad)],
        "--config": ["validate", "--annotations", annotations, "--schema", schema,
                     "--config", str(bad)],
        "--inputs": ["report", "--inputs", str(bad)],
    }[flag]
    exit_code, _, err = run(capsys, *argv)
    assert exit_code == 3
    error = error_of(err)
    assert (error["code"], error["message"]) == (code, f"{bad}{where}")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory, workspace):
    """Per config key, the three path values the fuzz draws: a file that
    holds what the key names, a missing file and a directory."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "dir").mkdir()
    (root / "sim.json").write_text(json.dumps(SimConfig(
        n_annotators=3, items_per_cause={"straightforward": 2, "ambiguous": 2},
        categories=("x", "y"), rounds=3, seed=4,
    ).to_json()))
    assert main(["validate", "--annotations", str(workspace / "annotations.csv"),
                 "--schema", str(workspace / "schema.json"), "--out", str(root / "rep")]) == 0
    valid = {
        "annotations": workspace / "annotations.csv",
        "schema": workspace / "schema.json",
        "rationalisations": workspace / "rationalisations.csv",
        "sim_config": root / "sim.json",
        "inputs": root / "rep" / "report.json",
        "out": root / "dir",
    }
    valid.update(annotations_a=valid["annotations"], annotations_b=valid["annotations"],
                 schema_b=valid["schema"])
    return {key: (str(path), str(root / "missing" / key), str(root / "dir"))
            for key, path in valid.items()}


#: JSON values any key may get; numbers stay small so that no run asks for
#: a large replicate count
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 50), st.floats(-5, 50), st.just(float("nan")),
    st.sampled_from(["", "7", "7.9", "-1", "1,2", "x", "true", "interval"]),
    st.lists(st.integers(-5, 50), max_size=3),
)

#: config key -> values that may well run, for keys without choices
WORKABLE = {
    "seed": st.integers(0, 50),
    "bootstrap": st.integers(0, 50),
    "permutation": st.integers(0, 50),
    "replicates": st.integers(0, 50),
    "round": st.integers(1, 3) | st.lists(st.integers(1, 3), min_size=1, max_size=3),
    "confidence": st.floats(0.01, 0.99),
    "reliability_cut": st.floats(0.01, 0.99),
    "stability_cut": st.floats(0.01, 0.99),
    "bucket_edges": st.lists(st.floats(60, 1e7), min_size=1, max_size=4),
    "end_to_end": st.booleans(),
    "annotator_a": st.sampled_from(["a", "b", "zz"]),
    "annotator_b": st.sampled_from(["a", "b", "zz"]),
    "metric": st.sampled_from(["krippendorff_alpha", "fleiss_kappa", "exact_rate",
                               "self_kappa", "icc"]),
}


def config_strategy(subcommand: str, fuzz_files: dict):
    """Every option of the subcommand, each mostly workable and now and then
    any JSON value. The required options, the seed and the counts with a
    large default are always keys, though their value may be null or junk."""
    command = build_parser().commands[subcommand]
    always, sometimes = {}, {}
    for key, action in command.options.items():
        if key == "config":
            continue
        if key in fuzz_files:
            valid, missing, directory = fuzz_files[key]
            workable = st.just(valid)
            if action.nargs == "+":
                workable |= st.lists(workable, min_size=1, max_size=2)
            junk = st.sampled_from([missing, directory]) | JSON_VALUES.filter(
                lambda v: not isinstance(v, str))
        else:
            workable = (WORKABLE[key] if action.choices is None
                        else st.sampled_from(list(action.choices)))
            junk = JSON_VALUES
        values = st.integers(0, 7).flatmap(lambda r, w=workable, j=junk: j if r == 0 else w)
        if key in command.required_options or key in ("seed", "permutation", "replicates"):
            always[key] = values
        else:
            sometimes[key] = values
    return st.fixed_dictionaries(always, optional=sometimes)


@pytest.mark.parametrize("subcommand", ["validate", "reliability", "stability", "matrix",
                                        "phi", "compare", "simulate", "report"])
def test_any_config_ends_in_a_report_or_typed_error(workspace, fuzz_files, tmp_path,
                                                    monkeypatch, subcommand):
    monkeypatch.chdir(tmp_path)  # where any relative path a value names lands
    cfg = tmp_path / "run.json"

    @settings(max_examples=30)
    @given(config_strategy(subcommand, fuzz_files))
    def check(config):
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", str(cfg)])
        assert code in (0, 2, 3, 4), err.getvalue()
        if code:
            assert error_of(err.getvalue())["code"] != "Unexpected"

    check()


def test_module_entry_point(workspace):
    proc = subprocess.run(
        [sys.executable, "-m", "relistab", "validate",
         "--annotations", str(workspace / "annotations.csv"),
         "--schema", str(workspace / "schema.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report_kind"] == "validate"


def test_cli_import_leaves_xml_and_urllib_request_unloaded():
    # xml.sax.saxutils imports urllib.request, http.client and ssl, a sizeable
    # share of every subcommand's start-up
    code = "import sys, relistab.cli; print({'xml.sax', 'urllib.request'} & sys.modules.keys())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "set()"


def test_console_script_version():
    proc = subprocess.run([sys.executable, "-m", "relistab", "--version"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("relistab ")


def _refused_in_a_child(argv, pass_fds=()):
    """``relistab *argv`` run in a child: it must exit 2 with an IO error
    naming the input that is not a regular file, and must not block."""
    proc = subprocess.run([sys.executable, "-m", "relistab", *argv], capture_output=True,
                          text=True, timeout=30, pass_fds=pass_fds)
    assert proc.returncode == 2, proc.stderr
    error = error_of(proc.stderr)
    assert error["code"] == "IO" and "not a regular file" in error["message"]
    return error["message"]


#: a subcommand with each input the CLI reads in turn at ``{fifo}``
FILE_INPUTS = {
    "annotations": ["validate", "--annotations", "{fifo}", "--schema", "{ws}/schema.json"],
    "schema": ["validate", "--annotations", "{ws}/annotations.csv", "--schema", "{fifo}"],
    "config": ["validate", "--config", "{fifo}"],
    "rationalisations": ["phi", "--annotations", "{ws}/annotations.csv",
                         "--schema", "{ws}/schema.json", "--rationalisations", "{fifo}"],
    "sim-config": ["simulate", "--sim-config", "{fifo}", "--out", "{tmp}/sim"],
    "inputs": ["report", "--inputs", "{fifo}"],
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("option", FILE_INPUTS)
def test_a_fifo_input_is_refused_before_it_is_read(workspace, tmp_path, option):
    # opening a FIFO for reading blocks until something opens it to write
    fifo = tmp_path / "input"
    os.mkfifo(fifo)
    argv = [arg.format(fifo=fifo, ws=workspace, tmp=tmp_path) for arg in FILE_INPUTS[option]]
    assert str(fifo) in _refused_in_a_child(argv)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_pipe_input_is_refused_before_it_is_read(workspace):
    # a pipe can be read once, so its digest would be that of no bytes
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, (workspace / "annotations.csv").read_bytes())
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        message = _refused_in_a_child(
            ["validate", "--annotations", path, "--schema", str(workspace / "schema.json")],
            pass_fds=(read_end,))
        assert path in message
    finally:
        os.close(read_end)
