"""Byte-for-byte regression test of the CLI reports.

Small simulated datasets at fixed seeds go through every analysis
subcommand; each report (and the matrix markdown and SVG) must equal the
file of the same name under ``tests/golden/``. Paths are relative to a
scratch working directory so the provenance strings do not depend on where
the suite runs.

A deliberate change to report bytes regenerates the goldens with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from relistab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

#: two simulator configs: every cause, three rounds, noise and drift; B
#: shifts the cause mix so the comparisons have a non-zero difference
SIM_CONFIGS = {
    "a": {
        "n_annotators": 5,
        "items_per_cause": {"straightforward": 4, "subjective": 3, "ambiguous": 3,
                            "difficult": 3, "value_shift": 2},
        "categories": ["x", "y", "z"],
        "rounds": 3,
        "interval_per_round": [7200.0, 1209600.0],
        "base_error": 0.1,
        "drift": 0.1,
        "seed": 21,
    },
    "b": {
        "n_annotators": 5,
        "items_per_cause": {"straightforward": 2, "subjective": 2, "ambiguous": 5,
                            "difficult": 5, "value_shift": 1},
        "categories": ["x", "y", "z"],
        "rounds": 3,
        "interval_per_round": [7200.0, 1209600.0],
        "base_error": 0.15,
        "drift": 0.1,
        "seed": 22,
    },
}

#: the simulator's categories on an interval scale, so the battery runs ICC
INTERVAL_SCHEMA = {
    "task_id": "sim",
    "categories": ["x", "y", "z"],
    "scale_kind": "interval",
    "numeric_values": {"x": 1.0, "y": 2.0, "z": 3.0},
}

A, B = "a/annotations.csv", "b/annotations.csv"
SCHEMA = "a/schema.json"
#: A as JSON Lines with every fourth record dropped, one item cut to a
#: single label and one to round 1 only, so every exclusion list fills
SPARSE = "sparse.jsonl"

#: golden file -> argv whose standard output it holds
STDOUT_RUNS = {
    "reliability.json": ["reliability", "--annotations", A, "--schema", "interval.json",
                         "--bootstrap", "20", "--seed", "3"],
    "reliability_cohen.json": ["reliability", "--annotations", A, "--schema", SCHEMA,
                               "--metric", "cohens_kappa", "--annotator-a", "a000",
                               "--annotator-b", "a001", "--round", "1,2",
                               "--bootstrap", "20", "--seed", "3"],
    "stability.json": ["stability", "--annotations", A, "--schema", SCHEMA,
                       "--permutation", "200", "--seed", "4"],
    # three occupied buckets (gaps 2 h, 14 d and 14 d 2 h), so the trend
    # p-value comes from the permutation loop and its RNG stream
    "stability_three_buckets.json": ["stability", "--annotations", A, "--schema", SCHEMA,
                                     "--pairing", "all_pairs",
                                     "--bucket-edges", "3600,86400,1213200",
                                     "--permutation", "200", "--seed", "11"],
    "phi.json": ["phi", "--annotations", A, "--schema", SCHEMA,
                 "--rationalisations", "a/rationalisations.csv",
                 "--permutation", "500", "--seed", "5"],
    "compare_reliability.json": ["compare", "--annotations-a", A, "--annotations-b", B,
                                 "--schema", SCHEMA, "--axis", "reliability",
                                 "--replicates", "30", "--seed", "6"],
    "compare_stability.json": ["compare", "--annotations-a", A, "--annotations-b", B,
                               "--schema", SCHEMA, "--axis", "stability",
                               "--metric", "self_kappa", "--replicates", "30",
                               "--seed", "7"],
    "compare_stability_sparse.json": ["compare", "--annotations-a", SPARSE,
                                      "--annotations-b", B, "--schema", SCHEMA,
                                      "--axis", "stability", "--metric", "exact_rate",
                                      "--replicates", "30", "--seed", "9"],
    "compare_reliability_sparse.json": ["compare", "--annotations-a", SPARSE,
                                        "--annotations-b", B, "--schema", SCHEMA,
                                        "--axis", "reliability", "--replicates", "30",
                                        "--seed", "12"],
    "sparse_reliability.json": ["reliability", "--annotations", SPARSE, "--schema", SCHEMA,
                                "--round", "1,2,3"],
    "sparse_alpha_bootstrap.json": ["reliability", "--annotations", SPARSE,
                                    "--schema", SCHEMA, "--metric", "krippendorff_alpha",
                                    "--distance", "ordinal", "--round", "1,2,3",
                                    "--bootstrap", "30", "--seed", "10"],
    "sparse_stability.json": ["stability", "--annotations", SPARSE, "--schema", SCHEMA,
                              "--pairing", "all_pairs", "--permutation", "200",
                              "--seed", "8"],
    "sparse_matrix.json": ["matrix", "--annotations", SPARSE, "--schema", SCHEMA,
                           "--reliability-metric", "fleiss_kappa",
                           "--stability-metric", "exact_rate"],
}

MATRIX_FILES = ("report.json", "report.md", "matrix.svg")

#: config documents the ``--config`` runs read, written next to the data
CONFIGS = {
    "reliability.cfg.json": {"annotations": A, "schema": SCHEMA, "round": [1, 2],
                             "bootstrap": 20, "seed": 11},
    "report.cfg.json": {"inputs": "a/report.json"},
}

#: golden file -> argv whose standard output it holds, for runs that read a
#: config (their provenance records what the file gave, in its JSON types)
CONFIG_RUNS = {
    "validate.json": ["validate", "--annotations", A, "--schema", SCHEMA],
    "reliability_config.json": ["reliability", "--config", "reliability.cfg.json"],
    "report_config.json": ["report", "--config", "report.cfg.json"],
}

#: golden file -> file a run writes: ``simulate`` records the threshold
#: options only when it analyses its data (``--end-to-end``)
FILE_RUNS = {
    "simulate.json": "a/report.json",
    "simulate_end_to_end.json": "e2e/report.json",
    "simulate_end_to_end.svg": "e2e/matrix.svg",
}


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


def produce() -> dict[str, str]:
    """Run every golden case in the current directory; name -> text."""
    for name, config in SIM_CONFIGS.items():
        Path(f"{name}.sim.json").write_text(json.dumps(config), encoding="utf-8")
        _run(["simulate", "--sim-config", f"{name}.sim.json", "--out", name])
    Path("interval.json").write_text(json.dumps(INTERVAL_SCHEMA), encoding="utf-8")
    with open(A, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    kept = [row for i, row in enumerate(rows)
            if i % 4 != 1 and row["item_id"] != "straightforward_0000"
            and (row["item_id"] != "subjective_0000" or row["round"] == "1")]
    kept.append(next(row for row in rows if row["item_id"] == "straightforward_0000"))
    Path(SPARSE).write_text(
        "".join(json.dumps({**row, "round": int(row["round"])}) + "\n" for row in kept),
        encoding="utf-8",
    )
    for name, config in CONFIGS.items():
        Path(name).write_text(json.dumps(config), encoding="utf-8")
    texts = {name: _run(argv) for name, argv in {**STDOUT_RUNS, **CONFIG_RUNS}.items()}
    _run(["matrix", "--annotations", A, "--schema", SCHEMA, "--out", "matrix"])
    for name in MATRIX_FILES:
        texts[f"matrix/{name}"] = Path("matrix", name).read_text(encoding="utf-8")
    _run(["simulate", "--sim-config", "a.sim.json", "--out", "e2e", "--end-to-end"])
    for name, path in FILE_RUNS.items():
        texts[name] = Path(path).read_text(encoding="utf-8")
    return texts


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.chdir(tmp_path_factory.mktemp("golden"))
        return produce()


@pytest.mark.parametrize("name", [*STDOUT_RUNS, *CONFIG_RUNS, *FILE_RUNS,
                                  *(f"matrix/{n}" for n in MATRIX_FILES)])
def test_report_bytes_match_golden(fresh, name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert fresh[name] == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            texts = produce()
        finally:
            os.chdir(here)
    for name, text in texts.items():
        target = GOLDEN / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
        print(f"wrote {target}", file=sys.stderr)
