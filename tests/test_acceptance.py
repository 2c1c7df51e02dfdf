"""Acceptance gate: eight end-to-end checks, one test each.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Each test prints a short detail line (visible with ``-s`` or
on failure) and asserts its tolerance and, where stated, its time budget.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from relistab import (
    Quadrant,
    SimConfig,
    annotator_stability,
    build_repeat_pairs,
    classify_dataset,
    classify_items,
    cohens_kappa,
    dataset_stability,
    fleiss_kappa,
    icc,
    interval_profile,
    krippendorff_alpha,
    load_report_schema,
    percent_agreement,
    permutation_p,
    phi,
    simulate,
    validate_dataset,
)
from relistab.association import compare_item_scores
from relistab.association import ContingencyTable
from relistab.core import AnnotationRecord, LabelSchema
from relistab.errors import DegenerateError
from relistab.reliability import bootstrap_ci

from conftest import make_set
from oracles import (
    brute_cohens_kappa,
    brute_fleiss_kappa,
    brute_krippendorff_alpha,
    enumerate_complete_grids,
    grid_units,
    pearson_phi,
)

TOL = 1e-9


def _grid_to_set(grid):
    schema = LabelSchema(task_id="t", categories=("x", "y"))
    records = [
        AnnotationRecord(task_id="t", item_id=item, annotator_id=ann,
                         round=1, label=label)
        for (item, ann), label in sorted(grid.items())
    ]
    return validate_dataset(records, schema)


def _perfect(grid) -> bool:
    by_item = {}
    for (item, _ann), label in grid.items():
        by_item.setdefault(item, set()).add(label)
    return all(len(labels) == 1 for labels in by_item.values())


def _agree(package_fn, brute_fn, grid, aset) -> float | None:
    """Compare one metric against its oracle on one grid.

    Returns the absolute difference when both sides produce a value. When
    the oracle refuses (ValueError: the definitional formula divides by
    zero), the package must either refuse too or return exactly 1.0 on a
    perfectly agreeing grid (its documented chance-degenerate convention).
    """
    try:
        expected = brute_fn()
    except ValueError:
        try:
            result = package_fn(aset)
        except DegenerateError:
            return None
        assert result.value == 1.0 and _perfect(grid), (
            f"oracle refused but package returned {result.value} on {grid}"
        )
        return None
    result = package_fn(aset)
    return abs(result.value - expected)


def test_c1_oracle_equivalence_on_exhaustive_grids():
    """Criterion 1: kappa/alpha match brute-force oracles, tol 1e-9, <30s."""
    start = time.monotonic()
    worst = 0.0
    n_grids = n_cohen = 0
    for grid in enumerate_complete_grids(max_items=3, max_annotators=3,
                                         categories=("x", "y")):
        n_grids += 1
        aset = _grid_to_set(grid)
        units = grid_units(grid)
        for diff in (
            _agree(fleiss_kappa, lambda: brute_fleiss_kappa(units), grid, aset),
            _agree(krippendorff_alpha,
                   lambda: brute_krippendorff_alpha(units), grid, aset),
        ):
            if diff is not None:
                worst = max(worst, diff)
        annotators = sorted({ann for (_item, ann) in grid})
        if len(annotators) == 2:
            n_cohen += 1
            first, second = annotators
            labels_a = [grid[(item, first)] for item in sorted({i for i, _ in grid})]
            labels_b = [grid[(item, second)] for item in sorted({i for i, _ in grid})]
            diff = _agree(
                lambda s: cohens_kappa(s, first, second),
                lambda: brute_cohens_kappa(labels_a, labels_b), grid, aset,
            )
            if diff is not None:
                worst = max(worst, diff)

    rng = np.random.default_rng(20260814)
    n_sparse = 0
    while n_sparse < 200:
        n_items = int(rng.integers(2, 7))
        n_ann = int(rng.integers(2, 5))
        labels = {}
        for i in range(n_items):
            for j in range(n_ann):
                if rng.random() < 0.75:
                    labels[(f"i{i}", f"a{j}")] = ("x", "y", "z")[rng.integers(0, 3)]
        units = grid_units(labels)
        if sum(len(u) >= 2 for u in units) == 0:
            continue
        n_sparse += 1
        schema = LabelSchema(task_id="t", categories=("x", "y", "z"))
        records = [
            AnnotationRecord(task_id="t", item_id=item, annotator_id=ann,
                             round=1, label=label)
            for (item, ann), label in sorted(labels.items())
        ]
        aset = validate_dataset(records, schema)
        diff = _agree(krippendorff_alpha,
                      lambda: brute_krippendorff_alpha(units), labels, aset)
        if diff is not None:
            worst = max(worst, diff)

    elapsed = time.monotonic() - start
    print(f"\n[C1] {n_grids} complete grids ({n_cohen} two-annotator) + "
          f"{n_sparse} sparse alpha instances; worst |diff| {worst:.3e}; "
          f"{elapsed:.1f}s")
    assert n_grids == 668
    assert n_sparse == 200
    assert worst <= TOL
    assert elapsed < 30.0


def test_c2_hand_derived_fixture_values():
    """Criterion 2: four hand-derived fixture values within 1e-9."""
    kappa = cohens_kappa(
        make_set({"A": ["x", "x", "y", "y"], "B": ["x", "x", "y", "x"]}),
        "A", "B").value
    fleiss = fleiss_kappa(
        make_set({"A": ["x", "y"], "B": ["x", "y"], "C": ["y", "y"]})).value
    alpha = krippendorff_alpha(
        make_set({"A": ["a", "a", "b", "b"], "B": ["a", "a", "b", "a"]},
                 cats=("a", "b"))).value
    icc_11 = icc(
        make_set({"A": ["1", "3"], "B": ["2", "4"]}, cats=("1", "2", "3", "4"),
                 scale="interval",
                 numeric_values={"1": 1.0, "2": 2.0, "3": 3.0, "4": 4.0}),
        model="oneway_random").value
    print(f"\n[C2] kappa={kappa} fleiss={fleiss} alpha={alpha} icc={icc_11}")
    assert kappa == pytest.approx(0.5, abs=TOL)
    assert fleiss == pytest.approx(0.25, abs=TOL)
    assert alpha == pytest.approx(8 / 15, abs=TOL)
    assert icc_11 == pytest.approx(7 / 9, abs=TOL)


def test_c3_phi_orientation_and_pearson_magnitude():
    """Criterion 3: phi sign convention exact; |phi|=|pearson| on 200 tables."""
    assert phi(ContingencyTable(10, 0, 0, 10)).phi == -1.0
    assert phi(ContingencyTable(0, 10, 10, 0)).phi == 1.0

    rng = np.random.default_rng(3)
    n_tables = 0
    worst = 0.0
    while n_tables < 200:
        a, b, c, d = (int(v) for v in rng.integers(0, 31, size=4))
        if min(a + b, c + d, a + c, b + d) == 0:
            continue
        n_tables += 1
        worst = max(worst, abs(abs(phi(ContingencyTable(a, b, c, d)).phi)
                               - abs(pearson_phi((a, b, c, d)))))
    print(f"\n[C3] 200 positive-margin tables; worst ||phi|-|r|| {worst:.3e}")
    assert worst <= TOL


def test_c4_single_cause_quadrant_recovery():
    """Criterion 4: each cause recovered in >=95/100 seeded runs, <2min."""
    start = time.monotonic()
    expected = {
        "straightforward": Quadrant.STRAIGHTFORWARD,
        "subjective": Quadrant.SUBJECTIVE_PERSPECTIVES,
        "ambiguous": Quadrant.AMBIGUOUS_DIFFICULT_OR_POOR,
        "difficult": Quadrant.AMBIGUOUS_DIFFICULT_OR_POOR,
        "value_shift": Quadrant.SYSTEMATIC_ERROR_OR_VALUE_CHANGE,
    }
    hits = {}
    for cause, quadrant in expected.items():
        # drift only shows up in the difficult re-labelling rule; it is the
        # knob that separates formerly-plausible labels across rounds
        drift = 0.3 if cause == "difficult" else 0.0
        hits[cause] = 0
        for seed in range(100):
            cfg = SimConfig(n_annotators=40, items_per_cause={cause: 100},
                            categories=("x", "y"), rounds=2, base_error=0.02,
                            drift=drift, seed=seed)
            aset, _truth = simulate(cfg)
            if classify_dataset(aset).quadrant is quadrant:
                hits[cause] += 1
    elapsed = time.monotonic() - start
    print(f"\n[C4] hits/100 per cause: {hits}; {elapsed:.1f}s")
    for cause, n_hits in hits.items():
        assert n_hits >= 95, f"{cause}: {n_hits}/100"
    assert elapsed < 120.0


def test_c5_subjective_orderings_with_bootstrap_cis():
    """Criterion 5: subjective < straightforward reliability and
    > ambiguous stability; 95% CIs exclude zero for all 20 seeds."""
    for seed in range(20):
        cfg = SimConfig(
            n_annotators=12,
            items_per_cause={"straightforward": 40, "subjective": 40,
                             "ambiguous": 40},
            categories=("x", "y"), base_error=0.02, seed=seed)
        aset, truth = simulate(cfg)
        assignments, _excluded = classify_items(aset)
        by_cause = {}
        for assignment in assignments:
            by_cause.setdefault(truth.causes[assignment.subject_id],
                                []).append(assignment)

        rel = {cause: [a.reliability_score for a in group]
               for cause, group in by_cause.items()}
        stab = {cause: [a.stability_score for a in group]
                for cause, group in by_cause.items()}

        diff_rel, ci_rel = compare_item_scores(
            rel["subjective"], rel["straightforward"], replicates=1000,
            seed=seed)
        diff_stab, ci_stab = compare_item_scores(
            stab["subjective"], stab["ambiguous"], replicates=1000, seed=seed)
        if seed == 0:
            print(f"\n[C5] seed 0: reliability diff {diff_rel:.3f} "
                  f"CI {ci_rel}; stability diff {diff_stab:.3f} CI {ci_stab}")
        assert diff_rel < 0.0 and ci_rel[1] < 0.0, (seed, diff_rel, ci_rel)
        assert diff_stab > 0.0 and ci_stab[0] > 0.0, (seed, diff_stab, ci_stab)


def test_c6_consistency_degrades_with_interval():
    """Criterion 6: drifting relabels degrade with interval; mean trend < 0,
    non-increasing profile in >=90% of 50 seeds."""
    rhos = []
    n_nonincreasing = 0
    for seed in range(50):
        cfg = SimConfig(n_annotators=10, items_per_cause={"difficult": 80},
                        categories=("x", "y"), rounds=4,
                        interval_per_round=(1800.0, 7200.0, 172800.0),
                        base_error=0.02, drift=0.05, seed=seed)
        aset, _ = simulate(cfg)
        profile = interval_profile(build_repeat_pairs(aset, "consecutive"))
        rates = [bucket.exact_rate for bucket in profile.buckets]
        assert len(rates) == 3
        rhos.append(profile.trend_rho)
        n_nonincreasing += all(first >= second
                               for first, second in zip(rates, rates[1:]))
    mean_rho = float(np.mean(rhos))
    print(f"\n[C6] mean trend rho {mean_rho:.3f}; "
          f"non-increasing {n_nonincreasing}/50")
    assert mean_rho < 0.0
    assert n_nonincreasing >= 45


def test_c7_trivial_exactness_and_determinism():
    """Criterion 7: perfect data gives 1.0 within 1e-12 for every
    chance-corrected metric; fixed-seed operations are bit-stable."""
    perfect = make_set({"A": ["x", "y", "x", "y"], "B": ["x", "y", "x", "y"],
                        "C": ["x", "y", "x", "y"]})
    values = {
        "cohens_kappa": cohens_kappa(perfect, "A", "B").value,
        "fleiss_kappa": fleiss_kappa(perfect).value,
        "krippendorff_alpha": krippendorff_alpha(perfect).value,
        "percent_agreement": percent_agreement(perfect).value,
    }
    interval_perfect = make_set(
        {"A": ["1", "3", "2"], "B": ["1", "3", "2"]},
        cats=("1", "2", "3"), scale="interval",
        numeric_values={"1": 1.0, "2": 2.0, "3": 3.0})
    values["icc_oneway"] = icc(interval_perfect, model="oneway_random").value
    values["icc_twoway"] = icc(interval_perfect,
                               model="twoway_random_single").value
    from conftest import make_rounds
    repeat_perfect = make_rounds({
        "A": {1: ["x", "y", "x"], 2: ["x", "y", "x"]},
        "B": {1: ["y", "y", "x"], 2: ["y", "y", "x"]},
    })
    per_annotator = {r.subject_id: r for r in annotator_stability(repeat_perfect)}
    values["self_kappa"] = per_annotator["A"].self_kappa
    values["exact_rate"] = dataset_stability(repeat_perfect).exact_rate
    print(f"\n[C7] perfect-data values: {values}")
    for name, value in values.items():
        assert value == pytest.approx(1.0, abs=1e-12), name

    # determinism: same seed -> identical bits
    noisy = make_set({"A": ["x", "x", "y", "y", "x"],
                      "B": ["x", "y", "y", "x", "x"]})
    ci_a = bootstrap_ci(percent_agreement, noisy, replicates=200, seed=42)
    ci_b = bootstrap_ci(percent_agreement, noisy, replicates=200, seed=42)
    assert ci_a == ci_b
    p_a = permutation_p(ContingencyTable(7, 3, 2, 8), replicates=2000, seed=42)
    p_b = permutation_p(ContingencyTable(7, 3, 2, 8), replicates=2000, seed=42)
    assert p_a == p_b
    cfg = SimConfig(n_annotators=5, items_per_cause={c: 3 for c in
                    ("straightforward", "ambiguous", "difficult")},
                    categories=("x", "y"), base_error=0.1, drift=0.1, seed=7)
    set_a, _ = simulate(cfg)
    set_b, _ = simulate(cfg)
    assert set_a.records == set_b.records


def test_c8_cli_pipeline_end_to_end(tmp_path):
    """Criterion 8: simulate -> matrix -> phi -> report, exit 0, <60s,
    bundle validates against the published schema."""
    jsonschema = pytest.importorskip("jsonschema")
    start = time.monotonic()
    sim_cfg = {
        "n_annotators": 8,
        "items_per_cause": {"straightforward": 8, "subjective": 8,
                            "ambiguous": 8, "difficult": 8, "value_shift": 8},
        "categories": ["x", "y"],
        "base_error": 0.02,
        "seed": 20260814,
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(sim_cfg))
    sim_out = tmp_path / "sim"
    matrix_out = tmp_path / "matrix"
    phi_out = tmp_path / "phi"
    bundle_out = tmp_path / "bundle"

    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "relistab", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (argv[0], proc.stderr)
        return proc

    run("simulate", "--sim-config", str(cfg_path), "--out", str(sim_out))
    annotations, schema = str(sim_out / "annotations.csv"), str(sim_out / "schema.json")
    run("matrix", "--annotations", annotations, "--schema", schema,
        "--out", str(matrix_out))
    run("phi", "--annotations", annotations, "--schema", schema,
        "--rationalisations", str(sim_out / "rationalisations.csv"),
        "--permutation", "2000", "--seed", "11", "--out", str(phi_out))
    run("report", "--inputs", str(sim_out / "report.json"),
        str(matrix_out / "report.json"), str(phi_out / "report.json"),
        "--out", str(bundle_out))
    elapsed = time.monotonic() - start

    bundle = json.loads((bundle_out / "report.json").read_text())
    jsonschema.Draft202012Validator(load_report_schema()).validate(bundle)
    assert bundle["report_kind"] == "bundle"
    for section in ("simulation", "matrix", "association"):
        assert section in bundle, section
    assert (matrix_out / "matrix.svg").read_text().startswith("<svg")
    print(f"\n[C8] four subprocess stages in {elapsed:.1f}s; bundle validates")
    assert elapsed < 60.0
