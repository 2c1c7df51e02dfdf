import json

import pytest

from relistab import (
    DEFAULT_CAUSE_QUADRANT,
    Quadrant,
    SimConfig,
    classify_dataset,
    classify_items,
    dataset_stability,
    krippendorff_alpha,
    percent_agreement,
    recovery_accuracy,
    simulate,
    write_annotations_csv,
)
from relistab.errors import (
    CoverageMismatchError,
    EmptyInputError,
    InvalidConfigError,
)
from relistab.simulator import (
    BASE_TIMESTAMP,
    CAUSES,
    DEFAULT_ROUND_INTERVAL,
    load_sim_config,
    rationalisations_from_truth,
)


def config(**overrides):
    base = dict(n_annotators=4, items_per_cause={"straightforward": 3},
                categories=("x", "y"), seed=5)
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_defaults(self):
        cfg = config()
        assert cfg.rounds == 2
        assert cfg.interval_per_round == (DEFAULT_ROUND_INTERVAL,)
        assert cfg.difficult_latent_error == 0.4

    @pytest.mark.parametrize("overrides", [
        dict(n_annotators=1),
        dict(items_per_cause={"mystery": 3}),
        dict(items_per_cause={"straightforward": -1}),
        dict(items_per_cause={"straightforward": 0}),
        dict(categories=("x",)),
        dict(categories=("x", "y", "z", "w")),
        dict(categories=("x", "x")),
        dict(rounds=1),
        dict(rounds=3),  # default intervals are per-config rounds, not 3
        dict(interval_per_round=(5.0, 5.0)),
        dict(interval_per_round=(0.0,)),
        dict(base_error=0.5),
        dict(base_error=-0.1),
        dict(drift=-0.5),
        dict(difficult_latent_error=1.5),
        dict(n_groups=0),
    ])
    def test_rejects_bad_values(self, overrides):
        if overrides == dict(rounds=3):
            # rounds=3 alone is fine; it only fails with a 1-entry interval list
            SimConfig(n_annotators=4, items_per_cause={"straightforward": 3},
                      categories=("x", "y"), rounds=3)
            overrides = dict(rounds=3, interval_per_round=(5.0,))
        with pytest.raises(InvalidConfigError):
            config(**overrides)

    @pytest.mark.parametrize("intervals", [(251_802_300_800.0,), (1e308,), (1e308, 1e308),
                                           (200_000_000_000.0, 51_802_300_800.0)])
    def test_rejects_rounds_past_year_9999(self, intervals):
        with pytest.raises(InvalidConfigError, match="past 9999-12-31T23:59:59Z"):
            config(rounds=len(intervals) + 1, interval_per_round=intervals)

    def test_last_round_may_fall_on_the_last_second(self):
        cfg = config(interval_per_round=(251_802_300_799.0,))
        columns = simulate(cfg)[0].columns
        assert max(columns.timestamp) == 253_402_300_799.0

    @pytest.mark.parametrize("overrides", [
        dict(drift=float("nan")),
        dict(drift=float("inf")),
        dict(interval_per_round=(float("nan"), 5.0)),
        dict(interval_per_round=(float("inf"), 5.0)),
        dict(interval_per_round=float("nan")),
        dict(interval_per_round="55"),
    ], ids=["drift-nan", "drift-inf", "interval-nan", "interval-inf", "interval-scalar",
            "interval-text"])
    def test_rejects_non_finite_or_non_sequence_values(self, overrides):
        with pytest.raises(InvalidConfigError):
            config(rounds=3, **overrides)

    @pytest.mark.parametrize("key, value", [
        ("n_annotators", 3.5),
        ("n_annotators", float("nan")),
        ("n_annotators", True),
        ("n_groups", float("nan")),
        ("n_groups", 1.5),
        ("n_groups", True),
        ("rounds", 2.5),
        ("rounds", float("inf")),
        ("rounds", True),
        ("seed", float("nan")),
        ("seed", 1.5),
        ("seed", True),
        ("seed", ""),
        ("items_per_cause", {"straightforward": True}),
        ("items_per_cause", {"straightforward": 2.5}),
        ("items_per_cause", {"straightforward": float("nan")}),
    ])
    def test_integer_fields_refuse_non_integers(self, key, value):
        with pytest.raises(InvalidConfigError, match=key):
            config(**{key: value})

    def test_integer_fields_take_integral_floats(self):
        cfg = config(n_annotators=4.0, n_groups=2.0, rounds=2.0, seed=5.0,
                     items_per_cause={"straightforward": 3.0})
        assert cfg == config()
        assert all(type(getattr(cfg, f)) is int
                   for f in ("n_annotators", "n_groups", "rounds", "seed"))
        assert len(simulate(cfg)[0]) == 4 * 3 * 2

    def test_json_round_trip(self):
        cfg = config(rounds=3, interval_per_round=(60.0, 120.0), drift=0.1)
        assert SimConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("key, value", [
        ("seed", 3.5),
        ("seed", True),
        ("seed", -1),
        ("n_annotators", 2.7),
        ("items_per_cause", {"straightforward": 2.5}),
        ("items_per_cause", {"straightforward": True}),
        ("categories", "xy"),
        ("interval_per_round", "5"),
        ("drift", True),
        ("task_id", 5),
    ])
    def test_from_json_refuses_rather_than_truncates(self, key, value):
        with pytest.raises(InvalidConfigError, match=key):
            SimConfig.from_json({**config().to_json(), key: value})

    def test_from_json_takes_integral_forms_and_field_defaults(self):
        payload = {"n_annotators": "4", "items_per_cause": {"straightforward": 3.0},
                   "categories": ["x", "y"], "seed": 5.0}
        assert SimConfig.from_json(payload) == config()

    def test_from_json_rejects_unknown_keys(self):
        payload = config().to_json()
        payload["flavour"] = "spicy"
        with pytest.raises(InvalidConfigError):
            SimConfig.from_json(payload)

    def test_from_json_requires_core_keys(self):
        with pytest.raises(InvalidConfigError):
            SimConfig.from_json({"n_annotators": 4})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(config().to_json()))
        assert load_sim_config(path) == config()
        path.write_text("{nope")
        with pytest.raises(InvalidConfigError):
            load_sim_config(path)


class TestSimulate:
    def test_shape_and_ids(self):
        cfg = config(items_per_cause={"straightforward": 2, "ambiguous": 1})
        aset, truth = simulate(cfg)
        assert len(aset) == 4 * 3 * 2  # annotators x items x rounds
        assert aset.items() == ("ambiguous_0000", "straightforward_0000",
                                "straightforward_0001")
        assert aset.annotators() == ("a000", "a001", "a002", "a003")
        assert aset.rounds() == (1, 2)
        assert set(truth.causes) == set(aset.items())
        assert truth.causes["ambiguous_0000"] == "ambiguous"

    def test_timestamps_follow_intervals(self):
        cfg = config(rounds=3, interval_per_round=(100.0, 50.0))
        aset, _ = simulate(cfg)
        stamps = sorted({rec.timestamp for rec in aset.records})
        assert stamps == [BASE_TIMESTAMP, BASE_TIMESTAMP + 100.0,
                          BASE_TIMESTAMP + 150.0]

    def test_deterministic_bytes(self, tmp_path):
        cfg = config(items_per_cause={c: 2 for c in CAUSES}, base_error=0.1,
                     drift=0.05)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_annotations_csv(simulate(cfg)[0], first)
        write_annotations_csv(simulate(cfg)[0], second)
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_output(self):
        cfg = config(items_per_cause={"ambiguous": 5})
        aset_a, _ = simulate(cfg)
        aset_b, _ = simulate(SimConfig.from_json({**cfg.to_json(), "seed": 6}))
        assert [r.label for r in aset_a.records] != [r.label for r in aset_b.records]

    def test_truth_labels_by_cause(self):
        cfg = config(items_per_cause={c: 1 for c in CAUSES}, n_groups=2)
        _, truth = simulate(cfg)
        assert truth.labels["straightforward_0000"] == "x"
        assert truth.labels["difficult_0000"] == "x"
        assert truth.labels["subjective_0000"] == ("x", "y")
        assert truth.labels["value_shift_0000"] == ("x", "y")
        assert truth.labels["ambiguous_0000"] is None
        assert truth.to_json() == {item: cause for item, cause in truth.causes.items()}


class TestNoiselessFidelity:
    def test_straightforward_all_ones(self):
        aset, _ = simulate(config(items_per_cause={"straightforward": 10}))
        assignment = classify_dataset(aset)
        assert assignment.reliability_score == 1.0
        assert assignment.stability_score == 1.0
        assert assignment.quadrant is Quadrant.STRAIGHTFORWARD

    def test_subjective_stability_exactly_one(self):
        cfg = config(n_annotators=40, items_per_cause={"subjective": 10})
        aset, _ = simulate(cfg)
        assert dataset_stability(aset).exact_rate == 1.0
        # 20/20 group split: agreeing first-round pairs are within-group only
        expected = (2 * (20 * 19 / 2)) / (40 * 39 / 2)
        assert percent_agreement(aset).value == pytest.approx(expected, abs=1e-12)

    def test_value_shift_round1_reliability_one_exact_rate_zero(self):
        aset, _ = simulate(config(items_per_cause={"value_shift": 6}))
        assert krippendorff_alpha(aset, rounds=1).value == 1.0
        assert dataset_stability(aset).exact_rate == 0.0

    def test_ambiguous_self_consistency_near_half(self):
        aset, _ = simulate(config(n_annotators=20,
                                  items_per_cause={"ambiguous": 50}))
        # binary uniform redraw agrees w.p. 1/2; 1000 pairs
        assert dataset_stability(aset).exact_rate == pytest.approx(0.5, abs=0.06)


class TestRecovery:
    def test_noiseless_single_cause_datasets(self):
        for cause in ("straightforward", "subjective", "ambiguous", "value_shift"):
            aset, truth = simulate(config(n_annotators=10,
                                          items_per_cause={cause: 20}))
            assignment = classify_dataset(aset)
            assert recovery_accuracy([assignment], truth) == 1.0, cause

    def test_difficult_needs_drift_to_destabilise(self):
        cfg = config(n_annotators=40, items_per_cause={"difficult": 100},
                     base_error=0.02, drift=0.3)
        aset, truth = simulate(cfg)
        assignment = classify_dataset(aset)
        assert assignment.quadrant is Quadrant.AMBIGUOUS_DIFFICULT_OR_POOR
        assert recovery_accuracy([assignment], truth) == 1.0

    def test_item_scope_accuracy(self):
        cfg = config(n_annotators=10, items_per_cause={"straightforward": 5,
                                                       "subjective": 5})
        aset, truth = simulate(cfg)
        assignments, _ = classify_items(aset)
        accuracy = recovery_accuracy(assignments, truth)
        assert 0.0 <= accuracy <= 1.0

    def test_dataset_scope_requires_single_cause(self):
        cfg = config(items_per_cause={"straightforward": 2, "ambiguous": 2})
        aset, truth = simulate(cfg)
        with pytest.raises(CoverageMismatchError):
            recovery_accuracy([classify_dataset(aset)], truth)

    def test_unknown_item_rejected(self):
        cfg = config(items_per_cause={"straightforward": 2})
        aset, truth = simulate(cfg)
        assignments, _ = classify_items(aset)
        with pytest.raises(CoverageMismatchError):
            recovery_accuracy(assignments, type(truth)(causes={"other": "ambiguous"},
                                                       labels={}))

    def test_empty_assignments(self):
        _, truth = simulate(config())
        with pytest.raises(EmptyInputError):
            recovery_accuracy([], truth)

    def test_custom_mapping(self):
        aset, truth = simulate(config(items_per_cause={"straightforward": 4}))
        assignment = classify_dataset(aset)
        wrong_way = {c: Quadrant.AMBIGUOUS_DIFFICULT_OR_POOR for c in CAUSES}
        assert recovery_accuracy([assignment], truth, wrong_way) == 0.0

    def test_default_mapping_covers_all_causes(self):
        assert set(DEFAULT_CAUSE_QUADRANT) == set(CAUSES)
        assert (DEFAULT_CAUSE_QUADRANT["difficult"]
                is Quadrant.AMBIGUOUS_DIFFICULT_OR_POOR)


def test_rationalisations_from_truth():
    cfg = config(items_per_cause={"straightforward": 1, "subjective": 2,
                                  "ambiguous": 1, "difficult": 1, "value_shift": 1})
    _, truth = simulate(cfg)
    records = rationalisations_from_truth(truth)
    assert {r.label for r in records} == {"subjective", "ambiguous", "difficult"}
    assert len(records) == 4
    assert all(r.rater_id == "cause_oracle" for r in records)
