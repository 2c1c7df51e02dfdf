import math

import pytest
from hypothesis import given, strategies as st

from relistab import (
    Quadrant,
    QuadrantThresholds,
    classify,
    classify_dataset,
    classify_items,
    krippendorff_alpha,
)
from relistab.errors import (
    InvalidConfigError,
    NonFiniteError,
    NoQualifyingItemsError,
)
from relistab.quadrant import RELIABILITY_METRICS, STABILITY_METRICS

from conftest import make_rounds


class TestClassify:
    @pytest.mark.parametrize("rel,stab,expected", [
        (0.9, 0.9, Quadrant.STRAIGHTFORWARD),
        (0.9, 0.1, Quadrant.SYSTEMATIC_ERROR_OR_VALUE_CHANGE),
        (0.1, 0.9, Quadrant.SUBJECTIVE_PERSPECTIVES),
        (0.1, 0.1, Quadrant.AMBIGUOUS_DIFFICULT_OR_POOR),
    ])
    def test_four_cells(self, rel, stab, expected):
        assert classify(rel, stab) is expected

    def test_boundary_counts_high(self):
        cuts = QuadrantThresholds(reliability_cut=0.6, stability_cut=0.6)
        assert classify(0.6, 0.6, cuts) is Quadrant.STRAIGHTFORWARD
        assert classify(0.6, 0.5999999, cuts) is Quadrant.SYSTEMATIC_ERROR_OR_VALUE_CHANGE
        assert classify(0.5999999, 0.6, cuts) is Quadrant.SUBJECTIVE_PERSPECTIVES

    @pytest.mark.parametrize("rel,stab", [
        (math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (0.5, -math.inf),
    ])
    def test_non_finite_rejected(self, rel, stab):
        with pytest.raises(NonFiniteError):
            classify(rel, stab)

    @given(st.floats(-1, 1), st.floats(-1, 1))
    def test_exactly_one_quadrant(self, rel, stab):
        quadrant = classify(rel, stab)
        assert quadrant in tuple(Quadrant)
        others = [q for q in Quadrant if q is not quadrant]
        assert len(others) == 3

    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(0, 1))
    def test_raising_stability_never_crosses_reliability_axis(self, rel, stab, bump):
        before = classify(rel, stab)
        after = classify(rel, min(stab + bump, 1.0))
        high_rel = {Quadrant.STRAIGHTFORWARD, Quadrant.SYSTEMATIC_ERROR_OR_VALUE_CHANGE}
        assert (before in high_rel) == (after in high_rel)
        low_stab_to_high = {
            Quadrant.SYSTEMATIC_ERROR_OR_VALUE_CHANGE: Quadrant.STRAIGHTFORWARD,
            Quadrant.AMBIGUOUS_DIFFICULT_OR_POOR: Quadrant.SUBJECTIVE_PERSPECTIVES,
        }
        assert after in (before, low_stab_to_high.get(before))


class TestThresholds:
    def test_default_cuts_by_metric_kind(self):
        corrected = QuadrantThresholds(reliability_metric="krippendorff_alpha",
                                       stability_metric="self_kappa")
        assert (corrected.reliability_cut, corrected.stability_cut) == (0.6, 0.6)
        raw = QuadrantThresholds(reliability_metric="percent_agreement",
                                 stability_metric="exact_rate")
        assert (raw.reliability_cut, raw.stability_cut) == (0.8, 0.8)
        corrected = QuadrantThresholds()
        assert (corrected.reliability_cut, corrected.stability_cut) == (0.6, 0.6)

    def test_explicit_cuts_kept(self):
        cuts = QuadrantThresholds(reliability_cut=0.75, stability_cut=0.4)
        assert (cuts.reliability_cut, cuts.stability_cut) == (0.75, 0.4)

    @pytest.mark.parametrize("cut", [0.0, 1.0, -0.1, 1.5])
    def test_cut_range(self, cut):
        with pytest.raises(InvalidConfigError):
            QuadrantThresholds(reliability_cut=cut)

    def test_each_axis_takes_the_metrics_it_took(self):
        assert RELIABILITY_METRICS == ("percent_agreement", "fleiss_kappa", "krippendorff_alpha",
                                       "icc_oneway_random", "icc_twoway_random_single")
        assert STABILITY_METRICS == ("self_kappa", "exact_rate")

    @pytest.mark.parametrize("options, message", [
        ({"reliability_metric": "accuracy", "stability_metric": "drift"},
         "reliability_metric must be one of ('percent_agreement', 'fleiss_kappa', "
         "'krippendorff_alpha', 'icc_oneway_random', 'icc_twoway_random_single')"),
        ({"reliability_cut": 2.0, "stability_metric": "drift"},
         "stability_metric must be one of ('self_kappa', 'exact_rate')"),
        ({"reliability_cut": 2.0, "stability_cut": -1.0},
         "reliability_cut must lie strictly in (0, 1), got 2.0"),
        ({"stability_cut": -1.0}, "stability_cut must lie strictly in (0, 1), got -1.0"),
    ])
    def test_checks_keep_their_order_and_messages(self, options, message):
        with pytest.raises(InvalidConfigError) as caught:
            QuadrantThresholds(**options)
        assert str(caught.value) == message

    def test_metric_names_validated(self):
        with pytest.raises(InvalidConfigError):
            QuadrantThresholds(reliability_metric="accuracy")
        with pytest.raises(InvalidConfigError):
            QuadrantThresholds(stability_metric="alpha")
        assert "krippendorff_alpha" in RELIABILITY_METRICS
        assert "self_kappa" in STABILITY_METRICS


# Perfect between-annotator agreement in round 1, everyone flips in round 2:
# high reliability, zero stability.
VALUE_SHIFT_ROUNDS = {
    "a": {1: ["x", "y", "x", "y"], 2: ["y", "x", "y", "x"]},
    "b": {1: ["x", "y", "x", "y"], 2: ["y", "x", "y", "x"]},
}


class TestClassifyDataset:
    def test_value_shift_shape(self):
        assignment = classify_dataset(make_rounds(VALUE_SHIFT_ROUNDS))
        assert assignment.quadrant is Quadrant.SYSTEMATIC_ERROR_OR_VALUE_CHANGE
        assert assignment.scope == "dataset" and assignment.subject_id is None
        assert assignment.reliability_score == 1.0
        assert assignment.stability_score == -1.0

    def test_straightforward_shape(self):
        aset = make_rounds({
            "a": {1: ["x", "y", "x"], 2: ["x", "y", "x"]},
            "b": {1: ["x", "y", "x"], 2: ["x", "y", "x"]},
        })
        assignment = classify_dataset(aset)
        assert assignment.quadrant is Quadrant.STRAIGHTFORWARD
        assert assignment.reliability_score == 1.0
        assert assignment.stability_score == 1.0

    def test_reliability_uses_first_present_round(self):
        aset = make_rounds({
            "a": {2: ["x", "y", "x"], 3: ["y", "x", "y"]},
            "b": {2: ["x", "y", "x"], 3: ["x", "y", "x"]},
        })
        assignment = classify_dataset(aset)
        assert assignment.reliability_score == krippendorff_alpha(aset, rounds=2).value

    def test_exact_rate_metric(self):
        cuts = QuadrantThresholds(stability_metric="exact_rate")
        assignment = classify_dataset(make_rounds(VALUE_SHIFT_ROUNDS), cuts)
        assert assignment.stability_score == 0.0
        assert assignment.quadrant is Quadrant.SYSTEMATIC_ERROR_OR_VALUE_CHANGE

    def test_report_shape(self):
        report = classify_dataset(make_rounds(VALUE_SHIFT_ROUNDS)).to_report()
        assert report["quadrant"] == "SystematicErrorOrValueChange"
        assert report["thresholds"] == {
            "reliability_cut": 0.6,
            "stability_cut": 0.6,
            "reliability_metric": "krippendorff_alpha",
            "stability_metric": "self_kappa",
        }


class TestClassifyItems:
    def test_low_agreement_stable_item(self):
        # round-1 labels x,x,y,y -> 2 agreeing pairs of 6; nobody flips
        aset = make_rounds({
            "a": {1: ["x"], 2: ["x"]},
            "b": {1: ["x"], 2: ["x"]},
            "c": {1: ["y"], 2: ["y"]},
            "d": {1: ["y"], 2: ["y"]},
        })
        (assignment,), exclusions = classify_items(aset)
        assert exclusions == ()
        assert assignment.scope == "item" and assignment.subject_id == "i0"
        assert assignment.reliability_score == pytest.approx(1 / 3, abs=1e-12)
        assert assignment.stability_score == 1.0
        assert assignment.quadrant is Quadrant.SUBJECTIVE_PERSPECTIVES

    def test_exclusion_reasons(self):
        aset = make_rounds({
            "a": {1: ["x", "x", None], 2: ["x", None, "x"]},
            "b": {1: ["x", "x", None], 2: ["x", None, None]},
        })
        assignments, exclusions = classify_items(aset)
        assert [a.subject_id for a in assignments] == ["i0"]
        assert exclusions == (
            "item 'i1': no repeat pair",
            "item 'i2': fewer than 2 round-1 labels",
        )

    def test_no_qualifying_items(self):
        aset = make_rounds({"a": {1: ["x"], 2: ["x"]}})
        with pytest.raises(NoQualifyingItemsError):
            classify_items(aset)

    def test_stability_rate_is_consistent_fraction(self):
        aset = make_rounds({
            "a": {1: ["x"], 2: ["x"]},
            "b": {1: ["x"], 2: ["y"]},
            "c": {1: ["x"], 2: ["y"]},
        })
        (assignment,), _ = classify_items(aset)
        assert assignment.reliability_score == 1.0
        assert assignment.stability_score == pytest.approx(1 / 3, abs=1e-12)
        assert assignment.quadrant is Quadrant.SYSTEMATIC_ERROR_OR_VALUE_CHANGE
