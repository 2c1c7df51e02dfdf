from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_cohens_kappa,
    brute_fleiss_kappa,
    brute_icc_oneway,
    brute_icc_twoway,
    brute_krippendorff_alpha,
    brute_percent_agreement,
    brute_resample,
)
from relistab import (
    AgreementResult,
    AnnotationRecord,
    LabelSchema,
    MetricCall,
    SimConfig,
    bootstrap_ci,
    cohens_kappa,
    compare_reliability,
    fleiss_kappa,
    icc,
    krippendorff_alpha,
    percent_agreement,
    resample_items,
    simulate,
    validate_dataset,
)
from relistab.errors import (
    ChanceDegenerateError,
    DegenerateError,
    InsufficientVarianceError,
    InvalidConfigError,
    NoOverlapError,
    NotIntervalError,
    RelistabError,
    TooManyDegenerateError,
)
from relistab.core import ColumnCodes, coincidence_blocks, resolve_rounds
from relistab.reliability import DISTANCES, METRICS, alpha_from_coincidence, draw_positions

from conftest import make_rounds, make_set


class TestPercentAgreement:
    def test_three_of_four(self):
        aset = make_set({"a": ["x", "x", "y", "y"], "b": ["x", "x", "y", "x"]})
        result = percent_agreement(aset)
        assert result.value == pytest.approx(0.75, abs=1e-9)
        assert result.n_items == 4 and result.n_annotators == 2

    def test_one_agreeing_pair_of_three(self):
        aset = make_set({"a": ["x"], "b": ["x"], "c": ["y"]})
        assert percent_agreement(aset).value == pytest.approx(1 / 3, abs=1e-9)

    def test_perfect(self):
        aset = make_set({"a": ["x", "y"], "b": ["x", "y"], "c": ["x", "y"]})
        assert percent_agreement(aset).value == 1.0

    def test_single_label_units_excluded(self):
        aset = make_set({"a": ["x", "x"], "b": ["x", None]})
        result = percent_agreement(aset)
        assert result.value == 1.0
        assert result.exclusions == ("item 'i1' round 1: fewer than 2 labels",)

    def test_all_units_degenerate(self):
        aset = make_set({"a": ["x", "y"]})
        with pytest.raises(DegenerateError):
            percent_agreement(aset)

    def test_multi_round_units_are_separate(self):
        aset = make_rounds({"a": {1: ["x"], 2: ["x"]}, "b": {1: ["x"], 2: ["y"]}})
        assert percent_agreement(aset, rounds=None).value == 0.5


class TestCohensKappa:
    def test_half(self):
        aset = make_set({"a": ["x", "x", "y", "y"], "b": ["x", "x", "y", "x"]})
        assert cohens_kappa(aset, "a", "b").value == pytest.approx(0.5, abs=1e-9)

    def test_minus_one(self):
        aset = make_set({"a": ["x", "x", "y", "y"], "b": ["y", "y", "x", "x"]})
        assert cohens_kappa(aset, "a", "b").value == pytest.approx(-1.0, abs=1e-9)

    def test_identical_vectors(self):
        aset = make_set({"a": ["x", "y", "x"], "b": ["x", "y", "x"]})
        assert cohens_kappa(aset, "a", "b").value == 1.0

    def test_chance_degenerate_perfect(self):
        aset = make_set({"a": ["x", "x"], "b": ["x", "x"]})
        assert cohens_kappa(aset, "a", "b").value == 1.0

    def test_only_co_labelled_units_count(self):
        aset = make_set({"a": ["x", "x", "y"], "b": ["x", None, "y"]})
        result = cohens_kappa(aset, "a", "b")
        assert result.value == 1.0
        assert result.n_items == 2
        assert result.exclusions == ("item 'i1' round 1: labelled by one annotator only",)

    def test_no_overlap(self):
        aset = make_set({"a": ["x", None], "b": [None, "y"]})
        with pytest.raises(NoOverlapError):
            cohens_kappa(aset, "a", "b")

    def test_same_annotator_rejected(self):
        aset = make_set({"a": ["x"], "b": ["x"]})
        with pytest.raises(InvalidConfigError):
            cohens_kappa(aset, "a", "a")

    @given(st.lists(st.tuples(st.sampled_from("xyz"), st.sampled_from("xyz")),
                    min_size=1, max_size=12))
    def test_matches_brute(self, pairs):
        aset = make_set({"a": [p[0] for p in pairs], "b": [p[1] for p in pairs]},
                        cats=("x", "y", "z"))
        try:
            expected = brute_cohens_kappa([p[0] for p in pairs], [p[1] for p in pairs])
        except ValueError:
            with pytest.raises(ChanceDegenerateError):
                cohens_kappa(aset, "a", "b")
        else:
            assert cohens_kappa(aset, "a", "b").value == pytest.approx(expected, abs=1e-9)


class TestFleissKappa:
    def test_quarter(self):
        aset = make_set({"a": ["x", "y"], "b": ["x", "y"], "c": ["y", "y"]})
        assert fleiss_kappa(aset).value == pytest.approx(0.25, abs=1e-9)

    def test_single_category_everywhere(self):
        aset = make_set({"a": ["x", "x"], "b": ["x", "x"]})
        assert fleiss_kappa(aset).value == 1.0

    def test_modal_count_tie_keeps_larger(self):
        # one 2-label unit, one 3-label unit: tie resolved toward 3
        aset = make_set({"a": ["x", "x"], "b": ["y", "x"], "c": [None, "y"]})
        result = fleiss_kappa(aset)
        assert result.n_items == 1
        assert result.exclusions == ("item 'i0' round 1: 2 labels != modal count 3",)
        assert result.value == pytest.approx(brute_fleiss_kappa([["x", "x", "y"]]), abs=1e-9)

    def test_all_units_single_label(self):
        aset = make_set({"a": ["x", None], "b": [None, "y"]})
        with pytest.raises(DegenerateError):
            fleiss_kappa(aset)

    @given(st.lists(st.lists(st.sampled_from("xy"), min_size=3, max_size=3),
                    min_size=1, max_size=8))
    def test_matches_brute_on_complete_triples(self, rows):
        aset = make_set({f"a{j}": [row[j] for row in rows] for j in range(3)})
        try:
            expected = brute_fleiss_kappa(rows)
        except ValueError:
            with pytest.raises(ChanceDegenerateError):
                fleiss_kappa(aset)
        else:
            assert fleiss_kappa(aset).value == pytest.approx(expected, abs=1e-9)


class TestKrippendorffAlpha:
    def test_eight_fifteenths(self):
        aset = make_set({"A": ["a", "a", "b", "b"], "B": ["a", "a", "b", "a"]},
                        cats=("a", "b"))
        assert krippendorff_alpha(aset).value == pytest.approx(8 / 15, abs=1e-9)

    def test_perfect(self):
        aset = make_set({"a": ["x", "y"], "b": ["x", "y"]})
        assert krippendorff_alpha(aset).value == 1.0

    def test_zero_expected_disagreement(self):
        aset = make_set({"a": ["x", "x"], "b": ["x", "x"]})
        assert krippendorff_alpha(aset).value == 1.0

    def test_single_label_items_excluded(self):
        sparse = make_set({"a": ["x", "x", "x"], "b": ["y", "x", None]})
        dense = make_set({"a": ["x", "x"], "b": ["y", "x"]})
        assert krippendorff_alpha(sparse).value == krippendorff_alpha(dense).value
        assert krippendorff_alpha(sparse).exclusions == (
            "item 'i2': fewer than 2 labels in selected rounds",)

    def test_ordinal_fixture(self):
        aset = make_set({"a": ["lo", "lo", "hi", "mid"], "b": ["lo", "mid", "hi", "hi"]},
                        cats=("lo", "mid", "hi"), scale="ordinal")
        assert krippendorff_alpha(aset).value == pytest.approx(17 / 24, abs=1e-12)

    def test_interval_matches_brute(self):
        values = {"lo": 0.0, "mid": 1.0, "hi": 3.0}
        aset = make_set({"a": ["lo", "mid", "hi"], "b": ["mid", "mid", "hi"]},
                        cats=("lo", "mid", "hi"), scale="interval", numeric_values=values)
        expected = brute_krippendorff_alpha(
            [["lo", "mid"], ["mid", "mid"], ["hi", "hi"]],
            delta2=lambda a, b: (values[a] - values[b]) ** 2,
        )
        assert krippendorff_alpha(aset).value == pytest.approx(expected, abs=1e-9)

    def test_explicit_distance_overrides_schema(self):
        aset = make_set({"a": ["lo", "hi"], "b": ["mid", "hi"]},
                        cats=("lo", "mid", "hi"), scale="ordinal")
        nominal = krippendorff_alpha(aset, distance="nominal").value
        expected = brute_krippendorff_alpha([["lo", "mid"], ["hi", "hi"]])
        assert nominal == pytest.approx(expected, abs=1e-9)

    def test_pools_rounds_per_item(self):
        # alpha pools labels per item across selected rounds
        multi = make_rounds({"a": {1: ["x"], 2: ["y"]}, "b": {1: ["x"], 2: ["x"]}})
        flat = make_set({"a": ["x"], "b": ["x"], "c": ["y"], "d": ["x"]})
        assert (krippendorff_alpha(multi, rounds=None).value
                == pytest.approx(krippendorff_alpha(flat).value, abs=1e-12))

    @given(st.lists(st.tuples(st.sampled_from("xy"), st.sampled_from("xy")),
                    min_size=1, max_size=10))
    def test_matches_brute(self, pairs):
        aset = make_set({"a": [p[0] for p in pairs], "b": [p[1] for p in pairs]})
        expected = brute_krippendorff_alpha([list(p) for p in pairs])
        assert krippendorff_alpha(aset).value == pytest.approx(expected, abs=1e-9)


INTERVAL_SCHEMA = dict(cats=("1", "2", "3", "4"), scale="interval",
                       numeric_values={"1": 1, "2": 2, "3": 3, "4": 4})


class TestIcc:
    def test_oneway_fixture(self):
        aset = make_set({"a": ["1", "3"], "b": ["2", "4"]}, **INTERVAL_SCHEMA)
        result = icc(aset, model="oneway_random")
        assert result.value == pytest.approx(7 / 9, abs=1e-9)
        assert result.metric_name == "icc_oneway_random"

    def test_twoway_matches_brute(self):
        aset = make_set({"a": ["1", "3"], "b": ["2", "4"]}, **INTERVAL_SCHEMA)
        expected = brute_icc_twoway([[1.0, 2.0], [3.0, 4.0]])
        assert icc(aset, model="twoway_random_single").value == pytest.approx(
            expected, abs=1e-9)

    def test_identical_raters(self):
        aset = make_set({"a": ["1", "3"], "b": ["1", "3"]}, **INTERVAL_SCHEMA)
        assert icc(aset, model="oneway_random").value == 1.0
        assert icc(aset, model="twoway_random_single").value == 1.0

    def test_nominal_schema_rejected(self):
        aset = make_set({"a": ["x", "y"], "b": ["x", "y"]})
        with pytest.raises(NotIntervalError):
            icc(aset)

    def test_incomplete_rows_excluded(self):
        aset = make_set({"a": ["1", "3", "2"], "b": ["2", "4", None]}, **INTERVAL_SCHEMA)
        result = icc(aset)
        assert result.n_items == 2
        assert result.exclusions == ("item 'i2': incomplete annotator coverage",)
        assert result.value == pytest.approx(7 / 9, abs=1e-9)

    def test_zero_variance(self):
        aset = make_set({"a": ["2", "2"], "b": ["2", "2"]}, **INTERVAL_SCHEMA)
        with pytest.raises(InsufficientVarianceError):
            icc(aset, model="oneway_random")
        with pytest.raises(InsufficientVarianceError):
            icc(aset, model="twoway_random_single")

    def test_needs_single_round(self):
        aset = make_rounds({"a": {1: ["1", "3"], 2: ["1", "3"]},
                            "b": {1: ["2", "4"], 2: ["2", "4"]}}, **INTERVAL_SCHEMA)
        with pytest.raises(InvalidConfigError):
            icc(aset, rounds=None)

    @given(st.lists(st.lists(st.sampled_from("1234"), min_size=3, max_size=3),
                    min_size=2, max_size=6))
    def test_matches_brute_anova(self, rows):
        aset = make_set({f"a{j}": [row[j] for row in rows] for j in range(3)},
                        **INTERVAL_SCHEMA)
        matrix = [[float(v) for v in row] for row in rows]
        for model, oracle in (("oneway_random", brute_icc_oneway),
                              ("twoway_random_single", brute_icc_twoway)):
            try:
                expected = oracle(matrix)
            except ValueError:
                with pytest.raises(DegenerateError):
                    icc(aset, model=model)
            else:
                assert icc(aset, model=model).value == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# cross-metric properties

complete_grids = st.integers(2, 3).flatmap(
    lambda n_ann: st.lists(
        st.lists(st.sampled_from("xy"), min_size=n_ann, max_size=n_ann),
        min_size=2, max_size=5,
    )
)


def _grid_set(rows, item_names=None, ann_names=None):
    n_ann = len(rows[0])
    items = item_names or [f"i{i}" for i in range(len(rows))]
    anns = ann_names or [f"a{j}" for j in range(n_ann)]
    records = [
        AnnotationRecord("t", items[i], anns[j], 1, rows[i][j])
        for i in range(len(rows)) for j in range(n_ann)
    ]
    return validate_dataset(records, LabelSchema("t", ("x", "y")))


def _metric_values(aset):
    values = {
        "percent": percent_agreement(aset).value,
        "alpha": krippendorff_alpha(aset).value,
    }
    try:
        values["fleiss"] = fleiss_kappa(aset).value
    except ChanceDegenerateError:
        values["fleiss"] = "degenerate"
    return values


@given(complete_grids)
def test_identifier_permutation_invariance(rows):
    base = _grid_set(rows)
    renamed = _grid_set(
        rows,
        item_names=[f"item-{i * 7 % 100:02d}" for i in range(len(rows))],
        ann_names=[f"rater/{chr(90 - j)}" for j in range(len(rows[0]))],
    )
    assert _metric_values(base) == _metric_values(renamed)


@given(complete_grids)
def test_category_swap_invariance(rows):
    base = _grid_set(rows)
    swapped = _grid_set([["y" if v == "x" else "x" for v in row] for row in rows])
    assert _metric_values(base) == _metric_values(swapped)


@given(complete_grids)
def test_perfect_agreement_is_one(rows):
    rows = [[row[0]] * len(row) for row in rows]
    aset = _grid_set(rows)
    assert abs(percent_agreement(aset).value - 1.0) <= 1e-12
    assert abs(krippendorff_alpha(aset).value - 1.0) <= 1e-12
    assert abs(fleiss_kappa(aset).value - 1.0) <= 1e-12
    if len(rows[0]) == 2:
        assert abs(cohens_kappa(aset, "a0", "a1").value - 1.0) <= 1e-12


class TestAgreementResult:
    def test_snaps_float_noise(self):
        result = AgreementResult("cohens_kappa", 1.0 + 5e-10, 2, 2, (1,))
        assert result.value == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(RelistabError):
            AgreementResult("percent_agreement", 1.1, 2, 2, (1,))

    def test_ci_must_bracket_value(self):
        with pytest.raises(RelistabError):
            AgreementResult("cohens_kappa", 0.5, 2, 2, (1,), ci=(0.6, 0.9))

    def test_report_round_scalar_or_list(self):
        single = AgreementResult("cohens_kappa", 0.5, 2, 2, (1,))
        multi = AgreementResult("cohens_kappa", 0.5, 2, 2, (1, 2))
        assert single.to_report()["round"] == 1
        assert multi.to_report()["round"] == [1, 2]


class TestResampleItems:
    def test_duplicate_suffixes(self):
        aset = make_set({"a": ["x", "y"], "b": ["x", "y"]})
        resampled = resample_items(aset, ["i1", "i1", "i0", "i1"])
        assert resampled.items() == ("i0", "i1", "i1~1", "i1~2")
        assert len(resampled) == 8

    def test_preserves_labels(self):
        aset = make_set({"a": ["x", "y"]})
        resampled = resample_items(aset, ["i1", "i1"])
        assert [(r.item_id, r.annotator_id, r.round, r.label) for r in resampled.records] == [
            ("i1", "a", 1, "y"), ("i1~1", "a", 1, "y")]


class TestBootstrapCi:
    def test_requires_seed(self):
        aset = make_set({"a": ["x", "y"], "b": ["x", "y"]})
        with pytest.raises(InvalidConfigError):
            bootstrap_ci(percent_agreement, aset)

    def test_deterministic(self):
        aset = make_set({"a": ["x", "x", "y", "y"], "b": ["x", "x", "y", "x"]})
        first = bootstrap_ci(percent_agreement, aset, replicates=200, seed=7)
        second = bootstrap_ci(percent_agreement, aset, replicates=200, seed=7)
        assert first == second

    def test_perfect_data_zero_width(self):
        aset = make_set({"a": ["x", "y", "x"], "b": ["x", "y", "x"]})
        assert bootstrap_ci(percent_agreement, aset, replicates=100, seed=1) == (1.0, 1.0)

    @given(st.lists(st.tuples(st.sampled_from("xy"), st.sampled_from("xy")),
                    min_size=2, max_size=4),
           st.integers(0, 10_000))
    def test_point_inside_interval(self, pairs, seed):
        aset = make_set({"a": [p[0] for p in pairs], "b": [p[1] for p in pairs]})
        point = percent_agreement(aset).value
        low, high = bootstrap_ci(percent_agreement, aset, replicates=50, seed=seed)
        assert low <= point <= high

    @pytest.mark.parametrize("distance", DISTANCES)
    def test_gathered_alpha_interval_equals_the_rebuilt_one(self, distance):
        aset = simulate(SimConfig(n_annotators=4, items_per_cause={
            "straightforward": 4, "ambiguous": 4, "difficult": 4}, categories=("x", "y", "z"),
            rounds=3, base_error=0.2, seed=3))[0]
        aset = replace(aset, schema=LabelSchema(
            aset.schema.task_id, ("x", "y", "z"), numeric_values={"x": 0, "y": 1, "z": 3}))
        call = MetricCall("krippendorff_alpha", (2, 3), {"distance": distance})
        rebuilt = bootstrap_ci(lambda s: krippendorff_alpha(s, (2, 3), distance), aset,
                               replicates=60, confidence=0.9, seed=8)
        assert bootstrap_ci(call, aset, replicates=60, confidence=0.9, seed=8) == rebuilt

    def test_too_many_degenerate(self):
        aset = make_set({"a": ["x", "y", "x", "y"], "b": ["x", "y", "y", "y"]})

        def metric(sample):
            if any("~" in item for item in sample.items()):
                raise DegenerateError("duplicate drawn")
            return percent_agreement(sample)

        with pytest.raises(TooManyDegenerateError):
            bootstrap_ci(metric, aset, replicates=100, seed=3)

    def test_degenerate_replicates_dropped(self):
        aset = make_set({"a": ["x", "y", "x", "y"], "b": ["x", "y", "y", "y"]})

        def metric(sample):
            # degenerate only in the rare all-one-item resample
            if len(set(i.split("~")[0] for i in sample.items())) == 1:
                raise DegenerateError("single item")
            return percent_agreement(sample)

        low, high = bootstrap_ci(metric, aset, replicates=100, seed=3)
        assert 0.0 <= low <= high <= 1.0


ITEM_POOL = ("a", "b", "a~1", "c")


@st.composite
def sparse_sets(draw):
    """A validated multi-round set with missing cells, optional timestamps,
    records in random order, and an item id that a ``~k`` id can collide with."""
    items = draw(st.lists(st.sampled_from(ITEM_POOL), min_size=1, max_size=4, unique=True))
    cells = [(item, ann, rnd) for item in items for ann in ("p", "q", "r") for rnd in (1, 2, 3)]
    kept = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
    records = [
        AnnotationRecord("t", item, ann, rnd, draw(st.sampled_from("xy")),
                         draw(st.none() | st.floats(0, 1e9)))
        for item, ann, rnd in kept
    ]
    return validate_dataset(records, LabelSchema("t", ("x", "y")))


@given(sparse_sets(), st.data())
def test_resample_matches_full_rebuild(aset, data):
    ids = data.draw(st.lists(st.sampled_from(aset.items()), min_size=1, max_size=12))
    resampled = resample_items(aset, ids)
    # one block of records per draw, each under an id of its own
    new_ids = list(dict.fromkeys(rec.item_id for rec in resampled.records))
    assert len(new_ids) == len(ids)
    expected = []
    for k, (item, new_id) in enumerate(zip(ids, new_ids)):
        repeat = ids[:k].count(item)
        assert new_id == item if repeat == 0 else new_id.rstrip("~") == f"{item}~{repeat}"
        expected += [replace(rec, item_id=new_id) for rec in aset.records if rec.item_id == item]
    assert resampled.records == tuple(expected)


def _outcome(compute):
    try:
        return repr(compute())
    except RelistabError as exc:
        return type(exc), str(exc)


def test_resample_duplicate_id_never_merges_with_a_source_item():
    aset = validate_dataset(
        [AnnotationRecord("t", item, ann, 1, lbl)
         for item, ann, lbl in [("a", "p", "x"), ("a", "q", "x"),
                                ("a~1", "p", "y"), ("a~1", "q", "x")]],
        LabelSchema("t", ("x", "y")),
    )
    resampled = resample_items(aset, ["a", "a", "a~1"])
    assert resampled.items() == ("a", "a~1", "a~1~")
    assert percent_agreement(resampled).value == pytest.approx(2 / 3)


#: ordinal labels with numeric values, so every alpha distance applies
ALPHA_SCHEMA = LabelSchema("t", ("x", "y", "z"), "ordinal", {"x": 1.0, "y": 2.0, "z": 4.0})
ALPHA_ROUNDS = (None, 1, 2, (1, 2), (1, 3), (2, 3, 4), (4,))


@st.composite
def sparse_round_sets(draw):
    """A validated 1-4-round set with missing cells and records in random
    order, so items can lack the lowest selected round or hold one label.
    Up to 6 annotators give label counts whose blocks (divided by m - 1)
    sum to different floats in different orders."""
    n_rounds = draw(st.integers(1, 4))
    items = draw(st.lists(st.sampled_from(ITEM_POOL + ("d", "e")), min_size=1, max_size=6,
                          unique=True))
    annotators = "pqrstu"[:draw(st.integers(2, 6))]
    cells = [(item, ann, rnd) for item in items for ann in annotators
             for rnd in range(1, n_rounds + 1)]
    kept = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
    records = [AnnotationRecord("t", item, ann, rnd, draw(st.sampled_from("xyz")))
               for item, ann, rnd in kept]
    return validate_dataset(records, ALPHA_SCHEMA)


@settings(max_examples=400, deadline=None)
@given(sparse_round_sets(), st.sampled_from(ALPHA_ROUNDS),
       st.sampled_from((None,) + DISTANCES), st.data())
def test_alpha_gather_equals_alpha_of_rebuilt_replicate(aset, rounds, distance, data):
    items = aset.items()
    positions = data.draw(st.lists(st.integers(0, len(items) - 1), min_size=1,
                                   max_size=3 * len(items) + 3))
    call = MetricCall("krippendorff_alpha", rounds, {"distance": distance})
    gathered = METRICS["krippendorff_alpha"].gather(aset, call)
    rebuilt = resample_items(aset, [items[i] for i in positions])
    try:
        expected = krippendorff_alpha(rebuilt, rounds, distance).value
    except DegenerateError:
        with pytest.raises(DegenerateError):
            gathered(np.array(positions))
        return
    assert gathered(np.array(positions)) == expected


#: i0 is labelled in round 2 only, i1 mostly in round 1: a rebuilt replicate
#: of draws (i0 x 4, i1 x 2) pools the i1 copies first, and summing the
#: blocks in draw order instead changes alpha in its last bits
ORDER_SENSITIVE = [("i0", "p", 2, "x"), ("i0", "r", 2, "y"), ("i0", "s", 2, "y"),
                   ("i0", "t", 2, "y"), ("i1", "p", 2, "y"), ("i1", "r", 1, "z"),
                   ("i1", "s", 1, "x"), ("i1", "t", 1, "x")]


def _order_sensitive_set():
    return validate_dataset([AnnotationRecord("t", *rec) for rec in ORDER_SENSITIVE],
                            LabelSchema("t", ("x", "y", "z")))


def test_alpha_gather_adds_blocks_in_lowest_round_order():
    aset = _order_sensitive_set()
    positions = np.array([0, 0, 0, 0, 1, 1])
    expected = krippendorff_alpha(resample_items(aset, ["i0"] * 4 + ["i1"] * 2), (1, 2)).value
    call = MetricCall("krippendorff_alpha", (1, 2))
    assert METRICS["krippendorff_alpha"].gather(aset, call)(positions) == expected
    items, _, blocks = coincidence_blocks(aset, (1, 2))
    block = dict(zip(items.tolist(), blocks))
    in_draw_order = np.add.reduce(np.stack([block[i] for i in positions]), axis=0)
    assert alpha_from_coincidence(aset.schema, in_draw_order) != expected


def test_compare_reliability_measures_replicates_on_the_sources_first_round():
    # i0 has round 2 only, so a replicate that draws it twice has no label in
    # round 1, the source's first: it is degenerate and dropped
    aset = _order_sensitive_set()
    items = aset.items()

    def alpha(*key):
        drawn = [items[i] for i in draw_positions(len(items), *key).tolist()]
        return krippendorff_alpha(resample_items(aset, drawn), 1).value

    values = []
    for r in range(200):
        try:
            values.append(alpha(3, r, 0) - alpha(3, r, 1))
        except DegenerateError:
            pass
    assert 0 < 200 - len(values) <= 100
    low, high = np.percentile(values, [25.0, 75.0])
    assert compare_reliability(aset, aset, 200, 3, confidence=0.5) == (
        0.0, (min(low, 0.0), max(high, 0.0)))


def test_resample_unknown_item_names_it():
    aset = make_set({"a": ["x", "y"], "b": ["x", "x"]})
    with pytest.raises(InvalidConfigError, match="'i7'"):
        resample_items(aset, ["i0", "i7"])


#: an interval scale, so every kernel and every alpha distance applies
KERNEL_SCHEMA = LabelSchema("t", ("x", "y", "z"), "interval", {"x": 1.0, "y": 2.0, "z": 4.0})
#: round selectors; round 5 is one no set has
KERNEL_ROUNDS = (None, 1, 2, (1, 2), (2, 3, 4), (1, 5), 5)


@st.composite
def shuffled_kernel_records(draw):
    """Records of a 1-4-round set with missing cells, in random order, with
    an item ``a~1`` that a resampled ``a`` would be named."""
    n_rounds = draw(st.integers(1, 4))
    items = draw(st.lists(st.sampled_from(ITEM_POOL + ("d", "e")), min_size=1, max_size=6,
                          unique=True))
    annotators = "pqrstu"[:draw(st.integers(2, 6))]
    cells = [(item, ann, rnd) for item in items for ann in annotators
             for rnd in range(1, n_rounds + 1)]
    kept = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
    return [AnnotationRecord("t", item, ann, rnd, draw(st.sampled_from("xyz")))
            for item, ann, rnd in kept]


def _population(units: dict) -> tuple[int, int]:
    return len({item for item, _ in units}), len({ann for unit in units.values() for ann in unit})


def _ordinal_delta2(pairable: list[str]):
    """Krippendorff's ordinal distance over the pairable values' counts."""
    counts = [pairable.count(c) for c in KERNEL_SCHEMA.categories]
    rank = {c: i for i, c in enumerate(KERNEL_SCHEMA.categories)}

    def delta2(a, b):
        lo, hi = sorted((rank[a], rank[b]))
        return (sum(counts[lo:hi + 1]) - (counts[lo] + counts[hi]) / 2) ** 2

    return delta2


def _expect(compute, oracle, population, exclusions, degenerate=ChanceDegenerateError):
    """``compute()`` matches ``oracle()`` to 1e-12 with the given population
    and exclusions, or raises ``degenerate`` where the oracle refuses."""
    try:
        expected = oracle()
    except ValueError:
        with pytest.raises(degenerate):
            compute()
        return
    result = compute()
    assert result.value == pytest.approx(expected, abs=1e-12)
    assert (result.n_items, result.n_annotators) == population
    assert result.exclusions == tuple(exclusions)


@given(shuffled_kernel_records())
def test_kernels_match_oracles_and_record_recount(records):
    aset = validate_dataset(records, KERNEL_SCHEMA)
    labels = {(r.item_id, r.annotator_id, r.round): r.label for r in records}
    items = sorted({r.item_id for r in records})
    for rounds in KERNEL_ROUNDS:
        resolved = resolve_rounds(aset, rounds)
        units: dict = {}
        for (item, ann, rnd), label in labels.items():
            if rnd in resolved:
                units.setdefault((item, rnd), {})[ann] = label
        units = dict(sorted(units.items()))
        contributing = {key: unit for key, unit in units.items() if len(unit) >= 2}
        notes = [f"item {item!r} round {rnd}: fewer than 2 labels"
                 for (item, rnd), unit in units.items() if len(unit) < 2]
        if not contributing:
            for kernel in (percent_agreement, fleiss_kappa):
                with pytest.raises(DegenerateError):
                    kernel(aset, rounds)
        else:
            _expect(lambda: percent_agreement(aset, rounds),
                    lambda: brute_percent_agreement([list(u.values())
                                                     for u in contributing.values()]),
                    _population(contributing), notes)
            sizes = Counter(len(unit) for unit in contributing.values())
            modal = max(sizes, key=lambda m: (sizes[m], m))
            kept = {key: unit for key, unit in contributing.items() if len(unit) == modal}
            _expect(lambda: fleiss_kappa(aset, rounds),
                    lambda: brute_fleiss_kappa([list(u.values()) for u in kept.values()]),
                    _population(kept),
                    notes + [f"item {item!r} round {rnd}: {len(unit)} labels != modal count {modal}"
                             for (item, rnd), unit in contributing.items() if len(unit) != modal])

        pooled: dict = {}
        for (item, rnd), unit in units.items():
            pooled.setdefault(item, []).extend(unit.values())
        pairable = {item: pool for item, pool in pooled.items() if len(pool) >= 2}
        annotators = {ann for (item, _), unit in units.items() if item in pairable
                      for ann in unit}
        values = KERNEL_SCHEMA.numeric_values
        for distance, delta2 in (
            ("nominal", None),
            ("ordinal", _ordinal_delta2([v for pool in pairable.values() for v in pool])),
            ("interval", lambda a, b: (values[a] - values[b]) ** 2),
        ):
            if not pairable:
                with pytest.raises(DegenerateError):
                    krippendorff_alpha(aset, rounds, distance)
                continue
            _expect(lambda: krippendorff_alpha(aset, rounds, distance),
                    lambda: brute_krippendorff_alpha(list(pairable.values()), delta2),
                    (len(pairable), len(annotators)),
                    [f"item {item!r}: fewer than 2 labels in selected rounds"
                     for item in sorted(pooled) if item not in pairable])

        pairs, paired_items, one_sided = [], set(), []
        for rnd in resolved:
            for item in items:
                a, b = labels.get((item, "p", rnd)), labels.get((item, "q", rnd))
                if a is not None and b is not None:
                    pairs.append((a, b))
                    paired_items.add(item)
                elif a is not None or b is not None:
                    one_sided.append(f"item {item!r} round {rnd}: labelled by one annotator only")
        if not pairs:
            with pytest.raises(NoOverlapError):
                cohens_kappa(aset, "p", "q", rounds)
        else:
            _expect(lambda: cohens_kappa(aset, "p", "q", rounds),
                    lambda: brute_cohens_kappa([a for a, _ in pairs], [b for _, b in pairs]),
                    (len(paired_items), 2), one_sided)

        if len(resolved) != 1:
            with pytest.raises(InvalidConfigError):
                icc(aset, rounds)
            continue
        (rnd,) = resolved
        raters = sorted({ann for (_, ann, r) in labels if r == rnd})
        rows, incomplete = [], []
        for item in items:
            row = [labels.get((item, ann, rnd)) for ann in raters]
            if None not in row:
                rows.append([values[label] for label in row])
            elif any(label is not None for label in row):
                incomplete.append(f"item {item!r}: incomplete annotator coverage")
        for model, oracle in (("oneway_random", brute_icc_oneway),
                              ("twoway_random_single", brute_icc_twoway)):
            if len(raters) < 2 or len(rows) < 2:
                with pytest.raises(DegenerateError):
                    icc(aset, rounds, model)
                continue
            _expect(lambda: icc(aset, rounds, model), lambda: oracle(rows),
                    (len(rows), len(raters)), incomplete, InsufficientVarianceError)


def test_kernels_leave_only_schema_and_codes():
    aset = make_rounds({"a": {1: ["x", "y"], 2: ["x", "x"]}, "b": {1: ["x", "x"]}},
                       scale="interval", numeric_values={"x": 0.0, "y": 1.0})
    for name, metric in METRICS.items():
        options = {"annotator_a": "a", "annotator_b": "b"} if name == "cohens_kappa" else {}
        metric.kernel(aset, 1, **options)
    resample_items(aset, ["i0", "i0"])
    assert set(vars(aset)) == {"schema", "codes"}


@settings(max_examples=300)
@given(sparse_sets() | shuffled_kernel_records().map(
    lambda records: validate_dataset(records, KERNEL_SCHEMA)), st.data())
def test_resample_gathers_the_codes_of_a_record_level_rebuild(aset, data):
    """Every code of a gathered replicate and every registered metric on it
    equal those of the replicate rebuilt record by record; ICC runs on the
    nominal sets under an interval schema."""
    ids = data.draw(st.lists(st.sampled_from(aset.items()), max_size=12))
    gathered, rebuilt = resample_items(aset, ids), brute_resample(aset, ids)
    for field in fields(ColumnCodes):
        mine, theirs = getattr(gathered.codes, field.name), getattr(rebuilt.codes, field.name)
        if isinstance(theirs, np.ndarray):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs, equal_nan=True), field.name
        else:
            assert mine == theirs, field.name
    assert gathered == rebuilt
    interval = LabelSchema("t", ("x", "y"), "interval", {"x": 0.0, "y": 1.0})
    for name in METRICS:
        options = {"annotator_a": "p", "annotator_b": "q"} if name == "cohens_kappa" else {}
        nominal_icc = name.startswith("icc") and aset.schema.scale_kind == "nominal"
        mine, theirs = (replace(s, schema=interval if nominal_icc else aset.schema)
                        for s in (gathered, rebuilt))
        for rounds in (1, None, 2):
            call = MetricCall(name, rounds, options)
            assert _outcome(lambda: call(mine)) == _outcome(lambda: call(theirs))
