import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from relistab import (
    AnnotationRecord,
    LabelSchema,
    annotator_stability,
    build_repeat_pairs,
    dataset_stability,
    interval_profile,
    item_stability_labels,
    items_without_repeats,
    repeat_table,
    resample_items,
    validate_dataset,
)
from relistab.core import PAIRING_POLICIES
from relistab.errors import (
    InvalidConfigError,
    NoIntervalsError,
    NoRepeatsError,
    RelistabError,
    TooFewBucketsError,
    ValidationError,
)
from relistab.stability import DEFAULT_BUCKET_EDGES, _ranks

from conftest import make_rounds, timed_pairs
from oracles import brute_average_ranks, brute_spearman, brute_trend_p


class TestSelfAgreement:
    def test_two_thirds(self):
        aset = make_rounds({"a": {1: ["x", "y", "x"], 2: ["x", "y", "y"]}})
        (result,) = annotator_stability(aset)
        assert result.exact_rate == pytest.approx(2 / 3, abs=1e-9)
        assert result.n_pairs == 3
        assert result.scope == "annotator" and result.subject_id == "a"

    def test_identical_rounds(self):
        aset = make_rounds({"a": {1: ["x", "y"], 2: ["x", "y"]}})
        (result,) = annotator_stability(aset)
        assert result.exact_rate == 1.0 and result.self_kappa == 1.0

    def test_self_kappa_half(self):
        aset = make_rounds({"a": {1: ["x", "x", "y", "y"], 2: ["x", "x", "y", "x"]}})
        (result,) = annotator_stability(aset)
        assert result.self_kappa == pytest.approx(0.5, abs=1e-9)

    def test_no_repeats_for_annotator(self):
        aset = make_rounds({"a": {1: ["x"], 2: ["x"]}, "b": {1: ["y"]}})
        # b has no repeat pair, so no result
        assert [(r.subject_id, r.n_pairs) for r in annotator_stability(aset)] == [("a", 1)]

    def test_first_last_equals_consecutive_on_two_rounds(self):
        aset = make_rounds({"a": {1: ["x", "y", "x"], 2: ["x", "x", "x"]}})
        assert (annotator_stability(aset, "first_last")
                == annotator_stability(aset, "consecutive"))


def test_annotator_stability_matches_individual_calls():
    aset = make_rounds({
        "a": {1: ["x", "y", "x"], 2: ["x", "y", "y"]},
        "b": {1: ["x", "y"], 2: ["x", "y"]},
    })
    batch = annotator_stability(aset)
    assert [r.subject_id for r in batch] == ["a", "b"]
    # each annotator's result is the one their records alone give
    alone = [validate_dataset([r for r in aset.records if r.annotator_id == a], aset.schema)
             for a in "ab"]
    assert batch == [annotator_stability(only)[0] for only in alone]


class TestItemStability:
    def test_all_or_nothing(self):
        aset = make_rounds({
            "a": {1: ["x", "x", "x"], 2: ["x", "y", "x"]},
            "b": {1: ["x", "x", None], 2: ["x", "x", None]},
        })
        labels = {r.item_id: r for r in item_stability_labels(aset)}
        assert labels["i0"].stable and labels["i0"].stability_rate == 1.0
        assert not labels["i1"].stable
        assert labels["i1"].stability_rate == 0.5
        assert labels["i1"].n_annotators_repeating == 2
        # i2 repeats for a only
        assert labels["i2"].stable and labels["i2"].n_annotators_repeating == 1

    def test_items_without_repeats_excluded(self):
        aset = make_rounds({"a": {1: ["x", "x"], 2: ["x", None]}})
        labels = item_stability_labels(aset)
        assert [r.item_id for r in labels] == ["i0"]
        assert items_without_repeats(aset) == ("i1",)

    def test_no_item_repeats(self):
        aset = make_rounds({"a": {1: ["x"]}, "b": {1: ["y"]}})
        with pytest.raises(NoRepeatsError):
            item_stability_labels(aset)

    def test_report_shape(self):
        aset = make_rounds({"a": {1: ["x"], 2: ["y"]}})
        (label,) = item_stability_labels(aset)
        assert label.to_report() == {
            "item_id": "i0",
            "stability": "unstable",
            "stability_rate": 0.0,
            "n_annotators_repeating": 1,
        }


class TestDatasetStability:
    def test_pooled_three_quarters(self):
        # a: 2/2 consistent, b: 1/2 -> pooled 3/4
        aset = make_rounds({
            "a": {1: ["x", "y"], 2: ["x", "y"]},
            "b": {1: ["x", "y"], 2: ["x", "x"]},
        })
        result = dataset_stability(aset)
        assert result.exact_rate == pytest.approx(0.75, abs=1e-9)
        assert result.n_pairs == 4
        assert result.scope == "dataset" and result.subject_id is None

    def test_self_kappa_is_mean_over_defined(self):
        aset = make_rounds({
            "a": {1: ["x", "x", "y", "y"], 2: ["x", "x", "y", "x"]},
            "b": {1: ["x", "y"], 2: ["x", "y"]},
        })
        expected = (0.5 + 1.0) / 2
        assert dataset_stability(aset).self_kappa == pytest.approx(expected, abs=1e-9)

    def test_no_repeats(self):
        aset = make_rounds({"a": {1: ["x"]}})
        with pytest.raises(NoRepeatsError):
            dataset_stability(aset)


rounds_grids = st.lists(
    st.tuples(st.sampled_from("xy"), st.sampled_from("xy")),
    min_size=1, max_size=8,
)


@given(st.lists(rounds_grids, min_size=1, max_size=4))
def test_dataset_rate_one_iff_every_item_stable(per_annotator):
    records = []
    for j, cells in enumerate(per_annotator):
        for i, (l1, l2) in enumerate(cells):
            records.append(AnnotationRecord("t", f"i{i}", f"a{j}", 1, l1))
            records.append(AnnotationRecord("t", f"i{i}", f"a{j}", 2, l2))
    aset = validate_dataset(records, LabelSchema("t", ("x", "y")))
    rate = dataset_stability(aset).exact_rate
    labels = item_stability_labels(aset)
    assert (rate == 1.0) == all(r.stable for r in labels)


@given(st.lists(rounds_grids, min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_item_labels_invariant_to_record_order(per_annotator, rnd):
    records = []
    for j, cells in enumerate(per_annotator):
        for i, (l1, l2) in enumerate(cells):
            records.append(AnnotationRecord("t", f"i{i}", f"a{j}", 1, l1))
            records.append(AnnotationRecord("t", f"i{i}", f"a{j}", 2, l2))
    schema = LabelSchema("t", ("x", "y"))
    base = item_stability_labels(validate_dataset(records, schema))
    shuffled = records[:]
    rnd.shuffle(shuffled)
    assert item_stability_labels(validate_dataset(shuffled, schema)) == base


def test_monotone_damage():
    rounds = {
        "a": {1: ["x", "y", "x"], 2: ["x", "y", "x"]},
        "b": {1: ["x", "y"], 2: ["x", "x"]},
    }
    before_ann = annotator_stability(make_rounds(rounds))[0]
    before_data = dataset_stability(make_rounds(rounds))
    damaged = {**rounds, "a": {1: ["x", "y", "x"], 2: ["x", "y", "y"]}}
    after_ann = annotator_stability(make_rounds(damaged))[0]
    after_data = dataset_stability(make_rounds(damaged))
    assert before_ann.subject_id == after_ann.subject_id == "a"
    assert after_ann.exact_rate < before_ann.exact_rate
    assert after_data.exact_rate <= before_data.exact_rate


class TestIntervalProfile:
    def test_decreasing_profile(self):
        pairs = timed_pairs([60.0] * 5 + [7200.0] * 5 + [100_000.0] * 5,
                            [True] * 9 + [False] + [True] * 3 + [False] * 2)
        profile = interval_profile(pairs)
        assert [b.exact_rate for b in profile.buckets] == [1.0, 0.8, 0.6]
        assert [b.n_pairs for b in profile.buckets] == [5, 5, 5]
        assert profile.trend_rho == -1.0
        assert profile.trend_p is None

    def test_flat_profile_zero_trend(self):
        profile = interval_profile(timed_pairs([60.0] * 3 + [7200.0] * 3, [True] * 6))
        assert profile.trend_rho == 0.0

    def test_bucket_bounds_follow_edges(self):
        pairs = timed_pairs([10.0, 3600.0], [True, False])
        profile = interval_profile(pairs)
        # an interval exactly at an edge belongs to the next bucket
        assert [(b.low, b.high) for b in profile.buckets] == [
            (0.0, 3600.0), (3600.0, 86400.0)]

    def test_open_last_bucket_reports_null_high(self):
        pairs = timed_pairs([60.0, 1e9], [True, False])
        profile = interval_profile(pairs)
        assert math.isinf(profile.buckets[-1].high)
        assert profile.buckets[-1].to_report()["high"] is None

    def test_no_intervals(self):
        with pytest.raises(NoIntervalsError):
            interval_profile(timed_pairs([math.nan, math.nan], [True, False]))

    def test_negative_interval_refused(self):
        with pytest.raises(ValidationError, match="non-negative"):
            interval_profile(timed_pairs([60.0, -1.0, 7200.0], [True] * 3))

    def test_too_few_buckets(self):
        with pytest.raises(TooFewBucketsError):
            interval_profile(timed_pairs([60.0, 61.0], [True, False]))

    def test_bad_edges(self):
        pairs = timed_pairs([60.0], [True])
        with pytest.raises(InvalidConfigError):
            interval_profile(pairs, bucket_edges=(0.0, 60.0))
        with pytest.raises(InvalidConfigError):
            interval_profile(pairs, bucket_edges=(60.0, 60.0))
        for edges in [(float("nan"), 60.0), (60.0, float("inf"))]:
            with pytest.raises(InvalidConfigError):
                interval_profile(pairs, bucket_edges=edges)

    def test_permutation_p_deterministic_and_small_for_strong_trend(self):
        # five strictly decreasing buckets: a permuted profile is this
        # monotone with probability well under 2/5!
        consistent_of_8 = {60.0: 8, 7200.0: 6, 100_000.0: 4, 1e6: 2, 1e7: 0}
        pairs = timed_pairs([interval for interval in consistent_of_8 for _ in range(8)],
                            [i < k for k in consistent_of_8.values() for i in range(8)])
        one = interval_profile(pairs, seed=5, permutation_replicates=400)
        two = interval_profile(pairs, seed=5, permutation_replicates=400)
        assert one == two
        assert one.trend_rho == pytest.approx(-1.0, abs=1e-12)
        assert one.trend_p < 0.05

    def test_permutation_p_large_when_no_signal(self):
        pairs = timed_pairs([60.0] * 20 + [7200.0] * 20, ([True] * 10 + [False] * 10) * 2)
        profile = interval_profile(pairs, seed=5, permutation_replicates=200)
        assert profile.trend_p > 0.2

    def test_custom_edges(self):
        pairs = timed_pairs([5.0, 50.0, 500.0], [True, True, False])
        profile = interval_profile(pairs, bucket_edges=(10.0, 100.0))
        assert [b.n_pairs for b in profile.buckets] == [1, 1, 1]

    def test_default_edges_span_hour_day_week_month(self):
        assert DEFAULT_BUCKET_EDGES == (3600.0, 86400.0, 604800.0, 2592000.0)


#: one interval inside each default bucket, in bucket order
BUCKET_INTERVALS = (60.0, 7200.0, 100_000.0, 1e6, 1e7)


def bucketed_pairs(flags_by_bucket):
    """Timed pairs holding each list of flags in its own default bucket."""
    return timed_pairs([BUCKET_INTERVALS[b] for b, flags in enumerate(flags_by_bucket)
                        for _ in flags], sum(flags_by_bucket, []))


@given(st.data(), st.integers(0, 2**32), st.integers(1, 30))
def test_trend_p_matches_the_permutation_oracle(data, seed, replicates):
    chosen = data.draw(st.lists(st.sampled_from(range(5)), min_size=1, max_size=4,
                                unique=True).map(sorted))
    drawn = [(BUCKET_INTERVALS[b], flag) for b in chosen
             for flag in data.draw(st.lists(st.booleans(), min_size=1, max_size=6))]
    drawn = data.draw(st.permutations(drawn))
    pairs = timed_pairs([interval for interval, _ in drawn], [flag for _, flag in drawn])
    if len(chosen) < 2:
        with pytest.raises(TooFewBucketsError):
            interval_profile(pairs, seed=seed, permutation_replicates=replicates)
        return
    # flags grouped by bucket, in pair order within a bucket
    flags_by_bucket = [[flag for interval, flag in drawn if interval == BUCKET_INTERVALS[b]]
                       for b in chosen]
    profile = interval_profile(pairs, seed=seed, permutation_replicates=replicates)
    assert profile.trend_p == brute_trend_p(flags_by_bucket, seed, replicates)
    rates = [sum(flags) / len(flags) for flags in flags_by_bucket]
    assert profile.trend_rho == pytest.approx(
        brute_spearman(list(range(len(chosen))), rates), abs=1e-12)


class TestTrendWithoutDrawing:
    #: 3/3 pairs, one consistent: 1 * 3 / 6 is not whole, so the rates never tie
    UNTIEABLE = [[True, False, False], [False, False, False]]
    #: 2/2 pairs, two consistent: a shuffle with one in each bucket ties
    TIEABLE = [[True, True], [False, False]]
    #: three buckets at rate 1/2: rho is 0
    LEVEL = [[True, False], [False, True], [True, False]]

    def test_untieable_two_buckets_give_one(self):
        profile = interval_profile(bucketed_pairs(self.UNTIEABLE), seed=3,
                                   permutation_replicates=50)
        assert profile.trend_rho == -1.0
        assert profile.trend_p == 1.0 == brute_trend_p(self.UNTIEABLE, 3, 50)

    def test_tieable_two_buckets_run_the_loop(self):
        profile = interval_profile(bucketed_pairs(self.TIEABLE), seed=3,
                                   permutation_replicates=50)
        assert profile.trend_p == brute_trend_p(self.TIEABLE, 3, 50) < 1.0

    def test_equal_rates_give_one(self):
        profile = interval_profile(bucketed_pairs(self.LEVEL), seed=3, permutation_replicates=50)
        assert profile.trend_rho == 0.0
        assert profile.trend_p == 1.0 == brute_trend_p(self.LEVEL, 3, 50)

    def test_only_a_possible_tie_draws(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("drew a shuffle")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert interval_profile(bucketed_pairs(self.UNTIEABLE), seed=3).trend_p == 1.0
        assert interval_profile(bucketed_pairs(self.LEVEL), seed=3).trend_p == 1.0
        with pytest.raises(RuntimeError, match="drew a shuffle"):
            interval_profile(bucketed_pairs(self.TIEABLE), seed=3)


@given(st.lists(st.one_of(st.sampled_from([-1.5, -0.0, 0.0, 0.5, 1.0, math.inf, -math.inf]),
                          st.floats(allow_nan=False)), max_size=12))
def test_ranks_equal_the_tie_loop(values):
    assert _ranks(np.array(values, dtype=float)).tolist() == brute_average_ranks(values)


def test_profile_from_simulated_timestamps():
    aset = make_rounds(
        {"a": {1: ["x", "x"], 2: ["x", "y"], 3: ["y", "y"]}},
        timestamps={1: 0.0, 2: 1800.0, 3: 1800.0 + 7200.0},
    )
    profile = interval_profile(build_repeat_pairs(aset))
    assert [b.n_pairs for b in profile.buckets] == [2, 2]
    assert [b.exact_rate for b in profile.buckets] == [0.5, 0.5]


@st.composite
def repeat_sets(draw):
    """A validated set of 2-5 rounds with missing cells, an item ``a~1`` that
    a duplicate id can collide with, per-round stamps or none, and some
    annotators who only ever give one label (chance-degenerate self-kappa)."""
    n_rounds = draw(st.integers(2, 5))
    items = draw(st.lists(st.sampled_from(("a", "b", "a~1", "c")),
                          min_size=1, max_size=4, unique=True))
    alphabet = {ann: draw(st.sampled_from(("x", "xy", "xyz"))) for ann in ("p", "q", "r")}
    cells = [(item, ann, rnd) for item in items for ann in alphabet
             for rnd in range(1, n_rounds + 1)]
    kept = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
    stamped = draw(st.booleans())
    records = [
        AnnotationRecord("t", item, ann, rnd, draw(st.sampled_from(alphabet[ann])),
                         rnd * 3600.0 if stamped else None)
        for item, ann, rnd in kept
    ]
    return validate_dataset(records, LabelSchema("t", ("x", "y", "z")))


def outcome(fn):
    """fn()'s value, or the type of the RelistabError it raised."""
    try:
        return fn()
    except RelistabError as exc:
        return type(exc)


@given(repeat_sets(), st.sampled_from(PAIRING_POLICIES), st.data())
def test_reweighted_table_equals_resampled_set(aset, pairing, data):
    try:
        table = repeat_table(aset, build_repeat_pairs(aset, pairing))
    except NoRepeatsError:
        assume(False)
    items = aset.items()
    drawn = data.draw(st.lists(st.integers(0, len(items) - 1),
                               min_size=1, max_size=3 * len(items) + 3))
    weighted = table.reweighted(np.bincount(drawn, minlength=len(items)))
    resampled = resample_items(aset, [items[i] for i in drawn])
    # exact equality: every number is a ratio of the same integer counts
    assert outcome(lambda: dataset_stability(weighted)) == outcome(
        lambda: dataset_stability(resampled, pairing))
    assert outcome(lambda: annotator_stability(weighted)) == outcome(
        lambda: annotator_stability(resampled, pairing))


def test_table_counts_pairs_per_item_annotator_and_labels():
    aset = make_rounds({
        "a": {1: ["x", "y", "x"], 2: ["x", "y", "y"], 3: ["x", "x", "y"]},
        "b": {1: ["x", None, "y"], 2: ["x", None, "y"]},
    })
    table = repeat_table(aset, build_repeat_pairs(aset, "all_pairs"))
    assert table.items == ("i0", "i1", "i2") and table.annotators == ("a", "b")
    x, y = (aset.schema.categories.index(c) for c in "xy")

    def row(item, annotator, first, second, count):
        return item, (annotator * 2 + first) * 2 + second, count

    assert list(zip(table.item.tolist(), table.joint.tolist(), table.count.tolist())) == [
        row(0, 0, x, x, 3), row(0, 1, x, x, 1),
        row(1, 0, y, x, 2), row(1, 0, y, y, 1),
        row(2, 0, x, y, 2), row(2, 0, y, y, 1), row(2, 1, y, y, 1),
    ]
    assert dataset_stability(table) == dataset_stability(aset, "all_pairs")
    assert annotator_stability(table) == annotator_stability(aset, "all_pairs")


def test_self_kappa_mean_follows_first_appearance_order():
    # np.mean sums in list order, and these three kappas give a different last
    # bit in a different order. c's first pair (item i0) comes before a's and
    # b's (i1), so the set averages c, a, b; a replicate without i0 reaches
    # all three at i1 and averages them in id order, a, b, c.
    aset = make_rounds({
        "a": {1: [None, "x", "y", None], 2: [None, "y", "x", None]},
        "b": {1: [None, "x", "y", None], 2: [None, "y", "x", None]},
        "c": {1: ["y", "x", "y", "y"], 2: ["y", "y", "x", "y"]},
    })
    kappa = {r.subject_id: r.self_kappa for r in annotator_stability(aset)}
    first_seen = float(np.mean([kappa["c"], kappa["a"], kappa["b"]]))
    by_id = float(np.mean([kappa["a"], kappa["b"], kappa["c"]]))
    assert first_seen != by_id
    assert dataset_stability(aset).self_kappa == first_seen
    table = repeat_table(aset, build_repeat_pairs(aset))
    drawn = [1, 2, 3, 3]
    replicate = dataset_stability(table.reweighted(np.bincount(drawn, minlength=4)))
    assert replicate == dataset_stability(resample_items(aset, [f"i{i}" for i in drawn]))
    assert replicate.self_kappa == by_id
