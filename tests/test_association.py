import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import relistab.association
import relistab.core
import relistab.stability
from relistab import reliability

from oracles import brute_resample, pearson_phi
from relistab import (
    ContingencyTable,
    RationalisationRecord,
    SimConfig,
    build_contingency,
    compare_item_scores,
    compare_reliability,
    compare_stability,
    dataset_stability,
    interval_profile,
    permutation_p,
    phi,
    resolve_rationalisation,
    simulate,
)
from relistab.association import (
    PHI_CONVENTION,
    RESOLVED_AMBIGUOUS_DIFFICULT,
    RESOLVED_SUBJECTIVE,
    AssociationResult,
)
from relistab.errors import (
    EmptyInputError,
    InvalidConfigError,
    NoOverlapError,
    ValidationError,
    ZeroMarginError,
)
from relistab.reliability import draw_positions, percentile_ci
from relistab.simulator import CAUSES
from relistab.stability import ItemStabilityLabel

from conftest import make_rounds, timed_pairs


def rebuilt_draw(aset, *key):
    """The replicate of ``aset`` for ``key``, rebuilt record by record."""
    items = aset.items()
    return brute_resample(aset, [items[i] for i in draw_positions(len(items), *key)])


def stab(item, stable, n=1):
    return ItemStabilityLabel(item, "stable" if stable else "unstable", n,
                              1.0 if stable else 0.0)


tables = st.tuples(st.integers(0, 30), st.integers(0, 30),
                   st.integers(0, 30), st.integers(0, 30))


def positive_margin(t):
    a, b, c, d = t
    return min(a + b, c + d, a + c, b + d) > 0


class TestRationalisationRecord:
    def test_valid_labels(self):
        for label in ("subjective", "ambiguous", "difficult"):
            assert RationalisationRecord("i0", "r", label).label == label

    def test_invalid_label(self):
        with pytest.raises(ValidationError):
            RationalisationRecord("i0", "r", "hard")


class TestResolveRationalisation:
    def test_majority_with_collapse(self):
        records = [
            RationalisationRecord("i0", "r1", "subjective"),
            RationalisationRecord("i0", "r2", "subjective"),
            RationalisationRecord("i0", "r3", "difficult"),
            RationalisationRecord("i1", "r1", "ambiguous"),
            RationalisationRecord("i1", "r2", "difficult"),
            RationalisationRecord("i1", "r3", "subjective"),
        ]
        resolved, ties = resolve_rationalisation(records)
        assert resolved == {"i0": RESOLVED_SUBJECTIVE,
                            "i1": RESOLVED_AMBIGUOUS_DIFFICULT}
        assert ties == ()

    def test_exact_tie_excluded(self):
        records = [
            RationalisationRecord("i0", "r1", "subjective"),
            RationalisationRecord("i0", "r2", "ambiguous"),
            RationalisationRecord("i1", "r1", "difficult"),
        ]
        resolved, ties = resolve_rationalisation(records)
        assert ties == ("i0",)
        assert resolved == {"i1": RESOLVED_AMBIGUOUS_DIFFICULT}

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            resolve_rationalisation([])


class TestBuildContingency:
    def test_counts(self):
        stability = [stab("i0", True), stab("i1", True), stab("i2", False),
                     stab("i3", False), stab("i4", True)]
        rationalisation = {
            "i0": RESOLVED_SUBJECTIVE,
            "i1": RESOLVED_AMBIGUOUS_DIFFICULT,
            "i2": RESOLVED_SUBJECTIVE,
            "i3": RESOLVED_AMBIGUOUS_DIFFICULT,
            # i4 missing -> not counted
        }
        table = build_contingency(stability, rationalisation)
        assert (table.a, table.b, table.c, table.d) == (1, 1, 1, 1)
        assert table.total == 4

    def test_total_is_intersection_size(self):
        stability = [stab(f"i{k}", k % 2 == 0) for k in range(6)]
        rationalisation = {f"i{k}": RESOLVED_SUBJECTIVE for k in range(3, 9)}
        table = build_contingency(stability, rationalisation)
        assert table.total == 3  # i3, i4, i5

    def test_no_overlap(self):
        with pytest.raises(NoOverlapError):
            build_contingency([stab("i0", True)], {"other": RESOLVED_SUBJECTIVE})


class TestPhi:
    def test_diagonal_table_is_minus_one(self):
        assert phi(ContingencyTable(10, 0, 0, 10)).phi == -1.0

    def test_antidiagonal_table_is_plus_one(self):
        assert phi(ContingencyTable(0, 10, 10, 0)).phi == 1.0

    def test_independent_table_is_zero(self):
        assert phi(ContingencyTable(5, 5, 5, 5)).phi == 0.0

    def test_zero_margin(self):
        with pytest.raises(ZeroMarginError):
            phi(ContingencyTable(0, 0, 5, 5))

    def test_report_carries_convention(self):
        report = phi(ContingencyTable(1, 2, 3, 4), n_excluded_ties=2).to_report()
        assert report["convention"] == PHI_CONVENTION
        assert report["excluded_ties"] == 2
        assert report["table"] == {"a": 1, "b": 2, "c": 3, "d": 4}
        assert report["p_value"] is None

    def test_result_range_guard(self):
        with pytest.raises(InvalidConfigError):
            AssociationResult(phi=1.5, p_value=None, table=ContingencyTable(1, 1, 1, 1))

    @given(tables)
    def test_magnitude_matches_pearson(self, t):
        assume(positive_margin(t))
        value = phi(ContingencyTable(*t)).phi
        assert abs(value) == pytest.approx(abs(pearson_phi(t)), abs=1e-9)

    @given(tables)
    def test_single_swap_negates_double_swap_preserves(self, t):
        assume(positive_margin(t))
        a, b, c, d = t
        base = phi(ContingencyTable(a, b, c, d)).phi
        assert phi(ContingencyTable(c, d, a, b)).phi == pytest.approx(-base, abs=1e-12)
        assert phi(ContingencyTable(b, a, d, c)).phi == pytest.approx(-base, abs=1e-12)
        assert phi(ContingencyTable(d, c, b, a)).phi == pytest.approx(base, abs=1e-12)

    @given(tables)
    def test_transpose_invariant(self, t):
        assume(positive_margin(t))
        a, b, c, d = t
        base = phi(ContingencyTable(a, b, c, d)).phi
        assert phi(ContingencyTable(a, c, b, d)).phi == pytest.approx(base, abs=1e-12)


class TestPermutationP:
    def test_requires_seed(self):
        with pytest.raises(InvalidConfigError):
            permutation_p(ContingencyTable(5, 5, 5, 5))

    def test_deterministic(self):
        table = ContingencyTable(8, 2, 3, 7)
        assert (permutation_p(table, replicates=2000, seed=11)
                == permutation_p(table, replicates=2000, seed=11))

    def test_extreme_table_small_p(self):
        p = permutation_p(ContingencyTable(10, 0, 0, 10), replicates=10_000, seed=1)
        assert p < 0.01

    def test_independent_table_p_one(self):
        assert permutation_p(ContingencyTable(5, 5, 5, 5), replicates=500, seed=1) == 1.0

    def test_zero_margin(self):
        with pytest.raises(ZeroMarginError):
            permutation_p(ContingencyTable(3, 3, 0, 0), replicates=10, seed=1)

    @given(tables, st.integers(0, 2**31 - 1))
    def test_p_in_unit_interval(self, t, seed):
        assume(positive_margin(t))
        p = permutation_p(ContingencyTable(*t), replicates=50, seed=seed)
        assert 0.0 < p <= 1.0


#: every resampling entry point, called with the seed under test; the
#: interval profile is two 3/3 buckets whose rates cannot tie (p is 1
#: without drawing)
SEEDED_ENTRY_POINTS = {
    "percentile_ci": lambda seed: percentile_ci(
        lambda: 0.5, lambda seed_, r: seed_ + r, 5, 0.9, seed, "bootstrap"),
    "permutation_p": lambda seed: permutation_p(
        ContingencyTable(4, 1, 2, 3), replicates=5, seed=seed),
    "interval_profile": lambda seed: interval_profile(
        timed_pairs([60.0] * 3 + [7200.0] * 3, [True] + [False] * 5),
        permutation_replicates=5, seed=seed),
}


@pytest.mark.parametrize("entry", SEEDED_ENTRY_POINTS)
@pytest.mark.parametrize("seed", [2.5, 3.0, "3", -1, -(2**70)])
def test_a_seed_is_a_nonnegative_integer(entry, seed):
    with pytest.raises(InvalidConfigError, match="seed"):
        SEEDED_ENTRY_POINTS[entry](seed)


@pytest.mark.parametrize("entry", SEEDED_ENTRY_POINTS)
def test_an_index_seed_reads_as_its_int(entry):
    call = SEEDED_ENTRY_POINTS[entry]
    assert call(np.int64(7)) == call(7)


STABLE_ROUNDS = {
    "a": {1: ["x", "y", "x", "y"], 2: ["x", "y", "x", "y"]},
    "b": {1: ["x", "y", "y", "y"], 2: ["x", "y", "y", "y"]},
}
FLIPPING_ROUNDS = {
    "a": {1: ["x", "y", "x", "y"], 2: ["y", "x", "y", "x"]},
    "b": {1: ["x", "y", "y", "y"], 2: ["y", "x", "x", "x"]},
}


class TestCompare:
    def test_identical_sets_difference_zero(self):
        set_a = make_rounds(STABLE_ROUNDS)
        set_b = make_rounds(STABLE_ROUNDS)
        diff, (low, high) = compare_stability(set_a, set_b, replicates=100, seed=2)
        assert diff == 0.0 and low <= 0.0 <= high
        diff, (low, high) = compare_reliability(set_a, set_b, replicates=100, seed=2)
        assert diff == 0.0 and low <= 0.0 <= high

    def test_stability_difference_sign(self):
        diff, (low, high) = compare_stability(
            make_rounds(STABLE_ROUNDS), make_rounds(FLIPPING_ROUNDS),
            replicates=200, seed=4)
        assert diff == 1.0 and (low, high) == (1.0, 1.0)

    def test_self_kappa_metric(self):
        diff, _ = compare_stability(
            make_rounds(STABLE_ROUNDS), make_rounds(STABLE_ROUNDS),
            replicates=50, seed=4, metric="self_kappa")
        assert diff == 0.0

    def test_metric_validation(self):
        set_a = make_rounds(STABLE_ROUNDS)
        with pytest.raises(InvalidConfigError):
            compare_stability(set_a, set_a, seed=1, metric="alpha")
        with pytest.raises(InvalidConfigError):
            compare_reliability(set_a, set_a, seed=1, metric="icc_oneway_random")

    def test_seed_required(self):
        set_a = make_rounds(STABLE_ROUNDS)
        with pytest.raises(InvalidConfigError):
            compare_stability(set_a, set_a)

    @pytest.mark.parametrize("metric", ["exact_rate", "self_kappa"])
    def test_stability_matches_resampled_and_repaired_sets(self, metric):
        set_a, set_b = (simulate(SimConfig(
            n_annotators=4, items_per_cause=dict.fromkeys(CAUSES, mix), categories=("x", "y", "z"),
            rounds=3, base_error=0.2, seed=seed))[0] for seed, mix in ((1, 3), (2, 2)))

        def stat(aset):
            return getattr(dataset_stability(aset), metric)

        expected = percentile_ci(
            lambda: stat(set_a) - stat(set_b),
            lambda seed_, r: stat(rebuilt_draw(set_a, seed_, r, 0))
            - stat(rebuilt_draw(set_b, seed_, r, 1)),
            60, 0.9, 11, "comparison",
        )
        assert compare_stability(set_a, set_b, replicates=60, seed=11, metric=metric,
                                 confidence=0.9) == expected

    def test_stability_pairs_each_set_once(self, monkeypatch):
        calls = {"pairs": 0, "resample": 0}
        real_pairs, real_resample = relistab.core.build_repeat_pairs, reliability.resample_items

        def counted_pairs(*args, **kwargs):
            calls["pairs"] += 1
            return real_pairs(*args, **kwargs)

        def counted_resample(*args, **kwargs):
            calls["resample"] += 1
            return real_resample(*args, **kwargs)

        for module in (relistab.association, relistab.stability):
            monkeypatch.setattr(module, "build_repeat_pairs", counted_pairs)
        monkeypatch.setattr(reliability, "resample_items", counted_resample)
        compare_stability(make_rounds(STABLE_ROUNDS), make_rounds(FLIPPING_ROUNDS),
                          replicates=40, seed=4)
        assert calls == {"pairs": 2, "resample": 0}

    @pytest.mark.parametrize("metric", ["krippendorff_alpha", "fleiss_kappa"])
    def test_reliability_matches_resampled_sets(self, metric):
        set_a, set_b = (simulate(SimConfig(
            n_annotators=4, items_per_cause=dict.fromkeys(CAUSES, mix), categories=("x", "y", "z"),
            rounds=3, base_error=0.2, seed=seed))[0] for seed, mix in ((1, 3), (2, 2)))
        kernel = reliability.METRICS[metric].kernel

        def stat(aset):
            return kernel(aset, min(aset.rounds())).value

        expected = percentile_ci(
            lambda: stat(set_a) - stat(set_b),
            lambda seed_, r: stat(rebuilt_draw(set_a, seed_, r, 0))
            - stat(rebuilt_draw(set_b, seed_, r, 1)),
            60, 0.9, 11, "comparison",
        )
        assert compare_reliability(set_a, set_b, replicates=60, seed=11, metric=metric,
                                   confidence=0.9) == expected

    @pytest.mark.parametrize("metric, resamples", [("krippendorff_alpha", 0),
                                                   ("fleiss_kappa", 80)])
    def test_reliability_rebuilds_only_without_a_gather(self, monkeypatch, metric, resamples):
        calls = {"resample": 0}
        real_resample = reliability.resample_items

        def counted_resample(*args, **kwargs):
            calls["resample"] += 1
            return real_resample(*args, **kwargs)

        monkeypatch.setattr(reliability, "resample_items", counted_resample)
        set_a, set_b = (simulate(SimConfig(
            n_annotators=4, items_per_cause=dict.fromkeys(CAUSES, 2), categories=("x", "y", "z"),
            rounds=2, base_error=0.2, seed=seed))[0] for seed in (5, 6))
        compare_reliability(set_a, set_b, replicates=40, seed=4, metric=metric)
        assert calls == {"resample": resamples}

    def test_compare_item_scores(self):
        diff, (low, high) = compare_item_scores(
            [0.9, 1.0, 0.8], [0.1, 0.2, 0.0], replicates=400, seed=9)
        assert diff == pytest.approx(0.8, abs=1e-12)
        assert low <= diff <= high
        assert low > 0.0  # clearly separated groups

    def test_compare_item_scores_requires_seed_and_data(self):
        with pytest.raises(InvalidConfigError):
            compare_item_scores([1.0], [0.5])
        with pytest.raises(EmptyInputError):
            compare_item_scores([], [0.5], seed=1)
        with pytest.raises(InvalidConfigError):
            compare_item_scores([1.0], [0.5], replicates=0, seed=1)

    def test_compare_item_scores_deterministic(self):
        args = ([0.4, 0.6, 0.7], [0.2, 0.5, 0.5])
        assert (compare_item_scores(*args, replicates=100, seed=3)
                == compare_item_scores(*args, replicates=100, seed=3))
