"""Rank metrics against brute-force oracles, tie handling included."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsel.metrics import METRIC_NAMES, auc, label_top1, mrr, ndcg_at_1, score_row
from graphsel.ranking import ScoreSheet, rank_descending

from oracles import auc_brute, mrr_brute, ndcg1_brute


def random_instance(rng):
    m = int(rng.integers(2, 12))
    # quantized scores force plenty of exact ties
    scores = np.round(rng.uniform(size=m) * 4) / 4
    perf = np.round(rng.uniform(size=m) * 4) / 4
    return scores, perf


def test_metrics_match_oracles_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(300):
        scores, perf = random_instance(rng)
        labels = label_top1(perf)
        assert mrr(scores, labels) == pytest.approx(mrr_brute(scores, labels), abs=1e-12)
        assert ndcg_at_1(scores, perf) == pytest.approx(ndcg1_brute(scores, perf), abs=1e-12)
        if 0 < labels.sum() < labels.size:
            assert auc(scores, labels) == pytest.approx(auc_brute(scores, labels), abs=1e-12)


# scores from a small set give ties; doubling any of them is exact
SCORES = st.sampled_from([-3.5, -1.0, 0.0, 0.25, 0.5, 1e-300, 7.0, 1e300])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(2, 12).flatmap(lambda m: st.tuples(
    st.lists(SCORES, min_size=m, max_size=m),
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]), min_size=m, max_size=m))))
def test_metrics_are_bounded_and_scale_free(case):
    scores, perf = np.array(case[0]), np.array(case[1])
    labels = label_top1(perf)
    for s in (scores, scores * 2.0):
        assert 0.0 < mrr(s, labels) <= 1.0
        assert 0.0 <= ndcg_at_1(s, perf) <= 1.0
        if 0 < labels.sum() < labels.size:
            assert 0.0 <= auc(s, labels) <= 1.0
    assert mrr(scores * 2.0, labels) == mrr(scores, labels)
    assert ndcg_at_1(scores * 2.0, perf) == ndcg_at_1(scores, perf)
    if 0 < labels.sum() < labels.size:
        assert auc(scores * 2.0, labels) == auc(scores, labels)


def test_label_top1_marks_all_tied_maxima():
    assert np.array_equal(label_top1([0.3, 0.9, 0.9, 0.1]), [0, 1, 1, 0])
    assert np.array_equal(label_top1([0.5, 0.5]), [1, 1])
    assert np.array_equal(label_top1([0.0, 0.0]), [1, 1])
    with pytest.raises(ValueError):
        label_top1([])


def test_mrr_tie_handling_and_validation():
    # positive tied with two others at the top: average rank of the trio is 2
    assert mrr([1.0, 1.0, 1.0, 0.0], [1, 0, 0, 0]) == pytest.approx(0.5)
    # unique top positive
    assert mrr([0.9, 0.1, 0.5], [1, 0, 0]) == pytest.approx(1.0)
    # best of several positives counts
    assert mrr([0.9, 0.1, 0.5], [0, 1, 1]) == pytest.approx(0.5)
    assert mrr([0.3], [1]) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="positive"):
        mrr([0.1, 0.2], [0, 0])


def test_auc_half_credit_and_validation():
    assert auc([0.9, 0.8, 0.1], [1, 0, 0]) == pytest.approx(1.0)
    assert auc([0.1, 0.8, 0.9], [1, 0, 0]) == pytest.approx(0.0)
    # one tie between the positive and one negative: half credit
    assert auc([0.5, 0.5, 0.1], [1, 0, 0]) == pytest.approx(0.75)
    # constant scores give exactly chance level
    assert auc([0.4, 0.4, 0.4, 0.4], [1, 1, 0, 0]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError):
        auc([0.1, 0.2], [0, 0])


def test_ndcg_at_1_graded_credit():
    assert ndcg_at_1([0.9, 0.1], [0.5, 1.0]) == pytest.approx(0.5)
    assert ndcg_at_1([0.1, 0.9], [0.5, 1.0]) == pytest.approx(1.0)
    # tie on scores: the first tied model is picked
    assert ndcg_at_1([0.7, 0.7], [0.2, 0.8]) == pytest.approx(0.25)
    assert ndcg_at_1([0.0, 0.0], [0.0, 0.0]) == 1.0
    with pytest.raises(ValueError):
        ndcg_at_1([0.1, 0.2], [0.5])
    with pytest.raises(ValueError):
        ndcg_at_1([], [])


def test_score_row_degenerate_auc_is_nan():
    row = score_row([0.9, 0.1], [0.7, 0.2])
    assert set(row) == set(METRIC_NAMES)
    assert row["auc"] == pytest.approx(1.0)

    tied = score_row([0.9, 0.1], [0.5, 0.5])     # every label positive
    assert np.isnan(tied["auc"])
    assert tied["mrr"] == pytest.approx(1.0)

    single = score_row([0.3], [0.8])
    assert np.isnan(single["auc"])
    assert single["mrr"] == 1.0
    assert single["ndcg_at_1"] == 1.0


def test_rank_descending_breaks_ties_by_index():
    assert np.array_equal(rank_descending([0.1, 0.9, 0.9, 0.5]), [1, 2, 3, 0])
    assert np.array_equal(rank_descending([2.0, 2.0, 2.0]), [0, 1, 2])


def test_score_sheet_validation_and_best():
    sheet = ScoreSheet(["a", "b", "c"], np.array([0.2, 0.9, 0.5]))
    assert sheet.best() == 1
    assert sheet.best_id() == "b"
    assert [sheet.model_ids[i] for i in sheet.ranking()] == ["b", "c", "a"]

    with pytest.raises(ValueError):
        ScoreSheet(["a", "b"], np.array([0.1, np.nan]))
    with pytest.raises(ValueError):
        ScoreSheet(["a", "b"], np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        ScoreSheet(["a", "b"], np.array([[0.1, 0.2]]))
