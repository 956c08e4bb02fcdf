"""Cross-validation harness: folding, scoring, failure isolation, sweeps."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from graphsel.harness import (
    EvalResult,
    best_gap_report,
    cross_validate,
    fold_assignments,
    perturbation_sweep,
    sparsity_sweep,
    summary_json,
)
from graphsel.metrics import METRIC_NAMES
from graphsel.perf import PerformanceMatrix, mask_random
from graphsel.ranking import ScoreSheet


class TruthReadingSelector:
    """Scores each query with its feature vector, which the fixtures set to
    the true performance row, making this selector exactly right."""

    def __init__(self):
        self.perf = None

    def fit(self, features, perf):
        self.perf = perf
        self.features = features
        return self

    def rank(self, m_feat):
        return ScoreSheet(list(self.perf.model_ids), np.asarray(m_feat, dtype=np.float64))


class RecordingSelector(TruthReadingSelector):
    """Also remembers every matrix it was fit on."""

    seen: list = []

    def fit(self, features, perf):
        RecordingSelector.seen.append(perf)
        return super().fit(features, perf)


class FailingSelector:
    def __init__(self, fail_folds=None):
        self.fail_folds = fail_folds

    def fit(self, features, perf):
        self.n_train = features.shape[0]
        return self

    def rank(self, m_feat):
        raise RuntimeError("boom")


def oracle_setup(seed=0, n=12, m=4):
    """Features are the true performance rows themselves, so the
    TruthReadingSelector ranks perfectly."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(size=(n, m))
    # unique maxima keep the metrics exact
    values = np.minimum(np.round(values, 3), 0.9)
    for i in range(n):
        values[i, rng.integers(m)] = 0.99
    truth = PerformanceMatrix(values, np.ones((n, m), dtype=bool),
                              [f"g{i}" for i in range(n)],
                              [f"mod{j}" for j in range(m)])
    return values.copy(), truth


def test_fold_assignments_partition():
    for n, folds, seed in [(10, 3, 0), (12, 5, 1), (7, 7, 2), (30, 4, 3)]:
        chunks = fold_assignments(n, folds, seed)
        assert len(chunks) == folds
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1
        allrows = np.concatenate(chunks)
        assert sorted(allrows) == list(range(n))
        for c in chunks:
            assert np.array_equal(c, np.sort(c))
    again = fold_assignments(10, 3, 0)
    for a, b in zip(fold_assignments(10, 3, 0), again):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        fold_assignments(10, 1, 0)
    with pytest.raises(ValueError):
        fold_assignments(4, 5, 0)


def test_perfect_selector_scores_one_everywhere():
    feats, truth = oracle_setup()
    res = cross_validate(feats, truth, TruthReadingSelector, folds=3, seed=1)
    agg = res.aggregate()
    for name in METRIC_NAMES:
        assert agg[name] == pytest.approx(1.0)
        assert np.all(res.per_graph[name][~np.isnan(res.per_graph[name])] == 1.0)
    assert np.all(res.gaps == 0.0)
    assert all(r is not None for r in res.rankings)
    assert res.errors == []

    report = best_gap_report(res)
    assert report["count"] == truth.shape[0]
    assert report["mean"] == 0.0 and report["max"] == 0.0


def test_failing_selector_is_isolated_not_raised():
    feats, truth = oracle_setup(seed=2)
    res = cross_validate(feats, truth, FailingSelector, folds=3, seed=0,
                         selector_name="bad")
    assert len(res.errors) == 3
    assert all("boom" in e for e in res.errors)
    assert all(np.isnan(f["mrr"]) for f in res.per_fold)
    assert np.isnan(res.aggregate()["mrr"])
    assert all(r is None for r in res.rankings)
    assert res.selector == "bad"


def test_one_bad_fold_leaves_others_scored():
    feats, truth = oracle_setup(seed=3)
    calls = {"n": 0}

    class FlakyOnce(TruthReadingSelector):
        def fit(self, features, perf):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("transient")
            return super().fit(features, perf)

    res = cross_validate(feats, truth, FlakyOnce, folds=3, seed=0)
    assert len(res.errors) == 1
    nan_folds = [i for i, f in enumerate(res.per_fold) if np.isnan(f["mrr"])]
    assert nan_folds == [1]
    assert res.aggregate()["mrr"] == pytest.approx(1.0)   # mean of surviving folds


def test_train_view_is_what_selectors_see():
    feats, truth = oracle_setup(seed=4)
    view = mask_random(truth, 0.5, seed=9)
    RecordingSelector.seen = []
    res = cross_validate(feats, truth, RecordingSelector, folds=3, seed=0,
                         train_view=view)
    assert len(RecordingSelector.seen) == 3
    observed_frac = np.mean([p.observed.mean() for p in RecordingSelector.seen])
    assert observed_frac < 0.75                  # selectors saw the masked view
    # scoring still uses the uncorrupted truth
    assert res.aggregate()["mrr"] == pytest.approx(1.0)


def test_unobserved_truth_rows_are_skipped():
    feats, truth = oracle_setup(seed=5, n=9, m=3)
    observed = truth.observed.copy()
    observed[4] = False
    blanked = PerformanceMatrix(truth.values.copy(), observed,
                                list(truth.graph_ids), list(truth.model_ids))
    res = cross_validate(feats, blanked, TruthReadingSelector, folds=3, seed=0)
    assert np.isnan(res.per_graph["mrr"][4])
    assert res.rankings[4] is None
    assert np.isnan(res.gaps[4])
    others = np.delete(np.arange(9), 4)
    assert np.all(~np.isnan(res.per_graph["mrr"][others]))


def test_cross_validate_input_validation():
    feats, truth = oracle_setup()
    with pytest.raises(ValueError, match="row counts"):
        cross_validate(feats[:-1], truth, TruthReadingSelector)
    small_truth = PerformanceMatrix(truth.values[:, :2].copy(),
                                    truth.observed[:, :2].copy(),
                                    list(truth.graph_ids), ["a", "b"])
    with pytest.raises(ValueError, match="shape"):
        cross_validate(feats, truth, TruthReadingSelector, train_view=small_truth)


def test_sparsity_sweep_zero_equals_plain_cv():
    feats, truth = oracle_setup(seed=6)
    factories = {"oracle": TruthReadingSelector}
    sweep = sparsity_sweep(feats, truth, factories, sparsities=(0.0, 0.5),
                           folds=3, seed=2)
    base = cross_validate(feats, truth, TruthReadingSelector, folds=3, seed=2,
                          selector_name="oracle")
    zero = sweep.results["oracle", 0.0]
    assert zero.per_fold == base.per_fold
    assert np.array_equal(zero.gaps, base.gaps)
    assert ("oracle", 0.5) in sweep.results
    assert sweep.kind == "sparsity" and sweep.settings == (0.0, 0.5)


def test_perturbation_sweep_zero_equals_plain_cv():
    feats, truth = oracle_setup(seed=7)
    factories = {"oracle": TruthReadingSelector}
    sweep = perturbation_sweep(feats, truth, factories, rates=(0.0, 0.3),
                               folds=3, seed=2)
    base = cross_validate(feats, truth, TruthReadingSelector, folds=3, seed=2)
    assert sweep.results["oracle", 0.0].per_fold == base.per_fold
    assert sweep.kind == "perturbation"


def test_sweep_table_and_csv_shape():
    feats, truth = oracle_setup(seed=8)
    factories = {"oracle": TruthReadingSelector, "bad": FailingSelector}
    sweep = sparsity_sweep(feats, truth, factories, sparsities=(0.0, 0.4),
                           folds=3, seed=0)
    rows = sweep.table_rows()
    assert len(rows) == 2 * 2 * 3 * len(METRIC_NAMES)
    triples = [(r[0], r[1], r[2]) for r in rows]
    assert triples == sorted(triples)            # grouped by selector, setting, fold

    csv = sweep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "selector,setting,fold,metric,value"
    assert len(lines) == 1 + len(rows)
    bad_lines = [ln for ln in lines[1:] if ln.startswith("bad,")]
    assert all(ln.endswith(",") for ln in bad_lines)     # NaN renders empty
    oracle_lines = [ln for ln in lines[1:] if ln.startswith("oracle,0,")]
    assert all(ln.rsplit(",", 1)[1] for ln in oracle_lines)


def test_best_gap_report_quartiles():
    gaps = np.array([0.0, 0.1, 0.2, 0.3, 0.4, np.nan])
    res = EvalResult("x", 2, [], {}, gaps, [None] * 6)
    report = best_gap_report(res)
    assert report["count"] == 5
    assert report["mean"] == pytest.approx(0.2)
    assert report["median"] == pytest.approx(0.2)
    assert report["q1"] == pytest.approx(0.1)
    assert report["q3"] == pytest.approx(0.3)
    assert report["max"] == pytest.approx(0.4)

    empty = best_gap_report(EvalResult("x", 2, [], {}, np.array([np.nan]), [None]))
    assert empty["count"] == 0
    assert np.isnan(empty["mean"])


def test_summary_json_is_strict_and_merges_extras():
    feats, truth = oracle_setup(seed=9)
    good = cross_validate(feats, truth, TruthReadingSelector, folds=3, seed=0,
                          selector_name="oracle")
    bad = cross_validate(feats, truth, FailingSelector, folds=3, seed=0,
                         selector_name="bad")
    text = summary_json({"oracle": good, "bad": bad},
                        gap_reports={"oracle": best_gap_report(good)},
                        extra={"config_hash": "abc123"})
    payload = json.loads(text)                   # allow_nan=False: must parse
    assert payload["config_hash"] == "abc123"
    assert payload["selectors"]["oracle"]["aggregate"]["mrr"] == pytest.approx(1.0)
    assert payload["selectors"]["bad"]["aggregate"]["mrr"] is None
    assert payload["selectors"]["bad"]["errors"]
    assert payload["best_gap"]["oracle"]["count"] == truth.shape[0]
    assert "NaN" not in text


def test_readme_library_use_block_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    printed = capsys.readouterr().out
    assert {"mrr", "auc", "ndcg_at_1"} <= set(ast.literal_eval(printed))
