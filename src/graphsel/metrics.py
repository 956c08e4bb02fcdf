"""Rank-quality metrics for model selection.

All three metrics compare one graph's predicted model scores against its true
performances. Ties in predicted scores are handled by average ranks (MRR) or
half credit (AUC) so no selector gains from emitting constants.
"""

from __future__ import annotations

import numpy as np

from .ranking import rank_descending


def label_top1(true_perf: np.ndarray) -> np.ndarray:
    """Binary labels: 1 for every model tied at the true maximum."""
    p = np.asarray(true_perf, dtype=np.float64)
    if p.size == 0:
        raise ValueError("empty performance row")
    return (p == p.max()).astype(np.float64)


def _average_ranks_desc(scores: np.ndarray) -> np.ndarray:
    """Rank 1 = highest score; tied scores share the average rank."""
    s = np.asarray(scores, dtype=np.float64)
    greater = (s[None, :] > s[:, None]).sum(axis=1)
    equal = (s[None, :] == s[:, None]).sum(axis=1)
    return greater + (equal + 1.0) / 2.0


def mrr(scores: np.ndarray, labels: np.ndarray) -> float:
    """Reciprocal of the best average rank among positive labels."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.sum() == 0:
        raise ValueError("mrr needs at least one positive label")
    ranks = _average_ranks_desc(scores)
    return float(1.0 / ranks[labels > 0].min())


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with half credit for tied scores.

    Raises on degenerate rows (all positive or all negative).
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64) > 0
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs both positive and negative labels")
    pos = s[y]
    neg = s[~y]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (n_pos * n_neg))


def ndcg_at_1(scores: np.ndarray, true_perf: np.ndarray) -> float:
    """Graded top-1 quality: true performance of the predicted best model
    over the best achievable. An all-zero truth row scores 1.0."""
    s = np.asarray(scores, dtype=np.float64)
    p = np.asarray(true_perf, dtype=np.float64)
    if s.shape != p.shape or s.size == 0:
        raise ValueError("scores and true_perf must be equal-length non-empty")
    best = p.max()
    if best == 0:
        return 1.0
    pick = int(rank_descending(s)[0])
    return float(p[pick] / best)


METRIC_NAMES = ("mrr", "auc", "ndcg_at_1")


def score_row(scores: np.ndarray, true_perf: np.ndarray) -> dict[str, float]:
    """All metrics for one graph; AUC is NaN for degenerate label rows."""
    labels = label_top1(true_perf)
    out = {"mrr": mrr(scores, labels), "ndcg_at_1": ndcg_at_1(scores, true_perf)}
    try:
        out["auc"] = auc(scores, labels)
    except ValueError:
        out["auc"] = float("nan")
    return out
