"""Baseline model selectors sharing one fit/rank interface.

Every selector is fit(features, perf) then queried with rank(m_feat), which
returns a ScoreSheet over the training matrix's models. Sparse-matrix
behavior follows one convention: per-column statistics are taken over
observed entries; a never-observed column falls back to the mean of the
other columns' statistics; a fully unobserved neighbor row ranks models
uniformly (zeros).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .learner import LearnerConfig, select_model, train
from .metrics import _average_ranks_desc
from .perf import PerformanceMatrix, factorize, fit_factor_estimator, standardize
from .ranking import ScoreSheet, rank_descending

BASELINE_KINDS = ("random", "gb_avgperf", "gb_avgrank", "isac",
                  "argosmart", "surrogate", "alors")
ALL_KINDS = BASELINE_KINDS + ("metalearner",)


def _masked_column_means(values: np.ndarray, observed: np.ndarray) -> np.ndarray:
    counts = observed.sum(axis=0)
    sums = np.where(observed, values, 0.0).sum(axis=0)
    means = np.zeros(values.shape[1])
    seen = counts > 0
    means[seen] = sums[seen] / counts[seen]
    if (~seen).any():
        means[~seen] = means[seen].mean() if seen.any() else 0.0
    return means


class RandomSelector:
    """Uniform random scores; the floor every learned selector must beat."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)
        self.model_ids: list[str] = []

    def fit(self, features: np.ndarray, perf: PerformanceMatrix):
        self.model_ids = list(perf.model_ids)
        return self

    def rank(self, m_feat: np.ndarray) -> ScoreSheet:
        return ScoreSheet(self.model_ids, self.rng.random(len(self.model_ids)))


class AvgPerfSelector:
    """Global best: rank models by mean observed performance."""

    def __init__(self, seed: int = 0):
        self.model_ids: list[str] = []
        self.scores = np.zeros(0)

    def fit(self, features: np.ndarray, perf: PerformanceMatrix):
        self.model_ids = list(perf.model_ids)
        self.scores = _masked_column_means(perf.filled(), perf.observed)
        return self

    def rank(self, m_feat: np.ndarray) -> ScoreSheet:
        return ScoreSheet(self.model_ids, self.scores.copy())


class AvgRankSelector:
    """Global best by mean within-row percentile (best observed model = 1.0)."""

    def __init__(self, seed: int = 0):
        self.model_ids: list[str] = []
        self.scores = np.zeros(0)

    def fit(self, features: np.ndarray, perf: PerformanceMatrix):
        self.model_ids = list(perf.model_ids)
        n, m = perf.shape
        pct = np.zeros((n, m))
        for i in range(n):
            obs = perf.observed[i]
            t = int(obs.sum())
            if t == 0:
                continue
            ranks_desc = _average_ranks_desc(perf.values[i, obs])
            pct[i, obs] = (t + 1.0 - ranks_desc) / t
        self.scores = _masked_column_means(pct, perf.observed)
        return self

    def rank(self, m_feat: np.ndarray) -> ScoreSheet:
        return ScoreSheet(self.model_ids, self.scores.copy())


def kmeans(x: np.ndarray, k: int, seed: int, max_iter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd iterations, single seeded init, empty clusters keep their
    previous centroid. Returns (centroids, assignments)."""
    n = x.shape[0]
    k = max(1, min(k, n))
    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = assign == c
            if members.any():
                centroids[c] = x[members].mean(axis=0)
    return centroids, assign


class IsacSelector:
    """Cluster graphs by meta-features; rank by within-cluster mean perf."""

    def __init__(self, seed: int = 0, n_clusters: int = 0):
        self.seed = seed
        self.n_clusters = n_clusters
        self.model_ids: list[str] = []

    def fit(self, features: np.ndarray, perf: PerformanceMatrix):
        self.model_ids = list(perf.model_ids)
        f = np.asarray(features, dtype=np.float64)
        fs, self.mean, self.scale = standardize(f)
        k = self.n_clusters if self.n_clusters > 0 else int(np.ceil(np.sqrt(f.shape[0])))
        self.centroids, assign = kmeans(fs, k, self.seed)
        global_scores = _masked_column_means(perf.filled(), perf.observed)
        self.cluster_scores = []
        for c in range(self.centroids.shape[0]):
            members = assign == c
            if members.any() and perf.observed[members].any():
                self.cluster_scores.append(
                    _masked_column_means(perf.filled()[members], perf.observed[members]))
            else:
                self.cluster_scores.append(global_scores)
        return self

    def rank(self, m_feat: np.ndarray) -> ScoreSheet:
        z = (np.asarray(m_feat, dtype=np.float64) - self.mean) / self.scale
        d2 = ((self.centroids - z) ** 2).sum(axis=1)
        return ScoreSheet(self.model_ids, self.cluster_scores[int(d2.argmin())].copy())


class ArgosmartSelector:
    """Cosine nearest neighbor: score models by the 1-NN row, with that
    row's observed mean standing in for its missing entries."""

    def __init__(self, seed: int = 0):
        self.model_ids: list[str] = []

    def fit(self, features: np.ndarray, perf: PerformanceMatrix):
        self.model_ids = list(perf.model_ids)
        self.features = np.asarray(features, dtype=np.float64)
        norms = np.linalg.norm(self.features, axis=1, keepdims=True)
        self.unit = np.where(norms > 0, self.features / np.where(norms > 0, norms, 1.0), 0.0)
        self.perf = perf
        return self

    def rank(self, m_feat: np.ndarray) -> ScoreSheet:
        q = np.asarray(m_feat, dtype=np.float64)
        qn = np.linalg.norm(q)
        qh = q / qn if qn > 0 else q
        sims = self.unit @ qh
        nn = int(rank_descending(sims)[0])
        obs = self.perf.observed[nn]
        row = self.perf.values[nn]
        if obs.any():
            fill = float(row[obs].mean())
            scores = np.where(obs, row, fill)
        else:
            scores = np.zeros(row.size)
        return ScoreSheet(self.model_ids, scores)


class SurrogateSelector:
    """One ridge regressor per model, fit on the rows observing that model."""

    def __init__(self, seed: int = 0, ridge_lambda: float = 1e-3):
        self.ridge_lambda = ridge_lambda
        self.model_ids: list[str] = []

    def fit(self, features: np.ndarray, perf: PerformanceMatrix):
        self.model_ids = list(perf.model_ids)
        f = np.asarray(features, dtype=np.float64)
        obs_vals = perf.values[perf.observed]
        global_mean = float(obs_vals.mean()) if obs_vals.size else 0.0
        self.columns = []
        for j in range(perf.shape[1]):
            rows = np.flatnonzero(perf.observed[:, j])
            if rows.size < 2:
                self.columns.append(global_mean)
            else:
                est = fit_factor_estimator(f[rows], perf.values[rows, j][:, None],
                                           self.ridge_lambda)
                self.columns.append(est)
        return self

    def rank(self, m_feat: np.ndarray) -> ScoreSheet:
        scores = np.array([
            c if isinstance(c, float) else float(c.predict(m_feat)[0])
            for c in self.columns])
        return ScoreSheet(self.model_ids, scores)


class AlorsSelector:
    """Factorize the matrix, regress graph factors from meta-features, score
    by regressed-factor x model-factor inner products."""

    def __init__(self, seed: int = 0, k: int = 32, ridge_lambda: float = 1e-3):
        self.seed = seed
        self.k = k
        self.ridge_lambda = ridge_lambda
        self.model_ids: list[str] = []

    def fit(self, features: np.ndarray, perf: PerformanceMatrix):
        self.model_ids = list(perf.model_ids)
        f = np.asarray(features, dtype=np.float64)
        k_eff = max(1, min(self.k, perf.shape[0], perf.shape[1]))
        factors = factorize(perf, k_eff, self.seed)
        self.v = factors.v
        self.estimator = fit_factor_estimator(f, factors.u, self.ridge_lambda)
        return self

    def rank(self, m_feat: np.ndarray) -> ScoreSheet:
        u_hat = self.estimator.predict(m_feat)
        return ScoreSheet(self.model_ids, u_hat @ self.v.T)


class MetaLearnerSelector:
    """The trainable selector behind the same fit/rank interface."""

    def __init__(self, seed: int = 0, config: LearnerConfig | None = None):
        base = config if config is not None else LearnerConfig()
        self.config = replace(base, seed=seed)
        self.state = None

    def fit(self, features: np.ndarray, perf: PerformanceMatrix):
        self.state = train(features, perf, self.config)
        return self

    def rank(self, m_feat: np.ndarray) -> ScoreSheet:
        if self.state is None:
            raise RuntimeError("selector not fit")
        return select_model(self.state, m_feat)


def make_selector(kind: str, seed: int = 0, **options):
    """Registry constructor; options are forwarded to the selector."""
    registry = {
        "random": RandomSelector,
        "gb_avgperf": AvgPerfSelector,
        "gb_avgrank": AvgRankSelector,
        "isac": IsacSelector,
        "argosmart": ArgosmartSelector,
        "surrogate": SurrogateSelector,
        "alors": AlorsSelector,
        "metalearner": MetaLearnerSelector,
    }
    if kind not in registry:
        raise ValueError(f"unknown selector kind {kind!r}; known: {sorted(registry)}")
    return registry[kind](seed=seed, **options)
