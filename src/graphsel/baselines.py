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

from .gmnet import cosine_topk
from .learner import LearnerConfig, select_model, train
from .metrics import _average_ranks_desc
from .perf import PerformanceMatrix, factorize, fit_factor_estimator, standardize
from .ranking import ScoreSheet

KMEANS_MAX_ITER = 100


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


def kmeans(x: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd iterations, single seeded init, empty clusters keep their
    previous centroid. Returns (centroids, assignments)."""
    n = x.shape[0]
    k = max(1, min(k, n))
    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITER):
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
    """Cluster graphs by meta-features into ceil(sqrt(n)) clusters; rank by
    within-cluster mean perf."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.model_ids: list[str] = []

    def fit(self, features: np.ndarray, perf: PerformanceMatrix):
        self.model_ids = list(perf.model_ids)
        f = np.asarray(features, dtype=np.float64)
        fs, self.mean, self.scale = standardize(f)
        self.centroids, assign = kmeans(fs, int(np.ceil(np.sqrt(f.shape[0]))), self.seed)
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
        self.perf = perf
        return self

    def rank(self, m_feat: np.ndarray) -> ScoreSheet:
        nn = int(cosine_topk(np.atleast_2d(m_feat), self.features, 1)[0, 0])
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

    def __init__(self, seed: int = 0):
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
                est = fit_factor_estimator(f[rows], perf.values[rows, j][:, None])
                self.columns.append(est)
        return self

    def rank(self, m_feat: np.ndarray) -> ScoreSheet:
        scores = np.array([
            c if isinstance(c, float) else float(c.predict(m_feat)[0])
            for c in self.columns])
        return ScoreSheet(self.model_ids, scores)


class AlorsSelector:
    """Factorize the matrix at rank 32 (clamped to its shape), regress graph
    factors from meta-features, score by regressed-factor x model-factor
    inner products."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.model_ids: list[str] = []

    def fit(self, features: np.ndarray, perf: PerformanceMatrix):
        self.model_ids = list(perf.model_ids)
        f = np.asarray(features, dtype=np.float64)
        k_eff = max(1, min(32, perf.shape[0], perf.shape[1]))
        factors = factorize(perf, k_eff, self.seed)
        self.v = factors.v
        self.estimator = fit_factor_estimator(f, factors.u)
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


# the order fixes the [eval] selector defaults, and with them the config hash
SELECTORS = {
    "random": RandomSelector,
    "gb_avgperf": AvgPerfSelector,
    "gb_avgrank": AvgRankSelector,
    "isac": IsacSelector,
    "argosmart": ArgosmartSelector,
    "surrogate": SurrogateSelector,
    "alors": AlorsSelector,
    "metalearner": MetaLearnerSelector,
}
ALL_KINDS = tuple(SELECTORS)
BASELINE_KINDS = tuple(kind for kind in SELECTORS if kind != "metalearner")


def make_selector(kind: str, seed: int = 0, **options):
    """Construct a selector by kind; options are forwarded to it."""
    if kind not in SELECTORS:
        raise ValueError(f"unknown selector kind {kind!r}; known: {sorted(SELECTORS)}")
    return SELECTORS[kind](seed=seed, **options)
