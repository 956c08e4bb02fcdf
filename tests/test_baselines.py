"""Baseline selectors against small hand-checked and oracle computations."""

import numpy as np
import pytest

from graphsel.baselines import (
    ALL_KINDS,
    BASELINE_KINDS,
    AlorsSelector,
    ArgosmartSelector,
    AvgPerfSelector,
    AvgRankSelector,
    IsacSelector,
    MetaLearnerSelector,
    RandomSelector,
    SurrogateSelector,
    _masked_column_means,
    kmeans,
    make_selector,
)
from graphsel.learner import LearnerConfig
from graphsel.perf import RIDGE_LAMBDA, PerformanceMatrix, factorize, fit_factor_estimator
from graphsel.ranking import ScoreSheet


def matrix(values, observed=None, prefix="mod"):
    values = np.asarray(values, dtype=np.float64)
    if observed is None:
        observed = np.ones(values.shape, dtype=bool)
    n, m = values.shape
    return PerformanceMatrix(values, np.asarray(observed, dtype=bool),
                             [f"g{i}" for i in range(n)],
                             [f"{prefix}{j}" for j in range(m)])


def random_problem(seed=0, n=12, m=4, d=6, density=1.0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d))
    values = rng.uniform(size=(n, m))
    observed = rng.random((n, m)) < density
    observed[np.arange(n), rng.integers(0, m, size=n)] = True
    return feats, matrix(values, observed)


def test_registry_instantiates_every_kind():
    assert set(ALL_KINDS) == set(BASELINE_KINDS) | {"metalearner"}
    for kind in ALL_KINDS:
        sel = make_selector(kind, seed=3)
        assert hasattr(sel, "fit") and hasattr(sel, "rank")
    with pytest.raises(ValueError, match="unknown selector"):
        make_selector("oracle9000")
    with pytest.raises(TypeError):        # only the meta-learner takes options
        make_selector("isac", seed=1, n_clusters=2)


def test_masked_column_means_fallback():
    values = np.array([[0.2, 0.9, 0.0], [0.4, 0.5, 0.0]])
    observed = np.array([[True, True, False], [True, False, False]])
    means = _masked_column_means(values, observed)
    assert means[0] == pytest.approx(0.3)
    assert means[1] == pytest.approx(0.9)
    assert means[2] == pytest.approx(0.6)       # mean of the seen columns' means
    nothing = _masked_column_means(values, np.zeros_like(observed))
    assert np.array_equal(nothing, np.zeros(3))


def test_random_selector_is_seeded_and_uniform():
    feats, perf = random_problem()
    a = RandomSelector(seed=4).fit(feats, perf)
    b = RandomSelector(seed=4).fit(feats, perf)
    s1 = a.rank(feats[0]).scores
    s2 = a.rank(feats[0]).scores                 # stream advances between calls
    assert not np.array_equal(s1, s2)
    assert np.array_equal(s1, b.rank(feats[0]).scores)
    assert s1.min() >= 0.0 and s1.max() < 1.0
    assert RandomSelector(seed=5).fit(feats, perf).rank(feats[0]).scores[0] != s1[0]


def test_avgperf_matches_masked_means():
    feats, perf = random_problem(seed=1, density=0.7)
    sel = AvgPerfSelector().fit(feats, perf)
    sheet = sel.rank(feats[0])
    assert isinstance(sheet, ScoreSheet)
    assert np.allclose(sheet.scores, _masked_column_means(perf.filled(), perf.observed))
    # query features are ignored by design
    assert np.array_equal(sheet.scores, sel.rank(feats[3]).scores)


def test_avgrank_hand_computed_with_ties():
    # row 0 ranks: 0.9 -> 1, 0.5 -> 2.5 (tie), 0.5 -> 2.5, 0.1 -> 4
    # percentiles (t=4): 1.0, 0.625, 0.625, 0.25
    # row 1 observes models 0, 1 only: 0.2 -> rank 2, 0.8 -> rank 1 -> 0.5, 1.0
    values = np.array([[0.9, 0.5, 0.5, 0.1],
                       [0.2, 0.8, 0.0, 0.0]])
    observed = np.array([[True, True, True, True],
                         [True, True, False, False]])
    sel = AvgRankSelector().fit(np.zeros((2, 3)), matrix(values, observed))
    want = [(1.0 + 0.5) / 2, (0.625 + 1.0) / 2, 0.625, 0.25]
    assert np.allclose(sel.rank(np.zeros(3)).scores, want)


def test_kmeans_basics():
    rng = np.random.default_rng(0)
    blob_a = rng.normal(size=(20, 2)) * 0.1
    blob_b = rng.normal(size=(20, 2)) * 0.1 + 10.0
    x = np.vstack([blob_a, blob_b])
    centroids, assign = kmeans(x, 2, seed=1)
    assert centroids.shape == (2, 2)
    assert assign.shape == (40,)
    assert set(np.unique(assign)) == {0, 1}
    # the two blobs separate cleanly
    assert len(set(assign[:20])) == 1 and len(set(assign[20:])) == 1
    assert assign[0] != assign[20]
    for c in range(2):
        assert np.allclose(centroids[c], x[assign == c].mean(axis=0))

    c2, a2 = kmeans(x, 2, seed=1)
    assert np.array_equal(c2, centroids) and np.array_equal(a2, assign)

    c_over, a_over = kmeans(x[:3], 7, seed=0)    # k clamps to n
    assert c_over.shape[0] == 3
    assert sorted(a_over) == [0, 1, 2]


def test_isac_single_cluster_equals_global_means():
    # ceil(sqrt(n)) clusters: a lone graph is one cluster
    feats, perf = random_problem(seed=2, n=1, density=0.8)
    sel = IsacSelector(seed=0).fit(feats, perf)
    want = _masked_column_means(perf.filled(), perf.observed)
    assert np.allclose(sel.rank(feats[0] + 1.0).scores, want)


@pytest.mark.parametrize("n", [12, 17])
def test_isac_ranks_by_the_member_means_of_ceil_sqrt_n_clusters(n):
    feats, perf = random_problem(seed=2, n=n, density=0.8)
    sel = IsacSelector(seed=0).fit(feats, perf)
    assert sel.centroids.shape[0] == int(np.ceil(np.sqrt(n)))
    z = (feats - sel.mean) / sel.scale
    assign = ((z[:, None, :] - sel.centroids) ** 2).sum(axis=2).argmin(axis=1)
    for i in range(n):
        members = assign == assign[i]
        want = _masked_column_means(perf.filled()[members], perf.observed[members])
        assert np.allclose(sel.rank(feats[i]).scores, want)


def test_isac_routes_query_to_nearest_cluster():
    # two blobs of graphs; each blob prefers a different model
    rng = np.random.default_rng(3)
    fa = rng.normal(size=(10, 4)) * 0.05
    fb = rng.normal(size=(10, 4)) * 0.05 + 5.0
    feats = np.vstack([fa, fb])
    values = np.zeros((20, 2))
    values[:10, 0], values[:10, 1] = 0.9, 0.1
    values[10:, 0], values[10:, 1] = 0.1, 0.9
    sel = IsacSelector(seed=0).fit(feats, matrix(values))
    assert sel.rank(fa[0]).best() == 0
    assert sel.rank(fb[0] + 0.3).best() == 1


def test_argosmart_matches_one_nn_oracle():
    rng = np.random.default_rng(5)
    feats, perf = random_problem(seed=5, n=15, density=0.6)
    sel = ArgosmartSelector().fit(feats, perf)
    for _ in range(20):
        q = rng.normal(size=feats.shape[1])
        got = sel.rank(q).scores

        sims = np.zeros(len(feats))
        for i, row in enumerate(feats):
            nr, nq = np.linalg.norm(row), np.linalg.norm(q)
            sims[i] = row @ q / (nr * nq) if nr > 0 and nq > 0 else 0.0
        nn = int(np.argmax(sims))
        obs = perf.observed[nn]
        want = np.where(obs, perf.values[nn], perf.values[nn][obs].mean())
        assert np.allclose(got, want, atol=1e-12)


def test_argosmart_fully_unobserved_neighbor_gives_zeros():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    values = np.array([[0.0, 0.0], [0.7, 0.2]])
    observed = np.array([[False, False], [True, True]])
    sel = ArgosmartSelector().fit(feats, matrix(values, observed))
    assert np.array_equal(sel.rank(np.array([1.0, 0.05])).scores, np.zeros(2))
    assert np.allclose(sel.rank(np.array([0.05, 1.0])).scores, [0.7, 0.2])


def test_surrogate_per_column_regressions_and_fallback():
    rng = np.random.default_rng(6)
    n, d = 14, 5
    feats = rng.normal(size=(n, d))
    w0, w1 = rng.normal(size=d), rng.normal(size=d)
    values = np.column_stack([
        feats @ w0, feats @ w1, np.full(n, 0.5)])
    values = (values - values.min()) / (values.max() - values.min())
    observed = np.ones((n, 3), dtype=bool)
    observed[:, 2] = False
    observed[0, 2] = True                        # a single observer: fallback
    perf = matrix(values, observed)

    sel = SurrogateSelector(seed=0).fit(feats, perf)
    q = rng.normal(size=d)
    got = sel.rank(q).scores

    for j in range(2):
        est = fit_factor_estimator(feats, values[:, j][:, None], RIDGE_LAMBDA)
        assert got[j] == pytest.approx(float(est.predict(q)[0]), abs=1e-12)
    assert got[2] == pytest.approx(values[observed].mean())


def test_alors_equals_manual_factorization_pipeline():
    # rank 32, clamped to the matrix shape
    for n, m, k in ((10, 5, 5), (40, 36, 32)):
        feats, perf = random_problem(seed=7, n=n, m=m, density=0.9)
        sel = AlorsSelector(seed=2).fit(feats, perf)
        q = np.random.default_rng(8).normal(size=feats.shape[1])

        factors = factorize(perf, k, 2)
        est = fit_factor_estimator(feats, factors.u, RIDGE_LAMBDA)
        want = est.predict(q) @ factors.v.T
        assert np.array_equal(sel.rank(q).scores, want)


def test_metalearner_selector_contract():
    sel = MetaLearnerSelector(seed=3)
    with pytest.raises(RuntimeError, match="not fit"):
        sel.rank(np.zeros(4))

    base = LearnerConfig(k=4, top_k=3, layers=1, heads=1, max_epochs=1,
                         min_epochs=0, seed=999, ridge_lambda=1e-3)
    sel = MetaLearnerSelector(seed=3, config=base)
    assert base.seed == 999                      # caller's config not mutated
    assert sel.config.seed == 3

    rng = np.random.default_rng(9)
    feats = rng.normal(size=(20, 6))
    perf = matrix(rng.uniform(size=(20, 4)))
    sel.fit(feats, perf)
    q = rng.normal(size=6)
    s1 = sel.rank(q).scores
    s2 = sel.rank(q).scores
    assert np.array_equal(s1, s2)
    assert list(sel.rank(q).model_ids) == list(perf.model_ids)
