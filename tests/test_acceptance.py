"""Acceptance suite: one test per shipping criterion, tolerances inline.

Each test states its pass condition and budget in the assertions. The
planted-corpus fixtures are cached at module scope because two criteria
share the same corpus and feature matrix.
"""

import json
import logging
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import graphsel
from graphsel.autodiff import Tensor
from graphsel.baselines import make_selector
from graphsel.cli import main as cli_main
from graphsel.extractors import (
    degree,
    eccentricity,
    kcore,
    pagerank,
    triangles_per_edge,
    triangles_per_node,
    wedges_per_node,
)
from graphsel.features import FEATURE_DIM, meta_graph_features
from graphsel.graphs import from_edges
from graphsel.harness import cross_validate, perturbation_sweep
from graphsel.learner import (
    LearnerConfig,
    save_state,
    sparse_top1_loss,
    top1_probability,
    train,
)
from graphsel.metrics import auc, label_top1, mrr, ndcg_at_1
from graphsel.perf import PerformanceMatrix, factorize, mask_random, perturb
from graphsel.ranking import ScoreSheet, rank_descending
from graphsel.summaries import SUMMARY_NAMES, summarize
from graphsel.synth import CorpusShape, generate_synthetic_corpus

from oracles import (
    auc_brute,
    degrees_brute,
    eccentricity_brute,
    gradient_check,
    kcore_brute,
    mrr_brute,
    ndcg1_brute,
    pagerank_brute,
    serialize,
    summary_brute,
    to_csv,
    triangles_edge_brute,
    triangles_node_brute,
    wedges_brute,
)

_planted: dict = {}


def planted_corpus():
    """60 graphs, 3 families, 8 models, noise 0.05; features cached."""
    if not _planted:
        corpus = generate_synthetic_corpus(
            CorpusShape(n_graphs=60, families=3, n_models=8, noise=0.05), seed=7)
        _planted["truth"] = corpus.perf
        _planted["features"] = corpus.meta_features()
    return _planted["features"], _planted["truth"]


def _random_graph(rng, n, p):
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return from_edges(n, list(zip(iu[keep].tolist(), ju[keep].tolist())))


def _nx_to_graph(g):
    mapping = {node: i for i, node in enumerate(sorted(g.nodes()))}
    return from_edges(len(mapping), [(mapping[u], mapping[v]) for u, v in g.edges()])


# criterion: counting extractors exactly equal brute force on every connected
# graph of at most 7 nodes plus 100 seeded sparse graphs up to 50 nodes;
# pagerank within 1e-8 L1 of an independent power iteration; under 60 seconds
def test_structural_counts_match_brute_force_exactly():
    started = time.perf_counter()
    graphs = []
    for g in nx.graph_atlas_g():
        if len(g) > 0 and nx.is_connected(g):
            graphs.append(_nx_to_graph(g))
    assert len(graphs) > 900                      # all connected graphs on <= 7 nodes

    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        graphs.append(_random_graph(rng, n, float(rng.uniform(0.05, 0.3))))

    for g in graphs:
        assert np.array_equal(degree(g), degrees_brute(g))
        assert np.array_equal(wedges_per_node(g), wedges_brute(g))
        assert np.array_equal(triangles_per_node(g), triangles_node_brute(g))
        assert np.array_equal(triangles_per_edge(g), triangles_edge_brute(g))
        assert np.array_equal(eccentricity(g), eccentricity_brute(g))
        assert np.array_equal(kcore(g), kcore_brute(g))
        pr = pagerank(g)
        assert np.abs(pr - pagerank_brute(g)).sum() < 1e-8
    assert time.perf_counter() - started < 60.0


# criterion: 100 random graphs spanning 5..500 nodes produce equal-length,
# finite feature vectors, and any relabeling changes no entry by more
# than 1e-12
def test_feature_vectors_fixed_length_finite_and_relabeling_invariant():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(5, 501))
        kind = trial % 3
        nx_seed = int(rng.integers(2 ** 31))
        if kind == 0:
            g = _random_graph(rng, n, min(1.0, 8.0 / n))
        elif kind == 1:
            g = _nx_to_graph(nx.barabasi_albert_graph(n, 3, seed=nx_seed))
        else:
            # ring lattice needs more nodes than its base degree of 6
            n = max(n, 8)
            g = _nx_to_graph(nx.watts_strogatz_graph(n, 6, 0.1, seed=nx_seed))

        vec = meta_graph_features(g)
        assert vec.shape == (FEATURE_DIM,)
        assert np.all(np.isfinite(vec))

        perm = rng.permutation(n)
        relabeled = from_edges(n, [(int(perm[u]), int(perm[v]))
                                   for u, v in g.edge_array])
        vec2 = meta_graph_features(relabeled)
        worst = max(worst, float(np.abs(vec - vec2).max()))
    assert worst <= 1e-12, worst


# criterion: every summary statistic matches an independently coded direct
# formula within 1e-9 (relative above magnitude 1) on 1,000 random vectors,
# and degenerate inputs give the documented finite values
def test_summary_statistics_match_direct_formulas():
    rng = np.random.default_rng(6)
    for trial in range(1000):
        n = int(rng.integers(1, 150))
        kind = trial % 5
        if kind == 0:
            v = rng.normal(size=n) * 10
        elif kind == 1:
            v = rng.integers(0, 6, size=n).astype(np.float64)
        elif kind == 2:
            v = np.round(rng.normal(size=n), 1)
        elif kind == 3:
            v = rng.uniform(0.5, 2.0, size=n)
        else:
            v = rng.exponential(size=n)
        got = summarize(v)
        want = summary_brute(v)
        scale = np.maximum(np.abs(want), 1.0)
        bad = np.abs(got - want) / scale > 1e-9
        assert not bad.any(), [SUMMARY_NAMES[i] for i in np.flatnonzero(bad)]

    for v in (np.full(7, 3.25), np.array([42.0])):
        s = summarize(v)
        assert np.all(np.isfinite(s))
        by = dict(zip(SUMMARY_NAMES, s))
        assert by["card"] == 1.0
        assert by["stdev"] == 0.0 and by["variance"] == 0.0
        assert by["skew"] == 0.0 and by["kurtosis"] == 0.0
        assert by["entropy"] == 0.0 and by["gini"] == 0.0
        assert by["hist_0"] == 1.0 and by["hist_9"] == 0.0
        assert by["min"] == by["max"] == by["median"] == v[0]


# criterion: backprop gradients match central finite differences within
# max relative error 1e-4 on the tiny problem, in under 30 seconds
def test_backprop_matches_finite_differences():
    started = time.perf_counter()
    err = gradient_check()
    elapsed = time.perf_counter() - started
    assert err < 1e-4, err
    assert elapsed < 30.0


# criterion: top-1 probabilities sum to 1 within 1e-9 and are invariant to
# constant score shifts; the sparse listwise loss matches a scalar-loop
# oracle within 1e-10 on 100 random masked instances; rows with nothing
# observed contribute exactly zero
def test_top1_probabilities_and_sparse_listwise_loss():
    rng = np.random.default_rng(14)

    def loss_oracle(pv, obs, s):
        total = 0.0
        for i in range(s.shape[0]):
            idx = np.flatnonzero(obs[i])
            if idx.size == 0:
                continue
            q = np.exp(pv[i, idx] - pv[i, idx].max())
            q /= q.sum()
            lse = np.log(np.exp(s[i, idx] - s[i, idx].max()).sum()) + s[i, idx].max()
            total += float(np.sum(q * (lse - s[i, idx])))
        return total

    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(2, 12))
        pv = rng.uniform(size=(n, m))
        s = rng.normal(size=(n, m)) * 3
        obs = rng.random((n, m)) < 0.6

        for i in range(n):
            if obs[i].any():
                p = top1_probability(s[i], obs[i])
                assert abs(p.sum() - 1.0) <= 1e-9
                shifted = top1_probability(s[i] + 57.5, obs[i])
                assert np.abs(p - shifted).max() <= 1e-9
                assert np.all(p[~obs[i]] == 0.0)

        want = loss_oracle(pv, obs, s)
        assert abs(sparse_top1_loss(Tensor.const(s), pv, obs).item() - want) < 1e-10

        obs2 = np.vstack([obs, np.zeros((1, m), dtype=bool)])
        pv2 = np.vstack([pv, rng.uniform(size=(1, m))])
        s2 = np.vstack([s, rng.normal(size=(1, m))])
        assert sparse_top1_loss(Tensor.const(s2), pv2, obs2).item() == \
            sparse_top1_loss(Tensor.const(s), pv, obs).item()

    empty = np.zeros((3, 4), dtype=bool)
    assert sparse_top1_loss(Tensor.const(np.ones((3, 4))), np.ones((3, 4)), empty).item() == 0.0


# criterion: masked factorization of a seeded rank-2 20x10 matrix with 30%
# of cells hidden reaches observed-cell RMSE below 0.05 with a
# non-increasing objective trace
def test_masked_factorization_recovers_low_rank_matrix():
    rng = np.random.default_rng(3)
    u = rng.uniform(0.2, 1.0, size=(20, 2))
    v = rng.uniform(0.2, 1.0, size=(10, 2))
    p = u @ v.T
    p = p / (p.max() * 1.01)
    truth = PerformanceMatrix(p, np.ones_like(p, dtype=bool),
                              [f"g{i}" for i in range(20)],
                              [f"m{j}" for j in range(10)])
    masked = mask_random(truth, 0.3, seed=5)

    factors = factorize(masked, 2, seed=0)
    approx = factors.u @ factors.v.T
    obs = masked.observed
    rmse = float(np.sqrt(np.mean((approx[obs] - p[obs]) ** 2)))
    assert rmse < 0.05, rmse

    trace = np.asarray(factors.objective_trace)
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-9 * np.maximum(np.abs(trace[:-1]), 1.0))


# criterion: on the planted corpus (60 graphs, 3 families, 8 models, noise
# 0.05, 5-fold CV) the trained selector and the 1-NN baseline both reach
# MRR >= 0.8, the random floor stays within 3 Monte Carlo sigma of its
# closed-form expectation, the trained selector is at least as good as the
# global-best baseline, and the whole run finishes inside 10 minutes
def test_planted_corpus_selector_quality():
    started = time.perf_counter()
    feats, truth = planted_corpus()

    mrrs = {}
    for name in ("metalearner", "argosmart", "gb_avgperf", "random"):
        res = cross_validate(feats, truth, lambda name=name: make_selector(name, seed=0),
                             folds=5, seed=11, selector_name=name)
        assert not res.errors, res.errors
        mrrs[name] = res.aggregate()["mrr"]
    elapsed = time.perf_counter() - started

    assert mrrs["metalearner"] >= 0.8, mrrs
    assert mrrs["argosmart"] >= 0.8, mrrs
    # uniform pick over 8 models: E[1/rank] = (1/8) sum 1/i ~ 0.33973,
    # sigma over 60 graphs ~ 0.0355
    expected = sum(1.0 / i for i in range(1, 9)) / 8.0
    second = sum(1.0 / i ** 2 for i in range(1, 9)) / 8.0
    sigma = math.sqrt((second - expected ** 2) / truth.shape[0])
    assert abs(mrrs["random"] - expected) <= 3.0 * sigma, mrrs
    assert mrrs["metalearner"] >= mrrs["gb_avgperf"], mrrs
    assert elapsed < 600.0


# criterion: with 90% of training cells hidden, the trained selector beats
# the random floor by at least 0.2 MRR on the planted corpus
def test_selection_survives_extreme_sparsity():
    feats, truth = planted_corpus()
    view = mask_random(truth, 0.9, seed=123)
    mrrs = {}
    for name in ("metalearner", "random"):
        res = cross_validate(feats, truth, lambda name=name: make_selector(name, seed=0),
                             folds=5, seed=11, train_view=view, selector_name=name)
        assert not res.errors, res.errors
        mrrs[name] = res.aggregate()["mrr"]
    assert mrrs["metalearner"] - mrrs["random"] >= 0.2, mrrs


# criterion: the rate-0 row of a perturbation sweep is bitwise identical to
# an unperturbed run, and a 0.5 cell perturbed at rate 0.2 lands in
# [0.45, 0.55] for every seed
def test_perturbation_sweep_identity_and_bounds():
    corpus = generate_synthetic_corpus(
        CorpusShape(n_graphs=12, families=3, n_models=4, noise=0.05),
        seed=19, min_size=12, max_size=25)
    feats = corpus.meta_features()
    truth = corpus.perf
    factories = {"gb_avgperf": lambda: make_selector("gb_avgperf", seed=0),
                 "argosmart": lambda: make_selector("argosmart", seed=0)}
    sweep = perturbation_sweep(feats, truth, factories, rates=(0.0, 0.2),
                               folds=3, seed=5)
    for name, factory in factories.items():
        base = cross_validate(feats, truth, factory, folds=3, seed=5,
                              selector_name=name)
        zero = sweep.results[name, 0.0]
        assert zero.per_fold == base.per_fold
        assert np.array_equal(zero.gaps, base.gaps)
        for a, b in zip(zero.rankings, base.rankings):
            assert np.array_equal(a, b)

    half = PerformanceMatrix(np.full((8, 6), 0.5), np.ones((8, 6), dtype=bool),
                             [f"g{i}" for i in range(8)],
                             [f"m{j}" for j in range(6)])
    for seed in range(50):
        out = perturb(half, 0.2, seed).values
        assert out.min() >= 0.45 - 1e-12
        assert out.max() <= 0.55 + 1e-12
        assert not np.array_equal(out, half.values)


# criterion: ranking models for one unseen 100,000-edge graph takes under 5
# seconds in-process, with feature and prediction time reported separately
def test_single_graph_selection_latency(tmp_path, caplog):
    corpus = generate_synthetic_corpus(
        CorpusShape(n_graphs=6, families=3, n_models=3, noise=0.05),
        seed=31, min_size=15, max_size=40)
    state = train(corpus.meta_features(), corpus.perf,
                  LearnerConfig(k=8, top_k=5, max_epochs=0, ridge_lambda=1e-3))
    bundle = tmp_path / "latency.bundle"
    save_state(state, str(bundle))

    big = nx.gnm_random_graph(20000, 100000, seed=1)
    graph_file = tmp_path / "big_graph"
    graph_file.write_text("\n".join(f"{u} {v}" for u, v in big.edges()) + "\n")

    with caplog.at_level(logging.INFO, logger="graphsel"):
        t0 = time.perf_counter()
        rc = cli_main(["select", "--bundle", str(bundle),
                       "--graph-file", str(graph_file),
                       "--output-dir", str(tmp_path)])
        elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 5.0, elapsed

    timing_lines = [r.getMessage() for r in caplog.records
                    if "feature_seconds=" in r.getMessage()]
    assert timing_lines
    assert "predict_seconds=" in timing_lines[0]


# criterion: MRR, AUC and NDCG@1 match brute-force oracles on 1,000 random
# instances, and a selector with oracle knowledge scores 1.0 on all three
def test_metrics_match_oracles_and_perfect_selector():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        m = int(rng.integers(2, 15))
        scores = np.round(rng.uniform(size=m) * 8) / 8
        perf = np.round(rng.uniform(size=m) * 8) / 8
        labels = label_top1(perf)
        assert abs(mrr(scores, labels) - mrr_brute(scores, labels)) < 1e-12
        assert abs(ndcg_at_1(scores, perf) - ndcg1_brute(scores, perf)) < 1e-12
        if 0 < labels.sum() < labels.size:
            assert abs(auc(scores, labels) - auc_brute(scores, labels)) < 1e-12

    class OracleSelector:
        """Features below are the truth rows, so ranking by them is exact."""

        def fit(self, features, perf):
            self.model_ids = list(perf.model_ids)
            return self

        def rank(self, m_feat):
            return ScoreSheet(self.model_ids, np.asarray(m_feat, dtype=np.float64))

    rng = np.random.default_rng(18)
    n, m = 16, 4
    values = np.minimum(np.round(rng.uniform(size=(n, m)), 3), 0.9)
    for i in range(n):
        values[i, rng.integers(m)] = 0.95
    truth = PerformanceMatrix(values, np.ones((n, m), dtype=bool),
                              [f"g{i}" for i in range(n)],
                              [f"m{j}" for j in range(m)])
    res = cross_validate(values.copy(), truth, OracleSelector, folds=4, seed=3)
    agg = res.aggregate()
    assert agg["mrr"] == 1.0
    assert agg["auc"] == 1.0
    assert agg["ndcg_at_1"] == 1.0


# criterion: rerunning every command with the same config and seed produces
# byte-identical primary artifacts (the timings file is exempt by design)
def test_reruns_are_byte_identical(tmp_path):
    corpus = generate_synthetic_corpus(
        CorpusShape(n_graphs=25, families=3, n_models=3, noise=0.05),
        seed=21, min_size=20, max_size=45)
    graph_dir = tmp_path / "graphs"
    graph_dir.mkdir()
    for gid, g in zip(corpus.perf.graph_ids, corpus.graphs):
        (graph_dir / gid).write_text(serialize(g))
    perf_csv = tmp_path / "perf.csv"
    perf_csv.write_text(to_csv(corpus.perf))

    feat_dir = tmp_path / "feat"
    train_dir = tmp_path / "train"
    select_dir = tmp_path / "select"
    eval_dir = tmp_path / "eval"

    features_argv = ["features", "--graph-dir", str(graph_dir),
                     "--output-dir", str(feat_dir)]
    train_argv = ["--set", "hyper.k=4", "--set", "hyper.top_k=3",
                  "--set", "hyper.layers=1", "--set", "hyper.heads=1",
                  "--set", "hyper.max_epochs=2", "--set", "hyper.min_epochs=0",
                  "--set", "hyper.ridge_lambda=0.001",
                  "train", "--features-csv", str(feat_dir / "features.csv"),
                  "--performance-csv", str(perf_csv),
                  "--output-dir", str(train_dir)]
    select_argv = ["select", "--bundle", str(train_dir / "model.bundle"),
                   "--graph-file", str(graph_dir / "g001"),
                   "--output-dir", str(select_dir)]
    eval_argv = ["--set", "eval.synthetic=false", "--set", "eval.folds=2",
                 "--set", "eval.selectors=random,gb_avgperf,argosmart",
                 "--set", "eval.sweep_selectors=random,gb_avgperf",
                 "--set", "eval.sparsities=0,0.5",
                 "--set", "eval.perturbation_rates=0,0.2",
                 "--set", "paths.features_csv=" + str(feat_dir / "features.csv"),
                 "--set", "paths.performance_csv=" + str(perf_csv),
                 "evaluate", "--output-dir", str(eval_dir)]

    artifacts = {
        "features.csv": feat_dir, "model.bundle": train_dir,
        "training_log.csv": train_dir, "ranking.csv": select_dir,
        "cv_results.csv": eval_dir, "sparsity_sweep.csv": eval_dir,
        "perturbation_sweep.csv": eval_dir, "summary.json": eval_dir,
    }

    def run_all():
        for argv in (features_argv, train_argv, select_argv, eval_argv):
            assert cli_main(argv) == 0
        return {name: (d / name).read_bytes() for name, d in artifacts.items()}

    first = run_all()
    second = run_all()
    for name in artifacts:
        assert first[name] == second[name], f"{name} changed between reruns"
    json.loads(first["summary.json"].decode())          # still valid JSON


# criterion: the BLAS thread count may move the last bits, never a ranking. A
# short default train on the seed-5 planted corpus and its selections, run
# under 1 and under 2 OpenBLAS threads, take the same epochs, rank every
# graph the same, and each score row agrees within SCORE_RTOL_ACROSS_THREADS
# of its largest |score| (the README's determinism contract)
SCORE_RTOL_ACROSS_THREADS = 1e-10
THREAD_COUNT_RUN = """
import json
from graphsel.learner import LearnerConfig, select_model, train
from graphsel.synth import CorpusShape, generate_synthetic_corpus
corpus = generate_synthetic_corpus(
    CorpusShape(n_graphs=60, families=3, n_models=8, noise=0.05), seed=5)
feats = corpus.meta_features()
state = train(feats, corpus.perf, LearnerConfig(max_epochs=20))
print(json.dumps({"epochs": len(state.training_log),
                  "scores": [select_model(state, f).scores.tolist() for f in feats[:10]]}))
"""


def child_env(**extra):
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(graphsel.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_blas_thread_count_keeps_rankings_and_scores_within_tolerance():
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    if cores < 2:
        pytest.skip("needs 2 usable cores to run 2 BLAS threads")
    runs = []
    for threads in ("1", "2"):
        # the thread count is read when numpy loads, so each count gets a process
        child = subprocess.run([sys.executable, "-c", THREAD_COUNT_RUN],
                               env=child_env(OPENBLAS_NUM_THREADS=threads),
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        runs.append(json.loads(child.stdout.splitlines()[-1]))
    one, two = runs
    assert one["epochs"] == two["epochs"] == 20
    for a, b in zip(np.array(one["scores"]), np.array(two["scores"])):
        assert np.array_equal(rank_descending(a), rank_descending(b))
        assert np.abs(a - b).max() <= SCORE_RTOL_ACROSS_THREADS * np.abs(b).max()


# criterion: `select` loads only what it uses; importing the package and its
# CLI does not import networkx, which only the synthetic corpus needs
def test_importing_the_package_and_cli_leaves_networkx_unloaded():
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, graphsel, graphsel.cli; print('networkx' in sys.modules)"],
        env=child_env(), capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"


# VmHWM, not ru_maxrss: Linux keeps the larger of the two across an exec, so
# a child's ru_maxrss starts at the peak of the process that started it
STAR_FEATURES_RUN = """
import numpy as np
from graphsel.features import meta_graph_features
from graphsel.graphs import from_edges
leaves = 8000
meta_graph_features(from_edges(leaves + 1, np.stack(
    [np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1)], axis=1)))
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


# criterion: feature memory follows the edge count, not the largest degree;
# the whole A·A of this 7,999-edge star holds 64M entries
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux VmHWM")
def test_features_of_an_8000_leaf_star_stay_under_200_mb():
    child = subprocess.run([sys.executable, "-c", STAR_FEATURES_RUN],
                           env=child_env(), capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    peak_mb = int(child.stdout.splitlines()[-1]) / 1024      # VmHWM is in kB
    assert peak_mb < 200, f"peak RSS {peak_mb:.0f} MB"
