"""Meta-learner: forward pass vs a straight-line oracle, listwise loss,
gradient checking, training loop behavior, and bundle persistence."""

import logging
import pickle

import numpy as np
import pytest

from graphsel.autodiff import Tensor
from graphsel.gmnet import RELATIONS, REL_INDEX, REL_TYPES, build_train_network, extend_with_test
from graphsel.learner import (
    LearnerConfig,
    _forward_scores,
    _loss_and_grads,
    embed_network,
    estimate_performance,
    finite_difference_grads,
    gradient_check,
    init_params,
    load_state,
    make_tiny_problem,
    max_relative_error,
    save_state,
    select_model,
    sparse_top1_loss,
    top1_loss,
    top1_probability,
    train,
)
from graphsel.perf import PerformanceMatrix
from graphsel.ranking import ScoreSheet


# --- independent forward oracle ---------------------------------------------

def forward_oracle(params, net):
    """Edge-by-edge numpy replica of the attention stack, no autodiff."""
    k = params["V"].shape[1]
    layers = len([name for name in params if name.endswith(".att")])
    ng, m = net.n_graphs, net.n_models

    zg = net.graph_features @ params["W"].T
    zm = params["V"].copy()

    for layer in range(layers):
        recs = []
        first_id = (m, 0)                   # table ids: models, then graphs
        for src, dst, r in zip(net.src, net.dst, net.rel):
            rel = RELATIONS[r]
            st, tt = REL_TYPES[rel]
            s, t = int(src) - first_id[st], int(dst) - first_id[tt]
            recs.append((rel, s, t, st, tt, t + (ng if tt == 1 else 0)))
        alpha_g = float(params[f"l{layer}.alpha.g"])
        alpha_m = float(params[f"l{layer}.alpha.m"])
        if not recs:
            zg = zg * alpha_g
            zm = zm * alpha_m
            continue

        proj = {}
        for name in ("K", "Q", "M"):
            proj[name, 0] = zg @ params[f"l{layer}.{name}.g"]
            proj[name, 1] = zm @ params[f"l{layer}.{name}.m"]

        heads = params[f"l{layer}.att"].shape[1]
        dk = k // heads
        agg = np.zeros((ng + m, k))
        tgts = np.array([r[5] for r in recs])
        for h in range(heads):
            lo, hi = h * dk, (h + 1) * dk
            logits = np.empty(len(recs))
            for e, (rel, s, t, st, tt, tgt) in enumerate(recs):
                ks = proj["K", st][s, lo:hi]
                qd = proj["Q", tt][t, lo:hi]
                att_w = params[f"l{layer}.att"][REL_INDEX[rel], h]
                mu = float(params[f"l{layer}.mu"][REL_INDEX[rel]])
                logits[e] = (ks @ att_w) @ qd * mu / np.sqrt(dk)
            att = np.zeros(len(recs))
            for tgt in np.unique(tgts):
                rows = np.flatnonzero(tgts == tgt)
                e = np.exp(logits[rows] - logits[rows].max())
                att[rows] = e / e.sum()
            for (rel, s, t, st, tt, tgt), a in zip(recs, att):
                agg[tgt, lo:hi] += a * proj["M", st][s, lo:hi]

        zg = zg * alpha_g + agg[:ng] @ params[f"l{layer}.O.g"]
        zm = zm * alpha_m + agg[ng:] @ params[f"l{layer}.O.m"]
    return zg @ zm.T


def perturbed_params(params, rng, scale=0.1):
    """Kick every parameter off the near-identity start."""
    return {name: np.asarray(arr + rng.normal(scale=scale, size=arr.shape))
            for name, arr in params.items()}


def assert_scores_close(got, want, tol=1e-10):
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= tol * scale


def test_forward_matches_oracle_on_tiny_problem():
    net, params, pv, obs = make_tiny_problem(seed=2)
    assert_scores_close(_forward_scores(params, net), forward_oracle(params, net))


def test_forward_matches_oracle_with_generic_parameters():
    rng = np.random.default_rng(11)
    n, m, k, meta_dim = 6, 4, 4, 5
    u = rng.uniform(0.1, 1.0, size=(n, k))
    v = rng.uniform(0.1, 1.0, size=(m, k))
    feats = rng.normal(size=(n, meta_dim))
    net = build_train_network(u, v, feats, top_k=2)
    params = perturbed_params(
        init_params(rng, meta_dim, k, layers=2, heads=2, n_models=m, v_init=v), rng)
    assert_scores_close(_forward_scores(params, net), forward_oracle(params, net))


def test_forward_matches_oracle_on_extended_network():
    for layers, heads in ((1, 1), (2, 2)):
        rng = np.random.default_rng(4)
        net, params, pv, obs = make_tiny_problem(seed=4, layers=layers, heads=heads)
        params = perturbed_params(params, rng)
        m_test = rng.normal(size=net.meta_dim)
        u_test = rng.uniform(0.1, 1.0, size=params["V"].shape[1])
        ext = extend_with_test(net, m_test, u_test)
        assert_scores_close(_forward_scores(params, ext), forward_oracle(params, ext))


def test_input_feature_and_scoring_helpers():
    net, params, pv, obs = make_tiny_problem()
    zg = net.graph_features @ params["W"].T
    assert np.allclose(estimate_performance(zg[0], params["V"]), zg[0] @ params["V"].T)


# --- initialization ----------------------------------------------------------

def test_init_params_near_identity_structure():
    rng = np.random.default_rng(0)
    meta_dim, k, heads = 7, 8, 2
    v = rng.uniform(size=(5, k))
    params = init_params(rng, meta_dim, k, layers=2, heads=heads, n_models=5, v_init=v)

    assert np.array_equal(params["W"][:, :meta_dim], np.zeros((k, meta_dim)))
    assert np.array_equal(params["W"][:, meta_dim:], np.eye(k))
    assert np.array_equal(params["V"], v)
    params["V"][0, 0] = 99.0
    assert v[0, 0] != 99.0                      # stored copy, not a view

    for layer in range(2):
        for t in ("g", "m"):
            assert params[f"l{layer}.K.{t}"].shape == (k, k)
            assert params[f"l{layer}.alpha.{t}"] == 1.0
        # output projections start two orders smaller than the glorot draws
        assert np.abs(params[f"l{layer}.O.g"]).max() < 0.1 * np.abs(params[f"l{layer}.K.g"]).max()
        assert np.array_equal(params[f"l{layer}.mu"], np.ones(len(RELATIONS)))
        assert params[f"l{layer}.att"].shape == (len(RELATIONS), heads, k // heads, k // heads)


def test_init_params_validation_and_default_v():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="divisible"):
        init_params(rng, 4, 6, layers=1, heads=4, n_models=3)
    params = init_params(rng, 4, 4, layers=1, heads=1, n_models=3)
    assert params["V"].shape == (3, 4)
    assert params["V"].min() >= 0.0 and params["V"].max() <= 1.0 / 2.0


def test_epoch_zero_scores_equal_factor_predictions():
    # W = [0 | I] and O ~ 0: graph state is its estimated factor row, so the
    # initial score matrix is close to u_hat @ V.T
    rng = np.random.default_rng(3)
    n, m, k, meta_dim = 5, 3, 4, 6
    u = rng.uniform(0.1, 1.0, size=(n, k))
    v = rng.uniform(0.1, 1.0, size=(m, k))
    feats = rng.normal(size=(n, meta_dim))
    net = build_train_network(u, v, feats, top_k=2)
    params = init_params(rng, meta_dim, k, layers=1, heads=1, n_models=m, v_init=v)
    scores = _forward_scores(params, net)
    # residual output projections are scaled by 0.01, so the attention stack
    # moves scores only slightly off the factor-product warm start
    assert np.abs(scores - u @ v.T).max() < 0.15
    assert np.abs(scores - u @ v.T).max() > 0.0


# --- listwise loss ------------------------------------------------------------

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


def test_top1_probability_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.integers(2, 12)
        s = rng.normal(size=m) * 3
        obs = rng.random(m) < 0.6
        obs[rng.integers(m)] = True
        p = top1_probability(s, obs)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p[~obs] == 0.0)
        assert np.all(p[obs] > 0.0)
        shifted = top1_probability(s + 137.25, obs)
        assert np.abs(p - shifted).max() < 1e-12

    full = top1_probability(np.array([1.0, 2.0, 3.0]))
    e = np.exp([1.0, 2.0, 3.0])
    assert np.allclose(full, e / e.sum())


def test_top1_probability_rejects_unusable_rows():
    with pytest.raises(ValueError):
        top1_probability(np.array([1.0, 2.0]), np.array([False, False]))
    with pytest.raises(ValueError):
        top1_probability(np.array([]))


def test_losses_match_scalar_oracle_on_masked_instances():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = rng.integers(1, 8)
        m = rng.integers(2, 10)
        pv = rng.uniform(size=(n, m))
        s = rng.normal(size=(n, m)) * 2
        obs = rng.random((n, m)) < 0.6
        want = loss_oracle(pv, obs, s)
        assert abs(top1_loss(pv, obs, s) - want) < 1e-10
        got = sparse_top1_loss(Tensor.const(s), pv, obs).item()
        assert abs(got - want) < 1e-10


def test_empty_rows_contribute_exactly_zero():
    pv = np.array([[0.3, 0.9], [0.5, 0.1]])
    s = np.array([[1.0, -1.0], [0.5, 2.0]])
    obs = np.array([[True, True], [True, True]])
    base = top1_loss(pv, obs, s)

    pv2 = np.vstack([pv, [0.2, 0.8]])
    s2 = np.vstack([s, [3.0, -3.0]])
    obs2 = np.vstack([obs, [False, False]])
    assert top1_loss(pv2, obs2, s2) == base
    assert sparse_top1_loss(Tensor.const(s2), pv2, obs2).item() == \
        sparse_top1_loss(Tensor.const(s), pv, obs).item()

    none = np.zeros((2, 2), dtype=bool)
    assert top1_loss(pv, none, s) == 0.0
    assert sparse_top1_loss(Tensor.const(s), pv, none).item() == 0.0


def test_sparse_loss_gradient_flows_only_to_observed_rows():
    pv = np.array([[0.3, 0.9], [0.5, 0.1]])
    obs = np.array([[True, True], [False, False]])
    scores = Tensor.param(np.array([[1.0, -1.0], [0.5, 2.0]]))
    sparse_top1_loss(scores, pv, obs).backward()
    assert np.any(scores.grad[0] != 0.0)
    assert np.all(scores.grad[1] == 0.0)


# --- gradient checking ---------------------------------------------------------

def forward_loss(net, pv, obs):
    """Loss as a function of the parameters, forward pass only."""
    def loss_fn(p):
        pt = {name: Tensor(arr) for name, arr in p.items()}
        zg, zm = embed_network(pt, net)
        return sparse_top1_loss(zg @ zm.transpose(), pv, obs).item()
    return loss_fn


def test_backprop_matches_finite_differences_and_detects_corruption():
    net, params, pv, obs = make_tiny_problem(seed=0)
    _, analytic = _loss_and_grads(params, net, pv, obs)
    fd = finite_difference_grads(forward_loss(net, pv, obs), params, step=1e-5)
    assert max_relative_error(analytic, fd) < 1e-4

    # a 50% error in the single largest gradient entry must be flagged
    corrupted = {k: v.copy() for k, v in analytic.items()}
    name = max(corrupted, key=lambda k: np.abs(corrupted[k]).max())
    flat = corrupted[name].reshape(-1)
    i = int(np.argmax(np.abs(flat)))
    flat[i] *= 1.5
    assert max_relative_error(corrupted, fd) > 1e-2


def test_backprop_matches_finite_differences_with_two_layers_and_heads():
    # off the near-identity start, so every layer and head carries gradient
    net, params, pv, obs = make_tiny_problem(seed=3, layers=2, heads=2)
    params = perturbed_params(params, np.random.default_rng(3))
    _, analytic = _loss_and_grads(params, net, pv, obs)
    fd = finite_difference_grads(forward_loss(net, pv, obs), params, step=1e-5)
    assert np.abs(analytic["l0.att"]).min() > 0.0
    assert max_relative_error(analytic, fd) < 1e-4


def test_gradient_check_entry_point():
    assert gradient_check(seed=1) < 1e-4


def test_finite_differences_perturb_any_layout_in_place():
    # an F-ordered array and a 0-d array must be perturbed in place, not
    # through a copy that leaves the loss unchanged
    w = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    params = {"w": w, "b": np.array(1.5)}
    fd = finite_difference_grads(lambda p: float((p["w"] ** 2).sum() + p["b"] ** 2), params)
    assert np.allclose(fd["w"], 2.0 * w, atol=1e-6)
    assert np.allclose(fd["b"], 3.0, atol=1e-6)
    with pytest.raises(TypeError, match="'b'"):
        finite_difference_grads(lambda p: 0.0, {"b": np.float64(1.5)})


# --- training loop --------------------------------------------------------------

def small_training_problem(seed=0, n=20, m=5, meta_dim=12):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, meta_dim))
    values = rng.uniform(size=(n, m))
    observed = np.ones((n, m), dtype=bool)
    perf = PerformanceMatrix(values, observed,
                             [f"g{i}" for i in range(n)],
                             [f"mod{j}" for j in range(m)])
    return feats, perf


def fast_config(**kw):
    base = dict(k=4, top_k=3, layers=1, heads=1, max_epochs=3, min_epochs=0,
                patience=50, seed=5, nmf_max_iter=50, ridge_lambda=1e-3)
    base.update(kw)
    return LearnerConfig(**base)


def test_train_is_deterministic():
    feats, perf = small_training_problem()
    a = train(feats, perf, fast_config())
    b = train(feats, perf, fast_config())
    assert sorted(a.params) == sorted(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name]), name
    assert a.training_log == b.training_log
    assert np.array_equal(a.phi.weights, b.phi.weights)


def test_training_log_and_epochs():
    feats, perf = small_training_problem(seed=3)
    state = train(feats, perf, fast_config(max_epochs=10))
    assert len(state.training_log) == 10
    for entry in state.training_log:
        assert set(entry) == {"epoch", "loss", "val_mrr", "stop_score"}
        assert np.isfinite(entry["loss"])
        assert 0.0 <= entry["val_mrr"] <= 1.0
    assert [e["epoch"] for e in state.training_log] == list(range(10))


def test_zero_epochs_returns_warm_start():
    feats, perf = small_training_problem(seed=1)
    state = train(feats, perf, fast_config(max_epochs=0))
    assert state.training_log == []
    k = state.params["V"].shape[1]
    meta_dim = feats.shape[1]
    assert np.array_equal(state.params["W"][:, :meta_dim], np.zeros((k, meta_dim)))
    assert np.array_equal(state.params["W"][:, meta_dim:], np.eye(k))


def test_dimensions_shrink_to_fit_data():
    feats, perf = small_training_problem()
    state = train(feats, perf, fast_config(k=32, heads=4, max_epochs=0))
    # 18 training rows, 5 models: k capped at 5, heads must divide it
    assert state.params["V"].shape[1] == 5
    assert state.params["l0.att"].shape[1] == 1


def test_train_input_validation():
    feats, perf = small_training_problem()
    with pytest.raises(ValueError, match="one row per graph"):
        train(feats[:-1], perf, fast_config())

    f5, p5 = small_training_problem(n=4)
    with pytest.raises(ValueError, match="at least 5 graphs"):
        train(f5, p5, fast_config())

    rng = np.random.default_rng(0)
    one_col = PerformanceMatrix(rng.uniform(size=(6, 1)), np.ones((6, 1), dtype=bool),
                                [f"g{i}" for i in range(6)], ["m0"])
    with pytest.raises(ValueError, match="at least 2 models"):
        train(rng.normal(size=(6, 3)), one_col, fast_config())


def test_sparse_holdout_keeps_warm_start(caplog):
    rng = np.random.default_rng(2)
    n, m = 20, 5
    feats = rng.normal(size=(n, 8))
    values = rng.uniform(size=(n, m))
    observed = np.zeros((n, m), dtype=bool)
    observed[np.arange(n), rng.integers(0, m, size=n)] = True   # one entry per row
    perf = PerformanceMatrix(values, observed,
                             [f"g{i}" for i in range(n)], [f"mod{j}" for j in range(m)])
    with caplog.at_level(logging.WARNING, logger="graphsel.learner"):
        state = train(feats, perf, fast_config(max_epochs=5))
    assert state.training_log == []
    assert any("warm-start" in r.message for r in caplog.records)


# --- persistence and online selection -------------------------------------------

def test_bundle_round_trip(tmp_path):
    feats, perf = small_training_problem(seed=6)
    state = train(feats, perf, fast_config(max_epochs=2))
    path = str(tmp_path / "model.bundle")
    save_state(state, path)
    back = load_state(path)

    assert sorted(back.params) == sorted(state.params)
    for name in state.params:
        assert np.array_equal(back.params[name], state.params[name])
    assert np.array_equal(back.phi.weights, state.phi.weights)
    assert back.phi.ridge_lambda == state.phi.ridge_lambda
    assert np.array_equal(back.phi.feature_mean, state.phi.feature_mean)
    for table in ("src", "dst", "rel"):
        assert np.array_equal(getattr(back.network, table), getattr(state.network, table))
    assert back.model_ids == state.model_ids
    assert back.training_log == state.training_log
    assert back.schema_version == state.schema_version


def test_bundle_version_checks(tmp_path):
    feats, perf = small_training_problem(seed=6)
    state = train(feats, perf, fast_config(max_epochs=0))
    path = str(tmp_path / "model.bundle")
    save_state(state, path)
    with open(path, "rb") as fh:
        payload = pickle.load(fh)

    # format 1 held one attention matrix per relation and head, format 2
    # per-relation edge arrays, format 3 a second feature z-scoring and the
    # layer sizes next to the parameters
    for version in (1, 2, 3, 99):
        payload_bad = dict(payload, format_version=version)
        bad = str(tmp_path / "bad_format.bundle")
        with open(bad, "wb") as fh:
            pickle.dump(payload_bad, fh)
        with pytest.raises(ValueError, match="unsupported bundle format"):
            load_state(bad)

    payload_bad = dict(payload, schema_version=payload["schema_version"] + 1)
    bad2 = str(tmp_path / "bad_schema.bundle")
    with open(bad2, "wb") as fh:
        pickle.dump(payload_bad, fh)
    with pytest.raises(ValueError, match="schema"):
        load_state(bad2)


def test_select_model_matches_oracle_pipeline():
    feats, perf = small_training_problem(seed=8)
    state = train(feats, perf, fast_config(max_epochs=1))
    m_feat = np.random.default_rng(12).normal(size=feats.shape[1])

    sheet = select_model(state, m_feat)
    assert isinstance(sheet, ScoreSheet)
    assert list(sheet.model_ids) == list(perf.model_ids)
    assert np.all(np.isfinite(sheet.scores))

    z = (m_feat - state.phi.feature_mean) / state.phi.feature_scale
    ext = extend_with_test(state.network, z, z @ state.phi.weights + state.phi.intercept)
    want = forward_oracle(state.params, ext)[-1]
    assert_scores_close(sheet.scores, want)

    again = select_model(state, m_feat)
    assert np.array_equal(again.scores, sheet.scores)
