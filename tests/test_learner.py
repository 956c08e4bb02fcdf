"""Meta-learner: forward pass vs a straight-line oracle, listwise loss,
gradient checking, training loop behavior, and bundle persistence."""

import ast
import logging
import pickle
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from graphsel import learner
from graphsel.autodiff import Tensor
from graphsel.features import SCHEMA_VERSION
from graphsel.gmnet import (RELATIONS, REL_INDEX, REL_TYPES, GMNetwork, build_train_network,
                            extend_with_test)
from graphsel.learner import (
    VAL_FRACTION,
    LearnerConfig,
    _forward_scores,
    _loss_and_grads,
    embed_network,
    init_params,
    load_state,
    param_shapes,
    plan_network,
    save_state,
    select_model,
    sparse_top1_loss,
    top1_probability,
    train,
)
from graphsel.metrics import label_top1, mrr
from graphsel.perf import PerformanceMatrix
from graphsel.ranking import ScoreSheet
from graphsel.synth import CorpusShape, generate_synthetic_corpus
from oracles import (edge_scores_chain, finite_difference_grads, gradient_check,
                     init_params_literal, make_tiny_problem, max_relative_error, param,
                     read_bundle, relation_keys_per_node, weighted_segment_sum_chain,
                     write_bundle)


# --- independent forward oracle ---------------------------------------------

def forward_oracle(params, net):
    """Edge-by-edge numpy replica of the attention stack, no autodiff."""
    k = params["V"].shape[1]
    layers = len([name for name in params if name.endswith(".att")])
    ng, m = net.n_graphs, net.n_models

    zg = net.stacked_graph_features() @ params["W"].T
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


def scores_of(params, net, graph_rows=None):
    """Untaped scores of `net` over plans built for this one pass."""
    return _forward_scores(params, net, plan_network(net, graph_rows))


def test_forward_matches_oracle_on_tiny_problem():
    net, params, pv, obs = make_tiny_problem(seed=2)
    assert_scores_close(scores_of(params, net), forward_oracle(params, net))


def test_forward_matches_oracle_with_generic_parameters():
    rng = np.random.default_rng(11)
    n, m, k, meta_dim = 6, 4, 4, 5
    u = rng.uniform(0.1, 1.0, size=(n, k))
    v = rng.uniform(0.1, 1.0, size=(m, k))
    feats = rng.normal(size=(n, meta_dim))
    net = build_train_network(u, v, feats, top_k=2)
    params = perturbed_params(
        init_params(rng, meta_dim, k, layers=2, heads=2, n_models=m, v_init=v), rng)
    assert_scores_close(scores_of(params, net), forward_oracle(params, net))


def test_forward_matches_oracle_on_extended_network():
    for layers, heads in ((1, 1), (2, 2)):
        rng = np.random.default_rng(4)
        net, params, pv, obs = make_tiny_problem(seed=4, layers=layers, heads=heads)
        params = perturbed_params(params, rng)
        m_test = rng.normal(size=net.meta_dim)
        u_test = rng.uniform(0.1, 1.0, size=params["V"].shape[1])
        ext = extend_with_test(net, m_test, u_test)
        assert_scores_close(scores_of(params, ext), forward_oracle(params, ext))


def assert_rel_close(got, want, tol=1e-12):
    """Within tol of the largest |want|."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


def test_scored_rows_pass_equals_full_pass_rows():
    for layers, heads in ((1, 1), (2, 2)):
        rng = np.random.default_rng(6)
        net, params, _, _ = make_tiny_problem(seed=6, layers=layers, heads=heads)
        params = perturbed_params(params, rng)
        ext = extend_with_test(net, rng.normal(size=net.meta_dim),
                               rng.uniform(0.1, 1.0, size=params["V"].shape[1]))
        for g in (net, ext):
            full = scores_of(params, g)
            for rows in ([g.n_graphs - 1], [2, 0], list(range(g.n_graphs))):
                assert_rel_close(scores_of(params, g, rows), full[rows])


def test_union_pass_equals_each_copy_alone():
    rng = np.random.default_rng(8)
    net, params, _, _ = make_tiny_problem(seed=8, layers=2, heads=2)
    params = perturbed_params(params, rng)
    k = params["V"].shape[1]
    m_test, u_test = rng.normal(size=(3, net.meta_dim)), rng.uniform(0.1, 1.0, size=(3, k))
    copies = [extend_with_test(net, a, b) for a, b in zip(m_test, u_test)]
    union = extend_with_test(net, m_test, u_test)
    m = net.n_models
    last = np.cumsum([c.n_graphs for c in copies]) - 1
    scores = scores_of(params, union, last)
    for c, copy in enumerate(copies):
        assert_rel_close(scores[c, c * m:(c + 1) * m], scores_of(params, copy)[-1])
    with pytest.raises(ValueError, match="whole copies"):
        # 9 model nodes are not whole copies of 5 model rows
        scores_of({**params, "V": np.vstack([params["V"], params["V"][:2]])}, union)


def test_backward_frees_interior_gradients_and_keeps_the_parameters():
    """After the loss's backward pass every interior tensor's gradient is
    gone, and the parameters hold theirs, with the bytes `_loss_and_grads`
    returns."""
    net, params, pv, obs = make_tiny_problem(seed=3, layers=2, heads=2)
    pt = {name: param(a) for name, a in params.items()}
    loss = sparse_top1_loss(learner._scores(pt, net, plan_network(net)), pv, obs)
    loss.backward()
    tape, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in tape:
            tape[id(t)] = t
            stack.extend(t.parents)
    interior = [t for t in tape.values() if t.parents]
    assert len(interior) > 50 and all(t.grad is None for t in interior)
    _, grads = _loss_and_grads(params, net, plan_network(net), pv, obs)
    assert all(pt[name].grad.tobytes() == grads[name].tobytes() for name in params)


def test_forward_over_constant_parameters_records_no_tape():
    net, params, _, _ = make_tiny_problem(seed=0, layers=2, heads=2)
    plans = plan_network(net)
    zg, zm = embed_network({name: Tensor.const(a) for name, a in params.items()}, net, plans)
    assert zg.parents == () and zm.parents == ()
    assert not zg.requires_grad and not zm.requires_grad

    zg, zm = embed_network({name: param(a) for name, a in params.items()}, net, plans)
    assert zg.parents and zm.parents


def test_kept_plans_give_the_bits_of_a_fresh_network():
    rng = np.random.default_rng(9)
    net, params, _, _ = make_tiny_problem(seed=9, layers=2, heads=2)
    params = perturbed_params(params, rng)
    ext = extend_with_test(net, rng.normal(size=net.meta_dim),
                           rng.uniform(0.1, 1.0, size=params["V"].shape[1]))
    for g in (net, ext):
        pv = rng.uniform(size=(g.n_graphs, g.n_models))
        obs = rng.random(pv.shape) < 0.8
        obs[:, 0] = True
        rows = [g.n_graphs - 1, 0]
        full, scored = plan_network(g), plan_network(g, rows)
        # segments sort and build their scatter matrices on first use: the
        # first pass over a plan pair builds them, the second reads them
        kept = [(_loss_and_grads(params, g, full, pv, obs), _forward_scores(params, g, scored))
                for _ in range(2)]
        (loss, grads), scores = (_loss_and_grads(params, g, plan_network(g), pv, obs),
                                 scores_of(params, g, rows))
        for (kept_loss, kept_grads), kept_scores in kept:
            assert kept_loss == loss
            assert all(kept_grads[name].tobytes() == grads[name].tobytes() for name in grads)
            assert kept_scores.tobytes() == scores.tobytes()


def test_train_and_select_plan_each_network_once(monkeypatch):
    layer_plan, built = learner._layer_plan, []

    def counted(net, graph_rows=None):
        built.append(graph_rows is not None)
        return layer_plan(net, graph_rows)

    monkeypatch.setattr(learner, "_layer_plan", counted)
    feats, perf = small_training_problem()
    state = train(feats, perf, fast_config(max_epochs=10))
    assert len(state.training_log) == 10
    # the training network, the holdout's extended network, and its scored rows
    assert built == [False, False, True]
    built.clear()
    select_model(state, feats[0])
    assert built == [False, True]


def assert_a_planted_train_keeps_its_bits(monkeypatch, name, chain):
    """A default train on the seed-5 planted corpus (10 epochs) and the
    scores `select_model` gives with it have the same bytes whether
    `learner.<name>` is the fused op or the `chain` of ops it replaced."""
    corpus = generate_synthetic_corpus(
        CorpusShape(n_graphs=60, families=3, n_models=8, noise=0.05), seed=5)
    feats = corpus.meta_features()
    config = LearnerConfig(max_epochs=10)
    fused = train(feats, corpus.perf, config)
    fused_scores = [select_model(fused, f).scores for f in feats[:5]]
    monkeypatch.setattr(learner, name, chain)
    unfused = train(feats, corpus.perf, config)

    assert len(fused.training_log) == 10
    assert repr(fused.training_log) == repr(unfused.training_log)
    assert fused.params.keys() == unfused.params.keys()
    assert all(fused.params[key].tobytes() == unfused.params[key].tobytes()
               for key in fused.params)
    for f, scores in zip(feats[:5], fused_scores):
        assert select_model(fused, f).scores.tobytes() == scores.tobytes()


def test_fused_aggregation_keeps_the_bits_of_a_planted_train(monkeypatch):
    """Each layer aggregates with the fused op or with the gather -> weight
    -> segment_sum chain."""
    assert_a_planted_train_keeps_its_bits(monkeypatch, "weighted_segment_sum",
                                          weighted_segment_sum_chain)


def test_fused_edge_scores_keep_the_bits_of_a_planted_train(monkeypatch):
    """Each layer scores its edges with the fused op or with the gather ->
    einsum chain."""
    assert_a_planted_train_keeps_its_bits(monkeypatch, "edge_scores", edge_scores_chain)


def test_folded_keys_match_the_per_node_oracle():
    """Folding each relation's form into the key weights gives the per-node
    keys, and the same gradients, up to rounding."""
    rng = np.random.default_rng(21)
    for heads, dk in ((4, 2), (4, 8)):
        k, m, ng = heads * dk, 13, 29
        operands = [rng.normal(size=shape) for shape in
                    ((m, k), (ng, k), (k, k), (k, k), (len(RELATIONS), heads, dk, dk))]
        weights = rng.normal(size=((m + ng) * len(RELATIONS), heads, dk))
        runs = []
        for keys_of in (learner.relation_keys, relation_keys_per_node):
            zm, zg, k_m, k_g, att = (param(a) for a in operands)
            keyed = keys_of(zm, zg, k_m, k_g, att)
            (keyed * Tensor.const(weights)).sum().backward()
            runs.append((keyed.value, [t.grad for t in (zm, zg, k_m, k_g, att)]))
        (got, got_grads), (want, want_grads) = runs
        assert_rel_close(got, want, tol=1e-12)
        for g, w in zip(got_grads, want_grads):
            assert_rel_close(g, w, tol=1e-10)


def test_folded_keys_train_like_the_per_node_keys(monkeypatch):
    """A default train on the seed-5 planted corpus (10 epochs) runs the
    same epochs and ranks 5 graphs the same with folded or per-node keys;
    losses and scores agree far below any ranking gap."""
    corpus = generate_synthetic_corpus(
        CorpusShape(n_graphs=60, families=3, n_models=8, noise=0.05), seed=5)
    feats = corpus.meta_features()
    config = LearnerConfig(max_epochs=10)
    runs = []
    for keys_of in (learner.relation_keys, relation_keys_per_node):
        monkeypatch.setattr(learner, "relation_keys", keys_of)
        state = train(feats, corpus.perf, config)
        runs.append((state.training_log, [select_model(state, f) for f in feats[:5]]))
    (folded_log, folded), (per_node_log, per_node) = runs

    assert len(folded_log) == len(per_node_log) == 10
    for a, b in zip(folded_log, per_node_log):
        assert a["epoch"] == b["epoch"]
        for key in ("loss", "stop_score"):
            assert abs(a[key] - b[key]) <= 1e-10 * abs(b[key])
    for a, b in zip(folded, per_node):
        assert a.model_ids == b.model_ids
        assert list(a.ranking()) == list(b.ranking())
        assert_rel_close(a.scores, b.scores, tol=1e-10)


# --- initialization ----------------------------------------------------------

def test_init_params_near_identity_structure():
    rng = np.random.default_rng(0)
    meta_dim, k, heads = 7, 8, 2
    v = rng.uniform(size=(5, k))
    params = init_params(rng, meta_dim, k, layers=2, heads=heads, n_models=5, v_init=v)
    # the one shape table names what init_params makes, in its order
    assert list(param_shapes(meta_dim, k, 2, heads, 5).items()) == \
        [(name, arr.shape) for name, arr in params.items()]

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


@pytest.mark.parametrize("meta_dim,k,layers,heads,n_models,warm", [
    (818, 8, 2, 4, 8, True), (6, 4, 1, 1, 3, False), (10, 12, 3, 3, 5, False), (5, 6, 0, 2, 4, False)])
def test_init_params_draws_what_the_literal_version_drew(meta_dim, k, layers, heads, n_models, warm):
    v = np.random.default_rng(7).uniform(size=(n_models, k)) if warm else None
    got = init_params(np.random.default_rng(11), meta_dim, k, layers, heads, n_models, v_init=v)
    want = init_params_literal(np.random.default_rng(11), meta_dim, k, layers, heads,
                               n_models, v_init=v)
    assert list(got) == list(want)
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype and got[name].shape == arr.shape, name
        assert got[name].tobytes() == arr.tobytes(), name


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
    scores = scores_of(params, net)
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


def test_top1_probability_matrix_equals_each_row():
    rng = np.random.default_rng(5)
    for m in (1, 2, 7, 9, 130, 300):
        s = rng.normal(size=(6, m)) * 3
        obs = rng.random((6, m)) < 0.6
        obs[np.arange(6), rng.integers(m, size=6)] = True
        q = top1_probability(s, obs)
        for i in range(6):
            assert np.array_equal(q[i], top1_probability(s[i], obs[i]))
        assert np.array_equal(top1_probability(s), np.stack([top1_probability(r) for r in s]))
    obs[3] = False
    with pytest.raises(ValueError, match="per row"):
        top1_probability(s, obs)


def test_losses_match_scalar_oracle_on_masked_instances():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = rng.integers(1, 8)
        m = rng.integers(2, 10)
        pv = rng.uniform(size=(n, m))
        s = rng.normal(size=(n, m)) * 2
        obs = rng.random((n, m)) < 0.6
        want = loss_oracle(pv, obs, s)
        got = sparse_top1_loss(Tensor.const(s), pv, obs).item()
        assert abs(got - want) < 1e-10


def test_empty_rows_contribute_exactly_zero():
    pv = np.array([[0.3, 0.9], [0.5, 0.1]])
    s = np.array([[1.0, -1.0], [0.5, 2.0]])
    obs = np.array([[True, True], [True, True]])

    pv2 = np.vstack([pv, [0.2, 0.8]])
    s2 = np.vstack([s, [3.0, -3.0]])
    obs2 = np.vstack([obs, [False, False]])
    assert sparse_top1_loss(Tensor.const(s2), pv2, obs2).item() == \
        sparse_top1_loss(Tensor.const(s), pv, obs).item()

    none = np.zeros((2, 2), dtype=bool)
    assert sparse_top1_loss(Tensor.const(s), pv, none).item() == 0.0


def test_sparse_loss_gradient_flows_only_to_observed_rows():
    pv = np.array([[0.3, 0.9], [0.5, 0.1]])
    obs = np.array([[True, True], [False, False]])
    scores = param(np.array([[1.0, -1.0], [0.5, 2.0]]))
    sparse_top1_loss(scores, pv, obs).backward()
    assert np.any(scores.grad[0] != 0.0)
    assert np.all(scores.grad[1] == 0.0)


# --- gradient checking ---------------------------------------------------------

def forward_loss(net, pv, obs):
    """Loss as a function of the parameters, forward pass only."""
    plans = plan_network(net)

    def loss_fn(p):
        pt = {name: Tensor(arr) for name, arr in p.items()}
        zg, zm = embed_network(pt, net, plans)
        return sparse_top1_loss(zg @ zm.transpose(), pv, obs).item()
    return loss_fn


def test_backprop_matches_finite_differences_and_detects_corruption():
    net, params, pv, obs = make_tiny_problem(seed=0)
    _, analytic = _loss_and_grads(params, net, plan_network(net), pv, obs)
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
    _, analytic = _loss_and_grads(params, net, plan_network(net), pv, obs)
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
                patience=50, seed=5, ridge_lambda=1e-3)
    base.update(kw)
    return LearnerConfig(**base)


OUT_OF_RANGE = {"k": 0, "top_k": 0, "layers": -1, "heads": 0, "lr": 0.0,
                "weight_decay": -1.0, "max_epochs": -1, "patience": 0, "min_epochs": -1,
                "seed": -1, "ridge_lambda": 0.0, "nmf_mean_prior": 1.5}


@pytest.mark.parametrize("name", [f.name for f in fields(LearnerConfig)])
def test_config_refuses_what_the_command_line_refuses(name):
    with pytest.raises(ValueError, match=rf"\[hyper\] {name}: "):
        LearnerConfig(**{name: OUT_OF_RANGE[name]})


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


def test_one_pass_validation_equals_per_holdout_full_passes():
    # one epoch with no patience limit keeps the epoch-0 parameters, so the
    # logged stop score and MRR can be recomputed from the returned state
    feats, perf = small_training_problem(seed=4, n=40)
    config = fast_config(k=4, layers=2, heads=2, max_epochs=1)
    state = train(feats, perf, config)
    n = perf.shape[0]
    n_val = max(1, int(round(VAL_FRACTION * n)))
    val_rows = np.sort(np.random.default_rng(config.seed).permutation(n)[:n_val])
    assert len(val_rows) == 4
    mrrs, losses = [], []
    for i in val_rows:
        ext = extend_with_test(state.network, state.phi.zscore(feats[i]), state.phi.predict(feats[i]))
        s = scores_of(state.params, ext)[-1]
        cols = perf.observed[i]
        labels = np.zeros(s.size)
        labels[cols] = label_top1(perf.values[i, cols])
        mrrs.append(mrr(s, labels))
        losses.append(loss_oracle(perf.values[i][None], cols[None], s[None]))
    entry = state.training_log[0]
    assert entry["stop_score"] == pytest.approx(-np.sum(losses), rel=1e-12, abs=0)
    assert entry["val_mrr"] == pytest.approx(np.mean(mrrs), rel=1e-12, abs=0)


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

    assert list(back.params) == list(state.params)
    for name in state.params:
        assert np.array_equal(back.params[name], state.params[name])
        assert back.params[name].shape == state.params[name].shape
    for name in ("weights", "intercept", "feature_mean", "feature_scale", "ridge_lambda", "r2"):
        assert np.array_equal(getattr(back.phi, name), getattr(state.phi, name)), name
    for table in ("src", "dst", "rel"):
        assert np.array_equal(getattr(back.network, table), getattr(state.network, table))
    assert back.model_ids == state.model_ids
    assert state.training_log and back.training_log == []     # training_log.csv holds it
    header, floats, edges = read_bundle(path)
    assert header["schema_version"] == SCHEMA_VERSION
    assert floats.dtype == np.float64 and floats.ndim == 1
    assert edges.dtype == np.int64 and edges.shape == (3, state.network.src.size)


def test_bundle_holds_the_network_fields_alone(tmp_path):
    feats, perf = small_training_problem(seed=6)
    state = train(feats, perf, fast_config(max_epochs=2))
    sheet = select_model(state, feats[0])
    path = str(tmp_path / "model.bundle")
    save_state(state, path)
    # the network's scalars are its header dimensions; n_models, meta_dim and
    # extension_nodes are implied, and the arrays are records
    header, _, _ = read_bundle(path)
    assert set(header) == {"format_version", "schema_version", "meta_dim", "k", "layers",
                           "heads", "n_graphs", "top_k", "model_ids", "ridge_lambda", "r2"}

    back = load_state(path)
    for f in fields(GMNetwork):
        got, want = getattr(back.network, f.name), getattr(state.network, f.name)
        assert type(got) is type(want), f.name
        assert np.array_equal(got, want), f.name
        assert np.asarray(got).dtype == np.asarray(want).dtype, f.name
    assert select_model(back, feats[0]).scores.tobytes() == sheet.scores.tobytes()


def test_bundle_version_checks(tmp_path):
    feats, perf = small_training_problem(seed=6)
    state = train(feats, perf, fast_config(max_epochs=0))
    path = str(tmp_path / "model.bundle")
    save_state(state, path)
    header, floats, edges = read_bundle(path)
    bad = str(tmp_path / "bad.bundle")

    # format 1 held one attention matrix per relation and head, format 2
    # per-relation edge arrays, format 3 a second feature z-scoring and the
    # layer sizes next to the parameters, format 4 the state as one pickle,
    # format 5 the training log in its header
    for version in (1, 2, 3, 4, 5, 99):
        write_bundle(bad, dict(header, format_version=version), floats, edges)
        with pytest.raises(ValueError, match="unsupported bundle format"):
            load_state(bad)
    # a real pickle, as bundles up to format 4 were, is refused unread
    with open(bad, "wb") as fh:
        pickle.dump({"format_version": 4, "schema_version": SCHEMA_VERSION,
                     "params": state.params}, fh)
    with pytest.raises(ValueError, match="formats up to 4"):
        load_state(bad)

    write_bundle(bad, dict(header, schema_version=SCHEMA_VERSION + 1), floats, edges)
    with pytest.raises(ValueError, match="schema"):
        load_state(bad)
    # the log lives in training_log.csv alone; a format-6 header with it is malformed
    write_bundle(bad, dict(header, training_log=[]), floats, edges)
    with pytest.raises(ValueError, match="header keys"):
        load_state(bad)


def test_load_state_refuses_an_inconsistent_network(tmp_path):
    feats, perf = small_training_problem(seed=6)
    path = tmp_path / "model.bundle"
    save_state(train(feats, perf, fast_config(max_epochs=0)), str(path))
    header, floats, edges = read_bundle(path)
    rel_tampered, dst_tampered = edges.copy(), edges.copy()
    rel_tampered[2, 0] = 9
    dst_tampered[1, -1] = -1
    for tampered_header, tampered_edges, error in (
            (header, edges + np.array([[1000], [0], [0]]), "source index"),
            (header, dst_tampered, "target index"),
            (header, rel_tampered, "unknown relation"),
            # feature rows follow n_graphs, so a count off makes the float
            # record the wrong length for its header
            (dict(header, n_graphs=3), edges, "float record"),
            (dict(header, n_graphs=header["n_graphs"] + 5), edges, "float record")):
        write_bundle(path, tampered_header, floats, tampered_edges)
        with pytest.raises(ValueError, match=error):
            load_state(str(path))


def test_no_module_can_unpickle():
    """Loading a bundle never executes code: no module of the package
    imports pickle or passes numpy anything but a literal allow_pickle=False."""
    modules = sorted(Path(learner.__file__).parent.glob("*.py"))
    assert {"learner.py", "cli.py"} <= {m.name for m in modules}
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(), filename=str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            assert not {n.split(".")[0] for n in names} & {"pickle", "_pickle", "shelve"}, \
                f"{module.name}:{node.lineno} imports {names}"
            if isinstance(node, ast.keyword) and node.arg == "allow_pickle":
                assert isinstance(node.value, ast.Constant) and node.value.value is False, \
                    f"{module.name}:{node.lineno} passes allow_pickle={ast.unparse(node.value)}"


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
    # the scored-rows pass reads the same row as the full extended pass
    assert_rel_close(sheet.scores, scores_of(state.params, ext)[-1])
