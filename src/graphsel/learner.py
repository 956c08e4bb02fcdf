"""Trainable meta-learner: relation-aware attention GNN over the G-M network.

Offline: factorize the observed performance matrix, fit the factor estimator,
build the network, then optimize the GNN end to end on a listwise top-1
cross-entropy over observed entries. Online: extend the network with the test
graph, embed, and rank models by inner-product scores. Graph node input
states are W @ [meta; estimated factor]; model node input states are the
(trainable) latent factor rows.
"""

from __future__ import annotations

import logging
import pickle
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .autodiff import Tensor, concat, einsum, segment_softmax
from .features import SCHEMA_VERSION
from .gmnet import GMNetwork, RELATIONS, build_train_network, extend_with_test
from .metrics import label_top1, mrr
from .perf import FactorEstimator, PerformanceMatrix, factorize, fit_factor_estimator
from .ranking import ScoreSheet

log = logging.getLogger(__name__)

BUNDLE_FORMAT_VERSION = 4
# share of training graphs held out for early stopping
VAL_FRACTION = 0.1


@dataclass
class LearnerConfig:
    k: int = 32
    top_k: int = 30
    layers: int = 2
    heads: int = 4
    lr: float = 0.00075
    weight_decay: float = 0.0001
    max_epochs: int = 500
    patience: int = 25
    min_epochs: int = 75
    seed: int = 0
    ridge_lambda: float | None = None    # None: leave-one-out selection
    nmf_max_iter: int = 500
    nmf_mean_prior: float = 0.1


@dataclass
class MetaLearnerState:
    params: dict[str, np.ndarray]
    phi: FactorEstimator
    network: GMNetwork
    model_ids: list[str]
    schema_version: int = SCHEMA_VERSION
    training_log: list[dict] = field(default_factory=list)


# --- parameters -----------------------------------------------------------

def init_params(rng: np.random.Generator, meta_dim: int, k: int, layers: int,
                heads: int, n_models: int, v_init: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Near-identity initialization around the factor warm start.

    W starts as [0 | I] so the initial graph state equals its estimated
    factor row, and the residual output projections start small, so epoch-0
    scores already match the factor estimator's predictions. With very few
    observed performances the listwise gradient is mostly noise and the
    early stopper needs a sane model to fall back on; the attention stack
    then has to earn its way off the identity. Glorot everywhere else.
    Draw order is fixed by insertion order, which also fixes the parameter
    traversal order for the optimizer and finite differencing.
    """
    if k % heads != 0:
        raise ValueError("embedding dim must be divisible by head count")
    dk = k // heads

    def glorot(rows, cols):
        limit = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))

    params: dict[str, np.ndarray] = {}
    params["W"] = np.concatenate([np.zeros((k, meta_dim)), np.eye(k)], axis=1)
    if v_init is not None:
        params["V"] = np.array(v_init, dtype=np.float64)
    else:
        params["V"] = rng.uniform(0.0, 1.0 / np.sqrt(k), size=(n_models, k))
    for layer in range(layers):
        for t in ("g", "m"):
            params[f"l{layer}.K.{t}"] = glorot(k, k)
            params[f"l{layer}.Q.{t}"] = glorot(k, k)
            params[f"l{layer}.M.{t}"] = glorot(k, k)
            params[f"l{layer}.O.{t}"] = glorot(k, k) * 0.01
            params[f"l{layer}.alpha.{t}"] = np.array(1.0)
        # (R, H, dk, dk) in RELATIONS order, drawn relation-major
        params[f"l{layer}.att"] = np.stack(
            [[glorot(dk, dk) for _ in range(heads)] for _ in RELATIONS])
        params[f"l{layer}.mu"] = np.ones(len(RELATIONS))
    return params


# --- forward pass ----------------------------------------------------------

def embed_network(pt: dict[str, Tensor], net: GMNetwork) -> tuple[Tensor, Tensor]:
    """Embed every node; returns (graph embeddings, model embeddings).

    Each layer projects per node type into keys/queries/messages, scores each
    edge per head with a per-relation bilinear form scaled by a learnable
    relation prior, softmax-normalizes attention per target across all
    in-edges jointly, and aggregates messages. Targets with no in-edges keep
    their residual-scaled state. Sizes come from the parameters: k from V,
    one layer per `l{L}.att`, heads and dk from its shape.
    """
    k = pt["V"].shape[1]
    layers = sum(name.endswith(".att") for name in pt)
    ng, m = net.n_graphs, net.n_models
    n_total = ng + m

    zg = Tensor.const(net.graph_features) @ pt["W"].transpose()
    zm = pt["V"]

    # edge table node ids: models first, then graphs
    src, dst = net.src, net.dst
    keyed_rows = net.rel * n_total + src
    model_rows = np.arange(m)
    graph_rows = m + np.arange(ng)

    for layer in range(layers):
        _, heads, dk, _ = pt[f"l{layer}.att"].shape

        def project(name):
            both = concat([zm @ pt[f"l{layer}.{name}.m"], zg @ pt[f"l{layer}.{name}.g"]])
            return both.reshape(n_total, heads, dk)

        keys, queries, msgs = project("K"), project("Q"), project("M")
        # every node's keys through every relation's bilinear form, flattened
        # so that row r * n_total + i is node i under relation r
        keyed = einsum("nhi,rhij->rnhj", keys, pt[f"l{layer}.att"]).reshape(-1, heads, dk)
        mu = pt[f"l{layer}.mu"].gather(net.rel).reshape(-1, 1)
        logits = (keyed.gather(keyed_rows) * queries.gather(dst)).sum(axis=2) * mu \
            * (1.0 / np.sqrt(dk))
        att = segment_softmax(logits, dst, n_total)
        weighted = msgs.gather(src) * att.reshape(-1, heads, 1)
        agg = weighted.segment_sum(dst, n_total).reshape(n_total, k)
        zg = zg * pt[f"l{layer}.alpha.g"] + agg.gather(graph_rows) @ pt[f"l{layer}.O.g"]
        zm = zm * pt[f"l{layer}.alpha.m"] + agg.gather(model_rows) @ pt[f"l{layer}.O.m"]
    return zg, zm


def estimate_performance(graph_emb: np.ndarray, model_emb: np.ndarray) -> np.ndarray:
    """Inner-product score(s) between a graph embedding and model embeddings."""
    return np.asarray(graph_emb, dtype=np.float64) @ np.asarray(model_emb, dtype=np.float64).T


# --- listwise loss ---------------------------------------------------------

def top1_probability(scores: np.ndarray, observed: np.ndarray | None = None) -> np.ndarray:
    """Softmax top-1 probabilities over the observed entries of one row.

    Unobserved entries get probability 0. Invariant under adding a constant
    to all scores.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    obs = np.ones(s.size, dtype=bool) if observed is None else np.asarray(observed, dtype=bool)
    if s.size == 0 or not obs.any():
        raise ValueError("top1_probability needs at least one observed entry")
    e = np.exp(s - s.max()) * obs
    return e / e.sum()


def top1_loss(p_vals: np.ndarray, observed: np.ndarray, scores: np.ndarray) -> float:
    """Cross-entropy between true and predicted top-1 distributions, summed
    over rows; rows with no observed entries contribute exactly 0."""
    p = np.atleast_2d(np.asarray(p_vals, dtype=np.float64))
    obs = np.atleast_2d(np.asarray(observed, dtype=bool))
    s = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    total = 0.0
    for i in range(p.shape[0]):
        if not obs[i].any():
            continue
        q = top1_probability(np.where(obs[i], p[i], -np.inf), obs[i])
        shifted = s[i] - s[i].max()
        log_denom = np.log(np.sum(np.exp(shifted) * obs[i]))
        log_qhat = shifted - log_denom
        total -= float(np.sum(q[obs[i]] * log_qhat[obs[i]]))
    return total


def sparse_top1_loss(scores: Tensor, p_vals: np.ndarray, observed: np.ndarray) -> Tensor:
    """Differentiable version of top1_loss over a score Tensor."""
    obs = np.asarray(observed, dtype=bool)
    keep = np.flatnonzero(obs.any(axis=1))
    if keep.size == 0:
        return Tensor.const(0.0)
    sk = scores.gather(keep)
    mk = obs[keep].astype(np.float64)
    pv = np.where(obs, p_vals, 0.0)[keep]
    pm = np.where(mk > 0, pv, -np.inf)
    eq = np.exp(pm - pm.max(axis=1, keepdims=True)) * mk
    q = eq / eq.sum(axis=1, keepdims=True)

    shift = sk.value.max(axis=1, keepdims=True)      # any per-row constant
    shifted = sk - Tensor.const(shift)
    e = shifted.exp() * Tensor.const(mk)
    log_denom = e.sum(axis=1, keepdims=True).log()
    log_qhat = shifted - log_denom
    return -(Tensor.const(q) * log_qhat).sum()


# --- optimizer -------------------------------------------------------------

class Adam:
    def __init__(self, params: dict[str, np.ndarray], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params, grads, lr, weight_decay):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in params.items():
            g = grads[name] + weight_decay * p
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


# --- training --------------------------------------------------------------

def _largest_divisor_at_most(n: int, cap: int) -> int:
    for h in range(min(cap, n), 0, -1):
        if n % h == 0:
            return h
    return 1


def _loss_and_grads(params: dict[str, np.ndarray], net: GMNetwork,
                    pv: np.ndarray, obs: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    pt = {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}
    zg, zm = embed_network(pt, net)
    loss = sparse_top1_loss(zg @ zm.transpose(), pv, obs)
    loss.backward()
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.value))
             for name, t in pt.items()}
    return loss.item(), grads


def _forward_scores(params: dict[str, np.ndarray], net: GMNetwork) -> np.ndarray:
    pt = {name: Tensor(arr) for name, arr in params.items()}
    zg, zm = embed_network(pt, net)
    return estimate_performance(zg.value, zm.value)


def train(features: np.ndarray, perf: PerformanceMatrix, config: LearnerConfig) -> MetaLearnerState:
    """Full offline phase; returns the best-validation-MRR parameter set.

    The factor estimator phi, fit on the raw training rows, owns the only
    feature z-scoring; network, holdout and test nodes all see features
    through it. A 10% graph holdout provides early stopping. With
    max_epochs=0 the warm-start parameters are returned untouched.
    """
    f = np.asarray(features, dtype=np.float64)
    n, m = perf.shape
    if f.ndim != 2 or f.shape[0] != n:
        raise ValueError("features must have one row per graph in the matrix")
    if n < 5:
        raise ValueError("training needs at least 5 graphs")
    if m < 2:
        raise ValueError("training needs at least 2 models")

    rng = np.random.default_rng(config.seed)
    n_val = max(1, int(round(VAL_FRACTION * n)))
    perm = rng.permutation(n)
    val_rows = np.sort(perm[:n_val])
    train_rows = np.sort(perm[n_val:])

    k_eff = min(config.k, train_rows.size, m)
    heads_eff = _largest_divisor_at_most(k_eff, config.heads)
    if k_eff != config.k or heads_eff != config.heads:
        log.info("adjusted dims: k=%d heads=%d (requested k=%d heads=%d)",
                 k_eff, heads_eff, config.k, config.heads)

    p_train = perf.rows(train_rows)
    factors = factorize(p_train, k_eff, config.seed, max_iter=config.nmf_max_iter,
                        mean_prior_weight=config.nmf_mean_prior)
    # unobserved rows carry surrogate mean factors; they stay in the ridge fit
    # on purpose, anchoring near-duplicate features under heavy masking where
    # a fit on the few observed rows alone interpolates wildly
    phi = fit_factor_estimator(f[train_rows], factors.u, config.ridge_lambda)
    net = build_train_network(phi.predict(f[train_rows]), factors.v,
                              phi.zscore(f[train_rows]), config.top_k)

    params = init_params(np.random.default_rng(config.seed + 1), f.shape[1],
                         k_eff, config.layers, heads_eff, m, v_init=factors.v)

    pv = p_train.filled()
    obs = p_train.observed
    opt = Adam(params)

    # a holdout row with a single observed entry has zero listwise loss, so
    # it cannot score candidate parameters; with fewer than two multi-entry
    # rows the stopper is one noisy estimate away from keeping a bad epoch,
    # which under heavy masking reliably does more harm than the warm start
    scored_rows = [i for i in val_rows if perf.observed[i].sum() >= 2]
    if config.max_epochs == 0 or len(scored_rows) < 2:
        if config.max_epochs > 0:
            log.warning("fewer than two holdout rows with 2+ observed entries; "
                        "keeping the warm-start parameters")
        return MetaLearnerState(params, phi, net, list(perf.model_ids), SCHEMA_VERSION, [])
    # each holdout graph's extended network depends only on the warm start
    holdout = {i: extend_with_test(net, phi.zscore(f[i]), phi.predict(f[i])) for i in scored_rows}

    def validation_score() -> tuple[float, float]:
        """(early-stopping score, mean val MRR for the log).

        The score is the negated listwise loss on held-out graphs: MRR on a
        handful of rows saturates within a few epochs and would freeze the
        early stopper long before the embeddings settle. The logged MRR
        ranks the best observed model against the full model list.
        """
        mrrs, losses = [], []
        for i, ext in holdout.items():
            cols = perf.observed[i]
            s = _forward_scores(params, ext)[-1]
            labels = np.zeros(s.size)
            labels[cols] = label_top1(perf.values[i, cols])
            mrrs.append(mrr(s, labels))
            losses.append(top1_loss(perf.values[i, cols], cols[cols], s[cols]))
        return -float(np.sum(losses)), float(np.mean(mrrs))

    best_params = None
    best_score = -np.inf
    patience_left = config.patience
    training_log: list[dict] = []
    min_delta = 1e-4

    for epoch in range(config.max_epochs):
        loss, grads = _loss_and_grads(params, net, pv, obs)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite training loss at epoch {epoch}")
        opt.step(params, grads, config.lr, config.weight_decay)
        score, val_mrr = validation_score()
        training_log.append({"epoch": epoch, "loss": loss, "val_mrr": val_mrr,
                             "stop_score": score})
        if score > best_score + min_delta:
            best_score = score
            best_params = {k_: v_.copy() for k_, v_ in params.items()}
            patience_left = config.patience
        elif epoch + 1 >= config.min_epochs:
            # patience only counts after the warmup: embeddings reorganize
            # early and the holdout loss swings through a hump that would
            # otherwise trip the stopper while the best is still ahead
            patience_left -= 1
            if patience_left <= 0:
                break

    if best_params is None:          # no epoch gave a finite stop score
        best_params = {k_: v_.copy() for k_, v_ in params.items()}

    return MetaLearnerState(best_params, phi, net, list(perf.model_ids), SCHEMA_VERSION,
                            training_log)


def select_model(state: MetaLearnerState, m_feat: np.ndarray) -> ScoreSheet:
    """Online phase: standardize and estimate factors through phi, extend,
    embed, rank."""
    ext = extend_with_test(state.network, state.phi.zscore(m_feat), state.phi.predict(m_feat))
    scores = _forward_scores(state.params, ext)[-1]
    return ScoreSheet(list(state.model_ids), scores)


# --- gradient checking -----------------------------------------------------

def make_tiny_problem(seed: int = 0, layers: int = 1, heads: int = 1):
    """n=4 graphs, m=3 models, k=4 (1 layer and 1 head by default): small
    enough to finite-difference every coordinate."""
    rng = np.random.default_rng(seed)
    n, m, k, meta_dim = 4, 3, 4, 6
    feats = rng.normal(size=(n, meta_dim))
    u = rng.uniform(0.1, 1.0, size=(n, k))
    v = rng.uniform(0.1, 1.0, size=(m, k))
    net = build_train_network(u, v, feats, top_k=2)
    params = init_params(rng, meta_dim, k, layers=layers, heads=heads, n_models=m, v_init=v)
    pv = rng.uniform(0.0, 1.0, size=(n, m))
    obs = rng.random((n, m)) < 0.8
    obs[0, 0] = True                 # keep at least one observed entry
    return net, params, pv, obs


def finite_difference_grads(loss_fn: Callable[[dict[str, np.ndarray]], float],
                            params: dict[str, np.ndarray], step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central differences, perturbing each parameter array in place."""
    grads = {}
    for name, arr in params.items():
        if not isinstance(arr, np.ndarray):
            raise TypeError(f"parameter {name!r} is {type(arr).__name__}, not an ndarray")
        g = np.zeros_like(arr)
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            arr[i] = orig + step
            hi = loss_fn(params)
            arr[i] = orig - step
            lo = loss_fn(params)
            arr[i] = orig
            g[i] = (hi - lo) / (2.0 * step)
        grads[name] = g
    return grads


def max_relative_error(g1: dict[str, np.ndarray], g2: dict[str, np.ndarray]) -> float:
    worst = 0.0
    for name in g1:
        a = g1[name].ravel()
        b = g2[name].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def gradient_check(seed: int = 0, step: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences
    over every parameter coordinate of the tiny problem."""
    net, params, pv, obs = make_tiny_problem(seed)
    _, analytic = _loss_and_grads(params, net, pv, obs)

    def loss_fn(p):
        pt = {name: Tensor(arr) for name, arr in p.items()}
        zg, zm = embed_network(pt, net)
        return sparse_top1_loss(zg @ zm.transpose(), pv, obs).item()

    fd = finite_difference_grads(loss_fn, params, step)
    return max_relative_error(analytic, fd)


# --- persistence -----------------------------------------------------------

def save_state(state: MetaLearnerState, path: str):
    """Pickle the bundle (trusted-input format; see README)."""
    payload = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "schema_version": state.schema_version,
        "params": state.params,
        "phi": vars(state.phi),
        "network": vars(state.network),
        "model_ids": state.model_ids,
        "training_log": state.training_log,
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=5)


def load_state(path: str) -> MetaLearnerState:
    """Read a bundle; a truncated, foreign or outdated one raises ValueError."""
    with open(path, "rb") as fh:
        try:
            payload = pickle.load(fh)
        except EOFError:
            raise ValueError("bundle is empty or truncated") from None
    if not isinstance(payload, dict):
        raise ValueError(f"bundle holds a {type(payload).__name__}, not a bundle payload")
    if payload.get("format_version") != BUNDLE_FORMAT_VERSION:
        raise ValueError(f"unsupported bundle format {payload.get('format_version')!r}")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"bundle feature schema {payload.get('schema_version')!r} does not match "
            f"current schema {SCHEMA_VERSION}; regenerate features and retrain")
    try:
        phi = FactorEstimator(**payload["phi"])
        net = GMNetwork(**payload["network"])
        return MetaLearnerState(payload["params"], phi, net, payload["model_ids"],
                                payload["schema_version"], payload["training_log"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bundle payload is incomplete: {exc}") from None
