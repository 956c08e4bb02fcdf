"""Trainable meta-learner: relation-aware attention GNN over the G-M network.

Offline: factorize the observed performance matrix, fit the factor estimator,
build the network, then optimize the GNN end to end on a listwise top-1
cross-entropy over observed entries; each epoch scores every holdout graph
in one untaped pass over one network holding an extended copy per holdout
graph, and the same loss on those scores is the stopping score.
Online: extend the network with the test graph, embed, and rank models by
inner-product scores, computing the last layer only for the rows scored.
Graph node input states are W @ [meta; estimated factor]; model node input
states are the (trainable) latent factor rows.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .autodiff import (Edges, Segments, Tensor, concat, edge_scores, einsum, segment_softmax,
                       weighted_segment_sum)
from .features import SCHEMA_VERSION
from .gmnet import GMNetwork, RELATIONS, build_train_network, extend_with_test
from .metrics import label_top1, mrr
from .perf import FactorEstimator, PerformanceMatrix, factorize, fit_factor_estimator
from .ranking import ScoreSheet

log = logging.getLogger(__name__)

BUNDLE_FORMAT_VERSION = 6
# share of training graphs held out for early stopping
VAL_FRACTION = 0.1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class LearnerConfig:
    """The meta-learner's settings; each field is a [hyper] config key."""
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
    nmf_mean_prior: float = 0.1

    def __post_init__(self):
        in_range = {"k": self.k >= 1, "top_k": self.top_k >= 1, "layers": self.layers >= 0,
                    "heads": self.heads >= 1, "lr": self.lr > 0,
                    "weight_decay": self.weight_decay >= 0, "max_epochs": self.max_epochs >= 0,
                    "patience": self.patience >= 1, "min_epochs": self.min_epochs >= 0,
                    "seed": self.seed >= 0,
                    "ridge_lambda": self.ridge_lambda is None or self.ridge_lambda > 0,
                    "nmf_mean_prior": 0 <= self.nmf_mean_prior <= 1}
        for name, ok in in_range.items():
            if not ok:
                raise ValueError(f"value out of range for [hyper] {name}: {getattr(self, name)!r}")


@dataclass
class MetaLearnerState:
    params: dict[str, np.ndarray]
    phi: FactorEstimator
    network: GMNetwork
    model_ids: list[str]
    # `train`'s per-epoch record; a bundle does not hold it
    training_log: list[dict] = field(default_factory=list)


# --- parameters -----------------------------------------------------------

def param_shapes(meta_dim: int, k: int, layers: int, heads: int,
                 n_models: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in the order `init_params` draws
    them and a bundle stores them; attention forms are (R, H, dk, dk) in
    RELATIONS order."""
    if k % heads != 0:
        raise ValueError("embedding dim must be divisible by head count")
    dk = k // heads
    shapes = {"W": (k, meta_dim + k), "V": (n_models, k)}
    for layer in range(layers):
        for t in ("g", "m"):
            shapes.update({f"l{layer}.{name}.{t}": (k, k) for name in ("K", "Q", "M", "O")})
            shapes[f"l{layer}.alpha.{t}"] = ()
        shapes[f"l{layer}.att"] = (len(RELATIONS), heads, dk, dk)
        shapes[f"l{layer}.mu"] = (len(RELATIONS),)
    return shapes


def init_params(rng: np.random.Generator, meta_dim: int, k: int, layers: int,
                heads: int, n_models: int, v_init: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Near-identity initialization around the factor warm start.

    W starts as [0 | I] so the initial graph state equals its estimated
    factor row, and the residual output projections start small, so epoch-0
    scores already match the factor estimator's predictions. With very few
    observed performances the listwise gradient is mostly noise and the
    early stopper needs a sane model to fall back on; the attention stack
    then has to earn its way off the identity. Glorot everywhere else.
    Draw order is the order of `param_shapes`, which also fixes the
    parameter traversal order for the optimizer and finite differencing.
    """
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(meta_dim, k, layers, heads, n_models).items():
        role = name.split(".")[1] if "." in name else name
        if role == "W":
            params[name] = np.concatenate([np.zeros((k, meta_dim)), np.eye(k)], axis=1)
        elif role == "V":
            params[name] = (rng.uniform(0.0, 1.0 / np.sqrt(k), size=shape) if v_init is None
                            else np.array(v_init, dtype=np.float64))
        elif role in ("alpha", "mu"):
            params[name] = np.ones(shape)
        else:                   # Glorot over the last two axes; O two orders smaller
            limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
            params[name] = rng.uniform(-limit, limit, size=shape) * (0.01 if role == "O" else 1.0)
    return params


# --- forward pass ----------------------------------------------------------

@dataclass(frozen=True)
class _LayerPlan:
    """One layer's edge table, each index planned over the rows it reads."""
    scored: Edges            # src * R + rel -> dst: every node's keys under each of the R
                             # relations against the node queries, for the attention logits
    dst: Segments            # the softmax buckets
    edges: Edges             # src -> dst, for the attention-weighted message sums
    rel: Segments            # into the relation priors
    models: Segments         # the model nodes, into the aggregates
    graphs: Segments         # the graph rows the layer outputs, as nodes into the aggregates
    kept: Segments | None    # those rows of the graph states, when the layer keeps only some


def _layer_plan(net: GMNetwork, graph_rows: np.ndarray | None = None) -> _LayerPlan:
    """Plans for a layer over every edge of `net`, or, with `graph_rows`,
    over the in-edges of the models and of those graphs only."""
    ng, m = net.n_graphs, net.n_models
    n_total = ng + m
    src, dst, rel = net.src, net.dst, net.rel
    out_rows = np.arange(ng)
    if graph_rows is not None:
        # only the models and the requested graphs are targets
        out_rows = np.asarray(graph_rows, dtype=np.int64)
        targets = np.zeros(n_total, dtype=bool)
        targets[:m] = True
        targets[m + out_rows] = True
        keep = targets[dst]
        src, dst, rel = src[keep], dst[keep], rel[keep]
    dst_plan = Segments(dst, n_total)
    return _LayerPlan(
        Edges(Segments(src * len(RELATIONS) + rel, n_total * len(RELATIONS)), dst_plan),
        dst_plan, Edges(Segments(src, n_total), dst_plan), Segments(rel, len(RELATIONS)),
        Segments(np.arange(m), n_total), Segments(m + out_rows, n_total),
        None if graph_rows is None else Segments(out_rows, ng))


def plan_network(net: GMNetwork,
                 graph_rows: np.ndarray | None = None) -> tuple[_LayerPlan, _LayerPlan]:
    """The plans of a pass over `net`: one for every layer but the last, and
    one for the last, which with `graph_rows` feeds only the models and
    those graphs.

    Plans read the edge table alone, never the parameters, so a caller that
    passes over one network many times (every epoch of `train`) plans it
    once.
    """
    full = _layer_plan(net)
    return full, full if graph_rows is None else _layer_plan(net, graph_rows)


def relation_keys(zm: Tensor, zg: Tensor, k_m: Tensor, k_g: Tensor, att: Tensor) -> Tensor:
    """Every node's keys through every relation's bilinear form, as
    (n·R, H, dk) rows where row i·R + r is node i (models, then graphs)
    under relation r.

    The forms are folded into each node type's key weights first:
    F_t[a, r, h] = K_t[a, h] @ att[r, h], with K_t seen as (k, H, dk). F_t
    has the size of the parameters, and the per-node work is one BLAS
    product z_t @ F_t per node type, with F_t seen as (k, R·H·dk).
    """
    k = k_m.shape[0]
    _, heads, dk, _ = att.shape

    def folded(weights):
        return einsum("khi,rhij->krhj", weights.reshape(k, heads, dk), att).reshape(k, -1)

    return concat([zm @ folded(k_m), zg @ folded(k_g)]).reshape(-1, heads, dk)


def embed_network(pt: dict[str, Tensor], net: GMNetwork,
                  plans: tuple[_LayerPlan, _LayerPlan]) -> tuple[Tensor, Tensor]:
    """Embed the nodes; returns (graph embeddings, model embeddings).

    Each layer projects per node type into queries, messages and keys, the
    keys already through every relation's bilinear form (`relation_keys`).
    It scores each edge per head as its source's key under the edge's
    relation against its target's query, scaled by a learnable relation
    prior, softmax-normalizes attention per target across all in-edges
    jointly, and aggregates messages. Targets with no in-edges keep their
    residual-scaled state. Sizes come from the parameters: k from V,
    one layer per `l{L}.att`, heads and dk from its shape. A network whose
    models are whole copies of V's rows (a batch from `extend_with_test`)
    tiles V with a gather. Every edge index is read through `plans`, from
    `plan_network(net, graph_rows)`.

    With `graph_rows` (graph indices), the graph embeddings hold only those
    rows, and the last layer, if any, scores only the in-edges of the models
    and of those graphs. A target's softmax reads its own in-edges alone, so
    the rows it returns are the same as in the full pass.
    """
    k = pt["V"].shape[1]
    layers = sum(name.endswith(".att") for name in pt)
    ng, m = net.n_graphs, net.n_models
    n_total = ng + m

    # the stacked rows of an extension live for this one product only
    zg = Tensor.const(net.stacked_graph_features()) @ pt["W"].transpose()
    zm = pt["V"]
    if m != zm.shape[0]:
        if m % zm.shape[0]:
            raise ValueError(f"{m} model nodes are not whole copies of {zm.shape[0]} models")
        zm = zm.gather(np.arange(m) % zm.shape[0])

    for layer in range(layers):
        _, heads, dk, _ = pt[f"l{layer}.att"].shape
        plan = plans[1] if layer == layers - 1 else plans[0]

        def project(name):
            both = concat([zm @ pt[f"l{layer}.{name}.m"], zg @ pt[f"l{layer}.{name}.g"]])
            return both.reshape(n_total, heads, dk)

        queries, msgs = project("Q"), project("M")
        keyed = relation_keys(zm, zg, pt[f"l{layer}.K.m"], pt[f"l{layer}.K.g"],
                              pt[f"l{layer}.att"])
        mu = pt[f"l{layer}.mu"].gather(plan.rel).reshape(-1, 1)
        # the logits go in unnamed, so an untaped pass drops them inside the softmax
        att = segment_softmax(edge_scores(keyed, queries, plan.scored) * mu * (1.0 / np.sqrt(dk)),
                              plan.dst, n_total)
        agg = weighted_segment_sum(msgs, att, plan.edges).reshape(n_total, k)
        kept = zg if plan.kept is None else zg.gather(plan.kept)
        zg = kept * pt[f"l{layer}.alpha.g"] + agg.gather(plan.graphs) @ pt[f"l{layer}.O.g"]
        zm = zm * pt[f"l{layer}.alpha.m"] + agg.gather(plan.models) @ pt[f"l{layer}.O.m"]
    if not layers and plans[1].kept is not None:
        zg = zg.gather(plans[1].kept)
    return zg, zm


def _scores(pt: dict[str, Tensor], net: GMNetwork,
            plans: tuple[_LayerPlan, _LayerPlan]) -> Tensor:
    """Score matrix of the graph rows `plans` feed against every model node."""
    zg, zm = embed_network(pt, net, plans)
    return zg @ zm.transpose()


# --- listwise loss ---------------------------------------------------------

def top1_probability(scores: np.ndarray, observed: np.ndarray | None = None) -> np.ndarray:
    """Softmax top-1 probabilities over the observed entries of one row, or
    of each row of a matrix.

    Each row is shifted by its observed max; unobserved entries get
    probability 0. Invariant under adding a constant to a row.
    """
    s = np.asarray(scores, dtype=np.float64)
    obs = np.ones(s.shape, dtype=bool) if observed is None else np.asarray(observed, dtype=bool)
    if s.size == 0 or not obs.any(axis=-1).all():
        raise ValueError("top1_probability needs at least one observed entry per row")
    masked = np.where(obs, s, -np.inf)
    e = np.exp(masked - masked.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sparse_top1_loss(scores: Tensor, p_vals: np.ndarray, observed: np.ndarray) -> Tensor:
    """Listwise loss: cross-entropy between the true and predicted top-1
    distributions over each row's observed entries, summed over rows; rows
    with no observed entries contribute exactly 0."""
    obs = np.asarray(observed, dtype=bool)
    keep = np.flatnonzero(obs.any(axis=1))
    if keep.size == 0:
        return Tensor.const(0.0)
    sk = scores.gather(keep)
    mk = obs[keep].astype(np.float64)
    q = top1_probability(np.asarray(p_vals)[keep], obs[keep])

    shift = sk.value.max(axis=1, keepdims=True)      # any per-row constant
    shifted = sk - Tensor.const(shift)
    e = shifted.exp() * Tensor.const(mk)
    log_denom = e.sum(axis=1, keepdims=True).log()
    log_qhat = shifted - log_denom
    return -(Tensor.const(q) * log_qhat).sum()


# --- optimizer -------------------------------------------------------------

class Adam:
    def __init__(self, params: dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params, grads, lr, weight_decay):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name, p in params.items():
            g = grads[name] + weight_decay * p
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# --- training --------------------------------------------------------------

def _largest_divisor_at_most(n: int, cap: int) -> int:
    return next(h for h in range(min(cap, n), 0, -1) if n % h == 0)


def _loss_and_grads(params: dict[str, np.ndarray], net: GMNetwork,
                    plans: tuple[_LayerPlan, _LayerPlan],
                    pv: np.ndarray, obs: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    pt = {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}
    loss = sparse_top1_loss(_scores(pt, net, plans), pv, obs)
    loss.backward()
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.value))
             for name, t in pt.items()}
    return loss.item(), grads


def _forward_scores(params: dict[str, np.ndarray], net: GMNetwork,
                    plans: tuple[_LayerPlan, _LayerPlan]) -> np.ndarray:
    """Untaped score matrix: the graph rows `plans` feed against every model
    node."""
    return _scores({name: Tensor(arr) for name, arr in params.items()}, net, plans).value


def _test_scorer(net: GMNetwork, m_test: np.ndarray,
                 u_hat_test: np.ndarray) -> Callable[[dict[str, np.ndarray]], np.ndarray]:
    """Extend `net` with c test graphs and plan a pass over their rows, once;
    the returned function scores each test graph against its own copy's
    models under the given parameters, as a (c, n_models) array."""
    ext = extend_with_test(net, m_test, u_hat_test)
    copies = np.arange(ext.n_models // net.n_models)
    plans = plan_network(ext, (copies + 1) * (net.n_graphs + 1) - 1)   # each copy's last graph
    # row c against copy c's own models
    return lambda params: _forward_scores(params, ext, plans).reshape(
        copies.size, copies.size, -1)[copies, copies]


def train(features: np.ndarray, perf: PerformanceMatrix, config: LearnerConfig) -> MetaLearnerState:
    """Full offline phase; returns the parameters of the epoch with the best
    holdout stop score, the negated listwise loss on the holdout graphs.

    The factor estimator phi, fit on the raw training rows, owns the only
    feature z-scoring; network, holdout and test nodes all see features
    through it. A 10% graph holdout provides early stopping: training runs
    at least min_epochs epochs and stops once patience epochs have passed
    since the best one. With max_epochs=0 the warm-start parameters are
    returned untouched.
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
    factors = factorize(p_train, k_eff, config.seed, mean_prior_weight=config.nmf_mean_prior)
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
        return MetaLearnerState(params, phi, net, list(perf.model_ids))
    # every epoch passes over both networks, so each is planned once; phi
    # predicts row by row, as in select, since a batched product rounds apart
    net_plans = plan_network(net)
    holdout_scores = _test_scorer(net, phi.zscore(f[scored_rows]),
                                  np.array([phi.predict(f[i]) for i in scored_rows]))
    val_pv, val_obs = perf.values[scored_rows], perf.observed[scored_rows]

    def validation_score() -> tuple[float, float]:
        """(early-stopping score, mean val MRR for the log).

        The score is the negated training loss on held-out graphs: MRR on a
        handful of rows saturates within a few epochs and would freeze the
        early stopper long before the embeddings settle. The logged MRR
        ranks the best observed model against the full model list.
        """
        scores = holdout_scores(params)
        mrrs = []
        for s, pv_i, cols in zip(scores, val_pv, val_obs):
            labels = np.zeros(m)
            labels[cols] = label_top1(pv_i[cols])
            mrrs.append(mrr(s, labels))
        loss = sparse_top1_loss(Tensor.const(scores), val_pv, val_obs).item()
        return -loss, float(np.mean(mrrs))

    best_params = None
    best_score, best_epoch = -np.inf, -1
    training_log: list[dict] = []
    min_delta = 1e-4

    for epoch in range(config.max_epochs):
        loss, grads = _loss_and_grads(params, net, net_plans, pv, obs)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite training loss at epoch {epoch}")
        opt.step(params, grads, config.lr, config.weight_decay)
        score, val_mrr = validation_score()
        training_log.append({"epoch": epoch, "loss": loss, "val_mrr": val_mrr,
                             "stop_score": score})
        if score > best_score + min_delta:
            best_score, best_epoch = score, epoch
            best_params = {k_: v_.copy() for k_, v_ in params.items()}
        elif epoch + 1 >= config.min_epochs and epoch - best_epoch >= config.patience:
            break

    if best_params is None:          # no epoch gave a finite stop score
        best_params = {k_: v_.copy() for k_, v_ in params.items()}

    return MetaLearnerState(best_params, phi, net, list(perf.model_ids), training_log)


def select_model(state: MetaLearnerState, m_feat: np.ndarray) -> ScoreSheet:
    """Online phase: standardize and estimate factors through phi, extend,
    embed, rank. Raises ValueError when the state's values overflow the
    scores, as a bundle's finite values still can."""
    with np.errstate(all="ignore"):      # what overflows is refused just below
        scores = _test_scorer(state.network, state.phi.zscore(m_feat),
                              state.phi.predict(m_feat))(state.params)[0]
    if not np.isfinite(scores).all():
        raise ValueError("its values overflow the scores")
    return ScoreSheet(list(state.model_ids), scores)


# --- persistence -----------------------------------------------------------

_DIMENSIONS = ("meta_dim", "k", "layers", "heads", "n_graphs", "top_k")
_HEADER_KEYS = {"format_version", "schema_version", *_DIMENSIONS, "model_ids",
                "ridge_lambda", "r2"}


def _bundle_layout(head: dict) -> dict[str, tuple[int, ...]]:
    """Name -> shape of each float array of a bundle, in float-record order."""
    d, k, m = head["meta_dim"], head["k"], len(head["model_ids"])
    return {**param_shapes(d, k, head["layers"], head["heads"], m),
            "phi.weights": (d, k), "phi.intercept": (k,), "phi.feature_mean": (d,),
            "phi.feature_scale": (d,), "network.graph_features": (head["n_graphs"], d + k),
            "network.model_features": (m, k)}


def save_state(state: MetaLearnerState, path: str):
    """Write the bundle, format 6 (see README), as three .npy records: the
    JSON header as a 0-d string, every float array in `_bundle_layout` order
    as one float64 vector, and the (3, E) int64 edge table src, dst, rel.
    They go to an open handle, so numpy adds no suffix to `path`."""
    params, phi, net = state.params, state.phi, state.network
    layers = sum(name.endswith(".att") for name in params)
    head = {"format_version": BUNDLE_FORMAT_VERSION, "schema_version": SCHEMA_VERSION,
            "meta_dim": net.meta_dim, "k": params["V"].shape[1], "layers": layers,
            "heads": params["l0.att"].shape[1] if layers else 1, "n_graphs": net.n_graphs,
            "top_k": net.top_k, "model_ids": list(state.model_ids),
            "ridge_lambda": phi.ridge_lambda, "r2": phi.r2}
    arrays = {**params, "phi.weights": phi.weights, "phi.intercept": phi.intercept,
              "phi.feature_mean": phi.feature_mean, "phi.feature_scale": phi.feature_scale,
              "network.graph_features": net.graph_features,
              "network.model_features": net.model_features}
    with open(path, "wb") as fh:
        for record in (np.array(json.dumps(head)),
                       np.concatenate([np.ravel(arrays[name]) for name in _bundle_layout(head)]),
                       np.array([net.src, net.dst, net.rel], dtype=np.int64)):
            np.save(fh, record, allow_pickle=False)


def load_state(path: str) -> MetaLearnerState:
    """Read a bundle written by `save_state`; raise ValueError unless it is
    exactly the three records, with the header, layout and values README's
    Bundle section lists. The one place a network is validated. The float
    arrays are views of the one float record."""
    with open(path, "rb") as fh:
        try:
            header, floats, edges = [np.lib.format.read_array(fh, allow_pickle=False)
                                     for _ in range(3)]
            is_text = header.dtype.kind == "U" and header.ndim == 0
            head = json.loads(header.item()) if is_text else {}
        except (ValueError, RecursionError):        # RecursionError: JSON nested too deep
            raise ValueError("bundle is empty, truncated, or not three .npy records of plain "
                             "arrays led by JSON (formats up to 4 were pickles; retrain)") from None
        if fh.read(1):
            raise ValueError("bundle has bytes after its three records")
    version = head.get("format_version") if isinstance(head, dict) else None
    if version != BUNDLE_FORMAT_VERSION:
        raise ValueError(f"unsupported bundle format {version!r}")
    if head.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"bundle feature schema {head.get('schema_version')!r} does not match "
                         f"current schema {SCHEMA_VERSION}; regenerate features and retrain")
    if head.keys() != _HEADER_KEYS:
        raise ValueError(f"bundle header keys {sorted(head)} are not {sorted(_HEADER_KEYS)}")
    ids = head["model_ids"]
    bad = [key for key in _DIMENSIONS
           if type(head[key]) is not int or head[key] < (key != "layers")]
    bad += [key for key in ("ridge_lambda", "r2")
            if type(head[key]) not in (int, float) or not math.isfinite(head[key])]
    if not (isinstance(ids, list) and ids and all(type(i) is str for i in ids)
            and len(set(ids)) == len(ids)):
        bad.append("model_ids")
    # a layer holds floats, so no larger count can spin the layout loop
    if bad or head["layers"] > floats.size:
        raise ValueError(f"bundle header values {bad or ['layers']} are out of range")
    layout = _bundle_layout(head)
    sizes = [math.prod(shape) for shape in layout.values()]
    if floats.dtype != np.float64 or floats.shape != (sum(sizes),):
        raise ValueError(f"bundle float record is {floats.dtype} {floats.shape}, "
                         f"not float64 ({sum(sizes)},) as its header gives")
    if not np.isfinite(floats).all():
        raise ValueError("bundle float record holds a non-finite value")
    if edges.dtype != np.int64 or edges.ndim != 2 or len(edges) != 3:
        raise ValueError(f"bundle edge record is {edges.dtype} {edges.shape}, not int64 (3, E)")
    arrays = {name: part.reshape(shape) for (name, shape), part
              in zip(layout.items(), np.split(floats, np.cumsum(sizes)[:-1]))}
    if not (arrays["phi.feature_scale"] > 0).all():
        raise ValueError("bundle phi.feature_scale holds a value <= 0")
    phi = FactorEstimator(arrays.pop("phi.weights"), arrays.pop("phi.intercept"),
                          arrays.pop("phi.feature_mean"), arrays.pop("phi.feature_scale"),
                          head["ridge_lambda"], head["r2"])
    net = GMNetwork(head["n_graphs"], len(ids), *edges, arrays.pop("network.graph_features"),
                    arrays.pop("network.model_features"), head["meta_dim"], head["top_k"])
    net.validate()
    return MetaLearnerState(arrays, phi, net, ids)
