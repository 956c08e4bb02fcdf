"""Performance matrix storage, factorization, and corruption ops.

The matrix P holds per-(graph, model) performance in [0, 1] with an
observation mask; unobserved cells carry NaN so accidental use propagates
loudly. Factorization is non-negative with multiplicative updates on the
observed cells only. The factor estimator is a closed-form ridge regression
from meta-features to latent graph factors.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

NMF_MAX_ITER = 500
NMF_REL_TOL = 1e-6
NMF_EPS = 1e-10
RIDGE_LAMBDA = 1e-3
SPREAD_RTOL = 1e-9   # spread <= this x max(1, largest |value|) is rounding noise


@dataclass
class PerformanceMatrix:
    """values: (n, m) float64, NaN where unobserved; observed: bool mask."""

    values: np.ndarray
    observed: np.ndarray
    graph_ids: list[str]
    model_ids: list[str]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        o = np.asarray(self.observed, dtype=bool)
        if v.shape != o.shape or v.ndim != 2:
            raise ValueError("values and observed must be equal-shape 2-D arrays")
        if len(self.graph_ids) != v.shape[0] or len(self.model_ids) != v.shape[1]:
            raise ValueError("id lists must match matrix shape")
        for kind, ids in (("graph", self.graph_ids), ("model", self.model_ids)):
            dup = sorted(i for i, c in Counter(ids).items() if c > 1)
            if dup:
                raise ValueError(f"duplicate {kind} ids: {', '.join(dup)}")
        obs_vals = v[o]
        if obs_vals.size and (np.any(~np.isfinite(obs_vals))
                              or obs_vals.min() < 0.0 or obs_vals.max() > 1.0):
            raise ValueError("observed performance values must lie in [0, 1]")
        v = v.copy()
        v[~o] = np.nan
        self.values = v
        self.observed = o

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def filled(self, fill: float = 0.0) -> np.ndarray:
        return np.where(self.observed, self.values, fill)

    def rows(self, idx) -> "PerformanceMatrix":
        idx = np.asarray(idx)
        return PerformanceMatrix(self.values[idx], self.observed[idx],
                                 [self.graph_ids[i] for i in idx], list(self.model_ids))


def from_csv(text: str) -> PerformanceMatrix:
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1)
             if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty performance csv")
    header = lines[0][1].split(",")
    if header[0] != "graph_id" or len(header) < 2:
        raise ValueError("performance csv must start with 'graph_id,<model ids>'")
    if len(lines) == 1:
        raise ValueError("performance csv has a header and no graph rows")
    model_ids = header[1:]
    graph_ids, rows, mask = [], [], []
    for ln_no, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {ln_no}: expected {len(header)} cells, got {len(cells)}")
        graph_ids.append(cells[0])
        vals, obs = [], []
        for model_id, c in zip(model_ids, cells[1:]):
            c = c.strip()
            obs.append(c != "")
            try:
                vals.append(float(c) if c else np.nan)
            except ValueError:
                raise ValueError(f"line {ln_no}: non-numeric value {c!r} "
                                 f"for model {model_id}") from None
        rows.append(vals)
        mask.append(obs)
    return PerformanceMatrix(np.asarray(rows, dtype=np.float64),
                             np.asarray(mask, dtype=bool), graph_ids, model_ids)


@dataclass
class LatentFactors:
    u: np.ndarray
    v: np.ndarray
    objective_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))


def factorize(p: PerformanceMatrix, k: int, seed: int,
              mean_prior_weight: float = 0.0) -> LatentFactors:
    """Masked non-negative factorization P ~= U V^T by multiplicative updates.

    A cell weighs w = 1 where observed and mean_prior_weight elsewhere,
    where its target is the column's observed mean. The updates minimise
    sum(w * (X - U V^T)^2) and keep it non-increasing; the traced objective
    the loop stops on, sum((w * (X - U V^T))^2), weighs cells by w^2, so the
    two differ where w is neither 0 nor 1. With no prior only observed cells
    enter; rows/columns with no observations cannot be fit, so they are
    dropped for the updates and reinserted as the mean of the fitted
    factors, with a warning.

    Under heavy masking the plain objective has more free factor entries
    than data and interpolates noise; the prior pulls the fit toward
    column-level structure. A fully observed matrix is unaffected.
    """
    n, m = p.shape
    if k < 1 or k > min(n, m):
        raise ValueError(f"rank k={k} must lie in [1, min(n, m)={min(n, m)}]")
    if not 0.0 <= mean_prior_weight <= 1.0:
        raise ValueError("mean_prior_weight must lie in [0, 1]")
    if not p.observed.any():
        raise ValueError("cannot factorize a fully unobserved matrix")
    col_sum = p.filled().sum(axis=0)
    col_cnt = p.observed.sum(axis=0)
    grand = col_sum.sum() / col_cnt.sum()
    col_mean = np.where(col_cnt > 0, col_sum / np.maximum(col_cnt, 1), grand)
    w = np.where(p.observed, 1.0, mean_prior_weight)
    x = np.where(p.observed, p.values, col_mean[None, :])
    row_keep = np.flatnonzero(w.any(axis=1))
    col_keep = np.flatnonzero(w.any(axis=0))
    if row_keep.size < n or col_keep.size < m:
        log.warning("factorize: dropping %d empty rows, %d empty columns",
                    n - row_keep.size, m - col_keep.size)
    w = w[np.ix_(row_keep, col_keep)]
    x = x[np.ix_(row_keep, col_keep)]

    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(k)
    u = rng.uniform(0.0, scale, size=(row_keep.size, k))
    v = rng.uniform(0.0, scale, size=(col_keep.size, k))

    def objective(uv):
        r = w * (x - uv)
        return float(np.sum(r * r))

    # w * x is loop-invariant, and the objective's U V^T is the next
    # u-update's: each iteration forms two products of U and V, not three
    wx = w * x
    uv = u @ v.T
    trace = [objective(uv)]
    for _ in range(NMF_MAX_ITER):
        u *= (wx @ v) / ((w * uv) @ v + NMF_EPS)
        v *= (wx.T @ u) / ((w * (u @ v.T)).T @ u + NMF_EPS)
        uv = u @ v.T
        obj = objective(uv)
        trace.append(obj)
        prev = trace[-2]
        if prev - obj < NMF_REL_TOL * max(prev, NMF_EPS):
            break

    u_full = np.tile(u.mean(axis=0), (n, 1))
    v_full = np.tile(v.mean(axis=0), (m, 1))
    u_full[row_keep] = u
    v_full[col_keep] = v
    return LatentFactors(u_full, v_full, np.asarray(trace))


@dataclass
class FactorEstimator:
    """Ridge map phi: raw meta-features -> latent graph factors. It owns the
    one feature z-scoring, with the statistics of the rows it was fit on."""

    weights: np.ndarray       # (d, k)
    intercept: np.ndarray     # (k,)
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    ridge_lambda: float
    r2: float

    def zscore(self, features: np.ndarray) -> np.ndarray:
        """Raw meta-features in the z-score space of the training rows."""
        return (np.asarray(features, dtype=np.float64) - self.feature_mean) / self.feature_scale

    def predict(self, features: np.ndarray) -> np.ndarray:
        z = self.zscore(features)
        out = np.atleast_2d(z) @ self.weights + self.intercept
        return out[0] if z.ndim == 1 else out


def standardize(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column z-scores of a 2-D array: (z, mean, scale). Columns whose spread
    is rounding noise (see SPREAD_RTOL, the summaries' tie tolerance) get
    scale 1, so they map to ~0 instead of NaN or 1/noise. Raises ValueError
    when a column's mean or spread overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = f.mean(axis=0)
        scale = f.std(axis=0)
    wide = ~(np.isfinite(mean) & np.isfinite(scale))
    if wide.any():
        raise ValueError(f"{wide.sum()} feature columns (the first is column {wide.argmax()}) "
                         f"spread beyond the float64 range")
    scale[scale <= SPREAD_RTOL * np.maximum(1.0, np.abs(f).max(axis=0))] = 1.0
    return (f - mean) / scale, mean, scale


def _loocv_ridge_lambda(u: np.ndarray, s: np.ndarray, uc: np.ndarray) -> float:
    """Leave-one-out optimal ridge penalty, closed form.

    Reads the thin SVD z = U S V^T of the centred design and evaluates the
    PRESS identity r_i / (1 - H_ii) on a log grid (Allen 1974), with hat
    matrix H = 11^T / n + U diag(a) U^T and shrinkage a = s^2 / (s^2 + lambda):
    the 1/n is the leverage of the unpenalised intercept, which each refit
    without row i fits anew. Without it, a design with n <= d fits every
    held-out row as lambda -> 0 and the grid floor always wins. The penalty
    steers how hard predictions shrink toward the target mean: clean
    targets keep it small, noisy or underdetermined fits push it up.
    """
    grid = np.geomspace(1e-6, 1e9, 31)
    n = uc.shape[0]
    ut_y = u.T @ uc
    u2 = u ** 2
    s2 = s ** 2
    best_lam, best_sse = grid[0], np.inf
    for lam in grid:
        a = s2 / (s2 + lam)
        resid = uc - u @ (a[:, None] * ut_y)
        denom = np.maximum(1.0 - u2 @ a - 1.0 / n, 1e-12)
        sse = float(np.sum((resid / denom[:, None]) ** 2))
        if sse < best_sse - 1e-12:
            best_sse, best_lam = sse, lam
    return float(best_lam)


def fit_factor_estimator(features: np.ndarray, u: np.ndarray,
                         ridge_lambda: float | None = RIDGE_LAMBDA) -> FactorEstimator:
    """Closed-form ridge regression from one thin SVD of the design.

    Features are z-scored (zero-variance columns get scale 1); the intercept
    absorbs the target mean so the penalty never shrinks it. With
    ridge_lambda=None the penalty is picked by leave-one-out CV. Both read one thin SVD
    z = U S V^T: weights V diag(s / (s^2 + lambda)) U^T uc, no d x d solve (Golub et al. 1979).
    """
    f = np.asarray(features, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if f.ndim != 2 or u.ndim != 2 or f.shape[0] != u.shape[0]:
        raise ValueError("features and factors must share the row dimension")
    if ridge_lambda is not None and ridge_lambda <= 0:
        raise ValueError("ridge_lambda must be positive")
    z, mean, scale = standardize(f)
    uc = u - u.mean(axis=0)
    left, s, vt = np.linalg.svd(z, full_matrices=False)
    if ridge_lambda is None:
        ridge_lambda = _loocv_ridge_lambda(left, s, uc)
    weights = vt.T @ ((s / (s ** 2 + ridge_lambda))[:, None] * (left.T @ uc))
    intercept = u.mean(axis=0)
    pred = z @ weights + intercept
    ss_res = float(np.sum((u - pred) ** 2))
    ss_tot = float(np.sum((u - u.mean(axis=0)) ** 2))
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res < 1e-12 else 0.0
    return FactorEstimator(weights, intercept, mean, scale, ridge_lambda, r2)


def mask_random(p: PerformanceMatrix, sparsity: float, seed: int) -> PerformanceMatrix:
    """Hide exactly floor(sparsity * #observed) observed cells, seeded."""
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("sparsity must lie in [0, 1)")
    obs_idx = np.flatnonzero(p.observed.ravel())
    n_hide = int(np.floor(sparsity * obs_idx.size))
    rng = np.random.default_rng(seed)
    hide = rng.choice(obs_idx, size=n_hide, replace=False)
    observed = p.observed.copy().ravel()
    observed[hide] = False
    observed = observed.reshape(p.observed.shape)
    return PerformanceMatrix(p.values, observed, list(p.graph_ids), list(p.model_ids))


MAX_PERTURBATION_RATE = 2.0   # the widest band whose low end, x(1 - r/2), stays >= 0


def perturb(p: PerformanceMatrix, rate: float, seed: int) -> PerformanceMatrix:
    """Replace each observed entry x by uniform[x(1 - r/2), x(1 + r/2)],
    clipped to [0, 1]. rate=0 reproduces the input bit-for-bit."""
    if not 0 <= rate <= MAX_PERTURBATION_RATE:
        raise ValueError(f"rate must lie in [0, {MAX_PERTURBATION_RATE}]")
    values = p.values.copy()
    if rate > 0:
        rng = np.random.default_rng(seed)
        obs = p.observed
        x = values[obs]
        lo = x * (1.0 - rate / 2.0)
        hi = x * (1.0 + rate / 2.0)
        values[obs] = np.clip(rng.uniform(lo, hi), 0.0, 1.0)
    return PerformanceMatrix(values, p.observed.copy(), list(p.graph_ids), list(p.model_ids))
