"""Fixed statistical summary schema for structural distributions.

``summarize`` maps a non-empty 1-D distribution to a fixed-length vector of
58 statistics. The input is canonicalized by sorting ascending first, so the
summary depends only on the multiset of values; node or edge order never
leaks in (relabeling a graph must not change its features).

Degenerate-input policy, applied uniformly: statistics that are undefined
for the given input (constant vector, single element, zero mean, fewer than
3 values for the correlation trio) evaluate to 0.0. Every output is finite.

Unique-value counting (cardinality, entropy, Kendall tie correction) groups
values within a small relative tolerance: distributions such as PageRank
scores are computed by floating-point summation whose order depends on node
numbering, and exact equality grouping would let last-ulp noise flip
integer-valued counts or the Kendall p-value.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

GROUP_RTOL = 1e-9
GROUP_ATOL = 1e-12
HIST_BINS = 10
IQR_ALPHAS = (1.5, 3.0)
STD_ALPHAS = (2.0, 3.0)


def summary_names() -> list[str]:
    names = ["card", "density"]
    names += ["q1", "q3", "iqr"]
    for a in IQR_ALPHAS:
        tag = f"{a:g}".replace(".", "_")
        names += [f"iqr_lb_{tag}", f"iqr_ub_{tag}", f"iqr_outliers_{tag}"]
    for a in STD_ALPHAS:
        tag = f"{a:g}".replace(".", "_")
        names += [f"std_lb_{tag}", f"std_ub_{tag}", f"std_outliers_{tag}",
                  f"std_outlier_frac_{tag}"]
    names += ["spearman_rho", "spearman_p", "kendall_tau", "kendall_p",
              "pearson_r", "pearson_p"]
    names += ["min", "max", "range", "median"]
    names += ["gmean", "hmean", "mean", "stdev", "variance"]
    names += ["skew", "kurtosis"]
    names += ["quart_disp", "mad", "aad", "cv", "efficiency", "vmr", "snr"]
    names += ["entropy", "norm_entropy", "gini"]
    names += ["quartile_max_gap", "centroid_max_gap"]
    names += [f"hist_{i}" for i in range(HIST_BINS)]
    return names


SUMMARY_NAMES = summary_names()
SUMMARY_DIM = len(SUMMARY_NAMES)


def _group_counts(s: np.ndarray) -> np.ndarray:
    """Run lengths of approximately-equal values in a sorted vector."""
    if s.size == 1:
        return np.ones(1, dtype=np.int64)
    gaps = np.diff(s)
    thresh = GROUP_ATOL + GROUP_RTOL * np.maximum(np.abs(s[1:]), np.abs(s[:-1]))
    breaks = np.flatnonzero(gaps > thresh)
    bounds = np.concatenate([[0], breaks + 1, [s.size]])
    return np.diff(bounds)


def _ratio(num: float, den: float) -> float:
    """num / den under the degenerate-input policy: a zero denominator or a
    non-finite quotient (float under/overflow) collapses to 0.0."""
    if den == 0.0:
        return 0.0
    out = num / den
    return float(out) if np.isfinite(out) else 0.0


def _correlation_trio(s: np.ndarray, counts: np.ndarray) -> list[float]:
    """(rho, p) x {Spearman, Kendall, Pearson} of the canonical vector vs
    its sort; both are sorted here, so this measures tie structure only.
    Self-correlation of a non-constant vector has rho = r = 1 and p = 0
    exactly for Spearman and Pearson; only Kendall's asymptotic p-value
    responds to the ties. Tie groups reuse the tolerance rule of the
    cardinality statistic (instead of exact equality) so last-ulp noise
    cannot flip the p-value when a graph is relabeled.
    n < 3 or an effectively constant input -> all zeros."""
    n = s.size
    if n < 3 or counts.size < 2:
        return [0.0] * 6
    t = counts.astype(np.float64)
    big_t = float((t * (t - 1.0) / 2.0).sum())
    x0 = float((t * (t - 1.0) * (t - 2.0)).sum())
    x1 = float((t * (t - 1.0) * (2.0 * t + 5.0)).sum())
    m = n * (n - 1.0)
    # against itself every cross-group pair is concordant, so tau-b is
    # exactly 1; the p-value keeps the tie-corrected asymptotic variance
    con_minus_dis = m / 2.0 - big_t
    var = (m * (2.0 * n + 5.0) - 2.0 * x1) / 18.0 \
        + 2.0 * big_t * big_t / m + x0 * x0 / (9.0 * m * (n - 2.0))
    z = con_minus_dis / math.sqrt(var)
    pval = 2.0 * float(special.ndtr(-abs(z)))   # the normal survival function at |z|
    return [1.0, 0.0, 1.0, pval, 1.0, 0.0]


def summarize(values: np.ndarray) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("cannot summarize an empty distribution")
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot summarize non-finite values")
    s = np.sort(x)
    n = s.size
    out: list[float] = []

    counts = _group_counts(s)
    out.append(float(counts.size))                      # card
    out.append(float(np.count_nonzero(s)) / n)          # density

    q1, med, q3 = (float(v) for v in np.quantile(s, [0.25, 0.5, 0.75]))
    iqr = q3 - q1
    out += [q1, q3, iqr]
    for a in IQR_ALPHAS:
        lb = q1 - a * iqr
        ub = q3 + a * iqr
        out += [lb, ub, float(np.count_nonzero((s < lb) | (s > ub)))]

    # exact (order-independent) mean: the ratio statistics below divide by
    # mu, and near-zero means would amplify ordinary summation noise
    mu = math.fsum(s.tolist()) / n
    var = float(np.mean((s - mu) ** 2))                  # population
    sd = float(np.sqrt(var))
    for a in STD_ALPHAS:
        lb = mu - a * sd
        ub = mu + a * sd
        cnt = float(np.count_nonzero((s < lb) | (s > ub)))
        out += [lb, ub, cnt, cnt / n]

    out += _correlation_trio(s, counts)

    mn, mx = float(s[0]), float(s[-1])
    out += [mn, mx, mx - mn, med]

    if mn > 0:
        g = float(np.exp(np.mean(np.log(s))))
        gmean = g if np.isfinite(g) else 0.0
        hmean = _ratio(float(n), float(np.sum(1.0 / s)))
    else:
        gmean, hmean = 0.0, 0.0
    out += [gmean, hmean, mu, sd, var]

    if sd > 0:
        z = (s - mu) / sd
        out += [float(np.mean(z ** 3)), float(np.mean(z ** 4)) - 3.0]
    else:
        out += [0.0, 0.0]

    out.append(_ratio(iqr, q3 + q1))                         # quart_disp
    out.append(float(np.median(np.abs(s - med))))            # mad
    out.append(float(np.mean(np.abs(s - mu))))               # aad
    out.append(_ratio(sd, mu))                               # cv
    out.append(_ratio(var, mu * mu))                         # efficiency
    out.append(_ratio(var, mu))                              # vmr
    out.append(_ratio(mu * mu, var))                         # snr

    if counts.size > 1:
        p = counts / n
        ent = float(-np.sum(p * np.log(p)))
        out += [ent, ent / np.log(counts.size)]
    else:
        out += [0.0, 0.0]

    if mu != 0 and n > 1:
        # sum_{i,j} |x_i - x_j| = 2 * sum_k (2k + 1 - n) * s_k, 0-indexed sort
        k = np.arange(n)
        mean_abs_diff = 2.0 * float(np.sum((2 * k + 1 - n) * s)) / (n * n)
        out.append(_ratio(mean_abs_diff, 2.0 * abs(mu)))
    else:
        out.append(0.0)

    five = np.array([mn, q1, med, q3, mx])
    out.append(float(np.max(np.diff(five))))

    if mx > mn:
        edges = np.linspace(mn, mx, HIST_BINS + 1)
        idx = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, HIST_BINS - 1)
        bin_counts = np.bincount(idx, minlength=HIST_BINS)
        nonempty = np.flatnonzero(bin_counts)
        if nonempty.size > 1:
            sums = np.bincount(idx, weights=s, minlength=HIST_BINS)
            centroids = sums[nonempty] / bin_counts[nonempty]
            out.append(float(np.max(np.diff(centroids))))
        else:
            out.append(0.0)
        out += list(bin_counts / n)
    else:
        out.append(0.0)
        out += [1.0] + [0.0] * (HIST_BINS - 1)

    result = np.asarray(out, dtype=np.float64)
    if result.shape[0] != SUMMARY_DIM or not np.all(np.isfinite(result)):
        raise AssertionError("summary schema violation")
    return result
