"""Fixed statistical summary schema for structural distributions.

``summarize`` maps a non-empty distribution to a fixed-length vector of 58
statistics, or a (rows, n) stack of equal-length distributions to one such
row each. The input is canonicalized by sorting ascending first, so the
summary depends only on the multiset of values; node or edge order never
leaks in (relabeling a graph must not change its features).

A row's summary has the same bits stacked as alone. Sorts, quantiles,
medians and sums run along the contiguous row axis, which gives the bits of
the 1-D calls; sums over a row's ragged tie groups run one row at a time;
every other step is elementwise.

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


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den under the degenerate-input policy: a zero denominator or a
    non-finite quotient (float under/overflow) collapses to 0.0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = num / den
    return np.where((den != 0.0) & np.isfinite(out), out, 0.0)


def _run_lengths(starts: np.ndarray) -> np.ndarray:
    """Lengths of the runs that begin where the flat mask ``starts`` is set
    (it is set at 0), in order."""
    first = np.flatnonzero(starts)
    return np.append(first[1:], starts.size) - first


def _tie_group_sums(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tie groups of each sorted row: runs of values within the tolerance of
    their neighbour. Returns each row's group count and a (4, rows) array:
    the sums of p·log p (p a group's share of the row) and of the three
    Kendall tie terms t(t-1)/2, t(t-1)(t-2) and t(t-1)(2t+5) over the row's
    group sizes t. A row of one group gets zero sums. The sums add a row's
    terms in one call, as the 1-D sums do, so they keep their bits."""
    rows, n = s.shape
    lo, hi = s[:, :-1], s[:, 1:]
    starts = np.ones((rows, n), dtype=bool)
    starts[:, 1:] = hi - lo > GROUP_ATOL + GROUP_RTOL * np.maximum(np.abs(hi), np.abs(lo))
    card = starts.sum(axis=1)
    sizes = _run_lengths(starts)                  # row-major
    p = sizes / n
    t = sizes.astype(np.float64)
    pairs = t * (t - 1.0)
    terms = np.stack([p * np.log(p), pairs / 2.0, pairs * (t - 2.0), pairs * (2.0 * t + 5.0)])
    bounds = np.cumsum(card)
    sums = np.zeros((4, rows))
    for r in np.flatnonzero(card > 1):
        sums[:, r] = terms[:, bounds[r] - card[r]:bounds[r]].sum(axis=1)
    return card, sums


def _kendall_p(n: int, big_t: np.ndarray, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Asymptotic p-value of Kendall's tau-b of a vector of n >= 3 values
    against its own sort, from its tie sums (see ``_tie_group_sums``).
    Every cross-group pair is concordant, so tau-b is exactly 1; the p-value
    keeps the tie-corrected variance."""
    m = n * (n - 1.0)
    con_minus_dis = m / 2.0 - big_t
    var = (m * (2.0 * n + 5.0) - 2.0 * x1) / 18.0 \
        + 2.0 * big_t * big_t / m + x0 * x0 / (9.0 * m * (n - 2.0))
    z = con_minus_dis / np.sqrt(var)
    return 2.0 * special.ndtr(-np.abs(z))     # the normal survival function at |z|


def _moments_3_4(z: np.ndarray) -> np.ndarray:
    """Row means of z**3 (first row) and z**4 (second) for rows sorted
    ascending.

    ``**`` runs once per run of equal values and is repeated over the run:
    the array, and so its pairwise mean, keeps its bits. Equal values are
    equal bits except 0.0 and -0.0, whose cubes differ only in the sign of
    a zero term, which cannot change a sum with a nonzero term."""
    flat = z.ravel()
    starts = np.empty(flat.size, dtype=bool)
    starts[1:] = flat[1:] != flat[:-1]
    starts[::z.shape[1]] = True
    reps = _run_lengths(starts)
    first = flat[starts]
    powers = np.repeat(np.stack([first ** 3, first ** 4]), reps, axis=1)
    return powers.reshape(2, *z.shape).sum(axis=2) / z.shape[1]


def _bin_edges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Row i is np.linspace(lo[i], hi[i], HIST_BINS + 1). linspace picks
    one formula for all rows, by whether any step underflows to 0, so rows
    with and without such a step go in separate calls."""
    edges = np.empty((lo.size, HIST_BINS + 1))
    tiny = (hi - lo) / HIST_BINS == 0
    for part in (tiny, ~tiny):
        if part.any():
            edges[part] = np.linspace(lo[part], hi[part], HIST_BINS + 1, axis=1)
    return edges


def _histogram(s: np.ndarray, mn: np.ndarray, mx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the largest gap between the centroids of consecutive
    non-empty bins (0 with fewer than two), and the HIST_BINS bin shares,
    one row per bin. Bins split [min, max] evenly, the last one closed; a
    constant row puts everything in bin 0.

    Each row is sorted, so every bin is a run of it, cut where the row
    reaches each inner edge; a bin's sum adds its values in order from 0,
    as a bincount does."""
    rows, n = s.shape
    gap = np.zeros(rows)
    shares = np.zeros((HIST_BINS, rows))
    shares[0] = 1.0
    spread = np.flatnonzero(mx > mn)
    if spread.size == 0:
        return gap, shares
    edges = _bin_edges(mn[spread], mx[spread])
    cuts = np.full((spread.size, HIST_BINS + 1), n)
    cuts[:, 0] = 0
    for i, r in enumerate(spread):
        cuts[i, 1:-1] = np.searchsorted(s[r], edges[i, 1:-1])
    counts = (cuts[:, 1:] - cuts[:, :-1]).ravel()
    sums = np.bincount(np.repeat(np.arange(counts.size), counts),
                       weights=s[spread].ravel(), minlength=counts.size)
    filled = np.flatnonzero(counts)                 # row-major bin ids
    centroids = sums[filled] / counts[filled]
    owner = filled // HIST_BINS
    paired = owner[1:] == owner[:-1]
    widest = np.full(spread.size, -np.inf)
    np.maximum.at(widest, owner[1:][paired], np.diff(centroids)[paired])
    gap[spread] = np.where(np.bincount(owner, minlength=spread.size) > 1, widest, 0.0)
    shares[:, spread] = counts.reshape(-1, HIST_BINS).T / n
    return gap, shares


def summarize(values: np.ndarray) -> np.ndarray:
    """The SUMMARY_DIM statistics of a distribution; a 2-D input is a stack
    of equal-length distributions, one per row, and gives one row each."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot summarize an empty distribution")
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot summarize non-finite values")
    stacked = x.ndim == 2
    s = np.sort(x if stacked else x.reshape(1, -1), axis=1)
    rows, n = s.shape
    card, tie_sums = _tie_group_sums(s)
    q1, med, q3 = np.quantile(s, [0.25, 0.5, 0.75], axis=1)
    iqr = q3 - q1
    mn, mx = s[:, 0], s[:, -1]

    # exact (order-independent) mean: the ratio statistics below divide by
    # mu, and near-zero means would amplify ordinary summation noise
    mu = np.array([math.fsum(row) for row in s.tolist()]) / n
    dev = s - mu[:, None]
    var = (dev ** 2).sum(axis=1) / n                     # population
    sd = np.sqrt(var)

    with np.errstate(over="ignore", invalid="ignore"):
        lower = [q1 - a * iqr for a in IQR_ALPHAS] + [mu - a * sd for a in STD_ALPHAS]
        upper = [q3 + a * iqr for a in IQR_ALPHAS] + [mu + a * sd for a in STD_ALPHAS]
        mu2 = mu * mu
        half_sum = q3 + q1
    outside = ((s < np.array(lower)[:, :, None])
               | (s > np.array(upper)[:, :, None])).sum(axis=2).astype(np.float64)

    out: list[np.ndarray] = [card.astype(np.float64), (s != 0).sum(axis=1) / n, q1, q3, iqr]
    for i in range(len(IQR_ALPHAS)):
        out += [lower[i], upper[i], outside[i]]
    for i in range(len(IQR_ALPHAS), len(lower)):
        out += [lower[i], upper[i], outside[i], outside[i] / n]

    # (rho, p) x {Spearman, Kendall, Pearson} of the canonical vector vs
    # its sort; both are sorted here, so this measures tie structure only.
    # Self-correlation of a non-constant vector has rho = r = 1 and p = 0
    # exactly for Spearman and Pearson; only Kendall's asymptotic p-value
    # responds to the ties. Tie groups reuse the tolerance rule of the
    # cardinality statistic (instead of exact equality) so last-ulp noise
    # cannot flip the p-value when a graph is relabeled.
    # n < 3 or an effectively constant input -> all zeros.
    trio = np.zeros((6, rows))
    tied = card >= 2 if n >= 3 else np.zeros(rows, dtype=bool)
    if tied.any():
        trio[[0, 2, 4]] = np.where(tied, 1.0, 0.0)
        trio[3, tied] = _kendall_p(n, *tie_sums[1:, tied])
    out += [*trio, mn, mx, mx - mn, med]

    gmean = np.zeros(rows)
    hmean = np.zeros(rows)
    positive = mn > 0
    if positive.any():
        sp = s[positive]
        g = np.exp(np.log(sp).sum(axis=1) / n)
        gmean[positive] = np.where(np.isfinite(g), g, 0.0)
        with np.errstate(over="ignore"):         # 1 / subnormal -> inf -> 0.0
            hmean[positive] = _ratio(float(n), (1.0 / sp).sum(axis=1))
    out += [gmean, hmean, mu, sd, var]

    skew_kurt = np.zeros((2, rows))
    spread = sd > 0
    if spread.any():
        skew_kurt[:, spread] = _moments_3_4(dev[spread] / sd[spread, None])
        skew_kurt[1, spread] -= 3.0
    out += [*skew_kurt]

    # gini: sum_{i,j} |x_i - x_j| = 2 * sum_k (2k + 1 - n) * s_k, 0-indexed
    # sort; a zero mean or a single value gives 0
    k = np.arange(n)
    mean_abs_diff = 2.0 * ((2 * k + 1 - n) * s).sum(axis=1) / (n * n)
    quart_disp, cv, efficiency, vmr, snr, gini = _ratio(
        np.array([iqr, sd, var, var, mu2, mean_abs_diff]),
        np.array([half_sum, mu, mu2, mu, var, 2.0 * np.abs(mu)]))
    mad = np.median(np.abs(s - med[:, None]), axis=1)
    aad = np.abs(dev).sum(axis=1) / n
    out += [quart_disp, mad, aad, cv, efficiency, vmr, snr]

    entropy = np.zeros((2, rows))
    grouped = card > 1
    entropy[0, grouped] = -tie_sums[0, grouped]
    entropy[1, grouped] = entropy[0, grouped] / np.log(card[grouped])
    out += [*entropy, gini]

    five = np.array([mn, q1, med, q3, mx])
    out.append((five[1:] - five[:-1]).max(axis=0))

    gap, shares = _histogram(s, mn, mx)
    out += [gap, *shares]

    result = np.array(out)
    if result.shape[0] != SUMMARY_DIM or not np.all(np.isfinite(result)):
        raise AssertionError("summary schema violation")
    return result.T.copy() if stacked else result[:, 0]
