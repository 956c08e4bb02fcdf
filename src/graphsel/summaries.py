"""Fixed statistical summary schema for structural distributions.

``summarize`` maps a non-empty distribution to a fixed-length vector of 58
statistics, or any number of distributions, of any lengths, to one such row
each. Each row is canonicalized by sorting ascending first, so its summary
depends only on the multiset of its values; node or edge order never leaks
in (relabeling a graph must not change its features).

A row's summary has the same bits in a batch as alone. The rows run in one
pass over one flat layout: every row end to end, rows ordered by length, so
the rows of one length form a (rows, length) block. Elementwise steps,
integer counts and the reads of sorted positions (quantiles, medians, bin
cuts) run on the whole layout. A sort, and every floating-point sum, runs
on one block at a time along its contiguous row axis, which gives each row
the bits of the 1-D call; sums over a row's ragged tie groups run the same
way over stacks of rows with equal group counts. No sum is a sequential
``np.add.reduceat``, whose order differs from the pairwise ``sum``.

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
PASS_VALUES = 1 << 16   # values in one pass over the flat layout; a longer row runs alone


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


def _groups(lens: np.ndarray) -> list[tuple]:
    """Rows laid end to end, row i taking lens[i] entries, grouped by
    length: (the rows, their entries, the length) per length. Rows and
    entries are slices where the rows of a length are adjacent, and indices
    otherwise."""
    ends = np.cumsum(lens)
    groups = []
    for length in np.unique(lens):
        at = np.flatnonzero(lens == length)
        if at[-1] - at[0] == at.size - 1:
            groups.append((slice(at[0], at[-1] + 1),
                           slice(ends[at[0]] - length, ends[at[-1]]), length))
        else:
            groups.append((at, ((ends[at] - length)[:, None] + np.arange(length)).ravel(), length))
    return groups


def _row_sums(values: np.ndarray, groups: list[tuple], count: int) -> np.ndarray:
    """The sum of each of ``count`` rows laid end to end along the last axis
    of ``values``, grouped by ``_groups``.

    The rows of one length are summed as one (rows, length) stack along its
    contiguous axis, so each row keeps the bits of its own 1-D sum."""
    lead = values.shape[:-1]
    out = np.empty(lead + (count,))
    for rows, entries, length in groups:
        # take, not a fancy index, whose result would not be C-ordered
        block = values[..., entries] if isinstance(entries, slice) else np.take(
            values, entries, axis=-1)
        out[..., rows] = block.reshape(lead + (-1, length)).sum(axis=-1)
    return out


class _Layout:
    """Rows of lengths ``n`` (ascending) laid end to end: each length's rows
    are one contiguous (rows, length) block."""

    def __init__(self, n: np.ndarray):
        self.n = n
        self.first = np.concatenate([[0], np.cumsum(n)[:-1]])
        self.last = self.first + n - 1
        self.blocks = _groups(n)        # all slices, as n ascends

    def spread(self, per_row: np.ndarray) -> np.ndarray:
        """A per-row value at each entry of its row."""
        return np.repeat(per_row, self.n)

    def count(self, mask: np.ndarray) -> np.ndarray:
        """The set entries of each row: exact integer counts."""
        return np.add.reduceat(mask, self.first, dtype=np.int64)

    def sort(self, flat: np.ndarray) -> np.ndarray:
        """Each row of ``flat`` sorted ascending in place, by the sort of
        the 1-D call."""
        for _, at, length in self.blocks:
            flat[at].reshape(-1, length).sort(axis=1)
        return flat

    def cut(self, s: np.ndarray, below: np.ndarray, upto: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
        """For each sorted row r: how many of its values lie below each of
        below[r], and how many at or below each of upto[r]. A binary search
        per row (``np.searchsorted``), not a comparison per value."""
        left = np.empty(below.shape, dtype=np.int64)
        right = np.empty(upto.shape, dtype=np.int64)
        for r, (lo, hi) in enumerate(zip(self.first, self.last + 1)):
            row = s[lo:hi]
            left[r] = row.searchsorted(below[r])
            right[r] = row.searchsorted(upto[r], side="right")
        return left, right

    def sums(self, flat: np.ndarray) -> np.ndarray:
        """Each row's sum, with the bits of its own 1-D sum."""
        return _row_sums(flat, self.blocks, self.n.size)

    def middle(self, flat: np.ndarray) -> np.ndarray:
        """The median of each row of non-negative values as ``np.median``
        gives it: the middle value, or the mean of the two middle values,
        found by a partition of each block."""
        mid = np.empty(self.n.size)
        for rows, at, length in self.blocks:
            half = length // 2
            odd = length % 2
            block = np.partition(flat[at].reshape(-1, length), [half] if odd else [half - 1, half],
                                 axis=1)
            mid[rows] = block[:, half] if odd else (block[:, half - 1] + block[:, half]) / 2
        return mid


def _tie_group_sums(s: np.ndarray, rows: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """Tie groups of each sorted row: runs of values within the tolerance of
    their neighbour. Returns each row's group count and a (4, rows) array:
    the sums of p·log p (p a group's share of the row) and of the three
    Kendall tie terms t(t-1)/2, t(t-1)(t-2) and t(t-1)(2t+5) over the row's
    group sizes t. A row of one group gets zero sums. Each row's terms are
    summed as its own contiguous array is, so they keep their bits."""
    lo, hi = s[:-1], s[1:]
    starts = np.ones(s.size, dtype=bool)
    starts[1:] = hi - lo > GROUP_ATOL + GROUP_RTOL * np.maximum(np.abs(hi), np.abs(lo))
    starts[rows.first] = True
    card = rows.count(starts)
    sizes = _run_lengths(starts)                  # row by row
    p = sizes / np.repeat(rows.n, card)
    t = sizes.astype(np.float64)
    pairs = t * (t - 1.0)
    terms = np.stack([p * np.log(p), pairs / 2.0, pairs * (t - 2.0), pairs * (2.0 * t + 5.0)])
    sums = _row_sums(terms, _groups(card), card.size)
    sums[:, card == 1] = 0.0
    return card, sums


def _kendall_p(n: np.ndarray, big_t: np.ndarray, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
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


def _quantiles(s: np.ndarray, rows: _Layout) -> np.ndarray:
    """The 0.25, 0.5 and 0.75 quantiles of each sorted row, one row per
    quantile, by the arithmetic of ``np.quantile``'s default (linear)
    method: a row of one value reads index -1, and its weight from -1."""
    n = rows.n
    v = (n - 1) * np.array([[0.25], [0.5], [0.75]])
    below = np.floor(v).astype(np.intp)
    past = v >= n - 1
    below[past] = -1
    above = np.where(past, -1, below + 1)
    gamma = v - below
    a = s[np.where(below < 0, rows.last, rows.first + below)]
    b = s[np.where(above < 0, rows.last, rows.first + above)]
    diff = b - a
    q = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    # np.quantile partitions a copy of the row, and that can move a signed
    # zero: a row that holds -0.0 takes its own call
    for r in np.flatnonzero(rows.count(np.signbit(s) & (s == 0))):
        q[:, r] = np.quantile(s[rows.first[r]:rows.last[r] + 1], [0.25, 0.5, 0.75])
    return q


def _moments_3_4(z: np.ndarray, rows: _Layout) -> np.ndarray:
    """Row means of z**3 (first row) and z**4 (second) for rows sorted
    ascending.

    ``**`` runs once per run of equal values and is repeated over the run:
    the array, and so its pairwise mean, keeps its bits. Equal values are
    equal bits except 0.0 and -0.0, whose cubes differ only in the sign of
    a zero term, which cannot change a sum with a nonzero term."""
    starts = np.empty(z.size, dtype=bool)
    starts[1:] = z[1:] != z[:-1]
    starts[rows.first] = True
    first = z[starts]
    powers = np.repeat(np.stack([first ** 3, first ** 4]), _run_lengths(starts), axis=1)
    return rows.sums(powers) / rows.n


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


def _histogram(s: np.ndarray, rows: _Layout, spread: np.ndarray,
               cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the largest gap between the centroids of consecutive
    non-empty bins (0 with fewer than two), and the HIST_BINS bin shares,
    one row per bin. Bins split [min, max] evenly, the last one closed; a
    constant row puts everything in bin 0.

    Each row is sorted, so every bin is a run of it, cut where the row
    reaches each inner edge (``cuts``, one column per inner edge); a bin's
    sum adds its values in order from 0, as a bincount does."""
    size = rows.n.size
    gap = np.zeros(size)
    shares = np.zeros((HIST_BINS, size))
    shares[0] = 1.0
    spread = np.flatnonzero(spread)
    if spread.size == 0:
        return gap, shares
    bounds = np.column_stack([np.zeros(size, dtype=np.int64), cuts, rows.n])
    counts = np.diff(bounds, axis=1).ravel()
    sums = np.bincount(np.repeat(np.arange(counts.size), counts), weights=s,
                       minlength=counts.size).reshape(size, HIST_BINS)[spread].ravel()
    counts = counts.reshape(size, HIST_BINS)[spread]
    filled = np.flatnonzero(counts)                 # row-major bin ids
    centroids = sums[filled] / counts.ravel()[filled]
    owner = filled // HIST_BINS
    paired = owner[1:] == owner[:-1]
    widest = np.full(spread.size, -np.inf)
    np.maximum.at(widest, owner[1:][paired], np.diff(centroids)[paired])
    gap[spread] = np.where(np.bincount(owner, minlength=spread.size) > 1, widest, 0.0)
    shares[:, spread] = counts.T / rows.n[spread]
    return gap, shares


def summarize(values) -> np.ndarray:
    """The SUMMARY_DIM statistics of a distribution. A 2-D array is a stack
    of distributions, one per row, and a list or tuple of 1-D arrays holds
    rows of any lengths; either gives one row of statistics each.

    The rows, ordered by length, go in passes of at most PASS_VALUES values
    (a longer row alone), which bound the layout's memory."""
    one = False
    if isinstance(values, (list, tuple)):
        given = [np.asarray(row, dtype=np.float64) for row in values]
        if any(row.ndim != 1 for row in given):
            raise ValueError("a list of distributions takes 1-D rows")
    else:
        x = np.asarray(values, dtype=np.float64)
        one = x.ndim == 1
        given = [x] if one else list(x)
    lens = np.array([row.size for row in given], dtype=np.int64)
    if lens.size == 0 or lens.min() == 0:
        raise ValueError("cannot summarize an empty distribution")
    order = np.argsort(lens, kind="stable")
    ends = np.cumsum(lens[order])
    result = np.empty((lens.size, SUMMARY_DIM))
    lo = 0
    while lo < lens.size:
        limit = (ends[lo - 1] if lo else 0) + PASS_VALUES
        hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        rows = order[lo:hi]
        flat = np.concatenate([given[i] for i in rows])
        if not np.all(np.isfinite(flat)):
            raise ValueError("cannot summarize non-finite values")
        result[rows] = _summarize_pass(flat, lens[rows]).T
        lo = hi
    return result[0] if one else result


def _summarize_pass(s: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The (SUMMARY_DIM, rows) statistics of rows of ascending lengths ``n``
    laid end to end in ``s``, which is sorted in place."""
    rows = _Layout(n)
    s = rows.sort(s)
    card, tie_sums = _tie_group_sums(s, rows)
    q1, med, q3 = _quantiles(s, rows)
    iqr = q3 - q1
    mn, mx = s[rows.first], s[rows.last]

    # exact (order-independent) mean: the ratio statistics below divide by
    # mu, and near-zero means would amplify ordinary summation noise
    mu = np.array([math.fsum(s[block].tolist()) for block in
                   map(slice, rows.first, rows.last + 1)]) / n
    dev = s - rows.spread(mu)
    var = rows.sums(dev ** 2) / n                       # population
    sd = np.sqrt(var)

    with np.errstate(over="ignore", invalid="ignore"):
        lower = [q1 - a * iqr for a in IQR_ALPHAS] + [mu - a * sd for a in STD_ALPHAS]
        upper = [q3 + a * iqr for a in IQR_ALPHAS] + [mu + a * sd for a in STD_ALPHAS]
        mu2 = mu * mu
        half_sum = q3 + q1
    # one search per row finds the values outside each pair of fences and
    # the histogram's bin cuts
    inner = _bin_edges(mn, mx)[:, 1:-1]
    below, upto = rows.cut(s, np.column_stack(lower + [inner]), np.column_stack(upper))
    outside = (below[:, :len(lower)] + n[:, None] - upto).T.astype(np.float64)

    out: list[np.ndarray] = [card.astype(np.float64), rows.count(s != 0) / n, q1, q3, iqr]
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
    trio = np.zeros((6, n.size))
    tied = (card >= 2) & (n >= 3)
    if tied.any():
        trio[[0, 2, 4]] = np.where(tied, 1.0, 0.0)
        trio[3, tied] = _kendall_p(n[tied], *tie_sums[1:, tied])
    out += [*trio, mn, mx, mx - mn, med]

    gmean = np.zeros(n.size)
    hmean = np.zeros(n.size)
    positive = mn > 0
    if positive.any():
        sp = np.where(rows.spread(positive), s, 1.0)    # other rows read 1s, and are dropped
        g = np.exp(rows.sums(np.log(sp))[positive] / n[positive])
        gmean[positive] = np.where(np.isfinite(g), g, 0.0)
        with np.errstate(over="ignore"):         # 1 / subnormal -> inf -> 0.0
            hmean[positive] = _ratio(n[positive].astype(np.float64),
                                     rows.sums(1.0 / sp)[positive])
    out += [gmean, hmean, mu, sd, var]

    skew_kurt = np.zeros((2, n.size))
    spread = sd > 0
    if spread.any():
        z = dev / rows.spread(np.where(spread, sd, 1.0))
        skew_kurt[:, spread] = _moments_3_4(z, rows)[:, spread]
        skew_kurt[1, spread] -= 3.0
    out += [*skew_kurt]

    # gini: sum_{i,j} |x_i - x_j| = 2 * sum_k (2k + 1 - n) * s_k, 0-indexed
    # sort (k = i - first at flat index i); a zero mean or a single value gives 0
    weights = 2 * np.arange(s.size) - rows.spread(2 * rows.first + n - 1)
    mean_abs_diff = 2.0 * rows.sums(weights * s) / (n * n)
    quart_disp, cv, efficiency, vmr, snr, gini = _ratio(
        np.array([iqr, sd, var, var, mu2, mean_abs_diff]),
        np.array([half_sum, mu, mu2, mu, var, 2.0 * np.abs(mu)]))
    mad = rows.middle(np.abs(s - rows.spread(med)))
    aad = rows.sums(np.abs(dev)) / n
    out += [quart_disp, mad, aad, cv, efficiency, vmr, snr]

    entropy = np.zeros((2, n.size))
    grouped = card > 1
    entropy[0, grouped] = -tie_sums[0, grouped]
    entropy[1, grouped] = entropy[0, grouped] / np.log(card[grouped])
    out += [*entropy, gini]

    five = np.array([mn, q1, med, q3, mx])
    out.append((five[1:] - five[:-1]).max(axis=0))

    gap, shares = _histogram(s, rows, mx > mn, below[:, len(lower):])
    out += [gap, *shares]

    result = np.array(out)
    if result.shape[0] != SUMMARY_DIM or not np.all(np.isfinite(result)):
        raise AssertionError("summary schema violation")
    return result
