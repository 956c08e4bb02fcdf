"""Fixed-length summary vectors against direct-formula references."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from graphsel import summaries
from graphsel.summaries import GROUP_RTOL, SUMMARY_DIM, SUMMARY_NAMES, summarize, summary_names

from oracles import summarize_one, summary_brute


def assert_close(got, want, tol=1e-9):
    scale = np.maximum(1.0, np.abs(want))
    bad = np.abs(got - want) > tol * scale
    if bad.any():
        names = [SUMMARY_NAMES[i] for i in np.flatnonzero(bad)]
        raise AssertionError(f"summary mismatch at {names}: "
                             f"{got[bad]} vs {want[bad]}")


def random_vector(rng):
    n = int(rng.integers(1, 120))
    kind = int(rng.integers(6))
    if kind == 0:
        return rng.normal(0, float(rng.uniform(0.1, 10)), size=n)
    if kind == 1:
        return rng.integers(0, 8, size=n).astype(float)
    if kind == 2:
        return rng.uniform(0.01, 1.0, size=n)          # all positive
    if kind == 3:
        return np.round(rng.normal(size=n), 1)          # heavy ties
    if kind == 4:
        return rng.exponential(5.0, size=n)
    return rng.integers(0, 3, size=n) - 1.0             # ties incl. negatives


def test_schema_is_fixed_and_unique():
    names = summary_names()
    assert len(names) == SUMMARY_DIM == 58
    assert len(set(names)) == 58
    assert names == SUMMARY_NAMES


def test_matches_direct_formulas_on_random_vectors():
    rng = np.random.default_rng(3)
    for trial in range(300):
        x = random_vector(rng)
        assert_close(summarize(x), summary_brute(x))


def test_order_invariance():
    rng = np.random.default_rng(5)
    for trial in range(10):
        x = rng.normal(size=int(rng.integers(2, 50)))
        shuffled = x[rng.permutation(x.size)]
        assert np.array_equal(summarize(x), summarize(shuffled))


def test_single_element_vector():
    got = dict(zip(SUMMARY_NAMES, summarize(np.array([5.0]))))
    assert got["card"] == 1.0
    assert got["density"] == 1.0
    assert got["q1"] == got["q3"] == got["median"] == 5.0
    assert got["iqr"] == 0.0
    assert got["min"] == got["max"] == 5.0
    assert got["range"] == 0.0
    assert got["mean"] == 5.0
    # gmean/hmean round-trip through exp(log .) and 1/(1/.), so ulp slack
    assert got["gmean"] == pytest.approx(5.0, rel=1e-12)
    assert got["hmean"] == pytest.approx(5.0, rel=1e-12)
    assert got["stdev"] == got["variance"] == 0.0
    # undefined statistics collapse to 0
    for name in ("spearman_rho", "kendall_tau", "pearson_r", "skew", "kurtosis",
                 "cv", "snr", "entropy", "norm_entropy", "gini"):
        assert got[name] == 0.0
    assert got["hist_0"] == 1.0
    assert sum(got[f"hist_{i}"] for i in range(10)) == 1.0


def test_constant_vector():
    got = dict(zip(SUMMARY_NAMES, summarize(np.full(7, 2.0))))
    assert got["card"] == 1.0
    assert got["stdev"] == 0.0
    assert got["gini"] == 0.0
    assert got["entropy"] == 0.0
    assert got["spearman_rho"] == 0.0
    assert got["quartile_max_gap"] == 0.0
    assert np.all(np.isfinite(summarize(np.zeros(4))))


def test_zero_mean_vector_stays_finite():
    got = dict(zip(SUMMARY_NAMES, summarize(np.array([-1.0, 1.0]))))
    assert got["cv"] == 0.0
    assert got["vmr"] == 0.0
    assert got["gini"] == 0.0
    assert np.isfinite(got["snr"])


def test_tolerance_grouping_absorbs_last_ulp_noise():
    x = np.array([1.0, 1.0 + 1e-13, 2.0])
    got = dict(zip(SUMMARY_NAMES, summarize(x)))
    assert got["card"] == 2.0
    p = np.array([2 / 3, 1 / 3])
    assert abs(got["entropy"] - float(-(p * np.log(p)).sum())) < 1e-12
    assert abs(got["norm_entropy"] - got["entropy"] / np.log(2.0)) < 1e-12

    # well separated values count exactly
    y = np.array([3.0, 1.0, 2.0, 1.0])
    assert dict(zip(SUMMARY_NAMES, summarize(y)))["card"] == 3.0


def test_subnormal_value_gives_zero_harmonic_mean_without_warning():
    # 1 / 5e-324 overflows to inf, so the harmonic mean collapses to 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dict(zip(SUMMARY_NAMES, summarize(np.array([5e-324, 1.0, 2.0]))))
    assert got["hmean"] == 0.0
    assert got["gmean"] > 0.0


def test_rejects_bad_input():
    for bad in (np.array([]), np.array([1.0, np.nan]), np.array([np.inf]),
                np.zeros((0, 3)), np.zeros((2, 0)), np.array([[1.0, 2.0], [0.0, -np.inf]])):
        with pytest.raises(ValueError):
            summarize(bad)


def test_every_output_finite_on_adversarial_inputs():
    cases = [
        np.array([0.0]),
        np.array([-3.0, -3.0]),
        np.array([1e-300, 2e-300, 3e-300]),
        np.array([1e6, 1e6, 1e6 + 1]),
        np.concatenate([np.zeros(50), np.ones(1)]),
    ]
    for x in cases:
        out = summarize(x)
        assert out.shape == (58,)
        assert np.all(np.isfinite(out))


FINITE = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)
DISTRIBUTIONS = st.one_of(
    st.lists(FINITE, min_size=1, max_size=60),
    # heavy ties: a few distinct values, zero among them, drawn 1-60 times
    st.lists(FINITE, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool + [0.0]), min_size=1, max_size=60)),
    # constants, zero included
    st.tuples(st.one_of(FINITE, st.just(0.0)), st.integers(1, 60)).map(lambda c: [c[0]] * c[1]),
)


@settings(max_examples=300, deadline=None)
@given(DISTRIBUTIONS)
def test_any_finite_distribution_gives_58_finite_summaries(values):
    out = summarize(np.array(values))
    assert out.shape == (SUMMARY_DIM,) == (58,)
    assert np.all(np.isfinite(out))


def test_kendall_tail_is_the_normal_survival_function_bit_for_bit():
    """The Kendall p-value reads ``special.ndtr(-|z|)``; scipy defines
    ``norm.sf(x)`` as ``ndtr(-x)``, so the two agree to the bit, out to the
    far tail where both underflow to 0."""
    z = np.concatenate([np.linspace(0.0, 40.0, 4001), np.geomspace(1e-12, 1e3, 400),
                        [37.5, 38.4, 38.5, 39.0, np.inf]])
    want = stats.norm.sf(z)
    assert want[-10] == 0.0 and 0.0 < want[3750] < 1e-300
    assert np.array_equal(special.ndtr(-z), want)


def rows_of(n):
    """Rows of length n: the DISTRIBUTIONS kinds, then signed zeros,
    subnormals and ties within the grouping tolerance."""
    return st.one_of(
        st.lists(FINITE, min_size=n, max_size=n),
        st.lists(FINITE, min_size=1, max_size=4).flatmap(
            lambda pool: st.lists(st.sampled_from(pool + [0.0]), min_size=n, max_size=n)),
        st.one_of(FINITE, st.just(0.0)).map(lambda c: [c] * n),
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]), min_size=n, max_size=n),
        st.lists(st.sampled_from([5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 0.0, -0.0, 1.0]),
                 min_size=n, max_size=n),
        st.tuples(FINITE, st.lists(st.integers(0, 3), min_size=n, max_size=n)).map(
            lambda c: [c[0] * (1.0 + k * GROUP_RTOL / 4) for k in c[1]]),
    )


STACKS = st.integers(1, 40).flatmap(lambda n: st.lists(rows_of(n), min_size=1, max_size=6))


@settings(max_examples=400, deadline=None)
@given(STACKS)
def test_a_stack_summarises_each_row_as_the_one_distribution_oracle_bit_for_bit(rows):
    x = np.array(rows, dtype=np.float64)
    want = np.stack([summarize_one(row) for row in x])
    got = summarize(x)
    assert got.shape == (len(rows), SUMMARY_DIM)
    assert got.tobytes() == want.tobytes()
    assert summarize(x[-1]).tobytes() == want[-1].tobytes()


def test_a_row_whose_bin_step_underflows_keeps_its_bits_in_a_stack():
    # the first row's (max - min) / 10 underflows to 0, and np.linspace
    # changes its formula for every row of a call when any step is 0; the
    # second row's 0.3 lies below its bin edge 3 * 0.1 but on 0.3 / 1 * 1
    x = np.array([[0.0, 5e-324, 1.5e-323, -0.0, 5e-324],
                  [0.0, 0.3, 1.0, 0.6, 0.7],
                  [3.0, 3.0, 3.0, 3.0, 3.0]])
    want = np.stack([summarize_one(row) for row in x])
    assert summarize(x).tobytes() == want.tobytes()


RAGGED = st.lists(st.integers(1, 40).flatmap(rows_of), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(RAGGED)
def test_rows_of_any_lengths_summarise_each_row_as_the_one_distribution_oracle_bit_for_bit(rows):
    """Ragged rows go in one call: each row, whatever the lengths beside it
    and wherever it falls in the flat layout, gets the oracle's bits."""
    want = np.stack([summarize_one(row) for row in rows])
    got = summarize([np.array(row, dtype=np.float64) for row in rows])
    assert got.shape == (len(rows), SUMMARY_DIM)
    assert got.tobytes() == want.tobytes()


def test_a_list_of_rows_takes_only_1d_rows():
    with pytest.raises(ValueError, match="1-D rows"):
        summarize([np.ones(3), np.ones((2, 2))])
    with pytest.raises(ValueError, match="empty"):
        summarize([np.ones(3), np.zeros(0)])
    with pytest.raises(ValueError, match="non-finite"):
        summarize([np.ones(3), np.array([1.0, np.inf])])


@pytest.mark.parametrize("cap", [1, 7, 64])
def test_any_pass_size_gives_the_same_bytes(monkeypatch, cap):
    """Rows go in passes of at most PASS_VALUES values, a longer row alone;
    where the passes fall moves no bit."""
    rng = np.random.default_rng(cap)
    rows = [np.round(rng.normal(size=int(rng.integers(1, 40))), int(rng.integers(0, 3)))
            for _ in range(30)]
    whole = summarize(rows)
    monkeypatch.setattr(summaries, "PASS_VALUES", cap)
    assert summarize(rows).tobytes() == whole.tobytes()
