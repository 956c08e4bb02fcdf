"""Performance matrix container, factorization, ridge estimator, corruption."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from graphsel.perf import (PerformanceMatrix, _loocv_ridge_lambda, factorize,
                           fit_factor_estimator, from_csv, mask_random, perturb,
                           standardize)

from oracles import factorize_literal, to_csv


def make_matrix(rng, n, m, frac_observed=0.7):
    values = rng.random((n, m))
    observed = rng.random((n, m)) < frac_observed
    return PerformanceMatrix(values, observed,
                             [f"g{i}" for i in range(n)],
                             [f"m{j}" for j in range(m)])


# --- container ---------------------------------------------------------------

def test_matrix_masks_unobserved_with_nan():
    p = PerformanceMatrix(np.array([[0.5, 0.9], [0.1, 0.2]]),
                          np.array([[True, False], [True, True]]),
                          ["a", "b"], ["m1", "m2"])
    assert np.isnan(p.values[0, 1])
    assert p.values[0, 0] == 0.5
    assert np.array_equal(p.filled(), [[0.5, 0.0], [0.1, 0.2]])
    assert np.array_equal(p.filled(-1.0), [[0.5, -1.0], [0.1, 0.2]])
    sub = p.rows([1])
    assert sub.graph_ids == ["b"]
    assert sub.shape == (1, 2)


def test_matrix_validation():
    with pytest.raises(ValueError):
        PerformanceMatrix(np.zeros((2, 2)), np.ones((2, 3), dtype=bool),
                          ["a", "b"], ["x", "y", "z"])
    with pytest.raises(ValueError):
        PerformanceMatrix(np.zeros((2, 2)), np.ones((2, 2), dtype=bool),
                          ["a"], ["x", "y"])
    with pytest.raises(ValueError):
        PerformanceMatrix(np.array([[1.5, 0.0]]), np.ones((1, 2), dtype=bool),
                          ["a"], ["x", "y"])
    with pytest.raises(ValueError):
        PerformanceMatrix(np.array([[np.nan, 0.0]]), np.ones((1, 2), dtype=bool),
                          ["a"], ["x", "y"])


def test_csv_round_trip_is_lossless():
    rng = np.random.default_rng(0)
    p = make_matrix(rng, 6, 4, frac_observed=0.6)
    back = from_csv(to_csv(p))
    assert back.graph_ids == p.graph_ids
    assert back.model_ids == p.model_ids
    assert np.array_equal(back.observed, p.observed)
    assert np.array_equal(back.values[back.observed], p.values[p.observed])


def test_csv_parse_errors():
    with pytest.raises(ValueError):
        from_csv("")
    with pytest.raises(ValueError):
        from_csv("not_graph_id,m1\ng0,0.5\n")
    with pytest.raises(ValueError, match="line 2"):
        from_csv("graph_id,m1,m2\ng0,0.5\n")
    with pytest.raises(ValueError, match="^line 3: non-numeric value 'abc' for model m2$"):
        from_csv("graph_id,m1,m2\ng0,0.5,0.1\ng1,0.2,abc\n")
    # line numbers count the comment and blank lines the parser skips
    with pytest.raises(ValueError, match="^line 4: non-numeric value 'abc' for model m1$"):
        from_csv("# config_hash=x\n# schema_version=2\ngraph_id,m1\ng0,abc\n")
    with pytest.raises(ValueError, match="^line 5: expected 2 cells, got 3$"):
        from_csv("# stamp\ngraph_id,m1\n\ng0,0.5\ng1,0.5,0.6\n")
    with pytest.raises(ValueError, match="^performance csv has a header and no graph rows$"):
        from_csv("# stamp\ngraph_id,m1,m2\n\n")


def test_duplicate_ids_are_rejected():
    with pytest.raises(ValueError, match="duplicate model ids: a"):
        from_csv("graph_id,a,a\ng1,0.5,0.6\n")
    with pytest.raises(ValueError, match="duplicate graph ids: g1"):
        from_csv("graph_id,a,b\ng1,0.5,0.6\ng1,0.1,0.2\n")


def test_csv_skips_comments_and_blanks():
    text = "# stamp\ngraph_id,m1\n\ng0,0.25\n"
    p = from_csv(text)
    assert p.graph_ids == ["g0"]
    assert p.values[0, 0] == 0.25


# --- factorization -----------------------------------------------------------

def test_factorize_objective_never_increases():
    rng = np.random.default_rng(1)
    for trial in range(5):
        p = make_matrix(rng, 12, 7, frac_observed=0.6)
        f = factorize(p, 3, seed=trial)
        diffs = np.diff(f.objective_trace)
        assert np.all(diffs <= 1e-9 * np.maximum(f.objective_trace[:-1], 1.0))
        assert f.u.shape == (12, 3)
        assert f.v.shape == (7, 3)
        assert f.u.min() >= 0 and f.v.min() >= 0


def test_factorize_rank_validation():
    rng = np.random.default_rng(2)
    p = make_matrix(rng, 5, 4)
    with pytest.raises(ValueError):
        factorize(p, 0, seed=0)
    with pytest.raises(ValueError):
        factorize(p, 5, seed=0)
    with pytest.raises(ValueError):
        factorize(p, 2, seed=0, mean_prior_weight=1.5)
    empty = PerformanceMatrix(np.zeros((3, 3)), np.zeros((3, 3), dtype=bool),
                              list("abc"), list("xyz"))
    with pytest.raises(ValueError):
        factorize(empty, 1, seed=0)


def test_factorize_reinserts_empty_rows_as_mean_factors(caplog):
    values = np.array([[0.8, 0.2, 0.7],
                       [0.0, 0.0, 0.0],
                       [0.6, 0.3, 0.5],
                       [0.7, 0.1, 0.6]])
    observed = np.ones_like(values, dtype=bool)
    observed[1] = False
    p = PerformanceMatrix(values, observed, list("abcd"), list("xyz"))
    with caplog.at_level("WARNING"):
        f = factorize(p, 2, seed=3)
    assert "empty rows" in caplog.text
    fitted = np.delete(f.u, 1, axis=0)
    assert np.allclose(f.u[1], fitted.mean(axis=0))


def test_factorize_recovers_masked_low_rank_structure():
    rng = np.random.default_rng(4)
    u = rng.uniform(0.2, 1.0, size=(15, 2))
    v = rng.uniform(0.2, 1.0, size=(6, 2))
    x = u @ v.T
    x /= x.max()
    observed = rng.random(x.shape) < 0.75
    p = PerformanceMatrix(x, observed, [f"g{i}" for i in range(15)],
                          [f"m{j}" for j in range(6)])
    f = factorize(p, 2, seed=4)
    recon = f.u @ f.v.T
    rmse = np.sqrt(np.mean((recon[observed] - x[observed]) ** 2))
    assert rmse < 0.05


def test_mean_prior_keeps_all_rows_and_tracks_column_means():
    rng = np.random.default_rng(5)
    values = rng.random((8, 4))
    observed = np.ones((8, 4), dtype=bool)
    observed[2] = False                   # one fully unobserved row
    observed[:, 3] = [True, False, False, True, False, True, False, True]
    p = PerformanceMatrix(values, observed, [f"g{i}" for i in range(8)],
                          [f"m{j}" for j in range(4)])
    f = factorize(p, 2, seed=5, mean_prior_weight=0.2)
    diffs = np.diff(f.objective_trace)
    assert np.all(diffs <= 1e-9 * np.maximum(f.objective_trace[:-1], 1.0))
    # the empty row is fit toward the column means instead of a flat average
    col_mean = np.array([values[observed[:, j], j].mean() for j in range(4)])
    pred = f.u[2] @ f.v.T
    assert np.corrcoef(pred, col_mean)[0, 1] > 0.5


def test_mean_prior_is_identity_on_fully_observed_input():
    rng = np.random.default_rng(6)
    values = rng.random((6, 4))
    p = PerformanceMatrix(values, np.ones((6, 4), dtype=bool),
                          [f"g{i}" for i in range(6)], [f"m{j}" for j in range(4)])
    a = factorize(p, 2, seed=7)
    b = factorize(p, 2, seed=7, mean_prior_weight=0.3)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.v, b.v)


@pytest.mark.parametrize("n, m, k, observed, prior", [
    (90, 300, 32, 0.25, 0.1),        # the warm-start shape: 75% unobserved
    (12, 7, 3, 0.6, 0.0),
    (8, 5, 2, 1.0, 0.3),
])
def test_factorize_keeps_the_bytes_of_the_literal_update_loop(n, m, k, observed, prior):
    p = make_matrix(np.random.default_rng(n), n, m, frac_observed=observed)
    got = factorize(p, k, seed=11, mean_prior_weight=prior)
    want = factorize_literal(p, k, seed=11, mean_prior_weight=prior)
    for a, b in ((got.u, want.u), (got.v, want.v), (got.objective_trace, want.objective_trace)):
        assert a.tobytes() == b.tobytes()


# --- standardization ------------------------------------------------------------

def test_standardize_gives_rounding_noise_spread_scale_one():
    # 54 copies of log(2): the mean rounds, so np.std reports ~4e-16, and a
    # new value 5e-4 off the constant would otherwise land at about -1e12
    f = np.column_stack([np.full(54, np.log1p(1.0)), np.arange(54.0)])
    z, mean, scale = standardize(f)
    assert scale[0] == 1.0
    assert np.abs(z[:, 0]).max() < 1e-12
    assert abs((np.log1p(1.0) - 5e-4 - mean[0]) / scale[0]) < 1e-3
    assert scale[1] == pytest.approx(f[:, 1].std())


def test_standardize_treats_tiny_spreads_as_noise():
    # Kendall p-values near 1e-30 differ by ~1e-30: noise next to a unit
    # scale, not a feature worth amplifying by 1e30
    rng = np.random.default_rng(3)
    f = rng.uniform(1e-30, 3e-30, size=(20, 1))
    z, _, scale = standardize(f)
    assert scale[0] == 1.0
    assert np.abs(z).max() < 1e-29
    # the floor is relative to the largest |value| above 1
    big = np.column_stack([1e12 + rng.uniform(0, 1e-6, 20), 1e12 + rng.uniform(0, 1e6, 20)])
    _, _, big_scale = standardize(big)
    assert big_scale[0] == 1.0
    assert big_scale[1] > 1e5


def test_standardize_refuses_a_spread_beyond_float64():
    f = np.zeros((4, 3))
    f[:, 1] = [1e300, -1e300, 0.0, 1e300]          # finite, but squares overflow
    f[:, 2] = [1e308, 1e308, 0.0, 0.0]             # finite, but the sum overflows
    with pytest.raises(ValueError, match=r"2 feature columns \(the first is column 1\)"):
        standardize(f)
    z, mean, scale = standardize(f[:, :1] + np.full((4, 1), 1e300))
    assert (z == 0).all() and scale[0] == 1.0


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(2, 30), st.integers(1, 4)),
                  elements=st.floats(-1e3, 1e3)),
       st.data())
def test_standardize_is_invariant_to_shifting_and_scaling_a_column(f, data):
    """z-scores do not move when one column is shifted by a and scaled by
    b > 0, on columns whose spread is well above the noise floor (1e-6 of
    their largest |value|, against the floor's 1e-9), so that rounding in
    the shift stays far below the tolerance."""
    col = data.draw(st.integers(0, f.shape[1] - 1))
    a = data.draw(st.floats(-1e3, 1e3))
    b = data.draw(st.floats(1e-3, 1e3))
    moved = f.copy()
    moved[:, col] = a + b * f[:, col]

    def clear_spread(x):
        return x.std() > 1e-6 * max(1.0, np.abs(x).max())

    assume(clear_spread(f[:, col]) and clear_spread(moved[:, col]))
    z, _, _ = standardize(f)
    z_moved, _, _ = standardize(moved)
    assert np.abs(z_moved - z).max() <= 1e-6


# --- factor estimator ---------------------------------------------------------

@pytest.mark.parametrize("n,d,lam", [(20, 6, 0.37), (20, 60, 1e-6)])
def test_ridge_matches_augmented_least_squares(n, d, lam):
    # the wide case is the regime of the meta-feature design (n <= d, rank
    # n - 1 after centring) at the LOO grid floor, where d x d normal
    # equations lose about half the digits
    rng = np.random.default_rng(8)
    f = rng.normal(size=(n, d))
    u = rng.normal(size=(n, 3))
    est = fit_factor_estimator(f, u, lam)

    z = (f - f.mean(axis=0)) / f.std(axis=0)
    uc = u - u.mean(axis=0)
    aug = np.vstack([z, np.sqrt(lam) * np.eye(d)])
    target = np.vstack([uc, np.zeros((d, 3))])
    w, *_ = np.linalg.lstsq(aug, target, rcond=None)
    assert np.allclose(est.weights, w, atol=1e-8)
    assert np.linalg.norm(est.weights - w) <= 1e-9 * np.linalg.norm(w)
    # ridge weights lie in the row space of z: what is left after projecting
    # them onto the span of its rows is rounding
    coef, *_ = np.linalg.lstsq(z.T, est.weights, rcond=None)
    row_resid = np.linalg.norm(est.weights - z.T @ coef)
    assert row_resid <= 1e-12 * np.linalg.norm(est.weights)
    assert np.allclose(est.intercept, u.mean(axis=0))
    assert np.allclose(est.predict(f), z @ w + u.mean(axis=0), atol=1e-8)
    assert est.ridge_lambda == lam
    assert 0 < est.r2 <= 1


def test_ridge_prediction_shapes_and_validation():
    rng = np.random.default_rng(9)
    f = rng.normal(size=(10, 4))
    u = rng.normal(size=(10, 2))
    est = fit_factor_estimator(f, u, 1.0)
    single = est.predict(f[0])
    assert single.shape == (2,)
    batch = est.predict(f[:3])
    assert batch.shape == (3, 2)
    # vector and matrix products take different BLAS paths, so ulp slack
    assert np.allclose(single, batch[0], rtol=1e-12, atol=0)
    with pytest.raises(ValueError):
        fit_factor_estimator(f, u[:5], 1.0)
    with pytest.raises(ValueError):
        fit_factor_estimator(f, u, -1.0)
    with pytest.raises(ValueError):
        fit_factor_estimator(f, u, 0.0)


def _loo_refit(z, uc, lam, i):
    """Row i's residual under a ridge refit without it, the intercept
    unpenalised and fit on the kept rows alone, so nothing of row i leaks
    in through a centring."""
    keep = np.arange(len(z)) != i
    z_mean, y_mean = z[keep].mean(axis=0), uc[keep].mean(axis=0)
    zi, yi = z[keep] - z_mean, uc[keep] - y_mean
    w = np.linalg.solve(zi.T @ zi + lam * np.eye(z.shape[1]), zi.T @ yi)
    return uc[i] - y_mean - (z[i] - z_mean) @ w


def _brute_loo_sse(z, uc, lam):
    return sum(float(r @ r) for r in (_loo_refit(z, uc, lam, i) for i in range(len(z))))


def _loocv_case(n, d, noise, seed):
    """lambda picked by the closed form and by brute-force refits over its grid."""
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(n, d))
    u = f @ rng.normal(size=(d, 2)) + noise * rng.normal(size=(n, 2))
    z = (f - f.mean(axis=0)) / f.std(axis=0)
    uc = u - u.mean(axis=0)
    left, s, _ = np.linalg.svd(z, full_matrices=False)
    grid = np.geomspace(1e-6, 1e9, 31)
    sse = np.array([_brute_loo_sse(z, uc, g) for g in grid])
    lam = _loocv_ridge_lambda(left, s, uc)
    assert fit_factor_estimator(f, u, None).ridge_lambda == lam
    return lam, float(grid[int(np.argmin(sse))])


@pytest.mark.parametrize("n,d", [(14, 5), (6, 10)])
def test_loocv_lambda_matches_brute_force_refits(n, d):
    # covers both branches: tall design (n > d) and wide design (n <= d)
    lam, brute = _loocv_case(n, d, 0.1, n * 10 + d)
    assert lam == pytest.approx(brute)


def test_loocv_counts_the_intercept_leverage_on_a_noisy_wide_design():
    # without the intercept's 1/n in the hat diagonal, every held-out row of
    # an n <= d design fits as lambda -> 0 and the grid floor 1e-6 wins
    lam, brute = _loocv_case(20, 40, 1.0, 5)
    assert brute == pytest.approx(10.0)
    assert lam == pytest.approx(brute)


def test_loocv_identity_agrees_pointwise():
    # the closed-form LOO residual equals an actual refit without that row;
    # the hat matrix holds the intercept's 11^T / n
    rng = np.random.default_rng(12)
    z = rng.normal(size=(9, 4))
    z = (z - z.mean(axis=0)) / z.std(axis=0)
    uc = rng.normal(size=(9, 2))
    uc -= uc.mean(axis=0)
    lam = 0.5
    evals, q = np.linalg.eigh(z.T @ z)
    h = np.full((9, 9), 1.0 / 9) + z @ q @ np.diag(1.0 / (evals + lam)) @ q.T @ z.T
    resid = uc - h @ uc
    loo = resid / (1.0 - np.diag(h))[:, None]
    for i in range(9):
        assert np.allclose(loo[i], _loo_refit(z, uc, lam, i), atol=1e-9)


# --- corruption ----------------------------------------------------------------

def test_mask_random_hides_exact_count():
    rng = np.random.default_rng(14)
    p = make_matrix(rng, 10, 6, frac_observed=1.0)
    masked = mask_random(p, 0.3, seed=0)
    assert masked.observed.sum() == 60 - int(np.floor(0.3 * 60))
    assert np.array_equal(mask_random(p, 0.3, seed=0).observed, masked.observed)
    assert not np.array_equal(mask_random(p, 0.3, seed=1).observed, masked.observed)
    still = masked.observed
    assert np.array_equal(masked.values[still], p.values[still])
    assert np.array_equal(mask_random(p, 0.0, seed=0).observed, p.observed)
    with pytest.raises(ValueError):
        mask_random(p, 1.0, seed=0)
    with pytest.raises(ValueError):
        mask_random(p, -0.1, seed=0)


def test_perturb_zero_rate_is_bit_identical():
    rng = np.random.default_rng(15)
    p = make_matrix(rng, 8, 5)
    out = perturb(p, 0.0, seed=3)
    assert np.array_equal(out.values, p.values, equal_nan=True)
    assert np.array_equal(out.observed, p.observed)
    with pytest.raises(ValueError):
        perturb(p, -0.5, seed=0)


def test_perturb_refuses_a_rate_outside_0_to_2():
    p = make_matrix(np.random.default_rng(16), 6, 4, frac_observed=1.0)
    out = perturb(p, 2.0, seed=0)          # the widest band: [0, 2x], clipped
    assert ((out.values >= 0) & (out.values <= 1)).all()
    for rate in (2.5, np.inf, np.nan):
        with pytest.raises(ValueError, match=r"rate must lie in \[0, 2.0\]"):
            perturb(p, rate, seed=0)


def test_perturb_stays_in_relative_band_and_clips():
    values = np.full((4, 5), 0.5)
    p = PerformanceMatrix(values, np.ones_like(values, dtype=bool),
                          [f"g{i}" for i in range(4)], [f"m{j}" for j in range(5)])
    for seed in range(30):
        out = perturb(p, 0.2, seed=seed)
        assert out.values.min() >= 0.45 - 1e-12
        assert out.values.max() <= 0.55 + 1e-12

    high = PerformanceMatrix(np.full((3, 3), 1.0), np.ones((3, 3), dtype=bool),
                             list("abc"), list("xyz"))
    out = perturb(high, 0.4, seed=1)
    assert out.values.max() <= 1.0
    assert out.values.min() >= 0.8 - 1e-12
