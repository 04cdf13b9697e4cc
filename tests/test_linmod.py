"""Closed-form node model: fits, residuals, per-row scores, predictions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmtrees.linmod import (
    DegenerateRegressorError,
    InsufficientDataError,
    LinearFit,
    fit_ols,
    predict,
)


def test_hand_worked_fit():
    fit = fit_ols(np.array([0.0, 1.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0, 1.0]))
    assert fit.beta0 == pytest.approx(0.5, abs=1e-12)
    assert fit.beta1 == pytest.approx(1.0, abs=1e-12)
    assert fit.residuals == pytest.approx([-0.5, 0.5, -0.5, 0.5], abs=1e-12)
    assert fit.rss == pytest.approx(1.0, abs=1e-12)
    assert fit.n == 4


def test_exact_line_has_zero_rss():
    fit = fit_ols(np.array([1.0, 3.0, 5.0]), np.array([0.0, 1.0, 2.0]))
    assert fit.beta0 == pytest.approx(1.0, abs=1e-12)
    assert fit.beta1 == pytest.approx(2.0, abs=1e-12)
    assert fit.rss == pytest.approx(0.0, abs=1e-20)


def test_constant_response_gives_flat_line():
    fit = fit_ols(np.full(5, 3.25), np.arange(5.0))
    assert fit.beta0 == pytest.approx(3.25, abs=1e-12)
    assert fit.beta1 == pytest.approx(0.0, abs=1e-12)


def test_scores_are_minus_two_residual_times_design():
    rng = np.random.default_rng(2)
    y = rng.normal(size=30)
    x = rng.uniform(-1, 1, 30)
    fit = fit_ols(y, x)
    expected = np.column_stack((-2.0 * fit.residuals, -2.0 * fit.residuals * x))
    assert np.allclose(fit.scores, expected, atol=1e-12)
    assert np.allclose(fit.scores[3], expected[3], atol=1e-12)


def test_score_columns_sum_to_zero_at_the_fit():
    rng = np.random.default_rng(3)
    y = rng.normal(size=50)
    x = rng.normal(size=50)
    fit = fit_ols(y, x)
    sums = fit.scores.sum(axis=0)
    scale = np.abs(fit.scores).sum()
    assert abs(sums[0]) <= 1e-10 * max(scale, 1.0)
    assert abs(sums[1]) <= 1e-10 * max(scale, 1.0)


def test_score_formula_matches_loss_gradient():
    # the per-row score is the gradient of the squared-error loss, so at an
    # arbitrary coefficient pair the finite difference of the total loss must
    # match the summed score column
    rng = np.random.default_rng(4)
    y = rng.normal(size=40)
    x = rng.uniform(-2, 2, 40)

    def rss_at(b0, b1):
        r = y - b0 - b1 * x
        return float(r @ r)

    for b0, b1 in [(0.3, -1.1), (2.0, 0.0), (-0.7, 0.4)]:
        r = y - b0 - b1 * x
        scores = np.column_stack((-2.0 * r, -2.0 * r * x))
        eps = 1e-6
        fd0 = (rss_at(b0 + eps, b1) - rss_at(b0 - eps, b1)) / (2 * eps)
        fd1 = (rss_at(b0, b1 + eps) - rss_at(b0, b1 - eps)) / (2 * eps)
        assert fd0 == pytest.approx(scores[:, 0].sum(), rel=1e-5)
        assert fd1 == pytest.approx(scores[:, 1].sum(), rel=1e-5)


def test_affine_equivariance():
    rng = np.random.default_rng(5)
    y = rng.normal(size=25)
    x = rng.normal(size=25)
    base = fit_ols(y, x)
    a, b = 3.5, -2.0
    moved = fit_ols(a * y + b, x)
    assert moved.beta0 == pytest.approx(a * base.beta0 + b, rel=1e-10, abs=1e-10)
    assert moved.beta1 == pytest.approx(a * base.beta1, rel=1e-10, abs=1e-10)
    assert moved.rss == pytest.approx(a * a * base.rss, rel=1e-10)


def test_insufficient_and_degenerate_inputs():
    with pytest.raises(InsufficientDataError):
        fit_ols(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
    with pytest.raises(DegenerateRegressorError):
        fit_ols(np.array([1.0, 2.0, 3.0]), np.array([4.0, 4.0, 4.0]))


def test_predict_examples():
    fit = LinearFit(beta0=0.5, beta1=1.0, n=4, rss=1.0)
    assert predict(fit, np.array([1.0, -1.0])) == pytest.approx([1.5, -0.5])
    flat = LinearFit(beta0=1.0, beta1=2.0, n=3, rss=0.0)
    assert predict(flat, np.array([0.0])) == pytest.approx([1.0])


def test_residuals_match_definition():
    rng = np.random.default_rng(6)
    y = rng.normal(size=12)
    x = rng.normal(size=12)
    fit = fit_ols(y, x)
    assert np.allclose(fit.residuals, y - fit.beta0 - fit.beta1 * x, atol=1e-12)
    assert fit.rss == pytest.approx(float(fit.residuals @ fit.residuals), rel=1e-12)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=3, max_value=80),
)
@settings(max_examples=100, deadline=None)
def test_fit_minimizes_rss(seed, n):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    x = rng.normal(size=n)
    if np.ptp(x) == 0.0:
        return
    fit = fit_ols(y, x)
    base = fit.rss
    for db0, db1 in [(1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3)]:
        r = y - (fit.beta0 + db0) - (fit.beta1 + db1) * x
        assert float(r @ r) >= base - 1e-9
