"""Accuracy checks for the internal tail-probability kernel.

Reference values were frozen from an independent arbitrary-precision
evaluation (40 significant digits, rounded to double) of the regularized
incomplete gamma function, the chi-square survival function, and the
normal survival function.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmtrees.special import chi2_sf, normal_sf, regularized_gamma_q

from helpers import normal_cdf, regularized_gamma_p

ABS_TOL = 1e-10

# (a, x, lower-tail value)
GAMMA_P_CASES = [
    (0.5, 0.25, 0.52049987781304654),
    (1.5, 2.0, 0.73853587005088938),
    (3.0, 3.0, 0.57680991887315648),
    (7.5, 40.0, 0.99999999993015345),
    (0.1, 0.01, 0.66262125995447979),
    (4.0, 0.5, 0.0017516225562908237),
]

# (x, df, upper-tail value)
CHI2_SF_CASES = [
    (1.0, 1, 0.3173105078629141),
    (6.666666666666667, 1, 0.0098232745075192464),
    (0.5, 2, 0.77880078307140487),
    (3.0, 2, 0.22313016014842983),
    (11.07049769351635, 5, 0.050000000000000086),
    (25.0, 8, 0.0015545578430110673),
    (0.001, 1, 0.97477287936996039),
    (80.0, 3, 3.0692774861724171e-17),
    (2.0, 6, 0.9196986029286058),
    (40.0, 1, 2.539628589470865e-10),
]

# (z, upper-tail value)
NORMAL_SF_CASES = [
    (0.0, 0.5),
    (0.5, 0.3085375387259869),
    (1.0, 0.15865525393145705),
    (1.959964, 0.024999999096442402),
    (2.5758293035489004, 0.0050000000000000054),
    (5.0, 2.8665157187919391e-07),
    (8.0, 6.2209605742717841e-16),
    (-1.5, 0.93319279873114193),
]


@pytest.mark.parametrize("a,x,expected", GAMMA_P_CASES)
def test_regularized_gamma_lower_tail_reference_values(a, x, expected):
    assert regularized_gamma_p(a, x) == pytest.approx(expected, abs=ABS_TOL, rel=1e-10)


@pytest.mark.parametrize("a,x,expected", GAMMA_P_CASES)
def test_regularized_gamma_tails_are_complementary(a, x, expected):
    assert regularized_gamma_p(a, x) + regularized_gamma_q(a, x) == pytest.approx(
        1.0, abs=1e-14
    )


@pytest.mark.parametrize("x,df,expected", CHI2_SF_CASES)
def test_chi2_survival_reference_values(x, df, expected):
    got = chi2_sf(x, df)
    assert got == pytest.approx(expected, abs=ABS_TOL)
    # tiny tail values must also be right in relative terms
    if expected < 1e-8:
        assert got == pytest.approx(expected, rel=1e-8)


def test_chi2_survival_closed_forms():
    # two degrees of freedom has the exponential closed form
    for x in (0.1, 1.0, 3.7, 12.0):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-13)
    # one degree of freedom is a folded normal tail
    for x in (0.25, 1.0, 4.0, 9.0):
        assert chi2_sf(x, 1) == pytest.approx(2.0 * normal_sf(math.sqrt(x)), abs=1e-12)


def test_chi2_survival_edge_arguments():
    assert chi2_sf(0.0, 3) == 1.0
    assert chi2_sf(-5.0, 3) == 1.0
    assert chi2_sf(1e6, 1) == 0.0 or chi2_sf(1e6, 1) < 1e-300


def test_chi2_survival_rejects_bad_df():
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_sf(1.0, -2)


def test_gamma_argument_validation():
    with pytest.raises(ValueError):
        regularized_gamma_p(0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_gamma_p(1.0, -0.5)
    with pytest.raises(ValueError):
        regularized_gamma_q(-1.0, 1.0)
    with pytest.raises(ValueError, match="argument must be nonnegative"):
        regularized_gamma_q(1.0, -1.0)


@pytest.mark.parametrize("z,expected", NORMAL_SF_CASES)
def test_normal_survival_reference_values(z, expected):
    assert normal_sf(z) == pytest.approx(expected, abs=ABS_TOL)
    if expected < 1e-8:
        assert normal_sf(z) == pytest.approx(expected, rel=1e-8)


def test_normal_tail_symmetry_and_cdf():
    for z in (0.0, 0.3, 1.7, 4.2):
        assert normal_sf(z) + normal_sf(-z) == pytest.approx(1.0, abs=1e-14)
        assert normal_cdf(z) == pytest.approx(1.0 - normal_sf(z), abs=1e-14)


@given(
    x=st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    df=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_chi2_survival_is_a_probability(x, df):
    p = chi2_sf(x, df)
    assert 0.0 <= p <= 1.0


@given(
    x=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    bump=st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
    df=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=200, deadline=None)
def test_chi2_survival_decreases_in_statistic(x, bump, df):
    assert chi2_sf(x + bump, df) <= chi2_sf(x, df) + 1e-14


@given(df=st.integers(min_value=1, max_value=30))
@settings(max_examples=50, deadline=None)
def test_chi2_median_is_near_df(df):
    # the chi-square median lies within the textbook band df*(1-2/(9df))^3 +/- wiggle
    approx_median = df * (1.0 - 2.0 / (9.0 * df)) ** 3
    assert chi2_sf(approx_median, df) == pytest.approx(0.5, abs=0.02)
