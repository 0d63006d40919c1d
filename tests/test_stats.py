"""Statistics kernel tests.

Expected values are either hand-derived closed forms (n=3 Shapiro-Wilk,
four-point paired t) or checked against independent numerical oracles:
scipy.integrate quadrature of the explicit t density for p-values.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from airshield import stats


# --- oracles ---------------------------------------------------------------

def sw3_oracle(x):
    """Closed-form n=3 Shapiro-Wilk: W = 0.5 * (x(3) - x(1))^2 / SS."""
    xs = sorted(x)
    mean = sum(xs) / 3.0
    ss = sum((v - mean) ** 2 for v in xs)
    return 0.5 * (xs[2] - xs[0]) ** 2 / ss


def t_density(t, df):
    return math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) \
        / math.sqrt(df * math.pi) * (1.0 + t * t / df) ** (-(df + 1) / 2.0)


def t_two_sided_quadrature(t, df):
    tail, _ = quad(t_density, abs(t), np.inf, args=(df,), epsabs=1e-12, epsrel=1e-12)
    return 2.0 * tail


# --- summarize -------------------------------------------------------------

def test_summarize_two_points():
    mean, sd = stats.summarize([0.30, 0.32])
    assert mean == pytest.approx(0.31, abs=1e-12)
    assert sd == pytest.approx(math.sqrt(((0.01) ** 2 + (0.01) ** 2) / 1), abs=1e-9)


def test_summarize_constant():
    mean, sd = stats.summarize([4.2, 4.2, 4.2])
    assert mean == 4.2
    assert sd == 0.0


def test_summarize_empty_raises():
    with pytest.raises(stats.EmptySample):
        stats.summarize([])


def test_summarize_single_has_no_sd():
    mean, sd = stats.summarize([1.5])
    assert mean == 1.5
    assert sd is None


# --- Shapiro-Wilk ----------------------------------------------------------

def test_shapiro_perfectly_linear_n3():
    r = stats.shapiro_wilk([1.0, 2.0, 3.0])
    assert r.statistic == pytest.approx(1.0, abs=1e-6)
    assert r.statistic == pytest.approx(sw3_oracle([1, 2, 3]), abs=1e-12)


def test_shapiro_skewed_n3():
    r = stats.shapiro_wilk([1.0, 2.0, 10.0])
    assert r.statistic == pytest.approx(sw3_oracle([1, 2, 10]), abs=1e-12)
    assert r.statistic == pytest.approx(40.5 / (438.0 / 9.0), abs=1e-3)


def test_shapiro_constant_raises():
    with pytest.raises(stats.ConstantSample):
        stats.shapiro_wilk([5.0, 5.0, 5.0])


def test_shapiro_sample_size_limits():
    with pytest.raises(stats.SampleTooSmall):
        stats.shapiro_wilk([1.0, 2.0])
    with pytest.raises(stats.SampleTooLarge):
        stats.shapiro_wilk(list(range(5001)))


def test_shapiro_affine_invariance():
    rng = np.random.default_rng(7)
    for n in (5, 10, 30):
        x = rng.standard_normal(n)
        w0 = stats.shapiro_wilk(x).statistic
        for alpha, beta in ((2.5, -3.0), (1e-3, 40.0), (17.0, 0.0)):
            w1 = stats.shapiro_wilk(alpha * x + beta).statistic
            assert w1 == pytest.approx(w0, abs=1e-10)


def test_shapiro_detects_gross_nonnormality():
    rng = np.random.default_rng(3)
    heavy = np.exp(rng.standard_normal(200) * 2.0)
    assert stats.shapiro_wilk(heavy).p_value < 1e-6
    normal = rng.standard_normal(200)
    assert stats.shapiro_wilk(normal).p_value > 0.01


def test_shapiro_matches_reference_implementation():
    # Same Royston approximation as scipy; differences reduce to quantile
    # precision. Catches coefficient transcription errors across branches
    # (n <= 5, 6..11, >= 12).
    import scipy.stats as ss
    rng = np.random.default_rng(0)
    for n in (4, 5, 6, 8, 11, 12, 20, 50, 200, 5000):
        for trial in range(4):
            x = rng.standard_normal(n) * rng.uniform(0.5, 3) + rng.uniform(-5, 5)
            if trial % 2:
                x = np.exp(x / 2)
            mine = stats.shapiro_wilk(x.tolist())
            ref = ss.shapiro(x)
            assert mine.statistic == pytest.approx(ref.statistic, abs=1e-7)
            assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-5)


def test_shapiro_false_rejection_rate_near_nominal():
    rejections = 0
    n_runs = 1000
    for s in range(n_runs):
        x = np.random.default_rng(s).standard_normal(10)
        if stats.shapiro_wilk(x).p_value < 0.05:
            rejections += 1
    rate = rejections / n_runs
    assert 0.03 <= rate <= 0.07


# --- paired t --------------------------------------------------------------

def test_paired_t_hand_example():
    # diffs (-1, 0, -2, 1): mean -0.5, s_d = sqrt(5/3) -> T = -0.774597
    r = stats.paired_t([1, 2, 3, 4], [2, 2, 5, 3])
    assert r.statistic == pytest.approx(-0.774597, abs=1e-6)
    assert r.df == 3
    assert r.p_value == pytest.approx(t_two_sided_quadrature(r.statistic, 3), abs=1e-9)


def test_paired_t_identical_samples_raise():
    with pytest.raises(stats.ZeroVarianceDifferences):
        stats.paired_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_paired_t_constant_shift_raises():
    with pytest.raises(stats.ZeroVarianceDifferences):
        stats.paired_t([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])


def test_paired_t_length_mismatch():
    with pytest.raises(stats.LengthMismatch):
        stats.paired_t([1.0, 2.0], [1.0, 2.0, 3.0])


def test_paired_t_antisymmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal(8).tolist()
        b = rng.standard_normal(8).tolist()
        r_ab = stats.paired_t(a, b)
        r_ba = stats.paired_t(b, a)
        assert r_ab.statistic == pytest.approx(-r_ba.statistic, abs=1e-12)
        assert r_ab.p_value == pytest.approx(r_ba.p_value, abs=1e-12)


def test_paired_t_location_invariance():
    rng = np.random.default_rng(13)
    a = rng.standard_normal(10)
    b = rng.standard_normal(10)
    base = stats.paired_t(a.tolist(), b.tolist())
    shifted = stats.paired_t((a + 123.4).tolist(), (b + 123.4).tolist())
    assert shifted.statistic == pytest.approx(base.statistic, abs=1e-10)
    assert shifted.p_value == pytest.approx(base.p_value, abs=1e-10)


# --- t tail machinery ------------------------------------------------------

def test_t_p_values_match_quadrature_oracle():
    for df in (3, 9, 30):
        for t in np.linspace(0.05, 10.0, 25):
            mine = stats.t_two_sided_p(float(t), df)
            oracle = t_two_sided_quadrature(float(t), df)
            assert mine == pytest.approx(oracle, abs=1e-6)


def test_t_p_value_degenerate():
    assert stats.t_two_sided_p(0.0, 5) == 1.0


def test_reg_inc_beta_endpoints_and_symmetry():
    assert stats.reg_inc_beta(2.0, 3.0, 0.0) == 0.0
    assert stats.reg_inc_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(a,b) = 1 - I_{1-x}(b,a)
    for x in (0.1, 0.5, 0.9):
        assert stats.reg_inc_beta(2.5, 1.5, x) == pytest.approx(
            1.0 - stats.reg_inc_beta(1.5, 2.5, 1.0 - x), abs=1e-12)
