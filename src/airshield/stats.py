"""Hypothesis-testing kernel: Shapiro-Wilk, paired t-test, descriptive stats.

Deliberately self-contained, with no third-party statistics stack: the
p-value machinery (regularized incomplete beta, normal CDF) lives here, and
the normal quantile comes from the standard library's ``statistics``.

References:
    Royston (1995), Remark AS R94, Applied Statistics 44(4): Shapiro-Wilk
    coefficient and p-value approximations, valid for 3 <= n <= 5000.
    Press et al., Numerical Recipes 3rd ed., 6.4: continued fraction for
    the incomplete beta function (Lentz's method).
    Wichura (1988), Algorithm AS 241, Applied Statistics 37(3): the normal
    quantile, as ``statistics.NormalDist.inv_cdf`` computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence

__all__ = [
    "TestResult",
    "EmptySample",
    "SampleTooSmall",
    "SampleTooLarge",
    "ConstantSample",
    "LengthMismatch",
    "ZeroVarianceDifferences",
    "summarize",
    "shapiro_wilk",
    "paired_t",
    "normal_cdf",
    "reg_inc_beta",
    "t_two_sided_p",
]


class EmptySample(ValueError):
    pass


class SampleTooSmall(ValueError):
    pass


class SampleTooLarge(ValueError):
    pass


class ConstantSample(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


class ZeroVarianceDifferences(ValueError):
    pass


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    df: Optional[int] = None


def summarize(x: Sequence[float]) -> tuple[float, Optional[float]]:
    """Sample mean and sample standard deviation (n-1 denominator).

    The standard deviation is None for a single observation.
    """
    n = len(x)
    if n == 0:
        raise EmptySample("cannot summarize an empty sample")
    mean = math.fsum(x) / n
    if n == 1:
        return mean, None
    ss = math.fsum((xi - mean) ** 2 for xi in x)
    return mean, math.sqrt(ss / (n - 1))


# ---------------------------------------------------------------------------
# Normal distribution helpers
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / _SQRT2)


# ---------------------------------------------------------------------------
# Incomplete beta and Student-t tail
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz."""
    max_iter = 400
    eps = 1e-14
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # The even then the odd coefficient of step m, one Lentz update each.
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < fpmin:
                d = fpmin
            c = 1.0 + aa / c
            if abs(c) < fpmin:
                c = fpmin
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided Student-t p-value, P(|T| >= |t|) with df degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return reg_inc_beta(0.5 * df, 0.5, x)


# ---------------------------------------------------------------------------
# Shapiro-Wilk (Royston 1995)
# ---------------------------------------------------------------------------

_SW_C1 = (0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_SW_C2 = (0.042981, -0.293762, -1.752461, 5.682633, -3.582633)


def _sw_coefficients(n: int) -> list[float]:
    """Weight vector a for the W statistic (antisymmetric, unit norm)."""
    if n == 3:
        r = math.sqrt(0.5)
        return [-r, 0.0, r]
    m = [_STD_NORMAL.inv_cdf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)]
    ss = math.fsum(mi * mi for mi in m)
    rsn = 1.0 / math.sqrt(n)

    def poly(c: tuple[float, ...], u: float) -> float:
        acc = 0.0
        for k, ck in enumerate(c, start=1):
            acc += ck * u ** k
        return acc

    a_n = m[-1] / math.sqrt(ss) + poly(_SW_C1, rsn)
    if n > 5:
        a_nm1 = m[-2] / math.sqrt(ss) + poly(_SW_C2, rsn)
        phi = (ss - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (1.0 - 2.0 * a_n ** 2 - 2.0 * a_nm1 ** 2)
        a = [mi / math.sqrt(phi) for mi in m]
        a[-1], a[0] = a_n, -a_n
        a[-2], a[1] = a_nm1, -a_nm1
    else:
        phi = (ss - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n ** 2)
        a = [mi / math.sqrt(phi) for mi in m]
        a[-1], a[0] = a_n, -a_n
    return a


def _sw_p_value(w: float, n: int) -> float:
    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(min(w, 1.0))) - math.asin(math.sqrt(0.75)))
        return min(max(p, 0.0), 1.0)
    one_minus_w = max(1.0 - w, 1e-300)
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        arg = gamma - math.log(one_minus_w)
        if arg <= 0.0:
            return 0.0
        w_t = -math.log(arg)
        mu = 0.5440 - 0.39978 * n + 0.025054 * n * n - 0.0006714 * n ** 3
        sigma = math.exp(1.3822 - 0.77857 * n + 0.062767 * n * n - 0.0020322 * n ** 3)
    else:
        w_t = math.log(one_minus_w)
        y = math.log(n)
        mu = -1.5861 - 0.31082 * y - 0.083751 * y * y + 0.0038915 * y ** 3
        sigma = math.exp(-0.4803 - 0.082676 * y + 0.0030302 * y * y)
    z = (w_t - mu) / sigma
    return min(max(1.0 - normal_cdf(z), 0.0), 1.0)


def shapiro_wilk(x: Sequence[float]) -> TestResult:
    """Shapiro-Wilk normality test, Royston-approximated (3 <= n <= 5000).

    W is invariant under positive affine transforms of the data; the
    two-sided p-value comes from Royston's normalizing transform.
    """
    n = len(x)
    if n < 3:
        raise SampleTooSmall(f"Shapiro-Wilk requires n >= 3, got {n}")
    if n > 5000:
        raise SampleTooLarge(f"Shapiro-Wilk approximation is valid up to n = 5000, got {n}")
    xs = sorted(float(v) for v in x)
    mean = math.fsum(xs) / n
    ss = math.fsum((v - mean) ** 2 for v in xs)
    if ss <= 0.0:
        raise ConstantSample("sample variance is zero")
    a = _sw_coefficients(n)
    num = math.fsum(ai * vi for ai, vi in zip(a, xs)) ** 2
    w = min(num / ss, 1.0)
    return TestResult(statistic=w, p_value=_sw_p_value(w, n), df=None)


def paired_t(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-sided paired-samples t-test on differences a - b."""
    if len(a) != len(b):
        raise LengthMismatch(f"paired samples differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise SampleTooSmall(f"paired t-test requires n >= 2, got {n}")
    d_mean, s_d = summarize([float(ai) - float(bi) for ai, bi in zip(a, b)])
    if not s_d > 0.0:
        raise ZeroVarianceDifferences("all paired differences are identical")
    t = d_mean / (s_d / math.sqrt(n))
    return TestResult(statistic=t, p_value=t_two_sided_p(t, n - 1), df=n - 1)
