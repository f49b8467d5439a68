from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import settings

from pvalent import ClassParams

EPS = 2.0**-52

# property tests draw the same examples on every run, so the suite's verdict is reproducible
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def canonical():
    # p=1, alpha=0, A=1, B=-1, mu=0, delta=1
    return ClassParams()


def mp_log_weight(k, p, mu, delta):
    """50-digit log of the smoothing multiplier (1-mu)^(k-p) Gamma(k+delta)/Gamma(p+delta)."""
    with mpmath.workdps(50):
        mu, delta = mpmath.mpf(mu), mpmath.mpf(delta)
        log_gamma_ratio = mpmath.loggamma(k + delta) - mpmath.loggamma(p + delta)
        return (k - p) * mpmath.log1p(-mu) + log_gamma_ratio


def mp_log_term(k, cp):
    """50-digit log of the normalized R criterion term at index k."""
    with mpmath.workdps(50):
        scale = (mpmath.mpf(cp.A) - cp.B) * (cp.p - mpmath.mpf(cp.alpha))
        bracket = (1 - mpmath.mpf(cp.B)) * (k - cp.p) + scale
        return mpmath.log(bracket / scale) + mp_log_weight(k, cp.p, cp.mu, cp.delta)


def log_tolerance(*log_sizes):
    """Absolute error allowed in a log formed from log-gammas: 8 ulp of their summed size."""
    return 8.0 * EPS * (1.0 + sum(abs(float(s)) for s in log_sizes))


@pytest.fixture(scope="session")
def mpref():
    """The 50-digit references above, for tests that compare against mpmath."""
    return SimpleNamespace(
        log_weight=mp_log_weight, log_term=mp_log_term, tolerance=log_tolerance
    )
