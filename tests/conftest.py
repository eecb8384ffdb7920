"""Shared generators for randomized instances, schemes, and bound parameters."""

import math

import numpy as np
import pytest

from vceo import BoundParams, DistortionTriple, SchemeParams, SourceModel
from vceo.bound import condition_holds, in_F
from vceo.gaussmodel import build_joint_cov, gaussian_mi
from vceo.scheme import full_mmse


# Schemes that `vceo sum-rate` reports at (sigma_s2, n1, n2) = (1, n1, 1/n1):
# description noise 1e3-1e4 times the noise variance next to absent
# descriptions at 1e8 * n2.
EXTREME_RATIO_SCHEMES = [
    (1e-3, SchemeParams(0.9990000000095711, 0.12400000000016036, 100000000000.00015,
                        100000000000.00015, 0.001, 0.0)),  # D = (0.5, 0.5, 0.1)
    (1e-3, SchemeParams(0.4275714285732638, 1.4989999976335877, 100000000000.00015,
                        100000000000.00015, 0.001, 0.0)),  # D = (0.3, 0.6, 0.25)
    (1e-4, SchemeParams(0.9998999999983905, 0.12490000000005375, 999999999999.999,
                        999999999999.999, 0.0001, 0.0)),  # D = (0.5, 0.5, 0.1)
    (1e-4, SchemeParams(0.4284714285710161, 1.4998999999878735, 999999999999.999,
                        999999999999.999, 0.0001, 0.0)),  # D = (0.3, 0.6, 0.25)
]


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_model(rng, lo=0.25, hi=4.0) -> SourceModel:
    return SourceModel(*rng.uniform(lo, hi, 3))


def random_params(rng, model, w_lo=0.05, w_hi=20.0, with_a=True) -> SchemeParams:
    """Log-uniform W variances on [w_lo, w_hi] times the noise scale."""
    scales = np.array([model.sigma_n1_2, model.sigma_n1_2, model.sigma_n2_2, model.sigma_n2_2])
    w = scales * np.exp(rng.uniform(math.log(w_lo), math.log(w_hi), 4))
    if with_a:
        rho = rng.uniform(0.0, 0.95, 2)
        a1 = rho[0] * min(math.sqrt(w[0] * w[1]), model.sigma_n1_2)
        a2 = rho[1] * min(math.sqrt(w[2] * w[3]), model.sigma_n2_2)
    else:
        a1 = a2 = 0.0
    return SchemeParams(w[0], w[1], w[2], w[3], a1, a2)


def log_det_sum_rate(model, params) -> float:
    """I(X1, X2; U) + I(U11, U21; U12, U22) by the general log-det algebra: the
    reference the closed-form ``vceo.sum_rate`` is checked against."""
    cov = build_joint_cov(model, params)
    return gaussian_mi(cov, ("X1", "X2"), ("U11", "U12", "U21", "U22")) + gaussian_mi(
        cov, ("U11", "U21"), ("U12", "U22")
    )


def random_condition_targets(rng, model, max_tries=1000) -> DistortionTriple:
    """Valid targets satisfying the distortion condition, with feasibility slack.

    The condition forces min(d1, d2) below 1 / (max(1/n1, 1/n2) + 1/sigma_s2),
    so at least one target is drawn from that narrow window directly.
    """
    floor = full_mmse(model)
    s2 = model.sigma_s2
    q = max(1.0 / model.sigma_n1_2, 1.0 / model.sigma_n2_2) + 1.0 / s2
    narrow_hi = min(0.98 / q, 0.95 * s2)
    if narrow_hi <= 1.02 * floor:
        raise RuntimeError("condition region is empty for this model within the margins")
    for _ in range(max_tries):
        d1 = rng.uniform(1.02 * floor, narrow_hi)
        if rng.uniform() < 0.5:
            d2 = rng.uniform(1.02 * floor, narrow_hi)
        else:
            d2 = rng.uniform(1.02 * floor, 0.95 * s2)
        lhs = 1.0 / d1 + 1.0 / d2 - q
        if lhs <= 0.0:
            continue
        lo = max(1.0 / lhs, 1.02 * floor)
        hi = 0.98 * min(d1, d2)
        if lo >= hi:
            continue
        targets = DistortionTriple(d1, d2, rng.uniform(lo, hi))
        assert condition_holds(model, targets)
        return targets
    raise RuntimeError("failed to sample condition-holding targets")


def random_feasible_targets(rng, model, max_tries=500) -> DistortionTriple:
    """Valid, feasible targets; the distortion condition may or may not hold."""
    floor = full_mmse(model)
    s2 = model.sigma_s2
    for _ in range(max_tries):
        d1 = rng.uniform(1.05 * floor, 0.95 * s2)
        d2 = rng.uniform(1.05 * floor, 0.95 * s2)
        hi = 0.98 * min(d1, d2)
        lo = 1.02 * floor
        if lo >= hi:
            continue
        return DistortionTriple(d1, d2, rng.uniform(lo, hi))
    raise RuntimeError("failed to sample feasible targets")


def sample_F_point(rng, model, targets, max_tries=1000) -> BoundParams:
    """Rejection-sample a point of the admissible set F for the given targets."""
    s2, n1, n2 = model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2
    c0 = 1.0 / targets.d0 - 1.0 / s2
    c1 = 1.0 / s2 + 1.0 / n1 + 1.0 / n2 - 1.0 / targets.d1
    c2 = 1.0 / s2 + 1.0 / n1 + 1.0 / n2 - 1.0 / targets.d2
    for _ in range(max_tries):
        u1 = rng.uniform(0.02, 1.0)
        u2_hi = 1.0 - n2 * (c0 - (1.0 - u1) / n1)
        if u2_hi <= 0.02:
            continue
        u2 = rng.uniform(0.02, min(1.0, u2_hi))
        d11_lo, d11_hi = n1 * u1, min(n1, n1 * n1 * (c1 - u2 / n2))
        d12_lo, d12_hi = n1 * u1, min(n1, n1 * n1 * (c2 - u2 / n2))
        if d11_hi < d11_lo or d12_hi < d12_lo:
            continue
        d11 = rng.uniform(d11_lo, d11_hi)
        d12 = rng.uniform(d12_lo, d12_hi)
        d21_lo, d21_hi = n2 * u2, min(n2, n2 * n2 * (c1 - d11 / n1**2))
        d22_lo, d22_hi = n2 * u2, min(n2, n2 * n2 * (c2 - d12 / n1**2))
        if d21_hi < d21_lo or d22_hi < d22_lo:
            continue
        p = BoundParams(
            d11,
            d12,
            rng.uniform(d21_lo, d21_hi),
            rng.uniform(d22_lo, d22_hi),
            -0.5 * math.log(u1),
            -0.5 * math.log(u2),
        )
        if in_F(model, targets, p):
            return p
    raise RuntimeError("failed to sample an admissible point")
