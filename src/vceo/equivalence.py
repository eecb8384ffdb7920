"""Constructive matching of the converse bound by an explicit Gaussian scheme.

Given a converse parameter point on the critical manifold (individual
distortion equalities), each encoder's triple (d_1, d_2, t) is reparametrised
through

    alpha_0 = n e^{-2t} / (1 - e^{-2t})        alpha_l = n d_l / (n - d_l)

and the rational function

    g(beta) = 1/(alpha_0 + beta) - 1/(alpha_1 + beta) - 1/(alpha_2 + beta).

Two constructions cover the critical region:

* g(0) > 0 and g(n) <= 0: set a = a* (a root of g in (0, n]), W variances
  alpha_1, alpha_2, and the auxiliary channel variance sigma_z2 =
  a n / (n - a), which zeroes the conditional correlation of the two
  descriptions given (S, Y).  Then t' = t exactly.
* g(0) <= 0: set a = 0, W variances alpha_1, alpha_2, sigma_z2 = 0.  Then
  t' >= t and the central constraint is preserved.

Either way the per-encoder converse term r(d_1, d_2, t, sigma_z2) is met with
equality, so the achievable decomposition reproduces the bound expression
term by term.  Boundary inputs (d = n or t = 0) carry alpha = inf, which the
closed forms treat as the exact absent-description limit; the stored
SchemeParams cap such variances at the documented numerical infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .bound import _require_in_box, condition_holds, in_F_k, in_P, r_fn
from .errors import DomainError, InternalContradictionError
from .gaussmodel import SourceModel
from .scheme import (
    BoundParams,
    DistortionTriple,
    SchemeParams,
    W_CAP_FACTOR,
    _distortions,
    _marginal_d,
    _marginal_t,
    receiver_precision,
)

__all__ = [
    "AlphaTriple",
    "EquivalenceReport",
    "FRegion",
    "alphas",
    "classify_F_k",
    "g_fn",
    "solve_a_star",
    "construct_matching_scheme",
]


class FRegion(Enum):
    """Sign-classification of an encoder triple by g at 0 and at the noise variance."""

    F1 = "F_k1"
    F2 = "F_k2"
    F3 = "F_k3"
    OUTSIDE = "not_in_F_k"


class AlphaTriple(NamedTuple):
    """Reparametrised variances (alpha_0, alpha_1, alpha_2); inf flags a boundary."""

    a0: float
    a1: float
    a2: float


def alphas(sigma_n2: float, d1: float, d2: float, t: float) -> AlphaTriple:
    """Map an encoder triple (d1, d2, t) in its admissible box to alpha coordinates.

    Boundary inputs d = sigma_n2 or t = 0 yield flagged infinite entries.
    The map inverts exactly: d = sigma_n2 * alpha / (sigma_n2 + alpha).
    """
    _require_in_box(sigma_n2, d1, d2, t)
    u = math.exp(-2.0 * t)
    a0 = sigma_n2 * u / (1.0 - u) if u < 1.0 else math.inf
    a1 = sigma_n2 * d1 / (sigma_n2 - d1) if d1 < sigma_n2 else math.inf
    a2 = sigma_n2 * d2 / (sigma_n2 - d2) if d2 < sigma_n2 else math.inf
    return AlphaTriple(a0, a1, a2)


def g_fn(alpha: AlphaTriple, beta: float) -> float:
    """g(beta) = 1/(alpha_0 + beta) - 1/(alpha_1 + beta) - 1/(alpha_2 + beta), beta >= 0."""
    if not (beta >= 0.0):
        raise DomainError(f"beta must be >= 0, got {beta!r}")

    def term(a: float) -> float:
        if math.isinf(a):
            return 0.0
        if a + beta == 0.0:
            return math.inf
        return 1.0 / (a + beta)

    return term(alpha.a0) - term(alpha.a1) - term(alpha.a2)


def classify_F_k(sigma_n2: float, d1: float, d2: float, t: float) -> FRegion:
    """Sign-classify an encoder triple: F2 if g(0) <= 0, else F1 if g(n) <= 0, else F3.

    An endpoint root g(n) = 0 counts as F1 (the closed inequality of the set
    definition); the sign of g(n) equals the sign of d1 + d2 - n e^{-2t} - n.
    """
    if not in_F_k(sigma_n2, d1, d2, t):
        return FRegion.OUTSIDE
    alpha = alphas(sigma_n2, d1, d2, t)
    if g_fn(alpha, 0.0) <= 0.0:
        return FRegion.F2
    if g_fn(alpha, sigma_n2) <= 0.0:
        return FRegion.F1
    return FRegion.F3


def solve_a_star(sigma_n2: float, alpha: AlphaTriple) -> float:
    """Root of g in (0, sigma_n2], in closed form.

    Requires g(0) > 0 and g(sigma_n2) <= 0.  The root is the positive one of
    g's numerator, beta^2 + 2 alpha_0 beta - (alpha_1 alpha_2 - alpha_0
    (alpha_1 + alpha_2)) = 0, written as c / (alpha_0 + sqrt((alpha_1 -
    alpha_0)(alpha_2 - alpha_0))) with c = alpha_1 alpha_2 - alpha_0
    (alpha_1 + alpha_2): g(0) > 0 makes c positive, so no digits cancel.
    The returned root keeps the implied W covariance PSD: alpha_1 * alpha_2
    >= a*^2.
    """
    g0 = g_fn(alpha, 0.0)
    g_hi = g_fn(alpha, sigma_n2)
    if not (g0 > 0.0 and g_hi <= 0.0):
        raise DomainError(
            f"root bracket requires g(0) > 0 >= g(sigma_n2); got g(0) = {g0:.3e}, "
            f"g(sigma_n2) = {g_hi:.3e}"
        )
    a0, a1, a2 = alpha
    c = a1 * a2 - a0 * (a1 + a2)
    root = min(c / (a0 + math.sqrt((a1 - a0) * (a2 - a0))), float(sigma_n2))
    psd_margin = math.inf if math.isinf(a1) or math.isinf(a2) else a1 * a2 - root * root
    if psd_margin < -1e-12:
        raise InternalContradictionError(
            f"solved root a* = {root} violates the PSD guarantee: "
            f"alpha_1 * alpha_2 - a*^2 = {psd_margin:.3e}"
        )
    return root


@dataclass(frozen=True)
class EquivalenceReport:
    """Two evaluations of one quantity: the bound expression and the achievable one.

    ``lhs`` is the converse expression r_1 + r_2 + (1/2) log(sigma_s4 / (D1 D2))
    at the constructed auxiliary-channel variances; ``rhs`` is the achievable
    decomposition of the constructed scheme (same r terms at the marginal
    parameters, plus the conditional-information residuals and the achieved
    individual distortions).  ``diff`` is derived from the stored operands.
    """

    lhs: float
    rhs: float
    cases: tuple[str, str]
    params: SchemeParams
    sigma_z: tuple[float, float]
    cond_mi: tuple[float, float]
    distortions: tuple[float, float, float]

    @property
    def diff(self) -> float:
        return abs(self.lhs - self.rhs)


class _EncoderMatch(NamedTuple):
    """One encoder of the construction: its case, a_k, sigma_z, marginals
    (d'_k1, d'_k2), W variances as stored (capped at W_CAP_FACTOR * n_k), its
    two terms r of the identity (bound and achievable), and I(U_k1; U_k2 | S, Y_k)."""

    case: str
    a: float
    sigma_z: float
    dp: tuple[float, float]
    w: tuple[float, float]
    bound_term: float
    achievable_term: float
    cond_mi: float


def _construct_encoder(n: float, d1: float, d2: float, t: float) -> _EncoderMatch:
    """Match one encoder triple (d1, d2, t) of the critical point."""
    region = classify_F_k(n, d1, d2, t)
    alpha = alphas(n, d1, d2, t)  # DomainError outside the admissible box
    if region is FRegion.F3:
        raise InternalContradictionError(
            "encoder triple classifies into the excluded region although the "
            "distortion condition holds"
        )
    a = solve_a_star(n, alpha) if region is FRegion.F1 else 0.0
    # sigma_z = 0 on F_k2; a* = n maps to the infinite-variance channel limit.
    sz = math.inf if a >= n * (1.0 - 1e-15) else a * n / (n - a)
    # The achievable side in exact limit arithmetic (inf-variance aware).
    dp = (_marginal_d(n, alpha.a1), _marginal_d(n, alpha.a2))
    t_p = _marginal_t(n, alpha.a1, alpha.a2, a)
    if region is FRegion.F2 and t_p < t - 1e-12:
        raise InternalContradictionError(
            f"zero-correlation construction lost conditional information: t' = {t_p} < t = {t}"
        )
    w = (min(alpha.a1, W_CAP_FACTOR * n), min(alpha.a2, W_CAP_FACTOR * n))
    bound_term, achievable_term = r_fn(n, d1, d2, t, sz), r_fn(n, *dp, t_p, sz)
    cond_mi = _channel_residual_mi(n, *w, a, sz)
    return _EncoderMatch(region.value, a, sz, dp, w, bound_term, achievable_term, cond_mi)


def _channel_residual_mi(n: float, w1: float, w2: float, a: float, sigma_z2: float) -> float:
    """I(U_k1; U_k2 | S, Y_k) in closed form.  Given S and Y_k, N_k keeps the
    variance v = Var(X_k | Y_k, S) of a description with noise sigma_z2; the
    value is 0 at v = a."""
    v = _marginal_d(n, sigma_z2)
    if v == a:
        return 0.0
    return -0.5 * math.log1p(-((v - a) ** 2) / ((v + w1) * (v + w2)))


def construct_matching_scheme(
    model: SourceModel, targets: DistortionTriple, p: BoundParams
) -> EquivalenceReport:
    """Build the scheme matching the bound at a critical point p, and compare sides.

    Requires the distortion condition to hold and p to lie on the critical
    manifold.  The report's two sides agree to numerical precision and the
    conditional informations I(U_k1; U_k2 | S, Y_k) vanish by construction.
    """
    if not condition_holds(model, targets):
        raise DomainError("distortion condition fails; no matching construction is attempted")
    if in_P(model, targets, p) is None:
        raise DomainError("parameter point is not on the critical manifold")

    e1, e2 = (_construct_encoder(model.noise_var(k), *p.encoder(k)) for k in (1, 2))
    s2, n1, n2 = model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2
    lhs = 0.5 * math.log(s2**2 / (targets.d1 * targets.d2)) + e1.bound_term + e2.bound_term
    inv_delta1 = receiver_precision(s2, n1, n2, e1.dp[0], e2.dp[0])
    inv_delta2 = receiver_precision(s2, n1, n2, e1.dp[1], e2.dp[1])
    rhs = e1.achievable_term + e2.achievable_term
    rhs += 0.5 * math.log(s2**2 * inv_delta1 * inv_delta2)
    rhs += e1.cond_mi + e2.cond_mi
    params = SchemeParams(*e1.w, *e2.w, a1=e1.a, a2=e2.a)
    return EquivalenceReport(
        lhs=lhs,
        rhs=rhs,
        cases=(e1.case, e2.case),
        params=params,
        sigma_z=(e1.sigma_z, e2.sigma_z),
        cond_mi=(e1.cond_mi, e2.cond_mi),
        distortions=_distortions(model, params),
    )
