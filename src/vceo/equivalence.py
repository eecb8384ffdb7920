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


def _construct_encoder(
    sigma_n2: float, d1: float, d2: float, t: float
) -> tuple[str, float, AlphaTriple, float]:
    """Dispatch one encoder: (case label, a_k, alphas, sigma_z2)."""
    region = classify_F_k(sigma_n2, d1, d2, t)
    alpha = alphas(sigma_n2, d1, d2, t)
    if region is FRegion.F2:
        return "F_k2", 0.0, alpha, 0.0
    if region is FRegion.F1:
        a_star = solve_a_star(sigma_n2, alpha)
        if a_star >= sigma_n2 * (1.0 - 1e-15):
            sz = math.inf  # a* = sigma_n2 maps to the infinite-variance channel limit
        else:
            sz = a_star * sigma_n2 / (sigma_n2 - a_star)
        return "F_k1", a_star, alpha, sz
    if region is FRegion.F3:
        raise InternalContradictionError(
            "encoder triple classifies into the excluded region although the "
            "distortion condition holds"
        )
    raise DomainError(f"(d1, d2, t) = ({d1}, {d2}, {t}) is not in the admissible box")


def _channel_residual_mi(n: float, w1: float, w2: float, a: float, sigma_z2: float) -> float:
    """I(U_k1; U_k2 | S, Y_k) in closed form.  Given S and Y_k, N_k keeps variance
    v = n sigma_z2 / (n + sigma_z2) (v = n at sigma_z2 = inf); the value is 0 at v = a."""
    v = n if math.isinf(sigma_z2) else n * sigma_z2 / (n + sigma_z2)
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

    cases: list[str] = []
    sigma_z: list[float] = []
    w_exact: list[float] = []
    a_vals: list[float] = []
    dp_exact: list[float] = []
    lhs = 0.5 * math.log(model.sigma_s2**2 / (targets.d1 * targets.d2))
    rhs = 0.0
    for k in (1, 2):
        n = model.noise_var(k)
        d1, d2, t = p.encoder(k)
        case, a_k, alpha, sz = _construct_encoder(n, d1, d2, t)
        cases.append(case)
        a_vals.append(a_k)
        sigma_z.append(sz)
        w_exact.extend([alpha.a1, alpha.a2])
        lhs += r_fn(n, d1, d2, t, sz)
        # Achievable side in exact limit arithmetic (inf-variance aware).
        d1p = _marginal_d(n, alpha.a1)
        d2p = _marginal_d(n, alpha.a2)
        dp_exact.extend([d1p, d2p])
        t_p = _marginal_t(n, alpha.a1, alpha.a2, a_k)
        if case == "F_k2" and t_p < t - 1e-12:
            raise InternalContradictionError(
                f"zero-correlation construction lost conditional information: "
                f"t' = {t_p} < t = {t}"
            )
        rhs += r_fn(n, d1p, d2p, t_p, sz)

    n1, n2 = model.sigma_n1_2, model.sigma_n2_2
    inv_delta1 = receiver_precision(model.sigma_s2, n1, n2, dp_exact[0], dp_exact[2])
    inv_delta2 = receiver_precision(model.sigma_s2, n1, n2, dp_exact[1], dp_exact[3])
    rhs += 0.5 * math.log(model.sigma_s2**2 * inv_delta1 * inv_delta2)

    # Stored params cap absent descriptions at the documented numerical infinity.
    caps = [
        W_CAP_FACTOR * n1,
        W_CAP_FACTOR * n1,
        W_CAP_FACTOR * n2,
        W_CAP_FACTOR * n2,
    ]
    w_stored = [min(w, cap) for w, cap in zip(w_exact, caps)]
    params = SchemeParams(*w_stored, a1=a_vals[0], a2=a_vals[1])

    cond_mi_vals = [
        _channel_residual_mi(model.noise_var(k), *params.encoder(k), sigma_z[k - 1]) for k in (1, 2)
    ]
    rhs += sum(cond_mi_vals)

    return EquivalenceReport(
        lhs=lhs,
        rhs=rhs,
        cases=(cases[0], cases[1]),
        params=params,
        sigma_z=(sigma_z[0], sigma_z[1]),
        cond_mi=(cond_mi_vals[0], cond_mi_vals[1]),
        distortions=_distortions(model, params),
    )

