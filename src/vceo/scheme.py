"""The Gaussian achievable scheme: distortions, marginal parameters, rates.

A scheme is a choice of description noises W with per-encoder covariance
[[w_k1, -a_k], [-a_k, w_k2]].  This module evaluates its three distortions,
the per-encoder marginal parameters

    d'_kl = Var(X_k | U_kl, S) = n_k * w_kl / (n_k + w_kl)
    t'_k  = I(X_k; U_k1, U_k2 | S)
          = 1/2 log [n_k (w_k1 + w_k2 + 2 a_k) + w_k1 w_k2 - a_k^2] / [w_k1 w_k2 - a_k^2]

(with n_k the observation-noise variance), the two-term sum-rate objective

    I(X1, X2; U11, U12, U21, U22) + I(U11, U21; U12, U22),

the explicit slack-delta rate tuple for the four links, and a multistart
derivative-free minimisation of the sum rate under distortion constraints.

Zero-variance and infinite-variance descriptions are honoured as exact
limits in the closed forms; ``t' = inf`` is the flagged sentinel for a
degenerate joint description (w_k1 * w_k2 = a_k^2).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize

from .errors import (
    InfeasibleTargetsError,
    InfiniteMutualInformationError,
    InvalidParamsError,
    require_index,
    require_int,
    require_real,
)
from .gaussmodel import SourceModel, build_joint_cov, conditional_mi, gaussian_mi

__all__ = [
    "SchemeParams",
    "DistortionTriple",
    "BoundParams",
    "RateBreakdown",
    "OptimizeOptions",
    "OptimizeResult",
    "full_mmse",
    "receiver_distortion",
    "central_distortion",
    "marginal_params",
    "sum_rate",
    "rate_tuple",
    "optimize_sum_rate",
]

#: Multiplier of sigma_nk2 used as the numerical "description absent" cap.
W_CAP_FACTOR = 1e8
#: Nelder-Mead iteration cap of a polish run (the cheap first pass stops at 1200).
MAXITER = 4000
#: Weight of the exact penalty on relative distortion violations.
PENALTY_WEIGHT = 1e4
#: Seeds lie in [0, SEED_LIMIT): the Monte-Carlo oracle keys Philox, which
#: takes a 128-bit key, with the same seed the optimizer draws its starts from.
SEED_LIMIT = 2**128
#: Relative margin above Var(S | X1, X2) within which doubles no longer resolve a target.
FLOOR_MARGIN = 1e-7


@dataclass(frozen=True)
class SchemeParams:
    """Degrees of freedom of the scheme: four W variances and two anticorrelations.

    Invariant: w_k1 * w_k2 >= a_k^2 (the W covariance must be PSD) and a_k >= 0.
    """

    w11: float
    w12: float
    w21: float
    w22: float
    a1: float = 0.0
    a2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("w11", "w12", "w21", "w22", "a1", "a2"):
            object.__setattr__(self, name, require_real(name, getattr(self, name)))
        for k in (1, 2):
            w1, w2, a = self.encoder(k)
            if a * a > w1 * w2 * (1.0 + 1e-12) + 1e-300:
                raise InvalidParamsError(
                    f"encoder {k}: a_{k}^2 = {a * a:.6g} exceeds w_{k}1 * w_{k}2 = {w1 * w2:.6g}"
                )

    def encoder(self, k: int) -> tuple[float, float, float]:
        """(w_k1, w_k2, a_k) of encoder ``k``."""
        if require_index("encoder", k) == 1:
            return self.w11, self.w12, self.a1
        return self.w21, self.w22, self.a2


@dataclass(frozen=True)
class DistortionTriple:
    """Targets for the two individual receivers and the central receiver.

    Invariant: 0 < d0 < min(d1, d2); validity against a model additionally
    requires max(d1, d2) < sigma_s2 (see ``valid_for``).
    """

    d1: float
    d2: float
    d0: float

    def __post_init__(self) -> None:
        for name in ("d1", "d2", "d0"):
            object.__setattr__(self, name, require_real(name, getattr(self, name), strict=True))
        if not self.d0 < min(self.d1, self.d2):
            raise InvalidParamsError(
                f"d0 = {self.d0} must be strictly below min(d1, d2) = {min(self.d1, self.d2)}"
            )

    def valid_for(self, model: SourceModel) -> bool:
        return max(self.d1, self.d2) < model.sigma_s2


@dataclass(frozen=True)
class BoundParams:
    """The six numbers (d_11, d_12, d_21, d_22, t_1, t_2).

    They are the converse parameter vector of ``vceo.bound`` and, at a
    scheme, its marginals d'_kl = Var(X_k | U_kl, S) and t'_k =
    I(X_k; U_k1, U_k2 | S) (see ``marginal_params``).
    """

    d11: float
    d12: float
    d21: float
    d22: float
    t1: float
    t2: float

    def __post_init__(self) -> None:
        for name in ("d11", "d12", "d21", "d22", "t1", "t2"):
            # t = inf is the sentinel of a degenerate joint description.
            v = require_real(name, getattr(self, name), allow_inf=name in ("t1", "t2"))
            object.__setattr__(self, name, v)

    def encoder(self, k: int) -> tuple[float, float, float]:
        """(d_k1, d_k2, t_k) of encoder ``k``."""
        if require_index("encoder", k) == 1:
            return self.d11, self.d12, self.t1
        return self.d21, self.d22, self.t2


@dataclass(frozen=True)
class RateBreakdown:
    """Sum rate with its two information terms and (optionally) per-link rates.

    ``sum_rate = term_mi_joint + term_mi_cross`` always; the pre-binning rates
    ``rp_kl`` and link rates ``r_kl`` are populated by ``rate_tuple`` only, in
    which case the four link rates sum to ``sum_rate + slack``.
    """

    sum_rate: float
    term_mi_joint: float
    term_mi_cross: float
    r11: float | None = None
    r12: float | None = None
    r21: float | None = None
    r22: float | None = None
    rp11: float | None = None
    rp12: float | None = None
    rp21: float | None = None
    rp22: float | None = None
    slack: float | None = None

    def link_rates(self) -> tuple[float, float, float, float]:
        if self.r11 is None:
            raise InvalidParamsError("per-link rates were not requested; use rate_tuple")
        return self.r11, self.r12, self.r21, self.r22  # type: ignore[return-value]


def full_mmse(model: SourceModel) -> float:
    """Var(S | X1, X2): the distortion floor once both observations are exhausted."""
    return 1.0 / receiver_precision(model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2, 0.0, 0.0)


def require_valid_targets(model: SourceModel, targets: DistortionTriple) -> None:
    """The one input rule of the achievable region and the converse: each target lies
    strictly between Var(S | X1, X2) (1 + FLOOR_MARGIN) and sigma_s2.  InvalidParamsError
    names a target at or above sigma_s2, InfeasibleTargetsError the first below the margin."""
    if not targets.valid_for(model):
        raise InvalidParamsError(
            f"max(d1, d2) = {max(targets.d1, targets.d2)} must be strictly "
            f"below sigma_s2 = {model.sigma_s2}"
        )
    floor = full_mmse(model)
    for name in ("d1", "d2", "d0"):
        target = getattr(targets, name)
        if not target > floor * (1.0 + FLOOR_MARGIN):
            raise InfeasibleTargetsError(
                f"target {name} = {target!r} is not above the remote MMSE floor "
                f"Var(S | X1, X2) = {floor!r} by the relative margin {FLOOR_MARGIN:g}",
                constraint=name,
            )


def _marginal_d(noise_var: float, w: float) -> float:
    """Var(X | U, S) for U = X + W: the parallel combination of noise and W."""
    if math.isinf(w):
        return noise_var
    if w == 0.0:
        return 0.0
    return noise_var * w / (noise_var + w)


def _marginal_t(noise_var: float, w1: float, w2: float, a: float) -> float:
    """I(X; U_1, U_2 | S) in nats; inf when the W block is singular."""
    if math.isinf(w1) or math.isinf(w2):
        # Reciprocal form survives the absent-description limit exactly.
        recip = (0.0 if math.isinf(w1) else 1.0 / (w1 + a)) + (
            0.0 if math.isinf(w2) else 1.0 / (w2 + a)
        )
        if recip == 0.0:
            return 0.0
        gamma = 1.0 / recip - a
        if gamma <= 0.0:
            return math.inf
        return 0.5 * math.log1p(noise_var / gamma)
    det = w1 * w2 - a * a
    num = noise_var * (w1 + w2 + 2.0 * a) + det
    if det <= 0.0:
        return math.inf
    return 0.5 * math.log(num / det)


def marginal_params(model: SourceModel, params: SchemeParams) -> BoundParams:
    """The six marginal parameters (d'_11, d'_12, d'_21, d'_22, t'_1, t'_2)."""
    n1, n2 = model.sigma_n1_2, model.sigma_n2_2
    return BoundParams(
        d11=_marginal_d(n1, params.w11),
        d12=_marginal_d(n1, params.w12),
        d21=_marginal_d(n2, params.w21),
        d22=_marginal_d(n2, params.w22),
        t1=_marginal_t(n1, params.w11, params.w12, params.a1),
        t2=_marginal_t(n2, params.w21, params.w22, params.a2),
    )


def receiver_precision(s2, n1, n2, d1l, d2l):
    """1/delta_l = 1/sigma_s2 + 1/n_1 + 1/n_2 - d'_1l/n_1^2 - d'_2l/n_2^2.

    The precision of S given the two descriptions U_1l, U_2l, from their
    marginal variances d'_kl; elementwise on arrays.  d' = 0 (exact
    observations) gives 1/full_mmse.
    """
    return 1.0 / s2 + 1.0 / n1 + 1.0 / n2 - d1l / n1**2 - d2l / n2**2


def central_precision(s2, n1, n2, u1, u2):
    """1/delta_0 = 1/sigma_s2 + (1 - u_1)/n_1 + (1 - u_2)/n_2 with u_k = e^{-2 t'_k}.

    u_k = 0 is the t'_k = inf limit (descriptions exhaust X_k); elementwise on arrays.
    """
    return 1.0 / s2 + (1.0 - u1) / n1 + (1.0 - u2) / n2


def _closed_form(s2, n1, n2, w11, w12, w21, w22, a1, a2):
    """(sum rate, 1/delta_1, 1/delta_2, 1/delta_0) of a scheme, from plain floats.

    The sum rate decomposes per encoder as 1/2 log(n_k^2 / (d'_k1 d'_k2))
    + 1/2 log(w_k1 w_k2 / (w_k1 w_k2 - a_k^2)), plus 1/2 log(sigma_s4 /
    (delta_1 delta_2)), and e^{-2 t'_k} = det_k / (n_k (w_k1 + w_k2 + 2 a_k)
    + det_k) with det_k = w_k1 w_k2 - a_k^2.  Exact limits: w = 0 gives
    d' = 0, and det_k = 0 gives t'_k = inf, so e^{-2 t'_k} = 0; the sum rate
    is +inf whenever some det_k <= 0.  This sits in the Nelder-Mead hot loop,
    so it is inlined float arithmetic in a fixed operation order; 1/delta_0
    here agrees with ``central_distortion`` to the last bit or two.
    """
    det1 = w11 * w12 - a1 * a1
    det2 = w21 * w22 - a2 * a2
    d11 = n1 * w11 / (n1 + w11)
    d12 = n1 * w12 / (n1 + w12)
    d21 = n2 * w21 / (n2 + w21)
    d22 = n2 * w22 / (n2 + w22)
    inv_d1 = receiver_precision(s2, n1, n2, d11, d21)
    inv_d2 = receiver_precision(s2, n1, n2, d12, d22)
    u1 = det1 / (n1 * (w11 + w12 + 2.0 * a1) + det1) if det1 > 0.0 else 0.0
    u2 = det2 / (n2 * (w21 + w22 + 2.0 * a2) + det2) if det2 > 0.0 else 0.0
    inv_d0 = central_precision(s2, n1, n2, u1, u2)
    if det1 <= 0.0 or det2 <= 0.0:
        return math.inf, inv_d1, inv_d2, inv_d0
    rate = 0.5 * math.log(n1 * n1 / (d11 * d12)) + 0.5 * math.log(n2 * n2 / (d21 * d22))
    if a1 > 0.0:
        rate += 0.5 * math.log(w11 * w12 / det1)
    if a2 > 0.0:
        rate += 0.5 * math.log(w21 * w22 / det2)
    rate += 0.5 * math.log(s2 * inv_d1) + 0.5 * math.log(s2 * inv_d2)
    return rate, inv_d1, inv_d2, inv_d0


def _scheme_forms(model: SourceModel, p: SchemeParams) -> tuple[float, float, float, float]:
    """``_closed_form`` of a model and a scheme."""
    s2, n1, n2 = model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2
    return _closed_form(s2, n1, n2, p.w11, p.w12, p.w21, p.w22, p.a1, p.a2)


def receiver_distortion(model: SourceModel, params: SchemeParams, l: int) -> float:
    """Var(S | U_1l, U_2l) achieved at individual receiver ``l``, in closed form:

    1/delta_l = 1/sigma_s2 + 1/n_1 + 1/n_2 - d'_1l/n_1^2 - d'_2l/n_2^2.
    """
    return 1.0 / _scheme_forms(model, params)[require_index("receiver", l)]


def central_distortion(model: SourceModel, params: SchemeParams) -> float:
    """Var(S | U11, U12, U21, U22) in closed form:

    1/delta_0 = 1/sigma_s2 + (1 - e^{-2 t'_1})/n_1 + (1 - e^{-2 t'_2})/n_2,

    with e^{-2 t'} = 0 at the t' = inf limit (descriptions exhaust X_k).

    e^{-2 t'} is taken from t' itself, not from the hot loop's rational form
    in ``_closed_form``: the two differ in the last bit, and the exact
    bisection of ``_restore_feasibility`` (hence every optimizer start built
    on it) depends on this value bit for bit.
    """
    mp = marginal_params(model, params)
    u1, u2 = math.exp(-2.0 * mp.t1), math.exp(-2.0 * mp.t2)
    return 1.0 / central_precision(model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2, u1, u2)


def sum_rate(model: SourceModel, params: SchemeParams) -> RateBreakdown:
    """Sum-rate objective I(X1, X2; U) + I(U11, U21; U12, U22) in closed form.

    The rate is ``_closed_form``'s.  ``term_mi_joint`` = 1/2 log(sigma_s2 /
    delta_0) + t'_1 + t'_2, that is I(S; U) + I(X1, X2; U | S), and
    ``term_mi_cross`` is the rest.  Degenerate parameters (a zero-variance W,
    or the PSD boundary w_k1 w_k2 = a_k^2) raise
    InfiniteMutualInformationError.  The log-det algebra of
    :mod:`vceo.gaussmodel` is the independent check of this value.
    """
    rate, _, _, inv_d0 = _scheme_forms(model, params)
    if math.isinf(rate):
        raise InfiniteMutualInformationError(
            "sum rate is infinite: a description has zero variance or a W block is singular"
        )
    mp = marginal_params(model, params)
    joint = 0.5 * math.log(model.sigma_s2 * inv_d0) + mp.t1 + mp.t2
    return RateBreakdown(sum_rate=rate, term_mi_joint=joint, term_mi_cross=rate - joint)


def rate_tuple(model: SourceModel, params: SchemeParams, slack: float) -> RateBreakdown:
    """Explicit per-link rates overshooting the sum rate by exactly ``slack``.

    With eps = slack / 8, the pre-binning rates are

        R'_11 = I(X1; U11) + eps          R'_12 = I(X1; U12 | U11) + I(U11; U12) + eps
        R'_21 = I(X2; U21) + eps          R'_22 = I(X2; U22 | U21) + I(U21; U22) + eps

    and the link rates discount the cross-encoder binning gain on encoder 1:

        R_11 = R'_11 - I(U11; U21) + eps      R_21 = R'_21 + eps
        R_12 = R'_12 - I(U12; U22) + eps      R_22 = R'_22 + eps.

    Every codebook-generation and decoding inequality then holds strictly
    (margin >= eps) and the four link rates sum to sum_rate + slack.
    """
    slack = require_real("slack", slack, strict=True)
    eps = slack / 8.0
    cov = build_joint_cov(model, params)
    base = sum_rate(model, params)

    rp11 = gaussian_mi(cov, "X1", "U11") + eps
    rp12 = conditional_mi(cov, "X1", "U12", "U11") + gaussian_mi(cov, "U11", "U12") + eps
    rp21 = gaussian_mi(cov, "X2", "U21") + eps
    rp22 = conditional_mi(cov, "X2", "U22", "U21") + gaussian_mi(cov, "U21", "U22") + eps
    i_cross_1 = gaussian_mi(cov, "U11", "U21")
    i_cross_2 = gaussian_mi(cov, "U12", "U22")
    return replace(
        base,
        rp11=rp11,
        rp12=rp12,
        rp21=rp21,
        rp22=rp22,
        r11=rp11 - i_cross_1 + eps,
        r21=rp21 + eps,
        r12=rp12 - i_cross_2 + eps,
        r22=rp22 + eps,
        slack=slack,
    )


@dataclass(frozen=True)
class OptimizeOptions:
    """Knobs of the multistart sum-rate minimisation.

    ``warm_start`` injects a known-good scheme, such as the matching
    construction at the converse argmin, as the first start.  Invariant:
    ``starts >= 1``, ``tol`` finite and ``>= 0``, ``seed`` in ``[0, SEED_LIMIT)``.
    """

    starts: int = 16
    tol: float = 1e-7
    seed: int = 0
    warm_start: SchemeParams | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", require_int("starts", self.starts, 1))
        object.__setattr__(self, "tol", require_real("tol", self.tol))
        object.__setattr__(self, "seed", require_int("seed", self.seed, 0, SEED_LIMIT))


@dataclass(frozen=True)
class OptimizeResult:
    params: SchemeParams
    breakdown: RateBreakdown
    distortions: tuple[float, float, float]  # (delta_1, delta_2, delta_0)


def _distortions(model: SourceModel, params: SchemeParams) -> tuple[float, float, float]:
    """(delta_1, delta_2, delta_0) of a scheme."""
    _, inv_d1, inv_d2, _ = _scheme_forms(model, params)
    return 1.0 / inv_d1, 1.0 / inv_d2, central_distortion(model, params)


def _is_feasible(
    model: SourceModel,
    targets: DistortionTriple,
    params: SchemeParams,
    rtol: float = 1e-9,
) -> bool:
    d1, d2, d0 = _distortions(model, params)
    return (
        d1 <= targets.d1 * (1.0 + rtol)
        and d2 <= targets.d2 * (1.0 + rtol)
        and d0 <= targets.d0 * (1.0 + rtol)
    )


def _log_w_box(model: SourceModel) -> tuple[np.ndarray, np.ndarray]:
    """Clip bounds of the coordinates log w_kl, 25 nats below log n_k up to the
    "description absent" cap W_CAP_FACTOR * n_k: one box for every (de)coder."""
    n1, n2 = model.sigma_n1_2, model.sigma_n2_2
    log_n = np.log(np.array([n1, n1, n2, n2]))
    return log_n - 25.0, log_n + math.log(W_CAP_FACTOR)


def _params_from_vector(model: SourceModel, z: np.ndarray) -> SchemeParams:
    """Decode optimizer coordinates: log-variances for w, [0, 1] mixing for a."""
    w = np.exp(np.clip(z[:4], *_log_w_box(model)))
    rho = np.clip(z[4:6], 0.0, 1.0)
    a1 = rho[0] * min(math.sqrt(w[0] * w[1]), model.sigma_n1_2)
    a2 = rho[1] * min(math.sqrt(w[2] * w[3]), model.sigma_n2_2)
    return SchemeParams(w[0], w[1], w[2], w[3], a1, a2)


def _penalized_objective(model: SourceModel, targets: DistortionTriple, weight: float):
    """Closed-form sum rate plus exact penalty on relative distortion violations."""
    s2, n1, n2 = model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2
    (lo11, lo12, lo21, lo22), (hi11, hi12, hi21, hi22) = (b.tolist() for b in _log_w_box(model))
    t1v, t2v, t0v = targets.d1, targets.d2, targets.d0
    exp, sqrt, isinf = np.exp, math.sqrt, math.isinf

    def objective(z) -> float:
        # The clips are conditional expressions with the semantics of np.clip
        # (up to the sign of a zero, which exp erases) and min(max(.)), NaN included.
        z11, z12, z21, z22, rho1, rho2 = z
        z11 = lo11 if lo11 > z11 else z11
        z12 = lo12 if lo12 > z12 else z12
        z21 = lo21 if lo21 > z21 else z21
        z22 = lo22 if lo22 > z22 else z22
        # np.exp, not math.exp: they differ in the last bit, which moves the frozen path.
        w11, w12, w21, w22 = exp(
            [
                hi11 if hi11 < z11 else z11,
                hi12 if hi12 < z12 else z12,
                hi21 if hi21 < z21 else z21,
                hi22 if hi22 < z22 else z22,
            ]
        ).tolist()
        rho1 = 0.0 if 0.0 > rho1 else rho1
        rho2 = 0.0 if 0.0 > rho2 else rho2
        g1, g2 = sqrt(w11 * w12), sqrt(w21 * w22)
        a1 = (1.0 if 1.0 < rho1 else rho1) * (n1 if n1 < g1 else g1)
        a2 = (1.0 if 1.0 < rho2 else rho2) * (n2 if n2 < g2 else g2)
        value, inv_dl1, inv_dl2, inv_d0 = _closed_form(s2, n1, n2, w11, w12, w21, w22, a1, a2)
        if isinf(value):
            return 1e12
        v1 = 1.0 / (inv_dl1 * t1v) - 1.0
        v2 = 1.0 / (inv_dl2 * t2v) - 1.0
        v0 = 1.0 / (inv_d0 * t0v) - 1.0
        return value + weight * (
            (v1 if v1 > 0.0 else 0.0) + (v2 if v2 > 0.0 else 0.0) + (v0 if v0 > 0.0 else 0.0)
        )

    return objective


def _restore_feasibility(
    model: SourceModel, targets: DistortionTriple, params: SchemeParams
) -> SchemeParams:
    """Shrink (w, a) by a common factor until all three distortions are met.

    All distortions decrease monotonically as the factor shrinks, so a
    bisection on the factor finds the feasibility boundary.
    """
    if _is_feasible(model, targets, params, rtol=0.0):
        return params

    def scaled(rho: float) -> SchemeParams:
        return SchemeParams(
            params.w11 * rho,
            params.w12 * rho,
            params.w21 * rho,
            params.w22 * rho,
            params.a1 * rho,
            params.a2 * rho,
        )

    lo, hi = 0.0, 1.0
    if not _is_feasible(model, targets, scaled(lo + 1e-12), rtol=0.0):
        raise InfeasibleTargetsError(
            "feasibility restoration failed: targets leave no slack above the "
            f"remote MMSE floor {full_mmse(model):.6g}",
            constraint="central",
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _is_feasible(model, targets, scaled(mid), rtol=0.0):
            lo = mid
        else:
            hi = mid
    return scaled(lo)


def _start_vectors(
    model: SourceModel, targets: DistortionTriple, opts: OptimizeOptions
) -> list[np.ndarray]:
    """Deterministic structured starts plus seeded random ones, opts.starts total."""
    log_n = np.array(
        [
            math.log(model.sigma_n1_2),
            math.log(model.sigma_n1_2),
            math.log(model.sigma_n2_2),
            math.log(model.sigma_n2_2),
        ]
    )
    starts: list[np.ndarray] = []
    if opts.warm_start is not None:
        starts.append(_vector_from_params(model, opts.warm_start))
    for rho in (0.0, 0.5):
        z = _constraint_start(model, targets, rho)
        if z is not None:
            starts.append(z)
    for c in (0.2, 1.0, 5.0):
        starts.append(np.concatenate([log_n + math.log(c), np.zeros(2)]))
    rng = np.random.default_rng(opts.seed)
    while len(starts) < opts.starts:
        starts.append(
            np.concatenate([log_n + rng.uniform(-5.0, 5.0, 4), rng.uniform(0.0, 0.8, 2)])
        )
    return starts[: opts.starts]


def _vector_from_params(model: SourceModel, p: SchemeParams) -> np.ndarray:
    """Encode a scheme into optimizer coordinates (inverse of _params_from_vector)."""
    w = np.maximum(np.array([p.w11, p.w12, p.w21, p.w22]), 1e-300)
    z_w = np.minimum(np.log(w), _log_w_box(model)[1])
    rho1 = p.a1 / min(math.sqrt(p.w11 * p.w12), model.sigma_n1_2) if p.a1 > 0 else 0.0
    rho2 = p.a2 / min(math.sqrt(p.w21 * p.w22), model.sigma_n2_2) if p.a2 > 0 else 0.0
    return np.concatenate([z_w, [min(rho1, 1.0), min(rho2, 1.0)]])


def _constraint_start(
    model: SourceModel, targets: DistortionTriple, rho: float = 0.0
) -> np.ndarray | None:
    """Start on the individual-receiver constraint boundary.

    Splits each receiver's precision budget equally across the encoders,
    inverts d' = n w / (n + w), applies anticorrelation fraction ``rho``,
    shrinks to feasibility, and returns the coordinates.  Uses the targets
    only; independent of the converse search.
    """
    n = (model.sigma_n1_2, model.sigma_n2_2)
    base = receiver_precision(model.sigma_s2, n[0], n[1], 0.0, 0.0)
    w = [0.0] * 4
    for l, target in ((1, targets.d1), (2, targets.d2)):
        c = base - 1.0 / target
        shares = [c / 2.0, c / 2.0]
        for k in (0, 1):  # cap a share at its encoder box and give the rest away
            cap = 0.999 / n[k]
            if shares[k] > cap:
                shares[1 - k] += shares[k] - cap
                shares[k] = cap
        for k in (0, 1):
            d_marg = min(shares[k] * n[k] ** 2, 0.999 * n[k])
            if d_marg <= 0.0:
                return None
            w[2 * k + (l - 1)] = n[k] * d_marg / (n[k] - d_marg)
    a1 = rho * min(math.sqrt(w[0] * w[1]), n[0])
    a2 = rho * min(math.sqrt(w[2] * w[3]), n[1])
    try:
        params = _restore_feasibility(
            model, targets, SchemeParams(w[0], w[1], w[2], w[3], a1, a2)
        )
    except (InvalidParamsError, InfeasibleTargetsError):
        return None
    return _vector_from_params(model, params)


def _order(sim: list[list[float]], fsim: list[float], head_distinct: bool):
    """``sim``, ``fsim`` in ``np.argsort(fsim)``'s order, and whether ``fsim`` is distinct.
    A new last value is bisected into a distinct sorted head, other distinct values take
    Python's sort, and a tie or NaN numpy's, which is not stable and steers the run."""
    n = len(fsim) - 1
    k = bisect_left(fsim, fsim[-1], 0, n)
    if head_distinct and (k == n or fsim[-1] < fsim[k]):
        sim.insert(k, sim.pop())
        fsim.insert(k, fsim.pop())
        return sim, fsim, True
    order = sorted(range(n + 1), key=fsim.__getitem__)
    distinct = all(fsim[i] < fsim[j] for i, j in zip(order, order[1:]))
    if not distinct:
        order = np.argsort(fsim).tolist()
    return [sim[i] for i in order], [fsim[i] for i in order], distinct


def _nelder_mead(fun, x0, maxiter, xatol, fatol, **_):
    """Adaptive Nelder-Mead (Gao & Han 2012) in six coordinates on lists of floats: a
    ``minimize`` method that repeats scipy 1.17's ``_minimize_neldermead(adaptive=True)``
    step for step, so every iterate, ``nit`` and ``nfev`` are scipy's.

    ``fun`` must be deterministic: once a shrink moves no vertex, the run ends with
    the result scipy reaches by repeating that iteration up to ``maxiter``, and
    ``nfev`` counts scipy's evaluations, not the calls made."""
    n = len(x0)
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    sim = [x0.tolist()]
    for k in range(n):
        y = list(sim[0])
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [fun(x) for x in sim]
    nfev, nit = n + 1, 1
    for _ in range(2):  # scipy sorts the first simplex twice
        sim, fsim, distinct = _order(sim, fsim, False)
    while nit < maxiter:
        best, worst, shrunk = sim[0], sim[-1], None
        # fsim is sorted, so its largest |fsim[0] - f| is at the end.
        if abs(fsim[0] - fsim[-1]) <= fatol and all(
            abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best)
        ):
            break
        # numpy's row sum from 0.0, written out for the six coordinates
        xbar = [(0.0 + a + b + c + d + e + f) / n for a, b, c, d, e, f in zip(*sim[:-1])]
        xr = [2 * c - w for c, w in zip(xbar, worst)]
        fxr = fun(xr)
        nfev += 1
        if fxr < fsim[0]:
            xe = [(1 + chi) * c - chi * w for c, w in zip(xbar, worst)]
            fxe = fun(xe)
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            outside = fxr < fsim[-1]
            k = psi if outside else -psi  # -psi: (1 - psi) xbar + psi x_worst, bit for bit
            xc = [(1 + k) * c - k * w for c, w in zip(xbar, worst)]
            fxc = fun(xc)
            nfev += 1
            if fxc <= fxr if outside else fxc < fsim[-1]:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                distinct, shrunk = False, (fsim[:], sim[:])
                for j in range(1, n + 1):
                    sim[j] = [b + sigma * (v - b) for v, b in zip(sim[j], best)]
                    fsim[j] = fun(sim[j])
                nfev += n
        nit += 1
        sim, fsim, distinct = _order(sim, fsim, distinct)
        if shrunk == (fsim, sim):
            # The shrink rounded every vertex back onto itself.  fun is
            # deterministic, so every further iteration repeats this one
            # (reflect, contract, shrink: n + 2 evaluations) up to maxiter.
            # A NaN from a new evaluation compares unequal, so it can only
            # miss the skip.  A 0.0 matching a -0.0 is harmless: the
            # objective gives both the same value, and the restart test
            # y[k] != 0 treats both alike.
            nfev += (n + 2) * (maxiter - nit)
            nit = maxiter
    return scipy.optimize.OptimizeResult(x=np.array(sim[0]), fun=fsim[0], nit=nit, nfev=nfev)


def optimize_sum_rate(
    model: SourceModel,
    targets: DistortionTriple,
    opts: OptimizeOptions | None = None,
) -> OptimizeResult:
    """Minimise the sum rate over schemes meeting all three distortion targets.

    Multistart Nelder-Mead in log-variance coordinates for the four W
    variances and box-clipped mixing coordinates for a_k in
    [0, min(sqrt(w_k1 w_k2), n_k)], with an exact penalty on relative
    distortion violations and a monotone shrink restoration step.
    Deterministic for fixed (inputs, opts.seed).  The starts use the
    targets only; a caller holding a better scheme (inside the distortion
    condition, the matching construction) passes it as ``opts.warm_start``.
    Each run follows scipy's adaptive Nelder-Mead bit for bit; a run stuck
    on a shrink that moves no vertex ends early with scipy's result, so the
    ``nfev`` of each ``minimize`` call counts scipy's evaluations, not the
    objective calls made.

    Raises what ``require_valid_targets`` raises, before any evaluation.
    """
    opts = opts or OptimizeOptions()
    require_valid_targets(model, targets)

    objective = _penalized_objective(model, targets, PENALTY_WEIGHT)

    def _local(z0: np.ndarray, maxiter: int, xatol: float, fatol: float):
        return scipy.optimize.minimize(
            objective,
            z0,
            method=_nelder_mead,
            options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol},
        )

    # Phase 1: a cheap pass from every start; phase 2: restart-polish the best few.
    # Nelder-Mead stalls on the penalty kink at the distortion boundary, and a
    # fresh simplex at the incumbent reliably unsticks it.
    phase1 = []
    for z0 in _start_vectors(model, targets, opts):
        res = _local(z0, 1200, 1e-7, max(opts.tol * 0.01, 1e-12))
        phase1.append((float(res.fun), np.asarray(res.x)))
    phase1.sort(key=lambda item: item[0])
    best_val, best_z = phase1[0]
    for _, x0 in phase1[: min(3, len(phase1))]:
        res = _local(x0, MAXITER, 1e-10, max(opts.tol * 1e-5, 1e-13))
        for _ in range(4):
            res2 = _local(res.x, MAXITER, 1e-10, max(opts.tol * 1e-5, 1e-13))
            improved = res2.fun < res.fun - 1e-13
            res = res2
            if not improved:
                break
        if res.fun < best_val:
            best_val, best_z = float(res.fun), np.asarray(res.x)
    params = _restore_feasibility(model, targets, _params_from_vector(model, best_z))
    return OptimizeResult(
        params=params,
        breakdown=sum_rate(model, params),
        distortions=_distortions(model, params),
    )
