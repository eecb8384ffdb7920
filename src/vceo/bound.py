"""Converse machinery: the per-encoder bound function, parameter sets, projection,
inner maximisation, and the full sum-rate lower bound.

The bound parameters are p = (d_11, d_12, d_21, d_22, t_1, t_2).  Encoder k's
admissible box is

    F_k = { (d_1, d_2, t) : n_k e^{-2t} <= min(d_1, d_2), max(d_1, d_2) <= n_k },

and F additionally imposes the three distortion inequalities

    1/D_l  <= 1/sigma_s2 + 1/n_1 + 1/n_2 - d_1l/n_1^2 - d_2l/n_2^2     (l = 1, 2)
    1/D_0  <= 1/sigma_s2 + (1 - e^{-2 t_1})/n_1 + (1 - e^{-2 t_2})/n_2.

The critical manifold P = P1 (all three with equality) union P2 (individual
equalities, central strict, both t pinned to the box floor).  The bound is

    inf over P of [ sup_s r_1(d_11, d_12, t_1, s) + sup_s r_2(d_21, d_22, t_2, s) ]
        + (1/2) log(sigma_s4 / (D_1 D_2))

with r_k(d_1, d_2, t, s) = t + (1/2) log[(n_k + s) / ((d_1 + s)(d_2 + s))]
+ (1/2) log(n_k e^{-2t} + s).  The inner sup over the channel variance s >= 0
reduces to a quadratic stationarity condition; s -> inf contributes the exact
limit value t as a closed-form candidate.  The objective is convex in p and
F is convex, and ``project_to_P`` maps F onto P without raising the
objective, so the outer inf is one convex program over F: SLSQP in the
scale-free coordinates (d/n, t), from one closed-form point of F.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass
from enum import Enum
from fractions import Fraction

import numpy as np
import scipy.optimize

from .errors import DomainError, InfeasibleTargetsError, InvalidParamsError, require_int
from .gaussmodel import SourceModel
from .scheme import (
    BoundParams,
    DistortionTriple,
    central_precision,
    receiver_precision,
    require_valid_targets,
)

__all__ = [
    "PBranch",
    "LowerBoundResult",
    "in_F_k",
    "in_F",
    "r_fn",
    "condition_holds",
    "in_P",
    "project_to_P",
    "sup_sigma_z",
    "lower_bound",
]

#: Relative tolerance for critical-manifold equality tests.
EQUALITY_RTOL = 1e-9
#: Relative slack admitted on the box inequalities.
BOX_RTOL = 1e-12
#: Smallest and default ``grid`` that ``lower_bound`` accepts; no scan uses it.
MIN_GRID = 3
DEFAULT_GRID = 64


class PBranch(Enum):
    P1 = "P1"
    P2 = "P2"


def in_F_k(sigma_n2: float, d1: float, d2: float, t: float) -> bool:
    """Membership in encoder box: n e^{-2t} <= min(d1, d2) and max(d1, d2) <= n,
    each within ``BOX_RTOL * n``."""
    if not (d1 >= 0 and d2 >= 0 and t >= 0):
        return False
    u = math.exp(-2.0 * t)
    slack = BOX_RTOL * sigma_n2
    return sigma_n2 * u <= min(d1, d2) + slack and max(d1, d2) <= sigma_n2 + slack


def _precision_rhs(model: SourceModel, p: BoundParams) -> tuple[float, float, float]:
    """Right-hand sides at p of the three distortion inequalities (receivers 1, 2, central)."""
    s2, n1, n2 = model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2
    return (
        receiver_precision(s2, n1, n2, p.d11, p.d21),
        receiver_precision(s2, n1, n2, p.d12, p.d22),
        central_precision(s2, n1, n2, math.exp(-2.0 * p.t1), math.exp(-2.0 * p.t2)),
    )


def in_F(model: SourceModel, targets: DistortionTriple, p: BoundParams) -> bool:
    """Membership in the full admissible set F for the given targets; the
    distortion inequalities hold within relative ``EQUALITY_RTOL``."""
    if not all(in_F_k(model.noise_var(k), *p.encoder(k)) for k in (1, 2)):
        return False
    rhs = _precision_rhs(model, p)
    return all(1.0 / d <= r * (1.0 + EQUALITY_RTOL) for d, r in zip(astuple(targets), rhs))


def condition_holds(model: SourceModel, targets: DistortionTriple) -> bool:
    """The distortion-regime predicate under which the bound is tight:

    1/D_1 + 1/D_2 - max(1/n_1, 1/n_2) - 1/sigma_s2 >= 1/D_0.
    """
    lhs = (
        1.0 / targets.d1
        + 1.0 / targets.d2
        - max(1.0 / model.sigma_n1_2, 1.0 / model.sigma_n2_2)
        - 1.0 / model.sigma_s2
    )
    return lhs >= 1.0 / targets.d0


def _r(n, d1, d2, t, s):
    """r(d1, d2, t, s) in numpy arithmetic, elementwise on arrays; callers
    silence numpy's warnings.  Finite apart from the limits d + s = 0 and
    t = inf: a log whose argument leaves the float range (s = 0 with d1, d2
    near 0, or t large) is taken term by term."""
    log_ratio = np.log((n + s) / ((d1 + s) * (d2 + s)))
    log_floor = np.log(n * np.exp(-2.0 * t) + s)
    r = t + 0.5 * log_ratio + 0.5 * log_floor
    bad = ~np.isfinite(r)  # cheap first: the full test runs only when some r is not finite
    if not (bad.any() and np.any(bad & (np.minimum(d1, d2) + s > 0.0) & np.isfinite(t))):
        return r
    split = np.log(n + s) - np.log(d1 + s) - np.log(d2 + s)
    log_ratio = np.where(np.isinf(log_ratio), split, log_ratio)
    log_floor = np.where(np.isinf(log_floor), np.log(n) - 2.0 * t, log_floor)
    return t + 0.5 * log_ratio + 0.5 * log_floor


def _require_in_box(sigma_n2: float, d1: float, d2: float, t: float) -> None:
    if not in_F_k(sigma_n2, d1, d2, t):
        raise DomainError(
            f"(d1, d2, t) = ({d1}, {d2}, {t}) is outside the admissible box for "
            f"noise variance {sigma_n2}"
        )


def r_fn(sigma_n2: float, d1: float, d2: float, t: float, sigma_z2: float) -> float:
    """Per-encoder bound term

    r(d1, d2, t, s) = t + (1/2) log[(n + s) / ((d1 + s)(d2 + s))]
                        + (1/2) log(n e^{-2t} + s)

    in nats, from ``_r``.  ``sigma_z2 = inf`` returns the exact limit t.  At
    ``t = inf`` the limit is exact too: t cancels at s = 0, leaving
    (1/2) log(n^2 / (d1 d2)), and r = inf for every s > 0.
    """
    _require_in_box(sigma_n2, d1, d2, t)
    if not sigma_z2 >= 0.0:
        raise DomainError(f"sigma_z2 must be >= 0, got {sigma_z2!r}")
    if math.isinf(sigma_z2):
        return t
    if math.isinf(t) and sigma_z2 == 0.0:
        return 0.5 * math.log(sigma_n2 * sigma_n2 / (d1 * d2)) if d1 * d2 > 0.0 else math.inf
    with np.errstate(all="ignore"):
        return float(_r(np.float64(sigma_n2), d1, d2, t, sigma_z2))


def _sup_points(n: float, points) -> list[tuple[list, list, float]]:
    """Candidate maximisers of r over s >= 0 and their values at each point
    (d1, d2, t) of floats: per point its s and r lists, and e = n e^{-2t}.

    The four candidates are s = 0, the two roots of the stationarity quadratic
    a s^2 + b s + c = 0 (the linear root twice when a = 0), and the s -> inf
    limit with its exact value t.  A root that is not real, positive and finite
    carries r = -inf.  At t = inf every s > 0 gives r = inf, which the limit
    candidate alone represents.  ``math.exp`` and ``math.log`` can differ from
    numpy's in the last bit, so the exponentials take one ``np.exp`` call on a
    list, and the logs one ``np.log`` call, as the array form in the tests does.
    A candidate with a log argument that is not positive and finite, as where
    (d1 + s)(d2 + s) underflows, takes r from ``_r``, which splits the logs.
    """
    out, logged = [], []  # logged: (point, candidate, ratio, floor) for np.log
    for (d1, d2, t), u in zip(points, np.exp([-2.0 * t for _, _, t in points]).tolist()):
        e = n * u
        a = (d1 + d2) - (e + n)
        b = 2.0 * (d1 * d2 - e * n)
        c = (e + n) * d1 * d2 - e * n * (d1 + d2)
        disc = b * b - 4.0 * a * c
        sq = math.sqrt(max(disc, 0.0))
        s_vals = [0.0] + [
            (-b + sgn * sq) / (2.0 * a) if abs(a) > 0.0 else -c / b if abs(b) > 0.0 else -1.0
            for sgn in (1.0, -1.0)
        ]
        r_vals = [-math.inf] * 3
        for j, s in enumerate(s_vals):
            if not (math.isfinite(t) and (j == 0 or (disc >= 0.0 and 0.0 < s < math.inf))):
                continue
            prod = (d1 + s) * (d2 + s)
            ratio = (n + s) / prod if prod > 0.0 else 0.0
            if 0.0 < ratio < math.inf and 0.0 < e + s < math.inf:
                logged.append((len(out), j, ratio, e + s))
            else:
                with np.errstate(all="ignore"):
                    r_vals[j] = float(_r(np.float64(n), d1, d2, t, s))
        out.append((s_vals + [math.inf], r_vals + [t], e))
    logs = np.log([x for *_, ratio, floor in logged for x in (ratio, floor)]).tolist()
    for (i, j, _, _), log_ratio, log_floor in zip(logged, logs[::2], logs[1::2]):
        out[i][1][j] = points[i][2] + 0.5 * log_ratio + 0.5 * log_floor
    return out


def sup_sigma_z(sigma_n2: float, d1: float, d2: float, t: float) -> tuple[float, float]:
    """(argmax, value) of r over the channel variance s in [0, inf).

    Candidates are s = 0, the nonnegative real roots of the stationarity
    quadratic, and the s -> inf limit (value t, argmax reported as inf).
    Ties resolve toward the smallest s: a candidate replaces the incumbent
    only when it is larger by more than 1e-15.
    """
    _require_in_box(sigma_n2, d1, d2, t)
    [(s_vals, r_vals, _)] = _sup_points(float(sigma_n2), [(float(d1), float(d2), float(t))])
    candidates = sorted((s, r) for s, r in zip(s_vals, r_vals) if r > -math.inf)
    best_s, best_val = math.nan, -math.inf
    for s, val in candidates:
        if val > best_val + 1e-15:
            best_s, best_val = s, val
    return best_s, best_val


def in_P(model: SourceModel, targets: DistortionTriple, p: BoundParams) -> PBranch | None:
    """Critical-manifold membership: P1, P2, or None.

    Both branches require the two individual-receiver inequalities to hold
    with equality (relative tolerance ``EQUALITY_RTOL``).  P1 additionally has
    central equality; P2 has strict central slack with both t pinned to the
    box floor n_k e^{-2 t_k} = min(d_k1, d_k2).
    """
    if not in_F(model, targets, p):
        return None
    equal = functools.partial(math.isclose, rel_tol=EQUALITY_RTOL)
    rhs1, rhs2, central = _precision_rhs(model, p)
    if not (equal(1.0 / targets.d1, rhs1) and equal(1.0 / targets.d2, rhs2)):
        return None
    if equal(1.0 / targets.d0, central):
        return PBranch.P1
    pinned = all(
        equal(model.noise_var(k) * math.exp(-2.0 * p.encoder(k)[2]), min(p.encoder(k)[:2]))
        for k in (1, 2)
    )
    if central > 1.0 / targets.d0 and pinned:
        return PBranch.P2
    return None


def project_to_P(model: SourceModel, targets: DistortionTriple, p: BoundParams) -> BoundParams:
    """Move an admissible point onto the critical manifold.

    Follows the constructive argument: move d_11, d_12 by the receiver slack
    onto the individual equalities or to the n_1 cap, then raise d_21, d_22 to
    the equalities; lower t_1 to central equality, then t_2 likewise, each
    kept at or above its box floor.  The slack is signed, so a receiver that an
    input inside F's tolerance misses by roundoff is met again by lowering d_1l,
    and t rises only to its box floor.  A receiver still missed in exact
    arithmetic after these float steps lowers d_1l by its exact shortfall,
    rounded toward 0, so the output meets both receivers exactly.  Otherwise d
    components never decrease, t components never increase, and points already
    critical return unchanged.
    """
    if not in_F(model, targets, p):
        raise DomainError("projection input must lie in the admissible set F")
    s2, n1, n2 = model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2
    exact = [Fraction(v) for v in (s2, n1, n2)]
    d = [p.d11, p.d12, p.d21, p.d22]  # d_kl at index 2(k - 1) + (l - 1)
    for l, target in enumerate((targets.d1, targets.d2)):
        slack = receiver_precision(s2, n1, n2, d[l], d[l + 2]) - 1.0 / target
        d[l] = min(d[l] + slack * n1**2, n1)
        slack = receiver_precision(s2, n1, n2, d[l], d[l + 2]) - 1.0 / target
        # Past n2 only by roundoff, which grows with n2/n1; the final in_P check
        # rejects a clamped point that misses the equality.
        d[l + 2] = min(d[l + 2] + max(slack, 0.0) * n2**2, n2)
        precision = receiver_precision(*exact, Fraction(d[l]), Fraction(d[l + 2]))
        if precision < 1 / Fraction(target):
            lowered = Fraction(d[l]) - (1 / Fraction(target) - precision) * exact[1] ** 2
            below = float(lowered)
            d[l] = max(0.0, below if below <= lowered else math.nextafter(below, 0.0))

    # Lower each t_k toward central equality, stopping at its box floor; t_2
    # only while the central constraint is still slack.
    n, t = (n1, n2), [p.t1, p.t2]
    for k in (0, 1):
        u = [math.exp(-2.0 * tk) for tk in t]
        if k == 1 and not central_precision(s2, n1, n2, *u) > 1.0 / targets.d0:
            break
        y = min(d[2 * k], d[2 * k + 1])
        floor = -0.5 * math.log(y / n[k]) if y > 0 else math.inf
        need = 1.0 / targets.d0 - 1.0 / s2 - (1.0 - u[1 - k]) / n[1 - k]
        u_eq = 1.0 - n[k] * need
        t_eq = -0.5 * math.log(u_eq) if 0.0 < u_eq <= 1.0 else 0.0
        t[k] = max(floor, min(t[k], t_eq))
    out = BoundParams(*d, *t)
    if in_P(model, targets, out) is None:
        raise DomainError(
            "projection did not reach the critical manifold; input lies outside "
            "the admissible set within tolerance"
        )
    return out


def _sup_r_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
    """sup_s r_1 + sup_s r_2 at x = (y_11, y_12, y_21, y_22, t_1, t_2), with y = d/n,
    and its Danskin gradient: the gradient of r at the maximising s.

    With sigma = s/n, r no longer depends on n, so both encoders are one
    call of ``_sup_points`` at n = 1.  As under ``np.argmax``, the first
    largest candidate is the maximiser.
    """
    y11, y12, y21, y22, t1, t2 = x.tolist()
    points = ((y11, y12, t1), (y21, y22, t2))
    value, grad_y, grad_t = 0.0, [], []
    for (y1, y2, _), (s_vals, r_vals, e) in zip(points, _sup_points(1.0, points)):
        k = max(range(4), key=r_vals.__getitem__)
        s, value = s_vals[k], value + r_vals[k]
        if not math.isfinite(s):  # the s -> inf limit, r = t
            grad_y += [0.0, 0.0]
            grad_t.append(1.0)
            continue
        grad_y += [-0.5 / (y1 + s), -0.5 / (y2 + s)]
        # d/dt r = s / (e^{-2t} + s): 0 at s = 0 even where e^{-2t} underflows.
        grad_t.append(s / (e + s) if s > 0.0 else 0.0)
    return value, np.array(grad_y + grad_t)


@dataclass(frozen=True)
class LowerBoundResult:
    """Value and argmin of the sum-rate lower bound."""

    value: float
    argmin: BoundParams
    branch: PBranch
    sigma_z: tuple[float, float]


def lower_bound(
    model: SourceModel,
    targets: DistortionTriple,
    grid: int = DEFAULT_GRID,
    refine: int = 2,
) -> LowerBoundResult:
    """Infimum of the bound objective over the critical manifold, as one convex solve.

    The objective sup_s r_1 + sup_s r_2 is convex in p, and so is the
    admissible set F, whose infimum equals the one over P (``project_to_P``
    maps F onto P without raising the objective).  SLSQP minimises it over F
    in the scale-free coordinates (d/n, t), from one closed-form point: (d_11,
    d_12) at the middle of their range over P, d_21, d_22 on the receiver
    equalities, and e^{-2t} on the box floor, scaled down by one common factor
    until the central constraint holds.  On a convex program the start changes
    only the solver's path.  The solver's point is projected onto P, and
    ``in_P`` names the branch.  Unless SLSQP exits with status 0 on a point
    already in P, it reruns once: from the projected point if there is one,
    else from the start with y <= 1 - 1e-3; the lower projected point is the
    argmin.  There is no search.

    ``grid`` and ``refine`` are accepted and validated but unused; they sized a
    starting scan that the closed-form start replaces.  Raises what
    ``require_valid_targets`` raises; InfeasibleTargetsError naming d0 when
    neither run ends on a point that projects; and InvalidParamsError unless
    ``grid`` is an integer >= MIN_GRID and ``refine`` an integer >= 0.
    """
    require_int("grid", grid, MIN_GRID)
    require_int("refine", refine, 0)
    require_valid_targets(model, targets)
    s2, n1, n2 = model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2
    # Precision each receiver must gain over the prior: (1 - d_1l/n_1)/n_1
    # + (1 - d_2l/n_2)/n_2 >= q_l, and likewise with e^{-2t} for the central one.
    q = [1.0 / d - 1.0 / s2 for d in (targets.d1, targets.d2, targets.d0)]
    const = 0.5 * math.log(s2 * s2 / (targets.d1 * targets.d2))

    def lift_t(y11, y12, y21, y22, u1=1.0, u2=1.0):
        """(t_1, t_2) from e^{-2t} = u, with u capped at the box floors min(y)
        and then scaled down by one common factor until the central constraint holds."""
        u = min(u1, y11, y12), min(u2, y21, y22)
        room, need = 1.0 / n1 + 1.0 / n2 - q[2], u[0] / n1 + u[1] / n2
        scale = room / need if need > room else 1.0
        return tuple(-0.5 * math.log(scale * uk) if scale * uk > 0.0 else math.inf for uk in u)

    # The start: y_1l at the middle of the range where receiver l's equality
    # holds with y_2l in [0, 1], and y_2l on that equality.  d0 above the
    # remote-MMSE floor makes the room for the central gain positive, so
    # lift_t puts the start in F.
    y11, y12 = (0.5 * (max(0.0, 1.0 - n1 * g) + min(1.0, 1.0 - n1 * g + n1 / n2)) for g in q[:2])
    y21, y22 = (min(max(1.0 - n2 * (g - (1.0 - y) / n1), 0.0), 1.0) for g, y in zip(q, (y11, y12)))
    x0 = np.array([y11, y12, y21, y22, *lift_t(y11, y12, y21, y22)])

    # Constraints >= 0, each scaled to O(1): the receiver gains over their
    # targets (linear), the box floors log y + 2t, and the central gain.  A
    # target that rounds to 1/d = 1/sigma_s2 needs no gain, and y <= 1 meets it.
    needs_gain = np.array(q[:2]) > 0.0
    gain = np.array([[1.0 / n1, 0.0, 1.0 / n2, 0.0], [0.0, 1.0 / n1, 0.0, 1.0 / n2]])
    gain /= np.where(needs_gain, q[:2], 1.0)[:, None]
    gain0 = np.array([1.0 / n1, 1.0 / n2]) / q[2]
    pick_2t = 2.0 * np.repeat(np.eye(2), 2, axis=0)  # 2 t_k against each y_kl
    # Both callbacks fill one array each, which SLSQP copies out after each call;
    # the Jacobian's constant blocks are set once, and its y-diagonal is a view.
    con, jac = np.empty(7), np.zeros((7, 6))
    jac[:2, :4], jac[2:6, 4:] = -gain, pick_2t
    jac_log_y = np.einsum("ii->i", jac[2:6, :4])

    def con_fun(x: np.ndarray) -> np.ndarray:
        con[:2] = gain @ (1.0 - x[:4]) - needs_gain
        con[2:6] = np.log(x[:4]) + pick_2t @ x[4:]
        con[6] = -np.expm1(-2.0 * x[4:]) @ gain0 - 1.0
        return con

    def con_jac(x: np.ndarray) -> np.ndarray:
        jac_log_y[:] = 1.0 / x[:4]
        jac[6, 4:] = 2.0 * np.exp(-2.0 * x[4:]) * gain0
        return jac

    constraints = {"type": "ineq", "fun": con_fun, "jac": con_jac}

    def solved(start: np.ndarray) -> tuple[bool, BoundParams | None]:
        """SLSQP's point from start, y clipped into [0, 1] and t lifted onto F, then
        projected onto P, and whether SLSQP converged (status 0) on a point already
        in P.  The point is None when it does not project or SLSQP exits with status
        4 ("inequality constraints incompatible"), which leaves it on its start."""
        # y stays off 0, where log y is -inf; the box floor keeps the minimiser above it anyway.
        result = scipy.optimize.minimize(
            _sup_r_grad,
            start,
            jac=True,
            method="SLSQP",
            bounds=[(1e-300, 1.0)] * 4 + [(0.0, None)] * 2,
            constraints=constraints,
            options={"maxiter": 200, "ftol": 1e-15},
        )
        if result.status == 4:
            return False, None
        y = np.clip(result.x[:4], 0.0, 1.0).tolist()
        u = np.exp(-2.0 * result.x[4:]).tolist()
        try:
            p = BoundParams(n1 * y[0], n1 * y[1], n2 * y[2], n2 * y[3], *lift_t(*y, *u))
            settled = result.status == 0 and in_P(model, targets, p) is not None
            return settled, project_to_P(model, targets, p)
        except (DomainError, InvalidParamsError):
            return False, None

    def sup_terms(p: BoundParams) -> list[tuple[float, float]]:
        """Each encoder's (argmax, value) of its sup over the channel variance at p."""
        return [sup_sigma_z(model.noise_var(k), *p.encoder(k)) for k in (1, 2)]

    settled, argmin = solved(x0)
    if not settled:
        # Projecting the point of an unconverged run can raise the value, and a
        # run can stop short of the minimum where the objective is flat in t, so
        # the rerun starts from the projected point when there is one.
        if argmin is None:
            start = np.r_[np.minimum(x0[:4], 1.0 - 1e-3), x0[4:]]
        else:
            start = np.array(astuple(argmin)) / [n1, n1, n2, n2, 1.0, 1.0]
        found = [p for p in (argmin, solved(start)[1]) if p is not None]
        argmin = min(found, key=lambda p: sum(v for _, v in sup_terms(p)), default=None)
    if argmin is None:
        raise InfeasibleTargetsError(
            "neither SLSQP run ends on a point that projects onto the critical manifold",
            constraint="d0",
        )
    (sz1, v1), (sz2, v2) = sup_terms(argmin)
    branch = in_P(model, targets, argmin)
    return LowerBoundResult(value=v1 + v2 + const, argmin=argmin, branch=branch, sigma_z=(sz1, sz2))
