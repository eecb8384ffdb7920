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
scale-free coordinates (d/n, t), from the best point of a refined grid scan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass
from enum import Enum

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
#: Fewest grid points per axis: two scan only the box corners.
MIN_GRID = 3
#: Grid points per axis of ``lower_bound``'s starting scan unless one is given.
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
    """r(d1, d2, t, s), elementwise on arrays; callers silence numpy's warnings.
    Finite apart from the limits d + s = 0 and t = inf: a log whose argument
    leaves the float range (s = 0 with d1, d2 near 0, or t large) is taken term
    by term."""
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

    in nats, from the array form ``_r``.  ``sigma_z2 = inf`` returns the exact
    limit t.  At ``t = inf`` the limit is exact too: t cancels at s = 0,
    leaving (1/2) log(n^2 / (d1 d2)), and r = inf for every s > 0.
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


def _sup_candidates(n: float, d1, d2, t) -> tuple[list, list]:
    """Candidate maximizers of r over s >= 0 and their values, elementwise.

    Returns (s, r) lists over four candidates: s = 0, the two roots of the
    stationarity quadratic a s^2 + b s + c = 0 (the linear root twice when
    a = 0), and the s -> inf limit with its exact value t.  A root that is
    not real, positive and finite carries r = -inf.  At t = inf every s > 0
    gives r = inf, which the limit candidate alone represents.
    """
    d1, d2, t = np.asarray(d1), np.asarray(d2), np.asarray(t)
    e = n * np.exp(-2.0 * t)
    a = (d1 + d2) - (e + n)
    b = 2.0 * (d1 * d2 - e * n)
    c = (e + n) * d1 * d2 - e * n * (d1 + d2)
    finite_t = np.isfinite(t)
    s_vals, r_vals = [0.0], []
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        r_vals.append(np.where(finite_t, _r(n, d1, d2, t, 0.0), -np.inf))
        disc = b * b - 4.0 * a * c
        sq = np.sqrt(np.maximum(disc, 0.0))
        for sgn in (1.0, -1.0):
            root = np.where(
                np.abs(a) > 0.0,
                (-b + sgn * sq) / np.where(np.abs(a) > 0.0, 2.0 * a, 1.0),
                np.where(np.abs(b) > 0.0, -c / np.where(np.abs(b) > 0.0, b, 1.0), -1.0),
            )
            ok = (disc >= 0.0) & (root > 0.0) & np.isfinite(root) & finite_t
            s_vals.append(root)
            r_vals.append(np.where(ok, _r(n, d1, d2, t, np.where(ok, root, 1.0)), -np.inf))
    s_vals.append(math.inf)
    r_vals.append(t)
    return s_vals, r_vals


def _sup_r_vec(n: float, d1: np.ndarray, d2: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectorised sup over s >= 0 of r: the largest candidate value."""
    return functools.reduce(np.maximum, _sup_candidates(n, d1, d2, t)[1])


def sup_sigma_z(sigma_n2: float, d1: float, d2: float, t: float) -> tuple[float, float]:
    """(argmax, value) of r over the channel variance s in [0, inf).

    Candidates are s = 0, the nonnegative real roots of the stationarity
    quadratic, and the s -> inf limit (value t, argmax reported as inf).
    Ties resolve toward the smallest s: a candidate replaces the incumbent
    only when it is larger by more than 1e-15.
    """
    _require_in_box(sigma_n2, d1, d2, t)
    s_vals, r_vals = _sup_candidates(sigma_n2, d1, d2, t)
    candidates = sorted((float(s), float(r)) for s, r in zip(s_vals, r_vals) if r > -math.inf)
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
    and t rises only to its box floor; otherwise d components never decrease,
    t components never increase, and points already critical return unchanged.
    """
    if not in_F(model, targets, p):
        raise DomainError("projection input must lie in the admissible set F")
    s2, n1, n2 = model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2
    d = [p.d11, p.d12, p.d21, p.d22]  # d_kl at index 2(k - 1) + (l - 1)
    for l, target in enumerate((targets.d1, targets.d2)):
        slack = receiver_precision(s2, n1, n2, d[l], d[l + 2]) - 1.0 / target
        d[l] = min(d[l] + slack * n1**2, n1)
        slack = receiver_precision(s2, n1, n2, d[l], d[l + 2]) - 1.0 / target
        # Past n2 only by roundoff, which grows with n2/n1; the final in_P check
        # rejects a clamped point that misses the equality.
        d[l + 2] = min(d[l + 2] + max(slack, 0.0) * n2**2, n2)

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


def _grid_search(evaluate, box, n_pts: int, refine: int):
    """Grid minimum of ``evaluate`` over an N-axis box, refined.

    ``evaluate(*axes)`` returns the objective on the outer product of the
    axes (inf where infeasible).  Each of the ``refine`` extra passes shrinks
    the window 8x around the incumbent; ties go to the first grid point in
    C order.  Returns (inf, None) when no grid point is feasible.
    """
    best, best_at = math.inf, None
    axes = [np.linspace(lo, hi, n_pts) for lo, hi in box]
    span = [hi - lo for lo, hi in box]
    for _ in range(refine + 1):
        obj = evaluate(*axes)
        at = np.unravel_index(int(np.argmin(obj)), obj.shape)
        if obj[at] < best:
            best = float(obj[at])
            best_at = tuple(float(axis[i]) for axis, i in zip(axes, at))
        if best_at is None:
            return best, best_at
        span = [sp / 8.0 for sp in span]
        axes = [
            np.linspace(max(lo, c - sp / 2), min(hi, c + sp / 2), n_pts)
            for (lo, hi), c, sp in zip(box, best_at, span)
        ]
    return best, best_at


def _sup_r_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
    """sup_s r_1 + sup_s r_2 at x = (y_11, y_12, y_21, y_22, t_1, t_2), with y = d/n,
    and its Danskin gradient: the gradient of r at the maximising s.

    With sigma = s/n, r no longer depends on n, so both encoders are one
    call of ``_sup_candidates`` at n = 1.
    """
    y1, y2, t = x[[0, 2]], x[[1, 3]], x[4:]
    s_vals, r_vals = _sup_candidates(1.0, y1, y2, t)
    r = np.array(r_vals)
    k = np.argmax(r, axis=0)
    sigma = np.choose(k, s_vals)
    finite = np.isfinite(sigma)
    s = np.where(finite, sigma, 0.0)
    grad = np.empty(6)
    grad[[0, 2]] = np.where(finite, -0.5 / (y1 + s), 0.0)
    grad[[1, 3]] = np.where(finite, -0.5 / (y2 + s), 0.0)
    # d/dt r = s / (e^{-2t} + s): 0 at s = 0 even where e^{-2t} underflows.
    grad[4:] = np.where(finite, s / np.where(s > 0.0, np.exp(-2.0 * t) + s, 1.0), 1.0)
    return float(r.max(axis=0).sum()), grad


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
    in the scale-free coordinates (d/n, t), from the best point of a
    ``grid`` x ``grid`` scan over (d_11, d_12) with ``refine`` passes that
    shrink the window 8x around the incumbent; the scan puts d_21, d_22 on the
    receiver equalities and e^{-2t} on the box floor, scaled down by one
    common factor until the central constraint holds.  The solver's point is
    projected onto P, and ``in_P`` names the branch.  After a status-4 exit or a
    point that does not project, SLSQP reruns once from the start with
    y <= 1 - 1e-3; there is no search.

    Raises what ``require_valid_targets`` raises; InfeasibleTargetsError naming
    d0 when the scan finds the critical manifold empty, or when neither run
    ends on a point that projects; and InvalidParamsError unless ``grid`` is an
    integer >= MIN_GRID (two points per axis scan only the box corners and miss
    a manifold that is not empty) and ``refine`` an integer >= 0.
    """
    grid = require_int("grid", grid, MIN_GRID)
    refine = require_int("refine", refine, 0)
    require_valid_targets(model, targets)
    s2, n1, n2 = model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2
    # Precision each receiver must gain over the prior: (1 - d_1l/n_1)/n_1
    # + (1 - d_2l/n_2)/n_2 >= q_l, and likewise with e^{-2t} for the central one.
    q = np.array([1.0 / targets.d1, 1.0 / targets.d2, 1.0 / targets.d0]) - 1.0 / s2
    const = 0.5 * math.log(s2 * s2 / (targets.d1 * targets.d2))

    def lift_t(y11, y12, y21, y22, u1=1.0, u2=1.0):
        """(t_1, t_2) from e^{-2t} = u, with u capped at the box floors min(y)
        and then scaled down by one common factor until the central constraint holds."""
        u1, u2 = np.minimum(u1, np.minimum(y11, y12)), np.minimum(u2, np.minimum(y21, y22))
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.minimum(1.0, (1.0 / n1 + 1.0 / n2 - q[2]) / (u1 / n1 + u2 / n2))
            return -0.5 * np.log(scale * u1), -0.5 * np.log(scale * u2)

    def complete(y11, y12):
        """The scan's point at (y_11, y_12): d_21, d_22 on the receiver equalities."""
        y21 = np.clip(1.0 - n2 * (q[0] - (1.0 - y11) / n1), 0.0, 1.0)
        y22 = np.clip(1.0 - n2 * (q[1] - (1.0 - y12) / n1), 0.0, 1.0)
        return (y21, y22) + lift_t(y11, y12, y21, y22)

    def scan(ys1: np.ndarray, ys2: np.ndarray) -> np.ndarray:
        y11, y12 = ys1[:, None], ys2[None, :]
        y21, y22, t1, t2 = complete(y11, y12)
        with np.errstate(invalid="ignore"):
            obj = _sup_r_vec(1.0, y11, y12, t1) + _sup_r_vec(1.0, y21, y22, t2)
        return np.where(np.isfinite(obj), obj, np.inf)

    box = [(max(0.0, 1.0 - n1 * need), min(1.0, 1.0 - n1 * need + n1 / n2)) for need in q[:2]]
    best, best_at = _grid_search(scan, box, grid, refine)
    if not math.isfinite(best):
        raise InfeasibleTargetsError(
            "the critical manifold is empty for these targets", constraint="d0"
        )
    x0 = np.array(best_at + tuple(float(v) for v in complete(*best_at)))

    # Constraints >= 0, each scaled to O(1): the receiver gains over their
    # targets (linear), the box floors log y + 2t, and the central gain.  A
    # target that rounds to 1/d = 1/sigma_s2 needs no gain, and y <= 1 meets it.
    needs_gain = q[:2] > 0.0
    gain = np.array([[1.0 / n1, 0.0, 1.0 / n2, 0.0], [0.0, 1.0 / n1, 0.0, 1.0 / n2]])
    gain /= np.where(needs_gain, q[:2], 1.0)[:, None]
    gain0 = np.array([1.0 / n1, 1.0 / n2]) / q[2]
    pick_t = np.repeat(np.eye(2), 2, axis=0)
    constraints = {
        "type": "ineq",
        "fun": lambda x: np.r_[
            gain @ (1.0 - x[:4]) - needs_gain,
            np.log(x[:4]) + 2.0 * pick_t @ x[4:],
            -np.expm1(-2.0 * x[4:]) @ gain0 - 1.0,
        ],
        "jac": lambda x: np.block(
            [
                [-gain, np.zeros((2, 2))],
                [np.diag(1.0 / x[:4]), 2.0 * pick_t],
                [np.zeros((1, 4)), 2.0 * np.exp(-2.0 * x[4:]) * gain0],
            ]
        ),
    }

    def solved(start: np.ndarray) -> BoundParams | None:
        """SLSQP's point from start, y clipped into [0, 1] and t lifted onto F, then
        projected onto P; None when it does not project or SLSQP exits with status 4
        ("inequality constraints incompatible"), which leaves it on its start."""
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
            return None
        y = np.clip(result.x[:4], 0.0, 1.0)
        try:
            p = BoundParams(*(n1 * y[:2]), *(n2 * y[2:]), *lift_t(*y, *np.exp(-2.0 * result.x[4:])))
            return project_to_P(model, targets, p)
        except (DomainError, InvalidParamsError):
            return None

    argmin = solved(x0)
    if argmin is None:
        argmin = solved(np.r_[np.minimum(x0[:4], 1.0 - 1e-3), x0[4:]])
    if argmin is None:
        raise InfeasibleTargetsError(
            "neither SLSQP run ends on a point that projects onto the critical manifold",
            constraint="d0",
        )
    branch = in_P(model, targets, argmin)
    (sz1, v1), (sz2, v2) = (sup_sigma_z(model.noise_var(k), *argmin.encoder(k)) for k in (1, 2))
    return LowerBoundResult(value=v1 + v2 + const, argmin=argmin, branch=branch, sigma_z=(sz1, sz2))
