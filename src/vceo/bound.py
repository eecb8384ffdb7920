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
limit value t as a closed-form candidate.  The outer inf runs on the two
branch manifolds after eliminating the equality constraints, on a refined
grid with deterministic first-occurrence tie-breaking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.optimize

from .errors import DomainError, InfeasibleTargetsError, InvalidParamsError
from .gaussmodel import SourceModel
from .scheme import DistortionTriple, central_precision, receiver_precision, require_valid_targets

__all__ = [
    "BoundParams",
    "PBranch",
    "LowerBoundResult",
    "in_F_k",
    "in_F",
    "r_fn",
    "distortion_condition",
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


@dataclass(frozen=True)
class BoundParams:
    """Converse parameter vector (d_11, d_12, d_21, d_22, t_1, t_2)."""

    d11: float
    d12: float
    d21: float
    d22: float
    t1: float
    t2: float

    def __post_init__(self) -> None:
        for name in ("d11", "d12", "d21", "d22"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
                raise InvalidParamsError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, float(v))
        for name in ("t1", "t2"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and not math.isnan(v) and v >= 0):
                raise InvalidParamsError(f"{name} must be >= 0 (inf allowed), got {v!r}")
            object.__setattr__(self, name, float(v))

    def encoder(self, k: int) -> tuple[float, float, float]:
        """(d_k1, d_k2, t_k) of encoder ``k``."""
        if k == 1:
            return self.d11, self.d12, self.t1
        if k == 2:
            return self.d21, self.d22, self.t2
        raise InvalidParamsError(f"encoder index must be 1 or 2, got {k!r}")


class PBranch(Enum):
    P1 = "P1"
    P2 = "P2"


def in_F_k(sigma_n2: float, d1: float, d2: float, t: float, rtol: float = BOX_RTOL) -> bool:
    """Membership in encoder box: n e^{-2t} <= min(d1, d2) and max(d1, d2) <= n."""
    if not (d1 >= 0 and d2 >= 0 and t >= 0):
        return False
    u = math.exp(-2.0 * t)
    slack = rtol * sigma_n2
    return sigma_n2 * u <= min(d1, d2) + slack and max(d1, d2) <= sigma_n2 + slack


def _precision_rhs(model: SourceModel, p: BoundParams) -> tuple[float, float, float]:
    """Right-hand sides at p of the three distortion inequalities (receivers 1, 2, central)."""
    s2, n1, n2 = model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2
    return (
        receiver_precision(s2, n1, n2, p.d11, p.d21),
        receiver_precision(s2, n1, n2, p.d12, p.d22),
        central_precision(s2, n1, n2, math.exp(-2.0 * p.t1), math.exp(-2.0 * p.t2)),
    )


def in_F(
    model: SourceModel,
    targets: DistortionTriple,
    p: BoundParams,
    rtol: float = EQUALITY_RTOL,
) -> bool:
    """Membership in the full admissible set F for the given targets."""
    for k in (1, 2):
        if not in_F_k(model.noise_var(k), *p.encoder(k)):
            return False
    rhs1, rhs2, rhs0 = _precision_rhs(model, p)
    if 1.0 / targets.d1 > rhs1 * (1.0 + rtol):
        return False
    if 1.0 / targets.d2 > rhs2 * (1.0 + rtol):
        return False
    return 1.0 / targets.d0 <= rhs0 * (1.0 + rtol)


def distortion_condition(
    sigma_s2: float, sigma_n1_2: float, sigma_n2_2: float, d1: float, d2: float, d0: float
) -> bool:
    """The distortion-regime predicate under which the bound is tight:

    1/D_1 + 1/D_2 - max(1/n_1, 1/n_2) - 1/sigma_s2 >= 1/D_0,

    on plain floats, so that it can be evaluated for values that do not
    form a valid model or target triple.
    """
    lhs = 1.0 / d1 + 1.0 / d2 - max(1.0 / sigma_n1_2, 1.0 / sigma_n2_2) - 1.0 / sigma_s2
    return lhs >= 1.0 / d0


def condition_holds(model: SourceModel, targets: DistortionTriple) -> bool:
    """``distortion_condition`` of a model and its targets."""
    return distortion_condition(
        model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2, targets.d1, targets.d2, targets.d0
    )


def _r(n, d1, d2, t, s, xp=np):
    """r(d1, d2, t, s) for finite t; ``xp`` is ``math`` for floats, ``numpy`` for arrays."""
    return t + 0.5 * xp.log((n + s) / ((d1 + s) * (d2 + s))) + 0.5 * xp.log(
        n * xp.exp(-2.0 * t) + s
    )


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

    in nats.  ``sigma_z2 = inf`` returns the exact limit t.  At ``t = inf``
    the limit is exact too: t cancels at s = 0, leaving
    (1/2) log(n^2 / (d1 d2)), and r = inf for every s > 0.
    """
    _require_in_box(sigma_n2, d1, d2, t)
    if not sigma_z2 >= 0.0:
        raise DomainError(f"sigma_z2 must be >= 0, got {sigma_z2!r}")
    if math.isinf(sigma_z2):
        return t
    s = float(sigma_z2)
    if math.isinf(t) and s == 0.0:
        return 0.5 * math.log(sigma_n2 * sigma_n2 / (d1 * d2)) if d1 * d2 > 0.0 else math.inf
    return _r(sigma_n2, d1, d2, t, s, math)


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
    with np.errstate(invalid="ignore", divide="ignore"):
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


def in_P(
    model: SourceModel,
    targets: DistortionTriple,
    p: BoundParams,
    rtol: float = EQUALITY_RTOL,
) -> PBranch | None:
    """Critical-manifold membership: P1, P2, or None.

    Both branches require the two individual-receiver inequalities to hold
    with equality (relative tolerance ``rtol``).  P1 additionally has central
    equality; P2 has strict central slack with both t pinned to the box floor
    n_k e^{-2 t_k} = min(d_k1, d_k2).
    """
    if not in_F(model, targets, p, rtol=rtol):
        return None

    def _eq(x: float, y: float) -> bool:
        return abs(x - y) <= rtol * max(abs(x), abs(y))

    rhs1, rhs2, central = _precision_rhs(model, p)
    if not (_eq(1.0 / targets.d1, rhs1) and _eq(1.0 / targets.d2, rhs2)):
        return None
    if _eq(1.0 / targets.d0, central):
        return PBranch.P1
    pinned = all(
        _eq(model.noise_var(k) * math.exp(-2.0 * p.encoder(k)[2]), min(p.encoder(k)[:2]))
        for k in (1, 2)
    )
    if central > 1.0 / targets.d0 and pinned:
        return PBranch.P2
    return None


def project_to_P(model: SourceModel, targets: DistortionTriple, p: BoundParams) -> BoundParams:
    """Move an admissible point onto the critical manifold.

    Follows the constructive argument: raise d_11, d_12 to the individual
    equalities or to the n_1 cap, then d_21, d_22 to the equalities; lower t_1
    to central equality or to its box floor, then t_2 likewise.  d components
    never decrease, t components never increase, and points already critical
    return unchanged.
    """
    if not in_F(model, targets, p):
        raise DomainError("projection input must lie in the admissible set F")
    s2, n1, n2 = model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2
    d = {"d11": p.d11, "d12": p.d12, "d21": p.d21, "d22": p.d22}
    for l, target in ((1, targets.d1), (2, targets.d2)):
        key1, key2 = f"d1{l}", f"d2{l}"
        slack = receiver_precision(s2, n1, n2, d[key1], d[key2]) - 1.0 / target
        if slack < 0.0:  # only tolerance-level negativity possible for p in F
            slack = 0.0
        d[key1] = min(d[key1] + slack * n1**2, n1)
        slack = receiver_precision(s2, n1, n2, d[key1], d[key2]) - 1.0 / target
        d[key2] = d[key2] + max(slack, 0.0) * n2**2
        if d[key2] > n2 * (1.0 + BOX_RTOL):
            raise DomainError(
                f"receiver-{l} equality is unreachable inside the box; targets are "
                "inconsistent with the admissible set"
            )
        d[key2] = min(d[key2], n2)

    t1, t2 = p.t1, p.t2
    floor1 = -0.5 * math.log(min(d["d11"], d["d12"]) / n1) if min(d["d11"], d["d12"]) > 0 else math.inf
    floor2 = -0.5 * math.log(min(d["d21"], d["d22"]) / n2) if min(d["d21"], d["d22"]) > 0 else math.inf
    # Lower t_1 toward central equality, stopping at the box floor.
    need = 1.0 / targets.d0 - 1.0 / s2 - (1.0 - math.exp(-2.0 * t2)) / n2
    u_eq = 1.0 - n1 * need
    t_eq = -0.5 * math.log(u_eq) if 0.0 < u_eq <= 1.0 else 0.0
    t1 = min(t1, max(floor1, t_eq))
    if central_precision(s2, n1, n2, math.exp(-2.0 * t1), math.exp(-2.0 * t2)) > 1.0 / targets.d0:
        need = 1.0 / targets.d0 - 1.0 / s2 - (1.0 - math.exp(-2.0 * t1)) / n1
        u_eq = 1.0 - n2 * need
        t_eq = -0.5 * math.log(u_eq) if 0.0 < u_eq <= 1.0 else 0.0
        t2 = min(t2, max(floor2, t_eq))
    out = BoundParams(d["d11"], d["d12"], d["d21"], d["d22"], t1, t2)
    if in_P(model, targets, out) is None:
        raise DomainError(
            "projection did not reach the critical manifold; input lies outside "
            "the admissible set within tolerance"
        )
    return out


def _nm_polish(fun, best_val, best_at, box):
    """Simplex polish of a grid incumbent, clipped into the branch box."""
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])

    def clipped(v: np.ndarray) -> float:
        return fun(np.clip(v, lo, hi))

    res = scipy.optimize.minimize(
        clipped,
        np.array(best_at),
        method="Nelder-Mead",
        options={"maxiter": 800, "xatol": 1e-12, "fatol": 1e-14, "adaptive": True},
    )
    if math.isfinite(res.fun) and res.fun < best_val:
        at = np.clip(np.asarray(res.x), lo, hi)
        return float(res.fun), tuple(float(v) for v in at)
    return best_val, best_at


def _grid_search(evaluate, box, n_pts: int, refine: int):
    """Grid minimum of ``evaluate`` over an N-axis box, refined, then polished.

    ``evaluate(*axes)`` returns the objective on the outer product of the
    axes (inf where infeasible).  Each of the ``refine`` extra passes shrinks
    the window 8x around the incumbent; ties go to the first grid point in
    C order.  Returns (inf, None) when no grid point is feasible.
    """
    best, best_at = math.inf, None
    axes = [np.linspace(lo, hi, n_pts) for lo, hi in box]
    span = [hi - lo for lo, hi in box]
    for _ in range(max(int(refine), 0) + 1):
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
    # The grid minimum overestimates the infimum; a simplex polish on the
    # manifold coordinates removes the residual so weak duality holds to
    # the stated 1e-9 slack against near-optimal schemes.
    return _nm_polish(lambda v: evaluate(*v[:, None]).item(), best, best_at, box)


@dataclass(frozen=True)
class LowerBoundResult:
    """Value and argmin of the sum-rate lower bound."""

    value: float
    argmin: BoundParams
    branch: PBranch
    sigma_z: tuple[float, float]
    branch_values: dict[PBranch, float]


def lower_bound(
    model: SourceModel,
    targets: DistortionTriple,
    grid: int = 64,
    refine: int = 2,
) -> LowerBoundResult:
    """Infimum of the bound objective over the critical manifold.

    Branch P1 is parametrised by (d_11, d_12, t_1) with the other three
    coordinates eliminated through the three equalities; branch P2 by
    (d_11, d_12) with both t pinned to the box floor.  Each branch runs a
    ``grid``-point-per-axis scan with ``refine`` passes shrinking the window
    8x around the incumbent; the reported value is the better branch.

    Raises InfeasibleTargetsError when the critical manifold is empty (a
    target below the remote MMSE floor), naming the violated constraint, and
    InvalidParamsError for ``grid < MIN_GRID``: two points per axis scan
    only the box corners and miss a manifold that is not empty.
    """
    if grid < MIN_GRID:
        raise InvalidParamsError(f"grid must be >= {MIN_GRID}, got {grid!r}")
    require_valid_targets(model, targets)
    s2, n1, n2 = model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2
    c1 = receiver_precision(s2, n1, n2, 0.0, 0.0) - 1.0 / targets.d1
    c2 = receiver_precision(s2, n1, n2, 0.0, 0.0) - 1.0 / targets.d2
    c0 = 1.0 / targets.d0 - 1.0 / s2
    for name, c in (("d1", c1), ("d2", c2)):
        if c < 0.0:
            raise InfeasibleTargetsError(
                f"target {name} is below the remote MMSE floor; the admissible set is empty",
                constraint=name,
            )
    if c0 > 1.0 / n1 + 1.0 / n2:
        raise InfeasibleTargetsError(
            "central target d0 is below the remote MMSE floor; the admissible set is empty",
            constraint="d0",
        )
    const = 0.5 * math.log(s2 * s2 / (targets.d1 * targets.d2))

    x_lo = max(0.0, n1 * n1 * (c1 - 1.0 / n2))
    x_hi = min(n1, n1 * n1 * c1)
    y_lo = max(0.0, n1 * n1 * (c2 - 1.0 / n2))
    y_hi = min(n1, n1 * n1 * c2)
    if x_hi < x_lo or y_hi < y_lo:
        raise InfeasibleTargetsError(
            "individual-receiver equalities cannot be met inside the box",
            constraint="d1" if x_hi < x_lo else "d2",
        )

    def d2_of(x: np.ndarray, c: float) -> np.ndarray:
        return n2 * n2 * (c - x / (n1 * n1))

    def p1_map(x, y, tau):
        """Branch P1 at (d_11, d_12, tau): (d_21, d_22, u_1, u_2, feasible).

        u_1 = lo + (hi - lo) tau spans the central equality's admissible
        range given the box floors, and u_2 solves the central equality.
        """
        d21 = d2_of(x, c1)
        d22 = d2_of(y, c2)
        m1 = np.minimum(x, y)
        m2 = np.minimum(d21, d22)
        lo = np.maximum.reduce(
            [
                np.full_like(m2, 1e-14),
                np.full_like(m2, 1.0 - n1 * c0),
                1.0 - (n1 / n2) * (m2 / n2 - 1.0 + n2 * c0),
            ]
        )
        hi = np.minimum(1.0, m1 / n1)
        u1 = lo + (hi - lo) * tau
        u2 = 1.0 - n2 * (c0 - (1.0 - u1) / n1)
        feasible = (
            (hi >= lo)
            & (u2 > 0.0)
            & (u2 <= 1.0 + 1e-12)
            & (n2 * u2 <= m2 * (1.0 + 1e-12))
            & (n1 * u1 <= m1 * (1.0 + 1e-12))
        )
        return d21, d22, u1, u2, feasible

    def p2_map(x, y):
        """Branch P2 at (d_11, d_12): (d_21, d_22, u_1, u_2), both t on the box floor."""
        d21 = d2_of(x, c1)
        d22 = d2_of(y, c2)
        return d21, d22, np.minimum(x, y) / n1, np.minimum(d21, d22) / n2

    def eval_p1(xs: np.ndarray, ys: np.ndarray, taus: np.ndarray) -> np.ndarray:
        x = xs[:, None, None]
        y = ys[None, :, None]
        d21, d22, u1, u2, feasible = p1_map(x, y, taus[None, None, :])
        t1 = -0.5 * np.log(np.clip(u1, 1e-300, 1.0))
        t2 = -0.5 * np.log(np.clip(u2, 1e-300, 1.0))
        obj = _sup_r_vec(n1, x, y, t1) + _sup_r_vec(n2, d21, d22, t2)
        return np.where(feasible, obj, np.inf)

    def eval_p2(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        x = xs[:, None]
        y = ys[None, :]
        d21, d22, u1, u2 = p2_map(x, y)
        ok = (u1 > 0.0) & (u2 > 0.0)
        u1c = np.clip(u1, 1e-300, 1.0)
        u2c = np.clip(u2, 1e-300, 1.0)
        t1 = -0.5 * np.log(u1c)
        t2 = -0.5 * np.log(u2c)
        ok = ok & (central_precision(s2, n1, n2, u1c, u2c) > 1.0 / targets.d0)
        obj = _sup_r_vec(n1, x, y, t1) + _sup_r_vec(n2, d21, d22, t2)
        return np.where(ok, obj, np.inf)

    n_pts = int(grid)
    # Branch P1 over (d_11, d_12, tau); branch P2 over (d_11, d_12).
    best_p1, best_p1_at = _grid_search(
        eval_p1, ((x_lo, x_hi), (y_lo, y_hi), (0.0, 1.0)), n_pts, refine
    )
    best_p2, best_p2_at = _grid_search(eval_p2, ((x_lo, x_hi), (y_lo, y_hi)), n_pts, refine)

    branch_values = {PBranch.P1: best_p1 + const, PBranch.P2: best_p2 + const}
    if not math.isfinite(min(best_p1, best_p2)):
        raise InfeasibleTargetsError(
            "the critical manifold is empty for these targets", constraint="d0"
        )

    if best_p1 <= best_p2:
        branch = PBranch.P1
        x, y, tau = best_p1_at
        d21, d22, u1, u2, _ = p1_map(np.array(x), np.array(y), np.array(tau))
    else:
        branch = PBranch.P2
        x, y = best_p2_at
        d21, d22, u1, u2 = p2_map(np.array(x), np.array(y))
    t1, t2 = (-0.5 * math.log(u) if u > 0.0 else math.inf for u in (float(u1), float(u2)))
    argmin = BoundParams(x, y, float(d21), float(d22), t1, t2)

    sz1, _ = sup_sigma_z(n1, argmin.d11, argmin.d12, argmin.t1)
    sz2, _ = sup_sigma_z(n2, argmin.d21, argmin.d22, argmin.t2)
    return LowerBoundResult(
        value=branch_values[branch],
        argmin=argmin,
        branch=branch,
        sigma_z=(sz1, sz2),
        branch_values=branch_values,
    )
