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
objective, so the outer inf is one convex program over F.  In the scale-free
coordinates (d/n, e^{-2t}) every constraint of F is linear, and a plain-float
SQP (``_minimise``) solves it from one closed-form point of F.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

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
    input inside F's tolerance misses by roundoff is met again by lowering one
    d_kl, and t rises only to its box floor.  Lowering d_kl by the shortfall
    times n_k^2 moves y_kl = d_kl/n_k by the shortfall times n_k, so the d_kl
    lowered is that of the encoder with the smaller n_k, or of the other if it
    would fall below 0.  A receiver still missed in exact arithmetic after these
    float steps lowers that d_kl (d_1l for a receiver the input met) by its
    exact shortfall, rounded toward 0, so the output meets both receivers
    exactly.  Otherwise d components never decrease, t components never
    increase, and points already critical return unchanged.
    """
    if not in_F(model, targets, p):
        raise DomainError("projection input must lie in the admissible set F")
    s2, n1, n2 = model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2
    n, exact = (n1, n2), [Fraction(v) for v in (s2, n1, n2)]
    d = [p.d11, p.d12, p.d21, p.d22]  # d_kl at index 2(k - 1) + (l - 1)
    order = (0, 1) if n1 <= n2 else (1, 0)  # encoder indices, smaller n_k first
    for l, target in enumerate((targets.d1, targets.d2)):
        slack = receiver_precision(s2, n1, n2, d[l], d[l + 2]) - 1.0 / target
        k = 0  # the encoder whose d_kl meets a shortfall
        if slack < 0.0:
            k = next((k for k in order if d[2 * k + l] + slack * n[k] ** 2 >= 0.0), 0)
            d[2 * k + l] += slack * n[k] ** 2
        else:
            d[l] = min(d[l] + slack * n1**2, n1)
        slack = receiver_precision(s2, n1, n2, d[l], d[l + 2]) - 1.0 / target
        # Past n2 only by roundoff, which grows with n2/n1; the final in_P check
        # rejects a clamped point that misses the equality.
        d[l + 2] = min(d[l + 2] + max(slack, 0.0) * n2**2, n2)
        precision = receiver_precision(*exact, Fraction(d[l]), Fraction(d[l + 2]))
        if precision < 1 / Fraction(target):
            lowered = Fraction(d[2 * k + l]) - (1 / Fraction(target) - precision) * exact[1 + k] ** 2
            below = float(lowered)
            d[2 * k + l] = max(0.0, below if below <= lowered else math.nextafter(below, 0.0))

    # Lower each t_k toward central equality, stopping at its box floor; t_2
    # only while the central constraint is still slack.
    t = [p.t1, p.t2]
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


#: A step's coordinates: relative steps of (y_11, y_12, u_1, y_21, y_22, u_2), then tau_1, tau_2.
_NV = 8


def _piece(y1, y2, t, u, s, value, coupled=False):
    """(value, gradient, Hessian) of r at one encoder point (y1, y2, t), n = 1, in the
    relative step p = (dy1/y1, dy2/y2, du/u) at fixed s; ``coupled``, with s following
    an interior local maximum (Hessian + r_ps r_ps' / -r_ss), or None if it is none."""
    a1, a2, b = y1 / (y1 + s), y2 / (y2 + s), s / (u + s)
    c1, c2, bu = s / (y1 + s), s / (y2 + s), u / (u + s)
    hess = [[0.5 * a1 * a1, 0.0, 0.0], [0.0, 0.5 * a2 * a2, 0.0], [0.0, 0.0, 0.5 * b * (1.0 + bu)]]
    if coupled:  # s^2 times -r_ss, and s p_i times r_{p_i s}
        curv = 0.5 * ((s / (1.0 + s)) ** 2 + b * b - c1 * c1 - c2 * c2)
        if not curv > 1e-12:
            return None
        mix = (0.5 * a1 * c1, 0.5 * a2 * c2, -0.5 * bu * b)
        hess = [[h + m * mj / curv for h, mj in zip(row, mix)] for row, m in zip(hess, mix)]
    return value, (-0.5 * a1, -0.5 * a2, -0.5 * b), hess


def _pieces(y1, y2, t, sup):
    """The smooth pieces of sup_s r at one encoder point (``sup``, its ``_sup_points``
    entry) as ``_piece`` gives them, keyed by s: s = 0, the interior local maximum
    ("root") and the limit t at s = inf.  Each is at most the sup; the largest equals it."""
    s_vals, r_vals, u = sup
    out = {0.0: (r_vals[0], (-0.5, -0.5, 0.0), [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0] * 3])}
    for s, r in zip(s_vals[1:3], r_vals[1:3]):
        if r > -math.inf and "root" not in out and (piece := _piece(y1, y2, t, u, s, r, True)):
            out["root"] = piece
    out[math.inf] = (t, (0.0, 0.0, -0.5), [[0.0] * 3, [0.0] * 3, [0.0, 0.0, 0.5]])
    return out


def _fixed(y1, y2, t, u, s):
    """``_piece`` of r at the fixed channel variance s > 0."""
    value = t + 0.5 * (math.log1p(s) - math.log(y1 + s) - math.log(y2 + s) + math.log(u + s))
    return _piece(y1, y2, t, u, s, value)


def _cut(y1, y2, t, u, step):
    """The s of a log grid whose fixed-s piece of r has the linear model that rises
    most along ``step``: where the sup is flat in s, the piece the model underrates."""
    lo = math.log(min(y1, y2, u) or 1e-300) - 4.0
    grid = [math.exp(lo + (4.0 - lo) * i / 47) for i in range(48)]
    rise = lambda s: (c := _fixed(y1, y2, t, u, s))[0] + sum(g * p for g, p in zip(c[1], step))  # noqa: E731
    return max(grid, key=rise)


def _eliminate(tab, cols, tol):
    """Gauss-Jordan elimination in place over the first ``cols`` columns of ``tab``, each
    row pivoting on its largest entry in a column not yet taken; a row whose largest is
    at most ``tol`` depends on the earlier ones and is skipped.  Returns {column: row}."""
    basic = {}
    for r, row in enumerate(tab):
        j = max((c for c in range(cols) if c not in basic), key=lambda c: abs(row[c]), default=None)
        if j is None or abs(row[j]) <= tol:
            continue
        row = tab[r] = [x / row[j] for x in row]
        for other in tab:
            if other is not row and other[j]:
                other[:] = [x - other[j] * y for x, y in zip(other, row)]
        basic[j] = r
    return basic


def _eqp(hess, rows, work):
    """Minimiser of tau_1 + tau_2 + v'Hv/2 subject to a.v = b on the rows in ``work``:
    elimination of those rows, then the reduced Newton system on their null space.
    Returns v, its multipliers, and ``work`` less the rows that depend on earlier
    ones.  H is block diagonal: ``hess`` holds each encoder's 3 x 3 block."""
    m = len(work)
    tab = [[0.0] * _NV + [rows[i][0]] + [float(r == c) for c in range(m)] for r, i in enumerate(work)]
    for row, i in zip(tab, work):  # a, then b, then the identity that records the row operations
        for j, c in rows[i][1]:
            row[j] = c
    basic = _eliminate(tab, _NV, 1e-9)  # pivot column -> its row of tab

    def grad(v):  # H v, then the gradient of tau_1 + tau_2
        return [h0 * v[i] + h1 * v[i + 1] + h2 * v[i + 2] for i, block in ((0, hess[0]), (3, hess[1]))
                for h0, h1, h2 in block]

    free = [c for c in range(_NV) if c not in basic]
    null = [[-tab[basic[c]][f] if c in basic else float(c == f) for c in range(_NV)] for f in free]
    v = [tab[basic[c]][_NV] if c in basic else 0.0 for c in range(_NV)]
    g = grad(v) + [1.0, 1.0]
    h_null = [grad(z) for z in null]
    dot = lambda a, b: sum(x * y for x, y in zip(a, b))  # noqa: E731
    reduced = [[dot(z, hz) for hz in h_null] + [-dot(z, g)] for z in null]
    for c, r in _eliminate(reduced, len(null), 0.0).items():
        v = [a + reduced[r][-1] * b for a, b in zip(v, null[c])]
    g = grad(v) + [1.0, 1.0]
    kept = sorted(basic.values())
    lam = [sum(tab[r][_NV + 1 + i] * g[c] for c, r in basic.items()) for i in kept]
    return v, lam, [work[r] for r in kept]


def _qp(hess, rows, guess):
    """Minimiser of tau_1 + tau_2 + v'Hv/2 subject to a.v >= b on every row, where
    v = 0 is feasible and b = 0 marks the rows active there; with its working set and
    multipliers.  The equality solution on the working set ``guess`` is the answer
    when feasible with nonnegative multipliers.  Else the primal active-set method
    (Nocedal & Wright, Alg. 16.3) runs from v = 0 and the guessed rows active there,
    dropping by Bland's rule; where roundoff would make it cycle, it stops at a
    feasible v with None for the multipliers."""
    v, lam, work = _eqp(hess, rows, guess)
    if min(lam, default=0.0) >= -1e-12 and all(sum(c * v[i] for i, c in nz) >= b - 1e-15 for b, nz in rows):
        return v, work, lam
    v, work, added, dropped = [0.0] * _NV, [i for i in guess if rows[i][0] == 0.0], None, None
    for _ in range(4 * len(rows)):
        target, lam, work = _eqp(hess, rows, work)
        if added is not None and added not in work:  # the blocking row depends on the set
            return v, work, None
        d = [a - b for a, b in zip(target, v)]
        size = max(map(abs, d))
        if size <= 1e-12 * (1.0 + max(map(abs, v))):
            d, size = [0.0] * _NV, 0.0
        alpha, added, working = 1.0, None, set(work)
        for i, (b, nz) in enumerate(rows):
            if i in working:
                continue
            ad = sum(c * d[j] for j, c in nz)
            if ad < -1e-15 * size:
                to_row = max(sum(c * v[j] for j, c in nz) - b, 0.0) / -ad
                if to_row < alpha or (to_row == alpha and added is not None and i < added):
                    alpha, added = to_row, i
        v = [x + alpha * y for x, y in zip(v, d)]
        if added == dropped is not None and alpha <= 1e-12:  # released and blocked at once
            return v, work, None
        if added is not None:
            work.append(added)
            continue
        negative = [r for r, lr in enumerate(lam) if lr < -1e-12]
        if not negative:
            return v, work, lam
        dropped = work.pop(min(negative, key=work.__getitem__))
    return v, work, None


def _row(coefs, b):
    """The row a.v >= b as (b, the nonzero (i, a_i)), a from ``coefs`` scaled to a largest
    |a_i| of 1; a b that v = 0 meets within 1e-13, or misses, is 0: active at v = 0."""
    scale = max(map(abs, coefs.values()))
    b /= scale
    return (b if b < -1e-13 else 0.0), tuple((i, c / scale) for i, c in coefs.items() if c)


def _minimise(y, t, n, q):
    """Minimiser of sup_s r_1 + sup_s r_2 over F from a point (y, t) of F, in the
    scale-free coordinates y = d/n and u = e^{-2t}, in which every constraint of F
    is linear; ``n`` holds the noise variances and ``q`` the precision gains.

    SQP on relative steps (y, u)(1 + p), each at most 3: each step solves ``_qp`` on
    the minimax model tau_k >= (a piece of ``_pieces``, linearised), with the exact
    receiver, box floor, central and y <= 1 rows, and the pieces' Hessians weighted
    by their multipliers of the step before.  The step is cut back to keep y and u
    positive, then halved until the sum of sups falls by 1e-4 of the model's
    decrease.  A full step that fails this, at an encoder whose sup is flat in s to
    within the step, adds the piece of ``_cut`` to the model, up to 4 times.  The
    loop ends when the model's decrease is below 1e-14 relative or no halving
    helps.  Returns (y, t, u)."""

    def moved(alpha):
        new_y = [yi * (1.0 + alpha * p) for yi, p in zip(y, (step[0], step[1], step[3], step[4]))]
        new_t = [tk - 0.5 * math.log1p(alpha * p) for tk, p in zip(t, (step[2], step[5]))]
        new_sup = _sup_points(1.0, ((new_y[0], new_y[1], new_t[0]), (new_y[2], new_y[3], new_t[1])))
        return new_y, new_t, new_sup, sum(max(r) for _, r, _ in new_sup)

    def piece_row(k, g, gap):  # tau_k - g.p_k >= gap, the piece's value less the sup
        return _row({3 * k: -g[0], 3 * k + 1: -g[1], 3 * k + 2: -g[2], 6 + k: 1.0}, gap)

    sup = _sup_points(1.0, ((y[0], y[1], t[0]), (y[2], y[3], t[1])))
    value = sum(max(r) for _, r, _ in sup)
    weights, guess, cuts = [{}, {}], set(), [[], []]
    for _ in range(50):
        u = [e for _, _, e in sup]
        rows, keys, hess, tops = [], [], [], []
        for k in (0, 1):
            pieces = _pieces(y[2 * k], y[2 * k + 1], t[k], sup[k])
            pieces.update({("cut", s): _fixed(*y[2 * k : 2 * k + 2], t[k], u[k], s) for s in cuts[k]})
            tops.append(max(pieces, key=lambda key: pieces[key][0]))
            total = sum(weights[k].get(key, 0.0) for key in pieces)
            block = [[1e-10 * (i == j) for j in range(3)] for i in range(3)]
            for key, (r, g, h) in pieces.items():
                w = weights[k].get(key, 0.0) / total if total > 0.0 else float(key == tops[k])
                block = [[b + w * x for b, x in zip(brow, hrow)] for brow, hrow in zip(block, h)]
                rows.append(piece_row(k, g, r - pieces[tops[k]][0]))
                keys.append((k, key))
            hess.append(block)
        for l in (0, 1):  # receiver l: sum_k y_kl p_kl / n_k <= its slack
            if q[l] > 0.0:
                rows.append(_row({l: -y[l] / n[0], 3 + l: -y[2 + l] / n[1]},
                                 q[l] - (1.0 - y[l]) / n[0] - (1.0 - y[2 + l]) / n[1]))
                keys.append(("receiver", l))
        for k, l in ((0, 0), (0, 1), (1, 0), (1, 1)):
            rows.append(_row({3 * k + l: y[2 * k + l], 3 * k + 2: -u[k]}, u[k] - y[2 * k + l]))
            rows.append(_row({3 * k + l: -y[2 * k + l]}, y[2 * k + l] - 1.0))
            keys += [("floor", k, l), ("cap", k, l)]
        if u[0] + u[1] > 0.0:  # else t = inf on both encoders, and the central gain is met
            slack = q[2] - (1.0 - u[0]) / n[0] - (1.0 - u[1]) / n[1]
            rows.append(_row({2: -u[0] / n[0], 5: -u[1] / n[1]}, slack))
            keys.append(("central",))
        rows += [_row({i: -1.0}, -3.0) for i in range(6)]
        keys += [("step", i) for i in range(6)]
        for _ in range(5):
            # Each encoder's top piece, active at v = 0, pins tau_k from the start.
            guessed = [keys.index((k, tops[k])) for k in (0, 1)]
            guessed += [i for i, key in enumerate(keys) if key in guess and i not in guessed]
            v, work, lam = _qp(hess, rows, guessed)
            step, slope = v[:6], v[6] + v[7]
            if not slope < -1e-14 * max(1.0, abs(value)):
                return y, t, u
            alpha = min(1.0, 0.99 / max(-min(step), 1e-300))
            new = moved(alpha)
            if new[3] < value + 1e-4 * alpha * slope:
                break
            added = 0
            for k in (0, 1):
                r_vals, p = [r for r in sup[k][1] if r > -math.inf], step[3 * k : 3 * k + 3]
                if max(r_vals) - min(r_vals) <= sum(map(abs, p)):
                    s = _cut(y[2 * k], y[2 * k + 1], t[k], u[k], p)
                    r, g, h = _fixed(y[2 * k], y[2 * k + 1], t[k], u[k], s)
                    if r - max(r_vals) + sum(gi * pi for gi, pi in zip(g, p)) > v[6 + k] + 1e-13:
                        rows.append(piece_row(k, g, r - max(r_vals)))
                        keys.append((k, ("cut", s)))
                        cuts[k] = cuts[k][-7:] + [s]
                        added += 1
            if not added:
                break
        while not new[3] < value + 1e-4 * alpha * slope:
            alpha *= 0.5
            if alpha < 1e-10:
                return y, t, u
            new = moved(alpha)
        y, t, sup, value = new
        weights = [{keys[i][1]: lr for i, lr in zip(work, lam or []) if keys[i][0] == k} for k in (0, 1)]
        guess = {keys[i] for i in work}
    return y, t, [e for _, _, e in sup]


@dataclass(frozen=True)
class LowerBoundResult:
    """Value and argmin of the sum-rate lower bound."""

    value: float
    argmin: BoundParams
    branch: PBranch
    sigma_z: tuple[float, float]


def _lift_t(n, q, y, u=(1.0, 1.0)):
    """(t_1, t_2) at y = d/n from e^{-2t} = u, with u capped at the box floors min(y)
    and then scaled down by one common factor until the central constraint holds."""
    u = min(u[0], y[0], y[1]), min(u[1], y[2], y[3])
    room, need = 1.0 / n[0] + 1.0 / n[1] - q[2], u[0] / n[0] + u[1] / n[1]
    scale = room / need if need > room else 1.0
    return tuple(-0.5 * math.log(scale * uk) if scale * uk > 0.0 else math.inf for uk in u)


def _start(n, q):
    """The closed-form start (y, t): y_1l at the middle of the range where receiver l's
    equality holds with y_2l in [0, 1], y_2l on that equality (a 0 becomes 1e-300,
    keeping t finite), and t from ``_lift_t``.  d0 above the remote-MMSE floor makes
    the room for the central gain positive, so the start is in F."""
    n1, n2 = n
    y11, y12 = (0.5 * (max(0.0, 1.0 - n1 * g) + min(1.0, 1.0 - n1 * g + n1 / n2)) for g in q[:2])
    y21, y22 = (min(max(1.0 - n2 * (g - (1.0 - y) / n1), 0.0), 1.0) for g, y in zip(q, (y11, y12)))
    y = [max(v, 1e-300) for v in (y11, y12, y21, y22)]
    return y, list(_lift_t(n, q, y))


def lower_bound(
    model: SourceModel,
    targets: DistortionTriple,
    grid: int = DEFAULT_GRID,
    refine: int = 2,
) -> LowerBoundResult:
    """Infimum of the bound objective over the critical manifold, as one convex solve.

    The objective sup_s r_1 + sup_s r_2 is convex in p, and so is the
    admissible set F, whose infimum equals the one over P (``project_to_P``
    maps F onto P without raising the objective).  ``_minimise`` solves it over
    F in the scale-free coordinates (d/n, e^{-2t}), from the closed-form point
    of ``_start``; on a convex program the start changes only the solver's
    path.  The solver's point, y clipped into [0, 1] and t lifted onto F by
    ``_lift_t``, is projected onto P, and ``in_P`` names the branch.  There is
    no search and no rerun.

    ``grid`` and ``refine`` are accepted and validated but unused; they sized a
    starting scan that the closed-form start replaces.  Raises what
    ``require_valid_targets`` raises; InfeasibleTargetsError naming d0 when the
    solver's point does not project onto P; and InvalidParamsError unless
    ``grid`` is an integer >= MIN_GRID and ``refine`` an integer >= 0.
    """
    require_int("grid", grid, MIN_GRID)
    require_int("refine", refine, 0)
    require_valid_targets(model, targets)
    s2, n = model.sigma_s2, (model.sigma_n1_2, model.sigma_n2_2)
    # Precision each receiver must gain over the prior: (1 - d_1l/n_1)/n_1
    # + (1 - d_2l/n_2)/n_2 >= q_l, and likewise with e^{-2t} for the central one.
    q = [1.0 / d - 1.0 / s2 for d in (targets.d1, targets.d2, targets.d0)]
    y, t, u = _minimise(*_start(n, q), n, q)
    y = [min(max(v, 0.0), 1.0) for v in y]
    try:
        p = BoundParams(n[0] * y[0], n[0] * y[1], n[1] * y[2], n[1] * y[3], *_lift_t(n, q, y, u))
        argmin = project_to_P(model, targets, p)
    except (DomainError, InvalidParamsError):
        raise InfeasibleTargetsError(
            "the solver's point does not project onto the critical manifold", constraint="d0"
        ) from None
    (sz1, v1), (sz2, v2) = (sup_sigma_z(model.noise_var(k), *argmin.encoder(k)) for k in (1, 2))
    const = 0.5 * math.log(s2 * s2 / (targets.d1 * targets.d2))
    branch = in_P(model, targets, argmin)
    return LowerBoundResult(value=v1 + v2 + const, argmin=argmin, branch=branch, sigma_z=(sz1, sz2))
