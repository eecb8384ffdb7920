"""Converse machinery: bound function, classification, projection, lower bound."""

import functools
import json
import math
import random
from dataclasses import astuple, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vceo import (
    BoundParams,
    DistortionTriple,
    DomainError,
    FRegion,
    InfeasibleTargetsError,
    InvalidParamsError,
    OptimizeOptions,
    PBranch,
    SourceModel,
    classify_F_k,
    condition_holds,
    full_mmse,
    in_P,
    lower_bound,
    optimize_sum_rate,
    project_to_P,
    r_fn,
    sum_rate,
    sup_sigma_z,
)
import vceo.bound
from vceo.bound import (
    _eliminate,
    _eqp,
    _fixed,
    _lift_t,
    _pieces,
    _qp,
    _r,
    _row,
    _start,
    _sup_points,
    in_F,
)
from vceo.scheme import FLOOR_MARGIN

from conftest import (
    random_condition_targets,
    random_feasible_targets,
    random_model,
    random_params,
    sample_F_point,
)

UNIT = SourceModel(1.0, 1.0, 1.0)
CANONICAL = DistortionTriple(0.4, 0.4, 0.35)
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# Values of the earlier search (3 x 64^3 grid plus a simplex polish per branch)
# on the named benchmark instances: (model, targets, value).  That search
# approached the infimum from above, so the convex solve may only be lower.
GRID_SEARCH_VALUES = [
    ((1.0, 1.0, 1.0), (0.4, 0.4, 0.35), 4.031286426254964),
    ((1.0, 1.0, 1.0), (0.4, 0.4, 0.39999), 3.688879454113936),
    ((1.0, 1.0, 1.0), (0.34, 0.34, 0.3399), 8.131530710604244),
    ((1.0, 0.3, 3.0), (0.225, 0.225, 0.222), 5.99146454710798),
    ((1.0, 0.3, 3.0), (0.5, 0.3, 0.25), 2.107634916436175),
    ((1.0, 1.0, 1.0), (0.6, 0.6, 0.4), 1.8971199848858809),
]


def numpy_sup_candidates(n: float, d1, d2, t) -> tuple[list, list]:
    """The array form of ``vceo.bound._sup_points``, its bit reference: the
    candidate maximisers of r over s >= 0 and their values, elementwise.

    Returns (s, r) lists over four candidates: s = 0, the two roots of the
    stationarity quadratic a s^2 + b s + c = 0 (the linear root twice when
    a = 0), and the s -> inf limit with its exact value t.  A root that is
    not real, positive and finite carries r = -inf.
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
        quadratic, linear = np.abs(a) > 0.0, np.abs(b) > 0.0
        two_a = np.where(quadratic, 2.0 * a, 1.0)
        linear_root = np.where(linear, -c / np.where(linear, b, 1.0), -1.0)
        for sgn in (1.0, -1.0):
            root = np.where(quadratic, (-b + sgn * sq) / two_a, linear_root)
            ok = (disc >= 0.0) & (root > 0.0) & np.isfinite(root) & finite_t
            s_vals.append(root)
            r_vals.append(np.where(ok, _r(n, d1, d2, t, np.where(ok, root, 1.0)), -np.inf))
    s_vals.append(math.inf)
    r_vals.append(t)
    return s_vals, r_vals


def _sup_r_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
    """sup_s r_1 + sup_s r_2 at x = (y_11, y_12, y_21, y_22, t_1, t_2), with y = d/n,
    and its Danskin gradient: the gradient of r at the maximising s.  The objective
    of the SLSQP reference ``slsqp_value``.

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


def slsqp_value(model, targets):
    """The bound's value from SLSQP, the earlier solver and the reference of the
    plain-float SQP: one run over F in the coordinates (d/n, t) from the same
    closed-form start, its point projected onto P.  None when SLSQP stops on its
    start with status 4 or its point does not project."""
    s2, n = model.sigma_s2, (model.sigma_n1_2, model.sigma_n2_2)
    q = [1.0 / d - 1.0 / s2 for d in (targets.d1, targets.d2, targets.d0)]
    # Constraints >= 0, each scaled to O(1): the receiver gains over their targets
    # (linear), the box floors log y + 2t, and the central gain.
    needs_gain = np.array(q[:2]) > 0.0
    gain = np.array([[1.0 / n[0], 0.0, 1.0 / n[1], 0.0], [0.0, 1.0 / n[0], 0.0, 1.0 / n[1]]])
    gain /= np.where(needs_gain, q[:2], 1.0)[:, None]
    gain0 = np.array([1.0 / n[0], 1.0 / n[1]]) / q[2]
    pick_2t = 2.0 * np.repeat(np.eye(2), 2, axis=0)

    def con_fun(x):
        box = np.log(x[:4]) + pick_2t @ x[4:]
        return np.r_[gain @ (1.0 - x[:4]) - needs_gain, box, -np.expm1(-2.0 * x[4:]) @ gain0 - 1.0]

    def con_jac(x):
        central = np.r_[np.zeros(4), 2.0 * np.exp(-2.0 * x[4:]) * gain0]
        return np.vstack([np.c_[-gain, np.zeros((2, 2))], np.c_[np.diag(1.0 / x[:4]), pick_2t], central])

    y, t = _start(n, q)
    with np.errstate(all="ignore"):  # SLSQP may try t = inf or y = 0
        result = scipy.optimize.minimize(
            _sup_r_grad,
            np.array(y + t),
            jac=True,
            method="SLSQP",
            bounds=[(1e-300, 1.0)] * 4 + [(0.0, None)] * 2,
            constraints={"type": "ineq", "fun": con_fun, "jac": con_jac},
            options={"maxiter": 200, "ftol": 1e-15},
        )
    if result.status == 4:
        return None
    y = np.clip(result.x[:4], 0.0, 1.0).tolist()
    u = np.exp(-2.0 * result.x[4:]).tolist()
    d = (n[0] * y[0], n[0] * y[1], n[1] * y[2], n[1] * y[3])
    try:
        p = project_to_P(model, targets, BoundParams(*d, *_lift_t(n, q, y, u)))
    except (DomainError, InvalidParamsError):
        return None
    const = 0.5 * math.log(s2 * s2 / (targets.d1 * targets.d2))
    return const + sum(sup_sigma_z(model.noise_var(k), *p.encoder(k))[1] for k in (1, 2))


def numpy_sup_r_grad(x):
    """The array form of ``_sup_r_grad``: both encoders as one elementwise call
    of ``numpy_sup_candidates`` at n = 1, the maximiser by ``np.argmax``."""
    y1, y2, t = x[[0, 2]], x[[1, 3]], x[4:]
    s_vals, r_vals = numpy_sup_candidates(1.0, y1, y2, t)
    r = np.array(r_vals)
    k = np.argmax(r, axis=0)
    sigma = np.choose(k, s_vals)
    finite = np.isfinite(sigma)
    s = np.where(finite, sigma, 0.0)
    grad = np.empty(6)
    grad[[0, 2]] = np.where(finite, -0.5 / (y1 + s), 0.0)
    grad[[1, 3]] = np.where(finite, -0.5 / (y2 + s), 0.0)
    grad[4:] = np.where(finite, s / np.where(s > 0.0, np.exp(-2.0 * t) + s, 1.0), 1.0)
    return float(r.max(axis=0).sum()), grad


def numpy_sup_sigma_z(n, d1, d2, t):
    """``sup_sigma_z`` from the array form ``numpy_sup_candidates`` on 0-d input."""
    s_vals, r_vals = numpy_sup_candidates(n, d1, d2, t)
    best_s, best_val = math.nan, -math.inf
    for s, val in sorted((float(s), float(r)) for s, r in zip(s_vals, r_vals) if r > -math.inf):
        if val > best_val + 1e-15:
            best_s, best_val = s, val
    return best_s, best_val


def pool_and_draws(n_draws=40, seed=3):
    """(name, model, targets) of the 78 benchmark pool instances, then of random
    draws: variances 10**U(-2, 2), d1 and d2 log-uniform on [1.001 floor,
    0.999 sigma_s2], d0 log-uniform on [1.0005 floor, 0.9999 min(d1, d2)]."""
    pools = json.loads(REFERENCE.read_text())
    for pool in ("outside_regime", "certify"):
        for entry in pools[pool]:
            model = SourceModel(**entry["model"])
            yield f"{pool}/{entry['name']}", model, DistortionTriple(**entry["targets"])
    gen = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(gen.uniform(math.log(lo), math.log(hi)))

    for i in range(n_draws):
        model = SourceModel(*(10.0 ** gen.uniform(-2.0, 2.0) for _ in range(3)))
        floor = full_mmse(model)
        d1, d2 = (log_uniform(1.001 * floor, 0.999 * model.sigma_s2) for _ in range(2))
        d0 = log_uniform(1.0005 * floor, 0.9999 * min(d1, d2))
        yield f"draw_{i}", model, DistortionTriple(d1, d2, d0)


def random_F_k_triple(rng, sigma_n2):
    t = rng.uniform(0.05, 2.0)
    lo = sigma_n2 * math.exp(-2.0 * t)
    d1 = rng.uniform(lo, sigma_n2)
    d2 = rng.uniform(lo, sigma_n2)
    return d1, d2, t


class TestRFn:
    def test_zero_channel_noise_closed_form(self):
        # r(d1, d2, t, 0) = (1/2) log(n^2 / (d1 d2)), independent of t.
        assert r_fn(1.0, 0.5, 0.5, 1.0, 0.0) == pytest.approx(math.log(2.0), abs=1e-12)
        assert r_fn(1.0, 0.5, 0.5, 0.7, 0.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_outside_box_rejected(self):
        with pytest.raises(DomainError):
            r_fn(1.0, 1.2, 0.5, 1.0, 0.0)  # d1 > n
        with pytest.raises(DomainError):
            r_fn(1.0, 0.1, 0.5, 0.5, 0.0)  # n e^{-2t} > d1
        with pytest.raises(DomainError):
            r_fn(1.0, 0.5, 0.5, 1.0, -1.0)

    def test_infinite_channel_noise_is_t(self):
        assert r_fn(1.0, 0.5, 0.5, 1.0, math.inf) == 1.0

    @pytest.mark.parametrize("d", [1e-200, 0.5])
    def test_float_path_past_the_float_range_matches_the_array_path(self, d):
        # At d = 1e-200 the product (d1 + s)(d2 + s) underflows to 0, and at
        # t = 400 so does n e^{-2t}: r_fn on floats, like _r on arrays, must
        # take the logs term by term, silently.
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = float(_r(1.0, np.array(d), np.array(d), np.array(400.0), 0.0))
        assert math.isfinite(expected)
        assert r_fn(1.0, d, d, 400.0, 0.0) == pytest.approx(expected, rel=1e-12)

    @given(
        n=st.floats(0.25, 4.0),
        t=st.floats(0.05, 2.0),
        x1=st.floats(0.0, 1.0),
        x2=st.floats(0.0, 1.0),
        s=st.floats(0.0, 10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone_decreasing_in_d_increasing_in_t(self, n, t, x1, x2, s):
        lo = n * math.exp(-2.0 * t)
        d1 = lo + x1 * (n - lo)
        d2 = lo + x2 * (n - lo)
        base = r_fn(n, d1, d2, t, s)
        h = 1e-6 * n
        if d1 + h <= n:
            assert r_fn(n, d1 + h, d2, t, s) <= base + 1e-12
        if d2 + h <= n:
            assert r_fn(n, d1, d2 + h, t, s) <= base + 1e-12
        # Larger t keeps (d1, d2) inside the box, so no feasibility re-check.
        assert r_fn(n, d1, d2, t + 1e-6, s) >= base - 1e-12


class TestConditionHolds:
    def test_holds(self):
        assert condition_holds(UNIT, DistortionTriple(0.4, 0.4, 0.35))

    def test_fails(self):
        assert not condition_holds(UNIT, DistortionTriple(0.4, 0.4, 0.3))

    def test_boundary_is_closed(self):
        assert condition_holds(UNIT, DistortionTriple(0.4, 0.4, 1.0 / 3.0))


class TestSupSigmaZ:
    def test_decreasing_case_attains_at_zero(self):
        t = 0.7
        d = math.exp(-2.0 * t)
        argmax, value = sup_sigma_z(1.0, d, d, t)
        assert argmax == 0.0
        assert value == pytest.approx(2.0 * t, abs=1e-12)

    def test_increasing_case_attains_in_the_limit(self):
        argmax, value = sup_sigma_z(1.0, 1.0, 1.0, 0.5)
        assert math.isinf(argmax)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_dominates_brute_force_probes(self, rng):
        for _ in range(50):
            n = rng.uniform(0.25, 4.0)
            d1, d2, t = random_F_k_triple(rng, n)
            _, value = sup_sigma_z(n, d1, d2, t)
            probes = np.concatenate([rng.uniform(0.0, 20.0, 50), [0.0, 1e6]])
            best_probe = max(r_fn(n, d1, d2, t, s) for s in probes)
            assert value >= best_probe - 1e-9
            assert value >= t - 1e-12  # the limit candidate

    def test_argmax_is_a_maximizer(self, rng):
        for _ in range(50):
            n = rng.uniform(0.25, 4.0)
            d1, d2, t = random_F_k_triple(rng, n)
            argmax, value = sup_sigma_z(n, d1, d2, t)
            assert value == pytest.approx(r_fn(n, d1, d2, t, argmax), abs=1e-12)

    def test_ties_resolve_to_smallest_channel_variance(self):
        # d1 = n and d2 = n e^{-2t} make r(s) = t for every s, so all
        # candidates tie up to roundoff and s = 0 must win.
        for n, t in ((1.0, 0.35), (0.3, 1.2), (3.0, 0.05)):
            argmax, value = sup_sigma_z(n, n, n * math.exp(-2.0 * t), t)
            assert argmax == 0.0
            assert value == pytest.approx(t, abs=1e-12)

    def test_infinite_t_limit(self):
        # t = inf is admitted by the box; at s = 0 it cancels, for s > 0 r = inf.
        n, d1, d2 = 1.0, 0.5, 0.5
        assert r_fn(n, d1, d2, math.inf, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert r_fn(n, d1, d2, math.inf, 0.0) == pytest.approx(
            r_fn(n, d1, d2, 30.0, 0.0), abs=2e-15
        )
        assert r_fn(n, d1, d2, math.inf, 0.3) == math.inf
        assert r_fn(n, 0.0, d2, math.inf, 0.0) == math.inf
        assert sup_sigma_z(n, d1, d2, math.inf) == (math.inf, math.inf)
        _, r_vals = numpy_sup_candidates(
            n, np.array([d1, 0.3]), np.array([d2, 0.9]), np.array([math.inf, 0.7])
        )
        sup = functools.reduce(np.maximum, r_vals)
        assert sup[0] == math.inf
        assert sup[1] == pytest.approx(sup_sigma_z(n, 0.3, 0.9, 0.7)[1], abs=1e-14)


# y over [1e-300, 1], uniform and log-uniform; t at the box floor plus a step.
Y = st.one_of(st.floats(1e-300, 1.0), st.floats(-300.0, 0.0).map(lambda v: 10.0**v))
T_STEP = st.sampled_from([0.0, 1e-3, 1.0, 50.0, 400.0])


def floor_t(y1, y2):
    return -0.5 * math.log(min(y1, y2))


class TestFloatForm:
    """The plain-float sup equals the array form ``numpy_sup_candidates`` bit for bit."""

    @staticmethod
    def assert_grad_equal(x):
        value, grad = _sup_r_grad(np.array(x))
        ref_value, ref_grad = numpy_sup_r_grad(np.array(x))
        assert value == ref_value
        assert grad.tolist() == ref_grad.tolist()

    @given(ys=st.tuples(Y, Y, Y, Y), steps=st.tuples(T_STEP, T_STEP))
    @settings(max_examples=300, deadline=None)
    def test_sup_r_grad_equals_the_array_form(self, ys, steps):
        t = [floor_t(*ys[2 * k : 2 * k + 2]) + step for k, step in enumerate(steps)]
        self.assert_grad_equal(list(ys) + t)

    E = float(np.exp(-0.6))  # e^{-2t} at t = 0.3, rounded as numpy rounds it
    NAMED = {
        # d1 + d2 = e + n: a = 0, so the stationarity equation is linear.
        "a_zero": ((1.0 + E) / 2.0, (1.0 + E) / 2.0, 0.3),
        # d1 = n: the discriminant is 0, and -6.6e-17 after roundoff.
        "negative_discriminant": (1.0, 0.89, 0.1),
        # y at 1e-300 and t = 400: the ratio overflows, e^{-2t} underflows.
        "y_bound_t_400": (1e-300, 1e-300, 400.0),
        # d1 = n, d2 = n e^{-2t}: r(s) = t for every s, so s = 0 ties with the limit.
        "tie": (1.0, float(np.exp(-0.7)), 0.35),
        # math.log would round the maximising r differently, at s = 0 and at a root.
        "math_log_at_zero": (0.675, 0.806, 0.197),
        "math_log_at_root": (0.092, 0.696, 2.193),
    }

    @pytest.mark.parametrize("name", NAMED)
    def test_named_points_equal_the_array_form(self, name):
        d1, d2, t = self.NAMED[name]
        e = float(np.exp(-2.0 * t))
        a, b = (d1 + d2) - (e + 1.0), 2.0 * (d1 * d2 - e)
        c = (e + 1.0) * d1 * d2 - e * (d1 + d2)
        s, r = numpy_sup_sigma_z(1.0, d1, d2, t)
        if name == "a_zero":
            assert a == 0.0 and b != 0.0
        elif name == "negative_discriminant":
            assert b * b - 4.0 * a * c < 0.0
        elif name == "tie":
            assert s == 0.0 and abs(r - t) <= 1e-15
        elif name.startswith("math_log"):
            ratio = (1.0 + s) / ((d1 + s) * (d2 + s))
            assert t + 0.5 * math.log(ratio) + 0.5 * math.log(e + s) != r
        # The other encoder at an interior point of its box.
        self.assert_grad_equal([d1, d2, 0.5, 0.7, t, 0.4])
        self.assert_grad_equal([0.5, 0.7, d1, d2, 0.4, t])
        assert sup_sigma_z(1.0, d1, d2, t) == (s, r)

    @given(log_n=st.floats(-3.0, 3.0), ys=st.tuples(Y, Y), step=T_STEP)
    @example(log_n=0.0, ys=(1.0, 1.0), step=math.inf)
    @settings(max_examples=300, deadline=None)
    def test_sup_sigma_z_equals_the_array_form(self, log_n, ys, step):
        n = 10.0**log_n
        d1, d2 = n * ys[0], n * ys[1]
        assume(d1 > 0.0 and d2 > 0.0)
        t = floor_t(d1 / n, d2 / n) + step
        assume(vceo.bound.in_F_k(n, d1, d2, t))
        assert sup_sigma_z(n, d1, d2, t) == numpy_sup_sigma_z(n, d1, d2, t)


class TestClassifyFk:
    def test_balanced_point_is_f2(self):
        t = -0.5 * math.log(0.5)
        assert classify_F_k(1.0, 0.5, 0.5, t) is FRegion.F2

    def test_sign_change_point_is_f1(self):
        # alphas (0.4, 1.5, 1.5): g(0) = 2.5 - 4/3 > 0, g(1) < 0.
        t = 0.5 * math.log(7.0 / 2.0)
        assert classify_F_k(1.0, 0.6, 0.6, t) is FRegion.F1

    def test_large_d_sum_is_f3(self):
        # d1 + d2 = 1.8 > 1 + e^{-2t} = 1.5.
        t = -0.5 * math.log(0.5)
        assert 0.9 + 0.9 > 1.0 * (1.0 + 0.5)
        assert classify_F_k(1.0, 0.9, 0.9, t) is FRegion.F3

    def test_outside_box(self):
        assert classify_F_k(1.0, 1.5, 0.5, 1.0) is FRegion.OUTSIDE

    def test_g_sign_at_noise_variance_tracks_d_sum(self, rng):
        # sign(g(n)) == sign(d1 + d2 - n e^{-2t} - n): F3 iff the sum exceeds.
        for _ in range(100):
            n = rng.uniform(0.25, 4.0)
            d1, d2, t = random_F_k_triple(rng, n)
            region = classify_F_k(n, d1, d2, t)
            exceeds = d1 + d2 - n * math.exp(-2.0 * t) - n > 0
            assert (region is FRegion.F3) == exceeds


class TestInP:
    def test_projection_lands_in_p(self, rng):
        for _ in range(25):
            model = random_model(rng)
            targets = random_feasible_targets(rng, model)
            p = sample_F_point(rng, model, targets)
            out = project_to_P(model, targets, p)
            assert in_P(model, targets, out) in (PBranch.P1, PBranch.P2)

    def test_violated_equality_is_rejected(self, rng):
        model = UNIT
        targets = CANONICAL
        p = project_to_P(model, targets, sample_F_point(rng, model, targets))
        bumped = BoundParams(p.d11 * 1.01, p.d12, p.d21, p.d22, p.t1, p.t2)
        assert in_P(model, targets, bumped) is None

    def test_p2_witness(self):
        # Individual equalities with both t pinned to the box floor and a
        # strictly slack central constraint.
        targets = DistortionTriple(0.4, 0.4, 0.385)
        p = BoundParams(0.1, 0.3, 0.4, 0.2, -0.5 * math.log(0.1), -0.5 * math.log(0.2))
        assert in_F(UNIT, targets, p)
        assert in_P(UNIT, targets, p) is PBranch.P2


class TestProjectToP:
    def test_already_critical_is_unchanged(self):
        targets = DistortionTriple(0.4, 0.4, 0.385)
        p = BoundParams(0.1, 0.3, 0.4, 0.2, -0.5 * math.log(0.1), -0.5 * math.log(0.2))
        out = project_to_P(UNIT, targets, p)
        assert out == p

    def test_individual_equalities_exact(self, rng):
        for _ in range(25):
            model = random_model(rng)
            targets = random_feasible_targets(rng, model)
            out = project_to_P(model, targets, sample_F_point(rng, model, targets))
            n1, n2 = model.sigma_n1_2, model.sigma_n2_2
            base = 1.0 / model.sigma_s2 + 1.0 / n1 + 1.0 / n2
            assert base - out.d11 / n1**2 - out.d21 / n2**2 == pytest.approx(
                1.0 / targets.d1, rel=1e-12
            )
            assert base - out.d12 / n1**2 - out.d22 / n2**2 == pytest.approx(
                1.0 / targets.d2, rel=1e-12
            )

    def test_central_slack_resolves_to_equality_or_pinned_floor(self):
        targets = DistortionTriple(0.4, 0.4, 0.385)
        p = BoundParams(0.1, 0.3, 0.4, 0.2, 2.0, 2.0)
        assert in_F(UNIT, targets, p)
        out = project_to_P(UNIT, targets, p)
        central = 1.0 + (1.0 - math.exp(-2 * out.t1)) + (1.0 - math.exp(-2 * out.t2))
        at_equality = central == pytest.approx(1.0 / targets.d0, rel=1e-9)
        pinned = math.exp(-2 * out.t1) == pytest.approx(min(out.d11, out.d12), rel=1e-9) and (
            math.exp(-2 * out.t2) == pytest.approx(min(out.d21, out.d22), rel=1e-9)
        )
        assert at_equality or pinned

    def test_monotone_moves(self, rng):
        for _ in range(25):
            model = random_model(rng)
            targets = random_feasible_targets(rng, model)
            p = sample_F_point(rng, model, targets)
            out = project_to_P(model, targets, p)
            assert out.d11 >= p.d11 and out.d12 >= p.d12
            assert out.d21 >= p.d21 and out.d22 >= p.d22
            assert out.t1 <= p.t1 + 1e-12 and out.t2 <= p.t2 + 1e-12

    def test_idempotent(self, rng):
        for _ in range(10):
            model = random_model(rng)
            targets = random_feasible_targets(rng, model)
            out = project_to_P(model, targets, sample_F_point(rng, model, targets))
            again = project_to_P(model, targets, out)
            for name in ("d11", "d12", "d21", "d22", "t1", "t2"):
                assert getattr(again, name) == pytest.approx(getattr(out, name), rel=1e-9)

    def test_receiver_slack_that_lowers_d_keeps_t_on_its_box_floor(self):
        # The signed slack lowers d_11 below n_1 e^{-2 t_1}; t_1 must rise to the
        # new floor, not stay under it.
        model = SourceModel(0.3173378836592071, 10.525886327999576, 0.3496289118127627)
        targets = DistortionTriple(0.1871025335159335, 0.16397108633071486, 0.163924368936329)
        p = BoundParams(
            10.525886327998116,
            0.3340481949263091,
            0.08150103471309025,
            0.0005798281863779491,
            1.7251537939695405,
            3.429135065461026,
        )
        assert in_F(model, targets, p)
        out = project_to_P(model, targets, p)
        assert all(vceo.bound.in_F_k(model.noise_var(k), *out.encoder(k)) for k in (1, 2))
        assert in_P(model, targets, out) is not None

    def test_a_roundoff_miss_is_met_through_the_encoder_with_the_smaller_noise(self):
        # Both receivers missed by 7.7e-10 in precision (7.7e-13 relative).  Met
        # through d_1l, y_1l would fall by 7.7e-10 n_1 = 7.7e-6 and lift t_1 off
        # its 9e-10 to the box floor at 3.85e-6; through d_2l, y_2l falls by 7.7e-13.
        model = SourceModel(1.0, 1e4, 1e-3)
        floor = full_mmse(model)
        targets = DistortionTriple(0.5 * (1 + floor), 0.5 * (1 + floor), floor * (1 + 1e-6))
        argmin = lower_bound(model, targets).argmin
        step = 7.7e-10 * model.sigma_n2_2**2
        p = replace(argmin, d21=argmin.d21 + step, d22=argmin.d22 + step)
        assert in_F(model, targets, p)
        out = project_to_P(model, targets, p)
        for k in (1, 2):
            noise = model.noise_var(k)
            for before, after in zip(p.encoder(k)[:2], out.encoder(k)[:2]):
                assert abs(after - before) / noise <= 1e-12

        def objective(q):
            return sum(sup_sigma_z(model.noise_var(k), *q.encoder(k))[1] for k in (1, 2))

        assert objective(out) == pytest.approx(objective(p), rel=1e-12, abs=0.0)

    def test_rejects_points_outside_f(self):
        with pytest.raises(DomainError):
            project_to_P(UNIT, CANONICAL, BoundParams(0.9, 0.9, 0.9, 0.9, 0.1, 0.1))


def relative_derivatives(f, y1, y2, u, h=1e-4):
    """Central-difference gradient and Hessian of f(y1, y2, u) in the relative step
    (y1, y2, u)(1 + p), at p = 0."""
    at = lambda p: f(y1 * (1.0 + p[0]), y2 * (1.0 + p[1]), u * (1.0 + p[2]))  # noqa: E731
    e = [[h * (i == j) for j in range(3)] for i in range(3)]
    add = lambda a, b, c: [x + c * y for x, y in zip(a, b)]  # noqa: E731
    grad = [(at(e[i]) - at(add([0.0] * 3, e[i], -1.0))) / (2.0 * h) for i in range(3)]
    hess = [
        [
            (at(add(e[i], e[j], 1.0)) - at(add(e[i], e[j], -1.0))
             - at(add(e[j], e[i], -1.0)) + at(add([0.0] * 3, add(e[i], e[j], 1.0), -1.0)))
            / (4.0 * h * h)
            for j in range(3)
        ]
        for i in range(3)
    ]
    return grad, hess


class TestSolverSteps:
    """The pieces of the sup, the QP rows, and the active-set QP of ``_minimise``."""

    # Encoder 1's pieces have gradient G1 and Hessian H1, encoder 2's G2 and the identity.
    G1, G2 = (-1.0, 0.5, -2.0), (0.25, -0.5, 0.0)
    HESS = [[[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 4.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]
    # The minimiser of g.p + p'Hp/2 on each block, -H^{-1} g, and then tau_k = g.p.
    NEWTON = [0.5, -0.5, 0.5, -0.25, 0.5, 0.0, -1.75, -0.3125]

    @classmethod
    def piece_rows(cls):  # tau_k >= G_k . p_k
        return [_row({3 * k + i: -g for i, g in enumerate(gk)} | {6 + k: 1.0}, 0.0)
                for k, gk in enumerate((cls.G1, cls.G2))]

    @pytest.mark.parametrize("s", [1e-3, 0.3, 5.0])
    def test_fixed_piece_matches_central_differences(self, s):
        y1, y2, u = 0.4, 0.7, 0.2
        value, grad, hess = _fixed(y1, y2, -0.5 * math.log(u), u, s)
        f = lambda a, b, c: _fixed(a, b, -0.5 * math.log(c), c, s)[0]  # noqa: E731
        ref_grad, ref_hess = relative_derivatives(f, y1, y2, u)
        assert value == pytest.approx(r_fn(1.0, y1, y2, -0.5 * math.log(u), s), abs=1e-14)
        assert grad == pytest.approx(ref_grad, abs=1e-8)
        for row, ref_row in zip(hess, ref_hess):
            assert row == pytest.approx(ref_row, abs=1e-5)

    def test_interior_maximum_piece_is_the_curvature_of_the_sup(self):
        # Where an interior local maximum in s is the sup by a margin, the sup is
        # smooth and the coupled piece holds its exact gradient and Hessian.
        rng, checked = random.Random(0), 0
        while checked < 5:
            y1, y2 = rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)
            u = rng.uniform(1e-3, min(y1, y2))
            [sup] = _sup_points(1.0, [(y1, y2, -0.5 * math.log(u))])
            pieces = _pieces(y1, y2, -0.5 * math.log(u), sup)
            others = [v[0] for key, v in pieces.items() if key != "root"]
            if "root" not in pieces or pieces["root"][0] < max(others) + 1e-3:
                continue
            sup_r = lambda a, b, c: max(_sup_points(1.0, [(a, b, -0.5 * math.log(c))])[0][1])  # noqa: E731
            value, grad, hess = pieces["root"]
            ref_grad, ref_hess = relative_derivatives(sup_r, y1, y2, u)
            assert value == max(sup[1])
            assert grad == pytest.approx(ref_grad, abs=1e-7)
            for row, ref_row in zip(hess, ref_hess):
                assert row == pytest.approx(ref_row, abs=1e-5)
            checked += 1

    def test_row_is_scaled_to_a_unit_coefficient_and_a_roundoff_slack_is_active(self):
        assert _row({0: 2.0, 3: -4.0, 5: 0.0}, -1.0) == (-0.25, ((0, 0.5), (3, -1.0)))
        assert _row({0: 2.0}, 1e-14) == (0.0, ((0, 1.0),))
        assert _row({0: 2.0}, -1e-12) == (-5e-13, ((0, 1.0),))

    def test_eliminate_skips_a_dependent_row(self):
        tab = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]
        assert _eliminate(tab, 2, 1e-9) == {1: 0, 0: 2}
        assert tab[0][:2] == [0.0, 1.0] and tab[0][2] == 1.0  # x2 = 1
        assert tab[2][:2] == [1.0, 0.0] and tab[2][2] == 1.0  # x1 = 3 - 2 x2
        assert tab[1] == [0.0, 0.0, 0.0]

    def test_eqp_drops_a_repeated_row(self):
        rows = self.piece_rows()
        v, lam, work = _eqp(self.HESS, rows + [rows[0]], [0, 1, 2])
        assert work == [0, 1]
        assert v == pytest.approx(self.NEWTON, abs=1e-15)
        assert lam == pytest.approx([2.0, 1.0], abs=1e-15)  # row 0 is G1's row over max|G1| = 2

    def test_qp_with_no_binding_row_takes_the_newton_step(self):
        rows = self.piece_rows() + [_row({5: 1.0}, -1.0)]
        v, work, lam = _qp(self.HESS, rows, [0, 1])
        assert work == [0, 1]
        assert v == pytest.approx(self.NEWTON, abs=1e-15)
        assert min(lam) > 0.0

    def test_qp_adds_the_blocking_row_with_its_multiplier(self):
        # p_11 <= 0.2 cuts the Newton step of 0.5 on encoder 1's first coordinate;
        # its multiplier is the slope there, -(G1[0] + H1[0][0] 0.2) = 0.6.
        rows = self.piece_rows() + [_row({0: -1.0}, -0.2)]
        cold = _qp(self.HESS, rows, [0, 1])
        v, work, lam = cold
        assert sorted(work) == [0, 1, 2]
        assert v == pytest.approx([0.2] + self.NEWTON[1:6] + [-1.45, -0.3125], abs=1e-15)
        assert lam[work.index(2)] == pytest.approx(0.6, abs=1e-15)
        # Warm-started from its own working set, the QP returns the same answer.
        assert _qp(self.HESS, rows, work) == cold

    def test_qp_drops_a_guessed_row_with_a_negative_multiplier(self):
        # p_12 <= 0 holds at the Newton step, -0.5; held as an equality it would
        # carry the multiplier -0.5, so the QP releases it.
        rows = self.piece_rows() + [_row({1: -1.0}, 0.0)]
        v, work, lam = _qp(self.HESS, rows, [0, 1, 2])
        assert work == [0, 1]
        assert v == pytest.approx(self.NEWTON, abs=1e-15)
        assert min(lam) > 0.0


class TestLowerBound:
    def test_canonical_value_matches_optimizer(self):
        lb = lower_bound(UNIT, CANONICAL)
        res = optimize_sum_rate(UNIT, CANONICAL, OptimizeOptions(starts=4, seed=0))
        assert abs(res.breakdown.sum_rate - lb.value) / lb.value <= 1e-3

    def test_argmin_is_critical_and_in_reported_branch(self, rng):
        for _ in range(3):
            model = random_model(rng)
            targets = random_condition_targets(rng, model)
            lb = lower_bound(model, targets)
            assert in_P(model, targets, lb.argmin) is lb.branch

    def test_weak_duality_against_random_feasible_schemes(self, rng):
        lb = lower_bound(UNIT, CANONICAL)
        found = 0
        while found < 30:
            params = random_params(rng, UNIT, w_lo=0.01, w_hi=2.0)
            from vceo import central_distortion, receiver_distortion

            if (
                receiver_distortion(UNIT, params, 1) <= CANONICAL.d1
                and receiver_distortion(UNIT, params, 2) <= CANONICAL.d2
                and central_distortion(UNIT, params) <= CANONICAL.d0
            ):
                found += 1
                assert sum_rate(UNIT, params).sum_rate >= lb.value - 1e-9

    def test_deterministic(self):
        a = lower_bound(UNIT, CANONICAL)
        b = lower_bound(UNIT, CANONICAL)
        assert a.value == b.value and a.argmin == b.argmin and a.branch == b.branch

    def test_sigma_z_reported_at_argmin(self):
        lb = lower_bound(UNIT, CANONICAL)
        s1, v1 = sup_sigma_z(UNIT.sigma_n1_2, lb.argmin.d11, lb.argmin.d12, lb.argmin.t1)
        assert lb.sigma_z[0] == s1
        s2, v2 = sup_sigma_z(UNIT.sigma_n2_2, lb.argmin.d21, lb.argmin.d22, lb.argmin.t2)
        const = 0.5 * math.log(UNIT.sigma_s2**2 / (CANONICAL.d1 * CANONICAL.d2))
        assert lb.value == pytest.approx(v1 + v2 + const, abs=1e-12)

    def test_infeasible_targets_raise(self):
        with pytest.raises(InfeasibleTargetsError) as exc:
            lower_bound(UNIT, DistortionTriple(0.5, 0.5, 0.2))
        assert exc.value.constraint == "d0"
        with pytest.raises(InfeasibleTargetsError):
            lower_bound(UNIT, DistortionTriple(0.3, 0.5, 0.25))

    @pytest.mark.parametrize("model, targets, value", GRID_SEARCH_VALUES)
    def test_no_worse_than_the_grid_search(self, model, targets, value):
        lb = lower_bound(SourceModel(*model), DistortionTriple(*targets))
        assert value * (1.0 - 1e-9) <= lb.value <= value * (1.0 + 1e-12)

    def test_no_admissible_point_beats_the_bound(self, rng):
        # The value is the infimum over F, not only over the critical manifold.
        for _ in range(5):
            model = random_model(rng)
            targets = random_feasible_targets(rng, model)
            lb = lower_bound(model, targets)
            const = 0.5 * math.log(model.sigma_s2**2 / (targets.d1 * targets.d2))
            for _ in range(40):
                p = sample_F_point(rng, model, targets)
                value = const + sum(
                    sup_sigma_z(model.noise_var(k), *p.encoder(k))[1] for k in (1, 2)
                )
                assert value >= lb.value - 1e-12 * abs(lb.value)

    @pytest.mark.parametrize(
        "noise, targets",
        [
            ((0.01, 100.0), (0.5, 0.5, 0.2)),
            ((0.01, 100.0), (0.3, 0.6, 0.25)),
            ((1e-3, 1e3), (0.5, 0.5, 0.2)),
            ((1e-3, 1e3), (0.6, 0.7, 0.35)),
        ],
    )
    def test_extreme_variance_ratios_give_a_critical_argmin(self, noise, targets):
        # Roundoff that grows with n2/n1 used to leave t2 or d slightly
        # outside the box when the argmin was rebuilt.
        model, targets = SourceModel(1.0, *noise), DistortionTriple(*targets)
        lb = lower_bound(model, targets)
        assert math.isfinite(lb.value)
        assert in_P(model, targets, lb.argmin) is lb.branch

    @pytest.mark.parametrize(
        "targets, value", [((0.3, 0.6, 0.25), 0.857549243754), ((0.5, 0.5, 0.1), 0.693597390254)]
    )
    def test_extreme_variance_ratio_values(self, targets, value):
        model, targets = SourceModel(1.0, 1e-4, 1e4), DistortionTriple(*targets)
        lb = lower_bound(model, targets)
        assert lb.value == pytest.approx(value, rel=1e-7)
        assert in_P(model, targets, lb.argmin) is lb.branch

    def test_argmin_meets_the_receivers_in_exact_arithmetic(self):
        # The solver meets its linear receiver constraints only to roundoff, and the
        # float steps of project_to_P leave a receiver short by up to about 1e-13
        # relative; its exact step lowers a d_kl so that the argmin lies in F exactly.
        missed = []
        for name, model, targets in pool_and_draws():
            p = lower_bound(model, targets).argmin
            s2, n1, n2 = (Fraction(v) for v in (model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2))
            for d1l, d2l, target in ((p.d11, p.d21, targets.d1), (p.d12, p.d22, targets.d2)):
                precision = 1 / s2 + 1 / n1 + 1 / n2 - Fraction(d1l) / n1**2 - Fraction(d2l) / n2**2
                if precision < 1 / Fraction(target):
                    missed.append(name)
        assert missed == []

    def test_a_converged_run_off_the_old_scan_start_is_not_the_bound(self):
        # From the best point of the former 64 x 64 scan, SLSQP exits with status 0
        # at 0.9467347238924753, 8.1e-5 above the value from the closed-form start.
        model = SourceModel(0.8417774225365846, 7.635475285983377, 26.705196364906485)
        targets = DistortionTriple(0.7775930468689471, 0.8121848551796529, 0.7758896885450426)
        lb = lower_bound(model, targets)
        assert lb.value <= 0.9466581540514155 * (1.0 + 1e-9)
        assert in_P(model, targets, lb.argmin) is lb.branch

    def test_a_point_that_does_not_project_reports_the_targets_infeasible(self, monkeypatch):
        # The solver ends on a point of F, which projects; should the projection
        # fail all the same, the targets are reported infeasible, naming d0,
        # after one projection and no rerun.
        points = []

        def rejecting(model, targets, p):
            points.append(p)
            raise DomainError("rejected for the test")

        monkeypatch.setattr(vceo.bound, "project_to_P", rejecting)
        with pytest.raises(InfeasibleTargetsError, match="does not project") as info:
            lower_bound(UNIT, CANONICAL)
        assert info.value.constraint == "d0"
        assert len(points) == 1 and in_F(UNIT, CANONICAL, points[0])

    def test_a_near_floor_solve_reaches_the_minimum(self):
        # SLSQP settled on P with status 0 after 15 iterations, at 12.990992205552692,
        # 1.9e-7 relative above the minimum that a rerun from its point reaches.
        model = SourceModel(0.04878607681757208, 0.10988342545577368, 27.010716959450214)
        targets = DistortionTriple(0.04193585552555755, 0.03751153739080048, 0.033743628705721854)
        lb = lower_bound(model, targets)
        assert lb.value <= 12.990989674429152 * (1.0 + 1e-9)
        assert in_P(model, targets, lb.argmin) is lb.branch

    @given(
        log_vars=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
        x=st.tuples(*[st.floats(0.0, 1.0)] * 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_higher_than_slsqp_from_the_same_start(self, log_vars, x):
        # The draws of pool_and_draws: d1, d2 log-uniform on [1.001 floor, 0.999 sigma_s2],
        # d0 log-uniform on [1.0005 floor, 0.9999 min(d1, d2)].
        model = SourceModel(*(10.0**v for v in log_vars))
        floor, s2 = full_mmse(model), model.sigma_s2
        d1, d2 = (1.001 * floor * (0.999 * s2 / (1.001 * floor)) ** xi for xi in x[:2])
        d0 = 1.0005 * floor * (0.9999 * min(d1, d2) / (1.0005 * floor)) ** x[2]
        assume(d0 < min(d1, d2) and max(d1, d2) < s2)  # sigma_s2 within 0.2% of the floor
        targets = DistortionTriple(d1, d2, d0)
        reference = slsqp_value(model, targets)
        assume(reference is not None)
        assert lower_bound(model, targets).value <= reference * (1.0 + 1e-9)

    def test_status_4_start_is_not_the_argmin(self):
        # SLSQP stopped on its start with status 4 here, and taking that start gave
        # 2.3397 nats, above the 2.0936 that sum-rate achieves.  The bound's
        # objective at that scheme's marginals, a point of F, is 1.9111646319034041.
        model = SourceModel(0.25644727054911703, 0.022079160962013077, 58.88678724176635)
        targets = DistortionTriple(0.03840763763755487, 0.173003554716161, 0.025390842872698164)
        value = lower_bound(model, targets).value
        assert value <= 1.9111646319034041 * (1.0 + 1e-9)
        assert value <= optimize_sum_rate(model, targets).breakdown.sum_rate

    @pytest.mark.parametrize("grid", [2, 0, -4, 3.5])
    def test_grid_below_three_is_invalid(self, grid):
        # Two points per axis scan only the box corners, which would report
        # these feasible targets as infeasible; a fractional grid is no grid.
        with pytest.raises(InvalidParamsError, match="grid"):
            lower_bound(UNIT, CANONICAL, grid=grid)

    @pytest.mark.parametrize("refine", [-1, 2.5, True])
    def test_refine_is_a_non_negative_integer(self, refine):
        with pytest.raises(InvalidParamsError, match="refine"):
            lower_bound(UNIT, CANONICAL, refine=refine)

    # Targets with d0 at the remote-MMSE floor, where SLSQP stepped onto y = d/n = 1e-300.
    FLOOR_MODEL = SourceModel(1.0, 100.0, 10**0.5)
    FLOOR_TARGETS = DistortionTriple(0.8770095249187023, 0.8155142873780534, 0.7540190498374046)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_targets_at_the_floor_solve_without_overflow(self):
        value = lower_bound(self.FLOOR_MODEL, self.FLOOR_TARGETS).value
        assert value == pytest.approx(11.5243486373, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_objective_and_gradient_stay_finite_at_the_y_bound(self):
        # r = (1/2) log(1/(y_1 y_2)) at s = 0 is finite although the ratio inside
        # the log overflows, and d/dt r = 0 there although e^{-2t} underflows.
        value, grad = _sup_r_grad(np.array([1e-300] * 4 + [400.0] * 2))
        assert value == pytest.approx(2.0 * 300.0 * math.log(10.0), rel=1e-12)
        assert np.all(np.isfinite(grad)) and np.all(grad[4:] == 0.0)

    @given(
        log_n1=st.floats(-4.0, 4.0),
        log_n2=st.floats(-4.0, 4.0),
        x=st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 3),
    )
    @example(log_n1=2.0, log_n2=0.5, x=(0.5, 0.25, 0.0))  # FLOOR_MODEL, FLOOR_TARGETS
    @settings(max_examples=50, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_ratios_and_the_floor_give_a_value_or_infeasible(self, log_n1, log_n2, x):
        # Variance ratios up to 1e8 and targets down to the remote-MMSE floor:
        # valid instances, so the bound never rejects its own inputs.
        model = SourceModel(1.0, 10.0**log_n1, 10.0**log_n2)
        floor = full_mmse(model) * (1.0 + 1e-6)
        d1, d2 = (floor + xi * (1.0 - floor) for xi in x[:2])
        d0 = floor + x[2] * (min(d1, d2) - floor)
        assume(d0 < min(d1, d2) and max(d1, d2) < 1.0)
        try:
            value = lower_bound(model, DistortionTriple(d1, d2, d0)).value
        except InfeasibleTargetsError:
            return
        assert math.isfinite(value)

    @given(
        log_vars=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
        ulps=st.integers(1, 4),
        x=st.tuples(*[st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)] * 2),
    )
    @settings(max_examples=50, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_d0_a_few_ulps_above_the_margin_gives_a_value_or_infeasible(self, log_vars, ulps, x):
        # The nearest targets that the rule lets through reach the solver: they give
        # a value or infeasible targets, never another error or a RuntimeWarning.
        model = SourceModel(*(10.0**v for v in log_vars))
        d0 = full_mmse(model) * (1.0 + FLOOR_MARGIN)
        for _ in range(ulps):
            d0 = math.nextafter(d0, math.inf)
        d1, d2 = (d0 * (model.sigma_s2 / d0) ** xi for xi in x)
        assume(d0 < min(d1, d2) and max(d1, d2) < model.sigma_s2)
        try:
            value = lower_bound(model, DistortionTriple(d1, d2, d0)).value
        except InfeasibleTargetsError:
            return
        assert math.isfinite(value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_d2_one_ulp_below_sigma_s2_solves_with_no_gain_to_scale_by(self):
        # d2 one ulp below sigma_s2, so 1/d2 - 1/sigma_s2 rounds to 0: the receiver
        # constraint once divided by that gain.  d0 passes the target rule, so the solver runs.
        model = SourceModel(10.0**0.5, 10.0, 10.0)
        d0 = math.nextafter(full_mmse(model) * (1.0 + FLOOR_MARGIN), math.inf)
        d1, d2 = d0 * (model.sigma_s2 / d0) ** 0.5, math.nextafter(model.sigma_s2, 0.0)
        assert 1.0 / d2 - 1.0 / model.sigma_s2 == 0.0
        assert math.isfinite(lower_bound(model, DistortionTriple(d1, d2, d0)).value)


class TestCriticalSetStructure:
    def test_pairwise_sum_inequality_and_classification(self, rng):
        # Under the distortion condition every critical point satisfies
        # d_k1 + d_k2 <= n_k (1 + e^{-2 t_k}) and avoids the third region.
        checked = 0
        while checked < 25:
            model = random_model(rng)
            targets = random_condition_targets(rng, model)
            try:
                p = project_to_P(model, targets, sample_F_point(rng, model, targets))
            except RuntimeError:
                continue
            checked += 1
            for k in (1, 2):
                d1, d2, t = p.encoder(k)
                n = model.noise_var(k)
                assert d1 + d2 - n * math.exp(-2.0 * t) - n <= 1e-12
                assert classify_F_k(n, d1, d2, t) in (FRegion.F1, FRegion.F2)
