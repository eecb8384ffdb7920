"""Converse machinery: bound function, classification, projection, lower bound."""

import math
from fractions import Fraction

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
from vceo.bound import _r, _sup_r_grad, _sup_r_vec, in_F
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
        grid = _sup_r_vec(n, np.array([d1, 0.3]), np.array([d2, 0.9]), np.array([math.inf, 0.7]))
        assert grid[0] == math.inf
        assert grid[1] == pytest.approx(sup_sigma_z(n, 0.3, 0.9, 0.7)[1], abs=1e-14)


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

    def test_rejects_points_outside_f(self):
        with pytest.raises(DomainError):
            project_to_P(UNIT, CANONICAL, BoundParams(0.9, 0.9, 0.9, 0.9, 0.1, 0.1))


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
        # SLSQP meets its linear receiver constraints only to about 1e-10 at
        # this ratio; project_to_P's signed slack puts the argmin back in F.
        model, targets = SourceModel(1.0, 1e-4, 1e4), DistortionTriple(0.5, 0.5, 0.1)
        p = lower_bound(model, targets).argmin
        s2, n1, n2 = (Fraction(v) for v in (model.sigma_s2, model.sigma_n1_2, model.sigma_n2_2))
        for d1l, d2l, target in ((p.d11, p.d21, targets.d1), (p.d12, p.d22, targets.d2)):
            precision = 1 / s2 + 1 / n1 + 1 / n2 - Fraction(d1l) / n1**2 - Fraction(d2l) / n2**2
            assert precision >= 1 / Fraction(target)

    @pytest.mark.parametrize(
        "status_4, rejected, projections",
        [(0, 0, 1), (1, 0, 1), (0, 1, 2), (0, 2, 2), (2, 0, 0)],
        ids=["none", "status 4", "first point", "both points", "both status 4"],
    )
    def test_a_failed_solve_reruns_slsqp_once(self, monkeypatch, status_4, rejected, projections):
        # A status-4 exit, or a point that does not project, reruns SLSQP once;
        # when the rerun fails too, the targets are reported infeasible.
        reference = lower_bound(UNIT, CANONICAL).value
        minimize, project = scipy.optimize.minimize, vceo.bound.project_to_P
        results, points = [], []

        def counted_minimize(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            if len(results) <= status_4:
                results[-1].status = 4
            return results[-1]

        def counted_project(model, targets, p):
            points.append(p)
            if len(points) <= rejected:
                raise DomainError("rejected for the test")
            return project(model, targets, p)

        monkeypatch.setattr(scipy.optimize, "minimize", counted_minimize)
        monkeypatch.setattr(vceo.bound, "project_to_P", counted_project)
        if status_4 + rejected == 2:
            with pytest.raises(InfeasibleTargetsError, match="neither SLSQP run") as info:
                lower_bound(UNIT, CANONICAL)
            assert info.value.constraint == "d0"
        else:
            lb = lower_bound(UNIT, CANONICAL)
            assert in_P(UNIT, CANONICAL, lb.argmin) is lb.branch
            assert lb.value == pytest.approx(reference, rel=1e-9)
        assert (len(results), len(points)) == (1 + (status_4 + rejected > 0), projections)

    def test_status_4_start_is_not_the_argmin(self):
        # SLSQP stops on its start with status 4 here, and taking that start gave
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

    # Targets with d0 at the remote-MMSE floor: SLSQP steps onto y = d/n = 1e-300.
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
        # The nearest targets that the rule lets through reach SLSQP: they give
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
        # constraint once divided by that gain.  d0 passes the target rule, so SLSQP runs.
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
