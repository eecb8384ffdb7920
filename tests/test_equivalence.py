"""Alpha reparametrisation, root finding, and the matching-scheme construction."""

import math

import pytest

from vceo import (
    AlphaTriple,
    BoundParams,
    DistortionTriple,
    DomainError,
    InternalContradictionError,
    SourceModel,
    alphas,
    build_joint_cov,
    central_distortion,
    construct_matching_scheme,
    g_fn,
    in_P,
    lower_bound,
    marginal_params,
    project_to_P,
    solve_a_star,
    sum_rate,
)
from vceo.equivalence import _channel_residual_mi, _construct_encoder
from vceo.gaussmodel import conditional_cov, conditional_mi

from conftest import (
    log_det_sum_rate,
    random_condition_targets,
    random_model,
    random_params,
    sample_F_point,
)

UNIT = SourceModel(1.0, 1.0, 1.0)


class TestAlphas:
    def test_half_maps_to_one(self):
        t = -0.5 * math.log(0.5)
        a = alphas(1.0, 0.5, 0.5, t)
        assert a.a1 == pytest.approx(1.0) and a.a2 == pytest.approx(1.0)
        assert a.a0 == pytest.approx(1.0)

    def test_three_fifths_maps_to_three_halves(self):
        t = -0.5 * math.log(0.5)
        assert alphas(1.0, 0.6, 0.5, t).a1 == pytest.approx(1.5)

    def test_round_trip(self, rng):
        for _ in range(200):
            n = rng.uniform(0.25, 4.0)
            t = rng.uniform(0.05, 2.0)
            lo = n * math.exp(-2.0 * t)
            d1, d2 = rng.uniform(lo, n, 2)
            a = alphas(n, d1, d2, t)
            assert n * a.a1 / (n + a.a1) == pytest.approx(d1, rel=1e-12)
            assert n * a.a2 / (n + a.a2) == pytest.approx(d2, rel=1e-12)
            assert n * a.a0 / (n + a.a0) == pytest.approx(n * math.exp(-2 * t), rel=1e-12)

    def test_boundary_flags_infinite(self):
        t = -0.5 * math.log(0.5)
        a = alphas(1.0, 1.0, 0.5, t)  # d1 at the noise-variance cap
        assert math.isinf(a.a1)
        assert a.a2 == pytest.approx(1.0)
        full = alphas(1.0, 1.0, 1.0, 0.0)  # t = 0 forces both d at the cap
        assert math.isinf(full.a0) and math.isinf(full.a1) and math.isinf(full.a2)

    def test_outside_box_rejected(self):
        with pytest.raises(DomainError):
            alphas(1.0, 1.5, 0.5, 1.0)


class TestGFn:
    def test_balanced(self):
        assert g_fn(AlphaTriple(1.0, 1.0, 1.0), 0.0) == pytest.approx(-1.0)

    def test_positive_at_zero(self):
        assert g_fn(AlphaTriple(0.4, 1.5, 1.5), 0.0) == pytest.approx(2.5 - 4.0 / 3.0)

    def test_root_at_derived_point(self):
        # 1/(0.4 + a) = 2/(1.5 + a) solves to a = 0.7.
        assert g_fn(AlphaTriple(0.4, 1.5, 1.5), 0.7) == pytest.approx(0.0, abs=1e-15)

    def test_infinite_alpha_drops_term(self):
        assert g_fn(AlphaTriple(1.0, math.inf, 2.0), 0.0) == pytest.approx(1.0 - 0.5)

    def test_negative_beta_rejected(self):
        with pytest.raises(DomainError):
            g_fn(AlphaTriple(1.0, 1.0, 1.0), -0.1)


class TestSolveAStar:
    def test_derived_root(self):
        assert solve_a_star(1.0, AlphaTriple(0.4, 1.5, 1.5)) == pytest.approx(0.7, abs=1e-12)

    def test_symmetric_closed_form(self, rng):
        # With alpha_1 = alpha_2 = alpha the root is alpha - 2 alpha_0 when in range.
        for _ in range(50):
            alpha = rng.uniform(0.5, 3.0)
            a0 = rng.uniform(0.05, alpha / 2.0 * 0.95)
            n = alpha  # keep the root inside (0, n]
            root = solve_a_star(n, AlphaTriple(a0, alpha, alpha))
            assert root == pytest.approx(alpha - 2.0 * a0, abs=1e-10)

    def test_root_is_bracketed_by_sign_change(self, rng):
        for _ in range(50):
            n = rng.uniform(0.25, 4.0)
            t = rng.uniform(0.05, 2.0)
            lo = n * math.exp(-2.0 * t)
            d1, d2 = rng.uniform(lo, n, 2)
            a = alphas(n, d1, d2, t)
            if not (g_fn(a, 0.0) > 0.0 and g_fn(a, n) <= 0.0):
                continue
            root = solve_a_star(n, a)
            assert 0.0 < root <= n
            assert g_fn(a, max(root - 1e-6, 0.0)) * g_fn(a, min(root + 1e-6, n)) <= 0.0

    def test_psd_margin(self, rng):
        for _ in range(50):
            n = rng.uniform(0.25, 4.0)
            t = rng.uniform(0.05, 2.0)
            lo = n * math.exp(-2.0 * t)
            d1, d2 = rng.uniform(lo, n, 2)
            a = alphas(n, d1, d2, t)
            if not (g_fn(a, 0.0) > 0.0 and g_fn(a, n) <= 0.0):
                continue
            root = solve_a_star(n, a)
            assert a.a1 * a.a2 - root * root >= -1e-12

    def test_root_zeroes_g(self, rng):
        # (alpha_0 + beta) g(beta) is O(1), so the closed form leaves only roundoff.
        checked = 0
        while checked < 500:
            n = rng.uniform(0.25, 4.0)
            t = rng.uniform(0.05, 2.0)
            d1, d2 = rng.uniform(n * math.exp(-2.0 * t), n, 2)
            a = alphas(n, d1, d2, t)
            if not (g_fn(a, 0.0) > 0.0 and g_fn(a, n) <= 0.0):
                continue
            checked += 1
            root = solve_a_star(n, a)
            assert abs(g_fn(a, root)) * (a.a0 + root) <= 1e-14

    def test_bad_bracket_rejected(self):
        with pytest.raises(DomainError):
            solve_a_star(1.0, AlphaTriple(1.0, 1.0, 1.0))  # g(0) < 0


class TestChannelResidualMi:
    def test_matches_log_det_conditioning(self, rng):
        for _ in range(500):
            model = random_model(rng)
            params = random_params(rng, model)
            noise_z = tuple(rng.uniform(0.0, 4.0, 2))
            cov = build_joint_cov(model, params, noise_z=noise_z)
            for k in (1, 2):
                ref = conditional_mi(cov, f"U{k}1", f"U{k}2", ("S", f"Y{k}"))
                val = _channel_residual_mi(model.noise_var(k), *params.encoder(k), noise_z[k - 1])
                assert abs(val - ref) <= 1e-12 * max(1.0, ref)

    def test_infinite_channel_variance_conditions_on_s_only(self, rng):
        for _ in range(50):
            model = random_model(rng)
            params = random_params(rng, model)
            cov = build_joint_cov(model, params)
            for k in (1, 2):
                ref = conditional_mi(cov, f"U{k}1", f"U{k}2", "S")
                val = _channel_residual_mi(model.noise_var(k), *params.encoder(k), math.inf)
                assert abs(val - ref) <= 1e-12 * max(1.0, ref)

    def test_exactly_zero_where_the_construction_puts_it(self):
        assert _channel_residual_mi(1.0, 0.0, 2.0, 0.0, 0.0) == 0.0  # F_k2: v = a = 0
        assert _channel_residual_mi(2.0, 3.0, 5.0, 2.0, math.inf) == 0.0  # v = n = a


class TestConstructMatchingScheme:
    def test_identity_on_random_critical_points(self, rng):
        checked = 0
        while checked < 12:
            model = random_model(rng)
            targets = random_condition_targets(rng, model)
            p = project_to_P(model, targets, sample_F_point(rng, model, targets))
            report = construct_matching_scheme(model, targets, p)
            checked += 1
            assert report.diff <= 1e-9
            assert max(report.cond_mi) <= 1e-12
            d1, d2, d0 = report.distortions
            assert d1 <= targets.d1 * (1 + 1e-9)
            assert d2 <= targets.d2 * (1 + 1e-9)
            assert d0 <= targets.d0 * (1 + 1e-9)

    def test_rhs_equals_log_det_sum_rate(self, rng):
        checked = 0
        while checked < 8:
            model = random_model(rng)
            targets = random_condition_targets(rng, model)
            p = project_to_P(model, targets, sample_F_point(rng, model, targets))
            report = construct_matching_scheme(model, targets, p)
            checked += 1
            direct = log_det_sum_rate(model, report.params)
            assert direct == pytest.approx(report.rhs, abs=1e-7)

    def test_case1_zeroes_conditional_correlation(self):
        targets = DistortionTriple(0.4, 0.4, 0.35)
        lb = lower_bound(UNIT, targets)
        report = construct_matching_scheme(UNIT, targets, lb.argmin)
        assert report.cases == ("F_k1", "F_k1")
        for k in (1, 2):
            sz = report.sigma_z[k - 1]
            assert math.isfinite(sz)
            cov = build_joint_cov(UNIT, report.params, noise_z=report.sigma_z)
            cond = conditional_cov(cov, (f"U{k}1", f"U{k}2"), ("S", f"Y{k}"))
            assert abs(cond[0, 1]) <= 1e-12
        assert max(report.cond_mi) <= 1e-12

    def test_case2_monotone_information_and_central_constraint(self):
        targets = DistortionTriple(0.4, 0.4, 0.385)
        p = BoundParams(0.1, 0.3, 0.4, 0.2, -0.5 * math.log(0.1), -0.5 * math.log(0.2))
        report = construct_matching_scheme(UNIT, targets, p)
        assert report.cases == ("F_k2", "F_k2")
        assert report.sigma_z == (0.0, 0.0)
        assert report.params.a1 == 0.0 and report.params.a2 == 0.0
        mp = marginal_params(UNIT, report.params)
        assert mp.t1 >= p.t1 - 1e-12
        assert mp.t2 >= p.t2 - 1e-12
        assert central_distortion(UNIT, report.params) <= targets.d0 * (1 + 1e-12)
        assert report.diff <= 1e-9

    def test_matches_lower_bound_value_at_argmin(self):
        targets = DistortionTriple(0.4, 0.4, 0.35)
        lb = lower_bound(UNIT, targets)
        report = construct_matching_scheme(UNIT, targets, lb.argmin)
        achieved = sum_rate(UNIT, report.params).sum_rate
        assert achieved == pytest.approx(lb.value, rel=1e-9)

    def test_condition_failure_rejected(self):
        targets = DistortionTriple(0.4, 0.4, 0.3)
        p = BoundParams(0.25, 0.25, 0.25, 0.25, 1.0, 1.0)
        with pytest.raises(DomainError):
            construct_matching_scheme(UNIT, targets, p)

    def test_noncritical_point_rejected(self, rng):
        targets = DistortionTriple(0.4, 0.4, 0.35)
        p = sample_F_point(rng, UNIT, targets)
        while in_P(UNIT, targets, p) is not None:
            p = sample_F_point(rng, UNIT, targets)
        with pytest.raises(DomainError):
            construct_matching_scheme(UNIT, targets, p)

    def test_excluded_region_raises_contradiction(self):
        # d1 + d2 > n (1 + e^{-2t}) puts the triple in the excluded region;
        # the per-encoder dispatch must refuse it.
        t = -0.5 * math.log(0.5)
        with pytest.raises(InternalContradictionError):
            _construct_encoder(1.0, 0.9, 0.9, t)
