"""Closed-form scheme quantities, the sum-rate objective, rate tuples, optimizer."""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import vceo
from vceo import (
    DistortionTriple,
    InfeasibleTargetsError,
    InfiniteMutualInformationError,
    InvalidParamsError,
    OptimizeOptions,
    SchemeParams,
    SourceModel,
    build_joint_cov,
    central_distortion,
    condition_holds,
    conditional_cov,
    conditional_mi,
    full_mmse,
    lower_bound,
    marginal_params,
    optimize_sum_rate,
    rate_tuple,
    receiver_distortion,
    sum_rate,
)
from vceo.bound import r_fn
from vceo.gaussmodel import gaussian_mi
from vceo.scheme import (
    PENALTY_WEIGHT,
    W_CAP_FACTOR,
    _distortions,
    _nelder_mead,
    _params_from_vector,
    _penalized_objective,
    _scheme_forms,
    _start_vectors,
)

from conftest import log_det_sum_rate, random_feasible_targets, random_model, random_params

UNIT = SourceModel(1.0, 1.0, 1.0)


class TestTypes:
    def test_scheme_params_psd_invariant(self):
        SchemeParams(1, 1, 1, 1, a1=1.0)  # boundary allowed
        with pytest.raises(InvalidParamsError):
            SchemeParams(1, 1, 1, 1, a1=1.0 + 1e-6)
        with pytest.raises(InvalidParamsError):
            SchemeParams(-1, 1, 1, 1)
        with pytest.raises(InvalidParamsError):
            SchemeParams(1, 1, 1, 1, a2=-0.1)

    def test_distortion_triple_ordering(self):
        with pytest.raises(InvalidParamsError):
            DistortionTriple(0.4, 0.4, 0.4)
        with pytest.raises(InvalidParamsError):
            DistortionTriple(0.4, 0.4, 0.0)
        assert not DistortionTriple(1.2, 0.4, 0.3).valid_for(UNIT)
        assert DistortionTriple(0.9, 0.4, 0.3).valid_for(UNIT)


class TestReceiverDistortion:
    def test_symmetric_unit_instance(self):
        # d' = 0.5 each, so 1/delta = 1 + 1 + 1 - 0.5 - 0.5 = 2.
        assert receiver_distortion(UNIT, SchemeParams(1, 1, 1, 1), 1) == pytest.approx(0.5)
        assert receiver_distortion(UNIT, SchemeParams(1, 1, 1, 1), 2) == pytest.approx(0.5)

    def test_useless_descriptions_limit(self):
        params = SchemeParams(*(W_CAP_FACTOR,) * 4)
        assert receiver_distortion(UNIT, params, 1) == pytest.approx(1.0, rel=1e-6)

    def test_perfect_observations_limit(self):
        params = SchemeParams(0, 0, 0, 0)
        assert receiver_distortion(UNIT, params, 1) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_agrees_with_conditioning(self, rng):
        for _ in range(200):
            model = random_model(rng)
            params = random_params(rng, model)
            cov = build_joint_cov(model, params)
            for l, pair in ((1, ("U11", "U21")), (2, ("U12", "U22"))):
                direct = conditional_cov(cov, "S", pair)[0, 0]
                closed = receiver_distortion(model, params, l)
                assert closed == pytest.approx(direct, rel=1e-10)


class TestCentralDistortion:
    def test_exhausted_observations_limit(self):
        assert central_distortion(UNIT, SchemeParams(0, 0, 0, 0)) == pytest.approx(
            1.0 / 3.0, rel=1e-12
        )

    def test_symmetric_unit_value(self):
        # t' = (1/2) log 3 per encoder, so 1/delta_0 = 1 + 2 * (2/3) = 7/3.
        assert central_distortion(UNIT, SchemeParams(1, 1, 1, 1)) == pytest.approx(3.0 / 7.0)

    def test_one_encoder_useless_limit(self):
        params = SchemeParams(1, 1, W_CAP_FACTOR, W_CAP_FACTOR)
        # Remaining encoder's two descriptions: 1/delta -> 1 + (1 - 1/3) = 5/3.
        assert central_distortion(UNIT, params) == pytest.approx(0.6, rel=1e-6)

    def test_agrees_with_conditioning(self, rng):
        for _ in range(200):
            model = random_model(rng)
            params = random_params(rng, model)
            cov = build_joint_cov(model, params)
            direct = conditional_cov(cov, "S", ("U11", "U12", "U21", "U22"))[0, 0]
            assert central_distortion(model, params) == pytest.approx(direct, rel=1e-10)


class TestMarginalParams:
    def test_parallel_combination(self):
        mp = marginal_params(UNIT, SchemeParams(1, 1, 1, 1))
        assert mp.d11 == pytest.approx(0.5)

    def test_uncorrelated_t_value(self):
        mp = marginal_params(UNIT, SchemeParams(1, 1, 1, 1))
        assert mp.t1 == pytest.approx(0.5 * math.log(3.0), abs=1e-12)

    def test_psd_boundary_flags_infinite_t(self):
        mp = marginal_params(UNIT, SchemeParams(1, 1, 1, 1, a1=1.0))
        assert math.isinf(mp.t1)
        assert not math.isinf(mp.t2)

    def test_reciprocal_identity(self, rng):
        # 1 / (n e^{-2t'} / (1 - e^{-2t'}) + a) = 1/(w1 + a) + 1/(w2 + a).
        for _ in range(200):
            model = random_model(rng)
            params = random_params(rng, model)
            mp = marginal_params(model, params)
            for k, (w1, w2, a, t) in (
                (1, (params.w11, params.w12, params.a1, mp.t1)),
                (2, (params.w21, params.w22, params.a2, mp.t2)),
            ):
                n = model.noise_var(k)
                u = math.exp(-2.0 * t)
                lhs = 1.0 / (n * u / (1.0 - u) + a)
                rhs = 1.0 / (w1 + a) + 1.0 / (w2 + a)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_agrees_with_conditioning(self, rng):
        for _ in range(100):
            model = random_model(rng)
            params = random_params(rng, model)
            cov = build_joint_cov(model, params)
            mp = marginal_params(model, params)
            assert mp.d11 == pytest.approx(
                conditional_cov(cov, "X1", ("U11", "S"))[0, 0], rel=1e-10
            )
            assert mp.d22 == pytest.approx(
                conditional_cov(cov, "X2", ("U22", "S"))[0, 0], rel=1e-10
            )
            assert mp.t1 == pytest.approx(
                conditional_mi(cov, "X1", ("U11", "U12"), "S"), abs=1e-9
            )
            assert mp.t2 == pytest.approx(
                conditional_mi(cov, "X2", ("U21", "U22"), "S"), abs=1e-9
            )

    @given(
        w1=st.floats(0.01, 100.0),
        w2=st.floats(0.01, 100.0),
        n=st.floats(0.25, 4.0),
        rho=st.floats(0.0, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_t_decreases_with_anticorrelation_removed(self, w1, w2, n, rho):
        # a > 0 strictly increases the joint information of the description pair.
        model = SourceModel(1.0, n, n)
        a = rho * min(math.sqrt(w1 * w2), n)
        t_plain = marginal_params(model, SchemeParams(w1, w2, 1, 1)).t1
        t_anti = marginal_params(model, SchemeParams(w1, w2, 1, 1, a1=a)).t1
        assert t_anti >= t_plain - 1e-12


class TestSumRate:
    def test_breakdown_identity(self, rng):
        for _ in range(50):
            model = random_model(rng)
            params = random_params(rng, model)
            b = sum_rate(model, params)
            assert b.sum_rate == pytest.approx(b.term_mi_joint + b.term_mi_cross, abs=1e-9)
            assert b.term_mi_joint >= 0 and b.term_mi_cross >= 0

    def test_symmetric_unit_value_matches_closed_decomposition(self):
        params = SchemeParams(1, 1, 1, 1)
        b = sum_rate(UNIT, params)
        mp = marginal_params(UNIT, params)
        rhs = (
            r_fn(1.0, mp.d11, mp.d12, mp.t1, 0.0)
            + r_fn(1.0, mp.d21, mp.d22, mp.t2, 0.0)
            + 0.5
            * math.log(
                1.0
                / (receiver_distortion(UNIT, params, 1) * receiver_distortion(UNIT, params, 2))
            )
        )
        assert b.sum_rate == pytest.approx(rhs, abs=1e-9)
        assert b.sum_rate == pytest.approx(3.0 * math.log(2.0), abs=1e-12)

    def test_one_encoder_disabled_reduces_to_two_descriptions(self):
        params = SchemeParams(1.0, 2.0, W_CAP_FACTOR, W_CAP_FACTOR)
        cov = build_joint_cov(UNIT, params)
        reduced = gaussian_mi(cov, "X1", ("U11", "U12")) + gaussian_mi(cov, "U11", "U12")
        assert log_det_sum_rate(UNIT, params) == pytest.approx(reduced, abs=1e-6)
        assert sum_rate(UNIT, params).sum_rate == pytest.approx(reduced, abs=1e-6)

    def test_all_descriptions_useless_gives_zero(self):
        params = SchemeParams(*(W_CAP_FACTOR,) * 4)
        assert sum_rate(UNIT, params).sum_rate <= 1e-6

    def test_degenerate_params_raise(self):
        with pytest.raises(InfiniteMutualInformationError):
            sum_rate(UNIT, SchemeParams(0, 1, 1, 1))
        with pytest.raises(InfiniteMutualInformationError):
            sum_rate(UNIT, SchemeParams(1, 1, 2, 2, a2=2.0))

    def test_description_at_the_cap_matches_the_exact_rate(self):
        # The scheme ``sum-rate`` reports for the benchmark pool instance
        # random_24, whose w12 sits at the W_CAP_FACTOR cap.  The constants are
        # its rate and joint term, computed once with mpmath at 50 digits from
        # the log-determinants; the log-det route in doubles is 9.5e-8 nats low here.
        model = SourceModel(3.049200424681859, 3.9276496516995336, 1.8062823273316246)
        params = SchemeParams(
            1.9823642646145443,
            392764965.16995364,
            0.42702646236710734,
            47.084913284066324,
            a1=3.9276496516995336,
            a2=1.8062823273316246,
        )
        assert params.w12 == pytest.approx(W_CAP_FACTOR * model.sigma_n1_2, rel=1e-14)
        b = sum_rate(model, params)
        assert b.sum_rate == pytest.approx(2.0400917917092978, rel=1e-13)
        assert b.term_mi_joint == pytest.approx(2.0205494245994647, rel=1e-13)

    def test_closed_form_agrees_with_log_det_route(self, rng):
        for _ in range(200):
            model = random_model(rng)
            params = random_params(rng, model)
            assert sum_rate(model, params).sum_rate == pytest.approx(
                log_det_sum_rate(model, params), abs=1e-9
            )


class TestAchievableParamsInF:
    def test_marginals_land_in_the_admissible_box(self, rng):
        # n e^{-2t'} <= min(d') <= max(d') <= n per encoder.
        for _ in range(200):
            model = random_model(rng)
            mp = marginal_params(model, random_params(rng, model))
            for k, (d1, d2, t) in (
                (1, (mp.d11, mp.d12, mp.t1)),
                (2, (mp.d21, mp.d22, mp.t2)),
            ):
                n = model.noise_var(k)
                u = 0.0 if math.isinf(t) else math.exp(-2.0 * t)
                assert n * u <= min(d1, d2) * (1 + 1e-12)
                assert max(d1, d2) <= n * (1 + 1e-12)


class TestRateTuple:
    def _constraint_margins(self, model, params, breakdown):
        cov = build_joint_cov(model, params)
        eps_terms = []
        # Codebook-generation inequalities, three per encoder.
        for k, (u1, u2) in ((1, ("U11", "U12")), (2, ("U21", "U22"))):
            x = f"X{k}"
            rp1, rp2 = (
                (breakdown.rp11, breakdown.rp12) if k == 1 else (breakdown.rp21, breakdown.rp22)
            )
            eps_terms.append(rp1 - gaussian_mi(cov, x, u1))
            eps_terms.append(rp2 - gaussian_mi(cov, x, u2))
            eps_terms.append(
                rp1 + rp2 - gaussian_mi(cov, x, (u1, u2)) - gaussian_mi(cov, u1, u2)
            )
        # Decoding inequalities, three per receiver.
        for l, (ua, ub) in ((1, ("U11", "U21")), (2, ("U12", "U22"))):
            i_cross = gaussian_mi(cov, ua, ub)
            r1, r2 = (breakdown.r11, breakdown.r21) if l == 1 else (breakdown.r12, breakdown.r22)
            rp1, rp2 = (
                (breakdown.rp11, breakdown.rp21) if l == 1 else (breakdown.rp12, breakdown.rp22)
            )
            eps_terms.append(r1 - (rp1 - i_cross))
            eps_terms.append(r2 - (rp2 - i_cross))
            eps_terms.append(r1 + r2 - (rp1 + rp2 - i_cross))
        return eps_terms

    def test_all_constraints_strict(self, rng):
        for slack in (0.1, 0.01):
            for _ in range(10):
                model = random_model(rng)
                params = random_params(rng, model)
                b = rate_tuple(model, params, slack)
                margins = self._constraint_margins(model, params, b)
                assert min(margins) > 0.0
                assert min(margins) >= slack / 8.0 - 1e-9

    def test_sum_overshoots_by_exactly_slack(self, rng):
        for slack in (0.1, 0.01):
            model = random_model(rng)
            params = random_params(rng, model)
            b = rate_tuple(model, params, slack)
            assert sum(b.link_rates()) == pytest.approx(b.sum_rate + slack, abs=1e-9)

    def test_vanishing_slack_recovers_sum_rate(self):
        params = SchemeParams(1, 2, 3, 4, a1=0.3, a2=0.5)
        b = rate_tuple(UNIT, params, 1e-9)
        assert sum(b.link_rates()) == pytest.approx(b.sum_rate, abs=1e-8)

    def test_symmetric_instance_prebinning_rates_match(self):
        params = SchemeParams(1.5, 2.5, 1.5, 2.5, a1=0.4, a2=0.4)
        b = rate_tuple(UNIT, params, 0.1)
        # Swapping the encoder labels maps R'_1l onto R'_2l.
        assert b.rp11 == pytest.approx(b.rp21, abs=1e-10)
        assert b.rp12 == pytest.approx(b.rp22, abs=1e-10)

    def test_rates_nonnegative(self, rng):
        for _ in range(20):
            model = random_model(rng)
            b = rate_tuple(model, random_params(rng, model), 0.01)
            assert min(b.link_rates()) >= 0.0
            assert min(b.rp11, b.rp12, b.rp21, b.rp22) >= 0.0

    def test_rejects_nonpositive_slack(self):
        with pytest.raises(InvalidParamsError):
            rate_tuple(UNIT, SchemeParams(1, 1, 1, 1), 0.0)


class TestPenalizedObjective:
    def test_matches_closed_form_plus_relative_violation_penalty(self, rng):
        # The optimizer's objective at z is the closed-form sum rate of the
        # decoded scheme plus weight * (sum of relative distortion violations).
        feasible = infeasible = 0
        while feasible < 100 or infeasible < 100:
            model = random_model(rng)
            targets = random_feasible_targets(rng, model)
            weight = float(rng.choice([1e4, 3.0]))
            objective = _penalized_objective(model, targets, weight)
            log_n = np.log([model.sigma_n1_2, model.sigma_n1_2, model.sigma_n2_2, model.sigma_n2_2])
            z = np.concatenate([log_n + rng.uniform(-6.0, 4.0, 4), rng.uniform(-0.3, 0.95, 2)])
            params = _params_from_vector(model, z)
            rate = sum_rate(model, params).sum_rate
            excess = sum(
                max(0.0, delta / target - 1.0)
                for delta, target in zip(
                    _distortions(model, params), (targets.d1, targets.d2, targets.d0)
                )
            )
            if excess == 0.0:
                feasible += 1
                assert objective(z) == pytest.approx(rate, rel=1e-12, abs=1e-300)
            else:
                infeasible += 1
                assert objective(z) - rate == pytest.approx(weight * excess, rel=1e-9, abs=1e-9)

    def test_is_the_closed_form_plus_the_penalty_bit_for_bit(self, rng):
        # Not approximately: the value rebuilt from _closed_form at the decoded
        # scheme, with the penalty summed in the same order.  Coordinates run
        # past both clip bounds and rho past [0, 1]; every third point sits on
        # the 1e12 plateau (w11 = w12 <= n1 and rho1 >= 1 give det1 = 0), and
        # every point also moves one coordinate past the upper clip bound.
        plateau = 0
        for i in range(600):
            model = random_model(rng)
            targets = random_feasible_targets(rng, model)
            weight = float(rng.choice([PENALTY_WEIGHT, 3.0]))
            objective = _penalized_objective(model, targets, weight)
            log_n = np.log([model.sigma_n1_2, model.sigma_n1_2, model.sigma_n2_2, model.sigma_n2_2])
            z = np.concatenate([log_n + rng.uniform(-30.0, 25.0, 4), rng.uniform(-0.5, 1.5, 2)])
            if i % 3 == 0:
                z[0] = z[1] = min(z[0], log_n[0])
                z[4] = max(z[4], 1.0)
            above = z.copy()
            above[i % 4] = log_n[i % 4] + rng.uniform(math.log(W_CAP_FACTOR), 60.0)
            for point in (z, above):
                rate, inv_d1, inv_d2, inv_d0 = _scheme_forms(
                    model, _params_from_vector(model, point)
                )
                if math.isinf(rate):
                    plateau += point is z
                    expected = 1e12
                else:
                    expected = rate + weight * (
                        max(0.0, 1.0 / (inv_d1 * targets.d1) - 1.0)
                        + max(0.0, 1.0 / (inv_d2 * targets.d2) - 1.0)
                        + max(0.0, 1.0 / (inv_d0 * targets.d0) - 1.0)
                    )
                assert objective(point) == expected
                assert objective(point.tolist()) == expected
        assert plateau >= 200


class TestOptimizeSumRate:
    def test_slack_targets_need_almost_no_rate(self):
        targets = DistortionTriple(0.95, 0.95, 0.90)
        res = optimize_sum_rate(UNIT, targets, OptimizeOptions(starts=4, seed=0))
        assert res.breakdown.sum_rate <= 0.3

    def test_canonical_instance_meets_lower_bound(self):
        targets = DistortionTriple(0.4, 0.4, 0.35)
        res = optimize_sum_rate(UNIT, targets, OptimizeOptions(starts=4, seed=0))
        lb = lower_bound(UNIT, targets)
        assert abs(res.breakdown.sum_rate - lb.value) / lb.value <= 1e-3
        d1, d2, d0 = res.distortions
        assert d1 <= 0.4 + 1e-9 and d2 <= 0.4 + 1e-9 and d0 <= 0.35 + 1e-9

    def test_tightening_central_target_never_helps(self):
        opts = OptimizeOptions(starts=4, seed=3)
        loose = optimize_sum_rate(UNIT, DistortionTriple(0.4, 0.4, 0.38), opts)
        tight = optimize_sum_rate(UNIT, DistortionTriple(0.4, 0.4, 0.35), opts)
        assert tight.breakdown.sum_rate >= loose.breakdown.sum_rate - 1e-6

    def test_infeasible_targets_raise_with_constraint_name(self):
        with pytest.raises(InfeasibleTargetsError) as exc:
            optimize_sum_rate(UNIT, DistortionTriple(0.5, 0.5, 0.2))
        assert exc.value.constraint == "d0"
        assert full_mmse(UNIT) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize(
        "targets", [(0.4, 0.4, 0.3333333333333333), (0.6, 0.6, 0.33333333333333315)]
    )
    def test_targets_at_or_below_the_floor_raise_before_any_evaluation(self, targets, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the objective was built for infeasible targets")

        monkeypatch.setattr(vceo.scheme, "_penalized_objective", forbidden)
        with pytest.raises(InfeasibleTargetsError) as exc:
            optimize_sum_rate(UNIT, DistortionTriple(*targets))
        assert exc.value.constraint == "d0"

    @pytest.mark.parametrize(
        "name, targets",
        [
            ("d1", (1.0 / 3.0, 0.5, 0.3)),
            ("d2", (0.5, 1.0 / 3.0, 0.3)),
            ("d0", (0.4, 0.4, 1.0 / 3.0)),
        ],
    )
    def test_the_optimizer_and_the_bound_share_one_floor_rule(self, name, targets):
        # The floor 1/3 of UNIT is exactly 1.0 / 3.0 in floats.
        targets = DistortionTriple(*targets)
        with pytest.raises(InfeasibleTargetsError) as opt:
            optimize_sum_rate(UNIT, targets)
        with pytest.raises(InfeasibleTargetsError) as lb:
            lower_bound(UNIT, targets)
        assert opt.value.constraint == lb.value.constraint == name
        assert str(opt.value) == str(lb.value)
        assert full_mmse(UNIT) == 1.0 / 3.0

    def test_never_calls_the_bound_or_the_construction(self, monkeypatch):
        # Inside the distortion condition too, seeding is the caller's choice:
        # the optimizer stands on the targets alone.
        def forbidden(*args, **kwargs):
            raise AssertionError("optimize_sum_rate called up into bound or equivalence")

        monkeypatch.setattr(vceo.bound, "lower_bound", forbidden)
        monkeypatch.setattr(vceo.equivalence, "construct_matching_scheme", forbidden)
        targets = DistortionTriple(0.4, 0.4, 0.35)
        assert condition_holds(UNIT, targets)
        res = optimize_sum_rate(UNIT, targets, OptimizeOptions(starts=4, seed=0))
        assert res.distortions[2] <= 0.35 * (1.0 + 1e-9)

    @pytest.mark.parametrize("starts", [0, -3])
    def test_fewer_than_one_start_is_invalid(self, starts):
        with pytest.raises(InvalidParamsError, match="starts"):
            optimize_sum_rate(UNIT, DistortionTriple(0.6, 0.6, 0.4), OptimizeOptions(starts=starts))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("starts", 2.5),
            ("seed", -1),
            pytest.param("seed", 2**128, id="seed-2**128"),
            ("seed", True),
            ("tol", math.nan),
        ],
    )
    def test_options_outside_their_range_are_invalid(self, field, value):
        with pytest.raises(InvalidParamsError, match=field):
            OptimizeOptions(**{field: value})

    def test_one_start_runs_one_start(self):
        targets = DistortionTriple(0.6, 0.6, 0.4)
        assert len(_start_vectors(UNIT, targets, OptimizeOptions(starts=1))) == 1
        res = optimize_sum_rate(UNIT, targets, OptimizeOptions(starts=1))
        assert res.distortions[2] <= 0.4 * (1.0 + 1e-9)

    def test_deterministic_given_seed(self):
        targets = DistortionTriple(0.5, 0.45, 0.4)
        opts = OptimizeOptions(starts=4, seed=7)
        a = optimize_sum_rate(UNIT, targets, opts)
        b = optimize_sum_rate(UNIT, targets, opts)
        assert a.params == b.params
        assert a.breakdown.sum_rate == b.breakdown.sum_rate

    @pytest.mark.parametrize(
        "model, targets, rate, nfev",
        [
            ((1.0, 1.0, 1.0), (0.6, 0.6, 0.4), 1.9454540224158088, 44188),
            ((1.0, 0.3, 3.0), (0.5, 0.3, 0.25), 2.107649001253632, 80040),
        ],
    )
    def test_default_options_reproduce_the_benchmark_rates(
        self, model, targets, rate, nfev, monkeypatch
    ):
        # The rates perfbench/reference.json stores for unit_outside and
        # asym_noise_out, which the benchmark checks to 1e-6, and the objective
        # evaluations it stores with them (nm_nfev), summed over every
        # Nelder-Mead run.  The
        # Nelder-Mead path (decoders, starts, distortions, feasibility
        # restoration, the simplex steps) must not change until that file is
        # rebuilt: taking central_distortion's e^{-2t'} from the rational
        # form, a 1-ulp change, moves asym_noise_out past 1e-9.
        counts = []
        nelder_mead = vceo.scheme._nelder_mead

        def counting(*args):
            res = nelder_mead(*args)
            counts.append(res.nfev)
            return res

        monkeypatch.setattr(vceo.scheme, "_nelder_mead", counting)
        res = optimize_sum_rate(SourceModel(*model), DistortionTriple(*targets))
        assert res.breakdown.sum_rate == pytest.approx(rate, rel=1e-9)
        assert sum(counts) == nfev

    def test_standalone_multistart_meets_bound_without_analytic_start(self):
        # The optimizer must stand on its own, not just polish the converse
        # construction: symmetric and asymmetric instances at 1e-3 relative.
        cases = [
            (UNIT, DistortionTriple(0.4, 0.4, 0.35)),
            (SourceModel(2.0, 0.5, 3.0), DistortionTriple(0.37, 0.37, 0.36)),
        ]
        for model, targets in cases:
            lb = lower_bound(model, targets)
            res = optimize_sum_rate(model, targets, OptimizeOptions(starts=12, seed=5))
            assert abs(res.breakdown.sum_rate - lb.value) / lb.value <= 1e-3


class TestNelderMead:
    # The optimizer's two option sets at the default tol = 1e-7.
    PHASE1 = {"maxiter": 1200, "xatol": 1e-7, "fatol": 1e-9}
    PHASE2 = {"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-12}

    @staticmethod
    def assert_same_run(objective, z0, options):
        mine = _nelder_mead(objective, z0, **options)
        ref = scipy.optimize.minimize(
            objective, z0, method="Nelder-Mead", options={**options, "adaptive": True}
        )
        assert np.array_equal(mine.x, ref.x)
        assert (mine.fun, mine.nit, mine.nfev) == (ref.fun, ref.nit, ref.nfev)

    @pytest.mark.parametrize(
        "model, targets",
        [
            pytest.param(UNIT, DistortionTriple(0.6, 0.6, 0.4), id="unit_outside"),
            pytest.param(
                SourceModel(1.0, 0.3, 3.0), DistortionTriple(0.5, 0.3, 0.25), id="asym_noise_out"
            ),
        ],
    )
    def test_every_default_start_runs_as_in_scipy(self, model, targets):
        # Bit for bit: every iterate, hence x, fun, nit and nfev.
        objective = _penalized_objective(model, targets, PENALTY_WEIGHT)
        starts = _start_vectors(model, targets, OptimizeOptions())
        for z0 in starts:
            self.assert_same_run(objective, z0, self.PHASE1)
        self.assert_same_run(objective, starts[0], self.PHASE2)

    def test_a_shrink_that_moves_nothing_ends_the_run_as_scipy_would(self, monkeypatch):
        # Some phase-2 runs reach a simplex whose shrink rounds every vertex
        # back onto itself; from there scipy repeats the same iteration until
        # maxiter.  _nelder_mead stops evaluating but reports scipy's result.
        model, targets = SourceModel(1.0, 0.3, 3.0), DistortionTriple(0.5, 0.3, 0.25)
        runs = []
        nelder_mead = vceo.scheme._nelder_mead

        def recording(fun, x0, maxiter, xatol, fatol):
            calls = []
            res = nelder_mead(lambda z: calls.append(1) or fun(z), x0, maxiter, xatol, fatol)
            options = {"maxiter": maxiter, "xatol": xatol, "fatol": fatol}
            runs.append((np.array(x0), options, len(calls), res.nfev))
            return res

        with monkeypatch.context() as m:
            m.setattr(vceo.scheme, "_nelder_mead", recording)
            optimize_sum_rate(model, targets)
        # A skipped run called the objective fewer times than its nfev.
        stuck = [(z0, options) for z0, options, calls, nfev in runs if calls < nfev]
        assert stuck, "no run skipped a stuck shrink"
        objective = _penalized_objective(model, targets, PENALTY_WEIGHT)
        self.assert_same_run(objective, *stuck[0])

    def test_tied_values_keep_numpy_s_order(self, monkeypatch):
        # Encoder 1 sits on the PSD boundary (w11 = w12 = n1, rho1 = 1), so
        # five of the seven first vertices share the 1e12 plateau; a constant
        # objective ties all of them at every step.  Ties take np.argsort's
        # order, which is not stable.
        objective = _penalized_objective(UNIT, DistortionTriple(0.6, 0.6, 0.4), PENALTY_WEIGHT)
        z0 = np.array([0.0, 0.0, 0.5, 0.3, 1.0, 0.0])
        assert objective(z0) == 1e12
        argsort, calls = np.argsort, []
        with monkeypatch.context() as m:
            m.setattr(np, "argsort", lambda a: calls.append(1) or argsort(a))
            _nelder_mead(objective, z0, **self.PHASE1)
        assert calls
        self.assert_same_run(objective, z0, self.PHASE1)
        self.assert_same_run(lambda z: 1.0, z0, self.PHASE1)
