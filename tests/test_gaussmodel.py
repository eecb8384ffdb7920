"""Covariance assembly, conditioning, and log-det information measures."""

import math

import numpy as np
import pytest

from vceo import (
    InfiniteMutualInformationError,
    InvalidParamsError,
    LabeledCov,
    SchemeParams,
    SourceModel,
    build_joint_cov,
    conditional_cov,
    conditional_mi,
    gaussian_mi,
)
from vceo.gaussmodel import _pinv_psd
from vceo.errors import DegenerateConditioningError

from conftest import random_model, random_params

UNIT = SourceModel(1.0, 1.0, 1.0)


class TestTypes:
    def test_source_model_rejects_nonpositive_variance(self):
        with pytest.raises(InvalidParamsError):
            SourceModel(1.0, 0.0, 1.0)
        with pytest.raises(InvalidParamsError):
            SourceModel(1.0, 1.0, -2.0)
        with pytest.raises(InvalidParamsError):
            SourceModel(math.inf, 1.0, 1.0)

    @pytest.mark.parametrize("value", [np.float32(2.0), np.int64(2), 2])
    def test_source_model_takes_numpy_scalars(self, value):
        model = SourceModel(value, np.int64(1), 1.0)
        assert model.sigma_s2 == 2.0 and type(model.sigma_s2) is float

    @pytest.mark.parametrize("value", [True, "1", None, math.nan, pytest.param(10**400, id="10**400")])
    def test_source_model_rejects_non_numbers(self, value):
        with pytest.raises(InvalidParamsError, match="sigma_s2"):
            SourceModel(value, 1, 1)

    def test_labeled_cov_rejects_asymmetry(self):
        with pytest.raises(InvalidParamsError):
            LabeledCov(("a", "b"), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_labeled_cov_rejects_indefinite(self):
        with pytest.raises(InvalidParamsError):
            LabeledCov(("a", "b"), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_labeled_cov_rejects_duplicate_labels(self):
        with pytest.raises(InvalidParamsError):
            LabeledCov(("a", "a"), np.eye(2))

    def test_labeled_cov_matrix_is_readonly(self):
        cov = LabeledCov(("a",), np.array([[1.0]]))
        with pytest.raises(ValueError):
            cov.matrix[0, 0] = 2.0


class TestBuildJointCov:
    def test_degenerate_w_makes_u_equal_x(self):
        # All W variances zero: U duplicates X, so Cov(U11, U21) = Cov(X1, X2).
        cov = build_joint_cov(UNIT, SchemeParams(0, 0, 0, 0))
        assert cov.matrix[cov.index("U11"), cov.index("U21")] == pytest.approx(1.0)
        assert cov.matrix[cov.index("X1"), cov.index("X2")] == pytest.approx(1.0)

    def test_independent_component_sums(self):
        cov = build_joint_cov(UNIT, SchemeParams(1, 1, 1, 1))
        assert cov.var("U11") == pytest.approx(3.0)
        assert cov.matrix[cov.index("U11"), cov.index("U12")] == pytest.approx(2.0)

    def test_off_diagonal_carries_minus_a(self):
        cov = build_joint_cov(UNIT, SchemeParams(1, 1, 1, 1, a1=0.5))
        assert cov.matrix[cov.index("U11"), cov.index("U12")] == pytest.approx(1.5)

    def test_rejects_non_psd_w_block(self):
        with pytest.raises(InvalidParamsError):
            SchemeParams(0.5, 0.5, 1, 1, a1=0.8)

    def test_rejects_negative_z_variance(self):
        with pytest.raises(InvalidParamsError):
            build_joint_cov(UNIT, SchemeParams(1, 1, 1, 1), noise_z=(-0.1, 0.0))

    def test_y_labels_present_with_noise_z(self):
        cov = build_joint_cov(UNIT, SchemeParams(1, 1, 1, 1), noise_z=(0.5, 2.0))
        assert cov.labels[-2:] == ("Y1", "Y2")
        assert cov.var("Y1") == pytest.approx(2.5)

    def test_assembled_matrices_symmetric_and_psd(self, rng):
        for _ in range(50):
            model = random_model(rng)
            cov = build_joint_cov(model, random_params(rng, model), noise_z=tuple(rng.uniform(0, 3, 2)))
            m = cov.matrix
            assert np.max(np.abs(m - m.T)) <= 1e-12 * np.max(np.abs(m))
            assert np.linalg.eigvalsh(m)[0] >= -1e-10 * np.linalg.eigvalsh(m)[-1]


class TestConditionalCov:
    def test_var_s_given_both_observations(self):
        # Precision adds across independent observations: (1 + 1 + 1)^-1.
        cov = build_joint_cov(UNIT, SchemeParams(1, 1, 1, 1))
        out = conditional_cov(cov, "S", ("X1", "X2"))
        assert out[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_empty_conditioning_returns_marginal(self):
        cov = build_joint_cov(UNIT, SchemeParams(1, 1, 1, 1))
        assert conditional_cov(cov, "S")[0, 0] == pytest.approx(1.0)

    def test_self_conditioning_is_zero(self):
        cov = build_joint_cov(UNIT, SchemeParams(1, 1, 1, 1))
        assert abs(conditional_cov(cov, "X1", "X1")[0, 0]) <= 1e-12

    def test_overlapping_sets_rejected_for_mi(self):
        cov = build_joint_cov(UNIT, SchemeParams(1, 1, 1, 1))
        with pytest.raises(InvalidParamsError):
            gaussian_mi(cov, "X1", ("X1", "S"))

    def test_duplicated_conditioners_supported_via_pseudo_inverse(self):
        # U11 = U12 = X1 exactly at w = 0: the rank-deficient block must behave
        # like conditioning on X1 alone.
        cov = build_joint_cov(UNIT, SchemeParams(0, 0, 1, 1))
        out = conditional_cov(cov, "S", ("U11", "U12"))
        assert out[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_non_psd_block_raises(self):
        with pytest.raises(DegenerateConditioningError):
            _pinv_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestGaussianMi:
    def test_independent_labels_zero(self):
        hand = LabeledCov(("a", "b", "c"), np.diag([2.0, 3.0, 0.5]))
        assert gaussian_mi(hand, "a", ("b", "c")) == 0.0

    def test_value_against_conditioning_oracle(self):
        cov = build_joint_cov(UNIT, SchemeParams(1, 1, 1, 1))
        var_s = cov.var("S")
        var_s_given_x1 = conditional_cov(cov, "S", "X1")[0, 0]
        expected = 0.5 * math.log(var_s / var_s_given_x1)
        assert gaussian_mi(cov, "S", "X1") == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_symmetry_on_random_instances(self, rng):
        labels = ["S", "X1", "X2", "U11", "U12", "U21", "U22"]
        for _ in range(30):
            model = random_model(rng)
            cov = build_joint_cov(model, random_params(rng, model))
            picks = rng.permutation(labels)
            a, b = list(picks[:2]), list(picks[2:4])
            assert gaussian_mi(cov, a, b) == pytest.approx(gaussian_mi(cov, b, a), abs=1e-9)

    def test_deterministic_dependence_raises(self):
        cov = build_joint_cov(UNIT, SchemeParams(0, 1, 1, 1))
        with pytest.raises(InfiniteMutualInformationError):
            gaussian_mi(cov, "X1", "U11")

    def test_duplicated_target_directions_stay_finite(self):
        # A = (U11, U12) collapses to X1 at w = 0; I(A; X2) = I(X1; X2).
        cov = build_joint_cov(UNIT, SchemeParams(0, 0, 1, 1))
        expected = gaussian_mi(cov, "X1", "X2")
        assert gaussian_mi(cov, ("U11", "U12"), "X2") == pytest.approx(expected, abs=1e-10)


class TestConditionalMi:
    def test_empty_conditioning_matches_plain_mi(self, rng):
        model = random_model(rng)
        cov = build_joint_cov(model, random_params(rng, model))
        a, b = ("S",), ("U11", "U22")
        assert conditional_mi(cov, a, b, ()) == pytest.approx(gaussian_mi(cov, a, b), abs=1e-12)

    def test_cross_encoder_independence_given_s(self, rng):
        for _ in range(20):
            model = random_model(rng)
            cov = build_joint_cov(model, random_params(rng, model))
            assert conditional_mi(cov, "U11", "U21", "S") <= 1e-10

    def test_uncorrelated_w_pair_given_x(self, rng):
        for _ in range(20):
            model = random_model(rng)
            cov = build_joint_cov(model, random_params(rng, model, with_a=False))
            assert conditional_mi(cov, "U11", "U12", ("S", "X1")) <= 1e-10

    def test_nonnegative(self, rng):
        for _ in range(30):
            model = random_model(rng)
            cov = build_joint_cov(model, random_params(rng, model))
            assert conditional_mi(cov, "U11", "U22", ("S", "X2")) >= 0.0


class TestInformationIdentities:
    def test_chain_rule(self, rng):
        # I(A; B u C) = I(A; B) + I(A; C | B) on random label partitions.
        labels = np.array(["X1", "X2", "U11", "U12", "U21", "U22"])
        for _ in range(30):
            model = random_model(rng)
            cov = build_joint_cov(model, random_params(rng, model))
            picks = rng.permutation(labels)
            a, b, c = ["S"], list(picks[:2]), list(picks[2:4])
            lhs = gaussian_mi(cov, a, b + c)
            rhs = gaussian_mi(cov, a, b) + conditional_mi(cov, a, c, b)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_data_processing(self, rng):
        for _ in range(30):
            model = random_model(rng)
            cov = build_joint_cov(model, random_params(rng, model))
            assert gaussian_mi(cov, "S", "U11") <= gaussian_mi(cov, "S", "X1") + 1e-9

    def test_markov_chain_across_encoders(self, rng):
        for _ in range(30):
            model = random_model(rng)
            cov = build_joint_cov(model, random_params(rng, model))
            pair1, pair2 = ("U11", "U12"), ("U21", "U22")
            assert conditional_mi(cov, pair1, pair2, "X1") <= 1e-9
            assert conditional_mi(cov, pair1, pair2, "S") <= 1e-9
