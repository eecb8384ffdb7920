"""Monte-Carlo oracle: reproducible sampling and empirical linear-MMSE checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from vceo import (
    DegenerateRegressionError,
    DistortionTriple,
    InvalidParamsError,
    SchemeParams,
    SourceModel,
    construct_matching_scheme,
    empirical_mmse,
    lower_bound,
    mc_report,
    sample_joint,
)
from vceo.gaussmodel import JOINT_LABELS, build_joint_cov
from vceo.mc import _BLOCK_ROWS, COLLINEARITY_RTOL, _law_factor

from conftest import EXTREME_RATIO_SCHEMES, random_model, random_params

UNIT = SourceModel(1.0, 1.0, 1.0)
PARAMS = SchemeParams(1, 1, 1, 1)


class TestSampleJoint:
    def test_fixed_seed_bit_reproducible(self):
        a = sample_joint(UNIT, PARAMS, 1000, seed=42)
        b = sample_joint(UNIT, PARAMS, 1000, seed=42)
        assert np.array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        a = sample_joint(UNIT, PARAMS, 100, seed=1)
        b = sample_joint(UNIT, PARAMS, 100, seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_labels_are_canonical(self):
        assert sample_joint(UNIT, PARAMS, 10, seed=0).labels == JOINT_LABELS

    def test_sample_moments_match_the_law(self):
        samples = sample_joint(UNIT, PARAMS, 10**6, seed=7)
        s = samples.column("S")
        var_s = s.var()
        stderr = (s**2).std(ddof=1) / np.sqrt(samples.n)
        assert abs(var_s - 1.0) <= 5 * stderr

    def test_cross_encoder_covariance(self):
        samples = sample_joint(UNIT, PARAMS, 10**6, seed=11)
        u11, u22 = samples.column("U11"), samples.column("U22")
        prod = u11 * u22
        stderr = prod.std(ddof=1) / np.sqrt(samples.n)
        assert abs(prod.mean() - 1.0) <= 5 * stderr  # Cov(U11, U22) = sigma_s2

    @pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 5])
    @pytest.mark.parametrize("params", [PARAMS, SchemeParams(0, 0, 1, 1)])
    def test_blocked_draw_is_the_one_shot_draw(self, n, params):
        model = SourceModel(1.0, 0.5, 2.0)
        z = np.random.Generator(np.random.Philox(key=n)).standard_normal((n, len(JOINT_LABELS)))
        expected = z @ _law_factor(model, params)[1].T
        assert np.array_equal(sample_joint(model, params, n, seed=n).data, expected)

    def test_singular_w_block_supported(self):
        samples = sample_joint(UNIT, SchemeParams(0, 0, 1, 1), 1000, seed=3)
        assert np.allclose(samples.column("U11"), samples.column("X1"))

    def test_rejects_bad_n(self):
        for n in (0, -3, True, 1.5, "10"):
            with pytest.raises(InvalidParamsError, match="n must be"):
                sample_joint(UNIT, PARAMS, n, seed=0)

    def test_rejects_bad_seed(self):
        for seed in (-1, True, 1.5, "3", 2**128):
            with pytest.raises(InvalidParamsError, match="seed must be"):
                sample_joint(UNIT, PARAMS, 10, seed=seed)

    def test_numpy_integers_accepted(self):
        a = sample_joint(UNIT, PARAMS, np.int64(1000), seed=np.int64(7))
        b = sample_joint(UNIT, PARAMS, 1000, seed=7)
        assert a.n == 1000 and a.seed == 7 and type(a.seed) is int
        assert np.array_equal(a.data, b.data)

    def test_mc_report_rejects_bool_n(self):
        with pytest.raises(InvalidParamsError):
            mc_report(UNIT, PARAMS, n=True)


def _degenerate_scheme(rng, model, kind):
    """A random scheme, or one with a degenerate feature: a w = 0 block, absent
    descriptions at the 1e8 * n cap, a_k = sqrt(w_k1 w_k2), or a 1e10 spread
    inside one W block."""
    n = np.array([model.sigma_n1_2, model.sigma_n1_2, model.sigma_n2_2, model.sigma_n2_2])
    w = n * np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 4))
    rho = rng.uniform(0.0, 1.0, 2)
    if kind == "zero_block":
        w[0] = w[1] = 0.0
    elif kind == "absent":
        w[1], w[2], w[3] = 1e8 * n[1], 1e8 * n[2], 1e8 * n[3]
    elif kind == "singular":
        rho[:] = 1.0
    elif kind == "spread":
        w[0], w[1] = 1e-5 * n[0], 1e5 * n[1]
    a1, a2 = rho[0] * math.sqrt(w[0] * w[1]), rho[1] * math.sqrt(w[2] * w[3])
    return SchemeParams(*w, a1, a2)


class TestLawFactor:
    @pytest.mark.parametrize("kind", ["random", "zero_block", "absent", "singular", "spread"])
    def test_factor_reproduces_the_joint_covariance(self, rng, kind):
        for _ in range(100):
            model = SourceModel(*np.exp(rng.uniform(math.log(1e-4), math.log(1e4), 3)))
            params = _degenerate_scheme(rng, model, kind)
            labels, factor = _law_factor(model, params)
            cov = build_joint_cov(model, params)
            assert labels == cov.labels
            scale = np.sqrt(np.outer(np.diag(cov.matrix), np.diag(cov.matrix)))
            assert np.all(np.abs(factor @ factor.T - cov.matrix) <= 1e-14 * scale)

    def test_draws_are_continuous_in_the_scheme(self):
        targets = DistortionTriple(0.4, 0.4, 0.35)
        params = construct_matching_scheme(UNIT, targets, lower_bound(UNIT, targets).argmin).params
        moved = dataclasses.replace(params, w11=params.w11 * (1 + 1e-8))
        a = sample_joint(UNIT, params, 20_000, seed=0).data
        b = sample_joint(UNIT, moved, 20_000, seed=0).data
        assert np.max(np.abs(a - b)) <= 1e-6


class TestEmpiricalMmse:
    def test_conditioning_on_target_itself_is_zero(self):
        samples = sample_joint(UNIT, PARAMS, 1000, seed=5)
        est, _ = empirical_mmse(samples, "S", ("S",))
        assert est == pytest.approx(0.0, abs=1e-20)

    def test_empty_conditioning_is_sample_variance(self):
        samples = sample_joint(UNIT, PARAMS, 1000, seed=5)
        est, _ = empirical_mmse(samples, "S", ())
        assert est == pytest.approx(float(samples.column("S").var()), rel=1e-12)

    def test_collinear_conditioners_rejected(self):
        samples = sample_joint(UNIT, SchemeParams(0, 0, 1, 1), 1000, seed=5)
        with pytest.raises(DegenerateRegressionError):
            empirical_mmse(samples, "S", ("X1", "U11"))  # U11 == X1 exactly

    def test_receiver_distortion_within_five_stderr(self):
        from vceo import receiver_distortion

        samples = sample_joint(UNIT, PARAMS, 10**6, seed=9)
        est, stderr = empirical_mmse(samples, "S", ("U11", "U21"))
        assert abs(est - receiver_distortion(UNIT, PARAMS, 1)) <= 5 * stderr


MC_QUANTITIES = (
    ("S", ("U11", "U21")),
    ("S", ("U12", "U22")),
    ("S", ("U11", "U12", "U21", "U22")),
    ("X1", ("U11", "S")),
    ("X1", ("U12", "S")),
    ("X2", ("U21", "S")),
    ("X2", ("U22", "S")),
)


def dense_fit(samples, target, given):
    """Reference fit: one SVD-based lstsq on the explicit n-row design."""
    y = samples.column(target)
    design = np.column_stack([np.ones(samples.n)] + [samples.column(g) for g in given])
    coef, _, _, sv = np.linalg.lstsq(design, y, rcond=None)
    if sv[-1] < COLLINEARITY_RTOL * sv[0]:
        raise DegenerateRegressionError("collinear")
    residual_sq = (y - design @ coef) ** 2
    return float(residual_sq.mean()), float(residual_sq.std(ddof=1)) / math.sqrt(samples.n)


class TestSharedFit:
    """`mc_report` and `empirical_mmse` share one blocked-QR fit; it must agree
    with the dense per-regression lstsq it replaced."""

    def test_report_rows_equal_empirical_mmse(self, rng):
        model = random_model(rng)
        params = random_params(rng, model)
        report = mc_report(model, params, n=50_000, seed=4)
        samples = sample_joint(model, params, 50_000, seed=4)
        for row, (target, given) in zip(report.rows, MC_QUANTITIES):
            est, stderr = empirical_mmse(samples, target, given)
            assert row.empirical == pytest.approx(est, rel=1e-12)
            assert row.stderr == pytest.approx(stderr, rel=1e-12)

    @pytest.mark.parametrize(
        "n", [2, 7, 10, _BLOCK_ROWS - 1, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5]
    )
    @pytest.mark.parametrize("params", [PARAMS, SchemeParams(0, 0, 1, 1)])
    def test_matches_dense_lstsq_across_block_boundaries(self, n, params):
        samples = sample_joint(UNIT, params, n, seed=n)
        # With w = 0 blocks U11 == X1, so ("X1", "U11") is collinear once n > 2.
        for target, given in MC_QUANTITIES + (("S", ()), ("S", ("X1", "U11"))):
            try:
                expected = dense_fit(samples, target, given)
            except DegenerateRegressionError:
                with pytest.raises(DegenerateRegressionError):
                    empirical_mmse(samples, target, given)
                continue
            # Exact fits (n <= number of columns) leave residuals at roundoff
            # of the target's scale, so compare on that scale.
            scale = float(np.mean(samples.column(target) ** 2))
            got = empirical_mmse(samples, target, given)
            assert got[0] == pytest.approx(expected[0], rel=1e-12, abs=1e-12 * scale)
            assert got[1] == pytest.approx(expected[1], rel=1e-12, abs=1e-12 * scale)

    @pytest.mark.parametrize("n1, params", EXTREME_RATIO_SCHEMES)
    def test_extreme_variance_ratios_match_dense_lstsq(self, n1, params):
        model = SourceModel(1.0, n1, 1.0 / n1)
        report = mc_report(model, params, n=200_000, seed=0)
        samples = sample_joint(model, params, 200_000, seed=0)
        for row, (target, given) in zip(report.rows, MC_QUANTITIES):
            est, stderr = dense_fit(samples, target, given)
            assert abs(row.empirical - est) <= 1e-9 * stderr, row.name
            assert abs(row.stderr - stderr) <= 1e-9 * stderr, row.name


class TestMcReport:
    def test_all_quantities_pass_at_default_scale(self, rng):
        model = random_model(rng)
        params = random_params(rng, model)
        report = mc_report(model, params, n=200_000, seed=13)
        assert report.passed()
        assert len(report.rows) == 7

    @pytest.mark.parametrize("n1, params", EXTREME_RATIO_SCHEMES)
    def test_extreme_variance_ratios_pass(self, n1, params):
        report = mc_report(SourceModel(1.0, n1, 1.0 / n1), params, n=200_000)
        assert report.passed(), [(row.name, row.z_score) for row in report.rows]

    def test_holds_one_sample_matrix(self):
        n = 200_000
        mc_report(UNIT, PARAMS, n=1000)  # first-call allocations are not the oracle's
        tracemalloc.start()
        try:
            mc_report(UNIT, PARAMS, n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * len(JOINT_LABELS) * 8

    def test_small_n_keeps_criterion_well_defined(self):
        report = mc_report(UNIT, PARAMS, n=10, seed=1)
        for row in report.rows:
            assert row.stderr >= 0.0
            assert isinstance(row.passed(), bool)

    def test_stderr_definition(self):
        samples = sample_joint(UNIT, PARAMS, 5000, seed=21)
        est, stderr = empirical_mmse(samples, "S", ("U11", "U21"))
        y = samples.column("S")
        design = np.column_stack([np.ones(samples.n), samples.column("U11"), samples.column("U21")])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        res_sq = (y - design @ coef) ** 2
        assert stderr == pytest.approx(float(res_sq.std(ddof=1)) / np.sqrt(samples.n), rel=1e-12)
