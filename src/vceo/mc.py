"""Monte-Carlo oracle: sample the joint law from its independent components,
fit linear MMSE estimators, and compare the empirical distortions against
every closed-form conditional variance.

Sampling uses a counter-based generator (Philox) keyed by the seed, so the
sample matrix is bit-reproducible and shardable by counter range.  For
jointly Gaussian data the least-squares linear predictor is the MMSE
estimator, so the mean squared residual is an unbiased oracle for the
analytic conditional variances up to O(k/n) fit bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scheme as _scheme
from .errors import DegenerateRegressionError, InvalidParamsError
from .gaussmodel import SourceModel, _joint_law
from .scheme import SchemeParams

__all__ = ["JointSamples", "McRow", "McReport", "sample_joint", "empirical_mmse", "mc_report"]

#: Relative singular-value cutoff below which conditioning columns are collinear.
COLLINEARITY_RTOL = 1e-10


@dataclass(frozen=True)
class JointSamples:
    """Sample matrix over the seven joint labels, one row per draw."""

    labels: tuple[str, ...]
    data: np.ndarray
    seed: int

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def column(self, label: str) -> np.ndarray:
        try:
            return self.data[:, self.labels.index(label)]
        except ValueError:
            raise InvalidParamsError(f"unknown label {label!r}; have {self.labels}") from None


def _law_factor(model: SourceModel, params: SchemeParams) -> tuple[tuple[str, ...], np.ndarray]:
    """(labels, F) with F F^T the joint covariance: the law's incidence matrix
    times the principal square root of its block-diagonal component covariance."""
    labels, incidence, comp = _joint_law(model, params)
    root = np.sqrt(np.diag(np.diag(comp)))
    # comp's blocks have order <= 2; a 2x2 block B (a correlated W pair, so
    # tr B > 0) has root (B + sqrt(det B) I) / sqrt(tr B + 2 sqrt(det B)).
    for i in np.flatnonzero(np.diag(comp, 1)):
        b = comp[i : i + 2, i : i + 2]
        s = math.sqrt(max(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0], 0.0))
        root[i : i + 2, i : i + 2] = (b + s * np.eye(2)) / math.sqrt(b[0, 0] + b[1, 1] + 2.0 * s)
    return labels, incidence @ root


def sample_joint(model: SourceModel, params: SchemeParams, n: int, seed: int) -> JointSamples:
    """Draw ``n`` i.i.d. rows of (S, X1, X2, U11, U12, U21, U22), deterministic
    for a fixed seed.  Each row sums independent components (``_law_factor``),
    so the draw is exact at any variance ratio, samples singular
    description-noise blocks exactly, and moves continuously with the scheme."""
    if not (isinstance(n, int) and n >= 1):
        raise InvalidParamsError(f"n must be a positive integer, got {n!r}")
    labels, factor = _law_factor(model, params)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    z = rng.standard_normal((n, len(labels)))
    return JointSamples(labels=labels, data=z @ factor.T, seed=int(seed))


def empirical_mmse(
    samples: JointSamples,
    target: str,
    given: tuple[str, ...] | list[str] = (),
) -> tuple[float, float]:
    """Mean squared residual of the least-squares linear predictor, with its
    standard error (std of the squared residuals over sqrt(n)).

    Empty conditioning returns the (biased, ddof=0) sample variance of the
    target.  Collinear conditioning columns raise DegenerateRegressionError.
    """
    if samples.n < 2:
        raise InvalidParamsError("at least 2 samples are required")
    y = samples.column(target)
    cols = [samples.column(g) for g in given]
    design = np.column_stack([np.ones(samples.n)] + cols)
    coef, _, _, sv = np.linalg.lstsq(design, y, rcond=None)
    if sv[-1] < COLLINEARITY_RTOL * sv[0]:
        raise DegenerateRegressionError(
            f"conditioning columns {tuple(given)} are collinear "
            f"(singular-value ratio {sv[-1] / sv[0]:.2e})"
        )
    residual_sq = (y - design @ coef) ** 2
    estimate = float(residual_sq.mean())
    stderr = float(residual_sq.std(ddof=1) / math.sqrt(samples.n))
    return estimate, stderr


@dataclass(frozen=True)
class McRow:
    """One validated quantity: closed form vs empirical linear MMSE."""

    name: str
    analytic: float
    empirical: float
    stderr: float

    @property
    def z_score(self) -> float:
        diff = abs(self.analytic - self.empirical)
        if self.stderr == 0.0:
            return 0.0 if diff == 0.0 else math.inf
        return diff / self.stderr

    def passed(self, n_sigmas: float = 5.0) -> bool:
        return self.z_score <= n_sigmas


@dataclass(frozen=True)
class McReport:
    n_samples: int
    seed: int
    rows: tuple[McRow, ...]

    def passed(self, n_sigmas: float = 5.0) -> bool:
        return all(row.passed(n_sigmas) for row in self.rows)


def mc_report(
    model: SourceModel, params: SchemeParams, n: int = 10**6, seed: int = 0
) -> McReport:
    """Validate the seven closed-form conditional variances at one scheme.

    Quantities: the receiver distortions delta_1 = Var(S | U11, U21),
    delta_2 = Var(S | U12, U22), the central distortion delta_0, and the four
    marginals d'_kl = Var(X_k | U_kl, S).
    """
    samples = sample_joint(model, params, n, seed)
    mp = _scheme.marginal_params(model, params)
    quantities: list[tuple[str, float, str, tuple[str, ...]]] = [
        ("delta_1", _scheme.receiver_distortion(model, params, 1), "S", ("U11", "U21")),
        ("delta_2", _scheme.receiver_distortion(model, params, 2), "S", ("U12", "U22")),
        ("delta_0", _scheme.central_distortion(model, params), "S", ("U11", "U12", "U21", "U22")),
        ("d'_11", mp.d11, "X1", ("U11", "S")),
        ("d'_12", mp.d12, "X1", ("U12", "S")),
        ("d'_21", mp.d21, "X2", ("U21", "S")),
        ("d'_22", mp.d22, "X2", ("U22", "S")),
    ]
    rows = []
    for name, analytic, target, given in quantities:
        est, stderr = empirical_mmse(samples, target, given)
        rows.append(McRow(name=name, analytic=analytic, empirical=est, stderr=stderr))
    return McReport(n_samples=n, seed=int(seed), rows=tuple(rows))
