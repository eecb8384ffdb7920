"""Monte-Carlo oracle: sample the joint law from its independent components,
fit linear MMSE estimators, and compare the empirical distortions against
every closed-form conditional variance.

Sampling uses a counter-based generator (Philox) keyed by the seed, so the
sample matrix is bit-reproducible.  One pass draws and factors it: the
calling thread draws the normals block by block from that one stream into
the preallocated matrix, while a worker thread maps each drawn block through
the law's factor and takes its R factor, so the QR of ``[1, data]`` is ready
when the draw ends.  The fit reads every regression off that R and visits the
matrix once more, block by block, for the residuals; the sample matrix is the
only n-row array the oracle holds.  For jointly Gaussian data the
least-squares linear predictor is the MMSE estimator, so the mean squared
residual is an unbiased oracle for the analytic conditional variances up to
O(k/n) fit bias.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import scheme as _scheme
from .errors import DegenerateRegressionError, InvalidParamsError, require_int, require_label
from .gaussmodel import SourceModel, _joint_law
from .scheme import SEED_LIMIT, SchemeParams

__all__ = ["JointSamples", "McRow", "McReport", "sample_joint", "empirical_mmse", "mc_report"]

#: Relative singular-value cutoff below which conditioning columns are collinear.
COLLINEARITY_RTOL = 1e-10
#: Fewest samples a fit takes: the residual's standard error needs two.
MIN_SAMPLES = 2
#: Rows per block of both passes over the sample matrix: the draw with its
#: blocked QR, and the residual pass of ``_fit``.  Each block's R factor is
#: at most 8 x 8, so the stacked factors stay small while a block stays in
#: cache.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class JointSamples:
    """Sample matrix over the seven joint labels, one row per draw, with the R
    factor of ``[1, data]`` (intercept first, then the labels in order) taken
    as the matrix was drawn: ``r_factor.T @ r_factor`` is the Gram matrix of
    ``[1, data]``, and R has ``min(n, 8)`` rows.  Writing to ``data`` would
    leave R stale."""

    labels: tuple[str, ...]
    data: np.ndarray
    seed: int
    r_factor: np.ndarray

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def index(self, label: str) -> int:
        return require_label(self.labels, label)

    def column(self, label: str) -> np.ndarray:
        return self.data[:, self.index(label)]


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
    description-noise blocks exactly, and moves continuously with the scheme.

    Drawing and factoring overlap: this thread draws the normals into
    ``data`` block by block, in order, so the blocks continue one stream and
    hold the normals of one (n, 7) draw, while one worker thread maps each
    drawn block through the factor and takes the R of ``[1, block]``.  The
    block R's are stacked and factored once more (TSQR).  A failure on either
    side ends both and is raised here once the worker has ended."""
    n = require_int("n", n, 1)
    seed = require_int("seed", seed, 0, SEED_LIMIT)
    labels, factor = _law_factor(model, params)
    rng = np.random.Generator(np.random.Philox(key=seed))
    data = np.empty((n, len(labels)))
    drawn = threading.Semaphore(0)  # released once per drawn block, and on an early end
    stop = threading.Event()  # the draw ended early
    failure: list[BaseException] = []
    factors = []

    # The QR runs on the worker, where it measured about twice as fast: on
    # the calling thread, glibc's main arena returns LAPACK's per-call
    # workspace to the OS after each call, and the next call faults it in.
    def factor_blocks() -> None:
        design = np.empty((min(n, _BLOCK_ROWS), len(labels) + 1))
        design[:, 0] = 1.0
        try:
            for start in range(0, n, _BLOCK_ROWS):
                drawn.acquire()
                if stop.is_set():
                    return
                rows = data[start : start + _BLOCK_ROWS]
                block = design[: rows.shape[0]]
                np.matmul(rows, factor.T, out=block[:, 1:])
                rows[...] = block[:, 1:]
                factors.append(np.linalg.qr(block, mode="r"))
        except BaseException as exc:  # raised again by the caller below
            failure.append(exc)

    worker = threading.Thread(target=factor_blocks, name="vceo-mc-factor")
    worker.start()
    try:
        for start in range(0, n, _BLOCK_ROWS):
            if failure:
                break
            rng.standard_normal(out=data[start : start + _BLOCK_ROWS])
            drawn.release()
    except BaseException:
        stop.set()
        drawn.release()
        raise
    finally:
        worker.join()
    if failure:
        raise failure[0]
    r_factor = np.linalg.qr(np.concatenate(factors), mode="r")
    return JointSamples(labels=labels, data=data, seed=seed, r_factor=r_factor)


def _fit(
    samples: JointSamples, regressions: Sequence[tuple[str, Sequence[str]]]
) -> list[tuple[float, float]]:
    """(mean squared residual, its standard error) of the least-squares linear
    predictor of each ``(target, given)`` pair, with an intercept.

    The R factor of ``[1, data]`` serves every regression: ``||A c|| =
    ||R c||`` for any combination ``c`` of the columns, so each coefficient
    vector and its singular values are those of the n-row problem, and
    ``||R[:, t] - design coef||^2 / n`` is the mean squared residual up to
    roundoff.  One pass over row blocks then sums each regression's squared
    residuals and their squared deviations from that estimate, the corrected
    two-pass variance of the squared residuals in one pass.
    """
    if samples.n < MIN_SAMPLES:
        raise InvalidParamsError(f"at least {MIN_SAMPLES} samples are required")
    indexed = [(samples.index(t), [samples.index(g) for g in given]) for t, given in regressions]
    r = samples.r_factor  # R column c + 1 is sample column c
    # Residual j is weights[j] . row - offsets[j] for each sample row; shift[j]
    # is its mean square read off R.
    n = samples.n
    weights = np.zeros((len(indexed), samples.data.shape[1]))
    offsets = np.empty(len(indexed))
    shift = np.empty(len(indexed))
    for j, ((t, cols), (_, given)) in enumerate(zip(indexed, regressions)):
        design = r[:, [0] + [c + 1 for c in cols]]
        coef, _, _, sv = np.linalg.lstsq(design, r[:, t + 1], rcond=None)
        if sv[-1] < COLLINEARITY_RTOL * sv[0]:
            raise DegenerateRegressionError(
                f"conditioning columns {tuple(given)} are collinear "
                f"(singular-value ratio {sv[-1] / sv[0]:.2e})"
            )
        weights[j, t] += 1.0
        np.subtract.at(weights[j], cols, coef[1:])
        offsets[j] = coef[0]
        shift[j] = np.sum(np.square(r[:, t + 1] - design @ coef)) / n
    sum_sq = np.zeros(len(indexed))  # sum of residual^2
    dev_sq = np.zeros(len(indexed))  # sum of (residual^2 - shift)^2
    buffer = np.empty((len(indexed), min(n, _BLOCK_ROWS)))
    for start in range(0, n, _BLOCK_ROWS):
        rows = samples.data[start : start + _BLOCK_ROWS]
        res = buffer[:, : rows.shape[0]]
        np.matmul(weights, rows.T, out=res)
        res -= offsets[:, None]
        np.square(res, out=res)
        sum_sq += res.sum(axis=1)
        res -= shift[:, None]
        np.square(res, out=res)
        dev_sq += res.sum(axis=1)
    # sum (residual^2 - mean)^2 = dev_sq - (sum_sq - n shift)^2 / n, the ddof=1
    # variance's numerator; roundoff can leave it just below 0 on exact fits.
    var = np.maximum(dev_sq - np.square(sum_sq - n * shift) / n, 0.0) / (n - 1)
    return [(float(s / n), math.sqrt(v / n)) for s, v in zip(sum_sq, var)]


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
    return _fit(samples, [(target, given)])[0]


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
    fits = _fit(samples, [(target, given) for _, _, target, given in quantities])
    rows = tuple(
        McRow(name=name, analytic=analytic, empirical=est, stderr=stderr)
        for (name, analytic, _, _), (est, stderr) in zip(quantities, fits)
    )
    return McReport(n_samples=samples.n, seed=samples.seed, rows=rows)
