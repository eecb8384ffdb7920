"""Exact Gaussian covariance algebra for the remote-source multiple-description law.

Everything downstream (distortions, rates, bounds, certificates) is checked
against this module, so it favours exactness over speed.  All information
quantities are in nats.

The joint law lives over the labels ``S, X1, X2, U11, U12, U21, U22`` and
optionally ``Y1, Y2``:

    X_k  = S + N_k                      observation noise N_k ~ N(0, sigma_nk2)
    U_kl = X_k + W_kl                   description noises, Cov(W_k1, W_k2) = -a_k,
                                        cross-encoder W entries zero
    Y_k  = X_k + Z_k                    auxiliary channel used by the converse

with S, N_1, N_2, W, Z mutually independent.  Conditioning is the Schur
complement with an eigenvalue-cutoff pseudo-inverse, so degenerate limits
(zero-variance W, i.e. U = X exactly, or duplicated labels) are supported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateConditioningError,
    InfiniteMutualInformationError,
    InvalidParamsError,
    require_real,
)

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .scheme import SchemeParams

__all__ = [
    "SourceModel",
    "LabeledCov",
    "JOINT_LABELS",
    "build_joint_cov",
    "conditional_cov",
    "gaussian_mi",
    "conditional_mi",
]

#: Relative symmetry tolerance for assembled covariance matrices.
SYMMETRY_RTOL = 1e-12
#: Smallest eigenvalue may be >= -PSD_RTOL * largest.
PSD_RTOL = 1e-10
#: Relative eigenvalue cutoff for pseudo-inversion / rank decisions.
PINV_RCOND = 1e-12

#: Canonical label order of the seven-variable joint law.
JOINT_LABELS = ("S", "X1", "X2", "U11", "U12", "U21", "U22")


@dataclass(frozen=True)
class SourceModel:
    """Remote Gaussian source: variances of S and of the two observation noises."""

    sigma_s2: float
    sigma_n1_2: float
    sigma_n2_2: float

    def __post_init__(self) -> None:
        for name in ("sigma_s2", "sigma_n1_2", "sigma_n2_2"):
            object.__setattr__(self, name, require_real(name, getattr(self, name), strict=True))

    def noise_var(self, k: int) -> float:
        """Observation-noise variance of encoder ``k`` (1 or 2)."""
        if k == 1:
            return self.sigma_n1_2
        if k == 2:
            return self.sigma_n2_2
        raise InvalidParamsError(f"encoder index must be 1 or 2, got {k!r}")


@dataclass(frozen=True)
class LabeledCov:
    """A symmetric PSD covariance matrix with named rows/columns."""

    labels: tuple[str, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        if len(set(labels)) != len(labels):
            raise InvalidParamsError(f"labels must be unique, got {labels}")
        m = np.array(self.matrix, dtype=float, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(labels):
            raise InvalidParamsError(
                f"matrix must be square of order {len(labels)}, got shape {m.shape}"
            )
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        if scale and float(np.max(np.abs(m - m.T))) > SYMMETRY_RTOL * scale:
            raise InvalidParamsError("matrix is not symmetric within tolerance")
        m = 0.5 * (m + m.T)
        if m.size:
            eig = np.linalg.eigvalsh(m)
            if eig[0] < -PSD_RTOL * max(eig[-1], 0.0) - 1e-300:
                raise InvalidParamsError(
                    f"matrix is not PSD: min eigenvalue {eig[0]:.3e} vs max {eig[-1]:.3e}"
                )
        m.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", m)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidParamsError(f"unknown label {label!r}; have {self.labels}") from None

    def indices(self, labels: Iterable[str]) -> list[int]:
        return [self.index(x) for x in _as_labels(labels)]

    def var(self, label: str) -> float:
        i = self.index(label)
        return float(self.matrix[i, i])


def _as_labels(labels: str | Iterable[str]) -> tuple[str, ...]:
    if isinstance(labels, str):
        return (labels,)
    return tuple(labels)


def build_joint_cov(
    model: SourceModel,
    params: "SchemeParams",
    noise_z: tuple[float, float] | None = None,
) -> LabeledCov:
    """Assemble the joint covariance of (S, X1, X2, U11, U12, U21, U22[, Y1, Y2]).

    ``params`` supplies the description-noise covariance: per-encoder blocks
    [[w_k1, -a_k], [-a_k, w_k2]], zero across encoders, PSD by the
    ``SchemeParams`` invariant.  ``noise_z`` adds the Y_k = X_k + Z_k rows
    with the given variances.

    Raises InvalidParamsError if a Z variance is negative or not finite.
    """
    if noise_z is not None:
        noise_z = tuple(require_real(f"noise_z[{i}]", z) for i, z in enumerate(noise_z))
    labels, incidence, comp = _joint_law(model, params, noise_z)
    return LabeledCov(labels, incidence @ comp @ incidence.T)


def _joint_law(
    model: SourceModel,
    params: "SchemeParams",
    noise_z: tuple[float, float] | None = None,
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """(labels, 0/1 incidence, component covariance), unvalidated: the joint
    covariance is ``incidence @ comp @ incidence.T``, and ``comp`` is
    block-diagonal over S, N1, N2, the two W pairs and Z1, Z2."""
    ncomp = 9 if noise_z is not None else 7
    comp = np.zeros((ncomp, ncomp))
    comp[0, 0] = model.sigma_s2
    comp[1, 1] = model.sigma_n1_2
    comp[2, 2] = model.sigma_n2_2
    comp[3, 3] = params.w11
    comp[4, 4] = params.w12
    comp[3, 4] = comp[4, 3] = -params.a1
    comp[5, 5] = params.w21
    comp[6, 6] = params.w22
    comp[5, 6] = comp[6, 5] = -params.a2

    rows = {
        "S": [0],
        "X1": [0, 1],
        "X2": [0, 2],
        "U11": [0, 1, 3],
        "U12": [0, 1, 4],
        "U21": [0, 2, 5],
        "U22": [0, 2, 6],
    }
    labels = list(JOINT_LABELS)
    if noise_z is not None:
        comp[7, 7], comp[8, 8] = float(noise_z[0]), float(noise_z[1])
        rows["Y1"] = [0, 1, 7]
        rows["Y2"] = [0, 2, 8]
        labels += ["Y1", "Y2"]

    incidence = np.zeros((len(labels), ncomp))
    for i, lab in enumerate(labels):
        incidence[i, rows[lab]] = 1.0
    return tuple(labels), incidence, comp


def _unit_scale(m: np.ndarray) -> np.ndarray:
    """D D^T with D = 1/sqrt(diag m), 0 at a zero variance: m * D D^T has unit diagonal."""
    r = np.where(np.diag(m) > 0.0, np.diag(m), np.inf) ** -0.5
    return np.outer(r, r)


def _pinv_psd(m: np.ndarray, rcond: float = PINV_RCOND) -> np.ndarray:
    """Pseudo-inverse of a PSD matrix via eigendecomposition with relative cutoff, taken
    at unit diagonal so that a variance at the absent-description cap hides no other."""
    if m.size == 0:
        return m
    scale = _unit_scale(m)
    eig, vec = np.linalg.eigh(m * scale)
    top = float(eig[-1])
    if eig[0] < -PSD_RTOL * max(top, 0.0) - 1e-300:
        raise DegenerateConditioningError(
            f"conditioning block is not PSD within tolerance (min eigenvalue {eig[0]:.3e})"
        )
    cut = rcond * max(top, 0.0)
    inv = np.where(eig > cut, 1.0 / np.where(eig > cut, eig, 1.0), 0.0)
    return (vec * inv) @ vec.T * scale


def conditional_cov(
    cov: LabeledCov,
    targets: str | Sequence[str],
    given: str | Sequence[str] = (),
) -> np.ndarray:
    """Cov(targets | given) via the Schur complement Sigma_A - Sigma_AB Sigma_B^+ Sigma_BA.

    The conditioning block is pseudo-inverted with relative cutoff
    ``PINV_RCOND``, which makes rank-deficient conditioners (duplicated
    labels, zero-variance descriptions) exact no-ops on their null space.
    Overlapping label sets are permitted: a conditioned-on target is
    deterministic, so its row collapses to zero.
    """
    a = _as_labels(targets)
    b = _as_labels(given)
    ia = cov.indices(a)
    if not b:
        return cov.matrix[np.ix_(ia, ia)].copy()
    ib = cov.indices(b)
    m = cov.matrix
    saa = m[np.ix_(ia, ia)]
    sab = m[np.ix_(ia, ib)]
    sbb = m[np.ix_(ib, ib)]
    out = saa - sab @ _pinv_psd(sbb) @ sab.T
    return 0.5 * (out + out.T)


def gaussian_mi(cov: LabeledCov, a: str | Sequence[str], b: str | Sequence[str]) -> float:
    """Mutual information I(A; B) in nats: ``conditional_mi`` with nothing given."""
    return conditional_mi(cov, a, b)


def conditional_mi(
    cov: LabeledCov,
    a: str | Sequence[str],
    b: str | Sequence[str],
    c: str | Sequence[str] = (),
) -> float:
    """Conditional mutual information I(A; B | C) >= 0 in nats, as half a
    log-determinant ratio.

    Degenerate marginals are handled through pseudo log-determinants on the
    common range.  If conditioning on B removes a direction of A entirely
    (deterministic dependence), the information is infinite and
    InfiniteMutualInformationError is raised.
    """
    la, lb, lc = _as_labels(a), _as_labels(b), _as_labels(c)
    for x, y in ((la, lb), (la, lc), (lb, lc)):
        if set(x) & set(y):
            raise InvalidParamsError(f"label sets overlap: {set(x) & set(y)}")
    if not la or not lb:
        return 0.0
    cond_c = conditional_cov(cov, la, lc)
    cond_bc = conditional_cov(cov, la, tuple(lb) + tuple(lc))
    # Pseudo log-determinants at unit diagonal, as in _pinv_psd: one common
    # scaling of both blocks leaves their difference unchanged.
    scale = _unit_scale(cond_c)
    eig_c, eig_bc = np.linalg.eigvalsh(cond_c * scale), np.linalg.eigvalsh(cond_bc * scale)
    cut = PINV_RCOND * max(float(eig_c[-1]), 0.0)
    kept_c, kept_bc = eig_c[eig_c > cut], eig_bc[eig_bc > cut]
    if kept_bc.size < kept_c.size:
        raise InfiniteMutualInformationError(
            f"I({la}; {lb} | {lc}) is infinite: conditioning is deterministic on "
            f"{kept_c.size - kept_bc.size} direction(s)"
        )
    return max(0.0, 0.5 * float(np.sum(np.log(kept_c)) - np.sum(np.log(kept_bc))))
