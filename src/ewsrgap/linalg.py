"""Complex Hermitian matrix kernel used by the rate formulas.

Everything here operates on plain complex ndarrays. Matrices are
validated against the Hermitian tolerance ``HERM_RTOL * max|A|``
before factorization, so shape or symmetry bugs surface at the
boundary instead of deep inside a Monte-Carlo loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndefiniteMatrix,
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
)

# Relative tolerances for Hermitian deviation and PSD eigenvalue clamping.
HERM_RTOL = 1e-10
PSD_RTOL = 1e-10


def _as_square(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    return A


def _check_hermitian(A: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(A)) if A.size else 0.0
    dev = np.max(np.abs(A - A.conj().T)) if A.size else 0.0
    if dev > HERM_RTOL * scale:
        raise NotHermitian(
            f"matrix deviates from Hermitian by {dev:.3e} (tolerance {HERM_RTOL * scale:.3e})"
        )
    # Work on the exactly-Hermitian average so LAPACK sees clean input.
    # Halving first cannot overflow and is exact, so the bits are unchanged.
    return 0.5 * A + 0.5 * A.conj().T


@dataclass
class HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    ``eigenvectors[:, i]`` pairs with ``eigenvalues[i]`` and the basis is
    unitary to working precision.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues) @ V.conj().T

    def roots(self) -> np.ndarray:
        """Square roots of the eigenvalues, negative ones clipped to zero."""
        return np.sqrt(np.clip(self.eigenvalues, 0.0, None))

    def sqrt(self) -> np.ndarray:
        """The Hermitian root V diag(roots) V^H, exactly Hermitian."""
        V = self.eigenvectors
        S = (V * self.roots()) @ V.conj().T
        return 0.5 * (S + S.conj().T)


def logdet_hpd(A) -> float:
    """ln det of a Hermitian positive-definite matrix, in nats.

    Computed from Cholesky pivots (sum of log diagonal entries), never
    via the raw determinant, so it stays finite for any size that fits
    in memory.

    Raises NotHermitian or NotPositiveDefinite.
    """
    A = _check_hermitian(_as_square(A))
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
    d = np.real(np.diagonal(L))
    if np.any(d <= 0.0):
        raise NotPositiveDefinite("Cholesky produced a nonpositive pivot")
    return float(2.0 * np.sum(np.log(d)))


def hermitian_eig(A) -> HermitianSpectrum:
    """Full eigendecomposition of a Hermitian matrix.

    Returns eigenvalues sorted descending with a matching unitary
    eigenbasis. Raises NotHermitian for asymmetric input and
    NoConvergence if the underlying iteration fails.
    """
    A = _check_hermitian(_as_square(A))
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition did not converge: {exc}") from exc
    order = np.argsort(w)[::-1]
    return HermitianSpectrum(eigenvalues=w[order], eigenvectors=V[:, order])


def psd_eig(C) -> HermitianSpectrum:
    """Eigendecomposition of a Hermitian PSD matrix, as hermitian_eig.

    Eigenvalues in [-PSD_RTOL * max|C|, 0) are treated as roundoff
    (``roots`` and ``sqrt`` clamp them to zero); anything more negative
    raises IndefiniteMatrix.
    """
    C = _as_square(C)
    spec = hermitian_eig(C)
    w = spec.eigenvalues
    tol = PSD_RTOL * (np.max(np.abs(C)) if C.size else 0.0)
    if np.any(w < -tol):
        raise IndefiniteMatrix(
            f"matrix has eigenvalue {w.min():.3e} below -{tol:.3e}, not PSD"
        )
    return spec


def hermitian_sqrt(C) -> np.ndarray:
    """Hermitian PSD square root S with S @ S == C; see psd_eig."""
    return psd_eig(C).sqrt()


def gram_log_rates(G: np.ndarray, rhos) -> np.ndarray:
    """Per-sample ln det(I + rho G) for a PSD batch G of shape (n, N, N).

    Returns shape (n, len(rhos)): the whole rho grid comes from one set
    of Gram eigenvalues per sample, negative ones clipped to zero. N = 1
    reads the diagonal, N = 2 uses the closed form below and N >= 3
    calls batched eigvalsh.

    For N = 2, with a, d the diagonal and b the lower off-diagonal entry,
    lambda_max = (a + d)/2 + hypot((a - d)/2, |b|) and lambda_min =
    (a d - |b|^2) / lambda_max, evaluated as a (d/lambda_max) -
    |b| (|b|/lambda_max). The quotient form is more accurate on rank-one
    Grams than (a + d)/2 - hypot, and the split keeps a = d, b = 0 exact.
    Non-finite entries give non-finite rates, without warnings.
    """
    rhos = np.asarray(rhos, dtype=float)
    N = G.shape[1]
    if N == 1:
        g = np.clip(G[:, :, 0].real, 0.0, None)
    elif N == 2:
        a, d, b = G[:, 0, 0].real, G[:, 1, 1].real, np.abs(G[:, 1, 0])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            top = np.maximum(0.5 * (a + d) + np.hypot(0.5 * (a - d), b), 0.0)
            low = np.where(top > 0.0, a * (d / top) - b * (b / top), 0.0)
        g = np.stack([top, np.maximum(low, 0.0)], axis=1)
    else:
        g = np.clip(np.linalg.eigvalsh(G), 0.0, None)
    return np.log1p(rhos[None, None, :] * g[:, :, None]).sum(axis=1)
