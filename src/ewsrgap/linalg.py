"""Complex Hermitian matrix kernel used by the rate formulas.

Everything here operates on plain complex ndarrays. Matrices handed to
the eigendecompositions must be finite and are validated against the
Hermitian tolerance ``HERM_RTOL * max|A|``, so shape or symmetry bugs
surface at the boundary instead of deep inside a Monte-Carlo loop.
``gram`` and ``gram_log_rates`` are the batched kernels: every sampled
Gram goes through ``gram``, and every log-det the package takes, of an
expected Gram or of sampled ones, at any rho from 0 to +inf, through
``gram_log_rates``.

The package's LAPACK calls and covariance-sized products run inside
``serial_blas``, on one OpenBLAS thread: OpenBLAS threads an eigh from
32 x 32 on, and after such a call one of its pool threads spins for
about 125 ms of CPU, taken from the Monte-Carlo worker pool, which is
the package's parallelism. While a scope is open, other threads' BLAS
calls run on one thread too. Without OpenBLAS 0.3.27 or later it does
nothing. The batched N x N kernels below never reach a threading size
and run outside it.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndefiniteMatrix,
    NoConvergence,
    NotHermitian,
    check_finite,
)

# Relative tolerances for Hermitian deviation and PSD eigenvalue clamping.
HERM_RTOL = 1e-10
PSD_RTOL = 1e-10

# OpenBLAS's "local" thread-count setter is process-wide in its pthreads
# build, so open scopes are counted: the first saves the count, the
# last restores it.
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 0


@functools.cache
def _openblas_setter():
    """openblas_set_num_threads_local (OpenBLAS 0.3.27 on) of the OpenBLAS
    this process has loaded, or None: another BLAS, an older OpenBLAS or
    no /proc/self/maps."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as maps:
            paths = [line.split(maxsplit=5)[-1].strip() for line in maps]
    except OSError:
        return None
    for path in dict.fromkeys(p for p in paths if "openblas" in p.rpartition("/")[2]):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


@contextmanager
def serial_blas():
    """Run the BLAS and LAPACK calls of the body on one OpenBLAS thread.

    Any other thread's BLAS work while a scope is open runs on one
    thread too; the last scope to close restores the prior count. A
    no-op where ``_openblas_setter`` finds no setter.
    """
    global _blas_depth, _blas_saved
    with _blas_lock:
        setter = _openblas_setter()
        if setter is not None and _blas_depth == 0:
            _blas_saved = setter(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if setter is not None and _blas_depth == 0:
                setter(_blas_saved)


def _as_square(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    return A


def _check_hermitian(A: np.ndarray) -> np.ndarray:
    check_finite(A, "matrix")
    scale = np.max(np.abs(A)) if A.size else 0.0
    with np.errstate(over="ignore"):  # an overflowing deviation is not Hermitian
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

    def roots(self) -> np.ndarray:
        """Square roots of the eigenvalues, negative ones clipped to zero."""
        return np.sqrt(np.clip(self.eigenvalues, 0.0, None))


def hermitian_eig(A) -> HermitianSpectrum:
    """Full eigendecomposition of a Hermitian matrix.

    Returns eigenvalues sorted descending with a matching unitary
    eigenbasis. Raises DomainError for non-finite entries, NotHermitian
    for asymmetric input and NoConvergence if the underlying iteration
    fails.
    """
    A = _check_hermitian(_as_square(A))
    try:
        with serial_blas():
            w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition did not converge: {exc}") from exc
    order = np.argsort(w)[::-1]
    return HermitianSpectrum(eigenvalues=w[order], eigenvectors=V[:, order])


def psd_eig(C) -> HermitianSpectrum:
    """Eigendecomposition of a Hermitian PSD matrix, as hermitian_eig.

    Eigenvalues in [-PSD_RTOL * max|C|, 0) are treated as roundoff
    (``roots`` clamps them to zero); anything more negative raises
    IndefiniteMatrix.
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


def gram(X: np.ndarray) -> np.ndarray:
    """The Grams X X^H of a batch X of shape (n, N, D), as (n, N, N).

    For N = 1 and N = 2 every entry is a dot product over the
    interleaved (real, imag) parts of two rows: the diagonal sums the
    squares of one row, the real part of entry (1, 0) pairs rows 1 and
    0 term by term, its imaginary part pairs the imaginary parts of
    row 1 with the real parts of row 0 and the other way round. That
    is a few n-long reductions instead of n tiny complex products.
    From N = 3 on it is one batched matmul. Non-finite or overflowing
    entries give non-finite Grams, without warnings.
    """
    n, N, D = X.shape
    with np.errstate(over="ignore", invalid="ignore"):
        if N > 2:
            return X @ np.conj(np.swapaxes(X, 1, 2))
        pairs = np.ascontiguousarray(X, dtype=complex).view(np.float64).reshape(n, N, 2 * D)
        G = np.zeros((n, N, N), dtype=complex)
        for i in range(N):
            G[:, i, i] = np.einsum("nj,nj->n", pairs[:, i], pairs[:, i])
        if N == 2:
            re, im = pairs[:, :, 0::2], pairs[:, :, 1::2]
            G[:, 1, 0].real = np.einsum("nj,nj->n", pairs[:, 1], pairs[:, 0])
            G[:, 1, 0].imag = np.einsum("nj,nj->n", im[:, 1], re[:, 0]) - np.einsum(
                "nj,nj->n", re[:, 1], im[:, 0]
            )
            G[:, 0, 1] = np.conj(G[:, 1, 0])
    return G


def gram_log_rates(G: np.ndarray, rhos) -> np.ndarray:
    """Per-sample ln det(I + rho G) for a PSD batch G of shape (n, N, N).

    Returns shape (n, len(rhos)): the whole rho grid comes from one set
    of Gram eigenvalues g per sample, negative ones clipped to zero, and
    each column is bit for bit that of a call with its rho alone. A
    rho of +inf stands for the high-SNR offset sum ln g = ln det G
    (Lozano, Tulino & Verdu, IEEE T-IT 2005), -inf for a singular G. N = 1
    reads the diagonal, N = 2 uses the closed form below and N >= 3
    calls batched eigvalsh.

    For N = 2, with a, d the diagonal and b the lower off-diagonal entry,
    lambda_max = a/2 + d/2 + hypot((a - d)/2, |b|) and lambda_min =
    (a d - |b|^2) / lambda_max, evaluated as a (d/lambda_max) -
    |b| (|b|/lambda_max). The quotient form is more accurate on rank-one
    Grams than (a + d)/2 - hypot, the split keeps a = d, b = 0 exact, and
    halving before adding keeps a + d from overflowing.
    Non-finite entries or an overflowing rho G give non-finite rates,
    without warnings.
    """
    rhos = np.asarray(rhos, dtype=float)
    N = G.shape[1]
    if N == 1:
        g = np.clip(G[:, :, 0].real, 0.0, None)
    elif N == 2:
        a, d, b = G[:, 0, 0].real, G[:, 1, 1].real, np.abs(G[:, 1, 0])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            top = np.maximum(0.5 * a + 0.5 * d + np.hypot(0.5 * (a - d), b), 0.0)
            low = np.where(top > 0.0, a * (d / top) - b * (b / top), 0.0)
        g = np.stack([top, np.maximum(low, 0.0)], axis=1)
    else:
        # eigvalsh fails on a non-finite Gram; such samples get infinite rates
        finite = np.isfinite(G).all(axis=(1, 2))
        g = np.full(G.shape[:2], np.inf)
        g[finite] = np.clip(np.linalg.eigvalsh(G[finite]), 0.0, None)
    high = rhos == np.inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # ln 0 = -inf
        rates = np.log1p(g[:, None, :] * rhos[None, :, None]).sum(axis=2)
        if high.any():
            rates[:, high] = np.log(g).sum(axis=1)[:, None]
    return rates
