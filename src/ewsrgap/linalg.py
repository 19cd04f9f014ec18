"""Complex Hermitian matrix kernel used by the rate formulas.

Everything here operates on plain complex ndarrays. Matrices handed to
the eigendecompositions must be finite and are validated against the
Hermitian tolerance ``HERM_RTOL * max|A|``, so shape or symmetry bugs
surface at the boundary instead of deep inside a Monte-Carlo loop.
``gram`` and ``gram_log_rates`` are the batched kernels: every sampled
Gram goes through ``gram``, and every log-det the package takes, of an
expected Gram or of sampled ones, at any rho from 0 to +inf, through
``gram_log_rates``. For two receive antennas ``gram`` is a few
whole-batch vector operations: it sums the off-diagonal entry of a draw
up to GRAM_COLUMNS_MAX columns wide column by column and takes row dot
products of a wider one, the width rule coming with the timings it was
read from. ``gram_log_rates`` is one LDL^H (Cholesky) recursion over the
rows of I/rho + G for every N, whole-batch vector operations on
(samples, rhos) arrays; its pivot t_j adds log1p(rho t_j) at a finite
rho and ln t_j at rho = +inf.

The package's LAPACK calls and covariance-sized products run inside
``serial_blas``, on one OpenBLAS thread: OpenBLAS threads an eigh from
32 x 32 on, and after such a call one of its pool threads spins for
about 125 ms of CPU, taken from the Monte-Carlo worker pool, which is
the package's parallelism. While a scope is open, other threads' BLAS
calls run on one thread too. Without OpenBLAS 0.3.27 or later it does
nothing. The batched N x N products below never reach a threading size
and run outside it; the row dot products of a wide ``gram`` grow with
the draw's width and run inside.
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


# The widest draw whose N = 2 Gram ``gram`` forms by column sums; wider
# draws take a dot product of two rows per sample and entry. Median of three
# alternating runs, microseconds per call, n = 4096 samples (a full
# Monte-Carlo chunk), on a shared 2-vCPU Intel Xeon, numpy 2.4.6, OpenBLAS
# 0.3.31; the switch sits at the last width where the sums are faster:
#
#   D          1    2    3    4    6    8    9   10   12   16    64   256
#   columns   94  160  128  144  172  228  244  266  345  822  4547 29760
#   dots     127  297  262  265  285  236  253  264  287  292   900  4910
GRAM_COLUMNS_MAX = 9


def gram(X: np.ndarray) -> np.ndarray:
    """The Grams X X^H of a batch X of shape (n, N, D), as (n, N, N).

    N = 1 reads the diagonal as one dot product over the interleaved
    (real, imag) parts of each row. For N = 2 and a draw up to
    GRAM_COLUMNS_MAX columns wide, the diagonal is one einsum over those
    parts and x_1 conj(x_0) is summed one column at a time, a
    whole-batch product per column; a wider draw takes each entry as a
    batched ``np.vecdot`` of two rows, on one BLAS thread. The table
    above GRAM_COLUMNS_MAX gives the timings behind the switch. From
    N = 3 on it is one batched matmul. Non-finite or overflowing entries
    give non-finite Grams, without warnings.
    """
    n, N, D = X.shape
    with np.errstate(over="ignore", invalid="ignore"):
        if N > 2:
            return X @ np.conj(np.swapaxes(X, 1, 2))
        pairs = np.ascontiguousarray(X, dtype=complex).view(np.float64)
        G = np.empty((n, N, N), dtype=complex)
        if N == 1:
            rows = pairs.reshape(n, 2 * D)
            G[:, 0, 0] = np.einsum("nj,nj->n", rows, rows)
            return G
        if D <= GRAM_COLUMNS_MAX:
            diag = np.einsum("nij,nij->ni", pairs, pairs)
            cross = np.zeros(n, dtype=complex)
            for j in range(D):
                cross += X[:, 1, j] * np.conj(X[:, 0, j])
        else:
            with serial_blas():
                diag = np.vecdot(pairs, pairs)
                cross = np.vecdot(X[:, 0], X[:, 1])
        G[:, 0, 0], G[:, 1, 1] = diag[:, 0], diag[:, 1]
        G[:, 1, 0] = cross
        G[:, 0, 1] = np.conj(cross)
    return G


def gram_log_rates(G: np.ndarray, rhos) -> np.ndarray:
    """Per-sample ln det(I + rho G) for a PSD batch G of shape (n, N, N).

    Returns shape (n, len(rhos)), and each column is bit for bit that of
    a call with its rho alone. A rho of +inf stands for the high-SNR
    offset ln det G (Lozano, Tulino & Verdu, IEEE T-IT 2005), -inf for a
    singular G.

    One LDL^H (Cholesky) recursion over the rows of I/rho + G, for the
    whole batch and grid at once, gives the pivots t_j >= 0 of G's
    Schur complements: r_jk = G_jk - sum_{m<k} r_jm (conj(r_km) w_m) and
    t_j = max(Re G_jj - sum_{k<j} |r_jk| (|r_jk| w_k), 0). A finite rho
    adds log1p(rho t_j) and weighs w_k = rho / (1 + rho t_k), which is 0
    at rho = 0 and where rho t_k overflows; rho = +inf adds ln t_j and
    weighs w_k = 1 / t_k, 0 for a zero pivot, whose column of a PSD G is
    zero. A sample with non-finite entries gets +inf rates, an
    overflowing rho G +inf, without warnings.
    """
    rhos = np.asarray(rhos, dtype=float)
    high = rhos == np.inf
    n, N = G.shape[:2]
    rates = np.zeros((n, rhos.size))
    r, w = {}, []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # ln 0 = -inf
        for j in range(N):
            t = G[:, j, j].real[:, None]
            for k in range(j):
                r[j, k] = G[:, j, k][:, None]
                for m in range(k):
                    r[j, k] = r[j, k] - r[j, m] * (np.conj(r[k, m]) * w[m])
                b = np.abs(r[j, k])
                t = t - b * (b * w[k])
            t = np.maximum(t, 0.0)
            rho_t = rhos * t
            term = np.log1p(rho_t)
            if high.any():
                t_inf = np.broadcast_to(t, rates.shape)[:, high]
                term[:, high] = np.log(t_inf)
            rates += term
            if j + 1 < N:  # the last pivot weighs no later row
                w.append(rhos / (1.0 + rho_t))
                if high.any():
                    w[j][:, high] = np.divide(1.0, t_inf, out=np.zeros_like(t_inf),
                                              where=t_inf > 0.0)
    # a non-finite entry of a PSD G makes its sample's rates non-finite;
    # only then is G scanned
    if not np.isfinite(rates).all():
        rates[~np.isfinite(G).all(axis=(1, 2))] = np.inf
    return rates
