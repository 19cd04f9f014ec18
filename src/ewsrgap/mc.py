"""Chunked Monte-Carlo accumulation with worker-count-independent results.

Samples are processed in fixed chunks of CHUNK_SIZE. Chunk i draws from
a Generator seeded by SeedSequence(seed, spawn_key=(i,)), and partial
sums are reduced in chunk order, so the final numbers are bit-identical
whether chunks run on one thread or many. The same seed always
reproduces the same underlying draws, which is what enables common
random numbers across SNR grids. Chunks on more than one worker run
on a thread pool that is started the first time a worker count is used
and kept for the rest of the process.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, check_integer

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

CHUNK_SIZE = 4096

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


@dataclass
class MonteCarloEstimate:
    """A stochastic scalar with its provenance.

    std_error is the sample standard deviation divided by sqrt(n_samples).
    rho records the linear SNR the estimate belongs to, when applicable.
    """

    value: float
    std_error: float
    n_samples: int
    seed: int
    rho: float | None = None

    def __post_init__(self):
        if self.std_error < 0.0:
            raise DomainError("std_error must be nonnegative")


def chunk_stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for chunk `index` of the run seeded by `seed`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. complex Gaussian entries, unit variance (1/2 per real part).

    One standard_normal(shape + (2,)) draw read as (real, imag) pairs,
    scaled in place.
    """
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    z = rng.standard_normal(shape + (2,)).view(np.complex128)[..., 0]
    z *= np.sqrt(0.5)
    return z


def check_run(n_samples, seed, workers=1):
    """(n_samples, seed, workers) as ints: at least 2 samples, a seed
    >= 0 and at least one worker, else DomainError."""
    return (
        check_integer(n_samples, "n_samples", 2),
        check_integer(seed, "seed", 0),
        check_integer(workers, "workers"),
    )


def _pool(workers: int) -> ThreadPoolExecutor:
    """The process-wide pool of `workers` threads, started on first use.
    concurrent.futures is imported here, not with the package: only a
    run on more than one worker needs it."""
    from concurrent.futures import ThreadPoolExecutor

    with _pools_lock:
        if workers not in _pools:
            _pools[workers] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"ewsrgap-mc{workers}"
            )
        return _pools[workers]


def _chunk_sizes(n_samples: int):
    n_full, rem = divmod(n_samples, CHUNK_SIZE)
    sizes = [CHUNK_SIZE] * n_full
    if rem:
        sizes.append(rem)
    return sizes


def _column_sums(a) -> np.ndarray:
    """The sum of each column of a (count, P) array on its own, bit for bit
    the 1-d sum of that column: a C-ordered sum adds row by row for P > 1
    but pairwise for P = 1, so a column's last bits would depend on P."""
    return np.asfortranarray(a).sum(axis=0)


def vector_stats(n_samples, seed, evaluate, workers=1, track_diffs=False):
    """Mean and standard error of a vector-valued per-sample statistic.

    evaluate(rng, count) must return a (count, P) array for the chunk
    whose generator it is handed. Returns (mean, std_error) of shape
    (P,), plus the standard error of successive component differences
    (shape (P-1,)) when track_diffs is set; paired per-sample diffs are
    what make CRN sweeps resolvable. Raises DomainError when check_run
    rejects the arguments or a sum overflows the float range. With
    workers > 1 the chunks run on the shared pool of that size, so
    evaluate must not itself wait on vector_stats with the same worker
    count.
    """
    n_samples, seed, workers = check_run(n_samples, seed, workers)
    sizes = _chunk_sizes(n_samples)

    def partial(i):
        v = np.atleast_2d(np.asarray(evaluate(chunk_stream(seed, i), sizes[i])))
        with np.errstate(over="ignore", invalid="ignore"):  # checked after the reduction
            s1 = _column_sums(v)
            s2 = _column_sums(v * v)
            if track_diffs:
                d = np.diff(v, axis=1)
                return s1, s2, _column_sums(d), _column_sums(d * d)
        return s1, s2, None, None

    if workers > 1 and len(sizes) > 1:
        parts = list(_pool(workers).map(partial, range(len(sizes))))
    else:
        parts = [partial(i) for i in range(len(sizes))]

    n = float(n_samples)

    def reduce(a):
        """Mean and standard error from the sums in fields a and a + 1,
        added in chunk order: identical for any worker count."""
        s1, s2 = parts[0][a].copy(), parts[0][a + 1].copy()
        for p in parts[1:]:
            s1 += p[a]
            s2 += p[a + 1]
        mean = s1 / n
        var = np.maximum(s2 - n * mean * mean, 0.0) / (n - 1.0)
        return mean, np.sqrt(var / n)

    with np.errstate(over="ignore", invalid="ignore"):
        mean, se = reduce(0)
        diff_se = reduce(2)[1] if track_diffs else None
    if not all(np.isfinite(a).all() for a in (mean, se, diff_se) if a is not None):
        raise DomainError("the sampled values overflow the float range")
    return mean, se, diff_se
