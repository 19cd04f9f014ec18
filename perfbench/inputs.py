"""Seeded input generator for the benchmark workloads.

Everything here is plain numpy and json: the program under test sees
only the documents written by these functions, never this code, so a
change to the program cannot change its own inputs. The same seed
always gives byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

# ewsr-multicell: 3 cells x 4 users, M=8 transmit, N=2 receive, 1 stream.
MULTICELL = {"cells": 3, "users_per_cell": 4, "M": 8, "N": 2, "power": 10.0}
SERVING_GAIN = 1.0
CROSS_GAIN = 0.3

# sandwich-massive: one 64-antenna cell, 4 Rician users with N=2, 1 stream.
MASSIVE = {"M": 64, "users": 4, "N": 2, "power": 100.0}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def _encode(A) -> list:
    A = np.asarray(A, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in A]


def _random_correlation(rng: np.random.Generator, M: int, gain: float) -> np.ndarray:
    """Wishart-shaped Hermitian PSD matrix scaled to trace gain * M."""
    A = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    C = A @ A.conj().T
    C = 0.5 * (C + C.conj().T)
    return C * (gain * M / np.trace(C).real)


def multicell_doc(seed: int) -> dict:
    """Zero-mean links with random transmit correlation, no precoders."""
    rng = _rng(seed, 1)
    C, U, M, N = (MULTICELL[k] for k in ("cells", "users_per_cell", "M", "N"))
    users = [
        {"serving_bs": k // U, "rx_antennas": N, "streams": 1, "rate_weight": 1.0}
        for k in range(C * U)
    ]
    links = [
        [
            {
                "mean": None,
                "cov_t": _encode(
                    _random_correlation(
                        rng, M, SERVING_GAIN if j == k // U else CROSS_GAIN
                    )
                ),
            }
            for j in range(C)
        ]
        for k in range(C * U)
    ]
    return {
        "cells": [{"antennas": M} for _ in range(C)],
        "users": users,
        "power_budgets": [MULTICELL["power"]] * C,
        "links": links,
    }


def _steering(n: int, sin_angle: float) -> np.ndarray:
    return np.exp(1j * np.pi * sin_angle * np.arange(n))


def massive_doc(seed: int) -> dict:
    """Single-cell massive-MIMO scenario with Rician (line-of-sight) means.

    User k's mean is sqrt(K/(1+K)) a_rx a_tx^H for random angles and
    Rician factor K in [1, 4]; its scattered part has a phase-rotated
    exponential correlation r^|i-j| e^{j psi (i-j)} of weight 1/(1+K).
    Precoders are conjugate beams along each user's a_tx, with the
    cell's power split evenly.
    """
    rng = _rng(seed, 2)
    M, K, N, P = (MASSIVE[k] for k in ("M", "users", "N", "power"))
    idx = np.arange(M)
    diff = idx[:, None] - idx[None, :]
    links, precoders = [], []
    for _ in range(K):
        kappa = rng.uniform(1.0, 4.0)
        r = rng.uniform(0.3, 0.9)
        psi = rng.uniform(-np.pi, np.pi)
        a_tx = _steering(M, rng.uniform(-1.0, 1.0))
        a_rx = _steering(N, rng.uniform(-1.0, 1.0))
        mean = np.sqrt(kappa / (1.0 + kappa)) * np.outer(a_rx, a_tx.conj())
        cov = (r ** np.abs(diff)) * np.exp(1j * psi * diff) / (1.0 + kappa)
        links.append([{"mean": _encode(mean), "cov_t": _encode(cov)}])
        precoders.append(_encode(np.sqrt(P / K) * a_tx[:, None] / np.sqrt(M)))
    return {
        "cells": [{"antennas": M}],
        "users": [
            {"serving_bs": 0, "rx_antennas": N, "streams": 1, "rate_weight": 1.0}
            for _ in range(K)
        ],
        "power_budgets": [P],
        "links": links,
        "precoders": precoders,
    }


def write_doc(doc: dict, path) -> int:
    """Write a scenario document; returns its size in bytes."""
    text = json.dumps(doc, indent=1) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text.encode("utf-8"))
