"""Independent EWSR reference for the ewsr-multicell check.

A per-link estimator written from the model's definition, sharing no
code and no random stream with the library: for user k in cell b_k,

    S_k = I + sum_j H_kj Q_j H_kj^H,   I_k = S_k - H_kb G_k G_k^H H_kb^H,

with H_kj = W C_kj^{1/2}, Q_j the sum of cell j's precoder covariances,
and the EWSR the mean of sum_k u_k (ln|S_k| - ln|I_k|). Precoders are
the uniform-power ones: the first d_k columns of I_M scaled so each
cell spends its budget evenly across its streams.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

COMMITTED = Path(__file__).with_name("reference_ewsr_multicell.json")


def _matrix(entries) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in entries])


def _psd_sqrt(C: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(0.5 * (C + C.conj().T))
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T


def _uniform_precoders(doc: dict) -> list:
    cells, users = doc["cells"], doc["users"]
    streams = [0] * len(cells)
    for u in users:
        streams[u["serving_bs"]] += u["streams"]
    out = []
    for u in users:
        j = u["serving_bs"]
        amp = np.sqrt(doc["power_budgets"][j] / streams[j])
        out.append(amp * np.eye(cells[j]["antennas"], u["streams"]))
    return out


def ewsr_reference(doc: dict, n_samples: int, seed: int):
    """(mean, std_error) of the weighted sum rate of a zero-mean scenario."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xE75A]))
    users = doc["users"]
    G = _uniform_precoders(doc)
    Q = [np.zeros((c["antennas"],) * 2, dtype=complex) for c in doc["cells"]]
    for u, Gk in zip(users, G):
        Q[u["serving_bs"]] += Gk @ Gk.conj().T
    total = np.zeros(n_samples)
    for k, u in enumerate(users):
        N, b = u["rx_antennas"], u["serving_bs"]
        S = np.broadcast_to(np.eye(N, dtype=complex), (n_samples, N, N)).copy()
        own = None
        for j, link in enumerate(doc["links"][k]):
            root = _psd_sqrt(_matrix(link["cov_t"]))
            M = root.shape[0]
            W = rng.standard_normal((n_samples, N, M)) + 1j * rng.standard_normal(
                (n_samples, N, M)
            )
            H = (W * np.sqrt(0.5)) @ root
            HH = np.conj(np.swapaxes(H, 1, 2))
            S += H @ Q[j] @ HH
            if j == b:
                own = H @ (G[k] @ G[k].conj().T) @ HH
        sig = np.linalg.slogdet(S)[1]
        intf = np.linalg.slogdet(S - own)[1]
        total += u["rate_weight"] * (sig - intf)
    return float(total.mean()), float(total.std(ddof=1) / np.sqrt(n_samples))


def committed_reference(seed: int, n_samples: int):
    """(value, std_error) recorded at the seed commit, or None if not recorded."""
    table = json.loads(COMMITTED.read_text(encoding="utf-8"))
    if table["n_samples"] != n_samples:
        return None
    entry = table["values"].get(str(int(seed)))
    return None if entry is None else tuple(entry)
