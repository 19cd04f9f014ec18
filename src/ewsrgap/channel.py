"""Gaussian partial-CSIT channel model and multi-cell scenario description.

Every link is a GapSpec: the channel is H = mean + W @ sqrt(cov) with
W i.i.d. complex Gaussian of unit variance (1/2 per real component),
so that E (H - mean)(H - mean)^H = tr(cov) I and
E (H - mean)^H (H - mean) = N rows * cov. Scenarios couple several
base stations and users. A user's rates depend on its links only
through the precoded streams of the cells that serve someone;
`stream_spec` describes them as one GapSpec whose width is the number
of streams, not of antennas.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EwsrgapError,
    IndexOutOfRange,
    ParseError,
    ValidationError,
)
from .gap import GapSpec, check_spec_size
from .mc import complex_normal


def sample_channel(spec: GapSpec, rng: np.random.Generator) -> np.ndarray:
    """One channel realization H = mean + W @ sqrt(cov)."""
    W = complex_normal(rng, spec.mean.shape)
    return spec.mean + W @ spec.cov_sqrt


def exp_profile_cov(M: int, r: float = 0.5) -> np.ndarray:
    """Exponential correlation profile: entry (i, j) = r^|i-j|, trace M."""
    if not 0.0 <= r < 1.0:
        raise DomainError(f"correlation coefficient must be in [0, 1), got {r}")
    idx = np.arange(int(M))
    return (r ** np.abs(idx[:, None] - idx[None, :])).astype(complex)


@dataclass
class UserConfig:
    serving_bs: int
    rx_antennas: int
    streams: int
    rate_weight: float


@dataclass
class IbcScenario:
    """Cells, users, their association, power budgets, and all links.

    bs_antennas[j] is M_j; links[k][j] is the GapSpec of the channel
    from BS j to user k, whose mean must be rx_antennas_k x M_j. seed,
    when set, is the file's suggested default RNG seed.
    """

    bs_antennas: list
    users: list
    power_budgets: list
    links: list
    seed: int | None = None

    def __post_init__(self):
        C = len(self.bs_antennas)
        if C == 0:
            raise ValidationError("scenario has no cells")
        if len(self.power_budgets) != C:
            raise ValidationError("power_budgets length differs from cell count")
        for j, P in enumerate(self.power_budgets):
            if not P > 0:
                raise ValidationError(f"power budget of cell {j} must be positive")
        if len(self.users) == 0:
            raise ValidationError("scenario has no users")
        if len(self.links) != len(self.users):
            raise ValidationError("links must have one row per user")
        for k, u in enumerate(self.users):
            if not (0 <= u.serving_bs < C):
                raise ValidationError(f"serving_bs of user {k} out of range")
            if u.rate_weight < 0:
                raise ValidationError(f"rate_weight of user {k} must be >= 0")
            if u.streams > u.rx_antennas:
                raise ValidationError("streams exceed rx antennas")
            if u.streams > self.bs_antennas[u.serving_bs]:
                raise ValidationError("streams exceed serving BS antennas")
            if u.streams < 1:
                raise ValidationError(f"user {k} must carry at least one stream")
            if len(self.links[k]) != C:
                raise ValidationError(f"user {k} needs a link to every cell")
            for j, link in enumerate(self.links[k]):
                expect = (u.rx_antennas, self.bs_antennas[j])
                if link.mean.shape != expect:
                    raise ValidationError(
                        f"link ({k},{j}) has shape {link.mean.shape}, expected {expect}"
                    )

    @property
    def n_cells(self) -> int:
        return len(self.bs_antennas)

    @property
    def n_users(self) -> int:
        return len(self.users)


@dataclass
class PrecoderSet:
    """Per-user beamformer matrices G_k of shape M_{b_k} x d_k."""

    matrices: list

    def __post_init__(self):
        self.matrices = [np.asarray(G, dtype=complex) for G in self.matrices]


def check_precoders(scenario: IbcScenario, precoders: PrecoderSet) -> None:
    """Validate shapes and per-BS power against the scenario's budgets."""
    if len(precoders.matrices) != scenario.n_users:
        raise ValidationError("need one precoder per user")
    used = [0.0] * scenario.n_cells
    for k, u in enumerate(scenario.users):
        G = precoders.matrices[k]
        expect = (scenario.bs_antennas[u.serving_bs], u.streams)
        if G.shape != expect:
            raise ValidationError(
                f"precoder of user {k} has shape {G.shape}, expected {expect}"
            )
        used[u.serving_bs] += float(np.sum(np.abs(G) ** 2))
    for j, (spent, budget) in enumerate(zip(used, scenario.power_budgets)):
        if spent > budget + 1e-9:
            raise ValidationError(
                f"cell {j} spends power {spent:.6g} above budget {budget:.6g}"
            )


def uniform_power_precoders(scenario: IbcScenario) -> PrecoderSet:
    """Scaled-identity precoders that exactly meet each cell's budget.

    Every user served by cell j gets the first d_k columns of I_{M_j}
    scaled by a common per-cell amplitude.
    """
    streams_per_cell = [0] * scenario.n_cells
    for u in scenario.users:
        streams_per_cell[u.serving_bs] += u.streams
    mats = []
    for u in scenario.users:
        j = u.serving_bs
        alpha = np.sqrt(scenario.power_budgets[j] / streams_per_cell[j])
        mats.append(alpha * np.eye(scenario.bs_antennas[j], u.streams, dtype=complex))
    ps = PrecoderSet(mats)
    check_precoders(scenario, ps)
    return ps


def _served_cells(scenario: IbcScenario, precoders: PrecoderSet):
    """Every cell that serves someone, with its precoders side by side.

    Returns ([(j, G_j), ...], own) where G_j holds the precoders of the
    users cell j serves, in user order, and own[k] is the slice of user
    k's streams among the columns of all G_j laid end to end.
    """
    cells, own, width = [], [None] * scenario.n_users, 0
    for j in range(scenario.n_cells):
        served = [i for i, u in enumerate(scenario.users) if u.serving_bs == j]
        if not served:
            continue
        for i in served:
            own[i] = slice(width, width + scenario.users[i].streams)
            width += scenario.users[i].streams
        cells.append((j, np.concatenate([precoders.matrices[i] for i in served], axis=1)))
    return cells, own


def stream_spec(scenario: IbcScenario, precoders: PrecoderSet, k: int):
    """User k's links in the space of the precoded streams.

    The precoded link F_kj = H_kj G_j has mean m_kj G_j and i.i.d. rows
    CN(0, G_j^H C_kj G_j), so F = [F_kj]_j is described by the GapSpec
    with mean [m_kj G_j]_j and covariance blkdiag(G_j^H C_kj G_j), over
    the cells that serve someone. F F^H = sum_j H_kj Q_j H_kj^H is user
    k's signal Gram. Returns (spec, own), own being the slice of user
    k's own streams among the spec's columns.
    """
    if not (0 <= k < scenario.n_users):
        raise IndexOutOfRange(f"user index {k} out of range")
    check_precoders(scenario, precoders)
    cells, own = _served_cells(scenario, precoders)
    links = scenario.links[k]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
        blocks = [G.conj().T @ links[j].cov @ G for j, G in cells]
        mean = np.concatenate([links[j].mean @ G for j, G in cells], axis=1)
    width = sum(B.shape[0] for B in blocks)
    cov = np.zeros((width, width), dtype=complex)
    start = 0
    for B in blocks:
        cov[start : start + B.shape[0], start : start + B.shape[0]] = B
        start += B.shape[0]
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise DomainError(f"precoded links of user {k} overflow the float range")
    return GapSpec(mean, cov), own[k]


# ---------------------------------------------------------------------------
# Scenario JSON serialization
# ---------------------------------------------------------------------------
#
# Top-level keys: cells, users, links, power_budgets, plus optional seed
# and precoders. Matrices are row-major nested lists whose entries are
# [re, im] pairs; a link mean of null stands for the zero matrix.


def _integer(doc, key, field_name, low):
    """doc[key] as an integer >= low; bools, an int subclass, are rejected."""
    value = _require(doc, key, int, field_name)
    if isinstance(value, bool) or value < low:
        raise ParseError(f"expected an integer >= {low}", field=field_name)
    return value


def _finite(value, field_name) -> float:
    """A JSON number as a finite float; bools, NaN and infinities are rejected."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            x = float(value)
        except OverflowError:  # an integer literal beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ParseError("expected a finite number", field=field_name)


def _decode_matrix(obj, field_name):
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ParseError("matrix must be a non-empty list of rows", field=field_name)
    width = len(obj[0])
    rows = []
    for row in obj:
        if len(row) != width:
            raise ParseError("matrix rows have unequal lengths", field=field_name)
        vals = []
        for entry in row:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ParseError(
                    "matrix entries must be [re, im] pairs", field=field_name
                )
            vals.append(complex(_finite(entry[0], field_name), _finite(entry[1], field_name)))
        rows.append(vals)
    return np.array(rows, dtype=complex)


def _encode_matrix(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def _require(doc, key, kind, field_name=None):
    name = field_name or key
    if key not in doc:
        raise ParseError("missing required key", field=name)
    val = doc[key]
    if not isinstance(val, kind):
        raise ParseError(f"expected {kind.__name__}", field=name)
    return val


def load_scenario(path) -> IbcScenario:
    """Load and eagerly validate a scenario JSON document."""
    scenario, _, _ = load_bundle(path)
    return scenario


def load_bundle(path):
    """Load (scenario, precoders or None, seed or None) from one file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")

    cells = _require(doc, "cells", list)
    bs_antennas = []
    for j, cell in enumerate(cells):
        if not isinstance(cell, dict):
            raise ParseError("cell entries must be objects", field=f"cells[{j}]")
        bs_antennas.append(_integer(cell, "antennas", f"cells[{j}].antennas", 1))

    users_doc = _require(doc, "users", list)
    users = []
    for k, u in enumerate(users_doc):
        if not isinstance(u, dict):
            raise ParseError("user entries must be objects", field=f"users[{k}]")
        users.append(
            UserConfig(
                serving_bs=_integer(u, "serving_bs", f"users[{k}].serving_bs", 0),
                rx_antennas=_integer(u, "rx_antennas", f"users[{k}].rx_antennas", 1),
                streams=_integer(u, "streams", f"users[{k}].streams", 1),
                rate_weight=_finite(
                    _require(u, "rate_weight", object, f"users[{k}].rate_weight"),
                    f"users[{k}].rate_weight",
                ),
            )
        )

    budgets_doc = _require(doc, "power_budgets", list)
    budgets = [_finite(P, f"power_budgets[{j}]") for j, P in enumerate(budgets_doc)]

    links_doc = _require(doc, "links", list)
    links = []
    for k, row in enumerate(links_doc):
        if not isinstance(row, list):
            raise ParseError("links must be a list of per-user rows", field=f"links[{k}]")
        link_row = []
        for j, entry in enumerate(row):
            fname = f"links[{k}][{j}]"
            if not isinstance(entry, dict):
                raise ParseError("link entries must be objects", field=fname)
            cov = _decode_matrix(
                _require(entry, "cov_t", list, f"{fname}.cov_t"), f"{fname}.cov_t"
            )
            if entry.get("mean") is None:
                n_rx = users[k].rx_antennas if k < len(users) else 0
                try:
                    check_spec_size(n_rx, cov.shape[0])
                except DomainError as exc:
                    raise ValidationError(f"users[{k}].rx_antennas too large: {exc}") from exc
                mean = np.zeros((n_rx, cov.shape[0]), dtype=complex)
            else:
                mean = _decode_matrix(entry["mean"], f"{fname}.mean")
            try:
                link_row.append(GapSpec(mean=mean, cov=cov))
            except EwsrgapError as exc:
                raise ValidationError(f"link ({k},{j}) invalid: {exc}") from exc
        links.append(link_row)

    seed = _integer(doc, "seed", "seed", 0) if doc.get("seed") is not None else None

    scenario = IbcScenario(
        bs_antennas=bs_antennas,
        users=users,
        power_budgets=budgets,
        links=links,
        seed=seed,
    )

    precoders = None
    if doc.get("precoders") is not None:
        raw = doc["precoders"]
        if not isinstance(raw, list):
            raise ParseError("precoders must be a list", field="precoders")
        precoders = PrecoderSet(
            [_decode_matrix(G, f"precoders[{k}]") for k, G in enumerate(raw)]
        )
        check_precoders(scenario, precoders)
    return scenario, precoders, seed


def save_scenario(scenario: IbcScenario, path, precoders: PrecoderSet | None = None):
    """Write a scenario (and optional precoders) as round-trippable JSON."""
    doc = {
        "cells": [{"antennas": int(m)} for m in scenario.bs_antennas],
        "users": [
            {
                "serving_bs": u.serving_bs,
                "rx_antennas": u.rx_antennas,
                "streams": u.streams,
                "rate_weight": u.rate_weight,
            }
            for u in scenario.users
        ],
        "power_budgets": [float(P) for P in scenario.power_budgets],
        "links": [
            [
                {
                    "mean": None
                    if not np.any(link.mean)
                    else _encode_matrix(link.mean),
                    "cov_t": _encode_matrix(link.cov),
                }
                for link in row
            ]
            for row in scenario.links
        ],
    }
    if scenario.seed is not None:
        doc["seed"] = scenario.seed
    if precoders is not None:
        doc["precoders"] = [_encode_matrix(G) for G in precoders.matrices]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_demo_bundle():
    """The bundled two-cell four-user zero-mean demo scenario.

    Returns (scenario, precoders, seed) like load_bundle.
    """
    from importlib import resources

    ref = resources.files(__package__) / "data" / "demo_scenario.json"
    with resources.as_file(ref) as path:
        return load_bundle(path)
