"""Command-line front end: parameter sweeps, grid data emission, identity audit.

Every sweep writes a deterministic table (CSV or JSON): the same config
produces byte-identical output regardless of how many worker threads
evaluate the grid.  ``RINGSIM_THREADS`` caps the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import add_drop, attenuation, hom, single_bus
from .core import (
    CouplerParams,
    ResonantDivergenceError,
    RingParams,
    _abs,
    _coupler,
    _square,
    _survival,
)

__all__ = [
    "AuditReport",
    "ConfigError",
    "IdentityRecord",
    "SweepConfig",
    "main",
    "run_audit",
    "run_sweep",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_AUDIT = 2
EXIT_IO = 3

#: Grid points handled per worker task; fixed so output never depends on
#: the worker count.
_CHUNK = 65536

#: Most points a sweep may have: the product of its counts (critical-dip
#: also counts its curves).  Six times a 201x201x401 census grid.
_MAX_POINTS = 100_000_000

#: Most beam splitters in an attenuation chain.  Beyond it the step
#: transmission 1 - gamma*L/N rounds before its N-th power is taken, so the
#: chain error no longer measures the O(1/N) discretisation.
_MAX_SPLITTERS = 1_000_000

#: Most audit draws per identity.  Memory stays bounded by the draw block
#: (`_AUDIT_BLOCK`), so this bounds the run time: the per-draw Simpson
#: quadrature of the uniform-line identity grows with the draw count.
_MAX_SAMPLES = 1_000_000

#: Smallest entropy-grid alpha.  On the tau = 0 and eta = 0 edges the
#: inverse transfer matrix grows like 1/alpha and the sector norms like
#: alpha**-3, which overflow below alpha = 2.2e-103 (probed on those edges
#: against dense eta, tau and theta axes); the floor keeps a margin.
_MIN_ENTROPY_ALPHA = 1e-100

#: Largest detuning or matched rate (rad/s) of a langevin-compare sweep,
#: and the inverse of the smallest detuning: the Lorentzian squares both,
#: and the squares must neither overflow nor vanish.
_MAX_RATE = 1e150

_COUNT_KEYS = ("tau_count", "eta_count", "theta_count", "delta_count")

_PI = math.pi

_DEFAULTS: dict[str, dict[str, object]] = {
    "single-bus": {
        "tau": 0.9,
        "alpha": 0.95,
        "theta_min": -_PI,
        "theta_max": _PI,
        "theta_count": 201,
    },
    "langevin-compare": {
        "tau": 0.99,
        "alpha": 0.99,
        "round_trip_time_s": 1e-12,
        "delta_tr_min": 1e-4,
        "delta_tr_max": _PI,
        "delta_count": 40,
    },
    "attenuation-chain": {
        "gamma_per_m": 0.35,
        "length_m": 2.0,
        "beta_per_m": 0.0,
        "splitter_counts": [100, 1000, 10000],
    },
    "add-drop": {
        "tau": 0.9,
        "eta": 0.9,
        "alpha": 0.95,
        "theta_min": -_PI,
        "theta_max": _PI,
        "theta_count": 201,
    },
    "homm-grid": {
        "alpha": 1.0,
        "threshold": 1e-3,
        "tau_count": 101,
        "eta_count": 101,
        "theta_count": 201,
    },
    "critical-dip": {
        "alphas": [1.0, 0.95, 0.75, 0.5],
        "theta_min": -_PI,
        "theta_max": _PI,
        "theta_count": 201,
    },
    "entropy-grid": {
        "alpha": 0.75,
        "tau_count": 41,
        "eta_count": 41,
        "theta_count": 81,
        "p1_threshold": 1e-12,
    },
    "audit": {"seed": 12345, "samples": 200},
}

SWEEP_MODES = tuple(m for m in _DEFAULTS if m != "audit")


class ConfigError(ValueError):
    """Invalid sweep configuration; message names the offending field."""


@dataclass(frozen=True)
class SweepConfig:
    """One resolved sweep: mode, numeric parameters, output destination."""

    mode: str
    params: dict
    out: str | None = None
    fmt: str = "csv"

    def canonical(self) -> str:
        """One-line JSON echo of mode plus parameters, key-sorted."""
        doc = {"mode": self.mode, **self.params}
        return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


def _number(key: str, value: object, kind: type, noun: str) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected {noun}, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"{key}: must be finite, got {value!r}")
    if kind is int and not float(value).is_integer():
        raise ConfigError(f"{key}: expected {noun}, got {value!r}")
    return kind(value)


def _coerce(mode: str, key: str, value: object) -> object:
    default = _DEFAULTS[mode][key]
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{key}: expected a non-empty list, got {value!r}")
        kind = type(default[0])
        noun = "integers" if kind is int else "numbers"
        return [_number(key, item, kind, noun) for item in value]
    if isinstance(default, int):
        return _number(key, value, int, "an integer")
    if isinstance(default, float):
        return _number(key, value, float, "a number")
    raise ConfigError(f"{key}: unsupported type")


def _validate(mode: str, params: dict) -> None:
    def check(cond: bool, key: str, message: str) -> None:
        if not cond:
            raise ConfigError(f"{key}: {message} (got {params[key]!r})")

    for key in ("tau", "eta"):
        if key in params:
            check(0.0 <= params[key] <= 1.0, key, "must lie in [0, 1]")
    if "alpha" in params:
        check(0.0 < params["alpha"] <= 1.0, "alpha", "must lie in (0, 1]")
    if mode == "entropy-grid":
        check(
            params["alpha"] >= _MIN_ENTROPY_ALPHA,
            "alpha",
            f"must be >= {_MIN_ENTROPY_ALPHA:g} for entropy-grid",
        )
    if "alphas" in params:
        check(
            all(0.0 < a <= 1.0 for a in params["alphas"]),
            "alphas",
            "every entry must lie in (0, 1]",
        )
    if "theta_min" in params:
        slack = 1e-12
        check(
            -_PI - slack <= params["theta_min"] <= _PI + slack,
            "theta_min",
            "must lie in [-pi, pi]",
        )
        check(
            -_PI - slack <= params["theta_max"] <= _PI + slack,
            "theta_max",
            "must lie in [-pi, pi]",
        )
        check(
            params["theta_min"] <= params["theta_max"],
            "theta_min",
            "must not exceed theta_max",
        )
    for key in (*_COUNT_KEYS, "samples"):
        if key in params:
            check(params[key] >= 1, key, "must be >= 1")
    if "samples" in params:
        check(params["samples"] <= _MAX_SAMPLES, "samples", f"must be <= {_MAX_SAMPLES}")
    axes = [key for key in (*_COUNT_KEYS, "alphas") if key in params]
    points = math.prod(len(params[k]) if k == "alphas" else params[k] for k in axes)
    if points > _MAX_POINTS:
        raise ConfigError(f"{' * '.join(axes)}: must not exceed {_MAX_POINTS} points")
    if "threshold" in params:
        check(params["threshold"] > 0.0, "threshold", "must be > 0")
    if "p1_threshold" in params:
        check(params["p1_threshold"] >= 0.0, "p1_threshold", "must be >= 0")
    if "round_trip_time_s" in params:
        check(params["round_trip_time_s"] > 0.0, "round_trip_time_s", "must be > 0")
    if "delta_tr_min" in params:
        check(params["delta_tr_min"] > 0.0, "delta_tr_min", "must be > 0")
        check(
            params["delta_tr_min"] <= params["delta_tr_max"],
            "delta_tr_min",
            "must not exceed delta_tr_max",
        )
    if "gamma_per_m" in params:
        check(params["gamma_per_m"] >= 0.0, "gamma_per_m", "must be >= 0")
        check(params["length_m"] > 0.0, "length_m", "must be > 0")
    if "splitter_counts" in params:
        check(
            all(n >= 1 for n in params["splitter_counts"]),
            "splitter_counts",
            "every entry must be >= 1",
        )
        check(
            max(params["splitter_counts"]) <= _MAX_SPLITTERS,
            "splitter_counts",
            f"every entry must be <= {_MAX_SPLITTERS}",
        )
        # a beam splitter cannot drop more than all of its power
        check(
            params["gamma_per_m"] * params["length_m"] <= min(params["splitter_counts"]),
            "splitter_counts",
            "every entry must be >= gamma_per_m * length_m",
        )
    if "beta_per_m" in params:
        check(
            math.isfinite(params["beta_per_m"] * params["length_m"]),
            "beta_per_m",
            "times length_m must be finite",
        )
    if mode == "langevin-compare":
        check(params["tau"] > 0.0, "tau", "must be > 0 to match Langevin rates")
        # every matched rate times T_R is at most 2 / sqrt(tau * alpha)
        top = max(
            params["delta_tr_max"],
            2.0 / math.sqrt(params["tau"]) / math.sqrt(params["alpha"]),
        )
        t_r = params["round_trip_time_s"]
        check(
            params["delta_tr_min"] / t_r >= 1.0 / _MAX_RATE and top / t_r <= _MAX_RATE,
            "round_trip_time_s",
            f"must keep detunings and matched rates within [{1.0 / _MAX_RATE:g}, "
            f"{_MAX_RATE:g}] rad/s",
        )
    if "seed" in params:
        check(params["seed"] >= 0, "seed", "must be >= 0")


def load_config(
    mode: str,
    config_path: str | None,
    overrides: list[str] | None,
    out: str | None,
    fmt: str | None,
) -> SweepConfig:
    """Resolve defaults, config file, and --set overrides into a SweepConfig."""
    params = dict(_DEFAULTS[mode])
    file_out: str | None = None
    file_fmt: str | None = None
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a flat JSON object")
        for key, value in doc.items():
            if key == "mode":
                if value != mode:
                    raise ConfigError(
                        f"mode: config file says {value!r}, command line says {mode!r}"
                    )
            elif key == "out":
                file_out = str(value)
            elif key == "format":
                file_fmt = str(value)
            elif key in params:
                params[key] = _coerce(mode, key, value)
            else:
                raise ConfigError(
                    f"{key}: unknown key for mode {mode}; valid keys: "
                    + ", ".join(sorted(params))
                )
    for item in overrides or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        if key not in params:
            raise ConfigError(
                f"{key}: unknown key for mode {mode}; valid keys: "
                + ", ".join(sorted(params))
            )
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an int too long to parse
            value = raw
        params[key] = _coerce(mode, key, value)
    _validate(mode, params)
    resolved_fmt = fmt or file_fmt or "csv"
    if resolved_fmt not in ("csv", "json"):
        raise ConfigError(f"format: must be csv or json, got {resolved_fmt!r}")
    return SweepConfig(mode=mode, params=params, out=out or file_out, fmt=resolved_fmt)


def _worker_count() -> int:
    raw = os.environ.get("RINGSIM_THREADS")
    if raw is None:
        return min(8, os.cpu_count() or 1)
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(f"RINGSIM_THREADS: must be a positive integer, got {raw!r}")
    return count


class Table:
    """A sweep's rows, held column-wise in chunks of formatted cells.

    Each chunk is a list of equal-length columns of cell text: the ``repr``
    of each float (so non-finite cells read ``nan``, ``inf`` or ``-inf``)
    and the ``str`` of each int.  Chunks keep the canonical row order;
    ``len(table)`` is the row count.  A table is rendered once: `drain`
    lets go of each chunk as it is taken, so the cells of the whole grid
    and its rendered text are never held together.
    """

    def __init__(self, chunks: list[list[list[str]]]) -> None:
        self._chunks = [chunk for chunk in chunks if chunk[0]]
        self._rows = sum(len(chunk[0]) for chunk in self._chunks)

    def __len__(self) -> int:
        return self._rows

    def drain(self):
        """Yield the chunks in row order, releasing each one."""
        while self._chunks:
            yield self._chunks.pop(0)


def _cells(values) -> list[str]:
    """Cell text of one value column."""
    return list(map(repr, np.asarray(values).tolist()))


def _table(*columns) -> Table:
    """A one-chunk table from whole value columns."""
    return Table([[_cells(column) for column in columns]])


# --- sweep implementations -------------------------------------------------


def _sweep_single_bus(p: dict, workers: int):
    tau, _ = _coupler(p["tau"])
    thetas = np.linspace(p["theta_min"], p["theta_max"], p["theta_count"])
    amp, power, _ = single_bus._transfer(tau, _survival(p["alpha"]), thetas)
    table = _table(thetas, amp.real, amp.imag, power, 1.0 - power)
    columns = ["theta_rad", "transfer_re", "transfer_im", "power", "noise_power"]
    return columns, table, None


def _sweep_langevin_compare(p: dict, workers: int):
    coupler = CouplerParams.from_magnitude(p["tau"])
    per_side = np.logspace(
        math.log10(p["delta_tr_min"]), math.log10(p["delta_tr_max"]), p["delta_count"]
    )
    x = np.concatenate([-per_side[::-1], per_side])
    deltas = x / p["round_trip_time_s"]
    xval, ring_pow, lor_pow = single_bus.power_comparison(
        coupler, p["alpha"], p["round_trip_time_s"], deltas
    ).T
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(lor_pow != 0.0, np.abs(ring_pow - lor_pow) / lor_pow, math.inf)
    columns = ["delta_tr", "power_phasor", "power_lorentzian", "rel_diff"]
    return columns, _table(xval, ring_pow, lor_pow, rel), None


def _sweep_attenuation_chain(p: dict, workers: int):
    gamma, length, beta = p["gamma_per_m"], p["length_m"], p["beta_per_m"]
    counts = p["splitter_counts"]
    limit = math.exp(-gamma * length)
    powers = [
        attenuation.BeamSplitterChain(gamma, length, beta, n).power for n in counts
    ]
    table = _table(
        counts, powers, [limit] * len(counts), [abs(pw - limit) for pw in powers]
    )
    columns = ["n_splitters", "chain_power", "continuum_power", "abs_error"]
    return columns, table, None


def _add_drop_matrices(tau, eta, alpha, theta):
    """Transfer matrices of rings with real couplers, as a (..., 2, 2) stack."""
    return add_drop._matrix(*_coupler(tau), *_coupler(eta), alpha, theta)


def _sweep_add_drop(p: dict, workers: int):
    thetas = np.linspace(p["theta_min"], p["theta_max"], p["theta_count"])
    m = _add_drop_matrices(p["tau"], p["eta"], _survival(p["alpha"]), thetas)
    comm = add_drop.noise_commutators(m)
    table = _table(
        thetas,
        m[:, 0, 0].real, m[:, 0, 0].imag,
        m[:, 0, 1].real, m[:, 0, 1].imag,
        m[:, 1, 0].real, m[:, 1, 0].imag,
        m[:, 1, 1].real, m[:, 1, 1].imag,
        comm[:, 0, 0].real, comm[:, 1, 1].real,
        comm[:, 0, 1].real, comm[:, 0, 1].imag,
    )
    columns = [
        "theta_rad",
        "m_ca_re", "m_ca_im", "m_cb_re", "m_cb_im",
        "m_da_re", "m_da_im", "m_db_re", "m_db_im",
        "comm_cc", "comm_dd", "comm_cd_re", "comm_cd_im",
    ]
    return columns, table, None


def _grid_axes(p: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    taus = np.linspace(0.0, 1.0, p["tau_count"])
    etas = np.linspace(0.0, 1.0, p["eta_count"])
    thetas = np.linspace(-_PI, _PI, p["theta_count"])
    return taus, etas, thetas


def _grid_table(p: dict, workers: int, evaluate) -> Table:
    """Tabulate a (tau, eta, theta) grid, chunk by chunk, in canonical order.

    A chunk is a block of (tau, eta) pairs against the whole theta axis, so
    ``evaluate(tau, eta, theta)`` receives broadcastable (pairs, 1),
    (pairs, 1) and (1, theta_count) arrays.  It returns the values on that
    block and a mask of the points that become rows.  Each chunk is
    reduced to the cells of its rows where it is evaluated, so the kernel's
    arrays live only as long as their chunk; each axis value is formatted
    once.
    """
    axes = _grid_axes(p)
    taus, etas, thetas = axes
    tau_cells, eta_cells, theta_cells = (
        np.array(_cells(axis), dtype=object) for axis in axes
    )
    pairs = len(taus) * len(etas)
    step = max(1, _CHUNK // len(thetas))

    def chunk(lo: int) -> list[list[str]]:
        it, ie = np.divmod(np.arange(lo, min(lo + step, pairs)), len(etas))
        values, keep = evaluate(taus[it][:, None], etas[ie][:, None], thetas[None, :])
        pair, ith = np.nonzero(keep)
        return [
            tau_cells[it[pair]].tolist(),
            eta_cells[ie[pair]].tolist(),
            theta_cells[ith].tolist(),
            _cells(values[pair, ith]),
        ]

    starts = range(0, pairs, step)
    if workers <= 1 or len(starts) == 1:
        return Table([chunk(lo) for lo in starts])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return Table(list(pool.map(chunk, starts)))


def _sweep_homm_grid(p: dict, workers: int):
    def evaluate(tau, eta, theta):
        ratio = hom.coincidence_ratio_grid(tau, eta, theta, p["alpha"])
        return ratio, ratio <= p["threshold"]  # NaN (undefined ratio) never passes

    table = _grid_table(p, workers, evaluate)
    shape = (p["tau_count"], p["eta_count"], p["theta_count"])
    summary = {
        "count": len(table),
        "fraction": len(table) / math.prod(shape),
        "grid": "x".join(str(n) for n in shape),
    }
    columns = ["tau", "eta", "theta_rad", "coincidence_ratio"]
    return columns, table, summary


def _sweep_critical_dip(p: dict, workers: int):
    thetas = np.linspace(p["theta_min"], p["theta_max"], p["theta_count"])
    tau = 1.0 / math.sqrt(2.0)
    curves = [
        hom.coincidence_ratio_grid(tau, tau, thetas, a) for a in p["alphas"]
    ]
    columns = ["theta_rad"] + [f"coincidence_alpha_{a!r}" for a in p["alphas"]]
    return columns, _table(thetas, *curves), None


def _sweep_entropy_grid(p: dict, workers: int):
    def evaluate(tau, eta, theta):
        bits = hom.entropy_grid(tau, eta, theta, p["alpha"], p["p1_threshold"])
        return bits, np.ones(bits.shape, dtype=bool)

    columns = ["tau", "eta", "theta_rad", "entropy_bits"]
    return columns, _grid_table(p, workers, evaluate), None


_SWEEPS = {
    "single-bus": _sweep_single_bus,
    "langevin-compare": _sweep_langevin_compare,
    "attenuation-chain": _sweep_attenuation_chain,
    "add-drop": _sweep_add_drop,
    "homm-grid": _sweep_homm_grid,
    "critical-dip": _sweep_critical_dip,
    "entropy-grid": _sweep_entropy_grid,
}

_NON_FINITE = frozenset(("nan", "inf", "-inf"))

# Stands in for the rows while json.dumps lays out the rest of the payload.
_ROWS_SLOT = "\0rows"


def _json_cells(cells: list[str]) -> list[str]:
    if _NON_FINITE.isdisjoint(cells):
        return cells
    return ["null" if cell in _NON_FINITE else cell for cell in cells]


def render_csv(config: SweepConfig, columns, table: Table, summary) -> str:
    lines = [f"# config: {config.canonical()}", ",".join(columns)]
    lines += ("\n".join(map(",".join, zip(*chunk))) for chunk in table.drain())
    if summary is not None:
        pairs = " ".join(
            f"{k}={v if isinstance(v, str) else repr(v)}" for k, v in summary.items()
        )
        lines.append(f"# summary: {pairs}")
    lines.append("")
    return "\n".join(lines)


def render_json(config: SweepConfig, columns, table: Table, summary) -> str:
    """The bytes of ``json.dumps(payload, indent=2)``, with the rows laid
    out from their cell text (undefined cells become ``null``)."""
    payload = {
        "mode": config.mode,
        "config": dict(sorted(config.params.items())),
        "columns": list(columns),
        "rows": _ROWS_SLOT,
    }
    if summary is not None:
        payload["summary"] = summary
    text = json.dumps(payload, indent=2, allow_nan=False)
    head, _, tail = text.partition(json.dumps(_ROWS_SLOT))
    row_sep = "\n    ],\n    [\n      "
    texts = [
        row_sep.join(map(",\n      ".join, zip(*map(_json_cells, chunk))))
        for chunk in table.drain()
    ]
    parts = [head, "[\n    [\n      " if texts else "[]"]
    for text in texts:
        parts += [text, row_sep]
    if texts:
        parts[-1] = "\n    ]\n  ]"
    parts += [tail, "\n"]
    return "".join(parts)


def run_sweep(config: SweepConfig) -> str:
    """Evaluate one sweep and return the rendered output text."""
    if config.mode not in _SWEEPS:
        raise ConfigError(f"mode: unknown sweep mode {config.mode!r}")
    columns, table, summary = _SWEEPS[config.mode](config.params, _worker_count())
    renderer = render_csv if config.fmt == "csv" else render_json
    return renderer(config, columns, table, summary)


# --- identity audit ---------------------------------------------------------


@dataclass(frozen=True)
class IdentityRecord:
    """One audited identity: its residual count, worst residual and tolerance.

    ``worst_draw`` names the draw with the worst residual, as
    ``{"index": i, "params": {name: value}}``: the draw's index among the
    identity's draws and the parameters drawn for it, so a failure can be
    reproduced.
    """

    name: str
    samples: int
    max_residual: float
    tolerance: float
    worst_draw: dict | None = None

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


@dataclass(frozen=True)
class AuditReport:
    seed: int
    records: tuple[IdentityRecord, ...]

    @property
    def ok(self) -> bool:
        return all(record.passed for record in self.records)


#: Draws an audit identity evaluates at once.  Bounds the audit's working
#: arrays: one block of 5000 draws raised peak memory by about a fifth.
_AUDIT_BLOCK = 1024

# Variates of one draw, in the order the generator yields them:
# (name, low, high) of each uniform.
_PHASE = (-_PI, _PI)
_LOSSLESS_ADD_DROP = (("tau", 0.05, 0.98), ("eta", 0.05, 0.98), ("theta", *_PHASE))
_ADD_DROP = (*_LOSSLESS_ADD_DROP[:2], ("alpha", 0.3, 0.98), _LOSSLESS_ADD_DROP[2])


def _stack_entries(m):
    """The entries (M00, M01, M10, M11) of a (..., 2, 2) stack."""
    return m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]


def _single_bus_noise(tau, tau_phase, alpha, theta):
    tau, kappa = _coupler(tau, tau_phase)
    alpha = _survival(alpha)
    _, power, denom = single_bus._transfer(tau, alpha, theta)
    closed = single_bus._closed_noise(kappa, alpha, denom)
    return np.abs((1.0 - power) - closed), tau.size


def _double_sum(tau, alpha, theta):
    # the truncated double sum is evaluated one draw at a time
    series = [
        single_bus.commutator_sum_series(
            CouplerParams.from_magnitude(t), RingParams.from_alpha(a, theta=th), 200, 200
        )
        for t, a, th in zip(tau.tolist(), alpha.tolist(), theta.tolist())
    ]
    tau, kappa = _coupler(tau)
    alpha = _survival(alpha)
    _, _, denom = single_bus._transfer(tau, alpha, theta)
    closed = single_bus._closed_noise(kappa, alpha, denom)
    return np.abs(np.array(series) - closed), tau.size


def _uniform_line(gamma, length):
    # Simpson grids differ in size from draw to draw
    residuals = [
        abs(attenuation.continuum_commutator(g, ell) - 1.0)
        for g, ell in zip(gamma.tolist(), length.tolist())
    ]
    return np.array(residuals), gamma.size


def _piecewise_line(*variates):
    gammas, lengths = np.array(variates[0::2]), np.array(variates[1::2])
    return np.abs(attenuation._piecewise(gammas, lengths) - 1.0), gammas.shape[1]


def _lorentzian_unity(coupling, intrinsic, delta):
    amp, noise = single_bus._lorentzian(coupling, intrinsic, delta)
    return np.abs(_square(_abs(amp)) + noise - 1.0), delta.size


def _rate_matching(tau, alpha, round_trip_time):
    coupling, intrinsic = single_bus._match_rates(
        _abs(_coupler(tau)[0]), _survival(alpha), round_trip_time
    )
    scale = np.sqrt(alpha * tau) * round_trip_time
    plus = np.abs(0.5 * (coupling + intrinsic) * scale - (1.0 - alpha * tau))
    minus = np.abs(0.5 * (coupling - intrinsic) * scale - (alpha - tau))
    return np.maximum(plus, minus), 2 * tau.size


def _commutator_entries(tau, eta, alpha, theta):
    m = _add_drop_matrices(tau, eta, _survival(alpha), theta)
    comm = add_drop.noise_commutators(m)
    m00, m01, m10, m11 = _stack_entries(m)
    residuals = (
        _abs(comm[:, 0, 0] - (1.0 - _square(_abs(m00)) - _square(_abs(m01)))),
        _abs(comm[:, 1, 1] - (1.0 - _square(_abs(m10)) - _square(_abs(m11)))),
        _abs(comm[:, 0, 1] - (-(m00 * np.conj(m10) + m01 * np.conj(m11)))),
        _abs(comm[:, 1, 0] - np.conj(comm[:, 0, 1])),
    )
    return np.max(residuals, axis=0), 4 * tau.size


def _lossless_unitarity(tau, eta, theta):
    m = _add_drop_matrices(tau, eta, 1.0, theta)
    deviation = m @ np.conj(m).swapaxes(-1, -2) - np.eye(2)
    return np.abs(deviation).max(axis=(-2, -1)), tau.size


def _sector_state(tau, eta, alpha, theta):
    """M, its sector norms and normalized weights, as `reduce_density` finds them."""
    m = _add_drop_matrices(tau, eta, _survival(alpha), theta)
    pairs = hom._pairs(*_stack_entries(add_drop.inverse_conjugate(m)))
    comm = np.moveaxis(add_drop.noise_commutators(m), 0, -1)
    sectors = hom._sectors(*pairs, comm)
    return m, pairs, sectors, hom._weights(*sectors[:3])


def _sector_weights_and_psd(tau, eta, alpha, theta):
    _, pairs, (p2_raw, p1_raw, _, r00, r11, r01), (p2, p1, p0, _) = _sector_state(
        tau, eta, alpha, theta
    )
    rho2, rho1 = hom._densities(hom._amplitudes(*pairs), p2_raw, r00, r11, r01, p1_raw)
    defined = p1 > hom.P1_THRESHOLD
    rho1_low = np.zeros_like(p1)
    rho1_low[defined] = np.linalg.eigvalsh(rho1[defined]).min(axis=-1)
    residuals = (
        np.abs(p0 + p1 + p2 - 1.0),
        np.maximum(0.0, -np.linalg.eigvalsh(rho2).min(axis=-1)),
        np.maximum(0.0, -rho1_low),
    )
    return np.max(residuals, axis=0), 2 * tau.size + int(defined.sum())


def _sector_norm(tau, eta, alpha, theta):
    m, _, _, (_, _, _, total) = _sector_state(tau, eta, alpha, theta)
    closed = hom._sector_normalizer(m)
    return np.abs(total - closed) / np.maximum(1.0, np.abs(closed)), tau.size


def _ratio_inversion(tau, eta, alpha, theta):
    m = _add_drop_matrices(tau, eta, _survival(alpha), theta)
    direct = hom._coincidence_ratio(m)
    inverted = hom._coincidence_ratio(add_drop.inverse_conjugate(m))
    return np.abs(direct - inverted) / (1.0 + direct), tau.size


def _lossless_routes(tau, eta, theta):
    m = _add_drop_matrices(tau, eta, 1.0, theta)
    amps = hom._amplitudes(*hom._pairs(*_stack_entries(add_drop.inverse_conjugate(m))))
    return np.abs(hom._coincidence_ratio(m) - hom._coincidence_probability(amps)), tau.size


# (name, tolerance, most draws or None for all, variates, residuals).  Each
# residual function compares two routes to one quantity over a block of
# draws: it takes the block's variate columns and returns the worst
# residual of each draw and the number of residuals the block holds.
_IDENTITIES = (
    (
        "single_bus_noise_closed_form", 1e-12, None,
        (("tau", 0.0, 0.99), ("tau_phase", *_PHASE), ("alpha", 0.3, 1.0), ("theta", *_PHASE)),
        _single_bus_noise,
    ),
    (
        "circulation_double_sum_closed_form", 1e-8, 100,
        (("tau", 0.0, 0.9), ("alpha", 0.3, 0.95), ("theta", *_PHASE)),
        _double_sum,
    ),
    (
        "uniform_line_commutator_unity", 1e-10, None,
        (("gamma", 0.01, 2.5), ("length", 0.1, 2.0)),
        _uniform_line,
    ),
    (
        "piecewise_commutator_unity", 1e-10, None,
        tuple(
            variate
            for k in range(5)
            for variate in ((f"gamma_{k}", 0.0, 2.0), (f"length_{k}", 0.05, 1.0))
        ),
        _piecewise_line,
    ),
    (
        "lorentzian_power_plus_noise_unity", 1e-12, None,
        (("coupling", 0.0, 2.0), ("intrinsic", 0.0, 2.0), ("delta", -3.0, 3.0)),
        _lorentzian_unity,
    ),
    (
        "rate_matching_two_forms", 1e-12, None,
        (("tau", 0.05, 0.999), ("alpha", 0.05, 0.999), ("round_trip_time", 1e-13, 1e-9)),
        _rate_matching,
    ),
    ("noise_commutator_entries", 1e-12, None, _ADD_DROP, _commutator_entries),
    ("lossless_matrix_unitarity", 1e-12, None, _LOSSLESS_ADD_DROP, _lossless_unitarity),
    ("sector_probabilities_and_psd", 1e-10, None, _ADD_DROP, _sector_weights_and_psd),
    ("sector_norm_closed_form", 1e-10, None, _ADD_DROP, _sector_norm),
    ("coincidence_ratio_inversion_invariance", 1e-12, None, _ADD_DROP, _ratio_inversion),
    (
        "lossless_coincidence_route_agreement", 1e-8, None, _LOSSLESS_ADD_DROP,
        _lossless_routes,
    ),
)


def _draw_blocks(rng: np.random.Generator, variates, draws: int):
    """Yield ``(first draw index, (n, k) variates)`` blocks of `_AUDIT_BLOCK`
    draws at most.  The values equal those of one scalar ``rng.uniform``
    call per variate, draw after draw."""
    _, low, high = zip(*variates)
    for start in range(0, draws, _AUDIT_BLOCK):
        size = (min(_AUDIT_BLOCK, draws - start), len(low))
        yield start, rng.uniform(low, high, size=size)


def run_audit(seed: int, samples: int) -> AuditReport:
    """Re-derive every bookkeeping identity on random parameters.

    Deterministic for a fixed seed; each identity records its worst
    residual over ``samples`` draws and the draw that produced it.
    """
    if samples < 1:
        raise ConfigError(f"samples: must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    records = []
    for name, tolerance, most, variates, residuals in _IDENTITIES:
        count, worst, worst_at, worst_row = 0, -math.inf, 0, None
        for start, block in _draw_blocks(rng, variates, min(samples, most or samples)):
            res, entries = residuals(*block.T)
            count += entries
            i = int(np.argmax(res))  # the first NaN, if any
            if res[i] > worst or (np.isnan(res[i]) and not np.isnan(worst)):
                worst, worst_at, worst_row = float(res[i]), start + i, block[i]
        records.append(
            IdentityRecord(
                name=name,
                samples=count,
                max_residual=worst,
                tolerance=tolerance,
                worst_draw={
                    "index": worst_at,
                    "params": dict(zip((v[0] for v in variates), worst_row.tolist())),
                },
            )
        )
    return AuditReport(seed=seed, records=tuple(records))


def render_audit_text(report: AuditReport, samples: int) -> str:
    width = max(len(r.name) for r in report.records)
    lines = [f"identity audit (seed={report.seed}, samples={samples})"]
    for r in report.records:
        verdict = "PASS" if r.passed else "FAIL"
        lines.append(
            f"  {r.name:<{width}}  n={r.samples:<5d} max|res|={r.max_residual:9.3e}"
            f"  tol={r.tolerance:7.1e}  {verdict}"
        )
    passed = sum(r.passed for r in report.records)
    lines.append(
        f"audit: {'PASS' if report.ok else 'FAIL'} "
        f"({passed}/{len(report.records)} identities)"
    )
    return "\n".join(lines) + "\n"


def render_audit_json(report: AuditReport, samples: int) -> str:
    payload = {
        "seed": report.seed,
        "samples": samples,
        "identities": [
            {
                "name": r.name,
                "samples": r.samples,
                "max_residual": r.max_residual,
                "tolerance": r.tolerance,
                "pass": r.passed,
                "worst_draw": r.worst_draw,
            }
            for r in report.records
        ],
        "pass": report.ok,
    }
    return json.dumps(payload, indent=2) + "\n"


# --- entry point ------------------------------------------------------------


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


class _Parser(argparse.ArgumentParser):
    """Command-line parser whose usage errors exit with `EXIT_CONFIG`.

    argparse exits with 2, which would read as a failed audit.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ringsim",
        description=(
            "Lossy ring-resonator sweeps: transfer functions, noise "
            "commutators, and two-photon interference grids."
        ),
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in SWEEP_MODES:
        keys = ", ".join(sorted(_DEFAULTS[mode]))
        p = sub.add_parser(mode, help=f"sweep keys: {keys}")
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument(
            "--set",
            action="append",
            dest="overrides",
            metavar="KEY=VALUE",
            help="override one config key (repeatable; JSON values accepted)",
        )
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), dest="fmt")
    audit = sub.add_parser("audit", help="run the bookkeeping-identity audit")
    audit.add_argument("--seed", type=int, default=_DEFAULTS["audit"]["seed"])
    audit.add_argument("--samples", type=int, default=_DEFAULTS["audit"]["samples"])
    audit.add_argument("--out", help="also write a JSON report to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.mode == "audit":
            _validate("audit", {"seed": args.seed, "samples": args.samples})
            report = run_audit(args.seed, args.samples)
            sys.stdout.write(render_audit_text(report, args.samples))
            if args.out:
                try:
                    _write_output(render_audit_json(report, args.samples), args.out)
                except OSError as exc:
                    sys.stderr.write(f"ringsim: i/o error: {exc}\n")
                    return EXIT_IO
            return EXIT_OK if report.ok else EXIT_AUDIT
        config = load_config(args.mode, args.config, args.overrides, args.out, args.fmt)
        text = run_sweep(config)
    except (ConfigError, ResonantDivergenceError) as exc:  # theta axis hits a pole
        sys.stderr.write(f"ringsim: config error: {exc}\n")
        return EXIT_CONFIG
    try:
        _write_output(text, config.out)
    except OSError as exc:
        sys.stderr.write(f"ringsim: i/o error: {exc}\n")
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
