"""Command-line front end: parameter sweeps and grid data emission.

Every sweep writes a deterministic table (CSV or JSON): the same config
produces byte-identical output regardless of how many workers evaluate the
grid.  Every sweep is a stream of chunks of rows, and the main process
writes every one, in sweep order, as it takes it.  Output text is made in
slices of at most `_TEXT_SLICE` rows, a unit apart from the kernel's, each
rendered where its rows are evaluated, so the main process holds at most
one slice of cells, text and encoded bytes.  A sweep along one axis
evaluates and renders one slice at a time, each one chunk, in the main
thread.  So does a census, serially: it gathers the points whose cos theta
lies in their (tau, eta) pair's window and evaluates them in kernel calls
of at most `hom._TILE` points, each one chunk.  Entropy-grid chunk k (a
longer theta axis runs in even slices) runs in forked worker process k mod
W (``x log x`` and cell text hold the GIL), in tiles of at most
`hom._TILE` points, so its kernel arrays take about 2 MB.  No grid chunk or
cell table holds more than `hom._CHUNK` points (see `hom._ELIDE`), however
long an axis.  Both grid walks hand a chunk's points on as such tiles,
``(ti, ei, hi, values)``, whose axis indices are built as each is taken, so
no index array outgrows a tile, and the tile bound lives in `hom` alone.
An entropy-grid worker renders its whole chunk, slice by slice, and sends
the slices to the main process on a pipe of its own (`hom._ring`), so it
holds one chunk of text.  ``RINGSIM_THREADS`` caps the W processes: at
most one runs per usable CPU and per chunk, whatever the sink.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import stat
import sys
from dataclasses import dataclass

if "numpy" not in sys.modules:
    # ringsim's matrices are 2x2, too small for BLAS to thread, yet the
    # OpenBLAS bundled with numpy starts a helper thread at load that spins
    # for about 0.1 s of CPU.  So when this module loads numpy, as the
    # command line does, it asks for one BLAS thread unless the user set a
    # count; forked workers inherit it.  A program that loaded numpy first
    # keeps its own BLAS setting.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import add_drop, attenuation, hom, single_bus
from .core import CouplerParams, ResonantDivergenceError, UnitarityError, _coupler, _survival

__all__ = [
    "ConfigError",
    "SweepConfig",
    "main",
    "run_audit",
    "run_sweep",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_AUDIT = 2
EXIT_IO = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it
EXIT_TERMINATED = 143  # 128 + SIGTERM

#: Most points a sweep may have: the product of its counts (critical-dip
#: also counts its curves, langevin-compare both signs of its detunings).
#: Six times a 201x201x401 census grid.
_MAX_POINTS = 100_000_000

#: Most audit draws per identity.  Memory stays bounded by the draw block
#: (`audit._AUDIT_BLOCK`), so this bounds the run time, which grows
#: linearly with the draw count.
_MAX_SAMPLES = 1_000_000

#: Most rows of output text that exist at once: their cells, their rendered
#: text and its encoded bytes.  A unit of its own, not `hom._TILE`: text
#: takes some 100 bytes a cell against 16 for a complex kernel value, so a
#: 4,096-row tile of text costs 2 MB of peak memory, and 512 rows render and
#: encode as fast as 4,096.
_TEXT_SLICE = 512

#: Smallest entropy-grid alpha.  On the tau = 0 and eta = 0 edges the
#: inverse transfer matrix grows like 1/alpha and the sector norms like
#: alpha**-3, which overflow below alpha = 2.2e-103 (probed on those edges
#: against dense eta, tau and theta axes); the floor keeps a margin.
_MIN_ENTROPY_ALPHA = 1e-100

#: Most workers (``RINGSIM_THREADS``): the entropy-grid processes that
#: `hom._ring` forks, the only ones; every other sweep, the census too, runs
#: in the main thread.  At most one runs per usable CPU and per chunk, with
#: about 2 MB of kernel arrays and one chunk of text each, which it sends
#: to the main process a `_TEXT_SLICE`-row slice at a time, so the cap
#: bounds memory; two already give all the speedup measured on entropy-grid.
_MAX_THREADS = 64

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
    kind = type(default)
    return _number(key, value, kind, "an integer" if kind is int else "a number")


# The shared ranges of one value: (predicate, message).
_UNIT = (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_SURVIVAL = (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")
_PHASE_RANGE = (lambda v: -_PI - 1e-12 <= v <= _PI + 1e-12, "must lie in [-pi, pi]")
_COUNT = (lambda v: v >= 1, "must be >= 1")
_POSITIVE = (lambda v: v > 0.0, "must be > 0")
_NON_NEGATIVE = (lambda v: v >= 0.0, "must be >= 0")


def _at_most(cap: int):
    return (lambda v: v <= cap, f"must be <= {cap}")


#: Every config key's own range tests, in the order they are checked.  A
#: list key's tests hold for every entry.  The keys with no tests are bound
#: only by their relations to other keys, which `_validate` checks after.
_RANGES = {
    "tau": (_UNIT,),
    "eta": (_UNIT,),
    "alpha": (_SURVIVAL,),
    "alphas": (_SURVIVAL,),
    "theta_min": (_PHASE_RANGE,),
    "theta_max": (_PHASE_RANGE,),
    **dict.fromkeys(_COUNT_KEYS, (_COUNT,)),
    "samples": (_COUNT, _at_most(_MAX_SAMPLES)),
    "threshold": (_POSITIVE,),
    "p1_threshold": (_NON_NEGATIVE,),
    "round_trip_time_s": (_POSITIVE,),
    "delta_tr_min": (_POSITIVE,),
    "delta_tr_max": (),
    "gamma_per_m": (_NON_NEGATIVE,),
    "length_m": (_POSITIVE,),
    "splitter_counts": (_COUNT, _at_most(attenuation._MAX_SPLITTERS)),
    "beta_per_m": (),
    "seed": (_NON_NEGATIVE,),
}


def _validate(mode: str, params: dict) -> None:
    """Raise `ConfigError` for the first value outside its own range, in
    `_RANGES` order, else for the first broken relation between values."""

    def check(cond: bool, key: str, message: str) -> None:
        if not cond:
            raise ConfigError(f"{key}: {message} (got {params[key]!r})")

    for key, tests in _RANGES.items():
        if key in params:
            value = params[key]
            values, prefix = (value, "every entry ") if isinstance(value, list) else ([value], "")
            for ok, message in tests:
                check(all(map(ok, values)), key, prefix + message)

    def order(low: str, high: str) -> None:
        if low in params:
            check(params[low] <= params[high], low, f"must not exceed {high}")

    if mode == "entropy-grid":
        check(
            params["alpha"] >= _MIN_ENTROPY_ALPHA,
            "alpha",
            f"must be >= {_MIN_ENTROPY_ALPHA:g} for entropy-grid",
        )
    order("theta_min", "theta_max")
    axes = [key for key in (*_COUNT_KEYS, "alphas") if key in params]
    points = math.prod(len(params[k]) if k == "alphas" else params[k] for k in axes)
    if mode == "langevin-compare":  # a row each side of zero detuning
        axes, points = ["2", *axes], 2 * points
    if points > _MAX_POINTS:
        raise ConfigError(f"{' * '.join(axes)}: must not exceed {_MAX_POINTS} points")
    order("delta_tr_min", "delta_tr_max")
    if "splitter_counts" in params:
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
        t_r = params["round_trip_time_s"]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rates = single_bus._match_rates(params["tau"], _survival(params["alpha"]), t_r)
        highs = (params["delta_tr_max"] / t_r, *rates)
        check(
            params["delta_tr_min"] / t_r >= 1.0 / _MAX_RATE
            and all(value <= _MAX_RATE for value in highs),  # NaN too
            "round_trip_time_s",
            f"must keep detunings and matched rates within [{1.0 / _MAX_RATE:g}, "
            f"{_MAX_RATE:g}] rad/s",
        )


def load_config(
    mode: str,
    config_path: str | None,
    overrides: list[str] | None,
    out: str | None,
    fmt: str | None,
) -> SweepConfig:
    """Resolve defaults, config file, and --set overrides into a SweepConfig."""
    params = dict(_DEFAULTS[mode])
    sink: dict[str, str | None] = {"out": None, "format": None}

    def assign(key: str, value: object) -> None:
        if key not in params:
            raise ConfigError(
                f"{key}: unknown key for mode {mode}; valid keys: "
                + ", ".join(sorted(params))
            )
        params[key] = _coerce(mode, key, value)

    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # or nested too deeply
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a flat JSON object")
        for key, value in doc.items():
            if key == "mode":
                if value != mode:
                    raise ConfigError(
                        f"mode: config file says {value!r}, command line says {mode!r}"
                    )
            elif key in sink:
                if not isinstance(value, str):
                    raise ConfigError(f"{key}: expected a string, got {json.dumps(value)}")
                sink[key] = value
            else:
                assign(key, value)
    for item in overrides or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except (ValueError, RecursionError):  # not JSON, too deep, or an int too long
            value = raw
        assign(key, value)
    _validate(mode, params)
    resolved_fmt = fmt or sink["format"] or "csv"
    if resolved_fmt not in ("csv", "json"):
        raise ConfigError(f"format: must be csv or json, got {resolved_fmt!r}")
    return SweepConfig(mode=mode, params=params, out=out or sink["out"], fmt=resolved_fmt)


def _worker_count() -> int:
    raw = os.environ.get("RINGSIM_THREADS")
    if raw is None:
        return 8
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if not 1 <= count <= _MAX_THREADS:
        raise ConfigError(
            f"RINGSIM_THREADS: must be an integer in [1, {_MAX_THREADS}], got {raw!r}"
        )
    return count


class Rows:
    """Cell text of consecutive rows of a sweep, held column-wise.

    Each column is a list of cells: the ``repr`` of each float (so
    non-finite cells read ``nan``, ``inf`` or ``-inf``) and the ``str`` of
    each int.  ``len(rows)`` is the row count.
    """

    def __init__(self, *columns: list[str]) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])


def _cells(values) -> list[str]:
    """Cell text of one value column."""
    return list(map(repr, np.asarray(values).tolist()))


def _text_slices(count: int):
    """The slices of ``count`` rows that are rendered one at a time: at most
    `_TEXT_SLICE` rows each, and one empty slice if ``count`` is 0."""
    return (slice(k, k + _TEXT_SLICE) for k in range(0, max(count, 1), _TEXT_SLICE))


def _rows(axis, values):
    """The chunks of a sweep along one axis, in the form `_grid_rows`
    returns: ``chunks(piece, workers)`` yields ``piece`` of the one `Rows`
    of ``values(part)``, the value columns on each slice ``part`` of at most
    `_TEXT_SLICE` axis values, in axis order.  A slice is evaluated and its
    columns turned into cell text when its chunk is taken, in the main
    thread, whatever ``workers`` is.
    """

    def chunks(piece, workers):
        for s in _text_slices(len(axis)):
            yield piece([Rows(*map(_cells, values(axis[s])))])

    return chunks


def _axis_cells(axis):
    """``cells(index)``: the cell text of ``axis`` at the indices ``index``."""
    if len(axis) <= hom._CHUNK:
        table = np.array(_cells(axis), dtype=object)
        return lambda index: table[index].tolist()

    def cells(index):
        kept, inverse = np.unique(index, return_inverse=True)
        return np.array(_cells(axis[kept]), dtype=object)[inverse].tolist()

    return cells


# --- sweep implementations -------------------------------------------------


def _sweep_single_bus(p: dict):
    tau, _ = _coupler(p["tau"])
    alpha = _survival(p["alpha"])
    thetas = np.linspace(p["theta_min"], p["theta_max"], p["theta_count"])

    def values(theta):
        amp, power, _ = single_bus._transfer(tau, alpha, theta)
        return theta, amp.real, amp.imag, power, 1.0 - power

    columns = ["theta_rad", "transfer_re", "transfer_im", "power", "noise_power"]
    return columns, _rows(thetas, values), None


def _sweep_langevin_compare(p: dict):
    coupler = CouplerParams.from_magnitude(p["tau"])
    per_side = np.logspace(
        math.log10(p["delta_tr_min"]), math.log10(p["delta_tr_max"]), p["delta_count"]
    )
    deltas = np.concatenate([-per_side[::-1], per_side]) / p["round_trip_time_s"]

    def values(delta):
        xval, ring_pow, lor_pow = single_bus.power_comparison(
            coupler, p["alpha"], p["round_trip_time_s"], delta
        ).T
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(lor_pow != 0.0, np.abs(ring_pow - lor_pow) / lor_pow, math.inf)
        return xval, ring_pow, lor_pow, rel

    columns = ["delta_tr", "power_phasor", "power_lorentzian", "rel_diff"]
    return columns, _rows(deltas, values), None


def _sweep_attenuation_chain(p: dict):
    gamma, length, beta = p["gamma_per_m"], p["length_m"], p["beta_per_m"]
    counts = p["splitter_counts"]
    limit = math.exp(-gamma * length)

    def values(part):
        powers = [attenuation.BeamSplitterChain(gamma, length, beta, n).power for n in part]
        return part, powers, [limit] * len(part), [abs(pw - limit) for pw in powers]

    columns = ["n_splitters", "chain_power", "continuum_power", "abs_error"]
    return columns, _rows(counts, values), None


def _add_drop_matrices(tau, eta, alpha, theta):
    """Transfer matrices of rings with real couplers, as a (..., 2, 2) stack."""
    return add_drop._matrix(*_coupler(tau), *_coupler(eta), alpha, theta)


def _sweep_add_drop(p: dict):
    alpha = _survival(p["alpha"])
    thetas = np.linspace(p["theta_min"], p["theta_max"], p["theta_count"])

    def values(theta):
        m = _add_drop_matrices(p["tau"], p["eta"], alpha, theta)
        comm = add_drop.noise_commutators(m)
        return (
            theta,
            *m.reshape(-1, 4).view(float).T,  # (re, im) of m_ca, m_cb, m_da, m_db
            *comm.diagonal(0, -2, -1).real.T,
            *comm[:, 0, 1:].view(float).T,
        )

    columns = [
        "theta_rad",
        "m_ca_re", "m_ca_im", "m_cb_re", "m_cb_im",
        "m_da_re", "m_da_im", "m_db_re", "m_db_im",
        "comm_cc", "comm_dd", "comm_cd_re", "comm_cd_im",
    ]
    return columns, _rows(thetas, values), None


def _grid_rows(p: dict, walk):
    """The chunks of a (tau, eta, theta) grid sweep: ``chunks(piece,
    workers)`` yields ``piece`` of each chunk's `Rows`, in grid order.

    ``walk(axes, reduce, workers)`` is the grid walk, `hom._census` or
    `hom._walk_grid`, that yields ``reduce(tiles)`` of each chunk's kept
    points, where ``tiles`` yields ``(ti, ei, hi, values)`` of at most
    `hom._TILE` points each; ``reduce`` cuts each tile into text slices of
    at most `_TEXT_SLICE` rows (an empty census tile into one empty slice,
    so each kernel call renders once) and maps each slice to a `Rows` as
    ``piece`` takes it.  Each chunk passes through ``piece``, so only the
    chunks in flight exist at once, and no list of cells outgrows a slice.
    An axis of at most `hom._CHUNK` values is formatted once, into a table
    the chunks index; a longer one is formatted in each slice, at its
    distinct indices, so no cell table outgrows a slice.
    """
    axes = hom._grid_axes(p["tau_count"], p["eta_count"], p["theta_count"])
    tau_cells, eta_cells, theta_cells = map(_axis_cells, axes)

    def chunks(piece, workers):
        def reduce(tiles):
            return piece(
                Rows(tau_cells(ti[s]), eta_cells(ei[s]), theta_cells(hi[s]), _cells(values[s]))
                for ti, ei, hi, values in tiles
                for s in _text_slices(len(values))
            )

        return walk(axes, reduce, workers)

    return chunks


def _sweep_homm_grid(p: dict):
    shape = (p["tau_count"], p["eta_count"], p["theta_count"])

    def summary(count: int) -> dict:
        return {
            "count": count,
            "fraction": count / math.prod(shape),
            "grid": "x".join(str(n) for n in shape),
        }

    def census(axes, reduce, workers):
        return hom._census(axes, p["alpha"], p["threshold"], reduce)

    columns = ["tau", "eta", "theta_rad", "coincidence_ratio"]
    return columns, _grid_rows(p, census), summary


def _sweep_critical_dip(p: dict):
    thetas = np.linspace(p["theta_min"], p["theta_max"], p["theta_count"])
    tau = 1.0 / math.sqrt(2.0)

    def values(theta):
        return theta, *(hom.coincidence_ratio_grid(tau, tau, theta, a) for a in p["alphas"])

    columns = ["theta_rad"] + [f"coincidence_alpha_{a!r}" for a in p["alphas"]]
    return columns, _rows(thetas, values), None


def _sweep_entropy_grid(p: dict):
    def evaluate(tau, eta, theta):
        try:
            bits = hom.entropy_grid(tau, eta, theta, p["alpha"], p["p1_threshold"])
        except UnitarityError as exc:  # near alpha = 1 the commutators cancel
            raise ConfigError(
                f"alpha, p1_threshold: {exc}; lower alpha or raise p1_threshold "
                f"(got {p['alpha']!r}, {p['p1_threshold']!r})"
            ) from exc
        return bits

    def walk(axes, reduce, workers):
        return hom._walk_grid(axes, evaluate, reduce, workers)

    columns = ["tau", "eta", "theta_rad", "entropy_bits"]
    return columns, _grid_rows(p, walk), None


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
    if _NON_FINITE.isdisjoint(cells):  # most columns: no copy
        return cells
    return ["null" if cell in _NON_FINITE else cell for cell in cells]


def _frame(config: SweepConfig, columns, summary, count: int) -> tuple[str, str]:
    """The output text before and after ``count`` rows; ``summary`` is the
    census summary or ``None``.

    The JSON text is that of ``json.dumps(payload, indent=2)``, split where
    the row list goes.  The rows come before the summary, so the head never
    depends on it.
    """
    if config.fmt == "csv":
        head = f"# config: {config.canonical()}\n{','.join(columns)}\n"
        if summary is None:
            return head, ""
        pairs = " ".join(
            f"{k}={v if isinstance(v, str) else repr(v)}" for k, v in summary.items()
        )
        return head, f"# summary: {pairs}\n"
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
    return head + "[", ("\n  ]" if count else "]") + tail + "\n"


def render_csv(config: SweepConfig, columns, rows: Rows) -> str:
    """CSV lines of one slice of rows, and only those: `run_sweep` writes
    the config echo and the header line.  Takes every renderer's arguments."""
    return "\n".join([*map(",".join, zip(*rows.columns)), ""])


def render_json(config: SweepConfig, columns, rows: Rows) -> str:
    """The ``"rows"`` entries of one slice of rows, laid out as
    ``json.dumps(indent=2)`` lays them out, with undefined cells as
    ``null``.  `run_sweep` writes the payload around them and the ``,``
    between pieces.  Takes every renderer's arguments."""
    entries = map(",\n      ".join, zip(*map(_json_cells, rows.columns)))
    return ",".join(map("\n    [\n      {}\n    ]".format, entries))


def run_sweep(config: SweepConfig, sink) -> None:
    """Evaluate one sweep and write its output text to ``sink``.

    Every chunk is rendered where it is evaluated, one `Rows` text slice of
    at most `_TEXT_SLICE` rows at a time, and this process writes each
    slice, in sweep order, as it takes it: serially as it is rendered, or
    as a `hom._walk_grid` worker sends it.  A sink with a file descriptor
    is flushed once, and the text then goes straight to the descriptor, so
    rows reach it as they are written.  The head of `_frame` goes with the
    first rows, so a sweep that fails before its first rows writes nothing.
    The tail, which holds a census summary (it counts the rows), goes last.
    """
    if config.mode not in _SWEEPS:
        raise ConfigError(f"mode: unknown sweep mode {config.mode!r}")
    workers = _worker_count()
    columns, chunks, summary = _SWEEPS[config.mode](config.params)
    render = render_csv if config.fmt == "csv" else render_json
    between = "" if config.fmt == "csv" else ","
    head, _ = _frame(config, columns, None, 0)
    try:
        out = _Descriptor(sink.fileno())
    except (AttributeError, OSError, ValueError):  # io.UnsupportedOperation is both
        out = sink
    else:
        sink.flush()

    def piece(slices):
        return ((render(config, columns, rows), len(rows)) for rows in slices)

    count = 0
    with contextlib.closing(chunks(piece, workers)) as walk:
        for texts in walk:
            for text, rows in texts:
                if rows:
                    _write_output((between if count else head) + text, out)
                    count += rows
    _, tail = _frame(config, columns, summary(count) if summary else None, count)
    _write_output(tail if count else head + tail, out)


def run_audit(seed: int, samples: int):
    """The `audit.AuditReport` of `audit.run_audit`; the audit module loads
    on the first call, so a sweep never compiles it."""
    from . import audit

    return audit.run_audit(seed, samples)


# --- entry point ------------------------------------------------------------


def _write_output(text: str, sink) -> None:
    """Write one piece of output text to an open sink.  Every output write
    of the main process goes through here, so ``bench/tracing.py`` can time
    them."""
    sink.write(text)


class _Descriptor:
    """A sink that writes text straight to the file descriptor ``fd``, as
    UTF-8 (the output is ASCII), in as many writes as it takes: a pipe can
    take part of one."""

    def __init__(self, fd: int) -> None:
        self.fd = fd

    def write(self, text: str) -> None:
        view = memoryview(text.encode())
        while view:
            view = view[os.write(self.fd, view) :]


@contextlib.contextmanager
def _open_sink(out: str | None):
    """The text stream that output goes to: stdout for ``None`` or ``-``,
    else the file ``out``.

    A new or regular file is written to a temporary file beside it, which
    replaces it only when the block ends without an error: a failed run
    leaves an existing file as it was and no partial file.  The temporary
    file gets the permissions that ``open(out, "w")`` would leave: those of
    the file it replaces, else the default under the umask.  A file that
    exists and is not regular, such as ``/dev/null`` or the pipe that
    ``/dev/stdout`` may name, is opened by the name given and written in
    place.

    A reader that closes stdout early, as ``| head`` does, ends the output
    quietly: the block stops, the run goes on past it, and what is left to
    flush goes to the null device, so the interpreter reports no error
    when it flushes stdout at exit.
    """
    if out is None or out == "-":
        if sys.stdout is None:  # the run was started with stdout closed
            raise OSError("stdout is closed")
        try:
            yield sys.stdout
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        mode = os.stat(out).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    path = os.path.realpath(out)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            if mode is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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


class _Terminated(BaseException):
    """A SIGTERM: raised by the handler `main` installs, so that the run
    unwinds as an interrupted one does."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    saved = signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.mode == "audit":
            # a bad value or sink fails before the draws, not after them
            _validate("audit", {"seed": args.seed, "samples": args.samples})
            report_file = _open_sink(args.out) if args.out else contextlib.nullcontext()
            with _open_sink(None) as stdout, report_file as sink:
                report = run_audit(args.seed, args.samples)
                from . import audit  # loaded by run_audit, for the renderers

                stdout.write(audit.render_audit_text(report, args.samples))
                if sink is not None:
                    _write_output(audit.render_audit_json(report, args.samples), sink)
            return EXIT_OK if report.ok else EXIT_AUDIT
        config = load_config(args.mode, args.config, args.overrides, args.out, args.fmt)
        with _open_sink(config.out) as sink:
            run_sweep(config, sink)
    except (ConfigError, ResonantDivergenceError) as exc:  # theta axis hits a pole
        sys.stderr.write(f"ringsim: config error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"ringsim: i/o error: {exc}\n")
        return EXIT_IO
    except KeyboardInterrupt:  # the sink has removed its partial file
        sys.stderr.write("ringsim: interrupted\n")
        return EXIT_INTERRUPTED
    except _Terminated:
        sys.stderr.write("ringsim: terminated\n")
        return EXIT_TERMINATED
    except Exception as exc:  # a bug, a dead worker or exhausted memory
        if isinstance(exc, hom._WorkerDied):
            reason = "a worker process died"
        else:
            reason = f"{type(exc).__name__}: {exc}"
        sys.stderr.write(f"ringsim: internal error: {reason}\n")
        return EXIT_INTERNAL
    finally:
        signal.signal(signal.SIGTERM, saved)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
