import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsim import add_drop, attenuation, cli, hom, single_bus
from ringsim.core import CouplerParams, RingParams
from ringsim.single_bus import transfer_amplitude

CONFIG_PREFIX = "# config: "
SUMMARY_PREFIX = "# summary: "


def _run(*args, env_extra=None):
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "ringsim", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _main(capsys, *args):
    """Run ``ringsim`` in-process; return the exit code and stderr."""
    code = cli.main(list(args))
    return code, capsys.readouterr().err


def _parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith(CONFIG_PREFIX)
    config = json.loads(lines[0][len(CONFIG_PREFIX):])
    columns = lines[1].split(",")
    rows, summary = [], None
    for line in lines[2:]:
        if line.startswith(SUMMARY_PREFIX):
            summary = line[len(SUMMARY_PREFIX):]
        else:
            rows.append([float(v) for v in line.split(",")])
    return config, columns, rows, summary


def test_single_bus_csv_round_trips_library_values():
    proc = _run("single-bus", "--set", "theta_count=9")
    assert proc.returncode == 0
    config, columns, rows, _ = _parse_csv(proc.stdout)
    assert config["mode"] == "single-bus"
    assert columns == ["theta_rad", "transfer_re", "transfer_im", "power", "noise_power"]
    assert len(rows) == 9

    coupler = CouplerParams.from_magnitude(0.9)
    for row, theta in zip(rows, np.linspace(-math.pi, math.pi, 9)):
        amp, noise = transfer_amplitude(
            coupler, RingParams.from_alpha(0.95, theta=float(theta))
        )
        # repr-based cells must round-trip to the exact binary values
        assert row[0] == float(theta)
        assert row[1] == amp.real and row[2] == amp.imag
        assert row[3] == abs(amp) ** 2 and row[4] == noise


def test_config_echo_is_sorted_json():
    proc = _run("single-bus", "--set", "theta_count=3")
    first = proc.stdout.splitlines()[0][len(CONFIG_PREFIX):]
    doc = json.loads(first)
    assert doc["mode"] == "single-bus"
    assert doc["theta_count"] == 3
    assert list(doc) == sorted(doc)


def test_config_file_with_set_override(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"mode": "single-bus", "tau": 0.8, "theta_count": 5}))
    proc = _run("single-bus", "--config", str(path), "--set", "alpha=0.9")
    assert proc.returncode == 0
    config, _, rows, _ = _parse_csv(proc.stdout)
    assert config["tau"] == 0.8
    assert config["alpha"] == 0.9
    assert len(rows) == 5


def test_unknown_key_is_a_config_error(tmp_path):
    proc = _run("single-bus", "--set", "bogus=1")
    assert proc.returncode == 1
    assert "unknown key" in proc.stderr

    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"eta": 0.5}))
    proc = _run("single-bus", "--config", str(path))
    assert proc.returncode == 1
    assert "unknown key" in proc.stderr


# (arguments, expected stderr fragment) of inputs that must end in one
# config-error line, never in a traceback or in non-finite rows
_BAD_INPUTS = [
    (("single-bus", "--set", "theta_count=Infinity"), "theta_count: must be finite"),
    (("single-bus", "--set", "theta_count=NaN"), "theta_count: must be finite"),
    (("single-bus", "--set", "theta_count=1" + "0" * 400), "must be finite"),
    (("single-bus", "--set", "tau=NaN"), "tau: must be finite"),
    (("langevin-compare", "--set", "delta_tr_max=Infinity"), "must be finite"),
    (("critical-dip", "--set", "alphas=[1.0,NaN]"), "alphas: must be finite"),
    (
        ("attenuation-chain", "--set", "gamma_per_m=5", "--set", "splitter_counts=[1]"),
        "splitter_counts: every entry must be >= gamma_per_m * length_m",
    ),
    (("langevin-compare", "--set", "tau=0"), "tau: must be > 0"),
    # 1 - gamma*L/N rounds to 1.0 and the chain would report no loss
    (
        ("attenuation-chain", "--set", "splitter_counts=[100000000000000000000]"),
        "splitter_counts: every entry must be <= 1000000",
    ),
    (("single-bus", "--set", "theta_count=1e300"), "theta_count: must not exceed"),
    # the Lorentzian squares detunings and rates in rad/s: NaN rows, or an
    # OverflowError from squaring a matched rate
    (("langevin-compare", "--set", "delta_tr_max=1e200"), "round_trip_time_s: must keep"),
    (("langevin-compare", "--set", "tau=1e-300"), "round_trip_time_s: must keep"),
    (("langevin-compare", "--set", "round_trip_time_s=1e-300"), "round_trip_time_s: must"),
    (("langevin-compare", "--set", "round_trip_time_s=1e300"), "round_trip_time_s: must"),
    # the step phase beta*L/N overflows and the chain power reads NaN
    (("attenuation-chain", "--set", "beta_per_m=1.5e308"), "beta_per_m: times length_m"),
    (
        ("homm-grid", *("--set", "tau_count=100000", "--set", "eta_count=100000"),
         "--set", "theta_count=100000"),
        "tau_count * eta_count * theta_count: must not exceed 100000000 points",
    ),
    # theta = 0 lies on the axis: a lossless ring with closed couplers
    # has unit loop gain there
    (
        ("single-bus", "--set", "tau=1", "--set", "alpha=1", "--set", "theta_count=3"),
        "unit loop gain",
    ),
    (
        ("add-drop", "--set", "tau=1", "--set", "eta=1", "--set", "alpha=1",
         "--set", "theta_count=3"),
        "unit loop gain",
    ),
    # the sector norms overflow on the tau = 0 and eta = 0 edges: warnings
    # and NaN cells
    (("entropy-grid", "--set", "alpha=5e-324"), "alpha: must be >= 1e-100 for entropy-grid"),
    (("entropy-grid", "--set", "alpha=2.6e-139"), "alpha: must be >= 1e-100"),
]


def test_invalid_values_are_config_errors(capsys):
    proc = _run("single-bus", "--set", "tau=1.5")
    assert proc.returncode == 1
    assert "must lie in [0, 1]" in proc.stderr

    proc = _run("single-bus", "--set", "theta_count=2.5")
    assert proc.returncode == 1
    assert "integer" in proc.stderr

    proc = _run("single-bus", "--set", "tau")
    assert proc.returncode == 1
    assert "key=value" in proc.stderr

    for args, message in _BAD_INPUTS:
        code, err = _main(capsys, *args)
        assert code == 1, args
        assert err.startswith("ringsim: config error: ") and message in err, args
        assert err.count("\n") == 1, args


def test_config_file_problems_are_config_errors(tmp_path):
    proc = _run("single-bus", "--config", str(tmp_path / "missing.json"))
    assert proc.returncode == 1
    assert "cannot read" in proc.stderr

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = _run("single-bus", "--config", str(bad))
    assert proc.returncode == 1
    assert "not valid JSON" in proc.stderr

    mismatched = tmp_path / "other.json"
    mismatched.write_text(json.dumps({"mode": "add-drop"}))
    proc = _run("single-bus", "--config", str(mismatched))
    assert proc.returncode == 1
    assert "mode" in proc.stderr


def test_unwritable_output_is_an_io_error(tmp_path):
    out = tmp_path / "no-such-dir" / "table.csv"
    proc = _run("single-bus", "--set", "theta_count=3", "--out", str(out))
    assert proc.returncode == 3
    assert "i/o error" in proc.stderr


def test_json_format_payload():
    proc = _run("single-bus", "--format", "json", "--set", "theta_count=7")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["mode"] == "single-bus"
    assert doc["columns"][0] == "theta_rad"
    assert len(doc["rows"]) == 7
    assert doc["config"]["theta_count"] == 7


def test_json_encodes_undefined_entries_as_null():
    proc = _run(
        "entropy-grid",
        "--format", "json",
        "--set", "tau_count=2",
        "--set", "eta_count=2",
        "--set", "theta_count=3",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["rows"]) == 12
    # the fully decoupled tau = eta = 1 line has no one-photon sector
    nulls = [row for row in doc["rows"] if row[3] is None]
    assert len(nulls) == 3
    assert all(row[0] == 1.0 and row[1] == 1.0 for row in nulls)


def test_worker_count_never_changes_output_bytes(tmp_path):
    args = (
        "homm-grid",
        "--set", "tau_count=41",
        "--set", "eta_count=41",
        # 1681 (tau, eta) pairs of 41 points: two chunks, the fan-out path
        "--set", "theta_count=41",
    )
    serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    proc = _run(*args, "--out", str(serial), env_extra={"RINGSIM_THREADS": "1"})
    assert proc.returncode == 0
    proc = _run(*args, "--out", str(threaded), env_extra={"RINGSIM_THREADS": "4"})
    assert proc.returncode == 0
    assert serial.read_bytes() == threaded.read_bytes()

    _, _, rows, summary = _parse_csv(serial.read_text())
    assert summary is not None and "grid=41x41x41" in summary
    assert f"count={len(rows)}" in summary
    assert len(rows) == 1732


def test_entropy_grid_at_the_alpha_floor_is_clean():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ringsim", "entropy-grid",
         "--set", f"alpha={cli._MIN_ENTROPY_ALPHA!r}",
         "--set", "tau_count=5", "--set", "eta_count=5", "--set", "theta_count=9"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    _, _, rows, _ = _parse_csv(proc.stdout)
    # only the decoupled tau = eta = 1 line is undefined
    undefined = [row for row in rows if math.isnan(row[3])]
    assert len(rows) == 225 and len(undefined) == 9
    assert all(row[0] == 1.0 and row[1] == 1.0 for row in undefined)


def test_invalid_thread_env_is_a_config_error():
    proc = _run("single-bus", env_extra={"RINGSIM_THREADS": "abc"})
    assert proc.returncode == 1
    assert "RINGSIM_THREADS" in proc.stderr
    proc = _run("single-bus", env_extra={"RINGSIM_THREADS": "0"})
    assert proc.returncode == 1


def test_audit_passes_and_writes_report(tmp_path):
    report = tmp_path / "audit.json"
    proc = _run("audit", "--samples", "25", "--out", str(report))
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[-1] == "audit: PASS (12/12 identities)"
    assert sum("PASS" in line for line in lines[1:-1]) == 12
    doc = json.loads(report.read_text())
    assert doc["pass"] is True
    assert len(doc["identities"]) == 12
    assert all(item["max_residual"] <= item["tolerance"] for item in doc["identities"])


def test_audit_rejects_bad_sample_count(capsys):
    proc = _run("audit", "--samples", "0")
    assert proc.returncode == 1
    assert proc.stderr == "ringsim: config error: samples: must be >= 1 (got 0)\n"

    code, err = _main(capsys, "audit", "--seed", "-1")
    assert code == 1
    assert err == "ringsim: config error: seed: must be >= 0 (got -1)\n"

    code, err = _main(capsys, "audit", "--samples", "1000001")
    assert code == 1
    assert err == "ringsim: config error: samples: must be <= 1000000 (got 1000001)\n"


def test_usage_errors_are_config_errors():
    # exit 2 would read as a failed audit
    for args in (("audit", "--samples", "abc"), ("single-bus", "--bogus")):
        proc = _run(*args)
        assert proc.returncode == 1, args
        assert proc.stderr.startswith("usage: ringsim"), args
        assert "Traceback" not in proc.stderr, args


def test_cli_import_loads_no_scipy():
    probe = (
        "import sys, ringsim.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Values of every kind: small and huge numbers of both signs, non-finite
# ones, strings and lists.  Valid counts stay small so each example runs in
# milliseconds; huge ones must be rejected before any work.
_FUZZ_NUMBERS = st.one_of(
    st.integers(-64, 64),
    st.floats(-64.0, 64.0),
    st.integers(min_value=10**9) | st.integers(max_value=-(10**9)),
    st.floats(min_value=1e9) | st.floats(max_value=-1e9),
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -0.0, 1e-300, 1e300]),
)
_FUZZ_VALUES = st.one_of(
    _FUZZ_NUMBERS, st.text(max_size=8), st.lists(_FUZZ_NUMBERS, max_size=4)
)
_SMALL_COUNTS = {
    "tau_count": 3, "eta_count": 3, "theta_count": 5, "delta_count": 5, "samples": 8
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_values_end_cleanly(data):
    """Sweep ``--set`` values and audit options: a result or one error line."""
    mode = data.draw(st.sampled_from([*cli.SWEEP_MODES, "audit"]))
    keys = sorted(cli._DEFAULTS[mode])
    fuzzed = data.draw(
        st.lists(st.tuples(st.sampled_from(keys), _FUZZ_VALUES), min_size=1, max_size=3)
    )
    args = [mode]
    for key, value in [*_SMALL_COUNTS.items(), *fuzzed]:
        if key in keys:
            text = value if isinstance(value, str) else json.dumps(value)
            args += [f"--{key}={text}"] if mode == "audit" else ["--set", f"{key}={text}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # an argparse usage error
            code = exc.code
    assert code in (0, 1, 3), (args, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        lines = err.getvalue().splitlines()
        assert lines[-1].startswith(("ringsim: config error: ", "ringsim audit: error: "))


def test_critical_dip_curves():
    proc = _run("critical-dip", "--set", "theta_count=2001")
    assert proc.returncode == 0
    _, columns, rows, _ = _parse_csv(proc.stdout)
    assert columns == [
        "theta_rad",
        "coincidence_alpha_1.0",
        "coincidence_alpha_0.95",
        "coincidence_alpha_0.75",
        "coincidence_alpha_0.5",
    ]
    table = np.array(rows)
    thetas = table[:, 0]

    # lossless curve dips to ~0 exactly at theta = +/- arccos(3/4)
    lossless = table[:, 1]
    assert lossless.min() < 1e-6
    dip = math.acos(0.75)
    for sign in (+1.0, -1.0):
        side = np.abs(thetas - sign * dip) < 0.05
        assert lossless[side].min() < 1e-6

    # loss lifts the dip floor monotonically
    minima = [table[:, j].min() for j in (1, 2, 3, 4)]
    assert minima[0] < 1e-6 < minima[1] < minima[2] < minima[3]

    # each curve is even in theta
    for j in (1, 2, 3, 4):
        np.testing.assert_allclose(table[:, j], table[::-1, j], rtol=1e-9, atol=1e-12)


def test_attenuation_chain_error_scales_inversely_with_count():
    proc = _run("attenuation-chain", "--set", "splitter_counts=[10,100,1000]")
    assert proc.returncode == 0
    _, columns, rows, _ = _parse_csv(proc.stdout)
    assert columns == ["n_splitters", "chain_power", "continuum_power", "abs_error"]
    errors = [row[3] for row in rows]
    assert 8 < errors[0] / errors[1] < 13
    assert 8 < errors[1] / errors[2] < 13


def test_langevin_compare_agrees_at_small_detuning():
    proc = _run("langevin-compare")
    assert proc.returncode == 0
    _, _, rows, _ = _parse_csv(proc.stdout)
    assert len(rows) == 80
    # innermost detunings (|delta| T_R = 1e-4) sit deep in the matched regime
    assert rows[39][3] < 1e-8
    assert rows[40][3] < 1e-8


def test_add_drop_sweep_reports_contractive_commutators():
    proc = _run("add-drop", "--set", "theta_count=25")
    assert proc.returncode == 0
    _, columns, rows, _ = _parse_csv(proc.stdout)
    cc, dd = columns.index("comm_cc"), columns.index("comm_dd")
    for row in rows:
        assert -1e-12 <= row[cc] <= 1.0
        assert -1e-12 <= row[dd] <= 1.0


def test_dash_out_means_stdout(tmp_path):
    to_stdout = _run("single-bus", "--set", "theta_count=4", "--out", "-")
    to_file = _run(
        "single-bus", "--set", "theta_count=4", "--out", str(tmp_path / "t.csv")
    )
    assert to_stdout.returncode == 0 and to_file.returncode == 0
    assert to_stdout.stdout == (tmp_path / "t.csv").read_text()


@pytest.mark.skipif(shutil.which("ringsim") is None, reason="entry point not on PATH")
def test_console_script_runs():
    proc = subprocess.run(
        ["ringsim", "single-bus", "--set", "theta_count=3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(CONFIG_PREFIX)


# --- byte identity of the columnar pipeline ----------------------------------
#
# The reference builds every row as a list of numbers, one point at a time
# for the per-theta sweeps and from flattened grids for the grid sweeps,
# and formats each cell with ``repr`` as it writes the row.


def _reference_table(mode, p):
    """(columns, rows, summary) built row by row."""
    if "theta_min" in p:
        thetas = np.linspace(p["theta_min"], p["theta_max"], p["theta_count"])
    if mode == "single-bus":
        coupler = CouplerParams.from_magnitude(p["tau"])
        rows = []
        for theta in thetas:
            ring = RingParams.from_alpha(p["alpha"], theta=float(theta))
            amp, noise = single_bus.transfer_amplitude(coupler, ring)
            rows.append([float(theta), amp.real, amp.imag, abs(amp) ** 2, noise])
        return ["theta_rad", "transfer_re", "transfer_im", "power", "noise_power"], rows, None
    if mode == "langevin-compare":
        per_side = np.logspace(math.log10(p["delta_tr_min"]),
                               math.log10(p["delta_tr_max"]), p["delta_count"])
        x = np.concatenate([-per_side[::-1], per_side])
        table = single_bus.power_comparison(
            CouplerParams.from_magnitude(p["tau"]), p["alpha"],
            p["round_trip_time_s"], x / p["round_trip_time_s"],
        )
        rows = []
        for xval, ring_pow, lor_pow in table:
            rel = abs(ring_pow - lor_pow) / lor_pow if lor_pow else math.inf
            rows.append([float(xval), float(ring_pow), float(lor_pow), float(rel)])
        return ["delta_tr", "power_phasor", "power_lorentzian", "rel_diff"], rows, None
    if mode == "attenuation-chain":
        limit = math.exp(-p["gamma_per_m"] * p["length_m"])
        rows = []
        for n in p["splitter_counts"]:
            chain = attenuation.BeamSplitterChain(
                p["gamma_per_m"], p["length_m"], p["beta_per_m"], n
            )
            rows.append([int(n), chain.power, limit, abs(chain.power - limit)])
        return ["n_splitters", "chain_power", "continuum_power", "abs_error"], rows, None
    if mode == "add-drop":
        rows = []
        for theta in thetas:
            m = add_drop.transfer_matrix(add_drop.AddDropParams(
                CouplerParams.from_magnitude(p["tau"]),
                CouplerParams.from_magnitude(p["eta"]),
                RingParams.from_alpha(p["alpha"], theta=float(theta)),
            ))
            c = add_drop.noise_commutators(m)
            rows.append(
                [float(theta)]
                + [part for z in m.ravel() for part in (z.real, z.imag)]
                + [c[0, 0].real, c[1, 1].real, c[0, 1].real, c[0, 1].imag]
            )
        columns = ["theta_rad"] + [
            f"m_{a}_{part}" for a in ("ca", "cb", "da", "db") for part in ("re", "im")
        ] + ["comm_cc", "comm_dd", "comm_cd_re", "comm_cd_im"]
        return columns, rows, None
    if mode == "critical-dip":
        tau = 1.0 / math.sqrt(2.0)
        curves = [hom.coincidence_ratio_grid(tau, tau, thetas, a) for a in p["alphas"]]
        rows = [[float(th)] + [float(c[i]) for c in curves] for i, th in enumerate(thetas)]
        columns = ["theta_rad"] + [f"coincidence_alpha_{a!r}" for a in p["alphas"]]
        return columns, rows, None
    axes = (
        np.linspace(0.0, 1.0, p["tau_count"]),
        np.linspace(0.0, 1.0, p["eta_count"]),
        np.linspace(-math.pi, math.pi, p["theta_count"]),
    )
    t, e, th = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    if mode == "entropy-grid":
        bits = hom.entropy_grid(t, e, th, p["alpha"], p["p1_threshold"])
        rows = [[float(a), float(b), float(c), float(s)] for a, b, c, s in zip(t, e, th, bits)]
        return ["tau", "eta", "theta_rad", "entropy_bits"], rows, None
    ratio = hom.coincidence_ratio_grid(t, e, th, p["alpha"])
    keep = ratio <= p["threshold"]
    rows = [[float(a), float(b), float(c), float(r)]
            for a, b, c, r in zip(t[keep], e[keep], th[keep], ratio[keep])]
    summary = {"count": len(rows), "fraction": len(rows) / t.size,
               "grid": "x".join(str(len(axis)) for axis in axes)}
    return ["tau", "eta", "theta_rad", "coincidence_ratio"], rows, summary


def _reference_cell(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _reference_csv(config, columns, rows, summary):
    lines = [f"# config: {config.canonical()}", ",".join(columns)]
    lines += [",".join(_reference_cell(v) for v in row) for row in rows]
    if summary is not None:
        lines.append("# summary: " + " ".join(
            f"{k}={v if isinstance(v, str) else _reference_cell(v)}"
            for k, v in summary.items()
        ))
    return "\n".join(lines) + "\n"


def _reference_json(config, columns, rows, summary):
    def clean(v):
        if isinstance(v, (int, np.integer)):
            return int(v)
        return float(v) if math.isfinite(v) else None

    payload = {
        "mode": config.mode,
        "config": dict(sorted(config.params.items())),
        "columns": list(columns),
        "rows": [[clean(v) for v in row] for row in rows],
    }
    if summary is not None:
        payload["summary"] = summary
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _sweep_and_reference(monkeypatch, mode, sets, fmt, threads):
    monkeypatch.setenv("RINGSIM_THREADS", str(threads))
    config = cli.load_config(mode, None, list(sets), None, fmt)
    render = _reference_csv if fmt == "csv" else _reference_json
    return cli.run_sweep(config), render(config, *_reference_table(mode, config.params))


_SMALL = {
    "single-bus": ("theta_count=9",),
    "langevin-compare": ("delta_count=6",),
    "attenuation-chain": ("splitter_counts=[1,7,100]",),
    "add-drop": ("theta_count=9",),
    "homm-grid": ("tau_count=9", "eta_count=8", "theta_count=13", "threshold=0.05"),
    "critical-dip": ("theta_count=11",),
    "entropy-grid": ("tau_count=4", "eta_count=5", "theta_count=7"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("mode", sorted(_SMALL))
def test_every_mode_matches_the_row_by_row_reference(monkeypatch, mode, fmt):
    assert set(_SMALL) == set(cli.SWEEP_MODES)
    text, want = _sweep_and_reference(monkeypatch, mode, _SMALL[mode], fmt, 1)
    assert text == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "mode, sets",
    [
        ("entropy-grid", ("tau_count=1", "eta_count=3", "theta_count=5")),
        ("homm-grid", ("tau_count=1", "eta_count=21", "theta_count=31", "threshold=0.05")),
        # 16 // 7 = 2 pairs per chunk: theta_count does not divide the chunk size
        ("entropy-grid", ("tau_count=3", "eta_count=5", "theta_count=7")),
        ("homm-grid", ("tau_count=9", "eta_count=9", "theta_count=7", "threshold=0.05")),
        # more theta points than the chunk size: one pair per chunk
        ("entropy-grid", ("tau_count=2", "eta_count=3", "theta_count=40")),
        ("homm-grid", ("tau_count=7", "eta_count=7", "theta_count=40", "threshold=0.05")),
    ],
)
def test_grid_chunking_never_changes_output_bytes(monkeypatch, mode, sets, fmt):
    monkeypatch.setattr(cli, "_CHUNK", 16)
    for threads in (1, 3):
        text, want = _sweep_and_reference(monkeypatch, mode, sets, fmt, threads)
        assert text == want


def test_empty_census_has_no_rows(monkeypatch):
    sets = ("tau_count=5", "eta_count=5", "theta_count=7", "threshold=1e-300")
    text, want = _sweep_and_reference(monkeypatch, "homm-grid", sets, "json", 2)
    assert text == want
    assert '\n  "rows": [],\n' in text
    text, want = _sweep_and_reference(monkeypatch, "homm-grid", sets, "csv", 2)
    assert text == want
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[1] == "tau,eta,theta_rad,coincidence_ratio"
    assert lines[2] == "# summary: count=0 fraction=0.0 grid=5x5x7"


def test_undefined_and_negative_zero_cells_keep_their_text(monkeypatch):
    # tau = eta = 1 has no one-photon sector (nan); pure one-photon states
    # have entropy -0.0, which must not print as 0.0
    sets = ("tau_count=3", "eta_count=3", "theta_count=5")
    csv_text, want = _sweep_and_reference(monkeypatch, "entropy-grid", sets, "csv", 2)
    assert csv_text == want
    assert csv_text.count(",nan\n") == 5
    assert csv_text.count(",-0.0\n") == 20
    json_text, want = _sweep_and_reference(monkeypatch, "entropy-grid", sets, "json", 2)
    assert json_text == want
    assert json_text.count("      null\n") == 5
    assert json_text.count("      -0.0\n") == 20


def _python_rows(mode, p):
    """Rows of a single-bus or add-drop sweep in Python scalars: complex
    arithmetic, ``abs`` and ``**`` as CPython rounds them, one theta at a
    time.  The sweep's broadcast kernels must reproduce them bit for bit."""
    def coupler(mag):  # `CouplerParams.from_magnitude` at zero phases
        return mag * cmath.exp(0j), math.sqrt(1.0 - mag * mag) * cmath.exp(0j)

    thetas = np.linspace(p["theta_min"], p["theta_max"], p["theta_count"]).tolist()
    tau, kappa = coupler(p["tau"])
    rows = []
    for theta in thetas:
        ring = RingParams.from_alpha(p["alpha"], theta=theta)
        z = ring.loop_factor
        if mode == "single-bus":
            amp = (tau - z) / (1.0 - tau.conjugate() * z)
            rows.append([theta, amp.real, amp.imag, abs(amp) ** 2, 1.0 - abs(amp) ** 2])
            continue
        eta, gamma = coupler(p["eta"])
        s = cmath.sqrt(ring.alpha) * cmath.exp(0.5j * theta)
        denom = 1.0 - tau.conjugate() * eta.conjugate() * z
        cross = s / denom
        m = np.array([
            [(tau - eta.conjugate() * z) / denom, -gamma.conjugate() * kappa * cross],
            [-kappa.conjugate() * gamma * cross, (eta - tau.conjugate() * z) / denom],
        ])
        c = add_drop.noise_commutators(m)
        rows.append(
            [theta]
            + [part for entry in m.ravel().tolist() for part in (entry.real, entry.imag)]
            + [c[0, 0].real, c[1, 1].real, c[0, 1].real, c[0, 1].imag]
        )
    return rows


@pytest.mark.parametrize("mode", ["single-bus", "add-drop"])
def test_per_theta_kernels_match_python_scalars(monkeypatch, mode):
    rng = np.random.default_rng(11 if mode == "single-bus" else 12)
    for _ in range(3):
        lo, hi = np.sort(rng.uniform(-math.pi, math.pi, 2)).tolist()
        sets = [f"tau={rng.uniform(0, 1)!r}", f"eta={rng.uniform(0, 1)!r}",
                f"alpha={rng.uniform(0.05, 1)!r}", f"theta_min={lo!r}",
                f"theta_max={hi!r}", "theta_count=2001"]
        if mode == "single-bus":
            sets.remove(sets[1])
        text, wrappers = _sweep_and_reference(monkeypatch, mode, sets, "csv", 1)
        config = cli.load_config(mode, None, sets, None, "csv")
        columns = text.splitlines()[1].split(",")
        assert text == _reference_csv(config, columns, _python_rows(mode, config.params), None)
        # and the scalar wrappers over the same kernels agree point by point
        assert text == wrappers


# --- golden digests -----------------------------------------------------------
#
# ``bench/golden.json`` holds the SHA-256 of every benchmark sweep's output,
# recorded from the library before any optimisation.  The row-by-row
# reference above recomputes through the library and so follows any drift
# in the kernels; the digests do not.

_GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text()
)


@pytest.mark.parametrize("key", sorted(_GOLDEN))
def test_sweep_output_matches_golden_digest(monkeypatch, tmp_path, key):
    monkeypatch.setenv("RINGSIM_THREADS", "2")
    out = tmp_path / "sweep.out"
    assert cli.main([*key.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN[key]
