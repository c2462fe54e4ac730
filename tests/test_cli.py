import ast
import cmath
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import math
import multiprocessing
import os
import select
import shutil
import signal
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringsim
from ringsim import add_drop, attenuation, cli, hom, single_bus
from ringsim.core import CouplerParams, RingParams, TruncationError, UnitarityError
from ringsim.single_bus import transfer_amplitude

CONFIG_PREFIX = "# config: "
SUMMARY_PREFIX = "# summary: "
_ROOT = Path(__file__).resolve().parents[1]


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
    # a subnormal denominator: 0 * inf = NaN cross entries, then a
    # UnitarityError traceback from the noise commutators
    (
        ("add-drop", "--set", "tau=1", "--set", "eta=1", "--set", "alpha=1",
         "--set", "theta_min=5e-324", "--set", "theta_max=5e-324", "--set", "theta_count=1"),
        "unit loop gain",
    ),
    # sqrt(alpha * tau) underflows to 0: a RuntimeWarning, then infinite
    # matched rates and a ValueError traceback
    (
        ("langevin-compare", "--set", "tau=5e-324", "--set", "alpha=0.03",
         "--set", "round_trip_time_s=1e100"),
        "round_trip_time_s: must keep",
    ),
    # near alpha = 1 the noise commutators cancel, and the one-photon state
    # just above the threshold has a negative eigenvalue: a traceback
    (("entropy-grid", "--set", "alpha=0.99999999999995"), "alpha, p1_threshold: negative"),
    (
        ("entropy-grid", "--set", "alpha=1.0", "--set", "p1_threshold=0"),
        "alpha, p1_threshold: negative",
    ),
    # the sector norms overflow on the tau = 0 and eta = 0 edges: warnings
    # and NaN cells
    (("entropy-grid", "--set", "alpha=5e-324"), "alpha: must be >= 1e-100 for entropy-grid"),
    (("entropy-grid", "--set", "alpha=2.6e-139"), "alpha: must be >= 1e-100"),
    # JSON nested past the recursion limit raised RecursionError
    (("single-bus", "--set", "bogus=" + "[" * 100_000), "bogus: unknown key"),
    (("single-bus", "--set", "tau=" + "[" * 100_000), "tau: expected a number"),
    # the whole text of every range check: key, range and the value as resolved
    (("single-bus", "--set", "alpha=0"), "alpha: must lie in (0, 1] (got 0.0)"),
    (
        ("critical-dip", "--set", "alphas=[1.0,0]"),
        "alphas: every entry must lie in (0, 1] (got [1.0, 0.0])",
    ),
    (("single-bus", "--set", "theta_min=-4"), "theta_min: must lie in [-pi, pi] (got -4.0)"),
    (("add-drop", "--set", "theta_max=4"), "theta_max: must lie in [-pi, pi] (got 4.0)"),
    (
        ("critical-dip", "--set", "theta_min=1", "--set", "theta_max=0"),
        "theta_min: must not exceed theta_max (got 1.0)",
    ),
    (
        ("langevin-compare", "--set", "delta_tr_min=3", "--set", "delta_tr_max=2"),
        "delta_tr_min: must not exceed delta_tr_max (got 3.0)",
    ),
    (("homm-grid", "--set", "tau_count=0"), "tau_count: must be >= 1 (got 0)"),
    (("entropy-grid", "--set", "eta_count=-2"), "eta_count: must be >= 1 (got -2)"),
    (("single-bus", "--set", "theta_count=0"), "theta_count: must be >= 1 (got 0)"),
    (("langevin-compare", "--set", "delta_count=0"), "delta_count: must be >= 1 (got 0)"),
    (("homm-grid", "--set", "threshold=0"), "threshold: must be > 0 (got 0.0)"),
    (("entropy-grid", "--set", "p1_threshold=-1"), "p1_threshold: must be >= 0 (got -1.0)"),
    (
        ("langevin-compare", "--set", "round_trip_time_s=0"),
        "round_trip_time_s: must be > 0 (got 0.0)",
    ),
    (("langevin-compare", "--set", "delta_tr_min=0"), "delta_tr_min: must be > 0 (got 0.0)"),
    (("attenuation-chain", "--set", "gamma_per_m=-1"), "gamma_per_m: must be >= 0 (got -1.0)"),
    (("attenuation-chain", "--set", "length_m=0"), "length_m: must be > 0 (got 0.0)"),
    (
        ("attenuation-chain", "--set", "splitter_counts=[10,0]"),
        "splitter_counts: every entry must be >= 1 (got [10, 0])",
    ),
    # a value outside its own range comes before any relation between values
    (
        ("homm-grid", "--set", "threshold=-1", "--set", "tau_count=1e200"),
        "threshold: must be > 0 (got -1.0)",
    ),
]


def test_langevin_compare_cap_counts_both_signs_of_detuning(capsys, monkeypatch):
    # each delta_count value is written twice, at -delta and at +delta; a
    # config that passed would fail here instead of writing 10^8 rows
    monkeypatch.setattr(cli, "run_sweep", lambda *args: pytest.fail("sweep ran"))
    half = cli._MAX_POINTS // 2
    cli.load_config("langevin-compare", None, [f"delta_count={half}"], None, None)
    code, err = _main(capsys, "langevin-compare", "--set", f"delta_count={half + 1}")
    assert code == 1
    assert err == (
        f"ringsim: config error: 2 * delta_count: must not exceed {cli._MAX_POINTS} points\n"
    )


def test_every_config_key_has_one_range_row():
    keys = {key for defaults in cli._DEFAULTS.values() for key in defaults}
    assert set(cli._RANGES) == keys


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


def test_bad_inputs_leave_no_output_file(monkeypatch, tmp_path, capsys):
    out = tmp_path / "table.csv"
    for args, _ in _BAD_INPUTS:
        results = []
        for threads in ("1", "2"):
            monkeypatch.setenv("RINGSIM_THREADS", threads)
            results.append(_main(capsys, *args, "--out", str(out)))
        assert results[0][0] == 1 and results[0] == results[1], args
        assert not any(tmp_path.iterdir()), args


def test_config_file_problems_are_config_errors(tmp_path, monkeypatch, capsys):
    proc = _run("single-bus", "--config", str(tmp_path / "missing.json"))
    assert proc.returncode == 1
    assert "cannot read" in proc.stderr

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = _run("single-bus", "--config", str(bad))
    assert proc.returncode == 1
    assert "not valid JSON" in proc.stderr
    bad.write_text('{"tau": ' + "[" * 100_000)
    code, err = _main(capsys, "single-bus", "--config", str(bad))
    assert code == 1 and err.startswith("ringsim: config error: config file is not valid JSON")

    mismatched = tmp_path / "other.json"
    mismatched.write_text(json.dumps({"mode": "add-drop"}))
    proc = _run("single-bus", "--config", str(mismatched))
    assert proc.returncode == 1
    assert "mode" in proc.stderr

    # a non-string sink must not become a file named after its value
    monkeypatch.chdir(tmp_path)
    for key, value, shown in (("out", None, "null"), ("out", 5, "5"), ("format", None, "null")):
        config = tmp_path / "sink.json"
        config.write_text(json.dumps({key: value}))
        code, err = _main(capsys, "single-bus", "--config", str(config))
        assert code == 1, (key, value)
        assert err == f"ringsim: config error: {key}: expected a string, got {shown}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "other.json", "sink.json"]


def test_unwritable_output_is_an_io_error(tmp_path):
    # the line names the path given, not the hidden temporary file beside
    # it, whose name changes each run
    out = tmp_path / "no-such-dir" / "table.csv"
    for args in (("single-bus", "--set", "theta_count=3"), ("audit",)):
        proc = _run(*args, "--out", str(out))
        assert proc.returncode == 3, args
        assert proc.stderr == f"ringsim: i/o error: [Errno 2] No such file or directory: '{out}'\n"


def test_an_empty_out_is_a_config_error(tmp_path, monkeypatch, capsys):
    # an unset shell variable must not read as no --out: the sweep would
    # write to stdout, the audit no report
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "sink.json"
    config.write_text(json.dumps({"out": ""}))
    for args in (
        ("single-bus", "--out", ""),
        ("audit", "--samples", "20", "--out", ""),
        ("single-bus", "--config", str(config)),
        ("single-bus", "--config", str(config), "--out", "table.csv"),
    ):
        assert cli.main(list(args)) == 1, args
        out, err = capsys.readouterr()
        assert (out, err) == ("", "ringsim: config error: out: must not be empty (got '')\n")
    assert [p.name for p in tmp_path.iterdir()] == ["sink.json"]


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


def test_invalid_thread_env_is_a_config_error(monkeypatch, capsys):
    proc = _run("single-bus", env_extra={"RINGSIM_THREADS": "abc"})
    assert proc.returncode == 1
    assert "RINGSIM_THREADS" in proc.stderr
    proc = _run("single-bus", env_extra={"RINGSIM_THREADS": "0"})
    assert proc.returncode == 1

    monkeypatch.setenv("RINGSIM_THREADS", str(cli._MAX_THREADS))
    assert cli._worker_count() == cli._MAX_THREADS
    for raw in (str(cli._MAX_THREADS + 1), "100000"):
        monkeypatch.setenv("RINGSIM_THREADS", raw)
        with pytest.raises(cli.ConfigError, match="RINGSIM_THREADS"):
            cli._worker_count()

    # rejected before a walk could fork a process per chunk (32 chunks here)
    def no_ring(*args, **kwargs):
        raise AssertionError("worker processes were forked")

    monkeypatch.setattr(hom, "_ring", no_ring)
    for mode in ("homm-grid", "entropy-grid"):
        code, err = _main(capsys, mode)
        assert code == 1
        assert err == (
            "ringsim: config error: RINGSIM_THREADS: must be an integer in "
            f"[1, {cli._MAX_THREADS}], got '100000'\n"
        )


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


def _probe(code, **env):
    """Run ``code`` in a fresh interpreter whose environment has no
    ``OPENBLAS_NUM_THREADS`` unless ``env`` sets it; return its stdout."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**base, **env}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_scipy():
    # nor concurrent.futures (with logging, about 10 ms), which nothing
    # uses: not an axis sweep and not the audit; and only the audit loads
    # ringsim.audit
    probe = (
        "import os, sys, ringsim.cli; "
        "loaded = lambda: ('concurrent.futures' in sys.modules, 'ringsim.audit' in sys.modules); "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'), *loaded()); "
        "ringsim.cli.main(['single-bus', '--out', os.devnull]); print(*loaded()); "
        "sys.stdout = open(os.devnull, 'w'); ringsim.cli.main(['audit', '--samples', '20']); "
        "sys.stdout = sys.__stdout__; print(*loaded())"
    )
    assert _probe(probe) == "[] False False\nFalse False\nFalse True\n"


def test_package_import_loads_no_numpy_and_leaves_blas_alone():
    probe = (
        "import os, sys, ringsim; "
        "print('numpy' in sys.modules, 'concurrent.futures' in sys.modules, "
        "os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    assert _probe(probe) == "False False None\n"


def test_the_cli_loads_blas_on_one_thread():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads")
    probe = (
        "import os, ringsim.cli; "
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    )
    assert _probe(probe) == "1 1\n"


def test_a_users_blas_thread_count_is_kept():
    probe = "import os, ringsim.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _probe(probe, OPENBLAS_NUM_THREADS="3") == "3\n"


def test_the_package_root_resolves_its_names_lazily():
    probe = (
        "import ringsim; ns = {}; exec('from ringsim import *', ns); "
        "missing = [n for n in ringsim.__all__ if n not in ns or getattr(ringsim, n) is not ns[n]]; "
        "print(missing, sorted(set(ringsim.__all__) - set(dir(ringsim))), "
        "ringsim.hom.__name__, ringsim.RingParams.__module__)"
    )
    assert _probe(probe) == "[] [] ringsim.hom ringsim.core\n"
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ringsim.no_such_name


#: The kernel modules each command loads, beside the package, `cli` and
#: `core`: those its sweep calls (`hom` calls `add_drop`), and all of them
#: for the audit.
_MODE_MODULES = {
    "single-bus": ("single_bus",),
    "langevin-compare": ("single_bus",),
    "attenuation-chain": ("attenuation",),
    "add-drop": ("add_drop",),
    "homm-grid": ("add_drop", "hom"),
    "critical-dip": ("add_drop", "hom"),
    "entropy-grid": ("add_drop", "hom"),
    "audit": ("add_drop", "attenuation", "audit", "hom", "single_bus"),
}


def _importtime(*args):
    """The ringsim modules that ``python -X importtime *args`` lists, and
    the run's stdout."""
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    listed = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    return {name for name in listed if name.partition(".")[0] == "ringsim"}, proc.stdout


def test_the_cli_loads_no_kernel_module():
    # the package root imports its modules through the builtin __import__,
    # which -X importtime reports, so the report lists every module loaded;
    # a bare import still loads no numpy
    listed, out = _importtime(
        "-c",
        "import sys, ringsim.cli; "
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'ringsim'))",
    )
    assert listed == set(out.split()) == {"ringsim", "ringsim.cli", "ringsim.core"}
    assert _probe("import sys, ringsim; print('numpy' in sys.modules)") == "False\n"


@pytest.mark.parametrize("mode", _MODE_MODULES)
def test_each_mode_loads_the_modules_it_calls(mode):
    # a module compiles from source in each run that loads it: ringsim
    # single-bus does not pay for hom
    if mode == "audit":
        args = ("--samples", "20")
    elif mode in ("homm-grid", "entropy-grid"):
        args = ("--set", "tau_count=3", "--set", "eta_count=3", "--set", "theta_count=5")
    else:
        args = ()
    listed, _ = _importtime("-m", "ringsim", mode, *args, "--out", os.devnull)
    kernels = {f"ringsim.{name}" for name in _MODE_MODULES[mode]}
    assert listed == {"ringsim", "ringsim.cli", "ringsim.core", *kernels}


def test_the_command_freezes_what_it_loaded_before_it_runs(monkeypatch):
    # the collection at exit then skips numpy's import graph; the freeze
    # comes after the command line has loaded and before the sweep loads
    # its kernel modules
    entry = importlib.import_module("ringsim.__main__")
    frozen = []
    monkeypatch.setattr(cli, "main", lambda: frozen.append(gc.get_freeze_count()) or 0)
    try:
        assert entry.main() == 0
    finally:
        gc.unfreeze()
    assert len(frozen) == 1 and frozen[0] > 0
    probe = (
        "import gc, os, sys; from ringsim import __main__ as entry; freeze = gc.freeze; "
        "gc.freeze = lambda: print(*(m in sys.modules for m in "
        "('numpy', 'ringsim.cli', 'ringsim.single_bus'))) or freeze(); "
        "sys.argv = ['ringsim', 'single-bus', '--out', os.devnull]; print(entry.main())"
    )
    assert _probe(probe) == "True True False\n0\n"


def test_cli_main_leaves_the_collector_alone():
    # a program or test that runs the command line in process keeps its own
    # collector settings
    before = gc.get_freeze_count()
    assert cli.main(["single-bus", "--set", "theta_count=3", "--out", os.devnull]) == 0
    assert gc.get_freeze_count() == before


def test_only_the_process_pool_imports_multiprocessing():
    # about 11 ms of imports that no quick sweep and no census should pay
    probe = (
        "import os, sys; from ringsim import cli; "
        "cli.main(['homm-grid', '--set', 'tau_count=41', '--set', 'eta_count=41', "
        "'--set', 'theta_count=41', '--out', os.devnull]); "
        "os.environ['RINGSIM_THREADS'] = '1'; "
        "cli.main(['entropy-grid', '--out', os.devnull]); "
        "print('multiprocessing' in sys.modules)"
    )
    env = dict(os.environ, RINGSIM_THREADS="2")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
    assert code != cli.EXIT_INTERNAL, (args, err.getvalue())
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


def test_langevin_compare_accepts_matched_rates_inside_the_window():
    # the matched rates are 6.7e149 rad/s, inside the window; a bound that
    # takes sqrt(tau) and sqrt(alpha) apart put them above 1e150
    proc = _run("langevin-compare", "--set", "tau=2.25e-266", "--set", "alpha=1e-10")
    assert proc.returncode == 0 and proc.stderr == ""
    _, _, rows, _ = _parse_csv(proc.stdout)
    assert len(rows) == 80 and all(map(math.isfinite, itertools.chain(*rows)))


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


def test_a_reader_that_closes_stdout_ends_the_run_quietly(tmp_path):
    # 450,241 rows: the sweep is still writing when the reader goes away
    args = (
        "entropy-grid", "--set", "tau_count=61", "--set", "eta_count=61",
        "--set", "theta_count=121",
    )
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.Popen(
        [sys.executable, "-m", "ringsim", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = [proc.stdout.readline(), proc.stdout.readline()]
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""
    assert head[0].startswith(CONFIG_PREFIX.encode())
    assert head[1] == b"tau,eta,theta_rad,entropy_bits\n"

    # the same closed pipe as an --out file is an i/o error.  The read end
    # is open before the run starts, so neither side blocks in open()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "ringsim", *args, "--out", str(fifo)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
        )
        assert select.select([reader], [], [], 120)[0]
        assert os.read(reader, 4096)
    finally:
        os.close(reader)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 3
    assert err == b"ringsim: i/o error: [Errno 32] Broken pipe\n"


def test_a_closed_stdout_is_an_io_error():
    # started with file descriptor 1 closed, as `ringsim single-bus >&-`
    # runs it: Python sets sys.stdout to None
    launcher = (
        "import os, sys; os.close(1); "
        "os.execv(sys.executable, [sys.executable, '-m', 'ringsim', *sys.argv[1:]])"
    )
    for args, threads in ((["single-bus"], "1"), (["entropy-grid"], "2"),
                          (["audit", "--samples", "20"], "1")):
        env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", RINGSIM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", launcher, *args],
            stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
        assert proc.returncode == cli.EXIT_IO == 3, args
        assert proc.stderr == "ringsim: i/o error: stdout is closed\n", args


def test_the_audit_checks_its_values_and_sinks_before_drawing(monkeypatch, capsys, tmp_path):
    # a closed stdout or an --out that cannot be opened ends the audit
    # before its first draw, and a bad value is still a config error
    drawn = []
    monkeypatch.setattr(cli, "run_audit", lambda *args: drawn.append(args))
    gone = str(tmp_path / "no-such-dir")
    missing = os.path.join(gone, "audit.json")
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", None)
        assert _main(capsys, "audit", "--samples", "50000") == (
            cli.EXIT_IO, "ringsim: i/o error: stdout is closed\n"
        )
        assert drawn == []
        assert _main(capsys, "audit", "--samples", "0") == (
            cli.EXIT_CONFIG, "ringsim: config error: samples: must be >= 1 (got 0)\n"
        )
    code, err = _main(capsys, "audit", "--samples", "50000", "--out", missing)
    assert code == cli.EXIT_IO and err.startswith("ringsim: i/o error: ") and gone in err
    code, err = _main(capsys, "audit", "--seed", "-1", "--out", missing)
    assert code == cli.EXIT_CONFIG and err.startswith("ringsim: config error: seed:")
    assert drawn == [] and list(tmp_path.iterdir()) == []


# --- streamed output -----------------------------------------------------------

# 4 x 5 pairs of 7 points: ten chunks of two pairs at a chunk size of 16
_STREAMED = (
    "entropy-grid", "--set", "tau_count=4", "--set", "eta_count=5", "--set", "theta_count=7"
)


@pytest.mark.parametrize("threads", [1, 2])
def test_rows_reach_the_sink_before_the_last_kernel_call(monkeypatch, threads):
    monkeypatch.setenv("RINGSIM_THREADS", str(threads))
    monkeypatch.setattr(hom, "_CHUNK", 16)
    monkeypatch.setattr(hom, "_usable_cpus", lambda: 2)
    rings = _record_rings(monkeypatch)
    # The sink is a pipe that a thread of this process reads.  The last of
    # the ten kernel calls waits until rows have reached that thread; the
    # calls are counted in shared memory, since at 2 workers they run in
    # forked worker processes
    kernel, calls = hom.entropy_grid, multiprocessing.Value("i", 0)
    arrived, early = multiprocessing.Event(), multiprocessing.Value("b", 0)

    def counted(*args, **kwargs):
        with calls.get_lock():
            calls.value += 1
            last = calls.value == 10
        if last:
            early.value = arrived.wait(10)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(hom, "entropy_grid", counted)
    read_end, write_end = os.pipe()
    received = []

    def read():
        while data := os.read(read_end, 1 << 16):
            received.append(data)
            if b"".join(received).count(b"\n") > 2:  # past the config echo and header
                arrived.set()

    reader = threading.Thread(target=read)
    reader.start()
    config = cli.load_config(_STREAMED[0], None, list(_STREAMED[2::2]), None, "csv")
    try:
        # closing the sink ends the reader
        with _deadline(60), open(write_end, "w", encoding="utf-8") as sink:
            cli.run_sweep(config, sink)
    finally:
        reader.join(60)
        os.close(read_end)
    assert calls.value == 10 and early.value
    assert len(_parse_csv(b"".join(received).decode())[2]) == 4 * 5 * 7
    assert rings == ([2] if threads == 2 else [])


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failed_sweep_leaves_the_old_output(monkeypatch, tmp_path, capsys, threads):
    monkeypatch.setenv("RINGSIM_THREADS", str(threads))
    monkeypatch.setattr(hom, "_CHUNK", 16)
    kernel = hom.entropy_grid
    out = tmp_path / "table.csv"
    out.write_bytes(b"old output\n")
    for error in (RuntimeError("kernel failed"), OSError("disk failed")):
        calls = itertools.count(1)

        def failing(*args, **kwargs):
            if next(calls) == 2:  # after the first chunk's rows were written
                raise error
            return kernel(*args, **kwargs)

        monkeypatch.setattr(hom, "entropy_grid", failing)
        if isinstance(error, OSError):
            # an i/o error while streaming is still exit 3
            code, err = _main(capsys, *_STREAMED, "--out", str(out))
            assert code == 3 and err == "ringsim: i/o error: disk failed\n"
        else:
            code, err = _main(capsys, *_STREAMED, "--out", str(out))
            assert code == 4
            assert err == "ringsim: internal error: RuntimeError: kernel failed\n"
        assert out.read_bytes() == b"old output\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_a_pole_past_the_first_chunk_ends_the_stream_there(monkeypatch, tmp_path, capsys):
    # theta = 0, where a lossless ring with a closed coupler has unit loop
    # gain, is the first value of the second text slice of 16
    monkeypatch.setattr(cli, "_TEXT_SLICE", 16)
    args = ("single-bus", "--set", "tau=1", "--set", "alpha=1", "--set", "theta_min=-1",
            "--set", "theta_max=1", "--set", "theta_count=33")
    assert cli.main(list(args)) == 1
    out, err = capsys.readouterr()
    assert len(_parse_csv(out)[2]) == 16
    assert err == "ringsim: config error: unit loop gain: conj(tau)*alpha*exp(i*theta) == 1\n"
    code, err = _main(capsys, *args, "--out", str(tmp_path / "table.csv"))
    assert code == 1 and "unit loop gain" in err
    assert not any(tmp_path.iterdir())


def test_a_sweep_holds_one_chunk_of_rows_at_a_time(monkeypatch):
    monkeypatch.setenv("RINGSIM_THREADS", "1")
    monkeypatch.setattr(hom, "_CHUNK", 16)

    class Sink(io.StringIO):
        def __init__(self):
            super().__init__()
            self.live = []  # cli.Rows objects alive at each write

        def write(self, text):
            self.live.append(sum(type(obj) is cli.Rows for obj in gc.get_objects()))
            return super().write(text)

    config = cli.load_config(_STREAMED[0], None, list(_STREAMED[2::2]), None, "csv")
    sink = Sink()
    gc.collect()  # rows left unreachable by earlier tests
    cli.run_sweep(config, sink)
    assert len(_parse_csv(sink.getvalue())[2]) == 4 * 5 * 7
    assert max(sink.live) <= 1, sink.live


# Runs its arguments as a Python child and prints the exit code and peak RSS
# of the child and its reaped workers.  The child is forked from this small
# launcher, not from the test process: exec keeps the peak RSS of the image
# it replaces, so a child of a large pytest process would report pytest's.
_PEAK_RSS = """import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="os.wait4 not available")
@pytest.mark.parametrize(
    "mode, sets",
    [
        ("homm-grid", ("tau_count=1", "eta_count=1", "theta_count=1000000")),
        ("entropy-grid", ("alpha=0.9", "tau_count=1", "eta_count=1", "theta_count=1000000")),
        ("entropy-grid", ("alpha=0.9", "tau_count=1000000", "eta_count=1", "theta_count=1")),
    ],
)
def test_a_long_grid_axis_keeps_memory_bounded(mode, sets):
    # A million-value axis costs 8 MB of linspace values; its chunks and
    # cell tables stay at most hom._CHUNK long, whichever axis it is.
    peak_mb = _peak_rss_mb(mode, sets)
    assert peak_mb < 120, peak_mb


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="os.wait4 not available")
@pytest.mark.parametrize("mode", ["add-drop", "single-bus"])
def test_a_long_axis_sweep_renders_in_text_slices(mode):
    # 65,536 axis values, evaluated and turned into text cli._TEXT_SLICE
    # values at a time, peak within 4 MB of the default 201: evaluated in
    # one chunk, they peaked 13 MB (add-drop, 13 columns) and 8 MB
    # (single-bus, 5) higher
    long_mb = _peak_rss_mb(mode, ("theta_count=65536",))
    short_mb = _peak_rss_mb(mode, ("theta_count=201",))
    assert long_mb < short_mb + 4, (long_mb, short_mb)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="os.wait4 not available")
def test_a_long_theta_row_is_evaluated_in_tiles():
    # one (tau, eta) pair against 65,536 phases peaks within 12 MB of the
    # same points in 256-phase rows; most of the gap is the 65,536-cell
    # theta table.  Evaluated as one tile, the long row peaked 26 MB higher
    long_mb = _peak_rss_mb("entropy-grid", ("tau_count=1", "eta_count=1", "theta_count=65536"))
    rows_mb = _peak_rss_mb("entropy-grid", ("tau_count=16", "eta_count=16", "theta_count=256"))
    assert long_mb < rows_mb + 12, (long_mb, rows_mb)


def _peak_rss_mb(mode, sets):
    """Peak RSS in MB of ``ringsim <mode>`` with ``sets`` to the null device,
    at two workers, its reaped workers included; the run must succeed."""
    args = [sys.executable, "-c", _PEAK_RSS, "-m", "ringsim", mode, "--out", os.devnull]
    args += [arg for s in sets for arg in ("--set", s)]
    env = dict(os.environ, RINGSIM_THREADS="2")
    done = subprocess.run(args, capture_output=True, text=True, env=env, timeout=120)
    code, peak = map(int, done.stdout.split())
    assert code == 0, done.stderr
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


# --- worker processes -----------------------------------------------------------


@contextlib.contextmanager
def _deadline(seconds):
    """Fail a block that waits on worker processes, rather than hang."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    saved = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, saved)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_sweep_that_fails_in_its_first_chunk_writes_nothing(monkeypatch, capfd, threads):
    # the error comes from the kernel of the first chunk, in a worker
    # process at 2 workers; the head goes out with the first rows, so none is left
    monkeypatch.setenv("RINGSIM_THREADS", threads)
    monkeypatch.setattr(hom, "_usable_cpus", lambda: 2)
    with _deadline(60):
        code = cli.main(["entropy-grid", "--set", "alpha=1.0", "--set", "p1_threshold=0"])
    out, err = capfd.readouterr()
    assert code == 1 and out == ""
    assert err == (
        "ringsim: config error: alpha, p1_threshold: negative one-photon eigenvalue at "
        "9609 grid points; lower alpha or raise p1_threshold (got 1.0, 0.0)\n"
    )
    assert multiprocessing.active_children() == []


def test_a_dead_worker_process_ends_the_run_cleanly(monkeypatch, tmp_path, capfd):
    monkeypatch.setenv("RINGSIM_THREADS", "2")
    monkeypatch.setattr(hom, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(hom, "_CHUNK", 16)
    parent, kernel = os.getpid(), hom.entropy_grid

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(hom, "entropy_grid", dying)
    with _deadline(60):
        code = cli.main([*_STREAMED, "--out", str(tmp_path / "table.csv")])
    out, err = capfd.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert (out, err) == ("", "ringsim: internal error: a worker process died\n")
    assert not any(tmp_path.iterdir())
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "error",
    [
        UnitarityError("|A|^2 + noise = 1.5 outside [0, 1]"),
        TruncationError("the double sum needs 10**9 terms"),
        MemoryError("out of memory"),
        ValueError("an unmapped library check"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_an_internal_error_ends_the_run_in_one_line(monkeypatch, tmp_path, capfd, error):
    # a single-bus sweep of three text slices that fails in its second: no
    # traceback, exit 4 rather than the config error's 1, and no --out file
    monkeypatch.setattr(cli, "_TEXT_SLICE", 16)
    calls, kernel = itertools.count(1), single_bus._transfer

    def failing(*args):
        if next(calls) == 2:
            raise error
        return kernel(*args)

    monkeypatch.setattr(single_bus, "_transfer", failing)
    code = cli.main(["single-bus", "--set", "theta_count=40", "--out", str(tmp_path / "t.csv")])
    out, err = capfd.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert (out, err) == ("", f"ringsim: internal error: {type(error).__name__}: {error}\n")
    assert not any(tmp_path.iterdir())


def test_no_worker_process_outlives_a_sweep(monkeypatch, tmp_path):
    monkeypatch.setenv("RINGSIM_THREADS", "2")
    monkeypatch.setattr(hom, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(hom, "_CHUNK", 16)
    with _deadline(60):
        assert cli.main([*_STREAMED, "--out", str(tmp_path / "table.csv")]) == 0
    assert multiprocessing.active_children() == []

    # a reader that closes stdout before the first chunk is written: the
    # main process gets the broken pipe in its first write
    class ClosedStdout(io.StringIO):
        def fileno(self):
            return spare

    closed, spare = os.pipe()
    os.close(closed)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedStdout())
        with _deadline(60):
            assert cli.main(list(_STREAMED)) == 0
    finally:
        os.close(spare)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads, sink", [("1", "file"), ("2", "file"), ("2", "fifo")])
def test_an_interrupt_ends_the_run_in_one_line(tmp_path, threads, sink):
    # Ctrl-C on a terminal sends SIGINT to the whole process group: the
    # workers ignore it, and the parent removes its partial file, ends its
    # workers and prints one line.  The run takes seconds, so it is still
    # writing when the signal comes.  A fifo that is not read blocks the
    # main process in its write, and the workers in their sends: a worker
    # that took the signal printed a traceback
    out = tmp_path / "table.csv"
    if sink == "fifo":
        os.mkfifo(out)
        reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
    args = (
        "entropy-grid", "--set", "tau_count=201", "--set", "eta_count=201",
        "--set", "theta_count=401", "--out", str(out),
    )
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", RINGSIM_THREADS=threads)
    proc = subprocess.Popen(
        [sys.executable, "-m", "ringsim", *args],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, start_new_session=True,
    )
    try:
        with _deadline(60):
            if sink == "fifo":
                select.select([reader], [], [])
                time.sleep(1.0)  # the workers finish their window
            else:
                while proc.poll() is None and not any(
                    tmp.stat().st_size for tmp in tmp_path.glob(".*.tmp")
                ):
                    time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGINT)
            if sink == "fifo":  # the fifo reads end of file once the run is over
                os.set_blocking(reader, True)
                while os.read(reader, 1 << 20):
                    pass
            _, err = proc.communicate()
        assert proc.returncode == cli.EXIT_INTERRUPTED == 130
        assert err == b"ringsim: interrupted\n"
        assert list(tmp_path.iterdir()) == ([out] if sink == "fifo" else [])
        with pytest.raises(ProcessLookupError):  # no worker is left
            os.killpg(proc.pid, 0)
    finally:
        if sink == "fifo":
            os.close(reader)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)


@pytest.mark.parametrize("target", ["main", "group"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_terminate_signal_ends_the_run_in_one_line(tmp_path, threads, target):
    # SIGTERM, as kill and service managers send it, to the main process
    # alone or to the whole group: the parent removes its partial file,
    # ends its workers, and prints one line.  Signalled alone,
    # its workers are left to it; a worker signalled too dies at once
    out = tmp_path / "table.csv"
    args = (
        "entropy-grid", "--set", "tau_count=201", "--set", "eta_count=201",
        "--set", "theta_count=401", "--out", str(out),
    )
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", RINGSIM_THREADS=threads)
    proc = subprocess.Popen(
        [sys.executable, "-m", "ringsim", *args],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, start_new_session=True,
    )
    try:
        with _deadline(60):
            while proc.poll() is None and not any(
                tmp.stat().st_size for tmp in tmp_path.glob(".*.tmp")
            ):
                time.sleep(0.01)
            if target == "main":
                os.kill(proc.pid, signal.SIGTERM)
            else:
                os.killpg(proc.pid, signal.SIGTERM)
            _, err = proc.communicate()
        assert proc.returncode == cli.EXIT_TERMINATED == 143
        assert err == b"ringsim: terminated\n"
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ProcessLookupError):  # no worker is left
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)


def test_an_interrupt_while_loading_ends_in_one_line(tmp_path):
    # a Ctrl-C that comes while numpy loads, before cli.main runs, as a
    # numpy whose import raises KeyboardInterrupt: through ``python -m`` and
    # through the console script's entry alike
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text("raise KeyboardInterrupt\n")
    path = [str(tmp_path), str(_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = "import sys; from ringsim.__main__ import main; sys.exit(main())"
    for command in (["-m", "ringsim"], ["-c", script]):
        proc = subprocess.run(
            [sys.executable, *command, "single-bus"], capture_output=True, env=env, timeout=120
        )
        assert proc.returncode == cli.EXIT_INTERRUPTED == 130, proc.stderr
        assert (proc.stdout, proc.stderr) == (b"", b"ringsim: interrupted\n")


def test_a_worker_leaves_sigint_to_the_parent_and_dies_of_sigterm():
    # the main process ends the workers of a walk it leaves with SIGTERM, so
    # a worker must not keep the raising handler it inherits from cli.main:
    # each chunk reports the handlers of the worker that runs it
    signals = (signal.SIGINT, signal.SIGTERM)

    def chunk(start):
        raise LookupError([signal.getsignal(sig) for sig in signals])

    saved = signal.signal(signal.SIGTERM, cli._terminate)
    try:
        with _deadline(60), pytest.raises(LookupError) as caught:
            with contextlib.closing(hom._ring(chunk, [0, 1], 2)) as ring:
                for items in ring:
                    list(items)
    finally:
        signal.signal(signal.SIGTERM, saved)
    assert caught.value.args[0] == [signal.SIG_IGN, signal.SIG_DFL]
    assert multiprocessing.active_children() == []


class _Probe:
    """An item of a `hom._ring` chunk: the probes that the worker held when
    it made the chunk."""

    def __init__(self, held):
        self.held = held


def _probes(start):
    held = sum(type(obj) is _Probe for obj in gc.get_objects())
    return [_Probe(held) for _ in range(3)]


def test_a_worker_drops_each_chunk_before_it_makes_the_next():
    # a worker holds one chunk's items at a time: one that kept the list it
    # had sent while it made its next chunk pushed the entropy-dense
    # benchmark's peak RSS up 10 %
    with _deadline(60), contextlib.closing(hom._ring(_probes, range(6), 2)) as ring:
        held = [[probe.held for probe in items] for items in ring]
    assert held == [[0] * 3] * 6
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="no process groups")
def test_workers_stop_soon_after_the_main_process_is_killed(tmp_path):
    # SIGKILL of the main process alone: its workers get a broken pipe at
    # their next send and exit, so the session empties; the temporary file
    # stays.
    # 61,206 chunks of at most 16 points: the run takes seconds
    out = tmp_path / "table.csv"
    script = (
        "import sys; from ringsim import cli, hom; hom._CHUNK = 16; "
        "hom._usable_cpus = lambda: 2; sys.exit(cli.main(sys.argv[1:]))"
    )
    args = (
        "entropy-grid", "--set", "tau_count=101", "--set", "eta_count=101",
        "--set", "theta_count=81", "--out", str(out),
    )
    env = dict(os.environ, RINGSIM_THREADS="2", PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *args],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env, start_new_session=True,
    )
    try:
        with _deadline(60):
            while proc.poll() is None and not any(
                tmp.stat().st_size for tmp in tmp_path.glob(".*.tmp")
            ):
                time.sleep(0.01)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            with contextlib.suppress(ProcessLookupError):
                while True:  # until no process of the session is left
                    os.killpg(proc.pid, 0)
                    time.sleep(0.05)
        assert proc.returncode == -signal.SIGKILL
        # the temporary file stays, and the workers stopped long before the
        # last of its 826,281 rows
        (tmp,) = tmp_path.glob(".*.tmp")
        assert 0 < tmp.read_bytes().count(b"\n") < 101 * 101 * 81
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


# Runs cli.main on its arguments with two usable CPUs and prints the exit
# code and how far the main process's own peak RSS rose above its value
# after the import: the workers' memory is not counted.
_MAIN_RSS = """import resource, sys
from ringsim import cli, hom
hom._usable_cpus = lambda: 2
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)
"""


@pytest.mark.skipif(sys.platform == "win32", reason="no resource module or fork")
def test_the_main_process_holds_no_chunk_text():
    # workers make chunks of about 4.3 MB of text each: the main process
    # receives and writes them one text slice at a time
    args = [sys.executable, "-c", _MAIN_RSS, "entropy-grid", "--out", os.devnull]
    args += ["--set", "tau_count=61", "--set", "eta_count=61", "--set", "theta_count=121"]
    env = dict(os.environ, RINGSIM_THREADS="2", PYTHONPATH=str(_ROOT / "src"))
    done = subprocess.run(args, capture_output=True, text=True, env=env, timeout=120)
    code, grown = map(int, done.stdout.split())
    assert code == 0, done.stderr
    grown_mb = grown / (2**20 if sys.platform == "darwin" else 2**10)
    assert grown_mb < 8, grown_mb


@pytest.mark.parametrize("threads", ["2", "3"])
def test_a_chunk_that_fails_mid_run_leaves_whole_chunks(monkeypatch, capfd, threads):
    # the sixth of ten chunks of 14 rows raises in its worker: stdout holds
    # whole chunks before it, in order, and nothing after it
    monkeypatch.setattr(hom, "_CHUNK", 16)
    monkeypatch.setattr(hom, "_usable_cpus", lambda: 3)
    _, want = _sweep_and_reference(monkeypatch, _STREAMED[0], _STREAMED[2::2], "csv", 1)
    monkeypatch.setenv("RINGSIM_THREADS", threads)
    taus, etas, _ = hom._grid_axes(4, 5, 7)
    kernel = hom.entropy_grid

    def failing(tau, eta, *args):
        if (tau.flat[0], eta.flat[0]) == (taus[2], etas[0]):  # pairs 10 and 11
            raise RuntimeError("chunk 6 failed")
        return kernel(tau, eta, *args)

    monkeypatch.setattr(hom, "entropy_grid", failing)
    with _deadline(60):
        code = cli.main(list(_STREAMED))
    out, err = capfd.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert err == "ringsim: internal error: RuntimeError: chunk 6 failed\n"
    lines = want.splitlines(keepends=True)
    assert out in ["", *("".join(lines[: 2 + 14 * k]) for k in range(1, 6))]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_worker_processes_never_change_entropy_grid_bytes(monkeypatch, tmp_path, capfd, fmt):
    # ten chunks of two pairs: every chunk after the first starts with the
    # JSON separator, and the last holds the eight undefined cells (tau = 1).
    # Up to four workers, more than the CPUs of a small host, each send
    # their chunks on their own pipe: a chunk read from the wrong pipe would
    # misplace rows, and a lost end marker would stall the run
    monkeypatch.setattr(hom, "_CHUNK", 16)
    monkeypatch.setattr(hom, "_usable_cpus", lambda: 4)
    _, want = _sweep_and_reference(monkeypatch, _STREAMED[0], _STREAMED[2::2], fmt, 1)
    assert want.count("null" if fmt == "json" else ",nan\n") == 8
    for threads in ("1", "2", "3", "4"):
        monkeypatch.setenv("RINGSIM_THREADS", threads)
        out = tmp_path / f"table.{fmt}"
        with _deadline(60):
            assert cli.main([*_STREAMED, "--format", fmt, "--out", str(out)]) == 0
            assert cli.main([*_STREAMED, "--format", fmt]) == 0
        assert capfd.readouterr() == (want, ""), threads
        assert out.read_text() == want, threads
    assert multiprocessing.active_children() == []


def test_forked_workers_do_not_repeat_buffered_stdout():
    # a worker process flushes its copy of sys.stdout when it exits
    script = (
        "import sys; from ringsim import cli, hom; hom._CHUNK = 16; "
        "hom._usable_cpus = lambda: 2; sys.stdout.write('before\\n'); "
        f"sys.exit(cli.main({list(_STREAMED)!r}))"
    )
    env = dict(os.environ, RINGSIM_THREADS="2", PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.count("before\n") == 1
    assert proc.stdout.startswith("before\n" + CONFIG_PREFIX)


def _record_rings(monkeypatch):
    """Record the worker count of each forked walk, `hom._ring`, which
    still runs; return the list of counts."""
    rings, ring = [], hom._ring

    def recording(chunk, starts, workers):
        rings.append(workers)
        return ring(chunk, starts, workers)

    monkeypatch.setattr(hom, "_ring", recording)
    return rings


def _file_sweep_text(config, path):
    """`_sweep_text` through a file, a sink with a file descriptor."""
    with open(path, "w", encoding="utf-8", newline="") as sink:
        cli.run_sweep(config, sink)
    return path.read_text(encoding="utf-8")


def test_worker_processes_are_capped_by_cpus_and_chunks(monkeypatch, tmp_path):
    monkeypatch.setattr(hom, "_CHUNK", 16)  # ten chunks
    rings = _record_rings(monkeypatch)
    config = cli.load_config(_STREAMED[0], None, list(_STREAMED[2::2]), None, "csv")
    monkeypatch.setenv("RINGSIM_THREADS", "1")
    want = _sweep_text(config)
    out = tmp_path / "table.csv"
    for threads, cpus in ((64, 3), (64, 64), (2, 64), (64, 1)):
        monkeypatch.setenv("RINGSIM_THREADS", str(threads))
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False
        )
        assert _file_sweep_text(config, out) == want
    # one usable CPU walks the grid serially
    assert rings == [3, 10, 2]

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    monkeypatch.setenv("RINGSIM_THREADS", "64")
    assert _file_sweep_text(config, out) == want
    assert rings == [3, 10, 2, 5]


def test_a_sink_without_a_descriptor_runs_in_parallel(monkeypatch):
    # the main process writes every text slice, so a StringIO, which has no
    # file descriptor, gets the entropy grid of forked workers, and the bytes
    # of one worker
    monkeypatch.setattr(hom, "_CHUNK", 16)
    monkeypatch.setattr(hom, "_usable_cpus", lambda: 3)
    rings = _record_rings(monkeypatch)
    for fmt in ("csv", "json"):
        serial, want = _sweep_and_reference(monkeypatch, _STREAMED[0], _STREAMED[2::2], fmt, 1)
        with _deadline(60):
            forked, _ = _sweep_and_reference(monkeypatch, _STREAMED[0], _STREAMED[2::2], fmt, 2)
        assert forked == serial == want
    assert rings == [2, 2]
    assert multiprocessing.active_children() == []


def test_the_census_builds_no_pool(monkeypatch, tmp_path):
    # the census walks its grid in the main thread at any worker count, even
    # into a sink with a file descriptor, which a forked walk could write to
    monkeypatch.setattr(hom, "_CHUNK", 16)  # 72 blocks
    rings = _record_rings(monkeypatch)
    sets = _SMALL["homm-grid"]
    for cpus in (3, 1):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False
        )
        text, want = _sweep_and_reference(
            monkeypatch, "homm-grid", sets, "csv", 64, tmp_path / "census.csv"
        )
        assert text == want
    assert rings == []


def test_census_evaluates_only_its_window_candidates(monkeypatch, tmp_path):
    # 81 pairs against 7 phases: the kernel sees only the 160 of 567 points
    # whose cos theta lies in their pair's window (96 are kept; the pair
    # screen this replaced passed 364), every one gathered, in calls of
    # min(_TILE, _CHUNK) = 16 points, all in this process, into a sink with
    # a file descriptor too
    monkeypatch.setattr(hom, "_CHUNK", 16)
    monkeypatch.setattr(hom, "_usable_cpus", lambda: 3)
    rings = _record_rings(monkeypatch)
    kernel, calls = hom._ratio, []

    def counting(*operands):
        calls.append(np.broadcast(*operands).size)
        return kernel(*operands)

    sets = ("tau_count=9", "eta_count=9", "theta_count=7", "threshold=0.05")
    for fmt in ("csv", "json"):
        config = cli.load_config("homm-grid", None, list(sets), None, fmt)
        render = _reference_csv if fmt == "csv" else _reference_json
        want = render(config, *_reference_table("homm-grid", config.params))
        for threads in (1, 3):
            monkeypatch.setenv("RINGSIM_THREADS", str(threads))
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(hom, "_ratio", counting)
                assert _file_sweep_text(config, tmp_path / f"census.{fmt}") == want
            assert calls == [16] * 10
    t, e, th = (g.ravel() for g in np.meshgrid(*hom._grid_axes(9, 9, 7), indexing="ij"))
    lo, hi = hom._census_window(t, e, config.params["alpha"], 0.05)
    assert ((np.cos(th) >= lo) & (np.cos(th) <= hi)).sum() == 160
    assert rings == []


def test_census_evaluates_through_the_public_grid_kernel(monkeypatch):
    # every census point goes through `hom.coincidence_ratio_grid`, where a
    # wrapper of the module attribute (as the benchmark tracer is) sees it:
    # the summed points are the window candidates, in more than one call
    kernel, points = hom.coincidence_ratio_grid, []

    def counting(tau, eta, theta, alpha):
        out = kernel(tau, eta, theta, alpha)
        points.append(out.size)
        return out

    monkeypatch.setattr(hom, "_CHUNK", 64)
    sets = ["tau_count=15", "eta_count=13", "theta_count=41", "threshold=0.05"]
    config = cli.load_config("homm-grid", None, sets, None, "json")
    want = _reference_json(config, *_reference_table("homm-grid", config.params))
    monkeypatch.setattr(hom, "coincidence_ratio_grid", counting)
    assert _sweep_text(config) == want
    axes = hom._grid_axes(15, 13, 41)
    t, e, th = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    lo, hi = hom._census_window(t, e, config.params["alpha"], 0.05)
    candidates = int(((np.cos(th) >= lo) & (np.cos(th) <= hi)).sum())
    assert len(points) > 1 and sum(points) == candidates
    assert 0 < candidates < t.size


def test_no_census_kernel_call_or_chunk_exceeds_a_tile(monkeypatch):
    # each kernel call's kept rows are rendered in text slices, one empty
    # slice if it keeps none: the candidates of every pair, whole axes or
    # windows, gathered into full tiles in grid order, a 5000-phase axis
    # searched in slices of a tile
    monkeypatch.setenv("RINGSIM_THREADS", "2")
    kernel, calls, ratios, render, rows = hom._ratio, [], [], cli.render_json, []

    def counting(*operands):
        calls.append(np.broadcast(*operands).size)
        ratios.append(kernel(*operands))
        return ratios[-1]

    def recording(*args):
        rows.append(len(args[2]))
        return render(*args)

    monkeypatch.setattr(cli, "render_json", recording)
    tile = hom._TILE
    for grid, threshold, plan in (
        ((3, 3, 2001), 1e300, [tile] * 4 + [9 * 2001 - 4 * tile]),
        ((2, 1, 5000), 1e300, [tile] * 2 + [10000 - 2 * tile]),
        ((7, 7, 2001), 0.05, [tile] * 6 + [26611 - 6 * tile]),
    ):
        counts = (f"{k}_count={n}" for k, n in zip(("tau", "eta", "theta"), grid))
        sets = (*counts, f"threshold={threshold}")
        config = cli.load_config("homm-grid", None, list(sets), None, "json")
        want = _reference_json(config, *_reference_table("homm-grid", config.params))
        calls.clear()
        ratios.clear()
        rows.clear()
        with monkeypatch.context() as patch:
            patch.setattr(hom, "_ratio", counting)
            assert _sweep_text(config) == want
        assert calls == plan
        text = cli._TEXT_SLICE
        kept = [int((ratio <= threshold).sum()) for ratio in ratios]
        assert rows == [min(n - k, text) for n in kept for k in range(0, max(n, 1), text)]
        assert max(rows) == text < tile


def test_entropy_grid_evaluates_every_block(monkeypatch):
    # no screen: every pair of every block, against every slice
    monkeypatch.setattr(hom, "_CHUNK", 16)
    monkeypatch.setenv("RINGSIM_THREADS", "1")
    kernel, shapes = hom.entropy_grid, []

    def recording(tau, eta, theta, *args):
        shapes.append((tau.shape[0], theta.shape[1]))
        return kernel(tau, eta, theta, *args)

    monkeypatch.setattr(hom, "entropy_grid", recording)
    for sets, plan in (
        (("tau_count=3", "eta_count=5", "theta_count=7"), [(2, 7)] * 7 + [(1, 7)]),
        (("tau_count=2", "eta_count=3", "theta_count=40"), [(1, 14), (1, 14), (1, 12)] * 6),
    ):
        shapes.clear()
        _sweep_text(cli.load_config("entropy-grid", None, list(sets), None, "csv"))
        assert shapes == plan


def test_grid_sweeps_run_serially_without_fork(monkeypatch, tmp_path):
    monkeypatch.setattr(hom, "_CHUNK", 16)
    monkeypatch.setattr(hom, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("RINGSIM_THREADS", "2")
    rings = _record_rings(monkeypatch)
    monkeypatch.delattr(os, "fork")
    for mode, sets in (("homm-grid", _SMALL["homm-grid"]), (_STREAMED[0], _STREAMED[2::2])):
        _, want = _sweep_and_reference(monkeypatch, mode, sets, "json", 2)
        config = cli.load_config(mode, None, list(sets), None, "json")
        assert _file_sweep_text(config, tmp_path / "table.json") == want
    assert rings == []


def test_output_file_mode_is_what_open_gives(tmp_path):
    private = tmp_path / "private.csv"
    private.write_text("old\n")
    private.chmod(0o600)
    args = ("single-bus", "--set", "theta_count=3")
    saved = os.umask(0o027)
    try:
        (tmp_path / "by-open.csv").open("w").close()
        assert cli.main([*args, "--out", str(tmp_path / "new.csv")]) == 0
        assert cli.main([*args, "--out", str(private)]) == 0
    finally:
        os.umask(saved)
    mode = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    # a new file gets the umask's default, a replaced one keeps its mode
    assert mode == {"by-open.csv": 0o640, "new.csv": 0o640, "private.csv": 0o600}
    assert private.read_text().startswith(CONFIG_PREFIX)


def test_out_through_a_symlink_writes_its_target(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    assert cli.main(["single-bus", "--set", "theta_count=3", "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_text().startswith(CONFIG_PREFIX)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


def test_out_dev_null_is_written_in_place(monkeypatch, capsys):
    def no_replace(*args):
        raise AssertionError("a device file would be replaced")

    monkeypatch.setattr(os, "replace", no_replace)
    code, err = _main(capsys, "single-bus", "--set", "theta_count=3", "--out", os.devnull)
    assert code == 0 and err == ""
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_dev_stdout_into_a_pipe_writes_the_plain_output():
    # `--out /dev/stdout | cat`: the name resolves to pipe:[N], which is no
    # path, so the pipe is opened by the name given and written in place
    for mode, threads in (("single-bus", "1"), ("entropy-grid", "2")):
        env = {"RINGSIM_THREADS": threads}
        plain = _run(mode, env_extra=env)
        assert plain.returncode == 0 and plain.stderr == ""
        for out in ("/dev/stdout", "/dev/fd/1"):
            proc = _run(mode, "--out", out, env_extra=env)
            assert (proc.returncode, proc.stderr) == (0, ""), (mode, out)
            assert proc.stdout == plain.stdout, (mode, out)
    plain = _run("audit", "--samples", "20")
    proc = _run("audit", "--samples", "20", "--out", "/dev/stdout")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert plain.stdout in proc.stdout
    assert json.loads(proc.stdout.replace(plain.stdout, ""))["pass"] is True


def test_console_script_target_is_main(monkeypatch, capsys):
    # the script and ``python -m ringsim`` share one entry, which runs cli.main
    tomllib = pytest.importorskip("tomllib")
    with open(_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["ringsim"]
    module, _, attr = target.partition(":")
    entry = importlib.import_module("ringsim.__main__")
    assert getattr(importlib.import_module(module), attr) is entry.main
    monkeypatch.setattr(sys, "argv", ["ringsim", "single-bus", "--set", "theta_count=3"])
    try:
        assert entry.main() == 0
    finally:
        gc.unfreeze()  # what the entry froze goes back to this process's collector
    assert capsys.readouterr().out.startswith(CONFIG_PREFIX)


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


def _sweep_text(config):
    sink = io.StringIO()
    cli.run_sweep(config, sink)
    return sink.getvalue()


def _sweep_and_reference(monkeypatch, mode, sets, fmt, threads, path=None):
    """The sweep's text, into a ``StringIO`` or else through the file at
    ``path``, and the row-by-row reference text."""
    monkeypatch.setenv("RINGSIM_THREADS", str(threads))
    config = cli.load_config(mode, None, list(sets), None, fmt)
    render = _reference_csv if fmt == "csv" else _reference_json
    text = _sweep_text(config) if path is None else _file_sweep_text(config, path)
    return text, render(config, *_reference_table(mode, config.params))


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


# Axis sweeps whose axis length 16 does not divide: at a chunk size of 16,
# two or three chunks, the last one shorter.
_AXIS_CHUNKED = {
    "single-bus": ("theta_count=41",),
    "langevin-compare": ("delta_count=21",),  # 42 detunings, both sides
    "attenuation-chain": (f"splitter_counts={list(range(1, 35, 2))}",),  # 17
    "add-drop": ("theta_count=37",),
    "critical-dip": ("theta_count=35",),
}


# Grid sweeps whose theta axis (or tau axis) is longer than a chunk of 16,
# keeping every point.
_GRID_CHUNKED = {
    "homm-grid": ("tau_count=2", "eta_count=1", "theta_count=40", "threshold=1e300"),
    "entropy-grid": ("tau_count=40", "eta_count=1", "theta_count=40"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_no_chunk_exceeds_the_chunk_size(monkeypatch, fmt):
    # chunks of at most 16 points or axis values, rendered in text slices of
    # at most 5 rows; only a grid's axis tables, built whole, reach 16 cells
    monkeypatch.setattr(hom, "_CHUNK", 16)
    monkeypatch.setattr(cli, "_TEXT_SLICE", 5)
    monkeypatch.setenv("RINGSIM_THREADS", "1")
    name = f"render_{fmt}"
    render, cells, axis_cells = getattr(cli, name), cli._cells, cli._axis_cells
    sizes, columns, tables, building = [], [], [], []

    def recording(*args):  # rows are the third argument, as the tracer reads them
        sizes.append(len(args[2]))
        return render(*args)

    def recording_cells(values):
        (tables if building else columns).append(len(values))
        return cells(values)

    def recording_axis_cells(axis):
        building.append(axis)
        try:
            return axis_cells(axis)
        finally:
            building.pop()

    monkeypatch.setattr(cli, name, recording)
    monkeypatch.setattr(cli, "_cells", recording_cells)
    monkeypatch.setattr(cli, "_axis_cells", recording_axis_cells)
    chunked = {**_AXIS_CHUNKED, **_GRID_CHUNKED}
    for mode in cli.SWEEP_MODES:
        sizes.clear()
        columns.clear()
        tables.clear()
        _sweep_text(cli.load_config(mode, None, list(chunked[mode]), None, fmt))
        assert max(sizes) <= 5 and 16 < sum(sizes), (mode, sizes)
        assert max(columns) <= 5, (mode, columns)
        assert max(tables, default=0) <= 16, (mode, tables)


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
        # axis sweeps: chunks of 16 axis values and a shorter last one
        *_AXIS_CHUNKED.items(),
        # tau or eta axes longer than the chunk size: cells formatted per chunk
        ("entropy-grid", ("tau_count=37", "eta_count=2", "theta_count=1")),
        ("homm-grid", ("tau_count=2", "eta_count=37", "theta_count=3", "threshold=0.5")),
    ],
)
def test_grid_chunking_never_changes_output_bytes(monkeypatch, tmp_path, mode, sets, fmt):
    monkeypatch.setattr(hom, "_CHUNK", 16)
    monkeypatch.setattr(hom, "_usable_cpus", lambda: 3)
    rings = _record_rings(monkeypatch)
    text, want = _sweep_and_reference(monkeypatch, mode, sets, fmt, 1)
    assert text == want
    monkeypatch.setenv("RINGSIM_THREADS", "3")
    config = cli.load_config(mode, None, list(sets), None, fmt)
    assert _file_sweep_text(config, tmp_path / f"table.{fmt}") == want
    # three forked workers walk every entropy grid of more than one chunk
    forked = mode == "entropy-grid" and sets[0] != "tau_count=1"
    assert rings == ([3] if forked else [])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("text", [1, 7, 10**9])
def test_text_slices_never_change_output_bytes(monkeypatch, tmp_path, text, fmt):
    # every mode at chunks of 16, a sparse census too, rendered one, seven
    # or every row at a time, in the main process and through three forked
    # entropy-grid workers
    monkeypatch.setattr(hom, "_CHUNK", 16)
    monkeypatch.setattr(cli, "_TEXT_SLICE", text)
    monkeypatch.setattr(hom, "_usable_cpus", lambda: 3)
    rings = _record_rings(monkeypatch)
    sparse = ("homm-grid", ("tau_count=9", "eta_count=9", "theta_count=7", "threshold=0.05"))
    for mode, sets in [*_AXIS_CHUNKED.items(), *_GRID_CHUNKED.items(), sparse]:
        for threads, path in ((1, None), (3, tmp_path / f"table.{fmt}")):
            out, want = _sweep_and_reference(monkeypatch, mode, sets, fmt, threads, path)
            assert out == want, (mode, threads)
    assert rings == [3]  # entropy-grid, the only forked walk


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


def test_json_rows_copy_only_columns_with_undefined_cells(monkeypatch):
    # tau = eta = 1 has nan entropy cells, which print as null; a column
    # with no non-finite cell reaches the text as it is, not copied
    json_cells, copied = cli._json_cells, []

    def recording(cells):
        out = json_cells(cells)
        copied.append(out is not cells)
        return out

    monkeypatch.setattr(cli, "_json_cells", recording)
    sets = ("tau_count=3", "eta_count=3", "theta_count=5")
    text, want = _sweep_and_reference(monkeypatch, "entropy-grid", sets, "json", 1)
    assert text == want
    assert text.count("      null\n") == 5
    assert copied == [False, False, False, True]  # tau, eta, theta, entropy_bits
    rows = cli.Rows(["1.0", "nan"], ["inf", "-0.0"])
    finite = rows.columns[0][:1]
    assert cli._json_cells(finite) is finite
    assert cli.render_json(None, None, rows) == (
        "\n    [\n      1.0,\n      null\n    ],\n    [\n      null,\n      -0.0\n    ]"
    )


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
        z = ring.alpha * cmath.exp(1j * ring.theta)
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

_GOLDEN = json.loads((_ROOT / "bench" / "golden.json").read_text())


@pytest.mark.parametrize("key", sorted(_GOLDEN))
def test_sweep_output_matches_golden_digest(monkeypatch, tmp_path, key):
    monkeypatch.setenv("RINGSIM_THREADS", "2")
    out = tmp_path / "sweep.out"
    assert cli.main([*key.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN[key]


# --- exported and traced names --------------------------------------------------


def _traced_names():
    """``TRACED`` of ``bench/tracing.py``, read from its source: the tracer
    only records a missing name, so a rename would silently zero a metric."""
    tree = ast.parse((_ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED")


@pytest.mark.parametrize("name", ["ringsim", *(f"ringsim.{m}" for m in ringsim._MODULES)])
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_traced_names_resolve():
    traced = _traced_names()
    assert traced
    for name, attr, _ in traced:
        assert callable(getattr(importlib.import_module(f"ringsim.{name}"), attr, None)), attr


def _bench_tracing():
    """``bench/tracing.py`` as a module of its own, loaded without writing
    bytecode beside it."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", _ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_benchmark_tracer_counts_rows_chunks_and_renders(monkeypatch, tmp_path, fmt):
    # the tracer reads a renderer's row count from its third positional
    # argument, so a change of the renderers' signature would zero cli.rows
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = _bench_tracing()
    monkeypatch.setenv("RINGSIM_THREADS", "1")
    monkeypatch.setattr(hom, "_CHUNK", 16)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main([*_STREAMED, "--format", fmt, "--out", str(tmp_path / "out")]) == 0
    assert tracer.missing == []
    metrics = tracing.summarize(tracer.spans)
    assert metrics["cli.rows"] == 4 * 5 * 7
    assert metrics["cli.chunks"] == 10
    assert metrics[f"cli.render_{fmt}_calls"] == 10


def test_benchmark_selftest_passes():
    # every workload runs timed and traced at tiny size, with no failure
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "bench" / "selftest.py")],
        capture_output=True,
        text=True,
        cwd=_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: PASS"
