"""ringsim benchmark: end-to-end metrics per workload, or a traced breakdown.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

With ``--trace 0`` one closed-loop client runs ``python -m ringsim`` as a
subprocess, iteration after iteration, for about ``S`` seconds, and reports
the end-to-end metrics (timings are medians over the iterations; the sample
count is printed).  With ``--trace 1`` it reports the per-layer metrics from
an import-time breakdown and an in-process traced run (see ``tracing.py``).
Every output is checked against golden digests; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``RINGSIM_THREADS`` is pinned to ``min(2, cpu count)`` for every run and
reported as ``threads.workers``.  The program is run from ``src/`` of the
checkout; without it the benchmark exits with code 2 and prints no result.

    python3 bench/run.py --record-golden   # rewrite golden.json from src/
    python3 bench/selftest.py              # harness self-test at tiny sizes
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import GOLDEN_PATH, WORKLOADS, OutputChecker, load_golden

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fewest fresh interpreters timed for setup_s, after one untimed warm-up.
SETUP_SAMPLES = {"full": 5, "tiny": 1}
IMPORTTIME_SAMPLES = {"full": 3, "tiny": 1}
# Iterations a timed run makes even when they overrun --seconds.
MIN_ITERATIONS = {"full": 3, "tiny": 1}
# Every child is killed past this many seconds after the run started, so the
# run ends within its 180 s budget.
DEADLINE_S = 160.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput": "items/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The checkout cannot run the program; no result is printed."""


@dataclass(frozen=True)
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def pinned_workers() -> int:
    return min(2, os.cpu_count() or 1)


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["RINGSIM_THREADS"] = str(threads)
    return env


def run_child(argv: list[str], env: dict[str, str], workdir: Path, deadline: float) -> Child:
    """Run one child to completion; wall, CPU and peak RSS come from wait4."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # kilobytes on Linux
            code=proc.returncode,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )


def check_checkout(env: dict[str, str], workdir: Path, deadline: float) -> None:
    """Fail unless ``ringsim`` imports from this checkout's ``src/``.

    The import also compiles the bytecode once, so the timed imports that
    follow measure what a user pays on every call.
    """
    if not (SRC / "ringsim" / "__init__.py").is_file():
        raise SetupError(f"no ringsim package under {SRC}")
    probe = [sys.executable, "-c", "import ringsim.cli; print(ringsim.cli.__file__)"]
    child = run_child(probe, env, workdir, deadline)
    if child.code != 0:
        raise SetupError(f"import ringsim.cli failed:\n{child.stderr}")
    origin = Path(child.stdout.strip()).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise SetupError(f"ringsim imported from {origin}, not from {SRC}")


def setup_probe(env: dict[str, str], workdir: Path, deadline: float) -> float:
    """Wall time from a fresh interpreter to a finished ``import ringsim.cli``."""
    child = run_child([sys.executable, "-c", "import ringsim.cli"], env, workdir, deadline)
    if child.code != 0:
        raise SetupError(f"import ringsim.cli failed:\n{child.stderr}")
    return child.wall


def timed_run(workload, size, seed, seconds, env, workdir, checker, deadline) -> dict:
    """Closed loop: one iteration after another until ``seconds`` are used.

    A setup probe precedes every iteration, so that setup_s, like the other
    medians, samples the whole run and not one stretch of machine load.
    """
    setups, walls, cpus, rss = [], [], [], []
    attempted = failed = 0
    reasons: list[str] = []
    start = time.perf_counter()
    last = 0.0
    while attempted < MIN_ITERATIONS[size] or time.perf_counter() - start + last <= seconds:
        if time.monotonic() >= deadline:
            break
        began = time.perf_counter()
        setups.append(setup_probe(env, workdir, deadline))
        iteration = [
            (call, run_child([sys.executable, "-m", "ringsim", *call.argv(workdir)], env, workdir, deadline))
            for call in workload.calls(seed, attempted, size)
        ]
        attempted += 1
        bad = [
            reason
            for call, child in iteration
            if (reason := checker.check(call, child.code, child.stdout, child.stderr, workdir))
            is not None
        ]
        last = time.perf_counter() - began
        if bad:
            failed += 1
            reasons += bad
            continue
        walls.append(sum(child.wall for _, child in iteration))
        cpus.append(sum(child.cpu for _, child in iteration))
        rss.append(max(child.rss_mb for _, child in iteration))
    while len(setups) < SETUP_SAMPLES[size]:
        setups.append(setup_probe(env, workdir, deadline))
    metrics = {"setup_s": statistics.median(setups)}
    if walls:
        wall = statistics.median(walls)
        metrics.update(
            wall_s=wall,
            throughput=workload.work[size] / wall,
            cpu_s=statistics.median(cpus),
            peak_rss_mb=statistics.median(rss),
        )
    return {
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "samples": len(walls),
        "wall_range": (min(walls), max(walls)) if walls else None,
        "metrics": metrics,
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    golden: dict[str, str] | None = None,
) -> dict:
    """One benchmark run; returns the result object plus diagnostics."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    checker = OutputChecker(load_golden() if golden is None else golden)
    pinned = pinned_workers()
    env = child_env(pinned)
    with tempfile.TemporaryDirectory(prefix=".bench_out-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        check_checkout(env, workdir, deadline)
        if trace:
            import tracing

            metrics = tracing.import_breakdown(env, ROOT, IMPORTTIME_SAMPLES[size])
            trace_dir = ROOT / ".bench_trace"
            trace_dir.mkdir(exist_ok=True)
            run = tracing.traced_run(
                workload, size, seed, seconds, workdir, SRC, pinned, checker,
                spans_path=trace_dir / f"{name}.spans.jsonl",
            )
            metrics.update(run["metrics"])
            units = tracing.PER_LAYER
        else:
            run = timed_run(workload, size, seed, seconds, env, workdir, checker, deadline)
            metrics = run["metrics"]
            units = END_TO_END
    correct = run["failed"] == 0 and all(key in metrics for key in units)
    return {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            key: {"value": metrics.get(key, 0.0), "unit": unit} for key, unit in units.items()
        },
        "reasons": run["reasons"],
        "samples": run["samples"],
        "wall_range": run.get("wall_range"),
        "extra": {"accounting_gap_s": metrics.get("accounting_gap_s"), "missing": run.get("missing", [])},
    }


def print_report(name: str, result: dict) -> None:
    workload = WORKLOADS[name]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}: {workload.why}")
    print(
        f"  samples={result['samples']}  attempted={attempted}  failed={failed}  "
        f"fail_frac={failed / attempted if attempted else 0.0:.4g}  correct={result['correct']}"
    )
    for key, metric in result["metrics"].items():
        unit = metric["unit"]
        if key == "throughput":
            unit = f"{unit} ({workload.item}/s, {workload.work['full']} {workload.item} per iteration)"
        print(f"  {key:<40} {metric['value']:.6g} {unit}")
    if result.get("wall_range"):
        print("  wall_s min {:.6g} s, max {:.6g} s".format(*result["wall_range"]))
    gap = result["extra"]["accounting_gap_s"]
    if gap is not None:
        print(f"  run_sweep minus (kernel + row assembly + render) = {gap:.3g} s")
    if result["extra"]["missing"]:
        print(f"  not traced (absent): {', '.join(result['extra']['missing'])}")
    for reason in result["reasons"][:10]:
        print(f"  FAILED: {reason}")


def public(result: dict) -> dict:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def record_golden() -> None:
    """Write the digest of every sweep output, both sizes, to golden.json."""
    from workloads import sha256_file

    env = child_env(pinned_workers())
    digests: dict[str, str] = {}
    deadline = time.monotonic() + 3600.0
    with tempfile.TemporaryDirectory(prefix=".bench_out-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        check_checkout(env, workdir, deadline)
        for workload in WORKLOADS.values():
            for size in ("full", "tiny"):
                for call in workload.calls(0, 0, size):
                    if call.out is None or call.key in digests:
                        continue
                    child = run_child(
                        [sys.executable, "-m", "ringsim", *call.argv(workdir)], env, workdir, deadline
                    )
                    if child.code != 0:
                        raise SetupError(f"{call.key} failed:\n{child.stderr}")
                    digests[call.key] = sha256_file(workdir / call.out)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.record_golden:
            record_golden()
            return 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            print_report(name, results[name])
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(public(results[names[0]])))
    else:
        print(json.dumps({name: public(r) for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
