"""Per-layer numbers: an in-process traced run and an import-time breakdown.

The traced run calls ``ringsim.cli.main`` in this process with the public
entry points of each module replaced, through their module attributes, by
wrappers that record one span per call.  ``cli.main`` and the sweeps look
those functions up as module attributes at call time, so the wrappers see
every call the CLI makes.  No library code is changed.

Each round makes three passes over the workload's calls:

1. untraced, one worker: the reference wall time;
2. traced, one worker: every per-layer time and count.  With one worker the
   kernel spans inside ``run_sweep`` run one after another, so a span's self
   time (its duration minus the time its child spans cover) is exact;
3. traced, at the pinned worker count: only the kernel time, for
   ``threads.kernel_speedup``.  Summed kernel spans exceed wall time here,
   so the kernel time is the union of the kernel spans' intervals.

Spans stay in memory during a pass; the spans of the last traced
single-worker pass are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

# (module, attribute, metric prefix).  Grid kernels also count points and
# bytes, the renderers rows and rendered characters.
TRACED = (
    ("cli", "load_config", "cli.load_config"),
    ("cli", "run_sweep", "cli.run_sweep"),
    ("cli", "render_csv", "cli.render_csv"),
    ("cli", "render_json", "cli.render_json"),
    ("cli", "_write_output", "cli.write"),
    ("cli", "run_audit", "cli.run_audit"),
    ("hom", "entropy_grid", "hom.entropy_grid"),
    ("hom", "coincidence_ratio_grid", "hom.coincidence_ratio_grid"),
    ("hom", "output_state", "hom.output_state"),
    ("hom", "reduce_density", "hom.reduce_density"),
    ("hom", "sector_normalizer", "hom.sector_normalizer"),
    ("add_drop", "transfer_matrix", "add_drop.transfer_matrix"),
    ("add_drop", "noise_commutators", "add_drop.noise_commutators"),
    ("add_drop", "inverse_conjugate", "add_drop.inverse_conjugate"),
    ("single_bus", "transfer_amplitude", "single_bus.transfer_amplitude"),
    ("single_bus", "commutator_sum_series", "single_bus.commutator_sum_series"),
    ("single_bus", "power_comparison", "single_bus.power_comparison"),
    ("attenuation", "continuum_commutator", "attenuation.continuum_commutator"),
    ("attenuation", "piecewise_commutator", "attenuation.piecewise_commutator"),
)
GRID_KERNELS = ("hom.entropy_grid", "hom.coincidence_ratio_grid")
RENDERERS = ("cli.render_csv", "cli.render_json")

# Per-layer metrics, in report order: name -> unit.
PER_LAYER: dict[str, str] = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "import.ringsim_self_s": "s",
    "cli.load_config_s": "s",
    "cli.run_sweep_s": "s",
    "cli.row_assembly_s": "s",
    "cli.render_csv_s": "s",
    "cli.render_json_s": "s",
    "cli.render_bytes": "bytes",
    "cli.write_s": "s",
    "cli.rows": "count",
    "cli.chunks": "count",
    "cli.run_audit_s": "s",
    "hom.entropy_grid_s": "s",
    "hom.entropy_grid_points": "count",
    "hom.entropy_grid_bytes": "bytes_computed",
    "hom.coincidence_ratio_grid_s": "s",
    "hom.coincidence_ratio_grid_points": "count",
    "hom.coincidence_ratio_grid_bytes": "bytes_computed",
    "hom.output_state_s": "s",
    "hom.output_state_calls": "count",
    "hom.reduce_density_s": "s",
    "hom.reduce_density_calls": "count",
    "hom.sector_normalizer_s": "s",
    "hom.sector_normalizer_calls": "count",
    "add_drop.transfer_matrix_s": "s",
    "add_drop.transfer_matrix_calls": "count",
    "add_drop.noise_commutators_s": "s",
    "add_drop.noise_commutators_calls": "count",
    "add_drop.inverse_conjugate_s": "s",
    "add_drop.inverse_conjugate_calls": "count",
    "single_bus.transfer_amplitude_s": "s",
    "single_bus.transfer_amplitude_calls": "count",
    "single_bus.commutator_sum_series_s": "s",
    "single_bus.commutator_sum_series_calls": "count",
    "single_bus.power_comparison_s": "s",
    "single_bus.power_comparison_calls": "count",
    "attenuation.continuum_commutator_s": "s",
    "attenuation.continuum_commutator_calls": "count",
    "attenuation.piecewise_commutator_s": "s",
    "attenuation.piecewise_commutator_calls": "count",
    "threads.workers": "count",
    "threads.kernel_speedup": "ratio",
    "trace.overhead_s": "s",
}


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    items: int = 0
    """Grid points evaluated (kernels) or rows rendered (renderers)."""
    nbytes: int = 0
    """Computed array bytes (kernels) or rendered characters (renderers)."""

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _kernel_counts(args, result) -> tuple[int, int]:
    # Bytes are computed from the sizes of the array arguments and the
    # result, not measured.
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    return int(np.size(result)), sum(a.nbytes for a in arrays) + int(np.asarray(result).nbytes)


def _render_counts(args, result) -> tuple[int, int]:
    # Rendered text is ASCII, so its length is its size in bytes.
    rows = args[2] if len(args) > 2 else ()
    return len(rows), len(result)


class Tracer:
    """Records one span per call of the functions it wraps, in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        if name in GRID_KERNELS:
            counts = _kernel_counts
        elif name in RENDERERS:
            counts = _render_counts
        else:
            counts = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = counts(args, result) if counts else ()
            self.spans.append(Span(sid, parent, name, start, end, *extra))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        try:
            for module_name, attr, name in TRACED:
                module = importlib.import_module(f"ringsim.{module_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            while self._saved:
                module, attr, fn = self._saved.pop()
                setattr(module, attr, fn)


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _is_library(name: str) -> bool:
    return not name.startswith("cli.")


def kernel_seconds(spans: list[Span]) -> float:
    """Wall time during which at least one outermost library call runs."""
    by_id = {s.sid: s for s in spans}
    tops = [
        (s.start, s.end)
        for s in spans
        if _is_library(s.name)
        and (s.parent not in by_id or not _is_library(by_id[s.parent].name))
    ]
    return _union_seconds(tops)


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one single-worker traced pass."""
    out: dict[str, float] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    for _module, _attr, name in TRACED:
        mine = [s for s in spans if s.name == name]
        out[f"{name}_s"] = sum(s.seconds for s in mine)
        out[f"{name}_calls"] = len(mine)
        if name in GRID_KERNELS:
            out[f"{name}_points"] = sum(s.items for s in mine)
            out[f"{name}_bytes"] = sum(s.nbytes for s in mine)
    row_assembly = kernel = render = 0.0
    chunks = rows = render_bytes = 0
    for sweep in (s for s in spans if s.name == "cli.run_sweep"):
        kids = children.get(sweep.sid, [])
        row_assembly += sweep.seconds - _union_seconds([(k.start, k.end) for k in kids])
        for k in kids:
            if k.name in RENDERERS:
                render += k.seconds
                rows += k.items
                render_bytes += k.nbytes
            else:
                kernel += k.seconds
                chunks += k.name in GRID_KERNELS
    out["cli.row_assembly_s"] = row_assembly
    out["cli.rows"] = rows
    out["cli.chunks"] = chunks
    out["cli.render_bytes"] = render_bytes
    # Kernel, row-assembly and render self times add up to run_sweep; the
    # gap is what the accounting misses.
    out["accounting_gap_s"] = out["cli.run_sweep_s"] - (kernel + row_assembly + render)
    return out


def write_spans(path: Path, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")


# --- import breakdown --------------------------------------------------------


def parse_importtime(stderr: str) -> dict[str, float]:
    """Sum ``-X importtime`` self times into the ``import.*`` metrics."""
    totals = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "ringsim": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        self_s = int(fields[0]) * 1e-6
        top = fields[2].strip().split(".")[0]
        totals["total"] += self_s
        if top in totals:
            totals[top] += self_s
    return {
        "import.total_s": totals["total"],
        "import.scipy_s": totals["scipy"],
        "import.numpy_s": totals["numpy"],
        "import.ringsim_self_s": totals["ringsim"],
    }


def import_breakdown(env: dict[str, str], cwd: Path, samples: int) -> dict[str, float]:
    """Median ``import.*`` metrics over fresh interpreters."""
    runs = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ringsim.cli"],
            env=env,
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


# --- in-process passes --------------------------------------------------------


def _run_calls(cli, calls, workdir: Path, threads: int):
    """Run ``cli.main`` once per call; return the wall time and raw results."""
    saved = os.environ.get("RINGSIM_THREADS")
    os.environ["RINGSIM_THREADS"] = str(threads)
    results = []
    try:
        start = time.perf_counter()
        for call in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(call.argv(workdir))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # counted as a failed call below
                    traceback.print_exc()
                    code = 1
            results.append((call, code, out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - start
    finally:
        if saved is None:
            os.environ.pop("RINGSIM_THREADS", None)
        else:
            os.environ["RINGSIM_THREADS"] = saved
    return wall, results


def traced_run(
    workload,
    size: str,
    seed: int,
    seconds: float,
    workdir: Path,
    src: Path,
    pinned: int,
    checker,
    spans_path: Path,
) -> dict:
    """Run the traced rounds; return per-layer medians and failure counts."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("ringsim.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"ringsim imported from {cli.__file__}, not from {src}")

    rounds: list[dict[str, float]] = []
    attempted = failed = 0
    reasons: list[str] = []
    last_spans: list[Span] = []
    missing: set[str] = set()
    # One unrecorded pass first, so the first round pays no warm-up.
    _run_calls(cli, workload.calls(seed, 0, size), workdir, pinned)
    start = time.perf_counter()
    round_wall = 0.0
    while not rounds or time.perf_counter() - start + round_wall <= seconds:
        round_start = time.perf_counter()
        calls = workload.calls(seed, len(rounds), size)
        passes = []
        for threads, traced in ((1, False), (1, True), (pinned, True)):
            tracer = Tracer()
            with tracer.installed() if traced else contextlib.nullcontext():
                wall, results = _run_calls(cli, calls, workdir, threads)
            missing.update(tracer.missing)
            attempted += 1
            bad = [
                reason
                for call, code, out, err in results
                if (reason := checker.check(call, code, out, err, workdir)) is not None
            ]
            if bad:
                failed += 1
                reasons += bad
            passes.append((wall, tracer.spans))
        (plain_wall, _), (traced_wall, spans), (_, pinned_spans) = passes
        metrics = summarize(spans)
        pinned_kernel = kernel_seconds(pinned_spans)
        metrics["threads.kernel_speedup"] = (
            kernel_seconds(spans) / pinned_kernel if pinned_kernel > 0 else 0.0
        )
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        rounds.append(metrics)
        last_spans = spans
        round_wall = time.perf_counter() - round_start

    write_spans(spans_path, last_spans)
    medians = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    medians["threads.workers"] = pinned
    return {
        "metrics": medians,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "samples": len(rounds),
        "missing": sorted(missing),
    }
