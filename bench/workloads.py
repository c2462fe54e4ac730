"""The four benchmark workloads: which ``ringsim`` calls one iteration makes,
how much work that is, and how each call's output is checked.

Each workload is one closed-loop client: it issues the calls of an iteration
one after another, each after the previous one has finished.  Two sizes
exist: ``full`` is what the benchmark measures, ``tiny`` is what the
self-test runs.  Golden SHA-256 digests of every sweep output, for both
sizes, live in ``golden.json``; they were recorded from the library before
any optimisation, so a change that alters a single output byte fails.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN_PATH = Path(__file__).with_name("golden.json")

QUICK_MODES = (
    "single-bus",
    "langevin-compare",
    "attenuation-chain",
    "add-drop",
    "critical-dip",
)


@dataclass(frozen=True)
class Call:
    """One ``ringsim`` invocation.

    ``out`` names the file the sweep writes, inside the run's work
    directory; ``None`` marks the audit, whose result is its stdout.
    """

    args: tuple[str, ...]
    out: str | None

    @property
    def key(self) -> str:
        """Golden-digest key: the arguments, without the output path."""
        return " ".join(self.args)

    def argv(self, workdir: Path) -> list[str]:
        if self.out is None:
            return list(self.args)
        return [*self.args, "--out", str(workdir / self.out)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str
    """What one unit of ``work`` is, for the throughput line."""
    work: dict[str, int]
    """Work items one iteration does, per size."""
    calls: Callable[[int, int, str], list[Call]]
    """``(seed, iteration, size) -> calls`` of that iteration."""


def _sets(**params: object) -> tuple[str, ...]:
    out: list[str] = []
    for key, value in params.items():
        out += ["--set", f"{key}={value}"]
    return tuple(out)


def _quick_calls(seed: int, iteration: int, size: str) -> list[Call]:
    # The seed fixes the order in which the client issues the five modes.
    order = list(QUICK_MODES)
    random.Random(seed * 1_000_003 + iteration).shuffle(order)
    return [Call((mode,), f"{mode}.csv") for mode in order]


_ENTROPY_GRID = {"full": (61, 61, 121), "tiny": (5, 5, 9)}
_CENSUS_GRID = {"full": (201, 201, 401), "tiny": (9, 9, 17)}
_AUDIT_SAMPLES = {"full": 5000, "tiny": 20}


def _entropy_calls(seed: int, iteration: int, size: str) -> list[Call]:
    taus, etas, thetas = _ENTROPY_GRID[size]
    args = ("entropy-grid",) + _sets(
        alpha=0.75, tau_count=taus, eta_count=etas, theta_count=thetas
    ) + ("--format", "csv")
    return [Call(args, "entropy-grid.csv")]


def _census_calls(seed: int, iteration: int, size: str) -> list[Call]:
    taus, etas, thetas = _CENSUS_GRID[size]
    args = ("homm-grid",) + _sets(
        alpha=0.9, threshold=0.0001, tau_count=taus, eta_count=etas, theta_count=thetas
    ) + ("--format", "json")
    return [Call(args, "homm-grid.json")]


def _audit_calls(seed: int, iteration: int, size: str) -> list[Call]:
    return [Call(("audit", "--seed", str(seed), "--samples", str(_AUDIT_SAMPLES[size])), None)]


def _points(grid: dict[str, tuple[int, int, int]]) -> dict[str, int]:
    return {size: a * b * c for size, (a, b, c) in grid.items()}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "quick-sweeps",
            "five default sweeps, one process each: interpreter start and import "
            "dominate, the grid kernels are bypassed",
            "sweeps",
            {"full": len(QUICK_MODES), "tiny": len(QUICK_MODES)},
            _quick_calls,
        ),
        Workload(
            "entropy-dense",
            "entropy-grid on 450k points to CSV: every point is a row, so row "
            "assembly and CSV render dominate the entropy kernel",
            "points",
            _points(_ENTROPY_GRID),
            _entropy_calls,
        ),
        Workload(
            "census-sparse",
            "homm-grid on 16.2M points to JSON: the coincidence kernel dominates "
            "and under 0.3% of points become rows",
            "points",
            _points(_CENSUS_GRID),
            _census_calls,
        ),
        Workload(
            "audit-scalar",
            "identity audit with 5000 seeded draws: the only workload on the "
            "scalar per-point routes",
            "draws",
            dict(_AUDIT_SAMPLES),
            _audit_calls,
        ),
    )
}


def load_golden() -> dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class OutputChecker:
    """Decides whether one call's result is correct.

    A call fails on a non-zero exit, a traceback on stderr, a sweep output
    whose digest differs from the golden one, or an audit that does not end
    in ``audit: PASS``.  The audit text depends on the seed, so it has no
    golden digest; instead every audit of one run must print the same bytes.
    """

    def __init__(self, golden: dict[str, str]) -> None:
        self.golden = golden
        self._audit_seen: dict[str, str] = {}

    def check(
        self, call: Call, returncode: int, stdout: str, stderr: str, workdir: Path
    ) -> str | None:
        """Return ``None`` when the call is correct, else the reason it is not."""
        if returncode != 0:
            return f"{call.key}: exit code {returncode}"
        if "Traceback" in stderr:
            return f"{call.key}: traceback on stderr"
        if call.out is None:
            lines = stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("audit: PASS"):
                return f"{call.key}: audit did not pass"
            digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
            if self._audit_seen.setdefault(call.key, digest) != digest:
                return f"{call.key}: audit output changed between iterations"
            return None
        want = self.golden.get(call.key)
        if want is None:
            return f"{call.key}: no golden digest recorded"
        path = workdir / call.out
        if not path.is_file():
            return f"{call.key}: no output file"
        # Removed once checked, so a later call that writes nothing fails.
        digest = sha256_file(path)
        path.unlink()
        if digest != want:
            return f"{call.key}: output digest differs from the golden digest"
        return None
