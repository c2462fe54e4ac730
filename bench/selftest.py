"""Self-test of the benchmark harness at tiny sizes.

Shows that every workload runs, timed and traced, with every metric
reported and no failure, and that an output whose digest differs from the
golden one is counted as a failure.  Run from the root of a checkout:

    python3 bench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, load_golden  # noqa: E402


def test_every_workload_runs_at_tiny_size() -> None:
    for name in WORKLOADS:
        timed = run.measure(name, seed=7, seconds=0.0, trace=False, size="tiny")
        assert timed["correct"] and timed["failed"] == 0, (name, timed["reasons"])
        assert set(timed["metrics"]) == set(run.END_TO_END), name
        assert all(m["value"] > 0 for m in timed["metrics"].values()), (name, timed)

        traced = run.measure(name, seed=7, seconds=0.0, trace=True, size="tiny")
        assert traced["correct"] and traced["failed"] == 0, (name, traced["reasons"])
        assert set(traced["metrics"]) == set(tracing.PER_LAYER), name
        assert not traced["extra"]["missing"], (name, traced["extra"]["missing"])
        overhead = abs(traced["metrics"]["trace.overhead_s"]["value"])
        assert abs(traced["extra"]["accounting_gap_s"]) <= max(overhead, 1e-9), (name, traced)
        print(f"ok {name}: timed and traced")


def test_corrupted_digest_counts_as_failure() -> None:
    golden = load_golden()
    call = WORKLOADS["entropy-dense"].calls(0, 0, "tiny")[0]
    good = golden[call.key]
    golden[call.key] = ("0" if good[0] != "0" else "1") + good[1:]
    result = run.measure(
        "entropy-dense", seed=7, seconds=0.0, trace=False, size="tiny", golden=golden
    )
    assert not result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"], result
    assert any("golden digest" in reason for reason in result["reasons"]), result["reasons"]
    print("ok corrupted digest counted as a failure")


if __name__ == "__main__":
    test_every_workload_runs_at_tiny_size()
    test_corrupted_digest_counts_as_failure()
    print("selftest: PASS")
