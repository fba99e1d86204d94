"""Smoke self-test of the benchmark (about a minute).

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` at a tiny size, untraced and
traced, and checks that each run passes its correctness gate and prints
exactly the metrics ``BENCHMARK.json`` names, each with its unit.  Then it
breaks the program on purpose (in this process only) and checks that the
gate notices and the command exits non-zero.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_ARGS = ["--seed", "7", "--seconds", "1", "--scale", "0.05"]


def run_workload(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--trace", str(trace)]
        + SMOKE_ARGS,
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: dict[str, str], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, (label, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected, (label, sorted(set(units) ^ set(expected)))
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (label, name, value)


def check_gate_fails() -> None:
    """A cache whose byte accounting disagrees with its tree must fail the
    run: ``correct`` false, and a non-zero exit status."""
    sys.path.insert(0, str(HERE))
    import run  # noqa: E402  (puts the program's source on sys.path)
    from repro.core.cache import MarconiCache

    original = MarconiCache.recompute_used_bytes
    MarconiCache.recompute_used_bytes = lambda self: original(self) + 1
    try:
        status = run.main(["--workload", "agent-evict", "--trace", "0"] + SMOKE_ARGS)
    finally:
        MarconiCache.recompute_used_bytes = original
    assert status == 1, f"a broken cache exited {status}, expected 1"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, e2e), (1, layers)):
            check_result(run_workload(workload, trace), expected, f"{workload} trace={trace}")
            print(f"ok {workload} --trace {trace}", flush=True)
    check_gate_fails()
    print("ok a broken cache fails the gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
