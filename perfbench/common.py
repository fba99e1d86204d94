"""Helpers shared by the workloads: seeds, statistics, memory, reporting."""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np


def derive_seed(seed: int, tag: str) -> int:
    """A stable per-component seed (no dependence on Python's str hashing)."""
    return (seed * 1_000_003 + zlib.crc32(tag.encode())) % (1 << 31)


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def tail_percentile(n: int) -> float:
    """The highest of p99.9/p99/p90/p50 that leaves >= 10 samples beyond it."""
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn: Callable[[], object]) -> tuple[float, object]:
    """Run ``fn`` once after a full collection; return (seconds, result).

    Collecting first keeps a repetition from paying for the previous one's
    cyclic garbage inside its timed window.
    """
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def digest(rows: Iterable[tuple]) -> str:
    """Order-insensitive short hash of per-request rows."""
    h = hashlib.sha256()
    for row in sorted(rows):
        h.update(repr(row).encode())
    return h.hexdigest()[:16]


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, line: str) -> None:
        self.notes.append(line)


def check_caches(caches: list, violations: list[str]) -> None:
    """Structural and accounting invariants of finished caches."""
    for i, cache in enumerate(caches):
        try:
            cache.tree.check_integrity()
        except AssertionError as exc:
            violations.append(f"cache {i}: radix tree integrity: {exc}")
        recomputed = cache.recompute_used_bytes()
        if cache.used_bytes != recomputed:
            violations.append(
                f"cache {i}: used_bytes {cache.used_bytes} != recomputed {recomputed}"
            )
        pinned = sum(1 for node in cache.tree.iter_nodes() if node.pin_count)
        if pinned:
            violations.append(f"cache {i}: {pinned} nodes still pinned")
        if cache.open_sessions:
            violations.append(f"cache {i}: {cache.open_sessions} sessions still open")


def pct(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))
