"""The two trace-replay workloads: ``agent-evict`` and ``fleet-route``.

Both replay seeded traces through the program's public entry points
(``SimulationKernel.run`` for one replica, ``ClusterSimulator.run`` for a
fleet) and time each replay from outside.  The caches, the records and (for
the fleet) the directory are checked after every replay, outside its timed
window.  An untraced run replays many independent sub-traces of one seed and
pools them.  A traced run alternates untraced and traced replays of
sub-trace 0.  Every replay gets fresh caches, a fresh router and fresh
``TraceSession`` objects around the same rounds, so no repetition reuses the
interned token handles, cache contents or garbage of the previous one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import mean
from typing import Any, Callable, Optional

from common import (
    Outcome,
    check_caches,
    derive_seed,
    digest,
    median,
    pct,
    peak_rss_mb,
    tail_percentile,
    timed,
)
from layers import layer_metrics
from repro.cluster.router import DirectoryRouter
from repro.cluster.simulator import ClusterSimulator
from repro.core.cache import MarconiCache
from repro.engine.kernel import KernelConfig, SimulationKernel
from repro.engine.latency import LatencyModel
from repro.models.presets import hybrid_7b
from repro.tiering.tiered_cache import TieredMarconiCache
from repro.workloads.mixture import mix_traces
from repro.workloads.registry import generate_trace
from repro.workloads.trace import Trace, TraceSession
from tracing import Tracer, instrument

MODEL = hybrid_7b()
GB = 10**9
#: Traced runs alternate untraced and traced replays of sub-trace 0 at
#: least this often (the counter self-check compares two traced replays).
MIN_TRACED = 2


@dataclass
class Fleet:
    """One replay's freshly built system under test."""

    run: Callable[[Trace], Any]
    caches: list
    router: Optional[DirectoryRouter] = None
    transfer_bandwidth: float = 0.0


@dataclass
class SimSpec:
    make_trace: Callable[[int, int, float], Trace]  # (seed, sub-trace, scale)
    build: Callable[[], Fleet]
    #: Sub-traces an untraced run replays per second of ``--seconds``.
    #: Each is an independent draw from the run's seed; pooling many keeps
    #: the figures from hinging on one draw's template pool (the docqa
    #: documents, the agent repositories) or one burst of long prefills.
    #: Sized so one sub-trace (generate, build, replay, check) takes
    #: about 1/rate seconds on a 2-core Xeon.
    subtraces_per_second: float


def _agent_trace(seed: int, k: int, scale: float) -> Trace:
    return generate_trace(
        "swebench",
        n_sessions=max(2, round(240 * scale)),
        session_rate=0.5,
        mean_think_s=7.5,
        seed=derive_seed(seed, f"swebench-{k}"),
    )


def _agent_fleet() -> Fleet:
    cache = MarconiCache(MODEL, 40 * GB, eviction="flop_aware", alpha=1.0)
    kernel = SimulationKernel(MODEL, [cache], config=KernelConfig(max_running=4))
    # Looked up per call, so a traced replay reaches the wrapped method.
    return Fleet(run=lambda trace: kernel.run(trace), caches=[cache])


def _fleet_trace(seed: int, k: int, scale: float) -> Trace:
    # 300 chat + 200 document-QA sessions; each component arrives at its
    # share of 4 sessions/s so both span the same window.
    components = []
    for name, sessions, rate in (("lmsys", 300, 2.4), ("docqa", 200, 1.6)):
        components.append(
            generate_trace(
                name,
                n_sessions=max(2, round(sessions * scale)),
                session_rate=rate,
                seed=derive_seed(seed, f"{name}-{k}"),
            )
        )
    return mix_traces(components)


FLEET_REPLICAS = 256
FLEET_LINK_BYTES_PER_S = 3e9


def _route_fleet() -> Fleet:
    caches = [
        TieredMarconiCache(MODEL, 32 * GB, secondary_bytes=32 * GB, alpha=1.0)
        for _ in range(FLEET_REPLICAS)
    ]
    router = DirectoryRouter()
    sim = ClusterSimulator(
        MODEL,
        caches,
        router,
        latency=LatencyModel(transfer_bandwidth_bytes_per_s=FLEET_LINK_BYTES_PER_S),
        max_running=4,
    )
    return Fleet(
        run=sim.run,
        caches=caches,
        router=router,
        transfer_bandwidth=FLEET_LINK_BYTES_PER_S,
    )


SPECS = {
    "agent-evict": SimSpec(_agent_trace, _agent_fleet, 0.8),
    "fleet-route": SimSpec(_fleet_trace, _route_fleet, 0.7),
}


def fresh_sessions(trace: Trace) -> Trace:
    """The same inputs in new ``TraceSession`` objects (empty intern cache)."""
    return Trace(
        name=trace.name,
        seed=trace.seed,
        sessions=[
            TraceSession(s.session_id, s.arrival_time, s.rounds, s.think_times)
            for s in trace.sessions
        ],
        metadata=trace.metadata,
    )


@dataclass
class Replay:
    """One replay's wall time and what the checks found; the caches and the
    result objects are dropped once their numbers have been read."""

    wall: float
    records: list
    violations: list[str]
    counters: dict[str, int] = field(default_factory=dict)
    digest: str = ""
    #: Non-span inputs of the per-layer metrics (simulated queueing,
    #: directory/router/steering counters).
    info: dict[str, float] = field(default_factory=dict)
    #: Per span name ``{calls, total, self}`` of a traced replay.
    spans: dict[str, dict[str, float]] = field(default_factory=dict)


def replay_once(spec: SimSpec, base: Trace, tracer: Optional[Tracer] = None) -> Replay:
    trace = fresh_sessions(base)
    fleet = spec.build()
    violations: list[str] = []
    check_seconds = 0.0
    if fleet.router is not None:
        # The simulator closes its router's directory at the end of run();
        # check the directory just before that, and keep the check's time
        # out of the replay's wall time.
        router = fleet.router
        release = router.release

        def checked_release() -> None:
            nonlocal check_seconds
            start = time.perf_counter()
            try:
                router.directory.check_integrity()
            except AssertionError as exc:
                violations.append(f"directory integrity: {exc}")
            check_seconds += time.perf_counter() - start
            release()

        router.release = checked_release
    if tracer is None:
        wall, result = timed(lambda: fleet.run(trace))
    else:
        with instrument(tracer):
            wall, result = timed(lambda: fleet.run(trace))
    records = [rec for res in result.replica_results for rec in res.records]
    replay = Replay(wall - check_seconds, records, violations)
    _check(replay, trace, fleet, result)
    if tracer is not None:
        replay.spans = tracer.layer_times()
        kernel_runs = tracer.results.get("kernel.run") or []
        replay.info["kernel_events"] = sum(run.n_events for run in kernel_runs)
        replay.counters.update({f"traced_{k}": v for k, v in tracer.counts.items()})
        replay.counters.update(
            {f"calls_{name}": row["calls"] for name, row in replay.spans.items()}
        )
    return replay


def _check(replay: Replay, trace: Trace, fleet: Fleet, result: Any) -> None:
    """Correctness gate, deterministic counters and per-layer inputs of one
    finished replay."""
    violations = replay.violations
    caches = fleet.caches
    check_caches(caches, violations)
    expected = {
        (s.session_id, k) for s in trace.sessions for k in range(s.n_rounds)
    }
    got = [(rec.session_id, rec.round_index) for rec in replay.records]
    if len(got) != len(expected) or set(got) != expected:
        violations.append(
            f"records: {len(got)} records ({len(set(got))} distinct) for "
            f"{len(expected)} trace requests"
        )
    steering = result.steering
    if fleet.transfer_bandwidth:
        try:
            steering.check_conservation(fleet.transfer_bandwidth)
        except AssertionError as exc:
            violations.append(f"transfer conservation: {exc}")
    counters = {
        "requests": len(replay.records),
        "hit_tokens": sum(rec.hit_tokens for rec in replay.records),
        "evictions": sum(c.stats.evictions for c in caches),
        "eviction_node_visits": sum(c.eviction_node_visits for c in caches),
        "rejected_admissions": sum(c.stats.rejected_admissions for c in caches),
        "radix_nodes_end": sum(c.tree.n_nodes for c in caches),
    }
    directory_stats = getattr(result, "directory_stats", None) or {}
    for key in ("lookups", "events", "n_nodes", "splits", "pruned_nodes"):
        if key in directory_stats:
            counters[f"dir_{key}"] = directory_stats[key]
    for key, value in (getattr(result, "router_stats", None) or {}).items():
        counters[f"router_{key}"] = value
    for key, value in steering.counters.items():
        counters[f"steer_{key}"] = value
    replay.counters = counters
    replay.digest = digest(
        (rec.session_id, rec.round_index, rec.hit_tokens, repr(rec.ttft))
        for rec in replay.records
    )
    replicas = result.replica_results
    replay.info = {
        "sim_queue_depth_mean": mean(r.mean_queue_depth() for r in replicas),
        "sim_utilization": mean(r.executor_utilization() for r in replicas),
        "load_imbalance": getattr(result, "load_imbalance", 0.0),
        "link_wait_s": steering.link_wait_seconds,
    }


def _same(first: Replay, again: Replay, label: str, outcome: Outcome) -> None:
    """Work counters and the decision digest must repeat exactly."""
    if again.counters != first.counters:
        diff = {
            k: (first.counters.get(k), again.counters.get(k))
            for k in sorted(set(first.counters) | set(again.counters))
            if first.counters.get(k) != again.counters.get(k)
        }
        outcome.violations.append(f"{label}: work counters differ between replays: {diff}")
    if again.digest != first.digest:
        outcome.violations.append(f"{label}: decision digest differs between replays")


def _account(replay: Replay, expected: int, outcome: Outcome) -> None:
    outcome.violations.extend(replay.violations)
    outcome.attempted += expected
    outcome.failed += max(0, expected - len(replay.records))


def run(name: str, seed: int, seconds: float, trace: bool, scale: float) -> Outcome:
    spec = SPECS[name]
    outcome = Outcome()
    if trace:
        return _run_traced(spec, seed, seconds, scale, outcome)
    # An untimed replay of sub-trace 0 first pays lazy imports and heap
    # growth, and is the reference its timed replay must repeat exactly.
    warm = replay_once(spec, spec.make_trace(seed, 0, scale))
    _account(warm, len(warm.records), outcome)
    replays, setups = [], []
    for k in range(max(2, round(seconds * spec.subtraces_per_second))):
        gen_s, base = timed(lambda: spec.make_trace(seed, k, scale))
        build_s, _ = timed(spec.build)
        setups.append(gen_s + build_s)
        replay = replay_once(spec, base)
        _account(replay, base.n_requests, outcome)
        if k == 0:
            _same(warm, replay, "sub-trace 0", outcome)
        replays.append(replay)
    _end_to_end(replays, median(setups), outcome)
    return outcome


def _run_traced(
    spec: SimSpec, seed: int, seconds: float, scale: float, outcome: Outcome
) -> Outcome:
    gen_s, base = timed(lambda: spec.make_trace(seed, 0, scale))
    warm = replay_once(spec, base)  # untimed: pays lazy imports and heap growth
    deadline = time.perf_counter() + seconds
    plain: list[Replay] = []
    traced: list[Replay] = []
    while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
        plain.append(replay_once(spec, base))
        traced.append(replay_once(spec, base, Tracer()))
    for group in ([warm] + plain, traced):
        for replay in group:
            _account(replay, base.n_requests, outcome)
            _same(group[0], replay, "sub-trace 0", outcome)
    outcome.note(f"digest {traced[0].digest} (per-request hit tokens + simulated TTFT)")
    outcome.note(
        "work counters "
        + " ".join(f"{k}={v}" for k, v in sorted(traced[0].counters.items()))
    )
    untraced_wall = median(r.wall for r in plain)
    per_replay = [
        layer_metrics(
            spans=r.spans,
            counters=r.counters,
            info=r.info,
            wall=r.wall,
            untraced_wall=untraced_wall,
            n_requests=base.n_requests,
            input_tokens=base.total_input_tokens,
            gen_s=gen_s,
        )
        for r in traced
    ]
    for metric, (_, unit) in per_replay[0].items():
        outcome.put(metric, median(m[metric][0] for m in per_replay), unit)
    return outcome


def _end_to_end(replays: list[Replay], setup_s: float, outcome: Outcome) -> None:
    """Pooled over the sub-traces: requests over summed replay wall time,
    hit rate and simulated TTFT over all their records."""
    records = [rec for replay in replays for rec in replay.records]
    n = len(records)
    ttft_ms = [rec.ttft * 1e3 for rec in records]
    tail = tail_percentile(n)
    outcome.put("req_per_s", n / sum(r.wall for r in replays), "1/s")
    outcome.put(
        "token_hit_rate",
        sum(rec.hit_tokens for rec in records) / sum(rec.input_len for rec in records),
        "ratio",
    )
    outcome.put("ttft_p50_ms", pct(ttft_ms, 50), "ms")
    outcome.put("ttft_p90_ms", pct(ttft_ms, 90), "ms")
    outcome.put("setup_s", setup_s, "s")
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.note(
        f"digest {digest((r.digest,) for r in replays)} over {len(replays)} sub-traces "
        f"(per-request hit tokens + simulated TTFT)"
    )
    totals: dict[str, int] = {}
    for replay in replays:
        for key, value in replay.counters.items():
            totals[key] = totals.get(key, 0) + value
    outcome.note("work counters " + " ".join(f"{k}={v}" for k, v in sorted(totals.items())))
    walls = sorted(r.wall for r in replays)
    outcome.note(
        f"{len(replays)} sub-traces, {n} requests, replay wall s min {walls[0]:.4f} "
        f"median {median(walls):.4f} max {walls[-1]:.4f}; simulated TTFT (n={n}) "
        + " ".join(f"p{p:g} {pct(ttft_ms, p):.3f}" for p in sorted({50.0, 90.0, 99.0, tail}))
        + " ms"
    )
