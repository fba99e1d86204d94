"""Per-layer metrics of one traced run, the same table for every workload.

Each layer reports the self time of its spans as a share of the traced
wall time, a per-call cost where the layer has one, and the host-independent
work counts recorded at the same boundaries.  A layer a workload does not
exercise reports zero calls, zero time and zero counts.  The shares of all
layers plus the time no span covers add up to 1.  On the simulators that
remainder is ``other.self_share`` (result building around the kernel).  On
the gateway it is ``gw.self_share``: the gateway's own code, the asyncio
loop and the decode steps after the first.
"""

from __future__ import annotations

from typing import Optional

#: (name, unit, better) of every per-layer metric, in report order.
#: ``BENCHMARK.json`` lists the same; the smoke test keeps the two in step.
#: Work counts are "lower is better" (less work for the same replay).
METRICS: tuple[tuple[str, str, str], ...] = (
    ("workloads.gen_s", "s", "lower"),
    ("workloads.intern_share", "frac", "lower"),
    ("workloads.intern_us_per_req", "us/req", "lower"),
    ("workloads.input_tokens", "count", "higher"),
    ("kernel.events", "count", "lower"),
    ("kernel.events_per_req", "events/req", "lower"),
    ("kernel.us_per_event", "us/event", "lower"),
    ("kernel.self_share", "frac", "lower"),
    ("sched.self_share", "frac", "lower"),
    ("sched.sim_queue_depth_mean", "requests", "lower"),
    ("sched.sim_utilization", "frac", "higher"),
    ("session.begin_us", "us/call", "lower"),
    ("session.commit_us", "us/call", "lower"),
    ("session.self_share", "frac", "lower"),
    ("session.rejected", "count", "lower"),
    ("session.aborts", "count", "lower"),
    ("radix.match_us", "us/call", "lower"),
    ("radix.insert_us", "us/call", "lower"),
    ("radix.match_calls", "count", "lower"),
    ("radix.insert_calls", "count", "lower"),
    ("radix.self_share", "frac", "lower"),
    ("radix.nodes_end", "count", "lower"),
    ("evict.victims", "count", "lower"),
    ("evict.victims_per_req", "victims/req", "lower"),
    ("evict.select_us", "us/call", "lower"),
    ("evict.candidates_per_select", "cands/call", "lower"),
    ("evict.self_share", "frac", "lower"),
    ("evindex.flush_us", "us/call", "lower"),
    ("evindex.node_visits", "count", "lower"),
    ("evindex.visits_per_victim", "visits/victim", "lower"),
    ("evindex.self_share", "frac", "lower"),
    ("dir.lookup_us", "us/call", "lower"),
    ("dir.lookup_share", "frac", "lower"),
    ("dir.update_calls", "count", "lower"),
    ("dir.update_us", "us/call", "lower"),
    ("dir.update_share", "frac", "lower"),
    ("dir.close_share", "frac", "lower"),
    ("dir.nodes", "count", "lower"),
    ("dir.splits", "count", "lower"),
    ("dir.pruned", "count", "lower"),
    ("router.decide_us", "us/call", "lower"),
    ("router.self_share", "frac", "lower"),
    ("router.affinity_frac", "frac", "higher"),
    ("router.spilled", "count", "lower"),
    ("router.cold", "count", "lower"),
    ("router.load_imbalance", "cv", "lower"),
    ("steer.chose_load", "count", "lower"),
    ("steer.chose_split", "count", "lower"),
    ("steer.transfers_completed", "count", "lower"),
    ("steer.link_wait_s", "sim_s", "lower"),
    ("gw.queue_wait_p50_ms", "ms", "lower"),
    ("gw.queue_wait_p99_ms", "ms", "lower"),
    ("gw.first_step_us", "us/req", "lower"),
    ("gw.late_ms_p99", "ms", "lower"),
    ("gw.hit_rate", "ratio", "higher"),
    ("gw.admitted", "count", "higher"),
    ("gw.shed", "count", "lower"),
    ("gw.failed", "count", "lower"),
    ("gw.aborted", "count", "lower"),
    ("gw.goodput_rps", "1/s", "higher"),
    ("gw.decode_yields_per_req", "yields/req", "lower"),
    ("gw.self_share", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("other.self_share", "frac", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    *,
    spans: dict[str, dict[str, float]],
    counters: dict[str, int],
    info: dict[str, float],
    wall: float,
    untraced_wall: float,
    n_requests: int,
    input_tokens: int,
    gen_s: float,
    gw: Optional[dict[str, float]] = None,
) -> dict[str, tuple[float, str]]:
    """The :data:`METRICS` table for one traced run of ``wall`` seconds."""

    def calls(*names: str) -> int:
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def per_call_us(*names: str) -> float:
        total = sum(spans.get(n, {}).get("total", 0.0) for n in names)
        return _ratio(total * 1e6, calls(*names))

    def self_s(prefix: str) -> float:
        return sum(row["self"] for n, row in spans.items() if n.startswith(prefix))

    def share(prefix: str) -> float:
        return _ratio(self_s(prefix), wall)

    events = info.get("kernel_events", 0)
    victims = counters.get("evictions", 0)
    decisions = sum(counters.get(f"router_{k}", 0) for k in ("affinity", "spilled", "cold"))
    gw = gw or {}
    spanned = sum(row["self"] for row in spans.values())
    values = {
        "workloads.gen_s": gen_s,
        "workloads.intern_share": share("workloads."),
        "workloads.intern_us_per_req": _ratio(self_s("workloads.") * 1e6, n_requests),
        "workloads.input_tokens": input_tokens,
        "kernel.events": events,
        "kernel.events_per_req": _ratio(events, n_requests),
        "kernel.us_per_event": _ratio(self_s("kernel.") * 1e6, events),
        "kernel.self_share": share("kernel."),
        "sched.self_share": share("sched."),
        "sched.sim_queue_depth_mean": info.get("sim_queue_depth_mean", 0.0),
        "sched.sim_utilization": info.get("sim_utilization", 0.0),
        "session.begin_us": per_call_us("session.begin"),
        "session.commit_us": per_call_us("session.commit"),
        "session.self_share": share("session."),
        "session.rejected": counters.get("rejected_admissions", 0),
        "session.aborts": calls("session.abort"),
        "radix.match_us": per_call_us("radix.match"),
        "radix.insert_us": per_call_us("radix.insert"),
        "radix.match_calls": calls("radix.match"),
        "radix.insert_calls": calls("radix.insert"),
        "radix.self_share": share("radix."),
        "radix.nodes_end": counters.get("radix_nodes_end", 0),
        "evict.victims": victims,
        "evict.victims_per_req": _ratio(victims, n_requests),
        "evict.select_us": per_call_us("evict.select"),
        "evict.candidates_per_select": _ratio(
            counters.get("traced_evict.candidates", 0),
            counters.get("traced_evict.selects", 0),
        ),
        "evict.self_share": share("evict."),
        "evindex.flush_us": per_call_us("evindex.candidates", "evindex.get"),
        "evindex.node_visits": counters.get("eviction_node_visits", 0),
        "evindex.visits_per_victim": _ratio(
            counters.get("eviction_node_visits", 0), victims
        ),
        "evindex.self_share": share("evindex."),
        "dir.lookup_us": per_call_us("dir.lookup"),
        "dir.lookup_share": share("dir.lookup"),
        "dir.update_calls": calls("dir.update"),
        "dir.update_us": per_call_us("dir.update"),
        "dir.update_share": share("dir.update"),
        "dir.close_share": share("dir.close"),
        "dir.nodes": counters.get("dir_n_nodes", 0),
        "dir.splits": counters.get("dir_splits", 0),
        "dir.pruned": counters.get("dir_pruned_nodes", 0),
        "router.decide_us": per_call_us("router.decide")
        or per_call_us("router.route"),
        "router.self_share": share("router."),
        "router.affinity_frac": _ratio(counters.get("router_affinity", 0), decisions),
        "router.spilled": counters.get("router_spilled", 0),
        "router.cold": counters.get("router_cold", 0),
        "router.load_imbalance": info.get("load_imbalance", 0.0),
        "steer.chose_load": counters.get("router_chose_load", 0),
        "steer.chose_split": counters.get("router_chose_split", 0),
        "steer.transfers_completed": counters.get("steer_transfers_completed", 0),
        "steer.link_wait_s": info.get("link_wait_s", 0.0),
        "gw.first_step_us": per_call_us("gw.first_step"),
        "gw.self_share": _ratio(wall - spanned, wall) if gw else 0.0,
        "trace.overhead_frac": _ratio(wall, untraced_wall) - 1.0,
        "other.self_share": 0.0 if gw else _ratio(wall - spanned, wall),
    }
    for name in (
        "gw.queue_wait_p50_ms",
        "gw.queue_wait_p99_ms",
        "gw.late_ms_p99",
        "gw.hit_rate",
        "gw.admitted",
        "gw.shed",
        "gw.failed",
        "gw.aborted",
        "gw.goodput_rps",
        "gw.decode_yields_per_req",
    ):
        values[name] = gw.get(name, 0.0)
    return {name: (float(values[name]), unit) for name, unit, _ in METRICS}
