"""The ``chat-gateway`` workload: the live asyncio gateway, driven open-loop.

One process, one event loop.  Multi-turn chat sessions (``lmsys``) arrive
open-loop at a fixed offered request rate.  The rounds inside a session are
closed-loop: round k+1 is due one think time after round k's response.  They
are also teacher-forced, so every request's output is known and checked.
Each request's time to first token is measured from the moment it was *due*,
not from the ``submit`` call.  A stalled load generator or loop therefore
shows up as latency, and the load generator's own lateness is reported.

An untraced run plays the middle rate, then unbounded passes over many
independent session sets: every session is released at once with no think
time, and backpressure sets the pace.  A traced run plays the rate ladder for
goodput, then alternates untraced and traced unbounded passes over set 0.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

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
from repro.core.cache import MarconiCache
from repro.models.presets import hybrid_7b
from repro.serving import CacheOnlyServer, Gateway, GatewayConfig
from repro.serving.gateway import AdmissionRejected
from repro.workloads.registry import generate_trace
from repro.workloads.trace import Trace, TraceSession
from sim import fresh_sessions
from tracing import Tracer, instrument

MODEL = hybrid_7b()
#: Roomy: the whole run fits, so eviction never runs on this workload.
CAPACITY_BYTES = 10**15
N_WORKERS = 4
MAX_QUEUE_DEPTH = 1024
#: Offered request rates (req/s) of the ladder a traced run plays for the
#: goodput figure; untraced runs play only the middle one.  The middle rate
#: sits below the knee (about 120-160 req/s on a 2-core Xeon) where the four
#: workers start to queue behind long decodes: there a 30 s run gives TTFT
#: percentiles that repeat from seed to seed, while at the knee the tail is
#: set by a few bursts of long outputs.
RATES = (40.0, 80.0, 160.0)
MIDDLE_RATE = 80.0
#: TTFT limit for goodput (ms), on the highest percentile the phase supports.
SLO_MS = 25.0
MEAN_ROUNDS = 4.0  # lmsys rounds per session (nominal), to pace sessions
THINK_S = 0.1  # mean think time between a session's rounds (wall seconds)
#: Shares of ``--seconds``: the middle-rate window of an untraced run, and
#: each ladder window of a traced run; the unbounded passes get the rest.
MIDDLE_SHARE = 0.6
LADDER_SHARE = 0.15
#: Unbounded passes per second of ``--seconds``, each over an independent
#: set of sessions (about 0.6 s a pass on a 2-core Xeon).
SETS_PER_SECOND = 0.65
UNBOUNDED_SESSIONS = 60
MIN_TRACED = 2


@dataclass
class Phase:
    """Everything one driven phase produced and what its checks found."""

    wall: float
    #: One row per served request:
    #: (session, round, due, late s, TTFT-from-due s, queue s, hit, input, output).
    rows: list = field(default_factory=list)
    shed: int = 0
    abandoned: int = 0
    failed: int = 0
    stats: dict = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    spans: dict = field(default_factory=dict)
    nodes: int = 0  # radix nodes in the cache at the end
    rejected: int = 0  # admissions the cache rejected

    @property
    def attempted(self) -> int:
        return len(self.rows) + self.shed + self.abandoned + self.failed

    @property
    def misses(self) -> int:
        return self.shed + self.abandoned + self.failed

    def ttft_ms(self) -> list[float]:
        """TTFT of every attempted request; a miss counts as the phase wall
        time (longer than any TTFT the phase could have measured)."""
        return [row[4] * 1e3 for row in self.rows] + [self.wall * 1e3] * self.misses


def phase_trace(seed: int, rate: float, window_s: float) -> Trace:
    """Chat sessions whose rounds offer ``rate`` requests/s on average.

    Sessions arrive as a Poisson process; its time axis is rescaled by the
    trace's own rounds-per-session so the offered request rate does not
    drift with the seed's session mix.
    """
    trace = generate_trace(
        "lmsys",
        n_sessions=max(2, math.ceil(rate * window_s / MEAN_ROUNDS)),
        session_rate=rate / MEAN_ROUNDS,
        mean_think_s=THINK_S,
        seed=derive_seed(seed, f"gateway-{rate:g}"),
    )
    stretch = trace.n_requests / (MEAN_ROUNDS * trace.n_sessions)
    return Trace(
        name=trace.name,
        seed=trace.seed,
        sessions=[
            TraceSession(
                s.session_id, s.arrival_time * stretch, s.rounds, s.think_times
            )
            for s in trace.sessions
        ],
        metadata=trace.metadata,
    )


def unbounded_trace(seed: int, k: int, scale: float) -> Trace:
    return generate_trace(
        "lmsys",
        n_sessions=max(2, round(UNBOUNDED_SESSIONS * scale)),
        seed=derive_seed(seed, f"gateway-unbounded-{k}"),
    )


def build() -> Gateway:
    cache = MarconiCache(MODEL, CAPACITY_BYTES, eviction="flop_aware", alpha=1.0)
    return Gateway(
        CacheOnlyServer(cache),
        GatewayConfig(n_workers=N_WORKERS, max_queue_depth=MAX_QUEUE_DEPTH),
        clock=time.perf_counter,
    )


#: The event loop's timers fire up to a millisecond late (the selector
#: rounds its timeout to whole milliseconds); sleep to this margin before a
#: due time, then yield to the loop until the moment itself.
TIMER_MARGIN_S = 0.002


async def _until(due: float, clock) -> None:
    delay = due - clock() - TIMER_MARGIN_S
    if delay > 0:
        await asyncio.sleep(delay)
    while clock() < due:
        await asyncio.sleep(0)


async def _drive(gateway: Gateway, trace: Trace, paced: bool) -> Phase:
    clock = gateway.clock
    phase = Phase(wall=0.0)
    await gateway.start()

    async def play(session, due: float) -> None:
        done = due
        for k in range(session.n_rounds):
            if k:
                due = done + (session.think_times[k] if paced else 0.0)
            await _until(due, clock)
            outputs = session.rounds[k].output_tokens
            tokens = session.full_input(k)
            called = clock()
            try:
                result = await gateway.submit(tokens, len(outputs), forced_outputs=outputs)
            except AdmissionRejected:
                phase.shed += 1
                phase.abandoned += session.n_rounds - k - 1
                return
            except Exception as exc:  # a failed request is a miss, and a violation
                phase.failed += 1
                phase.abandoned += session.n_rounds - k - 1
                phase.violations.append(f"session {session.session_id} round {k}: {exc!r}")
                return
            done = clock()
            if not np.array_equal(result.output_tokens, outputs):
                phase.violations.append(
                    f"session {session.session_id} round {k}: output differs from forced"
                )
            phase.rows.append(
                (
                    session.session_id,
                    k,
                    due,
                    called - due,
                    called - due + result.ttft_seconds,
                    result.queue_seconds,
                    result.hit_tokens,
                    len(tokens),
                    len(outputs),
                )
            )

    start = clock()
    tasks = []
    for session in trace.sessions:  # sorted by arrival time
        due = start + session.arrival_time if paced else start
        await _until(due, clock)
        tasks.append(asyncio.create_task(play(session, due)))
    await asyncio.gather(*tasks)
    phase.wall = clock() - start
    await gateway.close()
    phase.stats = gateway.stats.snapshot()
    return phase


def _check(phase: Phase, gateway: Gateway, trace: Trace) -> None:
    s = phase.stats
    closed = s["completed"] + s["shed"] + s["failed"] + s["aborted"] + s["response_cache_hits"]
    if s["submitted"] != closed:
        phase.violations.append(f"gateway accounting does not close: {s}")
    if phase.attempted != trace.n_requests:
        phase.violations.append(
            f"{phase.attempted} rounds accounted for {trace.n_requests} trace requests"
        )
    if s["completed"] != len(phase.rows):
        phase.violations.append(
            f"gateway completed {s['completed']} but {len(phase.rows)} responses arrived"
        )
    cache = gateway.server.cache
    check_caches([cache], phase.violations)
    phase.nodes = cache.tree.n_nodes
    phase.rejected = cache.stats.rejected_admissions


def run_phase(trace: Trace, paced: bool, tracer: Optional[Tracer] = None) -> Phase:
    trace = fresh_sessions(trace)
    gateway = build()
    if tracer is None:
        _, phase = timed(lambda: asyncio.run(_drive(gateway, trace, paced)))
    else:
        with instrument(tracer):
            _, phase = timed(lambda: asyncio.run(_drive(gateway, trace, paced)))
        phase.spans = tracer.layer_times()
    _check(phase, gateway, trace)
    return phase


def _rate_summary(phase: Phase) -> dict[str, float]:
    """Tail TTFT, backlog growth and goodput of one fixed-rate phase."""
    ttft = phase.ttft_ms()
    tail = tail_percentile(len(ttft))
    dues = sorted((row[2], row[4]) for row in phase.rows)
    quarter = max(1, len(dues) // 4)
    first = median(t for _, t in dues[:quarter]) * 1e3
    last = median(t for _, t in dues[-quarter:]) * 1e3
    span = (dues[-1][0] - dues[0][0]) if len(dues) > 1 else phase.wall
    on_time = sum(1 for t in ttft if t <= SLO_MS)
    return {
        "tail": tail,
        "tail_ms": pct(ttft, tail),
        "growing": last > 2.0 * first + 1.0,
        "goodput": on_time / span if span > 0 else 0.0,
        "offered": phase.attempted / span if span > 0 else 0.0,
    }


def _ttft_note(label: str, phase: Phase) -> str:
    ttft = phase.ttft_ms()
    tail = tail_percentile(len(ttft))
    lates = [row[3] * 1e3 for row in phase.rows]
    tails = " ".join(f"p{p:g} {pct(ttft, p):.3f}" for p in sorted({50.0, 90.0, tail}))
    return (
        f"{label}: {phase.attempted} attempted, {phase.misses} missed, TTFT from due "
        f"{tails} ms (n={len(ttft)}), generator late p99 {pct(lates, 99):.3f} ms"
    )


def _account(phase: Phase, outcome: Outcome) -> None:
    outcome.violations.extend(phase.violations)
    outcome.attempted += phase.attempted
    outcome.failed += phase.misses


def _hit_rate(phase: Phase) -> float:
    return sum(r[6] for r in phase.rows) / sum(r[7] for r in phase.rows)


def run(name: str, seed: int, seconds: float, trace: bool, scale: float) -> Outcome:
    outcome = Outcome()
    # An untimed pass over set 0 pays lazy imports first, and is the
    # reference its timed pass must repeat exactly.
    warm = run_phase(unbounded_trace(seed, 0, scale), paced=False)
    _account(warm, outcome)
    if trace:
        return _run_traced(seed, seconds, scale, warm, outcome)
    middle = run_phase(phase_trace(seed, MIDDLE_RATE, MIDDLE_SHARE * seconds * scale), paced=True)
    _account(middle, outcome)
    outcome.note(_ttft_note(f"rate {MIDDLE_RATE:g}/s", middle))
    passes, setups = [], []
    for k in range(max(2, round(seconds * SETS_PER_SECOND))):
        setup_s, (base, _) = timed(lambda: (unbounded_trace(seed, k, scale), build()))
        setups.append(setup_s)
        phase = run_phase(base, paced=False)
        _account(phase, outcome)
        if k == 0:
            _same(warm, phase, "unbounded set 0", outcome)
        passes.append(phase)
    served = sum(len(p.rows) for p in passes)
    ttft = middle.ttft_ms()
    outcome.put("req_per_s", served / sum(p.wall for p in passes), "1/s")
    outcome.put("token_hit_rate", _hit_rate(middle), "ratio")
    outcome.put("ttft_p50_ms", pct(ttft, 50), "ms")
    outcome.put("ttft_p90_ms", pct(ttft, 90), "ms")
    outcome.put("setup_s", median(setups), "s")
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.note(
        f"unbounded: {len(passes)} session sets, {served} requests, "
        f"digest {digest((_work(p),) for p in passes)} (per-request decode steps)"
    )
    return outcome


def _run_traced(
    seed: int, seconds: float, scale: float, warm: Phase, outcome: Outcome
) -> Outcome:
    gen_s, base = timed(lambda: unbounded_trace(seed, 0, scale))
    ladder = [
        run_phase(phase_trace(seed, rate, LADDER_SHARE * seconds * scale), paced=True)
        for rate in RATES
    ]
    summaries = [_rate_summary(p) for p in ladder]
    for rate, phase, summary in zip(RATES, ladder, summaries):
        _account(phase, outcome)
        outcome.note(
            _ttft_note(f"rate {rate:g}/s", phase)
            + f", offered {summary['offered']:.1f}/s, backlog growing={summary['growing']}, "
            f"goodput {summary['goodput']:.1f}/s"
        )
    deadline = time.perf_counter() + (1.0 - len(RATES) * LADDER_SHARE) * seconds
    plain: list[Phase] = []
    traced: list[Phase] = []
    while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
        plain.append(run_phase(base, paced=False))
        traced.append(run_phase(base, paced=False, tracer=Tracer()))
    for phase in plain + traced:
        _account(phase, outcome)
        _same(warm, phase, "unbounded set 0", outcome)
    middle = ladder[RATES.index(MIDDLE_RATE)]
    passing = [s["goodput"] for s in summaries if s["tail_ms"] <= SLO_MS and not s["growing"]]
    queue_ms = [row[5] * 1e3 for row in middle.rows]
    gw = {
        "gw.queue_wait_p50_ms": pct(queue_ms, 50),
        "gw.queue_wait_p99_ms": pct(queue_ms, 99),
        "gw.late_ms_p99": pct([row[3] * 1e3 for row in middle.rows], 99),
        "gw.hit_rate": _hit_rate(middle),
        "gw.admitted": sum(p.stats["admitted"] for p in ladder),
        "gw.shed": sum(p.stats["shed"] for p in ladder),
        "gw.failed": sum(p.stats["failed"] for p in ladder),
        "gw.aborted": sum(p.stats["aborted"] for p in ladder),
        "gw.goodput_rps": max(passing) if passing else 0.0,
        "gw.decode_yields_per_req": sum(r[8] for r in middle.rows) / len(middle.rows),
    }
    untraced_wall = median(p.wall for p in plain)
    per_pass = [
        layer_metrics(
            spans=p.spans,
            counters={"radix_nodes_end": p.nodes, "rejected_admissions": p.rejected},
            info={},
            wall=p.wall,
            untraced_wall=untraced_wall,
            n_requests=base.n_requests,
            input_tokens=base.total_input_tokens,
            gen_s=gen_s,
            gw=gw,
        )
        for p in traced
    ]
    for metric, (_, unit) in per_pass[0].items():
        outcome.put(metric, median(m[metric][0] for m in per_pass), unit)
    return outcome


def _work(phase: Phase) -> str:
    """Served requests and per-request decode steps: fixed by the seed."""
    return digest((r[0], r[1], r[8]) for r in phase.rows)


def _same(first: Phase, again: Phase, label: str, outcome: Outcome) -> None:
    if (len(again.rows), _work(again)) != (len(first.rows), _work(first)):
        outcome.violations.append(f"{label}: served requests or decode steps differ between passes")
