"""In-memory span tracing of the program's layers, applied from outside.

``instrument()`` replaces the public functions of each layer (class
attributes of the ``repro`` modules) with wrappers that record one span per
call: name, start, end and the span that was open when the call began (its
parent).  Spans live in flat arrays for the duration of one traced replay;
``Tracer.layer_times()`` then folds them into per-layer totals and self
times (a span's duration minus the part its child spans cover).  Nothing
in ``src/`` is edited: the wrappers are installed on the classes for the
traced run only and removed afterwards, so untraced runs execute the
program's own functions.

Gateway workers interleave on one event loop, so spans must never straddle
an ``await``: of the serve-steps generator only the first step (session
begin and the first token) is one synchronous span; the commit inside the
last step is covered by the session spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array
from typing import Any, Callable, Iterator, Optional

from repro.cluster import directory as directory_mod
from repro.cluster import router as router_mod
from repro.core import eviction as eviction_mod
from repro.core import eviction_index as eviction_index_mod
from repro.core import interfaces as interfaces_mod
from repro.core import radix_tree as radix_mod
from repro.engine import kernel as kernel_mod
from repro.serving import replay as replay_mod
from repro.workloads import trace as trace_mod

_OBSERVER_CALLBACKS = (
    "on_node_added",
    "on_edge_split",
    "on_leaf_removed",
    "on_merged",
    "on_leaf_truncated",
    "on_checkpoint_changed",
    "on_pin_changed",
    "on_touched",
)


class Tracer:
    """Span recorder: four parallel arrays plus the open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: Counters recorded at the same boundaries as the spans.
        self.counts: dict[str, int] = {}
        #: Return values captured by ``keep_result`` wrappers, by span name.
        self.results: dict[str, list] = {}

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        keep_result: bool = False,
    ) -> Callable:
        """``fn`` recording one span per call; ``after(tracer, args, result)``
        runs once the span has closed (counter upkeep, outside the span)."""
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        kept = self.results.setdefault(name, []) if keep_result else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if kept is not None:
                kept.append(result)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def wrap_first_step(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function so that its first step is one span.

        The later steps are delegated with ``yield from``, untimed: a span
        per decode step would cost more than the step itself.
        """
        step = self.wrap(name, next)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                first = step(gen)
            except StopIteration as stop:
                return stop.value
            yield first
            return (yield from gen)

        return traced

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total`` (inclusive s) and ``self`` (s)."""
        n = len(self.name_id)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in self.names}
        names, name_id = self.names, self.name_id
        for i in range(n):
            row = out[names[name_id[i]]]
            duration = end[i] - start[i]
            row["calls"] += 1
            row["total"] += duration
            row["self"] += duration - child[i]
        return out


def _defining_classes(module, method: str, base: type) -> list[type]:
    """Classes of ``module`` deriving from ``base`` that implement ``method``
    themselves (abstract declarations excluded)."""
    return [
        obj
        for obj in vars(module).values()
        if inspect.isclass(obj)
        and issubclass(obj, base)
        and obj.__module__ == module.__name__
        and method in vars(obj)
        and not getattr(vars(obj)[method], "__isabstractmethod__", False)
    ]


_ORIGINAL_CANDIDATES = eviction_index_mod.EvictionIndex.candidates


def _count_candidates(tracer: Tracer, args: tuple, victim: Any) -> None:
    # The policy just scored the index's current snapshot; reading it again
    # through the unwrapped method returns the cached list (no flush).
    index = args[1]
    tracer.bump("evict.selects")
    tracer.bump("evict.candidates", len(_ORIGINAL_CANDIDATES(index)))


def _targets(tracer: Tracer) -> list[tuple[type, str, Callable]]:
    """(class, attribute, wrapper) for every traced layer boundary."""
    out: list[tuple[type, str, Callable]] = []

    def add(cls: type, attr: str, name: str, **kwargs) -> None:
        out.append((cls, attr, tracer.wrap(name, vars(cls)[attr], **kwargs)))

    add(trace_mod.TraceSession, "interned_round", "workloads.intern")
    add(kernel_mod.SimulationKernel, "run", "kernel.run", keep_result=True)
    for method in ("enqueue", "on_step_done"):
        for cls in _defining_classes(kernel_mod, method, kernel_mod.ReplicaScheduler):
            add(cls, method, f"sched.{method}")
    for attr in ("begin", "begin_many"):
        add(interfaces_mod.PrefixCache, attr, f"session.{attr}")
    for attr in ("commit", "abort"):
        add(interfaces_mod.RequestSession, attr, f"session.{attr}")
    for attr in (
        "match",
        "insert",
        "remove_leaf",
        "merge_into_child",
        "pin_path",
        "unpin_path",
    ):
        add(radix_mod.RadixTree, attr, f"radix.{attr}")
    for cls in _defining_classes(
        eviction_mod, "select_from_index", eviction_mod.EvictionPolicy
    ):
        add(cls, "select_from_index", "evict.select", after=_count_candidates)
    for attr in ("candidates", "get"):
        add(eviction_index_mod.EvictionIndex, attr, f"evindex.{attr}")
    add(directory_mod.PrefixDirectory, "lookup", "dir.lookup")
    add(directory_mod.PrefixDirectory, "close", "dir.close")
    for attr in _OBSERVER_CALLBACKS:
        for cls in _defining_classes(directory_mod, attr, radix_mod.TreeObserver):
            add(cls, attr, "dir.update")
    for attr in ("decide", "route"):
        for cls in _defining_classes(router_mod, attr, router_mod.Router):
            add(cls, attr, f"router.{attr}")
    server = replay_mod.CacheOnlyServer
    first_step = tracer.wrap_first_step("gw.first_step", vars(server)["serve_steps"])
    out.append((server, "serve_steps", first_step))
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install the span wrappers for the ``with`` block, then restore the
    program's own functions."""
    targets = _targets(tracer)
    saved = [(cls, attr, vars(cls)[attr]) for cls, attr, _ in targets]
    for cls, attr, wrapper in targets:
        setattr(cls, attr, wrapper)
    try:
        yield tracer
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)
