"""Eviction policies: LRU, Marconi's FLOP-aware scoring, and classic comparators.

Eviction candidates are radix nodes with at most one child (section 4.3):
multi-child nodes are shared prefixes and are protected until their subtrees
drain.  Evicting a leaf frees its KVs and checkpoint; evicting a single-child
intermediate node frees only its checkpoint (the child absorbs the KVs), so
candidates that would free zero bytes are filtered out before scoring to
guarantee the eviction loop makes progress.

Beyond the paper's LRU baseline and FLOP-aware contribution, this module
carries the classic web-cache family section 4.2 positions Marconi against:
GDSF (Cherkasova 1998) and plain greedy-dual-size ("GDS", whose 1/size cost
signal is exactly the proxy the paper argues fails for fixed-size SSM
states), plus LFU, LRU-K, and a seeded random floor for ablations.
"""

from __future__ import annotations

import abc
import heapq
import itertools
import math
import random
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.node import RadixNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.eviction_index import EvictionIndex


@dataclass(slots=True)
class EvictionCandidate:
    """One evictable node with everything the scoring policies need.

    ``sort_key`` is precomputed at construction: the ``min()`` scans and the
    heap selectors compare it on every step, and candidates are rebuilt by
    the eviction index whenever their inputs change, so the key can never go
    stale.
    """

    node: RadixNode
    freeable_bytes: int
    flop_efficiency: float
    last_access: float
    is_leaf: bool
    sort_key: tuple[float, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Deterministic tie-break: older first, then smaller node id.
        self.sort_key = (self.last_access, self.node.node_id)


class EvictionPolicy(abc.ABC):
    """Chooses which candidate to evict next.

    Two selection surfaces exist:

    * :meth:`select_victim` — score an explicit candidate list (the seed
      API; still used by tests and the legacy full-scan mode).
    * :meth:`select_from_index` — select against a maintained
      :class:`~repro.core.eviction_index.EvictionIndex`.  The base
      implementation scores the index's cached candidate snapshot;
      heap-backed subclasses keep a lazy min-heap synced to the index and
      select in amortized O(log n) without touching the candidate set, and
      the FLOP-aware policy keeps two sorted mirrors of it.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        """Pick the next victim from a non-empty candidate list."""

    def bind_index(self, index: "EvictionIndex") -> None:
        """Attach to ``index``; subscribes selector state to its change feed.

        A hook the policy never overrode stays unset on the index, so the
        index skips that callback on the refresh hot path.
        """
        cls = type(self)
        index.on_candidate_changed = (
            None
            if cls.on_candidate_changed is EvictionPolicy.on_candidate_changed
            else self.on_candidate_changed
        )
        index.on_candidate_removed = (
            None
            if cls.on_candidate_removed is EvictionPolicy.on_candidate_removed
            else self.on_candidate_removed
        )

    def on_candidate_changed(self, candidate: EvictionCandidate) -> None:
        """Called by the bound index when a candidate is added or rebuilt."""

    def on_candidate_removed(self, candidate: EvictionCandidate) -> None:
        """Called by the bound index when a candidate leaves the set or is
        superseded by a rebuilt one (before the rebuilt one is reported)."""

    def select_from_index(self, index: "EvictionIndex") -> EvictionCandidate:
        """Pick the next victim using the maintained candidate index."""
        return self.select_victim(index.candidates())

    def notify_eviction(self, victim: EvictionCandidate) -> None:
        """Hook called after a victim is actually evicted (GDSF's clock)."""

    def notify_access(self, node: RadixNode, now: float) -> None:
        """Hook called on every cache hit (LRU-K's access history)."""

    def reset(self) -> None:
        """Clear any internal state."""


class _LazyHeapPolicy(EvictionPolicy):
    """Heap-backed selection with stale-entry skipping.

    The heap holds ``(key, seq, candidate)`` entries pushed whenever the
    bound index adds or rebuilds a candidate.  An entry is stale when the
    index no longer holds that exact candidate object (the index rebuilds
    candidates on any relevant change, so object identity doubles as a
    version check) or when its key has drifted (LRU-K history, LFU/GDSF hit
    counts — all of which only ever *increase* a key, so re-pushing at the
    corrected key preserves min-heap correctness).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[tuple, int, EvictionCandidate]] = []
        self._seq = itertools.count()

    @abc.abstractmethod
    def _heap_key(self, candidate: EvictionCandidate) -> tuple:
        """Current selection key; must be non-decreasing over a candidate's
        life (candidates are rebuilt — not mutated — on any other change)."""

    def bind_index(self, index: "EvictionIndex") -> None:
        super().bind_index(index)
        self._heap = []
        for candidate in index.candidates():
            self.on_candidate_changed(candidate)

    def on_candidate_changed(self, candidate: EvictionCandidate) -> None:
        heapq.heappush(
            self._heap, (self._heap_key(candidate), next(self._seq), candidate)
        )

    def select_from_index(self, index: "EvictionIndex") -> EvictionCandidate:
        heap = self._heap
        while heap:
            key, _, candidate = heap[0]
            if index.get(candidate.node.node_id) is not candidate:
                heapq.heappop(heap)  # superseded or evicted: discard
                continue
            fresh = self._heap_key(candidate)
            if fresh != key:
                heapq.heappop(heap)  # key drifted upward: re-rank
                heapq.heappush(heap, (fresh, next(self._seq), candidate))
                continue
            return candidate
        raise ValueError("no eviction candidates")

    def reset(self) -> None:
        self._heap = []


class LRUEviction(_LazyHeapPolicy):
    """Plain least-recently-used eviction — the SGLang+ baseline (policy V1)."""

    name = "lru"

    def _heap_key(self, candidate: EvictionCandidate) -> tuple:
        return candidate.sort_key

    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        if not candidates:
            raise ValueError("no eviction candidates")
        return min(candidates, key=lambda c: c.sort_key)


class FlopAwareEviction(EvictionPolicy):
    """Marconi's utility score: ``S(n) = recency(n) + alpha * flop_efficiency(n)``.

    Both terms are rank-normalized over the current candidate set into
    (0, 1] (tie-averaged, see :func:`_rank_normalize`), the reading of the
    paper's "normalized ... by comparing all nodes' last-accessed timestamps
    and FLOP saved/byte in the radix tree".  ``alpha = 0`` degenerates to
    LRU; a large ``alpha`` ranks purely by compute saved per byte.
    ``alpha`` is mutable so the bootstrap tuner can adopt the grid-search
    winner in place.

    Normalization is relative to the *whole* candidate set, so a victim
    cannot come off a heap.  :meth:`select_from_index` instead keeps two
    orders mirrored from the bound index's change feed — candidates sorted
    by ``sort_key`` (recency, then node id) and the sorted multiset of
    their FLOP efficiencies — and scores only the Pareto staircase of
    (recency, efficiency): a candidate earlier in ``sort_key`` order with
    no higher efficiency than another has a lower-or-equal score and wins
    the tie-break, so the other can never win.  Its decisions are identical
    to :meth:`select_victim`, the full rescoring kept as the reference.
    """

    name = "flop_aware"

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha
        # Mirrors of the bound index: three parallel lists in ``sort_key``
        # order (candidates, their sort keys, their efficiencies), and the
        # same efficiencies in ascending order.
        self._recency: list[EvictionCandidate] = []
        self._recency_keys: list[tuple[float, int]] = []
        self._recency_efficiencies: list[float] = []
        self._efficiencies: list[float] = []
        # Work counters of select_from_index: candidate-set sizes summed
        # over selections, and candidates actually scored.
        self.candidates_offered = 0
        self.candidates_scored = 0

    def scores(self, candidates: list[EvictionCandidate]) -> list[float]:
        """Utility score of every candidate against the candidate set."""
        recency = _rank_normalize([c.last_access for c in candidates])
        efficiency = _rank_normalize([c.flop_efficiency for c in candidates])
        return [r + self.alpha * e for r, e in zip(recency, efficiency)]

    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        if not candidates:
            raise ValueError("no eviction candidates")
        n = len(candidates)
        if n == 1:
            return candidates[0]
        alpha = self.alpha
        # Inlined tie-averaged rank scoring: one flat pass per term, scores
        # accumulated in place, same float expressions as
        # :func:`_rank_normalize` term by term.  This full rescoring is the
        # legacy full-scan mode's selector and the reference
        # :meth:`select_from_index` must agree with; under agent-style
        # pressure sets are not small (median 46 candidates on swebench),
        # which is why the indexed path walks the staircase instead.
        la = [c.last_access for c in candidates]
        scores = [0.0] * n
        order = sorted(range(n), key=la.__getitem__)
        i = 0
        while i < n:
            j = i
            vi = la[order[i]]
            while j + 1 < n and la[order[j + 1]] == vi:
                j += 1
            r = ((i + j) / 2.0 + 1.0) / n
            for k in range(i, j + 1):
                scores[order[k]] = r
            i = j + 1
        fe = [c.flop_efficiency for c in candidates]
        order = sorted(range(n), key=fe.__getitem__)
        i = 0
        while i < n:
            j = i
            vi = fe[order[i]]
            while j + 1 < n and fe[order[j + 1]] == vi:
                j += 1
            ae = alpha * (((i + j) / 2.0 + 1.0) / n)
            for k in range(i, j + 1):
                ki = order[k]
                scores[ki] = scores[ki] + ae
            i = j + 1
        # Fused min over (score, sort_key); sort_key ties are impossible
        # (node ids are unique), so the order is total.
        best = candidates[0]
        best_score = scores[0]
        best_key = best.sort_key
        for idx in range(1, n):
            score = scores[idx]
            if score < best_score:
                best = candidates[idx]
                best_score = score
                best_key = best.sort_key
            elif score == best_score:
                candidate = candidates[idx]
                if candidate.sort_key < best_key:
                    best = candidate
                    best_score = score
                    best_key = candidate.sort_key
        return best

    # ------------------------------------------------------------------
    # Mirrored orders, fed by the bound index
    # ------------------------------------------------------------------
    def bind_index(self, index: "EvictionIndex") -> None:
        super().bind_index(index)
        ordered = sorted(index.candidates(), key=lambda c: c.sort_key)
        self._recency = ordered
        self._recency_keys = [c.sort_key for c in ordered]
        self._recency_efficiencies = [c.flop_efficiency for c in ordered]
        self._efficiencies = sorted(self._recency_efficiencies)

    def on_candidate_changed(self, candidate: EvictionCandidate) -> None:
        key = candidate.sort_key
        efficiency = candidate.flop_efficiency
        i = bisect_left(self._recency_keys, key)
        self._recency_keys.insert(i, key)
        self._recency.insert(i, candidate)
        self._recency_efficiencies.insert(i, efficiency)
        insort(self._efficiencies, efficiency)

    def on_candidate_removed(self, candidate: EvictionCandidate) -> None:
        i = bisect_left(self._recency_keys, candidate.sort_key)
        del self._recency_keys[i]
        del self._recency[i]
        del self._recency_efficiencies[i]
        efficiencies = self._efficiencies
        del efficiencies[bisect_left(efficiencies, candidate.flop_efficiency)]

    def select_from_index(self, index: "EvictionIndex") -> EvictionCandidate:
        """Pick :meth:`select_victim`'s victim by walking the staircase.

        Walks the candidates in ``sort_key`` order and scores only those
        whose efficiency is strictly below every earlier candidate's (the
        rest are dominated, see the class docstring), with the same
        tie-averaged ranks and float expressions as :meth:`select_victim`:
        the recency tie group is read off the sorted keys, the efficiency
        rank is bisected from the sorted multiset.  In ``sort_key`` order a
        later equal score never wins, so the first minimum stands.  The
        walk stops once a staircase candidate's recency term plus the least
        efficiency term reaches the best score, or once the running minimum
        reaches the global minimum efficiency.  Efficiencies are finite
        (FLOPs saved over positive freed bytes).
        """
        n = len(index)  # settles pending index changes into the mirrors
        keys = self._recency_keys
        if n != len(keys):
            raise RuntimeError("policy is not bound to this eviction index")
        if n == 0:
            raise ValueError("no eviction candidates")
        self.candidates_offered += n
        efficiencies = self._efficiencies
        floor = efficiencies[0]
        alpha = self.alpha
        # Every efficiency rank is at least 1/n, so every score from here on
        # is at least the recency term plus this.
        least_term = alpha * (1.0 / n)
        best_k = 0
        best_score = math.inf
        running_min = math.inf
        scored = 0
        for k, fe in enumerate(self._recency_efficiencies):
            if fe >= running_min:
                continue  # dominated by an earlier candidate
            running_min = fe
            last_access = keys[k][0]
            i = k
            while i and keys[i - 1][0] == last_access:
                i -= 1
            j = k + 1
            while j < n and keys[j][0] == last_access:
                j += 1
            # Tie group [i, j): the inclusive end select_victim uses is j - 1.
            r = ((i + j - 1) / 2.0 + 1.0) / n
            if r + least_term >= best_score:
                break
            lo = bisect_left(efficiencies, fe)
            hi = bisect_right(efficiencies, fe, lo)
            score = r + alpha * (((lo + hi - 1) / 2.0 + 1.0) / n)
            scored += 1
            if score < best_score:
                best_k = k
                best_score = score
            if fe <= floor:
                break
        self.candidates_scored += scored
        return self._recency[best_k]


class GDSFEviction(_LazyHeapPolicy):
    """Greedy-Dual-Size-Frequency (Cherkasova 1998), adapted to cache entries.

    ``H(n) = clock + hit_count * saved_flops / size``.  The paper discusses
    GDSF as the classic size-aware scheme whose size signal fails for SSM
    states; we include it as an ablation comparator.  Since ``saved_flops /
    size`` is exactly FLOP efficiency, the adaptation uses it as the cost
    term, with the standard inflating clock providing aging.

    Ordering omits the clock everywhere: priorities are recomputed against
    the live clock at selection time, so within one selection the clock is a
    constant offset shared by every candidate and cannot change the
    mathematical ordering — but adding a large clock to small cost terms
    *can* absorb their difference in float64 and flatten real distinctions
    into tie-breaks.  Ranking by the clock-free key keeps the list scan and
    the heap selector decision-identical at any clock magnitude.
    """

    name = "gdsf"

    def __init__(self) -> None:
        super().__init__()
        self._clock = 0.0

    def _priority(self, candidate: EvictionCandidate) -> float:
        frequency = max(1, candidate.node.hit_count)
        return self._clock + frequency * candidate.flop_efficiency

    def _heap_key(self, candidate: EvictionCandidate) -> tuple:
        frequency = max(1, candidate.node.hit_count)
        return (frequency * candidate.flop_efficiency,) + candidate.sort_key

    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        if not candidates:
            raise ValueError("no eviction candidates")
        return min(candidates, key=self._heap_key)

    def notify_eviction(self, victim: EvictionCandidate) -> None:
        self._clock = self._priority(victim)

    def reset(self) -> None:
        super().reset()
        self._clock = 0.0


class LFUEviction(_LazyHeapPolicy):
    """Least-frequently-used: evict the candidate with the fewest hits.

    Frequency alone has the same blind spot as recency for hybrid states —
    a never-hit checkpoint of a 30K-token prefix ties with a never-hit
    16-token leaf — so this serves as an ablation comparator, with recency
    breaking frequency ties.
    """

    name = "lfu"

    def _heap_key(self, candidate: EvictionCandidate) -> tuple:
        return (candidate.node.hit_count,) + candidate.sort_key

    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        if not candidates:
            raise ValueError("no eviction candidates")
        return min(candidates, key=lambda c: (c.node.hit_count, c.sort_key))


class LRUKEviction(_LazyHeapPolicy):
    """LRU-K (O'Neil 1993): evict the oldest K-th most recent access.

    Tracks the last ``k`` access times per node via :meth:`notify_access`.
    Nodes with fewer than ``k`` recorded accesses use ``-inf`` as their
    K-th-access time (classic backward K-distance), so cold one-touch
    entries are evicted before entries with an established reuse history —
    the scan-resistance property LRU lacks.
    """

    name = "lru_k"

    def __init__(self, k: int = 2) -> None:
        super().__init__()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._history: dict[int, deque[float]] = {}

    def notify_access(self, node: RadixNode, now: float) -> None:
        history = self._history.setdefault(node.node_id, deque(maxlen=self.k))
        history.append(now)

    def _kth_access(self, candidate: EvictionCandidate) -> float:
        history = self._history.get(candidate.node.node_id)
        if history is not None and len(history) >= self.k:
            return history[0]
        return float("-inf")

    def _heap_key(self, candidate: EvictionCandidate) -> tuple:
        # Access times only move forward, so the key never decreases.
        return (self._kth_access(candidate),) + candidate.sort_key

    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        if not candidates:
            raise ValueError("no eviction candidates")
        return min(candidates, key=lambda c: (self._kth_access(c), c.sort_key))

    def notify_eviction(self, victim: EvictionCandidate) -> None:
        self._history.pop(victim.node.node_id, None)

    def reset(self) -> None:
        super().reset()
        self._history.clear()


class GDSEviction(_LazyHeapPolicy):
    """Plain greedy-dual-size with unit cost: ``H(n) = clock + 1 / size``.

    The textbook policy the paper's section 4.2 critique targets directly:
    its only value signal is the entry's byte size, which for a hybrid
    model's fixed-size recurrent checkpoints is unrelated to the compute a
    hit saves.  Included so ablations can quantify how badly the size proxy
    misprices long-prefix checkpoints.

    As with GDSF, the clock is a shared offset at selection time; both the
    list scan and the heap rank by the clock-free key.
    """

    name = "gds"

    def __init__(self) -> None:
        super().__init__()
        self._clock = 0.0

    def _priority(self, candidate: EvictionCandidate) -> float:
        return self._clock + 1.0 / max(1, candidate.freeable_bytes)

    def _heap_key(self, candidate: EvictionCandidate) -> tuple:
        return (1.0 / max(1, candidate.freeable_bytes),) + candidate.sort_key

    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        if not candidates:
            raise ValueError("no eviction candidates")
        return min(candidates, key=self._heap_key)

    def notify_eviction(self, victim: EvictionCandidate) -> None:
        self._clock = self._priority(victim)

    def reset(self) -> None:
        super().reset()
        self._clock = 0.0


class RandomEviction(EvictionPolicy):
    """Uniform-random victim selection (seeded); the ablation floor."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = random.Random(seed)

    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        if not candidates:
            raise ValueError("no eviction candidates")
        return self._rng.choice(candidates)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


def _rank_normalize(values: list[float]) -> list[float]:
    """Average-rank normalization into (0, 1], tie-aware.

    Rank normalization makes the two utility terms scale-free: a node's
    recency score no longer depends on how long the serving process has
    been up, only on how it *compares* to the other candidates — the
    reading of the paper's "normalized ... by comparing all nodes'
    last-accessed timestamps and FLOP saved/byte".
    """
    n = len(values)
    if n == 1:
        return [1.0]
    order = sorted(range(n), key=values.__getitem__)
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        # 1-based average rank for the tie group [i, j].
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg / n
        i = j + 1
    return ranks


_POLICIES = {
    "lru": lambda alpha: LRUEviction(),
    "flop_aware": lambda alpha: FlopAwareEviction(alpha if alpha is not None else 1.0),
    "gdsf": lambda alpha: GDSFEviction(),
    "gds": lambda alpha: GDSEviction(),
    "lfu": lambda alpha: LFUEviction(),
    "lru_k": lambda alpha: LRUKEviction(),
    "random": lambda alpha: RandomEviction(),
}


def make_eviction_policy(name: str, alpha: float | None = None) -> EvictionPolicy:
    """Instantiate an eviction policy by name.

    Known names: ``lru``, ``flop_aware`` (uses ``alpha``), ``gdsf``,
    ``gds``, ``lfu``, ``lru_k``, ``random``.
    """
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown eviction policy {name!r}; known: {sorted(_POLICIES)}"
        ) from None
    return factory(alpha)
