"""Unit tests for the tree observer surface and the incremental eviction index."""

import random

import numpy as np
import pytest

from repro.core.cache import MarconiCache
from repro.core.eviction import FlopAwareEviction, LRUEviction
from repro.core.eviction_index import EvictionIndex
from repro.core.radix_tree import RadixTree, TreeObserver
from repro.engine.kernel import KernelConfig, SimulationKernel
from repro.models.memory import model_recurrent_bytes, node_state_bytes
from repro.models.presets import hybrid_7b, tiny_test_model
from repro.workloads.registry import generate_trace


def arr(*tokens):
    return np.asarray(tokens, dtype=np.int32)


class RecordingObserver(TreeObserver):
    def __init__(self):
        self.events = []

    def on_node_added(self, node):
        self.events.append(("added", node.node_id))

    def on_edge_split(self, middle, child):
        self.events.append(("split", middle.node_id, child.node_id))

    def on_leaf_removed(self, node, parent):
        self.events.append(("removed", node.node_id, parent.node_id))

    def on_merged(self, node, child):
        self.events.append(("merged", node.node_id, child.node_id))

    def on_leaf_truncated(self, node):
        self.events.append(("truncated", node.node_id))

    def on_checkpoint_changed(self, node):
        self.events.append(("checkpoint", node.node_id, node.has_ssm_state))

    def on_pin_changed(self, node):
        self.events.append(("pin", node.node_id, node.pin_count))

    def on_touched(self, node):
        self.events.append(("touched", node.node_id))


class TestTreeObserver:
    def test_insert_fires_added_and_split(self):
        tree = RadixTree()
        obs = RecordingObserver()
        tree.add_observer(obs)
        first = tree.insert(arr(1, 2, 3, 4), now=0.0)
        assert obs.events == [("added", first.end_node.node_id)]
        obs.events.clear()
        second = tree.insert(arr(1, 2, 9), now=1.0)
        kinds = [e[0] for e in obs.events]
        assert kinds == ["split", "added"]
        assert obs.events[0][1] == second.split_node.node_id
        assert obs.events[1][1] == second.new_leaf.node_id

    def test_remove_merge_truncate_and_state_callbacks(self):
        tree = RadixTree()
        obs = RecordingObserver()
        tree.add_observer(obs)
        tree.insert(arr(1, 2), now=0.0)
        out = tree.insert(arr(1, 2, 3, 4), now=1.0)
        leaf = out.end_node
        interior = leaf.parent
        obs.events.clear()

        tree.set_checkpoint(interior, now=2.0)
        tree.clear_checkpoint(interior)
        tree.touch(interior, 3.0)
        tree.refresh_access(interior, 4.0)
        tree.truncate_leaf(leaf, 1)
        tree.remove_leaf(leaf)
        assert [e[0] for e in obs.events] == [
            "checkpoint",
            "checkpoint",
            "touched",
            "touched",
            "truncated",
            "removed",
        ]
        assert interior.last_access == 4.0 and interior.hit_count == 1

    def test_pin_path_fires_per_node_and_remove_observer_silences(self):
        tree = RadixTree()
        obs = RecordingObserver()
        tree.add_observer(obs)
        out = tree.insert(arr(1, 2), now=0.0)
        tree.insert(arr(1, 2, 3), now=1.0)
        deep = tree.match(arr(1, 2, 3)).deepest_node
        obs.events.clear()
        tree.pin_path(deep)
        assert [e[0] for e in obs.events] == ["pin", "pin"]
        tree.unpin_path(deep)
        tree.remove_observer(obs)
        obs.events.clear()
        tree.touch(out.end_node, 5.0)
        assert obs.events == []


class TestEvictionIndexMaintenance:
    def make_index(self, tree):
        # Byte accounting stand-ins: 10 bytes per edge token for leaves,
        # 7 bytes for an interior checkpoint, efficiency = seq_len.
        def freeable(node):
            if node.is_leaf:
                return 10 * node.kv_tokens + (7 if node.has_ssm_state else 0)
            return 7 if node.has_ssm_state else 0

        return EvictionIndex(tree, freeable, lambda node, b: float(node.seq_len))

    def expected_ids(self, tree, freeable):
        return {
            n.node_id
            for n in tree.iter_nodes()
            if n.n_children <= 1 and not n.is_pinned and freeable(n) > 0
        }

    def test_tracks_membership_through_mutations(self):
        tree = RadixTree()
        index = self.make_index(tree)
        out1 = tree.insert(arr(1, 2, 3, 4), now=0.0)
        out2 = tree.insert(arr(1, 2, 9), now=1.0)
        # Leaves are candidates; the unchekpointed split node frees 0 bytes.
        ids = {c.node.node_id for c in index.candidates()}
        assert ids == {out1.end_node.node_id, out2.new_leaf.node_id}

        # A checkpoint alone cannot make the two-child split node evictable.
        tree.set_checkpoint(out2.split_node)
        ids = {c.node.node_id for c in index.candidates()}
        assert out2.split_node.node_id not in ids

        tree.pin_path(out1.end_node)
        ids = {c.node.node_id for c in index.candidates()}
        assert out1.end_node.node_id not in ids
        tree.unpin_path(out1.end_node)

        # Removing one branch leaves a single-child checkpointed interior
        # node: now it frees its recurrent bytes and becomes a candidate.
        tree.remove_leaf(tree.match(arr(1, 2, 9)).deepest_node)
        ids = {c.node.node_id for c in index.candidates()}
        assert out2.split_node.node_id in ids
        assert index.get(out2.split_node.node_id).freeable_bytes == 7

        tree.clear_checkpoint(out2.split_node)
        assert out2.split_node.node_id not in {
            c.node.node_id for c in index.candidates()
        }
        tree.merge_into_child(out2.split_node)
        ids = {c.node.node_id for c in index.candidates()}
        assert ids == {out1.end_node.node_id}
        # The absorbing leaf's cached freeable bytes reflect the merged edge.
        (cand,) = index.candidates()
        assert cand.freeable_bytes == 10 * 4

    def test_epoch_advances_only_on_real_changes(self):
        tree = RadixTree()
        index = self.make_index(tree)
        out = tree.insert(arr(1, 2, 3), now=0.0)
        epoch = index.epoch
        # Re-refreshing an unchanged node is a no-op for the epoch.
        index.refresh(out.end_node)
        assert index.epoch == epoch
        tree.touch(out.end_node, 1.0)
        assert index.epoch > epoch

    def test_candidates_snapshot_cached_per_epoch(self):
        tree = RadixTree()
        index = self.make_index(tree)
        tree.insert(arr(1, 2), now=0.0)
        first = index.candidates()
        assert index.candidates() is first
        tree.insert(arr(3, 4), now=1.0)
        assert index.candidates() is not first

    def test_node_visits_counts_evaluations(self):
        tree = RadixTree()
        index = self.make_index(tree)
        before = index.node_visits
        tree.insert(arr(1, 2, 3), now=0.0)
        assert index.node_visits > before


def assert_mirrors_current(policy, index):
    """The FLOP-aware policy's maintained orders equal a fresh sort of the
    index's candidates, so a missed change or removal notification fails."""
    if not isinstance(policy, FlopAwareEviction):
        return
    fresh = sorted(index.candidates(), key=lambda c: c.sort_key)
    assert len(policy._recency) == len(fresh)
    assert all(kept is current for kept, current in zip(policy._recency, fresh))
    assert policy._recency_keys == [c.sort_key for c in fresh]
    assert policy._recency_efficiencies == [c.flop_efficiency for c in fresh]
    assert policy._efficiencies == sorted(c.flop_efficiency for c in fresh)


IDENTITY_CASES = [
    *((name, 1.0) for name in ("lru", "gdsf", "gds", "lfu", "lru_k")),
    *(("flop_aware", alpha) for alpha in (0.0, 1.0, 8.0)),
]
IDENTITY_IDS = [
    *("lru", "gdsf", "gds", "lfu", "lru_k"),
    *("flop_aware-0", "flop_aware-1", "flop_aware-8"),
]


class TestHeapSelectorIdentity:
    """Index-backed selection must equal the seed's min() over candidates."""

    @pytest.mark.parametrize(("eviction", "alpha"), IDENTITY_CASES, ids=IDENTITY_IDS)
    def test_select_from_index_matches_select_victim(self, eviction, alpha, tokens):
        model = tiny_test_model()
        # Room for about six entries: the later phases run under eviction.
        capacity = 6 * node_state_bytes(model, 11, True)
        cache = MarconiCache(
            model, capacity_bytes=capacity, eviction=eviction, alpha=alpha
        )

        def check():
            index = cache.eviction_index
            assert_mirrors_current(cache.policy, index)
            if index.candidates():
                chosen = cache.policy.select_from_index(index)
                reference = cache.policy.select_victim(index.candidates())
                assert chosen is reference

        def serve(seq, now, tail_seed):
            r = cache.lookup(seq, now)
            check()
            cache.admit(
                np.concatenate([seq, tokens(3, seed=tail_seed)]),
                now + 0.5,
                handle=r.handle,
            )
            check()

        for i in range(12):
            if i % 3 and i > 0:
                base = tokens(8, seed=100 + i - 1)
                seq = np.concatenate([base[:4], tokens(6, seed=200 + i)])
            else:
                seq = tokens(8, seed=100 + i)
            serve(seq, float(i), 300 + i)
        # Same-timestamp ties: every round of this burst shares one clock.
        shared = tokens(5, seed=400)
        for i in range(8):
            serve(np.concatenate([shared, tokens(4, seed=410 + i)]), 20.0, 420 + i)
        if eviction == "flop_aware":
            cache.set_alpha(alpha + 3.0)
            check()
        cache.eviction_index.rebuild()
        check()
        evictions = cache.stats.evictions

        # Tree reassignment: adopt another cache's tree, then run on it.
        source = MarconiCache(model, capacity_bytes=int(1e9), alpha=1.0)
        for i in range(5):
            seq = tokens(9, seed=500 + i)
            r = source.lookup(seq, 30.0 + i)
            source.admit(np.concatenate([seq, tokens(2, seed=510 + i)]), 30.5 + i, handle=r.handle)
        cache.tree = source.tree.clone()
        cache._used = cache.recompute_used_bytes()
        check()
        for i in range(6):
            serve(tokens(10, seed=600 + i), 40.0 + i, 610 + i)
        evictions += cache.stats.evictions

        cache.reset()
        check()
        for i in range(8):
            serve(tokens(10, seed=700 + i), 50.0 + i // 2, 710 + i)
        evictions += cache.stats.evictions
        assert evictions > 0
        assert cache.used_bytes == cache.recompute_used_bytes()

    def test_empty_index_raises(self):
        model = tiny_test_model()
        for eviction in ("lru", "flop_aware"):
            cache = MarconiCache(
                model, capacity_bytes=int(1e9), eviction=eviction, alpha=1.0
            )
            with pytest.raises(ValueError):
                cache.policy.select_from_index(cache.eviction_index)

    def test_index_mode_matches_full_rescan(self, tokens):
        model = tiny_test_model()
        per_seq = node_state_bytes(model, 450, True)
        a = MarconiCache(model, capacity_bytes=3 * per_seq, alpha=1.0)
        b = MarconiCache(
            model, capacity_bytes=3 * per_seq, alpha=1.0, use_eviction_index=False
        )
        for i in range(10):
            seq = tokens(400, seed=6000 + i)
            ra = a.lookup(seq, float(i))
            rb = b.lookup(seq, float(i))
            full = np.concatenate([seq, tokens(50, seed=7000 + i)])
            a.admit(full, float(i) + 0.5, handle=ra.handle)
            b.admit(full, float(i) + 0.5, handle=rb.handle)
        assert a.stats.evictions > 0
        assert a.stats.snapshot() == b.stats.snapshot()


class TestStaircaseSelection:
    def test_matches_select_victim_on_random_tied_sets(self):
        """Leaves under the root with access times and efficiencies drawn
        from small sets, so both terms tie often, mutated at random: the
        staircase walk picks select_victim's victim at every step."""
        rng = random.Random(5)
        tree = RadixTree()
        # Each (re-)evaluation draws a fresh efficiency level.
        index = EvictionIndex(
            tree, lambda node: 10, lambda node, b: rng.choice((1.0, 2.0, 3.0, 5.0))
        )
        policy = FlopAwareEviction(alpha=1.0)
        policy.bind_index(index)
        leaves = []
        for step in range(400):
            op = rng.random()
            if op < 0.4 or len(leaves) < 2:
                out = tree.insert(arr(step + 1, 7), now=float(rng.randrange(6)))
                leaves.append(out.end_node)
            elif op < 0.8:
                tree.refresh_access(rng.choice(leaves), float(rng.randrange(6)))
            elif op < 0.9:
                leaf = leaves.pop(rng.randrange(len(leaves)))
                tree.remove_leaf(leaf)
            else:
                leaf = rng.choice(leaves)
                tree.pin_path(leaf)
                assert_mirrors_current(policy, index)
                tree.unpin_path(leaf)
            assert_mirrors_current(policy, index)
            for alpha in (0.0, 0.5, 1.0, 8.0):
                policy.alpha = alpha
                expected = policy.select_victim(index.candidates())
                assert policy.select_from_index(index) is expected

    def test_scores_at_most_half_the_candidates_on_swebench(self):
        """FLOP-aware selection scores only the recency/efficiency
        staircase, not every candidate.  A deterministic work count, so a
        regression to full rescoring fails on any host."""
        model = hybrid_7b()
        trace = generate_trace(
            "swebench", n_sessions=100, session_rate=0.5, mean_think_s=7.5, seed=1
        )
        cache = MarconiCache(model, 40 * 10**9, eviction="flop_aware", alpha=1.0)
        SimulationKernel(model, [cache], config=KernelConfig(max_running=4)).run(trace)
        policy = cache.policy
        assert cache.stats.evictions > 1000  # one selection per eviction
        assert policy.candidates_offered > cache.stats.evictions
        assert 0 < policy.candidates_scored <= 0.5 * policy.candidates_offered


class TestTreeReattachment:
    def test_assigning_a_tree_reseeds_the_index(self, tokens):
        model = tiny_test_model()
        source = MarconiCache(model, capacity_bytes=int(1e9), alpha=1.0)
        for i in range(4):
            seq = tokens(30, seed=i)
            r = source.lookup(seq, float(i))
            source.admit(
                np.concatenate([seq, tokens(5, seed=50 + i)]),
                float(i) + 0.5,
                handle=r.handle,
            )
        target = MarconiCache(model, capacity_bytes=int(1e9), alpha=1.0)
        target.tree = source.tree.clone()
        target._used = target.recompute_used_bytes()
        maintained = {c.node.node_id for c in target.eviction_index.candidates()}
        rebuilt = {c.node.node_id for c in target._collect_candidates()}
        assert maintained == rebuilt and maintained

    def test_reset_clears_index(self):
        model = tiny_test_model()
        cache = MarconiCache(model, capacity_bytes=int(1e9), alpha=1.0)
        cache.lookup(arr(1, 2, 3), 0.0)
        cache.reset()
        assert cache.eviction_index is not None
        assert cache.eviction_index.candidates() == []
        assert cache.used_bytes == 0


class TestLegacyModeStillWorks:
    def test_legacy_mode_has_no_index_and_counts_scans(self, tokens):
        model = tiny_test_model()
        per_seq = node_state_bytes(model, 450, True)
        cache = MarconiCache(
            model, capacity_bytes=3 * per_seq, alpha=1.0, use_eviction_index=False
        )
        for i in range(6):
            seq = tokens(400, seed=8000 + i)
            r = cache.lookup(seq, float(i))
            cache.admit(
                np.concatenate([seq, tokens(50, seed=9000 + i)]),
                float(i) + 0.5,
                handle=r.handle,
            )
        assert cache.eviction_index is None
        assert cache.stats.evictions > 0
        assert cache.eviction_node_visits > 0
        assert cache.used_bytes == cache.recompute_used_bytes()
