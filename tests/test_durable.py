"""Durable router store: journal round trips and crash recovery.

The write-ahead store must recover exactly the state that was synced
-- never a silently wrong list version, never a record spliced in from
another router's journal -- and ``MeshRouter.restore`` must rebuild a
router whose credentials, lists, and degraded-mode clockwork are
indistinguishable from one that was merely partitioned.
"""

import os
import random
import struct

import pytest

from repro import instrument, obs
from repro.core.durable import (
    REC_SNAPSHOT,
    SNAPSHOT_MAGIC,
    DurableRouterStore,
    DurableState,
    FileStorage,
    MemoryStorage,
)
from repro.core.revocation import RevocationTagCache
from repro.core.router import MeshRouter
from repro.core.wire import Writer
from repro.errors import DegradedModeError, EncodingError
from repro.wmn.simclock import EventLoop, SimClock


def make_store(sync_every=1, store_id="MR-1", **kwargs):
    return DurableRouterStore(MemoryStorage(), store_id,
                              sync_every=sync_every, **kwargs)


def seeded_store(**kwargs):
    store = make_store(**kwargs)
    store.initialize(DurableState(
        store_id="MR-1", epoch=3, gpk_blob=b"gpk", crl_blob=b"crl0",
        url_blob=b"url0", lists_fetched_at=123.5))
    return store


class TestStorageBackends:
    def test_memory_fsync_semantics(self):
        storage = MemoryStorage()
        storage.append(b"abc")
        storage.sync()
        storage.append(b"def")
        assert storage.read() == b"abcdef"
        assert storage.lose_unsynced() == 3
        assert storage.read() == b"abc"
        assert storage.size == 3

    def test_file_fsync_semantics(self, tmp_path):
        storage = FileStorage(str(tmp_path / "r.journal"))
        storage.append(b"abc")
        storage.sync()
        storage.append(b"def")
        assert storage.read() == b"abcdef"
        assert storage.lose_unsynced() == 3
        assert storage.read() == b"abc"

    def test_file_replace_is_atomic_rename(self, tmp_path):
        path = str(tmp_path / "r.journal")
        storage = FileStorage(path)
        storage.append(b"old contents")
        storage.replace(b"new")
        assert storage.read() == b"new"
        assert not os.path.exists(path + ".tmp")
        # Replaced data counts as synced: nothing to lose.
        assert storage.lose_unsynced() == 0

    def test_file_survives_reopen(self, tmp_path):
        path = str(tmp_path / "r.journal")
        FileStorage(path).append(b"abc")
        assert FileStorage(path).read() == b"abc"


class TestJournalRoundTrip:
    def test_snapshot_round_trip(self):
        store = seeded_store()
        reopened = DurableRouterStore(store.storage, "MR-1")
        info = reopened.load()
        assert info.clean and info.records_replayed == 0
        assert info.state == store.state

    def test_records_replay_in_order(self):
        store = seeded_store()
        store.record_lists(b"crl1", b"url1", 200.0)
        store.record_channel(channel_up=False, cut_off=False)
        store.record_checkpoint(3, ((b"tok", b"tag"),))
        store.record_epoch(4, b"gpk4", b"crl2", b"url2", 300.0)
        info = DurableRouterStore(store.storage, "MR-1").load()
        assert info.records_replayed == 4
        state = info.state
        assert (state.epoch, state.crl_blob, state.url_blob) \
            == (4, b"crl2", b"url2")
        assert state.lists_fetched_at == 300.0
        assert not state.channel_up
        # The epoch record invalidates tags derived under epoch 3, but
        # the index stays on.
        assert state.tag_epoch == 4 and state.tag_entries == ()
        assert state.tag_index
        assert state == store.state

    def test_fetched_at_is_bit_exact(self):
        # Writer.f64 quantizes to ms; the journal must not (a restart
        # would otherwise disagree with the no-crash run on staleness).
        value = 1_000_123.000456789
        store = seeded_store()
        store.record_lists(b"c", b"u", value)
        info = DurableRouterStore(store.storage, "MR-1").load()
        assert info.state.lists_fetched_at == value

    def test_initialize_rejects_foreign_state(self):
        store = make_store()
        with pytest.raises(EncodingError):
            store.initialize(DurableState(store_id="MR-2"))

    def test_record_before_initialize_rejected(self):
        with pytest.raises(EncodingError):
            make_store().record_channel(True, False)


class TestFormatVersion:
    def test_format_1_snapshot_refused(self):
        """A snapshot in the format-1 layout (a u32 shard count where
        format 2 keeps the u8 tag-index flag) fails the version check:
        the store refuses it instead of misparsing it."""
        payload = (Writer().u8(REC_SNAPSHOT).u64(0).raw(SNAPSHOT_MAGIC)
                   .u32(1).string("MR-1").u64(3).var(b"gpk")
                   .var(b"crl0").var(b"url0")
                   .raw(struct.pack(">d", 123.5))
                   .u8(1).u8(0)                  # channel_up, cut_off
                   .u32(16).u64(3).u32(0)        # shards, tag epoch, tags
                   .done())
        store = make_store()
        store.storage.replace(store._frame(payload))
        with pytest.raises(EncodingError):
            store.load()


class TestCorruptionRecovery:
    def test_torn_tail_recovers_last_good_state(self):
        store = seeded_store()
        store.record_lists(b"crl1", b"url1", 200.0)
        good = store.storage.read()
        store.record_lists(b"crl2", b"url2", 300.0)
        # Tear the final record: keep its header, cut the payload.
        torn = store.storage.read()[:len(good) + 6]
        store.storage.replace(torn)
        info = DurableRouterStore(store.storage, "MR-1").load()
        assert not info.clean
        assert info.tail_dropped == 6
        assert info.state.crl_blob == b"crl1"
        # The garbage was physically truncated.
        assert store.storage.read() == good

    def test_bit_flip_stops_replay_at_flip(self):
        store = seeded_store()
        store.record_lists(b"crl1", b"url1", 200.0)
        good = store.storage.read()
        store.record_lists(b"crl2", b"url2", 300.0)
        blob = bytearray(store.storage.read())
        blob[len(good) + 10] ^= 0xFF
        store.storage.replace(bytes(blob))
        info = DurableRouterStore(store.storage, "MR-1").load()
        assert not info.clean
        assert info.state.crl_blob == b"crl1"

    def test_cross_store_splice_rejected(self):
        """A perfectly valid record from MR-2's journal never replays
        into MR-1's: the CRC is keyed over the store id."""
        victim = seeded_store()
        baseline = victim.storage.read()
        other = make_store(store_id="MR-2")
        other.initialize(DurableState(store_id="MR-2"))
        head = len(other.storage.read())
        other.record_lists(b"evil-crl", b"evil-url", 999.0)
        spliced = other.storage.read()[head:]
        victim.storage.append(spliced)
        info = DurableRouterStore(victim.storage, "MR-1").load()
        assert info.state.crl_blob == b"crl0"
        assert not info.clean
        assert victim.storage.read() == baseline

    def test_same_store_replay_splice_rejected(self):
        """Re-appending one of this journal's own old records (right
        CRC, stale sequence number) stops the replay there."""
        store = seeded_store()
        head = len(store.storage.read())
        store.record_lists(b"crl1", b"url1", 200.0)
        first_record = store.storage.read()[head:]
        store.record_lists(b"crl2", b"url2", 300.0)
        store.storage.append(first_record)   # replayed frame
        info = DurableRouterStore(store.storage, "MR-1").load()
        assert info.state.crl_blob == b"crl2"
        assert not info.clean

    def test_no_snapshot_raises(self):
        store = make_store()
        store.storage.append(b"\x00" * 64)
        with pytest.raises(EncodingError):
            store.load()

    def test_empty_storage_raises(self):
        with pytest.raises(EncodingError):
            make_store().load()


class TestFsyncLoss:
    def test_unsynced_tail_lost_recovers_older_lists(self):
        store = seeded_store(sync_every=100)
        store.record_lists(b"crl1", b"url1", 200.0)
        store.sync()
        store.record_lists(b"crl2", b"url2", 300.0)
        assert store.storage.lose_unsynced() > 0
        info = DurableRouterStore(store.storage, "MR-1").load()
        assert info.clean   # the loss is invisible: a shorter journal
        assert info.state.crl_blob == b"crl1"

    def test_sync_every_batches_fsyncs(self):
        with obs.collecting() as registry:
            store = seeded_store(sync_every=3)
            for i in range(6):
                store.record_channel(True, False)
            assert registry.counter_value("durable.syncs_total") == 2
        assert store.storage.lose_unsynced() == 0


class TestCompaction:
    def test_auto_compaction_preserves_state(self):
        store = seeded_store(compact_every=4)
        for i in range(10):
            store.record_lists(b"crl%d" % i, b"url%d" % i, float(i))
        size_after = store.storage.size
        info = DurableRouterStore(store.storage, "MR-1").load()
        assert info.state.crl_blob == b"crl9"
        assert info.state == store.state
        # Compaction bounded the journal: an identical store with
        # compaction disabled is strictly larger.
        unbounded = seeded_store(compact_every=0)
        for i in range(10):
            unbounded.record_lists(b"crl%d" % i, b"url%d" % i, float(i))
        assert size_after < unbounded.storage.size

    def test_manual_compact_then_append(self):
        store = seeded_store()
        store.record_lists(b"crl1", b"url1", 200.0)
        store.compact()
        store.record_channel(False, False)
        info = DurableRouterStore(store.storage, "MR-1").load()
        assert info.state.crl_blob == b"crl1"
        assert not info.state.channel_up


class TestRouterRestore:
    def _clocked(self):
        loop = EventLoop(start=1_000_000.0)
        return loop, SimClock(loop)

    def test_restore_matches_original(self, fresh_deployment):
        loop, clock = self._clocked()
        deployment = fresh_deployment(clock=clock)
        router = deployment.routers["MR-1"]
        store = make_store()
        router.attach_durable(store)
        deployment.operator.revoke_user_key(
            deployment.users["bob"].credentials["University Z"].index)
        router.refresh_lists()
        restored = MeshRouter.restore(store, deployment.operator,
                                      clock=clock,
                                      rng=random.Random(9))
        assert restored.list_versions() == router.list_versions()
        assert restored.certificate.encode() \
            == router.certificate.encode()
        assert restored._lists_fetched_at == router._lists_fetched_at
        assert restored.recovery.clean

    def test_reprovision_consumes_no_operator_randomness(
            self, fresh_deployment):
        loop, clock = self._clocked()
        deployment = fresh_deployment(clock=clock)
        store = make_store()
        deployment.routers["MR-1"].attach_durable(store)
        before = deployment.operator.rng.getstate()
        MeshRouter.restore(store, deployment.operator, clock=clock)
        assert deployment.operator.rng.getstate() == before

    def test_degraded_restart_re_enters_refusal(self, fresh_deployment):
        """A router that reboots with old journaled lists and no
        operator channel must refuse service once the *journaled*
        fetch time ages past the grace window."""
        loop, clock = self._clocked()
        deployment = fresh_deployment(clock=clock)
        router = deployment.routers["MR-1"]
        store = make_store()
        router.attach_durable(store)
        router.set_operator_channel(False)
        loop.run_until(loop.now + 700.0)   # grace is 600s
        restored = MeshRouter.restore(store, deployment.operator,
                                      clock=clock)
        assert not restored._channel_up
        with pytest.raises(DegradedModeError):
            restored.make_beacon()

    def test_journaled_tags_restore_without_pairings(
            self, fresh_deployment):
        """Restart warm-up from the local journal: the restored
        router re-enables sharding with zero tag re-derivation."""
        loop, clock = self._clocked()
        deployment = fresh_deployment(clock=clock)
        router = deployment.routers["MR-1"]
        operator = deployment.operator
        operator.revoke_user_key(
            deployment.users["bob"].credentials["University Z"].index)
        router.refresh_lists()
        router.enable_sharded_revocation(cache=RevocationTagCache())
        store = make_store()
        router.attach_durable(store)
        with instrument.count_operations() as ops:
            restored = MeshRouter.restore(
                store, operator, clock=clock,
                cache=RevocationTagCache())
        assert ops.total("pairing") == 0
        assert restored.tag_warm_fraction() == 1.0
        assert restored.revocation_state.entries() \
            == router.revocation_state.entries()

    def test_index_on_empty_url_restores_in_period_mode(
            self, fresh_deployment):
        """An index enabled on an empty URL journals no tags, yet the
        restored router must come back with the index on: its users
        sign under the epoch period, which default mode rejects."""
        loop, clock = self._clocked()
        deployment = fresh_deployment(clock=clock)
        router = deployment.routers["MR-1"]
        state = router.enable_sharded_revocation(cache=RevocationTagCache())
        assert state.entries() == ()
        store = make_store()
        router.attach_durable(store)
        restored = MeshRouter.restore(store, deployment.operator,
                                      clock=clock,
                                      cache=RevocationTagCache())
        assert restored.revocation_state is not None
        assert restored.revocation_state.period == state.period
        alice = deployment.users["alice"]
        alice.auth_period = state.period
        request, pending = alice.connect_to_router(restored.make_beacon())
        confirm, session = restored.process_request(request)
        assert alice.complete_router_handshake(pending, confirm) \
            .session_id == session.session_id

    def test_restart_journal_keeps_appending(self, fresh_deployment):
        """Post-restore changes append to the recovered journal, so a
        second crash recovers the post-restart state."""
        loop, clock = self._clocked()
        deployment = fresh_deployment(clock=clock)
        router = deployment.routers["MR-1"]
        store = make_store()
        router.attach_durable(store)
        restored = MeshRouter.restore(store, deployment.operator,
                                      clock=clock)
        deployment.operator.revoke_user_key(
            deployment.users["alice"].credentials["Company X"].index)
        restored.refresh_lists()
        info = DurableRouterStore(store.storage, "MR-1").load()
        assert info.state.url_blob == restored._url.encode()
