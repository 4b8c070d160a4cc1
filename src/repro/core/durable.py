"""Durable router state: wire-encoded snapshot + append-only journal.

A crashed ``MeshRouter`` used to lose everything -- its CRL/URL, its
epoch, its degraded-mode bookkeeping, and every derived revocation tag.
This module gives each router a small write-ahead store so a restart
recovers the security state a peer would otherwise have to re-teach it:

* ``MemoryStorage`` / ``FileStorage`` -- the injectable byte-level
  backends.  Both model fsync semantics: ``append`` lands in an
  unsynced tail, ``sync`` makes the tail durable, and
  ``lose_unsynced`` (driven by the ``fsync_loss`` storage fault)
  drops whatever a power cut would have eaten.
* Records -- ``u32 length | u32 crc32 | payload`` frames.  The CRC is
  keyed over ``store_id + payload`` so a record spliced in from some
  *other* router's journal never verifies, and every payload carries a
  strictly increasing sequence number so replayed/reordered records
  from this journal's own past are rejected too.
* ``DurableRouterStore`` -- snapshot head + journal tail with
  auto-sync/auto-compaction policies.  ``load()`` replays the journal
  on top of the last snapshot, truncating a corrupt or torn tail back
  to the last good prefix (never a silently wrong list version: a
  record either round-trips CRC+sequence checks or the recovery stops
  before it).

Everything is deterministic on the sim clock: no wall-clock reads, no
randomness -- replaying the same journal yields the same state.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro import obs
from repro.core.wire import Reader, Writer
from repro.errors import EncodingError

#: Version 2 replaced the shard count with the tag-index flag; a
#: version-1 snapshot is refused rather than misparsed.
FORMAT_VERSION = 2
SNAPSHOT_MAGIC = b"DJR1"

# Record kinds.
REC_SNAPSHOT = 0
REC_LISTS = 1
REC_EPOCH = 2
REC_CHANNEL = 3
REC_CHECKPOINT = 4

_RECORD_KINDS = (REC_SNAPSHOT, REC_LISTS, REC_EPOCH, REC_CHANNEL,
                 REC_CHECKPOINT)

_HEADER = struct.Struct(">II")  # length, crc32


def _pack_f64(value: float) -> bytes:
    """Bit-exact float persistence (``Writer.f64`` quantizes to ms,
    which would nudge ``lists_fetched_at`` relative to a router that
    never crashed)."""
    return struct.pack(">d", value)


def _unpack_f64(reader: Reader) -> float:
    return struct.unpack(">d", reader.raw(8))[0]


# ---------------------------------------------------------------------------
# Storage backends


class MemoryStorage:
    """In-memory backend with explicit fsync semantics."""

    def __init__(self) -> None:
        self._synced = b""
        self._tail = b""

    def append(self, data: bytes) -> None:
        self._tail += data

    def sync(self) -> None:
        self._synced += self._tail
        self._tail = b""

    def lose_unsynced(self) -> int:
        """Drop everything appended since the last ``sync`` (what a
        power cut does to an OS page cache).  Returns bytes lost."""
        lost = len(self._tail)
        self._tail = b""
        return lost

    def read(self) -> bytes:
        return self._synced + self._tail

    def replace(self, data: bytes) -> None:
        """Atomically rewrite the whole store (compaction); the result
        is considered synced."""
        self._synced = bytes(data)
        self._tail = b""

    @property
    def size(self) -> int:
        return len(self._synced) + len(self._tail)


class FileStorage:
    """File-backed storage; ``lose_unsynced`` truncates back to the
    last fsync'ed offset, ``replace`` goes through an ``os.replace``
    rename so compaction is atomic."""

    def __init__(self, path: str) -> None:
        self.path = path
        if not os.path.exists(path):
            with open(path, "wb"):
                pass
        self._synced_size = os.path.getsize(path)

    def append(self, data: bytes) -> None:
        with open(self.path, "ab") as handle:
            handle.write(data)

    def sync(self) -> None:
        with open(self.path, "ab") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        self._synced_size = os.path.getsize(self.path)

    def lose_unsynced(self) -> int:
        size = os.path.getsize(self.path)
        lost = size - self._synced_size
        if lost > 0:
            with open(self.path, "r+b") as handle:
                handle.truncate(self._synced_size)
        return max(lost, 0)

    def read(self) -> bytes:
        with open(self.path, "rb") as handle:
            return handle.read()

    def replace(self, data: bytes) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._synced_size = len(data)

    @property
    def size(self) -> int:
        return os.path.getsize(self.path)


# ---------------------------------------------------------------------------
# State model


@dataclass
class DurableState:
    """The security state a router must not lose across a crash."""

    store_id: str
    epoch: int = 0
    gpk_blob: bytes = b""
    crl_blob: bytes = b""
    url_blob: bytes = b""
    lists_fetched_at: float = 0.0
    channel_up: bool = True
    cut_off: bool = False
    #: The period-mode tag index was on.  Its own flag, not implied by
    #: ``tag_entries``: an index enabled on an empty URL has no entries
    #: yet must restore into period mode.
    tag_index: bool = False
    tag_epoch: int = 0
    tag_entries: Tuple[Tuple[bytes, bytes], ...] = ()

    def copy(self) -> "DurableState":
        return replace(self)


@dataclass(frozen=True)
class RecoveryInfo:
    """What ``DurableRouterStore.load`` found."""

    state: DurableState
    records_replayed: int
    tail_dropped: int  # bytes discarded past the last good record
    clean: bool

    @property
    def summary(self) -> str:
        return (f"replayed {self.records_replayed} record(s), "
                f"dropped {self.tail_dropped} tail byte(s), "
                f"{'clean' if self.clean else 'torn'}")


# ---------------------------------------------------------------------------
# Record encode/decode


def _encode_snapshot_fields(writer: Writer, state: DurableState) -> None:
    writer.raw(SNAPSHOT_MAGIC)
    writer.u32(FORMAT_VERSION)
    writer.string(state.store_id)
    writer.u64(state.epoch)
    writer.var(state.gpk_blob)
    writer.var(state.crl_blob)
    writer.var(state.url_blob)
    writer.raw(_pack_f64(state.lists_fetched_at))
    writer.u8(1 if state.channel_up else 0)
    writer.u8(1 if state.cut_off else 0)
    writer.u8(1 if state.tag_index else 0)
    writer.u64(state.tag_epoch)
    _encode_entries(writer, state.tag_entries)


def _encode_entries(writer: Writer,
                    entries: Tuple[Tuple[bytes, bytes], ...]) -> None:
    writer.u32(len(entries))
    for token_encoding, tag in entries:
        writer.var(token_encoding)
        writer.var(tag)


def _decode_entries(reader: Reader) -> Tuple[Tuple[bytes, bytes], ...]:
    count = reader.u32()
    return tuple((reader.var(), reader.var()) for _ in range(count))


def _decode_snapshot_fields(reader: Reader) -> DurableState:
    if reader.raw(len(SNAPSHOT_MAGIC)) != SNAPSHOT_MAGIC:
        raise EncodingError("bad snapshot magic")
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise EncodingError(f"unsupported journal format {version}")
    state = DurableState(store_id=reader.string())
    state.epoch = reader.u64()
    state.gpk_blob = reader.var()
    state.crl_blob = reader.var()
    state.url_blob = reader.var()
    state.lists_fetched_at = _unpack_f64(reader)
    state.channel_up = bool(reader.u8())
    state.cut_off = bool(reader.u8())
    state.tag_index = bool(reader.u8())
    state.tag_epoch = reader.u64()
    state.tag_entries = _decode_entries(reader)
    return state


def _apply_record(state: DurableState, kind: int, reader: Reader) -> None:
    """Replay one journal record onto ``state`` (snapshot excluded)."""
    if kind == REC_LISTS:
        state.crl_blob = reader.var()
        state.url_blob = reader.var()
        state.lists_fetched_at = _unpack_f64(reader)
    elif kind == REC_EPOCH:
        state.epoch = reader.u64()
        state.gpk_blob = reader.var()
        state.crl_blob = reader.var()
        state.url_blob = reader.var()
        state.lists_fetched_at = _unpack_f64(reader)
        # Tags derived under the retired epoch are useless now.
        state.tag_epoch = state.epoch
        state.tag_entries = ()
    elif kind == REC_CHANNEL:
        state.channel_up = bool(reader.u8())
        state.cut_off = bool(reader.u8())
    elif kind == REC_CHECKPOINT:
        state.tag_index = True
        state.tag_epoch = reader.u64()
        state.tag_entries = _decode_entries(reader)
    else:
        raise EncodingError(f"unknown journal record kind {kind}")
    reader.expect_end()


# ---------------------------------------------------------------------------
# The store


class DurableRouterStore:
    """Snapshot + append-only journal for one router's security state.

    ``record_*`` methods both append a journal record and fold the
    change into the in-memory tracked state, so ``compact()`` can
    rewrite the store as a single fresh snapshot without consulting
    the router.  ``sync_every`` controls how many records may sit in
    the backend's unsynced tail (1 = sync on every record);
    ``compact_every`` bounds journal growth.
    """

    def __init__(self, storage, store_id: str, sync_every: int = 1,
                 compact_every: int = 64) -> None:
        if sync_every < 1:
            raise EncodingError("sync_every must be >= 1")
        self.storage = storage
        self.store_id = store_id
        self.sync_every = sync_every
        self.compact_every = compact_every
        self._state: Optional[DurableState] = None
        self._seq = 0
        self._records_since_sync = 0
        self._records_since_compact = 0

    # -- write path ------------------------------------------------------

    @property
    def state(self) -> Optional[DurableState]:
        """Copy of the tracked state (None before initialize/load)."""
        return self._state.copy() if self._state is not None else None

    def initialize(self, state: DurableState) -> None:
        """Reset the store to a single snapshot of ``state``."""
        if state.store_id != self.store_id:
            raise EncodingError(
                f"snapshot for {state.store_id!r} written to store "
                f"{self.store_id!r}")
        self._state = state.copy()
        self._seq = 0
        self.storage.replace(self._frame(self._snapshot_payload()))
        self._records_since_sync = 0
        self._records_since_compact = 0
        obs.counter("durable.snapshots_total")

    def record_lists(self, crl_blob: bytes, url_blob: bytes,
                     fetched_at: float) -> None:
        state = self._require_state()
        state.crl_blob = crl_blob
        state.url_blob = url_blob
        state.lists_fetched_at = fetched_at
        writer = self._record_writer(REC_LISTS)
        writer.var(crl_blob)
        writer.var(url_blob)
        writer.raw(_pack_f64(fetched_at))
        self._append(writer)

    def record_epoch(self, epoch: int, gpk_blob: bytes, crl_blob: bytes,
                     url_blob: bytes, fetched_at: float) -> None:
        state = self._require_state()
        state.epoch = epoch
        state.gpk_blob = gpk_blob
        state.crl_blob = crl_blob
        state.url_blob = url_blob
        state.lists_fetched_at = fetched_at
        state.tag_epoch = epoch
        state.tag_entries = ()
        writer = self._record_writer(REC_EPOCH)
        writer.u64(epoch)
        writer.var(gpk_blob)
        writer.var(crl_blob)
        writer.var(url_blob)
        writer.raw(_pack_f64(fetched_at))
        self._append(writer)

    def record_channel(self, channel_up: bool, cut_off: bool) -> None:
        state = self._require_state()
        state.channel_up = channel_up
        state.cut_off = cut_off
        writer = self._record_writer(REC_CHANNEL)
        writer.u8(1 if channel_up else 0)
        writer.u8(1 if cut_off else 0)
        self._append(writer)

    def record_checkpoint(self, tag_epoch: int,
                          entries: Tuple[Tuple[bytes, bytes], ...]) -> None:
        """Journal the tag index's entries (the record also means the
        index is on)."""
        state = self._require_state()
        state.tag_index = True
        state.tag_epoch = tag_epoch
        state.tag_entries = tuple(entries)
        writer = self._record_writer(REC_CHECKPOINT)
        writer.u64(tag_epoch)
        _encode_entries(writer, state.tag_entries)
        self._append(writer)

    def sync(self) -> None:
        self.storage.sync()
        self._records_since_sync = 0
        obs.counter("durable.syncs_total")

    def compact(self) -> None:
        """Rewrite the store as one snapshot of the tracked state."""
        self.initialize(self._require_state())
        obs.counter("durable.compactions_total")

    # -- read path -------------------------------------------------------

    def load(self) -> RecoveryInfo:
        """Recover state from storage, truncating any corrupt tail.

        Raises :class:`EncodingError` when not even the head snapshot
        survives -- there is no "last good" state to recover to.
        """
        data = self.storage.read()
        state: Optional[DurableState] = None
        expected_seq = 0
        replayed = 0
        offset = 0
        good_end = 0
        while offset < len(data):
            frame = self._try_frame(data, offset)
            if frame is None:
                break
            payload, next_offset = frame
            reader = Reader(payload)
            try:
                kind = reader.u8()
                seq = reader.u64()
                if kind == REC_SNAPSHOT:
                    snap = _decode_snapshot_fields(reader)
                    reader.expect_end()
                    if snap.store_id != self.store_id:
                        break
                    state = snap
                    expected_seq = seq + 1
                else:
                    if state is None or seq != expected_seq:
                        # Spliced/replayed record: right CRC, wrong
                        # position in this journal's history.
                        break
                    _apply_record(state, kind, reader)
                    expected_seq = seq + 1
                    replayed += 1
            except EncodingError:
                break
            offset = next_offset
            good_end = offset
        if state is None:
            raise EncodingError(
                f"durable store {self.store_id!r} has no recoverable "
                "snapshot")
        tail_dropped = len(data) - good_end
        if tail_dropped:
            # Physically discard the garbage so post-recovery appends
            # don't land after an undecodable gap.
            self.storage.replace(data[:good_end])
            obs.counter("durable.tail_dropped_bytes", tail_dropped)
        self._state = state.copy()
        self._seq = expected_seq
        self._records_since_sync = 0
        self._records_since_compact = 0
        obs.counter("durable.recoveries_total")
        obs.counter("durable.records_replayed_total", replayed)
        return RecoveryInfo(state=state, records_replayed=replayed,
                            tail_dropped=tail_dropped,
                            clean=tail_dropped == 0)

    # -- internals -------------------------------------------------------

    def _require_state(self) -> DurableState:
        if self._state is None:
            raise EncodingError(
                f"durable store {self.store_id!r} not initialized")
        return self._state

    def _snapshot_payload(self) -> bytes:
        writer = Writer()
        writer.u8(REC_SNAPSHOT)
        writer.u64(self._seq)
        self._seq += 1
        _encode_snapshot_fields(writer, self._require_state())
        return writer.done()

    def _record_writer(self, kind: int) -> Writer:
        self._require_state()
        writer = Writer()
        writer.u8(kind)
        writer.u64(self._seq)
        self._seq += 1
        return writer

    def _frame(self, payload: bytes) -> bytes:
        crc = zlib.crc32(self.store_id.encode("utf-8") + payload) & 0xFFFFFFFF
        return _HEADER.pack(len(payload), crc) + payload

    def _try_frame(self, data: bytes,
                   offset: int) -> Optional[Tuple[bytes, int]]:
        """Decode one frame at ``offset``; None on truncation or CRC
        mismatch (both mean: the good prefix ends here)."""
        if offset + _HEADER.size > len(data):
            return None
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > len(data):
            return None
        payload = data[start:end]
        expected = zlib.crc32(
            self.store_id.encode("utf-8") + payload) & 0xFFFFFFFF
        if crc != expected:
            return None
        return payload, end

    def _append(self, writer: Writer) -> None:
        self.storage.append(self._frame(writer.done()))
        obs.counter("durable.records_total")
        self._records_since_sync += 1
        self._records_since_compact += 1
        if self._records_since_sync >= self.sync_every:
            self.sync()
        if self.compact_every and (self._records_since_compact
                                   >= self.compact_every):
            self.compact()
