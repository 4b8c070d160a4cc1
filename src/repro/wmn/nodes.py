"""Simulator nodes wrapping the PEACE entities.

:class:`SimMeshRouter` and :class:`SimUser` connect the pure protocol
engines to the radio medium and the event loop.  Two times coexist:

* **wall time** -- the real cryptography actually runs (accept/reject
  decisions are genuine), but its host-machine duration is irrelevant;
* **virtual CPU time** -- routers charge their simulated CPU according
  to the :class:`~repro.wmn.costmodel.CostModel` (operation counts from
  the paper), which is what the DoS experiment measures.

Routers serve requests from a bounded FIFO through a single virtual
CPU; a flood of expensive-to-verify requests therefore delays or drops
legitimate ones exactly as Section V.A describes.
"""

from __future__ import annotations

import random
from collections import deque
from contextlib import nullcontext
from typing import Deque, Dict, List, Optional, Tuple

from repro import obs
from repro.core.messages import (
    AccessConfirm,
    AccessRequest,
    Beacon,
    DataPacket,
)
from repro.core.protocols.session import SecureSession
from repro.core.protocols.user_router import Retransmitter, RetryPolicy
from repro.core.router import MeshRouter
from repro.core.user import NetworkUser
from repro.errors import DegradedModeError, ProtocolError, ReproError, \
    SessionError, SimulationError
from repro.wmn.costmodel import CostModel
from repro.wmn.radio import Frame, Position, RadioMedium
from repro.wmn.simclock import EventLoop


# -- session-payload envelopes -------------------------------------------
#
# Inside every session DataPacket travels a one-byte-tagged envelope:
# ENV_UPLINK is Internet-bound traffic terminating at the router's
# wired side; ENV_TO_SESSION asks the serving router to forward to
# another user's (anonymous) session, possibly across the backbone;
# ENV_FROM_SESSION is the matching downlink the destination user sees.

ENV_UPLINK = 0
ENV_TO_SESSION = 1
ENV_FROM_SESSION = 2


def pack_uplink(payload: bytes) -> bytes:
    from repro.core.wire import Writer
    return Writer().u8(ENV_UPLINK).var(payload).done()


def pack_to_session(dst_session: bytes, payload: bytes) -> bytes:
    from repro.core.wire import Writer
    return (Writer().u8(ENV_TO_SESSION).var(dst_session)
            .var(payload).done())


def pack_from_session(src_session: bytes, payload: bytes) -> bytes:
    from repro.core.wire import Writer
    return (Writer().u8(ENV_FROM_SESSION).var(src_session)
            .var(payload).done())


def unpack_envelope(envelope: bytes):
    """Return ``(kind, fields)``: payload for UPLINK, (peer session,
    payload) tuples for the session-addressed kinds."""
    from repro.core.wire import Reader
    reader = Reader(envelope)
    kind = reader.u8()
    if kind == ENV_UPLINK:
        payload = reader.var()
        reader.expect_end()
        return kind, payload
    if kind in (ENV_TO_SESSION, ENV_FROM_SESSION):
        peer_session = reader.var()
        payload = reader.var()
        reader.expect_end()
        return kind, (peer_session, payload)
    raise ProtocolError(f"unknown envelope kind {kind}")


class SimNode:
    """Base class: a positioned, radio-attached node."""

    def __init__(self, node_id: str, position: Position,
                 loop: EventLoop, radio: RadioMedium,
                 tx_range: Optional[float] = None) -> None:
        self.node_id = node_id
        self.position = position
        self.loop = loop
        self.radio = radio
        radio.attach(self, tx_range=tx_range)

    def deliver(self, frame: Frame) -> None:  # pragma: no cover - override
        raise NotImplementedError

    def send(self, frame: Frame, tx_range: Optional[float] = None) -> None:
        self.radio.transmit(frame, tx_range=tx_range)


class SimMeshRouter(SimNode):
    """A mesh router: beacons, handshakes, uplink data sink."""

    def __init__(self, router: MeshRouter, position: Position,
                 loop: EventLoop, radio: RadioMedium,
                 cost_model: Optional[CostModel] = None,
                 beacon_interval: float = 5.0,
                 list_refresh_period: float = 600.0,
                 queue_limit: int = 64,
                 access_range: float = 350.0,
                 backbone=None, directory=None,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(router.router_id, position, loop, radio,
                         tx_range=access_range)
        self.router = router
        self.cost_model = cost_model or CostModel()
        self.beacon_interval = beacon_interval
        self.queue_limit = queue_limit
        self.backbone = backbone
        self.directory = directory
        self.rng = rng or random.Random(1)
        self._queue: Deque[Tuple[Frame, float]] = deque()
        self._cpu_draining = False
        self._session_nodes: Dict[bytes, str] = {}
        self.metrics = {
            "beacons_sent": 0, "beacons_suppressed": 0,
            "requests_enqueued": 0,
            "requests_dropped_queue": 0, "handshakes_completed": 0,
            "handshakes_rejected": 0, "duplicate_requests": 0,
            "data_delivered": 0,
            "data_rejected": 0, "cpu_busy_seconds": 0.0,
            "forwarded_local": 0, "forwarded_backbone": 0,
            "forward_failed": 0, "downlinks_sent": 0,
        }
        self.handshake_waits: List[float] = []
        self.crashed = False
        loop.schedule_every(beacon_interval, self._beacon,
                            jitter_rng=self.rng)
        # NOT ``self.router.refresh_lists``: a restart swaps the router
        # object, and a bound method would keep refreshing the dead one.
        loop.schedule_every(list_refresh_period, self._refresh_lists,
                            jitter_rng=self.rng)
        if backbone is not None:
            backbone.attach_router(self.node_id, self._on_backbone_frame)

    # -- crash / restart lifecycle ----------------------------------------

    def crash(self) -> None:
        """Kill this router: radio deaf, CPU dark, queue gone.

        The ``MeshRouter`` object is abandoned (its in-memory sessions,
        caches, and duplicate-suppression state die with it); whatever
        it journaled through its durable store is all a restart gets.
        """
        self.crashed = True
        self._queue.clear()
        self._cpu_draining = False
        self._session_nodes.clear()
        self.metrics["crashes"] = self.metrics.get("crashes", 0) + 1

    def restart(self, router: MeshRouter) -> None:
        """Boot back up with ``router`` (recovered from durable state)."""
        if router.router_id != self.node_id:
            raise SimulationError(
                f"restarting {self.node_id} with router object "
                f"{router.router_id!r}")
        self.router = router
        self.crashed = False
        self.metrics["restarts"] = self.metrics.get("restarts", 0) + 1

    def _refresh_lists(self) -> None:
        if not self.crashed:
            self.router.refresh_lists()

    # -- beaconing ------------------------------------------------------

    def _beacon(self) -> None:
        if self.crashed:
            return
        try:
            beacon = self.router.make_beacon()
        except DegradedModeError:
            # Past the staleness grace window: stop advertising rather
            # than invite handshakes we would refuse anyway.
            self.metrics["beacons_suppressed"] += 1
            return
        self.metrics["beacons_sent"] += 1
        self.send(Frame("M.1", beacon.encode(), src=self.node_id))

    # -- frame intake ---------------------------------------------------

    def deliver(self, frame: Frame) -> None:
        if self.crashed:
            return
        if frame.dst not in (None, self.node_id):
            return
        if frame.kind == "M.2":
            if len(self._queue) >= self.queue_limit:
                self.metrics["requests_dropped_queue"] += 1
                return
            self._queue.append((frame, self.loop.now))
            self.metrics["requests_enqueued"] += 1
            self._drain_cpu()
        elif frame.kind == "DAT":
            self._handle_data(frame)

    # -- virtual CPU ------------------------------------------------------

    def _drain_cpu(self) -> None:
        if self._cpu_draining or not self._queue:
            return
        self._cpu_draining = True
        frame, enqueued_at = self._queue.popleft()
        service_time = self._service_request(frame, enqueued_at)
        self.metrics["cpu_busy_seconds"] += service_time

        def finish() -> None:
            self._cpu_draining = False
            self._drain_cpu()

        self.loop.schedule(service_time, finish)

    def _service_request(self, frame: Frame, enqueued_at: float) -> float:
        """Process one M.2; returns the virtual CPU time consumed.

        A frame carrying a :class:`~repro.obs.spans.TraceContext` gets
        a ``router.service`` span parented under the *sender's*
        handshake span -- the cross-node stitch; the engine's
        ``router.handshake`` span (precheck, verify, accept) nests
        inside via the thread stack.
        """
        reg = obs.active()
        if reg is None or frame.trace is None:
            return self._service_one(frame, enqueued_at)
        with reg.span("router.service", context=frame.trace,
                      router=self.node_id):
            return self._service_one(frame, enqueued_at)

    def _service_one(self, frame: Frame, enqueued_at: float) -> float:
        policy = self.router.engine.dos_policy
        puzzle_active = (policy is not None
                         and policy.under_attack(self.loop.now))
        try:
            request = AccessRequest.decode(self.router.operator.group,
                                           frame.payload)
        except ReproError:
            self.metrics["handshakes_rejected"] += 1
            return self.cost_model.hash_op
        dup_before = self.router.engine.stats["duplicate_requests"]
        try:
            confirm, _session = self.router.process_request(request)
        except ReproError as exc:
            self.metrics["handshakes_rejected"] += 1
            # A failed puzzle check is cheap; a failed signature is not.
            from repro.errors import PuzzleError, ReplayError
            if isinstance(exc, (DegradedModeError, PuzzleError,
                                ReplayError)):
                return self.cost_model.puzzle_verify()
            return self.cost_model.group_verify(
                len(self.router.url.tokens))
        if self.router.engine.stats["duplicate_requests"] > dup_before:
            # Retransmitted (M.2): re-serve the cached (M.3) without a
            # second handshake, second session, or verification charge.
            self.metrics["duplicate_requests"] += 1
            self.send(Frame("M.3", confirm.encode(), src=self.node_id,
                            dst=frame.src, trace=frame.trace))
            return self.cost_model.hash_op
        self.metrics["handshakes_completed"] += 1
        self.handshake_waits.append(self.loop.now - enqueued_at)
        cost = self.cost_model.group_verify(len(self.router.url.tokens))
        if puzzle_active:
            cost += self.cost_model.puzzle_verify()
        self._session_nodes[_session.session_id] = frame.src
        if self.directory is not None:
            self.directory.publish(_session.session_id, self.node_id)
        self.send(Frame("M.3", confirm.encode(), src=self.node_id,
                        dst=frame.src, trace=frame.trace))
        return cost

    # -- data plane ---------------------------------------------------------

    def _handle_data(self, frame: Frame) -> None:
        try:
            packet = DataPacket.decode(frame.payload)
            session = self.router.engine.sessions.get(packet.session_id)
            if session is None:
                raise SessionError("unknown session")
            envelope = session.receive(packet)
            kind, fields = unpack_envelope(envelope)
        except ReproError:
            self.metrics["data_rejected"] += 1
            return
        if kind == ENV_UPLINK:
            # Terminal at the wired side: counts as delivered uplink.
            self.metrics["data_delivered"] += 1
        elif kind == ENV_TO_SESSION:
            dst_session, payload = fields
            self.metrics["data_delivered"] += 1
            self._forward_to_session(packet.session_id, dst_session,
                                     payload)
        else:
            self.metrics["data_rejected"] += 1

    def _forward_to_session(self, src_session: bytes, dst_session: bytes,
                            payload: bytes) -> None:
        """User-to-user traffic: local downlink or backbone forward."""
        if dst_session in self.router.engine.sessions:
            self.metrics["forwarded_local"] += 1
            self._downlink(dst_session, src_session, payload)
            return
        if self.backbone is None or self.directory is None:
            self.metrics["forward_failed"] += 1
            return
        location = self.directory.locate(dst_session)
        if location is None or location == self.node_id:
            self.metrics["forward_failed"] += 1
            return
        from repro.wmn.backbone import BackboneFrame
        from repro.core.wire import Writer
        inner = (Writer().var(dst_session).var(src_session)
                 .var(payload).done())
        if self.backbone.send(BackboneFrame(self.node_id, location,
                                            inner)):
            self.metrics["forwarded_backbone"] += 1
        else:
            self.metrics["forward_failed"] += 1

    def _on_backbone_frame(self, frame) -> None:
        if self.crashed:
            self.metrics["forward_failed"] += 1
            return
        from repro.core.wire import Reader
        try:
            reader = Reader(frame.payload)
            dst_session = reader.var()
            src_session = reader.var()
            payload = reader.var()
            reader.expect_end()
        except ReproError:
            self.metrics["forward_failed"] += 1
            return
        if dst_session not in self.router.engine.sessions:
            self.metrics["forward_failed"] += 1
            return
        self._downlink(dst_session, src_session, payload)

    def _downlink(self, dst_session: bytes, src_session: bytes,
                  payload: bytes) -> None:
        """One-hop downlink to the user holding ``dst_session``."""
        node_id = self._session_nodes.get(dst_session)
        session = self.router.engine.sessions.get(dst_session)
        if node_id is None or session is None:
            self.metrics["forward_failed"] += 1
            return
        envelope = pack_from_session(src_session, payload)
        packet = session.send(envelope)
        self.metrics["downlinks_sent"] += 1
        self.send(Frame("DAT", packet.encode(), src=self.node_id,
                        dst=node_id))


class SimUser(SimNode):
    """A mobile user: connects, sends uplink data, can relay for peers."""

    def __init__(self, user: NetworkUser, node_id: str, position: Position,
                 loop: EventLoop, radio: RadioMedium,
                 cost_model: Optional[CostModel] = None,
                 context: Optional[str] = None,
                 auto_connect: bool = True,
                 data_interval: Optional[float] = None,
                 data_payload: bytes = b"x" * 256,
                 user_range: float = 150.0,
                 boost_range: float = 400.0,
                 connect_timeout: Optional[float] = 30.0,
                 reconnect_interval: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(node_id, position, loop, radio, tx_range=user_range)
        self.user = user
        self.cost_model = cost_model or CostModel()
        self.context = context
        self.auto_connect = auto_connect
        self.data_payload = data_payload
        self.user_range = user_range
        self.boost_range = boost_range
        self.connect_timeout = connect_timeout
        self.retry_policy = retry_policy
        self._retx: Optional[Retransmitter] = None
        self.rng = rng or random.Random(2)
        if reconnect_interval is not None:
            loop.schedule_every(reconnect_interval, self.disconnect,
                                jitter_rng=self.rng)
        # One uplink series for the node's lifetime; it idles while the
        # user is not connected.
        if data_interval is not None:
            loop.schedule_every(data_interval, self._send_data,
                                jitter_rng=self.rng)

        self.state = "idle"            # idle | connecting | connected
        self.router_id: Optional[str] = None
        self.session: Optional[SecureSession] = None
        self._pending = None
        self.inbox: List[Tuple[bytes, bytes]] = []   # (src session, data)
        self.metrics = {
            "beacons_heard": 0, "beacons_rejected": 0,
            "connect_attempts": 0, "connected": 0,
            "retransmits": 0, "retry_give_ups": 0,
            "data_sent": 0, "data_received": 0,
            "auth_delay_sum": 0.0, "puzzles_solved": 0,
        }
        self.auth_delays: List[float] = []
        self._attempt_started = 0.0
        # Causal tracing: one root span per handshake *attempt*, opened
        # on the beacon that triggers it and finished on connect /
        # timeout / give-up.  Child spans on this node nest under it
        # via explicit contexts (the event loop interleaves nodes, so
        # the thread stack cannot be trusted across callbacks); the M.2
        # frame carries its context to the router.
        self._hs_span = None
        self._attempt_seq = 0

    # -- frame intake --------------------------------------------------------

    def deliver(self, frame: Frame) -> None:
        if frame.kind == "M.1" and frame.dst is None:
            self._on_beacon(frame)
        elif frame.kind == "M.3" and frame.dst == self.node_id:
            self._on_confirm(frame)
        elif frame.kind == "DAT" and frame.dst == self.node_id:
            self._on_downlink(frame)

    # -- handshake ------------------------------------------------------------

    def _on_beacon(self, frame: Frame) -> None:
        self.metrics["beacons_heard"] += 1
        if not self.auto_connect or self.state != "idle":
            return
        reg = obs.active()
        root = None
        if reg is not None:
            # Deterministic per-attempt trace id: replayable runs yield
            # replayable trace names.
            self._attempt_seq += 1
            root = reg.start_span(
                "handshake",
                trace_id=f"{self.node_id}#{self._attempt_seq}",
                user=self.node_id)
        try:
            with (reg.span("user.beacon_rx", context=root.context)
                  if root is not None else nullcontext()):
                beacon = Beacon.decode(self.user.group,
                                       self.user.operator_public_key.curve,
                                       frame.payload)
                request, pending = self.user.connect_to_router(
                    beacon, self.context)
        except ReproError:
            self.metrics["beacons_rejected"] += 1
            if root is not None:
                root.set_attr("outcome", "beacon_rejected")
                root.finish()
            return
        if root is not None:
            root.set_attr("router", beacon.router_id)
            self._hs_span = root
        if beacon.puzzle is not None:
            self.metrics["puzzles_solved"] += 1
        self._pending = pending
        self.router_id = beacon.router_id
        self.state = "connecting"
        self.metrics["connect_attempts"] += 1
        self._attempt_started = self.loop.now
        # Solving the puzzle costs the user virtual time before sending.
        delay = (self.cost_model.group_sign()
                 + self.cost_model.beacon_check())
        if beacon.puzzle is not None:
            delay += self.cost_model.puzzle_solve(
                beacon.puzzle.difficulty_bits)
        payload = request.encode()
        router_id = self.router_id
        m2_trace = root.context if root is not None else None

        def send_m2() -> None:
            self.send(Frame("M.2", payload, src=self.node_id,
                            dst=router_id, trace=m2_trace),
                      tx_range=self.boost_range)

        if self.retry_policy is None:
            self.loop.schedule(delay, send_m2)
        else:
            # Retransmit the identical wire bytes on timeout; the
            # router's duplicate cache makes late copies idempotent.
            retx = Retransmitter(
                send=send_m2, schedule=self.loop.schedule,
                policy=self.retry_policy, rng=self.rng,
                on_retry=self._note_retransmit,
                on_give_up=self._note_give_up)
            self._retx = retx

            def start() -> None:
                # The attempt may have been abandoned (timeout or a
                # newer beacon) while the crypto delay elapsed.
                if self.state == "connecting" and self._retx is retx:
                    retx.start()

            self.loop.schedule(delay, start)
        if self.connect_timeout is not None:
            attempt = self._attempt_started
            self.loop.schedule(self.connect_timeout,
                               lambda: self._maybe_timeout(attempt))

    def _note_retransmit(self) -> None:
        self.metrics["retransmits"] += 1
        if self._hs_span is not None:
            reg = obs.active()
            if reg is not None:
                # Instantaneous marker span: the retry itself takes no
                # virtual time, but the trace should show the attempt.
                retries = self._retx.retries if self._retx is not None \
                    else 0
                reg.start_span("handshake.retransmit",
                               context=self._hs_span.context,
                               attempt=retries).finish()

    def _finish_handshake_span(self, outcome: str) -> None:
        """Close the attempt's root span with its outcome (idempotent)."""
        if self._hs_span is not None:
            self._hs_span.set_attr("outcome", outcome)
            self._hs_span.finish()
            self._hs_span = None

    def _note_give_up(self) -> None:
        """Retry budget exhausted: abandon the attempt cleanly."""
        self.metrics["retry_give_ups"] += 1
        self._finish_handshake_span("give_up")
        if self.state == "connecting":
            self.disconnect()

    def _maybe_timeout(self, attempt_started: float) -> None:
        """Abandon a handshake that never completed (phisher, overload)."""
        if (self.state == "connecting"
                and self._attempt_started == attempt_started):
            self.metrics.setdefault("connect_timeouts", 0)
            self.metrics["connect_timeouts"] += 1
            self._finish_handshake_span("timeout")
            self.disconnect()

    def _on_confirm(self, frame: Frame) -> None:
        if self.state != "connecting" or self._pending is None:
            return
        reg = obs.active()
        try:
            with (reg.span("user.confirm", context=self._hs_span.context)
                  if reg is not None and self._hs_span is not None
                  else nullcontext()):
                confirm = AccessConfirm.decode(self.user.group,
                                               frame.payload)
                session = self.user.complete_router_handshake(
                    self._pending, confirm)
        except ReproError:
            return
        if self._retx is not None:
            self._retx.ack()
            self._retx = None
        self.session = session
        self.state = "connected"
        self.metrics["connected"] += 1
        delay = self.loop.now - self._attempt_started
        self.auth_delays.append(delay)
        self.metrics["auth_delay_sum"] += delay
        obs.counter("wmn.handshakes_total")
        obs.observe("wmn.auth_delay_seconds", delay)
        self._finish_handshake_span("connected")
        self._pending = None

    # -- data plane ------------------------------------------------------------

    def _send_data(self) -> None:
        if self.state != "connected" or self.session is None:
            return
        packet = self.session.send(pack_uplink(self.data_payload))
        self.metrics["data_sent"] += 1
        self.send(Frame("DAT", packet.encode(), src=self.node_id,
                        dst=self.router_id),
                  tx_range=self.boost_range)

    def send_to_session(self, dst_session_id: bytes,
                        payload: bytes) -> None:
        """User-to-user traffic via the serving router (paper III.A:
        all traffic goes through a mesh router).  The destination is an
        anonymous session handle, never an identity."""
        if self.state != "connected" or self.session is None:
            raise ProtocolError(f"{self.node_id} has no router session")
        packet = self.session.send(
            pack_to_session(dst_session_id, payload))
        self.metrics["data_sent"] += 1
        self.send(Frame("DAT", packet.encode(), src=self.node_id,
                        dst=self.router_id),
                  tx_range=self.boost_range)

    def _on_downlink(self, frame: Frame) -> None:
        if self.session is None:
            return
        try:
            packet = DataPacket.decode(frame.payload)
            envelope = self.session.receive(packet)
            kind, fields = unpack_envelope(envelope)
        except ReproError:
            return
        if kind == ENV_FROM_SESSION:
            src_session, payload = fields
            self.inbox.append((src_session, payload))
            self.metrics["data_received"] += 1

    # -- helpers -----------------------------------------------------------

    def disconnect(self) -> None:
        """Drop the current session and return to idle."""
        if self._retx is not None:
            self._retx.cancel()
            self._retx = None
        self._finish_handshake_span("disconnected")
        self.state = "idle"
        self.session = None
        self._pending = None
        self.router_id = None
