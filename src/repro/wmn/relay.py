"""Multi-hop uplink relaying over authenticated peer sessions (IV.C).

Users beyond a router's reach forward their traffic through peers.  In
PEACE every adjacent pair first runs the user-user handshake; data then
travels hop-by-hop, each hop protected by that pair's session key (the
MAC-based hybrid phase).  :class:`RelayUser` extends the basic
:class:`~repro.wmn.nodes.SimUser` with:

* answering peer hellos (M~.1 -> M~.2 -> M~.3) over the radio;
* a relay envelope format carrying the remaining path; and
* hop-by-hop unseal / re-seal forwarding.

The handshake itself is done at boosted power straight to the router
(paper footnote 3); only *data* is relayed, matching the paper's model.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.messages import Beacon, PeerConfirm, PeerHello, PeerResponse
from repro.core.protocols.session import SecureSession
from repro.core.protocols.user_user import PeerAuthEngine
from repro.core.wire import Reader, Writer
from repro.errors import ProtocolError, ReproError, SimulationError
from repro.wmn.nodes import SimUser
from repro.wmn.radio import Frame


def _pack_envelope(path: List[str], router_id: str, inner: bytes) -> bytes:
    writer = Writer().u32(len(path))
    for hop in path:
        writer.string(hop)
    writer.string(router_id)
    writer.var(inner)
    return writer.done()


def _unpack_envelope(data: bytes):
    reader = Reader(data)
    hops = [reader.string() for _ in range(reader.u32())]
    router_id = reader.string()
    inner = reader.var()
    reader.expect_end()
    return hops, router_id, inner


class RelayUser(SimUser):
    """A user that also relays for authenticated peers."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.peer_sessions: Dict[str, SecureSession] = {}
        self._peer_engine: Optional[PeerAuthEngine] = None
        self._pending_peers: Dict[str, object] = {}
        self.last_beacon_g = None
        self.relay_metrics = {"peer_handshakes": 0, "relayed": 0,
                              "relay_rejected": 0}

    # -- engine -----------------------------------------------------------

    def _engine(self) -> PeerAuthEngine:
        if self._peer_engine is None:
            self._peer_engine = self.user.peer_engine(self.context)
        return self._peer_engine

    def current_url(self):
        """URL for peer revocation checks, from the freshest beacon."""
        if self._last_url is None:
            raise ProtocolError("no beacon heard yet; URL unknown")
        return self._last_url

    _last_url = None

    # -- frame intake -------------------------------------------------------

    def deliver(self, frame: Frame) -> None:
        if frame.kind == "M.1" and frame.dst is None:
            self._adopt_beacon(frame.payload)
            super().deliver(frame)
        elif frame.kind == "N.1" and frame.dst == self.node_id:
            self._on_peer_hello(frame)
        elif frame.kind == "N.2" and frame.dst == self.node_id:
            self._on_peer_response(frame)
        elif frame.kind == "N.3" and frame.dst == self.node_id:
            self._on_peer_confirm(frame)
        elif frame.kind == "RLY" and frame.dst == self.node_id:
            self._on_relay(frame)
        else:
            super().deliver(frame)

    def _adopt_beacon(self, payload: bytes) -> None:
        """Take g and the URL from a beacon that passes every M.1 check.

        The URL drives the Eq.3 scan of every peer handshake, so taking
        it from an unchecked beacon would let a forged one unrevoke a
        peer.  A URL never replaces one of a higher version (the
        routers' gossip rule; rotation only raises versions).
        """
        try:
            beacon = Beacon.decode(self.user.group,
                                   self.user.operator_public_key.curve,
                                   payload)
            self.user.auth_engine(self.context).validate_beacon(beacon)
        except ReproError:
            return
        self.last_beacon_g = beacon.g
        if (self._last_url is None
                or beacon.url.version >= self._last_url.version):
            self._last_url = beacon.url

    # -- peer handshake (both roles) ---------------------------------------

    def initiate_peer(self, peer_node_id: str) -> None:
        """Start the user-user handshake toward a neighbor."""
        if self.last_beacon_g is None:
            raise ProtocolError("cannot initiate: no beacon g known")
        hello, pending = self._engine().initiate(self.last_beacon_g)
        self._pending_peers[peer_node_id] = pending
        self.send(Frame("N.1", hello.encode(), src=self.node_id,
                        dst=peer_node_id))

    def _on_peer_hello(self, frame: Frame) -> None:
        try:
            hello = PeerHello.decode(self.user.group, frame.payload)
            response, pending = self._engine().respond(
                hello, self.current_url())
        except ReproError:
            self.relay_metrics["relay_rejected"] += 1
            return
        self._pending_peers[frame.src] = pending
        self.send(Frame("N.2", response.encode(), src=self.node_id,
                        dst=frame.src))

    def _on_peer_response(self, frame: Frame) -> None:
        pending = self._pending_peers.get(frame.src)
        if pending is None or pending.role != "initiator":
            return
        try:
            response = PeerResponse.decode(self.user.group, frame.payload)
            confirm, session = self._engine().complete(
                pending, response, self.current_url())
        except ReproError:
            self.relay_metrics["relay_rejected"] += 1
            return
        self.peer_sessions[frame.src] = session
        self.relay_metrics["peer_handshakes"] += 1
        del self._pending_peers[frame.src]
        self.send(Frame("N.3", confirm.encode(), src=self.node_id,
                        dst=frame.src))

    def _on_peer_confirm(self, frame: Frame) -> None:
        pending = self._pending_peers.get(frame.src)
        if pending is None or pending.role != "responder":
            return
        try:
            confirm = PeerConfirm.decode(self.user.group, frame.payload)
            session = self._engine().finalize(pending, confirm)
        except ReproError:
            self.relay_metrics["relay_rejected"] += 1
            return
        self.peer_sessions[frame.src] = session
        self.relay_metrics["peer_handshakes"] += 1
        del self._pending_peers[frame.src]

    # -- relayed uplink --------------------------------------------------------

    def send_relayed(self, path: List[str], router_id: str,
                     inner: bytes) -> None:
        """Send ``inner`` (an encoded DAT frame payload) along ``path``."""
        if not path:
            raise SimulationError("relay path is empty")
        first = path[0]
        session = self.peer_sessions.get(first)
        if session is None:
            raise ProtocolError(f"no peer session with {first}")
        envelope = _pack_envelope(path[1:], router_id, inner)
        packet = session.send(envelope)
        self.send(Frame("RLY", packet.encode(), src=self.node_id,
                        dst=first))

    def _on_relay(self, frame: Frame) -> None:
        session = self.peer_sessions.get(frame.src)
        if session is None:
            self.relay_metrics["relay_rejected"] += 1
            return
        try:
            from repro.core.messages import DataPacket
            packet = DataPacket.decode(frame.payload)
            envelope = session.receive(packet)
            hops, router_id, inner = _unpack_envelope(envelope)
        except ReproError:
            self.relay_metrics["relay_rejected"] += 1
            return
        self.relay_metrics["relayed"] += 1
        if hops:
            next_hop = hops[0]
            next_session = self.peer_sessions.get(next_hop)
            if next_session is None:
                self.relay_metrics["relay_rejected"] += 1
                return
            repacked = next_session.send(
                _pack_envelope(hops[1:], router_id, inner))
            self.send(Frame("RLY", repacked.encode(), src=self.node_id,
                            dst=next_hop))
        else:
            # Last relay hop: hand the inner DAT frame to the router.
            self.send(Frame("DAT", inner, src=self.node_id,
                            dst=router_id))
