"""The layer-2 wireless backbone: router-to-router forwarding.

Paper Section III.A: stationary mesh routers "form a multihop backbone
via long-range high-speed wireless techniques such as WiMAX", NO and
the routers share "pre-established secure channels", and "all the
network traffic has to go through a mesh router except the
communication between two direct neighboring users".

:class:`BackboneNetwork` models that layer: the topology's adjacency
map of router-to-router links, with per-hop latency and bitrate paid
over the breadth-first hop count, carrying opaque payloads between
routers over the event loop.
Because the channels are pre-secured by assumption, backbone frames are
not re-encrypted here -- end-to-end protection is the user sessions'
AEAD, which routers forward without being able to forge.

On top of it, :class:`UplinkDirectory` gives the simulator the paper's
user-to-user communication path: user A's uplink packet, addressed to
another user's *session*, travels A -> serving router -> (backbone) ->
B's serving router -> one-hop downlink to B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import SimulationError
from repro.wmn.simclock import EventLoop
from repro.wmn.topology import Backbone, hop_counts


@dataclass(frozen=True)
class BackboneFrame:
    """One router-to-router payload."""

    src_router: str
    dst_router: str
    payload: bytes
    kind: str = "FWD"

    @property
    def size(self) -> int:
        return len(self.payload) + 32   # backbone framing overhead


class BackboneNetwork:
    """Forwarding fabric over the topology's backbone graph."""

    def __init__(self, loop: EventLoop, backbone: Backbone,
                 bitrate: float = 70e6,
                 per_hop_latency: float = 0.001) -> None:
        self.loop = loop
        self.backbone = backbone
        self.bitrate = bitrate
        self.per_hop_latency = per_hop_latency
        self._handlers: Dict[str, Callable[[BackboneFrame], None]] = {}
        self.frames_forwarded = 0
        self.hops_traversed = 0
        self.frames_undeliverable = 0

    def attach_router(self, router_id: str,
                      handler: Callable[[BackboneFrame], None]) -> None:
        """Register a router's receive handler."""
        if router_id not in self.backbone:
            raise SimulationError(
                f"{router_id} is not a backbone node")
        self._handlers[router_id] = handler

    def send(self, frame: BackboneFrame) -> bool:
        """Route a frame across the backbone; returns acceptance.

        Delivery is scheduled after the cumulative per-hop latency and
        serialization delay; undeliverable frames (partition, unknown
        destination) are counted and dropped.
        """
        if frame.src_router == frame.dst_router:
            self._deliver_later(frame, delay=0.0)
            return True
        hops = hop_counts(self.backbone,
                          frame.src_router).get(frame.dst_router)
        if hops is None or frame.dst_router not in self._handlers:
            self.frames_undeliverable += 1
            return False
        delay = hops * (self.per_hop_latency
                        + frame.size * 8 / self.bitrate)
        self.hops_traversed += hops
        self.frames_forwarded += 1
        self._deliver_later(frame, delay)
        return True

    def _deliver_later(self, frame: BackboneFrame, delay: float) -> None:
        handler = self._handlers.get(frame.dst_router)
        if handler is None:
            self.frames_undeliverable += 1
            return

        def deliver() -> None:
            handler(frame)

        self.loop.schedule(delay, deliver)


class UplinkDirectory:
    """Where is each user session served?  (NO-side knowledge.)

    The operator knows which router holds which session (routers report
    over their secure channels); this directory is that knowledge,
    letting a serving router resolve a destination session id to the
    responsible router.  Session ids are anonymous handles -- the
    directory stores no user identity, consistent with the privacy
    model.
    """

    def __init__(self) -> None:
        self._locations: Dict[bytes, str] = {}

    def publish(self, session_id: bytes, router_id: str) -> None:
        self._locations[session_id] = router_id

    def locate(self, session_id: bytes) -> Optional[str]:
        return self._locations.get(session_id)

    def withdraw(self, session_id: bytes) -> None:
        self._locations.pop(session_id, None)

    def __len__(self) -> int:
        return len(self._locations)
