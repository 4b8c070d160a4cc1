"""Wireless medium: range-limited delivery, loss, and eavesdropping.

A deliberately simple disk model -- the paper's arguments do not hinge
on fading subtleties.  Per-frame latency is propagation (negligible at
city scale) plus serialization ``bytes * 8 / bitrate``, which is what
makes the byte-accounted message sizes matter for handshake delay (E4).

Every node within range of a transmission *hears* it, so passive
adversaries are modelled for free: an eavesdropper is just a node whose
``deliver`` records frames instead of acting on them.

Fault injection hooks in per delivery: an installed ``fault_filter``
(see :mod:`repro.faults`) may drop, duplicate, corrupt, or re-time each
scheduled delivery.  The hook sits *after* the medium's own range and
loss checks, so natural loss and injected faults compose.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from repro.errors import SimulationError
from repro.obs.spans import TraceContext
from repro.wmn.simclock import EventLoop

Position = Tuple[float, float]

#: A fault filter maps one about-to-be-scheduled delivery to zero or
#: more ``(delay, frame)`` deliveries: ``[]`` drops it, two entries
#: duplicate it, a rewritten frame corrupts it, a larger delay
#: delays/reorders it.  ``delay`` is relative to the transmit instant.
FaultFilter = Callable[["Frame", str, float], List[Tuple[float, "Frame"]]]


@dataclass(frozen=True)
class Frame:
    """One over-the-air frame.

    ``trace`` is observability side-band, not wire content: it carries
    the sender's :class:`~repro.obs.spans.TraceContext` so the
    receiver's spans stitch into the same per-handshake trace (the way
    a real deployment would propagate a trace id in a header).  It is
    excluded from equality and size accounting -- two frames with the
    same bytes are the same frame, traced or not.
    """

    kind: str                # "M.1", "M.2", ..., "DAT", "RLY"
    payload: bytes
    src: str
    dst: Optional[str] = None   # None = broadcast
    trace: Optional[TraceContext] = field(default=None, compare=False,
                                          repr=False)

    @property
    def size(self) -> int:
        return len(self.payload) + 24   # 24B simulated MAC-layer header


class RadioNode(Protocol):
    """What the medium needs from a node."""

    node_id: str
    position: Position

    def deliver(self, frame: Frame) -> None: ...  # pragma: no cover


def distance(a: Position, b: Position) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


class RadioMedium:
    """Shared broadcast medium over an event loop."""

    def __init__(self, loop: EventLoop, bitrate: float = 12e6,
                 default_range: float = 250.0,
                 loss_probability: float = 0.0,
                 rng: Optional[random.Random] = None,
                 propagation_speed: float = 3e8) -> None:
        self.loop = loop
        self.bitrate = bitrate
        self.default_range = default_range
        self.loss_probability = loss_probability
        self.rng = rng or random.Random(0)
        self.propagation_speed = propagation_speed
        self._nodes: Dict[str, RadioNode] = {}
        self._ranges: Dict[str, float] = {}
        self.fault_filter: Optional[FaultFilter] = None
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_dropped = 0

    # -- membership ------------------------------------------------------

    def attach(self, node: RadioNode, tx_range: Optional[float] = None
               ) -> None:
        if node.node_id in self._nodes:
            raise SimulationError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        self._ranges[node.node_id] = (tx_range if tx_range is not None
                                      else self.default_range)
    def detach(self, node_id: str) -> None:
        self._nodes.pop(node_id, None)
        self._ranges.pop(node_id, None)

    def node(self, node_id: str) -> RadioNode:
        return self._nodes[node_id]

    def neighbors_of(self, node_id: str) -> List[str]:
        """Node ids currently within this node's transmit range."""
        sender = self._nodes[node_id]
        reach = self._ranges[node_id]
        return [other_id for other_id, other in self._nodes.items()
                if other_id != node_id
                and distance(sender.position, other.position) <= reach]

    # -- transmission -------------------------------------------------------

    def transmit(self, frame: Frame,
                 tx_range: Optional[float] = None) -> None:
        """Send a frame; delivery is scheduled per receiver.

        Broadcast frames reach every node in range.  Unicast frames are
        *acted on* only by the addressee, but every node in range still
        hears them (``deliver`` is called with the frame regardless --
        receivers filter on ``dst`` themselves; passive attackers
        don't).
        """
        sender = self._nodes.get(frame.src)
        if sender is None:
            raise SimulationError(f"unknown sender {frame.src!r}")
        reach = tx_range if tx_range is not None else self._ranges[frame.src]
        tx_delay = frame.size * 8 / self.bitrate
        self.frames_sent += 1
        self.bytes_sent += frame.size
        for receiver_id, receiver in list(self._nodes.items()):
            if receiver_id == frame.src:
                continue
            dist = distance(sender.position, receiver.position)
            if dist > reach:
                continue
            if (self.loss_probability
                    and self.rng.random() < self.loss_probability):
                self.frames_dropped += 1
                continue
            delay = tx_delay + dist / self.propagation_speed
            if self.fault_filter is None:
                self.loop.schedule(delay,
                                   _make_delivery(receiver, frame))
                continue
            for when, out_frame in self.fault_filter(frame, receiver_id,
                                                     delay):
                self.loop.schedule(when,
                                   _make_delivery(receiver, out_frame))


def _make_delivery(receiver: RadioNode, frame: Frame) -> Callable[[], None]:
    def deliver() -> None:
        receiver.deliver(frame)
    return deliver
