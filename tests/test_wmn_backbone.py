"""User-to-user communication through mesh routers and the backbone.

Paper III.A: "all the network traffic has to go through a mesh router
except the communication between two direct neighboring users" -- these
tests exercise that path: user A -> serving router -> (backbone) ->
user B's router -> one-hop downlink -> user B, addressed purely by
anonymous session handles.
"""

import pytest

from repro.errors import ProtocolError, SimulationError
from repro.wmn.backbone import BackboneFrame, BackboneNetwork, UplinkDirectory
from repro.wmn.nodes import (
    ENV_FROM_SESSION,
    ENV_TO_SESSION,
    ENV_UPLINK,
    pack_from_session,
    pack_to_session,
    pack_uplink,
    unpack_envelope,
)
from repro.wmn.scenario import Scenario, ScenarioConfig
from repro.wmn.simclock import EventLoop
from repro.wmn.topology import TopologyConfig


class TestEnvelopes:
    def test_uplink_roundtrip(self):
        kind, payload = unpack_envelope(pack_uplink(b"data"))
        assert kind == ENV_UPLINK and payload == b"data"

    def test_to_session_roundtrip(self):
        kind, (dst, payload) = unpack_envelope(
            pack_to_session(b"S" * 16, b"data"))
        assert kind == ENV_TO_SESSION
        assert dst == b"S" * 16 and payload == b"data"

    def test_from_session_roundtrip(self):
        kind, (src, payload) = unpack_envelope(
            pack_from_session(b"T" * 16, b"data"))
        assert kind == ENV_FROM_SESSION
        assert src == b"T" * 16 and payload == b"data"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            unpack_envelope(b"\x09junk")


class TestBackboneNetwork:
    def _net(self):
        loop = EventLoop()
        backbone = {"MR-a": ("MR-b",), "MR-b": ("MR-a", "MR-c"),
                    "MR-c": ("MR-b",)}
        return loop, BackboneNetwork(loop, backbone)

    def test_multihop_delivery(self):
        loop, net = self._net()
        got = []
        net.attach_router("MR-a", got.append)
        net.attach_router("MR-c", got.append)
        assert net.send(BackboneFrame("MR-a", "MR-c", b"x"))
        loop.run_all()
        assert len(got) == 1 and got[0].payload == b"x"
        assert net.hops_traversed == 2

    def test_unknown_destination_dropped(self):
        loop, net = self._net()
        net.attach_router("MR-a", lambda f: None)
        assert not net.send(BackboneFrame("MR-a", "MR-z", b"x"))
        assert net.frames_undeliverable == 1

    def test_partition_detected(self):
        loop = EventLoop()
        net = BackboneNetwork(loop, {"MR-a": (), "MR-b": ()})   # no edge
        net.attach_router("MR-a", lambda f: None)
        net.attach_router("MR-b", lambda f: None)
        assert not net.send(BackboneFrame("MR-a", "MR-b", b"x"))

    def test_attach_unknown_node_rejected(self):
        _loop, net = self._net()
        with pytest.raises(SimulationError):
            net.attach_router("MR-z", lambda f: None)

    def test_latency_scales_with_hops(self):
        loop, net = self._net()
        arrivals = {}
        net.attach_router("MR-b", lambda f: arrivals.__setitem__(
            "b", loop.now))
        net.attach_router("MR-c", lambda f: arrivals.__setitem__(
            "c", loop.now))
        net.send(BackboneFrame("MR-a", "MR-b", b"x"))
        net.send(BackboneFrame("MR-a", "MR-c", b"x"))
        loop.run_all()
        assert arrivals["c"] > arrivals["b"]


class TestDirectory:
    def test_publish_locate_withdraw(self):
        directory = UplinkDirectory()
        directory.publish(b"S1", "MR-1")
        assert directory.locate(b"S1") == "MR-1"
        directory.withdraw(b"S1")
        assert directory.locate(b"S1") is None
        assert len(directory) == 0


@pytest.fixture(scope="module")
def city():
    """A 2x2-router city with users attached to different routers."""
    scenario = Scenario(ScenarioConfig(
        preset="TEST", seed=555,
        topology=TopologyConfig(area_side=1600.0, router_grid=2,
                                user_count=6, seed=555,
                                access_range=600.0),
        group_sizes=(("Company X", 8), ("University Z", 8)),
        beacon_interval=4.0))
    scenario.run(40.0)
    return scenario


class TestEndToEnd:
    def _two_users_on_distinct_routers(self, scenario):
        by_router = {}
        for user in scenario.sim_users.values():
            if user.state == "connected":
                by_router.setdefault(user.router_id, user)
        routers = sorted(by_router)
        if len(routers) < 2:
            pytest.skip("all users landed on one router")
        return by_router[routers[0]], by_router[routers[1]]

    def test_cross_router_user_messaging(self, city):
        sender, receiver = self._two_users_on_distinct_routers(city)
        assert sender.router_id != receiver.router_id
        sender.send_to_session(receiver.session.session_id,
                               b"hello across the backbone")
        city.run(5.0)
        assert receiver.metrics["data_received"] == 1
        src_session, payload = receiver.inbox[-1]
        assert payload == b"hello across the backbone"
        assert src_session == sender.session.session_id
        assert city.backbone.frames_forwarded >= 1

    def test_reply_path(self, city):
        sender, receiver = self._two_users_on_distinct_routers(city)
        sender.send_to_session(receiver.session.session_id, b"ping")
        city.run(5.0)
        src_session, _ = receiver.inbox[-1]
        receiver.send_to_session(src_session, b"pong")
        city.run(5.0)
        assert sender.inbox[-1][1] == b"pong"

    def test_same_router_forwarding_is_local(self, city):
        by_router = {}
        for user in city.sim_users.values():
            if user.state == "connected":
                by_router.setdefault(user.router_id, []).append(user)
        pair = next((users for users in by_router.values()
                     if len(users) >= 2), None)
        if pair is None:
            pytest.skip("no two users share a router")
        a, b = pair[0], pair[1]
        before = city.sim_routers[a.router_id].metrics["forwarded_local"]
        a.send_to_session(b.session.session_id, b"neighborly")
        city.run(5.0)
        assert (city.sim_routers[a.router_id].metrics["forwarded_local"]
                == before + 1)
        assert b.inbox[-1][1] == b"neighborly"

    def test_unknown_destination_counted(self, city):
        sender, _ = self._two_users_on_distinct_routers(city)
        router = city.sim_routers[sender.router_id]
        before = router.metrics["forward_failed"]
        sender.send_to_session(b"\x00" * 16, b"to nowhere")
        city.run(5.0)
        assert router.metrics["forward_failed"] == before + 1

    def test_identities_never_in_forwarding_state(self, city):
        """The directory and session tables hold anonymous handles."""
        rendered = repr(city.directory._locations)
        for user in city.deployment.users.values():
            assert user.identity.uid.hex() not in rendered
            assert user.identity.name not in rendered
