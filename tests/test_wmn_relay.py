"""Multi-hop relaying over authenticated peer sessions."""

from dataclasses import replace

import pytest

from repro.wmn.radio import Frame
from repro.wmn.scenario import Scenario, ScenarioConfig
from repro.wmn.topology import TopologyConfig


def relay_scenario(user_count=3, seed=5):
    return Scenario(ScenarioConfig(
        preset="TEST", seed=seed,
        topology=TopologyConfig(area_side=600.0, router_grid=1,
                                user_count=user_count, seed=seed,
                                access_range=600.0, user_range=600.0),
        group_sizes=(("Company X", 8),),
        beacon_interval=5.0,
        relay_capable=True))


class TestPeerHandshakeOverRadio:
    def test_two_users_establish_peer_session(self):
        scenario = relay_scenario()
        scenario.run(20.0)   # hear beacons (needed for g and URL)
        users = list(scenario.sim_users.values())
        a, b = users[0], users[1]
        a.initiate_peer(b.node_id)
        scenario.run(5.0)
        assert b.node_id in a.peer_sessions
        assert a.node_id in b.peer_sessions
        assert a.relay_metrics["peer_handshakes"] == 1
        assert b.relay_metrics["peer_handshakes"] == 1

    def test_peer_sessions_carry_data(self):
        scenario = relay_scenario()
        scenario.run(20.0)
        users = list(scenario.sim_users.values())
        a, b = users[0], users[1]
        a.initiate_peer(b.node_id)
        scenario.run(5.0)
        session_a = a.peer_sessions[b.node_id]
        session_b = b.peer_sessions[a.node_id]
        packet = session_a.send(b"direct peer data")
        assert session_b.receive(packet) == b"direct peer data"

    def test_initiate_before_beacon_fails(self):
        scenario = relay_scenario()
        users = list(scenario.sim_users.values())
        from repro.errors import ProtocolError
        with pytest.raises(ProtocolError):
            users[0].initiate_peer(users[1].node_id)


class TestRelayedUplink:
    def _connected_relay_setup(self, hops):
        """Users all connected to the router plus a peer chain."""
        scenario = relay_scenario(user_count=hops + 1)
        scenario.run(30.0)
        users = list(scenario.sim_users.values())
        for left, right in zip(users, users[1:]):
            left.initiate_peer(right.node_id)
            scenario.run(5.0)
        return scenario, users

    def test_single_hop_relay(self):
        scenario, users = self._connected_relay_setup(hops=1)
        source, relay = users[0], users[1]
        router = next(iter(scenario.sim_routers.values()))
        delivered_before = router.metrics["data_delivered"]
        # The SOURCE's own router session protects the inner packet;
        # the relay only forwards.
        assert source.session is not None
        from repro.wmn.nodes import pack_uplink
        inner = source.session.send(
            pack_uplink(b"relayed payload")).encode()
        source.send_relayed([relay.node_id], router.node_id, inner)
        scenario.run(5.0)
        assert router.metrics["data_delivered"] == delivered_before + 1
        assert relay.relay_metrics["relayed"] == 1

    def test_two_hop_relay(self):
        scenario, users = self._connected_relay_setup(hops=2)
        source, relay1, relay2 = users
        router = next(iter(scenario.sim_routers.values()))
        delivered_before = router.metrics["data_delivered"]
        from repro.wmn.nodes import pack_uplink
        inner = source.session.send(pack_uplink(b"two hops")).encode()
        source.send_relayed([relay1.node_id, relay2.node_id],
                            router.node_id, inner)
        scenario.run(5.0)
        assert router.metrics["data_delivered"] == delivered_before + 1
        assert relay1.relay_metrics["relayed"] == 1
        assert relay2.relay_metrics["relayed"] == 1

    def test_relay_without_session_rejected(self):
        scenario = relay_scenario()
        scenario.run(20.0)
        users = list(scenario.sim_users.values())
        from repro.errors import ProtocolError
        with pytest.raises(ProtocolError):
            users[0].send_relayed([users[1].node_id], "MR-0", b"data")

    def test_unsolicited_relay_frame_dropped(self):
        """A relay envelope from a stranger (no peer session) is
        rejected -- relaying only for authenticated peers (IV.C)."""
        scenario = relay_scenario()
        scenario.run(20.0)
        users = list(scenario.sim_users.values())
        target = users[0]
        from repro.wmn.radio import Frame
        target.deliver(Frame("RLY", b"\x00" * 64, src="stranger",
                             dst=target.node_id))
        assert target.relay_metrics["relay_rejected"] == 1
        assert target.relay_metrics["relayed"] == 0

    def test_tampered_envelope_rejected(self):
        scenario, users = self._connected_relay_setup(hops=1)
        source, relay = users[0], users[1]
        session = source.peer_sessions[relay.node_id]
        packet = session.send(b"will be tampered")
        blob = bytearray(packet.encode())
        blob[-1] ^= 1
        from repro.wmn.radio import Frame
        relay.deliver(Frame("RLY", bytes(blob), src=source.node_id,
                            dst=relay.node_id))
        assert relay.relay_metrics["relay_rejected"] >= 1


class TestRelayUrlAdoption:
    """A relay user's URL drives the Eq.3 scan of every peer handshake,
    so it may come only from a beacon that passes every M.1 check, and
    never roll back to a lower version."""

    def _revoked_peer(self):
        """A and B hear beacons; B is revoked and A holds the new URL.

        Returns ``(scenario, router, a, b, old_url)``, ``old_url`` being
        the router's empty URL from before the revocation.
        """
        scenario = relay_scenario()
        deployment = scenario.deployment
        router = next(iter(deployment.routers.values()))
        old_url = router.url
        a, b = list(scenario.sim_users.values())[:2]
        credential = next(iter(b.user.credentials.values()))
        deployment.operator.revoke_user_key(credential.index)
        router.refresh_lists()
        scenario.run(20.0)
        assert len(a.current_url().tokens) == 1
        return scenario, router, a, b, old_url

    @staticmethod
    def _peers(scenario, a, b):
        """Whether A completes a peer handshake with B."""
        a.initiate_peer(b.node_id)
        scenario.run(5.0)
        return b.node_id in a.peer_sessions

    def test_forged_beacon_cannot_unrevoke_a_peer(self):
        import random

        from repro.core.certs import RouterCertificate, UserRevocationList
        from repro.sig.ecdsa import ecdsa_generate

        scenario, router, a, b, _old = self._revoked_peer()
        honest = router.make_beacon()
        rogue = ecdsa_generate(router.keypair.curve, rng=random.Random(5))
        cert = RouterCertificate(honest.router_id, rogue.public,
                                 honest.certificate.expires_at, b"")
        cert = replace(cert, signature=rogue.sign(cert.signed_payload()))
        unsigned_empty = UserRevocationList(
            a.current_url().version + 1, honest.url.issued_at,
            honest.url.update_period, (), b"")
        forged = replace(honest, certificate=cert, url=unsigned_empty)
        forged = replace(forged,
                         signature=rogue.sign(forged.signed_payload()))
        a.deliver(Frame("M.1", forged.encode(), src=honest.router_id))
        assert len(a.current_url().tokens) == 1
        assert not self._peers(scenario, a, b)
        assert a.relay_metrics["relay_rejected"] == 1

    def test_honest_beacon_cannot_roll_the_url_back(self):
        scenario, router, a, b, old_url = self._revoked_peer()
        current = a.current_url()
        # The beacon signature does not cover the URL, so an honest
        # router's fresh beacon may carry any NO-signed list: this one
        # passes every M.1 check with the pre-revocation URL.
        stale = replace(router.make_beacon(), url=old_url)
        a.user.connect_to_router(stale, a.context)
        a.deliver(Frame("M.1", stale.encode(), src=stale.router_id))
        assert a.current_url() is current
        assert not self._peers(scenario, a, b)
