"""Tests for the Deployment builder and its conveniences."""

from unittest import mock

import pytest

from repro import instrument
from repro.core.deployment import Deployment
from repro.errors import ParameterError, RevokedKeyError


class TestBuild:
    def test_default_build(self):
        deployment = Deployment.build(preset="TEST", seed=1)
        assert "Company X" in deployment.gms
        assert "alice" in deployment.users
        assert "MR-1" in deployment.routers

    def test_deterministic_given_seed(self):
        a = Deployment.build(preset="TEST", seed=5)
        b = Deployment.build(preset="TEST", seed=5)
        assert (a.operator.gpk.w.encode()
                == b.operator.gpk.w.encode())
        assert (a.users["alice"].credentials["Company X"].x
                == b.users["alice"].credentials["Company X"].x)

    def test_different_seeds_differ(self):
        a = Deployment.build(preset="TEST", seed=5)
        b = Deployment.build(preset="TEST", seed=6)
        assert a.operator.gpk.w.encode() != b.operator.gpk.w.encode()

    def test_multi_group_multi_router(self, deployment):
        assert len(deployment.gms) == 2
        assert len(deployment.routers) == 2
        assert deployment.users["alice"].credentials.keys() == {
            "Company X", "University Z"}


class TestConnect:
    def test_connect_returns_matched_sessions(self, fresh_deployment):
        deployment = fresh_deployment()
        user_session, router_session = deployment.connect("alice", "MR-1")
        assert user_session.session_id == router_session.session_id

    def test_connect_feeds_network_log(self, fresh_deployment):
        deployment = fresh_deployment()
        user_session, _ = deployment.connect("alice", "MR-1")
        assert deployment.network_log.find(user_session.session_id)

    def test_context_selects_credential(self, fresh_deployment):
        deployment = fresh_deployment(
            users=[("alice", ["Company X", "University Z"])])
        deployment.connect("alice", "MR-1", context="University Z")
        from repro.core.audit import audit_by_session
        entry_id = deployment.routers["MR-1"].auth_log[-1].session_id
        result = audit_by_session(deployment.operator,
                                  deployment.network_log, entry_id)
        assert result.group_name == "University Z"

    def test_missing_context_credential_rejected(self, fresh_deployment):
        deployment = fresh_deployment()
        with pytest.raises(ParameterError):
            deployment.connect("bob", "MR-1", context="Company X")


class TestRevocationLifecycle:
    def test_revoked_then_blocked_everywhere(self, fresh_deployment):
        deployment = fresh_deployment(routers=["MR-1"])
        deployment.connect("bob", "MR-1")   # worked before revocation
        index = deployment.users["bob"].credentials["University Z"].index
        deployment.operator.revoke_user_key(index)
        deployment.routers["MR-1"].refresh_lists()
        with pytest.raises(RevokedKeyError):
            deployment.connect("bob", "MR-1")

    def test_other_users_unaffected(self, fresh_deployment):
        deployment = fresh_deployment()
        index = deployment.users["bob"].credentials["University Z"].index
        deployment.operator.revoke_user_key(index)
        deployment.routers["MR-1"].refresh_lists()
        deployment.connect("alice", "MR-1")   # still fine

    def test_revocation_idempotent(self, fresh_deployment):
        deployment = fresh_deployment()
        index = deployment.users["bob"].credentials["University Z"].index
        deployment.operator.revoke_user_key(index)
        version_after_first = deployment.operator.issue_url().version
        deployment.operator.revoke_user_key(index)
        assert deployment.operator.issue_url().version == \
            version_after_first

    def test_user_with_second_credential_survives(self, fresh_deployment):
        """Revoking alice's Company-X key leaves her University-Z role
        usable -- per-role revocation, the privacy model's granularity."""
        deployment = fresh_deployment(
            users=[("alice", ["Company X", "University Z"])])
        index = deployment.users["alice"].credentials["Company X"].index
        deployment.operator.revoke_user_key(index)
        deployment.routers["MR-1"].refresh_lists()
        with pytest.raises(RevokedKeyError):
            deployment.connect("alice", "MR-1", context="Company X")
        deployment.connect("alice", "MR-1", context="University Z")


class TestPeerConnect:
    def test_peer_connect_sessions_match(self, fresh_deployment):
        deployment = fresh_deployment()
        si, sr = deployment.peer_connect("alice", "bob", "MR-1")
        assert si.session_id == sr.session_id


class TestColdStart:
    """Standing a deployment up runs on the engine's kernels alone."""

    #: The paper's tallies: 6 key issues, w and the credential check's
    #: exp, its 2 pairings; then a flat-mode handshake against a URL of
    #: 2 tokens (sign 8 exp + 2 pairings, verify 6 exp + 3 + 2*2
    #: pairings).
    BUILD = {"ecdsa_sign": 8, "ecdsa_verify": 4, "exp": 8, "pairing": 2}
    HANDSHAKE = {"aes_block": 8, "ecdsa_sign": 1, "ecdsa_verify": 4,
                 "exp": 14, "exp_gt": 1, "hash_to_group": 4, "mac": 2,
                 "pairing": 9, "psi": 4, "sym_decrypt": 1,
                 "sym_encrypt": 1}

    def test_build_and_first_handshake_skip_the_generic_pairing(self):
        # Every pairing on this path runs on the engine's tables; a
        # one-off PairingGroup.pair would build a line table per call.
        with mock.patch("repro.pairing.group.PairingGroup.pair",
                        side_effect=AssertionError("one-off pairing")):
            with instrument.count_operations() as build_ops:
                deployment = Deployment.build(
                    preset="TEST", seed=11, groups={"Metro": 6},
                    users=[("alice", ["Metro"])], routers=["MR-1"])
            mine = deployment.users["alice"].credentials["Metro"].index
            others = [(mine[0], j) for j in range(6) if (mine[0], j) != mine]
            for index in others[:2]:
                deployment.operator.revoke_user_key(index)
            deployment.routers["MR-1"].refresh_lists()
            with instrument.count_operations() as handshake_ops:
                user_session, router_session = deployment.connect(
                    "alice", "MR-1")
        assert user_session.session_id == router_session.session_id
        assert build_ops.snapshot() == self.BUILD
        assert handshake_ops.snapshot() == self.HANDSHAKE
