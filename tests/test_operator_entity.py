"""Focused unit tests for the NetworkOperator entity."""

import random

import pytest

from repro.core import groupsig
from repro.errors import AuditError, ParameterError


class TestRouterProvisioning:
    def test_provisioned_cert_validates(self, fresh_deployment):
        deployment = fresh_deployment()
        keypair, cert = deployment.operator.provision_router("MR-extra")
        cert.validate(deployment.operator.public_key,
                      deployment.clock.now())
        assert cert.router_id == "MR-extra"
        assert cert.public_key == keypair.public

    def test_validity_horizon(self, fresh_deployment):
        deployment = fresh_deployment()
        _kp, cert = deployment.operator.provision_router(
            "MR-short", validity=100.0)
        now = deployment.clock.now()
        cert.validate(deployment.operator.public_key, now + 99.0)
        from repro.errors import CertificateError
        with pytest.raises(CertificateError):
            cert.validate(deployment.operator.public_key, now + 101.0)

    def test_revoke_unknown_router_rejected(self, fresh_deployment):
        deployment = fresh_deployment()
        with pytest.raises(ParameterError):
            deployment.operator.revoke_router("MR-ghost")

    def test_crl_version_bumps_on_revocation(self, fresh_deployment):
        deployment = fresh_deployment()
        v0 = deployment.operator.issue_crl().version
        deployment.operator.provision_router("MR-victim")
        deployment.operator.revoke_router("MR-victim")
        crl = deployment.operator.issue_crl()
        assert crl.version == v0 + 1
        assert crl.is_revoked("MR-victim")


class TestKeyIssuance:
    def test_revoke_unknown_index_rejected(self, fresh_deployment):
        deployment = fresh_deployment()
        with pytest.raises(ParameterError):
            deployment.operator.revoke_user_key((99, 99))

    def test_grt_grows_with_issuance(self, fresh_deployment):
        deployment = fresh_deployment(groups={"Company X": 3},
                                      users=[("alice", ["Company X"])])
        operator = deployment.operator
        before = operator.grt_size
        operator.issue_additional_keys("Company X", 2)
        assert operator.grt_size == before + 2

    def test_additional_keys_unknown_group_rejected(self,
                                                    fresh_deployment):
        deployment = fresh_deployment()
        with pytest.raises(ParameterError):
            deployment.operator.issue_additional_keys("Nonexistent", 1)

    def test_zero_member_batch_rejected(self, fresh_deployment):
        deployment = fresh_deployment()
        with pytest.raises(ParameterError):
            deployment.operator.register_user_group("Empty Org", 0)

    def test_group_name_lookup(self, fresh_deployment):
        deployment = fresh_deployment()
        assert deployment.operator.group_name(1) in ("Company X",
                                                     "University Z")


class TestListIssuance:
    def test_lists_carry_current_time(self, fresh_deployment):
        deployment = fresh_deployment()
        deployment.clock.advance(123.0)
        crl = deployment.operator.issue_crl()
        url = deployment.operator.issue_url()
        assert crl.issued_at == deployment.clock.now()
        assert url.issued_at == deployment.clock.now()

    def test_lists_signed_by_npk(self, fresh_deployment):
        deployment = fresh_deployment()
        crl = deployment.operator.issue_crl()
        url = deployment.operator.issue_url()
        crl.validate(deployment.operator.public_key,
                     deployment.clock.now())
        url.validate(deployment.operator.public_key,
                     deployment.clock.now())

    def test_url_reflects_revocations_in_order(self, fresh_deployment):
        deployment = fresh_deployment()
        index_a = deployment.users["alice"].credentials["Company X"].index
        index_b = deployment.users["bob"].credentials[
            "University Z"].index
        token_a = deployment.operator.revoke_user_key(index_a)
        token_b = deployment.operator.revoke_user_key(index_b)
        url = deployment.operator.issue_url()
        assert [t.a for t in url.tokens] == [token_a.a, token_b.a]


class TestRevocationIndex:
    """Revoking and reinstating a key are index lookups that keep the
    URL's order, version bumps and snapshots as an ordered list would."""

    def _indices(self, deployment):
        return [(credential.index[0], j)
                for credential in (
                    deployment.users["alice"].credentials["Company X"],
                    deployment.users["bob"].credentials["University Z"])
                for j in range(4)]

    def test_repeat_revoke_keeps_version(self, fresh_deployment):
        deployment = fresh_deployment()
        operator = deployment.operator
        index = self._indices(deployment)[0]
        operator.revoke_user_key(index)
        version = operator.list_versions()[1]
        operator.revoke_user_key(index)
        assert operator.list_versions()[1] == version
        assert len(operator.issue_url().tokens) == 1

    def test_unrevoking_an_absent_key_keeps_version(self, fresh_deployment):
        deployment = fresh_deployment()
        operator = deployment.operator
        first, second = self._indices(deployment)[:2]
        version = operator.list_versions()[1]
        operator.unrevoke_user_key(first)
        assert operator.list_versions()[1] == version
        operator.revoke_user_key(second)
        operator.unrevoke_user_key(first)
        assert operator.list_versions()[1] == version + 1

    def test_interleaved_order_matches_an_ordered_list(self,
                                                      fresh_deployment):
        # The reference is the URL as a plain list: a revoke appends a
        # token not yet present, an unrevoke removes it from anywhere,
        # and only a change bumps the version.
        deployment = fresh_deployment()
        operator = deployment.operator
        indices = self._indices(deployment)
        rng = random.Random(2024)
        base = operator.issue_url()
        expected = []
        version = operator.list_versions()[1]
        for _ in range(80):
            index = rng.choice(indices)
            if rng.random() < 0.6:
                token = operator.revoke_user_key(index)
                if all(t.a != token.a for t in expected):
                    expected.append(token)
                    version += 1
            else:
                token = operator.unrevoke_user_key(index)
                if any(t.a == token.a for t in expected):
                    expected = [t for t in expected if t.a != token.a]
                    version += 1
            assert operator.list_versions()[1] == version
        url = operator.issue_url()
        assert [t.a for t in url.tokens] == [t.a for t in expected]
        delta = operator.issue_url_delta(base.version)
        if delta is not None:
            assert [t.a for t in delta.apply(base).tokens] == \
                [t.a for t in expected]

    def test_rotation_clears_the_index(self, fresh_deployment):
        deployment = fresh_deployment()
        operator = deployment.operator
        index = self._indices(deployment)[0]
        operator.revoke_user_key(index)
        version = operator.list_versions()[1]
        operator.rotate_system_keys()
        assert operator.list_versions()[1] == version + 1
        assert operator.issue_url().tokens == ()
        # The index's fresh-epoch token is a new revocation; the retired
        # epoch's token does not come back with it.
        token = operator.revoke_user_key(index)
        assert [t.a for t in operator.issue_url().tokens] == [token.a]
        operator.unrevoke_user_key(index)
        assert operator.issue_url().tokens == ()


class TestAuditEdgeCases:
    def test_audit_fails_for_foreign_signature(self, fresh_deployment,
                                               group, rng):
        deployment = fresh_deployment()
        foreign_gpk, foreign_master = groupsig.keygen_master(group, rng)
        foreign_key = groupsig.issue_member_key(group, foreign_master,
                                                1, (1, 1), rng)
        signature = groupsig.sign(foreign_gpk, foreign_key, b"alien",
                                  rng=rng)
        with pytest.raises(AuditError):
            deployment.operator.audit_session(b"alien", signature)

    def test_audit_result_index_roundtrip(self, fresh_deployment):
        deployment = fresh_deployment()
        session, _ = deployment.connect("alice", "MR-1")
        result = deployment.operator.audit_session(
            deployment.routers["MR-1"].auth_log[-1].signed_payload,
            deployment.routers["MR-1"].auth_log[-1].group_signature)
        index = deployment.operator.audit_result_index(result)
        assert index == deployment.users["alice"].credentials[
            "Company X"].index
