"""Focused unit tests for the NetworkOperator entity."""

import pickle
import random

import pytest

from repro import Deployment, instrument
from repro.core import groupsig
from repro.core.groupsig import RevocationToken
from repro.errors import AuditError, ParameterError
from repro.pairing.curve import Curve
from tests.oracles import signed_crl, signed_url


def _key_indices(deployment):
    """Every key index of the fresh deployment's two groups."""
    return [(credential.index[0], j)
            for credential in (
                deployment.users["alice"].credentials["Company X"],
                deployment.users["bob"].credentials["University Z"])
            for j in range(4)]


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

    def test_repeat_revoke_keeps_version(self, fresh_deployment):
        deployment = fresh_deployment()
        operator = deployment.operator
        index = _key_indices(deployment)[0]
        operator.revoke_user_key(index)
        version = operator.list_versions()[1]
        operator.revoke_user_key(index)
        assert operator.list_versions()[1] == version
        assert len(operator.issue_url().tokens) == 1

    def test_unrevoking_an_absent_key_keeps_version(self, fresh_deployment):
        deployment = fresh_deployment()
        operator = deployment.operator
        first, second = _key_indices(deployment)[:2]
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
        indices = _key_indices(deployment)
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
        index = _key_indices(deployment)[0]
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


def _signs(fn, *args):
    """``fn(*args)`` and the ECDSA signatures it made."""
    with instrument.count_operations() as ops:
        result = fn(*args)
    return result, ops.total("ecdsa_sign")


def _assert_published(operator, now):
    """Both lists at ``now`` are the oracle's, and the NO's signature
    on them checks."""
    crl, url = operator.issue_crl(now), operator.issue_url(now)
    assert crl == signed_crl(operator, now)
    assert crl.encode() == signed_crl(operator, now).encode()
    assert url == signed_url(operator, now)
    assert url.encode() == signed_url(operator, now).encode()
    crl.validate(operator.public_key, now)
    url.validate(operator.public_key, now)
    return crl, url


#: One change to the operator's state each, and the lists it moves.
_CHANGES = {
    "revoke": ("url",),
    "unrevoke": ("url",),
    "revoke_router": ("crl",),
    "rotate": ("url",),
    "advance": ("crl", "url"),
    "crl_period": ("crl",),
    "url_period": ("url",),
}


def _apply_change(deployment, change, index):
    operator = deployment.operator
    if change == "revoke":
        operator.revoke_user_key(index)
    elif change == "unrevoke":
        operator.unrevoke_user_key(index)
    elif change == "revoke_router":
        operator.revoke_router("MR-1")
    elif change == "rotate":
        operator.rotate_system_keys()
    elif change == "advance":
        deployment.clock.advance(1.0)
    elif change == "crl_period":
        operator.crl_update_period += 60.0
    else:
        operator.url_update_period += 60.0


class TestListPublication:
    """The NO signs each list once per version, instant and update
    period; every list it hands out equals a freshly signed one."""

    def test_same_instant_shares_one_signature(self, fresh_deployment):
        deployment = fresh_deployment()
        operator = deployment.operator
        operator.revoke_user_key(_key_indices(deployment)[0])
        deployment.clock.advance(5.0)
        now = deployment.clock.now()
        crl, crl_signs = _signs(operator.issue_crl)
        url, url_signs = _signs(operator.issue_url)
        assert (crl_signs, url_signs) == (1, 1)
        again_crl, again_crl_signs = _signs(operator.issue_crl)
        again_url, again_url_signs = _signs(operator.issue_url, now)
        assert (again_crl_signs, again_url_signs) == (0, 0)
        assert again_crl.encode() == crl.encode()
        assert again_url.encode() == url.encode()
        _assert_published(operator, now)

    @pytest.mark.parametrize("change", sorted(_CHANGES))
    def test_each_change_republishes(self, fresh_deployment, change):
        deployment = fresh_deployment()
        operator = deployment.operator
        index = _key_indices(deployment)[1]
        if change == "unrevoke":
            operator.revoke_user_key(index)
        before_crl, before_url = _assert_published(
            operator, deployment.clock.now())
        _apply_change(deployment, change, index)
        now = deployment.clock.now()
        (crl, url), signs = _signs(
            lambda: (operator.issue_crl(), operator.issue_url()))
        assert signs == len(_CHANGES[change])
        for kind, before, after in (("crl", before_crl, crl),
                                    ("url", before_url, url)):
            key = (after.version, after.issued_at, after.update_period)
            if kind in _CHANGES[change]:
                assert key != (before.version, before.issued_at,
                               before.update_period)
            else:
                assert after is before
        assert crl.version == operator.list_versions()[0]
        assert url.version == operator.list_versions()[1]
        assert (crl.issued_at, url.issued_at) == (now, now)
        assert crl.update_period == operator.crl_update_period
        assert url.update_period == operator.url_update_period
        _assert_published(operator, now)

    def test_router_wave_signs_each_changed_list_once(self):
        deployment = Deployment.build(
            preset="TEST", seed=23, groups={"Metro": 6},
            users=[("alice", ["Metro"])],
            routers=["MR-1", "MR-2", "MR-3", "MR-4"])
        operator = deployment.operator
        routers = list(deployment.routers.values())
        mine = deployment.users["alice"].credentials["Metro"].index
        operator.revoke_user_key((mine[0], (mine[1] + 1) % 6))

        def refresh_all():
            for router in routers:
                router.refresh_lists()

        _, signs = _signs(refresh_all)
        assert signs == 1          # the URL; the CRL did not move
        assert len({router.url.encode() for router in routers}) == 1
        assert len({router.crl.encode() for router in routers}) == 1
        deployment.clock.advance(1.0)
        _, signs = _signs(refresh_all)
        assert signs == 2          # both lists carry the new instant
        _assert_published(operator, deployment.clock.now())
        deployment.connect("alice", "MR-3")

    def test_delta_carries_the_published_signature(self, fresh_deployment):
        deployment = fresh_deployment()
        operator = deployment.operator
        first, second = _key_indices(deployment)[:2]
        operator.revoke_user_key(first)
        base = operator.issue_url()
        operator.revoke_user_key(second)
        operator.unrevoke_user_key(first)
        deployment.clock.advance(2.0)
        target = operator.issue_url()
        delta, signs = _signs(operator.issue_url_delta, base.version)
        assert signs == 0
        assert delta.list_signature == target.signature
        applied = delta.apply(base)
        assert applied.encode() == target.encode()
        applied.validate(operator.public_key, deployment.clock.now())
        # At a fresh instant the delta publishes the URL it carries,
        # and a router refreshing at that instant gets the same list.
        deployment.clock.advance(2.0)
        delta, signs = _signs(operator.issue_url_delta, base.version)
        assert signs == 1
        url, signs = _signs(operator.issue_url)
        assert signs == 0
        assert delta.apply(base).encode() == url.encode()
        _assert_published(operator, deployment.clock.now())


class _EncodeCounter:
    """Counts :meth:`Curve.encode` calls while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        encode = Curve.encode

        def counting(curve, point):
            self.calls += 1
            return encode(curve, point)

        monkeypatch.setattr(Curve, "encode", counting)


class TestTokenBytes:
    """A revocation token encodes its A once; the cached bytes change
    no comparison and do not travel in a pickle."""

    def test_encode_is_the_point_encoding(self, member_keys, group,
                                          monkeypatch):
        token = RevocationToken(member_keys["a1"].a)
        assert token.encode() == member_keys["a1"].a.encode()
        counter = _EncodeCounter(monkeypatch)
        assert token.encode() is token.encode()
        decoded = RevocationToken.decode(group, token.encode())
        assert decoded == token
        assert decoded.encode() == token.encode()
        assert counter.calls == 0     # a decoded token keeps its bytes

    def test_cache_ignored_by_eq_hash_and_pickle(self, member_keys):
        a = member_keys["b1"].a
        cached, plain = RevocationToken(a), RevocationToken(a)
        cached.encode()
        assert cached == plain and hash(cached) == hash(plain)
        assert pickle.dumps(cached) == pickle.dumps(plain)
        restored = pickle.loads(pickle.dumps(cached))
        assert restored == cached and hash(restored) == hash(cached)
        assert restored.encode() == cached.encode()
        assert RevocationToken(member_keys["b2"].a) != cached

    def test_reissue_and_reindex_encode_only_new_tokens(
            self, fresh_deployment, monkeypatch):
        deployment = fresh_deployment(groups={"Company X": 8,
                                              "University Z": 4})
        operator = deployment.operator
        router = deployment.routers["MR-1"]
        state = router.enable_sharded_revocation()
        group_id = deployment.users["alice"].credentials["Company X"].index[0]
        mine = deployment.users["alice"].credentials["Company X"].index
        keys = [(group_id, j) for j in range(8) if (group_id, j) != mine]
        for index in keys[:4]:
            operator.revoke_user_key(index)
        router.refresh_lists()
        base_version = router.url.version
        counter = _EncodeCounter(monkeypatch)
        operator.unrevoke_user_key(keys[0])
        operator.revoke_user_key(keys[4])
        operator.revoke_user_key(keys[5])
        router.refresh_lists()
        assert state.url_version == router.url.version
        assert counter.calls == 2     # keys[4] and keys[5], once each
        operator.revoke_user_key(keys[0])
        deployment.clock.advance(1.0)
        router.refresh_lists()
        operator.issue_url_delta(base_version)
        router.url_delta_for(base_version)
        assert counter.calls == 2     # keys[0] was encoded before
        assert [t.a for t in router.url.tokens] == \
            [t.a for t in signed_url(operator, deployment.clock.now()).tokens]


class TestSmoke:
    """TEST grids of the list publication against the freshly signed
    oracle, and of the token bytes against a count of point
    encodings."""

    def test_publication_grid(self, fresh_deployment):
        deployment = fresh_deployment()
        operator = deployment.operator
        indices = _key_indices(deployment)
        rng = random.Random(7)
        crl, url = _assert_published(operator, deployment.clock.now())
        for _ in range(40):
            change = rng.choice(sorted(_CHANGES) + ["none"])
            if change != "none":
                _apply_change(deployment, change, rng.choice(indices))
            (new_crl, new_url), signs = _signs(
                lambda: (operator.issue_crl(), operator.issue_url()))
            moved = [new is not old for new, old in ((new_crl, crl),
                                                     (new_url, url))]
            assert signs == sum(moved)
            for new, old in ((new_crl, crl), (new_url, url)):
                same = ((new.version, new.issued_at, new.update_period)
                        == (old.version, old.issued_at, old.update_period))
                assert (new is old) == same
            _, signs = _signs(
                lambda: (operator.issue_crl(), operator.issue_url()))
            assert signs == 0
            crl, url = _assert_published(operator, deployment.clock.now())

    def test_token_bytes_grid(self, fresh_deployment, monkeypatch):
        deployment = fresh_deployment(groups={"Company X": 16,
                                              "University Z": 4})
        operator = deployment.operator
        router = deployment.routers["MR-1"]
        state = router.enable_sharded_revocation()
        mine = deployment.users["alice"].credentials["Company X"].index
        keys = [(mine[0], j) for j in range(16) if (mine[0], j) != mine]
        rng = random.Random(11)
        counter = _EncodeCounter(monkeypatch)
        revoked, encoded = set(), set()
        for _ in range(12):
            for index in rng.sample(keys, 3):
                if rng.random() < 0.5:
                    operator.revoke_user_key(index)
                    revoked.add(index)
                else:
                    operator.unrevoke_user_key(index)
                    revoked.discard(index)
            deployment.clock.advance(1.0)
            counter.calls = 0
            router.refresh_lists()
            # Only the tokens on the URL for the first time encode.
            assert counter.calls == len(revoked - encoded)
            assert state.url_version == router.url.version
            encoded |= revoked
            assert router.url == signed_url(operator,
                                            deployment.clock.now())


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
