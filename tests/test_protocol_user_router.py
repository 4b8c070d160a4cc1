"""The user-router AKA protocol (Section IV.B): happy path + attacks."""

from dataclasses import replace

import pytest

from repro import instrument
from repro.core.certs import SignatureMemo, UserRevocationList
from repro.core.messages import AccessRequest, Beacon
from repro.core.protocols.user_router import UserAuthEngine
from repro.errors import (
    AuthenticationError,
    CertificateError,
    EncodingError,
    InvalidSignature,
    ProtocolError,
    PuzzleError,
    ReplayError,
    ReproError,
    RevokedKeyError,
)


class TestHappyPath:
    def test_mutual_auth_and_key_agreement(self, fresh_deployment):
        deployment = fresh_deployment()
        user_session, router_session = deployment.connect("alice", "MR-1")
        assert user_session.session_id == router_session.session_id
        packet = user_session.send(b"up")
        assert router_session.receive(packet) == b"up"
        reply = router_session.send(b"down")
        assert user_session.receive(reply) == b"down"

    def test_three_messages_exactly(self, fresh_deployment):
        """The paper's minimal-rounds claim: one beacon, one request,
        one confirm."""
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        user = deployment.users["alice"]
        beacon = router.make_beacon()                      # M.1
        request, pending = user.connect_to_router(beacon)  # M.2
        confirm, _ = router.process_request(request)       # M.3
        session = user.complete_router_handshake(pending, confirm)
        assert session is not None

    def test_session_id_from_fresh_dh_values(self, fresh_deployment):
        """Sessions are identified by (g^r_R, g^r_j) pairs, all fresh."""
        deployment = fresh_deployment()
        ids = {deployment.connect("alice", "MR-1")[0].session_id
               for _ in range(3)}
        assert len(ids) == 3

    def test_router_logs_authentications(self, fresh_deployment):
        deployment = fresh_deployment()
        deployment.connect("alice", "MR-1")
        log = deployment.routers["MR-1"].auth_log
        assert len(log) == 1
        assert log[0].router_id == "MR-1"

    def test_router_never_learns_uid(self, fresh_deployment):
        """uid_j is never transmitted during protocol execution."""
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        user = deployment.users["alice"]
        beacon = router.make_beacon()
        request, _pending = user.connect_to_router(beacon)
        wire_bytes = request.encode()
        assert user.identity.uid not in wire_bytes
        assert user.identity.name.encode() not in wire_bytes


class TestBeaconValidation:
    def test_stale_beacon_rejected(self, fresh_deployment):
        deployment = fresh_deployment()
        beacon = deployment.routers["MR-1"].make_beacon()
        deployment.clock.advance(120.0)   # > ts window
        with pytest.raises(ReplayError):
            deployment.users["alice"].connect_to_router(beacon)

    def test_revoked_router_rejected_after_crl_update(self,
                                                      fresh_deployment):
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        deployment.operator.revoke_router("MR-1")
        router.refresh_lists()   # now serving a CRL listing itself
        beacon = router.make_beacon()
        with pytest.raises(CertificateError):
            deployment.users["alice"].connect_to_router(beacon)

    def test_forged_beacon_signature_rejected(self, fresh_deployment):
        deployment = fresh_deployment()
        beacon = deployment.routers["MR-1"].make_beacon()
        forged = Beacon(beacon.router_id, beacon.g, beacon.g_r_router,
                        beacon.ts1, b"\x01" * 42, beacon.certificate,
                        beacon.crl, beacon.url, beacon.puzzle)
        with pytest.raises(AuthenticationError):
            deployment.users["alice"].connect_to_router(forged)

    def test_certificate_id_mismatch_rejected(self, fresh_deployment):
        """A phisher replaying another router's cert under its own id."""
        deployment = fresh_deployment(routers=["MR-1", "MR-2"])
        beacon1 = deployment.routers["MR-1"].make_beacon()
        beacon2 = deployment.routers["MR-2"].make_beacon()
        frankenstein = Beacon("MR-2", beacon2.g, beacon2.g_r_router,
                              beacon2.ts1, beacon2.signature,
                              beacon1.certificate,   # wrong cert
                              beacon2.crl, beacon2.url)
        with pytest.raises(CertificateError):
            deployment.users["alice"].connect_to_router(frankenstein)

    def test_expired_certificate_rejected(self, fresh_deployment):
        deployment = fresh_deployment()
        beacon = deployment.routers["MR-1"].make_beacon()
        deployment.clock.advance(40 * 86400.0)
        fresh_beacon = deployment.routers["MR-1"].make_beacon()
        with pytest.raises(CertificateError):
            deployment.users["alice"].connect_to_router(fresh_beacon)


class TestRequestValidation:
    def test_replayed_request_rejected(self, fresh_deployment):
        """A captured (M.2) replayed later: the g^r_R echo has expired
        or the ts2 is stale."""
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        user = deployment.users["alice"]
        beacon = router.make_beacon()
        request, _ = user.connect_to_router(beacon)
        router.process_request(request)   # original succeeds
        deployment.clock.advance(400.0)
        with pytest.raises(ReplayError):
            router.process_request(request)

    def test_request_for_unknown_beacon_rejected(self, fresh_deployment):
        deployment = fresh_deployment(routers=["MR-1", "MR-2"])
        user = deployment.users["alice"]
        beacon1 = deployment.routers["MR-1"].make_beacon()
        request, _ = user.connect_to_router(beacon1)
        with pytest.raises(ReplayError):
            deployment.routers["MR-2"].process_request(request)

    def test_forged_group_signature_rejected(self, fresh_deployment):
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        user = deployment.users["alice"]
        beacon = router.make_beacon()
        request, _ = user.connect_to_router(beacon)
        sig = request.group_signature
        from repro.core.groupsig import GroupSignature
        forged = AccessRequest(
            request.g_r_user, request.g_r_router, request.ts2,
            GroupSignature(sig.r, sig.t1, sig.t2, sig.c,
                           (sig.s_alpha + 1) % deployment.group.order,
                           sig.s_x, sig.s_delta))
        with pytest.raises(InvalidSignature):
            router.process_request(forged)

    def test_revoked_user_rejected(self, fresh_deployment):
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        bob = deployment.users["bob"]
        index = bob.credentials["University Z"].index
        deployment.operator.revoke_user_key(index)
        router.refresh_lists()
        beacon = router.make_beacon()
        request, _ = bob.connect_to_router(beacon)
        with pytest.raises(RevokedKeyError):
            router.process_request(request)

    def test_rejection_stats_classified(self, fresh_deployment):
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        user = deployment.users["alice"]
        beacon = router.make_beacon()
        request, _ = user.connect_to_router(beacon)
        deployment.clock.advance(400.0)
        with pytest.raises(ReplayError):
            router.process_request(request)
        assert router.stats["rejected_replay"] == 1
        assert router.stats["accepted"] == 0


class TestBatchProcessing:
    def test_mixed_batch_classified_like_sequential(self, fresh_deployment):
        """process_request_batch: accepts, forgeries, and revoked users
        land exactly where sequential processing puts them."""
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        alice = deployment.users["alice"]
        bob = deployment.users["bob"]
        index = bob.credentials["University Z"].index
        deployment.operator.revoke_user_key(index)
        router.refresh_lists()

        requests = []
        pendings = []
        for user in (alice, alice):
            beacon = router.make_beacon()
            request, pending = user.connect_to_router(beacon)
            requests.append(request)
            pendings.append(pending)
        beacon = router.make_beacon()
        forged_src, _ = alice.connect_to_router(beacon)
        sig = forged_src.group_signature
        from repro.core.groupsig import GroupSignature
        requests.append(AccessRequest(
            forged_src.g_r_user, forged_src.g_r_router, forged_src.ts2,
            GroupSignature(sig.r, sig.t1, sig.t2, sig.c,
                           (sig.s_alpha + 1) % deployment.group.order,
                           sig.s_x, sig.s_delta)))
        beacon = router.make_beacon()
        revoked_request, _ = bob.connect_to_router(beacon)
        requests.append(revoked_request)

        outcomes = router.process_request_batch(requests)
        assert len(outcomes) == 4
        for pending, outcome in zip(pendings, outcomes[:2]):
            confirm, router_session = outcome
            user_session = alice.complete_router_handshake(pending, confirm)
            assert user_session.session_id == router_session.session_id
        assert isinstance(outcomes[2], InvalidSignature)
        assert isinstance(outcomes[3], RevokedKeyError)
        assert router.stats["accepted"] == 2
        assert router.stats["rejected_signature"] == 1
        assert router.stats["rejected_revoked"] == 1
        assert router.stats["requests"] == 4

    def test_batch_precheck_failures_skip_verification(self,
                                                       fresh_deployment):
        deployment = fresh_deployment(routers=["MR-1", "MR-2"])
        alice = deployment.users["alice"]
        other_beacon = deployment.routers["MR-2"].make_beacon()
        stray, _ = alice.connect_to_router(other_beacon)
        router = deployment.routers["MR-1"]
        beacon = router.make_beacon()
        good, pending = alice.connect_to_router(beacon)
        outcomes = router.process_request_batch([stray, good])
        assert isinstance(outcomes[0], ReplayError)
        confirm, _session = outcomes[1]
        assert alice.complete_router_handshake(pending, confirm) is not None
        assert router.stats["rejected_replay"] == 1
        assert router.stats["accepted"] == 1

    def test_empty_batch(self, fresh_deployment):
        deployment = fresh_deployment()
        assert deployment.routers["MR-1"].process_request_batch([]) == []


class TestConfirmValidation:
    def test_tampered_confirm_rejected(self, fresh_deployment):
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        user = deployment.users["alice"]
        beacon = router.make_beacon()
        request, pending = user.connect_to_router(beacon)
        confirm, _ = router.process_request(request)
        from repro.core.messages import AccessConfirm
        tampered = AccessConfirm(confirm.g_r_user, confirm.g_r_router,
                                 confirm.sealed[:-1]
                                 + bytes([confirm.sealed[-1] ^ 1]))
        with pytest.raises(Exception):
            user.complete_router_handshake(pending, tampered)

    def test_confirm_for_other_session_rejected(self, fresh_deployment):
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        alice, bob = deployment.users["alice"], deployment.users["bob"]
        beacon = router.make_beacon()
        request_a, pending_a = alice.connect_to_router(beacon)
        request_b, pending_b = bob.connect_to_router(beacon)
        confirm_a, _ = router.process_request(request_a)
        confirm_b, _ = router.process_request(request_b)
        with pytest.raises(ProtocolError):
            alice.complete_router_handshake(pending_a, confirm_b)


class TestPuzzlePath:
    def test_puzzle_required_and_solved(self, fresh_deployment):
        from repro.core.protocols.dos import DosPolicy

        def factory():
            policy = DosPolicy(base_difficulty=6, max_difficulty=6,
                               adaptive=False)
            policy.forced = True
            return policy

        deployment = fresh_deployment(dos_policy_factory=factory)
        router = deployment.routers["MR-1"]
        user = deployment.users["alice"]
        beacon = router.make_beacon()
        assert beacon.puzzle is not None
        request, pending = user.connect_to_router(beacon)
        assert request.puzzle_solution is not None
        confirm, _ = router.process_request(request)
        user.complete_router_handshake(pending, confirm)

    def test_missing_solution_rejected_cheaply(self, fresh_deployment):
        from repro import instrument
        from repro.core.protocols.dos import DosPolicy

        def factory():
            policy = DosPolicy(base_difficulty=6, max_difficulty=6,
                               adaptive=False)
            policy.forced = True
            return policy

        deployment = fresh_deployment(dos_policy_factory=factory)
        router = deployment.routers["MR-1"]
        user = deployment.users["alice"]
        beacon = router.make_beacon()
        request, _ = user.connect_to_router(beacon)
        stripped = AccessRequest(request.g_r_user, request.g_r_router,
                                 request.ts2, request.group_signature,
                                 puzzle_solution=None)
        with instrument.count_operations() as ops:
            with pytest.raises(PuzzleError):
                router.process_request(stripped)
        assert ops.pairings() == 0   # rejected before any pairing

    def test_user_refuses_excessive_difficulty(self, fresh_deployment):
        from repro.core.protocols.dos import DosPolicy

        def factory():
            policy = DosPolicy(base_difficulty=30, max_difficulty=30,
                               adaptive=False)
            policy.forced = True
            return policy

        deployment = fresh_deployment(dos_policy_factory=factory)
        beacon = deployment.routers["MR-1"].make_beacon()
        with pytest.raises(PuzzleError):
            deployment.users["alice"].connect_to_router(beacon)


# ---------------------------------------------------------------------------
# Beacons redo no fixed work: the list memos and the fixed-base DH base
# ---------------------------------------------------------------------------


def _outcome(check):
    """``"accepted"``, or the class and message of what ``check`` raised."""
    try:
        check()
    except ReproError as exc:
        return type(exc), str(exc)
    return "accepted"


def _relisted(router, **lists):
    """A fresh, validly signed beacon from ``router`` carrying other
    lists or another certificate.  The beacon signature covers only
    ``g, g^r_R, ts1``, so what rides beside it is the presenter's
    choice; the router's degraded-mode refusal is bypassed on purpose."""
    return replace(router.engine.make_beacon(), **lists)


def _revoke_spare(deployment, user_name):
    """Revoke one unassigned key of ``user_name``'s group and refresh
    every router's lists."""
    credentials = deployment.users[user_name].credentials
    group_id = next(iter(credentials.values())).index[0]
    taken = {cred.index for user in deployment.users.values()
             for cred in user.credentials.values()}
    deployment.operator.revoke_user_key(next(
        (group_id, j) for j in range(4) if (group_id, j) not in taken))
    for router in deployment.routers.values():
        router.refresh_lists()


class TestSmoke:
    """The per-user memo of NO signatures and the URL decode memo
    against a check with neither: every beacon of a scripted sequence
    ends the same way on both paths, accepted or with the same error
    class and message."""

    def test_memo_matches_memoless_check(self, fresh_deployment):
        deployment = fresh_deployment()
        clock, operator = deployment.clock, deployment.operator
        group, curve = deployment.group, operator.curve
        router = deployment.routers["MR-1"]

        def check(data, name="alice"):
            user = deployment.users[name]

            def memoised():
                beacon = Beacon.decode(group, curve, data)
                user.auth_engine().validate_beacon(beacon)

            def memoless():
                group.url_memo = None
                beacon = Beacon.decode(group, curve, data)
                UserAuthEngine(user.gpk, user.operator_public_key,
                               user.credential_for(),
                               clock=clock).validate_beacon(beacon)

            got = _outcome(memoised)
            assert got == _outcome(memoless)
            return got

        # Unchanged lists, then the lists after a refresh.
        assert check(router.make_beacon().encode()) == "accepted"
        assert check(router.make_beacon().encode()) == "accepted"
        _revoke_spare(deployment, "alice")
        assert check(router.make_beacon().encode()) == "accepted"
        assert check(router.make_beacon().encode()) == "accepted"
        verified_crl, verified_url = router.crl, router.url

        # Verified bytes that arrive after their update period.
        clock.advance(verified_url.update_period + 1.0)
        router.refresh_lists()
        assert check(_relisted(router, url=verified_url).encode()) == (
            CertificateError, "URL stale")
        kind, message = check(_relisted(router, crl=verified_crl).encode())
        assert kind is CertificateError and message.startswith("CRL stale")

        # A future-dated list fails on every beacon, memo or not, and
        # passes once its issue time has come.
        ahead = operator.issue_url(now=clock.now() + 1000.0)
        for _ in range(2):
            kind, message = check(_relisted(router, url=ahead).encode())
            assert message.startswith("URL future-dated")
        clock.advance(1000.0)
        router.refresh_lists()
        assert check(_relisted(router, url=ahead).encode()) == "accepted"

        # A verified payload under a forged signature, twice: a failed
        # check is never remembered.
        assert check(router.make_beacon().encode()) == "accepted"
        forged = replace(router.url, signature=router.crl.signature)
        for _ in range(2):
            assert check(_relisted(router, url=forged).encode()) == (
                CertificateError, "URL has a bad NO signature")

        # One flipped byte in a URL token.
        data = router.make_beacon().encode()
        token = router.url.tokens[0].encode()
        at = data.index(token) + len(token) - 1
        flipped = data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]
        assert check(flipped) != "accepted"
        assert check(router.make_beacon().encode()) == "accepted"

        # A second user checks for themself.
        assert check(router.make_beacon().encode(), "bob") == "accepted"

        # A verified certificate past its expiry.
        clock.set(router.certificate.expires_at + 1.0)
        router.refresh_lists()
        assert check(router.engine.make_beacon().encode()) == (
            CertificateError, "certificate for MR-1 expired")


class TestListMemos:
    def test_ecdsa_verifies_per_beacon(self, fresh_deployment):
        """Cert, CRL and URL are verified once per user; the beacon's own
        signature on every beacon.  (The memo lives on the user, so a
        count needs a user that has checked nothing yet.)"""
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]

        def verifies(name):
            beacon = router.make_beacon()
            with instrument.count_operations() as ops:
                deployment.users[name].auth_engine().validate_beacon(beacon)
            return ops.total("ecdsa_verify")

        assert verifies("alice") == 4
        assert verifies("alice") == 1
        assert verifies("bob") == 4

    def test_user_memo_stays_bounded(self, fresh_deployment):
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        alice = deployment.users["alice"]
        bound = SignatureMemo.MAX_ENTRIES
        for _ in range(2 * bound):
            deployment.clock.advance(1.0)
            url = deployment.operator.issue_url()
            alice.auth_engine().validate_beacon(_relisted(router, url=url))
        assert len(alice.verified) == bound
        # Least recently used out: the certificate and CRL, checked on
        # every beacon, are still known.
        with instrument.count_operations() as ops:
            alice.auth_engine().validate_beacon(_relisted(router, url=url))
        assert ops.total("ecdsa_verify") == 1

    def test_url_decode_hit_equals_fresh_decode(self, fresh_deployment):
        deployment = fresh_deployment()
        _revoke_spare(deployment, "alice")
        group = deployment.group
        blob = deployment.routers["MR-1"].url.encode()
        first = UserRevocationList.decode(group, blob)
        assert UserRevocationList.decode(group, blob) is first
        group.url_memo = None
        assert UserRevocationList.decode(group, blob) == first

    def test_url_decode_memo_holds_one_list(self, fresh_deployment):
        deployment = fresh_deployment()
        group = deployment.group
        router = deployment.routers["MR-1"]
        _revoke_spare(deployment, "alice")
        blob_a = router.url.encode()
        _revoke_spare(deployment, "bob")
        blob_b = router.url.encode()
        url_a = UserRevocationList.decode(group, blob_a)
        UserRevocationList.decode(group, blob_b)
        again = UserRevocationList.decode(group, blob_a)
        assert again == url_a and again is not url_a

    def test_malformed_url_never_memoised(self, fresh_deployment):
        deployment = fresh_deployment()
        _revoke_spare(deployment, "alice")
        group, curve = deployment.group, deployment.operator.curve
        router = deployment.routers["MR-1"]
        data = router.make_beacon().encode()
        good = Beacon.decode(group, curve, data).url
        at = data.index(router.url.tokens[0].encode())
        bad = data[:at] + b"\x07" + data[at + 1:]     # no such point tag
        for _ in range(2):
            with pytest.raises(EncodingError):
                Beacon.decode(group, curve, bad)
        assert group.url_memo[1] is good


class TestBeaconDhBase:
    def test_fresh_generator_for_one_exp(self, fresh_deployment):
        """g = g1^s off the fixed-base table: a fresh subgroup generator
        per beacon, and only g^r_R is billed."""
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        curve = deployment.group.curve
        bases = set()
        for _ in range(20):
            with instrument.count_operations() as ops:
                beacon = router.make_beacon()
            assert ops.snapshot() == {"exp": 1, "ecdsa_sign": 1}
            assert not beacon.g.is_identity()
            assert curve.in_subgroup(beacon.g.point)
            bases.add(beacon.g.encode())
        assert len(bases) == 20
