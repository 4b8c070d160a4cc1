"""Small-subgroup injection attempts against protocol boundaries.

The supersingular curve's full group order is ``p + 1 = h * r`` with a
large cofactor ``h``; a point can satisfy the curve equation yet lie
outside the prime-order-r subgroup.  Every externally supplied group
element (T1/T2 in signatures, the DH values of beacons, requests, and
peer messages) must be validated, or an attacker could inject
off-subgroup points.  :class:`TestPairingEntryPoints` holds the three
public functions that pair a signature from outside (the NO's open,
Eq.3 for one token, the period tag) to the binary-loop oracle on
signatures that verify, and to verification's milestone-1 refusal on
the rest.
"""

import random

import pytest

from repro import Deployment, instrument
from repro.core import groupsig
from repro.core.certs import UserRevocationList
from repro.core.groupsig import RevocationToken
from repro.core.messages import AccessRequest, Beacon, PeerHello
from repro.errors import (
    AuditError,
    AuthenticationError,
    EncodingError,
    InvalidSignature,
    ProtocolError,
)
from repro.pairing.curve import Point
from repro.pairing.group import G1Element, GTElement
from tests.oracles import tate_pairing, token_encoded
from tests.test_verify_differential import _mutate


def off_subgroup_point(group, rng=None):
    """Find a curve point OUTSIDE the order-r subgroup."""
    rng = rng or random.Random(1717)
    curve = group.curve
    while True:
        x = rng.randrange(curve.p)
        try:
            point = curve.lift_x(x, y_parity=rng.randrange(2))
        except Exception:
            continue
        if not curve.in_subgroup(point):
            return G1Element(point, group)


class TestOffSubgroupPoints:
    def test_such_points_exist(self, group):
        """Sanity: the cofactor is nontrivial and findable."""
        rogue = off_subgroup_point(group)
        assert group.curve.is_on_curve(rogue.point)
        assert not group.curve.in_subgroup(rogue.point)

    def test_signature_with_off_subgroup_t1_rejected(self, gpk,
                                                     member_keys, rng):
        sig = groupsig.sign(gpk, member_keys["a1"], b"m", rng=rng)
        rogue = off_subgroup_point(gpk.group)
        bad = groupsig.GroupSignature(sig.r, rogue, sig.t2, sig.c,
                                      sig.s_alpha, sig.s_x, sig.s_delta)
        with pytest.raises(InvalidSignature):
            groupsig.verify(gpk, b"m", bad)

    def test_signature_with_off_subgroup_t2_rejected(self, gpk,
                                                     member_keys, rng):
        sig = groupsig.sign(gpk, member_keys["a1"], b"m", rng=rng)
        rogue = off_subgroup_point(gpk.group)
        bad = groupsig.GroupSignature(sig.r, sig.t1, rogue, sig.c,
                                      sig.s_alpha, sig.s_x, sig.s_delta)
        with pytest.raises(InvalidSignature):
            groupsig.verify(gpk, b"m", bad)


class TestProtocolBoundaries:
    def test_beacon_with_off_subgroup_dh_rejected(self, fresh_deployment):
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        beacon = router.make_beacon()
        rogue = off_subgroup_point(deployment.group)
        # Re-sign so only the subgroup check can catch it.
        forged = Beacon(beacon.router_id, beacon.g, rogue, beacon.ts1,
                        b"", beacon.certificate, beacon.crl, beacon.url)
        forged = Beacon(forged.router_id, forged.g, rogue, forged.ts1,
                        router.keypair.sign(forged.signed_payload()),
                        forged.certificate, forged.crl, forged.url)
        with pytest.raises(ProtocolError):
            deployment.users["alice"].connect_to_router(forged)

    def test_request_with_off_subgroup_dh_rejected(self, fresh_deployment):
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        user = deployment.users["alice"]
        beacon = router.make_beacon()
        request, _ = user.connect_to_router(beacon)
        rogue = off_subgroup_point(deployment.group)
        forged = AccessRequest(rogue, request.g_r_router, request.ts2,
                               request.group_signature)
        with pytest.raises(AuthenticationError):
            router.process_request(forged)

    def test_peer_hello_with_off_subgroup_dh_rejected(self,
                                                      fresh_deployment):
        deployment = fresh_deployment()
        beacon = deployment.routers["MR-1"].make_beacon()
        initiator = deployment.users["alice"].peer_engine()
        responder = deployment.users["bob"].peer_engine()
        hello, _ = initiator.initiate(beacon.g)
        rogue = off_subgroup_point(deployment.group)
        forged = PeerHello(hello.g, rogue, hello.ts1,
                           hello.group_signature)
        with pytest.raises(ProtocolError):
            responder.respond(forged, beacon.url)

    def test_legitimate_flows_unaffected(self, fresh_deployment):
        """Hardening must not break anything legitimate."""
        deployment = fresh_deployment()
        deployment.connect("alice", "MR-1")
        deployment.peer_connect("alice", "bob", "MR-1")


# ---------------------------------------------------------------------------
# Entry points that pair a signature from outside
# ---------------------------------------------------------------------------


#: Signatures outside the domain of the pairing: T1 or T2 at infinity,
#: or plus the 2-torsion point, or plus an order-37 point.
OFF_GROUP = ("degenerate_t1", "degenerate_t2", "torsion_t1", "torsion_t2",
             "order37_t1", "order37_t2")


class TestPairingEntryPoints:
    """``open_signature``, ``signature_matches_token`` and
    ``revocation_tag`` pair a signature from outside, so each first runs
    verification's milestone 1, noting nothing."""

    @pytest.mark.parametrize("period", [None, b"entry-period"])
    def test_verifying_signatures_match_the_oracle(self, scheme, period):
        gpk, _master, keys = scheme
        group, curve = gpk.group, gpk.group.curve
        rng = random.Random(2525)
        tokens = [RevocationToken(key.a) for key in keys.values()]
        grt = [(token, position) for position, token in enumerate(tokens)]
        for position, key in enumerate(keys.values()):
            message = b"entry point %d" % position
            signature = groupsig.sign(gpk, key, message, rng=rng,
                                      period=period)
            groupsig.verify(gpk, message, signature, period=period)
            u_hat, v_hat, _u, _v = groupsig.derive_generators(
                gpk, message, signature.r, period)
            expected = [token_encoded(group, signature, token, u_hat, v_hat)
                        for token in tokens]
            assert expected == [index == position
                                for index in range(len(tokens))]
            assert [groupsig.signature_matches_token(
                gpk, message, signature, token, period)
                for token in tokens] == expected
            assert groupsig.open_signature(gpk, message, signature, grt,
                                           period) == position
            tag = (tate_pairing(curve, signature.t2.point, u_hat.point)
                   * tate_pairing(curve, signature.t1.point,
                                  v_hat.point).inverse())
            assert groupsig.revocation_tag(gpk, message, signature,
                                           period) == \
                GTElement(tag, group).encode()

    @pytest.mark.parametrize("period", [None, b"entry-period"])
    @pytest.mark.parametrize("kind", OFF_GROUP)
    def test_off_group_signature_refused_silently(self, scheme, kind,
                                                  period):
        gpk, _master, keys = scheme
        key = keys["a1"]
        message = b"entry point refusal"
        signature = _mutate(gpk, groupsig.sign(
            gpk, key, message, rng=random.Random(2626), period=period),
            kind)
        token = RevocationToken(key.a)
        expected = ("degenerate T1/T2" if kind.startswith("degenerate")
                    else "T1/T2 outside the prime-order subgroup")
        with instrument.count_operations() as ops:
            assert not groupsig.signature_matches_token(
                gpk, message, signature, token, period)
            assert groupsig.open_signature(
                gpk, message, signature, [(token, "a1")], period) is None
            with pytest.raises(InvalidSignature) as info:
                groupsig.revocation_tag(gpk, message, signature, period)
        assert str(info.value) == expected
        assert ops.snapshot() == {}

    def test_audit_refuses_a_torsion_shifted_signature(self, deployment):
        """A + (0, 0)'s trick on T1: the binary loop's Eq.3 still finds
        the signer, but the audit refuses a signature no router
        accepts."""
        operator = deployment.operator
        credential = deployment.users["alice"].credentials["Company X"]
        payload = b"audited session"
        signature = groupsig.sign(operator.gpk, credential, payload,
                                  rng=random.Random(2727))
        assert operator.audit_session(payload, signature).group_name == \
            "Company X"
        shifted = _mutate(operator.gpk, signature, "torsion_t1")
        u_hat, v_hat, _u, _v = groupsig.derive_generators(
            operator.gpk, payload, signature.r)
        assert token_encoded(deployment.group, shifted,
                             RevocationToken(credential.a), u_hat, v_hat)
        with pytest.raises(AuditError):
            operator.audit_session(payload, shifted)


# ---------------------------------------------------------------------------
# One wire form per point: x + p is no second encoding
# ---------------------------------------------------------------------------


def x_plus_p(element):
    """``element``'s encoding with x replaced by x + p, or ``None`` when
    x + p does not fit the field bytes.  Reduced mod p, as ``lift_x``
    does, it names the same point."""
    group = element.group
    size = group.params.field_bytes
    canonical = element.encode()
    alias_x = int.from_bytes(canonical[1:], "big") + group.curve.p
    if canonical[0] == 0 or alias_x >= 1 << (8 * size):
        return None
    assert group.curve.lift_x(alias_x, canonical[0] - 2) == element.point
    return canonical[:1] + alias_x.to_bytes(size, "big")


def aliased(wire, element):
    """``wire`` with ``element``'s one encoding swapped for its x + p
    alias, or ``None`` when the element has none."""
    alias = x_plus_p(element)
    if alias is None:
        return None
    canonical = element.encode()
    assert wire.count(canonical) == 1
    return wire.replace(canonical, alias)


def canonical_deployment(preset):
    """One user, one router, 24 keys (a spare pool to revoke from)."""
    return Deployment.build(preset=preset, seed=29, groups={"Metro": 24},
                            users=[("alice", ["Metro"])], routers=["MR-1"])


def _request_field(name):
    def pick(deployment):
        router = deployment.routers["MR-1"]
        request, _ = deployment.users["alice"].connect_to_router(
            router.make_beacon())
        element = {"t1": request.group_signature.t1,
                   "t2": request.group_signature.t2,
                   "g_r_user": request.g_r_user}[name]
        return (request.encode(), element,
                lambda wire: AccessRequest.decode(deployment.group, wire))
    return pick


def _beacon_g(deployment):
    beacon = deployment.routers["MR-1"].make_beacon()
    return (beacon.encode(), beacon.g,
            lambda wire: Beacon.decode(deployment.group,
                                       deployment.operator.curve, wire))


def _url_token(deployment):
    """A beacon whose URL carries a revoked token with an x + p alias;
    revokes spare keys until one has it."""
    operator = deployment.operator
    mine = deployment.users["alice"].credentials["Metro"].index
    for j in range(24):
        if (mine[0], j) == mine:
            continue
        token = operator.revoke_user_key((mine[0], j))
        if x_plus_p(token.a) is not None:
            break
    deployment.routers["MR-1"].refresh_lists()
    beacon = deployment.routers["MR-1"].make_beacon()
    return (beacon.encode(), token.a,
            lambda wire: Beacon.decode(deployment.group,
                                       deployment.operator.curve, wire))


ALIASED_FIELDS = {
    "t1": _request_field("t1"),
    "t2": _request_field("t2"),
    "g_r_user": _request_field("g_r_user"),
    "beacon_g": _beacon_g,
    "url_token": _url_token,
}


def alias_case(deployment, field):
    """(canonical wire, aliased wire, decoder) for ``field``, drawing
    fresh messages until the field's point has an x + p alias."""
    for _ in range(200):
        wire, element, decode = ALIASED_FIELDS[field](deployment)
        alias = aliased(wire, element)
        if alias is not None:
            return wire, alias, decode
    raise AssertionError(f"no {field} with an x + p alias")


@pytest.fixture(scope="module", params=["TEST", "SS512"])
def preset_deployment(request):
    return canonical_deployment(request.param)


class TestCanonicalEncodings:
    """Every point on the wire has exactly one accepted encoding; a
    field re-encoded at x + p is refused at decode (SEC 1 section
    2.3.4), before any signature check could accept it."""

    @pytest.mark.parametrize("field", sorted(ALIASED_FIELDS))
    def test_x_plus_p_refused_at_decode(self, preset_deployment, field):
        wire, alias, decode = alias_case(preset_deployment, field)
        decode(wire)                 # honest bytes decode as before
        with pytest.raises(EncodingError):
            decode(alias)

    def test_aliased_url_refused_alone(self, preset_deployment):
        wire, alias, _decode = alias_case(preset_deployment, "url_token")
        url = preset_deployment.routers["MR-1"].url.encode()
        assert url in wire
        with pytest.raises(EncodingError):
            UserRevocationList.decode(preset_deployment.group,
                                      alias[wire.index(url):][:len(url)])

    def test_honest_handshake_unaffected(self, preset_deployment):
        router = preset_deployment.routers["MR-1"]
        user = preset_deployment.users["alice"]
        group = preset_deployment.group
        for _ in range(3):
            beacon = Beacon.decode(group, preset_deployment.operator.curve,
                                   router.make_beacon().encode())
            request, pending = user.connect_to_router(beacon)
            confirm, session = router.process_request(
                AccessRequest.decode(group, request.encode()))
            assert user.complete_router_handshake(
                pending, confirm).session_id == session.session_id


class TestSmoke:
    """TEST grid: random subgroup points, 2-torsion and infinity
    round-trip through decode; each x + p alias and the odd tag on
    y = 0 is refused."""

    def test_decode_accepts_only_canonical_encodings(self, group):
        curve = group.curve
        size = group.params.field_bytes
        rng = random.Random(4242)
        points = [curve.random_point(rng) for _ in range(200)]
        points += [off_subgroup_point(group).point,
                   curve.from_affine((0, 0)),
                   curve.from_affine(None)]
        aliases = 0
        for point in points:
            canonical = curve.encode(point)
            assert curve.encode(curve.decode(canonical)) == canonical
            if point.is_infinity():
                continue
            alias_x = point.x + curve.p
            if alias_x < 1 << (8 * size):
                aliases += 1
                with pytest.raises(EncodingError):
                    curve.decode(canonical[:1] + alias_x.to_bytes(size, "big"))
            if point.y == 0:
                with pytest.raises(EncodingError):
                    curve.decode(b"\x03" + canonical[1:])
        assert aliases > 0
