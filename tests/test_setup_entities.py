"""Scheme setup (Section IV.A): NO, TTP, GM, user enrollment -- and the
knowledge-separation invariants the privacy model depends on.

:class:`TestCredentialCheck` holds a user's SDH check on its assembled
credential to the generic pairing's verdict on subgroup keys, and shows
it rejects the keys that equation cannot see: ``A`` plus a point of
small order, and ``A`` at infinity.  ``TestSmoke`` runs its TEST grid
for ``scripts/tier1.sh smoke``.
"""

import random
from dataclasses import replace

import pytest

from repro import instrument
from repro.core import groupsig
from repro.core.identity import RoleAttribute, UserIdentity
from repro.core.user import NetworkUser
from repro.errors import AuthenticationError, InvalidSignature, ParameterError
from repro.pairing import PairingGroup
from repro.pairing.curve import Point
from repro.pairing.group import G1Element
from tests.oracles import generic_pair
from tests.test_verify_differential import ODD_TORSION, _torsion_point


class TestSetupFlow:
    def test_users_enrolled_and_credentialed(self, deployment):
        alice = deployment.users["alice"]
        assert set(alice.credentials) == {"Company X", "University Z"}
        bob = deployment.users["bob"]
        assert set(bob.credentials) == {"University Z"}

    def test_assembled_credentials_satisfy_sdh(self, deployment):
        """Users verify e(A, w*g2^(grp+x)) == e(g1,g2) before accepting;
        double-check from the outside."""
        group = deployment.group
        gpk = deployment.operator.gpk
        for user in deployment.users.values():
            for credential in user.credentials.values():
                lhs = group.pair(
                    credential.a,
                    gpk.w * (gpk.g2 ** credential.exponent_sum))
                assert lhs == group.pair(gpk.g1, gpk.g2)

    def test_same_group_members_share_grp(self, deployment):
        alice = deployment.users["alice"].credentials["University Z"]
        bob = deployment.users["bob"].credentials["University Z"]
        assert alice.grp == bob.grp
        assert alice.x != bob.x
        assert alice.index != bob.index

    def test_cross_group_grp_differs(self, deployment):
        alice = deployment.users["alice"]
        assert (alice.credentials["Company X"].grp
                != alice.credentials["University Z"].grp)

    def test_receipts_recorded(self, deployment):
        gm = deployment.gms["Company X"]
        index = deployment.users["alice"].credentials["Company X"].index
        assert gm.has_receipt(index)


class TestKnowledgeSeparation:
    """The late-binding property: who knows what after setup."""

    def test_gm_never_holds_a_values(self, fresh_deployment):
        deployment = fresh_deployment()
        gm = deployment.gms["Company X"]
        alice_a = deployment.users["alice"].credentials["Company X"].a
        # Walk every attribute the GM stores; A must appear nowhere.
        stored = [gm._pool, gm._assigned, gm._identities,
                  gm._member_receipts, gm._grp, gm._group_id]
        flattened = repr(stored)
        assert alice_a.encode().hex() not in flattened
        assert repr(alice_a.point.x) not in flattened

    def test_ttp_cannot_recover_a_or_x(self, fresh_deployment):
        deployment = fresh_deployment()
        credential = deployment.users["alice"].credentials["Company X"]
        share = deployment.ttp._shares[credential.index]
        # The share is A XOR x: equal to neither A's encoding nor x.
        assert share != credential.a.encode()
        assert int.from_bytes(share, "big") != credential.x

    def test_no_maps_token_to_group_not_uid(self, fresh_deployment):
        deployment = fresh_deployment()
        operator = deployment.operator
        alice_uid = deployment.users["alice"].identity.uid
        # NO's stores contain no uid anywhere.
        stored = repr([operator._grt, operator._groups,
                       operator._token_by_index])
        assert alice_uid.hex() not in stored

    def test_ttp_knows_delivery_uid(self, fresh_deployment):
        """TTP does learn who received which share (paper notes this);
        that alone cannot produce x or A."""
        deployment = fresh_deployment()
        credential = deployment.users["alice"].credentials["Company X"]
        uid = deployment.ttp.knows_uid_for(credential.index)
        assert uid == deployment.users["alice"].identity.uid


class TestMembershipMaintenance:
    def test_pool_exhaustion_and_refill(self, fresh_deployment):
        from repro.core.identity import RoleAttribute, UserIdentity
        from repro.core.user import NetworkUser
        deployment = fresh_deployment(groups={"Company X": 1},
                                      users=[("alice", ["Company X"])])
        gm = deployment.gms["Company X"]
        assert gm.pool_size == 0
        newcomer = NetworkUser(
            UserIdentity.build("dave", {"ssn": "7"},
                               [RoleAttribute("engineer", "Company X")]),
            deployment.operator.gpk, deployment.operator.public_key,
            clock=deployment.clock, rng=deployment.rng)
        with pytest.raises(ParameterError):
            newcomer.enroll_with(gm, deployment.ttp)
        # NO issues additional keys (membership addition).
        gm_bundle, ttp_bundle = deployment.operator.issue_additional_keys(
            "Company X", 2)
        gm.accept_bundle(gm_bundle, deployment.operator.public_key)
        deployment.ttp.store_bundle(ttp_bundle,
                                    deployment.operator.public_key)
        credential = newcomer.enroll_with(gm, deployment.ttp)
        groupsig.verify(deployment.operator.gpk,
                        b"t",
                        groupsig.sign(deployment.operator.gpk, credential,
                                      b"t", rng=deployment.rng))

    def test_duplicate_group_registration_rejected(self, fresh_deployment):
        deployment = fresh_deployment()
        with pytest.raises(ParameterError):
            deployment.operator.register_user_group("Company X", 4)

    def test_enrollment_requires_matching_role(self, fresh_deployment):
        """A user with no role at the entity cannot join its group."""
        from repro.core.identity import UserIdentity
        from repro.core.user import NetworkUser
        deployment = fresh_deployment()
        outsider = NetworkUser(
            UserIdentity.build("mallory", {"ssn": "0"}, []),
            deployment.operator.gpk, deployment.operator.public_key,
            clock=deployment.clock, rng=deployment.rng)
        with pytest.raises(ParameterError):
            outsider.enroll_with(deployment.gms["Company X"],
                                 deployment.ttp)


class TestBundleIntegrity:
    def test_tampered_gm_bundle_rejected(self, fresh_deployment):
        from repro.core.group_manager import GroupManager
        deployment = fresh_deployment()
        gm_bundle, _ttp_bundle = deployment.operator.register_user_group(
            "Fresh Org", 2)
        tampered = type(gm_bundle)(
            gm_bundle.group_id, gm_bundle.group_name, gm_bundle.grp + 1,
            gm_bundle.entries, gm_bundle.signature)
        gm = GroupManager("Fresh Org", rng=deployment.rng)
        with pytest.raises(InvalidSignature):
            gm.accept_bundle(tampered, deployment.operator.public_key)

    def test_bundle_addressing_enforced(self, fresh_deployment):
        from repro.core.group_manager import GroupManager
        deployment = fresh_deployment()
        gm_bundle, _ = deployment.operator.register_user_group(
            "Org A", 2)
        wrong_gm = GroupManager("Org B", rng=deployment.rng)
        with pytest.raises(ParameterError):
            wrong_gm.accept_bundle(gm_bundle,
                                   deployment.operator.public_key)

    def test_tampered_ttp_bundle_rejected(self, fresh_deployment):
        from repro.core.ttp import TrustedThirdParty
        deployment = fresh_deployment()
        _gm_bundle, ttp_bundle = deployment.operator.register_user_group(
            "Org C", 2)
        entries = list(ttp_bundle.entries)
        index, share = entries[0]
        entries[0] = (index, bytes([share[0] ^ 1]) + share[1:])
        tampered = type(ttp_bundle)(tuple(entries), ttp_bundle.signature)
        fresh_ttp = TrustedThirdParty(rng=deployment.rng)
        with pytest.raises(InvalidSignature):
            fresh_ttp.store_bundle(tampered,
                                   deployment.operator.public_key)

    def test_corrupt_share_rejected_by_user(self, fresh_deployment):
        """The user's SDH self-check catches a corrupted TTP share."""
        deployment = fresh_deployment(groups={"Company X": 4},
                                      users=[("alice", ["Company X"])])
        from repro.core.identity import RoleAttribute, UserIdentity
        from repro.core.user import NetworkUser
        victim = NetworkUser(
            UserIdentity.build("eve", {"ssn": "3"},
                               [RoleAttribute("engineer", "Company X")]),
            deployment.operator.gpk, deployment.operator.public_key,
            clock=deployment.clock, rng=deployment.rng)
        gm = deployment.gms["Company X"]
        enrollment_index = min(gm._pool)
        # Corrupt the stored share before delivery.
        original = deployment.ttp._shares[enrollment_index]
        corrupted = bytes([original[0], original[1] ^ 0xFF]) + original[2:]
        deployment.ttp._shares[enrollment_index] = corrupted
        with pytest.raises((AuthenticationError, Exception)):
            victim.enroll_with(gm, deployment.ttp)


def _credential_grid(preset):
    """A user of a fresh gpk, an honest key, and the key with ``A`` plus
    the 2-torsion point, plus the odd small-order point, and at
    infinity."""
    group = PairingGroup(preset)
    rng = random.Random(1801)
    gpk, master = groupsig.keygen_master(group, rng)
    honest = groupsig.issue_member_key(group, master, 5, (0, 0), rng)
    user = NetworkUser(
        UserIdentity.build("dana", {"ssn": "1"},
                           [RoleAttribute("engineer", "Company X")]),
        gpk, None, rng=rng)
    p = group.curve.p
    torsions = (G1Element(Point(0, 0, p), group),
                G1Element(_torsion_point(group, ODD_TORSION[preset]), group))
    forged = [replace(honest, a=honest.a * torsion) for torsion in torsions]
    forged.append(replace(honest, a=G1Element(Point.infinity(p), group)))
    return user, honest, forged


def _check_counts(user, credential):
    """The check's verdict (``None`` or the error) and its op counts."""
    with instrument.count_operations() as ops:
        try:
            user._validate_credential(credential)
            verdict = None
        except AuthenticationError as exc:
            verdict = exc
    return verdict, ops.snapshot()


def _assert_grid(preset, generic):
    user, honest, forged = _credential_grid(preset)
    paper = {"exp": 1, "pairing": 2}
    assert _check_counts(user, honest) == (None, paper)
    for credential in forged:
        verdict, counts = _check_counts(user, credential)
        assert isinstance(verdict, AuthenticationError), credential.a
        assert counts == paper
    if generic:
        # The paper's pairing equation alone accepts A + (0, 0): the
        # binary Miller chain of the 2-torsion part stops at its first
        # doubling, and the final exponentiation kills what it leaves.
        # Only the subgroup check rejects that key.
        group, gpk = user.group, user.gpk
        rhs = gpk.w * gpk.g2 ** forged[0].exponent_sum
        assert generic_pair(group, forged[0].a, rhs) == \
            generic_pair(group, gpk.g1, gpk.g2)


class TestCredentialCheck:
    @pytest.mark.parametrize("preset", ["TEST", "SS512"])
    def test_small_order_and_infinity_keys_rejected(self, preset):
        _assert_grid(preset, generic=True)


class TestSmoke:
    def test_credential_check_grid(self):
        _assert_grid("TEST", generic=False)
