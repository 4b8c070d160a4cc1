"""Every verification entry point against the reference, on adversarial input.

``groupsig.verify`` (one item, raises), ``groupsig.verify_batch`` (size
1 and size 2) and ``VerifierPool(processes=0)`` all classify through
``groupsig.classify``; this suite holds each of them to
``groupsig.reference_classify`` -- the paper's algorithm on generic
pairings -- on outcome class, message, ``token_index`` and op counts,
over inputs built to stray off the honest path.  Items signed under the
epoch period also run the router's tag-index path --
``verify(..., check_revocation=False)`` then
:meth:`RevocationState.check` -- held to the reference under the
index's period on outcome class, message and ``token_index`` (its op
count is |URL|-independent by design):

* degenerate T1/T2 (the identity);
* off-subgroup T1/T2: the 2-torsion point ``(0, 0)`` added, and a
  point of order 37 added -- an odd-order component that survives every
  rung of the ladders period mode checks T1 and T2 on;
* ``c`` and ``s_*`` at or beyond the group order, built directly in
  :class:`GroupSignature` (the wire decoder would reduce them);
* the signer's token duplicated in the URL (the first index must win);
* a token removed from the URL and then re-added, for the tag index
  also across :meth:`RevocationState.rotate` to a new epoch;
* for the tag index, a router rebuilt from its journal by
  :meth:`MeshRouter.restore` and one warmed from a peer's
  :class:`TagCheckpoint`.

It also pins that ``verify`` on degenerate or off-subgroup input bills
zero operations: the structural and subgroup checks come before the
generator derivation (2 hash_to_group + 2 psi) on every entry point.
The DH shares the handshake checks on ladders get the same order-37
component: the router refuses such a g^r_j alike from
``process_request`` and ``process_request_batch``, and a user refuses a
beacon whose g or g^r_R carries it.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import instrument
from repro.core import groupsig
from repro.core.durable import DurableRouterStore, MemoryStorage
from repro.core.groupsig import GroupPublicKey, RevocationToken
from repro.core.revocation import (
    RevocationState,
    RevocationTagCache,
    epoch_period,
)
from repro.core.router import MeshRouter
from repro.core.verifier_pool import VerifierPool
from repro.errors import (
    AuthenticationError,
    InvalidSignature,
    NotOnCurveError,
    ProtocolError,
    RevokedKeyError,
)
from repro.pairing.curve import Point
from repro.pairing.group import G1Element

PERIOD = b"differential-period"
#: The period the tag index derives for the scheme's epoch-0 gpk: items
#: signed under it also run through the index.
INDEX_PERIOD = epoch_period(0)
PERIODS = (None, PERIOD, INDEX_PERIOD)

#: Mutations applied to an honest signature before classification.
MUTATIONS = ("none", "degenerate_t1", "degenerate_t2", "torsion_t1",
             "torsion_t2", "order37_t1", "order37_t2", "c_plus_r",
             "s_alpha_plus_r", "s_x_plus_r", "s_delta_plus_r", "c_plus_one")

#: Mutations the classifier must reject before any counted operation.
FREE_REJECTS = ("degenerate_t1", "degenerate_t2", "torsion_t1",
                "torsion_t2", "order37_t1", "order37_t2")


def _order37(group):
    """A TEST-curve point of order 37, an odd factor of the cofactor
    ``h = 2^3 * 37 * 197 * ...``.  Added to a subgroup point it puts the
    sum off the order-``r`` subgroup; unlike the 2-torsion point
    ``(0, 0)``, which a ladder's first ``d`` doublings clear, it
    survives every rung."""
    curve = group.curve
    x = 0
    while True:
        x += 1
        try:
            point = curve.lift_x(x, 0)
        except NotOnCurveError:
            continue
        torsion = curve.multi_mul_raw([(point, (curve.p + 1) // 37)])
        if not torsion.is_infinity():
            return torsion


@pytest.fixture(scope="module")
def diff_scheme(group):
    """A gpk, six members and honest signatures in both generator modes
    (period mode under both period labels)."""
    rng = random.Random(4242)
    gpk, master = groupsig.keygen_master(group, rng)
    keys = [groupsig.issue_member_key(group, master, 700 + i // 3,
                                      (i // 3, i % 3), rng)
            for i in range(6)]
    signatures = {}
    for signer in range(3):
        for period in PERIODS:
            message = b"differential %d %r" % (signer, period)
            signatures[signer, period] = (
                message, groupsig.sign(gpk, keys[signer], message, rng=rng,
                                       period=period))
    return gpk, keys, signatures


def _mutate(gpk, signature, kind):
    group = gpk.group
    order = group.order
    identity = G1Element(Point.infinity(group.curve.p), group)
    torsion = G1Element(Point(0, 0, group.curve.p), group)
    order37 = G1Element(_order37(group), group)
    if kind == "degenerate_t1":
        return replace(signature, t1=identity)
    if kind == "degenerate_t2":
        return replace(signature, t2=identity)
    if kind == "torsion_t1":
        return replace(signature, t1=signature.t1 * torsion)
    if kind == "torsion_t2":
        return replace(signature, t2=signature.t2 * torsion)
    if kind == "order37_t1":
        return replace(signature, t1=signature.t1 * order37)
    if kind == "order37_t2":
        return replace(signature, t2=signature.t2 * order37)
    if kind == "c_plus_one":
        return replace(signature, c=(signature.c + 1) % order)
    if kind == "none":
        return signature
    field = kind[:-len("_plus_r")]
    return replace(signature, **{field: getattr(signature, field) + order})


def _view(error):
    """What two classifications must agree on, outcome for outcome."""
    if error is None:
        return None
    return (type(error), str(error), getattr(error, "token_index", None))


def _reference(gpk, items, url, period):
    with instrument.count_operations() as ops:
        views = [_view(groupsig.reference_classify(gpk, message, sig, url,
                                                   period))
                 for message, sig in items]
    return views, ops.snapshot()


def _via_verify(gpk, message, signature, url, period):
    with instrument.count_operations() as ops:
        try:
            groupsig.verify(gpk, message, signature, url=url, period=period)
            error = None
        except (InvalidSignature, RevokedKeyError) as exc:
            error = exc
    return [_view(error)], ops.snapshot()


def _via_batch(gpk, items, url, period):
    with instrument.count_operations() as ops:
        errors = groupsig.verify_batch(gpk, items, url=url, period=period)
    return [_view(error) for error in errors], ops.snapshot()


def _via_pool(gpk, items, url, period):
    with VerifierPool(gpk, url, processes=0) as pool:
        with instrument.count_operations() as ops:
            errors = pool.verify_batch(items, period=period)
    return [_view(error) for error in errors], ops.snapshot()


def _via_index(state, items):
    """The router's tag-index path: SPK first, then the tag lookup."""
    views = []
    for message, signature in items:
        try:
            groupsig.verify(state.gpk, message, signature,
                            period=state.period, check_revocation=False)
            state.check(message, signature)
            error = None
        except (InvalidSignature, RevokedKeyError) as exc:
            error = exc
        views.append(_view(error))
    return views


def _index_matches_reference(state, items, url):
    """The tag index vs the reference under the index's own period."""
    views = _via_index(state, items)
    assert views == _reference(state.gpk, items, url, state.period)[0]
    return views


def _check_every_entry_point(gpk, item, companion, url, period):
    """verify, verify_batch (1 and 2 items), the pool and -- under the
    index's period -- the tag index vs reference."""
    message, signature = item
    single = _reference(gpk, [item], url, period)
    assert _via_verify(gpk, message, signature, url, period) == single
    assert _via_batch(gpk, [item], url, period) == single
    pair = [item, companion]
    assert _via_batch(gpk, pair, url, period) == \
        _reference(gpk, pair, url, period)
    assert _via_pool(gpk, pair, url, period) == \
        _reference(gpk, pair, url, period)
    if period == INDEX_PERIOD:
        state = RevocationState(gpk)
        assert state.period == period
        state.update(url)
        _index_matches_reference(state, pair, url)
    return single


class TestDifferential:
    @given(signer=st.integers(0, 2),
           period=st.sampled_from(PERIODS),
           kind=st.sampled_from(MUTATIONS),
           others=st.lists(st.integers(0, 5), max_size=3),
           signer_copies=st.integers(0, 2),
           position=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_entry_points_match_reference(self, diff_scheme, signer,
                                          period, kind, others,
                                          signer_copies, position):
        gpk, keys, signatures = diff_scheme
        message, honest = signatures[signer, period]
        item = (message, _mutate(gpk, honest, kind))
        companion = signatures[(signer + 1) % 3, period]
        url = [groupsig.RevocationToken(keys[i].a) for i in others]
        for _ in range(signer_copies):
            url.insert(min(position, len(url)),
                       groupsig.RevocationToken(keys[signer].a))
        views, ops = _check_every_entry_point(gpk, item, companion, url,
                                              period)
        if kind in FREE_REJECTS:
            assert views[0][0] is InvalidSignature
            assert ops == {}

    @pytest.mark.parametrize("period", PERIODS)
    def test_duplicated_signer_token_first_index_wins(self, diff_scheme,
                                                      period):
        gpk, keys, signatures = diff_scheme
        item = signatures[0, period]
        companion = signatures[1, period]
        mine = groupsig.RevocationToken(keys[0].a)
        url = [groupsig.RevocationToken(keys[4].a), mine,
               groupsig.RevocationToken(keys[5].a), mine]
        views, ops = _check_every_entry_point(gpk, item, companion, url,
                                              period)
        assert views[0][0] is RevokedKeyError
        assert views[0][2] == 1
        # Two tokens examined before the short-circuit hit.
        assert ops["pairing"] == 3 + 2 * 2

    @pytest.mark.parametrize("period", PERIODS)
    def test_token_removed_then_readded(self, diff_scheme, period):
        gpk, keys, signatures = diff_scheme
        item = signatures[2, period]
        companion = signatures[0, period]
        mine = groupsig.RevocationToken(keys[2].a)
        rest = [groupsig.RevocationToken(keys[i].a) for i in (3, 4, 5)]
        revoked = [rest[0], mine, rest[1], rest[2]]
        removed = [rest[0], rest[1], rest[2]]
        readded = removed + [mine]
        views = [_check_every_entry_point(gpk, item, companion, url,
                                          period)[0][0]
                 for url in (revoked, removed, readded, revoked)]
        assert [view and view[2] for view in views] == [1, None, 3, 1]


class TestTagIndexDifferential:
    """The tag index through rotation, journal restore and warm-up."""

    def test_token_removed_then_readded_across_rotation(self, group,
                                                        diff_scheme):
        gpk, keys, _signatures = diff_scheme
        rotated = GroupPublicKey(group, gpk.w, epoch=gpk.epoch + 1)
        rng = random.Random(77)
        mine = RevocationToken(keys[2].a)
        rest = [RevocationToken(keys[i].a) for i in (3, 4, 5)]
        state = RevocationState(gpk)
        signed = []
        views = []
        for version, (epoch_gpk, url) in enumerate((
                (gpk, [rest[0], mine, rest[1], rest[2]]),
                (gpk, rest),
                (rotated, rest + [mine]),
                (rotated, [mine] + rest)), start=1):
            if epoch_gpk.epoch != state.epoch:
                state.rotate(epoch_gpk, url, version)
            else:
                state.update(url, version)
            message = b"rotation %d" % version
            item = (message, groupsig.sign(epoch_gpk, keys[2], message,
                                           rng=rng, period=state.period))
            companion = (b"companion", groupsig.sign(
                epoch_gpk, keys[0], b"companion", rng=rng,
                period=state.period))
            views.append(_index_matches_reference(
                state, [item, companion], url))
            signed.append(item)
        assert [pair[0] and pair[0][2] for pair in views] == [1, None, 3, 0]
        assert all(pair[1] is None for pair in views)
        # A signature under the retired epoch's period no longer verifies.
        stale = _index_matches_reference(state, signed[:1], [mine] + rest)
        assert stale[0][0] is InvalidSignature

    @staticmethod
    def _deployment(fresh_deployment):
        return fresh_deployment(
            users=[("alice", ["Company X"]), ("bob", ["University Z"]),
                   ("carol", ["University Z"])],
            routers=["MR-1", "MR-2"])

    @staticmethod
    def _revoke(deployment):
        """Revoke carol, then bob (URL positions 0 and 1); refresh."""
        for name in ("carol", "bob"):
            deployment.operator.revoke_user_key(
                deployment.users[name].credentials["University Z"].index)
        for router in deployment.routers.values():
            router.refresh_lists()

    @staticmethod
    def _items(deployment, period):
        """Clean, revoked (positions 1 and 0) and forged period items."""
        rng = random.Random(99)
        gpk = deployment.operator.gpk
        items = []
        for name, grp in (("alice", "Company X"), ("bob", "University Z"),
                          ("carol", "University Z")):
            message = b"index %s" % name.encode()
            items.append((message, groupsig.sign(
                gpk, deployment.users[name].credentials[grp], message,
                rng=rng, period=period)))
        message, honest = items[0]
        items += [(message, _mutate(gpk, honest, kind))
                  for kind in ("torsion_t1", "order37_t2", "c_plus_one")]
        return items

    def _check_router(self, router, items):
        views = _index_matches_reference(router.revocation_state, items,
                                         router.url.tokens)
        assert [view and (view[0], view[2]) for view in views] == [
            None, (RevokedKeyError, 1), (RevokedKeyError, 0),
            (InvalidSignature, None), (InvalidSignature, None),
            (InvalidSignature, None)]

    def test_router_restored_from_journal(self, fresh_deployment):
        deployment = self._deployment(fresh_deployment)
        router = deployment.routers["MR-1"]
        store = DurableRouterStore(MemoryStorage(), "MR-1")
        router.attach_durable(store)
        state = router.enable_sharded_revocation(cache=RevocationTagCache())
        self._revoke(deployment)   # replayed as list + checkpoint records
        with instrument.count_operations() as ops:
            restored = MeshRouter.restore(store, deployment.operator,
                                          clock=deployment.clock,
                                          cache=RevocationTagCache())
        assert ops.total("pairing") == 0
        assert restored.recovery.records_replayed > 0
        items = self._items(deployment, state.period)
        self._check_router(router, items)
        self._check_router(restored, items)

    def test_router_warmed_from_checkpoint(self, fresh_deployment):
        deployment = self._deployment(fresh_deployment)
        self._revoke(deployment)
        source = deployment.routers["MR-1"]
        target = deployment.routers["MR-2"]
        state = source.enable_sharded_revocation(cache=RevocationTagCache())
        checkpoint = source.make_tag_checkpoint()
        with instrument.count_operations() as ops:
            target.enable_sharded_revocation(cache=RevocationTagCache(),
                                             warm_checkpoint=checkpoint)
        assert ops.total("pairing") == 0
        items = self._items(deployment, state.period)
        self._check_router(source, items)
        self._check_router(target, items)


class TestZeroCostRejects:
    """verify on structurally bad T1/T2 bills nothing at all."""

    @pytest.mark.parametrize("kind", FREE_REJECTS)
    def test_verify_bills_zero_ops(self, diff_scheme, kind):
        gpk, keys, signatures = diff_scheme
        message, honest = signatures[0, None]
        url = [groupsig.RevocationToken(keys[3].a)]
        bad = _mutate(gpk, honest, kind)
        with instrument.count_operations() as ops:
            with pytest.raises(InvalidSignature):
                groupsig.verify(gpk, message, bad, url=url)
        assert ops.snapshot() == {}


class TestOddTorsion:
    """An order-37 component (it survives every ladder rung, unlike
    (0, 0)) on T1, T2 and each DH share."""

    @pytest.mark.parametrize("period", PERIODS)
    @pytest.mark.parametrize("kind", ("order37_t1", "order37_t2"))
    def test_signature_component_matches_reference(self, diff_scheme,
                                                   period, kind):
        gpk, keys, signatures = diff_scheme
        message, honest = signatures[0, period]
        url = [groupsig.RevocationToken(keys[i].a) for i in (3, 0)]
        views, ops = _check_every_entry_point(
            gpk, (message, _mutate(gpk, honest, kind)),
            signatures[1, period], url, period)
        assert views == [(InvalidSignature,
                          "T1/T2 outside the prime-order subgroup", None)]
        assert ops == {}

    @pytest.mark.parametrize("component", ("order37", "two_torsion"))
    def test_router_refuses_share_on_both_paths(self, fresh_deployment,
                                                component):
        deployment = fresh_deployment()
        group = deployment.group
        router = deployment.routers["MR-1"]
        request, _pending = deployment.users["alice"].connect_to_router(
            router.make_beacon())
        extra = (_order37(group) if component == "order37"
                 else Point(0, 0, group.curve.p))
        bad = replace(request,
                      g_r_user=request.g_r_user * G1Element(extra, group))
        with instrument.count_operations() as ops:
            with pytest.raises(AuthenticationError) as single:
                router.process_request(bad)
            [batched] = router.process_request_batch([bad])
        assert type(batched) is AuthenticationError
        assert str(batched) == str(single.value) \
            == "g^r_j degenerate or outside the subgroup"
        assert ops.snapshot() == {}
        assert router.stats["rejected_signature"] == 2
        assert router.stats["accepted"] == 0

    @pytest.mark.parametrize("field", ("g", "g_r_router"))
    @pytest.mark.parametrize("component", ("order37", "two_torsion"))
    def test_user_refuses_beacon_share(self, fresh_deployment, field,
                                       component):
        deployment = fresh_deployment()
        group = deployment.group
        engine = deployment.routers["MR-1"].engine
        beacon = engine.make_beacon()
        extra = (_order37(group) if component == "order37"
                 else Point(0, 0, group.curve.p))
        bad = replace(beacon, **{
            field: getattr(beacon, field) * G1Element(extra, group)})
        # A certified router may sign whatever DH values it likes.
        bad = replace(bad, signature=engine.keypair.sign(
            bad.signed_payload()))
        with pytest.raises(ProtocolError,
                           match="beacon DH values outside the subgroup"):
            deployment.users["alice"].connect_to_router(bad)
