"""Every verification entry point against the reference, on adversarial input.

``groupsig.verify`` (one item, raises), ``groupsig.verify_batch`` (size
1 and size 2) and ``VerifierPool(processes=0)`` all classify through
``groupsig.classify``; this suite holds each of them to
``reference_classify`` (``tests/oracles.py``) -- the paper's
algorithm on generic pairings -- on outcome class, message,
``token_index`` and op counts, over inputs built to stray off the
honest path.  Items signed under the
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
* period-mode R2's pairing argument ``X = g2^s_x * w^c`` at infinity:
  ``s_x = -gamma * c`` (a challenge mismatch), the same with an order-37
  component on T2 (T2's subgroup check then cannot ride the pairing's
  Miller chain) and ``s_x = c = 0``;
* the signer's token duplicated in the URL (the first index must win);
* a token removed from the URL and then re-added, for the tag index
  also across :meth:`RevocationState.rotate` to a new epoch;
* for the tag index, a router rebuilt from its journal by
  :meth:`MeshRouter.restore` and one warmed from a peer's
  :class:`TagCheckpoint`;
* every byte of one M.2's group-signature field flipped, through the
  wire decoder and the verifier against the decoder and the reference:
  in period mode through the tag index, in flat mode through
  ``verify_batch`` with a URL of decoys and the signer's token;
* every truncation of one flat-mode M.2, and every byte of its
  ``g^r_j``, ``g^r_R`` and ``ts2`` fields flipped, through decode and
  the router's ``process_request`` and ``process_request_batch``
  against each other and, where verification runs, the reference.

:class:`TestKernelTotality` shows the kernel
(``batch_core.classify_fast``) raises on no decodable signature -- any
on-curve T1 and T2, boundary scalars, every generator mode, URLs with
tokens at infinity -- which is what lets ``classify`` fail closed on a
kernel exception instead of rerunning a second verifier.

It also pins that ``verify`` on degenerate or off-subgroup input bills
zero operations: the structural and subgroup checks come before the
generator derivation (2 hash_to_group + 2 psi) on every entry point.
The DH shares the handshake checks on ladders get the same order-37
component: the router refuses such a g^r_j alike from
``process_request`` and ``process_request_batch``, and a user refuses a
beacon whose g or g^r_R carries it.
"""

import functools
import random
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import instrument
from repro.core import batch_core, groupsig
from repro.core.durable import DurableRouterStore, MemoryStorage
from repro.core.groupsig import GroupPublicKey, RevocationToken
from repro.core.messages import AccessRequest
from repro.core.revocation import (
    RevocationState,
    RevocationTagCache,
    epoch_period,
)
from repro.core.router import MeshRouter
from repro.core.verifier_pool import VerifierPool
from repro.errors import (
    AuthenticationError,
    EncodingError,
    InvalidSignature,
    NotOnCurveError,
    ProtocolError,
    RevokedKeyError,
)
from repro.pairing import PairingGroup
from repro.pairing.curve import Point
from repro.pairing.group import G1Element
from tests.oracles import generic_pair, multi_exp, reference_classify

PERIOD = b"differential-period"
#: The period the tag index derives for the scheme's epoch-0 gpk: items
#: signed under it also run through the index.
INDEX_PERIOD = epoch_period(0)
PERIODS = (None, PERIOD, INDEX_PERIOD)

#: Mutations applied to an honest signature before classification.
MUTATIONS = ("none", "degenerate_t1", "degenerate_t2", "torsion_t1",
             "torsion_t2", "order37_t1", "order37_t2", "c_plus_r",
             "s_alpha_plus_r", "s_x_plus_r", "s_delta_plus_r", "c_plus_one",
             "x_at_infinity", "x_at_infinity_order37_t2", "s_x_c_zero")

#: Mutations the classifier must reject before any counted operation.
FREE_REJECTS = ("degenerate_t1", "degenerate_t2", "torsion_t1",
                "torsion_t2", "order37_t1", "order37_t2",
                "x_at_infinity_order37_t2")

#: Mutations that put period-mode R2's ``X = g2^s_x * w^c`` at infinity.
X_AT_INFINITY = ("x_at_infinity", "x_at_infinity_order37_t2", "s_x_c_zero")


def _torsion_point(group, order):
    """A point of the odd prime ``order`` dividing the cofactor: 37 on
    TEST (``h = 2^3 * 37 * 197 * ...``), 7 on SS512.  Added to a
    subgroup point it puts the sum off the order-``r`` subgroup; unlike
    the 2-torsion point ``(0, 0)``, which a ladder's first ``d``
    doublings clear, it survives every rung."""
    curve = group.curve
    x = 0
    while True:
        x += 1
        try:
            point = curve.lift_x(x, 0)
        except NotOnCurveError:
            continue
        torsion = curve.multi_mul_raw([(point, (curve.p + 1) // order)])
        if not torsion.is_infinity():
            return torsion


@pytest.fixture(scope="module")
def diff_scheme(group):
    """A gpk, six members, honest signatures in both generator modes
    (period mode under both period labels) and the master secret
    gamma."""
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
    return gpk, keys, signatures, master.gamma


def _mutate(gpk, signature, kind, gamma=None):
    """``signature`` under mutation ``kind``; the X_AT_INFINITY kinds
    need the master secret ``gamma``."""
    group = gpk.group
    order = group.order
    identity = G1Element(Point.infinity(group.curve.p), group)
    torsion = G1Element(Point(0, 0, group.curve.p), group)
    order37 = G1Element(_torsion_point(group, 37), group)
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
    if kind == "x_at_infinity":
        return replace(signature, s_x=-gamma * signature.c % order)
    if kind == "x_at_infinity_order37_t2":
        return replace(signature, s_x=-gamma * signature.c % order,
                       t2=signature.t2 * order37)
    if kind == "s_x_c_zero":
        return replace(signature, s_x=0, c=0)
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
        views = [_view(reference_classify(gpk, message, sig, url, period))
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


def _challenge_inputs(classify_one):
    """Run one classification; return the ``(R1, R2, R3)`` it hashed
    into the challenge (an empty list when it rejected before the
    SPK)."""
    seen = []
    original = GroupPublicKey.challenge

    def recording(gpk, message, r, t1, t2, r1, r2, r3):
        seen.append((r1, r2, r3))
        return original(gpk, message, r, t1, t2, r1, r2, r3)

    with mock.patch.object(GroupPublicKey, "challenge", recording):
        classify_one()
    return seen


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
    # The kernel's SPK values are the reference's, R2 included.
    assert _challenge_inputs(lambda: batch_core.classify_fast(
        gpk, message, signature, url, period, True)) == \
        _challenge_inputs(lambda: reference_classify(
            gpk, message, signature, url, period))
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
        gpk, keys, signatures, gamma = diff_scheme
        message, honest = signatures[signer, period]
        item = (message, _mutate(gpk, honest, kind, gamma))
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
        gpk, keys, signatures, _gamma = diff_scheme
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
        gpk, keys, signatures, _gamma = diff_scheme
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
        gpk, keys, _signatures, _gamma = diff_scheme
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


class TestXAtInfinity:
    """Period mode pairs T2 with ``X = g2^s_x * w^c`` for R2 and rides
    T2's subgroup check on that pairing's Miller chain; at ``X = O``
    the pairing is 1 and T2 takes the plain check."""

    EXPECTED = {
        "x_at_infinity": "challenge mismatch (Eq.2 failed)",
        "x_at_infinity_order37_t2": "T1/T2 outside the prime-order subgroup",
        "s_x_c_zero": "challenge mismatch (Eq.2 failed)",
    }

    @pytest.mark.parametrize("period", PERIODS)
    @pytest.mark.parametrize("kind", X_AT_INFINITY)
    def test_entry_points_match_reference(self, diff_scheme, period, kind):
        gpk, keys, signatures, gamma = diff_scheme
        message, honest = signatures[1, period]
        bad = _mutate(gpk, honest, kind, gamma)
        assert gpk.engine.g2_w_mul(bad.s_x, bad.c).is_infinity()
        # The signer's own token is listed: no reject may reach the scan.
        url = [groupsig.RevocationToken(keys[i].a) for i in (4, 1)]
        views, ops = _check_every_entry_point(
            gpk, (message, bad), signatures[2, period], url, period)
        assert views == [(InvalidSignature, self.EXPECTED[kind], None)]
        if kind in FREE_REJECTS:
            assert ops == {}
        else:
            assert ops == {"hash_to_group": 2, "psi": 2, "exp": 4,
                           "pairing": 3, "exp_gt": 1}


#: The odd prime torsion order each preset's cofactor carries.
ODD_TORSION = {"TEST": 37, "SS512": 7}

#: What T1 or T2 may become: any on-curve point.
POINT_KINDS = ("subgroup", "two_torsion", "odd_torsion", "plus_odd_torsion",
               "full_group", "infinity")
SCALAR_FIELDS = ("r", "c", "s_alpha", "s_x", "s_delta")
SCALAR_KINDS = ("zero", "one", "r_minus_1", "r", "r_plus_1", "random")
#: The URL entries a totality input draws from.
URL_KINDS = ("signer", "decoy", "infinity")
#: Every message an :class:`InvalidSignature` verdict may carry.
INVALID_MESSAGES = {"degenerate T1/T2",
                    "T1/T2 outside the prime-order subgroup",
                    "challenge mismatch (Eq.2 failed)"}


@functools.lru_cache(maxsize=None)
def _totality_scheme(preset):
    """``(gpk, {URL kind: token}, odd torsion point, {period: (message,
    honest signature)})`` for one preset, built once per run."""
    group = PairingGroup(preset)
    rng = random.Random(7070)
    gpk, master = groupsig.keygen_master(group, rng)
    key = groupsig.issue_member_key(group, master, 11, (0, 0), rng)
    tokens = {"signer": RevocationToken(key.a),
              "decoy": RevocationToken(group.random_g1(rng)),
              "infinity": RevocationToken(
                  G1Element(Point.infinity(group.curve.p), group))}
    signed = {}
    for period in PERIODS:
        message = b"totality %r" % period
        signed[period] = (message, groupsig.sign(gpk, key, message, rng=rng,
                                                 period=period))
    return (gpk, tokens, _torsion_point(group, ODD_TORSION[preset]),
            signed)


def _any_point(group, kind, honest, odd, rng):
    """An on-curve point of ``kind`` (``honest`` is the field's own)."""
    curve = group.curve
    if kind == "subgroup":
        return group.random_g1(rng).point
    if kind == "two_torsion":
        return Point(0, 0, curve.p)
    if kind == "odd_torsion":
        return odd
    if kind == "plus_odd_torsion":
        return curve.add(honest, odd)
    if kind == "full_group":
        while True:
            try:
                return curve.lift_x(rng.randrange(curve.p), rng.randrange(2))
            except NotOnCurveError:
                continue
    return Point.infinity(curve.p)


def _any_scalar(order, kind, rng):
    if kind == "random":
        return rng.randrange(order)
    return {"zero": 0, "one": 1, "r_minus_1": order - 1, "r": order,
            "r_plus_1": order + 1}[kind]


def _changed(gpk, honest, changes, odd, rng):
    """``honest`` with each ``field: kind`` of ``changes`` applied."""
    group = gpk.group
    fields = {}
    for name, kind in changes:
        if name in ("t1", "t2"):
            fields[name] = G1Element(_any_point(
                group, kind, getattr(honest, name).point, odd, rng), group)
        else:
            fields[name] = _any_scalar(group.order, kind, rng)
    return replace(honest, **fields)


def _total_verdict(gpk, message, signature, url, period, check_revocation):
    """``classify_fast`` on one input: it must return, not raise, and
    its verdict must be one of the three classes the paper's verifier
    gives.  Returns the verdict's class (``None`` on accept)."""
    verdict = batch_core.classify_fast(gpk, message, signature, url, period,
                                       check_revocation)
    if verdict is None:
        return None
    if type(verdict) is RevokedKeyError:
        assert check_revocation
        assert 0 <= verdict.token_index < len(url)
    else:
        assert type(verdict) is InvalidSignature
        assert str(verdict) in INVALID_MESSAGES
    return type(verdict)


class TestKernelTotality:
    """The kernel is total on decodable signatures: T1 and T2 any
    on-curve point (subgroup, 2-torsion, odd torsion, odd torsion on the
    honest point, random points of the full curve group, infinity),
    scalars at 0, 1, r - 1, r, r + 1 or random, every generator mode,
    with a scan and without, and URLs holding the signer's token, a
    decoy and a token at infinity.  :func:`repro.core.groupsig.classify`
    fails closed on a kernel exception, so this is the evidence that an
    honest signature never meets that verdict."""

    EXAMPLES = {"TEST": 150, "SS512": 30}

    @pytest.mark.parametrize("preset", ("TEST", "SS512"))
    def test_classify_fast_is_total(self, preset):
        gpk, tokens, odd, signed = _totality_scheme(preset)
        fields = ("t1", "t2") + SCALAR_FIELDS

        @given(data=st.data())
        @settings(max_examples=self.EXAMPLES[preset], deadline=None)
        def run(data):
            period = data.draw(st.sampled_from(PERIODS))
            message, honest = signed[period]
            changes = []
            for name in data.draw(st.lists(st.sampled_from(fields),
                                           unique=True, max_size=7)):
                kinds = POINT_KINDS if name in ("t1", "t2") else SCALAR_KINDS
                changes.append((name, data.draw(st.sampled_from(kinds))))
            rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
            url = [tokens[kind] for kind in data.draw(
                st.lists(st.sampled_from(URL_KINDS), max_size=4))]
            _total_verdict(gpk, message,
                           _changed(gpk, honest, changes, odd, rng), url,
                           period, data.draw(st.booleans()))

        run()


class TestSmoke:
    """Period-mode R2 against ``e(left, g2) * e(right, w) *
    e(g1, g2)^-c`` on generic pairings, on TEST and SS512, and a TEST
    grid of :class:`TestKernelTotality` (run by ``scripts/tier1.sh
    smoke``)."""

    def test_kernel_total_on_adversarial_grid(self):
        """Every point kind on T1 and on T2 and every scalar kind on each
        scalar, in every generator mode, against a URL holding the
        signer's token, one without it and no scan: no exception, and
        accept, invalid and revoked are all reached."""
        gpk, tokens, odd, signed = _totality_scheme("TEST")
        grid = [()]
        grid += [((name, kind),) for name in ("t1", "t2")
                 for kind in POINT_KINDS]
        grid += [((name, kind),) for name in SCALAR_FIELDS
                 for kind in SCALAR_KINDS]
        with_signer = [tokens["decoy"], tokens["infinity"], tokens["signer"]]
        without = [tokens["infinity"], tokens["decoy"]]
        rng = random.Random(37)
        seen = set()
        for period in PERIODS:
            message, honest = signed[period]
            for changes in grid:
                signature = _changed(gpk, honest, changes, odd, rng)
                for url, check in ((with_signer, True), (without, True),
                                   (with_signer, False)):
                    seen.add(_total_verdict(gpk, message, signature, url,
                                            period, check))
        assert seen == {None, InvalidSignature, RevokedKeyError}

    @pytest.mark.parametrize("preset", ("TEST", "SS512"))
    def test_period_r2_matches_generic_pairings(self, preset):
        group = PairingGroup(preset)
        order = group.order
        rng = random.Random(2020)
        gpk, master = groupsig.keygen_master(group, rng)
        key = groupsig.issue_member_key(group, master, 5, (0, 0), rng)
        period = epoch_period(0)
        message = b"smoke r2"
        honest = groupsig.sign(gpk, key, message, rng=rng, period=period)
        at_infinity = replace(honest, s_x=-master.gamma * honest.c % order)
        assert gpk.engine.g2_w_mul(at_infinity.s_x,
                                   at_infinity.c).is_infinity()
        cases = [
            honest,
            replace(honest, c=(honest.c + 1) % order),
            replace(honest, s_alpha=rng.randrange(order),
                    s_x=rng.randrange(order), s_delta=rng.randrange(order)),
            at_infinity,
            replace(honest, s_x=0, c=0),
        ]
        _u_hat, _v_hat, _u, v = groupsig.derive_generators(
            gpk, message, honest.r, period)
        verdicts = []
        for signature in cases:
            error = []
            [(_r1, r2, _r3)] = _challenge_inputs(
                lambda: error.append(batch_core.classify_fast(
                    gpk, message, signature, (), period, False)))
            verdicts.append(error[0] is None)
            c, t2 = signature.c, signature.t2
            left = multi_exp(group, [(t2, signature.s_x),
                                     (v, -signature.s_delta % order)])
            right = multi_exp(group, [(v, -signature.s_alpha % order),
                                      (t2, c)])
            assert r2 == (generic_pair(group, left, gpk.g2)
                          * generic_pair(group, right, gpk.w)
                          * generic_pair(group, gpk.g1, gpk.g2)
                          ** (-c % order))
        assert verdicts == [True, False, False, False, False]
        # X = O with T2 off the subgroup: the plain check rejects it.
        torsion = G1Element(Point(0, 0, group.curve.p), group)
        off = replace(at_infinity, t2=at_infinity.t2 * torsion)
        assert _challenge_inputs(lambda: batch_core.classify_fast(
            gpk, message, off, (), period, False)) == []
        assert str(batch_core.classify_fast(
            gpk, message, off, (), period, False)) == \
            "T1/T2 outside the prime-order subgroup"


class TestWireFlips:
    """Each byte of one M.2's group-signature field flipped with a
    seeded mask, in both generator modes: decode and the router's
    verification against decode and ``reference_classify``.

    Period mode runs the tag-index path (``verify_batch(...,
    check_revocation=False)`` then :meth:`RevocationState.check`)
    against the reference under the index's period.  Flat mode -- the
    path every ``handshake`` and ``city_day`` verify takes -- runs
    ``verify_batch(url)`` with a URL of decoys and the signer's token
    against the reference's scan of the same URL.  Each pair must raise
    the same :class:`EncodingError` or agree on class, message,
    ``token_index`` and verify-stage op counts."""

    @staticmethod
    def _item(group, blob):
        request = AccessRequest.decode(group, blob)
        return request.signed_payload(), request.group_signature

    @classmethod
    def _tag_index(cls, state, blob):
        item = cls._item(state.gpk.group, blob)
        with instrument.count_operations() as ops:
            [error] = groupsig.verify_batch(state.gpk, [item],
                                            period=state.period,
                                            check_revocation=False)
        if error is None:
            try:
                state.check(*item)
            except RevokedKeyError as exc:
                error = exc
        return _view(error), ops.snapshot()

    @classmethod
    def _reference(cls, state, blob, url):
        item = cls._item(state.gpk.group, blob)
        error = reference_classify(state.gpk, *item, url, state.period)
        # The verify stage alone: the index's tag check has its own,
        # |URL|-independent cost.
        with instrument.count_operations() as ops:
            reference_classify(state.gpk, *item, url, state.period,
                               check_revocation=False)
        return _view(error), ops.snapshot()

    @classmethod
    def _flat(cls, gpk, blob, url):
        item = cls._item(gpk.group, blob)
        with instrument.count_operations() as ops:
            [error] = groupsig.verify_batch(gpk, [item], url=url)
        return _view(error), ops.snapshot()

    @classmethod
    def _flat_reference(cls, gpk, blob, url):
        item = cls._item(gpk.group, blob)
        with instrument.count_operations() as ops:
            error = reference_classify(gpk, *item, url)
        return _view(error), ops.snapshot()

    @staticmethod
    def _outcome(path, blob):
        try:
            return path(blob)
        except EncodingError as exc:
            return EncodingError, str(exc)

    def _flip_each_byte(self, group, blob, fast, reference):
        """Flip every byte of ``blob``'s group-signature field; ``fast``
        and ``reference`` (each ``blob -> (view, ops)``) must agree on
        every copy.  Returns how often each outcome occurred."""
        field = AccessRequest.decode(group, blob).group_signature.encode()
        start = blob.index(field)
        rng = random.Random(2027)
        kinds = Counter()
        for offset in range(start, start + len(field)):
            flipped = bytearray(blob)
            flipped[offset] ^= rng.randrange(1, 256)
            flipped = bytes(flipped)
            outcome = self._outcome(fast, flipped)
            assert outcome == self._outcome(reference, flipped), offset
            kinds[outcome[0] if outcome[0] is EncodingError
                  else outcome[0][1]] += 1
        assert sum(kinds.values()) == len(field)
        return kinds

    def test_flipped_signature_bytes_match_reference(self,
                                                     fresh_deployment):
        deployment = fresh_deployment(
            users=[("alice", ["Company X"]), ("carol", ["University Z"])])
        deployment.operator.revoke_user_key(
            deployment.users["carol"].credentials["University Z"].index)
        router = deployment.routers["MR-1"]
        router.refresh_lists()
        state = router.enable_sharded_revocation(cache=RevocationTagCache())
        url = router.url.tokens
        wires = {}
        for name in ("alice", "carol"):
            user = deployment.users[name]
            user.auth_period = state.period
            request, _pending = user.connect_to_router(router.make_beacon())
            wires[name] = request.encode()
        for name, expected in (("alice", None),
                               ("carol", (RevokedKeyError, 0))):
            view, _ops = self._tag_index(state, wires[name])
            assert (view and (view[0], view[2])) == expected
            assert (view, _ops) == self._reference(state, wires[name], url)

        kinds = self._flip_each_byte(
            deployment.group, wires["alice"],
            lambda blob: self._tag_index(state, blob),
            lambda blob: self._reference(state, blob, url))
        # No flip is accepted, and the field reaches every reject stage.
        assert set(kinds) == {EncodingError,
                              "T1/T2 outside the prime-order subgroup",
                              "challenge mismatch (Eq.2 failed)"}

    def test_flat_flipped_signature_bytes_match_reference(
            self, fresh_deployment):
        deployment = fresh_deployment()
        gpk = deployment.operator.gpk
        alice = deployment.users["alice"]
        router = deployment.routers["MR-1"]
        request, _pending = alice.connect_to_router(router.make_beacon())
        blob = request.encode()
        rng = random.Random(2028)
        url = [RevocationToken(deployment.group.random_g1(rng))
               for _ in range(3)]
        url.append(RevocationToken(alice.credentials["Company X"].a))
        view, ops = self._flat(gpk, blob, url)
        assert (view[0], view[2]) == (RevokedKeyError, 3)
        assert ops["pairing"] == 3 + 2 * len(url)
        assert (view, ops) == self._flat_reference(gpk, blob, url)

        kinds = self._flip_each_byte(
            deployment.group, blob,
            lambda flipped: self._flat(gpk, flipped, url),
            lambda flipped: self._flat_reference(gpk, flipped, url))
        # No flip is accepted, and the field reaches every reject stage.
        assert set(kinds) == {EncodingError,
                              "T1/T2 outside the prime-order subgroup",
                              "challenge mismatch (Eq.2 failed)"}


class TestRequestWire:
    """The rest of one flat-mode M.2's wire: every truncation, and each
    byte of the ``g^r_j``, ``g^r_R`` and ``ts2`` fields flipped with a
    seeded mask, through decode and the router itself.

    A flipped copy runs through ``router.process_request`` and through
    ``router.process_request_batch([r])``: both must raise the same
    :class:`EncodingError` from decode, or give the same error type,
    message and change to ``router.stats``.  Where the request reaches
    verification (``groupsig.classify``), both also match decode ->
    ``reference_classify`` on its signed payload and the router's URL
    (decoys plus the signer's token): class, message, ``token_index``
    and the verify stage's op counts."""

    @pytest.fixture
    def revoked_signer(self, fresh_deployment):
        """A router whose URL holds three decoys and then the signer's
        token, and the signer's honest M.2 to it."""
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        alice = deployment.users["alice"]
        for index in ((1, 2), (2, 1), (1, 3),
                      alice.credentials["Company X"].index):
            deployment.operator.revoke_user_key(index)
        router.refresh_lists()
        request, _pending = alice.connect_to_router(router.make_beacon())
        return deployment, router, request

    @staticmethod
    def _through_router(router, blob, batch):
        """Decode ``blob`` and run it through ``router`` alone or as a
        batch of one.  Returns the error's view, the change to
        ``router.stats`` and the ops the verification stage noted
        (``None`` when the request never reached it)."""
        request = AccessRequest.decode(router.engine.gpk.group, blob)
        before = dict(router.stats)
        stage = []
        classify = groupsig.classify

        def counted(*args, **kwargs):
            with instrument.count_operations() as ops:
                verdicts = classify(*args, **kwargs)
            stage.append(ops.snapshot())
            return verdicts

        with mock.patch.object(groupsig, "classify", counted):
            if batch:
                [outcome] = router.process_request_batch([request])
                error = outcome
            else:
                try:
                    error = router.process_request(request)
                except (ProtocolError, InvalidSignature,
                        RevokedKeyError) as exc:
                    error = exc
        assert isinstance(error, Exception), "a corrupted M.2 was accepted"
        delta = {key: router.stats[key] - count
                 for key, count in before.items()}
        return _view(error), delta, (stage[0] if stage else None)

    @classmethod
    def _both_ways(cls, router, blob):
        """The outcome both router paths agree on, checked against the
        reference where verification ran."""
        try:
            alone = cls._through_router(router, blob, batch=False)
        except EncodingError as exc:
            return EncodingError, str(exc)
        assert cls._through_router(router, blob, batch=True) == alone
        view, _delta, stage_ops = alone
        if stage_ops is not None:
            request = AccessRequest.decode(router.engine.gpk.group, blob)
            with instrument.count_operations() as ops:
                error = reference_classify(
                    router.engine.gpk, request.signed_payload(),
                    request.group_signature, router.url.tokens)
            assert (view, stage_ops) == (_view(error), ops.snapshot())
        return alone

    def test_every_truncation_is_an_encoding_error(self, revoked_signer):
        deployment, _router, request = revoked_signer
        blob = request.encode()
        for length in range(len(blob)):
            with pytest.raises(EncodingError):
                AccessRequest.decode(deployment.group, blob[:length])

    def test_flipped_field_bytes_match_across_paths_and_reference(
            self, revoked_signer):
        _deployment, router, request = revoked_signer
        blob = request.encode()
        view, delta, stage_ops = self._both_ways(router, blob)
        assert (view[0], view[2]) == (RevokedKeyError, 3)
        assert delta["rejected_revoked"] == 1
        assert stage_ops["pairing"] == 3 + 2 * len(router.url.tokens)

        payload = request.signed_payload()
        fields = {}
        for name, encoded in (("g_r_user", request.g_r_user.encode()),
                              ("g_r_router", request.g_r_router.encode())):
            assert blob.count(encoded) == 1
            fields[name] = range(blob.index(encoded),
                                 blob.index(encoded) + len(encoded))
        fields["ts2"] = range(len(payload) - 8, len(payload))
        rng = random.Random(2029)
        kinds = {name: Counter() for name in fields}
        for name, offsets in fields.items():
            for offset in offsets:
                flipped = bytearray(blob)
                flipped[offset] ^= rng.randrange(1, 256)
                outcome = self._both_ways(router, bytes(flipped))
                kinds[name][outcome[0] if outcome[0] is EncodingError
                            else outcome[0][1]] += 1
        # No flip is accepted, and each field reaches the stage that
        # checks it: decode, then the DH share's subgroup check, the
        # beacon lookup, the time window or the signature's challenge.
        assert {name: set(seen) for name, seen in kinds.items()} == {
            "g_r_user": {EncodingError,
                         "g^r_j degenerate or outside the subgroup"},
            "g_r_router": {EncodingError, "unknown or expired g^r_R echo"},
            "ts2": {"ts2 outside the acceptance window",
                    "challenge mismatch (Eq.2 failed)"},
        }
        assert {name: sum(seen.values())
                for name, seen in kinds.items()} == {
            "g_r_user": 17, "g_r_router": 17, "ts2": 8}


class TestZeroCostRejects:
    """verify on structurally bad T1/T2 bills nothing at all, in every
    generator mode, with a scan ahead or none."""

    @pytest.mark.parametrize("kind", FREE_REJECTS)
    def test_verify_bills_zero_ops(self, diff_scheme, kind):
        gpk, keys, signatures, gamma = diff_scheme
        url = [groupsig.RevocationToken(keys[3].a)]
        for period in PERIODS:
            message, honest = signatures[0, period]
            bad = _mutate(gpk, honest, kind, gamma)
            for check_revocation in (True, False):
                with instrument.count_operations() as ops:
                    with pytest.raises(InvalidSignature):
                        groupsig.verify(gpk, message, bad, url=url,
                                        period=period,
                                        check_revocation=check_revocation)
                assert ops.snapshot() == {}


class TestOddTorsion:
    """An order-37 component (it survives every ladder rung, unlike
    (0, 0)) on T1, T2 and each DH share."""

    @pytest.mark.parametrize("period", PERIODS)
    @pytest.mark.parametrize("kind", ("order37_t1", "order37_t2"))
    def test_signature_component_matches_reference(self, diff_scheme,
                                                   period, kind):
        gpk, keys, signatures, _gamma = diff_scheme
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
        extra = (_torsion_point(group, 37) if component == "order37"
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
        extra = (_torsion_point(group, 37) if component == "order37"
                 else Point(0, 0, group.curve.p))
        bad = replace(beacon, **{
            field: getattr(beacon, field) * G1Element(extra, group)})
        # A certified router may sign whatever DH values it likes.
        bad = replace(bad, signature=engine.keypair.sign(
            bad.signed_payload()))
        with pytest.raises(ProtocolError,
                           match="beacon DH values outside the subgroup"):
            deployment.users["alice"].connect_to_router(bad)
