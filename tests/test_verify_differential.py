"""Every verification entry point against the reference, on adversarial input.

``groupsig.verify`` (one item, raises), ``groupsig.verify_batch`` (size
1 and size 2) and ``VerifierPool(processes=0)`` all classify through
``groupsig.classify``; this suite holds each of them to
``groupsig.reference_classify`` -- the paper's algorithm on generic
pairings -- on outcome class, message, ``token_index`` and op counts,
over inputs built to stray off the honest path:

* degenerate T1/T2 (the identity);
* off-subgroup T1/T2 (the 2-torsion point ``(0, 0)`` added);
* ``c`` and ``s_*`` at or beyond the group order, built directly in
  :class:`GroupSignature` (the wire decoder would reduce them);
* the signer's token duplicated in the URL (the first index must win);
* a token removed from the URL and then re-added.

It also pins that ``verify`` on degenerate or off-subgroup input bills
zero operations: the structural and subgroup checks come before the
generator derivation (2 hash_to_group + 2 psi) on every entry point.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import instrument
from repro.core import groupsig
from repro.core.verifier_pool import VerifierPool
from repro.errors import InvalidSignature, RevokedKeyError
from repro.pairing.curve import Point
from repro.pairing.group import G1Element

PERIOD = b"differential-period"

#: Mutations applied to an honest signature before classification.
MUTATIONS = ("none", "degenerate_t1", "degenerate_t2", "torsion_t1",
             "torsion_t2", "c_plus_r", "s_alpha_plus_r", "s_x_plus_r",
             "s_delta_plus_r", "c_plus_one")

#: Mutations the classifier must reject before any counted operation.
FREE_REJECTS = ("degenerate_t1", "degenerate_t2", "torsion_t1",
                "torsion_t2")


@pytest.fixture(scope="module")
def diff_scheme(group):
    """A gpk, six members and honest signatures in both generator modes."""
    rng = random.Random(4242)
    gpk, master = groupsig.keygen_master(group, rng)
    keys = [groupsig.issue_member_key(group, master, 700 + i // 3,
                                      (i // 3, i % 3), rng)
            for i in range(6)]
    signatures = {}
    for signer in range(3):
        for period in (None, PERIOD):
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
    if kind == "degenerate_t1":
        return replace(signature, t1=identity)
    if kind == "degenerate_t2":
        return replace(signature, t2=identity)
    if kind == "torsion_t1":
        return replace(signature, t1=signature.t1 * torsion)
    if kind == "torsion_t2":
        return replace(signature, t2=signature.t2 * torsion)
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


def _check_every_entry_point(gpk, item, companion, url, period):
    """verify, verify_batch (1 and 2 items) and the pool vs reference."""
    message, signature = item
    single = _reference(gpk, [item], url, period)
    assert _via_verify(gpk, message, signature, url, period) == single
    assert _via_batch(gpk, [item], url, period) == single
    pair = [item, companion]
    assert _via_batch(gpk, pair, url, period) == \
        _reference(gpk, pair, url, period)
    assert _via_pool(gpk, pair, url, period) == \
        _reference(gpk, pair, url, period)
    return single


class TestDifferential:
    @given(signer=st.integers(0, 2),
           period=st.sampled_from([None, PERIOD]),
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

    @pytest.mark.parametrize("period", [None, PERIOD])
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

    @pytest.mark.parametrize("period", [None, PERIOD])
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
