"""GT serialization and verify on the engine's precomputed base pairing."""

import pytest

from repro import instrument
from repro.core import groupsig
from repro.errors import EncodingError, InvalidSignature


class TestGtCodec:
    def test_roundtrip(self, group):
        element = group.pair(group.g1, group.g2) ** 7
        assert group.decode_gt(element.encode()) == element

    def test_identity_roundtrip(self, group):
        identity = group.gt_identity()
        assert group.decode_gt(identity.encode()).is_identity()

    def test_bad_width_rejected(self, group):
        with pytest.raises(EncodingError):
            group.decode_gt(b"\x00" * 7)

    def test_off_subgroup_value_rejected(self, group):
        """An arbitrary F_p2 value (order not dividing r) is refused."""
        size = group.params.field_bytes
        for candidate in range(2, 50):
            blob = (candidate.to_bytes(size, "big")
                    + (0).to_bytes(size, "big"))
            try:
                group.decode_gt(blob)
            except EncodingError:
                return
        pytest.skip("no off-subgroup scalar found in range")

    def test_zero_rejected(self, group):
        with pytest.raises(EncodingError):
            group.decode_gt(b"\x00" * group.params.gt_bytes)


class TestPrecomputedVerify:
    """The engine caches ``e(g1, g2)``; verify still bills it."""

    def test_accepts_valid_signatures(self, gpk, member_keys, rng):
        signature = groupsig.sign(gpk, member_keys["a1"], b"pc", rng=rng)
        groupsig.verify(gpk, b"pc", signature)

    def test_rejects_invalid_signatures(self, gpk, member_keys, rng):
        signature = groupsig.sign(gpk, member_keys["a1"], b"pc", rng=rng)
        with pytest.raises(InvalidSignature):
            groupsig.verify(gpk, b"other", signature)

    def test_default_keeps_paper_accounting(self, gpk, member_keys, rng):
        """A warm base-pairing cache hit still counts as a pairing."""
        signature = groupsig.sign(gpk, member_keys["a1"], b"pc2",
                                  rng=rng)
        groupsig.verify(gpk, b"pc2", signature)  # warm
        with instrument.count_operations() as ops:
            groupsig.verify(gpk, b"pc2", signature)
        assert ops.pairings() == 3
        assert ops.exponentiations() == 6
