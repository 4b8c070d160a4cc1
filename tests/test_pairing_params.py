"""Tests for pairing parameter presets and generation."""

import random

import pytest

from repro.errors import ParameterError
from repro.pairing.params import (
    PRESETS,
    PairingParams,
    find_parameters,
    get_params,
)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_all_presets_validate(self, name):
        PRESETS[name].validate()

    def test_expected_bit_lengths(self):
        assert PRESETS["TEST"].p.bit_length() == 128
        assert PRESETS["TEST"].r.bit_length() == 64
        assert PRESETS["SS512"].p.bit_length() == 512
        assert PRESETS["SS512"].r.bit_length() == 160
        assert PRESETS["SS1024"].p.bit_length() == 1024

    def test_lookup_case_insensitive(self):
        assert get_params("test") is PRESETS["TEST"]

    def test_unknown_preset_rejected(self):
        with pytest.raises(ParameterError):
            get_params("nope")

    def test_size_helpers(self):
        params = PRESETS["TEST"]
        assert params.scalar_bytes == 8
        assert params.field_bytes == 16
        assert params.point_bytes == 17


class TestValidation:
    def test_wrong_cofactor_rejected(self):
        good = PRESETS["TEST"]
        bad = PairingParams(name="bad", p=good.p, r=good.r, h=good.h + 1)
        with pytest.raises(ParameterError):
            bad.validate()

    def test_non_3mod4_rejected(self):
        bad = PairingParams(name="bad", p=13, r=7, h=2)
        with pytest.raises(ParameterError):
            bad.validate()

    def test_composite_r_rejected(self):
        # p = 3 mod 4 with h*r = p+1 but r composite
        bad = PairingParams(name="bad", p=19, r=10, h=2)
        with pytest.raises(ParameterError):
            bad.validate()


class TestGeneration:
    def test_find_small_parameters(self):
        params = find_parameters(16, 40, rng=random.Random(3))
        params.validate()
        assert params.r.bit_length() == 16
        assert params.p.bit_length() == 40

    def test_generation_deterministic(self):
        a = find_parameters(16, 40, rng=random.Random(3))
        b = find_parameters(16, 40, rng=random.Random(3))
        assert a.p == b.p and a.r == b.r

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ParameterError):
            find_parameters(40, 40)
