"""Experiment E8: the privacy and accountability games."""

import random

import pytest

from repro import instrument
from repro.analysis.privacy_games import (
    linking_with_token_rate,
    period_linkability_rate,
    run_unlinkability_game,
    strategy_compare_encodings,
    strategy_insider_keys,
    strategy_t2_ratio,
    strategy_with_token,
    view_disclosure_report,
)
from repro.core import groupsig
from repro.core.groupsig import RevocationToken


def per_token_owner_strategy(gpk, msg1, sig1, msg2, sig2, aux):
    """The token strategy as one Eq.3 check per token, each deriving
    the generators again: the reference for :func:`strategy_with_token`."""
    def owner(msg, sig):
        for position, token in enumerate(aux):
            if groupsig.signature_matches_token(gpk, msg, sig, token):
                return position
        return None
    owner1 = owner(msg1, sig1)
    return owner1 is not None and owner1 == owner(msg2, sig2)


@pytest.fixture(scope="module")
def game_keys(member_keys):
    return list(member_keys.values())


class TestUnlinkability:
    def test_naive_adversary_near_coin_flip(self, gpk, game_keys):
        result = run_unlinkability_game(
            gpk, game_keys, strategy_compare_encodings, trials=24,
            rng=random.Random(1))
        # The naive strategy always answers "different" effectively;
        # its advantage comes only from the coin. Bound it loosely.
        assert result.advantage <= 0.45

    def test_algebraic_adversary_near_coin_flip(self, gpk, game_keys):
        result = run_unlinkability_game(
            gpk, game_keys, strategy_t2_ratio, trials=24,
            rng=random.Random(2))
        assert result.advantage <= 0.45

    def test_insider_with_other_keys_near_coin_flip(self, gpk,
                                                    member_keys):
        """Compromised members' keys don't help link an honest signer
        (the adversary holds a2/b1/b2 but a1 signs)."""
        honest = [member_keys["a1"]]
        compromised = [member_keys["a2"], member_keys["b1"],
                       member_keys["b2"]]
        # Game over signatures by a1 and a2: insider holds a2 only.
        result = run_unlinkability_game(
            gpk, [member_keys["a1"], member_keys["b1"]],
            strategy_insider_keys, trials=16, rng=random.Random(3),
            aux=[member_keys["a2"], member_keys["b2"]])
        assert result.advantage <= 0.5
        del honest, compromised

    def test_insider_holding_the_signer_key_wins(self, gpk, member_keys):
        """Sanity: if the 'compromised' set includes the actual signer,
        linking succeeds -- the game machinery is not vacuous."""
        result = run_unlinkability_game(
            gpk, [member_keys["a1"], member_keys["b1"]],
            strategy_insider_keys, trials=12, rng=random.Random(4),
            aux=[member_keys["a1"], member_keys["b1"]])
        assert result.success_rate == 1.0

    def test_too_few_keys_rejected(self, gpk, member_keys):
        with pytest.raises(ValueError):
            run_unlinkability_game(gpk, [member_keys["a1"]],
                                   strategy_compare_encodings)


class TestAccountabilityContrast:
    def test_token_holder_links_perfectly(self, gpk, game_keys):
        """NO (holding grt) wins the same game with probability 1."""
        assert linking_with_token_rate(gpk, game_keys, trials=10,
                                       rng=random.Random(5)) == 1.0

    def test_period_mode_links_within_period(self, gpk, game_keys):
        """The fast-revocation variant's documented privacy cost."""
        assert period_linkability_rate(gpk, game_keys, trials=10,
                                       rng=random.Random(6)) == 1.0


class TestTokenStrategy:
    """NO's view derives H0 once per signature it scans, and guesses as
    the per-token loop does."""

    @pytest.mark.parametrize("size", (1, 4, 8))
    def test_generators_derived_once_per_signature(self, gpk, member_keys,
                                                   group, size):
        rng = random.Random(size)
        signer = member_keys["a1"]
        decoys = [RevocationToken(group.random_g1(rng))
                  for _ in range(size - 1)]
        aux = decoys + [RevocationToken(signer.a)]   # signer last
        sig1 = groupsig.sign(gpk, signer, b"m1", rng=rng)
        sig2 = groupsig.sign(gpk, signer, b"m2", rng=rng)
        with instrument.count_operations() as ops:
            assert strategy_with_token(gpk, b"m1", sig1, b"m2", sig2, aux)
        # Two signatures scanned: 2 hash_to_group + 2 psi each.
        assert (ops.total("hash_to_group"), ops.total("psi")) == (4, 4)
        assert ops.total("pairing") == 2 * 2 * size

    def test_unknown_signer_stops_after_one_signature(self, gpk,
                                                      member_keys):
        rng = random.Random(9)
        aux = [RevocationToken(member_keys["b1"].a)]
        sig1 = groupsig.sign(gpk, member_keys["a1"], b"m1", rng=rng)
        sig2 = groupsig.sign(gpk, member_keys["a1"], b"m2", rng=rng)
        with instrument.count_operations() as ops:
            assert not strategy_with_token(gpk, b"m1", sig1, b"m2", sig2,
                                           aux)
        assert (ops.total("hash_to_group"), ops.total("psi")) == (2, 2)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_token_loop_on_seeded_games(self, gpk, game_keys,
                                                    seed):
        rng = random.Random(seed)
        tokens = [RevocationToken(key.a) for key in game_keys]
        guesses = []
        for trial in range(8):
            key1 = rng.choice(game_keys)
            key2 = key1 if rng.random() < 0.5 else rng.choice(game_keys)
            # A shuffled subset: owners at position 0, signers missing.
            aux = rng.sample(tokens, rng.randint(1, len(tokens)))
            msg1, msg2 = b"g1-%d" % trial, b"g2-%d" % trial
            sig1 = groupsig.sign(gpk, key1, msg1, rng=rng)
            sig2 = groupsig.sign(gpk, key2, msg2, rng=rng)
            guess = strategy_with_token(gpk, msg1, sig1, msg2, sig2, aux)
            assert guess == per_token_owner_strategy(gpk, msg1, sig1,
                                                     msg2, sig2, aux)
            guesses.append(guess)
        assert True in guesses and False in guesses

    def test_owner_at_position_zero_links(self, gpk, member_keys):
        rng = random.Random(11)
        signer = member_keys["b2"]
        aux = [RevocationToken(signer.a), RevocationToken(member_keys["a1"].a)]
        sig1 = groupsig.sign(gpk, signer, b"m1", rng=rng)
        sig2 = groupsig.sign(gpk, signer, b"m2", rng=rng)
        assert strategy_with_token(gpk, b"m1", sig1, b"m2", sig2, aux)


class TestDisclosureReport:
    def test_three_tier_disclosure(self, fresh_deployment):
        deployment = fresh_deployment()
        report = view_disclosure_report(deployment, "alice", "MR-1",
                                        context="Company X")
        assert "legitimate" in report["adversary"]
        assert "nothing" in report["group_manager"]
        assert "nothing" in report["ttp"]
        assert "Company X" in report["network_operator"]
        assert "alice" in report["law_authority"]
        # NO's view must NOT contain the user's name.
        assert "alice" not in report["network_operator"]
