"""Privacy and accountability games (experiment E8, Sections IV.D / V.B).

The paper's privacy claims are statements about what different parties
can and cannot compute.  Each claim becomes a game with a measurable
success rate:

* **Unlinkability game** -- a challenger signs two messages, either
  with the same key or with different keys (fair coin); an adversary
  (several strategies, including one holding *other* members' private
  keys) guesses.  Claim: advantage ~ 0.
* **Token linking** -- the same game given the signer's revocation
  token ``A``.  Claim: success rate 1 (this is exactly how NO achieves
  accountability, and why *only* NO can).
* **View disclosure report** -- runs a full deployment session and
  records what every party (adversary, GM, TTP, NO, law authority)
  learns about the signer, mirroring the three-tier privacy model.
* **Period-mode linkability** -- quantifies the documented privacy
  sacrifice of the fast revocation-check variant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.core import groupsig
from repro.core.groupsig import (
    GroupPrivateKey,
    GroupPublicKey,
    GroupSignature,
    RevocationToken,
)

#: An adversary strategy: given the public key, two (message, signature)
#: pairs, and any auxiliary input, output True for "same signer".
Strategy = Callable[
    [GroupPublicKey, bytes, GroupSignature, bytes, GroupSignature, object],
    bool]


@dataclass(frozen=True)
class GameResult:
    """Outcome of a distinguishing game."""

    trials: int
    correct: int

    @property
    def success_rate(self) -> float:
        return self.correct / self.trials if self.trials else 0.0

    @property
    def advantage(self) -> float:
        """|success - 1/2| * 2, in [0, 1]."""
        return abs(self.success_rate - 0.5) * 2


# ---------------------------------------------------------------------------
# Adversary strategies
# ---------------------------------------------------------------------------


def strategy_compare_encodings(gpk, msg1, sig1, msg2, sig2, _aux) -> bool:
    """Naive: same signer iff any signature component bytes repeat."""
    return (sig1.t1 == sig2.t1 or sig1.t2 == sig2.t2
            or sig1.r == sig2.r)


def strategy_t2_ratio(gpk, msg1, sig1, msg2, sig2, _aux) -> bool:
    """Algebraic attempt: test whether T2/T2' looks like v^a / v'^a'.

    Without knowing the alphas this reduces to comparing two random
    group elements -- included to show a 'smarter' strategy fares no
    better than coin flipping.
    """
    return (sig1.t2 / sig2.t2).is_identity()


def strategy_insider_keys(gpk, msg1, sig1, msg2, sig2, aux) -> bool:
    """Insider: holds OTHER members' private keys (aux = list of gsk).

    Per the threat model, compromising users/routers yields group
    private keys -- but testing a signature against a key requires its
    ``A`` (Eq.3), and none of the compromised As match the challenge
    signer.  The strategy falls back to guessing 'different'.
    """
    for gsk in aux or ():
        token = RevocationToken(gsk.a)
        if (groupsig.signature_matches_token(gpk, msg1, sig1, token)
                and groupsig.signature_matches_token(gpk, msg2, sig2,
                                                     token)):
            return True
    return False


def strategy_with_token(gpk, msg1, sig1, msg2, sig2, aux) -> bool:
    """NO's view: aux is the full grt (all revocation tokens).

    Each signature's owner is the position of the first token encoded
    in it, found by one NO audit (:func:`groupsig.open_signature`), so
    the generators are derived once per signature, not once per token.
    """
    def owner(msg, sig) -> Optional[int]:
        return groupsig.open_signature(
            gpk, msg, sig,
            ((token, position) for position, token in enumerate(aux)))
    owner1 = owner(msg1, sig1)
    return owner1 is not None and owner1 == owner(msg2, sig2)


# ---------------------------------------------------------------------------
# Games
# ---------------------------------------------------------------------------


def run_unlinkability_game(gpk: GroupPublicKey,
                           keys: Sequence[GroupPrivateKey],
                           strategy: Strategy,
                           trials: int = 50,
                           rng: Optional[random.Random] = None,
                           aux: object = None,
                           period: Optional[bytes] = None) -> GameResult:
    """Same-signer-or-not distinguishing game.

    Each trial flips a fair coin: heads, both signatures come from one
    randomly chosen key; tails, from two distinct keys.  The strategy's
    guess is scored against the truth.
    """
    if len(keys) < 2:
        raise ValueError("need at least two keys for the game")
    rng = rng or random.Random(0)
    correct = 0
    for trial in range(trials):
        same = rng.random() < 0.5
        key1 = rng.choice(keys)
        if same:
            key2 = key1
        else:
            others = [key for key in keys if key is not key1]
            key2 = rng.choice(others)
        msg1 = b"game-msg-1-%d" % trial
        msg2 = b"game-msg-2-%d" % trial
        sig1 = groupsig.sign(gpk, key1, msg1, rng=rng, period=period)
        sig2 = groupsig.sign(gpk, key2, msg2, rng=rng, period=period)
        guess = strategy(gpk, msg1, sig1, msg2, sig2, aux)
        if guess == same:
            correct += 1
    return GameResult(trials=trials, correct=correct)


def linking_with_token_rate(gpk: GroupPublicKey,
                            keys: Sequence[GroupPrivateKey],
                            trials: int = 20,
                            rng: Optional[random.Random] = None) -> float:
    """Accountability side: with grt, linking succeeds every time."""
    rng = rng or random.Random(0)
    grt = [RevocationToken(key.a) for key in keys]
    result = run_unlinkability_game(gpk, keys, strategy_with_token,
                                    trials=trials, rng=rng, aux=grt)
    return result.success_rate


def period_linkability_rate(gpk: GroupPublicKey,
                            keys: Sequence[GroupPrivateKey],
                            trials: int = 20,
                            rng: Optional[random.Random] = None,
                            period: bytes = b"epoch-1") -> float:
    """The fast-revocation trade-off: within one period, the revocation
    tag links signatures by the same signer *without any token*."""
    rng = rng or random.Random(0)

    def tag_strategy(gpk_, msg1, sig1, msg2, sig2, _aux) -> bool:
        tag1 = groupsig.revocation_tag(gpk_, msg1, sig1, period=period)
        tag2 = groupsig.revocation_tag(gpk_, msg2, sig2, period=period)
        return tag1 == tag2

    result = run_unlinkability_game(gpk, keys, tag_strategy, trials=trials,
                                    rng=rng, period=period)
    return result.success_rate


# ---------------------------------------------------------------------------
# Deployment-level disclosure report
# ---------------------------------------------------------------------------


def view_disclosure_report(deployment, user_name: str, router_id: str,
                           context: Optional[str] = None) -> Dict[str, str]:
    """Run a session and report what each party learns about the signer.

    Returns a mapping ``party -> disclosed information`` matching the
    three-tier privacy model:  adversary/GM/TTP learn nothing beyond
    "a legitimate member", NO learns the user group, and the law
    authority (NO + GM jointly) learns the full identity.
    """
    from repro.core.audit import audit_by_session

    user_session, _router_session = deployment.connect(
        user_name, router_id, context=context)
    session_id = user_session.session_id

    audit = audit_by_session(deployment.operator, deployment.network_log,
                             session_id)
    trace = deployment.law_authority.trace_session(
        deployment.operator, deployment.network_log, deployment.gms,
        session_id)

    return {
        "adversary": "a legitimate, unrevoked network user "
                     "(fresh session identifier, no linkable state)",
        "group_manager": "nothing (holds no A values; cannot test Eq.3)",
        "ttp": "nothing (holds only A XOR x blindings)",
        "network_operator": f"member of user group "
                            f"{audit.group_name!r} -- nonessential "
                            f"attribute information only",
        "law_authority": f"full identity: {trace.identity.name} "
                         f"(uid {trace.identity.uid.hex()[:8]})",
    }
