"""revocation_scale -- the tag-index verify vs the linear verify.

The paper's verifier-local revocation walks the whole URL (2 pairings
per listed token per verification).  The tag index
(:mod:`repro.core.revocation`) computes the signature's period tag --
2 pairings, |URL|-independent -- and looks it up in one
``{tag: first URL index}`` map.  Both sides time a whole period-mode
verification, the SPK included:

* linear -- what a period-mode router without the index runs:
  ``groupsig.classify(gpk, [(m, sig)], url, period)``, the SPK and then
  the Eq.3 scan on the batch core's kernels;
* indexed -- what a tag-index router runs: the same ``classify`` with
  ``check_revocation=False`` (the SPK alone), then
  :meth:`RevocationState.check`.

This experiment measures the crossover at metropolitan URL sizes and
holds the index to *bit-identical* behaviour: same outcomes, same error
message, same ``token_index`` as the linear side, including under
shuffled URL orderings (chaos seeds 101/202/303).  The tests hold both
sides to the paper's verifier (``tests/oracles.py``).

The second half measures epidemic CRL/URL distribution: a single
router refreshes from the NO, every other router starts stale, and
push-pull anti-entropy (delta-first, full-list fallback) must converge
the whole overlay within a bounded number of rounds under 15%
per-exchange loss.

Each of ``ROUNDS`` rounds times one linear verify and, right after it,
a loop of ``INDEXED_LOOP`` indexed verifies (a lone ~2 ms verify is too
noisy to ratio against); the recorded speedup is the median of the
rounds' own ratios, so both sides of every ratio saw the same host.
CI runs |URL| in {100, 1000} and a 24-router overlay; the nightly
job sets ``BENCH_REVOCATION_LARGE=1`` to add |URL| = 10^4, a
1000-router overlay, and a telemetry-rollup JSONL from a full gossip
scenario.  Gates (scripts/bench_gate.py): the indexed verify >= 5x
faster than the linear verify at |URL| = 1000, identity booleans, and
convergence.
"""

import os
import random
import statistics
import time

import pytest

from repro import instrument
from repro.core import groupsig
from repro.core.groupsig import RevocationToken
from repro.core.operator_entity import NetworkOperator
from repro.core.revocation import (
    RevocationState,
    RevocationTagCache,
    epoch_period,
)
from repro.core.router import MeshRouter
from repro.pairing import PairingGroup
from repro.wmn.gossip import ListGossip
from repro.wmn.simclock import EventLoop, SimClock

URL_SIZES = (100, 1000)
LARGE_URL_SIZE = 10_000
GATE_URL_SIZE = 1000
REQUIRED_SPEEDUP = 5.0
CHAOS_SEEDS = (101, 202, 303)
#: Verifies per timed round on the indexed side: one is ~2 ms on TEST,
#: too short for a single sample to be steady on a shared host.
INDEXED_LOOP = 50
#: Timed rounds per |URL|, each yielding one paired ratio.
ROUNDS = 5

EPIDEMIC_ROUTERS = 24
LARGE_EPIDEMIC_ROUTERS = 1000
EPIDEMIC_LOSS = 0.15
EPIDEMIC_MAX_ROUNDS = 48

LARGE = os.environ.get("BENCH_REVOCATION_LARGE") == "1"


def _paired_rounds(linear, indexed):
    """``ROUNDS`` pairs of (one linear verify s, one indexed verify s).

    Each round times the linear verify and then ``INDEXED_LOOP``
    back-to-back indexed verifies, so a round's ratio never divides
    samples taken under two different host states.
    """
    pairs = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        linear()
        linear_s = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(INDEXED_LOOP):
            indexed()
        indexed_s = (time.perf_counter() - start) / INDEXED_LOOP
        pairs.append((linear_s, indexed_s))
    return pairs


def _indexed_outcome(gpk, state, message, signature, period):
    """A tag-index router's verify in the linear verify's shape: the SPK
    alone, then the tag check."""
    error = groupsig.classify(gpk, [(message, signature)], (), period,
                              check_revocation=False)[0]
    if error is not None:
        return error
    try:
        state.check(message, signature)
    except groupsig.RevokedKeyError as exc:
        return exc
    return None


def _linear_outcome(gpk, message, signature, tokens, period):
    """A period-mode router without the index: the SPK, then the Eq.3
    scan of ``tokens``."""
    return groupsig.classify(gpk, [(message, signature)], tokens, period)[0]


def _build_overlay(router_count, seed):
    """One stale overlay: NO + routers all holding version-0 lists,
    then a burst of revocations only the seed router fetches."""
    loop = EventLoop(start=1_000_000.0)
    clock = SimClock(loop)
    operator = NetworkOperator(PairingGroup("TEST"), clock=clock,
                               rng=random.Random(seed))
    routers = [MeshRouter(f"MR-{i:04d}", operator, clock=clock,
                          rng=random.Random(seed + 1 + i))
               for i in range(router_count)]
    # Revocations happen *after* every router snapshotted version 0.
    gm_bundle, _ttp = operator.register_user_group("Metro", 8)
    for index, _x in gm_bundle.entries[:4]:
        operator.revoke_user_key(index)
    operator.provision_router("decoy-router")
    operator.revoke_router("decoy-router")
    routers[0].refresh_lists()
    gossip = ListGossip(loop, routers, round_period=30.0, fanout=2,
                        loss_probability=EPIDEMIC_LOSS,
                        rng=random.Random(seed + 0x60551))
    return gossip


@pytest.fixture(scope="module")
def scale_scheme():
    group = PairingGroup("TEST")
    rng = random.Random(2026)
    gpk, master = groupsig.keygen_master(group, rng)
    keys = [groupsig.issue_member_key(group, master, 700 + i, (i, 0), rng)
            for i in range(2)]
    return group, gpk, keys, rng


def test_revocation_scale(reporter, scale_scheme):
    group, gpk, keys, rng = scale_scheme
    revoked_key, clean_key = keys
    period = epoch_period(gpk.epoch)
    message = b"revocation-scale"
    sig_revoked = groupsig.sign(gpk, revoked_key, message, rng=rng,
                                period=period)
    sig_clean = groupsig.sign(gpk, clean_key, message, rng=rng,
                              period=period)

    sizes = URL_SIZES + ((LARGE_URL_SIZE,) if LARGE else ())
    # Decoys are random G1 points (any URL entry is just a token): the
    # clean signer's scan walks every one of them, the paper's
    # worst case and the cost the tag index removes.
    decoys = [RevocationToken(group.random_g1(rng))
              for _ in range(max(sizes) - 1)]

    cache = RevocationTagCache(capacity=2 * max(sizes))
    report = reporter("revocation_scale: tag-index verify vs linear "
                      "verify; epidemic spread under loss")

    outcomes_identical = True
    token_index_identical = True
    rows = []
    speedups = {}
    for size in sizes:
        # The revoked signer's token sits at the END of the URL: the
        # linear scan's worst case for a revoked signature, and the
        # largest token_index the identity check can get wrong.
        tokens = tuple(decoys[:size - 1]) + (RevocationToken(revoked_key.a),)
        state = RevocationState(gpk, cache=cache)
        state.update(tokens, url_version=size)

        # Bit-identity at this size: clean passes both paths, revoked
        # raises the same error text and token_index on both paths.
        linear_clean = _linear_outcome(gpk, message, sig_clean, tokens,
                                       period)
        linear_revoked = _linear_outcome(gpk, message, sig_revoked, tokens,
                                         period)
        indexed_clean = _indexed_outcome(gpk, state, message, sig_clean,
                                         period)
        indexed_revoked = _indexed_outcome(gpk, state, message,
                                           sig_revoked, period)
        outcomes_identical &= (linear_clean is None
                               and indexed_clean is None
                               and linear_revoked is not None
                               and indexed_revoked is not None
                               and str(linear_revoked)
                               == str(indexed_revoked))
        token_index_identical &= (
            linear_revoked is not None and indexed_revoked is not None
            and linear_revoked.token_index == indexed_revoked.token_index
            == size - 1)

        pairs = _paired_rounds(
            lambda t=tokens: _linear_outcome(gpk, message, sig_clean, t,
                                             period),
            lambda s=state: _indexed_outcome(gpk, s, message, sig_clean,
                                             period))
        speedups[size] = statistics.median(
            linear_s / indexed_s for linear_s, indexed_s in pairs)
        linear_s = statistics.median(linear_s for linear_s, _ in pairs)
        indexed_s = statistics.median(indexed_s for _, indexed_s in pairs)
        rows.append((str(size), f"{linear_s * 1000:.2f}",
                     f"{indexed_s * 1e6:.1f}",
                     f"{speedups[size]:.1f}x"))

    # Shuffled-URL identity at the gated size: the tag lookup must
    # report the *same first-match index* the linear scan does for any
    # ordering (fixed chaos seeds).
    base = list(tuple(decoys[:GATE_URL_SIZE - 1])
                + (RevocationToken(revoked_key.a),))
    for seed in CHAOS_SEEDS:
        shuffled = list(base)
        random.Random(seed).shuffle(shuffled)
        state = RevocationState(gpk, cache=cache)
        state.update(tuple(shuffled), url_version=seed)
        linear = _linear_outcome(gpk, message, sig_revoked,
                                 tuple(shuffled), period)
        indexed = _indexed_outcome(gpk, state, message, sig_revoked,
                                   period)
        outcomes_identical &= (linear is not None and indexed is not None
                               and str(linear) == str(indexed))
        token_index_identical &= (
            linear is not None and indexed is not None
            and linear.token_index == indexed.token_index)

    # Cache contract on the measured state: a warm rebuild derives no
    # tags at all (every lookup hits), the property that makes delta
    # updates cheap at metropolitan scale.
    warm_state = RevocationState(gpk, cache=cache)
    with instrument.count_operations() as warm_ops:
        warm_state.update(tuple(base), url_version=GATE_URL_SIZE + 1)
    rebuild_pairing_free = warm_ops.total("pairing") == 0

    report.table(("|URL|", "linear ms", "indexed us", "speedup"), rows)
    report.row(f"gate: indexed verify >= {REQUIRED_SPEEDUP:g}x at "
               f"|URL| = {GATE_URL_SIZE}")
    report.record("url_sizes", list(sizes))
    report.record("required_speedup", REQUIRED_SPEEDUP)
    for size in sizes:
        report.record(f"speedup_url{size}", speedups[size])
    report.record("outcomes_identical", outcomes_identical)
    report.record("token_index_identical", token_index_identical)
    report.record("rebuild_pairing_free", rebuild_pairing_free)
    report.record("chaos_seeds", list(CHAOS_SEEDS))

    assert outcomes_identical
    assert token_index_identical
    assert rebuild_pairing_free
    assert speedups[GATE_URL_SIZE] >= REQUIRED_SPEEDUP, speedups

    # -- epidemic CRL/URL distribution under loss ----------------------
    router_count = LARGE_EPIDEMIC_ROUTERS if LARGE else EPIDEMIC_ROUTERS
    gossip = _build_overlay(router_count, seed=7)
    rounds = gossip.run_until_converged(EPIDEMIC_MAX_ROUNDS)
    converged = gossip.converged()

    # Replayability: the same seeds converge in the same number of
    # rounds with the same exchange/loss tallies.
    replay = _build_overlay(router_count, seed=7)
    replay_rounds = replay.run_until_converged(EPIDEMIC_MAX_ROUNDS)
    deterministic = (replay_rounds == rounds
                     and replay.exchanges == gossip.exchanges
                     and replay.losses == gossip.losses)

    report.table(
        ("routers", "loss", "rounds", "exchanges", "deltas", "full",
         "lost"),
        [(router_count, f"{EPIDEMIC_LOSS:.0%}", rounds, gossip.exchanges,
          gossip.deltas_applied, gossip.full_syncs, gossip.losses)])
    report.record("epidemic_routers", router_count)
    report.record("epidemic_loss_pct", EPIDEMIC_LOSS * 100)
    report.record("epidemic_rounds", rounds)
    report.record("epidemic_max_rounds", EPIDEMIC_MAX_ROUNDS)
    report.record("epidemic_converged", converged)
    report.record("epidemic_deterministic", deterministic)
    report.record("epidemic_exchanges", gossip.exchanges)
    report.record("epidemic_deltas_applied", gossip.deltas_applied)
    report.record("epidemic_full_syncs", gossip.full_syncs)
    report.record("epidemic_losses", gossip.losses)

    assert converged
    assert deterministic
    assert rounds <= EPIDEMIC_MAX_ROUNDS
    # Delta-first protocol: at least one exchange moved a delta, and
    # losses actually occurred (the 15% is real, not vacuous).
    assert gossip.deltas_applied + gossip.full_syncs > 0
    assert gossip.losses > 0


@pytest.mark.skipif(not LARGE, reason="nightly only "
                    "(BENCH_REVOCATION_LARGE=1)")
def test_nightly_gossip_scenario_telemetry(reporter):
    """Full-stack nightly run: a gossip + tag-index revocation scenario
    with telemetry windows, dumped as JSONL for the artifact upload."""
    from repro.wmn.scenario import Scenario, ScenarioConfig

    scenario = Scenario(ScenarioConfig(
        seed=42, gossip_period=45.0, gossip_loss=EPIDEMIC_LOSS,
        sharded_revocation=True, telemetry_window=60.0,
        list_refresh_period=120.0))
    scenario.run(600.0)
    scenario.publish_metrics()
    jsonl = scenario.telemetry_jsonl()

    out_dir = os.environ.get("BENCH_OUTPUT_DIR")
    report_dir = (os.path.join(out_dir, "reports") if out_dir
                  else os.path.join(os.path.dirname(__file__), "reports"))
    os.makedirs(report_dir, exist_ok=True)
    path = os.path.join(report_dir, "revocation_scale_telemetry.jsonl")
    with open(path, "w") as handle:
        handle.write(jsonl)

    report = reporter("revocation_scale_nightly: gossip scenario "
                      "telemetry rollups")
    report.record("telemetry_windows", jsonl.count("\n"))
    report.record("gossip_rounds",
                  scenario.gossip.rounds if scenario.gossip else 0)
    report.row(f"telemetry JSONL -> {path}")
    assert scenario.gossip is not None and scenario.gossip.rounds > 0
    assert jsonl
