"""crash_recovery -- crash/restart equivalence and checkpoint warm-up.

The durability claim (DESIGN.md, "Durability & crash recovery"): a
router that crashes, loses its unsynced journal tail, and restores
from disk is *observably indistinguishable* from one that never
crashed -- same handshake outcomes, same ``token_index`` on revoked
attempts, bit-identical beacon/confirm bytes, and identical rejection
behaviour under an adversarial replay storm that re-submits pre-crash
(M.2)s to the recovered router.  The only asymmetry a crash may leave
is *internal* (pairings re-derived, journal length); nothing on the
wire.

Two experiments:

* **Crash churn (seeds 101/202/303).**  A scripted protocol run --
  handshakes, two revocations, periodic list refreshes -- executed
  twice on the same virtual clock: once uninterrupted, once with an
  fsync-lossy power cut (unsynced refresh records dropped, torn bytes
  appended) and a cold restore mid-sequence.  Every message byte and
  outcome is traced and the traces must match exactly, including a
  16-shot replay storm fired at both runs after the acceptance window
  has passed.

* **Checkpoint warm-up at |URL| = 10^3.**  A cold router enabling
  the tag index pays one tag pairing per listed token; warming
  from a peer's signed :class:`TagCheckpoint` replaces all of them
  with one ECDSA verification.  Gate: warm-up >= 5x the cold build,
  and the warm build performs *zero* pairings.

Gates registered in scripts/bench_gate.py: the four identity booleans,
``degraded_reentry``, ``warm_pairings == 0``, ``warmup_speedup >= 5``.
"""

import hashlib
import random
import time

from repro import instrument
from repro.core import groupsig
from repro.core.clock import ManualClock
from repro.core.deployment import Deployment
from repro.core.durable import DurableRouterStore, MemoryStorage
from repro.core.operator_entity import NetworkOperator
from repro.core.revocation import RevocationTagCache
from repro.core.router import MeshRouter
from repro.errors import DegradedModeError, ReplayError
from repro.pairing import PairingGroup

CHAOS_SEEDS = (101, 202, 303)
START = 1_000_000.0
WARMUP_URL_SIZE = 1000
REQUIRED_WARMUP_SPEEDUP = 5.0
STORM_REPLAYS = 8          # per captured request, pre- and post-crash
TS_WINDOW = 30.0           # protocol default; storm fires well past it


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def _interleaved_best(fn_a, fn_b, rounds):
    """Min-of-rounds with alternating measurement (same estimator as
    bench_revocation_scale: shared-host drift must not land on one
    side of the ratio only)."""
    best_a = best_b = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


# -- crash churn: scripted run, executed with and without a crash ----------

class _ProtocolRun:
    """One deterministic protocol timeline on a manual clock.

    Every handshake reseeds the router's and the user's RNG from the
    (seed, step) pair immediately before use, so each message is a
    pure function of (security state, clock, step) -- the property
    that lets the crashed and uncrashed runs be compared byte for
    byte.  ECDSA signing is RFC 6979 deterministic and
    ``reprovision_router`` consumes no operator randomness, so the
    extra recovery work in the crash run cannot desynchronize anything
    the baseline also computes.
    """

    def __init__(self, seed: int, crash: bool) -> None:
        self.seed = seed
        self.crash = crash
        self.clock = ManualClock(START)
        self.deployment = Deployment.build(
            preset="TEST", seed=seed,
            groups={"Company X": 8, "University Z": 8},
            users=[("alice", ["Company X"]), ("bob", ["University Z"]),
                   ("carol", ["University Z"])],
            routers=["MR-1"], clock=self.clock)
        self.operator = self.deployment.operator
        self.router = self.deployment.routers["MR-1"]
        # Manual syncs only: the power cut at T+99 must find the T+70
        # refresh in the unsynced tail.
        self.store = DurableRouterStore(MemoryStorage(), "MR-1",
                                        sync_every=10_000)
        self.router.attach_durable(self.store)
        state = self.router.enable_sharded_revocation(
            cache=RevocationTagCache())
        for user in self.deployment.users.values():
            user.auth_period = state.period
        self.store.sync()
        self.trace = []
        self.captured = {}
        self.step = 0
        self.fsync_lost = 0
        self.recovery = None
        self.restore_seconds = 0.0

    def _at(self, offset: float) -> None:
        self.clock.advance(START + offset - self.clock.now())

    def attempt(self, user_name: str, capture: str = "") -> None:
        """One full beacon -> request -> confirm handshake, traced."""
        self.step += 1
        user = self.deployment.users[user_name]
        self.router.rng.seed(self.seed * 1_000_003 + self.step)
        user.rng.seed(self.seed * 2_000_003 + self.step)
        beacon = self.router.make_beacon()
        request, pending = user.connect_to_router(beacon)
        if capture:
            self.captured[capture] = request
        token_index = session_id = error = confirm_digest = None
        try:
            confirm, session = self.router.process_request(request)
            user_session = user.complete_router_handshake(pending, confirm)
            session_id = user_session.session_id.hex()
            # The AEAD envelope of (M.3) carries a random nonce (drawn
            # from the OS, as it should be); identity is over the
            # *authenticated content* -- DH shares plus the opened
            # key-confirmation payload.
            confirm_digest = _digest(confirm.g_r_user.encode()
                                     + confirm.g_r_router.encode()
                                     + session.open_handshake(confirm.sealed))
            kind = "accepted"
        except groupsig.RevokedKeyError as exc:
            kind, token_index, error = "revoked", exc.token_index, str(exc)
        self.trace.append({
            "step": self.step, "t": self.clock.now() - START,
            "user": user_name, "kind": kind,
            "beacon": _digest(beacon.encode()),
            "request": _digest(request.encode()),
            "confirm": confirm_digest, "session": session_id,
            "token_index": token_index, "error": error})

    def refresh(self) -> None:
        self.router.refresh_lists()

    def crash_and_restore(self) -> None:
        """Power cut at T+99: drop the unsynced tail, tear the end of
        the journal, discard the process, restore from disk at T+100."""
        self._at(99.0)
        self.fsync_lost = self.store.storage.lose_unsynced()
        self.store.storage.append(b"torn")   # half-written final frame
        self._at(100.0)
        start = time.perf_counter()
        # The deployment threads one shared Random through every
        # entity; hand the same object to the restored router so the
        # per-step reseeding drives a single stream in both runs.
        self.router = MeshRouter.restore(
            self.store, self.operator, clock=self.clock,
            rng=self.router.rng, cache=RevocationTagCache())
        self.restore_seconds = time.perf_counter() - start
        self.deployment.routers["MR-1"] = self.router
        self.recovery = self.router.recovery

    def storm(self) -> None:
        """Adversarial replay storm at T+400: re-submit captured
        pre-crash and post-recovery (M.2)s.  Both echoes have aged out
        (or were never known to the recovered router), so every shot
        must die in the replay precheck -- identically in both runs."""
        self.router.expire()
        before = self.router.engine.stats["rejected_replay"]
        for name in ("pre_crash", "post_recovery"):
            request = self.captured[name]
            for shot in range(STORM_REPLAYS):
                try:
                    self.router.process_request(request)
                    outcome = "ACCEPTED"
                except ReplayError as exc:
                    outcome = f"ReplayError: {exc}"
                self.trace.append({
                    "step": f"storm-{name}-{shot}",
                    "t": self.clock.now() - START, "kind": "storm",
                    "request": _digest(request.encode()),
                    "outcome": outcome})
        self.trace.append({
            "kind": "storm-stats",
            "rejected_replay_delta":
                self.router.engine.stats["rejected_replay"] - before})

    def execute(self) -> None:
        revoke = self.operator.revoke_user_key
        users = self.deployment.users
        self._at(10.0)
        self.attempt("alice")
        self._at(20.0)
        self.attempt("bob")                      # not yet revoked
        self._at(35.0)
        revoke(users["bob"].credentials["University Z"].index)
        self._at(40.0)
        self.refresh()                           # journaled ...
        self.store.sync()                        # ... and made durable
        self._at(50.0)
        self.attempt("bob")                      # rejected: revoked
        self._at(55.0)
        self.attempt("alice")
        self._at(70.0)
        self.refresh()                           # journaled, NOT synced
        self._at(75.0)
        self.attempt("alice", capture="pre_crash")
        self._at(95.0)
        revoke(users["carol"].credentials["University Z"].index)
        if self.crash:
            self.crash_and_restore()             # T+99 cut, T+100 boot
        self._at(100.0)
        self.refresh()                           # periodic pull; in the
        self.store.sync()                        # crash run, boot refresh
        self._at(110.0)
        self.attempt("carol")                    # post-recovery revocation
        self._at(115.0)
        self.attempt("alice", capture="post_recovery")
        self._at(120.0)
        self.attempt("bob")                      # still revoked
        self._at(400.0)                          # both echoes aged out
        self.storm()


def _trace_views(run):
    outcomes = [(e.get("step"), e.get("t"), e.get("user"), e.get("kind"),
                 e.get("session"), e.get("error"), e.get("outcome"),
                 e.get("rejected_replay_delta"))
                for e in run.trace]
    messages = [(e.get("beacon"), e.get("request"), e.get("confirm"))
                for e in run.trace if e.get("kind") != "storm-stats"]
    token_indexes = [e.get("token_index") for e in run.trace]
    storm = [(e.get("step"), e.get("outcome"),
              e.get("rejected_replay_delta"))
             for e in run.trace
             if e.get("kind") in ("storm", "storm-stats")]
    return outcomes, messages, token_indexes, storm


def _degraded_reentry(seed: int) -> bool:
    """A router that reboots partitioned must re-enter degraded-mode
    refusal from its *journaled* fetch time, not a fresh one."""
    clock = ManualClock(START)
    deployment = Deployment.build(preset="TEST", seed=seed,
                                  routers=["MR-1"], clock=clock)
    router = deployment.routers["MR-1"]
    store = DurableRouterStore(MemoryStorage(), "MR-1", sync_every=1)
    router.attach_durable(store)
    router.set_operator_channel(False)
    clock.advance(700.0)                         # grace is 600 s
    restored = MeshRouter.restore(store, deployment.operator, clock=clock)
    try:
        restored.make_beacon()
        return False
    except DegradedModeError:
        return not restored._channel_up


def test_crash_recovery(reporter):
    report = reporter("crash_recovery: crash/restart bit-identity under "
                      "replay storm; checkpoint warm-up at |URL| = 10^3")

    # -- crash churn over the chaos seeds ------------------------------
    outcomes_identical = messages_identical = True
    token_index_identical = replay_storm_identical = True
    rows = []
    for seed in CHAOS_SEEDS:
        baseline = _ProtocolRun(seed, crash=False)
        baseline.execute()
        crashed = _ProtocolRun(seed, crash=True)
        crashed.execute()

        b_out, b_msg, b_tok, b_storm = _trace_views(baseline)
        c_out, c_msg, c_tok, c_storm = _trace_views(crashed)
        outcomes_identical &= b_out == c_out
        messages_identical &= b_msg == c_msg
        token_index_identical &= (b_tok == c_tok
                                  and sum(t is not None for t in b_tok) == 3)
        replay_storm_identical &= b_storm == c_storm

        assert crashed.fsync_lost > 0            # the cut lost real bytes
        assert crashed.recovery.tail_dropped > 0  # and tore the tail
        assert crashed.recovery.records_replayed > 0
        assert crashed.router.revocation_state is not None
        rows.append((seed, len(baseline.trace), crashed.fsync_lost,
                     crashed.recovery.records_replayed,
                     crashed.recovery.tail_dropped,
                     f"{crashed.restore_seconds * 1000:.2f}",
                     b_out == c_out and b_msg == c_msg))

    degraded_reentry = all(_degraded_reentry(seed) for seed in CHAOS_SEEDS)

    report.table(("seed", "trace", "fsync lost B", "replayed",
                  "torn B", "restore ms", "identical"), rows)
    report.record("chaos_seeds", list(CHAOS_SEEDS))
    report.record("outcomes_identical", outcomes_identical)
    report.record("messages_identical", messages_identical)
    report.record("token_index_identical", token_index_identical)
    report.record("replay_storm_identical", replay_storm_identical)
    report.record("degraded_reentry", degraded_reentry)
    report.record("storm_replays_per_request", STORM_REPLAYS)

    assert outcomes_identical
    assert messages_identical
    assert token_index_identical
    assert replay_storm_identical
    assert degraded_reentry

    # -- checkpoint warm-up at metropolitan URL size -------------------
    clock = ManualClock(START)
    operator = NetworkOperator(PairingGroup("TEST"), clock=clock,
                               rng=random.Random(5))
    source = MeshRouter("MR-SRC", operator, clock=clock,
                        rng=random.Random(6))
    target = MeshRouter("MR-TGT", operator, clock=clock,
                        rng=random.Random(7))
    # The decoys are issued member keys, revoked through the operator's
    # public calls like any other key.
    decoys, _shares = operator.register_user_group("Decoys",
                                                   WARMUP_URL_SIZE)
    for index, _x in decoys.entries:
        operator.revoke_user_key(index)
    source.refresh_lists()
    target.refresh_lists()
    source.enable_sharded_revocation(cache=RevocationTagCache())
    checkpoint = source.make_tag_checkpoint()
    assert checkpoint is not None

    def cold():
        target.enable_sharded_revocation(cache=RevocationTagCache())

    def warm():
        target.enable_sharded_revocation(cache=RevocationTagCache(),
                                         warm_checkpoint=checkpoint)

    with instrument.count_operations() as cold_ops:
        cold()
    with instrument.count_operations() as warm_ops:
        warm()
    cold_pairings = cold_ops.total("pairing")
    warm_pairings = warm_ops.total("pairing")

    cold_s, warm_s = _interleaved_best(cold, warm, rounds=3)
    warmup_speedup = cold_s / warm_s

    report.table(("|URL|", "cold ms", "warm ms", "speedup",
                  "cold pairings", "warm pairings"),
                 [(WARMUP_URL_SIZE, f"{cold_s * 1000:.2f}",
                   f"{warm_s * 1000:.2f}", f"{warmup_speedup:.1f}x",
                   cold_pairings, warm_pairings)])
    report.row(f"gate: checkpoint warm-up >= "
               f"{REQUIRED_WARMUP_SPEEDUP:g}x the cold build at "
               f"|URL| = {WARMUP_URL_SIZE}")
    report.record("warmup_url_size", WARMUP_URL_SIZE)
    report.record("required_warmup_speedup", REQUIRED_WARMUP_SPEEDUP)
    report.record("warmup_speedup", warmup_speedup)
    report.record("cold_pairings", cold_pairings)
    report.record("warm_pairings", warm_pairings)

    assert cold_pairings >= WARMUP_URL_SIZE
    assert warm_pairings == 0
    assert warmup_speedup >= REQUIRED_WARMUP_SPEEDUP, warmup_speedup
