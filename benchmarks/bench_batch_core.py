"""batch_core -- the batch core's fused kernels vs the paper's algorithm.

Every verification entry point classifies on the batch core's fast
kernels: fused Miller-loop/subgroup passes, per-token fixed-argument
line tables for the Eq.3 URL scan, one shared final exponentiation for
the SPK's pairing product, and deferred unit-circle tag tests.  This
experiment measures the resulting speedup on the paper-comparable
workload -- SS512, |URL| = 8 -- for ``verify_batch`` at batch sizes
1 / 4 / 16 and for one lone ``groupsig.verify`` (the path a single
user's M.2 takes), against the sequential baseline
``reference_classify`` (``tests/oracles.py``: the paper's algorithm on
generic pairings, no engine state).

Both sides are timed min-of-rounds in this one process, with every
amortized table (token line tables, NAF step tables, GT fixed base)
built outside the timed region: the tables are per-gpk state, paid once
over the key's lifetime.  The acceptance gates are >= 6x at batch 16
and >= 4x for the lone verify.

The bench also asserts the batch core's contract on the measured runs
themselves: identical outcomes and identical instrumented operation
counts vs the sequential path, i.e. per-signature *abstract* cost
(6 exps, ``3 + 2*|URL|`` pairings) is invariant -- only wall-clock
drops.  ``BENCH_batch_core.json`` carries the ms/sig curve and the
per-signature op counts.
"""

import random
import time

from repro import instrument
from repro.core import groupsig
from repro.core.groupsig import RevocationToken
from tests.oracles import reference_classify

URL_SIZE = 8
BATCH_SIZES = (1, 4, 16)
GATE_BATCH_SIZE = 16
REQUIRED_SPEEDUP = 6.0
REQUIRED_SINGLE_SPEEDUP = 4.0
SINGLE_ROUNDS = 5


def _best(callable_, rounds):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _interleaved_best(fn_a, fn_b, rounds):
    """Min-of-rounds for two callables with alternating measurement.

    On a shared 1-core host the CPU budget drifts on a seconds scale;
    timing all of A's rounds and then all of B's lets that drift land
    on one side only and bias the ratio.  Alternating A/B within each
    round keeps the estimator (an honest min over full executions) but
    samples both sides across the same noise window.
    """
    best_a = best_b = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def test_batch_core_speedup(reporter, ss512_scheme):
    gpk, _master, keys = ss512_scheme
    rng = random.Random(512)
    # Signers outside the URL: every item walks the full revocation
    # scan, the paper's worst case and the cost the batch core amortizes.
    url = tuple(RevocationToken(k.a) for k in keys[32:32 + URL_SIZE])
    batches = {}
    for size in BATCH_SIZES:
        batches[size] = [
            (b"batch-core-%d-%d" % (size, i),
             groupsig.sign(gpk, keys[i % 8], b"batch-core-%d-%d" % (size, i),
                           rng=rng))
            for i in range(size)]

    # Amortized engine state, built outside the timed region.
    engine = gpk.engine
    engine.base_pairing()
    engine.gt_table
    engine.g2_naf_steps
    engine.w_naf_steps
    engine.token_steps(url)

    # Contract check on the gated batch: same outcomes, same counts.
    gate_batch = batches[GATE_BATCH_SIZE]
    with instrument.count_operations() as batch_ops:
        batch_results = groupsig.verify_batch(gpk, gate_batch, url=url)
    with instrument.count_operations() as seq_ops:
        seq_results = [reference_classify(gpk, m, s, url)
                       for m, s in gate_batch]
    assert all(r is None for r in batch_results)
    assert all(r is None for r in seq_results)
    assert batch_ops.snapshot() == seq_ops.snapshot()
    assert batch_ops.total("pairing") == \
        GATE_BATCH_SIZE * (3 + 2 * URL_SIZE)
    assert batch_ops.total("exp") == GATE_BATCH_SIZE * 4
    ops_identical = True  # asserted above; recorded for the gate

    per_sig = {}
    for size in BATCH_SIZES:
        if size == GATE_BATCH_SIZE:
            continue
        batch = batches[size]
        seconds = _best(lambda b=batch: groupsig.verify_batch(
            gpk, b, url=url), rounds=3)
        per_sig[size] = seconds / size

    # The gated ratio's two sides are timed interleaved so host drift
    # cannot land on one side only.
    gate_seconds, sequential_seconds = _interleaved_best(
        lambda: groupsig.verify_batch(gpk, gate_batch, url=url),
        lambda: [reference_classify(gpk, m, s, url)
                 for m, s in gate_batch], rounds=3)
    per_sig[GATE_BATCH_SIZE] = gate_seconds / GATE_BATCH_SIZE
    rows = [(size, f"{per_sig[size] * 1000:.1f}") for size in BATCH_SIZES]
    sequential_per_sig = sequential_seconds / GATE_BATCH_SIZE
    speedup = sequential_per_sig / per_sig[GATE_BATCH_SIZE]

    # One lone verify -- a single user's M.2 -- on the same warm tables,
    # timed interleaved with the reference on the same item.
    message, signature = batches[1][0]
    with instrument.count_operations() as single_ops:
        groupsig.verify(gpk, message, signature, url=url)
    with instrument.count_operations() as ref_ops:
        assert reference_classify(gpk, message, signature,
                                  url) is None
    assert single_ops.snapshot() == ref_ops.snapshot()
    single_seconds, reference_seconds = _interleaved_best(
        lambda: groupsig.verify(gpk, message, signature, url=url),
        lambda: reference_classify(gpk, message, signature, url),
        rounds=SINGLE_ROUNDS)
    single_speedup = reference_seconds / single_seconds

    report = reporter("batch_core: randomized multi-pairing batch "
                      "engine vs sequential (SS512)")
    report.table(
        ("batch size", "batch ms/sig"),
        [(str(size), ms) for size, ms in rows])
    report.row(f"sequential (reference): "
               f"{sequential_per_sig * 1000:.1f} ms/sig")
    report.row(f"speedup at batch {GATE_BATCH_SIZE}: {speedup:.2f}x "
               f"(gate >= {REQUIRED_SPEEDUP:g}x)")
    report.row(f"lone verify: {single_seconds * 1000:.1f} ms vs "
               f"reference {reference_seconds * 1000:.1f} ms = "
               f"{single_speedup:.2f}x "
               f"(gate >= {REQUIRED_SINGLE_SPEEDUP:g}x)")
    report.record("url_size", URL_SIZE)
    report.record("gate_batch_size", GATE_BATCH_SIZE)
    for size in BATCH_SIZES:
        report.record(f"batch{size}_ms_per_sig", per_sig[size] * 1000)
    report.record("sequential_ms_per_sig", sequential_per_sig * 1000)
    report.record("batch_speedup_16", speedup)
    report.record("required_speedup", REQUIRED_SPEEDUP)
    report.record("op_counts_identical", ops_identical)
    report.record("pairings_per_sig", 3 + 2 * URL_SIZE)
    report.record("exps_per_sig", 4)
    report.record("op_counts_batch", batch_ops.snapshot())
    report.record("single_verify_ms_per_sig", single_seconds * 1000)
    report.record("single_reference_ms_per_sig", reference_seconds * 1000)
    report.record("single_verify_speedup", single_speedup)
    report.record("required_single_speedup", REQUIRED_SINGLE_SPEEDUP)
    report.record("single_verify_op_counts", single_ops.snapshot())

    assert speedup >= REQUIRED_SPEEDUP, speedup
    assert single_speedup >= REQUIRED_SINGLE_SPEEDUP, single_speedup
