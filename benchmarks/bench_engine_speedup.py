"""E9 -- Engine-layer speedup: precomputation vs naive verification.

The crypto engine (fixed-argument pairing tables, cached base pairing,
the batch core's fused kernels) is a pure implementation-level
optimisation: it must leave every instrumented operation count
untouched while cutting wall-clock time.  This experiment measures both
halves of that contract on the paper-comparable SS512 preset, with
``reference_classify`` (``tests/oracles.py``: the paper's algorithm on
generic pairings, no engine) as the "engine off" side:

* revocation-scan verification (|URL| = 32) engine-on vs engine-off,
  the acceptance gate (>= 1.5x) for the engine refactor;
* base verification (|URL| = 0) engine-on vs engine-off;
* batch throughput: ``verify_batch`` vs the sequential reference.

Machine-readable results land in ``BENCH_engine_speedup.json``.
"""

import random
import time

from repro import instrument
from repro.core import groupsig
from repro.core.groupsig import RevocationToken
from tests.oracles import reference_classify

URL_SIZE = 32
REQUIRED_SPEEDUP = 1.5


def _time(callable_, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_e9_engine_speedup(reporter, ss512_scheme):
    gpk, _master, keys = ss512_scheme
    rng = random.Random(90)
    url = [RevocationToken(k.a) for k in keys[1:1 + URL_SIZE]]
    message = b"engine-speedup"
    signature = groupsig.sign(gpk, keys[0], message, rng=rng)

    # Build the per-gpk tables outside the timed region: they are a
    # one-time cost per system parameter set, amortized over the gpk's
    # lifetime (that amortization is the whole point of the engine).
    groupsig.verify(gpk, message, signature, url=url)

    # Count invariance first: identical instrumented cost either way.
    counts = {}
    with instrument.count_operations() as ops:
        groupsig.verify(gpk, message, signature, url=url)
    counts[True] = ops.snapshot()
    with instrument.count_operations() as ops:
        assert reference_classify(gpk, message, signature,
                                  url) is None
    counts[False] = ops.snapshot()
    assert counts[True] == counts[False]
    assert counts[True]["pairing"] == 3 + 2 * URL_SIZE

    scan_on = _time(lambda: groupsig.verify(
        gpk, message, signature, url=url))
    scan_off = _time(lambda: reference_classify(
        gpk, message, signature, url))
    scan_speedup = scan_off / scan_on

    base_on = _time(lambda: groupsig.verify(gpk, message, signature))
    base_off = _time(lambda: reference_classify(
        gpk, message, signature))
    base_speedup = base_off / base_on

    batch = []
    for index, key in enumerate(keys[40:44]):   # signers outside the URL
        batch_message = b"batch-%d" % index
        batch.append((batch_message,
                      groupsig.sign(gpk, key, batch_message, rng=rng)))
    batch_url = url[:8]
    batch_on = _time(lambda: groupsig.verify_batch(
        gpk, batch, url=batch_url), rounds=2)
    sequential_off = _time(
        lambda: [reference_classify(gpk, m, s, batch_url)
                 for m, s in batch],
        rounds=2)
    batch_speedup = sequential_off / batch_on

    report = reporter("engine_speedup: precomputation engine vs naive "
                      "(SS512)")
    report.table(
        ("scenario", "engine off ms", "engine on ms", "speedup"),
        [(f"verify, |URL|={URL_SIZE}", f"{scan_off * 1000:.1f}",
          f"{scan_on * 1000:.1f}", f"{scan_speedup:.2f}x"),
         ("verify, |URL|=0", f"{base_off * 1000:.1f}",
          f"{base_on * 1000:.1f}", f"{base_speedup:.2f}x"),
         (f"4 sigs, |URL|=8 (batch vs sequential)",
          f"{sequential_off * 1000:.1f}", f"{batch_on * 1000:.1f}",
          f"{batch_speedup:.2f}x")])
    report.record("revocation_scan_url_size", URL_SIZE)
    report.record("revocation_scan_engine_off_seconds", scan_off)
    report.record("revocation_scan_engine_on_seconds", scan_on)
    report.record("revocation_scan_speedup", scan_speedup)
    report.record("base_verify_speedup", base_speedup)
    report.record("batch_vs_sequential_speedup", batch_speedup)
    report.record("op_counts_engine_on", counts[True])
    report.record("op_counts_engine_off", counts[False])
    report.record("required_speedup", REQUIRED_SPEEDUP)

    # Acceptance gate: the engine must beat the naive revocation scan by
    # at least 1.5x at |URL| = 32.
    assert scan_speedup >= REQUIRED_SPEEDUP, scan_speedup
