"""E3 -- Verification cost vs |URL| (Section V.C).

Paper claims: 'the actually computational cost of signature
verification depends on the size of URL' (linear, +2 pairings per
token), and the precomputed-table variant (here the tag index,
:class:`~repro.core.revocation.RevocationState`) is |URL|-independent
at 6 exp + 5 pairings.  The bench sweeps |URL| and shows the crossover:
the fast variant wins as soon as |URL| > 1.
"""

import random
import time

from repro.analysis.opreport import url_scaling_table
from repro.core import groupsig
from repro.core.groupsig import RevocationToken
from repro.core.revocation import RevocationState


def test_e3_url_scaling_series(reporter, ss512_scheme):
    gpk, _master, keys = ss512_scheme
    rng = random.Random(20)
    decoys = [RevocationToken(k.a) for k in keys[1:33]]
    rows = url_scaling_table(gpk, keys[0], decoys,
                             url_sizes=[0, 1, 2, 4, 8, 16, 32], rng=rng)

    report = reporter("E3: verify cost vs |URL| (paper V.C scaling)")
    report.table(
        ("|URL|", "pairings (paper 3+2U)", "pairings measured",
         "exp", "wall ms"),
        [(r["url_size"], 3 + 2 * r["url_size"], r["pairings_measured"],
          r["exponentiations_measured"],
          f"{r['wall_seconds'] * 1000:.1f}") for r in rows])

    # Shape: linear in |URL|, slope 2 pairings per token.
    pairings = [r["pairings_measured"] for r in rows]
    sizes = [r["url_size"] for r in rows]
    for (s1, p1), (s2, p2) in zip(zip(sizes, pairings),
                                  zip(sizes[1:], pairings[1:])):
        assert p2 - p1 == 2 * (s2 - s1)
    # Wall time grows with |URL| (allow noise on small sizes).
    assert rows[-1]["wall_seconds"] > rows[0]["wall_seconds"]


def test_e3_fast_variant_crossover(reporter, ss512_scheme):
    gpk, _master, keys = ss512_scheme
    rng = random.Random(21)
    decoys = [RevocationToken(k.a) for k in keys[1:33]]
    report = reporter("E3b: linear scan vs tag-index revocation")

    rows = []
    for url_size in (0, 1, 2, 8, 32):
        url = decoys[:url_size]
        message = b"crossover-%d" % url_size
        signature = groupsig.sign(gpk, keys[0], message, rng=rng)
        start = time.perf_counter()
        groupsig.verify(gpk, message, signature, url=url)
        linear = time.perf_counter() - start

        state = RevocationState(gpk)
        period_signature = groupsig.sign(gpk, keys[0], message, rng=rng,
                                         period=state.period)
        state.update(url)   # amortized
        start = time.perf_counter()
        groupsig.verify(gpk, message, period_signature,
                        period=state.period, check_revocation=False)
        state.check(message, period_signature)
        fast = time.perf_counter() - start
        rows.append((url_size, f"{linear * 1000:.1f}",
                     f"{fast * 1000:.1f}",
                     "fast" if fast < linear else "linear"))
    report.table(("|URL|", "linear scan ms", "fast variant ms", "winner"),
                 rows)
    # Shape claim: the fast variant wins for large URLs.
    assert rows[-1][3] == "fast"


def test_e3_verify_url32_wall_time(benchmark, ss512_scheme):
    gpk, _master, keys = ss512_scheme
    decoys = [RevocationToken(k.a) for k in keys[1:33]]
    signature = groupsig.sign(gpk, keys[0], b"bench",
                              rng=random.Random(22))
    benchmark.pedantic(
        lambda: groupsig.verify(gpk, b"bench", signature, url=decoys),
        rounds=3, iterations=1)
