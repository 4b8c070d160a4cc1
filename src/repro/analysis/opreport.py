"""Operation-count verification (experiments E2 / E3, Section V.C).

The paper states abstract costs; this module measures the real ones by
running the scheme under :mod:`repro.instrument` and returns both so
benchmarks print paper-vs-measured side by side.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import instrument
from repro.core import groupsig
from repro.core.groupsig import (
    GroupPrivateKey,
    GroupPublicKey,
    RevocationToken,
)
from repro.core.revocation import RevocationState


@dataclass(frozen=True)
class OpCost:
    """Operation counts (and optionally wall time) of one operation."""

    exponentiations: int
    pairings: int
    gt_exponentiations: int = 0
    wall_seconds: float = 0.0


def expected_sign_cost() -> OpCost:
    """Paper V.C: 'signature generation requires about 8 exponentiations
    ... and 2 bilinear map computations'."""
    return OpCost(exponentiations=8, pairings=2)


def expected_verify_cost(url_size: int) -> OpCost:
    """Paper V.C: 'signature verification takes 6 exponentiations and
    3 + 2|URL| computations of the bilinear map'."""
    return OpCost(exponentiations=6, pairings=3 + 2 * url_size)


def expected_fast_verify_cost() -> OpCost:
    """Paper V.C: the |URL|-independent variant: 6 exp + 5 pairings."""
    return OpCost(exponentiations=6, pairings=5)


def measure_sign_cost(gpk: GroupPublicKey, gsk: GroupPrivateKey,
                      message: bytes = b"op-report",
                      rng: Optional[random.Random] = None) -> OpCost:
    """Sign once under instrumentation."""
    rng = rng or random.Random(0)
    start = time.perf_counter()
    with instrument.count_operations() as ops:
        groupsig.sign(gpk, gsk, message, rng=rng)
    return OpCost(exponentiations=ops.exponentiations(),
                  pairings=ops.pairings(),
                  gt_exponentiations=ops.total("exp_gt"),
                  wall_seconds=time.perf_counter() - start)


def measure_verify_cost(gpk: GroupPublicKey, gsk: GroupPrivateKey,
                        url: Sequence[RevocationToken] = (),
                        message: bytes = b"op-report",
                        rng: Optional[random.Random] = None) -> OpCost:
    """Sign, then verify once under instrumentation (counts verify only).

    The signer must not be on ``url`` -- a revocation hit would abort
    the scan early and undercount.
    """
    rng = rng or random.Random(0)
    signature = groupsig.sign(gpk, gsk, message, rng=rng)
    start = time.perf_counter()
    with instrument.count_operations() as ops:
        groupsig.verify(gpk, message, signature, url=url)
    return OpCost(exponentiations=ops.exponentiations(),
                  pairings=ops.pairings(),
                  gt_exponentiations=ops.total("exp_gt"),
                  wall_seconds=time.perf_counter() - start)


def measure_fast_verify_cost(gpk: GroupPublicKey, gsk: GroupPrivateKey,
                             url: Sequence[RevocationToken],
                             message: bytes = b"op-report",
                             rng: Optional[random.Random] = None) -> OpCost:
    """The tag-index variant: verify + O(1) revocation check.

    The signer must not be on ``url`` (a hit raises
    :class:`~repro.errors.RevokedKeyError`); the index is built before
    counting starts, as a router builds it once per URL version.
    """
    rng = rng or random.Random(0)
    state = RevocationState(gpk)
    signature = groupsig.sign(gpk, gsk, message, rng=rng,
                              period=state.period)
    state.update(url)
    start = time.perf_counter()
    with instrument.count_operations() as ops:
        groupsig.verify(gpk, message, signature, period=state.period,
                        check_revocation=False)
        state.check(message, signature)
    return OpCost(exponentiations=ops.exponentiations(),
                  pairings=ops.pairings(),
                  gt_exponentiations=ops.total("exp_gt"),
                  wall_seconds=time.perf_counter() - start)


def url_scaling_table(gpk: GroupPublicKey, gsk: GroupPrivateKey,
                      decoys: Sequence[RevocationToken],
                      url_sizes: Sequence[int],
                      rng: Optional[random.Random] = None
                      ) -> List[Dict[str, float]]:
    """Verify cost across URL sizes (experiment E3)."""
    rows = []
    for size in url_sizes:
        if size > len(decoys):
            raise ValueError("not enough decoy tokens for requested size")
        cost = measure_verify_cost(gpk, gsk, url=list(decoys[:size]),
                                   rng=rng)
        expected = expected_verify_cost(size)
        rows.append({
            "url_size": size,
            "pairings_measured": cost.pairings,
            "pairings_expected": expected.pairings,
            "exponentiations_measured": cost.exponentiations,
            "exponentiations_expected": expected.exponentiations,
            "wall_seconds": cost.wall_seconds,
        })
    return rows
