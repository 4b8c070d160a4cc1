"""The PEACE short group signature (paper Section IV; variation of BS04).

Boneh-Shacham's verifier-local-revocation group signature, with the key
generation modified exactly as the paper prescribes: the member secret
exponent is split into a *user-group component* ``grp_i`` (shared by all
members of user group i) and a *member component* ``x_j``, so that

    A_{i,j} = g1 ^ (1 / (gamma + grp_i + x_j)).

Opening a signature with the revocation token ``A_{i,j}`` then reveals
(to the network operator, who keeps the ``A -> grp_i`` map) only which
user group the signer belongs to -- the paper's "sophisticated privacy".

The signature of knowledge follows the paper's steps 2.2.1-2.2.4 / 3.2
verbatim; each product of powers is one multi-scalar multiplication
noted as a single exponentiation, so the instrumented operation counts
line up with the paper's claims (8 exponentiations + 2 pairings to
sign, 6 exponentiations + (3 + 2*|URL|) pairings to verify).

Two revocation-check modes are provided:

* **per-signature generators** (the default, ``period=None``): ``(u_hat,
  v_hat)`` are derived from the message and signature randomness; the
  revocation check Eq.3 costs 2 pairings per token.
* **per-period generators** (``period=...``): ``(u_hat, v_hat)`` depend
  only on the time period, so ``e(A, u_hat)`` can be precomputed per
  token per period and checking is a constant-cost table lookup -- the
  "far more efficient revocation check ... with a little bit sacrifice
  on user privacy" of Section V.C (signatures by the same user within
  one period become linkable).

**One classifier.**  :func:`verify` (one item, raises),
:func:`verify_batch` (a list, returns outcomes) and the verifier pool's
workers all call :func:`classify`, which runs each item on the batch
core's fused kernels (:mod:`repro.core.batch_core`) and nothing else: a
kernel exception fails closed as an :class:`InvalidSignature`.  The
paper's algorithm on generic pairings is the tests' single oracle
(``tests/oracles.py``), never a second verifier here.  Every ``gpk``
owns a lazily-built :class:`CryptoEngine` holding the kernels'
precomputation tables (one per fixed base: ``g1``, ``g2``, ``w``, the
base pairing ``e(g1, g2)``, per-token revocation lines, and a bounded
cache of per-period generator contexts).  The engine changes wall-clock cost
only: whenever a table evaluation stands in for an abstract operation
the same :mod:`repro.instrument` note is recorded, so the measured
counts above are the paper's.
"""

from __future__ import annotations

import functools
import random
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import instrument, obs
from repro.errors import (
    EncodingError,
    InvalidSignature,
    ParameterError,
    RevokedKeyError,
)
from repro.core import batch_core
from repro.mathx import jacobian
from repro.mathx.jacobian import Ladder
from repro.pairing import fastpath
from repro.pairing.curve import FixedBaseTable, Point
from repro.pairing.fastpath import final_exponentiation
from repro.pairing.fields import Fp2
from repro.pairing.group import (
    G1Element,
    G2Element,
    GTElement,
    PairingGroup,
)


@dataclass(frozen=True)
class GroupPublicKey:
    """``gpk = (g1, g2, w)`` with ``w = g2^gamma``.

    ``epoch`` is operator-side bookkeeping (which key generation this
    is), not key material: it is excluded from equality/hashing and from
    the wire encoding -- ``decode`` yields epoch 0 and the operator
    re-stamps it.  The revocation layer keys its tag cache and period
    derivation on it (see :mod:`repro.core.revocation`).
    """

    group: PairingGroup
    w: G2Element
    epoch: int = field(default=0, compare=False)

    @property
    def g1(self) -> G1Element:
        return self.group.g1

    @property
    def g2(self) -> G2Element:
        return self.group.g2

    @property
    def engine(self) -> "CryptoEngine":
        """This key's precomputation engine, built on first access.

        Cached on the instance (not a module global) so the tables die
        with the gpk; equality and hashing still compare only the
        declared ``(group, w)`` fields.
        """
        engine = self.__dict__.get("_engine")
        if engine is None:
            engine = CryptoEngine(self)
            object.__setattr__(self, "_engine", engine)
        return engine

    def encode(self) -> bytes:
        return self.g1.encode() + self.g2.encode() + self.w.encode()

    def challenge(self, message: bytes, r: int, t1: G1Element,
                  t2: G1Element, r1: G1Element, r2: GTElement,
                  r3: G1Element) -> int:
        """The Fiat-Shamir challenge ``c = H(gpk, M, r, T1, T2, R1, R2, R3)``."""
        group = self.group
        return group.hash_to_scalar(
            self.encode(), message, group.encode_scalar(r),
            t1.encode(), t2.encode(), r1.encode(), r2.encode(), r3.encode())

    @classmethod
    def decode(cls, group: PairingGroup, data: bytes) -> "GroupPublicKey":
        size = group.params.point_bytes
        if len(data) != 3 * size:
            raise EncodingError("bad gpk encoding length")
        g1 = group.decode_g1(data[:size])
        g2 = group.decode_g2(data[size:2 * size])
        if g1 != group.g1 or g2 != group.g2:
            raise EncodingError("gpk generators disagree with system params")
        return cls(group, group.decode_g2(data[2 * size:]))


@dataclass(frozen=True)
class GroupMasterSecret:
    """The network operator's ``gamma`` (never leaves NO)."""

    gamma: int


@dataclass(frozen=True)
class GroupPrivateKey:
    """``gsk[i, j] = (A_{i,j}, grp_i, x_j)`` held by one network user."""

    a: G1Element
    grp: int
    x: int
    index: Tuple[int, int]  # ([i, j]) bookkeeping index

    @property
    def exponent_sum(self) -> int:
        """The effective BS04 member exponent ``grp_i + x_j``."""
        return self.grp + self.x

    @functools.cached_property
    def a_ladder(self) -> Optional[Ladder]:
        """The ladder of ``A`` (:meth:`repro.pairing.curve.Curve.ladder`),
        built at the first signature and kept for every later one."""
        return self.a.group.curve.ladder(self.a.point)


@dataclass(frozen=True)
class RevocationToken:
    """``grt[i, j] = A_{i,j}``: enough to test Eq.3, nothing more.

    The canonical wire bytes live on the instance: a decoded token keeps
    the bytes it was parsed from (point decoding accepts only canonical
    encodings), a constructed one encodes ``A`` on first use, so a URL,
    a delta and a tag index built from one token encode it once.
    Equality, hashing and pickling ignore them.
    """

    a: G1Element
    _encoding: Optional[bytes] = field(default=None, init=False,
                                       repr=False, compare=False)

    def encode(self) -> bytes:
        if self._encoding is None:
            object.__setattr__(self, "_encoding", self.a.encode())
        return self._encoding

    def __getstate__(self) -> dict:
        return {"a": self.a}

    @classmethod
    def decode(cls, group: PairingGroup, data: bytes) -> "RevocationToken":
        token = cls(group.decode_g1(data))
        object.__setattr__(token, "_encoding", bytes(data))
        return token


@dataclass(frozen=True)
class GroupSignature:
    """``(r, T1, T2, c, s_alpha, s_x, s_delta)``: 2 G1 + 5 Z_r elements."""

    r: int
    t1: G1Element
    t2: G1Element
    c: int
    s_alpha: int
    s_x: int
    s_delta: int

    def encode(self) -> bytes:
        group = self.t1.group
        return b"".join((
            group.encode_scalar(self.r),
            self.t1.encode(),
            self.t2.encode(),
            group.encode_scalar(self.c),
            group.encode_scalar(self.s_alpha),
            group.encode_scalar(self.s_x),
            group.encode_scalar(self.s_delta),
        ))

    @classmethod
    def decode(cls, group: PairingGroup, data: bytes) -> "GroupSignature":
        s = group.params.scalar_bytes
        q = group.params.point_bytes
        if len(data) != 5 * s + 2 * q:
            raise EncodingError("bad group signature length")
        offset = 0

        def take(width: int) -> bytes:
            nonlocal offset
            chunk = data[offset:offset + width]
            offset += width
            return chunk

        return cls(
            r=group.decode_scalar(take(s)),
            t1=group.decode_g1(take(q)),
            t2=group.decode_g1(take(q)),
            c=group.decode_scalar(take(s)),
            s_alpha=group.decode_scalar(take(s)),
            s_x=group.decode_scalar(take(s)),
            s_delta=group.decode_scalar(take(s)),
        )

    @staticmethod
    def encoded_size(group: PairingGroup) -> int:
        """Serialized byte size: 2 points + 5 scalars."""
        return 2 * group.params.point_bytes + 5 * group.params.scalar_bytes


# ---------------------------------------------------------------------------
# Key generation (paper Section IV.A, NO side)
# ---------------------------------------------------------------------------


def keygen_master(group: PairingGroup,
                  rng: Optional[random.Random] = None
                  ) -> Tuple[GroupPublicKey, GroupMasterSecret]:
    """Generate ``(gpk, gamma)``: steps 1) of the scheme setup."""
    rng = rng or random.SystemRandom()
    gamma = group.random_scalar(rng)
    w = group.g2 ** gamma
    return GroupPublicKey(group, w), GroupMasterSecret(gamma)


def issue_member_key(group: PairingGroup, master: GroupMasterSecret,
                     grp: int, index: Tuple[int, int],
                     rng: Optional[random.Random] = None,
                     engine: Optional["CryptoEngine"] = None
                     ) -> GroupPrivateKey:
    """Generate one SDH tuple ``(A_{i,j}, grp_i, x_j)`` (setup step 3).

    ``x_j`` is sampled until ``gamma + grp_i + x_j != 0 (mod r)`` as the
    paper requires (the inverse must exist).  Passing the gpk's
    ``engine`` routes the ``g1`` exponentiation through its fixed-base
    table -- same result, same single counted "exp", faster bulk
    enrollment.
    """
    rng = rng or random.SystemRandom()
    order = group.order
    while True:
        x = group.random_scalar(rng)
        denominator = (master.gamma + grp + x) % order
        if denominator != 0:
            break
    exponent = pow(denominator, -1, order)
    if engine is not None:
        a = engine.g1_exp(exponent)
    else:
        a = group.g1 ** exponent
    return GroupPrivateKey(a=a, grp=grp % order, x=x, index=index)


# ---------------------------------------------------------------------------
# Generator derivation (Eq.1) -- shared by sign and verify
# ---------------------------------------------------------------------------


def derive_generators(gpk: GroupPublicKey, message: bytes, r: int,
                      period: Optional[bytes] = None
                      ) -> Tuple[G2Element, G2Element, G1Element, G1Element]:
    """Return ``(u_hat, v_hat, u, v)`` per Eq.1, counting 2 psi maps.

    With ``period`` set, the generators depend only on ``(gpk, period)``
    -- the linkable-within-period variant enabling O(1) revocation
    checks (Section V.C).
    """
    group = gpk.group
    if period is None:
        u_hat, v_hat = group.hash_h0(gpk.encode(), message,
                                     group.encode_scalar(r))
    else:
        u_hat, v_hat = group.hash_h0(gpk.encode(), b"period", period)
    u = group.psi(u_hat)
    v = group.psi(v_hat)
    return u_hat, v_hat, u, v


# ---------------------------------------------------------------------------
# The crypto engine: per-gpk precomputation tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorContext:
    """The generators of one period, plus what their verifications share.

    Period generators depend only on ``(gpk, period)``, so every table
    here amortizes across every signature of the period.
    """

    u_hat: G2Element
    v_hat: G2Element
    u: G1Element
    v: G1Element
    #: NAF Miller steps of ``u_hat`` and ``v_hat``
    #: (:func:`repro.pairing.fastpath.naf_steps`): the revocation-tag
    #: legs of the tag index and of the batch core's period-mode scan.
    u_steps: list
    v_steps: list
    #: The ladder of ``u`` (:meth:`repro.pairing.curve.Curve.ladder`),
    #: shared by the R1 and R3 of every period-mode SPK of the period.
    u_ladder: Ladder
    #: Fixed-base GT tables of ``e(v, g2)`` and ``e(v, w)``, the two
    #: per-period factors of a period-mode R2.
    v_g2_gt: fastpath.GTFixedBase
    v_w_gt: fastpath.GTFixedBase


class CryptoEngine:
    """Bounded precomputation state owned by one :class:`GroupPublicKey`.

    Holds one table per fixed base: NAF Miller step tables for ``g2``
    and ``w``, fixed-base exponentiation tables for ``g1`` and ``w``,
    the cached base pairing ``e(g1, g2)`` and its GT window table,
    token line tables (one per token of the last :attr:`max_urls`
    lists), and an LRU cache (at most ``max_periods`` entries) of
    per-period generator contexts, each with its own GT tables.  No
    table is built by a generic pairing.
    Everything is built lazily on first use and protected by a lock so
    a multi-threaded router can share one engine.

    Invariant: using the engine never changes an instrumented operation
    count.  A table evaluation notes the same "pairing"/"exp" the naive
    computation would; a period-cache hit replays the notes the fresh
    derivation would have produced.
    """

    #: Bound on the token line-table cache: the tables of the tokens of
    #: the last ``max_urls`` distinct revocation lists are kept.
    max_urls = 4

    def __init__(self, gpk: "GroupPublicKey", max_periods: int = 16) -> None:
        if max_periods < 1:
            raise ParameterError("engine period cache needs at least 1 slot")
        self.gpk = gpk
        self.group = gpk.group
        self.max_periods = max_periods
        self._lock = threading.Lock()
        self._naf_steps: Dict[str, list] = {}
        self._fixed: Dict[str, FixedBaseTable] = {}
        self._base: Optional[GTElement] = None
        self._gt_table = None
        self._periods: "OrderedDict[bytes, GeneratorContext]" = OrderedDict()
        self._token_steps: "OrderedDict[tuple, list]" = OrderedDict()

    # -- fixed-parameter tables -----------------------------------------

    def _fixed_naf_steps(self, name: str) -> list:
        """NAF Miller steps for the fixed base ``gpk.<name>``, built once
        and reported like a table build."""
        with self._lock:
            cached = self._naf_steps.get(name)
        if cached is None:
            with obs.span("engine.table_build"):
                cached = fastpath.naf_steps(self.group.curve,
                                            getattr(self.gpk, name).point)
            obs.counter("engine.table_build_total")
            with self._lock:
                cached = self._naf_steps.setdefault(name, cached)
        return cached

    @property
    def g2_naf_steps(self) -> list:
        """NAF Miller steps for ``g2`` (FE-identical to a plain table)."""
        return self._fixed_naf_steps("g2")

    @property
    def w_naf_steps(self) -> list:
        """NAF Miller steps for ``w`` (FE-identical to a plain table)."""
        return self._fixed_naf_steps("w")

    def _fixed_base(self, name: str) -> FixedBaseTable:
        """The fixed-base table of ``gpk.<name>``, built once."""
        with self._lock:
            table = self._fixed.get(name)
        if table is None:
            table = FixedBaseTable(self.group.curve,
                                   getattr(self.gpk, name).point)
            with self._lock:
                table = self._fixed.setdefault(name, table)
        return table

    def g1_exp(self, exponent: int, count: bool = True) -> G1Element:
        """``g1 ** exponent`` via the fixed-base table (one "exp" unless
        ``count=False``)."""
        if count:
            instrument.note("exp")
        return G1Element(self._fixed_base("g1").mul(exponent), self.group)

    def g2_w_mul(self, a: int, b: int) -> Point:
        """``g2^a * w^b`` on the fixed-base tables of ``g1`` (the same
        point as ``g2``) and ``w``, one chain; notes nothing (period-mode
        verification pairs T2 with it in place of two counted exps)."""
        curve = self.group.curve
        return curve.from_affine(jacobian.multi_mul(
            [(self._fixed_base("g1"), a), (self._fixed_base("w"), b)],
            curve.a, curve.p))

    def pair_g2_w(self, left: G1Element, right: G1Element) -> Fp2:
        """``e(left, g2) * e(right, w)``: the two pairings of R2.

        Sign and flat-mode verify fold R2 into this product (period
        mode pairs T2 with ``g2^s_x * w^c`` instead).  The two NAF
        table evaluations ride one shared Miller accumulator and pay one
        final exponentiation (FE is a homomorphism), so the value is
        bit-identical to two :meth:`PairingGroup.pair` calls; notes the
        2 pairings those would.
        """
        instrument.note("pairing", 2)
        curve = self.group.curve
        p = curve.p
        raw = fastpath.miller_eval_pair(self.g2_naf_steps, left.point,
                                        self.w_naf_steps, right.point, p)
        return final_exponentiation(curve, Fp2(raw[0], raw[1], p))

    def _base_value(self) -> GTElement:
        """``e(g1, g2)``, evaluated once per gpk on ``g2``'s NAF steps.

        The pairing is symmetric and ``g2`` is ``g1``'s point, so the
        value is ``FE(miller_eval(g2_steps, g1))`` -- bit-identical to
        the generic pairing.  Notes nothing: the use sites do.
        """
        with self._lock:
            cached = self._base
        if cached is None:
            curve = self.group.curve
            p = curve.p
            raw = fastpath.miller_eval(self.g2_naf_steps, self.gpk.g1.point,
                                       p)
            value = GTElement(final_exponentiation(
                curve, Fp2(raw[0], raw[1], p)), self.group)
            with self._lock:
                if self._base is None:
                    self._base = value
                cached = self._base
        return cached

    def base_pairing(self) -> GTElement:
        """The fixed pairing ``e(g1, g2)``, computed once per gpk.

        Every call, the first included, notes one "pairing" so counts
        match the paper's accounting.
        """
        with self._lock:
            hit = self._base is not None
        obs.counter("engine.base_pairing_hit_total" if hit
                    else "engine.base_pairing_miss_total")
        instrument.note("pairing")
        return self._base_value()

    @property
    def gt_table(self):
        """Signed-window GT table for the base pairing ``e(g1, g2)``.

        Built once per gpk from the quietly-evaluated base pairing
        value (table construction, like every precomputation here, is
        not an instrumented operation); the batch core uses it for the
        ``base ** -c`` factor of R2 and notes the same one "exp_gt" the
        naive ``**`` would.
        """
        with self._lock:
            cached_table = self._gt_table
        if cached_table is not None:
            return cached_table
        table = fastpath.GTFixedBase(self._base_value().value,
                                     self.group.order)
        with self._lock:
            if self._gt_table is None:
                self._gt_table = table
            return self._gt_table

    def token_steps(self, url: Sequence["RevocationToken"]) -> list:
        """Miller line steps for each token ``A_k`` of a revocation list.

        The Eq.3 scan pairs every token against a *varying* ``u_hat``;
        by symmetry ``e(A_k, u_hat)`` evaluates through a table built
        for the fixed ``A_k``, so one build per token amortizes over
        every signature scanned against it.  The lists of the last
        :attr:`max_urls` URLs are kept (a bounded LRU); a URL seen for
        the first time reuses the table of every token those lists
        hold, so a URL delta builds the tables of its new tokens alone.
        Building is uninstrumented per the engine convention;
        evaluations note their pairings at the call sites.
        """
        key = tuple(token.a.point for token in url)
        with self._lock:
            cached = self._token_steps.get(key)
            if cached is not None:
                self._token_steps.move_to_end(key)
            else:
                known = {point: steps
                         for points, lists in self._token_steps.items()
                         for point, steps in zip(points, lists)}
        if cached is not None:
            obs.counter("engine.token_table_hit_total")
            return cached
        curve = self.group.curve
        steps = []
        built = 0
        with obs.span("engine.table_build"):
            for point in key:
                lines = known.get(point)
                if lines is None:
                    lines = known[point] = fastpath.naf_steps(curve, point)
                    built += 1
                steps.append(lines)
        obs.counter("engine.token_table_build_total", built)
        with self._lock:
            self._token_steps[key] = steps
            self._token_steps.move_to_end(key)
            while len(self._token_steps) > self.max_urls:
                self._token_steps.popitem(last=False)
        return steps

    # -- per-period generator cache -------------------------------------

    def generators(self, period: bytes) -> GeneratorContext:
        """Derive (or recall) the Eq.1 generators of one period.

        Consults the LRU cache; a hit replays the notes (2
        hash_to_group, 2 psi) the derivation would have recorded,
        keeping counts invariant.
        """
        key = bytes(period)
        with self._lock:
            context = self._periods.get(key)
            if context is not None:
                self._periods.move_to_end(key)
        if context is not None:
            obs.counter("engine.period_cache_hit_total")
            instrument.note("hash_to_group", 2)
            instrument.note("psi", 2)
            return context
        obs.counter("engine.period_cache_miss_total")
        u_hat, v_hat, u, v = derive_generators(self.gpk, b"", 0, period)
        curve = self.group.curve
        with obs.span("engine.table_build"):
            # e(v, g2) and e(v, w) by symmetry on the fixed g2 / w steps
            # (NAF values are final-exponentiation-identical); v comes
            # from H0, never the point at infinity.
            v_g2, v_w = fastpath.final_exponentiation_each(
                [fastpath.miller_eval(self.g2_naf_steps, v.point, curve.p),
                 fastpath.miller_eval(self.w_naf_steps, v.point, curve.p)],
                curve)
            context = GeneratorContext(
                u_hat, v_hat, u, v,
                u_steps=fastpath.naf_steps(curve, u_hat.point),
                v_steps=fastpath.naf_steps(curve, v_hat.point),
                u_ladder=curve.ladder(u.point),
                v_g2_gt=fastpath.GTFixedBase(v_g2, self.group.order),
                v_w_gt=fastpath.GTFixedBase(v_w, self.group.order))
        obs.counter("engine.table_build_total", 4)
        with self._lock:
            self._periods[key] = context
            self._periods.move_to_end(key)
            while len(self._periods) > self.max_periods:
                self._periods.popitem(last=False)
        return context


# ---------------------------------------------------------------------------
# Sign (paper steps 2.2.1 - 2.2.4)
# ---------------------------------------------------------------------------


def sign(gpk: GroupPublicKey, gsk: GroupPrivateKey, message: bytes,
         rng: Optional[random.Random] = None,
         period: Optional[bytes] = None) -> GroupSignature:
    """Produce a group signature on ``message``.

    Instrumented cost: 8 exponentiations (6 G1 exps/multi-exps plus the
    2 psi applications, which the paper prices as exponentiations) and
    2 pairings -- matching Section V.C.  The two pairings evaluate
    through the gpk engine's ``g2``/``w`` NAF step tables
    (:meth:`CryptoEngine.pair_g2_w`), the same kernel flat-mode
    verification uses; the signature is bit-identical to generic
    pairings.  The six multiples run on ladders of ``u``, ``v`` and ``A``
    (the last kept on ``gsk``), with ``T1`` and ``T2`` expanded out of
    R2's left factor and R3 so that no multiple needs a fresh table.
    """
    group = gpk.group
    rng = rng or random.SystemRandom()
    order = group.order

    with obs.span("groupsig.sign"):
        r = group.random_scalar(rng)
        _u_hat, _v_hat, u, v = derive_generators(gpk, message, r, period)
        # u and v each recur in three of the six multiples below, each
        # in its own chain, so each gets a ladder; each multiple is one
        # exponentiation of the abstract cost model, noted like `**`.
        curve = group.curve
        u_ladder = curve.ladder(u.point)
        v_ladder = curve.ladder(v.point)

        def exp(*terms) -> G1Element:
            instrument.note("exp")
            return G1Element(curve.multi_mul(list(terms)), group)

        alpha = group.random_scalar(rng)
        t1 = exp((u_ladder, alpha))
        t2 = gsk.a * exp((v_ladder, alpha))
        delta = gsk.exponent_sum * alpha % order

        r_alpha = group.random_scalar(rng)
        r_x = group.random_scalar(rng)
        r_delta = group.random_scalar(rng)

        r1 = exp((u_ladder, r_alpha))
        # R2 = e(T2, g2)^r_x * e(v, w)^-r_alpha * e(v, g2)^-r_delta, folded
        # into two pairings: e(T2^r_x * v^-r_delta, g2) * e(v^-r_alpha, w).
        # With T1 = u^alpha and T2 = A * v^alpha, T2^r_x * v^-r_delta is
        # A^r_x * v^mixed and R3 = T1^r_x * u^-r_delta is u^mixed.
        mixed = (alpha * r_x - r_delta) % order
        left = exp((gsk.a_ladder, r_x), (v_ladder, mixed))
        right = exp((v_ladder, -r_alpha))
        r2 = GTElement(gpk.engine.pair_g2_w(left, right), group)
        r3 = exp((u_ladder, mixed))

        c = gpk.challenge(message, r, t1, t2, r1, r2, r3)
        s_alpha = (r_alpha + c * alpha) % order
        s_x = (r_x + c * gsk.exponent_sum) % order
        s_delta = (r_delta + c * delta) % order
    return GroupSignature(r, t1, t2, c, s_alpha, s_x, s_delta)


# ---------------------------------------------------------------------------
# Verify (paper step 3.2) and revocation (Eq.3 / step 3.3)
# ---------------------------------------------------------------------------


def classify(gpk: GroupPublicKey,
             items: Sequence[Tuple[bytes, GroupSignature]],
             url: Sequence[RevocationToken] = (),
             period: Optional[bytes] = None,
             check_revocation: bool = True) -> List[Optional[Exception]]:
    """The one verification classifier: a verdict per ``(message, sig)``.

    Returns ``None`` on acceptance, or the :class:`InvalidSignature` /
    :class:`RevokedKeyError` (with ``token_index``) the paper's
    algorithm rejects with.  :func:`verify`, :func:`verify_batch` and
    the verifier pool's workers all classify here, each item on the
    batch core's kernels (:func:`repro.core.batch_core.classify_fast`).
    The kernel is total on decodable input; an exception from it all
    the same fails closed as ``InvalidSignature("verification kernel
    error")`` (the exception as ``__cause__``), counted on
    ``batch_core.fallback_total``, and the operations it noted before
    raising stay recorded.  Each item runs in its own
    ``groupsig.verify`` span and records its ``groupsig.verify_*``
    outcome counter.
    """
    results: List[Optional[Exception]] = []
    for message, signature in items:
        with obs.span("groupsig.verify"):
            try:
                error = batch_core.classify_fast(
                    gpk, message, signature, url, period, check_revocation)
            except Exception as exc:
                obs.counter("batch_core.fallback_total")
                error = InvalidSignature("verification kernel error")
                error.__cause__ = exc
        if error is None:
            outcome = "accept"
        elif isinstance(error, RevokedKeyError):
            outcome = "reject_revoked"
        else:
            outcome = "reject_invalid"
        obs.counter(f"groupsig.verify_{outcome}_total")
        results.append(error)
    return results


def verify(gpk: GroupPublicKey, message: bytes, signature: GroupSignature,
           url: Sequence[RevocationToken] = (),
           period: Optional[bytes] = None,
           check_revocation: bool = True) -> None:
    """Verify a group signature and (optionally) its revocation status.

    Raises :class:`InvalidSignature` on a bad proof and
    :class:`RevokedKeyError` when a token in ``url`` matches.
    Instrumented cost: 6 exponentiations and ``3 + 2*len(url)``
    pairings, per Section V.C; structurally degenerate or off-subgroup
    T1/T2 are rejected before any counted operation.
    """
    error = classify(gpk, [(message, signature)], url, period,
                     check_revocation)[0]
    if error is not None:
        raise error


def verify_batch(gpk: GroupPublicKey,
                 batch: Sequence[Tuple[bytes, GroupSignature]],
                 url: Sequence[RevocationToken] = (),
                 period: Optional[bytes] = None,
                 check_revocation: bool = True
                 ) -> List[Optional[Exception]]:
    """Verify many ``(message, signature)`` pairs against one gpk.

    Returns one entry per input: ``None`` on acceptance, or the
    exception instance :func:`verify` would have raised -- both run
    :func:`classify`, so outcomes, ``token_index`` attributes and
    instrumented operation counts are identical item for item.  The
    batch shares the engine's tables (token lines, NAF steps, the GT
    window table), which changes wall-clock cost only.
    """
    with obs.span("groupsig.verify_batch"):
        results = classify(gpk, batch, url, period, check_revocation)
    obs.counter("groupsig.verify_batch_items_total", len(batch))
    return results


def _off_group(group: PairingGroup,
               signature: GroupSignature) -> Optional[InvalidSignature]:
    """Verification's milestone 1 for an entry point that pairs a
    signature from outside: the error it rejects with unless T1 and T2
    are finite points of the order-``r`` subgroup, the domain of
    :meth:`PairingGroup.pair`; ``None`` when they are.  Notes no
    operation."""
    t1, t2 = signature.t1, signature.t2
    if t1.is_identity() or t2.is_identity():
        return InvalidSignature("degenerate T1/T2")
    curve = group.curve
    if not (curve.in_subgroup(t1.point) and curve.in_subgroup(t2.point)):
        return InvalidSignature("T1/T2 outside the prime-order subgroup")
    return None


def _token_encoded(group: PairingGroup, signature: GroupSignature,
                   token: RevocationToken,
                   u_hat: G2Element, v_hat: G2Element) -> bool:
    """Eq.3: is token ``A`` encoded in ``(T1, T2)``? (2 pairings)."""
    lhs = group.pair(signature.t2 / token.a, u_hat)
    rhs = group.pair(signature.t1, v_hat)
    return lhs == rhs


def signature_matches_token(gpk: GroupPublicKey, message: bytes,
                            signature: GroupSignature,
                            token: RevocationToken,
                            period: Optional[bytes] = None) -> bool:
    """Public wrapper over Eq.3 for one token (used by audits).

    ``False``, noting nothing, when T1 or T2 is at infinity or outside
    the order-``r`` subgroup (verification's milestone 1).
    """
    if _off_group(gpk.group, signature) is not None:
        return False
    u_hat, v_hat, _u, _v = derive_generators(gpk, message, signature.r,
                                             period)
    return _token_encoded(gpk.group, signature, token, u_hat, v_hat)


def open_signature(gpk: GroupPublicKey, message: bytes,
                   signature: GroupSignature,
                   grt: Iterable[Tuple[RevocationToken, object]],
                   period: Optional[bytes] = None):
    """NO's audit: scan ``grt`` for the token encoded in the signature.

    ``grt`` yields ``(token, attachment)`` pairs; returns the attachment
    of the first matching token (the paper attaches ``grp_i`` / the user
    group id), or ``None`` when no token matches (signer unknown to NO,
    which for a verifying signature cannot happen).  Also ``None``,
    noting nothing, when T1 or T2 is at infinity or outside the
    order-``r`` subgroup (verification's milestone 1).
    """
    if _off_group(gpk.group, signature) is not None:
        return None
    u_hat, v_hat, _u, _v = derive_generators(gpk, message, signature.r,
                                             period)
    for token, attachment in grt:
        if _token_encoded(gpk.group, signature, token, u_hat, v_hat):
            return attachment
    return None


# ---------------------------------------------------------------------------
# Constant-time-per-signature revocation (Section V.C fast variant)
# ---------------------------------------------------------------------------


def revocation_tag(gpk: GroupPublicKey, message: bytes,
                   signature: GroupSignature,
                   period: Optional[bytes] = None) -> bytes:
    """Return the period tag ``e(T2, u_hat) / e(T1, v_hat) = e(A, u_hat)``.

    With per-period generators this value is constant for a given signer
    within a period, enabling the tag-index revocation check of
    :class:`repro.core.revocation.RevocationState` (2 pairings,
    |URL|-independent).  It equals ``e(A, u_hat)`` because
    ``e(v^alpha, u_hat) = e(u^alpha, v_hat)`` in this setting.  Raises
    verification's milestone-1 :class:`InvalidSignature`, noting
    nothing, when T1 or T2 is at infinity or outside the order-``r``
    subgroup.
    """
    group = gpk.group
    error = _off_group(group, signature)
    if error is not None:
        raise error
    u_hat, v_hat, _u, _v = derive_generators(gpk, message, signature.r,
                                             period)
    tag = group.pair(signature.t2, u_hat) / group.pair(signature.t1, v_hat)
    return tag.encode()


def random_group_id(group: PairingGroup,
                    rng: Optional[random.Random] = None) -> int:
    """Sample ``grp_i <- Z_r*`` (setup step 2)."""
    rng = rng or random.SystemRandom()
    return group.random_scalar(rng)


def blind_share(a: G1Element, x: int) -> bytes:
    """The TTP share ``A_{i,j} XOR x_j`` (setup step 7).

    ``x_j`` may be longer than the point encoding; per the paper's
    footnote 1, surplus bits of ``x_j`` are simply ignored.
    """
    encoded = a.encode()
    x_bytes = x.to_bytes((x.bit_length() + 7) // 8 or 1, "big")
    x_bytes = x_bytes.rjust(len(encoded), b"\x00")[-len(encoded):]
    return bytes(p ^ q for p, q in zip(encoded, x_bytes))


def unblind_share(group: PairingGroup, share: bytes, x: int) -> G1Element:
    """Recover ``A_{i,j}`` from the TTP share and the GM-provided ``x_j``."""
    x_bytes = x.to_bytes((x.bit_length() + 7) // 8 or 1, "big")
    x_bytes = x_bytes.rjust(len(share), b"\x00")[-len(share):]
    encoded = bytes(p ^ q for p, q in zip(share, x_bytes))
    return group.decode_g1(encoded)
