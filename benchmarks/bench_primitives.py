"""E9 -- Primitive costs underlying the paper's V.C arithmetic.

The paper prices everything in 'exponentiations' and 'bilinear map
computations'; this bench measures both on every shipped parameter set
(a pairing is ``PairingGroup.pair``, the NAF line-table kernel),
plus the conventional primitives (ECDSA-160, RSA-1024) PEACE composes
with, what a ladder buys two multiples of one SS512 point, what
period-mode verification saves on R2 by pairing T2 with X = g2^s_x *
w^c on the chain that also checks T2's subgroup, and the cold-start
builders on TEST and SS512 beside their oracles (``tests/oracles.py``):
a NAF line table (one batched inversion against two), the fixed-base
table of g1 (batched affine additions against Jacobian ones) and a
user's SDH credential check (A's ladder and the engine's line tables
against two pairings of the oracle's binary Miller loop).

Each primitive is timed as a loop of calls.  One round times every
primitive's loop once, all in one process, in an order that reverses
from round to round, so a drift of the host's speed lands on every
primitive alike.  A row is the median over :data:`ROUNDS` rounds of the
per-call time; a with/without comparison is the median of its
per-round ratios (the two sides of a ratio come from the same round).
"""

import dataclasses
import random
import statistics
import time

from repro.core import groupsig
from repro.core.identity import RoleAttribute, UserIdentity
from repro.core.user import NetworkUser
from repro.core.revocation import epoch_period
from repro.pairing import FixedBaseTable, PairingGroup, fastpath
from repro.pairing.fastpath import final_exponentiation
from repro.pairing.fields import Fp2
from repro.pairing.group import G1Element
from repro.sig.curves import SECP160R1
from repro.sig.ecdsa import ecdsa_generate
from repro.sig.rsa import rsa_generate
from tests.oracles import (
    generic_pair,
    jadd_fixed_base_blocks,
    two_inversion_naf_steps,
)

#: Rounds per table; each reports the median of its rounds.
ROUNDS = 9
#: Calls per timed loop, per preset: a loop runs for tens of ms.
CALLS = {"TEST": 40, "SS256": 16, "SS512": 6}


def _per_call(fn, calls):
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def _paired_rounds(kernels, rounds=ROUNDS):
    """``{name: [seconds per call, one per round]}`` for ``(name, fn,
    calls)`` kernels timed in alternating order within each round."""
    samples = {name: [] for name, _fn, _calls in kernels}
    for index in range(rounds):
        for name, fn, calls in (kernels if index % 2 == 0
                                else kernels[::-1]):
            samples[name].append(_per_call(fn, calls))
    return samples


def _ms(samples):
    return statistics.median(samples) * 1000


def test_e9_primitive_cost_table(reporter):
    report = reporter("E9: primitive costs per parameter set")
    rng = random.Random(91)
    kernels = []
    for preset in ("TEST", "SS256", "SS512"):
        group = PairingGroup(preset)
        calls = CALLS[preset]
        a = group.random_scalar(rng)
        p = group.g1 ** a
        fixed = FixedBaseTable(group.curve, group.g1.point)
        kernels += [
            (f"{preset} pairing", lambda g=group, p=p: g.pair(p, g.g2),
             calls),
            (f"{preset} G1 exp", lambda g=group, a=a: g.g1 ** a, calls),
            (f"{preset} fixed-base g1 exp", lambda f=fixed, a=a: f.mul(a),
             calls),
            (f"{preset} hash-to-G1",
             lambda g=group, tag=preset.encode(): g.hash_to_g1(b"bench",
                                                               tag),
             calls),
        ]

    # Two multiples of one SS512 point, the shape of a DH share that is
    # subgroup-checked and then raised: two chains over point tables
    # built per call, or one ladder (its build included) and two
    # quarter-length chains.
    curve = PairingGroup("SS512").curve
    point = curve.random_point(rng)
    k1, k2 = rng.randrange(curve.r), rng.randrange(curve.r)

    def two_multiples():
        curve.multi_mul([(point, k1)])
        curve.multi_mul([(point, k2)])

    def two_multiples_laddered():
        ladder = curve.ladder(point)
        curve.multi_mul([(ladder, k1)])
        curve.multi_mul([(ladder, k2)])

    kernels += [("SS512 two multiples", two_multiples, 6),
                ("SS512 two multiples, ladder", two_multiples_laddered, 6)]
    kernels += _period_r2_kernels(rng)
    kernels += _cold_start_kernels(rng)

    keypair = ecdsa_generate(SECP160R1, rng=rng)
    signature = keypair.sign(b"bench")
    rsa = rsa_generate(1024, rng=rng)
    rsa_sig = rsa.sign(b"bench")
    kernels += [
        ("ECDSA-160 sign", lambda: keypair.sign(b"bench"), 40),
        ("ECDSA-160 verify",
         lambda: keypair.public.verify(b"bench", signature), 40),
        ("RSA-1024 sign", lambda: rsa.sign(b"bench"), 40),
        ("RSA-1024 verify", lambda: rsa.public.verify(b"bench", rsa_sig),
         400),
    ]

    samples = _paired_rounds(kernels)
    ms = {name: _ms(values) for name, values in samples.items()}
    rows = []
    for preset in ("TEST", "SS256", "SS512"):
        rows.append((preset, f"{PairingGroup(preset).params.p.bit_length()}",
                     *(f"{ms[f'{preset} {what}']:.3f}"
                       for what in ("pairing", "G1 exp", "fixed-base g1 exp",
                                    "hash-to-G1"))))
    report.table(("preset", "|p| bits", "pairing ms", "G1 exp ms",
                  "fixed-base g1 exp ms", "hash-to-G1 ms"), rows)
    report.table(("primitive", "ms"), [
        (name, f"{ms[name]:.3f}")
        for name in ("ECDSA-160 sign", "ECDSA-160 verify", "RSA-1024 sign",
                     "RSA-1024 verify")])
    ladder_ratio = statistics.median(
        with_ladder / without for with_ladder, without in zip(
            samples["SS512 two multiples, ladder"],
            samples["SS512 two multiples"]))
    report.table(("SS512, two multiples of one point", "ms"), [
        ("two chains over per-call point tables",
         f"{ms['SS512 two multiples']:.3f}"),
        ("one ladder (build included), two chains",
         f"{ms['SS512 two multiples, ladder']:.3f}"),
        ("median paired ratio, ladder / none", f"{ladder_ratio:.3f}"),
    ])
    r2_ratio = statistics.median(
        new / old for new, old in zip(samples["SS512 period R2, fused"],
                                      samples["SS512 period R2, flat way"]))
    report.table(("SS512, period-mode R2 block", "ms"), [
        ("T2 ladder + subgroup check, left/right, pair_g2_w, GT power",
         f"{ms['SS512 period R2, flat way']:.3f}"),
        ("X, fused T2 chain + final exp., GT tables",
         f"{ms['SS512 period R2, fused']:.3f}"),
        ("median paired ratio, fused / flat way", f"{r2_ratio:.3f}"),
    ])
    cold_rows = []
    cold_ratios = {}
    for preset in ("TEST", "SS512"):
        for what in COLD_START:
            new = f"{preset} {what}"
            old = f"{new}, oracle"
            ratio = statistics.median(
                n / o for n, o in zip(samples[new], samples[old]))
            cold_ratios[new] = ratio
            cold_rows.append((preset, what, f"{ms[new]:.3f}",
                              f"{ms[old]:.3f}", f"{ratio:.3f}"))
    report.table(("preset", "cold-start builder", "ms", "oracle ms",
                  "median paired ratio"), cold_rows)
    report.row(f"median of {ROUNDS} rounds; each round times a loop of "
               f"calls per primitive, in alternating order")
    for name, value in ms.items():
        report.record(name.replace(" ", "_").replace(",", "") + "_ms",
                      round(value, 4))
    report.record("ss512_two_multiples_ladder_ratio", round(ladder_ratio, 4))
    report.record("ss512_period_r2_fused_ratio", round(r2_ratio, 4))
    for name, ratio in cold_ratios.items():
        report.record(name.replace(" ", "_") + "_ratio", round(ratio, 4))

    # Shape claims: the pairing is the most expensive primitive, which
    # motivates the hybrid design and the DoS analysis (in this
    # pure-Python implementation the ratio to a G1 exponentiation is
    # smaller than on optimized libraries); and a ladder pays for
    # itself by the second multiple; so does the fused R2 block.
    assert ms["SS512 pairing"] > ms["SS512 G1 exp"]
    assert ladder_ratio < 1
    assert r2_ratio < 1
    # Each cold-start builder beats the oracle it replaced.
    assert all(ratio < 1 for ratio in cold_ratios.values()), cold_ratios


def _period_r2_kernels(rng):
    """Two ways of computing one period-mode R2 at SS512, T2's subgroup
    check included, each from a signature and a warm period context.

    The flat way ladders T2 for its subgroup check and the multi-exps
    ``left = T2^s_x * v^-s_delta`` and ``right = v^-s_alpha * T2^c``,
    then pairs them with g2 and w.  The fused way computes ``X = g2^s_x
    * w^c`` off fixed-base tables, runs e(T2, X)'s Miller chain (which
    is T2's exact subgroup check) and one final exponentiation, and
    takes e(v, g2)^-s_delta and e(v, w)^-s_alpha from the period's GT
    tables.  Both end with the e(g1, g2)^-c table power and give the
    same R2.
    """
    group = PairingGroup("SS512")
    curve, order = group.curve, group.order
    gpk, master = groupsig.keygen_master(group, rng)
    key = groupsig.issue_member_key(group, master, 3, (0, 0), rng)
    period = epoch_period(0)
    sig = groupsig.sign(gpk, key, b"bench r2", rng=rng, period=period)
    engine = gpk.engine
    context = engine.generators(period)
    v_ladder = curve.ladder(context.v.point)
    t2, c = sig.t2, sig.c

    def flat_way():
        t2_ladder = curve.ladder(t2.point)
        assert curve.ladder_in_subgroup(t2.point, t2_ladder)
        left = G1Element(curve.multi_mul([(t2_ladder, sig.s_x),
                                          (v_ladder, -sig.s_delta)]), group)
        right = G1Element(curve.multi_mul([(t2_ladder, c),
                                           (v_ladder, -sig.s_alpha)]), group)
        return engine.pair_g2_w(left, right) * engine.gt_table.pow(-c % order)

    def fused():
        ok, f_a, f_b = fastpath.fused_miller_subgroup(
            curve, t2.point, engine.g2_w_mul(sig.s_x, c))
        assert ok
        return (final_exponentiation(curve, Fp2(f_a, f_b, curve.p))
                * context.v_g2_gt.pow(-sig.s_delta)
                * context.v_w_gt.pow(-sig.s_alpha)
                * engine.gt_table.pow(-c % order))

    assert flat_way() == fused()
    return [("SS512 period R2, flat way", flat_way, 6),
            ("SS512 period R2, fused", fused, 6)]


#: The cold-start builders, each timed beside its oracle.
COLD_START = ("naf_steps build", "g1 FixedBaseTable build",
              "credential check")


def _cold_start_kernels(rng):
    """Each cold-start builder and its oracle, on TEST and SS512.

    The line table is built for a random subgroup point, the fixed-base
    table for g1.  The credential check runs on a fresh copy of one
    honest key each call, so A's ladder is built every time, against
    warm engine tables (the handshake builds the g2 and w line tables
    and e(g1, g2) anyway); its oracle is the paper's check on two
    pairings of the binary Miller loop (``generic_pair``).
    """
    kernels = []
    for preset in ("TEST", "SS512"):
        group = PairingGroup(preset)
        curve = group.curve
        calls = 40 if preset == "TEST" else 6
        point = curve.random_point(rng)
        g1 = curve.to_affine(group.g1.point)
        gpk, master = groupsig.keygen_master(group, rng)
        key = groupsig.issue_member_key(group, master, 5, (0, 0), rng)
        user = NetworkUser(
            UserIdentity.build("bench", {"ssn": "0"},
                               [RoleAttribute("engineer", "Company X")]),
            gpk, None, rng=rng)
        user._validate_credential(key)  # warm the engine's tables

        def generic_check(group=group, gpk=gpk, key=key):
            lhs = generic_pair(group, key.a,
                               gpk.w * gpk.g2 ** key.exponent_sum)
            assert lhs == generic_pair(group, gpk.g1, gpk.g2)

        kernels += [
            (f"{preset} naf_steps build",
             lambda c=curve, q=point: fastpath.naf_steps(c, q), calls),
            (f"{preset} naf_steps build, oracle",
             lambda c=curve, q=point: two_inversion_naf_steps(c, q), calls),
            (f"{preset} g1 FixedBaseTable build",
             lambda c=curve, g=group: FixedBaseTable(c, g.g1.point),
             max(2, calls // 4)),
            (f"{preset} g1 FixedBaseTable build, oracle",
             lambda c=curve, g=g1: jadd_fixed_base_blocks(g, c.r, c.a, c.p),
             max(2, calls // 4)),
            (f"{preset} credential check",
             lambda u=user, k=key: u._validate_credential(
                 dataclasses.replace(k)), calls),
            (f"{preset} credential check, oracle", generic_check, calls),
        ]
    return kernels


def test_e9_pairing_ss512(benchmark, ss512_group):
    benchmark.pedantic(
        lambda: ss512_group.pair(ss512_group.g1, ss512_group.g2),
        rounds=5, iterations=2)


def test_e9_g1_exp_ss512(benchmark, ss512_group):
    scalar = ss512_group.random_scalar(random.Random(92))
    benchmark.pedantic(lambda: ss512_group.g1 ** scalar,
                       rounds=5, iterations=5)


def test_e9_aes_ctr_throughput(benchmark):
    from repro.crypto.aes import AES
    cipher = AES(b"k" * 16)
    data = b"x" * 4096
    benchmark.pedantic(lambda: cipher.ctr_xor(b"n" * 16, data),
                       rounds=3, iterations=1)


def test_e9_hmac_aead_seal(benchmark):
    from repro.crypto.aead import AeadKey
    key = AeadKey(b"\x01" * 32)
    benchmark(lambda: key.seal(b"p" * 256))
