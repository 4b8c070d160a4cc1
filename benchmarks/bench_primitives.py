"""E9 -- Primitive costs underlying the paper's V.C arithmetic.

The paper prices everything in 'exponentiations' and 'bilinear map
computations'; this bench measures both on every shipped parameter set,
plus the conventional primitives (ECDSA-160, RSA-1024) PEACE composes
with, and what a ladder buys two multiples of one SS512 point.

Each primitive is timed as a loop of calls.  One round times every
primitive's loop once, all in one process, in an order that reverses
from round to round, so a drift of the host's speed lands on every
primitive alike.  A row is the median over :data:`ROUNDS` rounds of the
per-call time; a with/without comparison is the median of its
per-round ratios (the two sides of a ratio come from the same round).
"""

import random
import statistics
import time

from repro.pairing import PairingGroup
from repro.sig.curves import SECP160R1
from repro.sig.ecdsa import ecdsa_generate
from repro.sig.rsa import rsa_generate

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
        fixed = group.make_fixed_base(group.g1)
        kernels += [
            (f"{preset} pairing", lambda g=group, p=p: g.pair(p, g.g2),
             calls),
            (f"{preset} G1 exp", lambda g=group, a=a: g.g1 ** a, calls),
            (f"{preset} fixed-base g1 exp", lambda f=fixed, a=a: f.exp(a),
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
    report.row(f"median of {ROUNDS} rounds; each round times a loop of "
               f"calls per primitive, in alternating order")
    for name, value in ms.items():
        report.record(name.replace(" ", "_").replace(",", "") + "_ms",
                      round(value, 4))
    report.record("ss512_two_multiples_ladder_ratio", round(ladder_ratio, 4))

    # Shape claims: the pairing is the most expensive primitive, which
    # motivates the hybrid design and the DoS analysis (in this
    # pure-Python implementation the ratio to a G1 exponentiation is
    # smaller than on optimized libraries); and a ladder pays for
    # itself by the second multiple.
    assert ms["SS512 pairing"] > ms["SS512 G1 exp"]
    assert ladder_ratio < 1


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
