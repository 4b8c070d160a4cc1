#!/bin/sh
# Tier-1 verification for this repo, plus a quick engine smoke check.
#
# Usage:
#   scripts/tier1.sh                      # full tier-1 suite (the gate)
#   scripts/tier1.sh smoke                # ~15s subset: engine/pool/kernel checks
#   scripts/tier1.sh chaos                # fault-injection suite (3 seeds)
#   scripts/tier1.sh [mode] --junit X     # also write a JUnit XML report
#
# The smoke subset runs the TestSmoke classes, which compare every
# engine fast path (the NAF pairing kernel, batch verification, the
# multi-process verifier pool) against the naive reference computation
# -- the NAF Miller line tables, PairingGroup.pair included (random
# points, either argument at infinity, bilinearity), against the
# oracle's binary Miller loop on TEST and SS512, and on a TEST grid
# every line of the one-inversion table builder against its three-pass
# oracle -- the table-driven AES against its byte-wise oracle, the one
# scalar-multiplication kernel
# (fixed-base tables, wNAF on prebuilt or one-off tables, cofactor
# clearing and H0) against the double-and-add oracle and the naive hash
# loop, every entry of the batched-affine fixed-base build against its
# Jacobian-addition oracle (TEST and secp160r1), a user's SDH credential
# check on a TEST grid (an honest key accepted; A plus the 2-torsion
# point, A plus an order-37 point and A at infinity rejected, each
# noting 1 exp + 2 pairings), a user's beacon check with its signature
# and URL decode memos against the same check with neither, and
# period-mode R2 (T2 paired with g2^s_x * w^c on the chain
# that checks T2's subgroup, the period's GT tables; X at infinity
# included) against generic pairings on TEST and SS512.  It also runs a
# TEST grid of the kernel totality test: adversarial decodable
# signatures in every generator mode, none of which may make the
# verification kernel raise; a TEST grid of the operator's list
# publication (after each random revoke, reinstate, router
# revocation, key rotation, clock or period change, each issued CRL
# and URL equals a freshly signed one, and only a moved list is
# signed) and of the revocation tokens' kept bytes (a refresh of a
# tag-index router encodes only tokens new to the URL); a TEST grid
# of point decoding, which accepts only canonical encodings (an x + p
# alias or an odd tag on y = 0 is refused); and one series per timed
# region over the obs-report demo workload and the seeded traced
# scenario (every latency histogram counts exactly the spans of its
# name, and no counter or Prometheus series restates one).
#
# The chaos subset runs the seeded fault-injection suites (radio
# drop/duplicate/corrupt/delay, verifier-pool worker kill/hang,
# router degraded mode, durable-journal corruption, crash/restart
# recovery, and the tag index against the reference oracle) across
# the three fixed CI seeds.

set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

mode=""
junit=""
while [ $# -gt 0 ]; do
    case "$1" in
        smoke) mode="smoke"; shift ;;
        chaos) mode="chaos"; shift ;;
        --junit)
            [ $# -ge 2 ] || { echo "tier1.sh: --junit needs a path" >&2
                              exit 2; }
            junit="--junit-xml=$2"; shift 2 ;;
        *) echo "tier1.sh: unknown argument: $1" >&2; exit 2 ;;
    esac
done

if [ "$mode" = "smoke" ]; then
    python -m pytest -x -q ${junit:+"$junit"} \
        tests/test_pairing_precompute.py::TestSmoke \
        tests/test_pairing_tate.py::TestSmoke \
        tests/test_groupsig_batch.py::TestSmoke \
        tests/test_verifier_pool.py::TestSmoke \
        tests/test_crypto_aes.py::TestSmoke \
        tests/test_sig_curves.py::TestSmoke \
        tests/test_protocol_user_router.py::TestSmoke \
        tests/test_verify_differential.py::TestSmoke \
        tests/test_setup_entities.py::TestSmoke \
        tests/test_operator_entity.py::TestSmoke \
        tests/test_subgroup_hardening.py::TestSmoke \
        tests/test_obs.py::TestSmoke
    # obs-report smoke: the seeded traced scenario must produce at
    # least one stitched handshake trace and render it.
    python -m repro obs-report --workload scenario --format traces \
        --duration 40 > /tmp/obs-smoke.$$ \
        || { echo "tier1.sh: obs-report smoke failed" >&2; exit 1; }
    grep -q "^trace " /tmp/obs-smoke.$$ \
        || { echo "tier1.sh: obs-report produced no traces" >&2
             rm -f /tmp/obs-smoke.$$; exit 1; }
    rm -f /tmp/obs-smoke.$$
    echo "tier1.sh: obs-report smoke OK"
    # Health observatory smoke: the seeded chaos scenario must detect
    # its injected faults and render incident timelines.
    python -m repro obs-report --format incidents > /tmp/obs-smoke.$$ \
        || { echo "tier1.sh: obs-report incidents smoke failed" >&2
             exit 1; }
    grep -q "^incident " /tmp/obs-smoke.$$ \
        || { echo "tier1.sh: obs-report produced no incidents" >&2
             rm -f /tmp/obs-smoke.$$; exit 1; }
    rm -f /tmp/obs-smoke.$$
    echo "tier1.sh: obs-report incidents smoke OK"
    exit 0
fi

if [ "$mode" = "chaos" ]; then
    exec python -m pytest -x -q ${junit:+"$junit"} \
        tests/test_faults.py \
        tests/test_chaos_handshake.py \
        tests/test_pool_recovery.py \
        tests/test_durable.py \
        tests/test_durable_fuzz.py \
        tests/test_crash_recovery.py \
        tests/test_revocation.py
fi

exec python -m pytest -x -q ${junit:+"$junit"}
