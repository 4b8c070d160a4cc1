#!/bin/sh
# Static gates for this repo.
#
# 1. Everything must byte-compile (catches syntax errors in files the
#    test run never imports).
# 2. Wall-clock discipline: repro.core.clock.SystemClock is the single
#    permitted time.time() call site.  Everything else takes a Clock so
#    experiments run on ManualClock and stay deterministic; a stray
#    time.time() silently breaks replay/freshness tests under time
#    travel.
# 3. Output discipline: the library never prints.  __main__.py is the
#    CLI and owns stdout; everything else returns strings (see
#    repro/obs/report.py) so callers and tests stay capture-clean.
# 4. Repo hygiene: no bytecode and no benchmark scratch output in the
#    index.  __pycache__/*.pyc and benchmarks/reports/ churn on every
#    run and bloat diffs; .gitignore keeps new ones out, this gate
#    keeps them from ever coming back (BENCH_*.json baselines at the
#    repo root are the one committed benchmark artifact).
# 5. One verifier and one pairing kernel in production: the paper's
#    algorithm on generic pairings (reference_classify) and the binary
#    affine Miller loop it pairs with (miller_loop, tate_pairing) are
#    the tests' oracles and live in tests/oracles.py; every pairing in
#    the library runs on the NAF line tables of repro/pairing/fastpath.py.
#    The library may neither import the tests nor name an oracle (nor
#    the repro.pairing.tate module the binary loop left), so an oracle
#    cannot turn into a second, bug-hiding verification or pairing
#    path.
# 6. One timing path: a region's latency is the span around it, which
#    feeds the region's <name>_seconds histogram when it closes
#    (repro/obs/registry.py).  Outside repro/obs no code reads the
#    registry's clock or opens a timer, so no region is timed twice
#    and no histogram drifts from the spans an operator reads.
# 7. Standard library only: the README promises pure Python,
#    pyproject.toml declares no dependency, and CI's perfbench-trace job
#    installs nothing.  So every module of src/repro must import under
#    `python -S` (no site-packages); a failure names the module and the
#    import it misses.

set -e
cd "$(dirname "$0")/.."

python -m compileall -q src tests benchmarks

violations=$(grep -rn "time\.time()" src --include='*.py' \
             | grep -v "repro/core/clock.py" || true)
if [ -n "$violations" ]; then
    echo "lint: time.time() outside repro/core/clock.py:" >&2
    echo "$violations" >&2
    exit 1
fi

# Replayable chaos: the fault-injection package must be a pure
# function of (plan seed, virtual clock).  Stronger than the global
# time.time() gate above -- repro.faults may not import the wall-clock
# module at all (monotonic(), perf_counter(), sleep() would all smuggle
# host timing into fault decisions and break replay).
wallclock=$(grep -rnE '(^|[^a-zA-Z0-9_.])(import time|from time import)' \
            src/repro/faults --include='*.py' || true)
if [ -n "$wallclock" ]; then
    echo "lint: wall-clock import in repro/faults (chaos must replay):" >&2
    echo "$wallclock" >&2
    exit 1
fi

oracle=$(grep -rnE '(^|[^a-zA-Z0-9_.])(import tests|from tests)([^a-zA-Z0-9_]|$)|reference_classify|tate_pairing|miller_loop|repro\.pairing\.tate' \
         src/repro --include='*.py' || true)
if [ -n "$oracle" ]; then
    echo "lint: src/repro imports the tests or names their oracles" >&2
    echo "      (reference_classify, tate_pairing and miller_loop live in" >&2
    echo "      tests/oracles.py only):" >&2
    echo "$oracle" >&2
    exit 1
fi

timers=$(grep -rnE '\.clock\(\)|obs\.timer|\.timer\(' src/repro \
         --include='*.py' | grep -v 'src/repro/obs/' || true)
if [ -n "$timers" ]; then
    echo "lint: a region timed outside its span (open a span instead;" >&2
    echo "      it feeds <name>_seconds when it closes):" >&2
    echo "$timers" >&2
    exit 1
fi

nonstdlib=$(PYTHONPATH=src python -S -c '
import importlib, pkgutil, repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    try:
        importlib.import_module(info.name)
    except Exception as exc:
        print(f"{info.name}: {type(exc).__name__}: {exc}")
' 2>&1)
if [ -n "$nonstdlib" ]; then
    echo "lint: a src/repro module does not import on the standard library" >&2
    echo "      alone (python -S):" >&2
    echo "$nonstdlib" >&2
    exit 1
fi

# Word-boundary match so e.g. fingerprint( does not trip the gate.
prints=$(grep -rnE '(^|[^a-zA-Z0-9_.])print\(' src/repro --include='*.py' \
         | grep -v "repro/__main__.py" || true)
if [ -n "$prints" ]; then
    echo "lint: print() in library code (only __main__.py may print):" >&2
    echo "$prints" >&2
    exit 1
fi

bytecode=$(git ls-files | grep -E '(\.pyc$|__pycache__/)' || true)
if [ -n "$bytecode" ]; then
    echo "lint: committed bytecode (run: git rm -r --cached <paths>):" >&2
    echo "$bytecode" >&2
    exit 1
fi

# Orphaned bytecode: a .pyc whose source .py is gone (e.g. a module
# was renamed or deleted) still imports happily from __pycache__,
# masking broken imports locally that CI's clean checkout will catch.
# Fail on any cached .pyc with no matching source file.
orphans=$(find src tests benchmarks -name '*.pyc' 2>/dev/null \
          | while read -r pyc; do
              base=$(basename "$pyc")
              module=${base%%.*}
              case "$pyc" in
                  */__pycache__/*) src_dir=$(dirname "$(dirname "$pyc")") ;;
                  *) src_dir=$(dirname "$pyc") ;;
              esac
              [ -f "$src_dir/$module.py" ] || echo "$pyc"
          done)
if [ -n "$orphans" ]; then
    echo "lint: orphaned bytecode without matching .py source (run:" >&2
    echo "      rm <paths>):" >&2
    echo "$orphans" >&2
    exit 1
fi

scratch=$(git ls-files | grep -E '^benchmarks/reports/' || true)
if [ -n "$scratch" ]; then
    echo "lint: committed benchmark scratch output (run:" >&2
    echo "      git rm -r --cached benchmarks/reports):" >&2
    echo "$scratch" >&2
    exit 1
fi

echo "lint: OK"
