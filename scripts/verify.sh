#!/usr/bin/env bash
# Repo verification: tier-1 build + tests, then formatting and lints.
#
# Degrades gracefully: rustfmt / clippy steps are skipped (with a notice)
# when the components are not installed, so the script works on minimal
# toolchains. All dependencies are workspace-local (crates/*, vendor/*) —
# no network access is required for any step; see vendor/README.md.

set -u
cd "$(dirname "$0")/.."

failures=0
step() {
    echo "==> $*"
    if "$@"; then
        echo "    OK"
    else
        echo "    FAILED: $*"
        failures=$((failures + 1))
    fi
}

# Tier 1: the seed contract — release build + root test suite.
step cargo build --release
step cargo test -q --release

# Full workspace tests in BOTH profiles: debug catches debug_asserts and
# overflow panics on the untrusted read path; release catches the wrapping
# behavior the same bugs turn into when debug checks are compiled out.
step cargo test -q --workspace
step cargo test -q --release --workspace

# Forced-scalar dispatch leg: the same suites with every SIMD kernel
# pinned to its portable fallback (ZMESH_FORCE_SCALAR=1), in both
# profiles — proves no behavior anywhere depends on which tier the
# runtime probe picked. The root suite (zmesh-suite) brings the golden
# store CRCs and the window-invariance writer tests onto this tier.
step env ZMESH_FORCE_SCALAR=1 cargo test -q -p zmesh-kernels -p zmesh -p zmesh-codecs -p zmesh-store -p zmesh-suite
step env ZMESH_FORCE_SCALAR=1 cargo test -q --release -p zmesh-kernels -p zmesh -p zmesh-codecs -p zmesh-store -p zmesh-suite

# Repo benchmark smoke at Tiny scale: every workload's output checks
# (cold-read's exact cell selection depends on the restore recipe's
# permutation) must pass. perfbench is its own workspace, so it needs its
# own manifest path.
step cargo test -q --release --manifest-path perfbench/Cargo.toml

# Experiment smoke: every paper experiment runs end to end at Tiny scale
# (about a second), so each one executes on every verify instead of only
# compiling. The tables go to /dev/null; a failed check exits nonzero.
repro_smoke() {
    cargo run --release --quiet -p zmesh-bench --bin repro -- all --scale tiny >/dev/null
}
step repro_smoke

# Self-healing smoke: pack → inject fault → scrub → repair → bit-exact.
step bash scripts/scrub_smoke.sh

# Ranged-read smoke: pack a multi-field store, query it through the
# file-backed path, assert bytes_read << file size and ranged ≡ in-memory.
step bash scripts/store_read_smoke.sh

# Serve smoke: start the daemon on a packed catalog, prove concurrent
# responses are byte-identical to the CLI, errors are structured, and
# SIGTERM drains to exit 0.
step bash scripts/serve_smoke.sh

# Chaos smoke: daemon under injected transient faults and live on-disk
# damage — retries absorb the faults, damage degrades (200 + report),
# torn quarantines (503 + Retry-After), repair + probe reinstates.
step bash scripts/chaos_smoke.sh

# Write-crash smoke: streaming pack under injected crashes, injected
# ENOSPC, and real SIGKILLs — the destination is always absent,
# old-intact, or committed + scrub-clean, and reruns heal stranded tmps.
step bash scripts/write_crash_smoke.sh

# Formatting and lints, when the components exist.
if cargo fmt --version >/dev/null 2>&1; then
    step cargo fmt --all --check
else
    echo "==> cargo fmt not installed; skipping format check"
fi
if cargo clippy --version >/dev/null 2>&1; then
    step cargo clippy --release --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lints"
fi

if [ "$failures" -ne 0 ]; then
    echo "verify: $failures step(s) failed"
    exit 1
fi
echo "verify: all steps passed"
