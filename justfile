# Developer entry points. `just verify` is the pre-merge gate; it runs the
# same steps as scripts/verify.sh (tier-1 build + tests, workspace tests,
# experiment and shell smokes, fmt --check, clippy -D warnings). Everything
# builds offline: external dependency names resolve to workspace-local
# shims under vendor/ (see vendor/README.md).

# Run the full verification gate.
verify:
    bash scripts/verify.sh

# Tier-1 only: release build + root integration suite.
tier1:
    cargo build --release
    cargo test -q --release

# Full workspace test run, both profiles (debug catches overflow panics
# and debug_asserts; release catches what they wrap into).
test:
    cargo test -q --workspace
    cargo test -q --release --workspace

# Criterion micro-benchmarks (includes the store query-latency bench).
bench:
    cargo bench --workspace

# Self-healing smoke: pack → inject fault → scrub → repair → bit-exact.
scrub-smoke:
    bash scripts/scrub_smoke.sh

# Ranged-read smoke: pack a multi-field store, query through the
# file-backed path, assert bytes_read << file size and ranged ≡ in-memory.
store-read-smoke:
    bash scripts/store_read_smoke.sh

# Serve smoke: daemon on a packed catalog, concurrent responses ≡ CLI,
# structured errors, clean SIGTERM drain.
serve-smoke:
    bash scripts/serve_smoke.sh

# Chaos smoke: daemon under a --fault-plan plus live on-disk damage —
# retry absorbs transients, damage degrades, torn quarantines, the
# background probe reinstates after repair.
chaos-smoke:
    bash scripts/chaos_smoke.sh

# Write-crash smoke: streaming pack under injected crashes/ENOSPC and
# real SIGKILLs — destination always {absent, old-intact, committed},
# torn tmps are exact prefixes, reruns heal.
write-crash-smoke:
    bash scripts/write_crash_smoke.sh

# Buffered vs streaming store write bench (throughput + peak buffer /
# peak RSS), with machine-readable medians.
bench-store-write:
    CRITERION_JSON={{justfile_directory()}}/BENCH_store_write.json cargo bench -p zmesh-bench --bench store_write

# SIMD kernel tiers vs their scalar references (GF(2⁸) fma, CRC-32 walk,
# SZ selection/delta loops), with machine-readable medians.
bench-kernels:
    CRITERION_JSON={{justfile_directory()}}/BENCH_kernels.json cargo bench -p zmesh-bench --bench kernels

# SZ/ZFP codec throughput and the Huffman entropy stage alone at store
# chunk sizes (256 and 8192 values), with machine-readable medians.
bench-codecs:
    CRITERION_JSON={{justfile_directory()}}/BENCH_codecs.json cargo bench -p zmesh-bench --bench codecs

# The two stages of a cold open alone — tree decode from structure bytes
# (metadata/tree_rebuild) and recipe build — plus the stream permutation,
# with machine-readable medians.
bench-reorder:
    CRITERION_JSON={{justfile_directory()}}/BENCH_reorder.json cargo bench -p zmesh-bench --bench reorder

# Multi-client daemon traffic generator: QPS + p50/p95/p99 and cache hit
# rates, written to BENCH_serve.json.
bench-serve:
    cargo run --release -p zmesh-cli --bin zmesh -- bench-serve

# Single-request daemon latency under criterion (cold vs warm chunk LRU).
bench-serve-micro:
    CRITERION_JSON={{justfile_directory()}}/BENCH_serve_micro.json cargo bench -p zmesh-bench --bench serve

# The repo benchmark (BENCHMARK.json's command; see perfbench/README.md):
# one workload (pack, cold-read or serve) end to end, one JSON result line.
perfbench workload seed="1" seconds="30":
    cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- --workload {{workload}} --seed {{seed}} --seconds {{seconds}} --trace 0

# The same workload traced: per-layer metrics instead of end-to-end ones,
# spans written to .perfbench/trace-<workload>-<seed>.json.
perfbench-trace workload seed="1" seconds="30":
    cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- --workload {{workload}} --seed {{seed}} --seconds {{seconds}} --trace 1

# Alternating perfbench pairs of a base revision against the working tree:
# per end-to-end metric, each side's median and quartiles and the change's
# win count (e.g. `just perf-pairs HEAD pack,cold-read,serve 10`).
perf-pairs rev workload pairs seconds="30":
    bash scripts/perf_pairs.sh {{rev}} {{workload}} {{pairs}} {{seconds}}

# Regenerate every reconstructed paper artifact.
repro scale="small":
    cargo run --release -p zmesh-bench --bin repro -- all --scale {{scale}}

# Experiment smoke: every paper experiment at Tiny scale (about a second),
# tables discarded; the same step runs inside scripts/verify.sh.
repro-smoke:
    cargo run --release --quiet -p zmesh-bench --bin repro -- all --scale tiny >/dev/null

# Workspace size the way CHANGES.md reports it: tracked .rs/.sh lines,
# with and without vendor/.
loc:
    @echo "workspace .rs/.sh lines: $(git ls-files '*.rs' '*.sh' | xargs cat | wc -l)"
    @echo "without vendor/: $(git ls-files '*.rs' '*.sh' ':!vendor/' | xargs cat | wc -l)"
