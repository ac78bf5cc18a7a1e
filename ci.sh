#!/usr/bin/env bash
# Tier-1 gate: build, tests, lints. Run from the repo root.
set -euo pipefail

cargo fmt --all -- --check
cargo build --release
# The serving benchmark is its own package (path deps on crates/*), so
# the workspace build does not compile it; build it here so a public-API
# change that breaks the benchmark fails CI.
CARGO_TARGET_DIR=target/perfbench cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q
cargo test --workspace -q
# The sharded data plane must hold up under a parallel test harness too.
# The counting-allocator tests count per thread, so they run here as well.
cargo test --workspace -q -- --test-threads=4
cargo test --doc --workspace -q
cargo clippy --all-targets --workspace -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# Swap throughput bench, smoke mode: runs the 1/2/4/8-shard matrix at a
# tiny size and self-validates the emitted JSON (nonzero exit on failure).
cargo run --release -p xfm-bench --bin xfm-swap-bench -- --smoke
# Event-core bench, smoke mode: events/sec through the shared queue plus
# a wall-clock pin on the full-stack simulated run.
cargo run --release -p xfm-bench --bin xfm-event-bench -- --smoke
# Determinism gate: the same-seed full-stack replay must export
# byte-identical sim-time-only telemetry JSON twice in a row. The default
# gate runs the smoke-sized replay; `./ci.sh --determinism` runs the
# full-sized one.
determinism_check() {
    local size_flag="$1"
    local a b
    a=$(mktemp) && b=$(mktemp)
    cargo run --release -q -p xfm-bench --bin xfm-event-bench -- \
        --replay $size_flag --seed 252645426 --out "$a"
    cargo run --release -q -p xfm-bench --bin xfm-event-bench -- \
        --replay $size_flag --seed 252645426 --out "$b"
    diff "$a" "$b" || { echo "determinism gate FAILED: exports differ"; exit 1; }
    rm -f "$a" "$b"
    echo "determinism gate passed ($([ -n "$size_flag" ] && echo smoke || echo full) replay)"
}
if [[ "${1:-}" == "--determinism" ]]; then
    determinism_check ""
else
    determinism_check "--smoke"
fi
# Observability gate (always on; standalone via `./ci.sh --obs`):
# 1. lifecycle-trace round trip — xfm-repro exports the audit trail as
#    Chrome trace_event JSON and xfm-sentinel structurally validates it;
# 2. flight-recorder smoke — a forced fault storm must leave parseable
#    post-mortem dumps (validated inside the harness via validate_dump);
# 3. bench-regression sentinel — the committed BENCH_*.json baselines
#    must pass their own tolerance bands (schema drift or a tampered
#    baseline fails CI here, fresh measurements are diffed manually).
obs_gate() {
    local obsdir
    obsdir=$(mktemp -d)
    cargo run --release -q -p xfm-bench --bin xfm-repro -- \
        --trace-out "$obsdir/trace.json"
    cargo run --release -q -p xfm-bench --bin xfm-sentinel -- \
        validate-trace "$obsdir/trace.json"
    XFM_FAULT_PLAN="refresh_window_miss:0.9,engine_timeout:0.6,spm_exhaustion:0.6" \
        cargo run --release -q -p xfm-bench --bin xfm-fault-bench -- \
        --smoke --dump-dir "$obsdir/dumps" --bench-out "$obsdir/BENCH_faults.json" \
        > "$obsdir/chaos.log" \
        || { cat "$obsdir/chaos.log"; echo "obs gate FAILED: chaos run"; exit 1; }
    grep -q "all parseable" "$obsdir/chaos.log" \
        || { echo "obs gate FAILED: no validated post-mortem dumps"; exit 1; }
    cargo run --release -q -p xfm-bench --bin xfm-sentinel -- \
        check --baseline-dir . --current-dir .
    rm -rf "$obsdir"
    echo "observability gate passed (trace round-trip, post-mortems, sentinel)"
}
if [[ "${1:-}" == "--obs" ]]; then
    obs_gate
    exit 0
fi
obs_gate
# Chaos smoke (opt-in via `./ci.sh --chaos`): the seeded fault-injection
# harness must survive an all-sites storm with zero lost pages, bounded
# retries, telemetry-visible degraded-mode transitions, and validated
# post-mortem dumps from the attached flight recorder.
if [[ "${1:-}" == "--chaos" ]]; then
    cargo run --release -p xfm-bench --bin xfm-fault-bench -- \
        --smoke --dump-dir "$(mktemp -d)"
    # Replica-kill scenario: writes under an injected replica-drop storm,
    # anti-entropy scrub, then a full replica kill — the survivor must
    # serve every page byte-exact (nonzero exit on any lost page).
    cargo run --release -p xfm-bench --bin xfm-tier-bench -- \
        --replica-kill --smoke
fi
# Codec smoke (opt-in via `./ci.sh --codec`): reduced-round codec bench
# with built-in round-trip identity on every corpus/codec pair, the FSE
# differential proptests against the naive reference coder, and the
# counting-allocator zero-alloc gate over the FSE, auto-routing, and
# batch-decompress paths.
if [[ "${1:-}" == "--codec" ]]; then
    cargo run --release -p xfm-bench --bin xfm-codec-bench -- --smoke
    cargo test --release -q -p xfm-compress --test fse_differential
    cargo test --release -q -p xfm-compress --test zero_alloc
fi
# Prefetch smoke (opt-in via `./ci.sh --prefetch`): reduced-size learned
# prefetch bench (on/off latency pairs on all four traces plus the
# autotuner epoch loop, self-validating its JSON), the differential
# proptest proving prefetching never changes observable contents, and
# the counting-allocator gate over the staging-cache hit path.
if [[ "${1:-}" == "--prefetch" ]]; then
    cargo run --release -p xfm-bench --bin xfm-prefetch-bench -- --smoke
    cargo test --release -q -p xfm-sfm --test prefetch_diff
    cargo test --release -q -p xfm-sfm --test prefetch_zero_alloc
fi
# Serve smoke (opt-in via `./ci.sh --serve`): reduced-size multi-tenant
# serving bench (Zipfian mix + scans + bursts over three tenants on one
# shared plane, self-validating its JSON: zero lost pages, zero errors,
# balanced cross-layer accounting), the single-tenant differential
# proptest plus the racing per-tenant accounting proptest, and the
# counting-allocator gate over the context-carrying swap hot path.
if [[ "${1:-}" == "--serve" ]]; then
    cargo run --release -p xfm-bench --bin xfm-serve-bench -- --smoke
    cargo test --release -q -p xfm-serve --test serve_diff
    cargo test --release -q -p xfm-sfm --test ctx_zero_alloc
fi
# Tier smoke (opt-in via `./ci.sh --tier`): reduced-size tiered-plane
# bench (demotion cascade, per-tier fault latencies, degraded-replica
# read-back, self-validating its JSON), the differential proptest
# proving a single-tier composition is observably identical to the bare
# plane, and the replica-loss proptest proving zero lost pages with any
# single replica down after anti-entropy.
if [[ "${1:-}" == "--tier" ]]; then
    cargo run --release -p xfm-bench --bin xfm-tier-bench -- --smoke
    cargo test --release -q -p xfm-sfm --test tier_diff
    cargo test --release -q -p xfm-sfm --test tier_replica
fi
