//! Zero-allocation proof for the sharded steady-state swap path.
//!
//! Extends the counting-allocator acceptance checks of
//! `crates/compress/tests/zero_alloc.rs` and
//! `crates/core/tests/telemetry_overhead.rs` to [`ShardedSfm`]: each
//! shard owns its own reusable codec scratch, compressed-output buffer,
//! table, and pool arena, so a warmed shard must serve swap traffic
//! with **zero** heap allocations per operation — telemetry attached or
//! not.
//!
//! Two phases:
//!
//! 1. **Strict**: a same-filled working set (class-0 objects) with one
//!    pinned entry per shard so no shard's table, handle map, or host
//!    page ever empties; after warm-up the measured rounds must perform
//!    exactly zero allocations, with telemetry attached.
//! 2. **Parity**: real codec pages; attaching telemetry must not change
//!    the allocation count of identical rounds (the structural bound on
//!    instrumentation overhead used throughout the repo).
//!
//! The *batched* pipeline (`swap_out_batch`) is intentionally out of
//! scope: it allocates per batch (result slots, worker scratch) by
//! design and amortizes that over the batch.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count_allocs;
use xfm_sfm::{SfmConfig, ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm_telemetry::{Cause, LifecycleStage, Registry};
use xfm_types::{ByteSize, PageNumber, PAGE_SIZE};

const SHARDS: usize = 4;
const WORKING_SET: u64 = 16;
const WARMUP_ROUNDS: usize = 4;
const MEASURED_ROUNDS: usize = 8;

fn plane() -> ShardedSfm {
    ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(8),
            ..SfmConfig::default()
        },
        scan: xfm_sfm::ColdScanConfig::default(),
        shards: SHARDS,
    })
}

/// Swaps one permanently-out entry into every shard so that no shard's
/// table, handle map, or class-0 host page ever empties during rounds
/// (emptying would free the `BTreeMap` root / host page and the next
/// round would re-allocate it).
fn pin_every_shard(sfm: &ShardedSfm) -> u64 {
    let fill = vec![0x55u8; PAGE_SIZE];
    let mut pinned = [false; SHARDS];
    let mut count = 0u64;
    let mut p = 1_000_000u64;
    while pinned.iter().any(|&done| !done) {
        let pn = PageNumber::new(p);
        let si = sfm.shard_of(pn);
        if !pinned[si] {
            sfm.swap_out(pn, &fill).unwrap();
            pinned[si] = true;
            count += 1;
        }
        p += 1;
    }
    count
}

fn measure(sfm: &ShardedSfm, pages: &[(PageNumber, Vec<u8>)]) -> u64 {
    let mut buf = Vec::with_capacity(PAGE_SIZE);
    let mut round = || {
        for (pn, data) in pages {
            sfm.swap_out(*pn, data).unwrap();
        }
        for (pn, data) in pages {
            sfm.swap_in_into(*pn, false, &mut buf).unwrap();
            assert_eq!(buf, *data);
        }
    };
    for _ in 0..WARMUP_ROUNDS {
        round();
    }
    let ((), allocs) = count_allocs(|| {
        for _ in 0..MEASURED_ROUNDS {
            round();
        }
    });
    allocs
}

#[test]
fn sharded_steady_state_swap_path_is_allocation_free() {
    // ---- Phase 1: strict zero, telemetry attached ----
    let registry = Registry::new();
    let mut sfm = plane();
    sfm.attach_telemetry(&registry);
    let pinned = pin_every_shard(&sfm);
    // Same-filled pages: the store path exercises the shard lock, the
    // table, and the class-0 arena with no codec variance in object
    // sizes across rounds.
    let pages: Vec<(PageNumber, Vec<u8>)> = (0..WORKING_SET)
        .map(|i| (PageNumber::new(i), vec![(i % 251) as u8; PAGE_SIZE]))
        .collect();
    let strict_allocs = measure(&sfm, &pages);
    assert_eq!(
        strict_allocs, 0,
        "steady-state sharded swap path allocated {strict_allocs} times \
         over {MEASURED_ROUNDS} rounds"
    );
    // The instrumented run really did record.
    let s = registry.snapshot();
    let rounds = (WARMUP_ROUNDS + MEASURED_ROUNDS) as u64;
    assert_eq!(
        s.counters["xfm_swap_outs_total"],
        pinned + WORKING_SET * rounds
    );
    assert_eq!(s.counters["xfm_swap_ins_total"], WORKING_SET * rounds);
    assert!(s
        .events
        .iter()
        .any(|e| e.stage == LifecycleStage::Compress && e.cause == Cause::SameFilled));
    assert!(s.events.iter().any(|e| e.stage == LifecycleStage::Fault));

    // ---- Phase 2: real codec pages, traced == plain ----
    let codec_pages: Vec<(PageNumber, Vec<u8>)> = (0..WORKING_SET)
        .map(|i| {
            (
                PageNumber::new(i),
                xfm_compress::Corpus::Json.generate(i, PAGE_SIZE),
            )
        })
        .collect();
    let plain = plane();
    let plain_allocs = measure(&plain, &codec_pages);
    let mut traced = plane();
    traced.attach_telemetry(&Registry::new());
    let traced_allocs = measure(&traced, &codec_pages);
    assert_eq!(
        traced_allocs, plain_allocs,
        "telemetry changed the sharded steady-state allocation count"
    );
}
