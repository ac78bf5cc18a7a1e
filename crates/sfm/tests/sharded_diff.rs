//! Differential property test: the sharded concurrent data plane is
//! observably equivalent to the unsharded single-threaded path.
//!
//! For any shard count (1/2/4/8), any scan batch (0 = unlimited, or
//! rate-limited), and any interleaving of swap-outs (sequential and
//! batched), swap-ins, touches, prefetches, scans, and compactions, a
//! [`ShardedSfm`] must produce exactly the results, statistics, and
//! control-plane state of the reference pair ([`CpuBackend`] +
//! [`SfmController`]). Capacity is ample so region-full behavior (which
//! legitimately depends on per-shard packing) stays out of scope; a
//! dedicated unit test covers the global budget.

use bytes::Bytes;
use proptest::prelude::*;
use xfm_sfm::{
    ColdScanConfig, CpuBackend, SfmConfig, SfmController, ShardedSfm, ShardedSfmConfig,
    SwapOutcome, SwapPlane,
};
use xfm_types::{ByteSize, Error, Nanos, PageNumber, Result as XfmResult, PAGE_SIZE};

/// Distinct pages the ops draw from (small enough to force collisions).
const PAGES: u64 = 24;

#[derive(Debug, Clone)]
enum Op {
    /// Sequential swap-out of one page with deterministic contents.
    SwapOut(u64, u8),
    /// Batched swap-out through the worker-pool pipeline.
    SwapOutBatch(Vec<(u64, u8)>),
    SwapIn(u64),
    /// Advance the clock by `dt` ms, then touch the page.
    Touch(u64, u64),
    Prefetch(u64, u64),
    Scan(u64),
    Compact,
}

/// Deterministic page contents covering all three store paths:
/// same-filled short-circuit, codec-compressed, and raw-store reject.
fn content(page: u64, kind: u8) -> Vec<u8> {
    match kind % 3 {
        0 => vec![kind; PAGE_SIZE],
        1 => xfm_compress::Corpus::Json.generate(page * 31 + u64::from(kind), PAGE_SIZE),
        _ => xfm_compress::Corpus::RandomBytes.generate(page * 17 + u64::from(kind), PAGE_SIZE),
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..PAGES, any::<u8>()).prop_map(|(p, k)| Op::SwapOut(p, k)),
        2 => prop::collection::vec((0..PAGES, any::<u8>()), 1..8).prop_map(Op::SwapOutBatch),
        4 => (0..PAGES).prop_map(Op::SwapIn),
        4 => (0..PAGES, 0u64..90_000).prop_map(|(p, dt)| Op::Touch(p, dt)),
        1 => (0..PAGES, 0u64..90_000).prop_map(|(p, dt)| Op::Prefetch(p, dt)),
        3 => (0u64..90_000).prop_map(Op::Scan),
        1 => Just(Op::Compact),
    ]
}

/// Result comparison through `Debug`: outcomes compare field-by-field,
/// errors compare by variant and payload.
fn fmt(r: &XfmResult<SwapOutcome>) -> String {
    match r {
        Ok(o) => format!("{o:?}"),
        Err(e) => format!("err:{e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_matches_unsharded(
        shards_idx in 0usize..4,
        batch_idx in 0usize..3,
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let shards = [1usize, 2, 4, 8][shards_idx];
        let scan_cfg = ColdScanConfig {
            cold_threshold: Nanos::from_secs(2),
            scan_batch: [0usize, 1, 3][batch_idx],
        };
        let sfm_cfg = SfmConfig {
            region_capacity: ByteSize::from_mib(2),
            ..SfmConfig::default()
        };
        let sharded = ShardedSfm::new(ShardedSfmConfig {
            sfm: sfm_cfg,
            scan: scan_cfg,
            shards,
        });
        let cpu = CpuBackend::new(sfm_cfg);
        let mut ctl = SfmController::new(scan_cfg);
        let mut now = Nanos::ZERO;

        for op in ops {
            match op {
                Op::SwapOut(p, k) => {
                    let data = content(p, k);
                    let a = sharded.swap_out(PageNumber::new(p), &data).map_err(Error::from);
                    let b = cpu.swap_out(PageNumber::new(p), &data).map_err(Error::from);
                    prop_assert_eq!(fmt(&a), fmt(&b), "swap_out page {}", p);
                }
                Op::SwapOutBatch(items) => {
                    let batch: Vec<(PageNumber, Bytes)> = items
                        .iter()
                        .map(|&(p, k)| (PageNumber::new(p), Bytes::from(content(p, k))))
                        .collect();
                    let results = sharded.swap_out_batch(&batch, 3).unwrap();
                    prop_assert_eq!(results.len(), batch.len());
                    for ((pn, data), ar) in batch.iter().zip(results) {
                        let ar = ar.map_err(Error::from);
                        let br = cpu.swap_out(*pn, data).map_err(Error::from);
                        prop_assert_eq!(fmt(&ar), fmt(&br), "batch page {}", pn);
                    }
                }
                Op::SwapIn(p) => {
                    let a = sharded.swap_in(PageNumber::new(p), false).map_err(Error::from);
                    let b = cpu.swap_in(PageNumber::new(p), false).map_err(Error::from);
                    match (a, b) {
                        (Ok((da, oa)), Ok((db, ob))) => {
                            prop_assert_eq!(da, db, "swap_in data page {}", p);
                            prop_assert_eq!(oa, ob);
                        }
                        (Err(ea), Err(eb)) => {
                            prop_assert_eq!(format!("{ea:?}"), format!("{eb:?}"));
                        }
                        (a, b) => prop_assert!(
                            false,
                            "swap_in diverged on page {p}: sharded ok={} cpu ok={}",
                            a.is_ok(),
                            b.is_ok()
                        ),
                    }
                }
                Op::Touch(p, dt) => {
                    now += Nanos::from_ms(dt);
                    prop_assert_eq!(
                        sharded.touch(PageNumber::new(p), now),
                        ctl.touch(PageNumber::new(p), now)
                    );
                }
                Op::Prefetch(p, dt) => {
                    now += Nanos::from_ms(dt);
                    prop_assert_eq!(
                        sharded.prefetch(PageNumber::new(p), now),
                        ctl.prefetch(PageNumber::new(p), now)
                    );
                }
                Op::Scan(dt) => {
                    now += Nanos::from_ms(dt);
                    // Same pages, same (oldest-first) order, same batching.
                    prop_assert_eq!(sharded.scan(now), ctl.scan(now));
                }
                Op::Compact => {
                    // Moved bytes legitimately depend on per-shard packing;
                    // only the observable state below must stay equal.
                    let _ = sharded.compact();
                    let _ = cpu.compact();
                }
            }

            // Invariants after every single op.
            prop_assert_eq!(sharded.stats(), cpu.stats());
            prop_assert_eq!(sharded.far_pages(), ctl.far_pages());
            prop_assert_eq!(sharded.resident_pages(), ctl.resident_pages());
            prop_assert_eq!(sharded.promotion_stats(), ctl.promotion_stats());
            let ps = sharded.pool_stats();
            let cs = cpu.pool_stats();
            prop_assert_eq!(ps.stored_bytes, cs.stored_bytes);
            prop_assert_eq!(ps.objects, cs.objects);
            if shards == 1 {
                // A single shard is bit-for-bit the unsharded pool.
                prop_assert_eq!(ps, cs);
            }
        }
    }
}
