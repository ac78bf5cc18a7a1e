//! Differential property test: a single-DRAM-tier [`TieredPlane`] is
//! observably identical to the bare plane it wraps.
//!
//! The tier layer earns its keep only when there is somewhere to
//! demote *to*; with one unbounded tier it must be a pure pass-through.
//! For any interleaving of sequential swap-outs, batched swap-outs,
//! swap-ins (sequential and batched), and compactions, the composition
//! must return byte-identical contents, outcome-identical results,
//! error-identical verdicts (modulo the tier annotation carrying the
//! plane id), equal statistics, and — the telemetry half — emit exactly
//! the lifecycle events of the bare plane, no tier-layer chatter.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;
use xfm_sfm::{
    SfmConfig, ShardedSfm, ShardedSfmConfig, SwapOutcome, SwapPlane, TierSpec, TieredPlane,
};
use xfm_telemetry::Registry;
use xfm_types::{ByteSize, PageNumber, PlacementClass, PlaneId, SwapResult, PAGE_SIZE};

/// Distinct pages the ops draw from (small enough to force collisions).
const PAGES: u64 = 24;

#[derive(Debug, Clone)]
enum Op {
    SwapOut(u64, u8),
    SwapOutBatch(Vec<(u64, u8)>),
    SwapIn(u64),
    SwapInBatch(Vec<u64>),
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
        2 => prop::collection::vec(0..PAGES, 1..8).prop_map(Op::SwapInBatch),
        1 => Just(Op::Compact),
    ]
}

fn plane() -> ShardedSfm {
    ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(2),
            ..SfmConfig::default()
        },
        ..ShardedSfmConfig::default()
    })
}

/// Errors compare on the (site, cause, retryable) triple: the tiered
/// side legitimately adds the owning plane id, nothing else.
fn fmt_err(e: &xfm_types::SwapError) -> String {
    format!(
        "err:{:?}/{:?}/retryable={}",
        e.site(),
        e.cause(),
        e.is_retryable()
    )
}

fn fmt(r: &SwapResult<SwapOutcome>) -> String {
    match r {
        Ok(o) => format!("{o:?}"),
        Err(e) => fmt_err(e),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn single_tier_is_identity(
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        // Tiered side: one registry watching both the inner plane and
        // the tier layer itself.
        let mut inner = plane();
        let tiered_registry = Registry::new();
        inner.attach_telemetry(&tiered_registry);
        let tiered = TieredPlane::new(vec![TierSpec::new(
            Arc::new(inner),
            PlaneId::new(0),
            PlacementClass::CompressedLocal,
        )])
        .unwrap();
        tiered.attach_telemetry(&tiered_registry);

        // Reference side: the same plane, bare.
        let mut reference = plane();
        let reference_registry = Registry::new();
        reference.attach_telemetry(&reference_registry);

        for op in ops {
            match op {
                Op::SwapOut(p, k) => {
                    let data = content(p, k);
                    let a = tiered.swap_out(PageNumber::new(p), &data);
                    let b = reference.swap_out(PageNumber::new(p), &data);
                    prop_assert_eq!(fmt(&a), fmt(&b), "swap_out page {}", p);
                }
                Op::SwapOutBatch(items) => {
                    let batch: Vec<(PageNumber, Bytes)> = items
                        .iter()
                        .map(|&(p, k)| (PageNumber::new(p), Bytes::from(content(p, k))))
                        .collect();
                    let ar = tiered.swap_out_batch(&batch, 3).unwrap();
                    prop_assert_eq!(ar.len(), batch.len());
                    for ((pn, data), a) in batch.iter().zip(&ar) {
                        let b = reference.swap_out(*pn, data);
                        prop_assert_eq!(fmt(a), fmt(&b), "batch page {}", pn);
                    }
                }
                Op::SwapIn(p) => {
                    let a = tiered.swap_in(PageNumber::new(p), false);
                    let b = reference.swap_in(PageNumber::new(p), false);
                    match (a, b) {
                        (Ok((da, oa)), Ok((db, ob))) => {
                            prop_assert_eq!(da, db, "swap_in data page {}", p);
                            prop_assert_eq!(oa, ob);
                        }
                        (Err(ea), Err(eb)) => {
                            prop_assert_eq!(fmt(&Err(ea)), fmt(&Err(eb)));
                        }
                        (a, b) => prop_assert!(
                            false,
                            "swap_in diverged on page {p}: tiered ok={} bare ok={}",
                            a.is_ok(),
                            b.is_ok()
                        ),
                    }
                }
                Op::SwapInBatch(pages) => {
                    let pns: Vec<PageNumber> =
                        pages.iter().map(|&p| PageNumber::new(p)).collect();
                    let mut a_outs = vec![Vec::new(); pns.len()];
                    let mut b_outs = vec![Vec::new(); pns.len()];
                    let ar = tiered.swap_in_batch_into(&pns, &mut a_outs);
                    let br = reference.swap_in_batch_into(&pns, &mut b_outs);
                    prop_assert_eq!(&a_outs, &b_outs, "batch swap_in contents");
                    for ((pn, a), b) in pns.iter().zip(&ar).zip(&br) {
                        match (a, b) {
                            (Ok(oa), Ok(ob)) => prop_assert_eq!(oa, ob),
                            (Err(ea), Err(eb)) => {
                                prop_assert_eq!(
                                    fmt_err(ea),
                                    fmt_err(eb),
                                    "batch swap_in error page {}", pn
                                );
                            }
                            (a, b) => prop_assert!(
                                false,
                                "batch swap_in diverged on page {pn}: tiered ok={} bare ok={}",
                                a.is_ok(),
                                b.is_ok()
                            ),
                        }
                    }
                }
                Op::Compact => {
                    let _ = tiered.compact();
                    let _ = reference.compact();
                }
            }

            // Invariants after every single op.
            prop_assert_eq!(tiered.stats(), reference.stats());
            let tp = tiered.pool_stats();
            let rp = reference.pool_stats();
            prop_assert_eq!(tp, rp);
            for p in 0..PAGES {
                prop_assert_eq!(
                    tiered.contains(PageNumber::new(p)),
                    reference.contains(PageNumber::new(p)),
                    "contains diverged on page {}", p
                );
            }
        }

        // Telemetry identity: the tier layer emitted nothing of its
        // own, and the inner plane's event stream matches the bare
        // plane's exactly. Timestamps are excluded (wall time differs)
        // and events compare as a multiset — worker-pool batches land
        // their per-shard events in nondeterministic order.
        let key = |e: &xfm_telemetry::lifecycle::LifecycleEvent| {
            (e.stage.code(), e.cause.code(), e.page, e.shard, e.aux)
        };
        let mut ta: Vec<_> = tiered_registry.lifecycle().snapshot().iter().map(key).collect();
        let mut tb: Vec<_> = reference_registry.lifecycle().snapshot().iter().map(key).collect();
        prop_assert_eq!(ta.len(), tb.len(), "tier layer added lifecycle events");
        ta.sort_unstable();
        tb.sort_unstable();
        prop_assert_eq!(ta, tb, "lifecycle streams diverged");
    }
}
