//! Property-based tests for the SFM stack.

use proptest::prelude::*;
use std::collections::HashMap;
use xfm_sfm::{CpuBackend, SfmConfig, SwapPlane, Zpool};
use xfm_types::{ByteSize, PageNumber, PAGE_SIZE};

/// An operation against the zpool.
#[derive(Debug, Clone)]
enum PoolOp {
    Alloc(Vec<u8>),
    FreeNth(usize),
    Compact,
}

fn arb_pool_ops() -> impl Strategy<Value = Vec<PoolOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (1usize..4096, any::<u8>())
                .prop_map(|(len, fill)| PoolOp::Alloc(vec![fill; len])),
            2 => any::<prop::sample::Index>().prop_map(|i| PoolOp::FreeNth(i.index(1 << 16))),
            1 => Just(PoolOp::Compact),
        ],
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The zpool never loses or corrupts an object through any sequence
    /// of allocs, frees, and compactions, and its byte accounting always
    /// matches the live set.
    #[test]
    fn zpool_never_corrupts(ops in arb_pool_ops()) {
        let mut pool = Zpool::new(ByteSize::from_mib(2));
        let mut live: Vec<(xfm_sfm::Handle, Vec<u8>)> = Vec::new();
        for op in ops {
            match op {
                PoolOp::Alloc(data) => {
                    if let Ok(h) = pool.alloc(&data) {
                        live.push((h, data));
                    }
                }
                PoolOp::FreeNth(i) => {
                    if !live.is_empty() {
                        let (h, data) = live.swap_remove(i % live.len());
                        let freed = pool.free(h).unwrap();
                        prop_assert_eq!(freed.as_bytes() as usize, data.len());
                    }
                }
                PoolOp::Compact => {
                    pool.compact();
                }
            }
            // Every live object remains intact.
            for (h, data) in &live {
                prop_assert_eq!(pool.get(*h).unwrap(), &data[..]);
            }
            let stats = pool.stats();
            let expected: u64 = live.iter().map(|(_, d)| d.len() as u64).sum();
            prop_assert_eq!(stats.stored_bytes.as_bytes(), expected);
            prop_assert_eq!(stats.objects as usize, live.len());
        }
    }

    /// Swap-out/in through the CPU backend is the identity on page data,
    /// for arbitrary page contents and orders.
    #[test]
    fn backend_round_trip(pages in prop::collection::vec(
        prop::collection::vec(any::<u8>(), PAGE_SIZE..=PAGE_SIZE), 1..12)) {
        let backend = CpuBackend::new(SfmConfig {
            region_capacity: ByteSize::from_mib(2),
            ..SfmConfig::default()
        });
        let mut expected = HashMap::new();
        for (i, page) in pages.iter().enumerate() {
            let pn = PageNumber::new(i as u64);
            if backend.swap_out(pn, page).is_ok() {
                expected.insert(pn, page.clone());
            }
        }
        for (pn, page) in expected {
            let (restored, _) = backend.swap_in(pn, false).unwrap();
            prop_assert_eq!(restored, page);
        }
    }

    /// Compaction is observation-equivalent: stats may improve but the
    /// stored set is unchanged, and host pages never increase.
    #[test]
    fn compaction_monotone(sizes in prop::collection::vec(1usize..2048, 1..40),
                           keep_mask in any::<u64>()) {
        let mut pool = Zpool::new(ByteSize::from_mib(2));
        let handles: Vec<_> = sizes
            .iter()
            .enumerate()
            .filter_map(|(i, &len)| pool.alloc(&vec![i as u8; len]).ok().map(|h| (h, i, len)))
            .collect();
        let mut kept = Vec::new();
        for (j, (h, i, len)) in handles.into_iter().enumerate() {
            if keep_mask & (1 << (j % 64)) != 0 {
                kept.push((h, i, len));
            } else {
                pool.free(h).unwrap();
            }
        }
        let before = pool.stats();
        pool.compact();
        let after = pool.stats();
        prop_assert!(after.host_pages <= before.host_pages);
        prop_assert_eq!(after.stored_bytes, before.stored_bytes);
        prop_assert_eq!(after.objects, before.objects);
        for (h, i, len) in kept {
            prop_assert_eq!(pool.get(h).unwrap(), &vec![i as u8; len][..]);
        }
    }
}
