//! Property-based tests for the XFM core.

use proptest::prelude::*;
use xfm_core::backend::{XfmBackend, XfmBackendConfig};
use xfm_core::multichannel::{pack_page, unpack_page};
use xfm_core::sched::{AccessOp, SchedConfig, SchedEvent, WindowScheduler};
use xfm_core::Spm;
use xfm_dram::{DeviceGeometry, DramTimings};
use xfm_faults::{FaultInjector, FaultPlan, FaultSite, RetryPolicy, SiteSpec};
use xfm_sfm::{SfmConfig, SwapPlane};
use xfm_telemetry::Registry;
use xfm_types::{ByteSize, Error, Nanos, PageNumber, RowId, PAGE_SIZE};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The multi-channel container round-trips any page for any legal
    /// DIMM count.
    #[test]
    fn container_round_trip(data in prop::collection::vec(any::<u8>(), 1..=PAGE_SIZE),
                            n in prop::sample::select(vec![1usize, 2, 4])) {
        let codec = xfm_compress::XDeflate::default();
        let packed = pack_page(&codec, &data, n).unwrap();
        prop_assert_eq!(unpack_page(&codec, &packed.bytes).unwrap(), data);
        // Fragmentation accounting is internally consistent.
        prop_assert_eq!(
            packed.slot_size() * n,
            packed.payload_bytes() + packed.fragmentation_bytes()
        );
    }

    /// Scheduler conservation: every enqueued op is eventually served or
    /// spilled, exactly once.
    #[test]
    fn scheduler_conserves_ops(rows in prop::collection::vec(0u32..65_536, 1..80),
                               budget in 1u32..4,
                               urgent_mask in any::<u64>()) {
        let mut sched = WindowScheduler::new(
            SchedConfig {
                accesses_per_trfc: budget,
                max_random_per_trfc: 1,
                urgent_max_wait: 4,
                placement_lookahead: 64,
            },
            DramTimings::paper_emulator(),
            DeviceGeometry::ddr4_8gb(),
        );
        for (i, &row) in rows.iter().enumerate() {
            let op = AccessOp {
                id: i as u64,
                row: RowId::new(row),
                is_write: false,
                bytes: 4096,
                enqueued_window: 0,
            };
            if urgent_mask & (1 << (i % 64)) != 0 {
                sched.enqueue_urgent(op);
            } else {
                sched.enqueue_flexible(op);
            }
        }
        // One full retention interval guarantees every slot came up.
        let events = sched.advance_to(Nanos::from_ms(33));
        let mut seen = std::collections::HashSet::new();
        for e in &events {
            let id = match e {
                SchedEvent::Served { id, .. } | SchedEvent::Spilled { id, .. } => *id,
            };
            prop_assert!(seen.insert(id), "op {id} resolved twice");
        }
        prop_assert_eq!(seen.len(), rows.len());
        prop_assert_eq!(sched.pending(), 0);
        let s = sched.stats();
        prop_assert_eq!(s.conditional + s.random + s.spilled, rows.len() as u64);
    }

    /// SPM occupancy accounting never drifts through arbitrary
    /// reserve/complete/release/cancel sequences.
    #[test]
    fn spm_accounting_consistent(ops in prop::collection::vec((1usize..5000, 0u8..4), 1..40)) {
        let mut spm = Spm::new(ByteSize::from_kib(64));
        let mut live: Vec<(xfm_core::spm::SlotId, usize, bool)> = Vec::new();
        let mut expected_used = 0usize;
        for (size, action) in ops {
            match action {
                0 => {
                    if let Ok(slot) = spm.reserve(size) {
                        live.push((slot, size, false));
                        expected_used += size;
                    }
                }
                1 => {
                    if let Some(pos) = live.iter().position(|&(_, _, done)| !done) {
                        let (slot, reserved, _) = live[pos];
                        let out_len = reserved.min(size);
                        spm.complete(slot, vec![0u8; out_len]).unwrap();
                        expected_used -= reserved - out_len;
                        live[pos] = (slot, out_len, true);
                    }
                }
                2 => {
                    if let Some(pos) = live.iter().position(|&(_, _, done)| done) {
                        let (slot, reserved, _) = live.remove(pos);
                        spm.release(slot).unwrap();
                        expected_used -= reserved;
                    }
                }
                _ => {
                    if let Some(pos) = live.iter().position(|&(_, _, done)| !done) {
                        let (slot, reserved, _) = live.remove(pos);
                        spm.cancel(slot).unwrap();
                        expected_used -= reserved;
                    }
                }
            }
            prop_assert_eq!(spm.used().as_bytes() as usize, expected_used);
        }
    }

    /// XFM backend round-trips arbitrary page contents regardless of the
    /// offload path taken.
    #[test]
    fn backend_integrity(seeds in prop::collection::vec(any::<u64>(), 1..6),
                         n in prop::sample::select(vec![1usize, 2, 4])) {
        let b = XfmBackend::new(XfmBackendConfig {
            sfm: SfmConfig {
                region_capacity: ByteSize::from_mib(4),
                ..SfmConfig::default()
            },
            n_dimms: n,
            ..XfmBackendConfig::default()
        });
        b.advance_to(Nanos::from_ms(1));
        let pages: Vec<(PageNumber, Vec<u8>)> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let corpus = xfm_compress::Corpus::all()[(seed % 16) as usize];
                (PageNumber::new(i as u64), corpus.generate(seed, PAGE_SIZE))
            })
            .collect();
        for (pn, data) in &pages {
            b.swap_out(*pn, data).unwrap();
        }
        for (i, (pn, data)) in pages.iter().enumerate() {
            let (restored, _) = b.swap_in(*pn, i % 2 == 0).unwrap();
            prop_assert_eq!(&restored, data);
        }
    }

    /// Replaying the same seeded fault plan twice yields byte-identical
    /// swap-ins, identical per-site fire counts, and identical telemetry
    /// cause counts: chaos runs are reproducible.
    #[test]
    fn fault_replay_is_deterministic(seed in any::<u64>(),
                                     seeds in prop::collection::vec(any::<u64>(), 1..8)) {
        let plan = FaultPlan::new(seed)
            .with_site(FaultSite::NmaEngineTimeout, SiteSpec::with_probability(0.3))
            .with_site(FaultSite::SpmExhaustion, SiteSpec::with_probability(0.3))
            .with_site(FaultSite::QueueFull, SiteSpec::with_probability(0.3).burst(2))
            .with_site(FaultSite::RefreshWindowMiss, SiteSpec::with_probability(0.5))
            .with_site(FaultSite::BitCorruption, SiteSpec::with_probability(0.2));
        let run = |registry: &Registry| {
            let injector = std::sync::Arc::new(FaultInjector::new(&plan));
            let mut b = XfmBackend::new(XfmBackendConfig {
                sfm: SfmConfig {
                    region_capacity: ByteSize::from_mib(4),
                    ..SfmConfig::default()
                },
                ..XfmBackendConfig::default()
            });
            b.attach_telemetry(registry);
            b.attach_faults(std::sync::Arc::clone(&injector));
            b.set_retry_policy(RetryPolicy::default());
            b.advance_to(Nanos::from_ms(1));
            let mut restored = Vec::new();
            for (i, &s) in seeds.iter().enumerate() {
                let corpus = xfm_compress::Corpus::all()[(s % 16) as usize];
                let data = corpus.generate(s, PAGE_SIZE);
                b.swap_out(PageNumber::new(i as u64), &data).unwrap();
            }
            for (i, _) in seeds.iter().enumerate() {
                // Checksum mismatches are retryable: loop until the
                // bounded fault stream lets a clean fetch through.
                let page = loop {
                    match b.swap_in(PageNumber::new(i as u64), i % 2 == 0).map_err(Error::from) {
                        Ok((data, _)) => break data,
                        Err(Error::ChecksumMismatch { .. }) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                };
                restored.push(page);
            }
            let fires: Vec<u64> = FaultSite::ALL.iter().map(|&s| injector.fires(s)).collect();
            (restored, fires)
        };
        let (ra, ries) = run(&Registry::new());
        let rb_registry = Registry::new();
        let (rb, rbes) = run(&rb_registry);
        prop_assert_eq!(&ra, &rb, "swap-ins must be byte-identical");
        prop_assert_eq!(ries, rbes, "per-site fire counts must replay");
        // Cause counts from the second run must match a third replay.
        let rc_registry = Registry::new();
        run(&rc_registry);
        let causes = |r: &Registry| {
            let mut m = std::collections::BTreeMap::new();
            for e in r.snapshot().events {
                *m.entry(format!("{:?}/{:?}", e.stage, e.cause)).or_insert(0u64) += 1;
            }
            m
        };
        prop_assert_eq!(causes(&rb_registry), causes(&rc_registry));
    }

    /// With every site armed, the stack still round-trips every page:
    /// device faults divert to CPU fallback, host faults are bounded by
    /// max_fires and survivable through retries. No page is ever lost.
    #[test]
    fn all_sites_firing_still_round_trips(seed in any::<u64>(),
                                          seeds in prop::collection::vec(any::<u64>(), 1..8)) {
        // Device-side sites fire on every opportunity, forever; the
        // host-side store/fetch sites are bounded so forward progress
        // is possible (an always-corrupting channel has no remedy).
        let plan = FaultPlan::new(seed)
            .with_site(FaultSite::NmaEngineTimeout, SiteSpec::with_probability(1.0))
            .with_site(FaultSite::SpmExhaustion, SiteSpec::with_probability(1.0))
            .with_site(FaultSite::QueueFull, SiteSpec::with_probability(1.0))
            .with_site(FaultSite::RefreshWindowMiss, SiteSpec::with_probability(1.0))
            .with_site(FaultSite::BitCorruption, SiteSpec::with_probability(1.0).max_fires(4))
            .with_site(FaultSite::ZpoolStoreFailure, SiteSpec::with_probability(1.0).max_fires(4));
        let mut b = XfmBackend::new(XfmBackendConfig {
            sfm: SfmConfig {
                region_capacity: ByteSize::from_mib(4),
                ..SfmConfig::default()
            },
            ..XfmBackendConfig::default()
        });
        b.attach_faults(std::sync::Arc::new(FaultInjector::new(&plan)));
        b.advance_to(Nanos::from_ms(1));
        let pages: Vec<(PageNumber, Vec<u8>)> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let corpus = xfm_compress::Corpus::all()[(s % 16) as usize];
                (PageNumber::new(i as u64), corpus.generate(s, PAGE_SIZE))
            })
            .collect();
        for (pn, data) in &pages {
            loop {
                match b.swap_out(*pn, data).map_err(Error::from) {
                    Ok(out) => {
                        // Device sites reject everything: nothing may
                        // report an NMA execution.
                        prop_assert_eq!(out.executed_on, xfm_sfm::ExecutedOn::Cpu);
                        break;
                    }
                    Err(Error::SfmRegionFull) => {} // injected store failure
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
        for (i, (pn, data)) in pages.iter().enumerate() {
            let restored = loop {
                match b.swap_in(*pn, i % 2 == 0).map_err(Error::from) {
                    Ok((d, _)) => break d,
                    Err(Error::ChecksumMismatch { .. }) => {}
                    Err(e) => panic!("unexpected error: {e}"),
                }
            };
            prop_assert_eq!(&restored, data, "page {} must survive chaos", pn);
        }
    }
}
