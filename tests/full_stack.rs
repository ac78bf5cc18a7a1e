//! Cross-crate integration tests: the full swap path through every
//! layer — controller policy, XFM backend, NMA device, refresh
//! scheduler, codec, and zpool — with data-integrity verification.

use xfm::compress::Corpus;
use xfm::core::backend::{XfmBackend, XfmBackendConfig};
use xfm::core::nma::NmaConfig;
use xfm::core::{XfmConfig, XfmSystem};
use xfm::sfm::backend::{ExecutedOn, SfmConfig, SwapPlane};
use xfm::sfm::{ColdScanConfig, CpuBackend, SfmController, TraceConfig, TraceGenerator};
use xfm::types::{ByteSize, Nanos, PageNumber, PAGE_SIZE};

fn trace(seed: u64, secs: u64) -> Vec<xfm::sfm::SwapEvent> {
    TraceGenerator::new(TraceConfig {
        working_set_pages: 2048,
        local_pages: 1024,
        accesses_per_sec: 8_000.0,
        duration: Nanos::from_secs(secs),
        seed,
        ..TraceConfig::default()
    })
    .generate()
}

#[test]
fn full_trace_replay_preserves_every_byte() {
    let mut sys = XfmSystem::new(XfmConfig::default());
    let report = sys.replay(&trace(42, 3), Corpus::Json).unwrap();
    assert_eq!(report.integrity_failures, 0);
    assert!(report.swap_outs > 100, "swap_outs {}", report.swap_outs);
    assert!(report.swap_ins > 100);
    // Demotions are controller-scheduled: the NMA takes most of them.
    assert!(report.nma_ops > 0);
}

#[test]
fn xfm_beats_cpu_baseline_on_ddr_traffic() {
    // The same trace through the CPU baseline and XFM: XFM's DDR
    // traffic must be a small fraction of the baseline's.
    let events = trace(7, 2);

    let cpu = CpuBackend::new(SfmConfig::default());
    let xfm = XfmBackend::new(XfmBackendConfig::default());
    xfm.advance_to(Nanos::from_ms(1));

    for e in &events {
        xfm.advance_to(e.at);
        let data = Corpus::LogLines.generate(e.page.index(), PAGE_SIZE);
        match e.kind {
            xfm::sfm::SwapKind::Out => {
                if !cpu.contains(e.page) {
                    cpu.swap_out(e.page, &data).unwrap();
                }
                if !xfm.contains(e.page) {
                    xfm.swap_out(e.page, &data).unwrap();
                }
            }
            xfm::sfm::SwapKind::In => {
                if cpu.contains(e.page) {
                    let (d, _) = cpu.swap_in(e.page, e.prefetchable).unwrap();
                    assert_eq!(d, data);
                }
                if xfm.contains(e.page) {
                    let (d, _) = xfm.swap_in(e.page, e.prefetchable).unwrap();
                    assert_eq!(d, data);
                }
            }
        }
    }

    let cpu_ddr = cpu.stats().ddr_bytes.as_bytes();
    let xfm_ddr = xfm.stats().ddr_bytes.as_bytes();
    assert!(
        xfm_ddr * 2 < cpu_ddr,
        "XFM DDR {xfm_ddr} should be well under baseline {cpu_ddr}"
    );
    // And the side channel carried real traffic instead.
    assert!(xfm.nma_stats().sched.side_channel_bytes.as_bytes() > 0);
}

#[test]
fn controller_backend_loop_with_aging() {
    // Drive the cold-page scanner against the backend: touch, age,
    // scan, demote, fault back in.
    let mut controller = SfmController::new(ColdScanConfig {
        cold_threshold: Nanos::from_secs(2),
        scan_batch: 0,
    });
    let backend = XfmBackend::new(XfmBackendConfig::default());
    backend.advance_to(Nanos::from_ms(1));

    // 64 pages touched at t=0; 16 of them re-touched at t=2s (still
    // within the 2 s threshold when the scan runs at t=3s).
    for p in 0..64u64 {
        controller.touch(PageNumber::new(p), Nanos::ZERO);
    }
    for p in 0..16u64 {
        controller.touch(PageNumber::new(p), Nanos::from_secs(2));
    }
    let now = Nanos::from_secs(3);
    backend.advance_to(now);
    let cold = controller.scan(now);
    assert_eq!(cold.len(), 48, "48 pages idle past the threshold");

    for page in &cold {
        let data = Corpus::Html.generate(page.index(), PAGE_SIZE);
        backend.swap_out(*page, &data).unwrap();
    }
    assert_eq!(backend.table_len(), 48);

    // An access to a demoted page is a promotion the controller sees.
    let victim = cold[0];
    assert!(controller.touch(victim, Nanos::from_secs(4)));
    let (restored, outcome) = backend.swap_in(victim, false).unwrap();
    assert_eq!(restored, Corpus::Html.generate(victim.index(), PAGE_SIZE));
    assert_eq!(outcome.executed_on, ExecutedOn::Cpu); // demand fault
}

#[test]
fn tiny_spm_forces_cpu_fallbacks_but_never_corrupts() {
    let backend = XfmBackend::new(XfmBackendConfig {
        nma: NmaConfig {
            spm_capacity: ByteSize::from_bytes(4160), // one offload
            ..NmaConfig::default()
        },
        ..XfmBackendConfig::default()
    });
    backend.advance_to(Nanos::from_ms(1));

    let pages: Vec<(PageNumber, Vec<u8>)> = (0..24)
        .map(|i| {
            (
                PageNumber::new(i),
                Corpus::all()[(i % 16) as usize].generate(i, PAGE_SIZE),
            )
        })
        .collect();
    let mut cpu = 0;
    for (pn, data) in &pages {
        if backend.swap_out(*pn, data).unwrap().executed_on == ExecutedOn::Cpu {
            cpu += 1;
        }
    }
    assert!(
        cpu >= 20,
        "the one-slot SPM must reject most offloads ({cpu})"
    );
    for (pn, data) in &pages {
        let (restored, _) = backend.swap_in(*pn, true).unwrap();
        assert_eq!(&restored, data);
    }
}

#[test]
fn multichannel_configs_agree_on_data() {
    // The same pages through 1-, 2-, and 4-DIMM backends: identical
    // restored data, decreasing compression efficiency.
    let mut stored = Vec::new();
    for n in [1usize, 2, 4] {
        let b = XfmBackend::new(XfmBackendConfig {
            n_dimms: n,
            ..XfmBackendConfig::default()
        });
        b.advance_to(Nanos::from_ms(1));
        let mut total = 0u64;
        for i in 0..16u64 {
            let data = Corpus::SourceCode.generate(i, PAGE_SIZE);
            let out = b.swap_out(PageNumber::new(i), &data).unwrap();
            total += u64::from(out.compressed_len);
            let (restored, _) = b.swap_in(PageNumber::new(i), false).unwrap();
            assert_eq!(restored, data, "n_dimms={n} page={i}");
        }
        stored.push(total);
    }
    assert!(
        stored[0] <= stored[1] && stored[1] <= stored[2],
        "same-offset fragmentation should grow with DIMM count: {stored:?}"
    );
}

#[test]
fn compaction_under_churn_is_safe_and_reclaims_space() {
    let backend = CpuBackend::new(SfmConfig {
        region_capacity: ByteSize::from_mib(8),
        ..SfmConfig::default()
    });
    // Fill, free every other page, compact, verify survivors.
    for i in 0..512u64 {
        let data = Corpus::KeyValue.generate(i, PAGE_SIZE);
        backend.swap_out(PageNumber::new(i), &data).unwrap();
    }
    for i in (0..512u64).step_by(2) {
        backend.swap_in(PageNumber::new(i), false).unwrap();
    }
    let before = backend.pool_stats().host_pages;
    let report = backend.compact();
    let after = backend.pool_stats().host_pages;
    assert!(after <= before);
    assert_eq!(before - after, report.freed_pages);
    for i in (1..512u64).step_by(2) {
        let (restored, _) = backend.swap_in(PageNumber::new(i), false).unwrap();
        assert_eq!(restored, Corpus::KeyValue.generate(i, PAGE_SIZE));
    }
}

#[test]
fn replay_determinism_across_dimm_counts() {
    for n in [1usize, 2, 4] {
        let cfg = XfmConfig {
            backend: XfmBackendConfig {
                n_dimms: n,
                ..XfmBackendConfig::default()
            },
            ..XfmConfig::default()
        };
        let mut a = XfmSystem::new(cfg);
        let mut b = XfmSystem::new(cfg);
        let events = trace(99, 1);
        let ra = a.replay(&events, Corpus::TimeSeries).unwrap();
        let rb = b.replay(&events, Corpus::TimeSeries).unwrap();
        assert_eq!(ra, rb, "n_dimms={n}");
        assert_eq!(ra.integrity_failures, 0);
    }
}

#[test]
fn figure10_minimum_latency_holds_end_to_end() {
    // Through the real device: an offload can never complete in less
    // than two refresh intervals (read window + write-back window).
    use xfm::core::nma::{NearMemoryAccelerator, NmaEvent};
    let config = NmaConfig::default();
    let trefi = config.timings.t_refi;
    let mut nma = NearMemoryAccelerator::new(config);
    for p in 0..16u64 {
        nma.submit_compress(
            PageNumber::new(p),
            Corpus::Csv.generate(p, PAGE_SIZE),
            xfm::types::RowId::new((p * 37) as u32 % 65536),
            Nanos::ZERO,
            true,
        )
        .unwrap();
    }
    let events = nma.advance_to(Nanos::from_ms(70));
    let mut completed = 0;
    for e in events {
        if let NmaEvent::Completed {
            submitted_at,
            completed_at,
            ..
        } = e
        {
            assert!(completed_at - submitted_at >= trefi * 2);
            completed += 1;
        }
    }
    assert_eq!(completed, 16);
}
