//! The `--metrics-out` collection pass: drives every instrumented layer
//! of the stack against one shared [`Registry`] and snapshots it.
//!
//! One run produces, on a single registry:
//!
//! - swap-path counters, latency histograms, and cause-tagged lifecycle
//!   events from an [`XfmSystem`] cold-scan → demote → fault → restore
//!   loop;
//! - per-rank refresh-window utilization gauges published by the
//!   backend's drivers;
//! - modeled DRAM access latencies from a [`MemSystem`] page drive;
//! - per-cause structural-hazard counters from the Fig. 12 fallback
//!   simulator;
//! - per-mode co-run interference gauges from the Fig. 11 engine.

use xfm_compress::Corpus;
use xfm_core::backend::XfmBackendConfig;
use xfm_core::{XfmConfig, XfmSystem};
use xfm_dram::controller::MemSystem;
use xfm_dram::{DramTimings, SystemGeometry};
use xfm_sfm::controller::ColdScanConfig;
use xfm_sfm::SwapPlane;
use xfm_sim::corun::{evaluate_traced, CorunConfig, SfmMode};
use xfm_sim::fallback::{simulate_traced, FallbackConfig};
use xfm_sim::workload::JobMix;
use xfm_telemetry::{Registry, Snapshot};
use xfm_types::{Nanos, PhysAddr, Result, PAGE_SIZE};

/// Pages demoted (and re-faulted) by the swap-path exercise.
const EXERCISE_PAGES: u64 = 96;

/// Cachelines' worth of pages driven through the DRAM model.
const DRAM_PAGES: u64 = 24;

/// Exercises the full stack with telemetry attached and returns the
/// resulting snapshot. Deterministic except for wall-clock latencies.
///
/// # Errors
///
/// Propagates backend and DRAM-model errors (none occur for the built-in
/// exercise parameters).
pub fn collect(registry: &Registry) -> Result<Snapshot> {
    swap_path_exercise(registry)?;
    dram_drive(registry)?;

    // Structural-hazard telemetry from the Fig. 12 fallback simulator:
    // an overloaded point (1 access/tRFC) guarantees cause-tagged events.
    let _ = simulate_traced(
        &FallbackConfig {
            accesses_per_trfc: 1,
            duration: Nanos::from_ms(20),
            ..FallbackConfig::default()
        },
        registry,
    );
    let _ = simulate_traced(
        &FallbackConfig {
            duration: Nanos::from_ms(20),
            ..FallbackConfig::default()
        },
        registry,
    );

    // Co-run interference gauges for every compared mode.
    let mix = JobMix::memory_sensitive_eight();
    let cfg = CorunConfig::default();
    for mode in [
        SfmMode::None,
        SfmMode::BaselineCpu,
        SfmMode::HostLockoutNma,
        SfmMode::Xfm,
    ] {
        let _ = evaluate_traced(&mix, mode, &cfg, registry);
    }

    Ok(registry.snapshot())
}

/// Cold-scan, demote, and restore a working set through an attached
/// [`XfmSystem`]: fills the swap in/out histograms, executes real NMA
/// offloads (publishing the rank-utilization gauges), and leaves
/// cold-scan plus per-page events on the lifecycle trail.
fn swap_path_exercise(registry: &Registry) -> Result<()> {
    let mut sys = XfmSystem::new(XfmConfig {
        scan: ColdScanConfig {
            cold_threshold: Nanos::from_secs(1),
            scan_batch: 0,
        },
        backend: XfmBackendConfig {
            // Stripe over two DIMMs so the exported snapshot carries
            // genuinely per-rank utilization gauges.
            n_dimms: 2,
            ..XfmBackendConfig::default()
        },
    });
    sys.attach_telemetry(registry);

    for p in 0..EXERCISE_PAGES {
        sys.controller_mut()
            .touch(xfm_types::PageNumber::new(p), Nanos::ZERO);
    }
    let scan_at = Nanos::from_secs(2);
    sys.advance_to(scan_at);
    let cold = sys.scan_cold(scan_at);
    for page in &cold {
        let data = Corpus::Json.generate(page.index(), PAGE_SIZE);
        sys.backend().swap_out(*page, &data)?;
    }
    // Let the refresh calendar run so offloads complete and the drivers
    // publish per-rank window-utilization gauges.
    sys.advance_to(Nanos::from_secs(3));
    for page in &cold {
        let (restored, _) = sys.backend().swap_in(*page, false)?;
        debug_assert_eq!(restored.len(), PAGE_SIZE);
    }
    sys.advance_to(Nanos::from_secs(4));
    Ok(())
}

/// Drives page-sized transfers through the cycle-accurate DRAM model and
/// records each completion's modeled latency into
/// `xfm_dram_access_latency_ns`.
fn dram_drive(registry: &Registry) -> Result<()> {
    let hist = registry.histogram("xfm_dram_access_latency_ns");
    let mut mem = MemSystem::new(
        DramTimings::paper_emulator(),
        SystemGeometry::paper_testbed(),
    );
    let mut at = Nanos::ZERO;
    for i in 0..DRAM_PAGES {
        // Stride across the address space so the drive touches several
        // banks and both row hits and misses appear in the histogram.
        let base = PhysAddr::new(i * 7 * PAGE_SIZE as u64);
        let mut last = at;
        for c in mem.access_page(base, i % 2 == 1, at)? {
            hist.record(c.latency.as_ns());
            last = last.max(c.finish);
        }
        at = last;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_meets_the_acceptance_bar() {
        let registry = Registry::new();
        let s = collect(&registry).unwrap();
        // Nonzero swap-out/swap-in latency histograms with quantiles.
        for name in ["xfm_swap_out_latency_ns", "xfm_swap_in_latency_ns"] {
            let h = &s.histograms[name];
            assert!(h.count > 0, "{name} empty");
            assert!(h.p50 > 0, "{name} p50");
            assert!(h.p99 >= h.p50, "{name} p99 < p50");
        }
        // Per-rank refresh-window utilization gauges in [0, 1].
        let utils: Vec<f64> = s
            .gauges
            .iter()
            .filter(|(k, _)| k.starts_with("xfm_refresh_window_utilization{rank="))
            .map(|(_, &v)| v)
            .collect();
        assert!(utils.len() >= 2, "expected per-rank utilization gauges");
        assert!(utils.iter().all(|u| (0.0..=1.0).contains(u)));
        // Lifecycle events on the trail, and the DRAM model histogram.
        assert!(!s.events.is_empty());
        assert!(s.histograms["xfm_dram_access_latency_ns"].count > 0);
        // The sim layers contributed their series too.
        assert!(s.counters["xfm_sim_nma_completed_total"] > 0);
        assert!(s
            .gauges
            .contains_key(r#"xfm_corun_mean_slowdown{mode="XFM"}"#));
    }

    #[test]
    fn snapshot_renders_to_both_formats() {
        let registry = Registry::new();
        let s = collect(&registry).unwrap();
        let json = s.to_json();
        assert!(json.contains("\"xfm_swap_outs_total\""));
        let prom = s.to_prometheus();
        assert!(prom.contains("# TYPE xfm_swap_outs_total counter"));
    }
}
