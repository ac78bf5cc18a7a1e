//! Causal trace plane tour: the page-lifecycle audit trail, Chrome
//! trace export, and the post-mortem flight recorder.
//!
//! Run with: `cargo run --example lifecycle_trace`
//!
//! Part 1 drives a healthy swap loop and reconstructs one page's full
//! story (cold-scan → codec route → compress → store → fault → fetch →
//! decompress) from the always-on audit trail, then exports the whole
//! trail as Chrome `trace_event` JSON (open it in Perfetto or
//! `chrome://tracing`).
//!
//! Part 2 arms a seeded fault storm with a flight recorder attached:
//! when the backend exhausts its retries or changes degraded mode, the
//! recorder dumps the events leading up to the incident as a
//! post-mortem JSON file — the "what was the system doing right before
//! it fell over" answer, captured automatically.

use std::sync::Arc;

use xfm::compress::Corpus;
use xfm::core::backend::{XfmBackend, XfmBackendConfig};
use xfm::faults::{FaultPlan, FaultSite, RetryPolicy, SiteSpec};
use xfm::sfm::backend::{SfmConfig, SwapPlane};
use xfm::telemetry::{chrome, flight, FlightRecorder, FlightRecorderConfig, Registry};
use xfm::types::{ByteSize, Nanos, PageNumber, PAGE_SIZE};

fn backend() -> XfmBackend {
    XfmBackend::new(XfmBackendConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(8),
            ..SfmConfig::default()
        },
        ..XfmBackendConfig::default()
    })
}

fn main() {
    let out_dir = std::env::temp_dir().join(format!("xfm-lifecycle-{}", std::process::id()));
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    // ── Part 1: the audit trail on a healthy run ────────────────────
    let registry = Registry::new();
    let mut backend_healthy = backend();
    backend_healthy.attach_telemetry(&registry);

    let mut now = Nanos::from_ms(1);
    backend_healthy.advance_to(now);
    for round in 0..3u64 {
        for i in 0..16u64 {
            let data = Corpus::all()[(i % 16) as usize].generate(i ^ round, PAGE_SIZE);
            backend_healthy
                .swap_out(PageNumber::new(i), &data)
                .expect("swap out");
        }
        for i in 0..16u64 {
            backend_healthy
                .swap_in(PageNumber::new(i), i % 2 == 0)
                .expect("swap in");
        }
        // A full refresh calendar, so every offload meets its window.
        now += Nanos::from_ms(70);
        backend_healthy.advance_to(now);
    }

    let trail = registry.lifecycle();
    println!("== the story of page 2 (JSON corpus), from the always-on audit trail ==");
    for ev in trail.page_history(2) {
        println!(
            "  seq {:>4}  virt {:>12} ns  {:<16} {:<18} aux {:>6}  dur {:>7} ns",
            ev.seq,
            ev.virt_ns,
            ev.stage.name(),
            ev.cause.name(),
            ev.aux,
            ev.dur_ns
        );
    }
    println!(
        "trail: {} recorded, {} dropped (ring capacity bounds memory, never the hot path)",
        trail.recorded(),
        trail.dropped()
    );

    let trace_path = out_dir.join("trace.json");
    let events = trail.snapshot();
    let trace = chrome::to_chrome_trace(&events);
    std::fs::write(&trace_path, &trace).expect("write trace");
    let validated = chrome::validate_chrome_trace(&trace).expect("trace must round-trip");
    println!(
        "\nChrome trace: {} events -> {} (open in Perfetto / chrome://tracing)\n",
        validated,
        trace_path.display()
    );

    // ── Part 2: the flight recorder under a fault storm ─────────────
    let registry = Registry::new();
    let mut backend_stormy = backend();
    backend_stormy.attach_telemetry(&registry);
    backend_stormy.set_retry_policy(RetryPolicy::default());

    let plan = FaultPlan::new(0xB0A7)
        .with_site(FaultSite::NmaEngineTimeout, SiteSpec::with_probability(0.6))
        .with_site(FaultSite::SpmExhaustion, SiteSpec::with_probability(0.6))
        .with_site(
            FaultSite::RefreshWindowMiss,
            SiteSpec::with_probability(0.9),
        );
    let mut injector = xfm::faults::FaultInjector::new(&plan);
    injector.attach_telemetry(&registry);
    backend_stormy.attach_faults(Arc::new(injector));

    let recorder = Arc::new(FlightRecorder::new(
        &registry,
        FlightRecorderConfig::new(out_dir.clone()),
    ));
    backend_stormy.attach_flight_recorder(Arc::clone(&recorder));

    let mut now = Nanos::from_ms(1);
    backend_stormy.advance_to(now);
    println!("== same loop under a fault storm, flight recorder armed ==");
    for i in 0..64u64 {
        let data = Corpus::all()[(i % 16) as usize].generate(i, PAGE_SIZE);
        if backend_stormy.swap_out(PageNumber::new(i), &data).is_err() {
            continue; // injected store failure; the entry was never recorded
        }
        now += Nanos::from_us(20);
        backend_stormy.advance_to(now);
    }

    println!(
        "storm result: mode {}, {} incidents, {} post-mortems dumped",
        backend_stormy.degraded_mode().name(),
        recorder.incidents(),
        recorder.dumps()
    );
    let mut dumps: Vec<_> = std::fs::read_dir(&out_dir)
        .expect("read out dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("xfm-postmortem-"))
        })
        .collect();
    dumps.sort();
    for path in &dumps {
        let text = std::fs::read_to_string(path).expect("read dump");
        let summary = flight::validate_dump(&text).expect("dump must validate");
        println!(
            "  {} — reason {}, {} events preserved",
            path.display(),
            summary.reason,
            summary.events
        );
    }
    assert!(
        recorder.dumps() == dumps.len() as u64,
        "every counted dump must exist on disk"
    );
    println!("\nartifacts left in {}", out_dir.display());
}
