//! Telemetry overhead acceptance check.
//!
//! The instrumented steady-state swap path must stay within 2% of the
//! uninstrumented zero-allocation throughput. Wall-clock benchmarks are
//! too noisy for CI, so this asserts the stronger structural property
//! that bounds the overhead: attaching telemetry adds **zero** heap
//! allocations per steady-state swap — every recording is a relaxed
//! atomic or a write into the preallocated lifecycle trail, leaving
//! only a handful of `Instant::now()` calls (tens of nanoseconds
//! against a multi-microsecond compression) as the cost.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count_allocs;
use xfm_core::backend::{XfmBackend, XfmBackendConfig};
use xfm_sfm::backend::SfmConfig;
use xfm_sfm::{CpuBackend, SwapPlane};
use xfm_telemetry::{LifecycleStage, Registry};
use xfm_types::{ByteSize, Nanos, PageNumber, PAGE_SIZE};

const WORKING_SET: u64 = 16;
const WARMUP_ROUNDS: u64 = 4;
const MEASURED_ROUNDS: u64 = 8;

fn pages() -> Vec<Vec<u8>> {
    (0..WORKING_SET)
        .map(|i| xfm_compress::Corpus::Json.generate(i, PAGE_SIZE))
        .collect()
}

/// One round: demote the working set, then fault it all back in. Each
/// round advances a full refresh calendar (~64 ms) so every flexible
/// offload reaches its row's refresh slot and the SPM drains — a
/// genuinely healthy steady state (no rejects, no degraded-mode churn),
/// which is the regime the zero-allocation guarantee is stated for.
fn round(b: &mut XfmBackend, pages: &[Vec<u8>], at: &mut Nanos) {
    *at += Nanos::from_ms(70);
    b.advance_to(*at);
    for (i, data) in pages.iter().enumerate() {
        b.swap_out(PageNumber::new(i as u64), data).unwrap();
    }
    for i in 0..pages.len() as u64 {
        b.swap_in(PageNumber::new(i), i % 2 == 0).unwrap();
    }
}

fn measure(b: &mut XfmBackend) -> u64 {
    let pages = pages();
    let mut at = Nanos::ZERO;
    for _ in 0..WARMUP_ROUNDS {
        round(b, &pages, &mut at);
    }
    let ((), allocs) = count_allocs(|| {
        for _ in 0..MEASURED_ROUNDS {
            round(b, &pages, &mut at);
        }
    });
    allocs
}

fn backend() -> XfmBackend {
    XfmBackend::new(XfmBackendConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(8),
            ..SfmConfig::default()
        },
        ..XfmBackendConfig::default()
    })
}

#[test]
fn attached_telemetry_adds_zero_steady_state_allocations() {
    let mut plain = backend();
    let plain_allocs = measure(&mut plain);

    let registry = Registry::new();
    let mut traced = backend();
    traced.attach_telemetry(&registry);
    let traced_allocs = measure(&mut traced);

    assert_eq!(
        traced_allocs, plain_allocs,
        "telemetry changed the steady-state allocation count"
    );
    // The instrumented run really did record.
    let s = registry.snapshot();
    assert_eq!(
        s.counters["xfm_swap_outs_total"],
        WORKING_SET * (WARMUP_ROUNDS + MEASURED_ROUNDS)
    );
    for stage in [LifecycleStage::Compress, LifecycleStage::Fault] {
        assert!(
            s.events.iter().any(|e| e.stage == stage),
            "no {stage:?} event on the trail"
        );
    }
}

/// The reusable-sink window advance (`advance_to_into`) must be
/// allocation-free at steady state: events land in the caller's reused
/// `Vec<SchedEvent>`, refreshed rows and retained urgent ops live in the
/// scheduler's internal scratch, and nothing else touches the heap.
#[test]
fn scheduler_reusable_sink_advance_allocates_zero_steady_state() {
    use xfm_core::sched::{AccessOp, SchedConfig, SchedEvent, WindowScheduler};
    use xfm_dram::{DeviceGeometry, DramTimings};
    use xfm_types::RowId;

    let timings = DramTimings::paper_emulator();
    let mut sched =
        WindowScheduler::new(SchedConfig::default(), timings, DeviceGeometry::ddr4_8gb());
    let mut events: Vec<SchedEvent> = Vec::new();
    let t_refi = timings.t_refi;
    let mut now = Nanos::ZERO;
    let mut id = 0u64;
    let mut served = 0usize;

    // One round: a burst of urgent ops, then sixteen windows of service
    // into the reused sink.
    let mut round = |sched: &mut WindowScheduler, events: &mut Vec<SchedEvent>| {
        let window = sched.window_index_at(now);
        for j in 0..8u64 {
            id += 1;
            sched.enqueue_urgent(AccessOp {
                id,
                row: RowId::new(((id * 37 + j) % 4096) as u32),
                is_write: j % 2 == 0,
                bytes: 4096,
                enqueued_window: window,
            });
        }
        now += t_refi * 16;
        sched.advance_to_into(now, events);
        served += events.len();
        events.clear();
    };

    for _ in 0..4 {
        round(&mut sched, &mut events);
    }
    let ((), allocs) = count_allocs(|| {
        for _ in 0..4 {
            round(&mut sched, &mut events);
        }
    });

    assert_eq!(allocs, 0, "steady-state advance_to_into touched the heap");
    assert!(served > 0, "rounds never produced scheduler events");
}

/// The full causal trace plane — lifecycle audit trail (recording into
/// the registry's preallocated seqlock ring) plus an armed flight
/// recorder — must also be allocation-free at steady state: the ring
/// write is a handful of relaxed atomics, and the recorder only touches
/// the heap when an incident actually fires, which a healthy swap loop
/// never does.
#[test]
fn lifecycle_trail_and_flight_recorder_add_zero_steady_state_allocations() {
    use std::sync::Arc;
    use xfm_telemetry::{FlightRecorder, FlightRecorderConfig};

    let mut plain = backend();
    let plain_allocs = measure(&mut plain);

    let registry = Registry::new();
    let mut traced = backend();
    traced.attach_telemetry(&registry);
    let dir = std::env::temp_dir().join(format!("xfm-overhead-fr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let recorder = Arc::new(FlightRecorder::new(
        &registry,
        FlightRecorderConfig::new(dir.clone()),
    ));
    traced.attach_flight_recorder(Arc::clone(&recorder));
    let traced_allocs = measure(&mut traced);

    assert_eq!(
        traced_allocs,
        plain_allocs,
        "audit trail + flight recorder changed the steady-state allocation count \
         (incidents {}, dumps {})",
        recorder.incidents(),
        recorder.dumps()
    );
    // The trail really captured the run...
    let trail = registry.lifecycle();
    assert!(
        trail.recorded() >= WORKING_SET * (WARMUP_ROUNDS + MEASURED_ROUNDS),
        "lifecycle trail recorded too few events: {}",
        trail.recorded()
    );
    // ...and the healthy loop never tripped an incident or wrote a dump.
    assert_eq!(recorder.incidents(), 0);
    assert_eq!(recorder.dumps(), 0);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cpu_backend_telemetry_adds_zero_steady_state_allocations() {
    fn cpu_round(b: &mut CpuBackend, pages: &[Vec<u8>]) {
        for (i, data) in pages.iter().enumerate() {
            b.swap_out(PageNumber::new(i as u64), data).unwrap();
        }
        for i in 0..pages.len() as u64 {
            b.swap_in(PageNumber::new(i), false).unwrap();
        }
    }
    fn cpu_measure(b: &mut CpuBackend) -> u64 {
        let pages = pages();
        for _ in 0..WARMUP_ROUNDS {
            cpu_round(b, &pages);
        }
        let ((), allocs) = count_allocs(|| {
            for _ in 0..MEASURED_ROUNDS {
                cpu_round(b, &pages);
            }
        });
        allocs
    }

    let mut plain = CpuBackend::new(SfmConfig {
        region_capacity: ByteSize::from_mib(8),
        ..SfmConfig::default()
    });
    let plain_allocs = cpu_measure(&mut plain);

    let registry = Registry::new();
    let mut traced = CpuBackend::new(SfmConfig {
        region_capacity: ByteSize::from_mib(8),
        ..SfmConfig::default()
    });
    traced.attach_telemetry(&registry);
    let traced_allocs = cpu_measure(&mut traced);

    assert_eq!(traced_allocs, plain_allocs);
}
