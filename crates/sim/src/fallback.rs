//! The CPU-fallback sensitivity engine (paper Fig. 12).
//!
//! Simulates one XFM DIMM's refresh-window service loop against a bursty
//! swap arrival process and counts how often the driver must fall back
//! to the CPU. Swept inputs (matching the figure): SPM size, accesses
//! per `tRFC`, and promotion rate.
//!
//! Modeling choices (documented in `DESIGN.md`):
//!
//! - Window service capacity is counted in *bytes* —
//!   `accesses_per_trfc × 4096` per window — so sub-page compressed
//!   write-backs batch naturally, as the paper's SPM-drain design
//!   implies.
//! - Demotions and prefetched promotions are *flexible*: the controller
//!   aligns them to the refresh calendar (conditional accesses). Demand
//!   promotions are *urgent*: they need a random access (at most
//!   `max_random_per_trfc` per window, methodology: 1) and spill to the
//!   CPU after a short deadline.
//! - Swap traffic arrives in bursts (the page scanner emits batches;
//!   §3.2 calls the traffic "bursty"), which is what makes SPM capacity
//!   matter.
//! - Every admitted offload holds an SPM reservation from admission to
//!   write-back completion; admission fails (→ CPU fallback) when the
//!   SPM cannot cover it.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use xfm_dram::geometry::DeviceGeometry;
use xfm_dram::timing::{DramTimings, REFS_PER_RETENTION};
use xfm_event::{EventQueue, VirtualClock};
use xfm_telemetry::lifecycle::NO_SHARD;
use xfm_telemetry::{Cause, Counter, LifecycleStage, Registry};
use xfm_types::{ByteSize, Nanos, PAGE_SIZE};

/// Sweep-point configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FallbackConfig {
    /// SFM far-memory capacity (512 GB in the paper).
    pub sfm_capacity: ByteSize,
    /// Promotion rate (Fig. 12 uses 50% and 100%).
    pub promotion_rate: f64,
    /// DIMMs sharing the swap traffic (4 channels x 2 DIMMs).
    pub n_dimms: u32,
    /// SPM capacity (the x-axis).
    pub spm_capacity: ByteSize,
    /// NMA accesses that fit in one `tRFC` (panels: 1, 2, 3).
    pub accesses_per_trfc: u32,
    /// Random accesses allowed per window (methodology: 1).
    pub max_random_per_trfc: u32,
    /// Average compression ratio of swapped pages.
    pub compression_ratio: f64,
    /// Fraction of promotions predicted by the controller (prefetches).
    pub prefetch_accuracy: f64,
    /// Pages per scanner burst.
    pub burst_pages: u32,
    /// Compress_Request_Queue depth (pending read descriptors).
    pub queue_capacity: usize,
    /// Windows of controller alignment lookahead: flexible operations
    /// are scheduled onto refresh slots at most this far ahead (the
    /// scanner prefers cold pages whose rows refresh soon).
    pub alignment_lookahead: u32,
    /// Windows an urgent op may wait before spilling.
    pub urgent_max_wait: u64,
    /// DRAM timings (sets `tREFI`).
    pub timings: DramTimings,
    /// Device geometry (subarray-conflict probability).
    pub geometry: DeviceGeometry,
    /// Simulated duration.
    pub duration: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FallbackConfig {
    /// The paper's §8 setup at a 100% promotion rate with the 2 MiB
    /// prototype SPM and 3 accesses per window.
    fn default() -> Self {
        Self {
            sfm_capacity: ByteSize::from_gib(512),
            promotion_rate: 1.0,
            n_dimms: 8,
            spm_capacity: ByteSize::from_mib(2),
            accesses_per_trfc: 3,
            max_random_per_trfc: 1,
            compression_ratio: 2.5,
            prefetch_accuracy: 0.8,
            burst_pages: 2048,
            queue_capacity: 8192,
            alignment_lookahead: 512,
            urgent_max_wait: 16,
            timings: DramTimings::paper_emulator(),
            geometry: DeviceGeometry::ddr4_8gb(),
            duration: Nanos::from_ms(200),
            seed: 0x0f0f_1234,
        }
    }
}

impl FallbackConfig {
    /// Returns a copy with `prefetch_accuracy` replaced by the
    /// *measured* accuracy of a live predictor
    /// ([`xfm_sfm::PredictorStats::accuracy`]), clamped to `[0, 1]`.
    ///
    /// The hand-set `prefetch_accuracy` constant stays the default (and
    /// remains an explicit override): a config that never calls this
    /// method simulates bit-identically to earlier revisions, which is
    /// what the replay gate pins. Calling it wires Fig. 12 replay to
    /// what the predictor actually achieved on a fault stream.
    #[must_use]
    pub fn with_measured_accuracy(self, stats: &xfm_sfm::PredictorStats) -> Self {
        Self {
            prefetch_accuracy: stats.accuracy().clamp(0.0, 1.0),
            ..self
        }
    }

    /// Swap operations per second per DIMM, per direction (EQ1 scaled
    /// down to one DIMM).
    #[must_use]
    pub fn ops_per_sec_per_dimm(&self) -> f64 {
        self.sfm_capacity.as_gib_f64() * self.promotion_rate / 60.0 * 1e9
            / PAGE_SIZE as f64
            / f64::from(self.n_dimms)
    }

    /// Offered service load as a fraction of the window byte budget.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let per_op_bytes = 2.0 * (PAGE_SIZE as f64 * (1.0 + 1.0 / self.compression_ratio));
        let bytes_per_sec = self.ops_per_sec_per_dimm() * per_op_bytes;
        let budget_per_sec = f64::from(self.accesses_per_trfc) * PAGE_SIZE as f64
            / self.timings.t_refi.as_secs_f64();
        bytes_per_sec / budget_per_sec
    }
}

/// Simulation outcome for one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FallbackReport {
    /// Swap operations that completed on the NMA.
    pub completed: u64,
    /// Operations that fell back to the CPU.
    pub fallbacks: u64,
    /// DRAM accesses served conditionally.
    pub conditional_accesses: u64,
    /// DRAM accesses served randomly.
    pub random_accesses: u64,
    /// Peak SPM occupancy observed.
    pub spm_high_water: ByteSize,
    /// Random-access attempts deferred by subarray conflicts.
    pub subarray_conflicts: u64,
}

impl FallbackReport {
    /// Fraction of swap operations that fell back to the CPU (Fig. 12's
    /// y-axis).
    #[must_use]
    pub fn fallback_fraction(&self) -> f64 {
        let total = self.completed + self.fallbacks;
        if total == 0 {
            0.0
        } else {
            self.fallbacks as f64 / total as f64
        }
    }

    /// Share of served accesses that were conditional.
    #[must_use]
    pub fn conditional_fraction(&self) -> f64 {
        let total = self.conditional_accesses + self.random_accesses;
        if total == 0 {
            0.0
        } else {
            self.conditional_accesses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpPhase {
    Read,
    WriteBack,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    phase: OpPhase,
    /// Bytes of the current phase's DRAM access.
    bytes: u32,
    /// Bytes of the write-back phase (after the read completes).
    writeback_bytes: u32,
    /// SPM bytes currently reserved.
    reserved: u32,
    /// Window the op entered its current queue.
    since: u64,
}

/// Per-cause fallback telemetry (the replacement for the old stdout
/// sweep probe): each CPU fallback and deferral is attributed to its
/// structural hazard, and individual events land on the lifecycle trail
/// with `page` = the refresh window and `aux` = the simulated time in ns.
struct FallbackTelemetry {
    queue_full: Arc<Counter>,
    spm_exhausted: Arc<Counter>,
    deadline_spills: Arc<Counter>,
    subarray_conflicts: Arc<Counter>,
    completed: Arc<Counter>,
    registry: Registry,
}

impl FallbackTelemetry {
    fn new(registry: &Registry) -> Self {
        Self {
            queue_full: registry.counter("xfm_sim_queue_full_fallbacks_total"),
            spm_exhausted: registry.counter("xfm_sim_spm_exhausted_stalls_total"),
            deadline_spills: registry.counter("xfm_sim_deadline_spills_total"),
            subarray_conflicts: registry.counter("xfm_sim_subarray_conflicts_total"),
            completed: registry.counter("xfm_sim_nma_completed_total"),
            registry: registry.clone(),
        }
    }

    fn event(&self, stage: LifecycleStage, window: u64, at_ns: u64, cause: Cause) {
        self.registry
            .lifecycle()
            .record(stage, cause, window, NO_SHARD, at_ns, 0);
    }
}

/// Runs the sweep-point simulation.
///
/// # Examples
///
/// ```
/// use xfm_sim::fallback::{simulate, FallbackConfig};
/// use xfm_types::{ByteSize, Nanos};
///
/// let report = simulate(&FallbackConfig {
///     spm_capacity: ByteSize::from_mib(8),
///     duration: Nanos::from_ms(50),
///     ..FallbackConfig::default()
/// });
/// // 8 MiB of SPM at 3 accesses/tRFC: (almost) no CPU fallbacks.
/// assert!(report.fallback_fraction() < 0.01);
/// ```
#[must_use]
pub fn simulate(cfg: &FallbackConfig) -> FallbackReport {
    simulate_inner(cfg, None)
}

/// Runs the sweep-point simulation with per-cause telemetry on
/// `registry`: counters `xfm_sim_queue_full_fallbacks_total`,
/// `xfm_sim_spm_exhausted_stalls_total`, `xfm_sim_deadline_spills_total`,
/// `xfm_sim_subarray_conflicts_total`, and `xfm_sim_nma_completed_total`,
/// plus cause-tagged events on the lifecycle trail. The report is
/// identical to [`simulate`] for the same configuration.
#[must_use]
pub fn simulate_traced(cfg: &FallbackConfig, registry: &Registry) -> FallbackReport {
    simulate_inner(cfg, Some(registry))
}

/// The three periodic processes of the Fig. 12 simulation, as events on
/// the shared discrete-event queue. Each is self-rescheduling; FIFO
/// tie-breaking at a shared timestamp preserves the service order (and
/// therefore the exact RNG draw sequence) of the old per-window loop:
/// demotion arrivals, then promotion arrivals, then window service.
#[derive(Debug, Clone, Copy)]
enum SimEvent {
    /// Scanner demotion burst at window `w` (compress direction).
    DemotionBurst { w: u64 },
    /// Prefetched-promotion burst at window `w` (decompress direction).
    PromotionBurst { w: u64 },
    /// Refresh-window service (demand sampling + budgeted access service)
    /// for window `w`.
    WindowService { w: u64 },
}

/// All mutable simulation state shared by the event handlers.
struct SimState<'a> {
    cfg: &'a FallbackConfig,
    telemetry: Option<FallbackTelemetry>,
    rng: StdRng,
    by_slot: Vec<std::collections::VecDeque<Op>>,
    random_q: std::collections::VecDeque<Op>,
    spm_cap: u64,
    spm_used: u64,
    queue_len: usize,
    report: FallbackReport,
    high_water: u64,
    // Derived parameters.
    demand_rate: f64,
    wb_bytes: u32,
    p_conflict: f64,
    lookahead: u64,
    t_refi_ns: u64,
}

impl SimState<'_> {
    fn admit_flexible(&mut self, w: u64, read_bytes: u32, writeback_bytes: u32) {
        let slots = REFS_PER_RETENTION as usize;
        if self.queue_len >= self.cfg.queue_capacity {
            self.report.fallbacks += 1;
            if let Some(t) = &self.telemetry {
                t.queue_full.inc();
                t.event(
                    LifecycleStage::Compress,
                    w,
                    w * self.t_refi_ns,
                    Cause::QueueFull,
                );
            }
            return;
        }
        self.queue_len += 1;
        let slot = (w as usize + 1 + self.rng.gen_range(0..self.lookahead as usize)) % slots;
        self.by_slot[slot].push_back(Op {
            phase: OpPhase::Read,
            bytes: read_bytes,
            writeback_bytes,
            reserved: 0,
            since: w,
        });
    }

    /// Demotion burst: `burst_pages` compress offloads (read a page,
    /// write back compressed), each aligned to a refresh slot within the
    /// lookahead horizon.
    fn demotion_burst(&mut self, w: u64) {
        for _ in 0..self.cfg.burst_pages {
            self.admit_flexible(w, PAGE_SIZE as u32, self.wb_bytes);
        }
    }

    /// Prefetched-promotion burst: decompress offloads (read compressed,
    /// write back the page).
    fn promotion_burst(&mut self, w: u64) {
        let count = (f64::from(self.cfg.burst_pages) * self.cfg.prefetch_accuracy).round() as u32;
        for _ in 0..count {
            self.admit_flexible(w, self.wb_bytes, PAGE_SIZE as u32);
        }
    }

    /// One refresh window's worth of work: demand-promotion arrivals,
    /// random service, conditional service, re-alignment, deadline
    /// spills.
    fn window_service(&mut self, w: u64) {
        let slots = REFS_PER_RETENTION as usize;
        let ref_idx = (w % REFS_PER_RETENTION) as usize;
        let now_ns = w * self.t_refi_ns;

        // Demand promotions: Poisson, urgent (random accesses).
        let mut demand = 0u32;
        {
            // Knuth Poisson sampling (rates here are << 10).
            let l = (-self.demand_rate).exp();
            let mut p = 1.0;
            loop {
                p *= self.rng.gen::<f64>();
                if p <= l {
                    break;
                }
                demand += 1;
            }
        }
        for _ in 0..demand {
            if self.queue_len >= self.cfg.queue_capacity {
                self.report.fallbacks += 1;
                if let Some(t) = &self.telemetry {
                    t.queue_full.inc();
                    t.event(LifecycleStage::Fault, w, now_ns, Cause::QueueFull);
                }
                continue;
            }
            self.queue_len += 1;
            self.random_q.push_back(Op {
                phase: OpPhase::Read,
                bytes: self.wb_bytes,
                writeback_bytes: PAGE_SIZE as u32,
                reserved: 0,
                since: w,
            });
        }

        // --- Service ---------------------------------------------------
        let mut budget = u64::from(self.cfg.accesses_per_trfc) * PAGE_SIZE as u64;
        let mut random_left = self.cfg.max_random_per_trfc;

        // Random service for urgent (demand) ops runs first — they are
        // latency-critical, unlike the flexible demotion/prefetch work
        // (subarray conflicts defer to the next window).
        while random_left > 0 {
            let Some(op) = self.random_q.front().copied() else {
                break;
            };
            if u64::from(op.bytes) > budget {
                break;
            }
            if self.rng.gen::<f64>() < self.p_conflict {
                self.report.subarray_conflicts += 1;
                if let Some(t) = &self.telemetry {
                    t.subarray_conflicts.inc();
                    t.event(LifecycleStage::Fetch, w, now_ns, Cause::SubarrayConflict);
                }
                break; // conflicting op retries next window
            }
            match op.phase {
                OpPhase::Read => {
                    if self.spm_used + u64::from(op.writeback_bytes) > self.spm_cap {
                        break;
                    }
                    self.random_q.pop_front();
                    budget -= u64::from(op.bytes);
                    random_left -= 1;
                    self.report.random_accesses += 1;
                    self.queue_len -= 1;
                    self.spm_used += u64::from(op.writeback_bytes);
                    self.high_water = self.high_water.max(self.spm_used);
                    self.random_q.push_back(Op {
                        phase: OpPhase::WriteBack,
                        bytes: op.writeback_bytes,
                        writeback_bytes: 0,
                        reserved: op.writeback_bytes,
                        since: w,
                    });
                }
                OpPhase::WriteBack => {
                    self.random_q.pop_front();
                    budget -= u64::from(op.bytes);
                    random_left -= 1;
                    self.report.random_accesses += 1;
                    self.spm_used -= u64::from(op.reserved);
                    self.report.completed += 1;
                    if let Some(t) = &self.telemetry {
                        t.completed.inc();
                    }
                }
            }
        }

        // Conditional service of this slot's queue. SPM-stalled reads
        // step aside (no head-of-line blocking) and re-align below.
        let mut stalled: Vec<Op> = Vec::new();
        while let Some(op) = self.by_slot[ref_idx].front().copied() {
            if u64::from(op.bytes) > budget {
                break;
            }
            match op.phase {
                OpPhase::Read => {
                    // The engine output must fit in the SPM before the
                    // read may execute.
                    if self.spm_used + u64::from(op.writeback_bytes) > self.spm_cap {
                        self.by_slot[ref_idx].pop_front();
                        stalled.push(op);
                        if let Some(t) = &self.telemetry {
                            t.spm_exhausted.inc();
                            t.event(LifecycleStage::ZpoolStore, w, now_ns, Cause::SpmExhausted);
                        }
                        continue; // SPM stall: skip, keep draining
                    }
                    self.by_slot[ref_idx].pop_front();
                    budget -= u64::from(op.bytes);
                    self.report.conditional_accesses += 1;
                    self.queue_len -= 1;
                    self.spm_used += u64::from(op.writeback_bytes);
                    self.high_water = self.high_water.max(self.spm_used);
                    let target =
                        (ref_idx + 1 + self.rng.gen_range(0..self.lookahead as usize)) % slots;
                    self.by_slot[target].push_back(Op {
                        phase: OpPhase::WriteBack,
                        bytes: op.writeback_bytes,
                        writeback_bytes: 0,
                        reserved: op.writeback_bytes,
                        since: w,
                    });
                }
                OpPhase::WriteBack => {
                    self.by_slot[ref_idx].pop_front();
                    budget -= u64::from(op.bytes);
                    self.report.conditional_accesses += 1;
                    self.spm_used -= u64::from(op.reserved);
                    self.report.completed += 1;
                    if let Some(t) = &self.telemetry {
                        t.completed.inc();
                    }
                }
            }
        }
        // Missed flexible work re-aligns to an upcoming slot (the
        // controller simply picks the candidate again later).
        for op in stalled.drain(..) {
            let target = (ref_idx + 1 + self.rng.gen_range(0..16)) % slots;
            self.by_slot[target].push_back(op);
        }
        while let Some(op) = self.by_slot[ref_idx].pop_front() {
            let target = (ref_idx + 1 + self.rng.gen_range(0..16)) % slots;
            self.by_slot[target].push_back(op);
        }

        // Deadline spills for urgent ops still waiting for a read.
        while let Some(op) = self.random_q.front().copied() {
            if w.saturating_sub(op.since) < self.cfg.urgent_max_wait {
                break;
            }
            self.random_q.pop_front();
            if op.phase == OpPhase::Read {
                self.queue_len -= 1;
            } else {
                self.spm_used -= u64::from(op.reserved);
            }
            self.report.fallbacks += 1;
            if let Some(t) = &self.telemetry {
                t.deadline_spills.inc();
                t.event(LifecycleStage::Fault, w, now_ns, Cause::DeadlineSpill);
            }
        }
    }
}

fn simulate_inner(cfg: &FallbackConfig, registry: Option<&Registry>) -> FallbackReport {
    let windows = cfg.duration.periods(cfg.timings.t_refi);
    let slots = REFS_PER_RETENTION as usize;

    // Arrival processes.
    let ops_per_window = cfg.ops_per_sec_per_dimm() * cfg.timings.t_refi.as_secs_f64();
    let burst_interval = (f64::from(cfg.burst_pages) / ops_per_window).max(1.0) as u64;
    let promote_offset = burst_interval / 2;
    let t_refi = cfg.timings.t_refi;

    let mut state = SimState {
        cfg,
        telemetry: registry.map(FallbackTelemetry::new),
        rng: StdRng::seed_from_u64(cfg.seed),
        by_slot: vec![std::collections::VecDeque::new(); slots],
        random_q: std::collections::VecDeque::new(),
        // SPM holds engine outputs awaiting write-back; the request queue
        // holds read descriptors awaiting their refresh slots.
        spm_cap: cfg.spm_capacity.as_bytes(),
        spm_used: 0,
        queue_len: 0,
        report: FallbackReport {
            completed: 0,
            fallbacks: 0,
            conditional_accesses: 0,
            random_accesses: 0,
            spm_high_water: ByteSize::ZERO,
            subarray_conflicts: 0,
        },
        high_water: 0,
        demand_rate: ops_per_window * (1.0 - cfg.prefetch_accuracy),
        wb_bytes: (PAGE_SIZE as f64 / cfg.compression_ratio) as u32,
        p_conflict: f64::from(cfg.geometry.rows_per_ref())
            / f64::from(cfg.geometry.subarrays_per_bank()),
        lookahead: cfg.alignment_lookahead.max(1) as u64,
        t_refi_ns: t_refi.as_ns(),
    };

    // The shared discrete-event core drives all three periodic processes
    // off one queue and one virtual clock. Seeding order at t=0 (and the
    // self-rescheduling order at every later shared timestamp) fixes the
    // FIFO tie-break to demotion → promotion → service.
    let mut queue: EventQueue<SimEvent> = EventQueue::new();
    let mut clock = VirtualClock::new();
    if windows > 0 {
        queue.push(Nanos::ZERO, SimEvent::DemotionBurst { w: 0 });
        // First window w with (w + promote_offset) % burst_interval == 0.
        let first_promote = (burst_interval - promote_offset) % burst_interval;
        if first_promote < windows {
            queue.push(
                t_refi * first_promote,
                SimEvent::PromotionBurst { w: first_promote },
            );
        }
        queue.push(Nanos::ZERO, SimEvent::WindowService { w: 0 });
    }
    while let Some(ev) = queue.pop() {
        clock.advance_to(ev.at);
        match ev.payload {
            SimEvent::DemotionBurst { w } => {
                state.demotion_burst(w);
                let next = w + burst_interval;
                if next < windows {
                    queue.push(t_refi * next, SimEvent::DemotionBurst { w: next });
                }
            }
            SimEvent::PromotionBurst { w } => {
                state.promotion_burst(w);
                let next = w + burst_interval;
                if next < windows {
                    queue.push(t_refi * next, SimEvent::PromotionBurst { w: next });
                }
            }
            SimEvent::WindowService { w } => {
                state.window_service(w);
                let next = w + 1;
                if next < windows {
                    queue.push(t_refi * next, SimEvent::WindowService { w: next });
                }
            }
        }
    }

    let mut report = state.report;
    report.spm_high_water = ByteSize::from_bytes(state.high_water);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FallbackConfig {
        FallbackConfig {
            duration: Nanos::from_ms(100),
            ..FallbackConfig::default()
        }
    }

    #[test]
    fn measured_accuracy_overrides_only_the_accuracy_knob() {
        let base = cfg();
        let stats = xfm_sfm::PredictorStats {
            observed: 100,
            hits: 95,
            predictions: 100,
        };
        let wired = base.with_measured_accuracy(&stats);
        assert!((wired.prefetch_accuracy - 0.95).abs() < 1e-12);
        // Every other knob is untouched, and a config that never calls
        // the method keeps the hand-set constant (the replay gate's
        // bit-identical path).
        assert_eq!(
            FallbackConfig {
                prefetch_accuracy: base.prefetch_accuracy,
                ..wired
            },
            base
        );
        assert!((cfg().prefetch_accuracy - 0.8).abs() < 1e-12);
    }

    #[test]
    fn utilization_math_matches_footnote() {
        // 100% PR on 512 GB: 8.5 GB/s per direction; with ratio 2.5 and
        // 3 accesses/tRFC the per-DIMM service load sits just below 1.
        let c = cfg();
        let u = c.utilization();
        assert!((0.85..1.0).contains(&u), "{u}");
        // One access per window is hopelessly overloaded.
        let c1 = FallbackConfig {
            accesses_per_trfc: 1,
            ..c
        };
        assert!(c1.utilization() > 2.0);
    }

    #[test]
    fn eight_mib_spm_eliminates_fallbacks_at_three_accesses() {
        // Fig. 12: "regardless of the promotion rate, an 8MB SPM can
        // eliminate all CPU fall backs for an XFM implementation that
        // accommodates 3 NMA accesses per REF command."
        for pr in [0.5, 1.0] {
            let report = simulate(&FallbackConfig {
                spm_capacity: ByteSize::from_mib(8),
                promotion_rate: pr,
                ..cfg()
            });
            assert!(
                report.fallback_fraction() < 0.01,
                "PR {pr}: fallback {}",
                report.fallback_fraction()
            );
        }
    }

    #[test]
    fn one_access_per_window_cannot_keep_up() {
        let report = simulate(&FallbackConfig {
            accesses_per_trfc: 1,
            spm_capacity: ByteSize::from_mib(16),
            ..cfg()
        });
        assert!(
            report.fallback_fraction() > 0.3,
            "fallback {}",
            report.fallback_fraction()
        );
    }

    #[test]
    fn fallbacks_decrease_with_spm_size() {
        let mut prev = f64::INFINITY;
        for mib in [1u64, 2, 4, 8] {
            let report = simulate(&FallbackConfig {
                spm_capacity: ByteSize::from_mib(mib),
                ..cfg()
            });
            let f = report.fallback_fraction();
            assert!(f <= prev + 0.02, "{mib} MiB: {f} > prev {prev}");
            prev = f;
        }
    }

    #[test]
    fn majority_of_accesses_are_conditional() {
        // §8: "the majority of accesses can be accommodated with
        // conditional accesses."
        let report = simulate(&FallbackConfig {
            spm_capacity: ByteSize::from_mib(8),
            ..cfg()
        });
        assert!(
            report.conditional_fraction() > 0.7,
            "conditional {}",
            report.conditional_fraction()
        );
    }

    #[test]
    fn random_share_scales_with_promotion_rate() {
        // §8: "the rate of random accesses is shown to scale with the
        // promotion rate."
        let low = simulate(&FallbackConfig {
            promotion_rate: 0.25,
            spm_capacity: ByteSize::from_mib(8),
            ..cfg()
        });
        let high = simulate(&FallbackConfig {
            promotion_rate: 1.0,
            spm_capacity: ByteSize::from_mib(8),
            ..cfg()
        });
        assert!(high.random_accesses > low.random_accesses);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate(&cfg());
        let b = simulate(&cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn spm_high_water_bounded_by_capacity() {
        let c = cfg();
        let report = simulate(&c);
        assert!(report.spm_high_water <= c.spm_capacity);
    }
}

#[cfg(test)]
mod probe {
    use super::*;

    /// The old stdout sweep probe, rebuilt on telemetry: instead of
    /// printing per-point numbers for eyeballing, each sweep point runs
    /// traced and the per-cause counters must reconstruct the report.
    #[test]
    fn traced_sweep_attributes_every_fallback() {
        for (acc, mib) in [(1u32, 16u64), (3, 1), (3, 8)] {
            let c = FallbackConfig {
                accesses_per_trfc: acc,
                spm_capacity: xfm_types::ByteSize::from_mib(mib),
                duration: Nanos::from_ms(50),
                ..FallbackConfig::default()
            };
            let registry = Registry::new();
            let r = simulate_traced(&c, &registry);
            let s = registry.snapshot();
            // Every fallback is either a queue rejection or a deadline
            // spill; deferrals (SPM stalls, subarray conflicts) retry
            // and are counted separately.
            assert_eq!(
                s.counters["xfm_sim_queue_full_fallbacks_total"]
                    + s.counters["xfm_sim_deadline_spills_total"],
                r.fallbacks,
                "acc={acc} spm={mib}MiB"
            );
            assert_eq!(s.counters["xfm_sim_nma_completed_total"], r.completed);
            assert_eq!(
                s.counters["xfm_sim_subarray_conflicts_total"],
                r.subarray_conflicts
            );
        }
    }

    #[test]
    fn traced_run_matches_untraced_report() {
        let c = FallbackConfig {
            duration: Nanos::from_ms(50),
            ..FallbackConfig::default()
        };
        let registry = Registry::new();
        assert_eq!(simulate(&c), simulate_traced(&c, &registry));
        // An overloaded point leaves cause-tagged events on the trail.
        let overloaded = FallbackConfig {
            accesses_per_trfc: 1,
            ..c
        };
        let _ = simulate_traced(&overloaded, &registry);
        let s = registry.snapshot();
        assert!(s
            .events
            .iter()
            .any(|e| matches!(e.cause, Cause::DeadlineSpill | Cause::QueueFull)));
    }
}
