//! Demand-fault latency benchmark for the learned prefetch pipeline,
//! emitting machine-readable `BENCH_prefetch.json`.
//!
//! Four fault traces are replayed twice each — prefetching **on**
//! (hybrid predictor, pump after every fault, exactly what a
//! background prefetcher thread interleaves) and **off** (the engine
//! disabled, every fault pays the decompress) — and only the
//! `swap_in_into` call is timed. The pump, the re-swap-out that keeps
//! the working set cold, and all verification run off the clock, so
//! the numbers isolate what the fault path itself sees:
//!
//! - `scan` — a sequential sweep (stride 1);
//! - `stride` — a strided matrix walk (stride 3);
//! - `zipf-objects` — Zipfian popularity over large objects whose
//!   pages are touched sequentially (the AIFM-style far-memory shape);
//! - `pointer-chase` — a seeded random walk with no exploitable
//!   structure, included to show the precision gate refusing to
//!   speculate rather than thrashing the staging cache.
//!
//! A final section drives the UCB autotuner over the zipf trace in
//! epochs — applying each chosen arm's depth/threshold to the live
//! engine — and compares the latency it converges to against an
//! exhaustive sweep of every fixed arm. The comparison uses p50 over
//! each epoch (the median of a hit-dominated window is stable on a
//! noisy shared host where means are not; both sides use the same
//! estimator).
//!
//! Run with `cargo run --release -p xfm-bench --bin xfm-prefetch-bench`;
//! pass `--smoke` for the seconds-long self-validating variant
//! (`ci.sh --prefetch`) that writes to a temporary file instead of the
//! repo root.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use xfm_compress::Corpus;
use xfm_sfm::{
    AutoTuneConfig, AutoTuner, PrefetchConfig, PrefetchEngine, SfmConfig, ShardedSfm,
    ShardedSfmConfig, SwapPlane,
};
use xfm_telemetry::Registry;
use xfm_types::{ByteSize, PageNumber, PAGE_SIZE};

/// Workload shape; `smoke` shrinks it to a CI-friendly size.
#[derive(Clone, Copy)]
struct Workload {
    /// Pages per trace universe.
    pages: u64,
    /// Pages per Zipfian object (sequentially accessed).
    object_pages: u64,
    /// Timed faults per trace.
    faults: usize,
    /// Untimed warm-up faults before measurement starts.
    warmup: usize,
    /// Faults per autotuner epoch.
    epoch_faults: usize,
    /// Autotuner epochs (on top of one pull per arm).
    tune_epochs: usize,
}

const FULL: Workload = Workload {
    pages: 4096,
    object_pages: 384,
    faults: 8192,
    warmup: 1024,
    epoch_faults: 768,
    tune_epochs: 28,
};
const SMOKE: Workload = Workload {
    pages: 256,
    object_pages: 64,
    faults: 384,
    warmup: 128,
    epoch_faults: 96,
    tune_epochs: 3,
};

/// Compressible page contents only: the off arm must pay a real
/// decompress per fault, exactly as a production fault stream of heap
/// pages would (same-filled and raw-stored pages are near-free either
/// way and would only flatter the comparison).
fn page_contents(page: u64) -> Vec<u8> {
    match page % 3 {
        0 => Corpus::Json.generate(page, PAGE_SIZE),
        1 => Corpus::KeyValue.generate(page, PAGE_SIZE),
        _ => Corpus::LogLines.generate(page, PAGE_SIZE),
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Zipfian(s≈1) object index in `[0, objects)` via inverse-CDF over
/// precomputed cumulative weights.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(objects: usize) -> Self {
        let mut cdf = Vec::with_capacity(objects);
        let mut acc = 0.0;
        for i in 0..objects {
            acc += 1.0 / (i as f64 + 1.0);
            cdf.push(acc);
        }
        let total = acc;
        for w in &mut cdf {
            *w /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut u64) -> usize {
        let u = (xorshift(rng) >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The four fault traces, as explicit page sequences.
fn build_trace(name: &str, wl: Workload) -> Vec<u64> {
    let total = wl.warmup + wl.faults;
    let mut trace = Vec::with_capacity(total);
    match name {
        "scan" => {
            for i in 0..total as u64 {
                trace.push(i % wl.pages);
            }
        }
        "stride" => {
            for i in 0..total as u64 {
                trace.push((i * 3) % wl.pages);
            }
        }
        "zipf-objects" => {
            let objects = (wl.pages / wl.object_pages).max(1) as usize;
            let zipf = Zipf::new(objects);
            let mut rng = 0x00D1_5EA5_EDB0_0B5Eu64;
            while trace.len() < total {
                let o = zipf.sample(&mut rng) as u64;
                for p in 0..wl.object_pages {
                    trace.push(o * wl.object_pages + p);
                    if trace.len() == total {
                        break;
                    }
                }
            }
        }
        "pointer-chase" => {
            let mut rng = 0xDEAD_BEEF_CAFE_F00Du64;
            for _ in 0..total {
                trace.push(xorshift(&mut rng) % wl.pages);
            }
        }
        _ => unreachable!("unknown trace {name}"),
    }
    trace
}

fn engine(registry: &Registry, prefetch_on: bool) -> PrefetchEngine {
    let mut inner = ShardedSfm::new(ShardedSfmConfig {
        sfm: SfmConfig {
            region_capacity: ByteSize::from_mib(64),
            ..SfmConfig::default()
        },
        ..ShardedSfmConfig::default()
    });
    inner.attach_telemetry(registry);
    let mut e = PrefetchEngine::new(
        Arc::new(inner),
        PrefetchConfig {
            staging_capacity: 512,
            auto_pump: false,
            ..PrefetchConfig::default()
        },
    );
    e.attach_telemetry(registry);
    e.set_enabled(prefetch_on);
    e
}

/// Replays `trace` against a fresh engine. Timed section is the
/// `swap_in_into` alone; the pump (background prefetcher stand-in) and
/// the re-swap-out that keeps pages cold for their next visit run off
/// the clock. Returns per-fault latencies (ns) for the measured window.
struct TraceRun {
    latencies_ns: Vec<u64>,
    precision: f64,
    hit_rate: f64,
    gated: bool,
    issued: u64,
    throttled: u64,
    writebacks: u64,
}

fn run_trace(trace: &[u64], wl: Workload, prefetch_on: bool) -> TraceRun {
    let registry = Registry::new();
    let e = engine(&registry, prefetch_on);
    let contents: Vec<Vec<u8>> = (0..wl.pages).map(page_contents).collect();
    for p in 0..wl.pages {
        e.swap_out(PageNumber::new(p), &contents[p as usize])
            .expect("populate");
    }

    let mut buf = Vec::with_capacity(PAGE_SIZE);
    let mut latencies_ns = Vec::with_capacity(wl.faults);
    let hits = registry.counter("xfm_prefetch_hits_total");
    let mut hits_at_window = 0u64;
    for (i, &p) in trace.iter().enumerate() {
        if i == wl.warmup {
            hits_at_window = hits.get();
        }
        let pn = PageNumber::new(p);
        let start = Instant::now();
        e.swap_in_into(pn, false, &mut buf).expect("fault");
        let ns = start.elapsed().as_nanos() as u64;
        if i >= wl.warmup {
            latencies_ns.push(ns);
        }
        assert_eq!(buf.len(), PAGE_SIZE, "page {p} truncated");
        assert_eq!(buf[..16], contents[p as usize][..16], "page {p} corrupted");
        // Off the clock: make the page cold again and let the
        // "background" prefetcher catch up with the stream.
        e.swap_out(pn, &contents[p as usize]).expect("re-swap-out");
        if prefetch_on {
            e.pump();
        }
    }

    let window_hits = hits.get() - hits_at_window;
    TraceRun {
        hit_rate: window_hits as f64 / latencies_ns.len() as f64,
        latencies_ns,
        precision: e.precision(),
        gated: e.is_gated(),
        issued: registry.counter("xfm_prefetch_issued_total").get(),
        throttled: registry.counter("xfm_prefetch_throttled_total").get(),
        writebacks: registry.counter("xfm_prefetch_writebacks_total").get(),
    }
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct TraceResult {
    name: &'static str,
    faults: usize,
    p50_off_ns: u64,
    p99_off_ns: u64,
    p50_on_ns: u64,
    p99_on_ns: u64,
    p99_reduction: f64,
    precision: f64,
    hit_rate: f64,
    gated: bool,
    issued: u64,
    throttled: u64,
    writebacks: u64,
}

fn run_pair(name: &'static str, wl: Workload) -> TraceResult {
    let trace = build_trace(name, wl);
    let off = run_trace(&trace, wl, false);
    let on = run_trace(&trace, wl, true);
    let mut off_sorted = off.latencies_ns;
    let mut on_sorted = on.latencies_ns;
    off_sorted.sort_unstable();
    on_sorted.sort_unstable();
    let p99_off = quantile(&off_sorted, 0.99);
    let p99_on = quantile(&on_sorted, 0.99);
    TraceResult {
        name,
        faults: on_sorted.len(),
        p50_off_ns: quantile(&off_sorted, 0.50),
        p99_off_ns: p99_off,
        p50_on_ns: quantile(&on_sorted, 0.50),
        p99_on_ns: p99_on,
        p99_reduction: 1.0 - p99_on as f64 / p99_off.max(1) as f64,
        precision: on.precision,
        hit_rate: on.hit_rate,
        gated: on.gated,
        issued: on.issued,
        throttled: on.throttled,
        writebacks: on.writebacks,
    }
}

/// Runs `faults` faults of the (cyclic) trace starting at `*cursor`,
/// returning the p50 fault latency of the window.
fn run_epoch(
    e: &PrefetchEngine,
    trace: &[u64],
    contents: &[Vec<u8>],
    cursor: &mut usize,
    faults: usize,
) -> u64 {
    let mut buf = Vec::with_capacity(PAGE_SIZE);
    let mut lat = Vec::with_capacity(faults);
    for _ in 0..faults {
        let p = trace[*cursor % trace.len()];
        *cursor += 1;
        let pn = PageNumber::new(p);
        let start = Instant::now();
        e.swap_in_into(pn, false, &mut buf).expect("fault");
        lat.push(start.elapsed().as_nanos() as u64);
        e.swap_out(pn, &contents[p as usize]).expect("re-swap-out");
        e.pump();
    }
    lat.sort_unstable();
    quantile(&lat, 0.50)
}

struct TuneResult {
    arms: usize,
    epochs: usize,
    best_fixed_p50_ns: u64,
    best_fixed_arm: usize,
    autotune_p50_ns: u64,
    ratio: f64,
    chosen_arm: usize,
    chosen_pulls: u64,
}

/// Fixed-arm sweep vs. live UCB autotuning on the zipf trace. Every
/// fixed arm gets a fresh warmed engine and one measured epoch; the
/// tuner drives one engine across `arms + tune_epochs` epochs and is
/// scored on the median of its last quarter.
fn run_autotune(wl: Workload) -> TuneResult {
    let trace = build_trace("zipf-objects", wl);
    let contents: Vec<Vec<u8>> = (0..wl.pages).map(page_contents).collect();
    let arms = AutoTuner::grid_default();

    let mut best_fixed_p50 = u64::MAX;
    let mut best_fixed_arm = 0usize;
    for (i, knobs) in arms.iter().enumerate() {
        let registry = Registry::new();
        let e = engine(&registry, true);
        for p in 0..wl.pages {
            e.swap_out(PageNumber::new(p), &contents[p as usize])
                .expect("populate");
        }
        e.set_knobs(knobs.prefetch_depth, knobs.confidence_threshold);
        let mut cursor = 0usize;
        run_epoch(&e, &trace, &contents, &mut cursor, wl.warmup);
        let p50 = run_epoch(&e, &trace, &contents, &mut cursor, wl.epoch_faults);
        if p50 < best_fixed_p50 {
            best_fixed_p50 = p50;
            best_fixed_arm = i;
        }
    }

    let mut tuner = AutoTuner::new(arms.clone(), AutoTuneConfig::default());
    let registry = Registry::new();
    let e = engine(&registry, true);
    for p in 0..wl.pages {
        e.swap_out(PageNumber::new(p), &contents[p as usize])
            .expect("populate");
    }
    let mut cursor = 0usize;
    run_epoch(&e, &trace, &contents, &mut cursor, wl.warmup);
    let epochs = arms.len() + wl.tune_epochs;
    let mut epoch_p50s = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let k = *tuner.current();
        e.set_knobs(k.prefetch_depth, k.confidence_threshold);
        let p50 = run_epoch(&e, &trace, &contents, &mut cursor, wl.epoch_faults);
        epoch_p50s.push(p50);
        tuner.record_reward(-(p50 as f64));
    }
    let tail = epochs.div_ceil(4);
    let mut last: Vec<u64> = epoch_p50s[epochs - tail..].to_vec();
    last.sort_unstable();
    let autotune_p50 = quantile(&last, 0.50);
    let (chosen_arm, _) = tuner.best();

    TuneResult {
        arms: arms.len(),
        epochs,
        best_fixed_p50_ns: best_fixed_p50,
        best_fixed_arm,
        autotune_p50_ns: autotune_p50,
        ratio: autotune_p50 as f64 / best_fixed_p50.max(1) as f64,
        chosen_arm,
        chosen_pulls: tuner.arm_pulls(chosen_arm),
    }
}

fn render_json(wl: Workload, results: &[TraceResult], tune: &TuneResult) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"page_size\": {PAGE_SIZE},");
    let _ = writeln!(s, "  \"pages\": {},", wl.pages);
    let _ = writeln!(s, "  \"object_pages\": {},", wl.object_pages);
    let _ = writeln!(s, "  \"warmup_faults\": {},", wl.warmup);
    s.push_str(
        "  \"methodology\": \"Each trace replays twice (prefetch on/off); only swap_in_into is \
         timed. The pump and re-swap-out model a background prefetcher thread and run off the \
         clock. p99_reduction = 1 - p99_on/p99_off over the post-warmup window. The autotune \
         section scores each epoch by p50 fault latency (median of a hit-dominated window; \
         stable on shared hosts) and compares the tuner's last-quarter median against an \
         exhaustive fixed-arm sweep using the same estimator.\",\n",
    );
    s.push_str("  \"traces\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"faults\": {}, \"p50_off_ns\": {}, \"p99_off_ns\": {}, \
             \"p50_on_ns\": {}, \"p99_on_ns\": {}, \"p99_reduction\": {:.3}, \
             \"precision\": {:.3}, \"hit_rate\": {:.3}, \"gated\": {}, \"issued\": {}, \
             \"throttled\": {}, \"writebacks\": {}}}{comma}",
            r.name,
            r.faults,
            r.p50_off_ns,
            r.p99_off_ns,
            r.p50_on_ns,
            r.p99_on_ns,
            r.p99_reduction,
            r.precision,
            r.hit_rate,
            r.gated,
            r.issued,
            r.throttled,
            r.writebacks,
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"autotune\": {{\"trace\": \"zipf-objects\", \"arms\": {}, \"epochs\": {}, \
         \"best_fixed_arm\": {}, \"best_fixed_p50_ns\": {}, \"autotune_p50_ns\": {}, \
         \"ratio_vs_best_fixed\": {:.3}, \"chosen_arm\": {}, \"chosen_arm_pulls\": {}}}",
        tune.arms,
        tune.epochs,
        tune.best_fixed_arm,
        tune.best_fixed_p50_ns,
        tune.autotune_p50_ns,
        tune.ratio,
        tune.chosen_arm,
        tune.chosen_pulls,
    );
    s.push_str("}\n");
    s
}

/// Minimal structural validation of the emitted report (smoke mode):
/// balanced braces/brackets and the keys the acceptance criteria read.
fn validate_json(json: &str) -> Result<(), String> {
    let mut depth = 0i64;
    for c in json.chars() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        if depth < 0 {
            return Err("unbalanced braces".into());
        }
    }
    if depth != 0 {
        return Err("unbalanced braces".into());
    }
    for key in [
        "\"traces\"",
        "\"p99_reduction\"",
        "\"precision\"",
        "\"autotune\"",
        "\"ratio_vs_best_fixed\"",
        "\"zipf-objects\"",
        "\"pointer-chase\"",
    ] {
        if !json.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    Ok(())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let wl = if smoke { SMOKE } else { FULL };

    println!(
        "{:<14} {:>8} {:>12} {:>12} {:>10} {:>10} {:>9} {:>6} {:>7} {:>9} {:>6}",
        "trace",
        "faults",
        "p99 off ns",
        "p99 on ns",
        "reduction",
        "precision",
        "hit rate",
        "gated",
        "issued",
        "throttled",
        "wbacks",
    );
    let results: Vec<TraceResult> = ["scan", "stride", "zipf-objects", "pointer-chase"]
        .into_iter()
        .map(|name| {
            let r = run_pair(name, wl);
            println!(
                "{:<14} {:>8} {:>12} {:>12} {:>9.1}% {:>10.3} {:>9.3} {:>6} {:>7} {:>9} {:>6}",
                r.name,
                r.faults,
                r.p99_off_ns,
                r.p99_on_ns,
                r.p99_reduction * 100.0,
                r.precision,
                r.hit_rate,
                r.gated,
                r.issued,
                r.throttled,
                r.writebacks,
            );
            r
        })
        .collect();

    let tune = run_autotune(wl);
    println!(
        "autotune (zipf-objects): {} arms x {} epochs, best fixed p50 {} ns (arm {}), \
         tuner p50 {} ns, ratio {:.3}, chosen arm {} ({} pulls)",
        tune.arms,
        tune.epochs,
        tune.best_fixed_p50_ns,
        tune.best_fixed_arm,
        tune.autotune_p50_ns,
        tune.ratio,
        tune.chosen_arm,
        tune.chosen_pulls,
    );

    let json = render_json(wl, &results, &tune);
    if smoke {
        let path = std::env::temp_dir().join("BENCH_prefetch.smoke.json");
        std::fs::write(&path, &json).expect("write smoke report");
        let read_back = std::fs::read_to_string(&path).expect("read smoke report");
        if let Err(e) = validate_json(&read_back) {
            eprintln!("smoke validation failed: {e}");
            std::process::exit(1);
        }
        println!("smoke OK: {}", path.display());
    } else {
        validate_json(&json).expect("report must be structurally valid");
        std::fs::write("BENCH_prefetch.json", &json).expect("write BENCH_prefetch.json");
        println!("wrote BENCH_prefetch.json");
    }
}
