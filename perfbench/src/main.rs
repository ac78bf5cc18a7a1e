//! Caller-timed benchmark of the serving stack: `FarKvService` over a
//! `ShardedSfm` over the codec.
//!
//! ```text
//! xfm-perfbench --workload <serve-skew|serve-hot|serve-churn> --seed <n>
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds the stack and prefills it several times (`setup_s` is the
//! median, over set-ups made before and after the timed phase), warms the
//! last one with an untimed op stream, then drives it closed-loop
//! from two client threads for `--seconds`, timing every service call
//! from the caller's side. The timed phase is cut into equal windows;
//! throughput and each latency percentile are the median over windows.
//! A correctness gate (integrity sweep, accounting balance, zero errors,
//! count reconciliation) runs off the clock; a run that fails it prints
//! no result and exits nonzero. With `--trace 1` the plane and codec are
//! wrapped in timing decorators and the per-layer metrics are reported
//! instead of the end-to-end ones. The last stdout line is the JSON
//! result.

mod stats;
mod trace;
mod workload;

use std::collections::HashSet;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xfm_compress::{Codec, CostModel};
use xfm_serve::{FarKvService, GetSource, PutResult, TenantSnapshot, TenantSpec};
use xfm_sfm::{BackendStats, ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm_telemetry::Registry;
use xfm_types::{TenantId, PAGE_SIZE};

use stats::{median, Hist, Pct};
use trace::{CounterSnapshot, Counters, Layer, SpanAgg, TimedCodec, TimedPlane};
use workload::{
    Inputs, Op, OpStream, Stamp, Versions, Workload, PREFILL_STAMP, PREFILL_WRITER, STAMP_LEN,
    WORKLOADS,
};

/// Client threads, each waiting for its reply before the next call.
const CLIENTS: usize = 2;
/// Set-up rounds: a run makes two phases of them, one before the timed
/// phase and one after it. A phase makes at least `SETUP_ROUNDS_MIN`
/// rounds, more while they have taken less than `SETUP_PHASE`, at most
/// `SETUP_ROUNDS_MAX`. A round repeats the set-up until it has taken
/// `SETUP_ROUND` and yields the mean time of its set-ups; `setup_s` is the
/// median over the rounds of both phases. A round averages the
/// set-up-to-set-up variation of a few-ms set-up, and spreading rounds
/// over the whole run averages the host's speed, which drifts on a scale
/// of seconds. Before each set-up the previous stack is dropped and the
/// heap trimmed, off the clock, so each one faults its memory in as a
/// set-up in a fresh process does.
const SETUP_ROUNDS_MIN: usize = 3;
const SETUP_ROUNDS_MAX: usize = 1000;
const SETUP_ROUND: Duration = Duration::from_millis(50);
const SETUP_PHASE: Duration = Duration::from_secs(6);
/// Equal time windows of the timed phase.
const WINDOWS: usize = 5;
/// Untimed warm-up ops per client, as a multiple of the keyspace.
const WARMUP_KEYSPACES: u64 = 2;
/// Plane shards.
const SHARDS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::by_name(&name)
        .ok_or_else(|| format!("unknown workload {name:?}; expected one of {names:?}"))?;
    let num = |flag: &str, v: Option<String>| -> Result<u64, String> {
        v.ok_or_else(|| format!("missing {flag}"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seed = num("--seed", get("--seed"))?;
    let seconds = num("--seconds", get("--seconds"))?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=600"));
    }
    let trace = match num("--trace", get("--trace"))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn plane_config() -> ShardedSfmConfig {
    ShardedSfmConfig {
        shards: SHARDS,
        ..ShardedSfmConfig::default()
    }
}

/// What the traced run wraps the plane's codec with.
struct TraceParts {
    codec: Arc<dyn Codec + Send + Sync>,
    counters: Arc<Counters>,
}

/// One built and prefilled stack, telemetry attached.
struct Stack {
    service: FarKvService,
    registry: Registry,
}

fn build(tenants: &[TenantSpec], parts: Option<&TraceParts>) -> Stack {
    let registry = Registry::new();
    let plane: Arc<dyn SwapPlane> = match parts {
        None => {
            let mut plane = ShardedSfm::new(plane_config());
            plane.attach_telemetry(&registry);
            Arc::new(plane)
        }
        Some(p) => {
            let codec = TimedCodec::new(Arc::clone(&p.codec), Arc::clone(&p.counters));
            let mut plane =
                ShardedSfm::with_codec(plane_config(), Arc::new(codec), CostModel::paper_average());
            plane.attach_telemetry(&registry);
            Arc::new(TimedPlane::new(plane, Arc::clone(&p.counters)))
        }
    };
    let mut service = FarKvService::new(plane, tenants.to_vec());
    service.attach_telemetry(&registry);
    Stack { service, registry }
}

/// Writes every key of every tenant, most popular (lowest) key first, so
/// a quota that runs out keeps the keys the workload asks for most.
/// Returns which keys were stored (a best-effort tenant's may be shed).
fn prefill(
    stack: &Stack,
    tenants: &[TenantSpec],
    wl: &Workload,
    inputs: &Inputs,
) -> Result<Versions, String> {
    let mut versions = Versions::new(PREFILL_WRITER, wl.keys_per_tenant);
    for (ti, spec) in tenants.iter().enumerate() {
        for key in 0..wl.keys_per_tenant {
            match stack.service.put(spec.tenant, key, inputs.page(ti, key)) {
                Ok(PutResult::Stored { .. }) => versions.stored(ti, key, PREFILL_STAMP),
                Ok(PutResult::Shed(_)) => {}
                Err(e) => return Err(format!("prefill {} key {key}: {e}", spec.tenant)),
            }
        }
    }
    Ok(versions)
}

/// Set-up times of a run.
#[derive(Default)]
struct Setups {
    /// Mean set-up time of each round, in s.
    rounds: Vec<f64>,
    setups: u32,
    /// The process's first set-up, in s.
    first_s: Option<f64>,
}

impl Setups {
    /// Runs one phase of set-up rounds; returns the stack built last and
    /// the keys its prefill stored.
    fn phase(
        &mut self,
        tenants: &[TenantSpec],
        parts: Option<&TraceParts>,
        wl: &Workload,
        inputs: &Inputs,
    ) -> Result<(Stack, Versions), String> {
        let mut spent = Duration::ZERO;
        let mut rounds = 0;
        let mut last = None;
        while rounds < SETUP_ROUNDS_MIN || (rounds < SETUP_ROUNDS_MAX && spent < SETUP_PHASE) {
            let mut round = Duration::ZERO;
            let mut n = 0u32;
            while n == 0 || round < SETUP_ROUND {
                drop(last.take());
                stats::trim_heap();
                let t = Instant::now();
                let stack = build(tenants, parts);
                let stored = prefill(&stack, tenants, wl, inputs)?;
                let dt = t.elapsed();
                self.first_s.get_or_insert(dt.as_secs_f64());
                round += dt;
                n += 1;
                last = Some((stack, stored));
            }
            spent += round;
            rounds += 1;
            self.setups += n;
            self.rounds.push(round.as_secs_f64() / f64::from(n));
        }
        Ok(last.expect("a phase makes at least one set-up"))
    }
}

/// Caller-timed samples of one time window.
#[derive(Default)]
struct Window {
    get: Hist,
    fault: Hist,
    put: Hist,
    ops: u64,
}

/// One client's results for a phase.
struct ClientRun {
    windows: Vec<Window>,
    ops: u64,
    faults: u64,
    sheds: u64,
    errors: u64,
    first_error: Option<String>,
    busy_ns: u64,
    spans: SpanAgg,
}

/// When a phase ends.
#[derive(Clone, Copy)]
struct Stop {
    start: Instant,
    len: Duration,
    max_ops: u64,
}

fn call<T, E>(traced: bool, layer: Layer, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    if traced {
        trace::span(layer, f)
    } else {
        f()
    }
}

#[allow(clippy::too_many_arguments)]
fn client(
    service: &FarKvService,
    tids: &[TenantId],
    wl: Workload,
    inputs: &Inputs,
    tickets: &AtomicU64,
    seed: u64,
    phase: u64,
    id: usize,
    versions: &mut Versions,
    stop: Stop,
    traced: bool,
) -> ClientRun {
    let mut stream = OpStream::new(wl, inputs, tickets, seed, phase, id as u64);
    let mut run = ClientRun {
        windows: (0..WINDOWS).map(|_| Window::default()).collect(),
        ops: 0,
        faults: 0,
        sheds: 0,
        errors: 0,
        first_error: None,
        busy_ns: 0,
        spans: SpanAgg::default(),
    };
    if traced {
        trace::install();
    }
    let len_ns = stop.len.as_nanos().max(1);
    let mut out = Vec::with_capacity(PAGE_SIZE);
    let mut page = vec![0u8; PAGE_SIZE];
    while run.ops < stop.max_ops {
        let op = stream.next_op();
        let now = Instant::now();
        let since = now.duration_since(stop.start);
        if since >= stop.len {
            break;
        }
        let w = &mut run.windows
            [((since.as_nanos() * WINDOWS as u128 / len_ns) as usize).min(WINDOWS - 1)];
        let (dt, err) = match op {
            Op::Get { tenant, key } => {
                let t0 = now;
                let r = call(traced, Layer::Get, || {
                    service.get(tids[tenant], key, &mut out)
                });
                let dt = t0.elapsed().as_nanos() as u64;
                w.get.record(dt);
                match r {
                    Ok(Some(g)) if g.source == GetSource::Fault => {
                        w.fault.record(dt);
                        run.faults += 1;
                        (dt, None)
                    }
                    Ok(_) => (dt, None),
                    Err(e) => (dt, Some(e)),
                }
            }
            Op::Put { tenant, key } => {
                // The versioned payload is made before the timed interval.
                let stamp = versions.next();
                page.copy_from_slice(inputs.page(tenant, key));
                stamp.write(&mut page);
                let t0 = Instant::now();
                let r = call(traced, Layer::Put, || service.put(tids[tenant], key, &page));
                let dt = t0.elapsed().as_nanos() as u64;
                w.put.record(dt);
                match r {
                    Ok(PutResult::Shed(_)) => {
                        run.sheds += 1;
                        (dt, None)
                    }
                    Ok(PutResult::Stored { .. }) => {
                        versions.stored(tenant, key, stamp);
                        (dt, None)
                    }
                    Err(e) => (dt, Some(e)),
                }
            }
        };
        if let Some(e) = err {
            run.errors += 1;
            run.first_error
                .get_or_insert_with(|| format!("{op:?}: {e}"));
        }
        w.ops += 1;
        run.ops += 1;
        run.busy_ns += dt;
    }
    if traced {
        run.spans = trace::take();
    }
    run
}

/// Runs one client per entry of `versions` to `stop`; returns their
/// results and the phase's wall time.
#[allow(clippy::too_many_arguments)]
fn drive(
    service: &FarKvService,
    tids: &[TenantId],
    wl: Workload,
    inputs: &Inputs,
    seed: u64,
    phase: u64,
    versions: &mut [Versions],
    len: Duration,
    max_ops: u64,
    traced: bool,
) -> (Vec<ClientRun>, Duration) {
    let tickets = AtomicU64::new(0);
    let tickets = &tickets;
    let stop = Stop {
        start: Instant::now(),
        len,
        max_ops,
    };
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = versions
            .iter_mut()
            .enumerate()
            .map(|(id, v)| {
                s.spawn(move || {
                    client(
                        service, tids, wl, inputs, tickets, seed, phase, id, v, stop, traced,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (runs, stop.start.elapsed())
}

/// Program-side counters at one instant.
struct Counts {
    tenants: Vec<TenantSnapshot>,
    plane: BackendStats,
    layers: CounterSnapshot,
    /// Swap-ins + swap-outs per shard, from the plane's telemetry.
    shards: Vec<u64>,
}

fn counts(stack: &Stack, parts: Option<&TraceParts>) -> Counts {
    let shard = |series: &str, i: usize| {
        stack
            .registry
            .counter(&format!("{series}{{shard=\"{i}\"}}"))
            .get()
    };
    Counts {
        tenants: stack.service.snapshots(),
        plane: stack.service.plane().stats(),
        layers: parts.map(|p| p.counters.snapshot()).unwrap_or_default(),
        shards: (0..SHARDS)
            .map(|i| shard("xfm_shard_swap_ins_total", i) + shard("xfm_shard_swap_outs_total", i))
            .collect(),
    }
}

/// Sum over tenants of `after - before` of one snapshot field.
fn tenant_delta(a: &Counts, b: &Counts, f: fn(&TenantSnapshot) -> u64) -> u64 {
    a.tenants.iter().map(f).sum::<u64>() - b.tenants.iter().map(f).sum::<u64>()
}

/// One latency percentile of the timed phase, both as the median of its
/// per-window values (what the bounded metrics report) and over all
/// samples pooled (what the unbounded tail metrics report: a p99 needs
/// every sample of the run to rest on enough of them).
struct Lat {
    /// Per-window values in µs, in window order.
    windows: Vec<f64>,
    window_median_us: f64,
    pooled: Pct,
}

impl Lat {
    fn pooled_us(&self) -> f64 {
        self.pooled.value as f64 / 1e3
    }
}

fn latency(runs: &[ClientRun], pick: fn(&Window) -> &Hist, q: f64) -> Lat {
    let mut pooled = Hist::default();
    let mut windows = Vec::with_capacity(WINDOWS);
    for w in 0..WINDOWS {
        let mut all = Hist::default();
        for r in runs {
            all.merge(pick(&r.windows[w]));
        }
        windows.push(all.pct(q).value as f64 / 1e3);
        pooled.merge(&all);
    }
    Lat {
        window_median_us: median(&mut windows.clone()),
        windows,
        pooled: pooled.pct(q),
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: String::new(),
    }
}

fn lat_metric(name: &str, us: f64, lat: &Lat) -> Metric {
    Metric {
        note: format!(
            "n={} beyond={} windows={:.1?}",
            lat.pooled.n, lat.pooled.beyond, lat.windows
        ),
        ..metric(name, us, "us")
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reads back every key of every tenant and checks that it holds a
/// version it should: the last one some client stored, or the prefill's
/// when no client stored one, followed byte for byte by the key's own
/// payload. A stored key must be listed and readable, and no other key
/// may be. Returns the number of keys checked, or the first violation.
fn integrity_sweep(
    service: &FarKvService,
    tids: &[TenantId],
    inputs: &Inputs,
    keys: u64,
    prefill: &Versions,
    clients: &[Versions],
) -> Result<u64, String> {
    let mut out = Vec::with_capacity(PAGE_SIZE);
    let mut checked = 0u64;
    for (ti, &t) in tids.iter().enumerate() {
        let listed: HashSet<u64> = service.keys(t).into_iter().collect();
        let mut held = 0usize;
        for key in 0..keys {
            let mut current: Vec<Stamp> = clients.iter().filter_map(|v| v.last(ti, key)).collect();
            if current.is_empty() {
                current.extend(prefill.last(ti, key));
            }
            let found = service
                .get(t, key, &mut out)
                .map_err(|e| format!("{t} key {key}: {e}"))?
                .is_some();
            if found != listed.contains(&key) {
                return Err(format!(
                    "{t} key {key}: readable={found} but listed={}",
                    !found
                ));
            }
            match (found, current.is_empty()) {
                (false, true) => continue,
                (false, false) => return Err(format!("{t} key {key}: stored {current:?} lost")),
                (true, true) => return Err(format!("{t} key {key}: held but never stored")),
                (true, false) => {}
            }
            held += 1;
            let stamp = Stamp::read(&out);
            if !stamp.is_some_and(|s| current.contains(&s)) {
                return Err(format!(
                    "{t} key {key}: holds version {stamp:?}, expected one of {current:?}"
                ));
            }
            if out[STAMP_LEN..] != inputs.page(ti, key)[STAMP_LEN..] {
                return Err(format!("{t} key {key} read back different bytes"));
            }
        }
        if held != listed.len() {
            return Err(format!(
                "{t}: {} keys listed, {held} in the keyspace",
                listed.len()
            ));
        }
        checked += held as u64;
    }
    Ok(checked)
}

/// Cost of one span (open + close) on this thread, in ns.
fn span_cost_ns() -> f64 {
    const N: u32 = 200_000;
    trace::install();
    let t = Instant::now();
    for _ in 0..N {
        let _ = trace::span(Layer::Get, || Ok::<(), ()>(()));
    }
    let ns = t.elapsed().as_nanos() as f64 / f64::from(N);
    let _ = trace::take();
    ns
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::exit(1);
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run() -> Result<(), String> {
    let args = parse_args()?;
    let wl = args.workload;
    let tenants = wl.tenants();
    let tids: Vec<TenantId> = tenants.iter().map(|t| t.tenant).collect();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} clients={CLIENTS} nproc={nproc} \
         shards={SHARDS} windows={WINDOWS} keys_per_tenant={} resident_pages={}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wl.keys_per_tenant,
        wl.resident_pages,
    );

    let inputs = Inputs::generate(&wl, &tenants, args.seed);
    let parts = if args.trace {
        let codec = trace::default_codec(&ShardedSfm::new(plane_config()))?;
        Some(TraceParts {
            codec,
            counters: Arc::new(Counters::default()),
        })
    } else {
        None
    };

    let mut setups = Setups::default();
    let (stack, prefilled) = setups.phase(&tenants, parts.as_ref(), &wl, &inputs)?;
    let service = &stack.service;
    let mut versions: Vec<Versions> = (0..CLIENTS as u32)
        .map(|id| Versions::new(id, wl.keys_per_tenant))
        .collect();

    let (warm, _) = drive(
        service,
        &tids,
        wl,
        &inputs,
        args.seed,
        1,
        &mut versions,
        Duration::from_secs(3_600),
        WARMUP_KEYSPACES * wl.keys_per_tenant,
        false,
    );
    if let Some(e) = warm.iter().find_map(|r| r.first_error.clone()) {
        return Err(format!("warm-up error: {e}"));
    }

    let before = counts(&stack, parts.as_ref());
    let cpu0 = stats::process_cpu_us()?;
    let (runs, wall) = drive(
        service,
        &tids,
        wl,
        &inputs,
        args.seed,
        2,
        &mut versions,
        Duration::from_secs(args.seconds),
        u64::MAX,
        args.trace,
    );
    let cpu_us = stats::process_cpu_us()? - cpu0;
    let after = counts(&stack, parts.as_ref());

    let pool = service.plane().pool_stats();
    let hot_bytes: u64 = after.tenants.iter().map(|t| t.resident_bytes).sum();
    let stored_keys: u64 = tids.iter().map(|&t| service.keys(t).len() as u64).sum();
    let mem_per_user = ratio(
        (hot_bytes + pool.host_pages * PAGE_SIZE as u64) as f64,
        (stored_keys * PAGE_SIZE as u64) as f64,
    );

    let ops: u64 = runs.iter().map(|r| r.ops).sum();
    let faults: u64 = runs.iter().map(|r| r.faults).sum();
    let sheds: u64 = runs.iter().map(|r| r.sheds).sum();
    let errors: u64 = runs.iter().map(|r| r.errors).sum();
    let window_s = args.seconds as f64 / WINDOWS as f64;
    let window_ops: Vec<f64> = (0..WINDOWS)
        .map(|w| runs.iter().map(|r| r.windows[w].ops).sum::<u64>() as f64 / window_s)
        .collect();
    let ops_per_s = median(&mut window_ops.clone());
    let get50 = latency(&runs, |w| &w.get, 0.50);
    let get90 = latency(&runs, |w| &w.get, 0.90);
    let get99 = latency(&runs, |w| &w.get, 0.99);
    let put50 = latency(&runs, |w| &w.put, 0.50);
    let put90 = latency(&runs, |w| &w.put, 0.90);
    let put99 = latency(&runs, |w| &w.put, 0.99);
    let fault50 = latency(&runs, |w| &w.fault, 0.50);
    let fault99 = latency(&runs, |w| &w.fault, 0.99);

    // ---- correctness gate (off the clock) ----
    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    check(
        errors == 0,
        format!(
            "{errors} worker errors, first: {}",
            runs.iter()
                .find_map(|r| r.first_error.clone())
                .unwrap_or_default()
        ),
    );
    let d_gets = tenant_delta(&after, &before, |t| t.gets);
    let d_puts = tenant_delta(&after, &before, |t| t.puts);
    let d_sheds = tenant_delta(&after, &before, |t| t.sheds);
    let d_faults = tenant_delta(&after, &before, |t| t.faults);
    let d_hits = tenant_delta(&after, &before, |t| t.hits);
    let d_demotions = tenant_delta(&after, &before, |t| t.demotions);
    let d_swap_ins = after.plane.swap_ins - before.plane.swap_ins;
    let d_swap_outs = after.plane.swap_outs - before.plane.swap_outs;
    let shard_swaps: Vec<u64> = after
        .shards
        .iter()
        .zip(&before.shards)
        .map(|(a, b)| a - b)
        .collect();
    let shard_imbalance = ratio(
        shard_swaps.iter().copied().max().unwrap_or(0) as f64,
        shard_swaps.iter().sum::<u64>() as f64 / SHARDS as f64,
    );
    check(
        ops == d_gets + d_puts + d_sheds,
        format!(
            "client ops {ops} != service gets+puts+sheds {}",
            d_gets + d_puts + d_sheds
        ),
    );
    check(
        faults == d_faults,
        format!("client faults {faults} != service faults {d_faults}"),
    );
    check(
        sheds == d_sheds,
        format!("client sheds {sheds} != service sheds {d_sheds}"),
    );
    check(
        d_swap_outs == d_demotions,
        format!("plane swap-outs {d_swap_outs} != service demotions {d_demotions}"),
    );
    if wl.all_hot {
        check(
            d_swap_ins == 0 && d_swap_outs == 0,
            format!(
                "{} expects no plane calls; saw {d_swap_ins} swap-ins, {d_swap_outs} swap-outs",
                wl.name
            ),
        );
    }
    for (name, lat) in [
        ("get_p99_us", &get99),
        ("put_p99_us", &put99),
        ("fault_p99_us", &fault99),
    ] {
        let required = name != "fault_p99_us" || lat.pooled.n > 0;
        check(
            !required || lat.pooled.beyond >= 10,
            format!("{name}: only {} samples beyond p99", lat.pooled.beyond),
        );
    }

    let mut layer_metrics = Vec::new();
    if parts.is_some() {
        let d = after.layers.since(&before.layers);
        let mut agg = SpanAgg::default();
        for r in &runs {
            agg.merge(&r.spans);
        }
        for layer in Layer::ALL {
            let spans = agg.durs[layer as usize].n() as u64;
            let calls = if matches!(layer, Layer::Get | Layer::Put) {
                spans
            } else {
                d.calls(layer)
            };
            check(
                spans == calls,
                format!("{layer:?}: {spans} spans but {calls} calls counted"),
            );
        }
        check(
            d.calls(Layer::SwapOut) == d_swap_outs && d.calls(Layer::SwapOutBatch) == 0,
            format!(
                "decorator swap-outs {} != plane stats {d_swap_outs}",
                d.calls(Layer::SwapOut)
            ),
        );
        check(
            d.calls(Layer::SwapIn) == d_swap_ins && d.calls(Layer::SwapInBatch) == 0,
            format!(
                "decorator swap-ins {} != plane stats {d_swap_ins}",
                d.calls(Layer::SwapIn)
            ),
        );
        check(
            agg.fault_ops == d_faults,
            format!(
                "swap-ins under gets {} != service faults {d_faults}",
                agg.fault_ops
            ),
        );
        check(
            d.calls(Layer::Compress) == d_swap_outs,
            format!(
                "codec compresses {} != plane swap-outs {d_swap_outs}",
                d.calls(Layer::Compress)
            ),
        );
        check(
            d.calls(Layer::Decompress) == d_swap_ins && d.calls(Layer::DecompressBatch) == 0,
            format!(
                "codec decompresses {} != plane swap-ins {d_swap_ins}",
                d.calls(Layer::Decompress)
            ),
        );
        let plane_errors: u64 = Layer::ALL
            .iter()
            .filter(|l| l.is_plane())
            .map(|&l| d.errors[l as usize])
            .sum();
        let plane_calls = d.calls(Layer::SwapIn) + d.calls(Layer::SwapOut);
        for (prefix, layer) in [
            ("sfm.swap_in", Layer::SwapIn),
            ("sfm.swap_out", Layer::SwapOut),
            ("compress.decompress", Layer::Decompress),
            ("compress.compress", Layer::Compress),
        ] {
            let durs = &mut agg.durs[layer as usize];
            let (p50, p99) = (durs.pct(0.50), durs.pct(0.99));
            check(
                p99.n == 0 || p99.beyond >= 10,
                format!("{prefix}.p99_us: only {} samples beyond p99", p99.beyond),
            );
            layer_metrics.push(metric(&format!("{prefix}.calls"), p50.n as f64, "count"));
            for (q, p) in [("p50_us", p50), ("p99_us", p99)] {
                layer_metrics.push(Metric {
                    note: format!("n={} beyond={}", p.n, p.beyond),
                    ..metric(&format!("{prefix}.{q}"), p.value as f64 / 1e3, "us")
                });
            }
        }
        let busy_ns: u64 = runs.iter().map(|r| r.busy_ns).sum();
        let span_ns = span_cost_ns();
        layer_metrics.extend([
            metric(
                "serve.self_us_per_op",
                ratio((agg.root_ns - agg.root_plane_ns) as f64 / 1e3, ops as f64),
                "us/op",
            ),
            metric(
                "serve.hit_ratio",
                ratio(d_hits as f64, d_gets as f64),
                "frac",
            ),
            metric(
                "serve.swap_outs_per_op",
                ratio(d_demotions as f64, ops as f64),
                "1/op",
            ),
            metric("serve.shed_frac", ratio(d_sheds as f64, ops as f64), "frac"),
            metric(
                "serve.fault_plane_frac",
                ratio(agg.fault_plane_ns as f64, agg.fault_ns as f64),
                "frac",
            ),
            metric("sfm.errors", plane_errors as f64, "count"),
            metric(
                "sfm.self_us_per_call",
                ratio(
                    (agg.plane_ns - agg.plane_codec_ns) as f64 / 1e3,
                    plane_calls as f64,
                ),
                "us/call",
            ),
            Metric {
                note: format!("swaps per shard {shard_swaps:?}"),
                ..metric("sfm.shard_imbalance", shard_imbalance, "max/mean")
            },
            metric(
                "sfm.objects_per_host_page",
                ratio(pool.objects as f64, pool.host_pages as f64),
                "obj/page",
            ),
            metric(
                "sfm.slot_overhead_frac",
                ratio(
                    pool.slot_overhead.as_bytes() as f64,
                    pool.pool_bytes().as_bytes() as f64,
                ),
                "frac",
            ),
            metric(
                "compress.ratio",
                ratio(
                    d.bytes_in[Layer::Compress as usize] as f64,
                    d.bytes_out[Layer::Compress as usize] as f64,
                ),
                "x",
            ),
            metric(
                "compress.compress.per_admitted_put",
                ratio(d.calls(Layer::Compress) as f64, d_puts as f64),
                "1/put",
            ),
            metric(
                "loadgen.client_busy_frac",
                ratio(busy_ns as f64, CLIENTS as f64 * wall.as_nanos() as f64),
                "frac",
            ),
            Metric {
                note: format!("spans={} span_ns={span_ns:.1}", agg.spans),
                ..metric(
                    "trace.overhead_frac",
                    ratio(agg.spans as f64 * span_ns, busy_ns as f64),
                    "frac",
                )
            },
        ]);
        if wl.all_hot {
            let touched: u64 = Layer::ALL
                .iter()
                .filter(|l| l.is_plane() || l.is_codec())
                .map(|&l| d.calls(l))
                .sum();
            check(
                touched == 0,
                format!("{} made {touched} plane/codec calls", wl.name),
            );
        }
    }

    match integrity_sweep(
        service,
        &tids,
        &inputs,
        wl.keys_per_tenant,
        &prefilled,
        &versions,
    ) {
        Ok(checked) => println!("# integrity: {checked} keys hold their current version"),
        Err(e) => check(false, format!("integrity sweep: {e}")),
    }
    let acct = service.accounting();
    check(acct.balanced, format!("accounting unbalanced: {acct:?}"));

    if !failures.is_empty() {
        return Err(failures.join("; "));
    }

    drop(stack);
    setups.phase(&tenants, parts.as_ref(), &wl, &inputs)?;
    let mut setup_s = setups.rounds;
    let setup_median = median(&mut setup_s);
    // Bounded end-to-end metrics: nonzero and steady on every workload.
    let e2e = [
        Metric {
            note: format!(
                "ops={ops} wall_s={:.3} windows={window_ops:.0?}",
                wall.as_secs_f64()
            ),
            ..metric("ops_per_s", ops_per_s, "1/s")
        },
        lat_metric("get_p50_us", get50.window_median_us, &get50),
        lat_metric("get_p90_us", get90.window_median_us, &get90),
        lat_metric("put_p50_us", put50.window_median_us, &put50),
        lat_metric("put_p90_us", put90.window_median_us, &put90),
        metric("cpu_us_per_op", ratio(cpu_us, ops as f64), "us/op"),
        Metric {
            note: format!(
                "hot_bytes={hot_bytes} host_pages={} stored_keys={stored_keys}",
                pool.host_pages
            ),
            ..metric("mem_bytes_per_user_byte", mem_per_user, "B/B")
        },
        Metric {
            note: format!(
                "setups={} rounds={} first={:.6} min={:.6} max={:.6}",
                setups.setups,
                setup_s.len(),
                setups.first_s.unwrap_or(0.0),
                setup_s[0],
                setup_s[setup_s.len() - 1]
            ),
            ..metric("setup_s", setup_median, "s")
        },
    ];
    // End-to-end figures without a bound: zero on serve-hot by design
    // (faults, sheds) or too noisy there to bound (p99 of a 1 µs op).
    // They are printed by every run and carried in the traced run's JSON.
    let tails = [
        lat_metric("get_p99_us", get99.pooled_us(), &get99),
        lat_metric("put_p99_us", put99.pooled_us(), &put99),
        lat_metric("fault_p50_us", fault50.pooled_us(), &fault50),
        lat_metric("fault_p99_us", fault99.pooled_us(), &fault99),
        Metric {
            note: format!("sheds={sheds} errors={errors}"),
            ..metric(
                "failed_frac",
                ratio((sheds + errors) as f64, ops as f64),
                "frac",
            )
        },
    ];
    let reported: Vec<&Metric> = if args.trace {
        layer_metrics.iter().chain(&tails).collect()
    } else {
        e2e.iter().collect()
    };
    let extra: Vec<&Metric> = if args.trace {
        e2e.iter().collect()
    } else {
        tails.iter().collect()
    };
    for m in reported.iter().chain(&extra) {
        println!(
            "# {:<36} {:>14.4} {:<9} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    if !args.trace {
        println!(
            "# {:<36} {shard_imbalance:>14.4} {:<9} swaps per shard {shard_swaps:?}",
            "sfm.shard_imbalance", "max/mean"
        );
    }
    let mut json =
        format!("{{\"correct\": true, \"attempted\": {ops}, \"failed\": {errors}, \"metrics\": {{");
    for (i, m) in reported.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    std::io::stdout().flush().map_err(|e| e.to_string())
}
