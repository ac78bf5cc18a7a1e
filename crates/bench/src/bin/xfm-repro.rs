//! `xfm-repro`: regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! xfm-repro [--metrics-out <path>] [--trace-out <path>] [experiment...]
//! ```
//!
//! With no arguments, all experiments run. Experiment names: `fig1`,
//! `fig3`, `fig8`, `fig11`, `fig12`, `table1`, `table2`, `table3`,
//! `timing`, `energy`, `antagonist`, `latency`.
//!
//! `--metrics-out <path>` drives the instrumented stack (swap path,
//! refresh-window gauges, DRAM model, fallback and co-run simulators)
//! against one telemetry registry and writes the snapshot to `path` —
//! Prometheus text exposition when the path ends in `.prom` or `.txt`,
//! JSON otherwise. When no experiment names accompany the flag, only the
//! metrics pass runs.
//!
//! `--trace-out <path>` additionally exports the page-lifecycle audit
//! trail captured during that metrics pass as Chrome `trace_event` JSON
//! (open in Perfetto / `chrome://tracing`). Implies the metrics pass;
//! validate with `xfm-sentinel validate-trace <path>`.

use xfm_bench::{
    render_energy, render_fig1, render_fig11, render_fig12, render_fig3, render_fig8,
    render_table1, render_tables23, render_timing,
};
use xfm_sim::corun::{antagonist_study, CorunConfig};
use xfm_sim::figures;
use xfm_types::Nanos;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut metrics_out: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--metrics-out") {
        if i + 1 >= args.len() {
            eprintln!("--metrics-out requires a path argument");
            std::process::exit(2);
        }
        metrics_out = Some(args.remove(i + 1));
        args.remove(i);
    }
    let mut trace_out: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--trace-out") {
        if i + 1 >= args.len() {
            eprintln!("--trace-out requires a path argument");
            std::process::exit(2);
        }
        trace_out = Some(args.remove(i + 1));
        args.remove(i);
    }
    let all = args.is_empty() && metrics_out.is_none() && trace_out.is_none();
    let want = |name: &str| all || args.iter().any(|a| a == name);

    println!("XFM reproduction — regenerating the paper's tables and figures\n");

    if metrics_out.is_some() || trace_out.is_some() {
        let registry = xfm_telemetry::Registry::new();
        let snapshot = xfm_bench::metrics::collect(&registry).expect("metrics collection");
        if let Some(path) = &trace_out {
            let events = registry.lifecycle().snapshot();
            let trace = xfm_telemetry::chrome::to_chrome_trace(&events);
            std::fs::write(path, trace).expect("write chrome trace");
            println!(
                "lifecycle trace written to {path}: {} events ({} recorded, {} dropped)\n",
                events.len(),
                registry.lifecycle().recorded(),
                registry.lifecycle().dropped()
            );
        }
        if let Some(path) = &metrics_out {
            let rendered = if path.ends_with(".prom") || path.ends_with(".txt") {
                snapshot.to_prometheus()
            } else {
                snapshot.to_json()
            };
            std::fs::write(path, rendered).expect("write metrics snapshot");
            let outs = &snapshot.histograms["xfm_swap_out_latency_ns"];
            let ins = &snapshot.histograms["xfm_swap_in_latency_ns"];
            println!(
                "telemetry snapshot written to {path}: {} swap-outs (p50 {} ns, p99 {} ns), \
                 {} swap-ins (p50 {} ns, p99 {} ns), {} lifecycle events\n",
                outs.count,
                outs.p50,
                outs.p99,
                ins.count,
                ins.p50,
                ins.p99,
                snapshot.events.len()
            );
        }
    }

    if want("fig1") {
        for pr in [0.14, 1.0] {
            println!("{}", render_fig1(&figures::fig1_bandwidth(pr)));
        }
        let cap = figures::xfm_max_sfm_capacity(0.5, 8, 3, 2.5);
        println!(
            "XFM side-channel headroom: supports SFM capacities up to {cap} \
             (8 ranks, 3 accesses/tRFC, 50% promotion) — abstract claim: ~1 TB\n"
        );
    }
    if want("fig3") {
        println!("{}", render_fig3(&figures::fig3_cost()));
        let model = xfm_cost::FarMemoryModel::default();
        if let Some(years) = model.cost_breakeven_years(xfm_cost::FarMemoryKind::DfmDram, 1.0) {
            println!(
                "cost break-even vs DRAM-DFM @100% promotion: {years:.1} years (paper: 8.5)\n"
            );
        }
        println!(
            "accelerated-SFM usefulness threshold: {:.1}% promotion rate (paper: ~6%)\n",
            model.accelerator_breakeven_promotion_rate() * 100.0
        );
    }
    if want("fig8") {
        let rows = figures::fig8_ratios(256 * 1024).expect("fig8");
        println!("{}", render_fig8(&rows));
    }
    if want("fig11") {
        println!("{}", render_fig11(&figures::fig11_interference()));
    }
    if want("fig12") || want("energy") {
        let rows = figures::fig12_fallbacks(Nanos::from_ms(200));
        if want("fig12") {
            println!("{}", render_fig12(&rows));
        }
        if want("energy") {
            println!("{}", render_energy(&rows));
        }
    }
    if want("table1") {
        println!("{}", render_table1(&figures::table1_devices()));
    }
    if want("table2") || want("table3") {
        println!("{}", render_tables23());
    }
    if want("timing") {
        println!("{}", render_timing(&figures::timing_summary()));
    }
    if want("antagonist") {
        let (app_hit, sfm_hit) = antagonist_study(&CorunConfig::default());
        println!(
            "Section 3.2 antagonist study: worst application slowdown {:.1}% \
             (paper: up to 7.5%), antagonist throughput degradation {:.1}% \
             (paper: >5.0%)\n",
            app_hit * 100.0,
            sfm_hit * 100.0
        );
    }
    if want("ablation") {
        println!(
            "{}",
            xfm_bench::render_ablations(
                &xfm_sim::ablation::prefetch_accuracy_sweep(Nanos::from_ms(100)),
                &xfm_sim::ablation::random_budget_sweep(Nanos::from_ms(100)),
                &xfm_sim::ablation::offload_granularity_sweep(256 * 1024).expect("granularity"),
                &xfm_sim::ablation::refresh_mode_compare(),
                &xfm_sim::ablation::predictor_study(5000, 17),
            )
        );
    }
    if want("latency") {
        // Drive one offload through a real NMA device and report the
        // measured end-to-end latency (Fig. 10's 2 x tREFI minimum).
        use xfm_core::nma::{NearMemoryAccelerator, NmaConfig, NmaEvent};
        let mut nma = NearMemoryAccelerator::new(NmaConfig::default());
        let page = vec![0x5au8; 4096];
        nma.submit_compress(
            xfm_types::PageNumber::new(1),
            page,
            xfm_types::RowId::new(1),
            Nanos::ZERO,
            true,
        )
        .expect("submit");
        let events = nma.advance_to(Nanos::from_ms(64));
        if let Some(NmaEvent::Completed {
            submitted_at,
            completed_at,
            ..
        }) = events.first()
        {
            let trefi = NmaConfig::default().timings.t_refi;
            println!(
                "Figure 10 latency check: offload completed in {} \
                 (minimum 2 x tREFI = {})\n",
                *completed_at - *submitted_at,
                trefi * 2
            );
        }
    }
}
