//! `xfm-telemetry`: the observability substrate of the XFM stack.
//!
//! XFM's core claim is quantitative — refresh windows (~8% of cycles)
//! provide "just-enough" bandwidth for SFM traffic, and CPU fallbacks
//! and interference must stay rare. Validating that requires uniform,
//! always-on measurement rather than ad-hoc per-struct counters. This
//! crate provides:
//!
//! - [`Counter`] / [`Gauge`] — lock-free atomic scalars, safe to bump
//!   from the `compress_pages` worker threads; a relaxed atomic add on
//!   the hot path and nothing else;
//! - [`Histogram`] — log-bucketed latency histograms (8 sub-buckets per
//!   octave, ≤ 12.5% relative bucket error) with p50/p90/p99/max
//!   reporting, mergeable across workers and channels;
//! - [`Registry`] — a cheap, cloneable handle that names and owns the
//!   above; registration happens once at attach time, after which every
//!   recording site holds an `Arc` straight to its atomic;
//! - [`Snapshot`] — a point-in-time capture with JSON and
//!   Prometheus-text exposition (`xfm-repro --metrics-out`);
//! - the **causal trace plane** ("xfm-trace"): [`LifecycleTrace`] — the
//!   one event stream every instrumented site writes: a lock-free,
//!   fixed-capacity page-lifecycle audit trail (cold-scan → compress →
//!   zpool store → fault → fetch → decompress, plus routing, retries,
//!   prefetch, tier moves and mode changes) with per-event [`Cause`]
//!   tags and virtual and wall timestamps, queryable per page and
//!   exportable as Chrome `trace_event` JSON ([`chrome`]);
//!   [`FlightRecorder`] — automatic
//!   post-mortem dumps of the trailing events on retry exhaustion or
//!   degraded-mode transitions ([`flight`]); and a minimal JSON parser
//!   ([`json`]) so round-trip validation works offline.
//!
//! Telemetry is opt-in per component: backends, schedulers, and
//! simulators hold an `Option` of their metric bundle, so an
//! uninstrumented hot path pays nothing at all, and an instrumented one
//! pays only relaxed atomics (no allocation in steady state — the
//! lifecycle trail is preallocated).
//!
//! # Examples
//!
//! ```
//! use xfm_telemetry::lifecycle::NO_SHARD;
//! use xfm_telemetry::{Cause, LifecycleStage, Registry};
//!
//! let registry = Registry::new();
//! let swaps = registry.counter("xfm_swap_outs_total");
//! let lat = registry.histogram("xfm_swap_out_latency_ns");
//! swaps.inc();
//! lat.record(1_800);
//! registry
//!     .lifecycle()
//!     .record(LifecycleStage::Compress, Cause::Ok, 7, NO_SHARD, 0, 1_800);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["xfm_swap_outs_total"], 1);
//! assert_eq!(snap.events[0].stage, LifecycleStage::Compress);
//! assert!(snap.to_json().contains("xfm_swap_out_latency_ns"));
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod counter;
pub mod export;
pub mod flight;
pub mod hist;
pub mod json;
pub mod lifecycle;
pub mod prefetch_metrics;
pub mod registry;
pub mod shard_metrics;
pub mod swap_metrics;
pub mod tenant_metrics;

pub use counter::{Counter, Gauge};
pub use export::{HistogramSnapshot, Snapshot};
pub use flight::{FlightRecorder, FlightRecorderConfig};
pub use hist::Histogram;
pub use lifecycle::{Cause, LifecycleEvent, LifecycleStage, LifecycleTrace};
pub use prefetch_metrics::PrefetchMetrics;
pub use registry::Registry;
pub use shard_metrics::ShardMetrics;
pub use swap_metrics::SwapMetrics;
pub use tenant_metrics::{TenantMetrics, TenantSeries};
