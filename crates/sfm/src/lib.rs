//! User-level software-defined far memory (SFM) stack.
//!
//! Re-creates the control plane the paper's §2.1/§6 describe — the part
//! that production systems build on Linux zswap — as a user-level library
//! (the same move the paper makes by integrating with AIFM):
//!
//! - [`zpool`] — a zsmalloc-like slab allocator that packs compressed
//!   pages into 4 KiB host pages using size classes, with explicit
//!   compaction (`memcpy`-cost accounted) to fight internal fragmentation;
//! - [`table`] — the SFM entry table mapping swapped-out page numbers to
//!   their compressed locations (the paper's red-black tree);
//! - [`backend`] — the [`SwapPlane`] trait, the one op set every plane
//!   implements behind `&self`: `swap_out_ctx` / `swap_in_into_ctx`
//!   (the tenant-carrying swap ops; the context-free and batch forms are
//!   trait defaults over them), `compact`, and the stats and tenant
//!   accessors, with per-operation accounting (CPU cycles, DRAM traffic)
//!   and structured [`SwapError`](xfm_types::SwapError) results;
//! - [`cpu_backend`] — the Baseline-CPU backend: synchronous compression
//!   on the host, four DRAM traffic components per swap; the reference
//!   the sharded plane is differentially tested against;
//! - [`controller`] — cold-page scanning (120 s idle threshold by
//!   default, per the Google fleet data) and promotion-rate tracking;
//! - [`sharded`] — the sharded concurrent swap data plane: the table,
//!   age table, and zpool striped into N lock-independent shards behind
//!   a `&self` front, with a batched swap-out pipeline feeding the
//!   `compress_pages` worker pool and a batched swap-in entry point
//!   decoding per shard through the codec's batch path;
//! - [`predictor`] — far-memory access predictors behind the
//!   [`Predictor`] trait: stride heuristic, online-logistic learned
//!   model, and a confidence-gated hybrid;
//! - [`prefetch`] — the [`PrefetchEngine`]: batched speculative
//!   swap-ins landed in a bounded staging cache the fault path consults
//!   before decompressing (hit = memcpy);
//! - [`autotune`] — a UCB bandit over control-plane knob settings,
//!   scored from live telemetry and frozen while the degrade ladder is
//!   active;
//! - [`modeled`] — latency/bandwidth-modeled SSD and remote-node swap
//!   planes on the `xfm-event` virtual clock, plus write-both/read-any
//!   replication with checksum-verified repair;
//! - [`tier`] — the [`TieredPlane`]: multiple [`SwapPlane`]s composed
//!   into a demotion hierarchy with per-tier capacity budgets,
//!   placement verdicts, and fault-driven promotion;
//! - [`far`] — the [`FarMemory<T>`](FarMemory) smart-pointer client
//!   API: deref faults pages in through any plane, drop writes back;
//! - [`trace`] — an AIFM-like synthetic swap-trace generator with
//!   Zipfian object popularity.
//!
//! # Examples
//!
//! ```
//! use xfm_sfm::{CpuBackend, SfmConfig, SwapPlane};
//! use xfm_types::{ByteSize, PageNumber};
//!
//! let backend = CpuBackend::new(SfmConfig {
//!     region_capacity: ByteSize::from_mib(4),
//!     ..SfmConfig::default()
//! });
//! let page = vec![42u8; 4096];
//! backend.swap_out(PageNumber::new(7), &page)?;
//! let (restored, _) = backend.swap_in(PageNumber::new(7), false)?;
//! assert_eq!(restored, page);
//! # Ok::<(), xfm_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autotune;
pub mod backend;
pub mod controller;
pub mod cpu_backend;
pub mod far;
pub mod modeled;
pub mod predictor;
pub mod prefetch;
pub mod sharded;
pub mod table;
pub mod tier;
pub mod trace;
pub mod zpool;

pub use autotune::{AutoTuneConfig, AutoTuner, CodecBias, Knobs, TierBias};
pub use backend::{BackendStats, ExecutedOn, SfmConfig, SwapOutcome, SwapPlane};
pub use controller::{ColdScanConfig, PromotionStats, SfmController};
pub use cpu_backend::CpuBackend;
pub use far::{FarGuard, FarGuardMut, FarMemory, FarObject};
pub use modeled::{MediaModel, ModeledPlane, ReplicatedPlane};
pub use predictor::{
    HybridPredictor, LearnedPredictor, Predictor, PredictorStats, StridePredictor,
};
pub use prefetch::{PredictorKind, PrefetchConfig, PrefetchEngine, PumpReport};
pub use sharded::{ShardedSfm, ShardedSfmConfig};
pub use table::{SfmEntry, SfmTable};
pub use tier::{Placement, TierSpec, TierStats, TieredPlane};
pub use trace::{SwapEvent, SwapKind, TraceConfig, TraceGenerator};
pub use zpool::{CompactReport, Handle, Zpool, ZpoolStats};
