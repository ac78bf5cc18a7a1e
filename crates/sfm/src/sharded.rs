//! The sharded concurrent swap data plane.
//!
//! The single-threaded stack ([`crate::CpuBackend`] + [`crate::SfmController`])
//! caps aggregate swap throughput at one core, while the paper sizes XFM
//! for fleet-scale SFM traffic (≈426 MB/s of cold-page churn for a 512 GB
//! SFM at 100% promotion rate, §3). This module stripes the entry table,
//! the cold-age table, and the zpool into N independent *shards* — the
//! same shard-for-parallelism move refresh-access-parallelism work makes
//! at the DRAM level — so unrelated faults never contend:
//!
//! - **Routing**: a page's shard is a Fibonacci hash of its page number
//!   masked to a power-of-two shard count, so sequential page ranges
//!   spread evenly across shards.
//! - **Lock discipline**: one `Mutex` per shard, never more than one
//!   held at a time. Cross-shard state (capacity budget, far-set size,
//!   promotion minute) lives in atomics plus one tiny minute-roll mutex
//!   that is never held together with a shard lock.
//! - **Batch handoff**: [`SwapPlane::swap_out_batch_ctx`] same-fill-checks
//!   inline, then drains the remaining pages through the
//!   `compress_pages` worker pool; each worker hands its finished page
//!   to a sink that locks *only the owning shard* for the store-back,
//!   so no lock is ever held across compression.
//!
//! With one shard the plane is observably identical to the unsharded
//! path (pinned by a differential proptest); the capacity budget is
//! global across shards, enforced before any shard's pool grows.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use xfm_compress::auto::block_route;
use xfm_compress::parallel::PageResult;
use xfm_compress::{
    compress_pages_streamed, compress_pages_streamed_traced, Codec, CodecKind, CostModel, Scratch,
    XDeflate,
};
use xfm_faults::{FaultInjector, FaultSite};
use xfm_telemetry::swap_metrics::Stopwatch;
use xfm_telemetry::{Cause, LifecycleStage, Registry, ShardMetrics, SwapMetrics, TenantMetrics};
use xfm_types::{
    ByteSize, Cycles, Error, Nanos, OpContext, PageNumber, Result, SwapResult, TenantId, PAGE_SIZE,
};

use crate::backend::{BackendStats, ExecutedOn, SfmConfig, SwapOutcome, SwapPlane};
use crate::controller::{select_cold_batch, ColdScanConfig, PromotionStats};
use crate::cpu_backend::same_filled;
use crate::table::{SfmEntry, SfmTable};
use crate::zpool::{CompactReport, Handle, Zpool, ZpoolStats};

/// Configuration for [`ShardedSfm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedSfmConfig {
    /// Backend configuration. `region_capacity` is the **global** budget
    /// shared by every shard's pool, not a per-shard limit.
    pub sfm: SfmConfig,
    /// Cold-scan configuration. `scan_batch` rate-limits the *merged*
    /// scan across shards, oldest pages first.
    pub scan: ColdScanConfig,
    /// Number of shards; must be a nonzero power of two.
    pub shards: usize,
}

impl Default for ShardedSfmConfig {
    fn default() -> Self {
        Self {
            sfm: SfmConfig::default(),
            scan: ColdScanConfig::default(),
            shards: 4,
        }
    }
}

/// One stripe of the data plane: pool, entry table, age table, and
/// reusable codec state, all guarded by a single mutex.
struct Shard {
    pool: Zpool,
    table: SfmTable,
    /// Resident pages owned by this shard and their last access times.
    resident: BTreeMap<u64, Nanos>,
    /// This shard's pages currently in far memory.
    far: BTreeSet<u64>,
    stats: BackendStats,
    /// Reusable codec state: after warm-up the sequential swap path runs
    /// without heap allocation inside this shard.
    scratch: Scratch,
    /// Reusable compressed-output buffer for sequential swap-out.
    comp_buf: Vec<u8>,
    /// Host pages this shard's pool currently holds, mirrored into the
    /// global budget counter on every pool mutation.
    host_pages: u64,
}

struct MinuteState {
    start: Nanos,
    stats: PromotionStats,
}

struct Telemetry {
    swap: SwapMetrics,
    shards: ShardMetrics,
    tenants: TenantMetrics,
    registry: Registry,
}

/// The sharded front: same observable behavior as the unsharded plane,
/// but every operation takes `&self` and only the owning shard's lock,
/// so faults and demotions on different shards run concurrently.
///
/// # Examples
///
/// ```
/// use xfm_sfm::{ShardedSfm, ShardedSfmConfig, SwapPlane};
/// use xfm_types::PageNumber;
///
/// let sfm = ShardedSfm::new(ShardedSfmConfig::default());
/// let page = b"16-byte pattern!".repeat(256); // 4096 bytes
/// sfm.swap_out(PageNumber::new(7), &page)?;
/// let (restored, _) = sfm.swap_in(PageNumber::new(7), false)?;
/// assert_eq!(restored, page);
/// # Ok::<(), xfm_types::Error>(())
/// ```
pub struct ShardedSfm {
    shards: Vec<Mutex<Shard>>,
    /// `shards - 1`; page-number hash is masked with this.
    mask: u64,
    config: SfmConfig,
    scan_config: ColdScanConfig,
    codec: Arc<dyn Codec + Send + Sync>,
    cost: CostModel,
    /// Host pages across every shard's pool (the global budget).
    total_host_pages: AtomicU64,
    /// Far-memory pages across every shard (controller accounting).
    far_pages_total: AtomicU64,
    /// Promotions since the current minute started.
    promoted_this_minute: AtomicU64,
    /// Fast-path mirror of `minute.start` so steady-state ops skip the
    /// minute mutex entirely.
    minute_start_ns: AtomicU64,
    minute: Mutex<MinuteState>,
    telemetry: Option<Telemetry>,
    /// Fault-injection hooks; `None` until [`ShardedSfm::attach_faults`],
    /// and the hot path pays one pointer test while detached.
    faults: Option<Arc<FaultInjector>>,
    /// Wall time spent pre-warming every shard's scratch at construction.
    warm_ns: u64,
    /// Synthetic pages round-tripped while pre-warming (3 per shard when
    /// warming succeeds).
    warm_pages: u64,
}

impl std::fmt::Debug for ShardedSfm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSfm")
            .field("shards", &self.shards.len())
            .field("codec", &self.codec.name())
            .finish_non_exhaustive()
    }
}

impl ShardedSfm {
    /// Creates a sharded plane with the default codec (xdeflate) and the
    /// paper's average cost model — the sharded counterpart of
    /// [`crate::CpuBackend::new`].
    ///
    /// # Panics
    ///
    /// Panics when `config.shards` is zero or not a power of two.
    #[must_use]
    pub fn new(config: ShardedSfmConfig) -> Self {
        Self::with_codec(
            config,
            Arc::new(XDeflate::default()),
            CostModel::paper_average(),
        )
    }

    /// Creates a sharded plane with an explicit codec and cost model.
    ///
    /// # Panics
    ///
    /// Panics when `config.shards` is zero or not a power of two.
    #[must_use]
    pub fn with_codec(
        config: ShardedSfmConfig,
        codec: Arc<dyn Codec + Send + Sync>,
        cost: CostModel,
    ) -> Self {
        assert!(
            config.shards > 0 && config.shards.is_power_of_two(),
            "shard count {} must be a nonzero power of two",
            config.shards
        );
        // Pre-warm every shard's scratch so the first real page through
        // each shard already runs at steady-state speed (lazy buffer
        // sizing otherwise costs the documented fresh-vs-warm gap).
        let warm_sw = Stopwatch::start();
        let mut warm_pages = 0u64;
        let shards = (0..config.shards)
            .map(|_| {
                let mut scratch = Scratch::new();
                warm_pages += scratch.warm(&*codec) as u64;
                Mutex::new(Shard {
                    // Every pool is created with the full region capacity;
                    // the *global* budget below is what actually limits
                    // growth, so fragmentation in one shard cannot strand
                    // budget another shard needs.
                    pool: Zpool::new(config.sfm.region_capacity),
                    table: SfmTable::new(),
                    resident: BTreeMap::new(),
                    far: BTreeSet::new(),
                    stats: BackendStats::default(),
                    scratch,
                    comp_buf: Vec::with_capacity(PAGE_SIZE),
                    host_pages: 0,
                })
            })
            .collect();
        let warm_ns = warm_sw.elapsed_ns();
        Self {
            shards,
            mask: (config.shards - 1) as u64,
            config: config.sfm,
            scan_config: config.scan,
            codec,
            cost,
            total_host_pages: AtomicU64::new(0),
            far_pages_total: AtomicU64::new(0),
            promoted_this_minute: AtomicU64::new(0),
            minute_start_ns: AtomicU64::new(0),
            minute: Mutex::new(MinuteState {
                start: Nanos::ZERO,
                stats: PromotionStats::default(),
            }),
            telemetry: None,
            faults: None,
            warm_ns,
            warm_pages,
        }
    }

    /// Attaches the standard swap metrics plus per-shard series
    /// (`xfm_shard_*{shard="i"}` and the `xfm_shard_imbalance` gauge).
    ///
    /// The construction-time scratch warm-up is recorded retroactively
    /// on the lifecycle trail (telemetry attaches after construction),
    /// with the warmed-page count as the aux datum.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        registry.lifecycle().record(
            LifecycleStage::Warmup,
            Cause::Ok,
            0,
            xfm_telemetry::lifecycle::NO_SHARD,
            self.warm_pages,
            self.warm_ns,
        );
        self.telemetry = Some(Telemetry {
            swap: SwapMetrics::register(registry),
            shards: ShardMetrics::register(registry, self.shards.len()),
            tenants: TenantMetrics::register(registry),
            registry: registry.clone(),
        });
    }

    /// Attaches a fault injector; its zpool-store and bit-corruption
    /// sites then apply to every shard's swap path.
    pub fn attach_faults(&mut self, faults: Arc<FaultInjector>) {
        self.faults = Some(faults);
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The active backend configuration.
    #[must_use]
    pub fn config(&self) -> &SfmConfig {
        &self.config
    }

    /// The shard that owns `page`: high bits of a Fibonacci hash of the
    /// page number, masked to the power-of-two shard count. Sequential
    /// page ranges (the common hot-set layout) spread evenly.
    #[must_use]
    pub fn shard_of(&self, page: PageNumber) -> usize {
        ((page.index().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & self.mask) as usize
    }

    // ------------------------------------------------------------------
    // Data-plane helpers (the ops are in the `SwapPlane` impl below)
    // ------------------------------------------------------------------

    /// One shard's slice of a batched swap-in, under a single lock
    /// acquisition. Inline kinds (same-filled, raw) resolve immediately;
    /// real-codec blocks are verified first, then decoded together.
    fn swap_in_shard_batch(
        &self,
        si: usize,
        idxs: &[usize],
        pages: &[PageNumber],
        outs: &mut [Vec<u8>],
        results: &mut [Option<SwapResult<SwapOutcome>>],
    ) {
        let mut guard = self.shards[si].lock();
        let s = &mut *guard;
        // (batch index, entry, fetch_ns) for deferred real-codec blocks.
        let mut blocks: Vec<(usize, SfmEntry, u64)> = Vec::new();
        // Pages already claimed by an earlier duplicate in this batch:
        // the sequential plane would find their entry gone.
        let mut claimed: BTreeSet<u64> = BTreeSet::new();
        for &i in idxs {
            let page = pages[i];
            let psw = self.telemetry.as_ref().map(|_| Stopwatch::start());
            let entry = match s.table.get(page) {
                Some(e) if !claimed.contains(&page.index()) => *e,
                _ => {
                    results[i] = Some(Err(Error::EntryNotFound { page: page.index() }.into()));
                    continue;
                }
            };
            // Fetch + verify, mirroring the sequential path (including
            // injected in-transit flips): on mismatch the entry stays
            // intact and the error is retryable.
            let (got, fetch_ns) = {
                let Shard { pool, .. } = &mut *s;
                match pool.get(entry.handle) {
                    Ok(compressed) => {
                        let got = match self
                            .faults
                            .as_deref()
                            .and_then(|f| f.fire_value(FaultSite::BitCorruption))
                        {
                            Some(v) => {
                                let mut fetched = compressed.to_vec();
                                let bit = (v % (fetched.len() as u64 * 8)) as usize;
                                fetched[bit / 8] ^= 1 << (bit % 8);
                                xfm_faults::checksum(&fetched)
                            }
                            None => xfm_faults::checksum(compressed),
                        };
                        (got, psw.map_or(0, |s| s.elapsed_ns()))
                    }
                    Err(e) => {
                        results[i] = Some(Err(e.into()));
                        continue;
                    }
                }
            };
            if got != entry.checksum {
                if let Some(t) = &self.telemetry {
                    t.swap.lifecycle_event_for(
                        LifecycleStage::Fault,
                        Cause::ChecksumMismatch,
                        entry.tenant,
                        page.index(),
                        si as u32,
                        u64::from(entry.compressed_len),
                        fetch_ns,
                    );
                }
                results[i] = Some(Err(Error::ChecksumMismatch {
                    page: page.index(),
                    expected: entry.checksum,
                    got,
                }
                .into()));
                continue;
            }
            claimed.insert(page.index());
            match entry.codec {
                CodecKind::SameFilled => {
                    {
                        let Shard { pool, .. } = &mut *s;
                        let fill = pool.get(entry.handle).expect("verified above")[0];
                        let out = &mut outs[i];
                        out.clear();
                        out.resize(PAGE_SIZE, fill);
                    }
                    let op_ns = psw.map_or(0, |s| s.elapsed_ns());
                    results[i] = Some(self.finish_batch_page(
                        si,
                        s,
                        page,
                        entry,
                        Cycles::new(PAGE_SIZE as u64),
                        fetch_ns,
                        0,
                        op_ns,
                    ));
                }
                CodecKind::Raw => {
                    {
                        let Shard { pool, .. } = &mut *s;
                        let compressed = pool.get(entry.handle).expect("verified above");
                        let out = &mut outs[i];
                        out.clear();
                        out.extend_from_slice(compressed);
                    }
                    let op_ns = psw.map_or(0, |s| s.elapsed_ns());
                    results[i] = Some(self.finish_batch_page(
                        si,
                        s,
                        page,
                        entry,
                        Cycles::ZERO,
                        fetch_ns,
                        0,
                        op_ns,
                    ));
                }
                _ => blocks.push((i, entry, fetch_ns)),
            }
        }
        if blocks.is_empty() {
            return;
        }

        // Batched decode: every destination buffer is taken out of
        // `outs` so the pool can lend all source slices simultaneously.
        let dsw = self.telemetry.as_ref().map(|_| Stopwatch::start());
        let mut dsts: Vec<Vec<u8>> = blocks
            .iter()
            .map(|&(i, _, _)| {
                let mut d = std::mem::take(&mut outs[i]);
                d.clear();
                d
            })
            .collect();
        let mut decode_res: Vec<Result<()>> = Vec::with_capacity(blocks.len());
        {
            let Shard { pool, scratch, .. } = &mut *s;
            let srcs: Vec<&[u8]> = blocks
                .iter()
                .map(|(_, e, _)| pool.get(e.handle).expect("verified above"))
                .collect();
            match self.codec.decompress_batch_into(&srcs, &mut dsts, scratch) {
                Ok(()) => {
                    for (k, d) in dsts.iter().enumerate() {
                        decode_res.push(if d.len() == PAGE_SIZE {
                            Ok(())
                        } else {
                            Err(Error::Corrupt(format!(
                                "page {} decompressed to {} bytes",
                                pages[blocks[k].0],
                                d.len()
                            )))
                        });
                    }
                }
                Err(_) => {
                    // The batch entry point aborts on the first corrupt
                    // block; re-decode individually so every page gets
                    // its own verdict, exactly as the sequential path
                    // would have produced.
                    for (k, (bi, e, _)) in blocks.iter().enumerate() {
                        let src = pool.get(e.handle).expect("verified above");
                        let d = &mut dsts[k];
                        d.clear();
                        let r = match self.codec.decompress_into(src, d, scratch) {
                            Ok(_) if d.len() != PAGE_SIZE => Err(Error::Corrupt(format!(
                                "page {} decompressed to {} bytes",
                                pages[*bi],
                                d.len()
                            ))),
                            Ok(_) => Ok(()),
                            Err(err) => Err(err),
                        };
                        decode_res.push(r);
                    }
                }
            }
        }
        let decomp_ns_each = dsw.map_or(0, |s| s.elapsed_ns()) / blocks.len() as u64;
        for (k, &(i, entry, fetch_ns)) in blocks.iter().enumerate() {
            outs[i] = std::mem::take(&mut dsts[k]);
            match std::mem::replace(&mut decode_res[k], Ok(())) {
                Ok(()) => {
                    results[i] = Some(self.finish_batch_page(
                        si,
                        s,
                        pages[i],
                        entry,
                        self.cost.decompress_cycles(PAGE_SIZE as u64),
                        fetch_ns,
                        decomp_ns_each,
                        fetch_ns + decomp_ns_each,
                    ));
                }
                Err(e) => {
                    // Corrupt stored data consumes the entry, matching
                    // the sequential path — the owner's bytes are
                    // credited back here too, so the error fall-through
                    // cannot leak accounting.
                    let _ = s.table.remove(pages[i]);
                    let _ = s.pool.free(entry.handle);
                    {
                        let Shard {
                            pool, host_pages, ..
                        } = s;
                        self.sync_host_pages(pool, host_pages);
                    }
                    if let Some(t) = &self.telemetry {
                        t.tenants
                            .series(entry.tenant)
                            .bytes_freed
                            .add(u64::from(entry.compressed_len));
                    }
                    results[i] = Some(Err(e.into()));
                }
            }
        }
    }

    /// Accounting tail shared by every page a batched swap-in resolves:
    /// removes the entry, frees the slot, and mirrors the sequential
    /// path's stats and telemetry.
    #[allow(clippy::too_many_arguments)]
    fn finish_batch_page(
        &self,
        si: usize,
        s: &mut Shard,
        page: PageNumber,
        entry: SfmEntry,
        cycles: Cycles,
        fetch_ns: u64,
        decomp_ns: u64,
        op_ns: u64,
    ) -> SwapResult<SwapOutcome> {
        s.table.remove(page)?;
        s.pool.free(entry.handle)?;
        {
            let Shard {
                pool, host_pages, ..
            } = s;
            self.sync_host_pages(pool, host_pages);
        }
        let outcome = SwapOutcome {
            executed_on: ExecutedOn::Cpu,
            compressed_len: entry.compressed_len,
            cpu_cycles: cycles,
            ddr_bytes: ByteSize::from_bytes(u64::from(entry.compressed_len) + PAGE_SIZE as u64),
        };
        s.stats.record(&outcome, false);
        if let Some(t) = &self.telemetry {
            let cause = match entry.codec {
                CodecKind::SameFilled => Cause::SameFilled,
                CodecKind::Raw => Cause::StoredRaw,
                _ => Cause::Ok,
            };
            t.swap.swap_ins.inc();
            t.swap.cpu_executions.inc();
            t.swap.zpool_load_ns.record(fetch_ns);
            t.swap.swap_in_ns.record(op_ns);
            t.swap.lifecycle_event_for(
                LifecycleStage::Fault,
                cause,
                entry.tenant,
                page.index(),
                si as u32,
                u64::from(entry.compressed_len),
                op_ns,
            );
            t.swap.lifecycle_event_for(
                LifecycleStage::Fetch,
                Cause::Ok,
                entry.tenant,
                page.index(),
                si as u32,
                u64::from(entry.compressed_len),
                fetch_ns,
            );
            if !matches!(cause, Cause::SameFilled | Cause::StoredRaw) {
                t.swap.decompress_ns.record(decomp_ns);
                t.swap.lifecycle_event_for(
                    LifecycleStage::Decompress,
                    Cause::Ok,
                    entry.tenant,
                    page.index(),
                    si as u32,
                    u64::from(entry.compressed_len),
                    decomp_ns,
                );
            }
            let ts = t.tenants.series(entry.tenant);
            ts.swap_ins.inc();
            ts.fault_ns.record(op_ns);
            ts.bytes_freed.add(u64::from(entry.compressed_len));
            t.shards.swap_ins[si].inc();
            t.shards.busy_ns[si].add(op_ns);
            t.shards.entries[si].set(s.table.len() as f64);
        }
        Ok(outcome)
    }

    /// Store-back half of the batched pipeline: runs under the owning
    /// shard's lock only, with the compression already done.
    fn store_compressed(
        &self,
        tenant: TenantId,
        page: PageNumber,
        data: &[u8],
        compressed: &[u8],
    ) -> SwapResult<SwapOutcome> {
        let si = self.shard_of(page);
        let mut guard = self.shards[si].lock();
        let s = &mut *guard;
        if s.table.contains(page) {
            return Err(Error::EntryExists { page: page.index() }.into());
        }
        let sw = self.telemetry.as_ref().map(|_| Stopwatch::start());
        self.store_page(si, s, tenant, page, data, Some(compressed), sw, 0)
    }

    /// Common post-compression store path. `compressed` is
    /// `Some(bytes)` for the batched pipeline (compressed off-lock) or
    /// `None` for the sequential path (compressed into `s.comp_buf`).
    #[allow(clippy::too_many_arguments)]
    fn store_page(
        &self,
        si: usize,
        s: &mut Shard,
        tenant: TenantId,
        page: PageNumber,
        data: &[u8],
        compressed: Option<&[u8]>,
        sw: Option<Stopwatch>,
        compress_ns: u64,
    ) -> SwapResult<SwapOutcome> {
        let cycles = self.cost.compress_cycles(PAGE_SIZE as u64);
        let comp_len = compressed.map_or(s.comp_buf.len(), <[u8]>::len);
        let raw = comp_len > self.config.max_compressed_len();
        if raw {
            // zswap-style reject: store raw; compression cycles were
            // still spent discovering that.
            s.stats.stored_raw += 1;
        }
        // Self-describing auto blocks carry their chosen route in the
        // tag byte; attribute it without decompressing.
        let auto_route = if !raw && self.codec.kind() == CodecKind::Auto {
            block_route(compressed.unwrap_or(&s.comp_buf))
        } else {
            None
        };
        let ssw = self.telemetry.as_ref().map(|_| Stopwatch::start());
        let (handle, extra_ddr, stored_len, checksum) = {
            let Shard {
                pool,
                stats,
                host_pages,
                comp_buf,
                ..
            } = s;
            let bytes: &[u8] = if raw {
                data
            } else {
                compressed.unwrap_or(comp_buf)
            };
            match self.store_bytes(pool, stats, host_pages, bytes) {
                Ok((h, extra)) => (h, extra, bytes.len(), xfm_faults::checksum(bytes)),
                Err(e) => {
                    if let Some(t) = &self.telemetry {
                        let ns = ssw.map_or(0, |s| s.elapsed_ns());
                        t.swap.lifecycle_event_for(
                            LifecycleStage::ZpoolStore,
                            Cause::RegionFull,
                            tenant,
                            page.index(),
                            si as u32,
                            bytes.len() as u64,
                            ns,
                        );
                    }
                    return Err(e.into());
                }
            }
        };
        let store_ns = ssw.map_or(0, |s| s.elapsed_ns());
        let codec_kind = if raw {
            CodecKind::Raw
        } else {
            self.codec.kind()
        };
        s.table.insert(
            page,
            SfmEntry {
                handle,
                compressed_len: stored_len as u32,
                codec: codec_kind,
                checksum,
                tenant,
            },
        )?;

        let outcome = SwapOutcome {
            executed_on: ExecutedOn::Cpu,
            compressed_len: stored_len as u32,
            cpu_cycles: cycles,
            // Cold page read + compressed write, plus any compaction copies.
            ddr_bytes: ByteSize::from_bytes(PAGE_SIZE as u64 + stored_len as u64) + extra_ddr,
        };
        s.stats.record(&outcome, true);
        if let (Some(t), Some(sw)) = (&self.telemetry, &sw) {
            let total = sw.elapsed_ns();
            let cause = if raw {
                t.swap.stored_raw.inc();
                Cause::StoredRaw
            } else {
                Cause::Ok
            };
            t.swap.swap_outs.inc();
            t.swap.cpu_executions.inc();
            match auto_route {
                Some(CodecKind::Raw) => t.swap.codec_route_raw.inc(),
                Some(CodecKind::Xlz) => t.swap.codec_route_xlz.inc(),
                Some(CodecKind::XDeflateFse) => t.swap.codec_route_fse.inc(),
                _ => {}
            }
            if let Some(route) = auto_route {
                t.swap.lifecycle_event_for(
                    LifecycleStage::CodecRoute,
                    Cause::Ok,
                    tenant,
                    page.index(),
                    si as u32,
                    u64::from(route.code()),
                    0,
                );
            }
            if compressed.is_none() {
                // The batched pipeline records compression latency from
                // inside the worker pool instead.
                t.swap.compress_ns.record(compress_ns);
            }
            t.swap.lifecycle_event_for(
                LifecycleStage::Compress,
                cause,
                tenant,
                page.index(),
                si as u32,
                comp_len as u64,
                compress_ns,
            );
            t.swap.zpool_store_ns.record(store_ns);
            t.swap.swap_out_ns.record(total);
            t.swap.lifecycle_event_for(
                LifecycleStage::ZpoolStore,
                cause,
                tenant,
                page.index(),
                si as u32,
                stored_len as u64,
                store_ns,
            );
            let ts = t.tenants.series(tenant);
            ts.swap_outs.inc();
            ts.bytes_stored.add(stored_len as u64);
            t.shards.swap_outs[si].inc();
            t.shards.busy_ns[si].add(total);
            t.shards.entries[si].set(s.table.len() as f64);
        }
        Ok(outcome)
    }

    /// Allocates `bytes` in a shard's pool under the global capacity
    /// budget; on budget exhaustion, compacts *this shard* once and
    /// retries (mirroring the unsharded compact-once-retry), recording
    /// a rejection when still full.
    fn store_bytes(
        &self,
        pool: &mut Zpool,
        stats: &mut BackendStats,
        shard_pages: &mut u64,
        bytes: &[u8],
    ) -> Result<(Handle, ByteSize)> {
        let mut extra_ddr = ByteSize::ZERO;
        if self.store_would_overflow(pool, bytes.len()) {
            let report = pool.compact();
            self.sync_host_pages(pool, shard_pages);
            extra_ddr += report.moved_bytes * 2; // memcpy: read + write
            if self.store_would_overflow(pool, bytes.len()) {
                stats.rejected_full += 1;
                return Err(Error::SfmRegionFull);
            }
        }
        let handle = pool.alloc_faulted(bytes, self.faults.as_deref())?;
        self.sync_host_pages(pool, shard_pages);
        Ok((handle, extra_ddr))
    }

    /// Whether storing `len` bytes would grow this shard's pool past the
    /// *global* budget. Concurrent shards may overshoot the budget by up
    /// to `shards - 1` host pages (the check and the growth are not one
    /// atomic step); single-threaded use is exact.
    fn store_would_overflow(&self, pool: &Zpool, len: usize) -> bool {
        pool.would_grow(len)
            && (self.total_host_pages.load(Ordering::Relaxed) + 1) * PAGE_SIZE as u64
                > self.config.region_capacity.as_bytes()
    }

    /// Mirrors a shard pool's host-page count into the global budget.
    fn sync_host_pages(&self, pool: &Zpool, shard_pages: &mut u64) {
        let now = pool.stats().host_pages;
        let prev = std::mem::replace(shard_pages, now);
        if now >= prev {
            self.total_host_pages
                .fetch_add(now - prev, Ordering::Relaxed);
        } else {
            self.total_host_pages
                .fetch_sub(prev - now, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------------
    // Control plane (sharded SfmController)
    // ------------------------------------------------------------------

    /// Records an application access to `page` at `now`. Returns `true`
    /// if the page was in far memory (a promotion / swap-in fault).
    pub fn touch(&self, page: PageNumber, now: Nanos) -> bool {
        self.roll_minute(now);
        let si = self.shard_of(page);
        let mut s = self.shards[si].lock();
        let was_far = s.far.remove(&page.index());
        if was_far {
            self.far_pages_total.fetch_sub(1, Ordering::Relaxed);
            self.promoted_this_minute.fetch_add(1, Ordering::Relaxed);
        }
        s.resident.insert(page.index(), now);
        was_far
    }

    /// Explicitly marks a page promoted out of far memory without an
    /// application access (controller-initiated prefetch).
    pub fn prefetch(&self, page: PageNumber, now: Nanos) -> bool {
        self.roll_minute(now);
        let si = self.shard_of(page);
        let mut s = self.shards[si].lock();
        let was_far = s.far.remove(&page.index());
        if was_far {
            self.far_pages_total.fetch_sub(1, Ordering::Relaxed);
            self.promoted_this_minute.fetch_add(1, Ordering::Relaxed);
            s.resident.insert(page.index(), now);
        }
        was_far
    }

    /// Scans every shard's resident set at `now`, merging cold
    /// candidates (idle ≥ threshold) across shards, rate-limiting to the
    /// globally oldest `scan_batch` pages, and moving the survivors to
    /// the far set. Locks are taken one shard at a time; candidates
    /// touched between collection and commit are skipped.
    pub fn scan(&self, now: Nanos) -> Vec<PageNumber> {
        self.roll_minute(now);
        let threshold = self.scan_config.cold_threshold;
        let mut cold: Vec<(Nanos, u64)> = Vec::new();
        let mut entry_counts: Vec<u64> = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let s = shard.lock();
            cold.extend(
                s.resident
                    .iter()
                    .filter(|(_, &last)| now.saturating_sub(last) >= threshold)
                    .map(|(&p, &last)| (last, p)),
            );
            entry_counts.push(s.table.len() as u64);
        }
        select_cold_batch(&mut cold, self.scan_config.scan_batch);
        let mut pages = Vec::with_capacity(cold.len());
        for &(last, p) in &cold {
            let pn = PageNumber::new(p);
            let si = self.shard_of(pn);
            let mut s = self.shards[si].lock();
            // Re-check: the page may have been touched (or demoted by a
            // racing scanner) since the candidate was collected.
            if s.resident.get(&p) == Some(&last) {
                s.resident.remove(&p);
                s.far.insert(p);
                self.far_pages_total.fetch_add(1, Ordering::Relaxed);
                pages.push(pn);
                if let Some(t) = &self.telemetry {
                    t.swap.lifecycle_event(
                        LifecycleStage::ColdScanSelect,
                        Cause::Ok,
                        p,
                        si as u32,
                        now.saturating_sub(last).as_ns(),
                        0,
                    );
                }
            }
        }
        if let Some(t) = &self.telemetry {
            t.shards.update_imbalance(&entry_counts);
        }
        pages
    }

    /// One batched demotion round: scan for cold pages, fetch their
    /// contents from the caller, and push them through
    /// [`SwapPlane::swap_out_batch`]. Returns the demoted pages and the
    /// per-page outcomes (in the same order).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SwapPlane::swap_out_batch`].
    pub fn demote_cold(
        &self,
        now: Nanos,
        threads: usize,
        fetch: impl Fn(PageNumber) -> Bytes,
    ) -> SwapResult<(Vec<PageNumber>, Vec<SwapResult<SwapOutcome>>)> {
        let cold = self.scan(now);
        let batch: Vec<(PageNumber, Bytes)> = cold.iter().map(|&p| (p, fetch(p))).collect();
        let results = self.swap_out_batch(&batch, threads)?;
        Ok((cold, results))
    }

    fn roll_minute(&self, now: Nanos) {
        let minute = Nanos::from_secs(60);
        // Fast path: no roll due — one relaxed load, no locks.
        if now.as_ns()
            < self
                .minute_start_ns
                .load(Ordering::Relaxed)
                .saturating_add(minute.as_ns())
        {
            return;
        }
        let mut m = self.minute.lock();
        if now < m.start + minute {
            return; // another thread rolled first
        }
        let mut promoted_pages = self.promoted_this_minute.swap(0, Ordering::Relaxed);
        while now >= m.start + minute {
            let far_bytes = ByteSize::from_pages(self.far_pages_total.load(Ordering::Relaxed));
            let promoted = ByteSize::from_pages(promoted_pages);
            m.stats = PromotionStats {
                promoted_last_minute: promoted,
                far_bytes,
                promotion_rate: if far_bytes.is_zero() {
                    0.0
                } else {
                    promoted.as_bytes() as f64 / far_bytes.as_bytes() as f64
                },
                minutes: m.stats.minutes + 1,
            };
            promoted_pages = 0;
            m.start += minute;
        }
        self.minute_start_ns
            .store(m.start.as_ns(), Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Aggregated views
    // ------------------------------------------------------------------

    /// Number of resident pages across all shards.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.shards.iter().map(|s| s.lock().resident.len()).sum()
    }

    /// Number of far-memory pages across all shards.
    #[must_use]
    pub fn far_pages(&self) -> usize {
        self.far_pages_total.load(Ordering::Relaxed) as usize
    }

    /// Fraction of tracked pages currently classified cold (in far
    /// memory).
    #[must_use]
    pub fn cold_fraction(&self) -> f64 {
        let resident = self.resident_pages();
        let far = self.far_pages();
        let total = resident + far;
        if total == 0 {
            0.0
        } else {
            far as f64 / total as f64
        }
    }

    /// Promotion statistics for the last completed minute.
    #[must_use]
    pub fn promotion_stats(&self) -> PromotionStats {
        self.minute.lock().stats
    }

    /// Live compressed entries per shard (for imbalance inspection).
    #[must_use]
    pub fn shard_entries(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.lock().table.len() as u64)
            .collect()
    }

    /// Republishes per-shard entry gauges and the imbalance gauge.
    /// No-op when telemetry is detached.
    pub fn update_shard_gauges(&self) {
        if let Some(t) = &self.telemetry {
            t.shards.update_imbalance(&self.shard_entries());
        }
    }
}

impl SwapPlane for ShardedSfm {
    /// Compresses `data` (one 4 KiB page) into the owning shard,
    /// billing the stored bytes to `ctx.tenant` (recorded on the entry)
    /// until a swap-in consumes it. Observable behavior matches
    /// [`CpuBackend`](crate::CpuBackend): same-filled short-circuit,
    /// zswap-style raw-store reject, and a compact-once retry when the
    /// global capacity budget is hit.
    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome> {
        let tenant = ctx.tenant;
        if data.len() != PAGE_SIZE {
            return Err(Error::InvalidConfig(format!(
                "swap_out requires a 4 KiB page, got {} bytes",
                data.len()
            ))
            .into());
        }
        let si = self.shard_of(page);
        let mut guard = self.shards[si].lock();
        let s = &mut *guard;
        if s.table.contains(page) {
            return Err(Error::EntryExists { page: page.index() }.into());
        }
        let sw = self.telemetry.as_ref().map(|_| Stopwatch::start());

        // zswap's same-filled-page check runs before compression: a page
        // of one repeated byte stores just that byte.
        if let Some(fill) = same_filled(data) {
            if self.store_would_overflow(&s.pool, 1) {
                return Err(Error::SfmRegionFull.into());
            }
            let handle = s.pool.alloc_faulted(&[fill], self.faults.as_deref())?;
            let Shard {
                pool, host_pages, ..
            } = s;
            self.sync_host_pages(pool, host_pages);
            s.table.insert(
                page,
                SfmEntry {
                    handle,
                    compressed_len: 1,
                    codec: CodecKind::SameFilled,
                    checksum: xfm_faults::checksum(&[fill]),
                    tenant,
                },
            )?;
            let outcome = SwapOutcome {
                executed_on: ExecutedOn::Cpu,
                compressed_len: 1,
                // The scan costs roughly one pass over the page.
                cpu_cycles: Cycles::new(PAGE_SIZE as u64),
                ddr_bytes: ByteSize::from_bytes(PAGE_SIZE as u64 + 1),
            };
            s.stats.record(&outcome, true);
            if let (Some(t), Some(sw)) = (&self.telemetry, &sw) {
                let total = sw.elapsed_ns();
                t.swap.swap_outs.inc();
                t.swap.same_filled.inc();
                t.swap.cpu_executions.inc();
                t.swap.swap_out_ns.record(total);
                t.swap.lifecycle_event_for(
                    LifecycleStage::Compress,
                    Cause::SameFilled,
                    tenant,
                    page.index(),
                    si as u32,
                    u64::from(fill),
                    total,
                );
                let ts = t.tenants.series(tenant);
                ts.swap_outs.inc();
                ts.bytes_stored.add(1);
                t.shards.swap_outs[si].inc();
                t.shards.busy_ns[si].add(total);
                t.shards.entries[si].set(s.table.len() as f64);
            }
            return Ok(outcome);
        }

        s.comp_buf.clear();
        let csw = self.telemetry.as_ref().map(|_| Stopwatch::start());
        {
            let Shard {
                comp_buf, scratch, ..
            } = s;
            self.codec.compress_into(data, comp_buf, scratch)?;
        }
        let compress_ns = csw.map_or(0, |s| s.elapsed_ns());
        self.store_page(si, s, tenant, page, data, None, sw, compress_ns)
    }

    /// Allocation-free fault path: decompresses `page` out of its shard
    /// into `out`, removing the entry. `do_offload` is ignored (CPU
    /// plane), and so is `ctx`: the freed bytes are credited to the
    /// owner recorded on the entry.
    fn swap_in_into_ctx(
        &self,
        _ctx: &OpContext,
        page: PageNumber,
        _do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        let si = self.shard_of(page);
        let mut guard = self.shards[si].lock();
        let s = &mut *guard;
        let sw = self.telemetry.as_ref().map(|_| Stopwatch::start());
        let entry = *s
            .table
            .get(page)
            .ok_or(Error::EntryNotFound { page: page.index() })?;
        let mut fetch_ns = 0u64;
        let mut decomp_ns = 0u64;
        out.clear();
        // Decompress straight out of the pool's arena slice — the
        // compressed bytes are never copied. The slot is freed after the
        // borrow ends, even when decoding fails.
        let decoded: Result<Cycles> = {
            let Shard { pool, scratch, .. } = &mut *s;
            let compressed = pool.get(entry.handle)?;
            if let Some(sw) = &sw {
                fetch_ns = sw.elapsed_ns();
            }
            // Verify before decoding. The checksum covers the bytes as
            // fetched — an injected flip models in-transit corruption —
            // so on mismatch the stored copy is still pristine and the
            // error is retryable: entry and slot stay untouched.
            let got = match self
                .faults
                .as_deref()
                .and_then(|f| f.fire_value(FaultSite::BitCorruption))
            {
                Some(v) => {
                    let mut fetched = compressed.to_vec();
                    let bit = (v % (fetched.len() as u64 * 8)) as usize;
                    fetched[bit / 8] ^= 1 << (bit % 8);
                    xfm_faults::checksum(&fetched)
                }
                None => xfm_faults::checksum(compressed),
            };
            if got != entry.checksum {
                if let Some(t) = &self.telemetry {
                    t.swap.lifecycle_event_for(
                        LifecycleStage::Fault,
                        Cause::ChecksumMismatch,
                        entry.tenant,
                        page.index(),
                        si as u32,
                        u64::from(entry.compressed_len),
                        fetch_ns,
                    );
                }
                return Err(Error::ChecksumMismatch {
                    page: page.index(),
                    expected: entry.checksum,
                    got,
                }
                .into());
            }
            match entry.codec {
                CodecKind::SameFilled => {
                    out.resize(PAGE_SIZE, compressed[0]);
                    Ok(Cycles::new(PAGE_SIZE as u64))
                }
                CodecKind::Raw => {
                    out.extend_from_slice(compressed);
                    Ok(Cycles::ZERO)
                }
                _ => {
                    let dsw = sw.map(|_| Stopwatch::start());
                    match self.codec.decompress_into(compressed, out, scratch) {
                        Ok(_) if out.len() != PAGE_SIZE => Err(Error::Corrupt(format!(
                            "page {page} decompressed to {} bytes",
                            out.len()
                        ))),
                        Ok(_) => {
                            decomp_ns = dsw.map_or(0, |s| s.elapsed_ns());
                            Ok(self.cost.decompress_cycles(PAGE_SIZE as u64))
                        }
                        Err(e) => Err(e),
                    }
                }
            }
        };
        s.table.remove(page)?;
        s.pool.free(entry.handle)?;
        {
            let Shard {
                pool, host_pages, ..
            } = s;
            self.sync_host_pages(pool, host_pages);
        }
        // The entry is consumed from here on — even when decoding
        // failed — so the owner's compressed bytes are credited back
        // unconditionally: no leak on the Corrupt fall-through.
        if let Some(t) = &self.telemetry {
            t.tenants
                .series(entry.tenant)
                .bytes_freed
                .add(u64::from(entry.compressed_len));
        }
        let cycles = decoded?;

        let outcome = SwapOutcome {
            executed_on: ExecutedOn::Cpu,
            compressed_len: entry.compressed_len,
            cpu_cycles: cycles,
            // Compressed read + restored page write.
            ddr_bytes: ByteSize::from_bytes(u64::from(entry.compressed_len) + PAGE_SIZE as u64),
        };
        s.stats.record(&outcome, false);
        if let (Some(t), Some(sw)) = (&self.telemetry, &sw) {
            let total = sw.elapsed_ns();
            let cause = match entry.codec {
                CodecKind::SameFilled => Cause::SameFilled,
                CodecKind::Raw => Cause::StoredRaw,
                _ => Cause::Ok,
            };
            t.swap.swap_ins.inc();
            t.swap.cpu_executions.inc();
            t.swap.zpool_load_ns.record(fetch_ns);
            t.swap.swap_in_ns.record(total);
            t.swap.lifecycle_event_for(
                LifecycleStage::Fault,
                cause,
                entry.tenant,
                page.index(),
                si as u32,
                u64::from(entry.compressed_len),
                total,
            );
            t.swap.lifecycle_event_for(
                LifecycleStage::Fetch,
                Cause::Ok,
                entry.tenant,
                page.index(),
                si as u32,
                u64::from(entry.compressed_len),
                fetch_ns,
            );
            if !matches!(cause, Cause::SameFilled | Cause::StoredRaw) {
                t.swap.decompress_ns.record(decomp_ns);
                t.swap.lifecycle_event_for(
                    LifecycleStage::Decompress,
                    Cause::Ok,
                    entry.tenant,
                    page.index(),
                    si as u32,
                    u64::from(entry.compressed_len),
                    decomp_ns,
                );
            }
            let ts = t.tenants.series(entry.tenant);
            ts.swap_ins.inc();
            ts.fault_ns.record(total);
            t.shards.swap_ins[si].inc();
            t.shards.busy_ns[si].add(total);
            t.shards.entries[si].set(s.table.len() as f64);
        }
        Ok(outcome)
    }

    /// Batched swap-out pipeline. Same-filled (and invalid-size) pages
    /// resolve inline; everything else is compressed by `threads`
    /// workers from the `compress_pages` pool, and each finished page is
    /// stored back under *only its owning shard's lock*. Per-page
    /// results come back in submission order.
    ///
    /// Observable per-page behavior (outcome, stats, stored bytes)
    /// matches calling [`SwapPlane::swap_out_ctx`] sequentially, except
    /// that a page already present is only rejected at store-back time
    /// (after its compression has been wasted).
    fn swap_out_batch_ctx(
        &self,
        ctx: &OpContext,
        batch: &[(PageNumber, Bytes)],
        threads: usize,
    ) -> SwapResult<Vec<SwapResult<SwapOutcome>>> {
        let results: Mutex<Vec<Option<SwapResult<SwapOutcome>>>> =
            Mutex::new((0..batch.len()).map(|_| None).collect());
        let mut compress_idx: Vec<usize> = Vec::new();
        let mut to_compress: Vec<Bytes> = Vec::new();
        // Pages claimed earlier in this batch: later duplicates are
        // rejected here, in submission order, so the out-of-order sink
        // below can never race two occurrences of the same page.
        let mut claimed: BTreeSet<u64> = BTreeSet::new();
        for (i, (page, data)) in batch.iter().enumerate() {
            if data.len() != PAGE_SIZE {
                results.lock()[i] = Some(self.swap_out_ctx(ctx, *page, data));
            } else if self.contains(*page) || claimed.contains(&page.index()) {
                results.lock()[i] = Some(Err(Error::EntryExists { page: page.index() }.into()));
            } else if same_filled(data).is_some() {
                let res = self.swap_out_ctx(ctx, *page, data);
                if res.is_ok() {
                    claimed.insert(page.index());
                }
                results.lock()[i] = Some(res);
            } else {
                claimed.insert(page.index());
                compress_idx.push(i);
                to_compress.push(data.clone());
            }
        }
        if !to_compress.is_empty() {
            let sink = |r: PageResult| {
                let bi = compress_idx[r.index];
                let (page, data) = &batch[bi];
                let res = self.store_compressed(ctx.tenant, *page, data, &r.compressed);
                results.lock()[bi] = Some(res);
            };
            let codec = &*self.codec;
            match &self.telemetry {
                Some(t) => {
                    compress_pages_streamed_traced(codec, &to_compress, threads, &t.registry, sink)?
                }
                None => compress_pages_streamed(codec, &to_compress, threads, sink)?,
            }
        }
        Ok(results
            .into_inner()
            .into_iter()
            .map(|r| r.expect("every page resolved"))
            .collect())
    }

    /// Batched swap-in with per-shard claim batching: `pages[i]` lands
    /// in `outs[i]` (cleared first), per-page results in submission
    /// order. Pages are grouped by owning shard so each shard's lock is
    /// taken exactly once, and every real-codec block in a shard is
    /// decoded through [`Codec::decompress_batch_into`] — same-header
    /// blocks share decode tables, which is what makes speculative
    /// prefetch batches cheaper than N sequential faults. Per-page
    /// observable behavior (outcome, stats, stored bytes, error
    /// conditions) matches calling [`SwapPlane::swap_in_into`]
    /// sequentially.
    ///
    /// # Panics
    ///
    /// Panics when `pages.len() != outs.len()`.
    fn swap_in_batch_into(
        &self,
        pages: &[PageNumber],
        outs: &mut [Vec<u8>],
    ) -> Vec<SwapResult<SwapOutcome>> {
        assert_eq!(
            pages.len(),
            outs.len(),
            "swap_in_batch_into needs one output buffer per page"
        );
        let mut results: Vec<Option<SwapResult<SwapOutcome>>> =
            (0..pages.len()).map(|_| None).collect();
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, p) in pages.iter().enumerate() {
            by_shard[self.shard_of(*p)].push(i);
        }
        for (si, idxs) in by_shard.iter().enumerate() {
            if !idxs.is_empty() {
                self.swap_in_shard_batch(si, idxs, pages, outs, &mut results);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every page resolved"))
            .collect()
    }

    fn contains(&self, page: PageNumber) -> bool {
        self.shards[self.shard_of(page)].lock().table.contains(page)
    }

    /// Compacts every shard's pool, returning the merged report.
    fn compact(&self) -> CompactReport {
        let mut total = CompactReport::default();
        for shard in &self.shards {
            let mut s = shard.lock();
            let r = s.pool.compact();
            let Shard {
                pool, host_pages, ..
            } = &mut *s;
            self.sync_host_pages(pool, host_pages);
            total.moved_objects += r.moved_objects;
            total.moved_bytes += r.moved_bytes;
            total.freed_pages += r.freed_pages;
        }
        total
    }

    /// Merged backend statistics across shards.
    fn stats(&self) -> BackendStats {
        let mut total = BackendStats::default();
        for shard in &self.shards {
            let st = shard.lock().stats;
            total.swap_outs += st.swap_outs;
            total.swap_ins += st.swap_ins;
            total.nma_executions += st.nma_executions;
            total.cpu_executions += st.cpu_executions;
            total.cpu_cycles += st.cpu_cycles;
            total.ddr_bytes += st.ddr_bytes;
            total.rejected_full += st.rejected_full;
            total.stored_raw += st.stored_raw;
        }
        total
    }

    /// Merged zpool statistics across shards.
    fn pool_stats(&self) -> ZpoolStats {
        let mut total = ZpoolStats::default();
        for shard in &self.shards {
            let st = shard.lock().pool.stats();
            total.stored_bytes += st.stored_bytes;
            total.slot_overhead += st.slot_overhead;
            total.host_pages += st.host_pages;
            total.objects += st.objects;
        }
        total
    }

    /// Per-tenant compressed-byte usage merged across shards, sorted by
    /// tenant id. Derived from the resident entries (each billed to the
    /// tenant recorded at swap-out), so the accounting can neither leak
    /// nor double-count and the byte sum always equals
    /// `pool_stats().stored_bytes`.
    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        let mut per: BTreeMap<TenantId, u64> = BTreeMap::new();
        for shard in &self.shards {
            for (t, b) in shard.lock().table.tenant_bytes() {
                *per.entry(t).or_insert(0) += b;
            }
        }
        per.into_iter().collect()
    }

    fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        self.shards[self.shard_of(page)]
            .lock()
            .table
            .get(page)
            .map(|e| e.tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CpuBackend;
    use xfm_compress::Corpus;
    use xfm_types::SwapError;

    fn page_of(corpus: Corpus, seed: u64) -> Vec<u8> {
        corpus.generate(seed, PAGE_SIZE)
    }

    fn plane(shards: usize) -> ShardedSfm {
        ShardedSfm::new(ShardedSfmConfig {
            sfm: SfmConfig {
                region_capacity: ByteSize::from_mib(4),
                ..SfmConfig::default()
            },
            scan: ColdScanConfig::default(),
            shards,
        })
    }

    #[test]
    fn plane_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedSfm>();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = plane(3);
    }

    #[test]
    fn round_trip_across_shard_counts() {
        for shards in [1usize, 2, 4, 8] {
            let sfm = plane(shards);
            for (i, corpus) in Corpus::all().iter().enumerate() {
                let page = page_of(*corpus, i as u64);
                sfm.swap_out(PageNumber::new(i as u64), &page).unwrap();
                assert!(sfm.contains(PageNumber::new(i as u64)));
                let (restored, _) = sfm.swap_in(PageNumber::new(i as u64), false).unwrap();
                assert_eq!(restored, page, "{} shards, {}", shards, corpus.name());
            }
            assert_eq!(sfm.pool_stats().objects, 0);
        }
    }

    #[test]
    fn lifecycle_trail_reconstructs_page_story() {
        use xfm_compress::AutoCodec;

        let mut sfm = ShardedSfm::with_codec(
            ShardedSfmConfig {
                sfm: SfmConfig {
                    region_capacity: ByteSize::from_mib(4),
                    ..SfmConfig::default()
                },
                scan: ColdScanConfig::default(),
                shards: 2,
            },
            Arc::new(AutoCodec::default()),
            CostModel::paper_average(),
        );
        let registry = Registry::new();
        sfm.attach_telemetry(&registry);

        // Warm-up is recorded retroactively at attach time: 3 pages per
        // shard round-tripped through the codec during construction.
        let warmups: Vec<_> = registry
            .lifecycle()
            .snapshot()
            .into_iter()
            .filter(|e| e.stage == LifecycleStage::Warmup)
            .collect();
        assert_eq!(warmups.len(), 1);
        assert_eq!(warmups[0].aux, 6, "3 warm pages x 2 shards");

        let page = page_of(Corpus::EnglishText, 11);
        sfm.swap_out(PageNumber::new(11), &page).unwrap();
        sfm.touch(PageNumber::new(11), Nanos::ZERO);
        let cold = sfm.scan(Nanos::from_secs(600));
        assert_eq!(cold, vec![PageNumber::new(11)]);
        sfm.swap_in(PageNumber::new(11), false).unwrap();

        let story: Vec<LifecycleStage> = registry
            .lifecycle()
            .page_history(11)
            .into_iter()
            .map(|e| e.stage)
            .collect();
        for stage in [
            LifecycleStage::CodecRoute,
            LifecycleStage::Compress,
            LifecycleStage::ZpoolStore,
            LifecycleStage::ColdScanSelect,
            LifecycleStage::Fault,
            LifecycleStage::Fetch,
            LifecycleStage::Decompress,
        ] {
            assert!(story.contains(&stage), "missing {stage:?} in {story:?}");
        }
        // Events for one page all carry that page's owning shard.
        let si = sfm.shard_of(PageNumber::new(11)) as u32;
        for e in registry.lifecycle().page_history(11) {
            assert_eq!(e.shard, si);
        }
    }

    #[test]
    fn hash_routing_spreads_sequential_pages() {
        let sfm = plane(8);
        let mut counts = [0usize; 8];
        for p in 0..8000u64 {
            counts[sfm.shard_of(PageNumber::new(p))] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (700..=1300).contains(&c),
                "shard {s} got {c} of 8000 sequential pages"
            );
        }
    }

    #[test]
    fn one_shard_matches_cpu_backend_outcomes() {
        let sfm = plane(1);
        let cpu = CpuBackend::new(SfmConfig {
            region_capacity: ByteSize::from_mib(4),
            ..SfmConfig::default()
        });
        for (i, corpus) in Corpus::all().iter().enumerate() {
            let page = page_of(*corpus, i as u64);
            let a = sfm.swap_out(PageNumber::new(i as u64), &page).unwrap();
            let b = cpu.swap_out(PageNumber::new(i as u64), &page).unwrap();
            assert_eq!(a, b, "{}", corpus.name());
        }
        assert_eq!(sfm.stats(), cpu.stats());
        assert_eq!(sfm.pool_stats(), cpu.pool_stats());
        for i in 0..Corpus::all().len() as u64 {
            let (da, oa) = sfm.swap_in(PageNumber::new(i), false).unwrap();
            let (db, ob) = cpu.swap_in(PageNumber::new(i), false).unwrap();
            assert_eq!(da, db);
            assert_eq!(oa, ob);
        }
        assert_eq!(sfm.stats(), cpu.stats());
    }

    #[test]
    fn capacity_budget_is_global_across_shards() {
        // Two raw pages fill the 2-page global budget no matter which
        // shards they land on.
        let sfm = ShardedSfm::new(ShardedSfmConfig {
            sfm: SfmConfig {
                region_capacity: ByteSize::from_pages(2),
                ..SfmConfig::default()
            },
            scan: ColdScanConfig::default(),
            shards: 4,
        });
        let pages: Vec<Vec<u8>> = (0..3)
            .map(|i| page_of(Corpus::RandomBytes, 7 + i))
            .collect();
        sfm.swap_out(PageNumber::new(0), &pages[0]).unwrap();
        sfm.swap_out(PageNumber::new(1), &pages[1]).unwrap();
        assert!(matches!(
            sfm.swap_out(PageNumber::new(2), &pages[2])
                .map_err(Error::from),
            Err(Error::SfmRegionFull)
        ));
        assert_eq!(sfm.stats().rejected_full, 1);
        // Swapping one in frees global budget for any shard.
        sfm.swap_in(PageNumber::new(0), false).unwrap();
        sfm.swap_out(PageNumber::new(2), &pages[2]).unwrap();
    }

    #[test]
    fn batch_matches_sequential_swap_out() {
        let batch_plane = plane(4);
        let seq_plane = plane(4);
        let batch: Vec<(PageNumber, Bytes)> = (0..24u64)
            .map(|i| {
                let data = if i % 7 == 0 {
                    vec![0xAAu8; PAGE_SIZE]
                } else {
                    page_of(Corpus::all()[i as usize % Corpus::all().len()], i)
                };
                (PageNumber::new(i), Bytes::from(data))
            })
            .collect();
        let results = batch_plane.swap_out_batch(&batch, 4).unwrap();
        assert_eq!(results.len(), batch.len());
        for ((page, data), res) in batch.iter().zip(&results) {
            let seq = seq_plane.swap_out(*page, data).unwrap();
            assert_eq!(res.as_ref().unwrap(), &seq);
        }
        assert_eq!(batch_plane.stats(), seq_plane.stats());
        assert_eq!(batch_plane.pool_stats(), seq_plane.pool_stats());
        // Every page faults back identical on both planes.
        for (page, data) in &batch {
            let (a, _) = batch_plane.swap_in(*page, false).unwrap();
            let (b, _) = seq_plane.swap_in(*page, false).unwrap();
            assert_eq!(&a[..], &data[..]);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn batch_reports_per_page_errors() {
        let sfm = plane(2);
        let good = page_of(Corpus::Json, 1);
        sfm.swap_out(PageNumber::new(5), &good).unwrap();
        let batch = vec![
            (PageNumber::new(5), Bytes::from(good.clone())), // duplicate
            (PageNumber::new(6), Bytes::from(vec![1u8; 10])), // wrong size
            (PageNumber::new(7), Bytes::from(good.clone())), // fine
        ];
        let results = sfm.swap_out_batch(&batch, 2).unwrap();
        assert!(matches!(
            results[0].as_ref().map_err(SwapError::cause),
            Err(Error::EntryExists { page: 5 })
        ));
        assert!(matches!(
            results[1].as_ref().map_err(SwapError::cause),
            Err(Error::InvalidConfig(_))
        ));
        assert!(results[2].is_ok());
        assert!(sfm.contains(PageNumber::new(7)));
    }

    #[test]
    fn touch_scan_prefetch_mirror_controller() {
        use crate::SfmController;
        let scan = ColdScanConfig {
            cold_threshold: Nanos::from_secs(1),
            scan_batch: 3,
        };
        let sfm = ShardedSfm::new(ShardedSfmConfig {
            sfm: SfmConfig::default(),
            scan,
            shards: 4,
        });
        let mut ctl = SfmController::new(scan);
        for p in 0..10u64 {
            let now = Nanos::from_ms(p);
            assert_eq!(
                sfm.touch(PageNumber::new(p), now),
                ctl.touch(PageNumber::new(p), now)
            );
        }
        // Rate-limited scans drain in the same global age order.
        for _ in 0..4 {
            assert_eq!(sfm.scan(Nanos::from_secs(2)), ctl.scan(Nanos::from_secs(2)));
            assert_eq!(sfm.far_pages(), ctl.far_pages());
            assert_eq!(sfm.resident_pages(), ctl.resident_pages());
        }
        // Promotions on fault and on prefetch.
        assert_eq!(
            sfm.touch(PageNumber::new(0), Nanos::from_secs(3)),
            ctl.touch(PageNumber::new(0), Nanos::from_secs(3))
        );
        assert_eq!(
            sfm.prefetch(PageNumber::new(1), Nanos::from_secs(4)),
            ctl.prefetch(PageNumber::new(1), Nanos::from_secs(4))
        );
        assert!((sfm.cold_fraction() - ctl.cold_fraction()).abs() < 1e-12);
        // Minute roll produces the same promotion stats.
        sfm.touch(PageNumber::new(0), Nanos::from_secs(61));
        ctl.touch(PageNumber::new(0), Nanos::from_secs(61));
        assert_eq!(sfm.promotion_stats(), ctl.promotion_stats());
    }

    #[test]
    fn demote_cold_scans_and_stores() {
        let sfm = ShardedSfm::new(ShardedSfmConfig {
            sfm: SfmConfig {
                region_capacity: ByteSize::from_mib(4),
                ..SfmConfig::default()
            },
            scan: ColdScanConfig {
                cold_threshold: Nanos::from_secs(1),
                scan_batch: 0,
            },
            shards: 4,
        });
        let contents: Vec<Bytes> = (0..16u64)
            .map(|i| Bytes::from(page_of(Corpus::Json, i)))
            .collect();
        for p in 0..16u64 {
            sfm.touch(PageNumber::new(p), Nanos::ZERO);
        }
        let (cold, results) = sfm
            .demote_cold(Nanos::from_secs(2), 4, |p| {
                contents[p.index() as usize].clone()
            })
            .unwrap();
        assert_eq!(cold.len(), 16);
        assert!(results.iter().all(std::result::Result::is_ok));
        assert_eq!(sfm.far_pages(), 16);
        for p in 0..16u64 {
            let (restored, _) = sfm.swap_in(PageNumber::new(p), false).unwrap();
            assert_eq!(&restored[..], &contents[p as usize][..]);
        }
    }

    #[test]
    fn concurrent_disjoint_traffic_is_safe() {
        // 4 threads × disjoint page ranges, mixed fault/swap-out traffic.
        let sfm = Arc::new(plane(4));
        const PER_THREAD: u64 = 40;
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sfm = Arc::clone(&sfm);
                scope.spawn(move || {
                    let base = t * PER_THREAD;
                    let mut buf = Vec::with_capacity(PAGE_SIZE);
                    for i in 0..PER_THREAD {
                        let p = PageNumber::new(base + i);
                        let data = page_of(Corpus::Csv, base + i);
                        sfm.swap_out(p, &data).unwrap();
                        sfm.swap_in_into(p, false, &mut buf).unwrap();
                        assert_eq!(buf, data);
                    }
                });
            }
        });
        let stats = sfm.stats();
        assert_eq!(stats.swap_outs, 4 * PER_THREAD);
        assert_eq!(stats.swap_ins, 4 * PER_THREAD);
        assert_eq!(sfm.pool_stats().objects, 0);
    }

    #[test]
    fn telemetry_records_per_shard_series() {
        let registry = Registry::new();
        let mut sfm = plane(2);
        sfm.attach_telemetry(&registry);
        for i in 0..8u64 {
            sfm.swap_out(PageNumber::new(i), &page_of(Corpus::Json, i))
                .unwrap();
        }
        sfm.update_shard_gauges();
        let s = registry.snapshot();
        assert_eq!(s.counters["xfm_swap_outs_total"], 8);
        let per_shard: u64 = (0..2)
            .map(|i| s.counters[&format!("xfm_shard_swap_outs_total{{shard=\"{i}\"}}")])
            .sum();
        assert_eq!(per_shard, 8);
        assert!(s.gauges["xfm_shard_imbalance"] >= 1.0);
        for i in 0..8u64 {
            sfm.swap_in(PageNumber::new(i), false).unwrap();
        }
        let s = registry.snapshot();
        let busy: u64 = (0..2)
            .map(|i| s.counters[&format!("xfm_shard_busy_ns_total{{shard=\"{i}\"}}")])
            .sum();
        assert!(busy > 0, "shard busy time must accumulate");
    }

    #[test]
    fn auto_codec_routes_are_attributed_and_round_trip() {
        let registry = Registry::new();
        let mut sfm = ShardedSfm::with_codec(
            ShardedSfmConfig {
                sfm: SfmConfig {
                    region_capacity: ByteSize::from_mib(4),
                    ..SfmConfig::default()
                },
                scan: ColdScanConfig::default(),
                shards: 2,
            },
            Arc::new(xfm_compress::AutoCodec::default()),
            CostModel::paper_average(),
        );
        sfm.attach_telemetry(&registry);
        // Two runs of different bytes: low-entropy (xlz route) without
        // tripping the same-filled short-circuit ahead of the codec.
        let mut runs = vec![0u8; PAGE_SIZE];
        runs[PAGE_SIZE / 2..].fill(0xFF);
        let pages: Vec<(u64, Vec<u8>)> = [
            page_of(Corpus::Json, 1),
            page_of(Corpus::Json, 2),
            page_of(Corpus::RandomBytes, 3),
            runs,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, data)| (i as u64, data))
        .collect();
        for (p, data) in &pages {
            sfm.swap_out(PageNumber::new(*p), data).unwrap();
        }
        let s = registry.snapshot();
        assert_eq!(s.counters["xfm_codec_route_fse_total"], 2);
        assert_eq!(s.counters["xfm_codec_route_xlz_total"], 1);
        // The random page is either attributed to the probe's raw route
        // or rejected by the zswap-style threshold before attribution.
        assert_eq!(
            s.counters["xfm_codec_route_raw_total"] + s.counters["xfm_stored_raw_total"],
            1
        );
        for (p, data) in &pages {
            let (restored, _) = sfm.swap_in(PageNumber::new(*p), false).unwrap();
            assert_eq!(&restored, data, "page {p}");
        }
    }
}
