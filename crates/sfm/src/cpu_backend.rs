//! The Baseline-CPU SFM backend.
//!
//! Runs the codec synchronously on the host, exactly like zswap: a
//! swap-out reads the cold 4 KiB page from DRAM, compresses it, and
//! writes the compressed bytes back into the zpool; a swap-in reads the
//! compressed bytes and writes the restored page. Both page and pool are
//! cold by definition, so every one of those four transfers hits DRAM —
//! the `4 x GBSwapped` channel traffic of the paper's §1/§3 (overhead
//! O3) — and the codec burns host cycles (overhead O2).
//!
//! The backend fronts its single-threaded state with one mutex so the
//! whole surface is `&self` (the [`SwapPlane`] contract); the lock is a
//! plain uncontended acquisition on this baseline, costing nothing
//! measurable next to a codec pass.

use std::sync::Arc;

use parking_lot::Mutex;
use xfm_compress::{Codec, CodecKind, CostModel, Scratch, XDeflate};
use xfm_faults::{FaultInjector, FaultSite};
use xfm_telemetry::lifecycle::NO_SHARD;
use xfm_telemetry::swap_metrics::Stopwatch;
use xfm_telemetry::{Cause, LifecycleStage, Registry, SwapMetrics};
use xfm_types::{
    ByteSize, Cycles, Error, OpContext, PageNumber, Result, SwapResult, TenantId, PAGE_SIZE,
};

use crate::backend::{BackendStats, ExecutedOn, SfmConfig, SwapOutcome, SwapPlane};
use crate::table::{SfmEntry, SfmTable};
use crate::zpool::{CompactReport, Zpool, ZpoolStats};

/// The Baseline-CPU backend.
///
/// # Examples
///
/// ```
/// use xfm_sfm::{CpuBackend, SfmConfig, SwapPlane};
/// use xfm_types::PageNumber;
///
/// let b = CpuBackend::new(SfmConfig::default());
/// let page = b"16-byte pattern!".repeat(256); // 4096 bytes
/// let out = b.swap_out(PageNumber::new(1), &page)?;
/// assert!(out.compressed_len < 4096);
/// // DDR traffic: 4 KiB page read + compressed write.
/// assert_eq!(out.ddr_bytes.as_bytes(), 4096 + u64::from(out.compressed_len));
/// # Ok::<(), xfm_types::Error>(())
/// ```
pub struct CpuBackend {
    config: SfmConfig,
    inner: Mutex<CpuInner>,
}

/// Single-owner state behind the mutex; every data-path method lives
/// here so the public wrappers are one lock acquisition each.
struct CpuInner {
    config: SfmConfig,
    codec: Box<dyn Codec + Send>,
    cost: CostModel,
    pool: Zpool,
    table: SfmTable,
    stats: BackendStats,
    /// Reusable codec state: after the first page, swap-out and swap-in
    /// run without heap allocation in the codec.
    scratch: Scratch,
    /// Reusable compressed-output buffer for swap-out.
    comp_buf: Vec<u8>,
    /// Swap-path metric handles; `None` until
    /// [`CpuBackend::attach_telemetry`], and the hot path pays nothing
    /// while detached.
    telemetry: Option<SwapMetrics>,
    /// Fault-injection hooks; `None` until [`CpuBackend::attach_faults`],
    /// and the hot path pays one pointer test while detached.
    faults: Option<Arc<FaultInjector>>,
}

impl std::fmt::Debug for CpuBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("CpuBackend")
            .field("codec", &inner.codec.name())
            .field("entries", &inner.table.len())
            .finish_non_exhaustive()
    }
}

impl CpuBackend {
    /// Creates a backend with the default codec (xdeflate, matching the
    /// Deflate class the paper's hardware implements) and the paper's
    /// average cost model.
    #[must_use]
    pub fn new(config: SfmConfig) -> Self {
        Self::with_codec(
            config,
            Box::new(XDeflate::default()),
            CostModel::paper_average(),
        )
    }

    /// Creates a backend with an explicit codec and cost model.
    #[must_use]
    pub fn with_codec(config: SfmConfig, codec: Box<dyn Codec + Send>, cost: CostModel) -> Self {
        // Pre-warm the scratch so the first real page already runs at
        // steady-state speed (lazy buffer sizing otherwise costs the
        // documented fresh-vs-warm gap on the first few pages).
        let mut scratch = Scratch::new();
        scratch.warm(&*codec);
        Self {
            config,
            inner: Mutex::new(CpuInner {
                pool: Zpool::new(config.region_capacity),
                table: SfmTable::new(),
                stats: BackendStats::default(),
                config,
                codec,
                cost,
                scratch,
                comp_buf: Vec::with_capacity(PAGE_SIZE),
                telemetry: None,
                faults: None,
            }),
        }
    }

    /// Attaches the standard swap-path metrics to `registry`.
    ///
    /// The baseline backend reports through the same `xfm_*` series as
    /// the XFM backend — every operation counts as a CPU execution —
    /// so A/B comparisons read one schema. Its swaps land on the
    /// registry's lifecycle trail with the stages and causes
    /// [`crate::ShardedSfm`] records, under [`NO_SHARD`].
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.inner.lock().telemetry = Some(SwapMetrics::register(registry));
    }

    /// Attaches a fault injector; its zpool-store and bit-corruption
    /// sites then apply to this backend's swap path.
    pub fn attach_faults(&mut self, faults: Arc<FaultInjector>) {
        self.inner.lock().faults = Some(faults);
    }

    /// Number of pages currently held by the SFM entry table.
    #[must_use]
    pub fn table_len(&self) -> usize {
        self.inner.lock().table.len()
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SfmConfig {
        &self.config
    }
}

impl SwapPlane for CpuBackend {
    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome> {
        self.inner.lock().swap_out(ctx.tenant, page, data)
    }

    /// `do_offload` and `ctx` are ignored: the CPU baseline has no
    /// offload path, and the freed bytes go back to the entry's owner.
    fn swap_in_into_ctx(
        &self,
        _ctx: &OpContext,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        self.inner.lock().swap_in_into(page, do_offload, out)
    }

    fn contains(&self, page: PageNumber) -> bool {
        self.inner.lock().table.contains(page)
    }

    fn compact(&self) -> CompactReport {
        self.inner.lock().pool.compact()
    }

    fn stats(&self) -> BackendStats {
        self.inner.lock().stats
    }

    fn pool_stats(&self) -> ZpoolStats {
        self.inner.lock().pool.stats()
    }

    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        self.inner.lock().table.tenant_bytes()
    }

    fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        self.inner.lock().table.get(page).map(|e| e.tenant)
    }
}

/// Returns the fill byte when every byte of `data` is identical.
#[must_use]
pub fn same_filled(data: &[u8]) -> Option<u8> {
    let (&first, rest) = data.split_first()?;
    rest.iter().all(|&b| b == first).then_some(first)
}

impl CpuInner {
    fn swap_out(
        &mut self,
        tenant: TenantId,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome> {
        if data.len() != PAGE_SIZE {
            return Err(Error::InvalidConfig(format!(
                "swap_out requires a 4 KiB page, got {} bytes",
                data.len()
            ))
            .into());
        }
        if self.table.contains(page) {
            return Err(Error::EntryExists { page: page.index() }.into());
        }
        let sw = self.telemetry.as_ref().map(|_| Stopwatch::start());

        // zswap's same-filled-page check runs before compression: a page
        // of one repeated byte stores just that byte.
        if let Some(fill) = same_filled(data) {
            let handle = self.pool.alloc_faulted(&[fill], self.faults.as_deref())?;
            self.table.insert(
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
            self.stats.record(&outcome, true);
            if let (Some(t), Some(sw)) = (&self.telemetry, &sw) {
                let total = sw.elapsed_ns();
                t.swap_outs.inc();
                t.same_filled.inc();
                t.cpu_executions.inc();
                t.swap_out_ns.record(total);
                t.lifecycle_event_for(
                    LifecycleStage::Compress,
                    Cause::SameFilled,
                    tenant,
                    page.index(),
                    NO_SHARD,
                    u64::from(fill),
                    total,
                );
            }
            return Ok(outcome);
        }

        self.comp_buf.clear();
        let csw = self.telemetry.as_ref().map(|_| Stopwatch::start());
        self.codec
            .compress_into(data, &mut self.comp_buf, &mut self.scratch)?;
        let compress_ns = csw.map_or(0, |s| s.elapsed_ns());
        let cycles = self.cost.compress_cycles(PAGE_SIZE as u64);
        let (bytes, codec_kind): (&[u8], CodecKind) =
            if self.comp_buf.len() > self.config.max_compressed_len() {
                // zswap-style reject: store raw; compression cycles were
                // still spent discovering that.
                self.stats.stored_raw += 1;
                (data, CodecKind::Raw)
            } else {
                (&self.comp_buf, self.codec.kind())
            };

        // Allocate; on full, compact once and retry (the paper's
        // swapOut() "initiates an internal compaction operation if the
        // SFM capacity limit is hit").
        let mut extra_ddr = ByteSize::ZERO;
        let ssw = self.telemetry.as_ref().map(|_| Stopwatch::start());
        let handle = match self.pool.alloc_faulted(bytes, self.faults.as_deref()) {
            Ok(h) => h,
            Err(Error::SfmRegionFull) => {
                let report = self.pool.compact();
                extra_ddr += report.moved_bytes * 2; // memcpy: read + write
                match self.pool.alloc_faulted(bytes, self.faults.as_deref()) {
                    Ok(h) => h,
                    Err(e) => {
                        self.stats.rejected_full += 1;
                        if let Some(t) = &self.telemetry {
                            t.lifecycle_event_for(
                                LifecycleStage::ZpoolStore,
                                Cause::RegionFull,
                                tenant,
                                page.index(),
                                NO_SHARD,
                                bytes.len() as u64,
                                ssw.map_or(0, |s| s.elapsed_ns()),
                            );
                        }
                        return Err(e.into());
                    }
                }
            }
            Err(e) => return Err(e.into()),
        };
        let store_ns = ssw.map_or(0, |s| s.elapsed_ns());
        self.table.insert(
            page,
            SfmEntry {
                handle,
                compressed_len: bytes.len() as u32,
                codec: codec_kind,
                checksum: xfm_faults::checksum(bytes),
                tenant,
            },
        )?;

        let outcome = SwapOutcome {
            executed_on: ExecutedOn::Cpu,
            compressed_len: bytes.len() as u32,
            cpu_cycles: cycles,
            // Cold page read + compressed write, plus any compaction copies.
            ddr_bytes: ByteSize::from_bytes(PAGE_SIZE as u64 + bytes.len() as u64) + extra_ddr,
        };
        self.stats.record(&outcome, true);
        if let (Some(t), Some(sw)) = (&self.telemetry, &sw) {
            let total = sw.elapsed_ns();
            let cause = if matches!(codec_kind, CodecKind::Raw) {
                t.stored_raw.inc();
                Cause::StoredRaw
            } else {
                Cause::Ok
            };
            t.swap_outs.inc();
            t.cpu_executions.inc();
            t.compress_ns.record(compress_ns);
            t.zpool_store_ns.record(store_ns);
            t.swap_out_ns.record(total);
            t.lifecycle_event_for(
                LifecycleStage::Compress,
                cause,
                tenant,
                page.index(),
                NO_SHARD,
                self.comp_buf.len() as u64,
                compress_ns,
            );
            t.lifecycle_event_for(
                LifecycleStage::ZpoolStore,
                cause,
                tenant,
                page.index(),
                NO_SHARD,
                u64::from(outcome.compressed_len),
                store_ns,
            );
        }
        Ok(outcome)
    }

    fn swap_in_into(
        &mut self,
        page: PageNumber,
        _do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        let sw = self.telemetry.as_ref().map(|_| Stopwatch::start());
        let entry = *self
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
            let compressed = self.pool.get(entry.handle)?;
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
                    t.lifecycle_event_for(
                        LifecycleStage::Fault,
                        Cause::ChecksumMismatch,
                        entry.tenant,
                        page.index(),
                        NO_SHARD,
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
                    match self
                        .codec
                        .decompress_into(compressed, out, &mut self.scratch)
                    {
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
        self.table.remove(page)?;
        self.pool.free(entry.handle)?;
        let cycles = decoded?;

        let outcome = SwapOutcome {
            executed_on: ExecutedOn::Cpu,
            compressed_len: entry.compressed_len,
            cpu_cycles: cycles,
            // Compressed read + restored page write.
            ddr_bytes: ByteSize::from_bytes(u64::from(entry.compressed_len) + PAGE_SIZE as u64),
        };
        self.stats.record(&outcome, false);
        if let (Some(t), Some(sw)) = (&self.telemetry, &sw) {
            let total = sw.elapsed_ns();
            let cause = match entry.codec {
                CodecKind::SameFilled => Cause::SameFilled,
                CodecKind::Raw => Cause::StoredRaw,
                _ => Cause::Ok,
            };
            t.swap_ins.inc();
            t.cpu_executions.inc();
            t.zpool_load_ns.record(fetch_ns);
            t.swap_in_ns.record(total);
            t.lifecycle_event_for(
                LifecycleStage::Fault,
                cause,
                entry.tenant,
                page.index(),
                NO_SHARD,
                u64::from(entry.compressed_len),
                total,
            );
            t.lifecycle_event_for(
                LifecycleStage::Fetch,
                Cause::Ok,
                entry.tenant,
                page.index(),
                NO_SHARD,
                u64::from(entry.compressed_len),
                fetch_ns,
            );
            if !matches!(cause, Cause::SameFilled | Cause::StoredRaw) {
                t.decompress_ns.record(decomp_ns);
                t.lifecycle_event_for(
                    LifecycleStage::Decompress,
                    Cause::Ok,
                    entry.tenant,
                    page.index(),
                    NO_SHARD,
                    u64::from(entry.compressed_len),
                    decomp_ns,
                );
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfm_compress::Corpus;

    fn page_of(corpus: Corpus, seed: u64) -> Vec<u8> {
        corpus.generate(seed, PAGE_SIZE)
    }

    fn backend() -> CpuBackend {
        CpuBackend::new(SfmConfig {
            region_capacity: ByteSize::from_mib(4),
            ..SfmConfig::default()
        })
    }

    #[test]
    fn swap_round_trip_preserves_data() {
        let b = backend();
        for (i, corpus) in Corpus::all().iter().enumerate() {
            let page = page_of(*corpus, i as u64);
            b.swap_out(PageNumber::new(i as u64), &page).unwrap();
            assert!(b.contains(PageNumber::new(i as u64)));
            let (restored, _) = b.swap_in(PageNumber::new(i as u64), false).unwrap();
            assert_eq!(restored, page, "{}", corpus.name());
            assert!(!b.contains(PageNumber::new(i as u64)));
        }
    }

    #[test]
    fn ddr_traffic_matches_four_component_model() {
        let b = backend();
        let page = page_of(Corpus::Json, 1);
        let out = b.swap_out(PageNumber::new(1), &page).unwrap();
        let c = u64::from(out.compressed_len);
        assert_eq!(out.ddr_bytes.as_bytes(), 4096 + c);
        let (_, inn) = b.swap_in(PageNumber::new(1), false).unwrap();
        assert_eq!(inn.ddr_bytes.as_bytes(), c + 4096);
        // Over the round trip: compressed read+write plus page read+write.
        assert_eq!(b.stats().ddr_bytes.as_bytes(), 2 * 4096 + 2 * c);
    }

    #[test]
    fn incompressible_page_stored_raw() {
        let b = backend();
        let page = page_of(Corpus::RandomBytes, 2);
        let out = b.swap_out(PageNumber::new(9), &page).unwrap();
        assert_eq!(out.compressed_len as usize, PAGE_SIZE);
        assert_eq!(b.stats().stored_raw, 1);
        let (restored, _) = b.swap_in(PageNumber::new(9), false).unwrap();
        assert_eq!(restored, page);
    }

    #[test]
    fn double_swap_out_rejected() {
        let b = backend();
        let page = page_of(Corpus::Csv, 3);
        b.swap_out(PageNumber::new(4), &page).unwrap();
        assert!(matches!(
            b.swap_out(PageNumber::new(4), &page).map_err(Error::from),
            Err(Error::EntryExists { page: 4 })
        ));
    }

    #[test]
    fn swap_in_of_missing_page_rejected() {
        let b = backend();
        assert!(matches!(
            b.swap_in(PageNumber::new(11), false).map_err(Error::from),
            Err(Error::EntryNotFound { page: 11 })
        ));
    }

    #[test]
    fn wrong_size_page_rejected() {
        let b = backend();
        assert!(b.swap_out(PageNumber::new(1), &[0u8; 100]).is_err());
    }

    #[test]
    fn region_full_rejects_after_compaction_attempt() {
        // Tiny region: two raw pages fill it.
        let b = CpuBackend::new(SfmConfig {
            region_capacity: ByteSize::from_pages(2),
            ..SfmConfig::default()
        });
        let p = page_of(Corpus::RandomBytes, 7);
        b.swap_out(PageNumber::new(0), &p).unwrap();
        let p2 = page_of(Corpus::RandomBytes, 8);
        b.swap_out(PageNumber::new(1), &p2).unwrap();
        let p3 = page_of(Corpus::RandomBytes, 9);
        assert!(matches!(
            b.swap_out(PageNumber::new(2), &p3).map_err(Error::from),
            Err(Error::SfmRegionFull)
        ));
        assert_eq!(b.stats().rejected_full, 1);
        // Swapping one in frees room again.
        b.swap_in(PageNumber::new(0), false).unwrap();
        b.swap_out(PageNumber::new(2), &p3).unwrap();
    }

    #[test]
    fn cpu_cycles_charged_for_codec_work() {
        let b = backend();
        let page = page_of(Corpus::EnglishText, 5);
        b.swap_out(PageNumber::new(1), &page).unwrap();
        b.swap_in(PageNumber::new(1), false).unwrap();
        // paper average: 7.65 cycles/byte each way on 4096 bytes.
        let expected = (7.65 * 4096.0) as u64;
        let cycles = b.stats().cpu_cycles.count();
        assert!(
            cycles >= 2 * expected - 10 && cycles <= 2 * expected + 10,
            "cycles {cycles}"
        );
    }

    #[test]
    fn same_filled_pages_store_one_byte() {
        let b = backend();
        for (i, fill) in [(0u64, 0u8), (1, 0xff), (2, 0x5a)] {
            let page = vec![fill; PAGE_SIZE];
            let out = b.swap_out(PageNumber::new(i), &page).unwrap();
            assert_eq!(out.compressed_len, 1, "fill {fill:#x}");
            let (restored, _) = b.swap_in(PageNumber::new(i), false).unwrap();
            assert_eq!(restored, page);
        }
        // An almost-same-filled page goes through the codec instead.
        let mut page = vec![7u8; PAGE_SIZE];
        page[4095] = 8;
        let out = b.swap_out(PageNumber::new(9), &page).unwrap();
        assert!(out.compressed_len > 1);
        let (restored, _) = b.swap_in(PageNumber::new(9), false).unwrap();
        assert_eq!(restored, page);
    }

    #[test]
    fn same_filled_detector() {
        assert_eq!(same_filled(&[3, 3, 3]), Some(3));
        assert_eq!(same_filled(&[3, 3, 4]), None);
        assert_eq!(same_filled(&[9]), Some(9));
        assert_eq!(same_filled(&[]), None);
    }

    #[test]
    fn swap_plane_surface_round_trips() {
        let b = backend();
        let plane: &dyn SwapPlane = &b;
        let page = page_of(Corpus::Json, 4);
        plane.swap_out(PageNumber::new(3), &page).unwrap();
        assert!(plane.contains(PageNumber::new(3)));
        let mut out = Vec::new();
        plane
            .swap_in_into(PageNumber::new(3), false, &mut out)
            .unwrap();
        assert_eq!(out, page);
        assert_eq!(plane.stats().swap_outs, 1);
    }

    #[test]
    fn swap_plane_errors_carry_site_and_retryability() {
        let b = backend();
        let plane: &dyn SwapPlane = &b;
        let err = plane.swap_in(PageNumber::new(11), false).unwrap_err();
        assert_eq!(err.site, xfm_types::SwapSite::EntryTable);
        assert!(!err.retryable);
    }

    #[test]
    fn tenant_attribution_round_trips() {
        let b = backend();
        let plane: &dyn SwapPlane = &b;
        let ctx = OpContext::for_tenant(TenantId::new(4));
        let page = page_of(Corpus::Json, 6);
        let out = plane.swap_out_ctx(&ctx, PageNumber::new(1), &page).unwrap();
        assert_eq!(plane.tenant_of(PageNumber::new(1)), Some(TenantId::new(4)));
        assert_eq!(
            plane.tenant_usage(),
            vec![(TenantId::new(4), u64::from(out.compressed_len))]
        );
        // Context-free ops bill the system tenant.
        plane
            .swap_out(PageNumber::new(2), &page_of(Corpus::Csv, 7))
            .unwrap();
        assert_eq!(plane.tenant_of(PageNumber::new(2)), Some(TenantId::SYSTEM));
        // Consuming the entry returns the bytes to the owner's account.
        let mut buf = Vec::new();
        plane
            .swap_in_into_ctx(&ctx, PageNumber::new(1), false, &mut buf)
            .unwrap();
        assert_eq!(plane.tenant_usage().len(), 1);
        assert_eq!(plane.tenant_usage()[0].0, TenantId::SYSTEM);
    }

    #[test]
    fn telemetry_records_cpu_swap_path() {
        let registry = Registry::new();
        let mut b = backend();
        b.attach_telemetry(&registry);
        // One compressible, one same-filled, one incompressible page.
        b.swap_out(PageNumber::new(0), &page_of(Corpus::Json, 1))
            .unwrap();
        b.swap_out(PageNumber::new(1), &vec![9u8; PAGE_SIZE])
            .unwrap();
        b.swap_out(PageNumber::new(2), &page_of(Corpus::RandomBytes, 2))
            .unwrap();
        for i in 0..3 {
            b.swap_in(PageNumber::new(i), false).unwrap();
        }
        let s = registry.snapshot();
        assert_eq!(s.counters["xfm_swap_outs_total"], 3);
        assert_eq!(s.counters["xfm_swap_ins_total"], 3);
        assert_eq!(s.counters["xfm_cpu_executions_total"], 6);
        assert_eq!(s.counters["xfm_same_filled_total"], 1);
        assert_eq!(s.counters["xfm_stored_raw_total"], 1);
        assert_eq!(
            s.counters
                .get("xfm_nma_executions_total")
                .copied()
                .unwrap_or(0),
            0
        );
        assert_eq!(s.histograms["xfm_swap_out_latency_ns"].count, 3);
        assert_eq!(s.histograms["xfm_swap_in_latency_ns"].count, 3);
        // Only the codec-compressed page exercises compress/decompress
        // (raw pages still pass through compress_into to discover they
        // don't fit, so compress has 2 samples; decompress has 1).
        assert_eq!(s.histograms["xfm_compress_latency_ns"].count, 2);
        assert_eq!(s.histograms["xfm_decompress_latency_ns"].count, 1);
        assert!(!s.events.is_empty());
        assert!(s
            .events
            .iter()
            .any(|e| e.stage == LifecycleStage::Compress && e.cause == Cause::SameFilled));
    }

    #[test]
    fn unattached_cpu_backend_behaves_identically() {
        let registry = Registry::new();
        let plain = backend();
        let mut traced = backend();
        traced.attach_telemetry(&registry);
        for (i, corpus) in Corpus::all().iter().enumerate() {
            let page = page_of(*corpus, i as u64);
            let a = plain.swap_out(PageNumber::new(i as u64), &page).unwrap();
            let b = traced.swap_out(PageNumber::new(i as u64), &page).unwrap();
            assert_eq!(a, b);
            let (da, oa) = plain.swap_in(PageNumber::new(i as u64), false).unwrap();
            let (db, ob) = traced.swap_in(PageNumber::new(i as u64), false).unwrap();
            assert_eq!(da, db);
            assert_eq!(oa, ob);
        }
    }

    #[test]
    fn pool_stats_reflect_occupancy() {
        let b = backend();
        let page = page_of(Corpus::ZeroPage, 0);
        b.swap_out(PageNumber::new(1), &page).unwrap();
        let s = b.pool_stats();
        assert_eq!(s.objects, 1);
        assert!(s.stored_bytes.as_bytes() < 200);
    }
}
