//! The [`SwapPlane`] trait and shared accounting types.
//!
//! A plane owns a far-memory region and executes swap-outs (compress
//! into far memory) and swap-ins (decompress back). Every plane in the
//! workspace sits behind [`SwapPlane`]: the Baseline-CPU reference
//! ([`crate::cpu_backend::CpuBackend`]), the sharded concurrent plane
//! ([`crate::sharded::ShardedSfm`]), the modeled SSD and replicated
//! remote planes ([`crate::modeled`]), the tier composition
//! ([`crate::tier::TieredPlane`]), the prefetch engine
//! ([`crate::prefetch::PrefetchEngine`]), and the XFM backend in
//! `xfm-core`, which offloads to the near-memory accelerator and falls
//! back to the CPU when NMA resources are exhausted (paper §6).
//!
//! The op set is the paper's SFM surface — swap-out, swap-in with
//! `do_offload`, compact — each with one body per plane: the
//! context-carrying op. The context-free forms are trait defaults that
//! pass [`OpContext::SYSTEM`]. Methods take `&self` (interior
//! mutability) and return [`SwapResult`] errors that carry the failing
//! [`SwapSite`](xfm_types::SwapSite) and a retryability verdict.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use xfm_types::{ByteSize, Cycles, OpContext, PageNumber, SwapResult, TenantId, PAGE_SIZE};

/// Where a swap operation actually executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecutedOn {
    /// The host CPU ran the codec (baseline, or XFM's `CPU_Fallback`).
    Cpu,
    /// The near-memory accelerator ran the codec during refresh windows.
    Nma,
}

/// Accounting record returned by every swap operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwapOutcome {
    /// Who performed the (de)compression.
    pub executed_on: ExecutedOn,
    /// Compressed size of the page involved.
    pub compressed_len: u32,
    /// Host CPU cycles consumed (zero for NMA executions).
    pub cpu_cycles: Cycles,
    /// Bytes moved over the DDR channel for this operation. For a CPU
    /// swap-out this is read(4 KiB) + write(compressed); for NMA
    /// executions it is zero — the traffic rides the refresh side channel.
    pub ddr_bytes: ByteSize,
}

/// Aggregate statistics for a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BackendStats {
    /// Completed swap-outs.
    pub swap_outs: u64,
    /// Completed swap-ins.
    pub swap_ins: u64,
    /// Swap operations that executed on the NMA.
    pub nma_executions: u64,
    /// Swap operations that fell back to (or ran on) the CPU.
    pub cpu_executions: u64,
    /// Total host CPU cycles spent in codecs.
    pub cpu_cycles: Cycles,
    /// Total DDR-channel traffic caused by swap operations.
    pub ddr_bytes: ByteSize,
    /// Pages rejected because the region was full.
    pub rejected_full: u64,
    /// Pages stored raw because they did not compress.
    pub stored_raw: u64,
}

impl BackendStats {
    /// Records one outcome.
    pub fn record(&mut self, outcome: &SwapOutcome, is_out: bool) {
        if is_out {
            self.swap_outs += 1;
        } else {
            self.swap_ins += 1;
        }
        match outcome.executed_on {
            ExecutedOn::Cpu => self.cpu_executions += 1,
            ExecutedOn::Nma => self.nma_executions += 1,
        }
        self.cpu_cycles += outcome.cpu_cycles;
        self.ddr_bytes += outcome.ddr_bytes;
    }

    /// Fraction of operations that executed on the CPU (the paper's
    /// Fig. 12 "CPU fall backs" metric, for the XFM backend).
    #[must_use]
    pub fn cpu_fraction(&self) -> f64 {
        let total = self.cpu_executions + self.nma_executions;
        if total == 0 {
            0.0
        } else {
            self.cpu_executions as f64 / total as f64
        }
    }
}

/// Configuration shared by SFM backends.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SfmConfig {
    /// Capacity of the compressed region (zpool limit).
    pub region_capacity: ByteSize,
    /// Store the page raw when the compressed size exceeds this fraction
    /// of 4 KiB (zswap-style reject threshold).
    pub max_compressed_fraction: f64,
    /// CPU clock used to convert codec cycles into time.
    pub cpu_freq: xfm_types::Hertz,
}

impl SfmConfig {
    /// Largest acceptable compressed size under the reject threshold.
    #[must_use]
    pub fn max_compressed_len(&self) -> usize {
        (PAGE_SIZE as f64 * self.max_compressed_fraction) as usize
    }
}

impl Default for SfmConfig {
    /// 1 GiB region, 0.95 reject threshold, 2.6 GHz host (the paper's
    /// Xeon E5-2670 reference clock).
    fn default() -> Self {
        Self {
            region_capacity: ByteSize::from_gib(1),
            max_compressed_fraction: 0.95,
            cpu_freq: xfm_types::Hertz::from_ghz(2.6),
        }
    }
}

/// The unified swap data plane.
///
/// Implementors hold the compressed region; callers are the SFM
/// controller (policy) and applications (page faults). Every method
/// takes `&self` — implementations use interior mutability (a mutex, or
/// per-shard mutexes) — so one plane can be shared across threads and
/// behind `Arc` without wrapper locks at every call site. Failures come
/// back as [`SwapError`](xfm_types::SwapError), which names the failing
/// site and whether re-submitting the operation may succeed.
///
/// A plane implements the context-carrying ops
/// ([`SwapPlane::swap_out_ctx`], [`SwapPlane::swap_in_into_ctx`]) and
/// the six accessors. Everything else is provided: the context-free
/// forms run the context-carrying ops as [`OpContext::SYSTEM`], and the
/// batch forms loop over them. Planes with a faster batch path (the
/// sharded plane's worker pool, the XFM backend's parallel pack)
/// override [`SwapPlane::swap_out_batch_ctx`] or
/// [`SwapPlane::swap_in_batch_into`].
pub trait SwapPlane: Send + Sync {
    /// Compresses `data` (one 4 KiB page) into the SFM under `page`,
    /// billing the stored bytes to `ctx.tenant`; `ctx.class` hints the
    /// placement tier.
    ///
    /// # Errors
    ///
    /// - [`xfm_types::Error::EntryExists`] if the page is already out;
    /// - [`xfm_types::Error::SfmRegionFull`] if the region cannot hold it
    ///   even after compaction;
    /// - [`xfm_types::Error::InvalidConfig`] if `data` is not 4 KiB.
    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome>;

    /// Decompresses `page` into the caller's reusable buffer (`out` is
    /// cleared first), removing the entry. With a warm buffer the
    /// steady-state fault performs zero heap allocations. The freed
    /// compressed bytes are credited back to the tenant recorded on the
    /// entry at swap-out; `ctx.tenant` identifies the caller.
    ///
    /// `do_offload` mirrors the paper's parameter: when `false` (a
    /// demand fault) the CPU path is preferred because the application
    /// is stalled; when `true` (a prefetch) the NMA path may be used.
    ///
    /// # Errors
    ///
    /// - [`xfm_types::Error::EntryNotFound`] if the page is not in the
    ///   SFM;
    /// - [`xfm_types::Error::ChecksumMismatch`] if the fetched block
    ///   fails verification — retryable, the entry stays intact;
    /// - [`xfm_types::Error::Corrupt`] if stored data fails to
    ///   decompress (the entry is consumed).
    fn swap_in_into_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome>;

    /// Whether `page` currently lives in the SFM.
    fn contains(&self, page: PageNumber) -> bool;

    /// Runs a compaction pass over the region (the paper's
    /// `xfm_compact()`), returning the `memcpy` report.
    fn compact(&self) -> crate::zpool::CompactReport;

    /// Aggregate statistics.
    fn stats(&self) -> BackendStats;

    /// Zpool-level statistics (occupancy, fragmentation).
    fn pool_stats(&self) -> crate::zpool::ZpoolStats;

    /// Per-tenant stored-byte usage, one entry per tenant that holds a
    /// page (including [`TenantId::SYSTEM`]), sorted by tenant id. On
    /// accounting-exact planes the byte sum equals the pool's stored
    /// bytes.
    fn tenant_usage(&self) -> Vec<(TenantId, u64)>;

    /// The tenant whose account owns `page`'s resident entry. The
    /// prefetch engine uses this to attribute speculative work it
    /// issues on a tenant's behalf.
    fn tenant_of(&self, page: PageNumber) -> Option<TenantId>;

    /// [`SwapPlane::swap_out_ctx`] billed to the system tenant.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SwapPlane::swap_out_ctx`].
    fn swap_out(&self, page: PageNumber, data: &[u8]) -> SwapResult<SwapOutcome> {
        self.swap_out_ctx(&OpContext::SYSTEM, page, data)
    }

    /// [`SwapPlane::swap_in_into_ctx`] issued by the system tenant.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SwapPlane::swap_in_into_ctx`].
    fn swap_in_into(
        &self,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        self.swap_in_into_ctx(&OpContext::SYSTEM, page, do_offload, out)
    }

    /// Allocating form of [`SwapPlane::swap_in_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SwapPlane::swap_in_into_ctx`].
    fn swap_in(&self, page: PageNumber, do_offload: bool) -> SwapResult<(Vec<u8>, SwapOutcome)> {
        let mut out = Vec::with_capacity(PAGE_SIZE);
        let outcome = self.swap_in_into_ctx(&OpContext::SYSTEM, page, do_offload, &mut out)?;
        Ok((out, outcome))
    }

    /// [`SwapPlane::swap_out_batch_ctx`] billed to the system tenant.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SwapPlane::swap_out_batch_ctx`].
    fn swap_out_batch(
        &self,
        batch: &[(PageNumber, Bytes)],
        threads: usize,
    ) -> SwapResult<Vec<SwapResult<SwapOutcome>>> {
        self.swap_out_batch_ctx(&OpContext::SYSTEM, batch, threads)
    }

    /// Swaps out a batch of pages billed to `ctx.tenant`, returning
    /// per-page results in submission order. The default runs pages
    /// sequentially through [`SwapPlane::swap_out_ctx`]; concurrent
    /// planes override it to fan the codec work across worker threads
    /// (`threads` is a hint).
    ///
    /// # Errors
    ///
    /// A top-level error means the batch machinery itself failed;
    /// per-page conditions are reported in the inner results.
    fn swap_out_batch_ctx(
        &self,
        ctx: &OpContext,
        batch: &[(PageNumber, Bytes)],
        _threads: usize,
    ) -> SwapResult<Vec<SwapResult<SwapOutcome>>> {
        Ok(batch
            .iter()
            .map(|(page, data)| self.swap_out_ctx(ctx, *page, data))
            .collect())
    }

    /// Swaps in a batch of pages into the caller's reusable buffers,
    /// returning per-page results in submission order (`pages[i]` lands
    /// in `outs[i]`). The speculative prefetch engine issues its claim
    /// batches through this entry point. The default runs pages
    /// sequentially through [`SwapPlane::swap_in_into_ctx`] as the
    /// system tenant with `do_offload = true` (a batch is speculation,
    /// not a stalled demand fault); the sharded plane overrides it to
    /// decode each shard's pages through the codec's batched entry
    /// point under a single lock acquisition.
    fn swap_in_batch_into(
        &self,
        pages: &[PageNumber],
        outs: &mut [Vec<u8>],
    ) -> Vec<SwapResult<SwapOutcome>> {
        pages
            .iter()
            .zip(outs.iter_mut())
            .map(|(page, out)| self.swap_in_into_ctx(&OpContext::SYSTEM, *page, true, out))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_record_and_fraction() {
        let mut s = BackendStats::default();
        s.record(
            &SwapOutcome {
                executed_on: ExecutedOn::Cpu,
                compressed_len: 100,
                cpu_cycles: Cycles::new(1000),
                ddr_bytes: ByteSize::from_bytes(4196),
            },
            true,
        );
        s.record(
            &SwapOutcome {
                executed_on: ExecutedOn::Nma,
                compressed_len: 100,
                cpu_cycles: Cycles::ZERO,
                ddr_bytes: ByteSize::ZERO,
            },
            false,
        );
        assert_eq!(s.swap_outs, 1);
        assert_eq!(s.swap_ins, 1);
        assert_eq!(s.cpu_fraction(), 0.5);
        assert_eq!(s.cpu_cycles.count(), 1000);
        assert_eq!(s.ddr_bytes.as_bytes(), 4196);
    }

    #[test]
    fn empty_stats_fraction_is_zero() {
        assert_eq!(BackendStats::default().cpu_fraction(), 0.0);
    }

    #[test]
    fn config_reject_threshold() {
        let cfg = SfmConfig {
            max_compressed_fraction: 0.5,
            ..SfmConfig::default()
        };
        assert_eq!(cfg.max_compressed_len(), 2048);
    }

    #[test]
    fn swap_plane_trait_is_object_safe() {
        fn _takes_dyn(_b: &dyn SwapPlane) {}
    }

    /// Every plane bills a context batch to the context's tenant — the
    /// default batch op and the sharded worker-pool override alike.
    #[test]
    fn batch_ctx_bills_the_context_tenant_on_every_plane() {
        use std::sync::Arc;
        use xfm_event::ClockMirror;
        use xfm_types::{PlacementClass, PlaneId};

        use crate::{
            CpuBackend, MediaModel, ModeledPlane, PrefetchConfig, PrefetchEngine, ReplicatedPlane,
            ShardedSfm, ShardedSfmConfig, TierSpec, TieredPlane,
        };

        let clock = ClockMirror::new();
        let ssd = || ModeledPlane::new("ssd", MediaModel::ssd(), 0, clock.clone());
        let sharded = || ShardedSfm::new(ShardedSfmConfig::default());
        let planes: Vec<(&str, Box<dyn SwapPlane>)> = vec![
            ("sharded", Box::new(sharded())),
            ("cpu", Box::new(CpuBackend::new(SfmConfig::default()))),
            ("modeled", Box::new(ssd())),
            (
                "replicated",
                Box::new(ReplicatedPlane::new(
                    "remote",
                    MediaModel::remote(),
                    0,
                    clock.clone(),
                )),
            ),
            (
                "prefetch",
                Box::new(PrefetchEngine::new(
                    Arc::new(sharded()),
                    PrefetchConfig::default(),
                )),
            ),
            (
                "tiered",
                Box::new(
                    TieredPlane::new(vec![TierSpec::new(
                        Arc::new(ssd()),
                        PlaneId::new(1),
                        PlacementClass::Ssd,
                    )])
                    .unwrap(),
                ),
            ),
        ];
        let tenant = TenantId::new(3);
        let ctx = OpContext::for_tenant(tenant);
        // Same-filled pages resolve inline; pattern pages take the
        // sharded plane's compression worker pool.
        let batch: Vec<(PageNumber, Bytes)> = (0..8u64)
            .map(|i| {
                let data = if i % 2 == 0 {
                    vec![i as u8; PAGE_SIZE]
                } else {
                    format!("page {i:04} pattern ")
                        .repeat(PAGE_SIZE / 18 + 1)
                        .as_bytes()[..PAGE_SIZE]
                        .to_vec()
                };
                (PageNumber::new(i), Bytes::from(data))
            })
            .collect();
        for (name, plane) in &planes {
            let results = plane.swap_out_batch_ctx(&ctx, &batch, 2).unwrap();
            assert!(results.iter().all(Result::is_ok), "{name}: {results:?}");
            for (page, _) in &batch {
                assert_eq!(plane.tenant_of(*page), Some(tenant), "{name} page {page}");
            }
            let billed: Vec<TenantId> = plane.tenant_usage().iter().map(|&(t, _)| t).collect();
            assert_eq!(billed, vec![tenant], "{name}");
        }
    }
}
