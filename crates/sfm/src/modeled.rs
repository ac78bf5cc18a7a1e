//! Latency/bandwidth-modeled swap planes: SSD and remote-node media.
//!
//! The DRAM-resident planes ([`crate::sharded::ShardedSfm`], the CPU
//! baseline) model *compression* cost; the media planes here model
//! *transport* cost. A [`ModeledPlane`] stores raw 4 KiB pages and
//! charges each operation a service time of `base + bytes / bandwidth`
//! against a single-server queue (`busy_until`), publishing completion
//! times to a shared [`ClockMirror`] from the `xfm-event` core — so a
//! tiered composition of DRAM, SSD, and remote planes advances one
//! coherent virtual timeline and replays deterministically under a
//! fixed op sequence.
//!
//! [`ReplicatedPlane`] spans two remote [`ModeledPlane`]s with
//! write-both / read-any semantics and checksum-verified read repair:
//! a write that silently loses one replica (the
//! [`FaultSite::ReplicaLoss`] hook) or a whole replica kill leaves
//! every stored page recoverable from the surviving copy, which the
//! chaos gate exercises end to end.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use xfm_event::ClockMirror;
use xfm_faults::{checksum, FaultInjector, FaultSite};
use xfm_telemetry::{Histogram, Registry};
use xfm_types::{
    ByteSize, Cycles, Error, Nanos, OpContext, PageNumber, SwapError, SwapResult, SwapSite,
    TenantId, PAGE_SIZE,
};

use crate::backend::{BackendStats, ExecutedOn, SwapOutcome, SwapPlane};
use crate::zpool::{CompactReport, ZpoolStats};

/// Latency/bandwidth parameters of one storage or network medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaModel {
    /// Fixed cost of a read (seek / request round-trip).
    pub read_base: Nanos,
    /// Fixed cost of a write.
    pub write_base: Nanos,
    /// Sustained transfer bandwidth in bytes per nanosecond
    /// (1 byte/ns = 1 GB/s).
    pub bytes_per_ns: u64,
}

impl MediaModel {
    /// A local NVMe-class SSD: ~20 µs reads, ~50 µs writes, 2 GB/s.
    #[must_use]
    pub fn ssd() -> Self {
        Self {
            read_base: Nanos::from_ns(20_000),
            write_base: Nanos::from_ns(50_000),
            bytes_per_ns: 2,
        }
    }

    /// RDMA-reachable remote memory: ~3 µs either way, 5 GB/s.
    #[must_use]
    pub fn remote() -> Self {
        Self {
            read_base: Nanos::from_ns(3_000),
            write_base: Nanos::from_ns(3_000),
            bytes_per_ns: 5,
        }
    }

    /// Service time for moving `bytes` once, excluding queueing.
    #[must_use]
    pub fn service_ns(&self, base: Nanos, bytes: u64) -> u64 {
        base.as_ns() + bytes / self.bytes_per_ns.max(1)
    }
}

/// One stored page with its integrity checksum.
#[derive(Debug, Clone)]
struct Block {
    data: Bytes,
    sum: u64,
}

#[derive(Debug, Default)]
struct MediaState {
    pages: BTreeMap<u64, Block>,
    stats: BackendStats,
    /// Virtual time at which the device finishes its current request
    /// (single-server queue).
    busy_until: u64,
}

/// A raw-page swap plane over latency/bandwidth-modeled media.
///
/// Pages are stored uncompressed (the compression tier sits above);
/// every operation advances the shared virtual clock by its modeled
/// completion time and records the end-to-end latency (service +
/// queueing) into a [`Histogram`] in deterministic simulated
/// nanoseconds.
#[derive(Debug)]
pub struct ModeledPlane {
    name: String,
    model: MediaModel,
    capacity_pages: u64,
    clock: ClockMirror,
    state: Mutex<MediaState>,
    alive: AtomicBool,
    read_hist: Arc<Histogram>,
    write_hist: Arc<Histogram>,
    faults: Option<Arc<FaultInjector>>,
    corrupted_reads: AtomicU64,
    /// page index -> billed tenant, maintained at the [`SwapPlane`]
    /// surface only (the replication layer goes through the private
    /// `store`/`load_into` and keeps its own replica-count-independent
    /// ledger instead).
    owners: Mutex<BTreeMap<u64, TenantId>>,
}

impl ModeledPlane {
    /// Builds a plane over `model` media. `capacity_pages == 0` means
    /// unbounded. All planes sharing `clock` advance one timeline.
    #[must_use]
    pub fn new(name: &str, model: MediaModel, capacity_pages: u64, clock: ClockMirror) -> Self {
        Self {
            name: name.to_owned(),
            model,
            capacity_pages,
            clock,
            state: Mutex::new(MediaState::default()),
            alive: AtomicBool::new(true),
            read_hist: Arc::new(Histogram::new()),
            write_hist: Arc::new(Histogram::new()),
            faults: None,
            corrupted_reads: AtomicU64::new(0),
            owners: Mutex::new(BTreeMap::new()),
        }
    }

    /// Re-homes the latency histograms into `registry` under
    /// `<name>.read_ns` / `<name>.write_ns`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.read_hist = registry.histogram(&format!("{}.read_ns", self.name));
        self.write_hist = registry.histogram(&format!("{}.write_ns", self.name));
    }

    /// Arms fault injection ([`FaultSite::BitCorruption`] flips a
    /// fetched block's checksum; the stored copy stays intact).
    pub fn attach_faults(&mut self, faults: Arc<FaultInjector>) {
        self.faults = Some(faults);
    }

    /// The plane's name (used as the telemetry metric prefix).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Simulated end-to-end read latencies (ns).
    #[must_use]
    pub fn read_latency(&self) -> &Histogram {
        &self.read_hist
    }

    /// Simulated end-to-end write latencies (ns).
    #[must_use]
    pub fn write_latency(&self) -> &Histogram {
        &self.write_hist
    }

    /// Reads the plane detected as corrupted in transit (and retried).
    #[must_use]
    pub fn corrupted_reads(&self) -> u64 {
        self.corrupted_reads.load(Ordering::Relaxed)
    }

    /// Models a device/node crash: every subsequent operation fails
    /// with a permanent `Device` error until [`ModeledPlane::revive`].
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// Brings a killed plane back (its stored pages survive).
    pub fn revive(&self) {
        self.alive.store(true, Ordering::Release);
    }

    /// Whether the plane is accepting operations.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    fn check_alive(&self) -> SwapResult<()> {
        if self.is_alive() {
            Ok(())
        } else {
            Err(SwapError::new(
                SwapSite::Media,
                Error::Device(format!("{} is down", self.name)),
            ))
        }
    }

    /// Charges one request to the single-server queue and returns the
    /// end-to-end latency (queue wait + service) in simulated ns.
    fn charge(&self, state: &mut MediaState, base: Nanos, bytes: u64) -> u64 {
        let now = self.clock.now_ns();
        let start = state.busy_until.max(now);
        let finish = start + self.model.service_ns(base, bytes);
        state.busy_until = finish;
        self.clock.publish(Nanos::from_ns(finish));
        finish - now
    }

    /// Stores `data` under `page` without consuming semantics (the
    /// replication layer writes both replicas through this).
    fn store(&self, page: PageNumber, data: &[u8]) -> SwapResult<u64> {
        self.check_alive()?;
        if data.len() != PAGE_SIZE {
            return Err(SwapError::new(
                SwapSite::Media,
                Error::InvalidConfig(format!(
                    "page must be {PAGE_SIZE} bytes, got {}",
                    data.len()
                )),
            ));
        }
        let mut state = self.state.lock();
        if state.pages.contains_key(&page.index()) {
            return Err(SwapError::new(
                SwapSite::Media,
                Error::EntryExists { page: page.index() },
            ));
        }
        if self.capacity_pages != 0 && state.pages.len() as u64 >= self.capacity_pages {
            return Err(SwapError::new(SwapSite::Media, Error::SfmRegionFull));
        }
        let latency = self.charge(&mut state, self.model.write_base, data.len() as u64);
        state.pages.insert(
            page.index(),
            Block {
                data: Bytes::copy_from_slice(data),
                sum: checksum(data),
            },
        );
        self.write_hist.record(latency);
        Ok(latency)
    }

    /// Copies `page` into `out` without removing it. The in-transit
    /// [`FaultSite::BitCorruption`] hook fires here: the *fetched*
    /// bytes fail verification while the stored block stays intact, so
    /// a retry succeeds.
    fn load_into(&self, page: PageNumber, out: &mut Vec<u8>) -> SwapResult<u64> {
        self.check_alive()?;
        let mut state = self.state.lock();
        let block = state.pages.get(&page.index()).cloned().ok_or_else(|| {
            SwapError::new(SwapSite::Media, Error::EntryNotFound { page: page.index() })
        })?;
        let latency = self.charge(&mut state, self.model.read_base, block.data.len() as u64);
        drop(state);
        let mut got = checksum(&block.data);
        if let Some(f) = &self.faults {
            if f.should_fire(FaultSite::BitCorruption) {
                got ^= 1;
            }
        }
        if got != block.sum {
            self.corrupted_reads.fetch_add(1, Ordering::Relaxed);
            return Err(SwapError::new(
                SwapSite::Media,
                Error::ChecksumMismatch {
                    page: page.index(),
                    expected: block.sum,
                    got,
                },
            ));
        }
        out.clear();
        out.extend_from_slice(&block.data);
        self.read_hist.record(latency);
        Ok(latency)
    }

    /// The stored checksum of `page`, if present (scrub support).
    fn peek_sum(&self, page: PageNumber) -> Option<u64> {
        self.state.lock().pages.get(&page.index()).map(|b| b.sum)
    }

    /// Drops `page` from the medium (no latency charge: trim is free).
    fn remove(&self, page: PageNumber) -> bool {
        self.state.lock().pages.remove(&page.index()).is_some()
    }

    /// Live page count.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.state.lock().pages.len() as u64
    }

    /// Whether the plane stores no pages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn outcome(&self) -> SwapOutcome {
        SwapOutcome {
            executed_on: ExecutedOn::Cpu,
            compressed_len: PAGE_SIZE as u32,
            cpu_cycles: Cycles::ZERO,
            ddr_bytes: ByteSize::from_bytes(PAGE_SIZE as u64),
        }
    }
}

impl SwapPlane for ModeledPlane {
    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome> {
        self.store(page, data)?;
        self.owners.lock().insert(page.index(), ctx.tenant);
        let outcome = self.outcome();
        self.state.lock().stats.record(&outcome, true);
        Ok(outcome)
    }

    fn swap_in_into_ctx(
        &self,
        _ctx: &OpContext,
        page: PageNumber,
        _do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        self.load_into(page, out)?;
        self.remove(page);
        self.owners.lock().remove(&page.index());
        let outcome = self.outcome();
        self.state.lock().stats.record(&outcome, false);
        Ok(outcome)
    }

    fn contains(&self, page: PageNumber) -> bool {
        self.state.lock().pages.contains_key(&page.index())
    }

    fn compact(&self) -> CompactReport {
        // Raw-page media have no slab fragmentation to compact.
        CompactReport::default()
    }

    fn stats(&self) -> BackendStats {
        self.state.lock().stats
    }

    fn pool_stats(&self) -> ZpoolStats {
        let state = self.state.lock();
        let pages = state.pages.len() as u64;
        ZpoolStats {
            stored_bytes: ByteSize::from_bytes(pages * PAGE_SIZE as u64),
            slot_overhead: ByteSize::ZERO,
            host_pages: pages,
            objects: pages,
        }
    }

    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        let mut merged: BTreeMap<u16, u64> = BTreeMap::new();
        for tenant in self.owners.lock().values() {
            *merged.entry(tenant.as_u16()).or_default() += PAGE_SIZE as u64;
        }
        merged
            .into_iter()
            .map(|(t, b)| (TenantId::new(t), b))
            .collect()
    }

    fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        self.owners.lock().get(&page.index()).copied()
    }
}

/// Write-both / read-any replication across two remote planes.
///
/// Every swap-out is written to both replicas (a write that reaches
/// only one — replica down, or a [`FaultSite::ReplicaLoss`] drop — is
/// still accepted and counted as degraded). Every swap-in reads from
/// the first replica holding a checksum-valid copy, repairing the
/// other replica from the good copy before the entry is consumed.
/// With at most one replica lost at a time, no stored page is ever
/// lost — the invariant the `ci.sh --chaos` replica-kill scenario
/// proves.
#[derive(Debug)]
pub struct ReplicatedPlane {
    replicas: [ModeledPlane; 2],
    stats: Mutex<BackendStats>,
    faults: Option<Arc<FaultInjector>>,
    dropped_writes: AtomicU64,
    degraded_reads: AtomicU64,
    repairs: AtomicU64,
    /// page index -> billed tenant. One entry per logical page, so
    /// usage is independent of how many replicas currently hold a copy
    /// (dropped writes and repairs never change a tenant's bill).
    owners: Mutex<BTreeMap<u64, TenantId>>,
}

impl ReplicatedPlane {
    /// Builds a replica pair over `model` media sharing `clock`.
    /// Each replica independently holds `capacity_pages`.
    #[must_use]
    pub fn new(name: &str, model: MediaModel, capacity_pages: u64, clock: ClockMirror) -> Self {
        Self {
            replicas: [
                ModeledPlane::new(&format!("{name}.r0"), model, capacity_pages, clock.clone()),
                ModeledPlane::new(&format!("{name}.r1"), model, capacity_pages, clock),
            ],
            stats: Mutex::new(BackendStats::default()),
            faults: None,
            dropped_writes: AtomicU64::new(0),
            degraded_reads: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            owners: Mutex::new(BTreeMap::new()),
        }
    }

    /// Re-homes both replicas' latency histograms into `registry`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        for r in &mut self.replicas {
            r.attach_telemetry(registry);
        }
    }

    /// Arms fault injection: [`FaultSite::ReplicaLoss`] silently drops
    /// one replica's copy of a write; [`FaultSite::BitCorruption`]
    /// corrupts fetched blocks inside each replica.
    pub fn attach_faults(&mut self, faults: Arc<FaultInjector>) {
        for r in &mut self.replicas {
            r.attach_faults(Arc::clone(&faults));
        }
        self.faults = Some(faults);
    }

    /// Kills replica `idx` (0 or 1): its operations fail until revived.
    pub fn kill(&self, idx: usize) {
        self.replicas[idx].kill();
    }

    /// Revives replica `idx`; stored pages survive the outage.
    pub fn revive(&self, idx: usize) {
        self.replicas[idx].revive();
    }

    /// Access to one replica (inspection in tests and benches).
    #[must_use]
    pub fn replica(&self, idx: usize) -> &ModeledPlane {
        &self.replicas[idx]
    }

    /// Writes accepted with only one replica reached.
    #[must_use]
    pub fn dropped_writes(&self) -> u64 {
        self.dropped_writes.load(Ordering::Relaxed)
    }

    /// Reads served with one replica unavailable or invalid.
    #[must_use]
    pub fn degraded_reads(&self) -> u64 {
        self.degraded_reads.load(Ordering::Relaxed)
    }

    /// Replica copies restored from the surviving good copy.
    #[must_use]
    pub fn repairs(&self) -> u64 {
        self.repairs.load(Ordering::Relaxed)
    }

    /// Full-sweep anti-entropy pass: restores every page that one
    /// (alive) replica holds and the other lost or corrupted. Returns
    /// the number of copies restored.
    pub fn scrub(&self) -> u64 {
        let mut restored = 0;
        let mut buf = Vec::with_capacity(PAGE_SIZE);
        for (src, dst) in [(0usize, 1usize), (1, 0)] {
            if !self.replicas[src].is_alive() || !self.replicas[dst].is_alive() {
                continue;
            }
            let pages: Vec<u64> = {
                let state = self.replicas[src].state.lock();
                state.pages.keys().copied().collect()
            };
            for idx in pages {
                let page = PageNumber::new(idx);
                let needs_copy = match (
                    self.replicas[src].peek_sum(page),
                    self.replicas[dst].peek_sum(page),
                ) {
                    (Some(s), Some(d)) => s != d,
                    (Some(_), None) => true,
                    _ => false,
                };
                if needs_copy && self.replicas[src].load_into(page, &mut buf).is_ok() {
                    self.replicas[dst].remove(page);
                    if self.replicas[dst].store(page, &buf).is_ok() {
                        restored += 1;
                    }
                }
            }
        }
        self.repairs.fetch_add(restored, Ordering::Relaxed);
        restored
    }

    fn outcome(&self) -> SwapOutcome {
        SwapOutcome {
            executed_on: ExecutedOn::Cpu,
            compressed_len: PAGE_SIZE as u32,
            cpu_cycles: Cycles::ZERO,
            ddr_bytes: ByteSize::from_bytes(PAGE_SIZE as u64),
        }
    }
}

impl SwapPlane for ReplicatedPlane {
    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome> {
        if self.contains(page) {
            return Err(SwapError::new(
                SwapSite::Replica,
                Error::EntryExists { page: page.index() },
            ));
        }
        let mut reached = 0;
        let mut last_err = None;
        for (idx, replica) in self.replicas.iter().enumerate() {
            // The fault hook models a fabric drop on the way to this
            // replica: the write vanishes without an error.
            let dropped = idx == 1
                && self
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.should_fire(FaultSite::ReplicaLoss));
            if dropped {
                self.dropped_writes.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            match replica.store(page, data) {
                Ok(_) => reached += 1,
                Err(e) => last_err = Some(e),
            }
        }
        if reached == 0 {
            let e = last_err.unwrap_or_else(|| {
                SwapError::new(
                    SwapSite::Replica,
                    Error::Device("no replica reachable".into()),
                )
            });
            return Err(SwapError::new(SwapSite::Replica, e.cause().clone())
                .with_retryable(e.is_retryable()));
        }
        self.owners.lock().insert(page.index(), ctx.tenant);
        let outcome = self.outcome();
        self.stats.lock().record(&outcome, true);
        Ok(outcome)
    }

    fn swap_in_into_ctx(
        &self,
        _ctx: &OpContext,
        page: PageNumber,
        _do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        let mut last_err: Option<SwapError> = None;
        let mut served: Option<usize> = None;
        for (idx, replica) in self.replicas.iter().enumerate() {
            match replica.load_into(page, out) {
                Ok(_) => {
                    served = Some(idx);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let Some(good) = served else {
            let e = last_err.unwrap_or_else(|| {
                SwapError::new(
                    SwapSite::Replica,
                    Error::EntryNotFound { page: page.index() },
                )
            });
            return Err(SwapError::new(SwapSite::Replica, e.cause().clone())
                .with_retryable(e.is_retryable()));
        };
        if good != 0 {
            self.degraded_reads.fetch_add(1, Ordering::Relaxed);
        }
        // Read repair before consuming: if the other replica lost or
        // corrupted its copy while alive, restore it so accounting
        // stays symmetric, then consume both.
        let other = 1 - good;
        if self.replicas[other].is_alive() {
            let stale = match self.replicas[other].peek_sum(page) {
                Some(sum) => sum != checksum(out),
                None => true,
            };
            if stale {
                self.replicas[other].remove(page);
                if self.replicas[other].store(page, out).is_ok() {
                    self.repairs.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        for replica in &self.replicas {
            replica.remove(page);
        }
        self.owners.lock().remove(&page.index());
        let outcome = self.outcome();
        self.stats.lock().record(&outcome, false);
        Ok(outcome)
    }

    fn contains(&self, page: PageNumber) -> bool {
        self.replicas.iter().any(|r| r.contains(page))
    }

    fn compact(&self) -> CompactReport {
        CompactReport::default()
    }

    fn stats(&self) -> BackendStats {
        *self.stats.lock()
    }

    fn pool_stats(&self) -> ZpoolStats {
        // Report the fuller replica: with both healthy they agree, and
        // during an outage the survivor is the authoritative view.
        self.replicas
            .iter()
            .map(|r| r.pool_stats())
            .max_by_key(|s| s.objects)
            .unwrap_or_default()
    }

    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        let mut merged: BTreeMap<u16, u64> = BTreeMap::new();
        for tenant in self.owners.lock().values() {
            *merged.entry(tenant.as_u16()).or_default() += PAGE_SIZE as u64;
        }
        merged
            .into_iter()
            .map(|(t, b)| (TenantId::new(t), b))
            .collect()
    }

    fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        self.owners.lock().get(&page.index()).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfm_faults::{FaultPlan, SiteSpec};

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
    }

    #[test]
    fn modeled_round_trip_charges_latency() {
        let plane = ModeledPlane::new("ssd", MediaModel::ssd(), 0, ClockMirror::new());
        let data = page_of(7);
        plane.swap_out(PageNumber::new(1), &data).unwrap();
        assert!(plane.contains(PageNumber::new(1)));
        let (back, _) = plane.swap_in(PageNumber::new(1), false).unwrap();
        assert_eq!(back, data);
        assert!(!plane.contains(PageNumber::new(1)));
        assert_eq!(plane.write_latency().count(), 1);
        assert_eq!(plane.read_latency().count(), 1);
        // 50 µs base + 4096 B / 2 B-per-ns = 52_048 ns, queue empty.
        assert_eq!(plane.write_latency().quantile(0.5), 52_048);
    }

    #[test]
    fn queueing_delays_back_to_back_ops() {
        let clock = ClockMirror::new();
        let plane = ModeledPlane::new("ssd", MediaModel::ssd(), 0, clock.clone());
        let t0 = clock.now_ns();
        plane.swap_out(PageNumber::new(1), &page_of(1)).unwrap();
        let t1 = clock.now_ns();
        plane.swap_out(PageNumber::new(2), &page_of(2)).unwrap();
        let t2 = clock.now_ns();
        assert!(t1 > t0 && t2 > t1, "completion times advance the clock");
        assert_eq!(t2 - t1, t1 - t0, "identical ops take identical service");
    }

    #[test]
    fn capacity_rejects_with_region_full() {
        let plane = ModeledPlane::new("ssd", MediaModel::ssd(), 1, ClockMirror::new());
        plane.swap_out(PageNumber::new(1), &page_of(1)).unwrap();
        let err = plane.swap_out(PageNumber::new(2), &page_of(2)).unwrap_err();
        assert!(err.is_capacity());
        assert!(err.is_retryable_on_other_tier());
        assert_eq!(err.site(), SwapSite::Media);
    }

    #[test]
    fn killed_plane_fails_permanent_until_revived() {
        let plane = ModeledPlane::new("node", MediaModel::remote(), 0, ClockMirror::new());
        plane.swap_out(PageNumber::new(1), &page_of(1)).unwrap();
        plane.kill();
        let err = plane.swap_in(PageNumber::new(1), false).unwrap_err();
        assert!(!err.is_retryable());
        assert!(err.is_retryable_on_other_tier(), "another tier may serve");
        plane.revive();
        let (back, _) = plane.swap_in(PageNumber::new(1), false).unwrap();
        assert_eq!(back, page_of(1));
    }

    #[test]
    fn bit_corruption_is_retryable_and_nonconsuming() {
        let mut plane = ModeledPlane::new("node", MediaModel::remote(), 0, ClockMirror::new());
        let plan = FaultPlan::new(9).with_site(
            FaultSite::BitCorruption,
            SiteSpec::with_probability(1.0).max_fires(1),
        );
        plane.attach_faults(Arc::new(FaultInjector::new(&plan)));
        plane.swap_out(PageNumber::new(3), &page_of(3)).unwrap();
        let err = plane.swap_in(PageNumber::new(3), false).unwrap_err();
        assert!(err.is_corruption() && err.is_retryable());
        assert_eq!(plane.corrupted_reads(), 1);
        // The stored block is intact; the retry succeeds.
        let (back, _) = plane.swap_in(PageNumber::new(3), false).unwrap();
        assert_eq!(back, page_of(3));
    }

    #[test]
    fn replica_write_both_read_any() {
        let rep = ReplicatedPlane::new("rem", MediaModel::remote(), 0, ClockMirror::new());
        rep.swap_out(PageNumber::new(1), &page_of(9)).unwrap();
        assert_eq!(rep.replica(0).len(), 1);
        assert_eq!(rep.replica(1).len(), 1);
        let (back, _) = rep.swap_in(PageNumber::new(1), false).unwrap();
        assert_eq!(back, page_of(9));
        assert_eq!(rep.replica(0).len(), 0);
        assert_eq!(rep.replica(1).len(), 0);
    }

    #[test]
    fn replica_kill_loses_no_pages() {
        let rep = ReplicatedPlane::new("rem", MediaModel::remote(), 0, ClockMirror::new());
        for i in 0..32u64 {
            rep.swap_out(PageNumber::new(i), &page_of(i as u8)).unwrap();
        }
        rep.kill(0);
        for i in 0..32u64 {
            let (back, _) = rep.swap_in(PageNumber::new(i), false).unwrap();
            assert_eq!(back, page_of(i as u8), "page {i} after replica-0 kill");
        }
        assert_eq!(rep.degraded_reads(), 32);
    }

    #[test]
    fn dropped_write_is_repaired_on_read() {
        let mut rep = ReplicatedPlane::new("rem", MediaModel::remote(), 0, ClockMirror::new());
        let plan = FaultPlan::new(5).with_site(
            FaultSite::ReplicaLoss,
            SiteSpec::with_probability(1.0).max_fires(1),
        );
        rep.attach_faults(Arc::new(FaultInjector::new(&plan)));
        rep.swap_out(PageNumber::new(1), &page_of(1)).unwrap();
        assert_eq!(rep.dropped_writes(), 1);
        assert_eq!(rep.replica(1).len(), 0, "replica 1 lost the write");
        // A second page (fault budget spent) lands on both.
        rep.swap_out(PageNumber::new(2), &page_of(2)).unwrap();
        // Reading page 1 repairs replica 1 before consuming.
        let (back, _) = rep.swap_in(PageNumber::new(1), false).unwrap();
        assert_eq!(back, page_of(1));
        assert_eq!(rep.repairs(), 1);
    }

    #[test]
    fn scrub_restores_missing_copies() {
        let mut rep = ReplicatedPlane::new("rem", MediaModel::remote(), 0, ClockMirror::new());
        let plan = FaultPlan::new(5).with_site(
            FaultSite::ReplicaLoss,
            SiteSpec::with_probability(1.0).max_fires(3),
        );
        rep.attach_faults(Arc::new(FaultInjector::new(&plan)));
        for i in 0..3u64 {
            rep.swap_out(PageNumber::new(i), &page_of(i as u8)).unwrap();
        }
        assert_eq!(rep.dropped_writes(), 3);
        assert_eq!(rep.scrub(), 3);
        assert_eq!(rep.replica(1).len(), 3);
        assert_eq!(rep.scrub(), 0, "second pass finds nothing to do");
    }
}
