//! The three workloads, their inputs, and the operation stream.
//!
//! Every workload provisions three tenants over one sharded plane: two
//! guaranteed tenants with a hot cache of `resident_pages` each and a
//! compressed quota that never binds, and one best-effort tenant with
//! half that hot cache and a compressed quota below its working set.
//! Inputs (payload pages and the key-popularity table) are generated
//! from the seed before anything is timed.
//!
//! Every page written carries a version [`Stamp`] in its first
//! [`STAMP_LEN`] bytes: the writer and its per-writer sequence number.
//! The rest of the page is the seed-derived payload of its key, so the
//! final integrity sweep can tell a stale or lost version from the
//! current one.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::{Rng, SeedableRng, Xoshiro256};
use xfm_compress::Corpus;
use xfm_serve::loadgen::value_page;
use xfm_serve::{ServiceClass, TenantSpec};
use xfm_types::{ByteSize, TenantId, PAGE_SIZE};

/// Page contents stored under each key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// `xfm_serve::loadgen::value_page`: half structured, half random
    /// (about 1.6:1 under xdeflate, over 2 KiB compressed).
    ValuePage,
    /// An `EnglishText` corpus page (about 3:1, packs several objects
    /// per zpool host page).
    EnglishText,
}

/// A best-effort tenant's burst window: of every `period` tickets, `len`
/// go to its `hot_keys` lowest keys.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    pub period: u64,
    pub len: u64,
    pub hot_keys: u64,
}

/// One workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Hot-cache pages of each guaranteed tenant (best effort: half).
    pub resident_pages: u64,
    /// Keys per tenant.
    pub keys_per_tenant: u64,
    /// Fraction of point ops that are writes.
    pub write_fraction: f64,
    /// Zipf exponent of key popularity; 0 draws keys uniformly.
    pub zipf_s: f64,
    /// Every `scan_every`-th op of a client reads [`SCAN_LEN`] sequential
    /// keys instead (0: no scans).
    pub scan_every: u64,
    pub burst: Option<Burst>,
    pub payload: Payload,
    /// Whether the timed phase must make no plane or codec call.
    pub all_hot: bool,
}

/// Keys read by one scan.
const SCAN_LEN: u64 = 64;
/// Best-effort compressed quota, per key of its keyspace: below what a
/// page of either payload compresses to, so the quota binds.
const BE_QUOTA_PER_KEY: ByteSize = ByteSize::from_kib(1);

const SKEW_BURST: Burst = Burst {
    period: 1_024,
    len: 128,
    hot_keys: 64,
};

/// Every workload, by name.
pub const WORKLOADS: [Workload; 3] = [
    // Faults do most of the work: the keyspace is 4x the hot cache.
    Workload {
        name: "serve-skew",
        resident_pages: 512,
        keys_per_tenant: 2_048,
        write_fraction: 0.3,
        zipf_s: 0.99,
        scan_every: 512,
        burst: Some(SKEW_BURST),
        payload: Payload::ValuePage,
        all_hot: false,
    },
    // The same mix, but every tenant's keyspace fits its hot cache.
    Workload {
        name: "serve-hot",
        resident_pages: 512,
        keys_per_tenant: 256,
        write_fraction: 0.3,
        zipf_s: 0.99,
        scan_every: 512,
        burst: Some(SKEW_BURST),
        payload: Payload::ValuePage,
        all_hot: true,
    },
    // Write churn over a keyspace 8x the hot cache.
    Workload {
        name: "serve-churn",
        resident_pages: 256,
        keys_per_tenant: 2_048,
        write_fraction: 0.9,
        zipf_s: 0.0,
        scan_every: 0,
        burst: None,
        payload: Payload::EnglishText,
        all_hot: false,
    },
];

/// Tenants per workload; [`Workload::tenants`] lists the best-effort
/// one last.
const TENANTS: usize = 3;
const BEST_EFFORT_INDEX: usize = TENANTS - 1;

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The three tenants' quotas and classes.
    pub fn tenants(&self) -> Vec<TenantSpec> {
        let all_keys = ByteSize::from_pages(self.keys_per_tenant);
        vec![
            TenantSpec::new(
                TenantId::new(1),
                ByteSize::from_pages(self.resident_pages),
                all_keys,
            ),
            TenantSpec::new(
                TenantId::new(2),
                ByteSize::from_pages(self.resident_pages),
                all_keys,
            ),
            TenantSpec::new(
                TenantId::new(3),
                ByteSize::from_pages(self.resident_pages / 2),
                ByteSize::from_bytes(BE_QUOTA_PER_KEY.as_bytes() * self.keys_per_tenant),
            )
            .with_class(ServiceClass::BestEffort),
        ]
    }
}

/// Bytes at the start of every written page that hold its [`Stamp`].
pub const STAMP_LEN: usize = 16;
const STAMP_MAGIC: u32 = 0x7866_6d76;

/// The version a written page carries: who wrote it, and that writer's
/// sequence number for the write (from 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub writer: u32,
    pub seq: u64,
}

/// The writer id of the prefill; clients are `0..CLIENTS`.
pub const PREFILL_WRITER: u32 = u32::MAX;
/// The version every prefilled page carries.
pub const PREFILL_STAMP: Stamp = Stamp {
    writer: PREFILL_WRITER,
    seq: 1,
};

impl Stamp {
    /// Writes the stamp over the first [`STAMP_LEN`] bytes of `page`.
    pub fn write(self, page: &mut [u8]) {
        page[..4].copy_from_slice(&STAMP_MAGIC.to_le_bytes());
        page[4..8].copy_from_slice(&self.writer.to_le_bytes());
        page[8..16].copy_from_slice(&self.seq.to_le_bytes());
    }

    /// The stamp `page` carries, if it carries one.
    pub fn read(page: &[u8]) -> Option<Stamp> {
        let head = page.get(..STAMP_LEN)?;
        let u32_at = |i: usize| u32::from_le_bytes(head[i..i + 4].try_into().expect("4 bytes"));
        (u32_at(0) == STAMP_MAGIC).then(|| Stamp {
            writer: u32_at(4),
            seq: u64::from_le_bytes(head[8..16].try_into().expect("8 bytes")),
        })
    }
}

/// The last version each key got from one writer.
pub struct Versions {
    writer: u32,
    next_seq: u64,
    /// `last[tenant][key]`: sequence number of the writer's last stored
    /// write of the key, 0 if it stored none.
    last: Vec<Vec<u64>>,
}

impl Versions {
    /// No writes yet by `writer` over `keys` keys of each tenant.
    pub fn new(writer: u32, keys: u64) -> Versions {
        Versions {
            writer,
            next_seq: 1,
            last: vec![vec![0; keys as usize]; TENANTS],
        }
    }

    /// The stamp of this writer's next write.
    pub fn next(&mut self) -> Stamp {
        let seq = self.next_seq;
        self.next_seq += 1;
        Stamp {
            writer: self.writer,
            seq,
        }
    }

    /// Records that the write stamped `stamp` of `(tenant, key)` was stored.
    pub fn stored(&mut self, tenant: usize, key: u64, stamp: Stamp) {
        self.last[tenant][key as usize] = stamp.seq;
    }

    /// This writer's last stored version of `(tenant, key)`.
    pub fn last(&self, tenant: usize, key: u64) -> Option<Stamp> {
        let seq = self.last[tenant][key as usize];
        (seq != 0).then_some(Stamp {
            writer: self.writer,
            seq,
        })
    }
}

/// Seed-derived inputs: the page stored under every `(tenant, key)`,
/// stamped with [`PREFILL_STAMP`], and the key-popularity table.
pub struct Inputs {
    /// `pages[tenant index]` holds `keys_per_tenant` pages back to back.
    pages: Vec<Vec<u8>>,
    /// Cumulative Zipf distribution over keys (empty: uniform).
    cdf: Vec<f64>,
    keys: u64,
}

impl Inputs {
    /// Generates the inputs of `wl` for `seed`.
    pub fn generate(wl: &Workload, tenants: &[TenantSpec], seed: u64) -> Inputs {
        let pages = tenants
            .iter()
            .map(|spec| {
                let mut all = Vec::with_capacity(wl.keys_per_tenant as usize * PAGE_SIZE);
                for key in 0..wl.keys_per_tenant {
                    match wl.payload {
                        Payload::ValuePage => {
                            all.extend_from_slice(&value_page(spec.tenant, key, seed));
                        }
                        Payload::EnglishText => {
                            let page_seed = seed
                                ^ key.wrapping_mul(0x2545_F491_4F6C_DD1D)
                                ^ u64::from(spec.tenant.as_u16()) << 56;
                            all.extend_from_slice(
                                &Corpus::EnglishText.generate(page_seed, PAGE_SIZE)[..PAGE_SIZE],
                            );
                        }
                    }
                    let at = all.len() - PAGE_SIZE;
                    PREFILL_STAMP.write(&mut all[at..]);
                }
                all
            })
            .collect();
        let cdf = if wl.zipf_s > 0.0 {
            let mut acc = 0.0;
            let mut cdf: Vec<f64> = (1..=wl.keys_per_tenant)
                .map(|rank| {
                    acc += 1.0 / (rank as f64).powf(wl.zipf_s);
                    acc
                })
                .collect();
            cdf.iter_mut().for_each(|c| *c /= acc);
            cdf
        } else {
            Vec::new()
        };
        Inputs {
            pages,
            cdf,
            keys: wl.keys_per_tenant,
        }
    }

    /// The page stored under key `key` of the `tenant`-th tenant.
    pub fn page(&self, tenant: usize, key: u64) -> &[u8] {
        let at = key as usize * PAGE_SIZE;
        &self.pages[tenant][at..at + PAGE_SIZE]
    }

    fn key(&self, rng: &mut Xoshiro256) -> u64 {
        if self.cdf.is_empty() {
            rng.gen_range(0..self.keys)
        } else {
            let u: f64 = rng.gen();
            (self.cdf.partition_point(|&c| c < u) as u64).min(self.keys - 1)
        }
    }
}

/// One service call.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Get { tenant: usize, key: u64 },
    Put { tenant: usize, key: u64 },
}

/// A client's operation stream: point ops, periodic scans, and the
/// best-effort tenant's bursts. Tickets are drawn from a counter shared
/// by all clients, so scans and bursts follow the phase's total op count
/// (every client bursts at once, as in `xfm_serve::loadgen`); keys and op
/// kinds come from a per-client generator.
pub struct OpStream<'a> {
    wl: Workload,
    inputs: &'a Inputs,
    rng: Xoshiro256,
    tickets: &'a AtomicU64,
    /// Remaining keys of the scan in progress: (tenant, next key, left).
    scan: Option<(usize, u64, u64)>,
}

impl<'a> OpStream<'a> {
    /// The stream of client `client` (phase `phase` keeps warm-up and
    /// timed streams distinct).
    pub fn new(
        wl: Workload,
        inputs: &'a Inputs,
        tickets: &'a AtomicU64,
        seed: u64,
        phase: u64,
        client: u64,
    ) -> Self {
        let rng = Xoshiro256::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (phase << 32) ^ client,
        );
        Self {
            wl,
            inputs,
            rng,
            tickets,
            scan: None,
        }
    }

    /// The next service call.
    pub fn next_op(&mut self) -> Op {
        if let Some((tenant, key, left)) = self.scan {
            self.scan = (left > 1).then(|| (tenant, (key + 1) % self.inputs.keys, left - 1));
            return Op::Get { tenant, key };
        }
        let ticket = self.tickets.fetch_add(1, Ordering::Relaxed) + 1;
        let wl = self.wl;
        if wl.scan_every > 0 && ticket.is_multiple_of(wl.scan_every) {
            let tenant = self.rng.gen_range(0..TENANTS);
            let start = self.rng.gen_range(0..self.inputs.keys);
            self.scan = Some((tenant, start, SCAN_LEN));
            return self.next_op();
        }
        let (tenant, key) = match wl.burst {
            Some(b) if ticket % b.period < b.len => (
                BEST_EFFORT_INDEX,
                self.rng.gen_range(0..b.hot_keys.min(self.inputs.keys)),
            ),
            _ => (
                self.rng.gen_range(0..TENANTS),
                self.inputs.key(&mut self.rng),
            ),
        };
        if self.rng.gen_bool(wl.write_fraction) {
            Op::Put { tenant, key }
        } else {
            Op::Get { tenant, key }
        }
    }
}
