//! Caller-side tracing for the traced run.
//!
//! Spans live in per-thread memory: each client thread installs a
//! [`Tracer`] for the timed phase, the benchmark opens a root span around
//! every service call, and the [`TimedPlane`] / [`TimedCodec`] decorators
//! open child spans around every call into the plane and the codec. A
//! span carries its id within the op and the id of the span that caused
//! it; when the root closes, the op's spans are folded into the thread's
//! [`SpanAgg`], which the tracer hands back when the phase ends.
//!
//! The decorators also keep global atomic call counters, which count
//! calls on every thread (traced or not) and are what the traced run
//! reconciles against the program's own counters.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::stats::Hist;
use bytes::Bytes;
use xfm_compress::{AutoCodec, Codec, CodecKind, Scratch, XDeflate, XDeflateFse, Xlz};
use xfm_sfm::zpool::{CompactReport, ZpoolStats};
use xfm_sfm::{BackendStats, ShardedSfm, SwapOutcome, SwapPlane};
use xfm_types::{OpContext, PageNumber, Result, SwapResult, TenantId};

/// Which boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `FarKvService::get`, opened by the client.
    Get,
    /// `FarKvService::put`, opened by the client.
    Put,
    /// A single-page plane swap-out (either form).
    SwapOut,
    /// A single-page plane swap-in (either form).
    SwapIn,
    /// A batched plane swap-out (either form).
    SwapOutBatch,
    /// A batched plane swap-in.
    SwapInBatch,
    /// A codec compress (either form).
    Compress,
    /// A codec decompress (either form).
    Decompress,
    /// A batched codec decompress.
    DecompressBatch,
}

impl Layer {
    /// Every layer, in counter-index order.
    pub const ALL: [Layer; 9] = [
        Layer::Get,
        Layer::Put,
        Layer::SwapOut,
        Layer::SwapIn,
        Layer::SwapOutBatch,
        Layer::SwapInBatch,
        Layer::Compress,
        Layer::Decompress,
        Layer::DecompressBatch,
    ];

    /// Whether this is a plane call.
    pub fn is_plane(self) -> bool {
        matches!(
            self,
            Layer::SwapOut | Layer::SwapIn | Layer::SwapOutBatch | Layer::SwapInBatch
        )
    }

    /// Whether this is a codec call.
    pub fn is_codec(self) -> bool {
        matches!(
            self,
            Layer::Compress | Layer::Decompress | Layer::DecompressBatch
        )
    }
}

const N: usize = Layer::ALL.len();

/// Parent id of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One completed span. Ids are dense from 0 within one op.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    /// The id of the span that caused it, or [`NO_PARENT`].
    parent: u32,
    layer: Layer,
    dur_ns: u64,
}

/// What the traced run reports, folded from the spans of every op.
#[derive(Default)]
pub struct SpanAgg {
    /// Span durations per layer.
    pub durs: [Hist; N],
    /// Time inside root (service) spans.
    pub root_ns: u64,
    /// Time inside plane spans that a root span caused directly.
    pub root_plane_ns: u64,
    /// Time inside all plane spans.
    pub plane_ns: u64,
    /// Time inside codec spans that a plane span caused.
    pub plane_codec_ns: u64,
    /// Gets that faulted (a swap-in under a get), their time, and the
    /// plane time inside them.
    pub fault_ops: u64,
    pub fault_ns: u64,
    pub fault_plane_ns: u64,
    /// Spans recorded.
    pub spans: u64,
}

impl SpanAgg {
    /// Folds one op: `spans` holds every span of the op, the root last.
    fn fold(&mut self, spans: &[Span]) {
        let root = *spans.last().expect("an op has a root span");
        let layer_of = |id: u32| spans.iter().find(|s| s.id == id).map(|s| s.layer);
        let mut plane_in_root = 0;
        let mut faulted = false;
        for s in spans {
            self.durs[s.layer as usize].record(s.dur_ns);
            if s.layer.is_plane() {
                self.plane_ns += s.dur_ns;
                if s.parent == root.id {
                    plane_in_root += s.dur_ns;
                    faulted |= s.layer == Layer::SwapIn && root.layer == Layer::Get;
                }
            } else if s.layer.is_codec() && layer_of(s.parent).is_some_and(Layer::is_plane) {
                self.plane_codec_ns += s.dur_ns;
            }
        }
        self.root_ns += root.dur_ns;
        self.root_plane_ns += plane_in_root;
        if faulted {
            self.fault_ops += 1;
            self.fault_ns += root.dur_ns;
            self.fault_plane_ns += plane_in_root;
        }
        self.spans += spans.len() as u64;
    }

    /// Adds another thread's aggregate.
    pub fn merge(&mut self, other: &SpanAgg) {
        for (a, b) in self.durs.iter_mut().zip(&other.durs) {
            a.merge(b);
        }
        self.root_ns += other.root_ns;
        self.root_plane_ns += other.root_plane_ns;
        self.plane_ns += other.plane_ns;
        self.plane_codec_ns += other.plane_codec_ns;
        self.fault_ops += other.fault_ops;
        self.fault_ns += other.fault_ns;
        self.fault_plane_ns += other.fault_plane_ns;
        self.spans += other.spans;
    }
}

/// Per-thread span store. Spans are kept until their op's root span
/// closes and are then folded into the thread's [`SpanAgg`], so memory
/// stays bounded at millions of ops per second.
struct Tracer {
    /// Open spans, innermost last.
    open: Vec<(u32, Layer, Instant)>,
    /// Closed spans of the op in progress.
    op: Vec<Span>,
    next_id: u32,
    agg: SpanAgg,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs a tracer on the calling thread.
pub fn install() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            open: Vec::with_capacity(8),
            op: Vec::with_capacity(16),
            next_id: 0,
            agg: SpanAgg::default(),
        });
    });
}

/// Removes the calling thread's tracer and returns its aggregate.
pub fn take() -> SpanAgg {
    TRACER.with(|t| {
        t.borrow_mut()
            .take()
            .map_or_else(SpanAgg::default, |t| t.agg)
    })
}

/// Opens a span; false when this thread has no tracer.
fn begin(layer: Layer) -> bool {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(t) = t.as_mut() else {
            return false;
        };
        let id = t.next_id;
        t.next_id += 1;
        t.open.push((id, layer, Instant::now()));
        true
    })
}

/// Closes the innermost open span; closing a root folds its op.
fn end() {
    let now = Instant::now();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t
            .as_mut()
            .expect("end() pairs with a begin() on this thread");
        let (id, layer, started) = t.open.pop().expect("a span is open");
        let parent = t.open.last().map_or(NO_PARENT, |&(p, _, _)| p);
        t.op.push(Span {
            id,
            parent,
            layer,
            dur_ns: now.duration_since(started).as_nanos() as u64,
        });
        if parent == NO_PARENT {
            let Tracer { op, agg, .. } = t;
            agg.fold(op);
            op.clear();
            t.next_id = 0;
        }
    });
}

/// Runs `f` inside a span at `layer` (a plain call without a tracer).
pub fn span<T, E>(
    layer: Layer,
    f: impl FnOnce() -> std::result::Result<T, E>,
) -> std::result::Result<T, E> {
    if !begin(layer) {
        return f();
    }
    let r = f();
    end();
    r
}

/// Global call counters, indexed by [`Layer`].
#[derive(Default)]
pub struct Counters {
    calls: [AtomicU64; N],
    errors: [AtomicU64; N],
    bytes_in: [AtomicU64; N],
    bytes_out: [AtomicU64; N],
}

/// A point-in-time copy of [`Counters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterSnapshot {
    pub calls: [u64; N],
    pub errors: [u64; N],
    pub bytes_in: [u64; N],
    pub bytes_out: [u64; N],
}

impl CounterSnapshot {
    /// Per-field difference `self - earlier`.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let sub = |a: [u64; N], b: [u64; N]| std::array::from_fn(|i| a[i] - b[i]);
        CounterSnapshot {
            calls: sub(self.calls, earlier.calls),
            errors: sub(self.errors, earlier.errors),
            bytes_in: sub(self.bytes_in, earlier.bytes_in),
            bytes_out: sub(self.bytes_out, earlier.bytes_out),
        }
    }

    /// Calls at `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }
}

impl Counters {
    fn count(&self, layer: Layer, n: u64, ok: bool, bytes_in: u64, bytes_out: u64) {
        let i = layer as usize;
        self.calls[i].fetch_add(n, Ordering::Relaxed);
        if !ok {
            self.errors[i].fetch_add(1, Ordering::Relaxed);
        }
        self.bytes_in[i].fetch_add(bytes_in, Ordering::Relaxed);
        self.bytes_out[i].fetch_add(bytes_out, Ordering::Relaxed);
    }

    /// Copies the counters (exact only while no call is in flight).
    pub fn snapshot(&self) -> CounterSnapshot {
        let load = |a: &[AtomicU64; N]| std::array::from_fn(|i| a[i].load(Ordering::Relaxed));
        CounterSnapshot {
            calls: load(&self.calls),
            errors: load(&self.errors),
            bytes_in: load(&self.bytes_in),
            bytes_out: load(&self.bytes_out),
        }
    }
}

/// The codec `ShardedSfm::new` picks, read from the plane's `Debug`
/// output (`codec: "<name>"`), so the traced plane wraps the same one.
///
/// # Errors
///
/// Returns the `Debug` text when it names no codec this benchmark knows.
pub fn default_codec(
    plane: &ShardedSfm,
) -> std::result::Result<Arc<dyn Codec + Send + Sync>, String> {
    let debug = format!("{plane:?}");
    let name = debug
        .split("codec: \"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("");
    match name {
        "xdeflate" => Ok(Arc::new(XDeflate::default())),
        "xdef-fse" => Ok(Arc::new(XDeflateFse::default())),
        "xlz" => Ok(Arc::new(Xlz::default())),
        "auto" => Ok(Arc::new(AutoCodec::default())),
        _ => Err(format!("unknown codec in `{debug}`")),
    }
}

/// Codec decorator: forwards every method to the inner codec inside a
/// span, counting calls and bytes.
pub struct TimedCodec {
    inner: Arc<dyn Codec + Send + Sync>,
    counters: Arc<Counters>,
}

impl TimedCodec {
    /// Wraps `inner`, counting into `counters`.
    pub fn new(inner: Arc<dyn Codec + Send + Sync>, counters: Arc<Counters>) -> Self {
        Self { inner, counters }
    }

    fn timed(
        &self,
        layer: Layer,
        src: &[u8],
        dst: &mut Vec<u8>,
        f: impl FnOnce(&mut Vec<u8>) -> Result<usize>,
    ) -> Result<usize> {
        let before = dst.len();
        let r = span(layer, || f(dst));
        let produced = dst.len().saturating_sub(before) as u64;
        self.counters
            .count(layer, 1, r.is_ok(), src.len() as u64, produced);
        r
    }
}

impl Codec for TimedCodec {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> CodecKind {
        self.inner.kind()
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        self.timed(Layer::Compress, src, dst, |d| self.inner.compress(src, d))
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<usize> {
        self.timed(Layer::Decompress, src, dst, |d| {
            self.inner.decompress(src, d)
        })
    }

    fn compress_into(&self, src: &[u8], dst: &mut Vec<u8>, scratch: &mut Scratch) -> Result<usize> {
        self.timed(Layer::Compress, src, dst, |d| {
            self.inner.compress_into(src, d, scratch)
        })
    }

    fn decompress_into(
        &self,
        src: &[u8],
        dst: &mut Vec<u8>,
        scratch: &mut Scratch,
    ) -> Result<usize> {
        self.timed(Layer::Decompress, src, dst, |d| {
            self.inner.decompress_into(src, d, scratch)
        })
    }

    fn decompress_batch_into(
        &self,
        srcs: &[&[u8]],
        dsts: &mut [Vec<u8>],
        scratch: &mut Scratch,
    ) -> Result<()> {
        let before: u64 = dsts.iter().map(|d| d.len() as u64).sum();
        let r = span(Layer::DecompressBatch, || {
            self.inner.decompress_batch_into(srcs, dsts, scratch)
        });
        let after: u64 = dsts.iter().map(|d| d.len() as u64).sum();
        let read: u64 = srcs.iter().map(|s| s.len() as u64).sum();
        self.counters.count(
            Layer::DecompressBatch,
            srcs.len() as u64,
            r.is_ok(),
            read,
            after.saturating_sub(before),
        );
        r
    }
}

/// Plane decorator over a [`ShardedSfm`]: forwards every [`SwapPlane`]
/// method to the plane's own implementation (its overrides where it has
/// them), timing the data-plane calls inside spans and counting calls
/// per layer.
pub struct TimedPlane {
    inner: ShardedSfm,
    counters: Arc<Counters>,
}

impl TimedPlane {
    /// Wraps `inner`, counting into `counters`.
    pub fn new(inner: ShardedSfm, counters: Arc<Counters>) -> Self {
        Self { inner, counters }
    }

    fn timed<T>(&self, layer: Layer, n: usize, f: impl FnOnce() -> SwapResult<T>) -> SwapResult<T> {
        let r = span(layer, f);
        self.counters.count(layer, n as u64, r.is_ok(), 0, 0);
        r
    }
}

impl SwapPlane for TimedPlane {
    fn swap_out(&self, page: PageNumber, data: &[u8]) -> SwapResult<SwapOutcome> {
        self.timed(Layer::SwapOut, 1, || {
            SwapPlane::swap_out(&self.inner, page, data)
        })
    }

    fn swap_in_into(
        &self,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        self.timed(Layer::SwapIn, 1, || {
            SwapPlane::swap_in_into(&self.inner, page, do_offload, out)
        })
    }

    fn swap_out_batch(
        &self,
        batch: &[(PageNumber, Bytes)],
        threads: usize,
    ) -> SwapResult<Vec<SwapResult<SwapOutcome>>> {
        self.timed(Layer::SwapOutBatch, batch.len(), || {
            SwapPlane::swap_out_batch(&self.inner, batch, threads)
        })
    }

    fn swap_in_batch_into(
        &self,
        pages: &[PageNumber],
        outs: &mut [Vec<u8>],
    ) -> Vec<SwapResult<SwapOutcome>> {
        let Ok(results) = span(Layer::SwapInBatch, || {
            Ok::<_, std::convert::Infallible>(SwapPlane::swap_in_batch_into(
                &self.inner,
                pages,
                outs,
            ))
        });
        let ok = results.iter().all(std::result::Result::is_ok);
        self.counters
            .count(Layer::SwapInBatch, pages.len() as u64, ok, 0, 0);
        results
    }

    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome> {
        self.timed(Layer::SwapOut, 1, || {
            SwapPlane::swap_out_ctx(&self.inner, ctx, page, data)
        })
    }

    fn swap_in_into_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        self.timed(Layer::SwapIn, 1, || {
            SwapPlane::swap_in_into_ctx(&self.inner, ctx, page, do_offload, out)
        })
    }

    fn swap_out_batch_ctx(
        &self,
        ctx: &OpContext,
        batch: &[(PageNumber, Bytes)],
        threads: usize,
    ) -> SwapResult<Vec<SwapResult<SwapOutcome>>> {
        self.timed(Layer::SwapOutBatch, batch.len(), || {
            SwapPlane::swap_out_batch_ctx(&self.inner, ctx, batch, threads)
        })
    }

    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        SwapPlane::tenant_usage(&self.inner)
    }

    fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        SwapPlane::tenant_of(&self.inner, page)
    }

    fn contains(&self, page: PageNumber) -> bool {
        SwapPlane::contains(&self.inner, page)
    }

    fn compact(&self) -> CompactReport {
        SwapPlane::compact(&self.inner)
    }

    fn stats(&self) -> BackendStats {
        SwapPlane::stats(&self.inner)
    }

    fn pool_stats(&self) -> ZpoolStats {
        SwapPlane::pool_stats(&self.inner)
    }
}
