//! Proves the steady-state codec hot path performs no heap allocation.
//!
//! The shared per-thread counting allocator wraps the system one. The test
//! warms a [`Scratch`] up (first pages size every internal buffer), then
//! turns the counter on and pushes more pages through
//! `compress_into`/`decompress_into` with pre-reserved output buffers:
//! the count must stay at zero. This pins the tentpole property — after
//! warm-up, tokenize + entropy encode + bitstream emit touch no heap.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count_allocs;
use xfm_compress::{AutoCodec, Codec, Corpus, Scratch, XDeflate, XDeflateFse, Xlz};

const PAGE: usize = 4096;

#[test]
fn steady_state_hot_path_does_not_allocate() {
    let xdef = XDeflate::default();
    let xdef_fse = XDeflateFse::default();
    let xlz = Xlz::default();
    let auto = AutoCodec::default();
    let codecs: [&dyn Codec; 4] = [&xdef, &xdef_fse, &xlz, &auto];

    // Warm-up corpus includes a random page: it maximizes the token
    // count (all literals) and the bitstream length, so every internal
    // buffer reaches its worst-case 4 KiB-page capacity. The runs page
    // exercises the auto probe's xlz route without the same-filled
    // short-circuit upstream planes would take.
    let mut runs = vec![0u8; PAGE];
    runs[PAGE / 2..].fill(0xFF);
    let warmup: Vec<Vec<u8>> = vec![
        Corpus::RandomBytes.generate(7, PAGE),
        Corpus::Json.generate(1, PAGE),
        Corpus::EnglishText.generate(2, PAGE),
        runs.clone(),
    ];
    // Steady-state pages are distinct from the warm-up ones, and cover
    // all three auto routes (fse, raw, xlz).
    let mut steady: Vec<Vec<u8>> = (10..18u64)
        .map(|s| Corpus::Json.generate(s, PAGE))
        .collect();
    steady.push(Corpus::RandomBytes.generate(21, PAGE));
    steady.push(runs);

    let mut scratch = Scratch::new();
    // Output buffers sized for the worst case (stored-block fallback is
    // src + header; xlz worst case adds ~1/255 overhead).
    let mut compressed = Vec::with_capacity(2 * PAGE);
    let mut restored = Vec::with_capacity(2 * PAGE);

    for codec in codecs {
        for page in &warmup {
            compressed.clear();
            codec
                .compress_into(page, &mut compressed, &mut scratch)
                .unwrap();
            restored.clear();
            codec
                .decompress_into(&compressed, &mut restored, &mut scratch)
                .unwrap();
            assert_eq!(&restored, page);
        }
    }

    // Batch-decompress setup: blocks and slice-of-slices views are
    // built (and the per-page dsts pre-sized) before the counter arms,
    // mirroring a swap-in prefetch batch reusing its buffers.
    let fse_blocks: Vec<Vec<u8>> = steady
        .iter()
        .map(|p| {
            let mut b = Vec::with_capacity(2 * PAGE);
            xdef_fse.compress_into(p, &mut b, &mut scratch).unwrap();
            b
        })
        .collect();
    let fse_srcs: Vec<&[u8]> = fse_blocks.iter().map(Vec::as_slice).collect();
    let mut batch_dsts: Vec<Vec<u8>> = (0..steady.len())
        .map(|_| Vec::with_capacity(2 * PAGE))
        .collect();
    xdef_fse
        .decompress_batch_into(&fse_srcs, &mut batch_dsts, &mut scratch)
        .unwrap();

    let ((), allocs) = count_allocs(|| {
        for codec in codecs {
            for page in &steady {
                compressed.clear();
                codec
                    .compress_into(page, &mut compressed, &mut scratch)
                    .unwrap();
                restored.clear();
                codec
                    .decompress_into(&compressed, &mut restored, &mut scratch)
                    .unwrap();
            }
        }
        for dst in &mut batch_dsts {
            dst.clear();
        }
        xdef_fse
            .decompress_batch_into(&fse_srcs, &mut batch_dsts, &mut scratch)
            .unwrap();
    });

    // Validate outside the armed window (assert_eq formats on failure).
    for codec in codecs {
        for page in &steady {
            compressed.clear();
            codec
                .compress_into(page, &mut compressed, &mut scratch)
                .unwrap();
            restored.clear();
            codec
                .decompress_into(&compressed, &mut restored, &mut scratch)
                .unwrap();
            assert_eq!(&restored, page, "{} round trip", codec.name());
        }
    }
    for (dst, page) in batch_dsts.iter().zip(&steady) {
        assert_eq!(dst, page, "batch decompress round trip");
    }

    assert_eq!(
        allocs, 0,
        "steady-state compress/decompress hot path allocated {allocs} times"
    );
}
