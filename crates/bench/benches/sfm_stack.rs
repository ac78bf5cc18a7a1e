//! Benchmarks the SFM software stack: zpool allocation/compaction, the
//! entry table, swap round-trips through both backends, and the trace
//! generator.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use xfm_compress::Corpus;
use xfm_core::backend::{XfmBackend, XfmBackendConfig};
use xfm_sfm::{CpuBackend, SfmConfig, SwapPlane, TraceConfig, TraceGenerator, Zpool};
use xfm_types::{ByteSize, Nanos, PageNumber, PAGE_SIZE};

fn bench(c: &mut Criterion) {
    // zpool: allocate/free 1000 mixed-size objects.
    c.bench_function("zpool/alloc_free_1000", |b| {
        b.iter(|| {
            let mut pool = Zpool::new(ByteSize::from_mib(4));
            let handles: Vec<_> = (0..1000usize)
                .map(|i| pool.alloc(&vec![i as u8; 64 + (i * 37) % 2048]).unwrap())
                .collect();
            for h in handles {
                pool.free(h).unwrap();
            }
        })
    });

    // zpool: steady-state store/load/free — with the arena-backed host
    // pages this is offset arithmetic plus one memcpy each way.
    c.bench_function("zpool/store_load_free", |b| {
        let mut pool = Zpool::new(ByteSize::from_mib(4));
        let obj = vec![0xa5u8; 1000];
        b.iter(|| {
            let h = pool.alloc(black_box(&obj)).unwrap();
            let len = pool.get(h).unwrap().len();
            pool.free(h).unwrap();
            len
        })
    });

    // zpool: compaction of a half-empty pool.
    c.bench_function("zpool/compact_fragmented", |b| {
        b.iter_batched(
            || {
                let mut pool = Zpool::new(ByteSize::from_mib(4));
                let handles: Vec<_> = (0..1000usize)
                    .map(|i| pool.alloc(&[i as u8; 100]).unwrap())
                    .collect();
                for (i, h) in handles.into_iter().enumerate() {
                    if i % 2 == 0 {
                        pool.free(h).unwrap();
                    }
                }
                pool
            },
            |mut pool| pool.compact().moved_objects,
            criterion::BatchSize::SmallInput,
        )
    });

    // Full swap round-trip through each backend.
    let mut group = c.benchmark_group("swap_round_trip");
    group.throughput(Throughput::Bytes(PAGE_SIZE as u64));
    group.sample_size(20);
    group.bench_function("cpu_backend", |b| {
        let backend = CpuBackend::new(SfmConfig::default());
        let page = Corpus::Json.generate(1, PAGE_SIZE);
        let mut i = 0u64;
        b.iter(|| {
            let pn = PageNumber::new(i);
            i += 1;
            backend.swap_out(pn, black_box(&page)).unwrap();
            backend.swap_in(pn, false).unwrap().0.len()
        })
    });
    group.bench_function("xfm_backend", |b| {
        let backend = XfmBackend::new(XfmBackendConfig::default());
        backend.advance_to(Nanos::from_ms(1));
        let page = Corpus::Json.generate(1, PAGE_SIZE);
        let mut i = 0u64;
        b.iter(|| {
            let pn = PageNumber::new(i);
            i += 1;
            backend.swap_out(pn, black_box(&page)).unwrap();
            backend.swap_in(pn, true).unwrap().0.len()
        })
    });
    group.finish();

    // Trace generation throughput.
    c.bench_function("trace/generate_1s", |b| {
        b.iter(|| {
            TraceGenerator::new(TraceConfig {
                working_set_pages: 4096,
                local_pages: 2048,
                duration: Nanos::from_secs(1),
                ..TraceConfig::default()
            })
            .generate()
            .len()
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
