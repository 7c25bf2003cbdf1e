//! Criterion bench: the full write (recipe + reorder + codec + store
//! framing) vs the level-order baseline, and the full read back, on
//! one-chunk-per-field stores.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use zmesh::{CompressionConfig, OrderingPolicy};
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::StorageMode;
use zmesh_bench::{field_refs, read_store, write_store};
use zmesh_codecs::{CodecKind, ErrorControl};

fn bench_e2e(c: &mut Criterion) {
    let ds = datasets::front2d(StorageMode::AllCells, Scale::Small);
    let fields = field_refs(&ds);
    let bytes = ds.nbytes() as u64;

    let mut g = c.benchmark_group("pipeline_compress");
    g.throughput(Throughput::Bytes(bytes));
    for policy in [OrderingPolicy::LevelOrder, OrderingPolicy::Hilbert] {
        for codec in [CodecKind::Sz, CodecKind::Zfp] {
            let config = CompressionConfig {
                policy,
                codec,
                control: ErrorControl::ValueRangeRelative(1e-4),
            };
            g.bench_function(format!("{}_{}", policy.label(), codec.label()), |b| {
                b.iter(|| write_store(config, black_box(&fields)))
            });
        }
    }
    g.finish();

    let mut g = c.benchmark_group("pipeline_decompress");
    g.throughput(Throughput::Bytes(bytes));
    for policy in [OrderingPolicy::LevelOrder, OrderingPolicy::Hilbert] {
        let config = CompressionConfig {
            policy,
            codec: CodecKind::Sz,
            control: ErrorControl::ValueRangeRelative(1e-4),
        };
        let store = write_store(config, &fields);
        g.bench_function(policy.label(), |b| {
            b.iter(|| read_store(black_box(&store.bytes)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_e2e);
criterion_main!(benches);
