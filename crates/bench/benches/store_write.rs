//! Criterion bench: store writes through the compress→write window at
//! several window sizes, plus the memory story the numbers alone don't
//! tell — peak encode-buffer bytes under each window and the process peak
//! RSS (`VmHWM`).
//!
//! The streaming rows drive `write_to_sink` into a `VecSink` (the
//! unbounded row is exactly `StoreWriter::write`) and
//! `write_streaming_to_path` for the end-to-end file path. The buffered
//! row is `write_to_path`: the whole container in RAM, then
//! `persist_store`. Together they separate pipeline overhead from disk
//! I/O.
//!
//! Run via `just bench-store-write` to also write the machine-readable
//! medians to the repository's `BENCH_store_write.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use zmesh::{CompressionConfig, OrderingPolicy};
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::StorageMode;
use zmesh_codecs::{CodecKind, ErrorControl};
use zmesh_store::{persist_store, process_peak_rss, Parity, StoreWriter, StreamOptions, VecSink};

fn config() -> CompressionConfig {
    CompressionConfig {
        policy: OrderingPolicy::Hilbert,
        codec: CodecKind::Sz,
        control: ErrorControl::ValueRangeRelative(1e-4),
    }
}

fn bench_store_write(c: &mut Criterion) {
    // Multi-field fixture: replicated physical fields multiply the
    // payload past the shared tree.
    let ds = datasets::blast2d(StorageMode::AllCells, Scale::Small);
    let named: Vec<(String, &zmesh_amr::AmrField)> = (0..6)
        .flat_map(|rep| {
            ds.fields
                .iter()
                .map(move |(n, f)| (format!("{n}_{rep}"), f))
        })
        .collect();
    let fields: Vec<(&str, &zmesh_amr::AmrField)> =
        named.iter().map(|(n, f)| (n.as_str(), *f)).collect();
    let writer = StoreWriter::new(config())
        .with_chunk_target_bytes(2 * 1024)
        .with_parity(Parity::Rs { data: 4, parity: 2 });
    // Warm the recipe cache and grab sizes once, outside the timing loop.
    let probe = writer.write(&fields).expect("write store");
    let container_bytes = probe.bytes.len() as u64;
    let raw_bytes = probe.stats.raw_bytes;

    let mut g = c.benchmark_group("store_write");
    g.throughput(Throughput::Bytes(container_bytes));

    let path = std::env::temp_dir().join(format!(
        "zmesh_bench_store_write_{}.zms",
        std::process::id()
    ));
    g.bench_function("buffered/to_file", |b| {
        b.iter(|| {
            let out = writer.write(black_box(&fields)).unwrap();
            persist_store(&out.bytes, &path).unwrap()
        })
    });

    let windows: [(&str, usize); 3] = [
        ("window_8k", 8 * 1024),
        ("window_256k", 256 * 1024),
        ("unbounded", 0),
    ];
    for (label, window) in windows {
        let opts = StreamOptions {
            window_bytes: window,
            ..StreamOptions::default()
        };
        g.bench_function(format!("streaming/{label}"), |b| {
            b.iter(|| {
                let mut sink = VecSink::new();
                writer
                    .write_to_sink(black_box(&fields), &mut sink, &opts)
                    .unwrap()
            })
        });
    }

    #[cfg(unix)]
    g.bench_function("streaming/to_file_8k", |b| {
        let opts = StreamOptions {
            window_bytes: 8 * 1024,
            ..StreamOptions::default()
        };
        b.iter(|| {
            writer
                .write_streaming_to_path(black_box(&fields), &path, &opts)
                .unwrap()
        })
    });
    g.finish();

    // The memory half of the story: what each mode keeps resident.
    for (label, window) in windows {
        let opts = StreamOptions {
            window_bytes: window,
            ..StreamOptions::default()
        };
        let mut sink = VecSink::new();
        let stats = writer.write_to_sink(&fields, &mut sink, &opts).unwrap();
        eprintln!(
            "store_write: streaming/{label} peak encode buffer {} bytes \
             (raw {} bytes, container {} bytes, window {} bytes)",
            stats.peak_buffer_bytes, raw_bytes, container_bytes, stats.window_bytes,
        );
    }
    eprintln!(
        "store_write: process peak RSS {} bytes (VmHWM)",
        process_peak_rss()
    );

    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_store_write);
criterion_main!(benches);
