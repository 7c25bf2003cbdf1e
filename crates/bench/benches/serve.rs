//! Criterion bench: end-to-end request latency against the resident
//! `zmesh-serve` daemon — one TCP round-trip (connect → GET → frames)
//! per iteration, cold-cache versus chunk-LRU-warm, plus the pure
//! control-plane cost (`/healthz`).
//!
//! Complements `zmesh bench-serve` (the multi-client closed-loop traffic
//! generator): this bench isolates single-request latency under
//! criterion's timing harness. Run via `just bench-serve-micro` to also
//! write the machine-readable medians to the repository's
//! `BENCH_serve_micro.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use zmesh::{CompressionConfig, OrderingPolicy};
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::StorageMode;
use zmesh_codecs::{CodecKind, ErrorControl};
use zmesh_store::{persist_store, StoreWriter};

fn config() -> CompressionConfig {
    CompressionConfig {
        policy: OrderingPolicy::Hilbert,
        codec: CodecKind::Sz,
        control: ErrorControl::ValueRangeRelative(1e-4),
    }
}

#[cfg(unix)]
fn bench_serve(c: &mut Criterion) {
    use zmesh_serve::bench::http_get;
    use zmesh_serve::{ServeOptions, Server};

    // One small many-chunk store in a disposable catalog directory.
    let dir = std::env::temp_dir().join(format!("zmesh_bench_serve_dir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ds = datasets::blast2d(StorageMode::AllCells, Scale::Small);
    let fields: Vec<(&str, &zmesh_amr::AmrField)> =
        ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
    let store = StoreWriter::new(config())
        .with_chunk_target_bytes(2 * 1024)
        .write(&fields)
        .expect("write store");
    persist_store(&store.bytes, &dir.join("blast.zms")).expect("persist");

    let server = Server::bind(&dir, ServeOptions::default()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let shutdown = server.shutdown_handle();
    let catalog = server.catalog();
    let server_thread = std::thread::spawn(move || server.run());

    let query = "/stores/blast/query?field=density&bbox=0,0:15,15&format=frames";

    let mut group = c.benchmark_group("serve");
    group.throughput(Throughput::Elements(1));
    group.bench_function("healthz_roundtrip", |b| {
        b.iter(|| {
            let (status, body) = http_get(&addr, "/healthz").expect("healthz");
            assert_eq!(status, 200);
            black_box(body);
        })
    });
    // Cold rows drop the decoded chunks before every request (a fresh
    // cache-key would be cleaner, but clearing is what the public API
    // offers and measures the same work: full chunk decode per request).
    group.bench_function("query_cold_cache", |b| {
        b.iter(|| {
            catalog.chunk_cache().clear();
            let (status, body) = http_get(&addr, query).expect("query");
            assert_eq!(status, 200);
            black_box(body);
        })
    });
    group.bench_function("query_warm_cache", |b| {
        // Prime once; every timed iteration then rides the LRU.
        let (status, _) = http_get(&addr, query).expect("prime");
        assert_eq!(status, 200);
        b.iter(|| {
            let (status, body) = http_get(&addr, query).expect("query");
            assert_eq!(status, 200);
            black_box(body);
        })
    });
    group.bench_function("query_warm_keepalive", |b| {
        // Same warm query over one persistent connection: the delta
        // against query_warm_cache is the per-request TCP setup cost.
        let mut client = zmesh_serve::bench::HttpClient::new(&addr);
        let (status, _) = client.get(query).expect("prime");
        assert_eq!(status, 200);
        b.iter(|| {
            let (status, body) = client.get(query).expect("query");
            assert_eq!(status, 200);
            black_box(body);
        })
    });
    group.finish();

    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    server_thread
        .join()
        .expect("server thread")
        .expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(not(unix))]
fn bench_serve(_c: &mut Criterion) {}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
