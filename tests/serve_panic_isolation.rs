//! A panic while serving one request costs that request, not the worker
//! that ran it: the daemon answers `500`, counts the panic in `/metrics`,
//! and keeps serving — the panicking store's next request and its
//! neighbours' requests byte for byte as before.

#![cfg(unix)]

use std::sync::atomic::Ordering;

use zmesh::CompressionConfig;
use zmesh_amr::{datasets, StorageMode};
use zmesh_serve::bench::http_get;
use zmesh_serve::{ServeOptions, Server};
use zmesh_store::faultinject::FaultSpec;
use zmesh_store::{persist_store, StoreWriter};

/// More panics than workers: without isolation none would be left.
const PANICS: u32 = 5;
const WORKERS: usize = 2;

#[test]
fn panicking_requests_answer_500_and_leave_the_daemon_serving() {
    let dir = std::env::temp_dir().join(format!("zmesh_panic_isolation_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
    let fields: Vec<(&str, &zmesh_amr::AmrField)> =
        ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
    let store = StoreWriter::new(CompressionConfig::zmesh_default())
        .write(&fields)
        .expect("pack");
    for name in ["blast.zms", "calm.zms"] {
        persist_store(&store.bytes, &dir.join(name)).expect("persist");
    }

    // Any active plan wraps the store in a fault source; a 1 µs stall per
    // read changes no byte.
    let plan = FaultSpec::parse("latency_us=1,match=blast").unwrap();
    let opts = ServeOptions {
        workers: WORKERS,
        ..ServeOptions::default()
    };
    let server = Server::bind_with_faults(&dir, opts, Some(plan)).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let catalog = server.catalog();
    let metrics = server.metrics();
    let shutdown = server.shutdown_handle();
    let running = std::thread::spawn(move || server.run());

    // One 8×8 box lies in one chunk, so each query makes one payload read.
    let query = |id: &str| {
        let path = format!("/stores/{id}/query?field=density&bbox=0,0:7,7&format=csv");
        http_get(&addr, &path).expect("query")
    };
    let (status, calm_before) = query("calm");
    assert_eq!(status, 200);

    let entry = catalog.get("blast").expect("listed");
    let reader = &entry.store.as_ref().expect("opens").reader;
    reader
        .source()
        .fault()
        .expect("fault-wrapped")
        .panic_next(PANICS);
    for i in 0..PANICS {
        let (status, body) = query("blast");
        let body = String::from_utf8(body).unwrap();
        assert_eq!(status, 500, "request {i}: {body}");
        assert!(body.contains("\"kind\":\"internal\""), "{body}");
    }
    assert_eq!(metrics.panics.load(Ordering::Relaxed), u64::from(PANICS));

    let (status, blast_after) = query("blast");
    assert_eq!(status, 200, "request {} is served", PANICS + 1);
    assert_eq!(blast_after, calm_before, "same store bytes, same response");
    let (status, calm_after) = query("calm");
    assert_eq!(status, 200);
    assert_eq!(calm_after, calm_before);
    let (status, body) = http_get(&addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    let body = String::from_utf8(body).unwrap();
    assert!(body.contains(&format!("\"panics\":{PANICS}")), "{body}");

    shutdown.store(true, Ordering::SeqCst);
    running.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}
