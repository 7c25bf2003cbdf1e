//! End-to-end daemon tests over real TCP sockets: bind an in-process
//! server on an ephemeral port, drive every endpoint, check the
//! concurrent query path against a direct reader, and drain cleanly.

#![cfg(unix)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use zmesh::CompressionConfig;
use zmesh_amr::{datasets, StorageMode};
use zmesh_serve::bench::{batch_body, http_get, HttpClient};
use zmesh_serve::{wire, ServeOptions, Server};
use zmesh_store::{persist_store, Query, StoreReader, StoreWriter};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zmesh_serve_daemon_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn pack_into(dir: &Path, name: &str) -> Vec<u8> {
    let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
    let fields: Vec<(&str, &zmesh_amr::AmrField)> =
        ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
    let store = StoreWriter::new(CompressionConfig::zmesh_default())
        .write(&fields)
        .expect("pack");
    persist_store(&store.bytes, &dir.join(name)).expect("persist");
    store.bytes
}

struct Running {
    addr: String,
    shutdown: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(dir: &Path, opts: ServeOptions) -> Running {
    let server = Server::bind(dir, opts).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    Running {
        addr,
        shutdown,
        thread,
    }
}

impl Running {
    fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .expect("server thread")
            .expect("server run");
    }
}

#[test]
fn serves_catalog_info_and_bit_identical_concurrent_queries() {
    let dir = tempdir("endpoints");
    let bytes = pack_into(&dir, "run_a.zms");
    pack_into(&dir, "run_b.zms");
    let running = start(&dir, ServeOptions::default());

    let (status, body) = http_get(&running.addr, "/healthz").expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(
        body,
        b"{\"ok\":true,\"stores\":2,\"degraded\":0,\"quarantined\":0}"
    );

    let (status, body) = http_get(&running.addr, "/catalog").expect("catalog");
    assert_eq!(status, 200);
    let listing = String::from_utf8(body).unwrap();
    assert!(listing.contains("\"id\":\"run_a\""), "{listing}");
    assert!(listing.contains("\"id\":\"run_b\""), "{listing}");
    assert!(listing.contains("\"ok\":true"), "{listing}");

    let (status, body) = http_get(&running.addr, "/stores/run_a/info").expect("info");
    assert_eq!(status, 200);
    let info = String::from_utf8(body).unwrap();
    assert!(info.contains("\"fields\":["), "{info}");
    assert!(info.contains("\"cells\":"), "{info}");

    // What the daemon must reproduce: a direct in-memory query.
    let reader = StoreReader::open(&bytes).expect("open");
    let expect = reader
        .query("density", &Query::bbox([0, 0, 0], [7, 7, 0]))
        .expect("direct query");

    // Eight concurrent clients, same query: every response bit-identical.
    let path = "/stores/run_a/query?field=density&bbox=0,0:7,7&format=frames";
    let mut handles = Vec::new();
    for _ in 0..8 {
        let addr = running.addr.clone();
        handles.push(std::thread::spawn(move || http_get(&addr, path)));
    }
    for handle in handles {
        let (status, body) = handle.join().expect("client").expect("query");
        assert_eq!(status, 200);
        let (meta, indices, values) = wire::decode_query_frames(&body).expect("frames");
        assert!(meta.contains("\"field\":\"density\""), "{meta}");
        assert_eq!(indices, expect.storage_indices);
        let got: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = expect.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "frame values must be bit-identical");
    }

    // CSV format matches the CLI's file output byte-for-byte.
    let (status, body) = http_get(
        &running.addr,
        "/stores/run_a/query?field=density&bbox=0,0:7,7&format=csv",
    )
    .expect("csv");
    assert_eq!(status, 200);
    let mut csv = String::from("storage_index,value\n");
    for (&s, &v) in expect.storage_indices.iter().zip(&expect.values) {
        csv.push_str(&format!("{s},{v}\n"));
    }
    assert_eq!(body, csv.into_bytes());

    running.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn structured_errors_for_unknown_routes_fields_and_bad_queries() {
    let dir = tempdir("errors");
    pack_into(&dir, "only.zms");
    let running = start(&dir, ServeOptions::default());

    let cases = [
        ("/nope", 404, "not_found"),
        ("/stores/ghost/info", 404, "unknown_store"),
        (
            "/stores/ghost/query?field=x&bbox=0,0:1,1",
            404,
            "unknown_store",
        ),
        (
            "/stores/only/query?field=ghost&bbox=0,0:1,1",
            404,
            "unknown_field",
        ),
        ("/stores/only/query?bbox=0,0:1,1", 400, "bad_request"),
        ("/stores/only/query?field=density", 400, "bad_request"),
        (
            "/stores/only/query?field=density&bbox=zap",
            400,
            "bad_request",
        ),
        (
            "/stores/only/query?field=density&bbox=0,0:1,1&format=xml",
            400,
            "bad_request",
        ),
    ];
    for (path, want_status, want_kind) in cases {
        let (status, body) = http_get(&running.addr, path).expect(path);
        let body = String::from_utf8(body).unwrap();
        assert_eq!(status, want_status, "{path}: {body}");
        assert!(
            body.contains(&format!("\"kind\":\"{want_kind}\"")),
            "{path}: {body}"
        );
    }

    running.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refresh_picks_up_new_stores_and_metrics_count_traffic() {
    let dir = tempdir("refresh");
    pack_into(&dir, "first.zms");
    let running = start(&dir, ServeOptions::default());

    let (_, body) = http_get(&running.addr, "/catalog").expect("catalog");
    assert!(!String::from_utf8(body)
        .unwrap()
        .contains("\"id\":\"second\""));

    pack_into(&dir, "second.zms");
    let (status, body) = http_get(&running.addr, "/catalog?refresh=1").expect("refresh");
    assert_eq!(status, 200);
    assert!(String::from_utf8(body)
        .unwrap()
        .contains("\"id\":\"second\""));

    // Repeat one query; the second round must hit the decoded-chunk LRU.
    let path = "/stores/first/query?field=density&bbox=0,0:7,7";
    for _ in 0..2 {
        let (status, _) = http_get(&running.addr, path).expect("query");
        assert_eq!(status, 200);
    }
    let (status, body) = http_get(&running.addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(body).unwrap();
    assert!(metrics.contains("\"chunk_cache\":{\"hits\":"), "{metrics}");
    let hits: u64 = metrics
        .split("\"chunk_cache\":{\"hits\":")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.parse().ok())
        .expect("parse hits");
    assert!(hits > 0, "repeat query must register chunk-cache hits");
    assert!(metrics.contains("\"queries\":"), "{metrics}");

    running.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keepalive_connection_reuses_and_answers_byte_identically() {
    let dir = tempdir("keepalive");
    pack_into(&dir, "only.zms");
    // A store id with a literal `+` must stay reachable: `+` is a space
    // only inside query strings, never in paths.
    pack_into(&dir, "run+hot.zms");
    let running = start(&dir, ServeOptions::default());

    let paths = [
        "/stores/only/query?field=density&bbox=0,0:7,7&format=frames",
        "/stores/only/info",
        "/stores/run+hot/info",
        "/healthz",
    ];
    let mut client = HttpClient::new(&running.addr);
    for path in paths {
        let (ka_status, ka_body) = client.get(path).expect(path);
        assert!(
            client.connected(),
            "{path}: server must keep the connection open"
        );
        let (cl_status, cl_body) = http_get(&running.addr, path).expect(path);
        assert_eq!(ka_status, cl_status, "{path}");
        assert_eq!(
            ka_body, cl_body,
            "{path}: keep-alive and closed-connection bodies must match"
        );
    }

    let (status, body) = client.get("/metrics").expect("metrics");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(body).unwrap();
    let reuses: u64 = metrics
        .split("\"keepalive_reuses\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .expect("parse keepalive_reuses");
    // Requests 2..=5 on the persistent connection are reuses.
    assert!(reuses >= 4, "want >=4 reuses, got {reuses}: {metrics}");

    running.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_client_cannot_starve_concurrent_queries() {
    let dir = tempdir("stall");
    pack_into(&dir, "only.zms");
    // One worker: pre-timeout, a stalled connection would pin it forever
    // and this test would hang. Post-timeout, the worker frees itself.
    let running = start(
        &dir,
        ServeOptions {
            workers: 1,
            idle_timeout: Duration::from_millis(300),
            ..ServeOptions::default()
        },
    );

    // A client that connects, sends half a request line, and stalls.
    let mut stalled = TcpStream::connect(&running.addr).expect("connect");
    stalled.write_all(b"GET /healthz").expect("partial write");
    stalled.flush().expect("flush");
    // Let the single worker pick the stalled connection up.
    std::thread::sleep(Duration::from_millis(50));

    // A well-behaved query issued while the worker is pinned: it must be
    // answered once the stalled connection times out — not starve.
    let t0 = Instant::now();
    let (status, _) = http_get(
        &running.addr,
        "/stores/only/query?field=density&bbox=0,0:7,7",
    )
    .expect("query during stall");
    assert_eq!(status, 200);
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "query stalled behind an idle connection for {elapsed:?}"
    );

    // The stalled client is told why: 408, then EOF (or a bare close if
    // the response write raced the teardown).
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut answer = Vec::new();
    let _ = stalled.read_to_end(&mut answer);
    let answer = String::from_utf8_lossy(&answer);
    assert!(
        answer.is_empty() || answer.starts_with("HTTP/1.1 408"),
        "stalled client got: {answer:?}"
    );

    let (_, body) = http_get(&running.addr, "/metrics").expect("metrics");
    let metrics = String::from_utf8(body).unwrap();
    assert!(
        metrics.contains("\"timeouts\":1"),
        "timeout must be counted: {metrics}"
    );

    running.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_queries_match_single_queries_and_direct_reads() {
    let dir = tempdir("batch");
    let bytes = pack_into(&dir, "only.zms");
    let running = start(&dir, ServeOptions::default());

    let bboxes = ["0,0:3,3", "2,2:9,9", "0,0:15,15"];
    let mut body = batch_body("density", &bboxes);
    // Splice in a failing item: unknown field, same bbox grammar.
    body = body.replace("]}", ",{\"field\":\"ghost\",\"bbox\":\"0,0:1,1\"}]}");

    let mut client = HttpClient::new(&running.addr);
    let (status, payload) = client
        .post_json("/stores/only/query-batch", body.as_bytes())
        .expect("batch post");
    assert_eq!(status, 200);
    let items = wire::decode_batch_frames(&payload).expect("batch frames");
    assert_eq!(items.len(), bboxes.len() + 1);

    let reader = StoreReader::open(&bytes).expect("open");
    for (bbox, item) in bboxes.iter().zip(&items) {
        let (meta, indices, values) = item.as_ref().expect("batch item");

        // Byte-identical to the single-query endpoint for the same bbox…
        let (status, single) = http_get(
            &running.addr,
            &format!("/stores/only/query?field=density&bbox={bbox}&format=frames"),
        )
        .expect("single query");
        assert_eq!(status, 200);
        let (s_meta, s_indices, s_values) = wire::decode_query_frames(&single).expect("frames");
        assert_eq!(meta, &s_meta, "{bbox}");
        assert_eq!(indices, &s_indices, "{bbox}");
        let batch_bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        let single_bits: Vec<u64> = s_values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(batch_bits, single_bits, "{bbox}");

        // …and bit-exact against a direct in-memory read.
        let (lo, hi) = {
            let (lo, hi) = bbox.split_once(':').unwrap();
            let corner = |s: &str| {
                let v: Vec<u32> = s.split(',').map(|t| t.parse().unwrap()).collect();
                [v[0], v[1], 0]
            };
            (corner(lo), corner(hi))
        };
        let direct = reader
            .query("density", &Query::bbox(lo, hi))
            .expect("direct query");
        assert_eq!(indices, &direct.storage_indices, "{bbox}");
        let direct_bits: Vec<u64> = direct.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(batch_bits, direct_bits, "{bbox}");
    }
    let err = items[bboxes.len()].as_ref().expect_err("ghost field");
    assert!(err.contains("unknown_field"), "{err}");

    // The endpoint is POST-only, and garbage bodies answer 400.
    let (status, _) = http_get(&running.addr, "/stores/only/query-batch").expect("get");
    assert_eq!(status, 405);
    let (status, body) = client
        .post_json("/stores/only/query-batch", b"{\"queries\":[]}")
        .expect("empty batch");
    assert_eq!(status, 400);
    assert!(String::from_utf8(body).unwrap().contains("bad_request"));

    running.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_close_is_not_a_client_error_and_max_requests_caps_reuse() {
    let dir = tempdir("close");
    pack_into(&dir, "only.zms");
    let running = start(
        &dir,
        ServeOptions {
            max_requests: 2,
            ..ServeOptions::default()
        },
    );

    // Connect and close without sending a byte: a normal keep-alive end,
    // not a 400.
    drop(TcpStream::connect(&running.addr).expect("connect"));
    std::thread::sleep(Duration::from_millis(100));
    let (_, body) = http_get(&running.addr, "/metrics").expect("metrics");
    let metrics = String::from_utf8(body).unwrap();
    assert!(
        metrics.contains("\"responses_client_error\":0"),
        "clean close counted as client error: {metrics}"
    );

    // max_requests: 2 — the second response closes the connection, and
    // the client transparently reconnects for the third.
    let mut client = HttpClient::new(&running.addr);
    client.get("/healthz").expect("first");
    assert!(client.connected());
    client.get("/healthz").expect("second");
    assert!(
        !client.connected(),
        "second response must carry Connection: close"
    );
    let (status, _) = client.get("/healthz").expect("third");
    assert_eq!(status, 200);

    running.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `http_get` without header stripping: returns the status line +
/// headers too, so tests can check `Retry-After`.
fn raw_get(addr: &str, path: &str) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .expect("request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = String::from_utf8(raw[..split].to_vec()).expect("utf8 headers");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status");
    (status, head, raw[split + 4..].to_vec())
}

#[test]
fn health_cycle_degrades_quarantines_and_reinstates() {
    let dir = tempdir("healthcycle");
    let clean = pack_into(&dir, "vol.zms");
    // A unit cache budget disables decoded-chunk caching, so every query
    // really re-reads the file and sees the on-disk damage immediately.
    let running = start(
        &dir,
        ServeOptions {
            cache_bytes: 1,
            ..ServeOptions::default()
        },
    );
    let query_path = "/stores/vol/query?field=density&bbox=0,0:7,7&format=frames";

    // Healthy baseline.
    let (status, baseline) = http_get(&running.addr, query_path).expect("baseline");
    assert_eq!(status, 200);
    let (_, base_idx, base_vals, damage) =
        wire::decode_query_frames_with_damage(&baseline).expect("frames");
    assert!(damage.is_none(), "healthy response carries no damage frame");
    let (_, body) = http_get(&running.addr, "/healthz").expect("healthz");
    assert_eq!(
        body,
        b"{\"ok\":true,\"stores\":1,\"degraded\":0,\"quarantined\":0}"
    );

    // Corrupt one data chunk on disk: the next strict read fails its
    // CRC, the daemon re-runs under salvage (parity repairs the chunk),
    // answers 200 with a damage report, and degrades the store.
    let mut damaged = clean.clone();
    zmesh_store::faultinject::flip_data_chunk(&mut damaged, 0, 0);
    std::fs::write(dir.join("vol.zms"), &damaged).expect("damage on disk");
    let (status, body) = http_get(&running.addr, query_path).expect("salvaged query");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let (_, idx, vals, damage) = wire::decode_query_frames_with_damage(&body).expect("frames");
    let report = damage.expect("salvage read must attach a damage frame");
    assert!(report.contains("\"repaired\":1"), "{report}");
    assert_eq!(idx, base_idx, "parity repair restores the exact answer");
    let got: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
    let want: Vec<u64> = base_vals.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want);
    let (_, body) = http_get(&running.addr, "/healthz").expect("healthz");
    assert!(
        String::from_utf8(body).unwrap().contains("\"degraded\":1"),
        "store must be degraded after observed damage"
    );

    // Truncate the file mid-payload: reads run off the end of the store.
    // The degraded store serves under salvage, which absorbs data-chunk
    // loss — so drive a `?strict=1` read, where the I/O failure surfaces
    // as a container-level (Fatal) error and quarantines the store:
    // 503 with a Retry-After reflecting the probe backoff.
    // (Cut almost everything — the data chunks sit early in the file, so
    // a half-length cut could leave a strict query's reads untouched.)
    std::fs::write(dir.join("vol.zms"), &clean[..128]).expect("truncate");
    let (status, head, _) = raw_get(&running.addr, &format!("{query_path}&strict=1"));
    assert_eq!(status, 503, "{head}");
    let retry_after: u64 = head
        .lines()
        .find_map(|l| l.strip_prefix("Retry-After: "))
        .expect("Retry-After header")
        .trim()
        .parse()
        .expect("integer Retry-After");
    assert!(retry_after >= 1, "{head}");
    // Quarantine blocks every caller, not just strict ones.
    let (status, body) = http_get(&running.addr, query_path).expect("quarantined query");
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
    let (_, body) = http_get(&running.addr, "/healthz").expect("healthz");
    assert!(
        String::from_utf8(body)
            .unwrap()
            .contains("\"quarantined\":1"),
        "store must be quarantined after torn reads"
    );

    // Heal the file; the background probe reinstates the store with no
    // operator action, and responses are byte-identical to the baseline.
    std::fs::write(dir.join("vol.zms"), &clean).expect("repair on disk");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = http_get(&running.addr, "/healthz").expect("healthz");
        if body == b"{\"ok\":true,\"stores\":1,\"degraded\":0,\"quarantined\":0}" {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "probe never reinstated: {}",
            String::from_utf8_lossy(&body)
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    let (status, body) = http_get(&running.addr, query_path).expect("reinstated query");
    assert_eq!(status, 200);
    assert_eq!(body, baseline, "reinstated store answers bit-identically");

    // The whole cycle shows up in /metrics.
    let (_, body) = http_get(&running.addr, "/metrics").expect("metrics");
    let metrics = String::from_utf8(body).unwrap();
    for key in [
        "\"io_retries\":",
        "\"degraded_stores\":0",
        "\"quarantined_stores\":0",
        "\"probes\":",
    ] {
        assert!(metrics.contains(key), "missing {key}: {metrics}");
    }
    let salvaged: u64 = metrics
        .split("\"salvaged_queries\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .expect("parse salvaged_queries");
    assert!(salvaged >= 1, "{metrics}");

    running.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drains_in_flight_requests_on_shutdown() {
    let dir = tempdir("drain");
    pack_into(&dir, "only.zms");
    let running = start(
        &dir,
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    );

    // Launch a burst, request shutdown mid-flight, and require every
    // accepted request to still be answered.
    let mut handles = Vec::new();
    for i in 0..6 {
        let addr = running.addr.clone();
        handles.push(std::thread::spawn(move || {
            http_get(
                &addr,
                &format!("/stores/only/query?field=density&bbox=0,0:{0},{0}", 3 + i),
            )
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(20));
    running.shutdown.store(true, Ordering::SeqCst);
    for handle in handles {
        match handle.join().expect("client") {
            // Either answered (accepted before the drain began)…
            Ok((status, _)) => assert_eq!(status, 200),
            // …or refused outright (arrived after the listener closed,
            // or reset out of the backlog) — never accepted by a worker
            // and then abandoned mid-response.
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused
                        | std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::BrokenPipe
                        | std::io::ErrorKind::InvalidData
                ),
                "unexpected failure mode: {e:?}"
            ),
        }
    }
    running
        .thread
        .join()
        .expect("server thread")
        .expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}
