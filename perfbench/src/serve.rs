//! `serve`: an in-process `zmesh_serve::Server` over a catalog of stores
//! at the serving layout, driven by keep-alive clients in a closed loop
//! (each client waits for its reply) with zipf(1.1) over
//! (store, field) × 64 region tiles.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use zmesh_amr::datasets::Dataset;
use zmesh_amr::Dim;
use zmesh_serve::bench::HttpClient;
use zmesh_serve::metrics::ServeMetrics;
use zmesh_serve::{wire, Catalog, ServeOptions, Server, Zipf};
use zmesh_store::Query;

use crate::data;
use crate::host::HostProbe;
use crate::report::{median, timed_ns, OpRecord};
use crate::trace::Tracer;
use crate::{Cfg, Outcome};

/// Zipf exponent over the request keys.
pub const ZIPF_S: f64 = 1.1;
/// Closed-loop clients (one keep-alive connection each).
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// How often each client re-takes the host probe: requests take about
/// 0.1 ms, too short to probe each one, and a probe every 20 ms costs under
/// 1% of a client's time.
const PROBE_EVERY: Duration = Duration::from_millis(20);
const PRESETS: [&str; 3] = ["blast2d", "cluster3d", "front2d"];
const QUANTITIES: usize = 4;

/// One distinct request: a region tile of one field of one store.
pub struct Key {
    pub store: String,
    pub field: String,
    pub query: Query,
    pub path: String,
}

/// The request keys of a catalog: every (store, field) × 64 tiles, in a
/// fixed shuffled order so zipf ranks spread over stores. The order does
/// not depend on the workload seed, which only drives the request stream.
pub fn keys(catalog: &Catalog) -> Vec<Key> {
    let mut keys = Vec::new();
    for entry in catalog.entries() {
        let Ok(opened) = entry.store.as_ref() else {
            continue;
        };
        let tree = opened.reader.tree();
        let (per_axis, rank) = match tree.dim() {
            Dim::D2 => (8, 2),
            Dim::D3 => (4, 3),
        };
        for field in opened.reader.field_names() {
            for i in 0..64 {
                let query = data::tile(tree, per_axis, i);
                let path = format!(
                    "/stores/{}/query?field={field}&bbox={}&format=frames",
                    entry.id,
                    data::bbox_param(&query, rank)
                );
                keys.push(Key {
                    store: entry.id.clone(),
                    field: field.to_string(),
                    query,
                    path,
                });
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(0x7a1e_5eed);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..i + 1));
    }
    keys
}

/// A running daemon on an ephemeral port.
pub struct Daemon {
    pub addr: String,
    pub catalog: Arc<Catalog>,
    pub metrics: Arc<ServeMetrics>,
    pub bind_ns: u64,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    pub fn start(dir: &Path, cache_bytes: u64) -> std::io::Result<Self> {
        let t0 = Instant::now();
        let server = Server::bind(
            dir,
            ServeOptions {
                addr: "127.0.0.1:0".to_string(),
                workers: WORKERS,
                cache_bytes,
                ..ServeOptions::default()
            },
        )?;
        let bind_ns = t0.elapsed().as_nanos() as u64;
        let addr = server.local_addr()?.to_string();
        let (catalog, metrics, shutdown) =
            (server.catalog(), server.metrics(), server.shutdown_handle());
        let thread = std::thread::spawn(move || server.run());
        Ok(Self {
            addr,
            catalog,
            metrics,
            bind_ns,
            shutdown,
            thread,
        })
    }

    /// Stops accepting, drains, and joins the server thread.
    pub fn stop(self) -> std::io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))?
    }
}

/// How long a traffic phase runs.
#[derive(Clone, Copy)]
pub enum Budget {
    Time(Duration),
    Requests(usize),
}

/// What a traffic phase observed, merged over its clients.
pub struct Traffic {
    /// One record per 200 response.
    pub records: Vec<OpRecord>,
    pub ok: u64,
    pub errors: u64,
    pub wall: Duration,
    /// Requests per key.
    pub counts: Vec<u64>,
    /// First response body per key; later bodies of the key were compared
    /// against it by CRC.
    pub first: BTreeMap<usize, Vec<u8>>,
    /// Responses that differed from the key's first response.
    pub mismatched: u64,
}

impl Traffic {
    fn empty(n_keys: usize) -> Self {
        Self {
            records: Vec::new(),
            ok: 0,
            errors: 0,
            wall: Duration::ZERO,
            counts: vec![0; n_keys],
            first: BTreeMap::new(),
            mismatched: 0,
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.errors
    }

    /// Requests that failed or answered wrong: transport or status errors,
    /// responses that differ from the key's first response, and every
    /// request of a key whose first response differs from the in-process
    /// `StoreReader::query` answer.
    pub fn wrong(&self, catalog: &Catalog, keys: &[Key]) -> u64 {
        let mut wrong = self.errors + self.mismatched;
        for (&k, body) in &self.first {
            if !matches_in_process(catalog, &keys[k], body) {
                wrong += self.counts[k];
            }
        }
        wrong
    }
}

/// Runs `clients` closed-loop keep-alive clients against `addr`.
pub fn drive(
    addr: &str,
    keys: &Arc<Vec<Key>>,
    clients: usize,
    budget: Budget,
    seed: u64,
    tr: &mut Tracer,
) -> Traffic {
    let zipf = Arc::new(Zipf::new(keys.len(), ZIPF_S));
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let (addr, keys, zipf) = (addr.to_string(), Arc::clone(keys), Arc::clone(&zipf));
            let mut ctr = tr.fork();
            let seed = seed ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let budget = match budget {
                Budget::Requests(n) => Budget::Requests(n.div_ceil(clients)),
                t => t,
            };
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut client = HttpClient::new(&addr);
                let mut out = Traffic::empty(keys.len());
                let mut crcs: BTreeMap<usize, u32> = BTreeMap::new();
                let mut sent = 0usize;
                let mut host = HostProbe::new(PROBE_EVERY);
                while match budget {
                    Budget::Time(d) => start.elapsed() < d,
                    Budget::Requests(n) => sent < n,
                } {
                    sent += 1;
                    let k = zipf.sample(&mut rng);
                    out.counts[k] += 1;
                    let probe_ns = host.current();
                    let t = Instant::now();
                    let resp = ctr.op("op.serve_request", |tr| {
                        tr.span("serve.http", |_| client.get(&keys[k].path))
                    });
                    let ns = t.elapsed().as_nanos() as f64;
                    match resp {
                        Ok((200, body)) => {
                            let bytes = body.len() as f64;
                            let at = start.elapsed().as_secs_f64();
                            out.records
                                .push(OpRecord::new(ns, probe_ns, 0, true, bytes, at));
                            out.ok += 1;
                            ctr.sample("serve.response_bytes", body.len() as f64);
                            let crc = zmesh::crc32(&body);
                            match crcs.get(&k) {
                                Some(&first) if first != crc => out.mismatched += 1,
                                Some(_) => {}
                                None => {
                                    crcs.insert(k, crc);
                                    out.first.insert(k, body);
                                }
                            }
                        }
                        Ok(_) | Err(_) => out.errors += 1,
                    }
                }
                // Close the connection before the server drains.
                drop(client);
                (out, ctr)
            })
        })
        .collect();
    let mut total = Traffic::empty(keys.len());
    for h in handles {
        let (part, ctr) = h.join().expect("client thread panicked");
        tr.absorb(ctr);
        if total.records.is_empty() {
            total.records = part.records;
        } else {
            total.records.extend(part.records);
        }
        total.ok += part.ok;
        total.errors += part.errors;
        total.mismatched += part.mismatched;
        for (k, n) in part.counts.into_iter().enumerate() {
            total.counts[k] += n;
        }
        for (k, body) in part.first {
            match total.first.get(&k) {
                Some(seen) if *seen != body => total.mismatched += 1,
                Some(_) => {}
                None => {
                    total.first.insert(k, body);
                }
            }
        }
    }
    total.wall = start.elapsed();
    total
}

/// Whether a frames response equals the in-process query answer
/// bit for bit.
fn matches_in_process(catalog: &Catalog, key: &Key, body: &[u8]) -> bool {
    let Ok((_, indices, values)) = wire::decode_query_frames(body) else {
        return false;
    };
    let Some(entry) = catalog.get(&key.store) else {
        return false;
    };
    let Ok(opened) = entry.store.as_ref() else {
        return false;
    };
    let Ok(expected) = opened.reader.query(&key.field, &key.query) else {
        return false;
    };
    expected.storage_indices == indices
        && expected.values.len() == values.len()
        && expected
            .values
            .iter()
            .zip(&values)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Replays a request multiset in-process on the catalog's readers (same
/// shared chunk cache) and returns the median `StoreReader::query` ns.
/// The spans are `store.query_cached`, apart from the uncached
/// `store.query` the sweep times.
/// At most about `cap` queries run; counts are thinned evenly above that.
pub fn replay_in_process(
    tr: &mut Tracer,
    catalog: &Catalog,
    keys: &[Key],
    counts: &[u64],
    cap: usize,
) -> f64 {
    let total: u64 = counts.iter().sum();
    let stride = total.div_ceil(cap.max(1) as u64).max(1);
    let mut times = Vec::new();
    for (k, &n) in counts.iter().enumerate() {
        let Some(entry) = catalog.get(&keys[k].store) else {
            continue;
        };
        let Ok(opened) = entry.store.as_ref() else {
            continue;
        };
        for _ in 0..n.div_ceil(stride) {
            let t = Instant::now();
            let _ = tr.op("probe.in_process_query", |tr| {
                tr.span("store.query_cached", |_| {
                    opened.reader.query(&keys[k].field, &keys[k].query)
                })
            });
            times.push(t.elapsed().as_nanos() as f64);
        }
    }
    median(&times)
}

/// Records the daemon's cache and connection counters as trace samples.
pub fn sample_counters(tr: &mut Tracer, daemon: &Daemon) {
    let c = daemon.catalog.chunk_stats();
    tr.sample(
        "store.chunk_cache.hit_rate",
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
    );
    tr.sample("store.chunk_cache.evictions", c.evictions as f64);
    tr.sample("store.chunk_cache.coalesced", c.coalesced as f64);
    let r = daemon.catalog.recipe_stats();
    tr.sample(
        "store.recipe_cache.hit_rate",
        r.hits as f64 / (r.hits + r.misses).max(1) as f64,
    );
    let m = &daemon.metrics;
    tr.sample(
        "serve.rejected_503",
        m.rejected_busy.load(Ordering::Relaxed) as f64,
    );
    tr.sample(
        "serve.keepalive_reuses",
        m.keepalive_reuses.load(Ordering::Relaxed) as f64,
    );
    tr.sample("serve.bind_ms", daemon.bind_ns as f64 / 1e6);
}

/// Decoded bytes of every field of `datasets`.
pub fn decoded_bytes(datasets: &[&Dataset]) -> u64 {
    datasets.iter().map(|d| d.nbytes() as u64).sum()
}

/// Client p50 minus in-process query p50 over the same request multiset.
fn sample_http_overhead(tr: &mut Tracer, daemon: &Daemon, keys: &[Key], t: &Traffic, cap: usize) {
    let in_process = replay_in_process(tr, &daemon.catalog, keys, &t.counts, cap);
    tr.sample(
        "serve.http_overhead_us",
        (median(&timed_ns(&t.records)) - in_process) / 1e3,
    );
}

/// A short traced daemon run over the stores in `dir`, for
/// workloads whose own ops never reach the daemon: one client, a fixed
/// request count. Returns `(attempted, wrong)`.
pub fn probe_daemon(tr: &mut Tracer, dir: &Path, cache_bytes: u64, seed: u64) -> (u64, u64) {
    let Ok(daemon) = Daemon::start(dir, cache_bytes) else {
        return (1, 1);
    };
    let keys = Arc::new(keys(&daemon.catalog));
    let traffic = drive(&daemon.addr, &keys, 1, Budget::Requests(600), seed, tr);
    let wrong = traffic.wrong(&daemon.catalog, &keys);
    sample_counters(tr, &daemon);
    sample_http_overhead(tr, &daemon, &keys, &traffic, 600);
    let stopped = daemon.stop().is_ok();
    (traffic.attempted(), wrong + u64::from(!stopped))
}

struct Catalogued {
    dir: PathBuf,
    datasets: Vec<Dataset>,
    file_bytes: u64,
    daemon: Daemon,
}

fn setup(cfg: &Cfg) -> Result<Catalogued, String> {
    let dir = cfg.work.join("catalog");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut datasets = Vec::new();
    let mut file_bytes = 0u64;
    for preset in PRESETS {
        let ds = data::timestep(preset, cfg.scale, QUANTITIES, cfg.seed);
        let path = dir.join(format!("{preset}.zms"));
        let bytes =
            data::pack_to(&ds, data::SERVE_CHUNK_BYTES, &path).map_err(|e| e.to_string())?;
        file_bytes += bytes as u64;
        datasets.push(ds);
    }
    let refs: Vec<&Dataset> = datasets.iter().collect();
    let daemon = Daemon::start(&dir, decoded_bytes(&refs) / 4).map_err(|e| e.to_string())?;
    Ok(Catalogued {
        dir,
        datasets,
        file_bytes,
        daemon,
    })
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> Result<Outcome, String> {
    let (cat, setup_s) = crate::repeat_setup(|| setup(cfg), |c| c.daemon.stop())?;
    let keys = Arc::new(keys(&cat.daemon.catalog));
    let addr = cat.daemon.addr.clone();
    let mut off = tr.fork_disabled();
    let refs: Vec<&Dataset> = cat.datasets.iter().collect();

    // Warm-up: fill the chunk cache before timing.
    let warm = drive(
        &addr,
        &keys,
        CLIENTS,
        Budget::Time(Duration::from_secs_f64((cfg.seconds * 0.1).min(1.0))),
        cfg.seed ^ 0xa11,
        &mut off,
    );
    let mut attempted = warm.attempted();
    let mut failed = warm.wrong(&cat.daemon.catalog, &keys);

    let measure = |share: f64, salt: u64, tr: &mut Tracer| {
        drive(
            &addr,
            &keys,
            CLIENTS,
            Budget::Time(Duration::from_secs_f64(cfg.seconds * share)),
            cfg.seed ^ salt,
            tr,
        )
    };
    let mut metrics = Vec::new();
    if cfg.trace {
        let base = measure(crate::TRACE_SHARE, 0xb0, &mut off);
        let traced = measure(crate::TRACE_SHARE, 0xb1, tr);
        for t in [&base, &traced] {
            attempted += t.attempted();
            failed += t.wrong(&cat.daemon.catalog, &keys);
        }
        sample_counters(tr, &cat.daemon);
        sample_http_overhead(tr, &cat.daemon, &keys, &traced, 20_000);
        crate::sample_overhead(tr, &timed_ns(&base.records), &timed_ns(&traced.records));
        let stores: Vec<(&Dataset, PathBuf)> = cat
            .datasets
            .iter()
            .zip(PRESETS)
            .map(|(ds, p)| (ds, cat.dir.join(format!("{p}.zms"))))
            .collect();
        let (a, f) = crate::probe::sweep(tr, &stores, data::SERVE_CHUNK_BYTES, cfg, false);
        attempted += a;
        failed += f;
    } else {
        let t = measure(1.0, 0xb0, &mut off);
        attempted += t.attempted();
        failed += t.wrong(&cat.daemon.catalog, &keys);
        metrics = crate::e2e_metrics(
            &t.records,
            t.wall.as_secs_f64(),
            99.0,
            crate::Rate::Wall,
            decoded_bytes(&refs) as f64 / cat.file_bytes as f64,
            setup_s,
        );
    }

    let chunks = cat.daemon.catalog.chunk_stats();
    let descriptor = format!(
        "{{\"workload\":\"serve\",\"seed\":{},\"meshes\":[{}],\"keys\":{},\"clients\":{CLIENTS},\
         \"workers\":{WORKERS},\"zipf_s\":{ZIPF_S},\"decoded_working_set_bytes\":{},\
         \"chunk_cache_budget_bytes\":{},\"chunk_cache_resident_bytes\":{},\
         \"ops\":{{\"query\":{attempted}}}}}",
        cfg.seed,
        crate::mesh_descriptors(&refs, data::SERVE_CHUNK_BYTES),
        keys.len(),
        decoded_bytes(&refs),
        decoded_bytes(&refs) / 4,
        chunks.bytes,
    );
    let stopped = cat.daemon.stop().is_ok();
    Ok(Outcome {
        attempted,
        failed: failed + u64::from(!stopped),
        e2e: metrics,
        descriptor,
    })
}
