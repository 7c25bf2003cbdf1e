//! The daemon: accept loop, bounded worker pool, routing, graceful drain.
//!
//! Concurrency model: one nonblocking accept loop feeds accepted
//! connections into a bounded `sync_channel`; a fixed pool of worker
//! threads drains it, each running one connection's **request loop**
//! (parse → route → respond, repeated while the client keeps the
//! connection alive). When the queue is full the accept loop answers
//! `503` with `Retry-After` inline and closes — load is shed at the door
//! instead of queueing unboundedly. Heavy decode work inside a request
//! still fans out across rayon (the store reader's parallel chunk
//! decode), so a single large query uses the whole machine while small
//! queries stay cheap.
//!
//! Connections are persistent (HTTP/1.1 keep-alive) but bounded three
//! ways so no client can pin a worker from the fixed pool:
//!
//! * an **idle/read/write timeout** ([`ServeOptions::idle_timeout`], via
//!   `set_read_timeout`/`set_write_timeout`) — a client that connects
//!   and sends nothing, or stalls mid-request, is answered `408` (when a
//!   request was underway) or simply closed, freeing the worker;
//! * a **max-requests-per-connection** cap
//!   ([`ServeOptions::max_requests`]) — the final response carries
//!   `Connection: close`, so one immortal client cannot monopolize a
//!   worker forever under load;
//! * **drain awareness** — once shutdown is requested, the in-flight
//!   request is finished and answered with `Connection: close` instead
//!   of either abandoning it or continuing to serve the connection.
//!
//! Shutdown: a `SIGTERM`/`SIGINT` handler (or a programmatic handle)
//! flips an atomic flag; the accept loop stops accepting, drops the
//! queue sender, and joins the workers — which finish every request
//! already accepted before exiting. No request that got a connection is
//! abandoned.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use zmesh_store::{json_escape, DamageReport, Query, QueryResult, ReadPolicy, StoreError};

use crate::catalog::{Catalog, CatalogEntry, HealthReport, HealthState, DEFAULT_CACHE_BYTES};
use crate::http::{parse_request, ParseOutcome, Request, Response};
use crate::json::{self, Json};
use crate::metrics::ServeMetrics;
use crate::wire;

/// Upper bound on one `poll(2)` wait in the accept loop: pending
/// connections are accepted immediately; this only caps how stale the
/// shutdown-flag check can get.
const ACCEPT_POLL_MS: i32 = 50;
/// Most queries accepted in one `query-batch` body.
pub const MAX_BATCH_QUERIES: usize = 1024;

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Accepted connections that may wait for a worker before new
    /// arrivals are answered `503`.
    pub queue_depth: usize,
    /// Decoded-chunk LRU budget in bytes.
    pub cache_bytes: u64,
    /// Socket read/write timeout: how long a connection may sit idle
    /// between requests (or stall mid-request / mid-response) before the
    /// worker answers `408`-or-closes and moves on.
    pub idle_timeout: Duration,
    /// Requests served per connection before the server closes it
    /// (`Connection: close` on the final response). Bounds how long one
    /// client can hold a worker under keep-alive; minimum 1.
    pub max_requests: usize,
    /// `Retry-After` advertised on queue-full `503`s. (Quarantined-store
    /// `503`s advertise the store's actual probe backoff instead.)
    pub busy_retry_after: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            cache_bytes: DEFAULT_CACHE_BYTES,
            idle_timeout: Duration::from_secs(10),
            max_requests: 1000,
            busy_retry_after: Duration::from_secs(1),
        }
    }
}

/// Process-global flag flipped by the signal handler. Worker/bench
/// servers each also carry their own [`Server::shutdown_handle`]; the
/// run loop honors either.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_short, c_ulong};

    pub const SIGINT: c_int = 2;
    pub const SIGTERM: c_int = 15;
    pub type Handler = extern "C" fn(c_int);

    /// `struct pollfd` for `poll(2)`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const POLLIN: c_short = 0x1;

    extern "C" {
        /// `signal(2)` — installed handlers only store to an atomic,
        /// which is async-signal-safe.
        pub fn signal(signum: c_int, handler: Handler) -> usize;
        /// `poll(2)` — lets the accept loop sleep until a connection is
        /// pending instead of adding fixed latency to every accept.
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

/// Waits until the listener has a pending connection or the timeout
/// elapses — whichever is first. Errors are ignored: the accept loop
/// simply retries (and re-checks the shutdown flag).
#[cfg(unix)]
fn wait_readable(listener: &TcpListener, timeout_ms: i32) {
    use std::os::unix::io::AsRawFd;
    let mut fds = [sys::PollFd {
        fd: listener.as_raw_fd(),
        events: sys::POLLIN,
        revents: 0,
    }];
    unsafe {
        sys::poll(fds.as_mut_ptr(), 1, timeout_ms);
    }
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: std::ffi::c_int) {
    SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs `SIGTERM`/`SIGINT` handlers that request a graceful drain of
/// every running [`Server`] in this process.
#[cfg(unix)]
pub fn install_signal_handlers() {
    unsafe {
        sys::signal(sys::SIGTERM, on_signal);
        sys::signal(sys::SIGINT, on_signal);
    }
}

/// A bound, catalog-loaded daemon, ready to [`Server::run`].
pub struct Server {
    listener: TcpListener,
    catalog: Arc<Catalog>,
    metrics: Arc<ServeMetrics>,
    shutdown: Arc<AtomicBool>,
    opts: ServeOptions,
}

impl Server {
    /// Scans `dir`, opens every store, and binds the listen socket.
    pub fn bind(dir: impl Into<PathBuf>, opts: ServeOptions) -> std::io::Result<Self> {
        let catalog = Arc::new(Catalog::open(dir, opts.cache_bytes)?);
        Self::bind_catalog(catalog, opts)
    }

    /// [`Server::bind`] with a runtime fault plan: stores the plan
    /// matches are opened over a deterministic
    /// [`zmesh_store::faultinject::FaultSource`]. Chaos harness only.
    #[cfg(feature = "testing")]
    pub fn bind_with_faults(
        dir: impl Into<PathBuf>,
        opts: ServeOptions,
        plan: Option<zmesh_store::faultinject::FaultSpec>,
    ) -> std::io::Result<Self> {
        let catalog = Arc::new(Catalog::open_with_faults(dir, opts.cache_bytes, plan)?);
        Self::bind_catalog(catalog, opts)
    }

    fn bind_catalog(catalog: Arc<Catalog>, opts: ServeOptions) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&opts.addr)?;
        Ok(Self {
            listener,
            catalog,
            metrics: Arc::new(ServeMetrics::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
            opts,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared catalog (caches, entries) — stays valid after `run`.
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog)
    }

    /// The shared metrics — stays valid after `run`.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// A flag that, once set, makes [`Server::run`] stop accepting,
    /// drain in-flight requests, and return.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serves until shutdown is requested (handle or signal), then
    /// drains: every accepted connection is answered before returning.
    ///
    /// Beside the worker pool, one background **probe thread** wakes
    /// every ~100 ms and re-opens quarantined stores whose decorrelated-
    /// jitter backoff has elapsed ([`Catalog::probe_quarantined`]); a
    /// clean probe reinstates the store without any operator action.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let prober = {
            let catalog = Arc::clone(&self.catalog);
            let metrics = Arc::clone(&self.metrics);
            let shutdown = Arc::clone(&self.shutdown);
            std::thread::Builder::new()
                .name("zmesh-serve-probe".to_string())
                .spawn(move || {
                    while !shutdown.load(Ordering::SeqCst)
                        && !SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
                    {
                        let probed = catalog.probe_quarantined();
                        ServeMetrics::add(&metrics.probes, probed as u64);
                        std::thread::sleep(Duration::from_millis(100));
                    }
                })
                .expect("spawn probe thread")
        };
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
            mpsc::sync_channel(self.opts.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(self.opts.workers.max(1));
        for i in 0..self.opts.workers.max(1) {
            let rx = Arc::clone(&rx);
            let catalog = Arc::clone(&self.catalog);
            let metrics = Arc::clone(&self.metrics);
            let opts = self.opts.clone();
            let shutdown = Arc::clone(&self.shutdown);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("zmesh-serve-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only for the recv: workers take
                        // turns pulling, then handle in parallel.
                        let next = rx.lock().expect("queue lock poisoned").recv();
                        match next {
                            Ok(stream) => {
                                handle_connection(stream, &catalog, &metrics, &opts, &shutdown)
                            }
                            Err(_) => return, // sender dropped: drained
                        }
                    })
                    .expect("spawn worker"),
            );
        }

        while !self.shutdown.load(Ordering::SeqCst) && !SIGNAL_SHUTDOWN.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    ServeMetrics::bump(&self.metrics.connections);
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => {
                            ServeMetrics::bump(&self.metrics.rejected_busy);
                            reject_busy(stream, &self.metrics, &self.opts);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    wait_readable(&self.listener, ACCEPT_POLL_MS);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: close the intake, let workers finish everything queued.
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
        // The probe thread watches the same shutdown flags; make sure it
        // sees the signal-path exit too.
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = prober.join();
        Ok(())
    }
}

/// Seconds for a `Retry-After` header: ceiling, never zero (a zero would
/// tell clients to hammer immediately).
fn retry_after_secs(d: Duration) -> u64 {
    (d.as_millis() as u64).div_ceil(1000).max(1)
}

/// Answers an over-capacity connection inline from the accept loop.
fn reject_busy(stream: TcpStream, metrics: &ServeMetrics, opts: &ServeOptions) {
    let mut resp = Response::error(503, "busy", "request queue full, retry shortly");
    resp.extra.push((
        "Retry-After",
        retry_after_secs(opts.busy_retry_after).to_string(),
    ));
    metrics.count_response(resp.status, resp.body.len());
    let _ = stream.set_write_timeout(Some(opts.idle_timeout));
    let mut stream = stream;
    let _ = resp.write_to(&mut stream);
}

/// One connection's request loop: parse → route → respond, repeated
/// while the client keeps the connection alive, up to
/// [`ServeOptions::max_requests`]. A clean close at a request boundary
/// ends the loop silently (it is not an error); a socket timeout answers
/// `408` and closes so a stalled client frees its worker; a malformed
/// request answers `400` and closes (framing is untrustworthy after).
/// Once shutdown is requested the in-flight request is still answered —
/// with `Connection: close` — before the worker moves on.
fn handle_connection(
    stream: TcpStream,
    catalog: &Catalog,
    metrics: &ServeMetrics,
    opts: &ServeOptions,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(opts.idle_timeout));
    let _ = stream.set_write_timeout(Some(opts.idle_timeout));
    // Responses go out in one write; Nagle would only delay the next
    // keep-alive round-trip.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stream = stream;
    let max_requests = opts.max_requests.max(1);
    let draining = || shutdown.load(Ordering::SeqCst) || SIGNAL_SHUTDOWN.load(Ordering::SeqCst);
    for served in 1..=max_requests {
        // An idle keep-alive connection is not held open across a drain:
        // nothing is in flight, so just close.
        if served > 1 && draining() {
            return;
        }
        let (resp, keep_alive) = match parse_request(&mut reader) {
            Ok(ParseOutcome::Closed) => return,
            Ok(ParseOutcome::TimedOut) => {
                // Best-effort 408; the client may be gone already. Either
                // way the worker is freed.
                ServeMetrics::bump(&metrics.timeouts);
                let resp =
                    Response::error(408, "timeout", "connection idle past the server's timeout");
                metrics.count_response(resp.status, resp.body.len());
                let _ = resp.write_to(&mut stream);
                return;
            }
            Ok(ParseOutcome::Request(req)) => {
                ServeMetrics::bump(&metrics.requests);
                if served > 1 {
                    ServeMetrics::bump(&metrics.keepalive_reuses);
                }
                let resp = route_isolated(&req, catalog, metrics);
                let keep = req.keep_alive() && served < max_requests && !draining();
                (resp, keep)
            }
            Err(e) => (Response::error(400, "bad_request", &e.0), false),
        };
        metrics.count_response(resp.status, resp.body.len());
        if resp.write_with_connection(&mut stream, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// [`route`] with the request's panics contained: a panicking request is
/// answered `500` and counted in `panics`, and its worker lives on to
/// serve the next one. Nothing a request holds outlives it — caches
/// recover from poisoned locks and an abandoned chunk decode releases its
/// waiters — so unwinding past it leaves shared state consistent.
fn route_isolated(req: &Request, catalog: &Catalog, metrics: &ServeMetrics) -> Response {
    let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        route(req, catalog, metrics)
    }));
    routed.unwrap_or_else(|_| {
        ServeMetrics::bump(&metrics.panics);
        Response::error(
            500,
            "internal",
            "the request panicked; the server is still up",
        )
    })
}

/// Dispatches a parsed request to its endpoint.
fn route(req: &Request, catalog: &Catalog, metrics: &ServeMetrics) -> Response {
    // The batch endpoint is the one POST; everything else is GET.
    if let Some((id, "query-batch")) = parse_store_path(&req.path) {
        if req.method != "POST" {
            return Response::error(405, "method_not_allowed", "query-batch wants POST");
        }
        return match catalog.get(id) {
            Some(entry) => query_batch_response(req, catalog, &entry, metrics),
            None => unknown_store(id),
        };
    }
    if req.method != "GET" {
        return Response::error(
            405,
            "method_not_allowed",
            "only GET (and POST query-batch) is supported",
        );
    }
    match req.path.as_str() {
        "/healthz" => {
            let (degraded, quarantined) = catalog.health_counts();
            Response::json(
                200,
                format!(
                    "{{\"ok\":true,\"stores\":{},\"degraded\":{degraded},\
                     \"quarantined\":{quarantined}}}",
                    catalog.len()
                ),
            )
        }
        "/metrics" => metrics_response(catalog, metrics),
        "/catalog" => catalog_response(req, catalog),
        path => match parse_store_path(path) {
            Some((id, "info")) => match catalog.get(id) {
                Some(entry) => info_response(&entry),
                None => unknown_store(id),
            },
            Some((id, "query")) => match catalog.get(id) {
                Some(entry) => query_response(req, catalog, &entry, metrics),
                None => unknown_store(id),
            },
            _ => Response::error(404, "not_found", &format!("no route for {path:?}")),
        },
    }
}

/// Splits `/stores/{id}/{verb}` into `(id, verb)`.
fn parse_store_path(path: &str) -> Option<(&str, &str)> {
    let rest = path.strip_prefix("/stores/")?;
    let (id, verb) = rest.split_once('/')?;
    if id.is_empty() || verb.contains('/') {
        return None;
    }
    Some((id, verb))
}

fn unknown_store(id: &str) -> Response {
    Response::error(404, "unknown_store", &format!("no store {id:?} in catalog"))
}

/// `GET /metrics`: server counters plus both shared cache stats.
fn metrics_response(catalog: &Catalog, metrics: &ServeMetrics) -> Response {
    let c = catalog.chunk_stats();
    let r = catalog.recipe_stats();
    let (degraded, quarantined) = catalog.health_counts();
    Response::json(
        200,
        format!(
            "{{\"server\":{},\"chunk_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\
             \"coalesced\":{},\"entries\":{},\"bytes\":{},\"max_bytes\":{}}},\
             \"recipe_cache\":{{\"hits\":{},\"misses\":{},\"entries\":{}}},\"stores\":{},\
             \"io_retries\":{},\"degraded_stores\":{},\"quarantined_stores\":{}}}",
            metrics.to_json(),
            c.hits,
            c.misses,
            c.evictions,
            c.coalesced,
            c.entries,
            c.bytes,
            catalog.chunk_cache().max_bytes(),
            r.hits,
            r.misses,
            r.entries,
            catalog.len(),
            catalog.io_retries(),
            degraded,
            quarantined,
        ),
    )
}

/// `GET /catalog[?refresh=1]`: list every store, optionally rescanning
/// the directory first.
fn catalog_response(req: &Request, catalog: &Catalog) -> Response {
    if matches!(req.param("refresh"), Some("1") | Some("true")) {
        if let Err(e) = catalog.refresh() {
            return Response::error(500, "io", &format!("refresh failed: {e}"));
        }
    }
    let mut stores = String::new();
    for entry in catalog.entries() {
        if !stores.is_empty() {
            stores.push(',');
        }
        let health = catalog.health(&entry.id);
        let health_json = match &health.reason {
            None => format!("\"health\":\"{}\"", health.state.label()),
            Some(reason) => format!(
                "\"health\":\"{}\",\"health_reason\":\"{}\"",
                health.state.label(),
                json_escape(reason)
            ),
        };
        match &entry.store {
            Ok(opened) => stores.push_str(&format!(
                "{{\"id\":\"{}\",\"path\":\"{}\",\"bytes\":{},\"ok\":true,\"fields\":{},{health_json}}}",
                json_escape(&entry.id),
                json_escape(&entry.path.display().to_string()),
                entry.file_bytes,
                opened.reader.fields().len(),
            )),
            Err(e) => stores.push_str(&format!(
                "{{\"id\":\"{}\",\"path\":\"{}\",\"bytes\":{},\"ok\":false,\"error\":\"{}\",{health_json}}}",
                json_escape(&entry.id),
                json_escape(&entry.path.display().to_string()),
                entry.file_bytes,
                json_escape(&e.to_string()),
            )),
        }
    }
    Response::json(
        200,
        format!(
            "{{\"dir\":\"{}\",\"stores\":[{stores}]}}",
            json_escape(&catalog.dir().display().to_string())
        ),
    )
}

/// How the health state machine reacts to a read-path [`StoreError`].
enum ErrorClass {
    /// The request was wrong, not the store: no health transition.
    Caller,
    /// Chunk-level damage: salvage may still answer the query.
    Damage,
    /// Container-level failure (open, torn, exhausted-retry or
    /// persistent I/O): the store is quarantined.
    Fatal,
}

fn classify_error(e: &StoreError) -> ErrorClass {
    match e {
        StoreError::UnknownField(_) | StoreError::BadQuery(_) | StoreError::InvalidOptions(_) => {
            ErrorClass::Caller
        }
        StoreError::ChunkCrc { .. } | StoreError::ParityCrc { .. } | StoreError::Corrupt(_) => {
            ErrorClass::Damage
        }
        _ => ErrorClass::Fatal,
    }
}

/// Maps a read-path [`StoreError`] onto a structured HTTP error.
fn store_error_response(e: &StoreError) -> Response {
    match e {
        StoreError::UnknownField(_) => Response::error(404, "unknown_field", &e.to_string()),
        StoreError::BadQuery(_) | StoreError::InvalidOptions(_) => {
            Response::error(400, "bad_request", &e.to_string())
        }
        StoreError::IoTransient(_) => Response::error(503, "io_transient", &e.to_string()),
        StoreError::Io(_) => Response::error(500, "io", &e.to_string()),
        StoreError::Torn => Response::error(500, "torn", &e.to_string()),
        _ => Response::error(500, "corrupt", &e.to_string()),
    }
}

/// The quarantined 503: `Retry-After` advertises the store's actual
/// probe backoff, so well-behaved clients come back when a reinstating
/// probe could have happened — not on a made-up constant.
fn quarantined_response(id: &str, health: &HealthReport) -> Response {
    let mut resp = Response::error(
        503,
        "quarantined",
        &format!(
            "store {id:?} is quarantined ({}); retry after the next probe",
            health.reason.as_deref().unwrap_or("container failure"),
        ),
    );
    resp.extra.push((
        "Retry-After",
        retry_after_secs(health.retry_after).to_string(),
    ));
    resp
}

/// Renders a non-empty [`DamageReport`] as the tag-5 frame / `"damage"`
/// JSON payload: per-chunk repair/loss itemization plus totals.
fn damage_json(d: &DamageReport) -> String {
    let mut chunks = String::new();
    for c in &d.chunks {
        if !chunks.is_empty() {
            chunks.push(',');
        }
        chunks.push_str(&format!(
            "{{\"field\":\"{}\",\"chunk\":{},\"status\":\"{}\",\"values_lost\":{},\"error\":\"{}\"}}",
            json_escape(&c.field),
            c.chunk,
            match c.status {
                zmesh_store::DamageStatus::Repaired => "repaired",
                zmesh_store::DamageStatus::Lost => "lost",
            },
            c.values_lost,
            json_escape(&c.error.to_string()),
        ));
    }
    format!(
        "{{\"salvaged\":true,\"chunks\":[{chunks}],\"repaired\":{},\"lost\":{},\
         \"values_lost\":{}}}",
        d.repaired().count(),
        d.lost().count(),
        d.total_values_lost(),
    )
}

/// The broken-entry 500 for metadata endpoints: the store is listed but
/// did not open. (Query endpoints quarantine instead.)
fn broken_store_response(entry: &CatalogEntry, err: &StoreError) -> Response {
    Response::error(
        500,
        "store_unavailable",
        &format!("store {:?} failed to open: {err}", entry.id),
    )
}

/// `GET /stores/{id}/info`: header, mesh, and per-field summary.
fn info_response(entry: &CatalogEntry) -> Response {
    let opened = match &entry.store {
        Ok(o) => o,
        Err(e) => return broken_store_response(entry, e),
    };
    let reader = &opened.reader;
    let h = reader.header();
    let tree = reader.tree();
    let mut fields = String::new();
    for f in reader.fields() {
        if !fields.is_empty() {
            fields.push(',');
        }
        let payload: u64 = f.chunks.iter().map(|c| c.len).sum();
        fields.push_str(&format!(
            "{{\"name\":\"{}\",\"chunks\":{},\"parity\":{},\"payload_bytes\":{},\"bound\":{}}}",
            json_escape(&f.name),
            f.chunks.len(),
            f.parity.len(),
            payload,
            match f.resolved_bound {
                Some(b) => format!("{b:e}"),
                None => "null".to_string(),
            },
        ));
    }
    Response::json(
        200,
        format!(
            "{{\"id\":\"{}\",\"version\":{},\"policy\":\"{:?}\",\"codec\":\"{}\",\
             \"file_bytes\":{},\"cells\":{},\"leaves\":{},\"levels\":{},\"fields\":[{fields}]}}",
            json_escape(&entry.id),
            h.version,
            h.policy,
            h.codec.label(),
            entry.file_bytes,
            tree.cell_count(),
            tree.leaf_count(),
            tree.max_level() + 1,
        ),
    )
}

/// The daemon's spelling of the query arguments, for error messages.
const QUERY_ARGS: [&str; 2] = ["bbox", "levels"];

/// Per-request policy overrides: `?strict=1` pins strict reads (damage
/// answers the raw error), `?salvage=1` opts into salvage up front.
#[derive(Clone, Copy, Default)]
struct QueryMode {
    strict: bool,
    salvage: bool,
}

impl QueryMode {
    fn from_request(req: &Request) -> Self {
        let on = |p: Option<&str>| matches!(p, Some("1") | Some("true"));
        Self {
            strict: on(req.param("strict")),
            salvage: on(req.param("salvage")),
        }
    }
}

/// Runs one query under the store's health state machine and renders the
/// shared metadata JSON — the exact object both the single and batch
/// endpoints frame, so a batch item's triple is byte-identical to the
/// single-query response for the same bbox. The third element is the
/// damage-report JSON, present only when a salvage read actually
/// repaired or dropped chunks.
///
/// State transitions driven here:
///
/// * quarantined store → `503` + `Retry-After` (actual probe backoff);
/// * broken entry (failed open) → quarantine, then the same `503`;
/// * chunk-level damage under a default (strict) read → re-run under
///   [`ReadPolicy::Salvage`], answer `200` + damage report, mark the
///   store `Degraded` — unless `?strict=1`, which answers the raw
///   error (the store is still marked);
/// * degraded store → queries run under salvage directly;
/// * transient I/O that outlasted the retry budget, torn or
///   container-level errors → quarantine + `503`.
fn run_query(
    catalog: &Catalog,
    entry: &CatalogEntry,
    field: &str,
    q: &Query,
    metrics: &ServeMetrics,
    mode: QueryMode,
) -> Result<(String, QueryResult, Option<String>), Response> {
    let opened = match &entry.store {
        Ok(o) => o,
        Err(e) => {
            catalog.quarantine(&entry.id, &e.to_string());
            return Err(quarantined_response(&entry.id, &catalog.health(&entry.id)));
        }
    };
    let health = catalog.health(&entry.id);
    if health.state == HealthState::Quarantined {
        return Err(quarantined_response(&entry.id, &health));
    }
    let reader = &opened.reader;
    let policy = if mode.strict {
        ReadPolicy::Strict
    } else if mode.salvage || health.state == HealthState::Degraded {
        ReadPolicy::salvage()
    } else {
        ReadPolicy::Strict
    };
    let result = match reader.query_with_policy(field, q, policy) {
        Ok(result) => result,
        Err(e) => match classify_error(&e) {
            ErrorClass::Caller => return Err(store_error_response(&e)),
            ErrorClass::Fatal => {
                catalog.quarantine(&entry.id, &e.to_string());
                return Err(quarantined_response(&entry.id, &catalog.health(&entry.id)));
            }
            ErrorClass::Damage if mode.strict => {
                // The client asked for exact-or-error; it gets the error,
                // but the observation still degrades the store.
                catalog.mark_degraded(&entry.id, &e.to_string());
                return Err(store_error_response(&e));
            }
            ErrorClass::Damage => {
                // First damage sighting on a healthy store: re-run under
                // salvage so the client still gets an answer.
                catalog.mark_degraded(&entry.id, &e.to_string());
                match reader.query_with_policy(field, q, ReadPolicy::salvage()) {
                    Ok(result) => result,
                    Err(e2) => {
                        catalog.quarantine(&entry.id, &e2.to_string());
                        return Err(quarantined_response(&entry.id, &catalog.health(&entry.id)));
                    }
                }
            }
        },
    };
    ServeMetrics::bump(&metrics.queries);
    ServeMetrics::add(&metrics.query_cells, result.values.len() as u64);
    let damage = if result.damage.is_empty() {
        None
    } else {
        catalog.mark_degraded(&entry.id, "salvage read observed chunk damage");
        ServeMetrics::bump(&metrics.salvaged_queries);
        Some(damage_json(&result.damage))
    };
    let meta = format!(
        "{{\"id\":\"{}\",\"field\":\"{}\",\"cells\":{},\"chunks_decoded\":{},\
         \"chunks_total\":{},\"bound\":{}}}",
        json_escape(&entry.id),
        json_escape(field),
        result.values.len(),
        result.chunks_decoded,
        result.chunks_total,
        match result.bound {
            Some(b) => format!("{b:e}"),
            None => "null".to_string(),
        },
    );
    Ok((meta, result, damage))
}

/// `GET /stores/{id}/query?field=F&bbox=x0,y0[,z0]:x1,y1[,z1]`
/// `[&levels=L,L...][&format=frames|csv|json][&salvage=1][&strict=1]`.
///
/// `frames` (default) answers `application/octet-stream`: three
/// length-prefixed frames (JSON metadata · u32 indices · f64 values) —
/// see [`crate::wire`]. `csv` answers the exact bytes `zmesh query -o`
/// writes, making responses diffable against the CLI. `json` is a debug
/// view with decimal-formatted values.
///
/// When a salvage read repaired or dropped damaged chunks, `frames`
/// appends one tag-5 damage frame and `json` gains a `"damage"` member;
/// clean responses stay byte-identical to a damage-free server. `csv`
/// carries no damage channel — prefer `frames` on degraded stores.
fn query_response(
    req: &Request,
    catalog: &Catalog,
    entry: &CatalogEntry,
    metrics: &ServeMetrics,
) -> Response {
    let Some(field) = req.param("field") else {
        return Response::error(400, "bad_request", "missing query parameter: field");
    };
    let Some(bbox) = req.param("bbox") else {
        return Response::error(400, "bad_request", "missing query parameter: bbox");
    };
    let q = match Query::parse(bbox, req.param("levels"), QUERY_ARGS) {
        Ok(q) => q,
        Err(e) => return Response::error(400, "bad_request", &e),
    };
    let mode = QueryMode::from_request(req);
    let (meta, result, damage) = match run_query(catalog, entry, field, &q, metrics, mode) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    match req.param("format").unwrap_or("frames") {
        "frames" => {
            let mut body =
                wire::encode_query_frames(&meta, &result.storage_indices, &result.values);
            if let Some(damage) = &damage {
                wire::push_frame(&mut body, wire::FRAME_DAMAGE, damage.as_bytes());
            }
            Response {
                status: 200,
                content_type: "application/octet-stream",
                extra: Vec::new(),
                body,
            }
        }
        "csv" => {
            // Byte-identical to the CLI's `query -o` output by
            // construction: both render through `QueryResult::to_csv`.
            Response {
                status: 200,
                content_type: "text/csv",
                extra: Vec::new(),
                body: result.to_csv().into_bytes(),
            }
        }
        "json" => {
            let indices: Vec<String> = result.storage_indices.iter().map(u32::to_string).collect();
            let values: Vec<String> = result.values.iter().map(|v| format!("{v}")).collect();
            let damage_member = match &damage {
                Some(d) => format!(",\"damage\":{d}"),
                None => String::new(),
            };
            Response::json(
                200,
                format!(
                    "{{\"meta\":{meta},\"storage_indices\":[{}],\"values\":[{}]{damage_member}}}",
                    indices.join(","),
                    values.join(","),
                ),
            )
        }
        other => Response::error(
            400,
            "bad_request",
            &format!("format {other:?}: want frames, csv, or json"),
        ),
    }
}

/// `POST /stores/{id}/query-batch` — many bboxes, one request.
///
/// Body: `{"queries":[{"field":"F","bbox":"x0,y0[,z0]:x1,y1[,z1]"
/// [,"levels":[L,...]]}, ...]}` (at most [`MAX_BATCH_QUERIES`]).
/// Amortizes one connection, one catalog lookup, and one shared-cache
/// pass over the whole set — overlapping bboxes decode each chunk once
/// via the decoded-chunk LRU.
///
/// Response: `application/octet-stream`, the per-query frame groups
/// concatenated **in request order** — a successful query contributes
/// the same `1·2·3` triple as the single-query endpoint (byte-identical
/// meta/indices/values, plus the same trailing tag-5 damage frame when
/// its salvage read found damage), a failed one contributes a single
/// tag-4 frame holding the structured JSON error it would have gotten
/// over the single endpoint. Per-query failures do not fail the batch;
/// a malformed envelope answers 400, and a quarantined store answers
/// the whole batch `503` + `Retry-After` up front.
fn query_batch_response(
    req: &Request,
    catalog: &Catalog,
    entry: &CatalogEntry,
    metrics: &ServeMetrics,
) -> Response {
    if entry.store.is_err() || catalog.health(&entry.id).state == HealthState::Quarantined {
        if let Err(e) = &entry.store {
            catalog.quarantine(&entry.id, &e.to_string());
        }
        return quarantined_response(&entry.id, &catalog.health(&entry.id));
    }
    let doc = match json::parse(&req.body) {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, "bad_request", &format!("body: {e}")),
    };
    let Some(queries) = doc.get("queries").and_then(Json::as_arr) else {
        return Response::error(400, "bad_request", "body wants {\"queries\":[...]}");
    };
    if queries.is_empty() {
        return Response::error(400, "bad_request", "empty queries array");
    }
    if queries.len() > MAX_BATCH_QUERIES {
        return Response::error(
            400,
            "bad_request",
            &format!(
                "{} queries exceed the {MAX_BATCH_QUERIES} batch cap",
                queries.len()
            ),
        );
    }
    ServeMetrics::bump(&metrics.batch_requests);
    let mode = QueryMode::from_request(req);
    let mut body = Vec::new();
    for item in queries {
        match batch_item_query(item) {
            Err(msg) => {
                let err = Response::error(400, "bad_request", &msg);
                wire::push_frame(&mut body, wire::FRAME_ERROR, &err.body);
            }
            Ok((field, q)) => match run_query(catalog, entry, &field, &q, metrics, mode) {
                Ok((meta, result, damage)) => {
                    body.extend_from_slice(&wire::encode_query_frames(
                        &meta,
                        &result.storage_indices,
                        &result.values,
                    ));
                    if let Some(damage) = &damage {
                        wire::push_frame(&mut body, wire::FRAME_DAMAGE, damage.as_bytes());
                    }
                }
                Err(resp) => {
                    wire::push_frame(&mut body, wire::FRAME_ERROR, &resp.body);
                }
            },
        }
    }
    Response {
        status: 200,
        content_type: "application/octet-stream",
        extra: Vec::new(),
        body,
    }
}

/// Extracts one batch item's `(field, Query)` from its JSON object.
fn batch_item_query(item: &Json) -> Result<(String, Query), String> {
    let field = item
        .get("field")
        .and_then(Json::as_str)
        .ok_or("query item wants a \"field\" string")?;
    let bbox = item
        .get("bbox")
        .and_then(Json::as_str)
        .ok_or("query item wants a \"bbox\" string")?;
    let mut q = Query::parse(bbox, None, QUERY_ARGS)?;
    if let Some(levels) = item.get("levels") {
        let levels: Vec<u32> = levels
            .as_arr()
            .ok_or("\"levels\" wants an array of integers")?
            .iter()
            .map(|l| l.as_u32().ok_or("\"levels\" wants non-negative integers"))
            .collect::<Result<_, _>>()?;
        q = q.with_levels(levels);
    }
    Ok((field.to_string(), q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_paths_parse_and_reject_nesting() {
        assert_eq!(
            parse_store_path("/stores/run_1/query"),
            Some(("run_1", "query"))
        );
        assert_eq!(parse_store_path("/stores/a/info"), Some(("a", "info")));
        assert_eq!(parse_store_path("/stores//info"), None);
        assert_eq!(parse_store_path("/stores/a"), None);
        assert_eq!(parse_store_path("/stores/a/b/c"), None);
        assert_eq!(parse_store_path("/catalog"), None);
    }

    #[test]
    fn store_errors_map_to_structured_statuses() {
        let cases = [
            (StoreError::UnknownField("x".into()), 404),
            (StoreError::BadQuery("inverted box"), 400),
            (StoreError::InvalidOptions("geometry"), 400),
            (StoreError::Io("disk".into()), 500),
            (StoreError::IoTransient("flaky disk".into()), 503),
            (StoreError::Corrupt("crc"), 500),
        ];
        for (err, want) in cases {
            let resp = store_error_response(&err);
            assert_eq!(resp.status, want, "{err:?}");
            let body = String::from_utf8(resp.body).unwrap();
            assert!(body.starts_with("{\"error\":{\"kind\":"), "{body}");
        }
    }

    #[test]
    fn error_classes_drive_the_right_transitions() {
        use ErrorClass::*;
        let class = |e: &StoreError| classify_error(e);
        assert!(matches!(
            class(&StoreError::UnknownField("x".into())),
            Caller
        ));
        assert!(matches!(class(&StoreError::BadQuery("b")), Caller));
        assert!(matches!(
            class(&StoreError::ChunkCrc {
                field: "density".into(),
                chunk: 3
            }),
            Damage
        ));
        assert!(matches!(class(&StoreError::Corrupt("meta")), Damage));
        assert!(matches!(class(&StoreError::Torn), Fatal));
        assert!(matches!(class(&StoreError::Io("gone".into())), Fatal));
        assert!(matches!(
            class(&StoreError::IoTransient("still failing".into())),
            Fatal
        ));
    }

    #[test]
    fn retry_after_rounds_up_and_never_advertises_zero() {
        assert_eq!(retry_after_secs(Duration::ZERO), 1);
        assert_eq!(retry_after_secs(Duration::from_millis(10)), 1);
        assert_eq!(retry_after_secs(Duration::from_millis(1001)), 2);
        assert_eq!(retry_after_secs(Duration::from_secs(5)), 5);
    }

    #[test]
    fn quarantined_responses_advertise_the_probe_backoff() {
        let health = HealthReport {
            state: HealthState::Quarantined,
            reason: Some("torn".to_string()),
            retry_after: Duration::from_millis(2300),
        };
        let resp = quarantined_response("vol", &health);
        assert_eq!(resp.status, 503);
        assert!(resp
            .extra
            .iter()
            .any(|(k, v)| *k == "Retry-After" && v == "3"));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("quarantined"), "{body}");
        assert!(body.contains("torn"), "{body}");
    }
}
