//! Process-wide serving counters, exposed at `GET /metrics`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters shared by the accept loop and every worker.
/// All relaxed: these are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Connections accepted (including ones later rejected busy).
    pub connections: AtomicU64,
    /// Requests successfully parsed and routed.
    pub requests: AtomicU64,
    /// Responses with a 2xx status.
    pub responses_ok: AtomicU64,
    /// Responses with a 4xx status.
    pub responses_client_error: AtomicU64,
    /// Responses with a 5xx status.
    pub responses_server_error: AtomicU64,
    /// Connections answered `503 Retry-After` because the queue was full.
    pub rejected_busy: AtomicU64,
    /// Connections closed (408-or-close) after idling past the timeout.
    pub timeouts: AtomicU64,
    /// Requests served on an already-used keep-alive connection (the
    /// second and later requests of each connection).
    pub keepalive_reuses: AtomicU64,
    /// `query-batch` POSTs accepted (each fans out to many queries).
    pub batch_requests: AtomicU64,
    /// Query endpoint hits that produced a result (batch sub-queries
    /// included).
    pub queries: AtomicU64,
    /// Cells returned across all successful queries.
    pub query_cells: AtomicU64,
    /// Body bytes written across all responses.
    pub bytes_out: AtomicU64,
    /// Queries answered under salvage that actually repaired or dropped
    /// damaged chunks (the responses carrying a damage report).
    pub salvaged_queries: AtomicU64,
    /// Background re-open probes attempted against quarantined stores.
    pub probes: AtomicU64,
    /// Requests that panicked; each was answered `500` and its worker
    /// went on serving.
    pub panics: AtomicU64,
}

impl ServeMetrics {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Routes a response status to the right class counter.
    pub fn count_response(&self, status: u16, body_bytes: usize) {
        let class = match status {
            200..=299 => &self.responses_ok,
            400..=499 => &self.responses_client_error,
            _ => &self.responses_server_error,
        };
        Self::bump(class);
        Self::add(&self.bytes_out, body_bytes as u64);
    }

    /// The server-side counters as a JSON object fragment (no caches —
    /// the server merges those in, since it owns them).
    pub fn to_json(&self) -> String {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        format!(
            "{{\"connections\":{},\"requests\":{},\"responses_ok\":{},\
             \"responses_client_error\":{},\"responses_server_error\":{},\
             \"rejected_busy\":{},\"timeouts\":{},\"keepalive_reuses\":{},\
             \"batch_requests\":{},\"queries\":{},\"query_cells\":{},\"bytes_out\":{},\
             \"salvaged_queries\":{},\"probes\":{},\"panics\":{}}}",
            get(&self.connections),
            get(&self.requests),
            get(&self.responses_ok),
            get(&self.responses_client_error),
            get(&self.responses_server_error),
            get(&self.rejected_busy),
            get(&self.timeouts),
            get(&self.keepalive_reuses),
            get(&self.batch_requests),
            get(&self.queries),
            get(&self.query_cells),
            get(&self.bytes_out),
            get(&self.salvaged_queries),
            get(&self.probes),
            get(&self.panics),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_classify_statuses() {
        let m = ServeMetrics::default();
        m.count_response(200, 10);
        m.count_response(204, 0);
        m.count_response(404, 5);
        m.count_response(500, 7);
        m.count_response(503, 3);
        assert_eq!(m.responses_ok.load(Ordering::Relaxed), 2);
        assert_eq!(m.responses_client_error.load(Ordering::Relaxed), 1);
        assert_eq!(m.responses_server_error.load(Ordering::Relaxed), 2);
        assert_eq!(m.bytes_out.load(Ordering::Relaxed), 25);
        let json = m.to_json();
        assert!(json.contains("\"responses_ok\":2"));
        assert!(json.contains("\"bytes_out\":25"));
    }
}
