//! Minimal HTTP/1.1 request parsing and response writing.
//!
//! The daemon speaks just enough HTTP for its control plane: request
//! line, headers (retained — `Connection` and `Content-Length` drive
//! framing), optional `Content-Length`-delimited bodies, and HTTP/1.1
//! keep-alive semantics (persistent by default, `Connection: close`
//! honored, HTTP/1.0 opts *in* with `Connection: keep-alive`).
//! Hand-rolled on `std::net` because the workspace builds offline with
//! no HTTP crate.
//!
//! Parsing distinguishes three non-request outcomes so the connection
//! loop can react correctly: a clean close at a request boundary
//! ([`ParseOutcome::Closed`] — the normal end of a keep-alive
//! connection, *not* an error), a socket timeout
//! ([`ParseOutcome::TimedOut`] — answered `408` so a stalled client
//! cannot pin a worker), and a malformed request ([`BadRequest`] —
//! answered `400` and closed, since framing can no longer be trusted).

use std::io::{BufRead, Write};
use zmesh_store::json_escape;

/// Longest accepted request line or header line, in bytes. Anything
/// larger is a malformed or hostile request.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most header lines accepted before the blank separator.
const MAX_HEADER_LINES: usize = 64;
/// Largest accepted request body (`Content-Length`), in bytes. The only
/// body-bearing endpoint is the batch query, whose JSON is tiny; this
/// bound just refuses hostile allocations.
pub const MAX_BODY_BYTES: u64 = 4 * 1024 * 1024;

/// A parsed request: method, decoded path, decoded query parameters in
/// arrival order, retained headers, and the body (empty unless the
/// request carried a `Content-Length`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// HTTP method verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// Percent-decoded path component, always starting with `/`.
    pub path: String,
    /// Percent-decoded `key=value` pairs from the query string.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` bytes, already read off the wire).
    pub body: Vec<u8>,
    /// Whether the request line said `HTTP/1.1` (drives the keep-alive
    /// default: 1.1 persists unless told otherwise, 1.0 closes).
    pub http11: bool,
}

impl Request {
    /// First value of a query parameter, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a header, looked up by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should persist after this request:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    /// The `Connection` header is treated as a comma-separated token
    /// list, case-insensitively.
    pub fn keep_alive(&self) -> bool {
        let has_token = |token: &str| {
            self.header("connection")
                .map(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
                .unwrap_or(false)
        };
        if self.http11 {
            !has_token("close")
        } else {
            has_token("keep-alive")
        }
    }
}

/// Why a request could not be parsed. The connection should answer 400
/// and close (framing is no longer trustworthy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad request: {}", self.0)
    }
}

/// What [`parse_request`] found on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// A complete request.
    Request(Request),
    /// The peer closed cleanly before sending any request bytes — the
    /// normal end of a keep-alive connection (or a port probe). Not an
    /// error; nothing should be counted or answered.
    Closed,
    /// The socket read timed out waiting for (more of) a request. The
    /// server answers `408` and closes so a stalled client cannot pin a
    /// worker.
    TimedOut,
}

/// Internal read-failure classification for [`read_line`] / body reads.
enum ReadFailure {
    /// EOF with no bytes consumed for the current line.
    CleanEof,
    /// The socket read timed out (`WouldBlock`/`TimedOut`).
    TimedOut,
    /// Anything else: truncation mid-line, transport error, bad bytes.
    Bad(BadRequest),
}

/// Maps an I/O error from a socket read into the failure taxonomy.
fn classify_io(e: std::io::Error) -> ReadFailure {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ReadFailure::TimedOut,
        _ => ReadFailure::Bad(BadRequest(format!("read: {e}"))),
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line, bounding its length.
/// EOF before the first byte is a [`ReadFailure::CleanEof`]; EOF after
/// any byte of the line is a truncation ([`ReadFailure::Bad`]).
fn read_line(r: &mut impl BufRead) -> Result<String, ReadFailure> {
    let mut buf = Vec::new();
    loop {
        let byte = {
            let chunk = match r.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) => return Err(classify_io(e)),
            };
            if chunk.is_empty() {
                return Err(if buf.is_empty() {
                    ReadFailure::CleanEof
                } else {
                    ReadFailure::Bad(BadRequest("connection closed mid-request".into()))
                });
            }
            chunk[0]
        };
        r.consume(1);
        if byte == b'\n' {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return String::from_utf8(buf)
                .map_err(|_| ReadFailure::Bad(BadRequest("non-utf8 header".into())));
        }
        buf.push(byte);
        if buf.len() > MAX_LINE_BYTES {
            return Err(ReadFailure::Bad(BadRequest("header line too long".into())));
        }
    }
}

/// Reads exactly `len` body bytes, classifying timeouts and truncation.
fn read_body(r: &mut impl BufRead, len: usize) -> Result<Vec<u8>, ReadFailure> {
    let mut body = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match std::io::Read::read(r, &mut body[filled..]) {
            Ok(0) => {
                return Err(ReadFailure::Bad(BadRequest(format!(
                    "body truncated: got {filled} of {len} content-length bytes"
                ))))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(classify_io(e)),
        }
    }
    Ok(body)
}

/// Decodes `%XX` escapes in a URL component. `plus_is_space` additionally
/// maps `+` to a space — correct for `application/x-www-form-urlencoded`
/// query strings, wrong for paths, where `+` is a literal character (a
/// store id containing `+` must stay reachable).
fn percent_decode(s: &str, plus_is_space: bool) -> Result<String, BadRequest> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| BadRequest(format!("bad percent escape in {s:?}")))?;
                out.push(hex);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| BadRequest("non-utf8 percent escape".into()))
}

/// Parses one request from the stream: request line, headers up to the
/// blank line (retained, lowercased names), then `Content-Length` body
/// bytes if declared. Distinguishes clean close and timeout from
/// malformed input — see [`ParseOutcome`].
pub fn parse_request(r: &mut impl BufRead) -> Result<ParseOutcome, BadRequest> {
    let line = match read_line(r) {
        Ok(line) => line,
        Err(ReadFailure::CleanEof) => return Ok(ParseOutcome::Closed),
        Err(ReadFailure::TimedOut) => return Ok(ParseOutcome::TimedOut),
        Err(ReadFailure::Bad(e)) => return Err(e),
    };
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| BadRequest("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| BadRequest("missing request target".into()))?;
    let http11 = match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => v == "HTTP/1.1",
        _ => return Err(BadRequest("not an HTTP/1.x request".into())),
    };

    // Headers up to the blank separator. Any read failure here is
    // mid-request: a clean EOF is truncation, only a timeout stays one.
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = match read_line(r) {
            Ok(line) => line,
            Err(ReadFailure::TimedOut) => return Ok(ParseOutcome::TimedOut),
            Err(ReadFailure::CleanEof) => {
                return Err(BadRequest("connection closed mid-request".into()))
            }
            Err(ReadFailure::Bad(e)) => return Err(e),
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADER_LINES {
            return Err(BadRequest("too many header lines".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| BadRequest(format!("header line without colon: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    // `+` is a literal in paths; only query strings use `+`-as-space.
    let path = percent_decode(raw_path, false)?;
    if !path.starts_with('/') {
        return Err(BadRequest(format!("relative request target {path:?}")));
    }
    let mut query = Vec::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(k, true)?, percent_decode(v, true)?));
        }
    }

    let mut req = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
        http11,
    };
    if let Some(te) = req.header("transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(BadRequest(format!("unsupported transfer-encoding {te:?}")));
        }
    }
    if let Some(cl) = req.header("content-length") {
        let len: u64 = cl
            .trim()
            .parse()
            .map_err(|_| BadRequest(format!("unparseable content-length {cl:?}")))?;
        if len > MAX_BODY_BYTES {
            return Err(BadRequest(format!(
                "content-length {len} exceeds the {MAX_BODY_BYTES}-byte body limit"
            )));
        }
        if len > 0 {
            req.body = match read_body(r, len as usize) {
                Ok(body) => body,
                Err(ReadFailure::TimedOut) => return Ok(ParseOutcome::TimedOut),
                Err(ReadFailure::CleanEof) => {
                    return Err(BadRequest("connection closed mid-body".into()))
                }
                Err(ReadFailure::Bad(e)) => return Err(e),
            };
        }
    }
    Ok(ParseOutcome::Request(req))
}

/// A response ready to serialize: status, content type, optional extra
/// headers, body. The `Connection` header is chosen at write time by the
/// connection loop ([`Response::write_with_connection`]).
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Additional `(name, value)` headers (e.g. `Retry-After`).
    pub extra: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            content_type: "application/json",
            extra: Vec::new(),
            body: body.into(),
        }
    }

    /// A structured JSON error body: `{"error":{"kind":...,"message":...}}`.
    pub fn error(status: u16, kind: &str, message: &str) -> Self {
        Self::json(
            status,
            format!(
                "{{\"error\":{{\"kind\":\"{}\",\"message\":\"{}\"}}}}",
                json_escape(kind),
                json_escape(message)
            ),
        )
    }

    /// Reason phrase for the handful of statuses the daemon emits.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes status line, headers, and body with the given
    /// connection disposition: `keep-alive` keeps the socket open for
    /// the next request; `close` tells the peer this is the last
    /// response on the connection.
    ///
    /// The whole response is assembled into one buffer and written with
    /// a single `write_all`: on a keep-alive TCP connection, separate
    /// header/body writes interact with Nagle + delayed ACK and can
    /// stall each response by tens of milliseconds.
    pub fn write_with_connection(
        &self,
        w: &mut impl Write,
        keep_alive: bool,
    ) -> std::io::Result<()> {
        let mut out = Vec::with_capacity(256 + self.body.len());
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
                self.status,
                self.reason(),
                self.content_type,
                self.body.len(),
                if keep_alive { "keep-alive" } else { "close" },
            )
            .as_bytes(),
        );
        for (name, value) in &self.extra {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        w.write_all(&out)?;
        w.flush()
    }

    /// Serializes with `Connection: close` — the one-shot path (busy
    /// rejections, tools that never reuse the socket).
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        self.write_with_connection(w, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<ParseOutcome, BadRequest> {
        parse_request(&mut BufReader::new(raw.as_bytes()))
    }

    fn parse_ok(raw: &str) -> Request {
        match parse(raw).unwrap() {
            ParseOutcome::Request(req) => req,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_get_with_query_parameters() {
        let req = parse_ok(
            "GET /stores/run%201/query?field=density&bbox=0,0:7,7&x=a%2Cb HTTP/1.1\r\n\
             Host: localhost\r\nUser-Agent: test\r\n\r\n",
        );
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stores/run 1/query");
        assert_eq!(req.param("field"), Some("density"));
        assert_eq!(req.param("bbox"), Some("0,0:7,7"));
        assert_eq!(req.param("x"), Some("a,b"));
        assert_eq!(req.param("nope"), None);
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("user-agent"), Some("test"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn plus_stays_literal_in_paths_but_is_space_in_queries() {
        // A store id with a literal `+` must survive path decoding…
        let req = parse_ok("GET /stores/run+hot/info?tag=a+b HTTP/1.1\r\n\r\n");
        assert_eq!(req.path, "/stores/run+hot/info");
        // …while the query string keeps form-encoding semantics.
        assert_eq!(req.param("tag"), Some("a b"));
    }

    #[test]
    fn clean_eof_before_any_bytes_is_a_close_not_an_error() {
        assert_eq!(parse("").unwrap(), ParseOutcome::Closed);
        // But EOF after the request started is a truncation.
        assert!(parse("GET /x HTTP/1.1\r\n").is_err(), "truncated headers");
        assert!(parse("GE").is_err(), "truncated request line");
    }

    #[test]
    fn bodies_follow_content_length() {
        let req = parse_ok(
            "POST /stores/a/query-batch HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"x\":\"abc\"}",
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"x\":\"abc\"}");
        // Truncated body: declared 11, only 3 on the wire.
        assert!(parse("POST /p HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"x").is_err());
        // Hostile length: bounded, not allocated.
        assert!(parse("POST /p HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n").is_err());
        assert!(parse("POST /p HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        assert!(
            parse_ok("GET / HTTP/1.1\r\n\r\n").keep_alive(),
            "1.1 default"
        );
        assert!(!parse_ok("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive());
        assert!(
            !parse_ok("GET / HTTP/1.0\r\n\r\n").keep_alive(),
            "1.0 default"
        );
        assert!(parse_ok("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive());
        // Token list, case-insensitive.
        assert!(!parse_ok("GET / HTTP/1.1\r\nConnection: foo, CLOSE\r\n\r\n").keep_alive());
    }

    #[test]
    fn pipelined_bytes_stay_in_the_reader_for_the_next_parse() {
        let raw = "GET /first HTTP/1.1\r\n\r\nGET /second HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut r = BufReader::new(raw.as_bytes());
        let first = match parse_request(&mut r).unwrap() {
            ParseOutcome::Request(req) => req,
            other => panic!("{other:?}"),
        };
        assert_eq!(first.path, "/first");
        let second = match parse_request(&mut r).unwrap() {
            ParseOutcome::Request(req) => req,
            other => panic!("{other:?}"),
        };
        assert_eq!(second.path, "/second");
        assert!(!second.keep_alive());
        assert_eq!(parse_request(&mut r).unwrap(), ParseOutcome::Closed);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(parse("\r\n\r\n").is_err());
        assert!(parse("GET /x\r\n\r\n").is_err(), "missing HTTP version");
        assert!(parse("GET /%zz HTTP/1.1\r\n\r\n").is_err(), "bad escape");
        assert!(parse("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n").is_err());
        assert!(
            parse("GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").is_err(),
            "chunked bodies unsupported"
        );
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES + 10));
        assert!(parse(&long).is_err(), "oversized request line");
        let many = format!(
            "GET /x HTTP/1.1\r\n{}\r\n",
            "h: v\r\n".repeat(MAX_HEADER_LINES + 5)
        );
        assert!(parse(&many).is_err(), "too many header lines");
    }

    #[test]
    fn responses_serialize_with_length_and_connection() {
        let mut buf = Vec::new();
        let mut resp = Response::error(503, "busy", "queue full");
        resp.extra.push(("Retry-After", "1".to_string()));
        resp.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains(&format!(
            "Content-Length: {}",
            text.split("\r\n\r\n").nth(1).unwrap().len()
        )));
        assert!(text.ends_with("{\"error\":{\"kind\":\"busy\",\"message\":\"queue full\"}}"));

        let mut buf = Vec::new();
        Response::json(200, "{}")
            .write_with_connection(&mut buf, true)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");

        let mut buf = Vec::new();
        Response::error(408, "timeout", "idle")
            .write_to(&mut buf)
            .unwrap();
        assert!(String::from_utf8(buf)
            .unwrap()
            .starts_with("HTTP/1.1 408 Request Timeout\r\n"));
    }
}
