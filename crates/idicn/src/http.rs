//! A minimal blocking HTTP/1.1 implementation.
//!
//! idICN is an HTTP overlay, so this module provides exactly the subset the
//! design needs: request/response parsing and serialization with
//! `Content-Length` bodies, case-insensitive headers, `Range` /
//! `Content-Range` (for mobility resumption, §6.3), keep-alive connections,
//! and a small threaded server harness. No TLS, no chunked encoding —
//! content authenticity comes from the idICN signatures, not the channel,
//! which is precisely the paper's point about content-oriented security.
//!
//! These are few-connection loopback services, so blocking I/O is the
//! simplest robust design: one thread blocks in `accept` and hands each
//! connection a thread of its own; stopping sets a flag and wakes that
//! `accept` with one connection to the server's own port. Header lines are
//! read with one bounded scan each, and a message goes out as two writes:
//! the formatted head, then the body.

use crate::{Error, Result};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Maximum accepted header section size (64 KiB of lines) — except that
/// idICN carries Merkle signatures (~25 KiB hex) in headers, so allow 1 MiB.
const MAX_HEADER_BYTES: usize = 1 << 20;
/// Maximum accepted body size (64 MiB).
const MAX_BODY_BYTES: usize = 64 << 20;

/// Deadline for establishing an outbound TCP connection. Loopback connects
/// either succeed or are refused immediately; the deadline guards against
/// black-holed addresses (a mobile server that moved away mid-transfer).
pub const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Default read/write deadline applied to **every** TCP stream this crate
/// touches, outbound and accepted alike — no socket may hang a worker
/// forever. The live value is process-wide and adjustable with
/// [`set_io_timeout`] (chaos tests shrink it so injected stalls resolve in
/// milliseconds instead of seconds).
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

static IO_TIMEOUT_MS: AtomicU64 = AtomicU64::new(5_000);

/// The current process-wide I/O deadline (defaults to [`IO_TIMEOUT`]).
pub fn io_timeout() -> Duration {
    Duration::from_millis(IO_TIMEOUT_MS.load(Ordering::Relaxed))
}

/// Overrides the process-wide I/O deadline. Sub-millisecond values clamp
/// up to 1 ms (a zero socket timeout would mean "block forever", the exact
/// opposite of a deadline).
pub fn set_io_timeout(deadline: Duration) {
    IO_TIMEOUT_MS.store(deadline.as_millis().max(1) as u64, Ordering::Relaxed);
}

/// Reclassifies I/O errors whose kind is a deadline expiry into
/// [`Error::Timeout`] so callers can tell "slow peer" from "broken pipe".
fn flag_timeout(e: Error) -> Error {
    match e {
        Error::Io(io)
            if io.kind() == std::io::ErrorKind::WouldBlock
                || io.kind() == std::io::ErrorKind::TimedOut =>
        {
            Error::Timeout(io)
        }
        other => other,
    }
}

/// An ordered, case-insensitive header map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers(Vec<(String, String)>);

impl Headers {
    /// Creates an empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    /// First value of `name` (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Replaces all values of `name` with one value.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.0.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        self.0.push((name.to_string(), value.into()));
    }

    /// Appends a value without removing existing ones.
    pub fn add(&mut self, name: &str, value: impl Into<String>) {
        self.0.push((name.to_string(), value.into()));
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of header fields.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// An HTTP request message.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Method (GET, POST, ...).
    pub method: String,
    /// Request target (origin-form path or absolute URI in proxy requests).
    pub target: String,
    /// Header fields.
    pub headers: Headers,
    /// Message body.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// A GET request for `target`.
    pub fn get(target: impl Into<String>) -> Self {
        Self {
            method: "GET".into(),
            target: target.into(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// A POST request with a body.
    pub fn post(target: impl Into<String>, body: Vec<u8>) -> Self {
        Self {
            method: "POST".into(),
            target: target.into(),
            headers: Headers::new(),
            body,
        }
    }
}

/// An HTTP response message.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Header fields.
    pub headers: Headers,
    /// Message body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A response with the given status and body.
    pub fn new(status: u16, body: Vec<u8>) -> Self {
        Self {
            status,
            reason: reason_phrase(status).to_string(),
            headers: Headers::new(),
            body,
        }
    }

    /// 200 OK with a body.
    pub fn ok(body: Vec<u8>) -> Self {
        Self::new(200, body)
    }

    /// 404 with a text body.
    pub fn not_found(msg: &str) -> Self {
        Self::new(404, msg.as_bytes().to_vec())
    }

    /// True for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        206 => "Partial Content",
        301 => "Moved Permanently",
        302 => "Found",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        416 => "Range Not Satisfiable",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Reads one header line, charging every byte (line ending included) to
/// the section's `budget`; `Ok(None)` on a clean EOF before the line.
fn read_line_limited<R: BufRead>(r: &mut R, budget: &mut usize) -> Result<Option<String>> {
    let mut line = Vec::new();
    *budget -= Read::take(&mut *r, *budget as u64).read_until(b'\n', &mut line)?;
    if line.last() != Some(&b'\n') {
        if *budget == 0 && !r.fill_buf()?.is_empty() {
            return Err(Error::Protocol("header section too large".into()));
        }
        if line.is_empty() {
            return Ok(None); // clean EOF
        }
        return Err(Error::Protocol("unexpected EOF mid-line".into()));
    }
    line.pop();
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| Error::Protocol("non-UTF8 header line".into()))
}

fn read_headers<R: BufRead>(r: &mut R, budget: &mut usize) -> Result<Headers> {
    let mut headers = Headers::new();
    loop {
        let line = read_line_limited(r, budget)?
            .ok_or_else(|| Error::Protocol("EOF in headers".into()))?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| Error::Protocol(format!("malformed header line {line:?}")))?;
        headers.add(name.trim(), value.trim().to_string());
    }
}

fn read_body<R: BufRead>(r: &mut R, headers: &Headers) -> Result<Vec<u8>> {
    let len: usize = match headers.get("content-length") {
        None => return Ok(Vec::new()),
        Some(v) => v
            .parse()
            .map_err(|_| Error::Protocol(format!("bad content-length {v:?}")))?,
    };
    if len > MAX_BODY_BYTES {
        return Err(Error::Protocol(format!("body too large: {len}")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::WouldBlock || e.kind() == std::io::ErrorKind::TimedOut {
            Error::Timeout(e)
        } else {
            // A body shorter than its Content-Length means the transport
            // died mid-transfer (peer crash, connection cut) — a transient
            // I/O failure worth retrying, not a protocol violation by a
            // healthy peer.
            Error::Io(e)
        }
    })?;
    Ok(body)
}

/// Reads one request; `Ok(None)` on clean EOF (closed keep-alive).
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Option<HttpRequest>> {
    let mut budget = MAX_HEADER_BYTES;
    let line = match read_line_limited(r, &mut budget)? {
        None => return Ok(None),
        Some(l) => l,
    };
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => return Err(Error::Protocol(format!("malformed request line {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(Error::Protocol(format!("unsupported version {version:?}")));
    }
    let headers = read_headers(r, &mut budget)?;
    let body = read_body(r, &headers)?;
    Ok(Some(HttpRequest {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body,
    }))
}

/// Formats a message head (start line, headers, `Content-Length`, blank
/// line) into one buffer sized for it, so the head leaves in one `write`.
fn message_head(start: std::fmt::Arguments<'_>, headers: &Headers, body_len: usize) -> String {
    use std::fmt::Write as _;
    let fields = headers.iter().map(|(n, v)| n.len() + v.len() + 4);
    let mut head = String::with_capacity(64 + fields.sum::<usize>());
    let _ = head.write_fmt(start);
    for (n, v) in headers.iter() {
        if !n.eq_ignore_ascii_case("content-length") {
            let _ = write!(head, "{n}: {v}\r\n");
        }
    }
    let _ = write!(head, "Content-Length: {body_len}\r\n\r\n");
    head
}

/// The serialized head of `resp`, exactly as [`write_response`] sends it.
pub(crate) fn response_head(resp: &HttpResponse) -> String {
    message_head(
        format_args!("HTTP/1.1 {} {}\r\n", resp.status, resp.reason),
        &resp.headers,
        resp.body.len(),
    )
}

/// Writes a formatted head, then the body: two `write`s per message.
fn write_message<W: Write>(w: &mut W, head: &str, body: &[u8]) -> Result<()> {
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Writes a request, setting `Content-Length`.
pub fn write_request<W: Write>(w: &mut W, req: &HttpRequest) -> Result<()> {
    let head = message_head(
        format_args!("{} {} HTTP/1.1\r\n", req.method, req.target),
        &req.headers,
        req.body.len(),
    );
    write_message(w, &head, &req.body)
}

/// Reads one response; `Ok(None)` on clean EOF.
pub fn read_response<R: BufRead>(r: &mut R) -> Result<Option<HttpResponse>> {
    let mut budget = MAX_HEADER_BYTES;
    let line = match read_line_limited(r, &mut budget)? {
        None => return Ok(None),
        Some(l) => l,
    };
    let mut parts = line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(Error::Protocol(format!("malformed status line {line:?}")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Error::Protocol(format!("bad status in {line:?}")))?;
    let reason = parts.next().unwrap_or("").to_string();
    let headers = read_headers(r, &mut budget)?;
    let body = read_body(r, &headers)?;
    Ok(Some(HttpResponse {
        status,
        reason,
        headers,
        body,
    }))
}

/// Writes a response, setting `Content-Length`.
pub fn write_response<W: Write>(w: &mut W, resp: &HttpResponse) -> Result<()> {
    write_message(w, &response_head(resp), &resp.body)
}

/// Parses a `Range: bytes=...` header against a body of `total` bytes.
/// Returns the half-open satisfiable range, or `None` when absent/invalid.
/// Only single ranges are supported (all the mobility design needs).
pub fn parse_range(value: &str, total: usize) -> Option<(usize, usize)> {
    let spec = value.trim().strip_prefix("bytes=")?;
    let (lo, hi) = spec.split_once('-')?;
    if lo.is_empty() {
        // suffix form: last N bytes
        let n: usize = hi.parse().ok()?;
        if n == 0 {
            return None;
        }
        return Some((total.saturating_sub(n), total));
    }
    let start: usize = lo.parse().ok()?;
    if start >= total {
        return None;
    }
    let end = if hi.is_empty() {
        total
    } else {
        let e: usize = hi.parse().ok()?;
        (e + 1).min(total)
    };
    if end <= start {
        return None;
    }
    Some((start, end))
}

/// Formats a `Content-Range` header value for a half-open range.
pub fn content_range(start: usize, end: usize, total: usize) -> String {
    format!("bytes {}-{}/{}", start, end - 1, total)
}

/// Handler signature for [`serve`].
pub type Handler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

/// A running accept loop (an HTTP server, or a [`crate::chaos`] proxy);
/// stops on [`shutdown`](Self::shutdown) or drop.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins the accept loop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Sets the flag, then wakes the loop blocked in `accept` with one
    /// connection of its own (to loopback if bound to an unspecified IP).
    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&wake, CONNECT_TIMEOUT);
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `127.0.0.1:0` and serves `handler` on a background thread, with
/// keep-alive support. Connections are handled one thread each — these are
/// loopback demo services, not internet-facing servers.
pub fn serve(handler: Handler) -> Result<HttpServer> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    serve_on(listener, handler)
}

/// Like [`serve`] but on a caller-provided listener.
pub fn serve_on(listener: TcpListener, handler: Handler) -> Result<HttpServer> {
    accept_loop(listener, move |stream, shutdown| {
        handle_connection(stream, &handler, shutdown)
    })
}

/// Blocks in `accept` on a background thread and runs `on_conn` on a
/// thread of its own for each connection, until the returned server stops.
pub(crate) fn accept_loop<F>(listener: TcpListener, on_conn: F) -> Result<HttpServer>
where
    F: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
{
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let on_conn = Arc::new(on_conn);
    let accept_thread = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if flag.load(Ordering::SeqCst) {
                break; // the wake-up connection from `HttpServer::stop`
            }
            match conn {
                Ok(stream) => {
                    let (on_conn, flag) = (on_conn.clone(), flag.clone());
                    std::thread::spawn(move || on_conn(stream, &flag));
                }
                // A client that gave up before being accepted; the next
                // `accept` is unaffected.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => {}
                // Anything else (descriptor exhaustion, ...) would fail
                // again at once: end the loop rather than spin on it.
                Err(_) => break,
            }
        }
    });
    Ok(HttpServer {
        addr,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

fn handle_connection(stream: TcpStream, handler: &Handler, shutdown: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    // Bounded read timeout so keep-alive connections notice shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    // A stalled reader must not pin this worker thread forever either.
    let _ = stream.set_write_timeout(Some(io_timeout()));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    while !shutdown.load(Ordering::SeqCst) {
        match read_request(&mut reader) {
            Ok(Some(req)) => {
                let close = req
                    .headers
                    .get("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                let resp = handler(&req);
                if write_response(&mut writer, &resp).is_err() || close {
                    return;
                }
            }
            Ok(None) => return, // clean close
            Err(Error::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // idle keep-alive; poll the shutdown flag
            }
            Err(_) => {
                let _ = write_response(&mut writer, &HttpResponse::new(400, Vec::new()));
                return;
            }
        }
    }
}

/// One-shot GET helper: connects, sends, reads, closes.
pub fn http_get(addr: SocketAddr, target: &str, headers: &[(&str, &str)]) -> Result<HttpResponse> {
    let mut req = HttpRequest::get(target);
    for (n, v) in headers {
        req.headers.set(n, *v);
    }
    request_once(addr, &req)
}

/// One-shot request helper. Every outbound stream carries connect, read,
/// and write deadlines; a connection that cannot be established surfaces
/// as [`Error::Unreachable`], an expired deadline as [`Error::Timeout`].
pub fn request_once(addr: SocketAddr, req: &HttpRequest) -> Result<HttpResponse> {
    let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).map_err(|e| {
        if e.kind() == std::io::ErrorKind::TimedOut || e.kind() == std::io::ErrorKind::WouldBlock {
            Error::Timeout(e)
        } else {
            Error::Unreachable(e)
        }
    })?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(io_timeout()))?;
    stream.set_write_timeout(Some(io_timeout()))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut req = req.clone();
    req.headers.set("Connection", "close");
    write_request(&mut writer, &req).map_err(flag_timeout)?;
    read_response(&mut reader)
        .map_err(flag_timeout)?
        .ok_or_else(|| Error::Protocol("server closed without response".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn request_roundtrip() {
        let mut req = HttpRequest::post("/publish", b"hello".to_vec());
        req.headers.set("X-Test", "1");
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let parsed = read_request(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(parsed.method, "POST");
        assert_eq!(parsed.target, "/publish");
        assert_eq!(parsed.headers.get("x-test"), Some("1"));
        assert_eq!(parsed.body, b"hello");
    }

    #[test]
    fn response_roundtrip() {
        let mut resp = HttpResponse::ok(b"body".to_vec());
        resp.headers.set("X-Cache", "HIT");
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let parsed = read_response(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.headers.get("X-CACHE"), Some("HIT"));
        assert_eq!(parsed.body, b"body");
    }

    #[test]
    fn eof_yields_none() {
        assert!(read_request(&mut Cursor::new(Vec::<u8>::new()))
            .unwrap()
            .is_none());
        assert!(read_response(&mut Cursor::new(Vec::<u8>::new()))
            .unwrap()
            .is_none());
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "GARBAGE\r\n\r\n",
            "GET /\r\n\r\n",                         // missing version
            "GET / SPDY/3\r\n\r\n",                  // wrong protocol
            "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", // bad header
        ] {
            assert!(
                read_request(&mut Cursor::new(bad.as_bytes().to_vec())).is_err(),
                "{bad:?}"
            );
        }
        // Bad content-length.
        let bad = "GET / HTTP/1.1\r\nContent-Length: xyz\r\n\r\n";
        assert!(read_request(&mut Cursor::new(bad.as_bytes().to_vec())).is_err());
    }

    #[test]
    fn truncated_body_is_a_transient_io_error() {
        // A connection cut mid-body must classify as retryable transport
        // failure, not as a protocol violation.
        let bad = "GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        let err = read_request(&mut Cursor::new(bad.as_bytes().to_vec())).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err:?}");
        let bad = "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        let err = read_response(&mut Cursor::new(bad.as_bytes().to_vec())).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err:?}");
    }

    /// The frame of [`request_with_header_section`], without padding.
    const PAD_FRAME: &str = "GET / HTTP/1.1\r\nX-Pad: \r\n\r\n";

    /// A request whose header section (request line through the blank
    /// line) is exactly `len` bytes, padded with one long header value.
    fn request_with_header_section(len: usize) -> Vec<u8> {
        let pad = "p".repeat(len - PAD_FRAME.len());
        format!("GET / HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n").into_bytes()
    }

    fn protocol_error(bytes: Vec<u8>) -> bool {
        matches!(
            read_request(&mut Cursor::new(bytes)),
            Err(Error::Protocol(_))
        )
    }

    #[test]
    fn header_section_budget_is_exact() {
        let at = request_with_header_section(MAX_HEADER_BYTES);
        let req = read_request(&mut Cursor::new(at)).unwrap().unwrap();
        assert_eq!(
            req.headers.get("x-pad").map(str::len),
            Some(MAX_HEADER_BYTES - PAD_FRAME.len())
        );
        assert!(protocol_error(request_with_header_section(
            MAX_HEADER_BYTES + 1
        )));
        // Responses share the budget: a status line one byte longer than
        // the request line tips the same section over it.
        let mut over = b"HTTP/1.1 200 OK\r\n".to_vec();
        over.extend(request_with_header_section(MAX_HEADER_BYTES).split_off(16));
        assert!(matches!(
            read_response(&mut Cursor::new(over)),
            Err(Error::Protocol(_))
        ));
    }

    #[test]
    fn oversized_header_sections_are_rejected() {
        // One line longer than the whole budget.
        let long = format!(
            "GET / HTTP/1.1\r\nX-Long: {}\r\n\r\n",
            "a".repeat(MAX_HEADER_BYTES)
        );
        assert!(protocol_error(long.into_bytes()));
        // Many short lines that only add up to more than the budget.
        let mut many = "GET / HTTP/1.1\r\n".to_string();
        while many.len() <= MAX_HEADER_BYTES {
            many.push_str("X-Short: 0123456789\r\n");
        }
        many.push_str("\r\n");
        assert!(protocol_error(many.into_bytes()));
    }

    #[test]
    fn truncated_and_non_utf8_header_lines_are_rejected() {
        assert!(protocol_error(b"GET / HTTP/1.1\r\nX-Cut: ha".to_vec()));
        assert!(protocol_error(b"GET / HT".to_vec()));
        assert!(protocol_error(
            b"GET / HTTP/1.1\r\nX-Bin: \xff\xfe\r\n\r\n".to_vec()
        ));
        assert!(protocol_error(b"GET /\xc3 HTTP/1.1\r\n\r\n".to_vec()));
    }

    /// A writer that counts the `write` calls it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_is_one_head_write_then_one_body_write() {
        let mut resp = HttpResponse::ok(b"body bytes".to_vec());
        for i in 0..8 {
            resp.headers
                .add(&format!("X-Field-{i}"), "v".repeat(100 * i));
        }
        resp.headers.set("Content-Length", "999"); // replaced by the real length
        let mut w = CountingWriter::default();
        write_response(&mut w, &resp).unwrap();
        assert_eq!(w.writes, 2);
        assert_eq!(
            w.bytes,
            [response_head(&resp).as_bytes(), &resp.body].concat()
        );
        let parsed = read_response(&mut Cursor::new(w.bytes)).unwrap().unwrap();
        assert_eq!(parsed.body, resp.body);
        assert_eq!(parsed.headers.get("x-field-7").map(str::len), Some(700));

        let mut req = HttpRequest::post("/publish", b"payload".to_vec());
        req.headers.set("Host", "example");
        let mut w = CountingWriter::default();
        write_request(&mut w, &req).unwrap();
        assert_eq!(w.writes, 2);
        let parsed = read_request(&mut Cursor::new(w.bytes)).unwrap().unwrap();
        assert_eq!(parsed.body, b"payload");

        let mut w = CountingWriter::default();
        write_request(&mut w, &HttpRequest::get("/")).unwrap();
        assert_eq!(w.writes, 1, "an empty body costs no write");
    }

    #[test]
    fn dropping_an_idle_server_is_prompt_and_frees_the_port() {
        let echo: Handler = Arc::new(|_: &HttpRequest| HttpResponse::ok(Vec::new()));
        let loopback = serve(echo.clone()).unwrap();
        let wildcard = serve_on(TcpListener::bind("0.0.0.0:0").unwrap(), echo).unwrap();
        assert!(wildcard.addr().ip().is_unspecified());
        for server in [loopback, wildcard] {
            let port = server.addr().port();
            let t0 = std::time::Instant::now();
            drop(server);
            assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
            let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
            let err = http_get(addr, "/", &[]).unwrap_err();
            assert!(matches!(err, Error::Unreachable(_)), "{err:?}");
        }
    }

    #[test]
    fn range_parsing() {
        assert_eq!(parse_range("bytes=0-99", 1000), Some((0, 100)));
        assert_eq!(parse_range("bytes=500-", 1000), Some((500, 1000)));
        assert_eq!(parse_range("bytes=-200", 1000), Some((800, 1000)));
        assert_eq!(parse_range("bytes=0-4", 3), Some((0, 3)), "clamped end");
        assert_eq!(parse_range("bytes=1000-", 1000), None, "start past end");
        assert_eq!(parse_range("bytes=5-2", 1000), None);
        assert_eq!(parse_range("items=0-1", 1000), None);
        assert_eq!(parse_range("bytes=-0", 1000), None);
        assert_eq!(content_range(0, 100, 1000), "bytes 0-99/1000");
    }

    #[test]
    fn header_case_insensitivity_and_set() {
        let mut h = Headers::new();
        h.add("Content-Type", "text/plain");
        h.add("content-type", "application/json");
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/plain"));
        h.set("Content-Type", "final");
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("content-type"), Some("final"));
    }

    #[test]
    fn refused_connection_is_unreachable() {
        // Nothing listens on port 1; loopback refuses instantly. The error
        // class must say "service down", not a bare Io or NotFound.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let err = http_get(addr, "/", &[]).unwrap_err();
        assert!(matches!(err, Error::Unreachable(_)), "{err:?}");
        assert!(
            std::error::Error::source(&err).is_some(),
            "transport cause must chain through source()"
        );
    }

    #[test]
    fn deadline_expiries_are_reclassified() {
        for kind in [std::io::ErrorKind::TimedOut, std::io::ErrorKind::WouldBlock] {
            let e = flag_timeout(Error::Io(std::io::Error::from(kind)));
            assert!(matches!(e, Error::Timeout(_)), "{kind:?}");
        }
        // Everything else passes through untouched.
        let e = flag_timeout(Error::Io(std::io::Error::from(
            std::io::ErrorKind::BrokenPipe,
        )));
        assert!(matches!(e, Error::Io(_)));
        let e = flag_timeout(Error::Protocol("x".into()));
        assert!(matches!(e, Error::Protocol(_)));
    }

    #[test]
    fn live_server_roundtrip_and_keepalive() {
        let server = serve(Arc::new(|req: &HttpRequest| {
            HttpResponse::ok(format!("you asked for {}", req.target).into_bytes())
        }))
        .unwrap();
        let addr = server.addr();
        // Two requests over one connection (keep-alive).
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for path in ["/a", "/b"] {
            write_request(&mut writer, &HttpRequest::get(path)).unwrap();
            let resp = read_response(&mut reader).unwrap().unwrap();
            assert_eq!(resp.body, format!("you asked for {path}").into_bytes());
        }
        drop(writer);
        drop(reader);
        // One-shot helper.
        let resp = http_get(addr, "/c", &[]).unwrap();
        assert_eq!(resp.body, b"you asked for /c");
        server.shutdown();
    }
}
