//! Minimal HTTP/1.1 request reader and response writer over `std::net`.
//!
//! Only what the query service needs: persistent connections with
//! keep-alive negotiation (HTTP/1.1 defaults to keep-alive, HTTP/1.0 to
//! close, `Connection: close` / `keep-alive` override either way), a
//! method + path + body, hard limits on header and body size, and socket
//! read timeouts against slow clients. Bytes a client pipelines past one
//! request's body are carried over as the start of the next request.
//! Anything malformed becomes a structured [`HttpError`] the worker maps
//! to a 4xx response — never a panic.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Read-side failure classification; each variant maps to one status code.
#[derive(Debug)]
pub(crate) enum HttpError {
    /// The peer closed (or the idle keep-alive window lapsed) before
    /// sending a full request head; nothing to answer.
    Closed,
    /// The socket read timed out before the request completed (408).
    Timeout,
    /// The request head exceeded the header budget (431).
    HeadersTooLarge,
    /// The declared or delivered body exceeded the body budget (413).
    BodyTooLarge,
    /// Unparseable request line, header, or length (400).
    Malformed(String),
    /// A well-formed request using a feature this server does not
    /// implement — `Transfer-Encoding` framing (501). Distinct from
    /// `Malformed` because the request isn't broken, just unsupported,
    /// and smuggling defenses require refusing rather than guessing.
    Unsupported(String),
    /// Transport error mid-read; connection is unusable.
    Io(std::io::Error),
}

/// A parsed request: just enough surface for routing.
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    /// Raw query string (without the `?`); empty when absent. The service
    /// routes on the path alone, but `/wal` reads its position from here.
    pub(crate) query: String,
    /// Header `(name, value)` pairs in arrival order, names and values
    /// trimmed. Routing needs only a couple (`X-Request-Id`, `Accept`),
    /// keeping them all costs one small Vec per request.
    pub(crate) headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Total bytes read off the wire (head + body), for ingress metering.
    pub(crate) wire_bytes: u64,
    /// The negotiated connection disposition: `true` when this exchange
    /// must be the connection's last (HTTP/1.0 without `keep-alive`, or
    /// an explicit `Connection: close`).
    pub(crate) close: bool,
}

impl Request {
    /// The value of query parameter `name`, if present (no percent
    /// decoding — replication positions are plain integers).
    pub(crate) fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            (k == name).then_some(v)
        })
    }

    /// The first header named `name` (case-insensitive), if present.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// One `read()` charged against the request's total deadline: the socket
/// timeout is shrunk to the remaining budget before every read, so a
/// slow-loris client dripping one byte per read cannot renew the clock —
/// the whole request must arrive within `read_timeout` of the first read.
fn read_some(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Instant,
) -> Result<usize, HttpError> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(HttpError::Timeout);
    }
    // `set_read_timeout(Some(0))` is an error, and `remaining` is nonzero
    // here; any other failure surfaces on the read itself.
    let _ = stream.set_read_timeout(Some(remaining));
    match stream.read(chunk) {
        Ok(n) => Ok(n),
        Err(e) if is_timeout(&e) => Err(HttpError::Timeout),
        Err(e) => Err(HttpError::Io(e)),
    }
}

/// Does a `Connection` header value list `token`? Values are a
/// comma-separated token list (`keep-alive`, `close, te`), compared
/// case-insensitively.
fn connection_lists(value: &str, token: &str) -> bool {
    value.split(',').any(|t| t.trim().eq_ignore_ascii_case(token))
}

/// Read one full request from the stream under the given limits.
/// `read_timeout` is the total budget for the whole request (head and
/// body together), not a per-read idle timeout.
///
/// `carry` holds bytes a previous call over-read past its request's body
/// (a pipelining client). They are consumed as the front of this request,
/// and any bytes past *this* request's body are left in `carry` for the
/// next call — the keep-alive loop threads one buffer through the
/// connection's lifetime. Pass an empty `Vec` for one-shot use.
pub(crate) fn read_request(
    stream: &mut TcpStream,
    max_header_bytes: usize,
    max_body_bytes: usize,
    read_timeout: Duration,
    carry: &mut Vec<u8>,
) -> Result<Request, HttpError> {
    let deadline = Instant::now() + read_timeout;
    let mut buf: Vec<u8> = std::mem::take(carry);
    let mut chunk = [0u8; 4096];
    // Accumulate until the blank line ending the head. `scanned` remembers
    // how far previous passes looked, so each new read only scans the new
    // bytes (minus a 3-byte overlap for a separator split across reads)
    // instead of re-walking the whole buffer quadratically.
    let mut scanned = 0usize;
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf, &mut scanned) {
            break pos;
        }
        if buf.len() > max_header_bytes {
            return Err(HttpError::HeadersTooLarge);
        }
        let n = match read_some(stream, &mut chunk, deadline)? {
            0 => {
                return if buf.is_empty() {
                    Err(HttpError::Closed)
                } else {
                    Err(HttpError::Malformed("connection closed mid-request".into()))
                }
            }
            n => n,
        };
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target =
        parts.next().ok_or_else(|| HttpError::Malformed("request line has no target".into()))?;
    let http10 = match parts.next() {
        Some("HTTP/1.0") => true,
        Some(v) if v.starts_with("HTTP/1.") => false,
        other => {
            return Err(HttpError::Malformed(format!(
                "unsupported protocol {:?}",
                other.unwrap_or("")
            )))
        }
    };
    // Split off the query string; the service routes on the path alone.
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length: Option<usize> = None;
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("malformed header line '{line}'")));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length '{value}'")))?;
            // Duplicate Content-Length headers are a request-smuggling
            // vector on reused connections: two framings of one byte
            // stream. Identical repeats are tolerated (RFC 9112 §6.3);
            // conflicting ones are refused outright.
            if content_length.is_some_and(|prev| prev != parsed) {
                return Err(HttpError::Malformed("conflicting content-length headers".into()));
            }
            content_length = Some(parsed);
        }
        if name.eq_ignore_ascii_case("transfer-encoding") {
            // Chunked (or any) transfer coding is not implemented; rather
            // than guess at framing — the other half of the smuggling
            // vector — refuse with 501.
            return Err(HttpError::Unsupported(
                "transfer-encoding is not supported; use content-length".into(),
            ));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }

    // Negotiate the connection disposition: explicit `Connection` tokens
    // win; otherwise HTTP/1.1 keeps alive and HTTP/1.0 closes.
    let connection =
        headers.iter().find(|(k, _)| k.eq_ignore_ascii_case("connection")).map(|(_, v)| v.as_str());
    let close = match connection {
        Some(v) if connection_lists(v, "close") => true,
        Some(v) if connection_lists(v, "keep-alive") => false,
        _ => http10,
    };

    let body_start = head_end + 4;
    let mut body: Vec<u8> = buf.split_off(body_start.min(buf.len()));
    while body.len() < content_length {
        let n = match read_some(stream, &mut chunk, deadline)? {
            0 => return Err(HttpError::Malformed("connection closed mid-body".into())),
            n => n,
        };
        body.extend_from_slice(&chunk[..n]);
    }
    if body.len() > content_length {
        // Bytes past the declared body are the next pipelined request:
        // hand them to the caller's carry buffer for the next read.
        *carry = body.split_off(content_length);
    }
    let wire_bytes = (body_start + body.len()) as u64;
    Ok(Request { method, path, query, headers, body, wire_bytes, close })
}

/// Find the `\r\n\r\n` ending the request head. `scanned` is how many
/// bytes earlier calls already searched; the scan resumes 3 bytes before
/// it (a separator can straddle the boundary) and advances it to the
/// current length, keeping the whole accumulate loop linear.
fn find_head_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    let start = scanned.saturating_sub(3);
    let found = buf[start..].windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + start);
    *scanned = buf.len();
    found
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete response: explicit content type, optionally
/// headers-only (a `HEAD` answer: the `Content-Length` still describes
/// the body a `GET` would have returned, but no body bytes follow), the
/// negotiated connection disposition (`close`), and extra response
/// headers (e.g. the `X-Request-Id` correlation header — values must
/// already be wire-safe: no CR/LF). Returns the bytes put on the wire.
pub(crate) fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    head_only: bool,
    close: bool,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<u64> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    if head_only {
        stream.flush()?;
        return Ok(head.len() as u64);
    }
    stream.write_all(body)?;
    stream.flush()?;
    Ok((head.len() + body.len()) as u64)
}
