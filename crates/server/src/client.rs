//! A minimal blocking HTTP/1.1 client for the query service: the load
//! driver, the smoke/stress tests, the replication apply loop, and
//! scripts all speak to the server through this one code path, so
//! client-side framing bugs can't hide in per-test copies.
//!
//! Responses are framed by `Content-Length`, and a body shorter than the
//! header promises is an *error*, never a silent short read: the replica
//! apply loop feeds these bytes straight into WAL replay, where a
//! truncated-but-"successful" body would corrupt catch-up.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A complete textual response: status code, response headers, and body
/// text.
#[derive(Debug)]
pub struct HttpResponse {
    pub status: u16,
    /// Response header `(name, value)` pairs in arrival order.
    pub(crate) headers: Vec<(String, String)>,
    pub body: String,
}

impl HttpResponse {
    /// The first response header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        header_of(&self.headers, name)
    }
}

/// A complete response with the body kept as raw bytes (the replication
/// endpoints ship binary WAL frames and checkpoint images).
#[derive(Debug)]
pub struct HttpBytesResponse {
    pub status: u16,
    /// Response header `(name, value)` pairs in arrival order.
    pub(crate) headers: Vec<(String, String)>,
    pub bytes: Vec<u8>,
}

impl HttpBytesResponse {
    /// The first response header named `name` (case-insensitive).
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        header_of(&self.headers, name)
    }
}

fn header_of<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
}

/// Open a connection, send one request, and read the response (the server
/// always closes after one exchange). `timeout` bounds connect and every
/// socket read/write. The body is validated against `Content-Length`.
pub fn http_call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    http_call_with_headers(addr, method, path, body, &[], timeout)
}

/// [`http_call`] with extra request headers (e.g. a caller-chosen
/// `X-Request-Id`, or `Accept: text/plain` for the Prometheus form of
/// `/metrics`). Header names and values must be wire-safe (no CR/LF).
pub fn http_call_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    request_headers: &[(&str, &str)],
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    let r = http_call_bytes_with_headers(
        addr,
        method,
        path,
        body.as_bytes(),
        request_headers,
        timeout,
    )?;
    Ok(HttpResponse {
        status: r.status,
        headers: r.headers,
        body: String::from_utf8_lossy(&r.bytes).into_owned(),
    })
}

/// [`http_call`] with a binary request body and the response body returned
/// as raw bytes.
pub(crate) fn http_call_bytes(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<HttpBytesResponse> {
    http_call_bytes_with_headers(addr, method, path, body, &[], timeout)
}

/// The one code path every one-shot client call funnels through. Sends
/// `Connection: close`, so the server tears the connection down after the
/// exchange; [`HttpClient`] is the keep-alive counterpart.
pub fn http_call_bytes_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    request_headers: &[(&str, &str)],
    timeout: Duration,
) -> std::io::Result<HttpBytesResponse> {
    // One deadline for the whole exchange. A per-read socket timeout
    // would let a hostile server drip one byte per `timeout` and renew
    // the clock forever — the reverse of the slow-loris the server side
    // already defends against.
    let deadline = Instant::now() + timeout;
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_write_timeout(Some(timeout))?;
    write_request(&mut stream, addr, method, path, body, request_headers, true)?;
    read_one_response(&mut stream, deadline, method)
}

fn write_request(
    stream: &mut TcpStream,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    request_headers: &[(&str, &str)],
    close: bool,
) -> std::io::Result<()> {
    let mut head =
        format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n", body.len());
    if close {
        head.push_str("Connection: close\r\n");
    }
    for (name, value) in request_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// One `read()` charged against the exchange's total deadline (the
/// client-side mirror of the server's `read_some` budget).
fn deadline_read(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Instant,
) -> std::io::Result<usize> {
    let timed_out =
        || std::io::Error::new(std::io::ErrorKind::TimedOut, "response deadline exceeded");
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(timed_out());
    }
    stream.set_read_timeout(Some(remaining))?;
    match stream.read(chunk) {
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Err(timed_out())
        }
        other => other,
    }
}

/// Read exactly one response off the stream — framed by `Content-Length`
/// so a kept-alive connection stays positioned at the next response, or
/// by EOF when the header is absent (foreign close-framed servers).
fn read_one_response(
    stream: &mut TcpStream,
    deadline: Instant,
    method: &str,
) -> std::io::Result<HttpBytesResponse> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        match deadline_read(stream, &mut chunk, deadline)? {
            0 => return Err(bad("connection closed before response head")),
            n => raw.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let content_length: Option<usize> = head.lines().skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            value.trim().parse().ok()
        } else {
            None
        }
    });
    if method.eq_ignore_ascii_case("HEAD") {
        // A HEAD answer is headers-only regardless of Content-Length.
    } else {
        match content_length {
            Some(n) => {
                while raw.len() < head_end + 4 + n {
                    match deadline_read(stream, &mut chunk, deadline)? {
                        // Truncation is flagged by `parse_response`.
                        0 => break,
                        m => raw.extend_from_slice(&chunk[..m]),
                    }
                }
            }
            None => loop {
                match deadline_read(stream, &mut chunk, deadline)? {
                    0 => break,
                    m => raw.extend_from_slice(&chunk[..m]),
                }
            },
        }
    }
    parse_response(&raw, method)
}

/// A keep-alive HTTP client: one TCP connection reused across sequential
/// calls, against the server's persistent-connection loop — the load
/// driver measures the connection-churn win through this. When the server
/// closed the connection between calls (request budget, idle deadline),
/// the next call reconnects and retries once, transparently.
pub struct HttpClient {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
}

impl HttpClient {
    /// A client for `addr`; connects lazily on the first call. `timeout`
    /// is the total per-exchange deadline, same meaning as in
    /// [`http_call`].
    pub fn new(addr: SocketAddr, timeout: Duration) -> HttpClient {
        HttpClient { addr, timeout, stream: None }
    }

    /// Whether the client currently holds a reusable connection.
    pub fn connected(&self) -> bool {
        self.stream.is_some()
    }

    fn connect(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Send one request on the kept-alive connection and read its
    /// response.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<HttpResponse> {
        let r = self.call_bytes_with_headers(method, path, body.as_bytes(), &[])?;
        Ok(HttpResponse {
            status: r.status,
            headers: r.headers,
            body: String::from_utf8_lossy(&r.bytes).into_owned(),
        })
    }

    /// [`HttpClient::call`] with extra request headers (e.g.
    /// `X-Db2Graph-Session`) and a raw-bytes response.
    pub fn call_bytes_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        request_headers: &[(&str, &str)],
    ) -> std::io::Result<HttpBytesResponse> {
        let mut on_reused = self.stream.is_some();
        loop {
            let mut stream = match self.stream.take() {
                Some(s) => s,
                None => self.connect()?,
            };
            let deadline = Instant::now() + self.timeout;
            let result =
                write_request(&mut stream, self.addr, method, path, body, request_headers, false)
                    .and_then(|()| read_one_response(&mut stream, deadline, method));
            match result {
                Ok(resp) => {
                    // Keep the connection unless the server said close or
                    // left the response EOF-framed (no Content-Length).
                    let closing =
                        resp.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
                            || (resp.header("content-length").is_none()
                                && !method.eq_ignore_ascii_case("HEAD"));
                    if !closing {
                        self.stream = Some(stream);
                    }
                    return Ok(resp);
                }
                // A reused connection may have died under us (the
                // server's idle deadline or request budget); one retry on
                // a fresh connection. Errors on a fresh one are real.
                Err(e) => {
                    if !on_reused {
                        return Err(e);
                    }
                    on_reused = false;
                }
            }
        }
    }
}

fn parse_response(raw: &[u8], method: &str) -> std::io::Result<HttpBytesResponse> {
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator".into()))?;
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line '{status_line}'")))?;
    let mut content_length: Option<usize> = None;
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad content-length '{}'", value.trim())))?,
                );
            }
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
    }
    let bytes = raw[head_end + 4..].to_vec();
    // A HEAD response carries the Content-Length of the GET it mirrors but
    // no body bytes — the header describes the hypothetical body, not the
    // wire.
    if method.eq_ignore_ascii_case("HEAD") {
        if !bytes.is_empty() {
            return Err(bad(format!("HEAD response carried {} body bytes", bytes.len())));
        }
        return Ok(HttpBytesResponse { status, headers, bytes });
    }
    match content_length {
        // The connection closed before the declared body arrived (or a
        // confused server sent more): the response is *corrupt*, not short.
        Some(n) if bytes.len() != n => Err(bad(format!(
            "truncated response body: got {} of {} declared bytes",
            bytes.len(),
            n
        ))),
        // No Content-Length: fall back to read-to-EOF framing (foreign
        // servers; ours always declares it).
        _ => Ok(HttpBytesResponse { status, headers, bytes }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_body_is_an_error_not_a_short_success() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n0123456789";
        let r = parse_response(full, "GET").unwrap();
        assert_eq!((r.status, r.bytes.as_slice()), (200, &b"0123456789"[..]));
        // Every proper prefix of the body must fail loudly.
        for cut in 0..10 {
            let err = parse_response(&full[..full.len() - 10 + cut], "GET").unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }

    #[test]
    fn missing_content_length_falls_back_to_eof() {
        let raw = b"HTTP/1.1 200 OK\r\nX: y\r\n\r\npartial";
        let r = parse_response(raw, "GET").unwrap();
        assert_eq!(r.bytes, b"partial");
    }

    #[test]
    fn head_response_has_length_but_no_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 42\r\n\r\n";
        let r = parse_response(raw, "HEAD").unwrap();
        assert_eq!((r.status, r.bytes.len()), (200, 0));
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nxx", "HEAD").is_err());
    }
}
