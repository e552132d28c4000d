//! A minimal keep-alive HTTP/1.1 client over `std::net::TcpStream` and a
//! small JSON reader. Both belong to the benchmark, so a change to the
//! program's own client (`crates/server/src/client.rs`) or JSON module
//! cannot move the numbers or the answer checks.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One persistent connection. The server closes a connection after its
/// per-connection request budget (announced with `Connection: close`);
/// the client then reconnects before the next request.
pub struct HttpClient {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    head: Vec<u8>,
}

impl HttpClient {
    pub fn new(addr: SocketAddr) -> HttpClient {
        HttpClient {
            addr,
            conn: None,
            head: Vec::new(),
        }
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> std::io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            stream.set_write_timeout(Some(Duration::from_secs(60)))?;
            self.conn = Some(BufReader::new(stream));
        }
        let result = self.exchange(path, body);
        match &result {
            Ok((_, close)) if !close => {}
            // After an error the stream's framing is unknown.
            _ => self.conn = None,
        }
        result.map(|(response, _)| response)
    }

    /// Send one request and read one response; the flag says whether the
    /// server will close the connection.
    fn exchange(&mut self, path: &str, body: &[u8]) -> std::io::Result<(Response, bool)> {
        let conn = self.conn.as_mut().expect("connected by post()");
        self.head.clear();
        write!(
            self.head,
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.head.extend_from_slice(body);
        conn.get_mut().write_all(&self.head)?;

        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        conn.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if conn.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("malformed Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
        let mut body = vec![0u8; length];
        conn.read_exact(&mut body)?;
        Ok((Response { status, body }, close))
    }
}

/// A parsed JSON value. Numbers keep their source text so 64-bit integers
/// survive unrounded.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(bytes: &[u8]) -> Option<Json> {
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        (pos == bytes.len()).then_some(value)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while b.get(*pos).is_some_and(|c| c.is_ascii_whitespace()) {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            loop {
                skip_ws(b, pos);
                if *b.get(*pos)? == b'}' {
                    *pos += 1;
                    return Some(Json::Obj(fields));
                }
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if *b.get(*pos)? != b':' {
                    return None;
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                if *b.get(*pos)? == b',' {
                    *pos += 1;
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(b, pos);
                if *b.get(*pos)? == b']' {
                    *pos += 1;
                    return Some(Json::Arr(items));
                }
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                if *b.get(*pos)? == b',' {
                    *pos += 1;
                }
            }
        }
        b'"' => parse_string(b, pos).map(Json::Str),
        b't' if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Some(Json::Bool(true))
        }
        b'f' if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Some(Json::Bool(false))
        }
        b'n' if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Some(Json::Null)
        }
        _ => {
            let start = *pos;
            while b
                .get(*pos)
                .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).ok()?;
            text.parse::<f64>().ok()?;
            Some(Json::Num(text.to_string()))
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if *b.get(*pos)? != b'"' {
        return None;
    }
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).ok();
            }
            b'\\' => {
                let escaped = *b.get(*pos + 1)?;
                *pos += 2;
                match escaped {
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(8),
                    b'f' => out.push(12),
                    b'u' => {
                        let hex = std::str::from_utf8(b.get(*pos..*pos + 4)?).ok()?;
                        let c = char::from_u32(u32::from_str_radix(hex, 16).ok()?)?;
                        out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        *pos += 4;
                    }
                    other => out.push(other),
                }
            }
            c => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_reader_handles_the_wire_shapes() {
        let j = Json::parse(
            br#"{"count":2,"result":[{"type":"vertex","id":7,"properties":{"data":"a\"b"}},13399811360294, "x"]}"#,
        )
        .unwrap();
        assert_eq!(j.get("count").and_then(Json::as_i64), Some(2));
        let items = j.get("result").and_then(Json::as_array).unwrap();
        assert_eq!(items[0].get("id").and_then(Json::as_i64), Some(7));
        assert_eq!(
            items[0]
                .get("properties")
                .and_then(|p| p.get("data"))
                .and_then(Json::as_str),
            Some("a\"b")
        );
        assert_eq!(items[1].as_i64(), Some(13399811360294));
        assert_eq!(items[2].as_str(), Some("x"));
        assert_eq!(Json::parse(b"[1,2"), None);
        assert_eq!(Json::parse(b"{} x"), None);
        assert_eq!(
            Json::parse(b"[true,false,null]")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            3
        );
    }
}
