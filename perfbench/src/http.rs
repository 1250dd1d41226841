//! A minimal blocking HTTP/1.1 client for the `serve` workload: one
//! connection per request (the daemon closes after each response).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Per-request socket timeout; a request slower than this fails.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// A complete response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes (de-chunked).
    pub body: Vec<u8>,
}

impl Response {
    /// `true` for a 2xx status.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The body as text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn send(stream: &mut TcpStream, method: &str, path: &str, body: &[u8]) -> std::io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

/// Reads the status line and headers; returns the status and whether the
/// body is chunked.
fn read_head(reader: &mut impl BufRead) -> std::io::Result<(u16, bool)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut chunked = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            return Ok((status, chunked));
        }
        if header.eq_ignore_ascii_case("transfer-encoding: chunked") {
            chunked = true;
        }
    }
}

/// Reads one chunk; `None` at the terminating zero-length chunk.
fn read_chunk(reader: &mut impl BufRead) -> std::io::Result<Option<Vec<u8>>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let len = usize::from_str_radix(line.trim(), 16).map_err(|_| bad("malformed chunk size"))?;
    let mut data = vec![0u8; len + 2];
    reader.read_exact(&mut data)?;
    data.truncate(len);
    Ok((len > 0).then_some(data))
}

/// One request/response round trip.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<Response> {
    let mut stream = connect(addr)?;
    send(&mut stream, method, path, body)?;
    let mut reader = BufReader::new(stream);
    let (status, chunked) = read_head(&mut reader)?;
    let mut body = Vec::new();
    if chunked {
        while let Some(chunk) = read_chunk(&mut reader)? {
            body.extend_from_slice(&chunk);
        }
    } else {
        reader.read_to_end(&mut body)?;
    }
    Ok(Response { status, body })
}

/// What the `/events` stream showed, timed from `since`.
#[derive(Debug, Default)]
pub struct Events {
    /// Status of the events request.
    pub status: u16,
    /// Time of the first `cell` event.
    pub first_cell: Option<Duration>,
    /// Time of the terminal `complete` event.
    pub complete: Option<Duration>,
}

/// Follows `GET path` (an `/events` long-poll) until the `complete`
/// event or the end of the stream.
pub fn follow_events(addr: SocketAddr, path: &str, since: Instant) -> std::io::Result<Events> {
    let mut stream = connect(addr)?;
    send(&mut stream, "GET", path, b"")?;
    let mut reader = BufReader::new(stream);
    let (status, chunked) = read_head(&mut reader)?;
    let mut events = Events {
        status,
        ..Events::default()
    };
    if !chunked {
        return Ok(events);
    }
    while let Some(chunk) = read_chunk(&mut reader)? {
        let text = String::from_utf8_lossy(&chunk);
        for line in text.lines() {
            if events.first_cell.is_none() && line.contains("\"event\":\"cell\"") {
                events.first_cell = Some(since.elapsed());
            }
            if line.contains("\"event\":\"complete\"") {
                events.complete = Some(since.elapsed());
                return Ok(events);
            }
        }
    }
    Ok(events)
}

/// The string value of `"key": "..."` in a JSON document.
pub fn json_string(doc: &str, key: &str) -> Option<String> {
    let at = doc.find(&format!("\"{key}\""))?;
    let rest = &doc[at + key.len() + 2..];
    let open = rest.find('"')?;
    let value = &rest[open + 1..];
    Some(value[..value.find('"')?].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_found() {
        assert_eq!(
            json_string("{\"id\": \"c-12\", \"x\": 1}", "id").as_deref(),
            Some("c-12")
        );
        assert_eq!(json_string("{\"x\": 1}", "id"), None);
    }

    #[test]
    fn chunks_decode() {
        let mut input: &[u8] = b"5\r\nhello\r\n0\r\n\r\n";
        assert_eq!(
            read_chunk(&mut input).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(read_chunk(&mut input).unwrap(), None);
    }
}
