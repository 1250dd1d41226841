//! A hand-rolled HTTP/1.1 core: just enough protocol for the campaign
//! service, written against `std` alone per the shims policy (no
//! registry dependencies, ever).
//!
//! Scope is deliberately narrow — this is a **control plane**, not a
//! general web server:
//!
//! * one request per connection (`Connection: close` on every
//!   response), which keeps worker threads stateless;
//! * `Content-Length` bodies only (no chunked *requests*), with an
//!   `Expect: 100-continue` handshake so `curl -d @spec.toml` works;
//! * chunked *responses* via [`ChunkedWriter`] for the long-poll event
//!   stream;
//! * a [`BoundedPool`] of connection-handler threads fed through a
//!   bounded channel, so a flood of connections backpressures the
//!   accept loop instead of spawning unbounded threads.
//!
//! Everything here is pure protocol: no routing, no campaign knowledge.
//! [`crate::server`] supplies those.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};

/// Hard cap on request-body size (covers any plausible spec file; a
/// full Table 2 grid spec is under 2 KiB).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Hard cap on one header line (request line included).
const MAX_LINE_BYTES: usize = 8 << 10;

/// Hard cap on the number of header lines.
const MAX_HEADERS: usize = 100;

/// Bytes asked of the stream per `read` while the request head is
/// incomplete.
const READ_CHUNK: usize = 4 << 10;

/// A parsed HTTP request: method, decoded path, decoded query pairs,
/// lower-cased headers and the raw body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …) exactly as sent.
    pub method: String,
    /// Percent-decoded path, query string stripped.
    pub path: String,
    /// Decoded `key=value` query pairs in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header of this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first query parameter of this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The path split on `/`, empty segments dropped: `/campaigns/x/report`
    /// → `["campaigns", "x", "report"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before a full request arrived
    /// (common and harmless: health probes, aborted curls).
    Closed,
    /// The bytes were not valid HTTP; the message is safe to echo back
    /// in a 400 body.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`]; respond 413.
    TooLarge(usize),
    /// The socket failed mid-read.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(n) => write!(f, "request body of {n} bytes exceeds the limit"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// Reads one request off a stream, answering `Expect: 100-continue`
/// in-line so clients that wait for the interim response make progress.
///
/// # Errors
///
/// [`HttpError::Closed`] on immediate EOF, [`HttpError::Malformed`] on
/// protocol violations, [`HttpError::TooLarge`] when the declared body
/// exceeds [`MAX_BODY_BYTES`], [`HttpError::Io`] on socket failure.
pub fn read_request<S: Read + Write>(stream: &mut S) -> Result<Request, HttpError> {
    let mut head = Head::default();
    let request_line = match head.line(stream)? {
        Some(line) => line,
        None => return Err(HttpError::Closed),
    };
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line has no target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line has no version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol '{version}'"
        )));
    }

    let mut headers = Vec::new();
    loop {
        let line = head
            .line(stream)?
            .ok_or_else(|| HttpError::Malformed("connection closed inside headers".into()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header line '{line}' has no colon")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length '{v}'")))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(content_length));
    }
    let expects_continue = headers
        .iter()
        .any(|(n, v)| n == "expect" && v.eq_ignore_ascii_case("100-continue"));
    if expects_continue && content_length > 0 {
        stream
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .and_then(|()| stream.flush())
            .map_err(HttpError::Io)?;
    }
    // the head's reads may have taken the body's first bytes
    let mut body = head.rest();
    body.truncate(content_length);
    let buffered = body.len();
    body.resize(content_length, 0);
    stream.read_exact(&mut body[buffered..]).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            HttpError::Malformed("connection closed inside body".into())
        } else {
            HttpError::Io(e)
        }
    })?;

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)
        .ok_or_else(|| HttpError::Malformed(format!("bad percent-encoding in '{raw_path}'")))?;
    let mut query = Vec::new();
    for pair in raw_query.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let decode = |s: &str| percent_decode(&s.replace('+', " "));
        match (decode(k), decode(v)) {
            (Some(k), Some(v)) => query.push((k, v)),
            _ => {
                return Err(HttpError::Malformed(format!(
                    "bad percent-encoding in query pair '{pair}'"
                )))
            }
        }
    }

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// The request head as read so far. The stream is read in chunks of
/// [`READ_CHUNK`] bytes, not byte by byte, so bytes past the blank line
/// that ends the head may already be buffered: they belong to the body.
#[derive(Default)]
struct Head {
    buf: Vec<u8>,
    /// Start of the first line not yet returned.
    start: usize,
}

impl Head {
    /// The next CRLF (or bare-LF) terminated line; `None` on clean EOF
    /// before any byte of it.
    fn line<S: Read>(&mut self, stream: &mut S) -> Result<Option<String>, HttpError> {
        loop {
            let pending = &self.buf[self.start..];
            if let Some(end) = pending.iter().position(|&b| b == b'\n') {
                if end > MAX_LINE_BYTES {
                    return Err(HttpError::Malformed("header line too long".into()));
                }
                let line = pending[..end]
                    .strip_suffix(b"\r")
                    .unwrap_or(&pending[..end]);
                let line = std::str::from_utf8(line)
                    .map_err(|_| HttpError::Malformed("non-UTF-8 header line".into()))?
                    .to_string();
                self.start += end + 1;
                return Ok(Some(line));
            }
            if pending.len() > MAX_LINE_BYTES {
                return Err(HttpError::Malformed("header line too long".into()));
            }
            self.buf.drain(..self.start);
            self.start = 0;
            let filled = self.buf.len();
            self.buf.resize(filled + READ_CHUNK, 0);
            let read = stream.read(&mut self.buf[filled..]);
            self.buf.truncate(filled + *read.as_ref().unwrap_or(&0));
            match read {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => return Err(HttpError::Malformed("connection closed mid-line".into())),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
    }

    /// The bytes read past the last returned line.
    fn rest(mut self) -> Vec<u8> {
        self.buf.drain(..self.start);
        self.buf
    }
}

/// Decodes `%XX` escapes; `None` on a truncated or non-hex escape.
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hi = (hex[0] as char).to_digit(16)?;
            let lo = (hex[1] as char).to_digit(16)?;
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// The canonical reason phrase for the status codes this service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response (`Content-Length`-framed, connection
/// closing) and flushes.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_response<S: Write>(
    stream: &mut S,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_reason(status),
        body.len(),
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a JSON response.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_json<S: Write>(stream: &mut S, status: u16, json: &str) -> std::io::Result<()> {
    write_response(stream, status, "application/json", json.as_bytes())
}

/// A JSON error body: `{"error": <message>, "status": <status>}`.
pub fn error_body(status: u16, message: &str) -> String {
    serde_json::Value::Object(vec![
        (
            "error".to_string(),
            serde_json::Value::String(message.to_string()),
        ),
        ("status".to_string(), serde::Serialize::to_value(&status)),
    ])
    .to_json()
}

/// Writes a JSON error response.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_error<S: Write>(stream: &mut S, status: u16, message: &str) -> std::io::Result<()> {
    write_json(stream, status, &error_body(status, message))
}

/// A chunked (`Transfer-Encoding: chunked`) response in progress — the
/// event stream's transport. Construction writes the header; each
/// [`ChunkedWriter::chunk`] flushes one frame so long-poll clients see
/// events as they happen; [`ChunkedWriter::finish`] writes the final
/// zero-length chunk.
#[derive(Debug)]
pub struct ChunkedWriter<S: Write> {
    stream: S,
}

impl<S: Write> ChunkedWriter<S> {
    /// Starts a chunked response on the stream.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn begin(mut stream: S, status: u16, content_type: &str) -> std::io::Result<Self> {
        write!(
            stream,
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status_reason(status),
        )?;
        stream.flush()?;
        Ok(Self { stream })
    }

    /// Writes one chunk and flushes it (no-op on empty data — an empty
    /// chunk would terminate the stream).
    ///
    /// # Errors
    ///
    /// Propagates socket errors (a closed socket here means the client
    /// hung up; callers stop streaming).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates the stream with the zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// A fixed pool of connection-handler threads fed through a **bounded**
/// channel: when every handler is busy and the queue is full, the
/// accept loop blocks in [`BoundedPool::submit`] instead of piling up
/// threads — ancestry shared with [`crate::executor::ThreadPool`], but
/// for connections rather than scenario units.
pub struct BoundedPool {
    sender: Option<SyncSender<TcpStream>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for BoundedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl BoundedPool {
    /// Spawns `workers` handler threads (at least one), each running
    /// `handler` on every connection it dequeues. A handler panic kills
    /// its thread, so handlers are expected to contain their own panics
    /// (the server's dispatcher does).
    pub fn new<H>(workers: usize, handler: H) -> Self
    where
        H: Fn(TcpStream) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let (sender, receiver) = std::sync::mpsc::sync_channel::<TcpStream>(workers * 2);
        let receiver = Arc::new(Mutex::new(receiver));
        let handler = Arc::new(handler);
        let handles = (0..workers)
            .map(|i| {
                let receiver: Arc<Mutex<Receiver<TcpStream>>> = Arc::clone(&receiver);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("http-{i}"))
                    .spawn(move || loop {
                        let job = receiver.lock().expect("poisoned http queue").recv();
                        match job {
                            Ok(stream) => handler(stream),
                            Err(_) => break, // pool shut down
                        }
                    })
                    .expect("spawn http worker")
            })
            .collect();
        Self {
            sender: Some(sender),
            handles,
        }
    }

    /// Hands a connection to the pool, blocking while the queue is full.
    /// Dropped silently if the pool is already shutting down.
    pub fn submit(&self, stream: TcpStream) {
        if let Some(sender) = &self.sender {
            let _ = sender.send(stream);
        }
    }

    /// Closes the queue and joins every handler thread (in-flight
    /// connections finish first).
    pub fn shutdown(mut self) {
        self.sender = None; // disconnects the channel
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test double: reads from a script, records writes.
    struct Wire {
        input: std::io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Wire {
        fn new(script: &str) -> Self {
            Self {
                input: std::io::Cursor::new(script.as_bytes().to_vec()),
                output: Vec::new(),
            }
        }
    }

    impl Read for Wire {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Wire {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn parses_get_with_query_and_encoded_path() {
        let mut wire = Wire::new(
            "GET /campaigns/c%2D1/events?since=3&format=json+pretty HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        let req = read_request(&mut wire).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/campaigns/c-1/events");
        assert_eq!(req.segments(), vec!["campaigns", "c-1", "events"]);
        assert_eq!(req.query_param("since"), Some("3"));
        assert_eq!(req.query_param("format"), Some("json pretty"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_and_answers_100_continue() {
        let mut wire = Wire::new(
            "POST /campaigns HTTP/1.1\r\nContent-Length: 11\r\nExpect: 100-continue\r\n\r\nname = \"x\"\n",
        );
        let req = read_request(&mut wire).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"name = \"x\"\n");
        let echoed = String::from_utf8(wire.output.clone()).unwrap();
        assert!(echoed.starts_with("HTTP/1.1 100 Continue"), "{echoed}");
    }

    #[test]
    fn rejects_oversized_and_malformed_requests() {
        let mut wire = Wire::new(&format!(
            "POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        ));
        assert!(matches!(
            read_request(&mut wire),
            Err(HttpError::TooLarge(_))
        ));
        let mut wire = Wire::new("NOT-HTTP\r\n\r\n");
        assert!(matches!(
            read_request(&mut wire),
            Err(HttpError::Malformed(_))
        ));
        let mut wire = Wire::new("");
        assert!(matches!(read_request(&mut wire), Err(HttpError::Closed)));
    }

    #[test]
    fn responses_are_length_framed_and_close() {
        let mut out = Vec::new();
        write_json(&mut out, 200, "{\"ok\":true}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }

    #[test]
    fn error_bodies_are_json_with_status() {
        let body = error_body(400, "axis 'seeds' is empty");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"], "axis 'seeds' is empty");
        assert_eq!(v["status"], 400.0);
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let mut out = Vec::new();
        let mut w = ChunkedWriter::begin(&mut out, 200, "application/json").unwrap();
        w.chunk(b"hello\n").unwrap();
        w.chunk(b"").unwrap(); // must NOT terminate the stream
        w.chunk(b"world\n").unwrap();
        w.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        let body = text.split_once("\r\n\r\n").unwrap().1;
        assert_eq!(body, "6\r\nhello\n\r\n6\r\nworld\n\r\n0\r\n\r\n");
    }

    #[test]
    fn percent_decoding_is_strict() {
        assert_eq!(percent_decode("a%20b").as_deref(), Some("a b"));
        assert_eq!(percent_decode("plain").as_deref(), Some("plain"));
        assert_eq!(percent_decode("bad%2"), None);
        assert_eq!(percent_decode("bad%zz"), None);
    }

    #[test]
    fn pool_runs_every_submitted_connection() {
        use std::net::{TcpListener, TcpStream};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handled = Arc::new(AtomicUsize::new(0));
        let pool = {
            let handled = Arc::clone(&handled);
            BoundedPool::new(2, move |stream: TcpStream| {
                drop(stream);
                handled.fetch_add(1, Ordering::SeqCst);
            })
        };
        const CONNS: usize = 8;
        for _ in 0..CONNS {
            let client = TcpStream::connect(addr).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            pool.submit(server_side);
            drop(client);
        }
        pool.shutdown(); // joins: all submitted connections handled
        assert_eq!(handled.load(Ordering::SeqCst), CONNS);
    }
}
