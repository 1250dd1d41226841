//! The HTTP request parser under hostile input: every truncation of two
//! real requests, every substitution of a structural byte at every
//! offset, and a handful of hand-picked hostile requests read to `Ok` or
//! `Err` — never a panic, which would take down a `dpm serve` handler
//! thread.

use std::io::{Cursor, Read, Write};

use dpm_campaign::http::{read_request, HttpError, MAX_BODY_BYTES};

/// A POST with a query, a body length and the `100-continue` handshake.
const POST: &[u8] = b"POST /campaigns?name=a%20b+c&wait HTTP/1.1\r\n\
Host: localhost:8080\r\n\
Content-Length: 11\r\n\
Expect: 100-continue\r\n\
\r\n\
name = \"x\"\n";

/// A GET with bare-LF line ends.
const GET: &[u8] = b"GET /campaigns/c-1f/events?since=3&wait_ms=10 HTTP/1.1\n\
Host: x\n\
\n";

/// Bytes that separate request-line, header and query structure, a
/// digit and a letter of each kind, and two bytes that break UTF-8.
const SUBSTITUTIONS: &[u8] = b" \r\n:%?&=+/09aZ\xff\xc3";

/// An in-memory connection: reads the request, swallows the interim
/// `100 Continue` response.
struct Pipe {
    input: Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Reads one request off `bytes`, failing the test with the input if
/// the parser panics.
fn read(bytes: &[u8]) -> Result<dpm_campaign::http::Request, HttpError> {
    let mut pipe = Pipe {
        input: Cursor::new(bytes.to_vec()),
        output: Vec::new(),
    };
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| read_request(&mut pipe)))
        .unwrap_or_else(|_| {
            panic!(
                "read_request panicked on {:?}",
                String::from_utf8_lossy(bytes)
            )
        })
}

#[test]
fn truncated_and_mutated_requests_never_panic() {
    let post = read(POST).expect("the POST itself parses");
    assert_eq!(post.query.len(), 2);
    assert_eq!(post.body, b"name = \"x\"\n");
    let get = read(GET).expect("the GET itself parses");
    assert_eq!(get.path, "/campaigns/c-1f/events");

    let mut inputs = 0;
    for seed in [POST, GET] {
        for end in 0..=seed.len() {
            let _ = read(&seed[..end]);
            inputs += 1;
        }
        for at in 0..seed.len() {
            for &byte in SUBSTITUTIONS {
                let mut bytes = seed.to_vec();
                bytes[at] = byte;
                let _ = read(&bytes);
                inputs += 1;
            }
        }
    }
    assert_eq!(
        inputs,
        (SUBSTITUTIONS.len() + 1) * (POST.len() + GET.len()) + 2
    );
}

#[test]
fn hostile_requests_are_errors_not_panics() {
    let oversized = format!(
        "POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    assert!(matches!(
        read(oversized.as_bytes()),
        Err(HttpError::TooLarge(_))
    ));
    for length in ["18446744073709551616", "-1", "+-0", ""] {
        let request = format!("POST /campaigns HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
        assert!(
            matches!(read(request.as_bytes()), Err(HttpError::Malformed(_))),
            "Content-Length: {length}"
        );
    }
    for target in ["/%", "/%C3", "/%\u{e9}x", "/campaigns?%=%", "/?a=%zz"] {
        let request = format!("GET {target} HTTP/1.1\r\n\r\n");
        assert!(
            matches!(read(request.as_bytes()), Err(HttpError::Malformed(_))),
            "{target}"
        );
    }
}
