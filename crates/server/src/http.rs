//! A minimal, hardened HTTP/1.1 implementation — just enough protocol for
//! the serving front-end, with the snapshot decoder's hostile-input
//! discipline: every length is bounded *before* allocation, a body is
//! allocated as its bytes arrive rather than by its claimed length, a
//! malformed or oversized request is a typed error (mapped to 400/413/405
//! by the server), and no byte stream, however truncated or adversarial,
//! can panic a worker. `tests/snapshot_corruption.rs` measures the
//! allocations.
//!
//! Scope (deliberate): `GET`/`POST`, `Content-Length` framing only (no
//! chunked transfer encoding — a request advertising one is refused),
//! HTTP/1.0 and 1.1 with standard keep-alive defaults. Both directions
//! are implemented — [`read_request`]/[`write_response`] for the server,
//! [`write_request`]/[`read_client_response`] for its clients (the
//! `benchmark/` harness, the `server_wire` tests, the `serve_http`
//! example) — so the two ends of the wire can never drift apart.

use std::io::{self, BufRead, Read, Write};

/// Hard cap on the request line (`GET /path HTTP/1.1`).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Hard cap on a single header line.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Hard cap on the number of headers.
pub const MAX_HEADERS: usize = 64;
/// Hard cap on a request body; [`read_request`] callers can pass a lower
/// one, never a higher one.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Why a request (or client-side response) could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes violate HTTP framing; the connection cannot be re-synced
    /// and is closed after an error response. Maps to `400`.
    Malformed(&'static str),
    /// A line or the header count exceeded its hard cap. Maps to `400`,
    /// and the connection closes.
    TooLarge(&'static str),
    /// The declared body length exceeds the server's cap; refused before
    /// any allocation. Maps to `413`.
    BodyTooLarge,
    /// A syntactically valid method this server does not implement.
    /// Maps to `405`.
    UnsupportedMethod,
    /// The underlying socket failed (including read timeouts on idle
    /// keep-alive connections). No response is written.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge(what) => write!(f, "request too large: {what}"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::UnsupportedMethod => write!(f, "unsupported method"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET` or `POST` (anything else is [`HttpError::UnsupportedMethod`]).
    pub method: String,
    /// The request target, e.g. `/v1/query`.
    pub target: String,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// Header name/value pairs in wire order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (first occurrence). Stored names are
    /// lower-cased when read, so the lookup compares in place and
    /// allocates nothing.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this exchange:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Reads one line (up to CRLF or LF) with a hard byte cap, without
/// buffering more than the line itself. Returns `None` on immediate,
/// clean EOF — how a keep-alive peer signals it is done.
fn read_line_bounded(
    reader: &mut impl BufRead,
    max: usize,
    what: &'static str,
) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        };
        if available.is_empty() {
            // EOF: clean only if nothing of the line has arrived yet.
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Malformed("unexpected end of stream"));
        }
        // Up to and including the first newline, or all of it.
        let chunk = available
            .split_inclusive(|&b| b == b'\n')
            .next()
            .unwrap_or_default();
        let take = chunk.len();
        if line.len() + take > max + 2 {
            return Err(HttpError::TooLarge(what));
        }
        line.extend_from_slice(chunk);
        reader.consume(take);
        if line.ends_with(b"\n") {
            break;
        }
    }
    while matches!(line.last(), Some(b'\n' | b'\r')) {
        line.pop();
    }
    if line.len() > max {
        return Err(HttpError::TooLarge(what));
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| HttpError::Malformed("non-UTF-8 bytes in header section"))
}

/// Shared header-section reader: `(name, value)` pairs until the blank
/// line, with caps on line length and header count.
fn read_headers(reader: &mut impl BufRead) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line_bounded(reader, MAX_HEADER_LINE, "header line")? else {
            return Err(HttpError::Malformed("stream ended inside headers"));
        };
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge("too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header without ':'"));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed("invalid header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// Parses the `Content-Length` header (if any) against `max_body` and
/// reads exactly that many body bytes. RFC 9110 §8.6: the field appears
/// once and its value is `1*DIGIT` — a second header (even an identical
/// one) or a sign `usize::from_str` would take means the two ends can
/// disagree on where the body ends, so both are malformed.
fn read_body(
    reader: &mut impl BufRead,
    headers: &[(String, String)],
    max_body: usize,
) -> Result<Vec<u8>, HttpError> {
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Malformed("transfer-encoding not supported"));
    }
    let mut lengths = headers.iter().filter(|(k, _)| k == "content-length");
    let Some((_, len)) = lengths.next() else {
        return Ok(Vec::new());
    };
    if lengths.next().is_some() {
        return Err(HttpError::Malformed("repeated content-length"));
    }
    if !len.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::Malformed("invalid content-length"));
    }
    let len: usize = len
        .parse()
        .map_err(|_| HttpError::Malformed("invalid content-length"))?;
    if len > max_body {
        return Err(HttpError::BodyTooLarge);
    }
    if len == 0 {
        // Not even a `fill_buf`: on a keep-alive connection it would block.
        return Ok(Vec::new());
    }
    // The body grows with the bytes that arrive, so a peer that claims a
    // megabyte and sends ten bytes costs ten bytes, not the claim.
    let mut body = Vec::with_capacity(len.min(reader.fill_buf()?.len()));
    reader.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(HttpError::Malformed("body shorter than content-length"));
    }
    Ok(body)
}

/// Reads one request from a connection. `Ok(None)` is a clean end of the
/// keep-alive stream (EOF before any request byte).
pub fn read_request(
    reader: &mut impl BufRead,
    max_body: usize,
) -> Result<Option<Request>, HttpError> {
    let Some(line) = read_line_bounded(reader, MAX_REQUEST_LINE, "request line")? else {
        return Ok(None);
    };
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed("request line"));
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::Malformed("http version")),
    };
    if !matches!(method, "GET" | "POST") {
        // Drain the header section so an error response can be written
        // against a known stream position; the connection closes after.
        let _ = read_headers(reader);
        return Err(HttpError::UnsupportedMethod);
    }
    if target.is_empty() || !target.starts_with('/') {
        return Err(HttpError::Malformed("request target"));
    }
    let headers = read_headers(reader)?;
    let body = read_body(reader, &headers, max_body.min(MAX_BODY_BYTES))?;
    Ok(Some(Request {
        method: method.to_string(),
        target: target.to_string(),
        http11,
        headers,
        body,
    }))
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response with `Content-Length` framing.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let retry_after = if status == 429 {
        "Retry-After: 1\r\n"
    } else {
        ""
    };
    write!(
        writer,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n{retry_after}\r\n",
        reason(status),
        body.len(),
    )?;
    writer.write_all(body)?;
    writer.flush()
}

// ----- client side (benchmark/, server_wire.rs, examples/serve_http.rs) ----

/// Writes a request with optional JSON body.
pub fn write_request(
    writer: &mut impl Write,
    method: &str,
    target: &str,
    body: Option<&[u8]>,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    match body {
        Some(body) => {
            write!(
                writer,
                "{method} {target} HTTP/1.1\r\nHost: cnp\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
                body.len(),
            )?;
            writer.write_all(body)?;
        }
        None => {
            write!(
                writer,
                "{method} {target} HTTP/1.1\r\nHost: cnp\r\nConnection: {connection}\r\n\r\n",
            )?;
        }
    }
    writer.flush()
}

/// A response as seen by the client.
#[derive(Debug)]
pub struct ClientResponse {
    /// The status code.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Whether the server intends to keep the connection open.
    pub keep_alive: bool,
}

/// Reads one response from a connection; `Ok(None)` means the server
/// closed cleanly before a status line.
pub fn read_client_response(
    reader: &mut impl BufRead,
    max_body: usize,
) -> Result<Option<ClientResponse>, HttpError> {
    let Some(line) = read_line_bounded(reader, MAX_REQUEST_LINE, "status line")? else {
        return Ok(None);
    };
    let mut parts = line.splitn(3, ' ');
    let (Some(version), Some(status), _) = (parts.next(), parts.next(), parts.next()) else {
        return Err(HttpError::Malformed("status line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("http version"));
    }
    let status: u16 = status
        .parse()
        .map_err(|_| HttpError::Malformed("status code"))?;
    let headers = read_headers(reader)?;
    let body = read_body(reader, &headers, max_body)?;
    let keep_alive = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map_or(true, |(_, v)| !v.eq_ignore_ascii_case("close"));
    Ok(Some(ClientResponse {
        status,
        body,
        keep_alive,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(bytes), MAX_BODY_BYTES)
    }

    #[test]
    fn request_with_body_parses() {
        let req = parse(b"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/query");
        assert!(req.http11);
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive());
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let req = parse(b"GET /v1/health HTTP/1.1\nHost: x\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.target, "/v1/health");
        assert!(req.body.is_empty());
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn truncated_streams_are_malformed_not_panics() {
        // Every prefix of a valid request must parse to a typed error (or
        // clean EOF at offset 0), never panic.
        let full = b"POST /v1/query HTTP/1.1\r\nContent-Length: 5\r\nX-A: b\r\n\r\nhello";
        for cut in 1..full.len() {
            match parse(&full[..cut]) {
                Ok(None) | Err(_) => {}
                Ok(Some(_)) => {
                    assert_eq!(cut, full.len(), "prefix of {cut} bytes parsed as complete")
                }
            }
        }
        assert!(parse(full).unwrap().is_some());
    }

    #[test]
    fn hostile_requests_are_typed_errors() {
        let cases: &[(&[u8], &str)] = &[
            (b"GARBAGE\r\n\r\n", "no spaces"),
            (b"GET /\r\n\r\n", "missing version"),
            (b"GET / HTTP/2.0\r\n\r\n", "unsupported version"),
            (b"GET noslash HTTP/1.1\r\n\r\n", "target without slash"),
            (b"GET / HTTP/1.1 extra\r\n\r\n", "four-part request line"),
            (
                b"GET / HTTP/1.1\r\nbroken header\r\n\r\n",
                "header sans colon",
            ),
            (b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n", "space in name"),
            (b"GET / HTTP/1.1\r\n: empty\r\n\r\n", "empty name"),
            (
                b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
                "non-numeric length",
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                "negative length",
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
                "signed length",
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 50\r\n\r\n{}",
                "conflicting lengths",
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
                "repeated identical length",
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
                "body shorter than declared",
            ),
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                "chunked encoding",
            ),
            (b"GET / HTTP/1.1\r\nX: \xff\xfe\r\n\r\n", "non-UTF-8 header"),
        ];
        for (bytes, what) in cases {
            assert!(
                matches!(parse(bytes), Err(HttpError::Malformed(_))),
                "{what} not rejected as malformed"
            );
        }
    }

    #[test]
    fn oversized_inputs_are_too_large() {
        // Request line over the cap.
        let mut line = b"GET /".to_vec();
        line.extend(std::iter::repeat(b'a').take(MAX_REQUEST_LINE + 10));
        line.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert!(matches!(parse(&line), Err(HttpError::TooLarge(_))));

        // Declared body over the cap — rejected before allocation.
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", u64::MAX);
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(HttpError::Malformed(_)) | Err(HttpError::BodyTooLarge)
        ));
        let big = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(big.as_bytes()),
            Err(HttpError::BodyTooLarge)
        ));

        // Header flood over the count cap.
        let mut flood = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 5) {
            flood.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
        }
        flood.extend_from_slice(b"\r\n");
        assert!(matches!(parse(&flood), Err(HttpError::TooLarge(_))));

        // One endless header line over the line cap.
        let mut long = b"GET / HTTP/1.1\r\nX-Long: ".to_vec();
        long.extend(std::iter::repeat(b'a').take(MAX_HEADER_LINE + 10));
        long.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(parse(&long), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn per_server_body_cap_is_respected() {
        let req = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n";
        let mut reader = BufReader::new(&req[..]);
        assert!(matches!(
            read_request(&mut reader, 50),
            Err(HttpError::BodyTooLarge)
        ));
    }

    #[test]
    fn unsupported_methods_are_405_not_400() {
        assert!(matches!(
            parse(b"BREW /coffee HTTP/1.1\r\n\r\n"),
            Err(HttpError::UnsupportedMethod)
        ));
        assert!(matches!(
            parse(b"DELETE /v1/query HTTP/1.1\r\nHost: x\r\n\r\n"),
            Err(HttpError::UnsupportedMethod)
        ));
    }

    #[test]
    fn random_bytes_never_panic_the_parser() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..500 {
            let len = rng.gen_range(0usize..600);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
            let _ = parse(&bytes); // any Result is fine; a panic is not
        }
        // Mostly-valid mutations: flip bytes of a well-formed request.
        let good = b"POST /v1/query HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}".to_vec();
        for i in 0..good.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut mutated = good.clone();
                mutated[i] ^= flip;
                let _ = parse(&mutated);
            }
        }
    }

    #[test]
    fn response_round_trips_to_client_parser() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, br#"{"ok":true}"#, true).unwrap();
        let resp = read_client_response(&mut BufReader::new(&wire[..]), MAX_BODY_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, br#"{"ok":true}"#);
        assert!(resp.keep_alive);

        let mut wire = Vec::new();
        write_response(&mut wire, 429, b"{}", false).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.contains("Retry-After: 1"));
        let resp = read_client_response(&mut BufReader::new(&wire[..]), MAX_BODY_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(resp.status, 429);
        assert!(!resp.keep_alive);
    }

    #[test]
    fn request_writer_round_trips_to_request_parser() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/v1/query", Some(b"{}"), true).unwrap();
        let req = parse(&wire).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{}");
        assert!(req.keep_alive());

        let mut wire = Vec::new();
        write_request(&mut wire, "GET", "/v1/health", None, false).unwrap();
        let req = parse(&wire).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(!req.keep_alive());
    }
}
