//! The minimal HTTP/1.1 query plane.
//!
//! Deliberately tiny: `GET`-only, `Connection: close`, no chunking, no
//! keep-alive — a scrape/query surface, not a web server. Routes:
//!
//! | Route                  | Body                                    |
//! |------------------------|-----------------------------------------|
//! | `GET /healthz`         | `ok`                                    |
//! | `GET /metrics`         | `tagspin-metrics/v1` JSON               |
//! | `GET /stats`           | serve accounting JSON                   |
//! | `GET /drain`           | blocks until queues drain, then JSON    |
//! | `GET /fix/2d?antenna=N`| fix JSON or `{"error": …}` (status 409) |
//!
//! Fix coordinates are printed with Rust's shortest-roundtrip `f64`
//! formatting, so parsing them back yields bit-identical values — the
//! property the end-to-end equivalence test leans on.

use crate::daemon::{track, Shared};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Per-request time budget: the whole request head must arrive within it,
/// and each response write gets it too. Queries are loopback-fast;
/// anything slower is a wedged peer.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// The HTTP accept loop. One thread per request (queries are rare and
/// cheap; the ingest plane is where the volume is).
pub(crate) fn run_http(shared: &std::sync::Arc<Shared>, listener: &TcpListener) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = std::sync::Arc::clone(shared);
                track(
                    &mut handlers,
                    std::thread::spawn(move || handle_request(&shared, stream)),
                );
            }
            Err(_) => {
                if shared.stopping() {
                    break;
                }
            }
        }
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// Why no request head could be parsed from a connection.
#[derive(Debug, Clone, Copy)]
enum HeadError {
    /// The peer closed or reset the connection, or sent a head that is
    /// not UTF-8; nothing is answered.
    Dropped,
    /// The whole head did not arrive within [`REQUEST_TIMEOUT`]: 408.
    TimedOut,
    /// The head passed 8 KiB without its blank line: 431.
    TooLarge,
}

/// One `read` bounded by `deadline`: a `TimedOut` error once it passed.
fn read_by(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> std::io::Result<usize> {
    // A connection deadline is a socket timeout, not pipeline timing.
    #[allow(clippy::disallowed_methods)]
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(ErrorKind::TimedOut.into());
    }
    stream.set_read_timeout(Some(left))?;
    stream.read(buf)
}

/// Read the request head (start line + headers), at most 8 KiB, in
/// buffered chunks. `deadline` bounds the whole head, not each read, so a
/// peer trickling bytes cannot hold the handler thread.
fn read_head(stream: &mut TcpStream, deadline: Instant) -> Result<String, HeadError> {
    let mut head = [0u8; 8192];
    let mut len = 0;
    loop {
        if let Some(end) = head[..len].windows(4).position(|w| w == b"\r\n\r\n") {
            return String::from_utf8(head[..end + 4].to_vec()).map_err(|_| HeadError::Dropped);
        }
        if len == head.len() {
            return Err(HeadError::TooLarge);
        }
        match read_by(stream, &mut head[len..], deadline) {
            Ok(0) => return Err(HeadError::Dropped),
            Ok(n) => len += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(HeadError::TimedOut);
            }
            Err(_) => return Err(HeadError::Dropped),
        }
    }
}

/// Answer a refused head, then discard whatever the peer still sends
/// until it closes or `deadline` passes: closing with unread input would
/// reset the connection and could destroy the answer before it is read.
fn refuse(stream: &mut TcpStream, status: &str, body: &str, deadline: Instant) {
    respond(stream, status, "text/plain", body);
    let _ = stream.shutdown(Shutdown::Write);
    let mut sink = [0u8; 1024];
    while matches!(read_by(stream, &mut sink, deadline), Ok(n) if n > 0) {}
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn handle_request(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(REQUEST_TIMEOUT));
    // A connection deadline is a socket timeout, not pipeline timing.
    #[allow(clippy::disallowed_methods)]
    let deadline = Instant::now() + REQUEST_TIMEOUT;
    let head = match read_head(&mut stream, deadline) {
        Ok(head) => head,
        Err(HeadError::Dropped) => return,
        Err(HeadError::TimedOut) => {
            let body = "request head timed out\n";
            return refuse(&mut stream, "408 Request Timeout", body, deadline);
        }
        Err(HeadError::TooLarge) => {
            let body = "request head over 8 KiB\n";
            return refuse(
                &mut stream,
                "431 Request Header Fields Too Large",
                body,
                deadline,
            );
        }
    };
    let Some(start_line) = head.lines().next() else {
        return;
    };
    let mut parts = start_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => {
            respond(
                &mut stream,
                "400 Bad Request",
                "text/plain",
                "bad request\n",
            );
            return;
        }
    };
    if method != "GET" {
        respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
        return;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/healthz" => respond(&mut stream, "200 OK", "text/plain", "ok\n"),
        "/metrics" => {
            shared.metrics.scrapes.inc();
            shared.sync_store_metrics();
            let body = shared.registry.export_json();
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        "/stats" => {
            let body = shared.stats().to_json();
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        "/drain" => {
            shared.drain();
            let body = format!(
                "{{\"drained\": true, \"queued_batches\": {}}}",
                shared.stats().queued_batches
            );
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        "/fix/2d" => {
            let antenna = query.and_then(parse_antenna);
            let Some(antenna_id) = antenna else {
                respond(
                    &mut stream,
                    "400 Bad Request",
                    "application/json",
                    "{\"error\": \"missing or invalid antenna=<0-255> query parameter\"}",
                );
                return;
            };
            match shared.fix_2d(antenna_id) {
                Ok(fix) => {
                    let body = format!(
                        "{{\"antenna\": {antenna_id}, \"x\": {}, \"y\": {}, \"residual_m\": {}}}",
                        fix.position.x, fix.position.y, fix.residual_m,
                    );
                    respond(&mut stream, "200 OK", "application/json", &body);
                }
                Err(error) => {
                    let body = format!("{{\"error\": \"{}\"}}", escape_json(&error.to_string()));
                    respond(&mut stream, "409 Conflict", "application/json", &body);
                }
            }
        }
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain",
            "no such route\n",
        ),
    }
}

/// Extract `antenna=N` from a query string.
fn parse_antenna(query: &str) -> Option<u8> {
    query.split('&').find_map(|pair| {
        let (key, value) = pair.split_once('=')?;
        (key == "antenna").then(|| value.parse().ok())?
    })
}

/// Escape a message for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn antenna_query_parses_strictly() {
        assert_eq!(parse_antenna("antenna=3"), Some(3));
        assert_eq!(parse_antenna("foo=1&antenna=255"), Some(255));
        assert_eq!(parse_antenna("antenna=256"), None);
        assert_eq!(parse_antenna("antenna=-1"), None);
        assert_eq!(parse_antenna("antenna="), None);
        assert_eq!(parse_antenna("foo=3"), None);
    }

    #[test]
    fn json_escape_covers_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
