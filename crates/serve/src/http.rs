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
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Per-request socket timeout: queries are loopback-fast; anything
/// slower is a wedged peer.
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

/// Read the request head (start line + headers) up to a sane cap.
fn read_head(stream: &mut TcpStream) -> Option<String> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while head.len() < 8192 {
        match stream.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) => head.push(byte[0]),
            Err(_) => return None,
        }
        if head.ends_with(b"\r\n\r\n") {
            return String::from_utf8(head).ok();
        }
    }
    None
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
    let _ = stream.set_read_timeout(Some(REQUEST_TIMEOUT));
    let _ = stream.set_write_timeout(Some(REQUEST_TIMEOUT));
    let Some(head) = read_head(&mut stream) else {
        return;
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
