//! HTTP plane hardening: the daemon's request-timeout budget covers the
//! whole request head and the head is capped at 8 KiB, so a slow or
//! oversized client gets a status line and frees its handler thread; a
//! head that arrives whole but cannot be parsed gets a 400.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tagspin::core::prelude::*;
use tagspin::serve::{http_get, ServeConfig, ServeDaemon};

/// The daemon's per-request budget (`REQUEST_TIMEOUT` in the serve
/// crate's HTTP module).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

fn boot() -> ServeDaemon {
    let config = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    ServeDaemon::start(LocalizationServer::new(PipelineConfig::default()), &config)
        .expect("daemon boots on loopback")
}

#[test]
fn trickled_head_is_cut_off_at_the_request_timeout() {
    let daemon = boot();
    let mut stream = TcpStream::connect(daemon.http_addr()).expect("connect");
    // One byte every 2 s: each read on the daemon's side returns well
    // inside the timeout, but the head never completes.
    let request = b"GET /healthz HTTP/1.1\r\nHost: tagspin\r\n\r\n";
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    // The test measures how long the daemon holds the connection.
    #[allow(clippy::disallowed_methods)]
    let start = Instant::now();
    let mut answer = Vec::new();
    let mut sent = 0;
    let closed = loop {
        if start.elapsed() > REQUEST_TIMEOUT + Duration::from_secs(2) {
            break false;
        }
        if stream.write_all(&request[sent..=sent]).is_err() {
            break true;
        }
        sent += 1;
        let mut buf = [0u8; 256];
        match stream.read(&mut buf) {
            Ok(0) => break true,
            Ok(n) => answer.extend_from_slice(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break true,
        }
        if answer.windows(2).any(|w| w == b"\r\n") {
            break true;
        }
    };
    let elapsed = start.elapsed();
    daemon.shutdown();
    let answer = String::from_utf8_lossy(&answer);
    assert!(
        closed,
        "after {elapsed:?} and {sent} trickled bytes the connection is still open"
    );
    assert!(
        answer.is_empty() || answer.starts_with("HTTP/1.1 408 "),
        "trickled head answered {answer:?}"
    );
    assert!(
        sent < request.len(),
        "the head completed before the cut-off"
    );
}

#[test]
fn oversized_head_gets_431() {
    let daemon = boot();
    let mut stream = TcpStream::connect(daemon.http_addr()).expect("connect");
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT + Duration::from_secs(2)))
        .expect("read timeout");
    let mut head = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    head.resize(9 * 1024, b'a');
    head.extend_from_slice(b"\r\n\r\n");
    stream.write_all(&head).expect("send head");
    let mut answer = String::new();
    let read = stream.read_to_string(&mut answer);
    // The daemon reads the rest of the head until this close, so the
    // answer is not reset away.
    drop(stream);
    daemon.shutdown();
    assert!(
        answer.starts_with("HTTP/1.1 431 "),
        "9 KiB head answered {answer:?} ({read:?})"
    );
}

#[test]
fn head_split_across_writes_is_reassembled() {
    let daemon = boot();
    let mut stream = TcpStream::connect(daemon.http_addr()).expect("connect");
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .expect("read timeout");
    for part in [
        &b"GET /heal"[..],
        b"thz HTTP/1.1\r\nHost: t",
        b"agspin\r\n",
        b"\r\n",
    ] {
        stream.write_all(part).expect("send part");
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut answer = String::new();
    stream.read_to_string(&mut answer).expect("read answer");
    assert!(answer.starts_with("HTTP/1.1 200 OK"), "{answer:?}");
    assert!(answer.ends_with("\r\n\r\nok\n"), "{answer:?}");
    // A well-formed one-shot request is unaffected.
    let (status, body) = http_get(daemon.http_addr(), "/healthz").expect("healthz answers");
    daemon.shutdown();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
}

#[test]
fn unparsable_heads_get_400() {
    let daemon = boot();
    // A head that is not UTF-8, and a start line without a target.
    for head in [
        &b"GET /fix/2d?antenna=\xff HTTP/1.1\r\n\r\n"[..],
        b"GET\r\n\r\n",
    ] {
        let mut stream = TcpStream::connect(daemon.http_addr()).expect("connect");
        stream
            .set_read_timeout(Some(REQUEST_TIMEOUT))
            .expect("read timeout");
        stream.write_all(head).expect("send head");
        let mut answer = String::new();
        let read = stream.read_to_string(&mut answer);
        assert!(
            answer.starts_with("HTTP/1.1 400 "),
            "{head:?} answered {answer:?} ({read:?})"
        );
    }
    daemon.shutdown();
}
