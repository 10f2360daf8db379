//! Serve-plane thread hygiene: the accept loops must not keep every
//! finished connection thread around until shutdown. A finished thread
//! that is never joined keeps its stack mapping (about 2 MiB of address
//! space), so a daemon answering a steady poll would grow without bound
//! and eventually abort at `vm.max_map_count`.
//!
//! Linux-only: the measurement reads `VmSize` from `/proc/self/status`.
//! The test lives in its own binary so no concurrently running test moves
//! the process's address space.
#![cfg(target_os = "linux")]

use tagspin::core::prelude::*;
use tagspin::serve::{http_get, ServeConfig, ServeDaemon};

/// The process's virtual address-space size, KiB.
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmSize:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmSize line")
}

#[test]
fn finished_http_threads_release_their_stacks() {
    let config = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let daemon = ServeDaemon::start(LocalizationServer::new(PipelineConfig::default()), &config)
        .expect("daemon boots on loopback");
    let addr = daemon.http_addr();
    let poll = |n: usize| {
        for _ in 0..n {
            let (status, body) = http_get(addr, "/healthz").expect("healthz answers");
            assert_eq!((status, body.as_str()), (200, "ok\n"));
        }
    };
    // Warm up with eight concurrent clients, so every allocator arena and
    // cached thread stack the sequential phase needs exists before the
    // first reading: glibc reserves 64 MiB of address space per arena and
    // adds one whenever more threads than ever before allocate at once.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| poll(25));
        }
    });
    let before = vm_size_kib();
    poll(2_000);
    let grown_mib = vm_size_kib().saturating_sub(before) / 1024;
    daemon.shutdown();
    assert!(
        grown_mib < 64,
        "2000 /healthz requests grew VmSize by {grown_mib} MiB"
    );
}
