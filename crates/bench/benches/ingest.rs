//! Criterion benchmarks for the streaming session front-end: per-report
//! ingest cost and fix-refresh latency under bounded windows. The gated
//! `BENCH_ingest.json` artifact comes from `reproduce --bench ingest`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tagspin_bench::ingest_bench;
use tagspin_core::prelude::*;

fn bench_session_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_ingest");
    let (server, log) = ingest_bench::streaming_fixture(0.5, 7);
    for (label, window) in [
        ("unbounded", WindowConfig::unbounded()),
        ("last_256", WindowConfig::last_reports(256)),
    ] {
        group.bench_with_input(BenchmarkId::new("drain_log", label), &window, |b, &w| {
            b.iter(|| {
                let mut session = server.session(w);
                for report in log.stream() {
                    session.ingest(black_box(report));
                }
                session.stats().buffered
            })
        });
    }
    group.finish();
}

fn bench_fix_refresh(c: &mut Criterion) {
    // A warm session whose streams stay clean between samples: the first
    // fix computes, later ones hit the per-tag caches.
    let mut group = c.benchmark_group("session_fix");
    group.sample_size(10);
    let (server, log) = ingest_bench::streaming_fixture(0.5, 7);
    let mut session = server.session(WindowConfig::unbounded());
    for report in log.stream() {
        session.ingest(report);
    }
    group.bench_function("fix_2d_cached", |b| b.iter(|| session.fix_2d()));
    group.finish();
}

criterion_group!(benches, bench_session_ingest, bench_fix_refresh);

criterion_main!(benches);
