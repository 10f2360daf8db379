//! Criterion benchmarks for the observability layer: the streaming-ingest
//! fixture under the disabled (`NullObserver`), `MetricsObserver` and
//! `RecordingObserver` arms. The gated `BENCH_obs.json` artifact comes from
//! `reproduce --bench obs`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use tagspin_bench::ingest_bench;
use tagspin_core::prelude::*;

fn bench_observer_arms(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_ingest");
    let (server, log) = ingest_bench::streaming_fixture(0.5, 7);
    let arms: [(&str, Option<Arc<dyn Observer>>); 3] = [
        ("null", None),
        (
            "metrics",
            Some(Arc::new(MetricsObserver::new(Arc::new(
                MetricsRegistry::new(),
            )))),
        ),
        ("recording", Some(Arc::new(RecordingObserver::new()))),
    ];
    for (label, observer) in arms {
        group.bench_with_input(BenchmarkId::new("drain_log", label), &observer, |b, obs| {
            b.iter(|| {
                let mut session = server.session(WindowConfig::last_reports(512));
                if let Some(obs) = obs {
                    session.set_observer(Arc::clone(obs));
                }
                for report in log.stream() {
                    session.ingest(black_box(report));
                }
                session.stats().buffered
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_observer_arms);

criterion_main!(benches);
