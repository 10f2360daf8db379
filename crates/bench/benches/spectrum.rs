//! Criterion benchmarks for the angle-spectrum kernels (Figs. 1, 6, 8):
//! the computational heart of Tagspin. The gated `BENCH_spectrum.json`
//! artifact comes from `reproduce --bench spectrum`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tagspin_bench::synthetic_snapshots;
use tagspin_core::spectrum::engine::{SpectrumEngine, SpectrumEngineConfig};
use tagspin_core::spectrum::{spectrum_2d, spectrum_3d, ProfileKind, SpectrumConfig};
use tagspin_geom::Vec3;

fn bench_spectrum_2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("spectrum_2d");
    let reader = Vec3::new(-0.8, 1.5, 0.0);
    for &n in &[100usize, 400, 1600] {
        let set = synthetic_snapshots(reader, n);
        let cfg = SpectrumConfig::default();
        group.bench_with_input(BenchmarkId::new("traditional", n), &set, |b, set| {
            b.iter(|| spectrum_2d(black_box(set), 0.1, ProfileKind::Traditional, &cfg))
        });
        group.bench_with_input(BenchmarkId::new("enhanced", n), &set, |b, set| {
            b.iter(|| spectrum_2d(black_box(set), 0.1, ProfileKind::Enhanced, &cfg))
        });
    }
    group.finish();
}

fn bench_spectrum_3d(c: &mut Criterion) {
    let mut group = c.benchmark_group("spectrum_3d");
    group.sample_size(10);
    let reader = Vec3::new(-0.8, 1.5, 0.6);
    let set = synthetic_snapshots(reader, 400);
    let cfg = SpectrumConfig {
        azimuth_steps: 360,
        polar_steps: 61,
        ..SpectrumConfig::default()
    };
    group.bench_function("traditional_400", |b| {
        b.iter(|| spectrum_3d(black_box(&set), 0.1, ProfileKind::Traditional, &cfg))
    });
    group.bench_function("enhanced_400", |b| {
        b.iter(|| spectrum_3d(black_box(&set), 0.1, ProfileKind::Enhanced, &cfg))
    });
    group.finish();
}

fn bench_grid_resolution(c: &mut Criterion) {
    // How the azimuth grid trades cost for resolution (fig6 sweep).
    let mut group = c.benchmark_group("spectrum_grid");
    let set = synthetic_snapshots(Vec3::new(-0.8, 0.0, 0.0), 400);
    for &steps in &[180usize, 360, 720, 1440] {
        let cfg = SpectrumConfig {
            azimuth_steps: steps,
            ..SpectrumConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(steps), &cfg, |b, cfg| {
            b.iter(|| spectrum_2d(black_box(&set), 0.1, ProfileKind::Enhanced, cfg))
        });
    }
    group.finish();
}

fn bench_engine_peaks(c: &mut Criterion) {
    // Coarse-to-fine engine versus the exhaustive reference, criterion view
    // (the JSON artifact re-measures the same cases via spectrum_bench).
    let mut group = c.benchmark_group("spectrum_engine");
    group.sample_size(10);
    let set = synthetic_snapshots(Vec3::new(-0.8, 1.5, 0.0), 400);
    let ecfg = SpectrumEngineConfig::default();
    let exhaustive = SpectrumEngineConfig {
        exhaustive: true,
        ..ecfg
    };
    for &steps in &[360usize, 720] {
        let cfg = SpectrumConfig {
            azimuth_steps: steps,
            ..SpectrumConfig::default()
        };
        let engine = SpectrumEngine::new(&ecfg);
        group.bench_with_input(BenchmarkId::new("fast_2d", steps), &cfg, |b, cfg| {
            b.iter(|| engine.peak_2d(black_box(&set), 0.1, ProfileKind::Hybrid, cfg, &ecfg))
        });
        group.bench_with_input(BenchmarkId::new("exhaustive_2d", steps), &cfg, |b, cfg| {
            b.iter(|| engine.peak_2d(black_box(&set), 0.1, ProfileKind::Hybrid, cfg, &exhaustive))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_spectrum_2d,
    bench_spectrum_3d,
    bench_grid_resolution,
    bench_engine_peaks
);

criterion_main!(benches);
