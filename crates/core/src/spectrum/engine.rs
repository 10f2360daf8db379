//! Coarse-to-fine parallel spectrum engine.
//!
//! The reference evaluators in [`crate::spectrum`] re-derive every steering
//! term `cᵢ(φ, γ)` for every (candidate × snapshot) pair on the full grid —
//! simple, exact, and the hot path of every localization trial. This module
//! wraps the same profile kernel (`profile_power`) in three
//! orthogonal accelerations:
//!
//! 1. **Steering-table cache.** The candidate-grid trigonometry
//!    (`cos φ`, `sin φ`, `cos γ`, `sin γ`) depends only on the disk geometry
//!    and the grid resolution, so it is precomputed once per
//!    ([`DiskConfig`], grid) pair and kept in a bounded LRU shared by all
//!    clones of the engine. Per-snapshot terms are folded into an *aperture*
//!    decomposition `aₓᵢ = k_rᵢ·uₓ(βᵢ)` (etc.), turning each steering term
//!    into `cos γ·(aₓᵢ·cos φ + a_yᵢ·sin φ) + sin γ·a_zᵢ` — no `cos` in the
//!    inner loop.
//! 2. **Coarse-to-fine search.** When only the peak is needed, a coarse
//!    pass (~5°) detects the main lobe(s) and a fine pass evaluates only a
//!    window around them — the same detect-then-refine rationale as
//!    [`ProfileKind::Hybrid`]. Unevaluated cells are masked with `−∞`, so
//!    the *identical* peak-refinement code of the reference path runs on
//!    the sparse spectrum.
//! 3. **Threaded fan-out.** Candidate evaluation is chunked across scoped
//!    threads (the same `crossbeam::thread::scope` pattern `sim::sweep`
//!    uses), gated behind a work threshold so nested use inside sweep
//!    workers does not oversubscribe the machine.
//!
//! [`SpectrumEngineConfig::exhaustive`] is the escape hatch: it routes every
//! call through the original full-grid free functions, bit-identical to the
//! reference, which is how the golden fixtures are generated and what the
//! conformance suite compares the fast path against (see
//! `docs/SPECTRUM_ENGINE.md`).

use super::{
    prepare, profile_power, spectrum_2d, spectrum_3d, spectrum_3d_for_disk, Likelihood, Prepared,
    ProfileKind, Scratch, Spectrum2D, Spectrum3D, SpectrumConfig,
};
use crate::obs::{Event, ObsHandle, Observer, Stage};
use crate::snapshot::SnapshotSet;
use crate::spinning::{DiskConfig, DiskPlane};
use serde::{Deserialize, Serialize};
use std::f64::consts::{FRAC_PI_2, PI, TAU};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use tagspin_dsp::peak::{self, PeakEstimate};
use tagspin_geom::angle;
use tagspin_geom::vec3::Direction3;

/// Tuning knobs of the [`SpectrumEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SpectrumEngineConfig {
    /// Force the original full-grid reference path (bit-identical to the
    /// free functions in [`crate::spectrum`]). The escape hatch for golden
    /// fixture generation and conformance testing.
    pub exhaustive: bool,
}

/// Steering-table LRU capacity in entries. One entry per distinct (disk
/// geometry, grid resolution) pair.
const CACHE_CAPACITY: usize = 32;

/// Coarse detection grid step, degrees. The coarse pass samples a
/// stride-subset of the fine grid, so every coarse evaluation is reused by
/// the fine pass.
const COARSE_STEP_DEG: f64 = 5.0;

/// Half-width of the fine refinement window around each detected lobe,
/// degrees (the hybrid profile's refinement window).
const REFINE_HALF_WIDTH_DEG: f64 = 10.0;

/// Number of strongest coarse local maxima refined by the fine pass. More
/// lobes is safer against a sharp main lobe slipping between coarse
/// samples; fewer is faster.
const MAX_LOBES: usize = 3;

/// Steering-table cache counters (see [`SpectrumEngine::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Table lookups served from the cache.
    pub hits: u64,
    /// Table lookups that had to build a new table.
    pub misses: u64,
    /// Tables currently resident.
    pub entries: usize,
}

/// Precomputed candidate-grid trigonometry. A 720×91 table builds in
/// microseconds; the LRU keeps it off the per-call path.
#[derive(Debug)]
struct SteeringTable {
    cos_phi: Vec<f64>,
    sin_phi: Vec<f64>,
    cos_gamma: Vec<f64>,
    sin_gamma: Vec<f64>,
}

impl SteeringTable {
    /// Build the table for a grid from first principles: azimuth nodes
    /// over `[0, 2π)`, polar nodes over `[-π/2, π/2]`.
    fn build(azimuth_steps: usize, polar_steps: usize) -> Self {
        let mut cos_phi = Vec::with_capacity(azimuth_steps);
        let mut sin_phi = Vec::with_capacity(azimuth_steps);
        for i in 0..azimuth_steps {
            // lint:allow(lossy-cast) azimuth index and step count are < 2^32, exact in f64
            let phi = i as f64 * TAU / azimuth_steps as f64;
            cos_phi.push(phi.cos());
            sin_phi.push(phi.sin());
        }
        let mut cos_gamma = Vec::with_capacity(polar_steps);
        let mut sin_gamma = Vec::with_capacity(polar_steps);
        for j in 0..polar_steps {
            // lint:allow(lossy-cast) polar index and step count are < 2^32, exact in f64
            let gamma = -FRAC_PI_2 + j as f64 * PI / (polar_steps - 1) as f64;
            cos_gamma.push(gamma.cos());
            sin_gamma.push(gamma.sin());
        }
        SteeringTable {
            cos_phi,
            sin_phi,
            cos_gamma,
            sin_gamma,
        }
    }
}

/// Identity of one steering table in the LRU: disk geometry + grid
/// resolution, compared bit-exactly.
///
/// Deliberately over-keyed: the trigonometry itself depends only on the
/// grid, but keying on the full disk geometry keeps the semantics aligned
/// with "one table per (`DiskConfig`, grid)", at the cost of at most a few
/// duplicate entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TableId {
    /// `f64::to_bits` of the track radius, meters.
    radius_bits: u64,
    /// `f64::to_bits` of the angular velocity (zero for plain-radius keys).
    omega_bits: u64,
    /// `f64::to_bits` of the initial tag angle (zero for plain-radius keys).
    initial_angle_bits: u64,
    /// 0 = horizontal / plain-radius call, 1 = vertical.
    plane: u8,
    /// `f64::to_bits` of the vertical plane's normal azimuth (else zero).
    normal_azimuth_bits: u64,
    /// Azimuth grid size over `[0, 2π)`.
    azimuth_steps: usize,
    /// Polar grid size over `[-π/2, π/2]`.
    polar_steps: usize,
}

impl TableId {
    /// The id used by plain-radius (2D and horizontal-3D) evaluations:
    /// only the radius and grid matter, the motion fields are zeroed.
    fn for_radius(radius: f64, cfg: &SpectrumConfig) -> Self {
        TableId {
            radius_bits: radius.to_bits(),
            omega_bits: 0,
            initial_angle_bits: 0,
            plane: 0,
            normal_azimuth_bits: 0,
            azimuth_steps: cfg.azimuth_steps,
            polar_steps: cfg.polar_steps,
        }
    }

    /// The id used by arbitrary-orientation (`for_disk`) evaluations:
    /// keyed on the full disk geometry.
    fn for_disk(disk: &DiskConfig, cfg: &SpectrumConfig) -> Self {
        let (plane, normal_azimuth_bits) = match disk.plane {
            DiskPlane::Horizontal => (0, 0),
            DiskPlane::Vertical { normal_azimuth } => (1, normal_azimuth.to_bits()),
        };
        TableId {
            radius_bits: disk.radius.to_bits(),
            omega_bits: disk.omega.to_bits(),
            initial_angle_bits: disk.initial_angle.to_bits(),
            plane,
            normal_azimuth_bits,
            azimuth_steps: cfg.azimuth_steps,
            polar_steps: cfg.polar_steps,
        }
    }
}

/// Move-to-front LRU of steering tables.
#[derive(Debug)]
struct TableCache {
    entries: Vec<(TableId, Arc<SteeringTable>)>,
    capacity: usize,
}

/// Per-snapshot steering decomposition: `steerᵢ(φ, γ) =
/// cos γ·(axᵢ·cos φ + ayᵢ·sin φ) + sin γ·azᵢ` with `a = k_r·u(βᵢ)`.
struct Aperture {
    ax: Vec<f64>,
    ay: Vec<f64>,
    az: Vec<f64>,
}

impl Aperture {
    /// Horizontal-disk aperture: `u(β) = (cos β, sin β, 0)`.
    fn horizontal(p: &Prepared) -> Self {
        let n = p.beta.len();
        let mut ax = Vec::with_capacity(n);
        let mut ay = Vec::with_capacity(n);
        for i in 0..n {
            ax.push(p.k_r[i] * p.beta[i].cos());
            ay.push(p.k_r[i] * p.beta[i].sin());
        }
        Aperture {
            ax,
            ay,
            az: vec![0.0; n],
        }
    }

    /// Arbitrary-orientation aperture from [`DiskConfig::radial`].
    fn for_disk(p: &Prepared, disk: &DiskConfig) -> Self {
        let n = p.beta.len();
        let mut ax = Vec::with_capacity(n);
        let mut ay = Vec::with_capacity(n);
        let mut az = Vec::with_capacity(n);
        for i in 0..n {
            let u = disk.radial(p.beta[i]);
            ax.push(p.k_r[i] * u.x);
            ay.push(p.k_r[i] * u.y);
            az.push(p.k_r[i] * u.z);
        }
        Aperture { ax, ay, az }
    }
}

/// Everything one candidate evaluation needs, shared read-only by workers.
struct EvalContext<'a> {
    p: &'a Prepared,
    ap: &'a Aperture,
    table: &'a SteeringTable,
    kind: ProfileKind,
    likelihood: Likelihood,
    azimuth_steps: usize,
    three_d: bool,
}

impl EvalContext<'_> {
    /// Power at linear cell index `cell` (2D: azimuth index; 3D: row-major
    /// `[polar][azimuth]`), using the worker's `scratch`.
    fn value_at(&self, cell: usize, scratch: &mut Scratch) -> f64 {
        let (az_idx, cg, sg) = if self.three_d {
            let po = cell / self.azimuth_steps;
            (
                cell % self.azimuth_steps,
                self.table.cos_gamma[po],
                self.table.sin_gamma[po],
            )
        } else {
            (cell, 1.0, 0.0)
        };
        let (cp, sp) = (self.table.cos_phi[az_idx], self.table.sin_phi[az_idx]);
        for (i, s) in scratch.steer.iter_mut().enumerate() {
            *s = cg * (self.ap.ax[i] * cp + self.ap.ay[i] * sp) + sg * self.ap.az[i];
        }
        profile_power(self.p, scratch, self.kind, self.likelihood)
    }
}

/// Below this many (cell × snapshot) kernel evaluations a call always runs
/// serially, so engines nested inside already-parallel sweep workers do not
/// oversubscribe the machine.
const PAR_MIN_WORK: usize = 65_536;

/// Evaluate `cells` into `values` (which must be pre-sized to the full
/// grid), fanning out across up to `workers` scoped threads when the work
/// is large enough.
fn eval_cells(ctx: &EvalContext<'_>, workers: usize, cells: &[usize], values: &mut [f64]) {
    let n = ctx.p.beta.len();
    let workers = workers.min(cells.len());
    if workers <= 1 || cells.len().saturating_mul(n) < PAR_MIN_WORK {
        let mut scratch = Scratch::new(ctx.p);
        for &c in cells {
            values[c] = ctx.value_at(c, &mut scratch);
        }
        return;
    }
    let chunk_len = cells.len().div_ceil(workers);
    let chunks: Vec<&[usize]> = cells.chunks(chunk_len).collect();
    let buffers: Vec<Vec<f64>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|&chunk| {
                scope.spawn(move |_| {
                    let mut scratch = Scratch::new(ctx.p);
                    chunk
                        .iter()
                        .map(|&c| ctx.value_at(c, &mut scratch))
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // Workers run pure arithmetic; a panic there is a bug worth
                // surfacing, exactly as in sim::sweep.
                // lint:allow(no-panic) see above
                h.join().expect("spectrum worker panicked")
            })
            .collect()
    })
    // lint:allow(no-panic) same contract as the join above
    .expect("spectrum worker panicked");
    for (chunk, buffer) in chunks.iter().zip(&buffers) {
        for (&c, &v) in chunk.iter().zip(buffer) {
            values[c] = v;
        }
    }
}

/// Fan-out width for candidate evaluation: the host's available
/// parallelism.
fn auto_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Coarse stride over a fine grid: the largest stride not exceeding
/// `step_deg`, so the coarse pass is a strict subset of the fine grid and
/// every coarse evaluation is reused.
fn coarse_stride(steps: usize, span_deg: f64, step_deg: f64) -> usize {
    // lint:allow(lossy-cast) grid sizes are < 2^32; ratio is small and non-negative
    let s = (steps as f64 * step_deg / span_deg).floor() as usize;
    s.clamp(1, steps)
}

/// The coarse-to-fine spectrum evaluator.
///
/// Cheap to clone: clones share the steering-table cache and its hit/miss
/// counters. The engine itself holds no per-call configuration — every
/// method takes the [`SpectrumConfig`] and [`SpectrumEngineConfig`]
/// explicitly, so callers that mutate their configs (e.g.
/// [`crate::server::LocalizationServer`]'s public `config` field) stay
/// authoritative.
#[derive(Debug, Clone)]
pub struct SpectrumEngine {
    cache: Arc<Mutex<TableCache>>,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
    /// Observability sink; [`crate::obs::NullObserver`] by default, so the
    /// instrumentation points below cost one predictable branch each.
    obs: ObsHandle,
    /// Cumulative coarse-pass nanoseconds. Like the cache counters, this
    /// is engine-wide and shared across clones; it only advances while an
    /// enabled observer is attached (the disabled path never reads the
    /// clock, keeping stage times deterministic zeros).
    coarse_ns: Arc<AtomicU64>,
    /// Cumulative fine-pass nanoseconds (same sharing and gating as
    /// `coarse_ns`).
    fine_ns: Arc<AtomicU64>,
}

impl Default for SpectrumEngine {
    fn default() -> Self {
        SpectrumEngine::new()
    }
}

impl SpectrumEngine {
    /// An engine with a steering-table cache of 32 entries.
    pub fn new() -> Self {
        SpectrumEngine::with_capacity(CACHE_CAPACITY)
    }

    /// An engine whose steering-table cache holds `capacity` entries
    /// (clamped to at least one).
    fn with_capacity(capacity: usize) -> Self {
        SpectrumEngine {
            cache: Arc::new(Mutex::new(TableCache {
                entries: Vec::new(),
                capacity: capacity.max(1),
            })),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
            obs: ObsHandle::null(),
            coarse_ns: Arc::new(AtomicU64::new(0)),
            fine_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Attach an observer. Clones made *after* this call share it;
    /// pre-existing clones keep their previous handle.
    pub fn set_observer(&mut self, observer: Arc<dyn Observer>) {
        self.obs = ObsHandle::new(observer);
    }

    /// Warm the LRU for the plain-radius table used by 2D and
    /// horizontal-3D evaluations.
    pub fn prewarm_radius(&self, radius: f64, cfg: &SpectrumConfig) {
        let _ = self.table(TableId::for_radius(radius, cfg));
    }

    /// Warm the LRU for the full-geometry table used by `for_disk`
    /// evaluations.
    pub fn prewarm_disk(&self, disk: &DiskConfig, cfg: &SpectrumConfig) {
        let _ = self.table(TableId::for_disk(disk, cfg));
    }

    /// The engine's observer handle (cloned by sessions built from it).
    pub fn observer(&self) -> &ObsHandle {
        &self.obs
    }

    /// Cumulative (coarse, fine) peak-search pass nanoseconds since
    /// construction, shared across clones like [`CacheStats`]. Both stay
    /// zero unless an enabled observer is attached — the disabled path
    /// never reads the clock.
    pub fn stage_ns(&self) -> (u64, u64) {
        // ordering: relaxed — independent monotonic tallies, no cross-counter consistency needed
        let coarse = self.coarse_ns.load(Ordering::Relaxed);
        // ordering: relaxed — same as coarse_ns above
        let fine = self.fine_ns.load(Ordering::Relaxed);
        (coarse, fine)
    }

    /// [`eval_cells`] wrapped in a stage timer: accumulates into the
    /// engine-wide coarse/fine counters and emits [`Event::StageTime`]
    /// when an observer is enabled, and is exactly `eval_cells` otherwise.
    fn timed_eval(&self, stage: Stage, ctx: &EvalContext<'_>, cells: &[usize], values: &mut [f64]) {
        let t0 = self.obs.clock_start();
        eval_cells(ctx, auto_workers(), cells, values);
        if let Some(t0) = t0 {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let counter = match stage {
                Stage::Coarse => &self.coarse_ns,
                _ => &self.fine_ns,
            };
            // ordering: relaxed — monotonic accumulation; readers tolerate any interleaving
            counter.fetch_add(nanos, Ordering::Relaxed);
            self.obs.emit(|| Event::StageTime { stage, nanos });
        }
    }

    /// Steering-table cache counters since construction.
    pub fn cache_stats(&self) -> CacheStats {
        let entries = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .len();
        CacheStats {
            // ordering: relaxed — approximate counters; no ordering with entries.len() needed
            hits: self.hits.load(Ordering::Relaxed),
            // ordering: relaxed — approximate counters; no ordering with entries.len() needed
            misses: self.misses.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Cache lookup: under the lock, find `key` and touch it to the LRU
    /// head. Counter updates and observer emission happen in [`Self::table`]
    /// after the guard drops, keeping the critical section free of callouts.
    fn lookup(&self, key: &TableId) -> Option<Arc<SteeringTable>> {
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let pos = cache.entries.iter().position(|(k, _)| *k == *key)?;
        let entry = cache.entries.remove(pos);
        let table = Arc::clone(&entry.1);
        cache.entries.insert(0, entry);
        Some(table)
    }

    /// Cache insert: under a fresh lock, re-check for a racing insert of
    /// the same key (the first cached table wins, so clones sharing the
    /// cache agree on one instance), then insert at the LRU head and
    /// truncate to capacity.
    fn insert(&self, key: TableId, table: Arc<SteeringTable>) -> Arc<SteeringTable> {
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = cache.entries.iter().position(|(k, _)| *k == key) {
            let entry = cache.entries.remove(pos);
            let cached = Arc::clone(&entry.1);
            cache.entries.insert(0, entry);
            return cached;
        }
        cache.entries.insert(0, (key, Arc::clone(&table)));
        let cap = cache.capacity;
        cache.entries.truncate(cap);
        table
    }

    /// The steering table for `key`: cached, or built outside the cache
    /// lock and inserted. Two racing misses may both build (and both count
    /// a miss); [`Self::insert`] keeps the first table. The table build and
    /// every observer callout run without the guard held.
    fn table(&self, key: TableId) -> Arc<SteeringTable> {
        if let Some(table) = self.lookup(&key) {
            // ordering: relaxed — monotonic tally read only via cache_stats snapshots
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.obs.emit(|| Event::CacheLookup { hit: true });
            return table;
        }
        // ordering: relaxed — monotonic tally read only via cache_stats snapshots
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.obs.emit(|| Event::CacheLookup { hit: false });
        let table = Arc::new(SteeringTable::build(key.azimuth_steps, key.polar_steps));
        self.insert(key, table)
    }

    fn check(set: &SnapshotSet, cfg: &SpectrumConfig) {
        assert!(
            !set.is_empty(),
            "cannot compute a spectrum from zero snapshots"
        );
        // lint:allow(no-panic) documented precondition: callers validate configs
        cfg.validate().expect("invalid spectrum config");
    }

    // ------------------------------------------------------------------
    // Full-grid spectra (table + thread accelerated; `exhaustive` routes
    // to the reference free functions).
    // ------------------------------------------------------------------

    /// Full-grid 2D spectrum.
    ///
    /// # Panics
    ///
    /// Same conditions as [`crate::spectrum::spectrum_2d`].
    pub fn spectrum_2d(
        &self,
        set: &SnapshotSet,
        radius: f64,
        kind: ProfileKind,
        cfg: &SpectrumConfig,
        ecfg: &SpectrumEngineConfig,
    ) -> Spectrum2D {
        if ecfg.exhaustive {
            return spectrum_2d(set, radius, kind, cfg);
        }
        Self::check(set, cfg);
        let p = prepare(set, radius, cfg);
        let ap = Aperture::horizontal(&p);
        let table = self.table(TableId::for_radius(radius, cfg));
        let ctx = EvalContext {
            p: &p,
            ap: &ap,
            table: &table,
            kind,
            likelihood: Likelihood::new(cfg),
            azimuth_steps: cfg.azimuth_steps,
            three_d: false,
        };
        let cells: Vec<usize> = (0..cfg.azimuth_steps).collect();
        let mut values = vec![f64::NEG_INFINITY; cfg.azimuth_steps];
        eval_cells(&ctx, auto_workers(), &cells, &mut values);
        Spectrum2D { values }
    }

    /// Full-grid 3D spectrum (horizontal disk, Eqn 11 steering).
    ///
    /// # Panics
    ///
    /// Same conditions as [`SpectrumEngine::spectrum_2d`].
    pub fn spectrum_3d(
        &self,
        set: &SnapshotSet,
        radius: f64,
        kind: ProfileKind,
        cfg: &SpectrumConfig,
        ecfg: &SpectrumEngineConfig,
    ) -> Spectrum3D {
        if ecfg.exhaustive {
            return spectrum_3d(set, radius, kind, cfg);
        }
        Self::check(set, cfg);
        let p = prepare(set, radius, cfg);
        let ap = Aperture::horizontal(&p);
        self.full_3d(&p, ap, TableId::for_radius(radius, cfg), kind, cfg)
    }

    /// Full-grid 3D spectrum for a disk of any orientation.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SpectrumEngine::spectrum_2d`], plus an invalid
    /// `disk`.
    pub fn spectrum_3d_for_disk(
        &self,
        set: &SnapshotSet,
        disk: &DiskConfig,
        kind: ProfileKind,
        cfg: &SpectrumConfig,
        ecfg: &SpectrumEngineConfig,
    ) -> Spectrum3D {
        if ecfg.exhaustive {
            return spectrum_3d_for_disk(set, disk, kind, cfg);
        }
        Self::check(set, cfg);
        // lint:allow(no-panic) documented precondition: callers validate configs
        disk.validate().expect("invalid disk config");
        let p = prepare(set, disk.radius, cfg);
        let ap = Aperture::for_disk(&p, disk);
        self.full_3d(&p, ap, TableId::for_disk(disk, cfg), kind, cfg)
    }

    fn full_3d(
        &self,
        p: &Prepared,
        ap: Aperture,
        key: TableId,
        kind: ProfileKind,
        cfg: &SpectrumConfig,
    ) -> Spectrum3D {
        let table = self.table(key);
        let ctx = EvalContext {
            p,
            ap: &ap,
            table: &table,
            kind,
            likelihood: Likelihood::new(cfg),
            azimuth_steps: cfg.azimuth_steps,
            three_d: true,
        };
        let total = cfg.azimuth_steps * cfg.polar_steps;
        let cells: Vec<usize> = (0..total).collect();
        let mut values = vec![f64::NEG_INFINITY; total];
        eval_cells(&ctx, auto_workers(), &cells, &mut values);
        Spectrum3D {
            azimuth_steps: cfg.azimuth_steps,
            polar_steps: cfg.polar_steps,
            values,
        }
    }

    // ------------------------------------------------------------------
    // Coarse-to-fine peaks.
    // ------------------------------------------------------------------

    /// Bearing peak of the 2D spectrum, via coarse-to-fine search (or the
    /// reference full-grid path when `ecfg.exhaustive`).
    ///
    /// For [`ProfileKind::Hybrid`] this runs the enhanced detection pass
    /// and then refines with the traditional profile inside a ±10° window,
    /// exactly as [`crate::server::LocalizationServer`] historically did on
    /// full grids.
    ///
    /// Returns `None` only for degenerate (< 3 azimuth cell) grids.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SpectrumEngine::spectrum_2d`].
    pub fn peak_2d(
        &self,
        set: &SnapshotSet,
        radius: f64,
        kind: ProfileKind,
        cfg: &SpectrumConfig,
        ecfg: &SpectrumEngineConfig,
    ) -> Option<PeakEstimate> {
        if ecfg.exhaustive {
            return Self::exhaustive_peak_2d(|k| spectrum_2d(set, radius, k, cfg), kind);
        }
        Self::check(set, cfg);
        let p = prepare(set, radius, cfg);
        let ap = Aperture::horizontal(&p);
        let table = self.table(TableId::for_radius(radius, cfg));
        let ctx = |k| EvalContext {
            p: &p,
            ap: &ap,
            table: &table,
            kind: k,
            likelihood: Likelihood::new(cfg),
            azimuth_steps: cfg.azimuth_steps,
            three_d: false,
        };
        match kind {
            ProfileKind::Traditional | ProfileKind::Enhanced => {
                self.sparse_peak_2d(&ctx(kind), cfg)
            }
            ProfileKind::Hybrid => {
                let detect = self.sparse_peak_2d(&ctx(ProfileKind::Hybrid), cfg)?;
                let half_width = REFINE_HALF_WIDTH_DEG.to_radians();
                let n_az = cfg.azimuth_steps;
                // Evaluate the traditional profile on exactly the window
                // `constrained_peak` will consider; everything else stays
                // masked at −∞, as the reference mask does.
                let cells: Vec<usize> = (0..n_az)
                    .filter(|&i| {
                        // lint:allow(lossy-cast) bin index and count are < 2^32, exact in f64
                        let az = i as f64 * TAU / n_az as f64;
                        angle::separation(az, detect.position) <= half_width
                    })
                    .collect();
                let mut values = vec![f64::NEG_INFINITY; n_az];
                self.timed_eval(
                    Stage::Fine,
                    &ctx(ProfileKind::Traditional),
                    &cells,
                    &mut values,
                );
                let refined = Spectrum2D { values };
                Some(
                    refined
                        .constrained_peak(detect.position, half_width)
                        .unwrap_or(detect),
                )
            }
        }
    }

    /// Peak of the reference full-grid 2D path (also reused by
    /// [`super::incremental`], whose reductions stand in for the free
    /// functions): single-profile peaks directly, hybrid detect + refine.
    pub(crate) fn exhaustive_peak_2d(
        spectrum_of: impl Fn(ProfileKind) -> Spectrum2D,
        kind: ProfileKind,
    ) -> Option<PeakEstimate> {
        let spec = spectrum_of(kind);
        match kind {
            ProfileKind::Traditional | ProfileKind::Enhanced => spec.peak(),
            ProfileKind::Hybrid => {
                let detect = spec.peak()?;
                let refined = spectrum_of(ProfileKind::Traditional);
                Some(
                    refined
                        .constrained_peak(detect.position, REFINE_HALF_WIDTH_DEG.to_radians())
                        .unwrap_or(detect),
                )
            }
        }
    }

    /// Coarse-to-fine single-profile 2D peak: coarse stride pass, top
    /// [`MAX_LOBES`] circular local maxima, fine windows around each, then
    /// the reference circular refinement on the −∞-masked sparse spectrum.
    fn sparse_peak_2d(&self, ctx: &EvalContext<'_>, cfg: &SpectrumConfig) -> Option<PeakEstimate> {
        let n_az = cfg.azimuth_steps;
        let stride = coarse_stride(n_az, 360.0, COARSE_STEP_DEG);
        let coarse: Vec<usize> = (0..n_az).step_by(stride).collect();
        let mut values = vec![f64::NEG_INFINITY; n_az];
        self.timed_eval(Stage::Coarse, ctx, &coarse, &mut values);

        let m = coarse.len();
        let mut lobes: Vec<(usize, f64)> = (0..m)
            .filter(|&k| {
                let v = values[coarse[k]];
                let prev = values[coarse[(k + m - 1) % m]];
                let next = values[coarse[(k + 1) % m]];
                v >= prev && v >= next
            })
            .map(|k| (coarse[k], values[coarse[k]]))
            .collect();
        lobes.sort_by(|a, b| b.1.total_cmp(&a.1));
        lobes.truncate(MAX_LOBES);
        // A degenerate spectrum (e.g. all-NaN phases) has no finite lobe;
        // report "no peak" like the exhaustive reference instead of letting
        // the refinement land on a −∞ mask cell.
        lobes.retain(|&(_, v)| v.is_finite());
        if lobes.is_empty() {
            return None;
        }

        // Window half-width in fine cells: one coarse stride of slack (the
        // fine argmax of a detected lobe lies between that lobe's coarse
        // neighbors) plus a guard so the parabolic refinement sees real
        // neighbors. The hybrid ±10° traditional window
        // is evaluated separately and does not constrain detection.
        let h_cells = (stride + 2).min(n_az / 2);
        let mut needed = vec![false; n_az];
        for &(center, _) in &lobes {
            for d in 0..=h_cells {
                needed[(center + d) % n_az] = true;
                needed[(center + n_az - d) % n_az] = true;
            }
        }
        let fine: Vec<usize> = (0..n_az)
            .filter(|&i| needed[i] && !values[i].is_finite())
            .collect();
        self.timed_eval(Stage::Fine, ctx, &fine, &mut values);
        self.obs.emit(|| Event::PeakSearch {
            three_d: false,
            kind: ctx.kind,
            coarse_cells: coarse.len(),
            fine_cells: fine.len(),
            peak: lobes[0].1,
            sidelobe: lobes.get(1).map(|&(_, v)| v),
        });
        peak::refine_circular(&values, TAU)
    }

    /// Peak direction of the 3D spectrum (horizontal disk), coarse-to-fine.
    ///
    /// Returns the strongest of the two symmetric `±γ` candidates with its
    /// power, like [`Spectrum3D::peak`]. The hybrid profile refines with
    /// the traditional profile inside the window but reports the enhanced
    /// detection power as the weight, matching the historical server
    /// behavior.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SpectrumEngine::spectrum_2d`].
    pub fn peak_3d(
        &self,
        set: &SnapshotSet,
        radius: f64,
        kind: ProfileKind,
        cfg: &SpectrumConfig,
        ecfg: &SpectrumEngineConfig,
    ) -> Option<(Direction3, f64)> {
        if ecfg.exhaustive {
            return Self::exhaustive_peak_3d(|k| spectrum_3d(set, radius, k, cfg), kind);
        }
        Self::check(set, cfg);
        let p = prepare(set, radius, cfg);
        let ap = Aperture::horizontal(&p);
        self.fast_peak_3d(&p, &ap, TableId::for_radius(radius, cfg), kind, cfg)
    }

    /// Peak direction of the oriented-disk 3D spectrum, coarse-to-fine.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SpectrumEngine::spectrum_3d_for_disk`].
    pub fn peak_3d_for_disk(
        &self,
        set: &SnapshotSet,
        disk: &DiskConfig,
        kind: ProfileKind,
        cfg: &SpectrumConfig,
        ecfg: &SpectrumEngineConfig,
    ) -> Option<(Direction3, f64)> {
        if ecfg.exhaustive {
            return Self::exhaustive_peak_3d(|k| spectrum_3d_for_disk(set, disk, k, cfg), kind);
        }
        Self::check(set, cfg);
        // lint:allow(no-panic) documented precondition: callers validate configs
        disk.validate().expect("invalid disk config");
        let p = prepare(set, disk.radius, cfg);
        let ap = Aperture::for_disk(&p, disk);
        self.fast_peak_3d(&p, &ap, TableId::for_disk(disk, cfg), kind, cfg)
    }

    /// 3D counterpart of [`SpectrumEngine::exhaustive_peak_2d`].
    pub(crate) fn exhaustive_peak_3d(
        spectrum_of: impl Fn(ProfileKind) -> Spectrum3D,
        kind: ProfileKind,
    ) -> Option<(Direction3, f64)> {
        let spec = spectrum_of(kind);
        match kind {
            ProfileKind::Traditional | ProfileKind::Enhanced => spec.peak(),
            ProfileKind::Hybrid => {
                let (detect, power) = spec.peak()?;
                let refined = spectrum_of(ProfileKind::Traditional);
                let dir = refined
                    .constrained_peak(detect, REFINE_HALF_WIDTH_DEG.to_radians())
                    .map_or(detect, |(d, _)| d);
                Some((dir, power))
            }
        }
    }

    fn fast_peak_3d(
        &self,
        p: &Prepared,
        ap: &Aperture,
        key: TableId,
        kind: ProfileKind,
        cfg: &SpectrumConfig,
    ) -> Option<(Direction3, f64)> {
        let table = self.table(key);
        let ctx = |k| EvalContext {
            p,
            ap,
            table: &table,
            kind: k,
            likelihood: Likelihood::new(cfg),
            azimuth_steps: cfg.azimuth_steps,
            three_d: true,
        };
        match kind {
            ProfileKind::Traditional | ProfileKind::Enhanced => {
                self.sparse_peak_3d(&ctx(kind), cfg).and_then(|s| s.peak())
            }
            ProfileKind::Hybrid => {
                let detect = self.sparse_peak_3d(&ctx(ProfileKind::Hybrid), cfg)?;
                let (dir, power) = detect.peak()?;
                let half_width = REFINE_HALF_WIDTH_DEG.to_radians();
                let (n_az, n_po) = (cfg.azimuth_steps, cfg.polar_steps);
                // lint:allow(lossy-cast) grid sizes are < 2^32, exact in f64
                let po_step = PI / (n_po - 1) as f64;
                // Evaluate the traditional profile on the window
                // `Spectrum3D::constrained_peak` will consider (|γ|-folded
                // polar band × circular azimuth band).
                let mut cells = Vec::new();
                for j in 0..n_po {
                    // lint:allow(lossy-cast) polar index is < 2^32, exact in f64
                    let po = -FRAC_PI_2 + j as f64 * po_step;
                    if (po.abs() - dir.polar.abs()).abs() > half_width {
                        continue;
                    }
                    for i in 0..n_az {
                        // lint:allow(lossy-cast) bin index and count are < 2^32, exact in f64
                        let az = i as f64 * TAU / n_az as f64;
                        if angle::separation(az, dir.azimuth) <= half_width {
                            cells.push(j * n_az + i);
                        }
                    }
                }
                let mut values = vec![f64::NEG_INFINITY; n_az * n_po];
                self.timed_eval(
                    Stage::Fine,
                    &ctx(ProfileKind::Traditional),
                    &cells,
                    &mut values,
                );
                let refined = Spectrum3D {
                    azimuth_steps: n_az,
                    polar_steps: n_po,
                    values,
                };
                let final_dir = refined
                    .constrained_peak(dir, half_width)
                    .map_or(dir, |(d, _)| d);
                Some((final_dir, power))
            }
        }
    }

    /// Coarse-to-fine sparse 3D evaluation: returns the −∞-masked sparse
    /// spectrum with all detected lobes (and their `±γ` mirrors) evaluated
    /// at fine resolution, ready for the reference peak extraction.
    fn sparse_peak_3d(&self, ctx: &EvalContext<'_>, cfg: &SpectrumConfig) -> Option<Spectrum3D> {
        let (n_az, n_po) = (cfg.azimuth_steps, cfg.polar_steps);
        let s_az = coarse_stride(n_az, 360.0, COARSE_STEP_DEG);
        let s_po = coarse_stride(n_po - 1, 180.0, COARSE_STEP_DEG);
        let mut rows: Vec<usize> = (0..n_po).step_by(s_po).collect();
        if rows.last() != Some(&(n_po - 1)) {
            rows.push(n_po - 1);
        }
        let cols: Vec<usize> = (0..n_az).step_by(s_az).collect();
        let coarse: Vec<usize> = rows
            .iter()
            .flat_map(|&j| cols.iter().map(move |&i| j * n_az + i))
            .collect();
        let mut values = vec![f64::NEG_INFINITY; n_az * n_po];
        self.timed_eval(Stage::Coarse, ctx, &coarse, &mut values);

        // Local maxima on the coarse sub-grid (azimuth circular, polar
        // clamped at the caps).
        let (nr, nc) = (rows.len(), cols.len());
        let at = |rj: usize, ci: usize| values[rows[rj] * n_az + cols[ci]];
        let mut lobes: Vec<(usize, usize, f64)> = Vec::new();
        for (rj, &row) in rows.iter().enumerate() {
            for (ci, &col) in cols.iter().enumerate() {
                let v = at(rj, ci);
                let left = at(rj, (ci + nc - 1) % nc);
                let right = at(rj, (ci + 1) % nc);
                let down = if rj > 0 {
                    at(rj - 1, ci)
                } else {
                    f64::NEG_INFINITY
                };
                let up = if rj + 1 < nr {
                    at(rj + 1, ci)
                } else {
                    f64::NEG_INFINITY
                };
                if v >= left && v >= right && v >= down && v >= up {
                    lobes.push((row, col, v));
                }
            }
        }
        lobes.sort_by(|a, b| b.2.total_cmp(&a.2));
        lobes.truncate(MAX_LOBES);
        // As in `sparse_peak_2d`: a spectrum with no finite lobe has no
        // peak; do not let the argmax fall back to the −∞ mask.
        lobes.retain(|&(_, _, v)| v.is_finite());
        if lobes.is_empty() {
            return None;
        }

        // Window half-widths in fine cells: one coarse stride of slack per
        // axis plus a refinement guard (see `sparse_peak_2d`).
        let h_az = (s_az + 2).min(n_az / 2);
        let h_po = s_po + 2;
        let mut needed = vec![false; n_az * n_po];
        for &(j, i, _) in &lobes {
            // Both the detected lobe and its ±γ mirror: the horizontal-disk
            // spectrum is γ-symmetric and the global argmax may sit in
            // either copy.
            for row_center in [j, n_po - 1 - j] {
                let lo = row_center.saturating_sub(h_po);
                let hi = (row_center + h_po).min(n_po - 1);
                for jj in lo..=hi {
                    for d in 0..=h_az {
                        needed[jj * n_az + (i + d) % n_az] = true;
                        needed[jj * n_az + (i + n_az - d) % n_az] = true;
                    }
                }
            }
        }
        let fine: Vec<usize> = (0..n_az * n_po)
            .filter(|&c| needed[c] && !values[c].is_finite())
            .collect();
        self.timed_eval(Stage::Fine, ctx, &fine, &mut values);

        // The reference `Spectrum3D::peak` refines along the full row and
        // column of the argmax; fill those so the parabolas see real values
        // instead of the −∞ mask wherever possible.
        let idx = peak::argmax(&values)?;
        let (po, az) = (idx / n_az, idx % n_az);
        let row_col: Vec<usize> = (0..n_az)
            .map(|i| po * n_az + i)
            .chain((0..n_po).map(|j| j * n_az + az))
            .filter(|&c| !values[c].is_finite())
            .collect();
        self.timed_eval(Stage::Fine, ctx, &row_col, &mut values);
        self.obs.emit(|| Event::PeakSearch {
            three_d: true,
            kind: ctx.kind,
            coarse_cells: coarse.len(),
            fine_cells: fine.len() + row_col.len(),
            peak: lobes[0].2,
            sidelobe: lobes.get(1).map(|&(_, _, v)| v),
        });

        Some(Spectrum3D {
            azimuth_steps: n_az,
            polar_steps: n_po,
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;
    use tagspin_geom::Vec3;

    const LAMBDA: f64 = 0.325;

    fn synthesize(disk: &DiskConfig, reader: Vec3, n: usize) -> SnapshotSet {
        let t_max = disk.period_s();
        SnapshotSet::from_snapshots(
            (0..n)
                .map(|i| {
                    let t = i as f64 * t_max / n as f64;
                    let d = disk.tag_position(t).distance(reader);
                    Snapshot {
                        t_s: t,
                        phase: angle::wrap_tau(2.0 * TAU / LAMBDA * d + 0.77),
                        disk_angle: disk.disk_angle(t),
                        lambda: LAMBDA,
                        rssi_dbm: -60.0,
                    }
                })
                .collect(),
        )
    }

    fn cfg_2d() -> SpectrumConfig {
        SpectrumConfig {
            azimuth_steps: 360,
            polar_steps: 31,
            references: 4,
            ..SpectrumConfig::default()
        }
    }

    #[test]
    fn full_grid_matches_reference_closely() {
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let set = synthesize(&disk, Vec3::new(-0.9, 0.4, 0.0), 150);
        let cfg = cfg_2d();
        let engine = SpectrumEngine::default();
        let ecfg = SpectrumEngineConfig::default();
        for kind in [ProfileKind::Traditional, ProfileKind::Enhanced] {
            let fast = engine.spectrum_2d(&set, disk.radius, kind, &cfg, &ecfg);
            let reference = spectrum_2d(&set, disk.radius, kind, &cfg);
            for (a, b) in fast.values().iter().zip(reference.values()) {
                assert!((a - b).abs() < 1e-9, "{kind:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn exhaustive_flag_is_bit_identical_to_reference() {
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let set = synthesize(&disk, Vec3::new(0.3, -1.2, 0.0), 120);
        let cfg = cfg_2d();
        let engine = SpectrumEngine::default();
        let ecfg = SpectrumEngineConfig { exhaustive: true };
        let a = engine.spectrum_2d(&set, disk.radius, ProfileKind::Enhanced, &cfg, &ecfg);
        let b = spectrum_2d(&set, disk.radius, ProfileKind::Enhanced, &cfg);
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn fast_peak_matches_exhaustive_within_one_step() {
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let set = synthesize(&disk, Vec3::new(-0.7, 1.1, 0.0), 180);
        let cfg = cfg_2d();
        let engine = SpectrumEngine::default();
        let fast_cfg = SpectrumEngineConfig::default();
        let slow_cfg = SpectrumEngineConfig { exhaustive: true };
        // lint:allow(lossy-cast) grid size < 2^32, exact in f64
        let step = TAU / cfg.azimuth_steps as f64;
        for kind in [
            ProfileKind::Traditional,
            ProfileKind::Enhanced,
            ProfileKind::Hybrid,
        ] {
            let fast = engine
                .peak_2d(&set, disk.radius, kind, &cfg, &fast_cfg)
                .unwrap();
            let slow = engine
                .peak_2d(&set, disk.radius, kind, &cfg, &slow_cfg)
                .unwrap();
            assert!(
                angle::separation(fast.position, slow.position) <= step + 1e-9,
                "{kind:?}: fast {:.4} vs exhaustive {:.4}",
                fast.position,
                slow.position
            );
        }
    }

    #[test]
    fn fast_peak_3d_matches_exhaustive_within_one_step() {
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let set = synthesize(&disk, Vec3::new(-0.8, 0.2, 0.6), 160);
        let cfg = SpectrumConfig {
            azimuth_steps: 120,
            polar_steps: 31,
            references: 4,
            ..SpectrumConfig::default()
        };
        let engine = SpectrumEngine::default();
        let fast_cfg = SpectrumEngineConfig::default();
        let slow_cfg = SpectrumEngineConfig { exhaustive: true };
        // lint:allow(lossy-cast) grid sizes < 2^32, exact in f64
        let az_step = TAU / cfg.azimuth_steps as f64;
        // lint:allow(lossy-cast) grid sizes < 2^32, exact in f64
        let po_step = PI / (cfg.polar_steps - 1) as f64;
        for kind in [
            ProfileKind::Traditional,
            ProfileKind::Enhanced,
            ProfileKind::Hybrid,
        ] {
            let (fast, _) = engine
                .peak_3d(&set, disk.radius, kind, &cfg, &fast_cfg)
                .unwrap();
            let (slow, _) = engine
                .peak_3d(&set, disk.radius, kind, &cfg, &slow_cfg)
                .unwrap();
            assert!(
                angle::separation(fast.azimuth, slow.azimuth) <= az_step + 1e-9,
                "{kind:?}: azimuth {:.4} vs {:.4}",
                fast.azimuth,
                slow.azimuth
            );
            // The spectrum is γ-symmetric: compare folded polar angles.
            assert!(
                (fast.polar.abs() - slow.polar.abs()).abs() <= po_step + 1e-9,
                "{kind:?}: polar {:.4} vs {:.4}",
                fast.polar,
                slow.polar
            );
        }
    }

    #[test]
    fn vertical_disk_fast_peak_agrees() {
        let disk = DiskConfig::vertical(Vec3::ZERO, 0.0);
        let set = synthesize(&disk, Vec3::new(0.2, 1.4, 0.8), 160);
        let cfg = SpectrumConfig {
            azimuth_steps: 120,
            polar_steps: 31,
            references: 4,
            ..SpectrumConfig::default()
        };
        let engine = SpectrumEngine::default();
        let fast_cfg = SpectrumEngineConfig::default();
        let slow_cfg = SpectrumEngineConfig { exhaustive: true };
        let (fast, _) = engine
            .peak_3d_for_disk(&set, &disk, ProfileKind::Enhanced, &cfg, &fast_cfg)
            .unwrap();
        let (slow, _) = engine
            .peak_3d_for_disk(&set, &disk, ProfileKind::Enhanced, &cfg, &slow_cfg)
            .unwrap();
        // lint:allow(lossy-cast) grid sizes < 2^32, exact in f64
        let az_step = TAU / cfg.azimuth_steps as f64;
        // lint:allow(lossy-cast) grid sizes < 2^32, exact in f64
        let po_step = PI / (cfg.polar_steps - 1) as f64;
        assert!(angle::separation(fast.azimuth, slow.azimuth) <= az_step + 1e-9);
        assert!((fast.polar - slow.polar).abs() <= po_step + 1e-9);
    }

    #[test]
    fn cache_hits_on_repeat_and_evicts_at_capacity() {
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let set = synthesize(&disk, Vec3::new(-1.0, 0.0, 0.0), 60);
        let cfg = cfg_2d();
        let ecfg = SpectrumEngineConfig::default();
        let engine = SpectrumEngine::with_capacity(2);
        let _ = engine.spectrum_2d(&set, disk.radius, ProfileKind::Traditional, &cfg, &ecfg);
        let _ = engine.spectrum_2d(&set, disk.radius, ProfileKind::Traditional, &cfg, &ecfg);
        let after_repeat = engine.cache_stats();
        assert_eq!(after_repeat.misses, 1);
        assert_eq!(after_repeat.hits, 1);
        // Two more radii: capacity 2 evicts the oldest.
        let _ = engine.spectrum_2d(&set, 0.11, ProfileKind::Traditional, &cfg, &ecfg);
        let _ = engine.spectrum_2d(&set, 0.12, ProfileKind::Traditional, &cfg, &ecfg);
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.misses, 3);
        // The original radius was evicted → a fresh miss.
        let _ = engine.spectrum_2d(&set, disk.radius, ProfileKind::Traditional, &cfg, &ecfg);
        assert_eq!(engine.cache_stats().misses, 4);
    }

    #[test]
    fn clones_share_the_cache() {
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let set = synthesize(&disk, Vec3::new(-1.0, 0.0, 0.0), 60);
        let cfg = cfg_2d();
        let ecfg = SpectrumEngineConfig::default();
        let engine = SpectrumEngine::default();
        let clone = engine.clone();
        let _ = engine.spectrum_2d(&set, disk.radius, ProfileKind::Traditional, &cfg, &ecfg);
        let _ = clone.spectrum_2d(&set, disk.radius, ProfileKind::Traditional, &cfg, &ecfg);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn explicit_thread_counts_agree_with_serial() {
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let set = synthesize(&disk, Vec3::new(-0.5, 0.9, 0.0), 400);
        let cfg = SpectrumConfig {
            azimuth_steps: 720,
            ..SpectrumConfig::default()
        };
        let p = prepare(&set, disk.radius, &cfg);
        let ap = Aperture::horizontal(&p);
        let table = SteeringTable::build(cfg.azimuth_steps, cfg.polar_steps);
        let ctx = EvalContext {
            p: &p,
            ap: &ap,
            table: &table,
            kind: ProfileKind::Enhanced,
            likelihood: Likelihood::new(&cfg),
            azimuth_steps: cfg.azimuth_steps,
            three_d: false,
        };
        let cells: Vec<usize> = (0..cfg.azimuth_steps).collect();
        let run = |workers| {
            let mut values = vec![f64::NEG_INFINITY; cfg.azimuth_steps];
            eval_cells(&ctx, workers, &cells, &mut values);
            values
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn coarse_stride_subsets_fine_grid() {
        assert_eq!(coarse_stride(720, 360.0, 5.0), 10);
        assert_eq!(coarse_stride(360, 360.0, 5.0), 5);
        assert_eq!(coarse_stride(8, 360.0, 5.0), 1);
        // Polar: 90 intervals over 180° at 5° → stride 2 (2°-steps grid).
        assert_eq!(coarse_stride(90, 180.0, 5.0), 2);
    }
}
