//! Coarse-to-fine parallel spectrum engine.
//!
//! The reference evaluators in [`crate::spectrum`] re-derive every steering
//! term `cᵢ(φ, γ)` for every (candidate × snapshot) pair on the full grid —
//! simple, exact, and the hot path of every localization trial. This module
//! evaluates the same profiles, through the exact kernel (`profile_power`)
//! or, for enhanced cells where it is exact to rounding and cheaper, the
//! harmonic series (`harmonic_power`; see "The kernel" in
//! `docs/SPECTRUM_ENGINE.md`), and adds four orthogonal accelerations:
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
//! 4. **Mirror fold.** A horizontal disk's aperture has no vertical
//!    component, so its 3D profile depends on γ only through `cos γ`
//!    (Eqns 11–12) and the cells `(φ, ±γ)` are equal. Every 3D evaluation
//!    over such an aperture computes each mirror pair once and copies it;
//!    the table's mirror rows are symmetric, so this is exact.
//!
//! [`SpectrumEngineConfig::exhaustive`] is the escape hatch: it routes every
//! call through the original full-grid free functions, bit-identical to the
//! reference, which is how the golden fixtures are generated and what the
//! conformance suite compares the fast path against (see
//! `docs/SPECTRUM_ENGINE.md`).

use super::{
    harmonic_power, prepare, profile_power, spectrum_2d, spectrum_3d, spectrum_3d_for_disk,
    Harmonics, Likelihood, Prepared, ProfileKind, Scratch, Spectrum2D, Spectrum3D, SpectrumConfig,
};
use crate::obs::{Event, ObsHandle, Observer, Stage};
use crate::snapshot::SnapshotSet;
use crate::spinning::{DiskConfig, DiskPlane};
use serde::{Deserialize, Serialize};
use std::f64::consts::{FRAC_PI_2, PI, TAU};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use tagspin_dsp::peak::{self, PeakEstimate};
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
/// the fine pass: the azimuth stride is the largest not above this step
/// ([`azimuth_stride`]), the polar stride the nearest ([`polar_stride`]).
const COARSE_STEP_DEG: f64 = 5.0;

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
///
/// The polar rows are mirror-symmetric: rows `j` and `n−1−j` hold the same
/// `cos γ` and opposite `sin γ`, so a flat aperture steers both cells of a
/// `±γ` pair identically (see [`Aperture::flat`]).
#[derive(Debug)]
struct SteeringTable {
    cos_phi: Vec<f64>,
    sin_phi: Vec<f64>,
    cos_gamma: Vec<f64>,
    sin_gamma: Vec<f64>,
}

impl SteeringTable {
    /// Build the table for a grid from first principles: azimuth nodes
    /// over `[0, 2π)`, polar nodes over `[-π/2, π/2]`. Each `γ ≥ 0` row is
    /// computed and copied, sine negated, into its mirror row; computed
    /// separately, the two cosines differ in the last bit on about half
    /// the rows.
    fn build(azimuth_steps: usize, polar_steps: usize) -> Self {
        let mut cos_phi = Vec::with_capacity(azimuth_steps);
        let mut sin_phi = Vec::with_capacity(azimuth_steps);
        for i in 0..azimuth_steps {
            // lint:allow(lossy-cast) azimuth index and step count are < 2^32, exact in f64
            let phi = i as f64 * TAU / azimuth_steps as f64;
            cos_phi.push(phi.cos());
            sin_phi.push(phi.sin());
        }
        let mut cos_gamma = vec![0.0; polar_steps];
        let mut sin_gamma = vec![0.0; polar_steps];
        for j in polar_steps / 2..polar_steps {
            // lint:allow(lossy-cast) polar index and step count are < 2^32, exact in f64
            let gamma = -FRAC_PI_2 + j as f64 * PI / (polar_steps - 1) as f64;
            let (cos, sin) = (gamma.cos(), gamma.sin());
            // The mirror first: the middle row of an odd grid is its own
            // mirror and keeps its own sign.
            let mirror = polar_steps - 1 - j;
            cos_gamma[mirror] = cos;
            sin_gamma[mirror] = -sin;
            cos_gamma[j] = cos;
            sin_gamma[j] = sin;
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
    /// No vertical component (`az` all zero), as for every horizontal
    /// disk: γ enters the steering only through `cos γ` (Eqns 11–12), so a
    /// 3D cell and its `±γ` mirror take the same value and 3D evaluations
    /// compute each pair once (see [`eval_cells`]).
    flat: bool,
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
            flat: true,
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
        // lint:allow(float-eq) the fold is exact only when every a_z is exactly zero
        let flat = az.iter().all(|&z| z == 0.0);
        Aperture { ax, ay, az, flat }
    }
}

/// Everything one candidate evaluation needs, shared read-only by workers.
struct EvalContext<'a> {
    p: &'a Prepared,
    ap: &'a Aperture,
    table: &'a SteeringTable,
    kind: ProfileKind,
    likelihood: Likelihood,
    /// The likelihood's Fourier series, when [`Harmonics::select`] picks
    /// it: enhanced cells then go through [`harmonic_power`] instead of the
    /// per-pair kernel.
    series: Option<&'a Harmonics>,
    azimuth_steps: usize,
    three_d: bool,
}

impl EvalContext<'_> {
    /// Whether this context evaluates each `±γ` mirror pair of 3D cells
    /// once: a 3D grid over a [flat](Aperture::flat) aperture.
    fn folds(&self) -> bool {
        self.three_d && self.ap.flat
    }

    /// The cell in row `n−1−j` of the same column as `cell` (row `j`).
    fn mirror(&self, cell: usize) -> usize {
        let rows = self.table.cos_gamma.len();
        let (j, i) = (cell / self.azimuth_steps, cell % self.azimuth_steps);
        (rows - 1 - j) * self.azimuth_steps + i
    }

    /// One worker's buffers for this context's kernels.
    fn scratch(&self) -> Scratch {
        self.series
            .map_or_else(|| Scratch::new(self.p), |h| Scratch::with_series(self.p, h))
    }

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
        match (self.kind, self.series) {
            (ProfileKind::Enhanced | ProfileKind::Hybrid, Some(h)) => {
                harmonic_power(self.p, scratch, h)
            }
            _ => profile_power(self.p, scratch, self.kind, self.likelihood),
        }
    }
}

/// Below this many (cell × snapshot) kernel evaluations a call always runs
/// serially, so engines nested inside already-parallel sweep workers do not
/// oversubscribe the machine.
const PAR_MIN_WORK: usize = 65_536;

/// Evaluate `cells` into `values` (which must be pre-sized to the full
/// grid) and return how many cells were evaluated.
///
/// Where the context [folds](EvalContext::folds), each requested cell is
/// mapped to the `γ ≥ 0` cell of its mirror pair, each such representative
/// is evaluated once, and its value is copied to its mirror. The table's
/// mirror rows are symmetric, so the fold gives the values an unfolded
/// evaluation would.
fn eval_cells(ctx: &EvalContext<'_>, workers: usize, cells: &[usize], values: &mut [f64]) -> usize {
    if !ctx.folds() {
        eval_each(ctx, workers, cells, values);
        return cells.len();
    }
    let mut reps: Vec<usize> = cells.iter().map(|&c| c.max(ctx.mirror(c))).collect();
    reps.sort_unstable();
    reps.dedup();
    eval_each(ctx, workers, &reps, values);
    for &c in &reps {
        values[ctx.mirror(c)] = values[c];
    }
    reps.len()
}

/// Evaluate every cell of `cells` into `values`, fanning out across up to
/// `workers` scoped threads when the work is large enough.
fn eval_each(ctx: &EvalContext<'_>, workers: usize, cells: &[usize], values: &mut [f64]) {
    let n = ctx.p.beta.len();
    let workers = workers.min(cells.len());
    if workers <= 1 || cells.len().saturating_mul(n) < PAR_MIN_WORK {
        let mut scratch = ctx.scratch();
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
                    let mut scratch = ctx.scratch();
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

/// Coarse stride over the azimuth axis of `columns` columns spanning
/// 360°: the largest stride not above [`COARSE_STEP_DEG`], at least 1
/// (720 columns → 10, 360 → 5, 72 → 1).
fn azimuth_stride(columns: usize) -> usize {
    // lint:allow(lossy-cast) grid sizes are < 2^32; ratio is small and non-negative
    let s = (columns as f64 * COARSE_STEP_DEG / 360.0).floor() as usize;
    s.clamp(1, columns)
}

/// Coarse stride over the polar axis of `rows` rows spanning 180°: the
/// stride nearest [`COARSE_STEP_DEG`], at least 1 (61 rows → 2, 91 → 3,
/// 31 or fewer → 1). A horizontal disk's polar lobe is much wider than
/// its azimuth lobe, since γ enters its steering only through `cos γ`.
fn polar_stride(rows: usize) -> usize {
    let intervals = rows - 1;
    // lint:allow(lossy-cast) grid sizes are < 2^32; ratio is small and non-negative
    let s = (intervals as f64 * COARSE_STEP_DEG / 180.0).round() as usize;
    s.clamp(1, intervals)
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

    /// [`eval_cells`] wrapped in a stage timer: emits [`Event::StageTime`]
    /// when an observer is enabled, and is exactly `eval_cells` otherwise.
    fn timed_eval(
        &self,
        stage: Stage,
        ctx: &EvalContext<'_>,
        cells: &[usize],
        values: &mut [f64],
    ) -> usize {
        let t0 = self.obs.clock_start();
        let evaluated = eval_cells(ctx, auto_workers(), cells, values);
        if let Some(t0) = t0 {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.obs.emit(|| Event::StageTime { stage, nanos });
        }
        evaluated
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
        let likelihood = Likelihood::new(cfg);
        let series = Harmonics::select(likelihood, p.references.len());
        let ctx = EvalContext {
            p: &p,
            ap: &ap,
            table: &table,
            kind,
            likelihood,
            series: series.as_ref(),
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
        let likelihood = Likelihood::new(cfg);
        let series = Harmonics::select(likelihood, p.references.len());
        let ctx = EvalContext {
            p,
            ap: &ap,
            table: &table,
            kind,
            likelihood,
            series: series.as_ref(),
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
    /// and then evaluates the traditional profile on exactly the ±10°
    /// window its refinement reads (`Spectrum2D::profile_peak`, the rule
    /// the reference path runs on full grids).
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
            return spectrum_2d(set, radius, kind, cfg).profile_peak(kind, |_| {
                spectrum_2d(set, radius, ProfileKind::Traditional, cfg)
            });
        }
        Self::check(set, cfg);
        let p = prepare(set, radius, cfg);
        let ap = Aperture::horizontal(&p);
        let table = self.table(TableId::for_radius(radius, cfg));
        let likelihood = Likelihood::new(cfg);
        let series = Harmonics::select(likelihood, p.references.len());
        let ctx = |k| EvalContext {
            p: &p,
            ap: &ap,
            table: &table,
            kind: k,
            likelihood,
            series: series.as_ref(),
            azimuth_steps: cfg.azimuth_steps,
            three_d: false,
        };
        self.sparse_peak_2d(&ctx(kind), cfg)?
            .profile_peak(kind, |window| Spectrum2D {
                values: self.fine_values(&ctx(ProfileKind::Traditional), window, cfg.azimuth_steps),
            })
    }

    /// `ctx`'s profile on exactly `cells` (timed as [`Stage::Fine`]), in a
    /// grid of `len` cells masked at `−∞` elsewhere.
    fn fine_values(&self, ctx: &EvalContext<'_>, cells: &[usize], len: usize) -> Vec<f64> {
        let mut values = vec![f64::NEG_INFINITY; len];
        self.timed_eval(Stage::Fine, ctx, cells, &mut values);
        values
    }

    /// Coarse-to-fine sparse 2D evaluation: coarse stride pass, top
    /// [`MAX_LOBES`] circular local maxima, fine windows around each; the
    /// −∞-masked sparse spectrum, ready for the reference peak extraction.
    fn sparse_peak_2d(&self, ctx: &EvalContext<'_>, cfg: &SpectrumConfig) -> Option<Spectrum2D> {
        let n_az = cfg.azimuth_steps;
        let stride = azimuth_stride(n_az);
        let coarse: Vec<usize> = (0..n_az).step_by(stride).collect();
        let mut values = vec![f64::NEG_INFINITY; n_az];
        let coarse_cells = self.timed_eval(Stage::Coarse, ctx, &coarse, &mut values);

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
        let fine_cells = self.timed_eval(Stage::Fine, ctx, &fine, &mut values);
        self.obs.emit(|| Event::PeakSearch {
            three_d: false,
            kind: ctx.kind,
            coarse_cells,
            fine_cells,
            peak: lobes[0].1,
            sidelobe: lobes.get(1).map(|&(_, v)| v),
        });
        Some(Spectrum2D { values })
    }

    /// Peak direction of the 3D spectrum (horizontal disk), coarse-to-fine.
    ///
    /// Returns the strongest of the two symmetric `±γ` candidates with its
    /// power, like [`Spectrum3D::peak`]. The two tie exactly here (each
    /// mirror pair is evaluated once), and the tie goes to the first in
    /// row-major order, the `γ ≤ 0` copy. The hybrid profile refines with
    /// the traditional profile inside its ±10° window, evaluated on exactly
    /// that window, but reports the enhanced detection power as the weight
    /// (`Spectrum3D::profile_peak`, the rule the reference path runs on
    /// full grids).
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
            return spectrum_3d(set, radius, kind, cfg).profile_peak(kind, |_| {
                spectrum_3d(set, radius, ProfileKind::Traditional, cfg)
            });
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
            return spectrum_3d_for_disk(set, disk, kind, cfg).profile_peak(kind, |_| {
                spectrum_3d_for_disk(set, disk, ProfileKind::Traditional, cfg)
            });
        }
        Self::check(set, cfg);
        // lint:allow(no-panic) documented precondition: callers validate configs
        disk.validate().expect("invalid disk config");
        let p = prepare(set, disk.radius, cfg);
        let ap = Aperture::for_disk(&p, disk);
        self.fast_peak_3d(&p, &ap, TableId::for_disk(disk, cfg), kind, cfg)
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
        let likelihood = Likelihood::new(cfg);
        let series = Harmonics::select(likelihood, p.references.len());
        let ctx = |k| EvalContext {
            p,
            ap,
            table: &table,
            kind: k,
            likelihood,
            series: series.as_ref(),
            azimuth_steps: cfg.azimuth_steps,
            three_d: true,
        };
        let (n_az, n_po) = (cfg.azimuth_steps, cfg.polar_steps);
        self.sparse_peak_3d(&ctx(kind), cfg)?
            .profile_peak(kind, |window| Spectrum3D {
                azimuth_steps: n_az,
                polar_steps: n_po,
                values: self.fine_values(&ctx(ProfileKind::Traditional), window, n_az * n_po),
            })
    }

    /// Coarse-to-fine sparse 3D evaluation: returns the −∞-masked sparse
    /// spectrum with all detected lobes (and, for a folded search, their
    /// `±γ` mirrors) evaluated at fine resolution, ready for the reference
    /// peak extraction.
    fn sparse_peak_3d(&self, ctx: &EvalContext<'_>, cfg: &SpectrumConfig) -> Option<Spectrum3D> {
        let (n_az, n_po) = (cfg.azimuth_steps, cfg.polar_steps);
        let s_az = azimuth_stride(n_az);
        let s_po = polar_stride(n_po);
        let mut rows: Vec<usize> = (0..n_po).step_by(s_po).collect();
        if rows.last() != Some(&(n_po - 1)) {
            rows.push(n_po - 1);
        }
        if ctx.folds() {
            // The mirror of every coarse row, so that the `γ ≥ 0` half
            // below sees each row's true neighbors where the stride does
            // not divide the rows evenly (101 rows: 0, 3, …, 99, 100).
            // Those cells fold onto cells the pass evaluates anyway.
            let mirrors: Vec<usize> = rows.iter().map(|&j| n_po - 1 - j).collect();
            rows.extend(mirrors);
            rows.sort_unstable();
            rows.dedup();
        }
        let cols: Vec<usize> = (0..n_az).step_by(s_az).collect();
        let coarse: Vec<usize> = rows
            .iter()
            .flat_map(|&j| cols.iter().map(move |&i| j * n_az + i))
            .collect();
        let mut values = vec![f64::NEG_INFINITY; n_az * n_po];
        let coarse_cells = self.timed_eval(Stage::Coarse, ctx, &coarse, &mut values);

        // Local maxima on the coarse sub-grid (azimuth circular, polar
        // clamped at the caps). A folded spectrum holds every lobe twice,
        // at `±γ`; only the `γ ≥ 0` copy counts, so the runner-up is a
        // distinct lobe and `MAX_LOBES` refines that many distinct lobes.
        let (nr, nc) = (rows.len(), cols.len());
        let at = |rj: usize, ci: usize| values[rows[rj] * n_az + cols[ci]];
        let mut lobes: Vec<(usize, usize, f64)> = Vec::new();
        for (rj, &row) in rows.iter().enumerate() {
            if ctx.folds() && 2 * row + 1 < n_po {
                continue;
            }
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
            // A folded search copies the window's `±γ` mirror too.
            for jj in j.saturating_sub(h_po)..=(j + h_po).min(n_po - 1) {
                for d in 0..=h_az {
                    needed[jj * n_az + (i + d) % n_az] = true;
                    needed[jj * n_az + (i + n_az - d) % n_az] = true;
                }
            }
        }
        let fine: Vec<usize> = (0..n_az * n_po)
            .filter(|&c| needed[c] && !values[c].is_finite())
            .collect();
        let mut fine_cells = self.timed_eval(Stage::Fine, ctx, &fine, &mut values);

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
        fine_cells += self.timed_eval(Stage::Fine, ctx, &row_col, &mut values);
        self.obs.emit(|| Event::PeakSearch {
            three_d: true,
            kind: ctx.kind,
            coarse_cells,
            fine_cells,
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
    use tagspin_geom::{angle, Vec3};

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
        // A vertical disk's spectrum is symmetric under reflection across
        // the disk's own plane (φ → π − φ for this normal along +x), so its
        // two mirror peaks can tie to the last bit and either path may pick
        // either one.
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
        // The fold below only excuses a genuine tie: the exhaustive peak
        // cell and its mirror hold the same power.
        let spec = spectrum_3d_for_disk(&set, &disk, ProfileKind::Enhanced, &cfg);
        let idx = peak::argmax(spec.values()).unwrap();
        let (po, az) = (idx / cfg.azimuth_steps, idx % cfg.azimuth_steps);
        let mirror_az = (cfg.azimuth_steps * 3 / 2 - az) % cfg.azimuth_steps;
        let (v, m) = (spec.value(az, po), spec.value(mirror_az, po));
        assert!((v - m).abs() <= 1e-12 * v, "mirror cells {v} vs {m}");
        // lint:allow(lossy-cast) grid sizes < 2^32, exact in f64
        let az_step = TAU / cfg.azimuth_steps as f64;
        // lint:allow(lossy-cast) grid sizes < 2^32, exact in f64
        let po_step = PI / (cfg.polar_steps - 1) as f64;
        let az_sep = angle::separation(fast.azimuth, slow.azimuth)
            .min(angle::separation(fast.azimuth, PI - slow.azimuth));
        assert!(
            az_sep <= az_step + 1e-9,
            "azimuth {:.4} vs {:.4} or its reflection",
            fast.azimuth,
            slow.azimuth
        );
        assert!((fast.polar - slow.polar).abs() <= po_step + 1e-9);
    }

    #[test]
    fn series_selection_follows_exactness_and_cost() {
        let select = |sigma_inflated: f64, references: usize| {
            let cfg = SpectrumConfig {
                sigma: 0.1,
                weight_inflation: sigma_inflated / 0.1,
                references,
                ..SpectrumConfig::default()
            };
            Harmonics::select(Likelihood::new(&cfg), references)
        };
        // The defaults: 61 harmonics, 63 power sums against 16·16.
        let series = select(0.1, 16).expect("σ 0.1 at 16 references uses the series");
        assert_eq!(series.coeffs.len(), 62);
        // Too few references to pay for the power sums.
        assert!(select(0.1, 2).is_none());
        // Too wide a weight for the series to be periodic to rounding.
        assert!(select(0.3, 16).is_none());
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
        let likelihood = Likelihood::new(&cfg);
        // The default 16 references run the enhanced cells through the
        // harmonic series, whose lanes must not depend on the worker.
        let series = Harmonics::select(likelihood, p.references.len());
        assert!(series.is_some());
        let ctx = EvalContext {
            p: &p,
            ap: &ap,
            table: &table,
            kind: ProfileKind::Enhanced,
            likelihood,
            series: series.as_ref(),
            azimuth_steps: cfg.azimuth_steps,
            three_d: false,
        };
        let cells: Vec<usize> = (0..cfg.azimuth_steps).collect();
        let run = |workers| {
            let mut values = vec![f64::NEG_INFINITY; cfg.azimuth_steps];
            eval_cells(&ctx, workers, &cells, &mut values);
            values
        };
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(run(1)), bits(run(4)));
    }

    #[test]
    fn coarse_stride_subsets_fine_grid() {
        assert_eq!(azimuth_stride(720), 10);
        assert_eq!(azimuth_stride(360), 5);
        assert_eq!(azimuth_stride(8), 1);
        // Polar: the stride nearest 5°, so 3° rows step by 2 (6°), 2° rows
        // by 3 (6°), and rows of 4.5° or more by 1.
        assert_eq!(polar_stride(61), 2);
        assert_eq!(polar_stride(91), 3);
        assert_eq!(polar_stride(41), 1);
        assert_eq!(polar_stride(31), 1);
        assert_eq!(polar_stride(3), 1);
    }

    #[test]
    fn steering_table_mirror_rows_are_symmetric() {
        for rows in [3, 17, 31, 61, 62, 91] {
            let table = SteeringTable::build(8, rows);
            for j in 0..rows / 2 {
                let m = rows - 1 - j;
                assert_eq!(
                    table.cos_gamma[j].to_bits(),
                    table.cos_gamma[m].to_bits(),
                    "{rows} rows: cos γ of rows {j} and {m}"
                );
                assert_eq!(
                    table.sin_gamma[j].to_bits(),
                    (-table.sin_gamma[m]).to_bits(),
                    "{rows} rows: sin γ of rows {j} and {m}"
                );
                assert!(table.sin_gamma[j] < 0.0 && table.sin_gamma[m] > 0.0);
            }
        }
    }

    /// Every cell of a full 3D grid through `ap`, and the evaluated count.
    fn full_grid(
        p: &Prepared,
        ap: &Aperture,
        kind: ProfileKind,
        cfg: &SpectrumConfig,
    ) -> (Vec<u64>, usize) {
        let table = SteeringTable::build(cfg.azimuth_steps, cfg.polar_steps);
        let likelihood = Likelihood::new(cfg);
        let series = Harmonics::select(likelihood, p.references.len());
        let ctx = EvalContext {
            p,
            ap,
            table: &table,
            kind,
            likelihood,
            series: series.as_ref(),
            azimuth_steps: cfg.azimuth_steps,
            three_d: true,
        };
        let total = cfg.azimuth_steps * cfg.polar_steps;
        let cells: Vec<usize> = (0..total).collect();
        let mut values = vec![f64::NEG_INFINITY; total];
        let evaluated = eval_cells(&ctx, 1, &cells, &mut values);
        (values.into_iter().map(f64::to_bits).collect(), evaluated)
    }

    #[test]
    fn folded_evaluation_matches_unfolded_bit_for_bit() {
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let set = synthesize(&disk, Vec3::new(-0.8, 0.2, 0.6), 96);
        let cfg = SpectrumConfig {
            azimuth_steps: 24,
            polar_steps: 61,
            ..SpectrumConfig::default()
        };
        let p = prepare(&set, disk.radius, &cfg);
        for ap in [Aperture::horizontal(&p), Aperture::for_disk(&p, &disk)] {
            assert!(ap.flat);
            let unfolded = Aperture {
                ax: ap.ax.clone(),
                ay: ap.ay.clone(),
                az: ap.az.clone(),
                flat: false,
            };
            for kind in [ProfileKind::Traditional, ProfileKind::Enhanced] {
                let (folded, evaluated) = full_grid(&p, &ap, kind, &cfg);
                let (reference, all) = full_grid(&p, &unfolded, kind, &cfg);
                assert_eq!(folded, reference, "{kind:?}");
                // Rows 30..=60 of 61: the γ ≥ 0 half.
                assert_eq!((evaluated, all), (31 * 24, 61 * 24), "{kind:?}");
            }
        }
    }

    #[test]
    fn vertical_disk_is_not_folded() {
        let disk = DiskConfig::vertical(Vec3::ZERO, 0.0);
        let set = synthesize(&disk, Vec3::new(0.2, 1.4, 0.8), 96);
        let cfg = SpectrumConfig {
            azimuth_steps: 24,
            polar_steps: 61,
            references: 4,
            ..SpectrumConfig::default()
        };
        let p = prepare(&set, disk.radius, &cfg);
        let ap = Aperture::for_disk(&p, &disk);
        assert!(!ap.flat);
        let (values, evaluated) = full_grid(&p, &ap, ProfileKind::Enhanced, &cfg);
        assert_eq!(evaluated, 61 * 24);
        // Its spectrum is not γ-symmetric, so a fold would be wrong.
        let at = |j: usize, i: usize| f64::from_bits(values[j * 24 + i]);
        assert!((0..24).any(|i| (at(10, i) - at(50, i)).abs() > 1e-3 * at(10, i).abs()));
    }

    /// The `PeakSearch` events of one hybrid 3D peak search through `run`.
    fn peak_searches(
        run: impl FnOnce(&SpectrumEngine) -> Option<(Direction3, f64)>,
    ) -> Vec<(usize, usize, f64, Option<f64>)> {
        let recorder = Arc::new(crate::obs::RecordingObserver::new());
        let mut engine = SpectrumEngine::new();
        engine.set_observer(recorder.clone());
        assert!(run(&engine).is_some());
        recorder
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::PeakSearch {
                    three_d: true,
                    coarse_cells,
                    fine_cells,
                    peak,
                    sidelobe,
                    ..
                } => Some((coarse_cells, fine_cells, peak, sidelobe)),
                _ => None,
            })
            .collect()
    }

    /// `batch_3d`'s grid shape.
    fn cfg_360x61() -> SpectrumConfig {
        SpectrumConfig {
            azimuth_steps: 360,
            polar_steps: 61,
            ..SpectrumConfig::default()
        }
    }

    #[test]
    fn peak_3d_counts_each_mirror_pair_once() {
        let cfg = cfg_360x61();
        let ecfg = SpectrumEngineConfig::default();
        let hybrid = ProfileKind::Hybrid;
        let flat = DiskConfig::paper_default(Vec3::ZERO);
        let flat_set = synthesize(&flat, Vec3::new(-0.8, 0.2, 0.6), 120);
        let upright = DiskConfig::vertical(Vec3::ZERO, 0.0);
        let upright_set = synthesize(&upright, Vec3::new(0.2, 1.4, 0.8), 120);
        // 72 columns × the 16 γ ≥ 0 rows of the 31 coarse rows (every
        // second of 61), against all 31 rows for a vertical disk.
        let horizontal = peak_searches(|e| e.peak_3d(&flat_set, flat.radius, hybrid, &cfg, &ecfg));
        let for_disk = peak_searches(|e| e.peak_3d_for_disk(&flat_set, &flat, hybrid, &cfg, &ecfg));
        let vertical =
            peak_searches(|e| e.peak_3d_for_disk(&upright_set, &upright, hybrid, &cfg, &ecfg));
        for (name, searches, coarse) in [
            ("horizontal", &horizontal, 1_152),
            ("horizontal for_disk", &for_disk, 1_152),
            ("vertical", &vertical, 2_232),
        ] {
            assert_eq!(searches.len(), 1, "{name}");
            assert_eq!(searches[0].0, coarse, "{name}");
        }
        // Both horizontal entry points fold alike.
        assert_eq!(horizontal, for_disk);
    }

    #[test]
    fn horizontal_runner_up_is_a_distinct_lobe() {
        let cfg = cfg_360x61();
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let set = synthesize(&disk, Vec3::new(-0.8, 0.2, 0.6), 120);
        let searches = peak_searches(|e| {
            e.peak_3d(
                &set,
                disk.radius,
                ProfileKind::Hybrid,
                &cfg,
                &SpectrumEngineConfig::default(),
            )
        });
        let (_, _, peak, sidelobe) = searches[0];
        let sidelobe = sidelobe.expect("a runner-up lobe");
        // The peak's ±γ mirror ties it to rounding; a distinct lobe does
        // not.
        assert!(
            peak - sidelobe > 1e-3 * peak,
            "runner-up {sidelobe} is the mirror of peak {peak}"
        );
    }

    #[test]
    fn folded_search_detects_a_lobe_between_uneven_coarse_rows() {
        // 101 rows (1.8° apart) step by 3: coarse rows 0, 3, …, 99 and 100,
        // so row 48 (γ = −3.6°) has no coarse mirror at row 52. A reader
        // 3° above the disk plane puts the best coarse sample on row 48.
        let cfg = SpectrumConfig {
            azimuth_steps: 72,
            polar_steps: 101,
            ..SpectrumConfig::default()
        };
        assert_eq!(polar_stride(cfg.polar_steps), 3);
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let (r, gamma): (f64, f64) = (2.0, 3.0_f64.to_radians());
        let reader = Vec3::new(r * 0.5_f64.cos(), r * 0.5_f64.sin(), r * gamma.tan());
        let set = synthesize(&disk, reader, 120);
        let kind = ProfileKind::Enhanced;
        let fast = SpectrumEngineConfig::default();
        let searches = peak_searches(|e| e.peak_3d(&set, disk.radius, kind, &cfg, &fast));

        // The best coarse sample of the engine's own full grid (the
        // azimuth stride is 1 at 72 columns).
        let engine = SpectrumEngine::new();
        let full = engine.spectrum_3d(&set, disk.radius, kind, &cfg, &fast);
        let (n_az, values) = (cfg.azimuth_steps, full.values());
        let (best_row, best) = (0..cfg.polar_steps)
            .step_by(3)
            .chain([cfg.polar_steps - 1])
            .flat_map(|j| (0..n_az).map(move |i| (j, values[j * n_az + i])))
            .fold((0, f64::NEG_INFINITY), |a, b| if b.1 > a.1 { b } else { a });
        assert_eq!(best_row, 48);
        assert_eq!(
            searches[0].2.to_bits(),
            best.to_bits(),
            "the main lobe was not detected"
        );

        let exhaustive = SpectrumEngineConfig { exhaustive: true };
        let (f, _) = engine
            .peak_3d(&set, disk.radius, kind, &cfg, &fast)
            .unwrap();
        let (e, _) = engine
            .peak_3d(&set, disk.radius, kind, &cfg, &exhaustive)
            .unwrap();
        // lint:allow(lossy-cast) grid sizes < 2^32, exact in f64
        let (az_step, po_step) = (TAU / n_az as f64, PI / (cfg.polar_steps - 1) as f64);
        assert!(angle::separation(f.azimuth, e.azimuth) <= az_step + 1e-9);
        assert!((f.polar.abs() - e.polar.abs()).abs() <= po_step + 1e-9);
    }
}
