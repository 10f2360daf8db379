//! Incremental spectrum accumulators: O(grid) fix refresh.
//!
//! The reference evaluators recompute every (candidate × snapshot) steering
//! term on each fix refresh — O(window × grid). But both profiles are
//! *sums over snapshots* per candidate cell:
//!
//! * **Traditional** `Q(φ) = |Σᵢ e^{j(θᵢ + sᵢ(φ))}| / n` — the per-cell
//!   complex sum is linear in the snapshots, so ingesting a snapshot is a
//!   rank-1 **update** (`acc += e^{j(θ + s)}`) and window eviction is the
//!   matching **downdate** (`acc -= e^{j(θ + s)}`).
//! * **Enhanced** `R(φ)` weights each term by the Gaussian likelihood of
//!   its phase *relative to a reference snapshot*. The weights depend only
//!   on (reference, snapshot, cell), so freezing the reference set at
//!   anchor time makes the per-(reference, cell) weighted sums linear too.
//!
//! `IncrementalState` keeps those running sums per candidate cell in
//! flat columnar (SoA) arrays, plus one `Column` of per-snapshot terms
//! per buffered snapshot so evicted contributions can be subtracted after
//! the snapshot itself is gone from the window. A fix refresh then reduces
//! the accumulators in O(grid) — `abs()` + divide per cell — without
//! touching the snapshot buffer.
//!
//! **Anchoring.** A full rebuild ("anchor") runs the free functions' own
//! cell kernel, so a freshly anchored state reduces **bit-identically**
//! to the exhaustive free functions in [`crate::spectrum`]. Between
//! anchors the two families degrade differently. Traditional sums see
//! only float drift from downdates (cancellation error, ~machine epsilon
//! per op). Enhanced sums are *frozen-reference estimates*: the reference
//! recompute re-picks its references from the current window, so once the
//! window slides past the anchor's reference snapshots the per-cell values
//! diverge semantically — but the deviation term is ≈ 0 at the true
//! direction for any model-consistent reference, so the lobe structure and
//! the detected peak stay put (the equivalence suite pins the peak to
//! within two grid steps). A state re-anchors every `REANCHOR_AFTER_OPS`
//! (4096) operations or when [`IncrementalPolicy::drift_tol`] trips, so
//! `drift_tol: 0.0` makes every sync exact, and
//! [`IncrementalPolicy::disabled`] restores the legacy recompute entirely.
//!
//! **Which path.** An anchor costs the whole window against the full grid,
//! a sync its pending delta against the full grid, and the engine's fresh
//! coarse-to-fine search the whole window against only the cells it
//! samples. The session therefore decides per refresh (`Slot::engage` in
//! `session/pipeline.rs`): a delta of a whole window searches fresh and
//! drops the state, a live state syncs, and a new state anchors only on
//! the second refresh in a row whose delta is shorter than the window.
//!
//! **Poison safety.** Non-finite phases (which the permissive ingest
//! policy lets through) are carried as inert columns: they never touch an
//! accumulator, and while any are resident the session serves the legacy
//! path wholesale, so `NaN` can never linger in the running sums.

use super::engine::SpectrumEngine;
use super::{
    cell_sums, prepare, Likelihood, ProfileKind, Scratch, Spectrum2D, Spectrum3D, SpectrumConfig,
};
use crate::obs::FixKind;
use crate::snapshot::{Snapshot, SnapshotSet};
use crate::spinning::DiskConfig;
use std::collections::VecDeque;
use std::f64::consts::{FRAC_PI_2, PI, TAU};
use tagspin_dsp::complex::Complex;
use tagspin_dsp::peak::PeakEstimate;
use tagspin_geom::vec3::Direction3;
use tagspin_geom::Vec3;

/// Policy knobs for the incremental fix-refresh path.
///
/// The session picks each refresh's path from its pending delta (see
/// `docs/INCREMENTAL_SPECTRUM.md`); these knobs only switch the
/// accumulators off and bound their float drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalPolicy {
    /// Master switch. `false` restores the legacy full-recompute refresh
    /// path exactly (the session never builds incremental state).
    pub enabled: bool,
    /// Analytic float-drift bound: a sync re-anchors (exact rebuild) once
    /// `(ops_since_anchor + delta) · ε > drift_tol`, counting the pending
    /// delta. `0.0` therefore makes every sync an anchor, so every result
    /// the accumulators serve is bit-identical to the reference path.
    pub drift_tol: f64,
}

impl Default for IncrementalPolicy {
    fn default() -> Self {
        IncrementalPolicy {
            enabled: true,
            drift_tol: 1e-9,
        }
    }
}

impl IncrementalPolicy {
    /// A policy that never engages: the session refresh path is exactly
    /// the legacy full recompute.
    pub fn disabled() -> Self {
        IncrementalPolicy {
            enabled: false,
            ..IncrementalPolicy::default()
        }
    }
}

/// A state re-anchors once this many update/downdate operations would
/// have folded since its last anchor, whatever the drift bound says.
const REANCHOR_AFTER_OPS: u64 = 4096;

/// What one `IncrementalState::sync` call did, for observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncOutcome {
    /// Snapshot contributions folded in (new columns, or the whole
    /// resident set on a re-anchor).
    pub applied: u64,
    /// Snapshot contributions subtracted for evicted columns (0 on a
    /// re-anchor, which rebuilds instead).
    pub downdated: u64,
    /// Whether this sync performed a full exact rebuild.
    pub reanchored: bool,
}

/// Memory/compute budget: the incremental state is only engaged when its
/// total accumulator cell count (grid cells × maintained profile families,
/// references included) fits this bound.
const MAX_CELLS: u64 = 2_000_000;

/// Total accumulator cells an engaged state would maintain for this fix
/// kind's grid, profile, and spectrum config.
fn budget_cells(kind: FixKind, profile: ProfileKind, cfg: &SpectrumConfig) -> u64 {
    let cells = match kind {
        FixKind::Fix2D => cfg.azimuth_steps as u64,
        FixKind::Fix3D | FixKind::Fix3DAided => (cfg.azimuth_steps as u64) * cfg.polar_steps as u64,
    };
    let trad = match profile {
        ProfileKind::Traditional | ProfileKind::Hybrid => cells,
        ProfileKind::Enhanced => 0,
    };
    let enh = match profile {
        ProfileKind::Enhanced | ProfileKind::Hybrid => cells * cfg.references as u64,
        ProfileKind::Traditional => 0,
    };
    trad + enh
}

/// Whether an engaged state for this grid, profile, and spectrum config
/// fits the [`MAX_CELLS`] budget.
pub(crate) fn fits_budget(kind: FixKind, profile: ProfileKind, cfg: &SpectrumConfig) -> bool {
    budget_cells(kind, profile, cfg) <= MAX_CELLS
}

/// Precomputed candidate-grid constants (exact reference expressions, so
/// anchored reductions stay bit-identical).
#[derive(Debug, Clone)]
enum Grid {
    /// Azimuth angles `φᵢ = i·2π/n`.
    TwoD { phi: Vec<f64> },
    /// Azimuth angles + per-row `cos γⱼ`.
    ThreeD { phi: Vec<f64>, cos_gamma: Vec<f64> },
    /// Per-cell unit direction vectors (row-major `[polar][azimuth]`).
    Oriented { dirs: Vec<Vec3> },
}

impl Grid {
    fn build(kind: FixKind, cfg: &SpectrumConfig) -> Grid {
        let phi: Vec<f64> = (0..cfg.azimuth_steps)
            // lint:allow(lossy-cast) azimuth index and step count are < 2^32, exact in f64
            .map(|i| i as f64 * TAU / cfg.azimuth_steps as f64)
            .collect();
        match kind {
            FixKind::Fix2D => Grid::TwoD { phi },
            FixKind::Fix3D => {
                let cos_gamma: Vec<f64> = (0..cfg.polar_steps)
                    .map(|j| {
                        // lint:allow(lossy-cast) polar index and step count are < 2^32, exact in f64
                        let gamma = -FRAC_PI_2 + j as f64 * PI / (cfg.polar_steps - 1) as f64;
                        gamma.cos()
                    })
                    .collect();
                Grid::ThreeD { phi, cos_gamma }
            }
            FixKind::Fix3DAided => {
                let mut dirs = Vec::with_capacity(cfg.azimuth_steps * cfg.polar_steps);
                for j in 0..cfg.polar_steps {
                    // lint:allow(lossy-cast) polar index and step count are < 2^32, exact in f64
                    let gamma = -FRAC_PI_2 + j as f64 * PI / (cfg.polar_steps - 1) as f64;
                    for &p in &phi {
                        dirs.push(Vec3::from_spherical(p, gamma));
                    }
                }
                Grid::Oriented { dirs }
            }
        }
    }

    fn cells(&self) -> usize {
        match self {
            Grid::TwoD { phi } => phi.len(),
            Grid::ThreeD { phi, cos_gamma } => phi.len() * cos_gamma.len(),
            Grid::Oriented { dirs } => dirs.len(),
        }
    }

    /// The steering term `sᵢ(cell)` for one snapshot's `(k_r, β, u(β))` —
    /// the same float expressions as the reference `accumulate`/
    /// `accumulate_oriented` (`x·1.0 ≡ x` exactly, so the 2D `cos γ = 1`
    /// factor is omitted).
    #[inline]
    fn steer(&self, cell: usize, k_r: f64, beta: f64, radial: Vec3) -> f64 {
        match self {
            Grid::TwoD { phi } => k_r * (beta - phi[cell]).cos(),
            Grid::ThreeD { phi, cos_gamma } => {
                let az = phi.len();
                k_r * (beta - phi[cell % az]).cos() * cos_gamma[cell / az]
            }
            Grid::Oriented { dirs } => k_r * radial.dot(dirs[cell]),
        }
    }
}

/// One buffered snapshot's contribution terms, kept so the matching
/// downdate can run after the snapshot leaves the window. Phases are
/// post-calibration (what the spectrum actually sees).
#[derive(Debug, Clone, Copy)]
struct Column {
    /// Calibrated phase θ.
    phase: f64,
    /// `e^{jθ}`.
    phasor: Complex,
    /// `4π·r/λ`.
    k_r: f64,
    /// Disk angle β.
    beta: f64,
    /// Radial unit vector `u(β)` (oriented-disk steering only).
    radial: Vec3,
    /// Whether the phase is finite; non-finite columns never touch the
    /// accumulators.
    finite: bool,
}

impl Column {
    fn new(s: &Snapshot, disk: &DiskConfig) -> Column {
        Column {
            phase: s.phase,
            phasor: Complex::cis(s.phase),
            k_r: 2.0 * TAU * disk.radius / s.lambda,
            beta: s.disk_angle,
            radial: disk.radial(s.disk_angle),
            finite: s.phase.is_finite(),
        }
    }
}

/// Per-(tag, fix-kind) incremental accumulator state.
///
/// Owned by the streaming session's per-tag cache slots; see the module
/// docs for the math and the re-anchor policy. Enhanced accumulators are
/// stored cell-major (`[cell × refs + ref]`) so the update inner loop and
/// the O(grid) reduction walk memory contiguously.
#[derive(Debug, Clone)]
pub(crate) struct IncrementalState {
    profile: ProfileKind,
    cfg: SpectrumConfig,
    disk: DiskConfig,
    grid: Grid,
    /// One column per buffered snapshot, front = oldest (next to downdate).
    cols: VecDeque<Column>,
    /// Resident columns with a non-finite phase; while > 0 the session
    /// serves the legacy path ([`IncrementalState::fallback_needed`]).
    nonfinite: usize,
    /// Stream sequence bounds this state is synced to: columns cover
    /// `[synced_lo, synced_hi)` of the stream's ingest sequence.
    synced_lo: u64,
    synced_hi: u64,
    /// Update + downdate operations folded since the last anchor.
    ops_since_anchor: u64,
    /// Traditional per-cell complex sums (empty unless maintained).
    trad: Vec<Complex>,
    /// Enhanced frozen reference phases θ_r (anchor-time).
    enh_phase_r: Vec<f64>,
    /// Enhanced frozen reference steering per cell, `[cell × refs + ref]`.
    enh_steer_r: Vec<f64>,
    /// Enhanced per-(cell, ref) weighted complex sums.
    enh_acc: Vec<Complex>,
}

impl IncrementalState {
    /// Fresh, un-anchored state; the first [`IncrementalState::sync`]
    /// performs the initial anchor (its pending delta always covers the
    /// whole resident set).
    pub(crate) fn new(
        kind: FixKind,
        profile: ProfileKind,
        cfg: &SpectrumConfig,
        disk: &DiskConfig,
    ) -> IncrementalState {
        IncrementalState {
            profile,
            cfg: *cfg,
            disk: *disk,
            grid: Grid::build(kind, cfg),
            cols: VecDeque::new(),
            nonfinite: 0,
            synced_lo: 0,
            synced_hi: 0,
            ops_since_anchor: 0,
            trad: Vec::new(),
            enh_phase_r: Vec::new(),
            enh_steer_r: Vec::new(),
            enh_acc: Vec::new(),
        }
    }

    /// Whether this state was built for the same configuration signature.
    /// A mismatch (config mutation between fixes) means the caller must
    /// rebuild the state from scratch.
    pub(crate) fn matches(
        &self,
        profile: ProfileKind,
        cfg: &SpectrumConfig,
        disk: &DiskConfig,
    ) -> bool {
        self.profile == profile && self.cfg == *cfg && self.disk == *disk
    }

    /// Whether any resident column carries a non-finite phase — the
    /// session must serve the legacy path (whose NaN semantics are the
    /// contract) until the poison leaves the window.
    pub(crate) fn fallback_needed(&self) -> bool {
        self.nonfinite > 0
    }

    fn needs_trad(&self) -> bool {
        matches!(self.profile, ProfileKind::Traditional | ProfileKind::Hybrid)
    }

    fn needs_enh(&self) -> bool {
        matches!(self.profile, ProfileKind::Enhanced | ProfileKind::Hybrid)
    }

    /// Whether folding `delta` more operations would exceed the drift bound.
    fn drift_tripped(&self, delta: u64, policy: &IncrementalPolicy) -> bool {
        // lint:allow(lossy-cast) op counts stay far below 2^52, exact in f64
        (self.ops_since_anchor.saturating_add(delta) as f64) * f64::EPSILON > policy.drift_tol
    }

    /// Bring the accumulators up to date with the stream: downdate columns
    /// evicted since the last sync and fold in columns ingested since, or
    /// rebuild exactly from `set` when the state is new or outrun (pending
    /// delta ≥ resident), its op period elapsed, or the drift bound trips.
    ///
    /// `set` is the current **calibrated** window; `evicted`/`ingested`
    /// are the stream's lifetime sequence counters, so `set` spans
    /// sequence numbers `[evicted, ingested)`.
    pub(crate) fn sync(
        &mut self,
        set: &SnapshotSet,
        evicted: u64,
        ingested: u64,
        policy: &IncrementalPolicy,
    ) -> SyncOutcome {
        let down = evicted.saturating_sub(self.synced_lo);
        let up = ingested.saturating_sub(self.synced_hi);
        let delta = down + up;
        let resident = set.len() as u64;
        if delta >= resident
            || self.ops_since_anchor.saturating_add(delta) >= REANCHOR_AFTER_OPS
            || self.drift_tripped(delta, policy)
        {
            self.anchor(set);
            self.synced_lo = evicted;
            self.synced_hi = ingested;
            return SyncOutcome {
                applied: resident,
                downdated: 0,
                reanchored: true,
            };
        }
        for _ in 0..down {
            if let Some(col) = self.cols.pop_front() {
                if col.finite {
                    self.apply(&col, false);
                } else {
                    self.nonfinite -= 1;
                }
            }
        }
        // lint:allow(lossy-cast) up <= resident == set.len(), fits usize
        let start = set.len() - up as usize;
        for s in &set.snapshots()[start..] {
            let col = Column::new(s, &self.disk);
            if col.finite {
                self.apply(&col, true);
            } else {
                self.nonfinite += 1;
            }
            self.cols.push_back(col);
        }
        self.ops_since_anchor += delta;
        self.synced_lo = evicted;
        self.synced_hi = ingested;
        let mut reanchored = false;
        if self.nonfinite == 0
            && self.needs_enh()
            && self.enh_phase_r.is_empty()
            && !self.cols.is_empty()
        {
            // The last anchor found no finite snapshot to freeze references
            // from; now that the window is clean again, rebuild properly.
            self.anchor(set);
            reanchored = true;
        }
        SyncOutcome {
            applied: up,
            downdated: down,
            reanchored,
        }
    }

    /// Exact rebuild: run the reference evaluators' cell kernel over the
    /// finite subset of `set` and keep its sums, so an immediately
    /// following reduction is bit-identical to the free functions (and to
    /// the clean-subset recompute when non-finite columns are resident).
    fn anchor(&mut self, set: &SnapshotSet) {
        self.cols.clear();
        for s in set.snapshots() {
            self.cols.push_back(Column::new(s, &self.disk));
        }
        self.nonfinite = self.cols.iter().filter(|c| !c.finite).count();
        let finite = SnapshotSet::from_snapshots(
            set.snapshots()
                .iter()
                .filter(|s| s.phase.is_finite())
                .copied()
                .collect(),
        );
        let p = prepare(&finite, self.disk.radius, &self.cfg);
        let radial: Vec<Vec3> = p.beta.iter().map(|&b| self.disk.radial(b)).collect();
        let cells = self.grid.cells();
        let nrefs = p.references.len();
        if self.needs_trad() {
            self.trad.clear();
            self.trad.resize(cells, Complex::ZERO);
        }
        let likelihood = self.needs_enh().then(|| Likelihood::new(&self.cfg));
        if likelihood.is_some() {
            self.enh_phase_r = p.references.iter().map(|&r| p.phase[r]).collect();
            self.enh_steer_r.clear();
            self.enh_steer_r.resize(nrefs * cells, 0.0);
            self.enh_acc.clear();
            self.enh_acc.resize(nrefs * cells, Complex::ZERO);
        }
        let mut scratch = Scratch::new(&p);
        for cell in 0..cells {
            for (i, s) in scratch.steer.iter_mut().enumerate() {
                *s = self.grid.steer(cell, p.k_r[i], p.beta[i], radial[i]);
            }
            let span = cell * nrefs..(cell + 1) * nrefs;
            let enhanced = likelihood.map(|likelihood| {
                for (s_r, &r) in self.enh_steer_r[span.clone()].iter_mut().zip(&p.references) {
                    *s_r = scratch.steer[r];
                }
                (likelihood, &mut self.enh_acc[span])
            });
            let trad = cell_sums(&p, &scratch.steer, &mut scratch.steered, enhanced);
            if self.needs_trad() {
                self.trad[cell] = trad;
            }
        }
        self.ops_since_anchor = 0;
    }

    /// Rank-1 update (`add`) or downdate (`!add`) of one finite column
    /// across every cell — the same contribution expressions the anchor
    /// folds, so an update extends the reference left-fold exactly and a
    /// downdate subtracts the exact value that was added.
    fn apply(&mut self, col: &Column, add: bool) {
        let cells = self.grid.cells();
        let nrefs = self.enh_phase_r.len();
        let likelihood = Likelihood::new(&self.cfg);
        let (trad, enh) = (self.needs_trad(), self.needs_enh());
        for cell in 0..cells {
            let s = self.grid.steer(cell, col.k_r, col.beta, col.radial);
            let contrib = col.phasor * Complex::cis(s);
            if trad {
                if add {
                    self.trad[cell] += contrib;
                } else {
                    self.trad[cell] -= contrib;
                }
            }
            if enh {
                for ri in 0..nrefs {
                    let w = likelihood.weight(
                        col.phase - self.enh_phase_r[ri],
                        self.enh_steer_r[cell * nrefs + ri] - s,
                    );
                    let wc = w * contrib;
                    if add {
                        self.enh_acc[cell * nrefs + ri] += wc;
                    } else {
                        self.enh_acc[cell * nrefs + ri] -= wc;
                    }
                }
            }
        }
    }

    /// O(grid) reduction of the accumulators to spectrum values for
    /// `kind`, replaying the reference normalization order bit-for-bit.
    fn reduce_values(&self, kind: ProfileKind) -> Vec<f64> {
        let n = self.cols.len();
        let cells = self.grid.cells();
        match kind {
            ProfileKind::Traditional => self
                .trad
                .iter()
                // lint:allow(lossy-cast) snapshot count is < 2^32, exact in f64
                .map(|a| a.abs() / n as f64)
                .collect(),
            ProfileKind::Enhanced | ProfileKind::Hybrid => {
                let nrefs = self.enh_phase_r.len();
                (0..cells)
                    .map(|cell| {
                        let mut total = 0.0;
                        for ri in 0..nrefs {
                            // lint:allow(lossy-cast) snapshot count is < 2^32, exact in f64
                            total += self.enh_acc[cell * nrefs + ri].abs() / n as f64;
                        }
                        // lint:allow(lossy-cast) reference count is < 2^32, exact in f64
                        total / nrefs as f64
                    })
                    .collect()
            }
        }
    }

    fn reduce_2d(&self, kind: ProfileKind) -> Spectrum2D {
        Spectrum2D {
            values: self.reduce_values(kind),
        }
    }

    fn reduce_3d(&self, kind: ProfileKind) -> Spectrum3D {
        Spectrum3D {
            azimuth_steps: self.cfg.azimuth_steps,
            polar_steps: self.cfg.polar_steps,
            values: self.reduce_values(kind),
        }
    }

    /// The 2D bearing peak from the reduced accumulators — the same
    /// detect/refine logic as the engine's exhaustive path.
    pub(crate) fn peak_2d(&self) -> Option<PeakEstimate> {
        SpectrumEngine::exhaustive_peak_2d(|k| self.reduce_2d(k), self.profile)
    }

    /// The 3D peak direction from the reduced accumulators (both the
    /// horizontal-disk and oriented-disk grids reduce through here).
    pub(crate) fn peak_3d(&self) -> Option<(Direction3, f64)> {
        SpectrumEngine::exhaustive_peak_3d(|k| self.reduce_3d(k), self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::engine::SpectrumEngineConfig;
    use crate::spectrum::{
        profile_power, profile_power_oracle, spectrum_2d, spectrum_3d, spectrum_3d_for_disk,
    };
    use proptest::prelude::*;
    use tagspin_geom::angle;

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
                        phase: angle::wrap_tau(2.0 * TAU / LAMBDA * d + 0.9),
                        disk_angle: disk.disk_angle(t),
                        lambda: LAMBDA,
                        rssi_dbm: -60.0,
                    }
                })
                .collect(),
        )
    }

    fn cfg() -> SpectrumConfig {
        SpectrumConfig {
            azimuth_steps: 90,
            polar_steps: 11,
            references: 4,
            ..SpectrumConfig::default()
        }
    }

    #[test]
    fn anchored_reduction_is_bit_identical_2d() {
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let set = synthesize(&disk, Vec3::new(-0.9, 0.4, 0.0), 60);
        let cfg = cfg();
        for profile in [
            ProfileKind::Traditional,
            ProfileKind::Enhanced,
            ProfileKind::Hybrid,
        ] {
            let mut st = IncrementalState::new(FixKind::Fix2D, profile, &cfg, &disk);
            let out = st.sync(&set, 0, set.len() as u64, &IncrementalPolicy::default());
            assert!(out.reanchored);
            let kinds: &[ProfileKind] = match profile {
                ProfileKind::Traditional => &[ProfileKind::Traditional],
                ProfileKind::Enhanced => &[ProfileKind::Enhanced],
                ProfileKind::Hybrid => &[ProfileKind::Hybrid, ProfileKind::Traditional],
            };
            for &k in kinds {
                let incr = st.reduce_2d(k);
                let reference = spectrum_2d(&set, disk.radius, k, &cfg);
                assert_eq!(incr.values(), reference.values(), "{profile:?}/{k:?}");
            }
        }
    }

    #[test]
    fn anchored_reduction_is_bit_identical_3d_and_aided() {
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let set = synthesize(&disk, Vec3::new(-0.7, 0.3, 0.5), 50);
        let cfg = cfg();
        let mut st = IncrementalState::new(FixKind::Fix3D, ProfileKind::Enhanced, &cfg, &disk);
        st.sync(&set, 0, set.len() as u64, &IncrementalPolicy::default());
        let reference = spectrum_3d(&set, disk.radius, ProfileKind::Enhanced, &cfg);
        assert_eq!(
            st.reduce_3d(ProfileKind::Enhanced).values(),
            reference.values()
        );

        let vdisk = DiskConfig::vertical(Vec3::ZERO, 0.0);
        let vset = synthesize(&vdisk, Vec3::new(0.2, 1.4, 0.8), 50);
        let mut st = IncrementalState::new(FixKind::Fix3DAided, ProfileKind::Hybrid, &cfg, &vdisk);
        st.sync(&vset, 0, vset.len() as u64, &IncrementalPolicy::default());
        for k in [ProfileKind::Hybrid, ProfileKind::Traditional] {
            let reference = spectrum_3d_for_disk(&vset, &vdisk, k, &cfg);
            assert_eq!(st.reduce_3d(k).values(), reference.values(), "{k:?}");
        }
    }

    #[test]
    fn updates_extend_the_traditional_fold_exactly() {
        // Append-only growth keeps the traditional accumulator bit-equal to
        // a from-scratch recompute: the left-fold is merely extended.
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let full = synthesize(&disk, Vec3::new(0.4, -1.1, 0.0), 80);
        let cfg = cfg();
        let policy = IncrementalPolicy::default();
        let mut st = IncrementalState::new(FixKind::Fix2D, ProfileKind::Traditional, &cfg, &disk);
        let mut set = SnapshotSet::from_snapshots(full.snapshots()[..40].to_vec());
        st.sync(&set, 0, 40, &policy);
        for (i, s) in full.snapshots()[40..].iter().enumerate() {
            set.push(*s);
            st.sync(&set, 0, 41 + i as u64, &policy);
        }
        let incr = st.reduce_2d(ProfileKind::Traditional);
        let reference = spectrum_2d(&full, disk.radius, ProfileKind::Traditional, &cfg);
        assert_eq!(incr.values(), reference.values());
    }

    #[test]
    fn downdates_track_the_window_within_tolerance() {
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let full = synthesize(&disk, Vec3::new(-0.5, 0.9, 0.0), 120);
        let cfg = cfg();
        let policy = IncrementalPolicy::default();
        let mut st = IncrementalState::new(FixKind::Fix2D, ProfileKind::Hybrid, &cfg, &disk);
        // Slide a 48-snapshot window along the stream, syncing every step.
        let mut set = SnapshotSet::from_snapshots(full.snapshots()[..48].to_vec());
        let (mut evicted, mut ingested) = (0u64, 48u64);
        st.sync(&set, evicted, ingested, &policy);
        for s in full.snapshots()[48..].iter() {
            set.push(*s);
            ingested += 1;
            evicted += set.evict_to_len(48) as u64;
            st.sync(&set, evicted, ingested, &policy);
        }
        assert_eq!(st.cols.len(), set.len());
        // Traditional sums see only float drift from the downdates.
        let incr = st.reduce_2d(ProfileKind::Traditional);
        let reference = spectrum_2d(&set, disk.radius, ProfileKind::Traditional, &cfg);
        for (a, b) in incr.values().iter().zip(reference.values()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // Enhanced values are frozen-reference estimates between anchors:
        // per-cell values drift as the window slides away from the anchor's
        // reference snapshots, but the detected bearing stays put.
        let ecfg = SpectrumEngineConfig { exhaustive: true };
        let engine = SpectrumEngine::default();
        let incr_peak = st.peak_2d().unwrap();
        let ref_peak = engine
            .peak_2d(&set, disk.radius, ProfileKind::Hybrid, &cfg, &ecfg)
            .unwrap();
        // lint:allow(lossy-cast) azimuth step count is < 2^32, exact in f64
        let step = TAU / cfg.azimuth_steps as f64;
        assert!(
            angle::separation(incr_peak.position, ref_peak.position) <= 2.0 * step + 1e-12,
            "{} vs {}",
            incr_peak.position,
            ref_peak.position
        );
        // A re-anchor snaps back to bit-identity.
        let out = st.sync(
            &set,
            evicted,
            ingested,
            &IncrementalPolicy {
                drift_tol: 0.0,
                ..policy
            },
        );
        assert!(out.reanchored);
        let incr = st.reduce_2d(ProfileKind::Hybrid);
        let reference = spectrum_2d(&set, disk.radius, ProfileKind::Hybrid, &cfg);
        assert_eq!(incr.values(), reference.values());
    }

    #[test]
    fn nonfinite_columns_never_touch_the_accumulators() {
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let full = synthesize(&disk, Vec3::new(-0.8, 0.2, 0.0), 60);
        let cfg = cfg();
        let policy = IncrementalPolicy::default();
        let mut st = IncrementalState::new(FixKind::Fix2D, ProfileKind::Hybrid, &cfg, &disk);
        let mut set = SnapshotSet::from_snapshots(full.snapshots()[..40].to_vec());
        st.sync(&set, 0, 40, &policy);
        assert!(!st.fallback_needed());
        // Poison two snapshots mid-stream.
        let mut poisoned = full.snapshots()[40];
        poisoned.phase = f64::NAN;
        set.push(poisoned);
        let mut poisoned = full.snapshots()[41];
        poisoned.phase = f64::INFINITY;
        set.push(poisoned);
        st.sync(&set, 0, 42, &policy);
        assert!(st.fallback_needed());
        // The accumulators still equal the clean-subset (first 40) fold.
        let clean = SnapshotSet::from_snapshots(full.snapshots()[..40].to_vec());
        let reference = spectrum_2d(&clean, disk.radius, ProfileKind::Traditional, &cfg);
        let incr: Vec<f64> = st
            .trad
            .iter()
            .map(|a| a.abs() / clean.len() as f64)
            .collect();
        assert_eq!(&incr, reference.values());
        // Evicting the poison clears the fallback.
        let evicted = set.evict_to_len(0);
        assert_eq!(evicted, 42);
        set.push(*full.snapshots().last().unwrap());
        let out = st.sync(&set, 42, 43, &policy);
        assert!(!st.fallback_needed());
        assert!(out.reanchored, "delta >= resident must re-anchor");
    }

    /// The profile kinds an anchored state of `profile` can reduce to.
    fn reducible(profile: ProfileKind) -> &'static [ProfileKind] {
        match profile {
            ProfileKind::Traditional => &[ProfileKind::Traditional],
            ProfileKind::Enhanced => &[ProfileKind::Enhanced],
            ProfileKind::Hybrid => &[ProfileKind::Hybrid, ProfileKind::Traditional],
        }
    }

    proptest! {
        /// The cell kernel — through `profile_power` for every profile kind
        /// and through an anchored state's reduction — equals the textbook
        /// Definition 4.1 loop bit for bit, on arbitrary snapshot sets
        /// (steering amplitudes large enough to reach the `rem_euclid`
        /// fall-through of the phase wrap).
        #[test]
        fn prop_kernel_matches_textbook_oracle(
            reads in collection::vec((0.0..TAU, 0.0..TAU, 0.30..0.36), 1..=400),
            radius in 0.01f64..0.3,
            references in 1usize..=32,
            sigma in 0.02f64..1.0,
            inflation in 0.25f64..4.0,
            azimuth_steps in 8usize..=12,
            fix_kind in 0usize..3,
            profile in 0usize..3,
            normal_azimuth in 0.0..TAU,
        ) {
            let set = SnapshotSet::from_snapshots(
                reads
                    .iter()
                    .enumerate()
                    .map(|(i, &(phase, disk_angle, lambda))| Snapshot {
                        t_s: i as f64 * 0.01,
                        phase,
                        disk_angle,
                        lambda,
                        rssi_dbm: -60.0,
                    })
                    .collect(),
            );
            let cfg = SpectrumConfig {
                azimuth_steps,
                polar_steps: 3,
                sigma,
                references,
                weight_inflation: inflation,
            };
            let (fix_kind, disk) = match fix_kind {
                0 => (FixKind::Fix2D, DiskConfig::paper_default(Vec3::ZERO)),
                1 => (FixKind::Fix3D, DiskConfig::paper_default(Vec3::ZERO)),
                _ => (FixKind::Fix3DAided, DiskConfig::vertical(Vec3::ZERO, normal_azimuth)),
            };
            let disk = DiskConfig { radius, ..disk };
            let profile = [
                ProfileKind::Traditional,
                ProfileKind::Enhanced,
                ProfileKind::Hybrid,
            ][profile];
            let mut st = IncrementalState::new(fix_kind, profile, &cfg, &disk);
            st.sync(&set, 0, set.len() as u64, &IncrementalPolicy::default());
            let reduced: Vec<(ProfileKind, Vec<f64>)> = reducible(profile)
                .iter()
                .map(|&k| (k, st.reduce_values(k)))
                .collect();

            let p = prepare(&set, disk.radius, &cfg);
            let radial: Vec<Vec3> = p.beta.iter().map(|&b| disk.radial(b)).collect();
            let mut scratch = Scratch::new(&p);
            for cell in 0..st.grid.cells() {
                for (i, s) in scratch.steer.iter_mut().enumerate() {
                    *s = st.grid.steer(cell, p.k_r[i], p.beta[i], radial[i]);
                }
                for kind in [
                    ProfileKind::Traditional,
                    ProfileKind::Enhanced,
                    ProfileKind::Hybrid,
                ] {
                    let oracle = profile_power_oracle(&p, &scratch.steer, kind, &cfg);
                    let kernel = profile_power(&p, &mut scratch, kind, Likelihood::new(&cfg));
                    prop_assert_eq!(
                        kernel.to_bits(),
                        oracle.to_bits(),
                        "profile_power {:?} cell {}: {} vs oracle {}",
                        kind,
                        cell,
                        kernel,
                        oracle
                    );
                    for (k, values) in &reduced {
                        if *k == kind {
                            prop_assert_eq!(
                                values[cell].to_bits(),
                                oracle.to_bits(),
                                "anchored {:?} state reduced to {:?}, cell {}: {} vs oracle {}",
                                profile,
                                kind,
                                cell,
                                values[cell],
                                oracle
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn budget_counts_profile_families() {
        let cfg = cfg();
        let cells = cfg.azimuth_steps as u64;
        assert_eq!(
            budget_cells(FixKind::Fix2D, ProfileKind::Traditional, &cfg),
            cells
        );
        assert_eq!(
            budget_cells(FixKind::Fix2D, ProfileKind::Enhanced, &cfg),
            cells * 4
        );
        assert_eq!(
            budget_cells(FixKind::Fix2D, ProfileKind::Hybrid, &cfg),
            cells * 5
        );
        let cells3 = cells * cfg.polar_steps as u64;
        assert_eq!(
            budget_cells(FixKind::Fix3DAided, ProfileKind::Hybrid, &cfg),
            cells3 * 5
        );
    }

    #[test]
    fn peak_matches_engine_exhaustive_path() {
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let set = synthesize(&disk, Vec3::new(-0.7, 1.1, 0.0), 70);
        let cfg = cfg();
        let ecfg = SpectrumEngineConfig { exhaustive: true };
        let engine = SpectrumEngine::default();
        let mut st = IncrementalState::new(FixKind::Fix2D, ProfileKind::Hybrid, &cfg, &disk);
        st.sync(&set, 0, set.len() as u64, &IncrementalPolicy::default());
        let incr = st.peak_2d().unwrap();
        let reference = engine
            .peak_2d(&set, disk.radius, ProfileKind::Hybrid, &cfg, &ecfg)
            .unwrap();
        assert_eq!(incr.position.to_bits(), reference.position.to_bits());
        assert_eq!(incr.value.to_bits(), reference.value.to_bits());
    }
}
