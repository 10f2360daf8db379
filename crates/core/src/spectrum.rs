//! Angle spectra (paper Section IV and Section V-B).
//!
//! Given the calibrated snapshots of one spinning tag, these functions
//! compute the relative power received from each candidate direction and
//! locate the peak — the bearing from the disk center to the reader.
//!
//! Two profiles are implemented:
//!
//! * **`Q(φ)`** (Eqn 7) — the classical SAR/AoA beamformer on *relative*
//!   phases `θᵢ − θ₁`, which cancels both the diversity term `θ_div` and the
//!   unknown center distance `D`. (The paper's absolute-phase `P(φ)` of
//!   Eqn 6 has exactly the same magnitude — `|Σ hᵢ·sᵢ| = |h₁|·|Σ (hᵢ/h₁)·sᵢ|`
//!   — so `Q` stands in for both.)
//! * **`R(φ)`** (Definition 4.1) — the paper's contribution: each snapshot
//!   is weighted by the Gaussian likelihood of its relative phase under the
//!   candidate direction, `wᵢ = f(θᵢ−θ₁; cᵢ(φ), √2·σ)`, which sharpens the
//!   main lobe and suppresses sidelobes ("many false candidates fade away,
//!   protruding the real one").
//!
//! The 3D variants (Eqns 11–12) add the polar angle `γ`, scaling the
//! steering term by `cos γ`; the resulting profile has two symmetric peaks
//! at `±γ` (the paper's z-ambiguity).

pub mod engine;
pub mod incremental;

use crate::snapshot::SnapshotSet;
use crate::spinning::DiskConfig;
use serde::{Deserialize, Serialize};
use std::f64::consts::{FRAC_PI_2, TAU};
use tagspin_dsp::complex::Complex;
use tagspin_dsp::peak::{self, PeakEstimate};
use tagspin_geom::angle;
use tagspin_geom::vec3::Direction3;

/// Which power profile to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProfileKind {
    /// Classical relative-phase beamformer, Eqn 7 (≡ Eqn 6 in magnitude).
    Traditional,
    /// The paper's likelihood-weighted profile, Definition 4.1.
    Enhanced,
    /// Two-stage bearing estimation: the enhanced profile *detects* the
    /// main lobe (its likelihood weights suppress sidelobes and false
    /// candidates), then the traditional profile *refines* the peak inside
    /// that lobe, within ±10° of the detection (see
    /// [`Spectrum2D::constrained_peak`] and [`Spectrum3D::constrained_peak`]).
    ///
    /// Rationale: under the paper's white Gaussian phase noise, `Q` is the
    /// matched filter — its peak location is minimum-variance — while `R`'s
    /// noise-reactive weights trade peak-location precision for sidelobe
    /// immunity. The hybrid keeps both properties and is the pipeline
    /// default.
    Hybrid,
}

/// Half-width of the [`ProfileKind::Hybrid`] refinement window, degrees.
const REFINE_HALF_WIDTH_DEG: f64 = 10.0;

/// Mask `values` to `window` (ascending cell indices) in place: every cell
/// outside it becomes `−∞`. Returns whether a cell inside it is finite.
fn mask(values: &mut [f64], window: &[usize]) -> bool {
    let mut inside = window.iter().copied().peekable();
    let mut finite = false;
    for (c, v) in values.iter_mut().enumerate() {
        if inside.next_if_eq(&c).is_some() {
            finite |= v.is_finite();
        } else {
            *v = f64::NEG_INFINITY;
        }
    }
    finite
}

/// Spectrum computation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpectrumConfig {
    /// Azimuth grid size over `[0, 2π)` (720 → 0.5° steps).
    pub azimuth_steps: usize,
    /// Polar grid size over `[-π/2, π/2]` (3D only; odd keeps γ = 0 on the
    /// grid).
    pub polar_steps: usize,
    /// Per-read phase noise σ assumed by the `R` weights, radians (the
    /// paper: 0.1). The weight Gaussian uses `√2·σ` because it applies to a
    /// *difference* of two reads.
    pub sigma: f64,
    /// Number of reference snapshots for the enhanced profile's weights,
    /// spread evenly over the capture; the per-reference spectra are
    /// averaged.
    ///
    /// The paper's Definition 4.1 uses a single reference (the first
    /// snapshot). A single reference leaves a small bearing bias whose sign
    /// depends on *which* snapshot is the reference — the far-field model
    /// error `d(t) ≈ D − r·cos(ωt−φ)` enters the weights asymmetrically —
    /// and it also exposes the weights to the reference's own noise.
    /// Averaging a few spread references cancels both effects (verified in
    /// tests); `1` reproduces the paper's formula verbatim.
    pub references: usize,
    /// Multiplier on the weight Gaussian's σ for the enhanced profile
    /// (`1.0` = the paper's `√2·σ`). Values above 1 soften the weighting —
    /// useful in strong-multipath environments.
    pub weight_inflation: f64,
}

impl Default for SpectrumConfig {
    fn default() -> Self {
        SpectrumConfig {
            azimuth_steps: 720,
            polar_steps: 91,
            sigma: 0.1,
            references: 16,
            weight_inflation: 1.0,
        }
    }
}

impl SpectrumConfig {
    /// Validate grid sizes and σ.
    ///
    /// # Errors
    ///
    /// Returns the first offending field.
    pub fn validate(&self) -> Result<(), SpectrumConfigError> {
        if self.azimuth_steps < 8 {
            return Err(SpectrumConfigError::TooFewAzimuthSteps(self.azimuth_steps));
        }
        if self.polar_steps < 3 {
            return Err(SpectrumConfigError::TooFewPolarSteps(self.polar_steps));
        }
        if !(self.sigma.is_finite() && self.sigma > 0.0) {
            return Err(SpectrumConfigError::BadSigma(self.sigma));
        }
        if !(self.weight_inflation.is_finite() && self.weight_inflation > 0.0) {
            return Err(SpectrumConfigError::BadWeightInflation(
                self.weight_inflation,
            ));
        }
        if self.references == 0 {
            return Err(SpectrumConfigError::NoReferences);
        }
        Ok(())
    }
}

/// An unusable [`SpectrumConfig`], reported by [`SpectrumConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpectrumConfigError {
    /// `azimuth_steps` is below the minimum of 8.
    TooFewAzimuthSteps(usize),
    /// `polar_steps` is below the minimum of 3.
    TooFewPolarSteps(usize),
    /// σ is non-positive or non-finite.
    BadSigma(f64),
    /// `weight_inflation` is non-positive or non-finite.
    BadWeightInflation(f64),
    /// At least one reference element is required.
    NoReferences,
}

impl std::fmt::Display for SpectrumConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpectrumConfigError::TooFewAzimuthSteps(n) => {
                write!(f, "azimuth_steps {n} must be >= 8")
            }
            SpectrumConfigError::TooFewPolarSteps(n) => {
                write!(f, "polar_steps {n} must be >= 3")
            }
            SpectrumConfigError::BadSigma(s) => {
                write!(f, "sigma {s} must be finite and positive")
            }
            SpectrumConfigError::BadWeightInflation(w) => {
                write!(f, "weight_inflation {w} must be finite and positive")
            }
            SpectrumConfigError::NoReferences => write!(f, "references must be at least 1"),
        }
    }
}

impl std::error::Error for SpectrumConfigError {}

/// A sampled 2D angle spectrum over `φ ∈ [0, 2π)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Spectrum2D {
    values: Vec<f64>,
}

impl Spectrum2D {
    /// The spectrum samples; sample `i` is at azimuth `i·2π/n`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Azimuth of grid sample `i`.
    pub fn azimuth_of(&self, i: usize) -> f64 {
        // lint:allow(lossy-cast) bin index and bin count are < 2^32, exact in f64
        i as f64 * TAU / self.values.len() as f64
    }

    /// The interpolated spectrum peak.
    ///
    /// Returns `None` only for degenerate (< 3 sample) spectra.
    pub fn peak(&self) -> Option<PeakEstimate> {
        peak::refine_circular(&self.values, TAU)
    }

    /// Peak-to-sidelobe ratio with a guard of `guard_deg` degrees around the
    /// main lobe — the sharpness metric for Fig. 6.
    pub fn peak_to_sidelobe(&self, guard_deg: f64) -> Option<f64> {
        // lint:allow(lossy-cast) ceil of a small non-negative ratio, in-range for usize
        let guard = (guard_deg.to_radians() / (TAU / self.values.len() as f64)).ceil() as usize;
        peak::peak_to_sidelobe(&self.values, guard)
    }

    /// Half-power main-lobe width in degrees.
    pub fn half_power_width_deg(&self) -> Option<f64> {
        peak::half_power_width(&self.values)
            // lint:allow(lossy-cast) width in bins is < 2^32, exact in f64
            .map(|w| w as f64 * 360.0 / self.values.len() as f64)
    }

    /// The [hybrid](ProfileKind::Hybrid) refinement window around
    /// `center`: the samples within ±10° of it (circular).
    fn hybrid_window(&self, center: f64) -> Vec<usize> {
        let half_width = REFINE_HALF_WIDTH_DEG.to_radians();
        (0..self.values.len())
            .filter(|&i| angle::separation(self.azimuth_of(i), center) <= half_width)
            .collect()
    }

    /// The peak of the hybrid refinement window around `center` (azimuths
    /// within ±10°, circular): the spectrum masked to that window, in
    /// place, then [`Spectrum2D::peak`].
    ///
    /// Returns `None` for degenerate spectra or a window with no finite
    /// sample.
    pub fn constrained_peak(mut self, center: f64) -> Option<PeakEstimate> {
        let window = self.hybrid_window(center);
        if !mask(&mut self.values, &window) {
            return None;
        }
        self.peak()
    }

    /// The bearing `kind` reports from its own spectrum `self`: its peak,
    /// or for [`ProfileKind::Hybrid`] the traditional spectrum's
    /// [`constrained_peak`](Spectrum2D::constrained_peak) around that peak
    /// (the peak itself when the window has no finite sample).
    /// `traditional` returns that spectrum, evaluated on at least the
    /// window cells it is given. The exhaustive path, the engine and the
    /// incremental layer all take their peak here.
    pub(crate) fn profile_peak(
        &self,
        kind: ProfileKind,
        traditional: impl FnOnce(&[usize]) -> Spectrum2D,
    ) -> Option<PeakEstimate> {
        let detect = self.peak()?;
        if kind != ProfileKind::Hybrid {
            return Some(detect);
        }
        let refined = traditional(&self.hybrid_window(detect.position));
        Some(refined.constrained_peak(detect.position).unwrap_or(detect))
    }

    /// A copy normalized to unit peak (for plotting comparisons).
    pub fn normalized(&self) -> Spectrum2D {
        let m = self
            .values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        if m <= 0.0 || !m.is_finite() {
            return self.clone();
        }
        Spectrum2D {
            values: self.values.iter().map(|v| v / m).collect(),
        }
    }
}

/// A sampled 3D angle spectrum over `(φ, γ)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Spectrum3D {
    azimuth_steps: usize,
    polar_steps: usize,
    /// Row-major `[polar][azimuth]`.
    values: Vec<f64>,
}

impl Spectrum3D {
    /// Azimuth of column `i`.
    pub fn azimuth_of(&self, i: usize) -> f64 {
        // lint:allow(lossy-cast) azimuth index and step count are < 2^32, exact in f64
        i as f64 * TAU / self.azimuth_steps as f64
    }

    /// Polar angle of row `j` (row 0 = −π/2, last row = +π/2).
    pub fn polar_of(&self, j: usize) -> f64 {
        // lint:allow(lossy-cast) polar index and step count are < 2^32, exact in f64
        -FRAC_PI_2 + j as f64 * std::f64::consts::PI / (self.polar_steps - 1) as f64
    }

    /// Grid dimensions `(azimuth_steps, polar_steps)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.azimuth_steps, self.polar_steps)
    }

    /// Value at `(azimuth index, polar index)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn value(&self, az: usize, po: usize) -> f64 {
        assert!(
            az < self.azimuth_steps && po < self.polar_steps,
            "index out of bounds"
        );
        self.values[po * self.azimuth_steps + az]
    }

    /// Raw values, row-major `[polar][azimuth]`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The global peak direction (one of the two symmetric candidates) with
    /// parabolic refinement along both axes.
    pub fn peak(&self) -> Option<(Direction3, f64)> {
        let idx = peak::argmax(&self.values)?;
        let (po, az) = (idx / self.azimuth_steps, idx % self.azimuth_steps);
        // Refine azimuth circularly along its row.
        let row: Vec<f64> = (0..self.azimuth_steps).map(|a| self.value(a, po)).collect();
        let az_ref = peak::refine_circular(&row, TAU)?;
        // Refine polar linearly along its column.
        let col: Vec<f64> = (0..self.polar_steps).map(|p| self.value(az, p)).collect();
        // lint:allow(lossy-cast) polar step count is < 2^32, exact in f64
        let po_step = std::f64::consts::PI / (self.polar_steps - 1) as f64;
        let po_ref = peak::refine_parabolic(&col, -FRAC_PI_2, po_step)?;
        Some((
            Direction3::new(az_ref.position, po_ref.position),
            self.values[idx],
        ))
    }

    /// Both symmetric peak candidates `(φ, ±γ)`, strongest first.
    pub fn peak_candidates(&self) -> Option<[Direction3; 2]> {
        let (d, _) = self.peak()?;
        Some([d, d.mirror()])
    }

    /// The [hybrid](ProfileKind::Hybrid) refinement window around
    /// `center`, row-major: the cells within ±10° of it in azimuth
    /// (circular) and in `|γ|` (polar symmetry folds the band onto both
    /// signs of γ).
    fn hybrid_window(&self, center: Direction3) -> Vec<usize> {
        let half_width = REFINE_HALF_WIDTH_DEG.to_radians();
        let n_az = self.azimuth_steps;
        let cols: Vec<usize> = (0..n_az)
            .filter(|&i| angle::separation(self.azimuth_of(i), center.azimuth) <= half_width)
            .collect();
        (0..self.polar_steps)
            .filter(|&j| (self.polar_of(j).abs() - center.polar.abs()).abs() <= half_width)
            .flat_map(|j| cols.iter().map(move |&i| j * n_az + i))
            .collect()
    }

    /// The peak of the hybrid refinement window around `center` (within
    /// ±10° in azimuth and in `|γ|`): the spectrum masked to that window,
    /// in place, then [`Spectrum3D::peak`]. Its parabolas read no cell
    /// outside the window, so a window neighbor off it leaves that axis on
    /// the grid.
    ///
    /// Returns `None` when the window has no finite cell.
    pub fn constrained_peak(mut self, center: Direction3) -> Option<(Direction3, f64)> {
        let window = self.hybrid_window(center);
        if !mask(&mut self.values, &window) {
            return None;
        }
        self.peak()
    }

    /// The 3D counterpart of [`Spectrum2D::profile_peak`]. The hybrid
    /// reports the refined direction with the detection's power.
    pub(crate) fn profile_peak(
        &self,
        kind: ProfileKind,
        traditional: impl FnOnce(&[usize]) -> Spectrum3D,
    ) -> Option<(Direction3, f64)> {
        let (detect, power) = self.peak()?;
        if kind != ProfileKind::Hybrid {
            return Some((detect, power));
        }
        let refined = traditional(&self.hybrid_window(detect));
        let dir = refined.constrained_peak(detect).map_or(detect, |(d, _)| d);
        Some((dir, power))
    }
}

/// Per-snapshot precomputation shared by all profiles.
struct Prepared {
    /// Measured phase θᵢ.
    phase: Vec<f64>,
    /// `e^{jθᵢ}`.
    phasor: Vec<Complex>,
    /// `4π·r/λᵢ` — the steering amplitude per snapshot.
    k_r: Vec<f64>,
    /// Disk angle βᵢ.
    beta: Vec<f64>,
    /// Reference snapshot indices (enhanced profile only), spread evenly.
    references: Vec<usize>,
}

fn prepare(set: &SnapshotSet, radius: f64, cfg: &SpectrumConfig) -> Prepared {
    let n = set.len();
    let snaps = set.snapshots();
    let mut phase = Vec::with_capacity(n);
    let mut phasor = Vec::with_capacity(n);
    let mut k_r = Vec::with_capacity(n);
    let mut beta = Vec::with_capacity(n);
    for s in snaps {
        phase.push(s.phase);
        phasor.push(Complex::cis(s.phase));
        k_r.push(2.0 * TAU * radius / s.lambda);
        beta.push(s.disk_angle);
    }
    let count = cfg.references.min(n);
    let references = (0..count).map(|k| k * n / count).collect();
    Prepared {
        phase,
        phasor,
        k_r,
        beta,
        references,
    }
}

/// The enhanced profile's likelihood weight (Definition 4.1): a Gaussian
/// in the deviation of a relative phase from its model value.
#[derive(Debug, Clone, Copy)]
struct Likelihood {
    /// Weight standard deviation, `√2·σ·inflation` (the difference of two
    /// reads has std `√2·σ`).
    sig: f64,
    /// Gaussian normalization `1/(σ√(2π))`.
    norm: f64,
}

impl Likelihood {
    fn new(cfg: &SpectrumConfig) -> Likelihood {
        let sig = std::f64::consts::SQRT_2 * cfg.sigma * cfg.weight_inflation;
        let norm = 1.0 / (sig * TAU.sqrt() / std::f64::consts::SQRT_2); // 1/(σ√(2π))
        Likelihood { sig, norm }
    }

    /// Weight of the relative phase `dphase = θᵢ − θ_ref` against its model
    /// value `c = s_ref − sᵢ` (radius terms only; `D` and `θ_div` cancel in
    /// the difference).
    #[inline]
    fn weight(self, dphase: f64, c: f64) -> f64 {
        let z = angle::wrap_pi(dphase - c) / self.sig;
        self.norm * (-0.5 * z * z).exp()
    }
}

/// Per-worker buffers for the cell kernels, sized to one [`Prepared`] (and
/// to a [`Harmonics`] series, by [`Scratch::with_series`]) so that
/// evaluating a cell never allocates.
struct Scratch {
    /// Steering terms `sᵢ` of the current cell (filled by the caller).
    steer: Vec<f64>,
    /// Steered phasors `e^{jθᵢ}·e^{jsᵢ}` (filled by [`cell_sums`]).
    steered: Vec<Complex>,
    /// Per-reference weighted sums (filled by [`cell_sums`] or
    /// [`harmonic_power`]).
    weighted: Vec<Complex>,
    /// Lane-wise power sums `Σᵢ zᵢ^m`, `m = 1..=K+1` (filled by
    /// [`harmonic_power`]; empty without a series).
    lanes: Vec<Lanes>,
    /// The lanes reduced: `S_m` for `m = 0..=K+1`.
    power_sums: Vec<Complex>,
}

impl Scratch {
    fn new(p: &Prepared) -> Scratch {
        let n = p.phase.len();
        Scratch {
            steer: vec![0.0; n],
            steered: vec![Complex::ZERO; n],
            weighted: vec![Complex::ZERO; p.references.len()],
            lanes: Vec::new(),
            power_sums: Vec::new(),
        }
    }

    /// [`Scratch::new`] plus the power-sum buffers of `h`'s series.
    fn with_series(p: &Prepared, h: &Harmonics) -> Scratch {
        let k = h.coeffs.len();
        Scratch {
            lanes: vec![Lanes::ZERO; k],
            power_sums: vec![Complex::ZERO; k + 1],
            ..Scratch::new(p)
        }
    }
}

/// Snapshots [`harmonic_power`] folds side by side: independent multiply
/// chains the compiler keeps in vector registers.
const LANES: usize = 4;

/// One complex accumulator per lane, split into real and imaginary parts.
#[derive(Debug, Clone, Copy)]
struct Lanes {
    re: [f64; LANES],
    im: [f64; LANES],
}

impl Lanes {
    const ZERO: Lanes = Lanes {
        re: [0.0; LANES],
        im: [0.0; LANES],
    };
}

/// Power terms the harmonic kernel may spend per likelihood weight it
/// replaces and still beat the per-pair kernel: a weight (wrap, divide
/// and `exp`) costs about as much as 16 complex multiply-adds, measured
/// per cell at 1,650 snapshots (see `docs/SPECTRUM_ENGINE.md`).
const SERIES_TERMS_PER_WEIGHT: usize = 16;

/// The enhanced profile's likelihood weight as a Fourier series, for the
/// engine's [`harmonic_power`] kernel.
///
/// The Gaussian of the *wrapped* deviation, `w(wrap_pi(x))`, equals the
/// wrapped normal `Σ_m w(x + 2πm)` up to the periodization error
/// `e^{−π²/(2σ_w²)}`, and the wrapped normal has the closed-form series
/// `Σ_k ĝ_k·e^{jkx}` with `ĝ_k = norm·σ_w/√(2π)·e^{−k²σ_w²/2}`. Truncated at
/// `|k| ≤ K`, the smallest `K` whose first dropped coefficient is below
/// `2⁻⁵⁴·ĝ₀`, the series is exact to rounding.
#[derive(Debug, Clone)]
struct Harmonics {
    /// `ĝ_k` for `k = 0..=K` (the series is symmetric, `ĝ_{−k} = ĝ_k`).
    coeffs: Vec<f64>,
}

impl Harmonics {
    /// The series for `likelihood`, or `None` where it would not be exact
    /// to rounding (periodization error at or above `2⁻⁵³`, which means
    /// `σ·weight_inflation > 0.259`) or would cost more than the per-pair
    /// kernel for `references` (clamped) references: `K + 2` power sums
    /// against [`SERIES_TERMS_PER_WEIGHT`] per replaced weight.
    fn select(likelihood: Likelihood, references: usize) -> Option<Harmonics> {
        let sig = likelihood.sig;
        let (period_tol, tail_tol) = (f64::EPSILON / 2.0, f64::EPSILON / 4.0); // 2⁻⁵³, 2⁻⁵⁴
        if (-std::f64::consts::PI.powi(2) / (2.0 * sig * sig)).exp() >= period_tol {
            return None;
        }
        // ĝ_k / ĝ₀
        // lint:allow(lossy-cast) harmonic index is below the search bound, far below 2^53
        let ratio = |k: usize| (-0.5 * (k as f64 * sig).powi(2)).exp();
        // The smallest K with ĝ_{K+1} < 2⁻⁵⁴·ĝ₀, searched only up to the
        // largest K the cost bound `K + 2 ≤ budget` admits.
        let budget = SERIES_TERMS_PER_WEIGHT.saturating_mul(references);
        let k = (0..budget.saturating_sub(1)).find(|&k| ratio(k + 1) < tail_tol)?;
        let g0 = likelihood.norm * sig / TAU.sqrt();
        Some(Harmonics {
            coeffs: (0..=k).map(|k| g0 * ratio(k)).collect(),
        })
    }
}

/// The engine's enhanced-profile kernel: the power of the same
/// per-reference weighted sums as [`cell_sums`], from one set of power
/// sums shared by every reference instead of one weight per (reference,
/// snapshot) pair.
///
/// With `zᵢ = e^{j(θᵢ + sᵢ)}` and the series of `h`,
/// `Σᵢ w(ψᵢ − ψ_r)·zᵢ = Σ_{|k|≤K} ĝ_k·z̄_r^k·S_{k+1}` where
/// `S_m = Σᵢ zᵢ^m`, `S₀ = n` and `S₋ₘ = conj(S_m)`. The power sums cost
/// `n·(K+1)` complex multiply-adds per cell, folded in [`LANES`] lanes in
/// snapshot order and then reduced lane by lane, so a cell's value depends
/// only on its inputs; mixing costs `2K+1` terms per reference. The sums
/// reduce to a power as in [`profile_power`].
fn harmonic_power(p: &Prepared, scratch: &mut Scratch, h: &Harmonics) -> f64 {
    let Scratch {
        steer,
        steered,
        weighted,
        lanes,
        power_sums,
    } = scratch;
    // lint:allow(lossy-cast) snapshot count is < 2^32, exact in f64
    let n = steered.len() as f64;
    cell_sums(p, steer, steered, None);
    lanes.fill(Lanes::ZERO);
    for chunk in steered.chunks(LANES) {
        // Lanes past the end of the last chunk stay zero, and so do all
        // their powers.
        let mut z = Lanes::ZERO;
        for (l, s) in chunk.iter().enumerate() {
            z.re[l] = s.re;
            z.im[l] = s.im;
        }
        let mut pow = z;
        for acc in lanes.iter_mut() {
            for l in 0..LANES {
                acc.re[l] += pow.re[l];
                acc.im[l] += pow.im[l];
                let re = pow.re[l] * z.re[l] - pow.im[l] * z.im[l];
                pow.im[l] = pow.re[l] * z.im[l] + pow.im[l] * z.re[l];
                pow.re[l] = re;
            }
        }
    }
    power_sums[0] = Complex::new(n, 0.0);
    for (s, acc) in power_sums[1..].iter_mut().zip(lanes.iter()) {
        *s = Complex::new(acc.re.iter().sum(), acc.im.iter().sum());
    }
    let (g, s) = (&h.coeffs, &power_sums[..]);
    for (out, &r) in weighted.iter_mut().zip(&p.references) {
        let zr = steered[r].conj();
        let mut u = Complex::ONE; // z̄_r^k
        let mut sum = g[0] * s[1];
        for k in 1..g.len() {
            u *= zr;
            sum += g[k] * (u * s[k + 1] + (u * s[k - 1]).conj());
        }
        *out = sum;
    }
    mean_power(weighted, n)
}

/// The exact per-cell profile kernel, shared by [`profile_power`] and the
/// incremental anchor ([`harmonic_power`] uses it only for the steered
/// phasors).
///
/// Computes each snapshot's steered phasor `e^{jθᵢ}·e^{jsᵢ}` once into
/// `steered` and returns the traditional sum `Σᵢ e^{j(θᵢ + sᵢ)}`. With
/// `enhanced`, it also writes one likelihood-weighted sum
/// `Σᵢ wᵢ·e^{j(θᵢ + sᵢ)}` per reference of `p` (in order) into the given
/// slice. Every sum folds in snapshot order.
fn cell_sums(
    p: &Prepared,
    steer: &[f64],
    steered: &mut [Complex],
    enhanced: Option<(Likelihood, &mut [Complex])>,
) -> Complex {
    let mut trad = Complex::ZERO;
    for ((out, &phasor), &s) in steered.iter_mut().zip(&p.phasor).zip(steer) {
        *out = phasor * Complex::cis(s);
        trad += *out;
    }
    if let Some((likelihood, weighted)) = enhanced {
        for (acc, &r) in weighted.iter_mut().zip(&p.references) {
            let (phase_r, steer_r) = (p.phase[r], steer[r]);
            let mut sum = Complex::ZERO;
            for ((&phase, &s), &z) in p.phase.iter().zip(steer).zip(steered.iter()) {
                sum += likelihood.weight(phase - phase_r, steer_r - s) * z;
            }
            *acc = sum;
        }
    }
    trad
}

/// Power of one candidate direction from its per-snapshot steering terms
/// (`scratch.steer`).
///
/// This reduces the cell kernel for the reference evaluators below and for
/// the [`engine`] fast path (which fills `steer` from cached tables).
/// For [`ProfileKind::Traditional`] this is `|Σ e^{j(θᵢ + sᵢ)}| / n` (the
/// reference factor `e^{−jθ₁}` of Eqn 7 has unit magnitude, so it never
/// affects the spectrum). For [`ProfileKind::Enhanced`] the likelihood
/// weights *do* depend on the reference, so the per-reference spectra are
/// averaged.
fn profile_power(
    p: &Prepared,
    scratch: &mut Scratch,
    kind: ProfileKind,
    likelihood: Likelihood,
) -> f64 {
    // lint:allow(lossy-cast) snapshot count is < 2^32, exact in f64
    let n = p.phase.len() as f64;
    let Scratch {
        steer,
        steered,
        weighted,
        ..
    } = scratch;
    match kind {
        ProfileKind::Traditional => cell_sums(p, steer, steered, None).abs() / n,
        ProfileKind::Enhanced | ProfileKind::Hybrid => {
            cell_sums(p, steer, steered, Some((likelihood, weighted)));
            mean_power(weighted, n)
        }
    }
}

/// The enhanced profile's power from its per-reference weighted sums: the
/// per-reference spectra `|Σ|/n`, averaged.
fn mean_power(weighted: &[Complex], n: f64) -> f64 {
    let mut total = 0.0;
    for acc in weighted {
        total += acc.abs() / n;
    }
    // lint:allow(lossy-cast) reference count is < 2^32, exact in f64
    total / weighted.len() as f64
}

/// The textbook Definition 4.1 loop: the steered phasor recomputed for
/// every (reference, snapshot) pair, deviations wrapped through
/// `rem_euclid`. The test oracle the cell kernel must match bit for bit.
#[cfg(test)]
#[allow(clippy::needless_range_loop)] // parallel indexing over phase/phasor/steer
fn profile_power_oracle(
    p: &Prepared,
    steer: &[f64],
    kind: ProfileKind,
    cfg: &SpectrumConfig,
) -> f64 {
    #[allow(clippy::disallowed_methods)]
    fn wrap_pi(x: f64) -> f64 {
        let w = x.rem_euclid(TAU);
        let w = if w >= TAU { 0.0 } else { w };
        if w > std::f64::consts::PI {
            w - TAU
        } else {
            w
        }
    }
    let n = p.beta.len();
    match kind {
        ProfileKind::Traditional => {
            let mut acc = Complex::ZERO;
            for i in 0..n {
                acc += p.phasor[i] * Complex::cis(steer[i]);
            }
            acc.abs() / n as f64
        }
        ProfileKind::Enhanced | ProfileKind::Hybrid => {
            let sig = std::f64::consts::SQRT_2 * cfg.sigma * cfg.weight_inflation;
            let norm = 1.0 / (sig * TAU.sqrt() / std::f64::consts::SQRT_2);
            let mut total = 0.0;
            for &r in &p.references {
                let mut acc = Complex::ZERO;
                for i in 0..n {
                    let c_i = steer[r] - steer[i];
                    let dev = wrap_pi((p.phase[i] - p.phase[r]) - c_i);
                    let z = dev / sig;
                    let w = norm * (-0.5 * z * z).exp();
                    acc += w * (p.phasor[i] * Complex::cis(steer[i]));
                }
                total += acc.abs() / n as f64;
            }
            total / p.references.len() as f64
        }
    }
}

/// Accumulate one candidate direction's power (Eqn 10 steering).
///
/// `cos_gamma` is 1.0 in 2D.
fn accumulate(
    p: &Prepared,
    scratch: &mut Scratch,
    phi: f64,
    cos_gamma: f64,
    kind: ProfileKind,
    likelihood: Likelihood,
) -> f64 {
    // Steering terms for this candidate direction.
    for ((s, &k_r), &beta) in scratch.steer.iter_mut().zip(&p.k_r).zip(&p.beta) {
        *s = k_r * (beta - phi).cos() * cos_gamma;
    }
    profile_power(p, scratch, kind, likelihood)
}

/// Compute a 2D angle spectrum.
///
/// `radius` is the disk radius in meters; snapshots must be time-ordered and
/// calibrated (orientation-corrected if desired).
///
/// # Panics
///
/// Panics when `set` is empty, `cfg` is invalid, or `cfg.reference` is out
/// of bounds.
pub fn spectrum_2d(
    set: &SnapshotSet,
    radius: f64,
    kind: ProfileKind,
    cfg: &SpectrumConfig,
) -> Spectrum2D {
    assert!(
        !set.is_empty(),
        "cannot compute a spectrum from zero snapshots"
    );
    // lint:allow(no-panic) documented precondition: callers validate configs
    cfg.validate().expect("invalid spectrum config");
    let p = prepare(set, radius, cfg);
    let mut scratch = Scratch::new(&p);
    let likelihood = Likelihood::new(cfg);
    let values = (0..cfg.azimuth_steps)
        .map(|i| {
            // lint:allow(lossy-cast) azimuth index and step count are < 2^32, exact in f64
            let phi = i as f64 * TAU / cfg.azimuth_steps as f64;
            accumulate(&p, &mut scratch, phi, 1.0, kind, likelihood)
        })
        .collect();
    Spectrum2D { values }
}

/// Compute a 3D angle spectrum over `(φ, γ)`.
///
/// # Panics
///
/// Same conditions as [`spectrum_2d`].
pub fn spectrum_3d(
    set: &SnapshotSet,
    radius: f64,
    kind: ProfileKind,
    cfg: &SpectrumConfig,
) -> Spectrum3D {
    assert!(
        !set.is_empty(),
        "cannot compute a spectrum from zero snapshots"
    );
    // lint:allow(no-panic) documented precondition: callers validate configs
    cfg.validate().expect("invalid spectrum config");
    let p = prepare(set, radius, cfg);
    let mut scratch = Scratch::new(&p);
    let likelihood = Likelihood::new(cfg);
    let mut values = Vec::with_capacity(cfg.azimuth_steps * cfg.polar_steps);
    for j in 0..cfg.polar_steps {
        // lint:allow(lossy-cast) polar index and step count are < 2^32, exact in f64
        let gamma = -FRAC_PI_2 + j as f64 * std::f64::consts::PI / (cfg.polar_steps - 1) as f64;
        let cg = gamma.cos();
        for i in 0..cfg.azimuth_steps {
            // lint:allow(lossy-cast) azimuth index and step count are < 2^32, exact in f64
            let phi = i as f64 * TAU / cfg.azimuth_steps as f64;
            values.push(accumulate(&p, &mut scratch, phi, cg, kind, likelihood));
        }
    }
    Spectrum3D {
        azimuth_steps: cfg.azimuth_steps,
        polar_steps: cfg.polar_steps,
        values,
    }
}

/// Generalized steering accumulation for an arbitrarily oriented disk.
///
/// For a tag at radial unit vector `u(βᵢ)` on the circle, the far-field
/// path-length modulation toward candidate direction `d̂` is `r·(u(βᵢ)·d̂)`,
/// so the steering term is `sᵢ = (4πr/λᵢ)·(u(βᵢ)·d̂)`. For a horizontal
/// disk `u(β)·d̂ = cos(β−φ)·cos γ`, recovering the paper's Eqn 10 exactly
/// (verified in tests).
fn accumulate_oriented(
    p: &Prepared,
    scratch: &mut Scratch,
    radials: &[tagspin_geom::Vec3],
    dir: tagspin_geom::Vec3,
    kind: ProfileKind,
    likelihood: Likelihood,
) -> f64 {
    for ((s, &k_r), radial) in scratch.steer.iter_mut().zip(&p.k_r).zip(radials) {
        *s = k_r * radial.dot(dir);
    }
    profile_power(p, scratch, kind, likelihood)
}

/// Compute a 3D angle spectrum for a disk of *any* orientation (the
/// vertical-disk extension of the paper's Section V-B future work).
///
/// For [`crate::spinning::DiskPlane::Horizontal`] disks this agrees with
/// [`spectrum_3d`]; for vertical disks the aperture spans z, so the polar
/// angle is resolved directly and the ambiguity moves to a reflection
/// across the disk's own plane.
///
/// # Panics
///
/// Same conditions as [`spectrum_2d`], plus an invalid `disk`.
pub fn spectrum_3d_for_disk(
    set: &SnapshotSet,
    disk: &DiskConfig,
    kind: ProfileKind,
    cfg: &SpectrumConfig,
) -> Spectrum3D {
    assert!(
        !set.is_empty(),
        "cannot compute a spectrum from zero snapshots"
    );
    // lint:allow(no-panic) documented precondition: callers validate configs
    cfg.validate().expect("invalid spectrum config");
    // lint:allow(no-panic) documented precondition: callers validate configs
    disk.validate().expect("invalid disk config");
    let p = prepare(set, disk.radius, cfg);
    let radials: Vec<tagspin_geom::Vec3> = p.beta.iter().map(|&b| disk.radial(b)).collect();
    let mut scratch = Scratch::new(&p);
    let likelihood = Likelihood::new(cfg);
    let mut values = Vec::with_capacity(cfg.azimuth_steps * cfg.polar_steps);
    for j in 0..cfg.polar_steps {
        // lint:allow(lossy-cast) polar index and step count are < 2^32, exact in f64
        let gamma = -FRAC_PI_2 + j as f64 * std::f64::consts::PI / (cfg.polar_steps - 1) as f64;
        for i in 0..cfg.azimuth_steps {
            // lint:allow(lossy-cast) azimuth index and step count are < 2^32, exact in f64
            let phi = i as f64 * TAU / cfg.azimuth_steps as f64;
            let dir = tagspin_geom::Vec3::from_spherical(phi, gamma);
            values.push(accumulate_oriented(
                &p,
                &mut scratch,
                &radials,
                dir,
                kind,
                likelihood,
            ));
        }
    }
    Spectrum3D {
        azimuth_steps: cfg.azimuth_steps,
        polar_steps: cfg.polar_steps,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;
    use crate::spinning::DiskConfig;
    use tagspin_geom::Vec3;

    const LAMBDA: f64 = 0.325;

    /// Synthesize snapshots for a reader at `reader` with the *exact*
    /// geometry (the spectrum model is the approximation).
    fn synthesize(disk: &DiskConfig, reader: Vec3, n: usize, revolutions: f64) -> SnapshotSet {
        let t_max = revolutions * disk.period_s();
        SnapshotSet::from_snapshots(
            (0..n)
                .map(|i| {
                    let t = i as f64 * t_max / n as f64;
                    let d = disk.tag_position(t).distance(reader);
                    Snapshot {
                        t_s: t,
                        phase: angle::wrap_tau(2.0 * TAU / LAMBDA * d + 1.234),
                        disk_angle: disk.disk_angle(t),
                        lambda: LAMBDA,
                        rssi_dbm: -60.0,
                    }
                })
                .collect(),
        )
    }

    fn disk() -> DiskConfig {
        DiskConfig::paper_default(Vec3::new(1.0, 0.0, 0.0))
    }

    #[test]
    fn q_profile_peaks_at_reader_bearing() {
        // The paper's Fig. 6 geometry: tag at (100, 0) cm, reader at
        // (−80, 0) cm → bearing 180°.
        let reader = Vec3::new(-0.8, 0.0, 0.0);
        let set = synthesize(&disk(), reader, 300, 1.0);
        let spec = spectrum_2d(
            &set,
            0.1,
            ProfileKind::Traditional,
            &SpectrumConfig::default(),
        );
        let peak = spec.peak().unwrap();
        let expect = (reader - disk().center).azimuth();
        assert!(
            angle::separation(peak.position, expect) < 2f64.to_radians(),
            "peak at {:.1}°, want {:.1}°",
            peak.position.to_degrees(),
            expect.to_degrees()
        );
    }

    #[test]
    fn r_profile_peaks_at_reader_bearing() {
        let reader = Vec3::new(-0.5, 1.2, 0.0);
        let set = synthesize(&disk(), reader, 300, 1.0);
        let spec = spectrum_2d(&set, 0.1, ProfileKind::Enhanced, &SpectrumConfig::default());
        let peak = spec.peak().unwrap();
        let expect = (reader - disk().center).azimuth();
        assert!(
            angle::separation(peak.position, expect) < 2f64.to_radians(),
            "peak at {:.1}°, want {:.1}°",
            peak.position.to_degrees(),
            expect.to_degrees()
        );
    }

    #[test]
    fn r_is_sharper_than_q() {
        // The headline claim of Section IV (Fig. 6): R's peak is far sharper.
        let reader = Vec3::new(-0.8, 0.0, 0.0);
        let set = synthesize(&disk(), reader, 400, 1.0);
        let cfg = SpectrumConfig::default();
        let q = spectrum_2d(&set, 0.1, ProfileKind::Traditional, &cfg);
        let r = spectrum_2d(&set, 0.1, ProfileKind::Enhanced, &cfg);
        let q_psr = q.peak_to_sidelobe(15.0).unwrap();
        let r_psr = r.peak_to_sidelobe(15.0).unwrap();
        assert!(
            r_psr > 2.0 * q_psr,
            "R psr {r_psr:.2} not sharper than Q psr {q_psr:.2}"
        );
        let qw = q.half_power_width_deg().unwrap();
        let rw = r.half_power_width_deg().unwrap();
        assert!(rw <= qw, "R width {rw}° vs Q width {qw}°");
    }

    #[test]
    fn reference_count_does_not_move_the_peak() {
        let reader = Vec3::new(0.3, -1.5, 0.0);
        let set = synthesize(&disk(), reader, 200, 1.0);
        let expect = (reader - disk().center).azimuth();
        for references in [1, 2, 4, 8] {
            let cfg = SpectrumConfig {
                references,
                ..SpectrumConfig::default()
            };
            let spec = spectrum_2d(&set, 0.1, ProfileKind::Enhanced, &cfg);
            let peak = spec.peak().unwrap();
            assert!(
                angle::separation(peak.position, expect) < 2f64.to_radians(),
                "references {references}: peak {:.1}°",
                peak.position.to_degrees()
            );
        }
    }

    #[test]
    fn reference_averaging_cancels_model_error_bias() {
        // With exact-geometry phases, a single reference leaves a small
        // bearing bias from the far-field approximation; averaging spread
        // references must shrink it.
        let reader = Vec3::new(0.7, 1.8, 0.0);
        let set = synthesize(&disk(), reader, 400, 1.0);
        let expect = (reader - disk().center).azimuth();
        let err_of = |references: usize| {
            let cfg = SpectrumConfig {
                references,
                ..SpectrumConfig::default()
            };
            let spec = spectrum_2d(&set, 0.1, ProfileKind::Enhanced, &cfg);
            angle::separation(spec.peak().unwrap().position, expect)
        };
        let single = err_of(1);
        let averaged = err_of(4);
        assert!(
            averaged < single.max(0.0008),
            "averaged {averaged} rad vs single {single} rad"
        );
        assert!(averaged < 0.002, "averaged bias {averaged} rad too large");
    }

    #[test]
    fn spectrum_3d_finds_azimuth_and_polar() {
        // The paper's Fig. 8 geometry: reader at (−86.6, 0, +50) cm from a
        // tag centered at (0,0,0) → φ = 180°, γ = 30°.
        let d = DiskConfig::paper_default(Vec3::ZERO);
        let reader = Vec3::new(-0.866, 0.0, 0.5);
        let set = synthesize(&d, reader, 250, 1.0);
        let cfg = SpectrumConfig {
            azimuth_steps: 360,
            polar_steps: 91,
            ..SpectrumConfig::default()
        };
        let spec = spectrum_3d(&set, 0.1, ProfileKind::Enhanced, &cfg);
        let cands = spec.peak_candidates().unwrap();
        let expect_az = std::f64::consts::PI;
        let expect_po = (30f64).to_radians();
        // One candidate matches (φ, γ), the other (φ, −γ).
        let hit = cands.iter().any(|c| {
            angle::separation(c.azimuth, expect_az) < 3f64.to_radians()
                && (c.polar - expect_po).abs() < 3f64.to_radians()
        });
        let mirror = cands.iter().any(|c| {
            angle::separation(c.azimuth, expect_az) < 3f64.to_radians()
                && (c.polar + expect_po).abs() < 3f64.to_radians()
        });
        assert!(hit && mirror, "candidates: {} / {}", cands[0], cands[1]);
    }

    #[test]
    fn spectrum_3d_symmetric_in_polar() {
        let d = DiskConfig::paper_default(Vec3::ZERO);
        let reader = Vec3::new(-0.8, 0.3, 0.4);
        let set = synthesize(&d, reader, 100, 1.0);
        let cfg = SpectrumConfig {
            azimuth_steps: 90,
            polar_steps: 31,
            ..SpectrumConfig::default()
        };
        let spec = spectrum_3d(&set, 0.1, ProfileKind::Traditional, &cfg);
        let (az, po) = spec.shape();
        assert_eq!((az, po), (90, 31));
        for j in 0..po {
            let mirror = po - 1 - j;
            for i in 0..az {
                assert!(
                    (spec.value(i, j) - spec.value(i, mirror)).abs() < 1e-9,
                    "asymmetry at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn normalized_peak_is_one() {
        let set = synthesize(&disk(), Vec3::new(-1.0, 0.0, 0.0), 64, 1.0);
        let spec = spectrum_2d(
            &set,
            0.1,
            ProfileKind::Traditional,
            &SpectrumConfig::default(),
        );
        let n = spec.normalized();
        let max = n.values().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grid_accessors() {
        let set = synthesize(&disk(), Vec3::new(-1.0, 0.0, 0.0), 32, 1.0);
        let cfg = SpectrumConfig {
            azimuth_steps: 8,
            polar_steps: 3,
            ..SpectrumConfig::default()
        };
        let s2 = spectrum_2d(&set, 0.1, ProfileKind::Traditional, &cfg);
        assert_eq!(s2.values().len(), 8);
        assert!((s2.azimuth_of(4) - std::f64::consts::PI).abs() < 1e-12);
        let s3 = spectrum_3d(&set, 0.1, ProfileKind::Traditional, &cfg);
        assert!((s3.polar_of(0) + FRAC_PI_2).abs() < 1e-12);
        assert!((s3.polar_of(2) - FRAC_PI_2).abs() < 1e-12);
        assert!((s3.azimuth_of(2) - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero snapshots")]
    fn empty_set_panics() {
        let set = SnapshotSet::default();
        let _ = spectrum_2d(&set, 0.1, ProfileKind::Enhanced, &SpectrumConfig::default());
    }

    #[test]
    fn more_references_than_snapshots_is_clamped() {
        let set = synthesize(&disk(), Vec3::new(-1.0, 0.0, 0.0), 4, 0.2);
        let cfg = SpectrumConfig {
            references: 10,
            ..SpectrumConfig::default()
        };
        // Must not panic; references are clamped to the snapshot count.
        let spec = spectrum_2d(&set, 0.1, ProfileKind::Enhanced, &cfg);
        assert_eq!(spec.values().len(), cfg.azimuth_steps);
    }

    #[test]
    fn config_validation() {
        assert!(SpectrumConfig::default().validate().is_ok());
        let base = SpectrumConfig::default;
        assert!(SpectrumConfig {
            azimuth_steps: 2,
            ..base()
        }
        .validate()
        .is_err());
        assert!(SpectrumConfig {
            sigma: 0.0,
            ..base()
        }
        .validate()
        .is_err());
        assert!(SpectrumConfig {
            polar_steps: 1,
            ..base()
        }
        .validate()
        .is_err());
        assert!(SpectrumConfig {
            references: 0,
            ..base()
        }
        .validate()
        .is_err());
        assert!(SpectrumConfig {
            weight_inflation: 0.0,
            ..base()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn oriented_spectrum_matches_horizontal_eqn10() {
        let d = DiskConfig::paper_default(Vec3::ZERO);
        let reader = Vec3::new(-0.7, 0.4, 0.5);
        let set = synthesize(&d, reader, 80, 1.0);
        let cfg = SpectrumConfig {
            azimuth_steps: 60,
            polar_steps: 15,
            references: 4,
            ..SpectrumConfig::default()
        };
        for kind in [ProfileKind::Traditional, ProfileKind::Enhanced] {
            let a = spectrum_3d(&set, d.radius, kind, &cfg);
            let b = spectrum_3d_for_disk(&set, &d, kind, &cfg);
            for (x, y) in a.values().iter().zip(b.values()) {
                assert!((x - y).abs() < 1e-9, "{kind:?}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn vertical_disk_resolves_polar_sign() {
        // Synthesize a vertical disk (normal +x) observing a reader above
        // the horizon: the spectrum must peak at the true +γ and NOT have a
        // symmetric peak at −γ (that's the whole point of the aid).
        let d = crate::spinning::DiskConfig::vertical(Vec3::ZERO, 0.0);
        let reader = Vec3::new(0.2, 1.6, 0.9);
        let set = synthesize(&d, reader, 200, 1.0);
        let cfg = SpectrumConfig {
            azimuth_steps: 180,
            polar_steps: 61,
            references: 8,
            ..SpectrumConfig::default()
        };
        let spec = spectrum_3d_for_disk(&set, &d, ProfileKind::Enhanced, &cfg);
        let (dir, peak_val) = spec.peak().unwrap();
        let rel = (reader - d.center).normalized().unwrap();
        // The aperture spans (y, z): in-plane direction components are
        // resolved; the out-of-plane (x) component is sign-ambiguous (the
        // reflection across the disk plane) and weakly constrained.
        let u = dir.unit();
        assert!(
            (u.y - rel.y).abs() < 0.05 && (u.z - rel.z).abs() < 0.05,
            "in-plane direction cosines off: ({:.3}, {:.3}) vs ({:.3}, {:.3})",
            u.y,
            u.z,
            rel.y,
            rel.z
        );
        // The headline property: the polar angle — including its SIGN — is
        // resolved by the vertical aperture.
        assert!(
            (dir.polar - rel.polar()).abs() < 6f64.to_radians(),
            "polar {:.1}° vs truth {:.1}°",
            dir.polar.to_degrees(),
            rel.polar().to_degrees()
        );
        // The mirrored-γ direction must be clearly weaker (no ±γ symmetry).
        let mirror_j = ((-dir.polar + FRAC_PI_2)
            / (std::f64::consts::PI / (cfg.polar_steps - 1) as f64))
            .round() as usize;
        let mirror_i =
            ((dir.azimuth / TAU) * cfg.azimuth_steps as f64).round() as usize % cfg.azimuth_steps;
        let mirror_val = spec.value(mirror_i, mirror_j);
        assert!(
            mirror_val < 0.8 * peak_val,
            "mirror {mirror_val} vs peak {peak_val}: ambiguity not broken"
        );
    }

    #[test]
    fn partial_rotation_still_resolves_coarsely() {
        // Half a revolution still gives a usable (if broader) peak.
        let reader = Vec3::new(-0.8, 0.0, 0.0);
        let set = synthesize(&disk(), reader, 150, 0.5);
        let spec = spectrum_2d(&set, 0.1, ProfileKind::Enhanced, &SpectrumConfig::default());
        let peak = spec.peak().unwrap();
        let expect = (reader - disk().center).azimuth();
        assert!(angle::separation(peak.position, expect) < 10f64.to_radians());
    }

    proptest::proptest! {
        /// The hybrid refinement reads no cell outside its window:
        /// `constrained_peak` of a full traditional spectrum equals, bit for
        /// bit, `constrained_peak` of the same spectrum masked to the window
        /// (stated here from its definition: ±10° in azimuth, circular, and
        /// in 3D ±10° in `|γ|`), in 2D and in 3D for horizontal and vertical
        /// disks. So the engine, which evaluates only the window, refines
        /// exactly as the reference does. At 17 rows (11.25° apart) a window
        /// row's polar neighbors mostly lie outside the window.
        #[test]
        fn prop_constrained_peak_reads_only_its_window(
            reader_r in 1.0f64..3.0,
            reader_az in 0.0f64..TAU,
            reader_z in -1.0f64..1.5,
            normal_azimuth in 0.0f64..TAU,
            center_az in 0.0f64..TAU,
            center_po in -FRAC_PI_2..FRAC_PI_2,
        ) {
            let cfg = SpectrumConfig {
                azimuth_steps: 96,
                polar_steps: 17,
                references: 4,
                ..SpectrumConfig::default()
            };
            let kind = ProfileKind::Traditional;
            let half_width = 10f64.to_radians();
            let in_band = |az: f64| angle::separation(az, center_az) <= half_width;
            let (x, y) = (reader_r * reader_az.cos(), reader_r * reader_az.sin());
            let flat = DiskConfig::paper_default(Vec3::ZERO);
            let upright = DiskConfig::vertical(Vec3::ZERO, normal_azimuth);

            let keep = |values: &[f64], inside: &dyn Fn(usize) -> bool| -> Vec<f64> {
                (0..values.len())
                    .map(|c| if inside(c) { values[c] } else { f64::NEG_INFINITY })
                    .collect()
            };

            let set = synthesize(&flat, Vec3::new(x, y, 0.0), 64, 1.0);
            let s2 = spectrum_2d(&set, flat.radius, kind, &cfg);
            let m2 = Spectrum2D {
                values: keep(&s2.values, &|i| in_band(s2.azimuth_of(i))),
            };
            let bits2 = |p: Option<PeakEstimate>| {
                p.map(|p| (p.index, p.position.to_bits(), p.value.to_bits()))
            };
            proptest::prop_assert_eq!(
                bits2(s2.clone().constrained_peak(center_az)),
                bits2(m2.constrained_peak(center_az))
            );

            let center = Direction3::new(center_az, center_po);
            let reader = Vec3::new(x, y, reader_z);
            let (flat_set, upright_set) = (
                synthesize(&flat, reader, 64, 1.0),
                synthesize(&upright, reader, 64, 1.0),
            );
            let spectra = [
                ("horizontal", spectrum_3d(&flat_set, flat.radius, kind, &cfg)),
                ("vertical", spectrum_3d_for_disk(&upright_set, &upright, kind, &cfg)),
            ];
            for (name, s3) in spectra {
                let n_az = s3.azimuth_steps;
                let in_window = |c: usize| {
                    let (j, i) = (c / n_az, c % n_az);
                    in_band(s3.azimuth_of(i))
                        && (s3.polar_of(j).abs() - center.polar.abs()).abs() <= half_width
                };
                let m3 = Spectrum3D {
                    values: keep(&s3.values, &in_window),
                    ..s3
                };
                let bits3 = |p: Option<(Direction3, f64)>| {
                    p.map(|(d, v)| (d.azimuth.to_bits(), d.polar.to_bits(), v.to_bits()))
                };
                proptest::prop_assert_eq!(
                    bits3(s3.clone().constrained_peak(center)),
                    bits3(m3.constrained_peak(center)),
                    "{} disk", name
                );
            }
        }
    }
}
