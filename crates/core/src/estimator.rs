//! Fix estimators: the spectrum pipeline and a phase-based
//! maximum-likelihood search as backends of one estimate body,
//! [`EstimatorBackend::estimate`].
//!
//! The paper localizes a reader by beamforming each spinning tag's angle
//! spectrum and intersecting the per-tag bearing lines (Sections IV–V).
//! The same wrapped-phase model admits a *direct* likelihood search over
//! reader position — Li et al.'s phase-based variant maximum-likelihood
//! positioning — which fuses every tag's raw snapshots jointly instead of
//! compressing each tag to one bearing first. Every fix kind and backend
//! starts from the same seed, the kind's bearing intersection
//! ([`locate_2d`](crate::locate::plane::locate_2d),
//! [`locate_3d`](crate::locate::space::locate_3d) or
//! [`locate_3d_resolved`](crate::locate::aided::locate_3d_resolved)):
//!
//! * [`EstimatorBackend::Spectrum`] serves the seed. It is the default
//!   and is **bit-identical** to the historical fix path, because the seed
//!   is the same free function on the same bearings.
//! * [`EstimatorBackend::Ml`] refines the seed by a damped Gauss–Newton
//!   (Levenberg) search over position against the wrapped-phase residual
//!   model `e = wrap_pi(θ − k·d(p) − c_tag)`, with the per-tag diversity
//!   offset `c_tag` eliminated in closed form (circular mean) and IRLS
//!   Gaussian weights for fault robustness.
//! * [`EstimatorBackend::Hybrid`] is the ML arm with a floor: it serves
//!   the refinement only on captures the phase model explains well (mean
//!   inlier weight above 0.5); heavily corrupted windows get the seed.
//!
//! Every estimate also carries a typed [`FixConfidence`]: a position
//! covariance extended from [`crate::diagnostics::bearing_crlb_worst`]
//! (the seed) or the Gauss–Newton normal matrix (an accepted refinement),
//! with degenerate geometries refused as a [`ConfidenceError`] — never
//! `NaN`.

use crate::locate::aided::AmbiguousBearing;
use crate::locate::plane::{Bearing2D, Fix2D};
use crate::locate::space::{Bearing3D, Fix3D};
use crate::server::{PipelineConfig, ServerError};
use crate::session::{FixPath, ThreeD, TwoD};
use crate::snapshot::SnapshotSet;
use crate::spinning::DiskConfig;
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;
use std::fmt;
use tagspin_geom::{angle, Vec2, Vec3};

/// Which estimator backend resolves multi-tag fixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum EstimatorBackend {
    /// The paper's pipeline: per-tag spectrum peaks + line intersection.
    /// The default, bit-identical to the historical fix path.
    #[default]
    Spectrum,
    /// Maximum-likelihood position search over the wrapped-phase residual
    /// model, seeded from the spectrum fix.
    Ml,
    /// ML on captures the phase model explains well, spectrum otherwise.
    Hybrid,
}

impl EstimatorBackend {
    /// Stable lowercase name used in metrics, logs and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            EstimatorBackend::Spectrum => "spectrum",
            EstimatorBackend::Ml => "ml",
            EstimatorBackend::Hybrid => "hybrid",
        }
    }
}

/// Error parsing an [`EstimatorBackend`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError {
    /// The unrecognized input.
    pub got: String,
}

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown estimator backend {:?}; expected spectrum | ml | hybrid",
            self.got
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl std::str::FromStr for EstimatorBackend {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "spectrum" => Ok(EstimatorBackend::Spectrum),
            "ml" => Ok(EstimatorBackend::Ml),
            "hybrid" => Ok(EstimatorBackend::Hybrid),
            _ => Err(ParseBackendError { got: s.to_string() }),
        }
    }
}

/// Damped Gauss–Newton iteration budget of the ML refinement.
const ML_MAX_ITERATIONS: u32 = 64;
/// Initial Levenberg damping factor.
const ML_DAMPING_INIT: f64 = 1e-3;
/// Convergence threshold on the position step, meters.
const ML_STEP_TOL_M: f64 = 1e-5;
/// Snapshot budget per tag: larger windows are stride-decimated to this
/// many residuals, keeping refinement cost flat.
const ML_MAX_SNAPSHOTS_PER_TAG: usize = 1536;
/// Robust-weight scale as a multiple of the phase-noise σ. The Welsch
/// weight `exp(-e²/2(cσ)²)` at `c = 3` keeps ~95% Gaussian efficiency
/// while still suppressing wrapped-uniform outliers to near zero; `c = 1`
/// would trade most of that efficiency for a harder redescend.
const ML_ROBUST_SCALE: f64 = 3.0;
/// Hybrid acceptance floor on the mean inlier weight (`[0, 1]`): below it
/// the capture is considered too corrupted for the phase model and the
/// hybrid backend serves the spectrum fix.
const HYBRID_MIN_MEAN_WEIGHT: f64 = 0.5;

/// Estimator backend selection, carried on [`PipelineConfig`]. The default
/// ([`EstimatorBackend::Spectrum`]) keeps every existing pipeline output
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EstimatorConfig {
    /// Which backend resolves fixes.
    pub backend: EstimatorBackend,
}

/// One tag's windowed, calibrated snapshot view, handed to estimators
/// that consume raw phases (ML/hybrid) or derive per-bearing confidence.
/// Built by the session only when needed — the default spectrum fix path
/// never materializes observations.
#[derive(Debug, Clone, PartialEq)]
pub struct TagObservation {
    /// The tag's EPC.
    pub epc: u128,
    /// The tag's disk geometry.
    pub disk: DiskConfig,
    /// The calibrated snapshot window backing this tag's bearing.
    pub set: SnapshotSet,
}

/// Why a fix's position covariance could not be computed. A typed refusal:
/// degenerate geometry yields an error, never a `NaN` covariance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfidenceError {
    /// No snapshot observations were supplied (the fast fix path skips
    /// confidence; use the `estimate::<K>` entry points).
    NotComputed,
    /// Fewer than two bearings carry position information.
    TooFewBearings {
        /// Informative bearings present.
        got: usize,
    },
    /// The Fisher information is singular — e.g. all bearings parallel
    /// (tags collinear with the reader) or a zero-range baseline.
    DegenerateGeometry,
    /// An input (e.g. an infinite CRLB) made the covariance non-finite.
    NonFinite,
}

impl fmt::Display for ConfidenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfidenceError::NotComputed => write!(f, "confidence not computed for this fix"),
            ConfidenceError::TooFewBearings { got } => {
                write!(f, "only {got} informative bearings; need at least 2")
            }
            ConfidenceError::DegenerateGeometry => {
                write!(
                    f,
                    "degenerate bearing geometry: singular Fisher information"
                )
            }
            ConfidenceError::NonFinite => write!(f, "non-finite confidence inputs"),
        }
    }
}

impl std::error::Error for ConfidenceError {}

/// Position covariance of a fix.
///
/// The horizontal block is always present; `cov_zz` is reported for 3D
/// fixes only. Construction guarantees every field is finite and the
/// horizontal block is positive semi-definite — degenerate inputs are
/// refused as [`ConfidenceError`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FixConfidence {
    /// Horizontal covariance `Cov(x, x)`, m².
    pub cov_xx: f64,
    /// Horizontal covariance `Cov(x, y)`, m².
    pub cov_xy: f64,
    /// Horizontal covariance `Cov(y, y)`, m².
    pub cov_yy: f64,
    /// Vertical variance `Cov(z, z)`, m² (3D fixes only).
    pub cov_zz: Option<f64>,
    /// 1-σ semi-major axis of the horizontal error ellipse, meters.
    pub sigma_major_m: f64,
    /// 1-σ semi-minor axis of the horizontal error ellipse, meters.
    pub sigma_minor_m: f64,
    /// Bearings that contributed information.
    pub bearings: usize,
}

impl FixConfidence {
    /// Build from a horizontal covariance block (and optional vertical
    /// variance), refusing non-finite or indefinite inputs.
    ///
    /// # Errors
    ///
    /// [`ConfidenceError::NonFinite`] / [`ConfidenceError::DegenerateGeometry`].
    pub fn from_covariance(
        cov_xx: f64,
        cov_xy: f64,
        cov_yy: f64,
        cov_zz: Option<f64>,
        bearings: usize,
    ) -> Result<FixConfidence, ConfidenceError> {
        let finite = cov_xx.is_finite()
            && cov_xy.is_finite()
            && cov_yy.is_finite()
            && cov_zz.is_none_or(f64::is_finite);
        if !finite {
            return Err(ConfidenceError::NonFinite);
        }
        let det = cov_xx * cov_yy - cov_xy * cov_xy;
        if cov_xx < 0.0 || cov_yy < 0.0 || det < -1e-18 || cov_zz.is_some_and(|z| z < 0.0) {
            return Err(ConfidenceError::DegenerateGeometry);
        }
        // Symmetric 2×2 eigenvalues; clamp tiny negatives from rounding.
        let half_tr = 0.5 * (cov_xx + cov_yy);
        let disc = (0.25 * (cov_xx - cov_yy) * (cov_xx - cov_yy) + cov_xy * cov_xy).sqrt();
        let l_max = (half_tr + disc).max(0.0);
        let l_min = (half_tr - disc).max(0.0);
        let conf = FixConfidence {
            cov_xx,
            cov_xy,
            cov_yy,
            cov_zz,
            sigma_major_m: l_max.sqrt(),
            sigma_minor_m: l_min.sqrt(),
            bearings,
        };
        if conf.sigma_major_m.is_finite() && conf.sigma_minor_m.is_finite() {
            Ok(conf)
        } else {
            Err(ConfidenceError::NonFinite)
        }
    }

    /// Whether every covariance entry is finite and the horizontal block
    /// is positive semi-definite (true by construction; exposed for the
    /// degenerate-geometry test suite).
    pub fn is_finite_psd(&self) -> bool {
        let det = self.cov_xx * self.cov_yy - self.cov_xy * self.cov_xy;
        self.cov_xx.is_finite()
            && self.cov_xy.is_finite()
            && self.cov_yy.is_finite()
            && self.cov_zz.is_none_or(|z| z.is_finite() && z >= 0.0)
            && self.cov_xx >= 0.0
            && self.cov_yy >= 0.0
            && det >= -1e-18
    }
}

/// Diagnostics of one maximum-likelihood refinement attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlReport {
    /// Damped Gauss–Newton iterations spent.
    pub iterations: u32,
    /// Whether the position step shrank below the configured tolerance.
    pub converged: bool,
    /// Whether the refined position was served (false = fell back to the
    /// spectrum seed).
    pub accepted: bool,
    /// Robust cost at the spectrum seed (mean outlier mass, `[0, 1]`).
    pub seed_cost: f64,
    /// Robust cost at the final position.
    pub final_cost: f64,
    /// Mean Gaussian inlier weight at the final position (`[0, 1]`) — the
    /// hybrid backend's model-consistency figure.
    pub mean_weight: f64,
}

/// A fix with confidence and backend provenance: what
/// [`crate::session::ReaderSession::estimate`] and its manager and server
/// counterparts serve, for a fix of type `F`.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate<F> {
    /// The served fix.
    pub fix: F,
    /// Position covariance, or a typed refusal.
    pub confidence: Result<FixConfidence, ConfidenceError>,
    /// The backend that produced `fix`.
    pub backend: EstimatorBackend,
    /// ML refinement diagnostics (`None` on the pure spectrum backend).
    pub ml: Option<MlReport>,
}

impl EstimatorBackend {
    /// Resolve the multi-tag fix of kind `K` from per-tag bearings and,
    /// for the ml and hybrid backends, the windowed snapshot views behind
    /// them.
    ///
    /// One body serves every (kind, backend) pair. The bearings are
    /// intersected into a seed fix (the spectrum backend serves it as is).
    /// The ml and hybrid backends refine the seed by maximum likelihood
    /// over the raw phases and serve the refinement when it is accepted
    /// (hybrid only above its mean-weight floor); otherwise they serve the
    /// seed with its CRLB confidence.
    ///
    /// `bearings[i]` and `observations[i]` describe the same tag, in the
    /// same order. `observations` may be empty: the ml and hybrid backends
    /// then serve the seed, and confidence is
    /// [`ConfidenceError::NotComputed`].
    ///
    /// # Errors
    ///
    /// [`ServerError::Locate`] on degenerate bearing geometry.
    pub fn estimate<K: FixPath>(
        self,
        bearings: &[K::Bearing],
        observations: &[TagObservation],
        config: &PipelineConfig,
    ) -> Result<Estimate<K::Fix>, ServerError> {
        let seed = K::locate(bearings).map_err(ServerError::from)?;
        let serve_seed = |seed: K::Fix, ml: Option<MlReport>| Estimate {
            confidence: crlb_confidence::<K>(bearings, observations, config, &seed),
            fix: seed,
            backend: self,
            ml,
        };
        let weight_floor = match self {
            EstimatorBackend::Spectrum => return Ok(serve_seed(seed, None)),
            EstimatorBackend::Ml => None,
            EstimatorBackend::Hybrid => Some(HYBRID_MIN_MEAN_WEIGHT),
        };
        let fit = ml_fit(K::position(&seed), K::PLANAR, observations, config);
        Ok(match accepted_fit(fit, weight_floor) {
            Ok(fit) => {
                let cov_zz = (!K::PLANAR).then_some(fit.cov[3]);
                Estimate {
                    confidence: FixConfidence::from_covariance(
                        fit.cov[0], fit.cov[1], fit.cov[2], cov_zz, fit.tags,
                    ),
                    fix: K::refined(seed, bearings, fit.position),
                    backend: self,
                    ml: Some(fit.report),
                }
            }
            Err(report) => serve_seed(seed, Some(report)),
        })
    }

    /// `estimate::<TwoD>` with concrete parameter types, kept only because
    /// the `perfbench` benchmark package calls it (`src/layers.rs`).
    ///
    /// # Errors
    ///
    /// Same as [`EstimatorBackend::estimate`].
    #[doc(hidden)]
    pub fn estimate_2d(
        self,
        bearings: &[Bearing2D],
        observations: &[TagObservation],
        config: &PipelineConfig,
    ) -> Result<Estimate<Fix2D>, ServerError> {
        self.estimate::<TwoD>(bearings, observations, config)
    }

    /// `estimate::<ThreeD>` with concrete parameter types, kept only
    /// because the `perfbench` benchmark package calls it
    /// (`src/batch_3d.rs`).
    ///
    /// # Errors
    ///
    /// Same as [`EstimatorBackend::estimate`].
    #[doc(hidden)]
    pub fn estimate_3d(
        self,
        bearings: &[Bearing3D],
        observations: &[TagObservation],
        config: &PipelineConfig,
    ) -> Result<Estimate<Fix3D>, ServerError> {
        self.estimate::<ThreeD>(bearings, observations, config)
    }
}

/// `backend` itself, kept only because the `perfbench` benchmark package
/// calls it (`src/layers.rs`, `src/batch_3d.rs`).
#[doc(hidden)]
pub fn backend_impl(backend: EstimatorBackend) -> EstimatorBackend {
    backend
}

/// Filter an ML fit through the acceptance policy: the fit must exist
/// (numerically sound, cost no worse than the seed) and, for the hybrid
/// backend, clear the mean-weight floor. A rejected fit comes back as the
/// `Err` report the spectrum fallback attaches to its estimate.
fn accepted_fit(fit: Option<MlFit>, weight_floor: Option<f64>) -> Result<MlFit, MlReport> {
    let Some(fit) = fit else {
        return Err(MlReport {
            iterations: 0,
            converged: false,
            accepted: false,
            seed_cost: 1.0,
            final_cost: 1.0,
            mean_weight: 0.0,
        });
    };
    if !fit.report.accepted || weight_floor.is_some_and(|floor| fit.report.mean_weight < floor) {
        return Err(MlReport {
            accepted: false,
            ..fit.report
        });
    }
    Ok(fit)
}

// ---------------------------------------------------------------------------
// The maximum-likelihood core
// ---------------------------------------------------------------------------

/// One decimated residual: the snapshot's tag position on the track, its
/// round-trip phase slope `k = 4π/λ` (per one-way meter) and the reported
/// phase.
struct PhaseSample {
    tag_pos: Vec3,
    k: f64,
    theta: f64,
}

/// Per-tag residual block: samples plus the disk-plane height used for
/// planar (2D) distance evaluation.
struct TagBlock {
    samples: Vec<PhaseSample>,
    plane_z: f64,
}

/// A completed ML refinement.
struct MlFit {
    position: Vec3,
    /// Packed covariance `[xx, xy, yy, zz]` (zz meaningful in 3D mode).
    cov: [f64; 4],
    tags: usize,
    report: MlReport,
}

/// Build the per-tag residual blocks: calibrated snapshots decimated to
/// [`ML_MAX_SNAPSHOTS_PER_TAG`], with non-finite phases dropped.
fn build_blocks(observations: &[TagObservation]) -> Vec<TagBlock> {
    observations
        .iter()
        .filter_map(|obs| {
            let snaps = obs.set.snapshots();
            if snaps.is_empty() {
                return None;
            }
            let stride = snaps.len().div_ceil(ML_MAX_SNAPSHOTS_PER_TAG).max(1);
            let samples: Vec<PhaseSample> = snaps
                .iter()
                .step_by(stride)
                .filter(|s| s.phase.is_finite() && s.lambda > 0.0)
                .map(|s| PhaseSample {
                    tag_pos: obs.disk.center + obs.disk.radial(s.disk_angle) * obs.disk.radius,
                    k: 2.0 * TAU / s.lambda,
                    theta: s.phase,
                })
                .collect();
            if samples.len() < 4 {
                return None;
            }
            Some(TagBlock {
                samples,
                plane_z: obs.disk.center.z,
            })
        })
        .collect()
}

/// Evaluate the projected robust cost, mean inlier weight, and (optionally)
/// the offset-eliminated Gauss–Newton normal system at position `p`.
///
/// Per tag, the diversity offset is eliminated as the *weighted* circular
/// mean of `θ − k·d(p)`: seeded from the unweighted circular mean, then
/// refined by two IRLS rounds that reuse the same Welsch weights as the
/// cost, so the eliminated offset is a stationary point of the weighted
/// objective (an inconsistent offset leaves the Gauss–Newton step pointing
/// away from the true descent direction and stalls the damping schedule).
/// Residuals are `wrap_pi` of the centered phase misfit; weights are
/// `exp(-e²/2·scale²)`. The normal system uses per-tag
/// weighted-mean-centered Jacobian rows — the Schur complement that
/// marginalizes the offsets.
struct EvalOut {
    cost: f64,
    mean_weight: f64,
    /// Row-major symmetric normal matrix over the position dims.
    normal: [f64; 9],
    /// Right-hand side `-Σ w·h·e`.
    rhs: [f64; 3],
    residuals: usize,
}

fn eval_at(p: Vec3, planar: bool, blocks: &[TagBlock], scale: f64, with_system: bool) -> EvalOut {
    let dims = if planar { 2 } else { 3 };
    let mut cost = 0.0;
    let mut weight_sum = 0.0;
    let mut normal = [0.0f64; 9];
    let mut rhs = [0.0f64; 3];
    let mut residuals = 0usize;
    // Scratch: per-sample offset-free misfit + gradient, reused per block.
    let mut deltas: Vec<f64> = Vec::new();
    let mut grads: Vec<[f64; 3]> = Vec::new();
    let mut errs: Vec<f64> = Vec::new();
    let mut wts: Vec<f64> = Vec::new();
    for block in blocks {
        let pos = if planar {
            p.xy().with_z(block.plane_z)
        } else {
            p
        };
        deltas.clear();
        grads.clear();
        for s in &block.samples {
            let rel = pos - s.tag_pos;
            let d = rel.norm();
            if d < 1e-6 {
                continue;
            }
            deltas.push(s.theta - s.k * d);
            let u = rel * (1.0 / d);
            grads.push([
                -s.k * u.x,
                -s.k * u.y,
                if planar { 0.0 } else { -s.k * u.z },
            ]);
        }
        // Diversity-offset seed: unweighted circular mean of θ − k·d(p).
        let (mut sin_sum, mut cos_sum) = (0.0f64, 0.0f64);
        for &delta in &deltas {
            sin_sum += delta.sin();
            cos_sum += delta.cos();
        }
        if sin_sum.abs() < 1e-300 && cos_sum.abs() < 1e-300 {
            continue;
        }
        let mut offset = sin_sum.atan2(cos_sum);
        // IRLS refinement: re-estimate the offset under the same Welsch
        // weights as the cost. Working relative to the current offset
        // keeps the update free of wrap discontinuities.
        for _ in 0..2 {
            let (mut ws, mut wc) = (0.0f64, 0.0f64);
            for &delta in &deltas {
                let e = angle::wrap_pi(delta - offset);
                let z = e / scale;
                let w = (-0.5 * z * z).exp();
                ws += w * e.sin();
                wc += w * e.cos();
            }
            if ws.abs() < 1e-300 && wc.abs() < 1e-300 {
                break;
            }
            offset = angle::wrap_pi(offset + ws.atan2(wc));
        }

        errs.clear();
        wts.clear();
        let (mut gw_sum, mut w_sum) = ([0.0f64; 3], 0.0f64);
        for (&delta, g) in deltas.iter().zip(&grads) {
            let e = angle::wrap_pi(delta - offset);
            let z = e / scale;
            let w = (-0.5 * z * z).exp();
            cost += 1.0 - w;
            weight_sum += w;
            residuals += 1;
            if with_system {
                for (acc, gi) in gw_sum.iter_mut().zip(*g) {
                    *acc += w * gi;
                }
                w_sum += w;
                errs.push(e);
                wts.push(w);
            }
        }
        if with_system && w_sum > 1e-12 {
            // Center rows by the per-tag weighted mean gradient: the Schur
            // complement that marginalizes this tag's offset parameter.
            let mean = [gw_sum[0] / w_sum, gw_sum[1] / w_sum, gw_sum[2] / w_sum];
            for ((g, &e), &w) in grads.iter().zip(&errs).zip(&wts) {
                let h = [g[0] - mean[0], g[1] - mean[1], g[2] - mean[2]];
                for r in 0..dims {
                    for c in 0..dims {
                        normal[r * 3 + c] += w * h[r] * h[c];
                    }
                    rhs[r] -= w * h[r] * e;
                }
            }
        }
    }
    EvalOut {
        cost,
        mean_weight: if residuals > 0 {
            // lint:allow(lossy-cast) residual count is far below 2^53
            weight_sum / residuals as f64
        } else {
            0.0
        },
        normal,
        rhs,
        residuals,
    }
}

/// Solve the `dims × dims` symmetric system `(N + μ·diag(N))·δ = rhs` by
/// Gaussian elimination with partial pivoting. Returns `None` when the
/// system is singular or the solution is non-finite.
fn solve_damped(normal: &[f64; 9], rhs: &[f64; 3], mu: f64, dims: usize) -> Option<[f64; 3]> {
    let mut a = [0.0f64; 9];
    let mut b = [0.0f64; 3];
    for r in 0..dims {
        for c in 0..dims {
            a[r * 3 + c] = normal[r * 3 + c];
        }
        a[r * 3 + r] += mu * normal[r * 3 + r].max(1e-12);
        b[r] = rhs[r];
    }
    for col in 0..dims {
        let mut piv = col;
        for r in (col + 1)..dims {
            if a[r * 3 + col].abs() > a[piv * 3 + col].abs() {
                piv = r;
            }
        }
        if a[piv * 3 + col].abs() < 1e-300 {
            return None;
        }
        if piv != col {
            for c in 0..dims {
                a.swap(piv * 3 + c, col * 3 + c);
            }
            b.swap(piv, col);
        }
        let inv = 1.0 / a[col * 3 + col];
        for r in 0..dims {
            if r == col {
                continue;
            }
            let f = a[r * 3 + col] * inv;
            for c in 0..dims {
                a[r * 3 + c] -= f * a[col * 3 + c];
            }
            b[r] -= f * b[col];
        }
    }
    let mut out = [0.0f64; 3];
    for r in 0..dims {
        out[r] = b[r] / a[r * 3 + r];
        if !out[r].is_finite() {
            return None;
        }
    }
    Some(out)
}

/// Invert the `dims × dims` normal matrix and scale by `σ²` to get the
/// position covariance `[xx, xy, yy, zz]`. `None` when singular.
fn covariance_from_normal(normal: &[f64; 9], sigma: f64, dims: usize) -> Option<[f64; 4]> {
    // Invert by solving N·x = eᵢ for each basis column.
    let mut inv = [0.0f64; 9];
    for col in 0..dims {
        let mut e = [0.0f64; 3];
        e[col] = 1.0;
        let x = solve_damped(normal, &e, 0.0, dims)?;
        for r in 0..dims {
            inv[r * 3 + col] = x[r];
        }
    }
    let s2 = sigma * sigma;
    let cov = [
        s2 * inv[0],
        s2 * 0.5 * (inv[1] + inv[3]),
        s2 * inv[4],
        if dims == 3 { s2 * inv[8] } else { 0.0 },
    ];
    cov.iter().all(|v| v.is_finite()).then_some(cov)
}

/// Damped Gauss–Newton refinement from `seed`. Returns `None` when no
/// usable residual blocks exist; otherwise a fit whose report records
/// whether the refinement was accepted (cost no worse than the seed).
fn ml_fit(
    seed: Vec3,
    planar: bool,
    observations: &[TagObservation],
    config: &PipelineConfig,
) -> Option<MlFit> {
    let blocks = build_blocks(observations);
    if blocks.len() < 2 {
        return None;
    }
    let sigma = config.spectrum.sigma.max(1e-3);
    // Weights redescend at `robust_scale`·σ; the covariance below keeps
    // the raw noise σ — the weights inside the normal matrix already
    // account for the (slight) efficiency loss.
    let scale = ML_ROBUST_SCALE * sigma;
    let dims = if planar { 2 } else { 3 };

    let seed_eval = eval_at(seed, planar, &blocks, scale, false);
    if seed_eval.residuals < 8 {
        return None;
    }
    let mut p = seed;
    let mut cost = seed_eval.cost;
    let mut mu = ML_DAMPING_INIT;
    let mut iterations = 0u32;
    let mut converged = false;
    while iterations < ML_MAX_ITERATIONS {
        iterations += 1;
        let cur = eval_at(p, planar, &blocks, scale, true);
        let Some(step) = solve_damped(&cur.normal, &cur.rhs, mu, dims) else {
            break;
        };
        let delta = Vec3::new(step[0], step[1], if planar { 0.0 } else { step[2] });
        let candidate = p + delta;
        let cand_eval = eval_at(candidate, planar, &blocks, scale, false);
        if cand_eval.cost < cost - 1e-12 {
            p = candidate;
            cost = cand_eval.cost;
            mu = (mu / 3.0).max(1e-12);
            if delta.norm() < ML_STEP_TOL_M {
                converged = true;
                break;
            }
        } else {
            mu *= 4.0;
            if mu > 1e8 {
                break;
            }
        }
    }
    let final_eval = eval_at(p, planar, &blocks, scale, true);
    let denom = final_eval.residuals.max(1);
    // lint:allow(lossy-cast) residual count is far below 2^53
    let norm = denom as f64;
    let accepted = p.is_finite() && final_eval.cost <= seed_eval.cost + 1e-12;
    let cov = covariance_from_normal(&final_eval.normal, sigma, dims).unwrap_or([
        f64::INFINITY,
        f64::INFINITY,
        f64::INFINITY,
        f64::INFINITY,
    ]);
    Some(MlFit {
        position: p,
        cov,
        tags: blocks.len(),
        report: MlReport {
            iterations,
            converged,
            accepted,
            seed_cost: seed_eval.cost / norm,
            final_cost: final_eval.cost / norm,
            mean_weight: final_eval.mean_weight,
        },
    })
}

// ---------------------------------------------------------------------------
// Spectrum-backend confidence (CRLB-propagated Fisher information)
// ---------------------------------------------------------------------------

/// Per-bearing angular standard deviations from the worst-case CRLB of
/// each backing observation. `None` when observations are absent or
/// misaligned with the bearings.
fn bearing_sigmas(
    count: usize,
    observations: &[TagObservation],
    config: &PipelineConfig,
) -> Option<Vec<f64>> {
    if observations.len() != count {
        return None;
    }
    Some(
        observations
            .iter()
            .map(|obs| {
                crate::diagnostics::bearing_crlb_worst(
                    &obs.set,
                    obs.disk.radius,
                    config.spectrum.sigma,
                )
            })
            .collect(),
    )
}

/// Horizontal Fisher information from bearing lines: each bearing
/// constrains the fix perpendicular to its line with standard deviation
/// `ρ·σ_φ` (range times angular CRLB).
///
/// # Errors
///
/// The standard [`ConfidenceError`] refusals.
pub fn confidence_from_bearing_lines(
    lines: &[(Vec2, f64, f64)],
    position: Vec2,
    cov_zz: Option<f64>,
) -> Result<FixConfidence, ConfidenceError> {
    let (mut ixx, mut ixy, mut iyy) = (0.0f64, 0.0f64, 0.0f64);
    let mut informative = 0usize;
    for &(origin, azimuth, sigma_rad) in lines {
        if !sigma_rad.is_finite() || !azimuth.is_finite() {
            // An infinite CRLB carries zero information, not a poison value.
            continue;
        }
        if sigma_rad <= 0.0 {
            return Err(ConfidenceError::NonFinite);
        }
        let rho = (position - origin).norm();
        if rho < 1e-9 {
            // Zero-range baseline: the linearization (and the bearing
            // itself) is undefined at the tag's own origin.
            return Err(ConfidenceError::DegenerateGeometry);
        }
        let n = Vec2::from_bearing(azimuth).perp();
        let inv_var = 1.0 / (rho * sigma_rad * (rho * sigma_rad));
        ixx += inv_var * n.x * n.x;
        ixy += inv_var * n.x * n.y;
        iyy += inv_var * n.y * n.y;
        informative += 1;
    }
    if informative < 2 {
        return Err(ConfidenceError::TooFewBearings { got: informative });
    }
    let det = ixx * iyy - ixy * ixy;
    if !det.is_finite() {
        return Err(ConfidenceError::NonFinite);
    }
    // Relative-scale singularity test: parallel bearings collapse the
    // information matrix to rank one.
    if det <= 1e-12 * (ixx * iyy).max(ixy * ixy).max(1e-300) {
        return Err(ConfidenceError::DegenerateGeometry);
    }
    FixConfidence::from_covariance(iyy / det, -ixy / det, ixx / det, cov_zz, informative)
}

/// Confidence of an intersection fix of kind `K`: the line each usable
/// bearing contributes, with its observation's worst-case CRLB as the
/// angular σ, fused at the fix's horizontal position. The 3D kinds add the
/// vertical variance of the height estimate.
fn crlb_confidence<K: FixPath>(
    bearings: &[K::Bearing],
    observations: &[TagObservation],
    config: &PipelineConfig,
    fix: &K::Fix,
) -> Result<FixConfidence, ConfidenceError> {
    let sigmas =
        bearing_sigmas(bearings.len(), observations, config).ok_or(ConfidenceError::NotComputed)?;
    let lines = K::lines(bearings, fix);
    let position = K::position(fix).xy();
    let cov_zz = if K::PLANAR {
        None
    } else {
        height_variance(&lines, &sigmas, position)?
    };
    let lines: Vec<(Vec2, f64, f64)> = lines
        .iter()
        .map(|&(i, b)| (b.origin.xy(), b.direction.azimuth, sigmas[i]))
        .collect();
    confidence_from_bearing_lines(&lines, position, cov_zz)
}

/// Vertical variance of a 3D fix: z is the weighted mean of per-tag
/// Eqn-13 height estimates, so each line's angular CRLB propagates
/// through dz/dγ = ρ_h·sec²γ. `None` when no line carries weight.
fn height_variance(
    lines: &[(usize, Bearing3D)],
    sigmas: &[f64],
    position: Vec2,
) -> Result<Option<f64>, ConfidenceError> {
    let (mut num, mut w_sum) = (0.0f64, 0.0f64);
    for &(i, b) in lines {
        let s = sigmas[i];
        if !s.is_finite() {
            continue;
        }
        let rho_h = (position - b.origin.xy()).norm();
        let sec2 = {
            let c = b.direction.polar.cos();
            if c.abs() < 1e-9 {
                return Err(ConfidenceError::DegenerateGeometry);
            }
            1.0 / (c * c)
        };
        let sd = rho_h * sec2 * s;
        num += b.weight * b.weight * sd * sd;
        w_sum += b.weight;
    }
    Ok((w_sum > 0.0).then(|| num / (w_sum * w_sum)))
}

// ---------------------------------------------------------------------------
// Residual helpers (self-consistency figures comparable across backends)
// ---------------------------------------------------------------------------

/// RMS perpendicular distance from `p` to the (weight-positive) bearing
/// lines — the same self-consistency figure
/// [`locate_2d`](crate::locate::plane::locate_2d) reports.
pub(crate) fn rms_line_residual_2d(bearings: &[Bearing2D], p: Vec2) -> f64 {
    let mut ss = 0.0;
    let mut n = 0usize;
    for b in bearings.iter().filter(|b| b.weight > 0.0) {
        let d = b.ray().distance(p);
        ss += d * d;
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    // lint:allow(lossy-cast) bearing count is a small positive integer
    (ss / n as f64).sqrt()
}

/// [`rms_line_residual_2d`] over the horizontal projections of 3D
/// bearings.
pub(crate) fn rms_line_residual_3d(bearings: &[Bearing3D], p: Vec2) -> f64 {
    let planar: Vec<Bearing2D> = bearings
        .iter()
        .map(|b| Bearing2D {
            origin: b.origin.xy(),
            azimuth: b.direction.azimuth,
            weight: b.weight,
        })
        .collect();
    rms_line_residual_2d(&planar, p)
}

/// RMS distance from `p` to the chosen candidate rays of an aided fix.
pub(crate) fn rms_chosen_residual(bearings: &[AmbiguousBearing], chosen: &[u8], p: Vec3) -> f64 {
    let usable: Vec<&AmbiguousBearing> = bearings.iter().filter(|b| b.weight > 0.0).collect();
    if usable.len() != chosen.len() || usable.is_empty() {
        return 0.0;
    }
    let mut ss = 0.0;
    for (b, &c) in usable.iter().zip(chosen) {
        let dir = b.candidates[usize::from(c.min(1))].unit();
        let rel = p - b.origin;
        let cross = rel.cross(dir);
        ss += cross.dot(cross);
    }
    // lint:allow(lossy-cast) bearing count is a small positive integer
    (ss / usable.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locate::aided::locate_3d_resolved;
    use crate::locate::plane::locate_2d;
    use crate::locate::space::locate_3d;
    use crate::session::Aided;
    use crate::snapshot::Snapshot;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagspin_rf::noise::gaussian;

    const LAMBDA: f64 = 0.325;

    /// Synthesize one tag's clean (or noisy) snapshot window from the true
    /// reader position — exactly the round-trip phase model.
    fn synthesize(
        disk: &DiskConfig,
        reader: Vec3,
        n: usize,
        sigma: f64,
        offset: f64,
        rng: &mut StdRng,
    ) -> SnapshotSet {
        SnapshotSet::from_snapshots(
            (0..n)
                .map(|i| {
                    let t = i as f64 * disk.period_s() / n as f64;
                    let d = disk.tag_position(t).distance(reader);
                    Snapshot {
                        t_s: t,
                        phase: angle::wrap_tau(
                            2.0 * TAU / LAMBDA * d + offset + sigma * gaussian(rng),
                        ),
                        disk_angle: disk.disk_angle(t),
                        lambda: LAMBDA,
                        rssi_dbm: -60.0,
                    }
                })
                .collect(),
        )
    }

    fn paper_setup(reader: Vec3) -> (Vec<TagObservation>, Vec<Bearing2D>) {
        let mut rng = StdRng::seed_from_u64(11);
        let disks = [
            DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)),
            DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)),
        ];
        let mut observations = Vec::new();
        let mut bearings = Vec::new();
        for (i, disk) in disks.iter().enumerate() {
            let set = synthesize(disk, reader, 400, 0.1, 1.0 + i as f64, &mut rng);
            observations.push(TagObservation {
                epc: i as u128 + 1,
                disk: *disk,
                set,
            });
            // Seed bearings with a deliberate bias (the far-field spectrum
            // bias the ML refinement should shrink). 0.04 rad puts the seed
            // several centimeters off — clearly outside the ML noise floor,
            // which is range-limited to ~2 cm because the per-tag offset
            // absorbs the mean distance.
            let true_az = (reader.xy() - disk.center.xy()).bearing();
            bearings.push(Bearing2D::new(disk.center.xy(), true_az + 0.04));
        }
        (observations, bearings)
    }

    /// Three disks seen from above the disk plane, with 3D and aided
    /// bearings a little off the truth (the seed the ML refinement should
    /// improve on).
    fn three_disk_setup() -> (Vec<TagObservation>, Vec<Bearing3D>, Vec<AmbiguousBearing>) {
        let truth = Vec3::new(0.3, 1.6, 0.5);
        let mut rng = StdRng::seed_from_u64(23);
        let disks = [
            DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)),
            DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)),
            DiskConfig::paper_default(Vec3::new(0.0, -0.4, 0.0)),
        ];
        let mut observations = Vec::new();
        let mut bearings = Vec::new();
        let mut aided = Vec::new();
        for (i, disk) in disks.iter().enumerate() {
            let set = synthesize(disk, truth, 400, 0.1, 0.5 * i as f64, &mut rng);
            observations.push(TagObservation {
                epc: i as u128 + 1,
                disk: *disk,
                set,
            });
            let rel = truth - disk.center;
            let dir =
                tagspin_geom::vec3::Direction3::new(rel.azimuth() + 0.012, rel.polar() + 0.01);
            bearings.push(Bearing3D::new(disk.center, dir));
            aided.push(AmbiguousBearing::horizontal(disk.center, dir));
        }
        (observations, bearings, aided)
    }

    /// Replace every observation's phases with wrapped Gaussian junk
    /// (finite but model-free) of the given spread.
    fn corrupt(observations: &mut [TagObservation], seed: u64, spread: f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for obs in observations {
            obs.set = SnapshotSet::from_snapshots(
                obs.set
                    .snapshots()
                    .iter()
                    .map(|s| Snapshot {
                        phase: angle::wrap_tau(spread * gaussian(&mut rng)),
                        ..*s
                    })
                    .collect(),
            );
        }
    }

    /// Assert that `backend` serves `seed`, the kind's own intersection of
    /// `bearings`, verbatim; return the ML report and confidence it
    /// carries.
    fn served_seed<K: FixPath>(
        backend: EstimatorBackend,
        bearings: &[K::Bearing],
        observations: &[TagObservation],
        seed: &K::Fix,
    ) -> (Option<MlReport>, Result<FixConfidence, ConfidenceError>)
    where
        K::Fix: PartialEq + fmt::Debug,
    {
        let out = backend
            .estimate::<K>(bearings, observations, &PipelineConfig::default())
            .unwrap();
        assert_eq!(&out.fix, seed, "{backend:?} must serve the intersection");
        assert_eq!(out.backend, backend);
        (out.ml, out.confidence)
    }

    #[test]
    fn backend_names_parse_round_trip() {
        for b in [
            EstimatorBackend::Spectrum,
            EstimatorBackend::Ml,
            EstimatorBackend::Hybrid,
        ] {
            assert_eq!(b.name().parse::<EstimatorBackend>(), Ok(b));
        }
        assert!("fancy".parse::<EstimatorBackend>().is_err());
        assert_eq!(EstimatorBackend::default(), EstimatorBackend::Spectrum);
        assert_eq!(
            EstimatorConfig::default().backend,
            EstimatorBackend::Spectrum
        );
    }

    #[test]
    fn spectrum_backend_is_locate_verbatim() {
        let (_, b2) = paper_setup(Vec3::new(0.4, 1.7, 0.0));
        let (_, b3, ba) = three_disk_setup();
        let spectrum = EstimatorBackend::Spectrum;
        for served in [
            served_seed::<TwoD>(spectrum, &b2, &[], &locate_2d(&b2).unwrap()),
            served_seed::<ThreeD>(spectrum, &b3, &[], &locate_3d(&b3).unwrap()),
            served_seed::<Aided>(spectrum, &ba, &[], &locate_3d_resolved(&ba).unwrap()),
        ] {
            assert_eq!(served, (None, Err(ConfidenceError::NotComputed)));
        }
    }

    #[test]
    fn ml_refines_biased_seed_toward_truth() {
        let truth = Vec3::new(0.4, 1.7, 0.0);
        let (observations, bearings) = paper_setup(truth);
        let cfg = PipelineConfig::default();
        let seed = locate_2d(&bearings).unwrap();
        let out = EstimatorBackend::Ml
            .estimate::<TwoD>(&bearings, &observations, &cfg)
            .unwrap();
        let report = out.ml.expect("ml report");
        assert!(report.accepted, "{report:?}");
        let seed_err = (seed.position - truth.xy()).norm();
        let ml_err = (out.fix.position - truth.xy()).norm();
        assert!(
            ml_err < seed_err,
            "ml {ml_err:.4} m vs seed {seed_err:.4} m ({report:?})"
        );
        assert!(ml_err < 0.05, "ml error {ml_err:.4} m");
        let conf = out.confidence.expect("confidence");
        assert!(conf.is_finite_psd(), "{conf:?}");
        assert!(conf.sigma_major_m > 0.0 && conf.sigma_major_m < 0.5);
    }

    #[test]
    fn ml_without_observations_falls_back_to_seed() {
        let (_, b2) = paper_setup(Vec3::new(0.4, 1.7, 0.0));
        let (_, b3, ba) = three_disk_setup();
        for backend in [EstimatorBackend::Ml, EstimatorBackend::Hybrid] {
            for (ml, confidence) in [
                served_seed::<TwoD>(backend, &b2, &[], &locate_2d(&b2).unwrap()),
                served_seed::<ThreeD>(backend, &b3, &[], &locate_3d(&b3).unwrap()),
                served_seed::<Aided>(backend, &ba, &[], &locate_3d_resolved(&ba).unwrap()),
            ] {
                assert!(!ml.expect("report").accepted, "{backend:?}");
                assert_eq!(confidence, Err(ConfidenceError::NotComputed));
            }
        }
    }

    #[test]
    fn ml_never_yields_non_finite_on_garbage_phases() {
        let truth = Vec3::new(0.4, 1.7, 0.0);
        let (mut observations, bearings) = paper_setup(truth);
        // Replace one tag's phases with junk (finite but model-free).
        corrupt(&mut observations[..1], 99, 7.31);
        let cfg = PipelineConfig::default();
        let out = EstimatorBackend::Ml
            .estimate::<TwoD>(&bearings, &observations, &cfg)
            .unwrap();
        assert!(out.fix.position.x.is_finite() && out.fix.position.y.is_finite());
        if let Ok(conf) = out.confidence {
            assert!(conf.is_finite_psd());
        }
    }

    #[test]
    fn hybrid_serves_spectrum_on_corrupted_capture() {
        // Corrupt *every* tag heavily: mean inlier weight collapses.
        let (mut o2, b2) = paper_setup(Vec3::new(0.4, 1.7, 0.0));
        corrupt(&mut o2, 5, 9.17);
        let (mut o3, b3, ba) = three_disk_setup();
        corrupt(&mut o3, 5, 9.17);
        let hybrid = EstimatorBackend::Hybrid;
        for (ml, _) in [
            served_seed::<TwoD>(hybrid, &b2, &o2, &locate_2d(&b2).unwrap()),
            served_seed::<ThreeD>(hybrid, &b3, &o3, &locate_3d(&b3).unwrap()),
            served_seed::<Aided>(hybrid, &ba, &o3, &locate_3d_resolved(&ba).unwrap()),
        ] {
            assert!(!ml.expect("report").accepted);
        }
    }

    #[test]
    fn hybrid_serves_ml_on_clean_capture() {
        let truth = Vec3::new(0.4, 1.7, 0.0);
        let (observations, bearings) = paper_setup(truth);
        let cfg = PipelineConfig::default();
        let hybrid = EstimatorBackend::Hybrid
            .estimate::<TwoD>(&bearings, &observations, &cfg)
            .unwrap();
        let ml = EstimatorBackend::Ml
            .estimate::<TwoD>(&bearings, &observations, &cfg)
            .unwrap();
        assert!(hybrid.ml.expect("report").accepted);
        assert_eq!(hybrid.fix, ml.fix);
    }

    #[test]
    fn ml_3d_refines_position() {
        let truth = Vec3::new(0.3, 1.6, 0.5);
        let (observations, bearings, _) = three_disk_setup();
        let cfg = PipelineConfig::default();
        let seed = locate_3d(&bearings).unwrap();
        let out = EstimatorBackend::Ml
            .estimate::<ThreeD>(&bearings, &observations, &cfg)
            .unwrap();
        assert!(out.ml.expect("report").accepted);
        let seed_err = (seed.position - truth).norm();
        let ml_err = (out.fix.position - truth).norm();
        assert!(
            ml_err < seed_err + 1e-9,
            "ml {ml_err:.4} vs seed {seed_err:.4}"
        );
        let conf = out.confidence.expect("confidence");
        assert!(conf.cov_zz.is_some());
        assert!(conf.is_finite_psd());
        // The mirror reflects across the seed's disk plane.
        let plane_z = 0.5 * (seed.position.z + seed.mirror.z);
        assert!((out.fix.mirror.z - (2.0 * plane_z - out.fix.position.z)).abs() < 1e-12);
    }

    #[test]
    fn confidence_refuses_parallel_bearings() {
        let lines = [
            (Vec2::new(0.0, 0.0), 0.7, 0.01),
            (Vec2::new(1.0, 0.0), 0.7, 0.01),
            (Vec2::new(2.0, 0.0), 0.7, 0.01),
        ];
        assert_eq!(
            confidence_from_bearing_lines(&lines, Vec2::new(5.0, 5.0), None),
            Err(ConfidenceError::DegenerateGeometry)
        );
    }

    #[test]
    fn confidence_refuses_zero_range_and_counts_informative() {
        let p = Vec2::new(0.0, 1.0);
        // Zero baseline: position sits on a bearing origin.
        let lines = [(p, 0.3, 0.01), (Vec2::new(0.4, 0.0), 1.2, 0.01)];
        assert_eq!(
            confidence_from_bearing_lines(&lines, p, None),
            Err(ConfidenceError::DegenerateGeometry)
        );
        // Infinite CRLB bearings carry no information.
        let lines = [
            (Vec2::new(-0.3, 0.0), 1.4, f64::INFINITY),
            (Vec2::new(0.3, 0.0), 1.7, 0.01),
        ];
        assert_eq!(
            confidence_from_bearing_lines(&lines, p, None),
            Err(ConfidenceError::TooFewBearings { got: 1 })
        );
    }

    #[test]
    fn confidence_well_formed_on_good_geometry() {
        let p = Vec2::new(0.1, 1.5);
        let lines = [
            (
                Vec2::new(-0.3, 0.0),
                (p - Vec2::new(-0.3, 0.0)).bearing(),
                0.01,
            ),
            (
                Vec2::new(0.3, 0.0),
                (p - Vec2::new(0.3, 0.0)).bearing(),
                0.01,
            ),
        ];
        let conf = confidence_from_bearing_lines(&lines, p, Some(0.002)).unwrap();
        assert!(conf.is_finite_psd());
        assert_eq!(conf.bearings, 2);
        assert!(conf.sigma_major_m >= conf.sigma_minor_m);
        assert!(conf.sigma_minor_m > 0.0);
    }

    #[test]
    fn from_covariance_refuses_nan_and_negative() {
        assert_eq!(
            FixConfidence::from_covariance(f64::NAN, 0.0, 1.0, None, 2),
            Err(ConfidenceError::NonFinite)
        );
        assert_eq!(
            FixConfidence::from_covariance(-1.0, 0.0, 1.0, None, 2),
            Err(ConfidenceError::DegenerateGeometry)
        );
        assert_eq!(
            FixConfidence::from_covariance(1.0, 0.0, 1.0, Some(-0.5), 2),
            Err(ConfidenceError::DegenerateGeometry)
        );
        // Indefinite: |xy| too large.
        assert_eq!(
            FixConfidence::from_covariance(1.0, 2.0, 1.0, None, 2),
            Err(ConfidenceError::DegenerateGeometry)
        );
    }
}
