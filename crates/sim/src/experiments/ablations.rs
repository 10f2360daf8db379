//! Ablation experiments beyond the paper's figures: each isolates one
//! design choice called out in DESIGN.md.
//!
//! * profile — Q vs R vs hybrid bearing estimation;
//! * references — the enhanced profile's reference-averaging count;
//! * noise — phase-noise σ sweep;
//! * observation — how much of a rotation the reader must watch;
//! * multipath — explicit wall reflections vs the paper's noise-only model;
//! * wobble — disk motor speed error;
//! * vertical — the future-work vertical third disk vs dead-space priors.

// lint:allow-file(no-panic) figure/table harness: these drivers run with
// fidelities that guarantee trials succeed, and a violated invariant must
// abort the reproduction rather than emit a silently wrong table.

use super::{Fidelity, Report, Series};
use crate::scenario::Scenario;
use crate::sweep::{run_batch, Dims};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tagspin_core::spectrum::ProfileKind;
use tagspin_core::spinning::DiskConfig;
use tagspin_geom::{Vec2, Vec3};
use tagspin_rf::channel::Environment;
use tagspin_rf::multipath::room_walls;
use tagspin_rf::PhaseNoise;

fn base_2d(fid: &Fidelity, salt: u64, i: usize) -> (Scenario, u64) {
    let seed = fid.seed ^ salt ^ ((i as u64) << 32);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let xy = Scenario::random_reader_xy(&mut rng);
    let mut s = Scenario::paper_2d(xy);
    if fid.quick {
        s = s.quick();
    }
    (s, seed)
}

fn mean_cm(fid: &Fidelity, salt: u64, configure: impl Fn(&mut Scenario) + Sync) -> f64 {
    let batch = run_batch(fid.trials, Dims::Two, |i| {
        let (mut s, seed) = base_2d(fid, salt, i);
        configure(&mut s);
        (s, seed)
    });
    batch.stats.as_ref().map_or(f64::NAN, |s| s.mean_cm())
}

/// Ablation: which profile drives the bearing estimate.
pub fn abl_profile(fid: &Fidelity) -> Report {
    let mut scalars = Vec::new();
    for (kind, name) in [
        (ProfileKind::Traditional, "Q (traditional)"),
        (ProfileKind::Enhanced, "R (enhanced)"),
        (ProfileKind::Hybrid, "hybrid (default)"),
    ] {
        scalars.push((
            format!("{name} mean (cm)"),
            mean_cm(fid, 0xAB1, |s| s.profile = kind),
        ));
    }
    Report {
        id: "abl-profile",
        title: "Ablation: bearing estimation profile",
        series: Vec::new(),
        scalars,
        notes: vec![
            "Under white phase noise Q is the matched filter; R trades peak precision for \
             sidelobe immunity; the hybrid keeps both (see DESIGN.md)"
                .into(),
        ],
    }
}

/// Ablation: reference-averaging count in the enhanced profile.
pub fn abl_references(fid: &Fidelity) -> Report {
    let counts: &[usize] = if fid.quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &refs in counts {
        xs.push(refs as f64);
        ys.push(mean_cm(fid, 0xAB2, |s| {
            s.profile = ProfileKind::Enhanced;
            s.spectrum.references = refs;
        }));
    }
    Report {
        id: "abl-references",
        title: "Ablation: enhanced-profile reference averaging",
        series: vec![Series::from_xy("mean error (cm) vs references", &xs, &ys)],
        scalars: vec![
            ("single reference (cm)".into(), ys[0]),
            ("max references (cm)".into(), *ys.last().expect("nonempty")),
        ],
        notes: vec![
            "A single reference (the paper's literal Definition 4.1) leaves model-error bias \
             and reference-noise variance; averaging spread references removes both"
                .into(),
        ],
    }
}

/// Ablation: phase-noise σ.
pub fn abl_noise(fid: &Fidelity) -> Report {
    let sigmas: &[f64] = if fid.quick {
        &[0.05, 0.1, 0.3]
    } else {
        &[0.02, 0.05, 0.1, 0.2, 0.3, 0.5]
    };
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &sigma in sigmas {
        xs.push(sigma);
        ys.push(mean_cm(fid, 0xAB3, |s| {
            s.env.phase_noise = PhaseNoise::with_sigma(sigma);
        }));
    }
    Report {
        id: "abl-noise",
        title: "Ablation: per-read phase noise σ",
        series: vec![Series::from_xy("mean error (cm) vs σ (rad)", &xs, &ys)],
        scalars: vec![(
            "paper σ=0.1 error (cm)".into(),
            ys[sigmas
                .iter()
                .position(|&s| tagspin_dsp::float::approx_eq(s, 0.1, 1e-12))
                .unwrap_or(1)],
        )],
        notes: vec!["The paper assumes σ = 0.1 rad (citing Tagoram)".into()],
    }
}

/// Ablation: observation window length (fractions of a rotation).
pub fn abl_observation(fid: &Fidelity) -> Report {
    let fractions: &[f64] = if fid.quick {
        &[0.3, 0.6, 1.25]
    } else {
        &[0.25, 0.5, 0.75, 1.0, 1.25, 2.0]
    };
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &f in fractions {
        xs.push(f);
        ys.push(mean_cm(fid, 0xAB4, |s| {
            s.observation_s = s.disks[0].period_s() * f;
        }));
    }
    Report {
        id: "abl-observation",
        title: "Ablation: observation window (rotations)",
        series: vec![Series::from_xy("mean error (cm) vs rotations", &xs, &ys)],
        scalars: vec![
            ("quarter rotation (cm)".into(), ys[0]),
            ("full aperture (cm)".into(), *ys.last().expect("nonempty")),
        ],
        notes: vec![
            "Partial rotations shrink the synthetic aperture; a full turn is the paper's \
             operating point"
                .into(),
        ],
    }
}

/// Ablation: explicit multipath (wall reflectivity) vs the noise-only model.
pub fn abl_multipath(fid: &Fidelity) -> Report {
    let refl: &[f64] = if fid.quick {
        &[0.0, 0.15]
    } else {
        &[0.0, 0.05, 0.1, 0.15, 0.2, 0.3]
    };
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &r in refl {
        xs.push(r);
        ys.push(mean_cm(fid, 0xAB5, |s| {
            if r > 0.0 {
                s.env = Environment::office(room_walls(Vec2::new(-3.0, -4.5), 6.0, 9.0, r));
            }
        }));
    }
    Report {
        id: "abl-multipath",
        title: "Ablation: explicit wall reflections",
        series: vec![Series::from_xy(
            "mean error (cm) vs wall reflectivity",
            &xs,
            &ys,
        )],
        scalars: vec![
            ("anechoic (cm)".into(), ys[0]),
            (
                "strongest tested (cm)".into(),
                *ys.last().expect("nonempty"),
            ),
        ],
        notes: vec![
            "The paper folds office clutter into its Gaussian noise figure; explicit coherent \
             reflections degrade all phase-based processing rapidly — a known limit of the \
             approach, not of this implementation"
                .into(),
        ],
    }
}

/// Ablation: disk motor speed wobble (server assumes the nominal speed).
pub fn abl_wobble(fid: &Fidelity) -> Report {
    use crate::trial::{observe, setup_trial};
    use tagspin_core::prelude::*;
    // Slow wobble integrates to large angle excursions (≈ 2ωa/ω_w), which
    // is what actually smears the virtual array; fast jitter averages out.
    const WOBBLE_FREQ: f64 = 0.3;
    let amps: &[f64] = if fid.quick {
        &[0.0, 0.10]
    } else {
        &[0.0, 0.02, 0.05, 0.10, 0.15]
    };
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &amp in amps {
        // run_batch cannot inject wobble (it lives on the physical tag, not
        // the scenario), so run the trials inline.
        let mut errs = Vec::new();
        for i in 0..fid.trials {
            let (scenario, seed) = base_2d(fid, 0xAB6, i);
            let mut rng = StdRng::seed_from_u64(seed);
            let Ok(mut setup) = setup_trial(&scenario, &mut rng) else {
                continue;
            };
            setup.tags = setup
                .tags
                .into_iter()
                .map(|t| t.with_wobble(amp, WOBBLE_FREQ))
                .collect::<Vec<SpinningTag>>();
            let log = observe(&scenario, &setup, &mut rng);
            if let Ok(fix) = setup.server.fix::<TwoD>(&log) {
                errs.push((fix.position - scenario.reader_truth.position.xy()).norm());
            }
        }
        xs.push(amp * 100.0);
        ys.push(if errs.is_empty() {
            f64::NAN
        } else {
            errs.iter().sum::<f64>() / errs.len() as f64 * 100.0
        });
    }
    Report {
        id: "abl-wobble",
        title: "Ablation: disk speed wobble (%)",
        series: vec![Series::from_xy("mean error (cm) vs wobble (%)", &xs, &ys)],
        scalars: vec![
            ("perfect motor (cm)".into(), ys[0]),
            ("worst tested (cm)".into(), *ys.last().expect("nonempty")),
        ],
        notes: vec![
            "The server assumes the nominal ω; unmodeled wobble smears the virtual array".into(),
        ],
    }
}

/// Ablation: frequency hopping — the pipeline consumes per-read
/// wavelengths, so hopping across the 16-channel band must not break it.
pub fn abl_hopping(fid: &Fidelity) -> Report {
    use tagspin_epc::inventory::HopSchedule;
    let mut scalars = Vec::new();
    for (schedule, name) in [
        (HopSchedule::Fixed(8), "fixed channel"),
        (HopSchedule::Cycle { dwell_s: 2.0 }, "2 s dwell hop"),
        (
            HopSchedule::Cycle { dwell_s: 0.4 },
            "0.4 s dwell hop (FCC-like)",
        ),
    ] {
        scalars.push((
            format!("{name} mean (cm)"),
            mean_cm(fid, 0xAB8, |s| s.hopping = schedule),
        ));
    }
    Report {
        id: "abl-hopping",
        title: "Ablation: frequency hopping",
        series: Vec::new(),
        scalars,
        notes: vec![
            "Snapshots carry their own λ (channel) and the steering terms use it per read, so hopping costs little — the paper sidesteps this by per-channel dwelling"
                .into(),
        ],
    }
}

/// Ablation: the vertical third disk vs the dead-space prior (3D).
pub fn abl_vertical(fid: &Fidelity) -> Report {
    use crate::fault::FaultPlan;
    use crate::trial::Trial;
    use tagspin_core::session::Aided;
    let trials = fid.trials.min(if fid.quick { 4 } else { 15 });
    let mut margins = Vec::new();
    let mut errs_aided = Vec::new();
    let mut margins_flat = Vec::new();
    for i in 0..trials {
        let seed = fid.seed ^ 0xAB7 ^ ((i as u64) << 32);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let pos = Scenario::random_reader_xyz(&mut rng);
        let mut scenario = Scenario::paper_3d(pos).quick();
        scenario.orientation_calibration = false;
        // Add the vertical third disk next to the pair.
        scenario.disks.push(DiskConfig::vertical(
            Vec3::new(0.0, 0.4, crate::scenario::DESK_HEIGHT),
            std::f64::consts::FRAC_PI_2,
        ));

        let Ok(trial) = Trial::prepare(&scenario, &FaultPlan::clean(), seed) else {
            continue;
        };
        if let Ok(fix) = trial.replay(|_| {}).fix::<Aided>() {
            errs_aided.push(fix.position.distance(scenario.reader_truth.position));
            margins.push(fix.runner_up_residual_m / fix.residual_m.max(1e-6));
        }

        // Control: the same trial with only the two horizontal disks.
        let mut flat = scenario.clone();
        flat.disks.truncate(2);
        let Ok(trial) = Trial::prepare(&flat, &FaultPlan::clean(), seed) else {
            continue;
        };
        if let Ok(fix) = trial.replay(|_| {}).fix::<Aided>() {
            margins_flat.push(fix.runner_up_residual_m / fix.residual_m.max(1e-6));
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    Report {
        id: "abl-vertical",
        title: "Ablation: vertical third disk (paper future work)",
        series: Vec::new(),
        scalars: vec![
            ("aided mean error (cm)".into(), mean(&errs_aided) * 100.0),
            ("ambiguity margin with vertical disk".into(), mean(&margins)),
            (
                "ambiguity margin horizontal-only".into(),
                mean(&margins_flat),
            ),
        ],
        notes: vec![
            "Margin = runner-up residual / best residual across candidate combinations; \
             ≈1 means the ±z mirror is indistinguishable (horizontal-only), ≫1 means the \
             vertical aperture resolved it geometrically — no dead-space prior needed"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fidelity {
        Fidelity {
            trials: 3,
            ..Fidelity::quick()
        }
    }

    #[test]
    fn profile_ablation_reports_all_three() {
        let r = abl_profile(&tiny());
        for name in ["Q (traditional)", "R (enhanced)", "hybrid (default)"] {
            let v = r.scalar(&format!("{name} mean (cm)")).unwrap();
            assert!(v.is_finite() && v < 100.0, "{name}: {v}");
        }
    }

    #[test]
    fn references_ablation_improves_with_averaging() {
        let r = abl_references(&tiny());
        let single = r.scalar("single reference (cm)").unwrap();
        let many = r.scalar("max references (cm)").unwrap();
        assert!(many <= single * 1.5, "single {single} vs many {many}");
    }

    #[test]
    fn observation_ablation_full_beats_quarter() {
        let r = abl_observation(&tiny());
        let quarter = r.scalar("quarter rotation (cm)").unwrap();
        let full = r.scalar("full aperture (cm)").unwrap();
        assert!(full < quarter, "quarter {quarter} vs full {full}");
    }

    #[test]
    fn vertical_ablation_breaks_ambiguity() {
        let r = abl_vertical(&tiny());
        let with_v = r.scalar("ambiguity margin with vertical disk").unwrap();
        let flat = r.scalar("ambiguity margin horizontal-only").unwrap();
        // The vertical disk must clearly break the mirror ambiguity: the
        // horizontal-only margin hovers at ~1.0 (runner-up as good as the
        // winner), the vertical-aided margin around 2x. The 1.5x factor
        // leaves headroom for RNG-stream variation at quick fidelity.
        assert!(
            with_v > 1.5 * flat.max(0.5),
            "vertical margin {with_v} vs flat {flat}"
        );
        // Sanity bound only: a mirror-flipped fix would be meters off. At
        // 3-trial quick fidelity with orientation calibration disabled the
        // mean wanders tens of cm with the RNG stream.
        {
            let e = r.scalar("aided mean error (cm)").unwrap();
            assert!(e < 80.0, "aided mean error {e} cm");
        }
    }

    #[test]
    fn wobble_ablation_degrades() {
        let r = abl_wobble(&tiny());
        let clean = r.scalar("perfect motor (cm)").unwrap();
        let worst = r.scalar("worst tested (cm)").unwrap();
        // 10% slow wobble swings the disk angle by ≈ 0.33 rad — the error
        // must grow clearly beyond the clean baseline.
        assert!(worst > clean, "clean {clean} vs worst {worst}");
    }
}
