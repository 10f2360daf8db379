//! The tag-orientation phase effect, end to end (paper Section III,
//! Observation 3.1).
//!
//! 1. Spin a tag at the disk *center*: distance constant, phase still
//!    fluctuates ≈0.7 rad with orientation.
//! 2. Fit the phase–orientation Fourier series (Step 1).
//! 3. Localize with and without applying the calibration (Step 2) and
//!    compare — the paper reports ≈1.7× better accuracy with it.
//!
//! Run with: `cargo run --release --example orientation_study`

use rand::SeedableRng;
use tagspin::core::prelude::*;
use tagspin::core::snapshot::SnapshotSet;
use tagspin::dsp::unwrap;
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::geom::{to_cm, Pose, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let env = Environment::paper_default();

    let disk = DiskConfig::paper_default(Vec3::new(1.0, 0.0, 0.0));
    let tag = TagInstance::manufacture(TagModel::DEFAULT, 1, &mut rng);
    let reader_pos = Vec3::new(0.0, 1.732, 0.0);
    let reader = ReaderConfig::at(Pose::facing_toward(reader_pos, disk.center));

    // ── Step 0: demonstrate the effect. ────────────────────────────────
    let center = CenterSpinTag {
        disk,
        tag: tag.clone(),
    };
    let log = run_inventory(
        &env,
        &reader,
        &[&center as &dyn Transponder],
        disk.period_s() * 1.3,
        &mut rng,
    );
    let set = SnapshotSet::from_log(&log, 1, &disk).expect("tag observed");
    let phases = unwrap::unwrap(&set.phases());
    let (lo, hi) = phases
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &p| {
            (l.min(p), h.max(p))
        });
    println!(
        "center-spin: distance constant, yet phase swings {:.2} rad over a rotation",
        hi - lo
    );
    println!(
        "(hidden ground truth for this individual: {:.2} rad peak-to-peak)",
        tag.orientation_phase.peak_to_peak()
    );

    // ── Step 1: fit the phase–orientation function. ────────────────────
    let cal = OrientationCalibration::fit(&set).expect("full revolution captured");
    println!(
        "fitted Fourier series: p-p {:.2} rad, fit rms {:.3} rad",
        cal.peak_to_peak(),
        cal.rms_residual()
    );

    // ── Step 2: localization with vs without the calibration. ──────────
    let d1 = DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0));
    let d2 = DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0));
    let truth = Vec3::new(0.2, 2.1, 0.0);

    let mut errors = Vec::new();
    for calibrate in [false, true] {
        let mut trial_rng = rand::rngs::StdRng::seed_from_u64(500);
        let t1 = SpinningTag::new(
            d1,
            TagInstance::manufacture(TagModel::DEFAULT, 11, &mut trial_rng),
        );
        let t2 = SpinningTag::new(
            d2,
            TagInstance::manufacture(TagModel::DEFAULT, 12, &mut trial_rng),
        );
        let cfg = ReaderConfig::at(Pose::facing_toward(truth, Vec3::ZERO));

        let mut server = LocalizationServer::new(PipelineConfig {
            orientation_calibration: calibrate,
            ..PipelineConfig::default()
        });
        server.register(11, d1).expect("fresh registry");
        server.register(12, d2).expect("fresh registry");

        if calibrate {
            for (epc, d, t) in [(11u128, d1, &t1), (12, d2, &t2)] {
                let c = CenterSpinTag {
                    disk: d,
                    tag: t.tag.clone(),
                };
                let cal_log = run_inventory(
                    &env,
                    &cfg,
                    &[&c as &dyn Transponder],
                    d.period_s() * 1.3,
                    &mut trial_rng,
                );
                let cal_set = SnapshotSet::from_log(&cal_log, epc, &d).expect("tag observed");
                let c = OrientationCalibration::fit(&cal_set).expect("full revolution");
                server
                    .set_orientation_calibration(epc, c)
                    .expect("registered");
            }
        }

        let main_log = run_inventory(
            &env,
            &cfg,
            &[&t1 as &dyn Transponder, &t2],
            d1.period_s() * 1.25,
            &mut trial_rng,
        );
        let fix = server.fix::<TwoD>(&main_log).expect("both tags observed");
        let err = (fix.position - truth.xy()).norm();
        println!(
            "{}: error {:.1} cm",
            if calibrate {
                "with calibration   "
            } else {
                "without calibration"
            },
            to_cm(err)
        );
        errors.push(err);
    }
    let factor = errors[0] / errors[1];
    println!("improvement factor: {factor:.1}× (paper: ≈1.7×)");
    assert!(factor > 1.0, "calibration must help on this geometry");
}
