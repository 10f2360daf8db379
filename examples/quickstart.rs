//! Quickstart: locate one reader antenna with two spinning tags.
//!
//! Mirrors the paper's 2D deployment (Section VII-B-1): two disks at
//! (±30 cm, 0) on a desktop, a reader somewhere on the same plane, one
//! disk rotation of observations, centimeter-level fix.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::SeedableRng;
use tagspin::core::prelude::*;
use tagspin::core::snapshot::SnapshotSet;
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::geom::{to_cm, Pose, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2016);

    // ── Infrastructure: two spinning tags the server knows about. ──────
    let d1 = DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0));
    let d2 = DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0));
    let t1 = SpinningTag::new(d1, TagInstance::manufacture(TagModel::DEFAULT, 1, &mut rng));
    let t2 = SpinningTag::new(d2, TagInstance::manufacture(TagModel::DEFAULT, 2, &mut rng));
    println!(
        "disks: {} and {} (r = {:.0} cm, ω = {} rad/s)",
        d1.center,
        d2.center,
        to_cm(d1.radius),
        d1.omega
    );

    // ── The reader antenna whose position we do NOT know. ──────────────
    let truth = Vec3::new(0.55, 1.90, 0.0);
    let reader = ReaderConfig::at(Pose::facing_toward(truth, Vec3::ZERO));
    println!("ground-truth reader position (hidden from the pipeline): {truth}");

    // ── Observation: the reader inventories the spinning tags. ─────────
    let env = Environment::paper_default();
    let log = run_inventory(
        &env,
        &reader,
        &[&t1 as &dyn Transponder, &t2],
        d1.period_s() * 1.25,
        &mut rng,
    );
    println!(
        "collected {} reads over {:.1} s ({:.0} reads/s)",
        log.len(),
        log.span_s(),
        log.read_rate()
    );

    // ── Server-side localization. ───────────────────────────────────────
    let mut server = LocalizationServer::new(PipelineConfig::default());
    server.register(1, d1).expect("fresh registry");
    server.register(2, d2).expect("fresh registry");

    // Orientation calibration prelude (paper Section III-B): spin each tag
    // at the disk *center* once; fit its phase–orientation function.
    for (epc, d, t) in [(1u128, d1, &t1), (2, d2, &t2)] {
        let center = CenterSpinTag {
            disk: d,
            tag: t.tag.clone(),
        };
        let cal_log = run_inventory(
            &env,
            &reader,
            &[&center as &dyn Transponder],
            d.period_s() * 1.3,
            &mut rng,
        );
        let cal_set = SnapshotSet::from_log(&cal_log, epc, &d).expect("tag observed");
        let cal = OrientationCalibration::fit(&cal_set).expect("full revolution");
        println!(
            "tag {epc}: orientation effect {:.2} rad p-p calibrated",
            cal.peak_to_peak()
        );
        server
            .set_orientation_calibration(epc, cal)
            .expect("registered");
    }

    let fix = server.fix::<TwoD>(&log).expect("both tags observed");
    let err = (fix.position - truth.xy()).norm();
    println!("estimated reader position: {}", fix.position);
    println!(
        "error distance: {:.1} cm (residual {:.2} cm)",
        to_cm(err),
        to_cm(fix.residual_m)
    );

    assert!(err < 0.25, "quickstart accuracy regression: {err} m");
}
