//! 3D localization with the ±z ambiguity (paper Section V-B).
//!
//! Two spinning tags on a desk locate a reader mounted above the desk
//! plane. The 3D angle spectrum produces two symmetric candidates
//! (±γ); the deployment's dead space (nothing mounted below the desk)
//! resolves the ambiguity.
//!
//! Run with: `cargo run --release --example three_d_localization`

use rand::SeedableRng;
use tagspin::core::prelude::*;
use tagspin::core::spectrum::{spectrum_3d, ProfileKind};
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::geom::{to_cm, Pose, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};

const DESK: f64 = 0.914;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(33);
    let env = Environment::paper_default();

    let d1 = DiskConfig::paper_default(Vec3::new(-0.3, 0.0, DESK));
    let d2 = DiskConfig::paper_default(Vec3::new(0.3, 0.0, DESK));
    let t1 = SpinningTag::new(d1, TagInstance::manufacture(TagModel::DEFAULT, 1, &mut rng));
    let t2 = SpinningTag::new(d2, TagInstance::manufacture(TagModel::DEFAULT, 2, &mut rng));

    // Reader on a wall bracket: 1.5 m up, 2 m out.
    let truth = Vec3::new(0.4, 2.0, 1.5);
    let reader = ReaderConfig::at(Pose::facing_toward(truth, Vec3::new(0.0, 0.0, DESK)));
    println!("hidden reader position: {truth}");

    let log = run_inventory(
        &env,
        &reader,
        &[&t1 as &dyn Transponder, &t2],
        d1.period_s() * 1.25,
        &mut rng,
    );

    let mut server = LocalizationServer::new(PipelineConfig {
        spectrum: SpectrumConfig {
            azimuth_steps: 360,
            polar_steps: 61,
            ..SpectrumConfig::default()
        },
        ..PipelineConfig::default()
    });
    server.register(1, d1).expect("fresh registry");
    server.register(2, d2).expect("fresh registry");

    // Orientation calibration prelude (Section III-B).
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
        let cal_set = tagspin::core::snapshot::SnapshotSet::from_log(&cal_log, epc, &d)
            .expect("tag observed");
        let cal = OrientationCalibration::fit(&cal_set).expect("full revolution");
        server
            .set_orientation_calibration(epc, cal)
            .expect("registered");
    }

    // Show the raw spectrum of tag 1 first: two symmetric peaks.
    let set = server
        .calibrated_snapshots(&log, &server.tags()[0])
        .expect("tag 1 observed");
    let spec = spectrum_3d(
        &set,
        d1.radius,
        ProfileKind::Enhanced,
        &server.config.spectrum,
    );
    let candidates = spec.peak_candidates().expect("nonempty spectrum");
    println!(
        "tag 1 spectrum candidates: {} and {} (symmetric in γ)",
        candidates[0], candidates[1]
    );

    // Full fix: both z candidates, then dead-space resolution.
    let fix = server.fix::<ThreeD>(&log).expect("both tags observed");
    println!(
        "candidates: {} (above desk) / {} (mirror, below)",
        fix.position, fix.mirror
    );
    let resolved = fix
        .resolve(|p| p.z >= DESK)
        .expect("the deployment has no hardware below the desk");
    let err = resolved.distance(truth);
    println!("resolved: {resolved} — error {:.1} cm", to_cm(err));
    println!(
        "(z-consistency between the two tags: {:.1} cm spread)",
        to_cm(fix.z_spread_m)
    );
    assert!(err < 0.35, "3D accuracy regression: {err} m");
}
