//! The vertical third disk (paper §V-B future work): resolve the 3D ±z
//! ambiguity geometrically, with no dead-space prior.
//!
//! Two horizontal disks give two candidate reader positions — the true one
//! and its mirror below the desk. A third disk spinning in a *vertical*
//! plane has a different mirror plane, so only the true candidate
//! combination makes all three rays meet.
//!
//! Run with: `cargo run --release --example vertical_aid`

use rand::SeedableRng;
use tagspin::core::prelude::*;
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::geom::{to_cm, Pose, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};

const DESK: f64 = 0.914;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let env = Environment::paper_default();

    // Two horizontal disks on the desk, plus one vertical disk whose plane
    // normal points along +y (so its aperture spans x and z).
    let disks = [
        DiskConfig::paper_default(Vec3::new(-0.3, 0.0, DESK)),
        DiskConfig::paper_default(Vec3::new(0.3, 0.0, DESK)),
        DiskConfig::vertical(Vec3::new(0.0, 0.4, DESK), std::f64::consts::FRAC_PI_2),
    ];
    let tags: Vec<SpinningTag> = disks
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            SpinningTag::new(
                d,
                TagInstance::manufacture(TagModel::DEFAULT, (i + 1) as u128, &mut rng),
            )
        })
        .collect();
    let trs: Vec<&dyn Transponder> = tags.iter().map(|t| t as &dyn Transponder).collect();

    let truth = Vec3::new(0.5, 1.9, 1.6);
    let reader = ReaderConfig::at(Pose::facing_toward(truth, Vec3::new(0.0, 0.2, DESK)));
    println!("hidden reader position: {truth}");

    let mut server = LocalizationServer::new(PipelineConfig {
        orientation_calibration: false,
        spectrum: SpectrumConfig {
            azimuth_steps: 360,
            polar_steps: 61,
            references: 8,
            ..SpectrumConfig::default()
        },
        ..PipelineConfig::default()
    });
    for (i, &d) in disks.iter().enumerate() {
        server.register((i + 1) as u128, d).expect("unique EPCs");
    }

    let log = run_inventory(&env, &reader, &trs, disks[0].period_s() * 1.25, &mut rng);
    println!("collected {} reads", log.len());

    // Dead-space-free localization: geometry alone resolves the mirror.
    let fix = server.fix::<Aided>(&log).expect("all tags observed");
    let err = fix.position.distance(truth);
    println!(
        "resolved position: {} — error {:.1} cm",
        fix.position,
        to_cm(err)
    );
    println!(
        "candidate choices per tag: {:?} (0 = primary, 1 = mirror)",
        fix.chosen
    );
    println!(
        "ambiguity margin: the rejected combination fits {:.0}× worse",
        fix.runner_up_residual_m / fix.residual_m.max(1e-6)
    );

    // Contrast: the horizontal-only fix cannot tell up from down.
    let mut flat = LocalizationServer::new(server.config);
    flat.register(1, disks[0]).expect("fresh registry");
    flat.register(2, disks[1]).expect("fresh registry");
    let ambiguous = flat.fix::<ThreeD>(&log).expect("tags observed");
    println!(
        "horizontal-only candidates: {} / {} (needs a dead-space prior)",
        ambiguous.position, ambiguous.mirror
    );

    assert!(err < 0.4, "vertical-aid accuracy regression: {err} m");
    assert!(fix.runner_up_residual_m > 2.0 * fix.residual_m.max(1e-6));
}
