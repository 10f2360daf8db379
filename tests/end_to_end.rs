//! End-to-end integration tests spanning every workspace crate:
//! rf → epc → core pipeline → fix, in 2D and 3D.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagspin::core::prelude::*;
use tagspin::core::snapshot::SnapshotSet;
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::geom::{Pose, Vec2, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};

/// Build the standard 2-tag deployment and a server, with optional
/// orientation calibration, returning (tags, server, reader config).
fn deploy(
    disks: &[DiskConfig],
    truth: Vec3,
    calibrate: bool,
    env: &Environment,
    rng: &mut StdRng,
) -> (Vec<SpinningTag>, LocalizationServer, ReaderConfig) {
    let reader = ReaderConfig::at(Pose::facing_toward(truth, disks[0].center));
    let mut server = LocalizationServer::new(PipelineConfig {
        spectrum: SpectrumConfig {
            azimuth_steps: 360,
            polar_steps: 31,
            references: 8,
            ..SpectrumConfig::default()
        },
        ..PipelineConfig::default()
    });
    let mut tags = Vec::new();
    for (i, &disk) in disks.iter().enumerate() {
        let epc = (i + 1) as u128;
        let tag = TagInstance::manufacture(TagModel::DEFAULT, epc, rng);
        server.register(epc, disk).expect("unique EPCs");
        if calibrate {
            let center = CenterSpinTag {
                disk,
                tag: tag.clone(),
            };
            let log = run_inventory(
                env,
                &reader,
                &[&center as &dyn Transponder],
                disk.period_s() * 1.3,
                rng,
            );
            let set = SnapshotSet::from_log(&log, epc, &disk).expect("tag observed");
            let cal = OrientationCalibration::fit(&set).expect("full revolution");
            server
                .set_orientation_calibration(epc, cal)
                .expect("registered");
        }
        tags.push(SpinningTag::new(disk, tag));
    }
    (tags, server, reader)
}

#[test]
fn full_pipeline_2d_centimeter_accuracy() {
    let mut rng = StdRng::seed_from_u64(1);
    let env = Environment::paper_default();
    let disks = [
        DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)),
        DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)),
    ];
    let truth = Vec3::new(0.4, 1.9, 0.0);
    let (tags, server, reader) = deploy(&disks, truth, true, &env, &mut rng);
    let trs: Vec<&dyn Transponder> = tags.iter().map(|t| t as &dyn Transponder).collect();
    let log = run_inventory(&env, &reader, &trs, disks[0].period_s() * 1.25, &mut rng);

    let fix = server.fix::<TwoD>(&log).expect("both tags observed");
    let err = (fix.position - truth.xy()).norm();
    assert!(err < 0.10, "2D error {:.1} cm", err * 100.0);
}

#[test]
fn full_pipeline_3d_resolves_height() {
    let mut rng = StdRng::seed_from_u64(2);
    let env = Environment::paper_default();
    let desk = 0.914;
    let disks = [
        DiskConfig::paper_default(Vec3::new(-0.3, 0.0, desk)),
        DiskConfig::paper_default(Vec3::new(0.3, 0.0, desk)),
    ];
    let truth = Vec3::new(-0.3, 1.7, 1.6);
    let (tags, server, reader) = deploy(&disks, truth, true, &env, &mut rng);
    let trs: Vec<&dyn Transponder> = tags.iter().map(|t| t as &dyn Transponder).collect();
    let log = run_inventory(&env, &reader, &trs, disks[0].period_s() * 1.25, &mut rng);

    let fix = server.fix::<ThreeD>(&log).expect("both tags observed");
    let resolved = fix.resolve(|p| p.z >= desk).expect("reader above the desk");
    let err = resolved.distance(truth);
    assert!(err < 0.15, "3D error {:.1} cm", err * 100.0);
    // The mirror candidate reflects across the disk plane.
    assert!(
        ((fix.position.z - desk) + (fix.mirror.z - desk)).abs() < 1e-9,
        "mirror not symmetric about the disk plane"
    );
}

#[test]
fn calibration_improves_accuracy_end_to_end() {
    let env = Environment::paper_default();
    let disks = [
        DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)),
        DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)),
    ];
    let truth = Vec3::new(-0.6, 2.2, 0.0);
    let mut errs = Vec::new();
    for calibrate in [true, false] {
        // Same seed ⇒ same tags; the RNG stream diverges after setup but
        // both runs face statistically identical conditions.
        let mut rng = StdRng::seed_from_u64(3);
        let (tags, mut server, reader) = deploy(&disks, truth, calibrate, &env, &mut rng);
        server.config.orientation_calibration = calibrate;
        let trs: Vec<&dyn Transponder> = tags.iter().map(|t| t as &dyn Transponder).collect();
        let log = run_inventory(&env, &reader, &trs, disks[0].period_s() * 1.25, &mut rng);
        let fix = server.fix::<TwoD>(&log).expect("both tags observed");
        errs.push((fix.position - truth.xy()).norm());
    }
    assert!(
        errs[0] < errs[1],
        "calibrated {:.1} cm should beat uncalibrated {:.1} cm",
        errs[0] * 100.0,
        errs[1] * 100.0
    );
}

#[test]
fn llrp_round_trip_preserves_localization() {
    // Serialize the inventory through the LLRP wire format and localize
    // from the decoded log: the quantization must not move the fix by more
    // than a few millimeters.
    let mut rng = StdRng::seed_from_u64(4);
    let env = Environment::paper_default();
    let disks = [
        DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)),
        DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)),
    ];
    let truth = Vec3::new(0.8, 1.6, 0.0);
    let (tags, server, reader) = deploy(&disks, truth, false, &env, &mut rng);
    let trs: Vec<&dyn Transponder> = tags.iter().map(|t| t as &dyn Transponder).collect();
    let log = run_inventory(&env, &reader, &trs, disks[0].period_s() * 1.25, &mut rng);

    let bytes = tagspin::epc::llrp::encode_report(&log, 99);
    let (decoded, id) = tagspin::epc::llrp::decode_report(bytes).expect("valid message");
    assert_eq!(id, 99);
    assert_eq!(decoded.len(), log.len());

    let direct = server.fix::<TwoD>(&log).expect("fix from direct log");
    let via_wire = server.fix::<TwoD>(&decoded).expect("fix from decoded log");
    let shift = (direct.position - via_wire.position).norm();
    assert!(shift < 0.01, "wire round-trip moved the fix {shift} m");
}

#[test]
fn multi_antenna_simultaneous_localization() {
    use tagspin::epc::InventoryLog;
    use tagspin::rf::ReaderAntenna;
    let mut rng = StdRng::seed_from_u64(5);
    let env = Environment::paper_default();
    let disks = [
        DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)),
        DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)),
    ];
    let truths = [Vec3::new(-1.0, 2.0, 0.0), Vec3::new(1.1, 2.1, 0.0)];
    let (tags, server, _) = deploy(&disks, truths[0], false, &env, &mut rng);
    let trs: Vec<&dyn Transponder> = tags.iter().map(|t| t as &dyn Transponder).collect();

    // Two ports observe over the same window (fast multiplexing); reports
    // carry the port id and are merged in timestamp order.
    let antennas = ReaderAntenna::yeon_set();
    let mut reports = Vec::new();
    for (k, &truth) in truths.iter().enumerate() {
        let cfg =
            ReaderConfig::at(Pose::facing_toward(truth, Vec3::ZERO)).with_antenna(antennas[k]);
        let log = run_inventory(&env, &cfg, &trs, disks[0].period_s() * 1.1, &mut rng);
        reports.extend(log.reports().iter().copied());
    }
    reports.sort_by_key(|r| r.timestamp_us);
    let merged: InventoryLog = reports.into_iter().collect();

    let mut manager = server.session_manager(WindowConfig::unbounded());
    manager.ingest_log(&merged);
    let antennas = manager.antennas();
    assert_eq!(antennas.len(), 2);
    for (ant, truth) in antennas.into_iter().zip(&truths) {
        let fix = manager
            .fix::<TwoD>(ant)
            .unwrap_or_else(|e| panic!("antenna {ant}: {e}"));
        let err = (fix.position - truth.xy()).norm();
        assert!(err < 0.3, "antenna {ant} error {:.1} cm", err * 100.0);
    }
}

#[test]
fn failure_injection_disk_wobble_degrades_gracefully() {
    let mut rng = StdRng::seed_from_u64(6);
    let env = Environment::paper_default();
    let disks = [
        DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)),
        DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)),
    ];
    let truth = Vec3::new(0.3, 2.0, 0.0);
    let (tags, server, reader) = deploy(&disks, truth, false, &env, &mut rng);
    // Inject ±3% motor speed wobble the server does not know about.
    let wobbly: Vec<SpinningTag> = tags.into_iter().map(|t| t.with_wobble(0.03, 1.7)).collect();
    let trs: Vec<&dyn Transponder> = wobbly.iter().map(|t| t as &dyn Transponder).collect();
    let log = run_inventory(&env, &reader, &trs, disks[0].period_s() * 1.25, &mut rng);
    let fix = server
        .fix::<TwoD>(&log)
        .expect("wobble must not break the fix");
    let err = (fix.position - truth.xy()).norm();
    // Degraded but still sub-half-meter.
    assert!(err < 0.5, "wobble error {:.1} cm", err * 100.0);
}

#[test]
fn misregistered_disk_center_shifts_fix_accordingly() {
    // The server believes a disk sits 5 cm away from where it really is:
    // the fix inherits an error of that order — quantifying the paper's
    // point that infrastructure positions must be known.
    let mut rng = StdRng::seed_from_u64(7);
    let env = Environment::paper_default();
    let true_disks = [
        DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)),
        DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)),
    ];
    let truth = Vec3::new(0.0, 2.0, 0.0);
    let (tags, _, reader) = deploy(&true_disks, truth, false, &env, &mut rng);
    // Server registry with a shifted copy of disk 2.
    let mut server = LocalizationServer::new(PipelineConfig {
        orientation_calibration: false,
        spectrum: SpectrumConfig {
            azimuth_steps: 360,
            references: 8,
            ..SpectrumConfig::default()
        },
        ..PipelineConfig::default()
    });
    server.register(1, true_disks[0]).expect("fresh");
    let mut shifted = true_disks[1];
    shifted.center += Vec3::new(0.05, 0.0, 0.0);
    server.register(2, shifted).expect("fresh");

    let trs: Vec<&dyn Transponder> = tags.iter().map(|t| t as &dyn Transponder).collect();
    let log = run_inventory(
        &env,
        &reader,
        &trs,
        true_disks[0].period_s() * 1.25,
        &mut rng,
    );
    let fix = server.fix::<TwoD>(&log).expect("fix still produced");
    let err = (fix.position - truth.xy()).norm();
    assert!(
        err > 0.01,
        "misregistration should cost > 1 cm, got {err} m"
    );
    assert!(err < 0.6, "misregistration cost is bounded, got {err} m");
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut rng = StdRng::seed_from_u64(8);
        let env = Environment::paper_default();
        let disks = [
            DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)),
            DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)),
        ];
        let truth = Vec3::new(0.5, 1.5, 0.0);
        let (tags, server, reader) = deploy(&disks, truth, true, &env, &mut rng);
        let trs: Vec<&dyn Transponder> = tags.iter().map(|t| t as &dyn Transponder).collect();
        let log = run_inventory(&env, &reader, &trs, disks[0].period_s() * 1.25, &mut rng);
        server.fix::<TwoD>(&log).expect("fix").position
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn sim_scenario_matches_manual_deployment() {
    // The sim crate's trial runner must agree with a hand-built deployment
    // in error magnitude (both ~cm at this geometry).
    let scenario = tagspin::sim::Scenario::paper_2d(Vec2::new(0.4, 1.9)).quick();
    let out = tagspin::sim::run_trial_2d(&scenario, 99).expect("trial succeeds");
    assert!(
        out.error.combined < 0.15,
        "sim trial error {:.1} cm",
        out.error.combined * 100.0
    );
}
