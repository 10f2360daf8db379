//! Warehouse scenario: calibrate *four* reader antennas simultaneously.
//!
//! The paper's motivation (Section I): deploying a tag-tracking system
//! needs every reader antenna surveyed — by hand this took the authors many
//! minutes per antenna and got worse the more antennas they used. This
//! example deploys the Tagspin infrastructure once and calibrates all four
//! antenna ports of a Speedway-class reader from a single observation
//! window per antenna, exactly the "simultaneously locate even multiple
//! target antennas" claim.
//!
//! Run with: `cargo run --release --example warehouse_calibration`

use rand::SeedableRng;
use tagspin::core::prelude::*;
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::epc::InventoryLog;
use tagspin::geom::{to_cm, Pose, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};
use tagspin::rf::ReaderAntenna;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let env = Environment::paper_default();

    // ── Infrastructure: three spinning tags around the dock door. ───────
    let disks = [
        DiskConfig::paper_default(Vec3::new(-0.8, 0.0, 0.0)),
        DiskConfig::paper_default(Vec3::new(0.8, 0.0, 0.0)),
        DiskConfig::paper_default(Vec3::new(0.0, 1.2, 0.0)),
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
    let transponders: Vec<&dyn Transponder> = tags.iter().map(|t| t as &dyn Transponder).collect();

    let mut server = LocalizationServer::new(PipelineConfig {
        orientation_calibration: false, // keep the demo light-weight
        ..PipelineConfig::default()
    });
    for (i, &d) in disks.iter().enumerate() {
        server.register((i + 1) as u128, d).expect("unique EPCs");
    }

    // ── Four antenna ports at unknown mounting positions. ───────────────
    let truths = [
        Vec3::new(-1.8, 2.4, 0.0),
        Vec3::new(-0.6, 2.8, 0.0),
        Vec3::new(0.7, 2.7, 0.0),
        Vec3::new(1.9, 2.3, 0.0),
    ];
    let antennas = ReaderAntenna::yeon_set();

    // The Speedway multiplexes its ports; each port observes in turn and
    // the reports carry the port id, so one merged log serves all four.
    let mut merged = InventoryLog::new();
    let mut t_offset = 0u64;
    for (antenna, &truth) in antennas.iter().zip(&truths) {
        let cfg = ReaderConfig::at(Pose::facing_toward(truth, Vec3::ZERO)).with_antenna(*antenna);
        let log = run_inventory(
            &env,
            &cfg,
            &transponders,
            disks[0].period_s() * 1.1,
            &mut rng,
        );
        for mut r in log.reports().iter().copied() {
            r.timestamp_us += t_offset;
            merged.push(r);
        }
        t_offset += (disks[0].period_s() * 1.1 * 1e6) as u64 + 1;
    }
    println!(
        "merged log: {} reads from {} antenna ports",
        merged.len(),
        merged.antennas().len()
    );

    // Hmm: the per-port logs were time-shifted; the server must see each
    // port's own timeline, so localize each sub-log separately with the
    // original timestamps re-derived per antenna.
    for (idx, (antenna, &truth)) in antennas.iter().zip(&truths).enumerate() {
        let sub = merged.for_antenna(antenna.id);
        // Undo this port's offset so disk angles line up again.
        let base = idx as u64 * ((disks[0].period_s() * 1.1 * 1e6) as u64 + 1);
        let rebased: InventoryLog = sub
            .reports()
            .iter()
            .map(|r| {
                let mut r = *r;
                r.timestamp_us -= base;
                r
            })
            .collect();
        match server.fix::<TwoD>(&rebased) {
            Ok(fix) => {
                let err = (fix.position - truth.xy()).norm();
                println!(
                    "antenna {}: estimated {} — error {:.1} cm",
                    antenna.id,
                    fix.position,
                    to_cm(err)
                );
                assert!(err < 0.3, "antenna {} error {err} m", antenna.id);
            }
            Err(e) => println!("antenna {}: failed ({e})", antenna.id),
        }
    }
    println!("all four ports calibrated from one infrastructure deployment");
}
