//! Golden incremental-trace fixture: the canonical two-spinning-tag 2D
//! trace streamed through a count-windowed session on the *incremental*
//! accumulator path, with fixes interleaved mid-stream. The fixture pins,
//! for every fix, the cumulative sync counters after it (columns applied
//! and downdated, re-anchors, fallbacks) and the fix output, so both the
//! accumulator bookkeeping and the numbers it serves are regression-gated
//! with a reviewable diff.
//!
//! Fixes come every 32 reports, about 16 in and 16 out per tag: far
//! shorter than the 256-report window, so the accumulators serve. The
//! drift bound is deliberately small (64 ops), so
//! the fixture exercises anchors, rank-1 updates *and* downdates within
//! one rotation — not just the append-only path. A gap of about 300
//! reports per tag without a fix, more than the window, sends the next
//! refresh down the fresh path.
//!
//! Regenerate after an *intentional* change to the sync policy or the
//! spectrum math with `cargo xtask golden --bless` (or `GOLDEN_BLESS=1
//! cargo test --test golden_incremental`), and review the fixture diff
//! like any other code. Counters compare exactly; floats are written with
//! shortest-round-trip `Display` and compared at `1e-9`.

use std::fmt::Write as _;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagspin::core::prelude::*;
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::epc::InventoryLog;
use tagspin::geom::{Pose, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};

const TOL: f64 = 1e-9;
const WINDOW: usize = 256;
const STRIDE: usize = 32;
const DRIFT_OPS: u32 = 64;
/// Report indices with no fix: a window-sized gap.
const GAP: std::ops::Range<usize> = 1200..1800;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("incr_2d.txt")
}

/// The canonical deterministic deployment: two paper-default disks at
/// (±30 cm, 0), one full rotation observed from (0.4, 1.7).
fn canonical_log() -> InventoryLog {
    let mut rng = StdRng::seed_from_u64(7);
    let d1 = DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0));
    let d2 = DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0));
    let t1 = SpinningTag::new(d1, TagInstance::manufacture(TagModel::DEFAULT, 1, &mut rng));
    let t2 = SpinningTag::new(d2, TagInstance::manufacture(TagModel::DEFAULT, 2, &mut rng));
    let reader = ReaderConfig::at(Pose::facing_toward(Vec3::new(0.4, 1.7, 0.0), Vec3::ZERO));
    run_inventory(
        &Environment::paper_default(),
        &reader,
        &[&t1 as &dyn Transponder, &t2 as &dyn Transponder],
        d1.period_s(),
        &mut rng,
    )
}

/// Stream the canonical trace through an incremental session and render
/// the fixture text: one `fix` line per mid-stream refresh (cumulative
/// sync counters plus the fix output), then the final 2D and 3D fixes.
fn render() -> String {
    let mut server = LocalizationServer::new(PipelineConfig {
        incremental: IncrementalPolicy {
            drift_tol: f64::from(DRIFT_OPS) * f64::EPSILON,
            ..IncrementalPolicy::default()
        },
        ..PipelineConfig::default()
    });
    let d1 = DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0));
    let d2 = DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0));
    server.register(1, d1).expect("unique EPC");
    server.register(2, d2).expect("unique EPC");

    let mut session = server.session(WindowConfig::last_reports(WINDOW));
    let log = canonical_log();

    let mut out = String::new();
    let w = &mut out;
    // lint:allow(no-panic) writing to a String cannot fail
    let ok = "String writes are infallible";
    writeln!(w, "# tagspin golden incremental trace v1").expect(ok);
    writeln!(
        w,
        "# canonical 2-tag 2D trace, {WINDOW}-report window, fix every {STRIDE} reports \
         outside the gap"
    )
    .expect(ok);
    writeln!(
        w,
        "# fix <i> <applied> <downdated> <reanchors> <fallbacks> <x> <y> <residual>"
    )
    .expect(ok);
    writeln!(w, "drift_ops {DRIFT_OPS}").expect(ok);
    writeln!(w, "window {WINDOW}").expect(ok);
    writeln!(w, "stride {STRIDE}").expect(ok);
    writeln!(w, "gap {} {}", GAP.start, GAP.end).expect(ok);

    for (i, report) in log.stream().enumerate() {
        session.ingest(report);
        if i == 0 || i % STRIDE != 0 || GAP.contains(&i) {
            continue;
        }
        let fix = session.fix::<TwoD>();
        let c = session.stats().incremental;
        match fix {
            Ok(fix) => writeln!(
                w,
                "fix {i} {} {} {} {} {} {} {}",
                c.applied,
                c.downdated,
                c.reanchors,
                c.fallbacks,
                fix.position.x,
                fix.position.y,
                fix.residual_m
            )
            .expect(ok),
            Err(e) => writeln!(
                w,
                "fix {i} {} {} {} {} none # {e}",
                c.applied, c.downdated, c.reanchors, c.fallbacks
            )
            .expect(ok),
        }
    }

    let fix2 = session
        .fix::<TwoD>()
        .expect("canonical trace must produce a 2D fix");
    writeln!(
        w,
        "final2d {} {} {}",
        fix2.position.x, fix2.position.y, fix2.residual_m
    )
    .expect(ok);
    let fix3 = session
        .fix::<ThreeD>()
        .expect("canonical trace must produce a 3D fix");
    writeln!(
        w,
        "final3d {} {} {} {} {}",
        fix3.position.x, fix3.position.y, fix3.position.z, fix3.residual_m, fix3.z_spread_m
    )
    .expect(ok);
    let c = session.stats().incremental;
    writeln!(
        w,
        "counts {} {} {} {}",
        c.applied, c.downdated, c.reanchors, c.fallbacks
    )
    .expect(ok);
    out
}

/// Token-wise comparison: integer and keyword tokens must match exactly;
/// float tokens (anything containing `.`, `e`, `inf` or `nan`) agree
/// within [`TOL`].
fn assert_fixture_matches(got: &str, want: &str) {
    let strip = |s: &str| -> Vec<Vec<String>> {
        s.lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| {
                l.split('#')
                    .next()
                    .unwrap_or("")
                    .split_whitespace()
                    .map(str::to_owned)
                    .collect()
            })
            .filter(|toks: &Vec<String>| !toks.is_empty())
            .collect()
    };
    let (got_lines, want_lines) = (strip(got), strip(want));
    assert_eq!(
        got_lines.len(),
        want_lines.len(),
        "fixture line count drifted; if intentional run `cargo xtask golden --bless`"
    );
    for (g_toks, w_toks) in got_lines.iter().zip(&want_lines) {
        assert_eq!(
            g_toks.len(),
            w_toks.len(),
            "fixture line shape drifted: got {g_toks:?}, golden {w_toks:?}"
        );
        for (g, want_tok) in g_toks.iter().zip(w_toks) {
            if g == want_tok {
                continue;
            }
            let is_float =
                |t: &str| t.contains(['.', 'e']) || t.contains("inf") || t.contains("nan");
            let (Ok(gv), Ok(wv)) = (g.parse::<f64>(), want_tok.parse::<f64>()) else {
                panic!("fixture token drifted: got {g:?}, golden {want_tok:?}");
            };
            assert!(
                is_float(g) && is_float(want_tok) && (gv - wv).abs() <= TOL,
                "fixture value drifted: got {g}, golden {want_tok}"
            );
        }
    }
}

#[test]
fn golden_incremental_2d() {
    let rendered = render();
    let path = golden_path();
    if std::env::var_os("GOLDEN_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create tests/golden");
        std::fs::write(&path, rendered).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run `cargo xtask golden --bless`",
            path.display()
        )
    });
    assert_fixture_matches(&rendered, &expected);
}

/// The cumulative counters `[applied, downdated, reanchors, fallbacks]`
/// of every mid-stream `fix` line, with its report index.
fn fix_counters(rendered: &str) -> Vec<(usize, [u64; 4])> {
    rendered
        .lines()
        .filter_map(|l| l.strip_prefix("fix "))
        .map(|l| {
            let t: Vec<&str> = l.split_whitespace().collect();
            let n = |k: usize| t[k].parse::<u64>().expect("counters are integers");
            (
                t[0].parse().expect("report index"),
                [n(1), n(2), n(3), n(4)],
            )
        })
        .collect()
}

/// The fixture trace really runs on the incremental path: anchors fire on
/// the small drift bound, rank-1 updates and downdates both happen
/// mid-stream (the window slides), the first fix after the gap searches
/// fresh, and nothing falls back to the reference recompute.
#[test]
fn golden_trace_exercises_the_incremental_path() {
    let rendered = render();
    let counts = rendered
        .lines()
        .find_map(|l| l.strip_prefix("counts "))
        .expect("render writes a counts line");
    let v: Vec<u64> = counts
        .split_whitespace()
        .map(|t| t.parse().expect("counts are integers"))
        .collect();
    let (applied, downdated, reanchors, fallbacks) = (v[0], v[1], v[2], v[3]);
    assert!(applied > 0, "no columns ever applied");
    assert!(downdated > 0, "window never slid through a downdate");
    assert!(reanchors > 1, "drift bound never tripped");
    assert_eq!(fallbacks, 0, "clean trace must not fall back");

    let fixes = fix_counters(&rendered);
    let grew = |k: usize| fixes.windows(2).any(|w| w[1].1[k] > w[0].1[k]);
    assert!(grew(1), "no mid-stream fix downdated");
    assert!(grew(2), "no mid-stream fix anchored");
    let after_gap = fixes
        .iter()
        .position(|&(i, _)| i >= GAP.end)
        .expect("fixes resume after the gap");
    assert_eq!(
        fixes[after_gap].1,
        fixes[after_gap - 1].1,
        "the first fix after the gap must search fresh"
    );
}
