//! `tagspin` — command-line reader-antenna calibration.
//!
//! ```text
//! tagspin simulate --config dep.conf --reader X,Y[,Z] --out log.llrp [--seed N]
//! tagspin locate   --config dep.conf --log log.llrp [--3d] [--aided]
//!                  [--estimator spectrum|ml|hybrid]
//!                  [--metrics-out metrics.json] [-v]
//! tagspin quality  --config dep.conf --log log.llrp
//! tagspin serve    --config dep.conf [--listen ADDR] [--http ADDR]
//!                  [--shards N] [--queue N] [--window N]
//! tagspin example-config
//! ```
//!
//! `locate` can attach the observability layer: `--metrics-out <file>`
//! folds every pipeline event into a metrics registry and writes it as
//! `tagspin-metrics/v1` JSON after the fix; `-v` streams each event to
//! stderr. Both default off, leaving the zero-cost `NullObserver` path.
//!
//! `--estimator` selects the fix backend (`spectrum` is the default
//! spectrum-peak path; `ml` refines it with the wrapped-phase
//! maximum-likelihood search; `hybrid` serves the ML refinement only when
//! its robust weights clear the trust floor). Passing the flag — any
//! value — also reports the serving backend and the position-covariance
//! confidence alongside the fix.
//!
//! `serve` boots the long-running fleet daemon (`tagspin::serve`): readers
//! stream length-prefixed LLRP report frames to the ingest port while fix
//! queries and `tagspin-metrics/v1` scrapes are answered over HTTP. The
//! process prints both bound addresses on startup (port 0 picks a free
//! port) and runs until killed.
//!
//! Logs use the LLRP-subset binary format (`tagspin::epc::llrp`) — the same
//! bytes a capture of the reader's report stream would contain. Deployment
//! configs use the line format documented in `tagspin::sim::config`.

use std::fs;
use std::process::ExitCode;
use tagspin::core::locate::aided::ResolvedFix;
use tagspin::core::prelude::*;
use tagspin::core::snapshot::SnapshotSet;
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::epc::llrp;
use tagspin::geom::{to_cm, Pose, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};
use tagspin::sim::Deployment;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why the CLI gave up: a usage problem (print help text) or a failure
/// from the IO / library layers with the context needed for a one-line
/// diagnostic.
#[derive(Debug)]
enum CliError {
    /// The command line is unusable; the payload is what to tell the user.
    Usage(String),
    /// Reading or writing a file failed.
    Io {
        path: String,
        source: std::io::Error,
    },
    /// A library-layer operation failed (config parse, log decode, locate).
    Lib {
        context: &'static str,
        source: Box<dyn std::error::Error>,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io { path, source } => write!(f, "{path}: {source}"),
            CliError::Lib { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Usage(_) => None,
            CliError::Io { source, .. } => Some(source),
            CliError::Lib { source, .. } => Some(source.as_ref()),
        }
    }
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }

    fn lib(context: &'static str, source: impl std::error::Error + 'static) -> CliError {
        CliError::Lib {
            context,
            source: Box::new(source),
        }
    }
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse() -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = std::env::args().skip(1).peekable();
        // Only these flags take a value; booleans like --3d must never
        // swallow the token after them.
        const VALUED: &[&str] = &[
            "config",
            "log",
            "out",
            "reader",
            "seed",
            "rotations",
            "metrics-out",
            "estimator",
            "listen",
            "http",
            "shards",
            "queue",
            "window",
            "store-dir",
        ];
        while let Some(arg) = iter.next() {
            if arg == "-v" {
                flags.push(("v".to_string(), None));
            } else if let Some(name) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if VALUED.contains(&name) && !v.starts_with("--") => iter.next(),
                    _ => None,
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(arg);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

fn usage() -> CliError {
    CliError::usage(
        "usage:\n  \
         tagspin simulate --config <file> --reader X,Y[,Z] --out <log> [--seed N] [--rotations F]\n  \
         tagspin locate   --config <file> --log <file> [--3d] [--aided] \
         [--estimator spectrum|ml|hybrid] [--metrics-out <file>] [-v]\n  \
         tagspin quality  --config <file> --log <file>\n  \
         tagspin serve    --config <file> [--listen ADDR] [--http ADDR] \
         [--shards N] [--queue N] [--window N] [--store-dir DIR]\n  \
         tagspin store    ls|verify|gc --store-dir DIR\n  \
         tagspin example-config",
    )
}

fn load_deployment(args: &Args) -> Result<Deployment, CliError> {
    let path = args
        .flag("config")
        .ok_or_else(|| CliError::usage("--config <file> required"))?;
    let text = fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.to_string(),
        source: e,
    })?;
    Deployment::parse(&text).map_err(|e| CliError::lib("parsing config", e))
}

fn load_log(args: &Args) -> Result<tagspin::epc::InventoryLog, CliError> {
    let path = args
        .flag("log")
        .ok_or_else(|| CliError::usage("--log <file> required"))?;
    let bytes = fs::read(path).map_err(|e| CliError::Io {
        path: path.to_string(),
        source: e,
    })?;
    let (log, _) =
        llrp::decode_report(bytes.into()).map_err(|e| CliError::lib("decoding log", e))?;
    Ok(log)
}

fn parse_reader(spec: &str) -> Result<Vec3, CliError> {
    let parts: Vec<f64> = spec
        .split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| CliError::usage(format!("bad coordinate '{p}'")))
        })
        .collect::<Result<_, _>>()?;
    match parts.len() {
        2 => Ok(Vec3::new(parts[0], parts[1], 0.0)),
        3 => Ok(Vec3::new(parts[0], parts[1], parts[2])),
        _ => Err(CliError::usage("--reader expects X,Y or X,Y,Z")),
    }
}

fn run() -> Result<(), CliError> {
    let args = Args::parse();
    match args.positional.first().map(String::as_str) {
        Some("simulate") => simulate(&args),
        Some("locate") => locate(&args),
        Some("quality") => quality(&args),
        Some("serve") => serve(&args),
        Some("store") => store_cmd(&args),
        Some("example-config") => {
            print!("{}", example_config());
            Ok(())
        }
        _ => Err(usage()),
    }
}

fn example_config() -> String {
    let mut dep = Deployment::default();
    dep.tags
        .push((1, DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0))));
    dep.tags
        .push((2, DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0))));
    dep.render()
}

/// Simulate an observation of the deployment from a known reader position
/// and write the LLRP report stream — the ground truth for `locate` demos.
fn simulate(args: &Args) -> Result<(), CliError> {
    use rand::SeedableRng;
    let dep = load_deployment(args)?;
    if dep.tags.is_empty() {
        return Err(CliError::usage("deployment has no tags"));
    }
    let reader_pos = parse_reader(
        args.flag("reader")
            .ok_or_else(|| CliError::usage("--reader X,Y[,Z] required"))?,
    )?;
    let out = args
        .flag("out")
        .ok_or_else(|| CliError::usage("--out <file> required"))?;
    let seed: u64 = args
        .flag("seed")
        .map(|s| s.parse().map_err(|_| CliError::usage("bad --seed")))
        .transpose()?
        .unwrap_or(1);
    let rotations: f64 = args
        .flag("rotations")
        .map(|s| s.parse().map_err(|_| CliError::usage("bad --rotations")))
        .transpose()?
        .unwrap_or(1.25);

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let env = Environment::paper_default();
    let aim = dep.tags[0].1.center;
    let reader = ReaderConfig::at(Pose::facing_toward(reader_pos, aim));
    let tags: Vec<SpinningTag> = dep
        .tags
        .iter()
        .map(|&(epc, disk)| {
            SpinningTag::new(
                disk,
                TagInstance::manufacture(TagModel::DEFAULT, epc, &mut rng),
            )
        })
        .collect();
    let trs: Vec<&dyn Transponder> = tags.iter().map(|t| t as &dyn Transponder).collect();
    let duration = dep.tags[0].1.period_s() * rotations;
    let log = run_inventory(&env, &reader, &trs, duration, &mut rng);
    let bytes = llrp::encode_report(&log, seed as u32);
    fs::write(out, &bytes).map_err(|e| CliError::Io {
        path: out.to_string(),
        source: e,
    })?;
    println!(
        "simulated {} reads over {:.1} s from reader at {reader_pos}; wrote {} bytes to {out}",
        log.len(),
        duration,
        bytes.len()
    );
    println!("note: simulate does not run the center-spin calibration; locate with a config");
    println!("      that sets 'orientation-calibration off', or expect the ψ(ρ) bias.");
    Ok(())
}

fn locate(args: &Args) -> Result<(), CliError> {
    use std::sync::Arc;
    let dep = load_deployment(args)?;
    let log = load_log(args)?;
    let mut server = dep.build_server();

    // `--estimator` selects the fix backend; the session dispatch reads it
    // from the pipeline config, so plain `fix::<K>` calls pick it up too.
    if args.has("estimator") {
        let spec = args
            .flag("estimator")
            .ok_or_else(|| CliError::usage("--estimator expects spectrum|ml|hybrid"))?;
        server.config.estimator.backend = spec
            .parse::<EstimatorBackend>()
            .map_err(|e| CliError::usage(format!("--estimator: {e}")))?;
    }

    // Optional observability: `-v` streams events to stderr,
    // `--metrics-out` folds them into a registry exported after the fix.
    // With neither flag the server keeps its zero-cost NullObserver.
    let metrics = args
        .flag("metrics-out")
        .map(|path| (path.to_string(), Arc::new(MetricsRegistry::new())));
    let mut sinks: Vec<Arc<dyn Observer>> = Vec::new();
    if args.has("v") {
        sinks.push(Arc::new(LogObserver));
    }
    if let Some((_, registry)) = &metrics {
        sinks.push(Arc::new(MetricsObserver::new(Arc::clone(registry))));
    }
    match sinks.len() {
        0 => {}
        1 => server.set_observer(sinks.remove(0)),
        _ => server.set_observer(Arc::new(FanoutObserver::new(sinks))),
    }

    // Run the fix before exporting metrics so a failed locate still leaves
    // its events (cache misses, gate decisions) on disk for diagnosis.
    let outcome = locate_fix(args, &dep, &server, &log);
    if let Some((path, registry)) = metrics {
        fs::write(&path, registry.export_json()).map_err(|e| CliError::Io {
            path: path.clone(),
            source: e,
        })?;
        eprintln!("metrics written to {path}");
    }
    outcome
}

fn locate_fix(
    args: &Args,
    dep: &Deployment,
    server: &LocalizationServer,
    log: &tagspin::epc::InventoryLog,
) -> Result<(), CliError> {
    if args.has("aided") {
        print_aided(&run_fix::<Aided>(args, server, log, "locating (3D aided)")?);
    } else if args.has("3d") {
        let fix = run_fix::<ThreeD>(args, server, log, "locating (3D)")?;
        let (lo, hi) = dep.z_feasible;
        match fix.resolve(|p| p.z >= lo && p.z <= hi) {
            Some(p) => println!("position: {p}"),
            None => {
                println!("both candidates outside z-feasible [{lo}, {hi}]:");
                println!("  candidate: {}", fix.position);
                println!("  mirror:    {}", fix.mirror);
            }
        }
        println!("z spread between tags: {:.2} cm", to_cm(fix.z_spread_m));
        println!("horizontal residual: {:.2} cm", to_cm(fix.residual_m));
    } else {
        let fix = run_fix::<TwoD>(args, server, log, "locating (2D)")?;
        println!("position: {}", fix.position);
        println!("residual: {:.2} cm", to_cm(fix.residual_m));
    }
    Ok(())
}

/// The fix of kind `K`. With `--estimator` the estimate path runs and its
/// backend report and covariance confidence are printed; without it the
/// plain fix path is untouched.
fn run_fix<K: FixPath>(
    args: &Args,
    server: &LocalizationServer,
    log: &tagspin::epc::InventoryLog,
    what: &'static str,
) -> Result<K::Fix, CliError> {
    let failed = |e: ServerError| CliError::lib(what, e);
    if !args.has("estimator") {
        return server.fix::<K>(log).map_err(failed);
    }
    let est = server.estimate::<K>(log).map_err(failed)?;
    print_backend(est.backend, est.ml.as_ref(), &est.confidence);
    Ok(est.fix)
}

/// Report which backend served the fix, the ML refinement outcome, and the
/// covariance confidence (or the typed reason it was refused).
fn print_backend(
    backend: EstimatorBackend,
    ml: Option<&MlReport>,
    confidence: &Result<FixConfidence, ConfidenceError>,
) {
    match ml {
        Some(r) if r.accepted => println!(
            "backend: {} (ML refinement accepted: {} iterations, converged: {}, mean weight {:.2})",
            backend.name(),
            r.iterations,
            r.converged,
            r.mean_weight
        ),
        Some(r) => println!(
            "backend: {} (ML refinement rejected after {} iterations; serving spectrum seed)",
            backend.name(),
            r.iterations
        ),
        None => println!("backend: {}", backend.name()),
    }
    match confidence {
        Ok(c) => println!(
            "confidence: σ {:.2} × {:.2} cm ({} bearings)",
            to_cm(c.sigma_major_m),
            to_cm(c.sigma_minor_m),
            c.bearings
        ),
        Err(e) => println!("confidence: unavailable ({e})"),
    }
}

fn print_aided(fix: &ResolvedFix) {
    println!("position: {}", fix.position);
    println!("residual: {:.2} cm", to_cm(fix.residual_m));
    println!(
        "ambiguity margin: {:.1}× (runner-up residual / best)",
        fix.runner_up_residual_m / fix.residual_m.max(1e-9)
    );
    println!("chosen candidates: {:?}", fix.chosen);
}

/// Boot the fleet daemon and run until the process is killed. Prints the
/// bound ingest/HTTP addresses first (machine-parseable, one per line) so
/// supervisors — the CI smoke job included — can target ephemeral ports.
fn serve(args: &Args) -> Result<(), CliError> {
    use std::io::Write;
    use tagspin::core::session::window::WindowConfig;
    use tagspin::serve::{ServeConfig, ServeDaemon};

    let dep = load_deployment(args)?;
    if dep.tags.is_empty() {
        return Err(CliError::usage("deployment has no tags"));
    }
    let server = dep.build_server();

    let mut config = ServeConfig::default();
    if let Some(addr) = args.flag("listen") {
        config.listen = addr.to_string();
    }
    if let Some(addr) = args.flag("http") {
        config.http = addr.to_string();
    }
    if let Some(n) = args.flag("shards") {
        config.shards = n
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| CliError::usage("bad --shards (want an integer >= 1)"))?;
    }
    if let Some(n) = args.flag("queue") {
        config.queue_capacity = n
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| CliError::usage("bad --queue (want an integer >= 1)"))?;
    }
    if let Some(n) = args.flag("window") {
        let n: usize = n
            .parse()
            .map_err(|_| CliError::usage("bad --window (want an integer; 0 = unbounded)"))?;
        config.window = if n == 0 {
            WindowConfig::unbounded()
        } else {
            WindowConfig::last_reports(n)
        };
    }
    if let Some(dir) = args.flag("store-dir") {
        config.store_dir = Some(std::path::PathBuf::from(dir));
    }

    let daemon = ServeDaemon::start(server, &config).map_err(|e| CliError::Io {
        path: "binding serve listeners".to_string(),
        source: e,
    })?;
    println!("ingest: {}", daemon.ingest_addr());
    println!("http: {}", daemon.http_addr());
    println!(
        "serving {} tags on {} shards (queue {} batches/shard); \
         routes: /healthz /metrics /stats /drain /fix/2d?antenna=N",
        dep.tags.len(),
        config.shards,
        config.queue_capacity,
    );
    let _ = std::io::stdout().flush();
    // Run until killed: the daemon's own threads do all the work, and a
    // process supervisor (systemd, the CI smoke job) owns the lifecycle.
    loop {
        std::thread::park();
    }
}

/// `verify` found records that fail validation.
#[derive(Debug)]
struct StoreVerifyFailed(usize);

impl std::fmt::Display for StoreVerifyFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} record(s) failed verification", self.0)
    }
}

impl std::error::Error for StoreVerifyFailed {}

/// `tagspin store ls|verify|gc --store-dir DIR`: inspect, validate, or
/// clean a calibration store without booting a daemon.
fn store_cmd(args: &Args) -> Result<(), CliError> {
    use tagspin::core::store::FileStore;

    let action = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| CliError::usage("store needs an action: ls, verify, or gc"))?;
    let dir = args
        .flag("store-dir")
        .ok_or_else(|| CliError::usage("--store-dir <dir> required"))?;
    let store = FileStore::open(dir).map_err(|e| CliError::lib("opening store", e))?;
    match action {
        "ls" => {
            let entries = store
                .entries()
                .map_err(|e| CliError::lib("listing store", e))?;
            for entry in &entries {
                let kind = entry
                    .kind
                    .map_or_else(|| "unreadable".to_string(), |k| format!("kind {k}"));
                println!(
                    "{}  {kind:<11}  key {:016x}  {} bytes",
                    entry.file, entry.key, entry.bytes
                );
            }
            println!("{} record(s) in {dir}", entries.len());
            Ok(())
        }
        "verify" => {
            let reports = store
                .verify()
                .map_err(|e| CliError::lib("verifying store", e))?;
            let mut bad = 0usize;
            for report in &reports {
                match &report.error {
                    None => println!("{}  ok", report.file),
                    Some(e) => {
                        bad += 1;
                        println!("{}  INVALID: {e}", report.file);
                    }
                }
            }
            println!("{} record(s), {bad} invalid", reports.len());
            if bad > 0 {
                return Err(CliError::lib("store verify", StoreVerifyFailed(bad)));
            }
            Ok(())
        }
        "gc" => {
            let removed = store.gc().map_err(|e| CliError::lib("store gc", e))?;
            for file in &removed {
                println!("removed {file}");
            }
            println!("{} file(s) removed", removed.len());
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown store action '{other}' (want ls, verify, or gc)"
        ))),
    }
}

fn quality(args: &Args) -> Result<(), CliError> {
    let dep = load_deployment(args)?;
    let log = load_log(args)?;
    println!(
        "log: {} reads over {:.1} s ({:.0} reads/s), antennas {:?}",
        log.len(),
        log.span_s(),
        log.read_rate(),
        log.antennas()
    );
    for &(epc, disk) in &dep.tags {
        match SnapshotSet::from_log(&log, epc, &disk) {
            Ok(set) => {
                match CaptureQuality::of(&set) {
                    Some(q) => println!(
                    "tag {epc}: {} reads, {:.0}% coverage, max gap {:.0}°, density skew {:.1} — {}",
                    q.reads,
                    q.coverage * 100.0,
                    q.max_gap.to_degrees(),
                    q.density_skew,
                    if q.is_usable() { "usable" } else { "NOT USABLE" }
                ),
                    None => println!("tag {epc}: empty capture"),
                }
            }
            Err(e) => println!("tag {epc}: {e}"),
        }
    }
    Ok(())
}
