//! The daemon: listeners, reader connections, routing, lifecycle.

use crate::router::shard_of;
use crate::shard::{run_worker, ShardCmd, ShardDepth};
use crate::ServeConfig;
use crossbeam::channel::{self, Sender, TrySendError};
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;
use tagspin_core::locate::plane::Fix2D;
use tagspin_core::obs::{
    Event, MetricsObserver, MetricsRegistry, ObsHandle, ServeMetrics, Stage, StoreMetrics,
};
use tagspin_core::server::{LocalizationServer, ServerError};
use tagspin_core::session::quarantine::{RejectCounts, RejectReason};
use tagspin_core::store::{FileStore, StoreError};
use tagspin_epc::frame::FrameDecoder;
use tagspin_epc::{InventoryLog, TagReport};

/// How long blocking reads and accepts wait before re-checking the stop
/// flag. Lifecycle latency only; no data path waits on this.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// A point-in-time accounting summary of the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Reader TCP connections accepted.
    pub connections: u64,
    /// Wire frames decoded into report batches.
    pub frames: u64,
    /// Frames rejected with a typed protocol error.
    pub frame_errors: u64,
    /// Reports enqueued onto shard queues.
    pub reports_enqueued: u64,
    /// Reports shed at full shard queues.
    pub reports_shed: u64,
    /// Report batches queued but not yet ingested, across all shards.
    pub queued_batches: u64,
    /// Serve-tier reject books (today: only `Overload` sheds; per-report
    /// ingest screening stays inside each shard's sessions).
    pub rejects: RejectCounts,
    /// Orientation calibrations persisted to the calibration store at
    /// boot (`store.orientation.persisted`). Zero when no store is
    /// configured.
    pub store_persisted: u64,
    /// Store records rejected as corrupt or stale at warm boot
    /// (`store.invalid`); each such tag booted uncalibrated.
    pub store_invalid: u64,
}

/// Why a fix query failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FixQueryError {
    /// The owning shard's typed `ServerError`, equal to a single-process
    /// run's error; its display text is the HTTP plane's `409` body.
    Localization(ServerError),
    /// The shard worker is gone; the daemon is shutting down.
    ShardGone,
}

impl std::fmt::Display for FixQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FixQueryError::Localization(e) => std::fmt::Display::fmt(e, f),
            FixQueryError::ShardGone => f.write_str("shard worker is gone"),
        }
    }
}

impl std::error::Error for FixQueryError {}

impl ServeStats {
    /// Render as a small JSON object (the `GET /stats` body).
    ///
    /// `store_table_hits` is a constant 0: steering tables are no longer
    /// stored, but perfbench reads the key and fails a run on a missing
    /// one, so it stays until perfbench stops reading it.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"connections\": {}, \"frames\": {}, \"frame_errors\": {}, \
             \"reports_enqueued\": {}, \"reports_shed\": {}, \"queued_batches\": {}, \
             \"rejected_overload\": {}, \"store_table_hits\": 0, \
             \"store_persisted\": {}, \"store_invalid\": {}}}",
            self.connections,
            self.frames,
            self.frame_errors,
            self.reports_enqueued,
            self.reports_shed,
            self.queued_batches,
            self.rejects.overload,
            self.store_persisted,
            self.store_invalid,
        )
    }
}

/// State shared by the acceptor, reader threads and the HTTP plane.
pub(crate) struct Shared {
    pub(crate) senders: Vec<Sender<ShardCmd>>,
    pub(crate) depths: Vec<ShardDepth>,
    pub(crate) metrics: ServeMetrics,
    pub(crate) obs: ObsHandle,
    pub(crate) registry: Arc<MetricsRegistry>,
    pub(crate) rejects: Mutex<RejectCounts>,
    pub(crate) stop: AtomicBool,
    pub(crate) max_frame_len: usize,
    /// Registered `store.*` counter handles (always present, so a
    /// store-less daemon still exports the inventory at zero). `/stats`
    /// reads its store figures from these same handles.
    pub(crate) store_metrics: StoreMetrics,
}

impl Shared {
    pub(crate) fn stopping(&self) -> bool {
        // ordering: relaxed — lifecycle flag polled in loops; no data is published through it
        self.stop.load(Ordering::Relaxed)
    }

    /// The accounting summary (counter reads are relaxed snapshots).
    pub(crate) fn stats(&self) -> ServeStats {
        ServeStats {
            connections: self.metrics.connections.get(),
            frames: self.metrics.frames.get(),
            frame_errors: self.metrics.frame_errors.get(),
            reports_enqueued: self.metrics.reports_enqueued.get(),
            reports_shed: self.metrics.reports_shed.get(),
            queued_batches: self.depths.iter().map(ShardDepth::get).sum(),
            rejects: *self.rejects.lock().unwrap_or_else(PoisonError::into_inner),
            store_persisted: self.store_metrics.orientation_persisted.get(),
            store_invalid: self.store_metrics.invalid.get(),
        }
    }

    /// Answer a 2D fix from the shard owning `antenna_id`.
    pub(crate) fn fix_2d(&self, antenna_id: u8) -> Result<Fix2D, FixQueryError> {
        self.metrics.queries.inc();
        let (reply, rx) = channel::bounded(1);
        let shard = shard_of(antenna_id, self.senders.len());
        self.senders[shard]
            .send(ShardCmd::Fix2D { antenna_id, reply })
            .map_err(|_| FixQueryError::ShardGone)?;
        rx.recv().map_err(|_| FixQueryError::ShardGone)?
    }

    /// Block until every batch enqueued before this call is ingested.
    pub(crate) fn drain(&self) {
        let mut waits = Vec::with_capacity(self.senders.len());
        for tx in &self.senders {
            let (reply, rx) = channel::bounded(1);
            if tx.send(ShardCmd::Barrier { reply }).is_ok() {
                waits.push(rx);
            }
        }
        for rx in waits {
            let _ = rx.recv();
        }
    }
}

/// Route one decoded report batch: group by owning shard, enqueue each
/// group without blocking, shed whole groups on a full queue.
pub(crate) fn route_log(shared: &Shared, log: &InventoryLog) {
    let started = shared.obs.clock_start();
    let mut groups: BTreeMap<usize, Vec<TagReport>> = BTreeMap::new();
    for report in log.reports() {
        groups
            .entry(shard_of(report.antenna_id, shared.senders.len()))
            .or_default()
            .push(*report);
    }
    for (shard, batch) in groups {
        // lint:allow(lossy-cast) batch sizes are far below 2^53
        let n = batch.len() as u64;
        // Count the batch as queued *before* the send: the worker decrements
        // after processing, and a fast worker could otherwise dequeue and
        // decrement before this thread incremented (underflowing the tally).
        shared.depths[shard].inc();
        match shared.senders[shard].try_send(ShardCmd::Ingest(batch)) {
            Ok(()) => {
                shared.metrics.reports_enqueued.add(n);
            }
            Err(TrySendError::Full(cmd)) | Err(TrySendError::Disconnected(cmd)) => {
                shared.depths[shard].dec();
                let ShardCmd::Ingest(batch) = cmd else {
                    unreachable!("only ingest commands are sent here")
                };
                shared.metrics.reports_shed.add(n);
                {
                    let mut books = shared
                        .rejects
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    books.overload += n;
                }
                shared.obs.emit_batch(|| {
                    batch
                        .iter()
                        .map(|r| Event::IngestRejected {
                            epc: r.epc,
                            antenna_id: r.antenna_id,
                            reason: RejectReason::Overload,
                        })
                        .collect()
                });
            }
        }
    }
    if let Some(t0) = started {
        shared.obs.emit(|| Event::StageTime {
            stage: Stage::Route,
            nanos: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
    }
}

/// One reader connection: read bytes, decode frames, route batches.
fn handle_reader(shared: &Shared, stream: TcpStream) {
    shared.metrics.connections.inc();
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut dec = FrameDecoder::with_max_len(shared.max_frame_len);
    let mut stream = stream;
    let mut buf = [0u8; 16 * 1024];
    'conn: loop {
        if shared.stopping() {
            break;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => break,
        };
        dec.push(&buf[..n]);
        loop {
            let started = shared.obs.clock_start();
            match dec.try_report() {
                Ok(Some((log, _message_id))) => {
                    if let Some(t0) = started {
                        shared.obs.emit(|| Event::StageTime {
                            stage: Stage::Decode,
                            nanos: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        });
                    }
                    shared.metrics.frames.inc();
                    route_log(shared, &log);
                }
                Ok(None) => break,
                Err(e) => {
                    shared.metrics.frame_errors.inc();
                    if matches!(e, tagspin_epc::frame::ProtocolError::Frame(_)) {
                        // Framing corruption: no trustworthy boundary
                        // remains, drop the connection.
                        break 'conn;
                    }
                    // LLRP payload corruption cost exactly one frame;
                    // the stream is still synchronized.
                }
            }
        }
    }
    if dec.finish().is_err() {
        shared.metrics.frame_errors.inc();
    }
}

/// The ingest accept loop: one thread per reader connection.
fn run_acceptor(
    shared: Arc<Shared>,
    listener: TcpListener,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || handle_reader(&shared, stream));
                track(
                    &mut conns.lock().unwrap_or_else(PoisonError::into_inner),
                    handle,
                );
            }
            Err(_) => {
                if shared.stopping() {
                    break;
                }
            }
        }
    }
}

/// Keep `handle` for the shutdown join, first dropping every handle in
/// `handles` whose thread already finished. A finished thread that is
/// never joined or detached keeps its stack mapping, so an accept loop
/// that only joins at shutdown grows by one stack per connection.
pub(crate) fn track(handles: &mut Vec<JoinHandle<()>>, handle: JoinHandle<()>) {
    handles.retain(|h| !h.is_finished());
    handles.push(handle);
}

/// A running daemon. Dropping the handle without [`ServeDaemon::shutdown`]
/// leaks the worker threads (they exit with the process); tests and the
/// CLI should shut down explicitly.
pub struct ServeDaemon {
    ingest_addr: SocketAddr,
    http_addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    acceptors: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServeDaemon {
    /// Boot the daemon: bind both listeners, spawn the shard workers,
    /// the ingest acceptor and the HTTP plane.
    ///
    /// # Errors
    ///
    /// Address bind failures from either listener.
    pub fn start(server: LocalizationServer, config: &ServeConfig) -> io::Result<ServeDaemon> {
        let ingest_listener = TcpListener::bind(&config.listen)?;
        let http_listener = TcpListener::bind(&config.http)?;
        let ingest_addr = ingest_listener.local_addr()?;
        let http_addr = http_listener.local_addr()?;

        let registry = Arc::new(MetricsRegistry::new());
        let observer = Arc::new(MetricsObserver::new(Arc::clone(&registry)));
        let metrics = ServeMetrics::new(Arc::clone(&registry));

        let mut server = server;
        server.set_observer(observer.clone());

        // Calibration store: always register the `store.*` inventory (a
        // store-less daemon exports it at zero), and when a directory is
        // configured, warm-boot from it before any shard exists.
        let store_metrics = StoreMetrics::new(&registry);
        if let Some(dir) = &config.store_dir {
            let store = FileStore::open(dir).map_err(|e| match e {
                StoreError::Io(io) => io,
                other => io::Error::other(other.to_string()),
            })?;
            // Orientation calibrations flow both ways at boot: tags
            // registered *with* a calibration persist it; tags without one
            // adopt the stored fit. A bad record is counted and skipped —
            // the tag simply boots uncalibrated, exactly as without a store.
            for tag in server.tags().to_vec() {
                match &tag.orientation {
                    Some(cal) => {
                        if store.save_orientation(tag.epc, cal).is_ok() {
                            store_metrics.orientation_persisted.inc();
                        }
                    }
                    None => match store.load_orientation(tag.epc) {
                        Ok(cal) => {
                            let _ = server.set_orientation_calibration(tag.epc, cal);
                            store_metrics.orientation_hits.inc();
                        }
                        Err(StoreError::NotFound) => {}
                        Err(_) => store_metrics.invalid.inc(),
                    },
                }
            }
        }

        let shards = config.shards.max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut depths = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = channel::bounded(config.queue_capacity.max(1));
            let depth = ShardDepth::new(metrics.shard_queue_depth(shard));
            let mut manager = server.session_manager(config.window);
            manager.set_observer(observer.clone());
            senders.push(tx);
            depths.push(depth.clone());
            let delay = config.shard_delay;
            workers.push(std::thread::spawn(move || {
                run_worker(manager, rx, depth, delay);
            }));
        }

        let shared = Arc::new(Shared {
            senders,
            depths,
            metrics,
            obs: ObsHandle::new(observer),
            registry,
            rejects: Mutex::new(RejectCounts::default()),
            stop: AtomicBool::new(false),
            max_frame_len: config.max_frame_len,
            store_metrics,
        });

        let conns = Arc::new(Mutex::new(Vec::new()));
        let mut acceptors = Vec::with_capacity(2);
        {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            acceptors.push(std::thread::spawn(move || {
                run_acceptor(shared, ingest_listener, conns);
            }));
        }
        {
            let shared = Arc::clone(&shared);
            acceptors.push(std::thread::spawn(move || {
                crate::http::run_http(&shared, &http_listener);
            }));
        }

        Ok(ServeDaemon {
            ingest_addr,
            http_addr,
            shared,
            workers,
            acceptors,
            conns,
        })
    }

    /// The bound reader-ingest address.
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// The bound HTTP query/metrics address.
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// The daemon's metrics registry (shared with the observer layer).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.registry
    }

    /// A point-in-time accounting summary.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Answer a 2D fix from the shard owning `antenna_id`.
    ///
    /// # Errors
    ///
    /// [`FixQueryError::Localization`] with the shard's `ServerError`, or
    /// [`FixQueryError::ShardGone`] if the worker is gone.
    pub fn fix_2d(&self, antenna_id: u8) -> Result<Fix2D, FixQueryError> {
        self.shared.fix_2d(antenna_id)
    }

    /// Block until every batch enqueued before this call is ingested.
    pub fn drain(&self) {
        self.shared.drain();
    }

    /// Stop accepting, drain every queue, join every thread.
    pub fn shutdown(self) {
        // ordering: relaxed — lifecycle flag; the wake-up connections and joins below synchronize
        self.shared.stop.store(true, Ordering::Relaxed);
        // Wake acceptors blocked in accept().
        let _ = TcpStream::connect(self.ingest_addr);
        let _ = TcpStream::connect(self.http_addr);
        for handle in self.acceptors {
            let _ = handle.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in conns {
            let _ = handle.join();
        }
        // Workers finish their queues, then exit on the shutdown command.
        for tx in &self.shared.senders {
            let _ = tx.send(ShardCmd::Shutdown);
        }
        for handle in self.workers {
            let _ = handle.join();
        }
    }
}
