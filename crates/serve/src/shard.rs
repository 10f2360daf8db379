//! Shard workers: one thread, one `SessionManager`, one FIFO queue.
//!
//! All pipeline state lives *inside* the worker thread — no locks guard
//! the session math, so ingest and fixes run exactly the single-process
//! code path. The bounded queue in front of each worker is the
//! backpressure boundary: the routing side sheds (it never blocks reader
//! connections on a slow shard), while query commands use blocking sends
//! (a fix request should wait its turn, not vanish under load).

use crate::daemon::FixQueryError;
use crossbeam::channel::{Receiver, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tagspin_core::locate::plane::Fix2D;
use tagspin_core::obs::Gauge;
use tagspin_core::session::SessionManager;
use tagspin_epc::TagReport;

/// One command on a shard queue.
pub(crate) enum ShardCmd {
    /// Ingest a batch of reports (all owned by this shard's antennas).
    Ingest(Vec<TagReport>),
    /// Answer a 2D fix for one antenna on the reply channel.
    Fix2D {
        /// The antenna to fix.
        antenna_id: u8,
        /// Reply channel (capacity 1); errors carry the shard's
        /// `ServerError`.
        reply: Sender<Result<Fix2D, FixQueryError>>,
    },
    /// Reply once every command enqueued before this one has been
    /// processed — the drain barrier.
    Barrier {
        /// Reply channel (capacity 1).
        reply: Sender<()>,
    },
    /// Finish everything already queued, then exit the worker loop.
    Shutdown,
}

/// The queue-depth instruments shared between the routing side (inc on
/// enqueue) and the worker (dec on dequeue).
#[derive(Debug, Clone)]
pub(crate) struct ShardDepth {
    /// Queued ingest batches.
    depth: Arc<AtomicU64>,
    /// The `serve.shard_queue_depth.<n>` gauge mirroring `depth`.
    gauge: Gauge,
}

impl ShardDepth {
    pub(crate) fn new(gauge: Gauge) -> Self {
        ShardDepth {
            depth: Arc::new(AtomicU64::new(0)),
            gauge,
        }
    }

    /// Record one batch enqueued. The depth is a monitoring tally
    /// mirrored into a gauge, never used for synchronization; the
    /// channel itself orders the hand-off.
    pub(crate) fn inc(&self) {
        // ordering: relaxed — monitoring tally only; the channel orders the hand-off
        let now = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        // lint:allow(lossy-cast) queue depths are far below 2^53
        self.gauge.set(now as f64);
    }

    /// Record one batch dequeued and processed.
    pub(crate) fn dec(&self) {
        // ordering: Relaxed — monitoring tally only (see `inc`).
        let now = self.depth.fetch_sub(1, Ordering::Relaxed) - 1;
        // lint:allow(lossy-cast) queue depths are far below 2^53
        self.gauge.set(now as f64);
    }

    /// Queued batches right now (approximate under concurrency).
    pub(crate) fn get(&self) -> u64 {
        // ordering: Relaxed — monitoring tally only (see `inc`).
        self.depth.load(Ordering::Relaxed)
    }
}

/// The worker loop: drain the queue until every sender is gone.
pub(crate) fn run_worker(
    mut manager: SessionManager,
    rx: Receiver<ShardCmd>,
    depth: ShardDepth,
    delay: Option<Duration>,
) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            ShardCmd::Ingest(batch) => {
                if let Some(pace) = delay {
                    std::thread::sleep(pace);
                }
                manager.ingest_batch(&batch);
                depth.dec();
            }
            ShardCmd::Fix2D { antenna_id, reply } => {
                let fix = manager
                    .fix_2d(antenna_id)
                    .map_err(FixQueryError::Localization);
                // A vanished requester is its own problem, not the shard's.
                let _ = reply.try_send(fix);
            }
            ShardCmd::Barrier { reply } => {
                let _ = reply.try_send(());
            }
            ShardCmd::Shutdown => break,
        }
    }
}
