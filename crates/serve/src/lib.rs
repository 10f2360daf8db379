//! `tagspin-serve`: the long-running multi-reader fleet daemon.
//!
//! The paper calibrates one antenna from one rig; a production fleet is
//! hundreds of readers streaming LLRP reports concurrently into a
//! service that answers fix queries online. This crate is that service,
//! built on the offline dependency set (`std::net` + threads + the
//! vendored `crossbeam` channels — no async runtime):
//!
//! * **Ingest plane** — readers connect over TCP and write
//!   length-prefixed LLRP-subset report frames
//!   ([`tagspin_epc::frame`]). An acceptor thread hands each connection
//!   to a reader thread that decodes frames incrementally and routes
//!   report batches to shards.
//! * **Shards** — each shard is one thread owning one
//!   [`tagspin_core::session::SessionManager`]; routing (antenna id
//!   modulo shard count) pins every antenna to exactly one shard, so
//!   per-antenna report order is preserved end-to-end and fix answers
//!   stay bit-identical to a single-process run over the same streams.
//!   Shards share the server's tag registry and steering-table cache (a
//!   perf-only sharing; outputs are unaffected).
//! * **Backpressure** — shard queues are bounded crossbeam channels.
//!   A full queue sheds the incoming batch as typed
//!   [`tagspin_core::session::quarantine::RejectReason::Overload`]
//!   rejects: counted in the daemon's
//!   [`tagspin_core::session::quarantine::RejectCounts`], surfaced as
//!   `serve.reports.shed` / `ingest.rejected.overload` metrics, never a
//!   block and never a silent drop.
//! * **Query plane** — a minimal HTTP/1.1 endpoint serves
//!   `GET /fix/2d?antenna=N` (answered by the owning shard),
//!   `GET /metrics` (`tagspin-metrics/v1` JSON), `GET /stats`,
//!   `GET /drain` (barrier: returns once every queued batch is
//!   ingested) and `GET /healthz`.
//!
//! Instrumentation rides the existing observer layer: `serve.*`
//! counters, per-shard `serve.shard_queue_depth.<n>` gauges, and
//! `Stage::Decode` / `Stage::Route` timings, all in the L8-checked
//! inventory. See `docs/SERVE.md` for the architecture write-up.

pub mod client;
mod daemon;
mod http;
pub(crate) mod router;
pub(crate) mod shard;

pub use client::{http_get, ReaderClient};
pub use daemon::{FixQueryError, ServeDaemon, ServeStats};

use std::time::Duration;
use tagspin_core::session::window::WindowConfig;
use tagspin_epc::frame::DEFAULT_MAX_FRAME_LEN;

/// Daemon configuration: listeners, shard topology, queue bounds.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Ingest (reader TCP) listen address; port 0 picks a free port.
    pub listen: String,
    /// HTTP query/metrics listen address; port 0 picks a free port.
    pub http: String,
    /// Shard worker threads; each owns one `SessionManager`.
    pub shards: usize,
    /// Bounded capacity of each shard queue, in report batches. A full
    /// queue sheds new batches as `Overload` rejects.
    pub queue_capacity: usize,
    /// Maximum accepted wire frame payload, bytes.
    pub max_frame_len: usize,
    /// Sliding-window config for every shard's sessions.
    pub window: WindowConfig,
    /// Artificial per-batch ingest delay in the shard workers. A bench /
    /// test knob for forcing overload deterministically; `None` (the
    /// default and the only sensible production setting) ingests at full
    /// speed.
    pub shard_delay: Option<Duration>,
    /// Calibration-store directory for warm boots. `Some(dir)` opens (or
    /// creates) a [`tagspin_core::store::FileStore`] there: persisted
    /// orientation calibrations are loaded for registered tags, steering
    /// tables are prewarmed from disk, and fresh builds are persisted
    /// back. `None` (the default) computes everything fresh. A corrupt
    /// store never changes a fix — bad records are counted
    /// (`store.invalid`) and recomputed.
    pub store_dir: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            http: "127.0.0.1:0".to_string(),
            shards: 4,
            queue_capacity: 256,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            window: WindowConfig::unbounded(),
            shard_delay: None,
            store_dir: None,
        }
    }
}
