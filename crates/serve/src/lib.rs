//! # cimon-serve — a crash-safe, back-pressured simulation service
//!
//! The experiment engine (`cimon-sim`) answers one question per call;
//! this crate turns it into a long-running daemon that answers a
//! *stream* of questions without wedging, lying, or losing finished
//! work. Requests — workload × hash × IHT configuration, or a whole
//! fault campaign — arrive as line-delimited flat JSON over TCP
//! ([`net`]) or in process ([`Server::call`]), and are scheduled onto
//! worker threads that reuse the engine's [`cimon_sim::Artifact`]
//! caches across requests (one assembly, one FHT per (algo, seed), one
//! predecode per workload, for the lifetime of the process).
//!
//! The robustness contract, piece by piece:
//!
//! * **Bounded admission** — the queue holds at most
//!   [`ServeConfig::queue_capacity`] requests. A full queue sheds load
//!   with a typed [`cimon_core::SimError::Overloaded`] rejection that
//!   names the queue depth, instead of growing without bound or
//!   silently stalling the client.
//! * **Per-request deadlines** — `deadline_ms` flows into the
//!   processor's wall-clock watchdog
//!   ([`cimon_sim::SimConfig::max_wall`]), so a pathologically slow
//!   simulation comes back as a `timed-out` row while the worker moves
//!   on to the next request.
//! * **Retry with backoff** — transient failures
//!   ([`cimon_core::SimError::is_transient`]: worker panics, corrupt
//!   snapshots, I/O) are retried once after an exponential backoff;
//!   deterministic failures (`InvalidConfig`) are never retried.
//! * **Durable journaling** — every finished result is appended to a
//!   write-ahead JSONL journal ([`journal`]) with a per-record CRC and
//!   flushed before the response is sent. A killed and restarted
//!   server replays the journal (dropping a torn tail and any
//!   bit-flipped records) and serves completed work from it instead of
//!   re-simulating. Campaigns journal chunk by chunk, and sweeps
//!   journal *row by row* under an incremental CRC chain, so even a
//!   partially finished request resumes exactly where it stopped.
//! * **Streaming, resumable sweeps** — a `sweep` request streams one
//!   row frame per finished grid point through a *bounded* buffer
//!   ([`ServeConfig::stream_buffer`]); a consumer that stops reading
//!   sheds the stream (typed, counted) while the rows keep landing in
//!   the journal, and a cut client reconnects with a
//!   [`protocol::ResumeFrom`] cursor to receive only what it missed
//!   ([`client::Client::sweep`] automates this).
//! * **Graceful drain** — [`Server::drain`] stops admitting, lets
//!   in-flight work finish, flushes the journal, and reports what was
//!   completed and what was dropped.
//!
//! `CIMON_CHAOS=1` extends the self-chaos harness into this layer:
//! requests are corrupted at ingest, journal records are bit-flipped
//! before hitting disk, and workers panic mid-request — and the
//! integration suite proves a chaos-killed-and-restarted server
//! produces the same result set as an uninterrupted one (see
//! `docs/serve.md`).

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::time::Duration;

pub mod backoff;
pub mod client;
pub mod journal;
pub mod net;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientConfig};
pub use journal::{Journal, Record, Replay};
pub use protocol::{CampaignSpec, Request, RequestBody, Response, ResumeFrom, RunSpec, SweepSpec};
pub use server::{DrainReport, MetricsSnapshot, Server};

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bounded admission queue depth; a request arriving when the
    /// queue holds this many is rejected with
    /// [`cimon_core::SimError::Overloaded`].
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Engine pool width each campaign chunk runs with.
    pub engine_workers: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Plans per journaled campaign chunk — the granularity at which a
    /// killed campaign resumes.
    pub campaign_chunk: usize,
    /// Base backoff before the retry of a transient failure (the
    /// second attempt waits twice this, were more retries configured).
    pub retry_backoff: Duration,
    /// Seed mixed with the request key for the retry backoff's
    /// deterministic jitter ([`backoff::jittered`]).
    pub retry_jitter_seed: u64,
    /// Journal size past which a compacting rotation runs. After a
    /// rotation the file must also reach twice its compacted size, so
    /// a live set above this limit is not rewritten on every append.
    pub journal_rotate_bytes: u64,
    /// Bounded per-stream response buffer, in frames: how far a sweep
    /// may run ahead of a slow consumer before back-pressure stalls the
    /// worker.
    pub stream_buffer: usize,
    /// How long a stream send may stay stalled on a full buffer before
    /// the stream is shed (the work continues and journals; only the
    /// delivery stops).
    pub stream_stall: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 16,
            workers: 2,
            engine_workers: cimon_sim::engine::default_workers(),
            default_deadline: None,
            campaign_chunk: 25,
            retry_backoff: Duration::from_millis(10),
            retry_jitter_seed: 0x005E_ED0F_5E4E,
            journal_rotate_bytes: 4 << 20,
            stream_buffer: 8,
            stream_stall: Duration::from_millis(500),
        }
    }
}
