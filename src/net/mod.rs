//! `afp::net` — the async, networked service tier.
//!
//! [`crate::Service`] gives one process concurrent serving: lock-free
//! readers over pinned snapshots, and a single writer session whose
//! write cycles publish versions. But its write API is *blocking and
//! caller-driven* — each call runs a cycle of its own on the submitting
//! thread — and the only front end is a single-client stdin protocol.
//! This module adds the three layers that turn it into a production
//! service:
//!
//! 1. **The one write queue** ([`AsyncService`], `writer.rs`):
//!    submissions enqueue onto a bounded queue and return a
//!    [`SubmitHandle`] immediately — a small futures-free promise that
//!    can be [`SubmitHandle::wait`]ed, polled
//!    ([`SubmitHandle::try_result`]) or waited with a timeout. One
//!    dedicated writer thread drains the queue in batches (the whole
//!    queue per cycle) and runs the `Service` write cycle on each, so
//!    concurrent submissions **coalesce** into shared cycles and the
//!    solve is paid per cycle, not per submission. This is the only
//!    code that queues or coalesces writes. No async runtime is
//!    involved; the blocking bridge is a mutex/condvar pair per
//!    submission.
//!
//! 2. **Admission control and backpressure**: the queue depth is
//!    bounded ([`AsyncOptions::queue_depth`]) and a full queue rejects
//!    with [`crate::Error::Overloaded`] *immediately* — submission
//!    never blocks on a saturated writer. Per-submission deadlines
//!    ([`AsyncOptions::submit_deadline`],
//!    [`AsyncService::submit_with_deadline`]) expire stale queue
//!    entries with [`crate::Error::SubmitTimeout`] before any work is
//!    spent on them. [`AsyncService::shutdown`] is deterministic:
//!    [`Shutdown::Drain`] runs every queued cycle to completion,
//!    [`Shutdown::Abort`] fails everything still queued with
//!    [`crate::Error::ServiceStopped`] — either way **every waiter
//!    receives a terminal result**, and a panicking cycle fails its
//!    waiters with [`crate::Error::WriterAborted`] instead of
//!    stranding them.
//!
//! 3. **A length-prefixed transport** ([`NetServer`], `server.rs`) over
//!    TCP and unix sockets, fronting the same command protocol the
//!    stdin `--serve` mode speaks: each frame is a 4-byte big-endian
//!    length followed by one UTF-8 command line (requests) or one JSON
//!    object (responses). One thread per connection reads over pinned
//!    [`crate::ModelSnapshot`]s lock-free; writes funnel through the
//!    shared [`AsyncService`] queue, so N connections share one writer
//!    and coalesce exactly like in-process queue submitters.
//!    Connection limits and read/write timeouts bound resource use.
//!
//! The command parsing/serialization both front ends share lives in
//! [`codec`] — one grammar, one response shape, one error shape, and
//! one stats serializer ([`codec::stats_json`]) so the `--stats` JSON
//! and plain outputs cannot drift.
//!
//! ```
//! use afp::{AsyncOptions, AsyncService, DeltaKind, Engine, Shutdown, Truth};
//!
//! let service = Engine::default()
//!     .serve("wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).")
//!     .unwrap();
//! let tier = AsyncService::new(service.clone(), AsyncOptions::default());
//!
//! // Async submission: enqueue, then wait (or poll) the handle.
//! let handle = tier.submit(DeltaKind::AssertFacts, "move(c, d).").unwrap();
//! let version = handle.wait().unwrap();
//! assert_eq!(version, 1);
//! assert_eq!(service.snapshot().truth("wins", &["c"]), Truth::True);
//!
//! tier.shutdown(Shutdown::Drain);
//! ```

pub mod codec;
pub mod server;
pub mod writer;

pub use server::{NetOptions, NetServer};
pub use writer::{AsyncOptions, AsyncService, Shutdown, SubmitHandle};

/// Counters for the networked tier, merged across the writer queue
/// ([`AsyncService`]) and the transport ([`NetServer`]); surfaced
/// through the `stats` protocol command and CLI `--stats` via
/// [`codec::stats_json`]. Connection fields stay zero for an
/// [`AsyncService`] used without a transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Submissions accepted into the write queue.
    pub submitted: u64,
    /// Submissions whose cycle completed (successfully or not).
    pub completed: u64,
    /// Submissions refused at admission because the queue was full
    /// ([`crate::Error::Overloaded`]).
    pub overloaded: u64,
    /// Queued submissions expired by their deadline before their cycle
    /// ran ([`crate::Error::SubmitTimeout`]).
    pub timed_out: u64,
    /// Submissions failed by shutdown ([`crate::Error::ServiceStopped`])
    /// or a writer panic ([`crate::Error::WriterAborted`]).
    pub aborted: u64,
    /// Current queue depth (instantaneous).
    pub queue_depth: u64,
    /// High-water mark of the queue depth since start.
    pub queue_depth_hwm: u64,
    /// Submissions in the most recent write cycle — the wrapped
    /// service's [`crate::ServiceStats::last_cycle_width`].
    pub last_cycle_width: u64,
    /// Largest write-cycle batch so far — the wrapped service's
    /// [`crate::ServiceStats::max_cycle_width`].
    pub max_cycle_width: u64,
    /// p50 of submit→completion latency over the recent-write window,
    /// in microseconds (0 until the first completion).
    pub write_p50_us: u64,
    /// p99 of submit→completion latency over the recent-write window,
    /// in microseconds.
    pub write_p99_us: u64,
    /// Connections accepted by the transport.
    pub conns_accepted: u64,
    /// Connections refused at the connection limit.
    pub conns_rejected: u64,
    /// Connections currently open.
    pub conns_open: u64,
    /// Request frames read off all connections.
    pub frames_in: u64,
    /// Response frames written to all connections.
    pub frames_out: u64,
}

crate::telemetry::stat_set!(NetStats {
    submitted,
    completed,
    overloaded,
    timed_out,
    aborted,
    queue_depth,
    queue_depth_hwm,
    last_cycle_width,
    max_cycle_width,
    write_p50_us,
    write_p99_us,
    conns_accepted,
    conns_rejected,
    conns_open,
    frames_in,
    frames_out,
});
