//! Thread-per-shard parallel execution engine for the CM.
//!
//! [`crate::api::CongestionManager`] drives every shard from the calling
//! thread; this module runs the same shards on worker threads instead.
//! The design (docs/architecture.md "Parallel execution"):
//!
//! * **One engine, dealt out.** Routing and the shard table are the
//!   same `crate::engine` pieces the in-process CM is built from: the
//!   front keeps the `Router`, each worker owns the slice of the
//!   `ShardTable` holding the shards with `index % workers == worker`.
//! * **Ownership, not locking.** Each `Shard` is owned by exactly one
//!   worker thread, which applies commands to it in FIFO order. No
//!   shard state is ever shared, so the per-packet path takes no locks
//!   — the only synchronisation is the bounded SPSC rings in
//!   [`crate::ring`] (one command ring in, one reply ring out, per
//!   worker).
//! * **Flat messages.** [`ShardRuntime`]'s front translates each API
//!   call into one `Copy` `ShardCommand` and routes it by the shard
//!   index carried in every flow id (see [`crate::types`]). Grant and
//!   rate-change notifications come back as `Copy` `ShardReply`
//!   messages. Nothing is allocated per message.
//! * **Fire-and-forget per-packet path.** `request` / `notify` /
//!   `update` / `close` return immediately once the command is
//!   enqueued; errors surface asynchronously through
//!   [`ShardRuntime::op_failures`]. Lookup-style calls (`open`, `query`,
//!   `macroflow_of`) and cross-shard operations (`tick`, `stats`,
//!   `check_invariants`) are synchronous fan-out/fan-in
//!   sequences matched by sequence number.
//! * **Workers never block.** A worker pushes replies with
//!   push-or-spill (bounded ring first, a worker-local overflow queue
//!   under backpressure, counted in
//!   [`crate::api::CmStats::ring_stalls`]), so it can always continue
//!   draining its command ring; the front may therefore park on a full
//!   command ring without deadlock.
//!
//! Determinism: the front is single-threaded and routing is pure, so
//! each shard observes a deterministic command sequence regardless of
//! the worker count — per-shard state, grants, and counters are
//! identical at 1, 2, 4, or 8 workers (`tests/parallel_stress.rs` pins
//! this). Wall-clock interleaving *across* shards is the only
//! nondeterminism, and shards share no congestion state.
//!
//! The in-process paths are untouched: `ShardingMode::Single` and
//! single-threaded `ByGroup` behave byte-identically with or without
//! this module (pinned by `tests/single_mode_golden.rs`).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration as StdDuration, Instant};

use cm_util::Time;

use crate::api::{CmNotification, CmStats, CongestionManager};
use crate::config::CmConfig;
use crate::engine::{Router, ShardTable};
use crate::error::CmError;
use crate::ring::{ring, Pop, Push, RingConsumer, RingProducer};
use crate::shard::Shard;
use crate::types::{FeedbackReport, FlowId, FlowInfo, FlowKey, MacroflowId};

type CmResult<T> = Result<T, CmError>;

/// Default per-worker ring capacity (commands and replies alike).
const DEFAULT_RING_CAPACITY: usize = 4096;

/// How long a synchronous call waits for a worker before concluding the
/// runtime is wedged and panicking (a hang would otherwise be silent).
const SYNC_TIMEOUT: StdDuration = StdDuration::from_secs(60);

/// Tuning for [`ShardRuntime`].
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Worker threads to spawn. Shard `s` is pinned to worker
    /// `s % workers` for the runtime's lifetime.
    pub workers: usize,
    /// Capacity of each worker's command ring and reply ring, in
    /// messages. Preallocated once; a full ring is backpressure
    /// (counted in [`crate::api::CmStats::ring_stalls`]), never growth.
    pub ring_capacity: usize,
}

impl ParallelConfig {
    /// A config with `workers` threads and the default ring capacity.
    pub fn with_workers(workers: usize) -> Self {
        ParallelConfig {
            workers: workers.max(1),
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

/// One command to the worker owning a shard. Every variant is `Copy`
/// and flat: the ring slot is the only storage a message ever occupies.
#[derive(Clone, Copy, Debug)]
enum ShardCommand {
    Open {
        seq: u32,
        shard: u32,
        key: FlowKey,
        now: Time,
    },
    Close {
        flow: FlowId,
        now: Time,
    },
    Request {
        flow: FlowId,
        now: Time,
    },
    Notify {
        flow: FlowId,
        bytes: u64,
        now: Time,
    },
    Update {
        flow: FlowId,
        report: FeedbackReport,
        now: Time,
    },
    Query {
        seq: u32,
        flow: FlowId,
        now: Time,
    },
    MacroflowOf {
        seq: u32,
        flow: FlowId,
    },
    Tick {
        seq: u32,
        now: Time,
    },
    Stats {
        seq: u32,
    },
    CheckInvariants {
        seq: u32,
    },
    Shutdown,
}

/// One message from a worker back to the front. Also flat `Copy`.
#[derive(Clone, Copy, Debug)]
enum ShardReply {
    Opened {
        seq: u32,
        result: CmResult<FlowId>,
    },
    Info {
        seq: u32,
        result: CmResult<FlowInfo>,
    },
    Macroflow {
        seq: u32,
        result: CmResult<MacroflowId>,
    },
    /// A deferred client callback from a shard outbox (grant or
    /// rate-change), forwarded in shard-FIFO order.
    Note(CmNotification),
    /// A fire-and-forget command failed; surfaced through
    /// [`ShardRuntime::op_failures`].
    OpFailed(CmError),
    TickDone {
        seq: u32,
    },
    Stats {
        seq: u32,
        stats: CmStats,
        /// Reply pushes that found the reply ring full and spilled.
        reply_stalls: u64,
    },
    Invariants {
        seq: u32,
        ok: bool,
    },
}

/// The sequence number a sync reply answers, if any.
fn reply_seq(r: &ShardReply) -> Option<u32> {
    match r {
        ShardReply::Opened { seq, .. }
        | ShardReply::Info { seq, .. }
        | ShardReply::Macroflow { seq, .. }
        | ShardReply::TickDone { seq }
        | ShardReply::Stats { seq, .. }
        | ShardReply::Invariants { seq, .. } => Some(*seq),
        ShardReply::Note(_) | ShardReply::OpFailed(_) => None,
    }
}

/// Cold-path side channel shared between front and workers. Everything
/// here is off the per-packet path (invariant failure text), where a
/// lock is acceptable and keeps the hot rings flat.
#[derive(Default)]
struct Shared {
    /// Invariant-violation descriptions from `CheckInvariants`.
    invariant_errors: Mutex<Vec<String>>,
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The worker side of the reply ring: push-or-spill, so the worker
/// never blocks. Spilled replies keep FIFO order — new replies queue
/// behind the spill until it drains back into the ring.
struct ReplyPort {
    ring: RingProducer<ShardReply>,
    spill: VecDeque<ShardReply>,
}

impl ReplyPort {
    fn push(&mut self, reply: ShardReply) {
        if self.spill.is_empty() {
            match self.ring.try_push(reply) {
                Push::Ok | Push::Closed => {}
                Push::Full => self.spill.push_back(reply),
            }
        } else {
            // FIFO order: new replies queue behind the spill until it drains.
            self.spill.push_back(reply);
        }
    }

    /// Moves spilled replies back into the ring while it has room.
    fn flush(&mut self) {
        while let Some(&front) = self.spill.front() {
            match self.ring.try_push(front) {
                Push::Ok => {
                    self.spill.pop_front();
                }
                Push::Full => break,
                Push::Closed => {
                    self.spill.clear();
                    break;
                }
            }
        }
    }

    fn stalls(&self) -> u64 {
        self.ring.stalls()
    }
}

/// A worker thread: owns every shard with `index % workers == self`,
/// drains its command ring in FIFO order, and forwards shard-outbox
/// notifications over the reply ring.
struct Worker {
    cmds: RingConsumer<ShardCommand>,
    replies: ReplyPort,
    /// This worker's deal of the shard table: dense by *global* shard
    /// index; entries this worker does not own stay vacant forever.
    table: ShardTable,
    shared: Arc<Shared>,
}

impl Worker {
    fn run(mut self) {
        let idle = StdDuration::from_millis(1);
        loop {
            self.replies.flush();
            let cmd = if self.replies.spill.is_empty() {
                // Nothing owed to the front: park until work arrives.
                match self.cmds.pop_timeout(idle) {
                    Pop::Item(c) => c,
                    Pop::Empty => continue,
                    Pop::Closed => return,
                }
            } else {
                // Replies are spilled: keep retrying the flush between
                // commands instead of parking on an empty command ring.
                match self.cmds.try_pop() {
                    Pop::Item(c) => c,
                    Pop::Empty => {
                        thread::yield_now();
                        continue;
                    }
                    Pop::Closed => return,
                }
            };
            if !self.handle(cmd) {
                return;
            }
        }
    }

    /// Applies one command. Returns `false` on `Shutdown`.
    fn handle(&mut self, cmd: ShardCommand) -> bool {
        match cmd {
            // The shard is created on its first `Open` — the command
            // every other reference to it is FIFO-ordered behind, since
            // flow ids only exist once an `Opened` reply came back.
            ShardCommand::Open {
                seq,
                shard,
                key,
                now,
            } => {
                let s = self.table.ensure(shard, now);
                let result = s.open(key, now);
                Self::flush_outbox(s, &mut self.replies);
                self.replies.push(ShardReply::Opened { seq, result });
            }
            ShardCommand::Close { flow, now } => self.flow_op(flow, |s| s.close(flow, now)),
            ShardCommand::Request { flow, now } => self.flow_op(flow, |s| s.request(flow, now)),
            ShardCommand::Notify { flow, bytes, now } => {
                self.flow_op(flow, |s| s.notify(flow, bytes, now))
            }
            ShardCommand::Update { flow, report, now } => {
                self.flow_op(flow, |s| s.update(flow, report, now))
            }
            ShardCommand::Query { seq, flow, now } => {
                let result = match self.table.route(flow.shard()) {
                    Some(s) => s.query(flow, now),
                    None => Err(CmError::UnknownFlow(flow)),
                };
                self.replies.push(ShardReply::Info { seq, result });
            }
            ShardCommand::MacroflowOf { seq, flow } => {
                let result = match self.table.get(flow.shard()) {
                    Some(s) => s.macroflow_of(flow),
                    None => Err(CmError::UnknownFlow(flow)),
                };
                self.replies.push(ShardReply::Macroflow { seq, result });
            }
            ShardCommand::Tick { seq, now } => {
                self.table.tick(now);
                self.flush_all();
                self.replies.push(ShardReply::TickDone { seq });
            }
            ShardCommand::Stats { seq } => {
                self.replies.push(ShardReply::Stats {
                    seq,
                    stats: self.table.stats(),
                    reply_stalls: self.replies.stalls(),
                });
            }
            ShardCommand::CheckInvariants { seq } => {
                let check = self.table.validate();
                let ok = check.is_ok();
                if let Err(e) = check {
                    lock_ignore_poison(&self.shared.invariant_errors).push(e);
                }
                self.replies.push(ShardReply::Invariants { seq, ok });
            }
            ShardCommand::Shutdown => return false,
        }
        true
    }

    /// A fire-and-forget flow command: route, apply, forward
    /// notifications, and report any error asynchronously.
    fn flow_op(&mut self, flow: FlowId, op: impl FnOnce(&mut Shard) -> CmResult<()>) {
        let result = match self.table.route(flow.shard()) {
            Some(s) => {
                let result = op(s);
                Self::flush_outbox(s, &mut self.replies);
                result
            }
            None => Err(CmError::UnknownFlow(flow)),
        };
        if let Err(e) = result {
            self.replies.push(ShardReply::OpFailed(e));
        }
    }

    /// Forwards everything in a shard's outbox to the reply ring.
    fn flush_outbox(shard: &mut Shard, replies: &mut ReplyPort) {
        for note in shard.outbox.drain(..) {
            replies.push(ShardReply::Note(note));
        }
    }

    /// Forwards every owned shard's outbox, in shard-index order.
    fn flush_all(&mut self) {
        for shard in self.table.iter_mut() {
            Self::flush_outbox(shard, &mut self.replies);
        }
    }
}

/// The front's handle to one worker thread.
struct Lane {
    cmds: RingProducer<ShardCommand>,
    replies: RingConsumer<ShardReply>,
    join: Option<JoinHandle<()>>,
}

/// The multi-core CM front: the same API surface as
/// [`crate::api::CongestionManager`], executed by thread-per-shard
/// workers behind bounded SPSC rings. See the module docs for the
/// execution and consistency model.
pub struct ShardRuntime {
    lanes: Vec<Lane>,
    /// Group → shard-index routing; only the (serial) front touches it.
    router: Router,
    seq: u32,
    /// Notifications received from workers, in arrival order, waiting
    /// for [`ShardRuntime::drain_notifications_into`].
    notes: VecDeque<CmNotification>,
    op_failures: u64,
    last_op_failure: Option<CmError>,
    shared: Arc<Shared>,
}

impl ShardRuntime {
    /// Spawns `parallel.workers` worker threads for a fresh CM with the
    /// given configuration. Shards are created lazily, on the worker
    /// that owns them, as groups first open flows.
    pub fn new(cfg: CmConfig, parallel: ParallelConfig) -> Self {
        CongestionManager::new(cfg).into_parallel(parallel)
    }

    /// Builds the runtime from an engine's two halves: `router` stays on
    /// the front, `table` is dealt out to the workers.
    pub(crate) fn from_parts(router: Router, table: ShardTable, parallel: ParallelConfig) -> Self {
        let workers = parallel.workers.max(1);
        let capacity = parallel.ring_capacity.max(1);
        let shared = Arc::new(Shared::default());

        let mut lanes = Vec::with_capacity(workers);
        for (w, table) in table.deal(workers).into_iter().enumerate() {
            let (cmd_tx, cmd_rx) = ring::<ShardCommand>(capacity);
            let (rep_tx, rep_rx) = ring::<ShardReply>(capacity);
            let worker = Worker {
                cmds: cmd_rx,
                replies: ReplyPort {
                    ring: rep_tx,
                    spill: VecDeque::new(),
                },
                table,
                shared: Arc::clone(&shared),
            };
            #[expect(
                clippy::expect_used,
                reason = "OS thread exhaustion at construction is unrecoverable"
            )]
            let join = thread::Builder::new()
                .name(format!("cm-shard-{w}"))
                .spawn(move || worker.run())
                .expect("spawn CM shard worker");
            lanes.push(Lane {
                cmds: cmd_tx,
                replies: rep_rx,
                join: Some(join),
            });
        }

        ShardRuntime {
            lanes,
            router,
            seq: 0,
            notes: VecDeque::new(),
            op_failures: 0,
            last_op_failure: None,
            shared,
        }
    }

    /// Shard indices assigned so far (1 in single-shard mode once
    /// anything opened; assignment is front-side, so this needs no
    /// round-trip).
    pub fn shard_count(&self) -> usize {
        self.router.assigned()
    }

    fn lane_of(&self, sid: u32) -> usize {
        sid as usize % self.lanes.len()
    }

    // ------------------------------------------------------------------
    // Message plumbing
    // ------------------------------------------------------------------

    fn next_seq(&mut self) -> u32 {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    /// Enqueues a command, applying backpressure on a full ring: drain
    /// the worker's replies (so it is never the front that deadlocks a
    /// full reply ring against a full command ring) and retry. Stalls
    /// are counted by the producer and reported via `stats()`.
    fn send(&mut self, lane: usize, cmd: ShardCommand) {
        loop {
            match self.lanes[lane].cmds.try_push(cmd) {
                Push::Ok => return,
                Push::Full => {
                    self.drain_lane(lane);
                    thread::yield_now();
                }
                #[expect(
                    clippy::panic,
                    reason = "closed ring = worker panicked; propagate the crash instead of wedging the front"
                )]
                Push::Closed => panic!("cm-shard-{lane}: worker exited (command ring closed)"),
            }
        }
    }

    /// Absorbs an async reply. A sync reply is never absorbed: every
    /// sync call waits out all of its replies before the front sends
    /// another command, so none is ever outstanding here.
    fn absorb(&mut self, reply: ShardReply) {
        match reply {
            ShardReply::Note(n) => self.notes.push_back(n),
            ShardReply::OpFailed(e) => {
                self.op_failures += 1;
                self.last_op_failure = Some(e);
            }
            sync => unreachable!("sync reply outside its call: {sync:?}"),
        }
    }

    /// Non-blocking drain of one worker's reply ring.
    fn drain_lane(&mut self, lane: usize) {
        loop {
            match self.lanes[lane].replies.try_pop() {
                Pop::Item(r) => self.absorb(r),
                Pop::Empty | Pop::Closed => return,
            }
        }
    }

    /// Waits for the reply matching `want` on one lane, absorbing
    /// everything else that arrives meanwhile.
    fn wait_lane(&mut self, lane: usize, want: u32) -> ShardReply {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock watchdog for a cross-thread wait; feeds no CM decision"
        )]
        let deadline = Instant::now() + SYNC_TIMEOUT;
        loop {
            match self.lanes[lane]
                .replies
                .pop_timeout(StdDuration::from_millis(1))
            {
                Pop::Item(r) => {
                    if reply_seq(&r) == Some(want) {
                        return r;
                    }
                    self.absorb(r);
                }
                #[expect(
                    clippy::panic,
                    reason = "worker death mid-call crashes the runtime; surface it, don't return bogus data"
                )]
                Pop::Closed => panic!("cm-shard-{lane}: worker exited mid-call"),
                Pop::Empty => {
                    let dead = self.lanes[lane]
                        .join
                        .as_ref()
                        .is_some_and(JoinHandle::is_finished);
                    assert!(!dead, "cm-shard-{lane}: worker thread terminated");
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "watchdog expiry check (see above)"
                    )]
                    let now = Instant::now();
                    assert!(
                        now < deadline,
                        "cm-shard-{lane}: no reply within {SYNC_TIMEOUT:?}"
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // State management (paper §2.1.1) — the CongestionManager surface
    // ------------------------------------------------------------------

    /// Opens a flow (`cm_open`): routes it to its group's shard
    /// (assigning one on first contact) and waits for the owning
    /// worker's reply. See [`crate::api::CongestionManager::open`].
    pub fn open(&mut self, key: FlowKey, now: Time) -> CmResult<FlowId> {
        let sid = self.router.route_open(&key);
        let seq = self.next_seq();
        let lane = self.lane_of(sid);
        self.send(
            lane,
            ShardCommand::Open {
                seq,
                shard: sid,
                key,
                now,
            },
        );
        match self.wait_lane(lane, seq) {
            ShardReply::Opened { result, .. } => result,
            other => unreachable!("open answered with {other:?}"),
        }
    }

    /// Closes a flow (`cm_close`). Fire-and-forget: the command is
    /// FIFO-ordered on the owning worker; errors surface via
    /// [`ShardRuntime::op_failures`].
    pub fn close(&mut self, flow: FlowId, now: Time) {
        let lane = self.lane_of(flow.shard());
        self.send(lane, ShardCommand::Close { flow, now });
    }

    /// Requests permission to send (`cm_request`). Fire-and-forget; the
    /// grant (or its deferral) comes back as a notification.
    pub fn request(&mut self, flow: FlowId, now: Time) {
        let lane = self.lane_of(flow.shard());
        self.send(lane, ShardCommand::Request { flow, now });
    }

    /// Reports bytes handed to the network (`cm_notify`).
    /// Fire-and-forget.
    pub fn notify(&mut self, flow: FlowId, bytes: u64, now: Time) {
        let lane = self.lane_of(flow.shard());
        self.send(lane, ShardCommand::Notify { flow, bytes, now });
    }

    /// Delivers receiver feedback (`cm_update`). Fire-and-forget.
    pub fn update(&mut self, flow: FlowId, report: FeedbackReport, now: Time) {
        let lane = self.lane_of(flow.shard());
        self.send(lane, ShardCommand::Update { flow, report, now });
    }

    /// Queries a flow's state (`cm_query`). Synchronous.
    pub fn query(&mut self, flow: FlowId, now: Time) -> CmResult<FlowInfo> {
        let seq = self.next_seq();
        let lane = self.lane_of(flow.shard());
        self.send(lane, ShardCommand::Query { seq, flow, now });
        match self.wait_lane(lane, seq) {
            ShardReply::Info { result, .. } => result,
            other => unreachable!("query answered with {other:?}"),
        }
    }

    /// The macroflow a flow currently belongs to. Synchronous.
    pub fn macroflow_of(&mut self, flow: FlowId) -> CmResult<MacroflowId> {
        let seq = self.next_seq();
        let lane = self.lane_of(flow.shard());
        self.send(lane, ShardCommand::MacroflowOf { seq, flow });
        match self.wait_lane(lane, seq) {
            ShardReply::Macroflow { result, .. } => result,
            other => unreachable!("macroflow_of answered with {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Cross-shard fan-out/fan-in
    // ------------------------------------------------------------------

    /// Runs maintenance on every shard (grant reclamation, macroflow
    /// expiry, …): fan-out to all workers, fan-in on completion. A
    /// returned `tick` is therefore also a barrier: every command sent
    /// before it has been executed when it returns.
    pub fn tick(&mut self, now: Time) {
        let seq = self.next_seq();
        for lane in 0..self.lanes.len() {
            self.send(lane, ShardCommand::Tick { seq, now });
        }
        for lane in 0..self.lanes.len() {
            let r = self.wait_lane(lane, seq);
            debug_assert!(matches!(r, ShardReply::TickDone { .. }));
        }
    }

    /// A full barrier: returns once every command sent before it has
    /// been executed (implemented as a stats fan-in, discarding the
    /// result).
    pub fn sync(&mut self) {
        let _ = self.stats();
    }

    /// Lifetime counters aggregated across all shards and workers.
    ///
    /// # Consistency model
    ///
    /// * **Snapshot-per-shard, no torn reads.** Each worker folds its
    ///   shards' counters *between* commands, on its own thread — a
    ///   shard snapshot is always internally consistent.
    /// * **Ordered after prior calls.** The stats command queues FIFO
    ///   behind every command this front sent earlier, so the result
    ///   reflects at least all previously submitted work (`stats()` is
    ///   also the runtime's barrier, see [`ShardRuntime::sync`]).
    /// * **Monotone.** All counters are cumulative; successive calls
    ///   never regress.
    /// * **No global instant.** Workers snapshot at slightly different
    ///   moments; the aggregate is not a single cross-worker cut. With
    ///   a serial front this is unobservable.
    ///
    /// `ring_stalls` aggregates front-side command-ring stalls and
    /// worker-side reply-ring spills.
    pub fn stats(&mut self) -> CmStats {
        let seq = self.next_seq();
        for lane in 0..self.lanes.len() {
            self.send(lane, ShardCommand::Stats { seq });
        }
        let mut total = CmStats::default();
        let mut reply_stalls = 0u64;
        for lane in 0..self.lanes.len() {
            match self.wait_lane(lane, seq) {
                ShardReply::Stats {
                    stats,
                    reply_stalls: stalls,
                    ..
                } => {
                    total.accumulate(&stats);
                    reply_stalls += stalls;
                }
                other => unreachable!("stats answered with {other:?}"),
            }
        }
        let cmd_stalls: u64 = self.lanes.iter().map(|l| l.cmds.stalls()).sum();
        total.ring_stalls += reply_stalls + cmd_stalls;
        total
    }

    /// Validates every shard's internal invariants on its owning
    /// worker; failure descriptions come back over the cold side
    /// channel.
    pub fn check_invariants(&mut self) -> Result<(), String> {
        lock_ignore_poison(&self.shared.invariant_errors).clear();
        let seq = self.next_seq();
        for lane in 0..self.lanes.len() {
            self.send(lane, ShardCommand::CheckInvariants { seq });
        }
        let mut ok = true;
        for lane in 0..self.lanes.len() {
            match self.wait_lane(lane, seq) {
                ShardReply::Invariants { ok: lane_ok, .. } => ok &= lane_ok,
                other => unreachable!("check_invariants answered with {other:?}"),
            }
        }
        if ok {
            Ok(())
        } else {
            let errs = lock_ignore_poison(&self.shared.invariant_errors).join("; ");
            Err(errs)
        }
    }

    // ------------------------------------------------------------------
    // Notifications and async errors
    // ------------------------------------------------------------------

    /// Drains all notifications received so far into `out` (appending),
    /// allocation-free once `out` is warm. Order is preserved per shard
    /// (worker FIFO); cross-shard arrival order is scheduling-dependent
    /// and carries no semantics, exactly as in the in-process CM.
    pub fn drain_notifications_into(&mut self, out: &mut Vec<CmNotification>) {
        for lane in 0..self.lanes.len() {
            self.drain_lane(lane);
        }
        out.extend(self.notes.drain(..));
    }

    /// Fire-and-forget commands that failed so far (e.g. a `request` on
    /// an already-closed flow). The per-packet path cannot return
    /// errors synchronously without a round-trip per packet; this
    /// counter (with [`ShardRuntime::last_op_failure`]) is the
    /// asynchronous error surface.
    pub fn op_failures(&mut self) -> u64 {
        for lane in 0..self.lanes.len() {
            self.drain_lane(lane);
        }
        self.op_failures
    }

    /// The most recent asynchronous failure, if any.
    pub fn last_op_failure(&self) -> Option<CmError> {
        self.last_op_failure
    }
}

impl Drop for ShardRuntime {
    fn drop(&mut self) {
        for lane in &mut self.lanes {
            // Blocking push is safe: the worker never blocks, so its
            // command ring always drains; if the worker is already
            // gone, the push reports Closed and we just join.
            let _ = lane.cmds.push_blocking(ShardCommand::Shutdown);
        }
        for lane in &mut self.lanes {
            if let Some(join) = lane.join.take() {
                let _ = join.join();
            }
        }
    }
}

// Compile-time Send proofs: everything handed to a worker thread must
// be Send. `thread::spawn` enforces this transitively, but these
// assertions name the load-bearing types directly so a future `Rc` or
// raw pointer inside any of them fails *here*, with the type named,
// rather than in a distant spawn bound.
const fn assert_send<T: Send>() {}
const _: () = {
    assert_send::<Shard>();
    assert_send::<cm_obs::Tracer>();
    assert_send::<cm_obs::FlightRecorder>();
    assert_send::<ShardCommand>();
    assert_send::<ShardReply>();
    assert_send::<RingProducer<ShardCommand>>();
    assert_send::<RingConsumer<ShardCommand>>();
    assert_send::<RingProducer<ShardReply>>();
    assert_send::<RingConsumer<ShardReply>>();
    assert_send::<Worker>();
    assert_send::<ShardRuntime>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShardingConfig;
    use crate::types::Endpoint;

    fn key(local_port: u16, remote_addr: u32) -> FlowKey {
        FlowKey::new(
            Endpoint::new(0x0a00_0001, local_port),
            Endpoint::new(remote_addr, 80),
        )
    }

    fn by_group_cfg(max_shards: u32) -> CmConfig {
        CmConfig {
            sharding: ShardingConfig::by_group(max_shards),
            ..CmConfig::default()
        }
    }

    #[test]
    fn open_request_grant_roundtrip() {
        let mut rt = ShardRuntime::new(by_group_cfg(4), ParallelConfig::with_workers(2));
        let now = Time::ZERO;
        let a = rt.open(key(1000, 1), now).unwrap();
        let b = rt.open(key(1001, 2), now).unwrap();
        assert_ne!(a.shard(), b.shard(), "distinct groups get distinct shards");
        rt.request(a, now);
        rt.request(b, now);
        rt.sync();
        let mut notes = Vec::new();
        rt.drain_notifications_into(&mut notes);
        let grants = notes
            .iter()
            .filter(|n| matches!(n, CmNotification::SendGrant { .. }))
            .count();
        assert_eq!(grants, 2, "one grant per slow-start request: {notes:?}");
        let stats = rt.stats();
        assert_eq!(stats.opens, 2);
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.grants, 2);
        assert_eq!(rt.op_failures(), 0);
        rt.check_invariants().unwrap();
    }

    #[test]
    fn fire_and_forget_errors_surface_asynchronously() {
        let mut rt = ShardRuntime::new(by_group_cfg(4), ParallelConfig::with_workers(2));
        let now = Time::ZERO;
        let a = rt.open(key(1000, 1), now).unwrap();
        rt.close(a, now);
        rt.request(a, now); // flow is gone: fails on the worker
        rt.sync();
        assert_eq!(rt.op_failures(), 1);
        assert!(matches!(
            rt.last_op_failure(),
            Some(CmError::UnknownFlow(f)) if f == a
        ));
    }

    #[test]
    fn tiny_rings_backpressure_is_counted_not_lost() {
        let mut rt = ShardRuntime::new(
            by_group_cfg(2),
            ParallelConfig {
                workers: 1,
                ring_capacity: 2,
            },
        );
        let now = Time::ZERO;
        let flow = rt.open(key(1, 1), now).unwrap();
        for _ in 0..200 {
            rt.request(flow, now);
            rt.notify(flow, 1460, now);
        }
        let stats = rt.stats();
        assert_eq!(stats.requests, 200, "backpressure lost commands");
        assert!(
            stats.ring_stalls > 0,
            "2-slot rings under a 400-command burst must stall"
        );
        rt.check_invariants().unwrap();
    }

    #[test]
    fn single_mode_runs_on_one_shard() {
        let mut rt = ShardRuntime::new(CmConfig::default(), ParallelConfig::with_workers(4));
        let now = Time::ZERO;
        let a = rt.open(key(1, 1), now).unwrap();
        let b = rt.open(key(2, 99), now).unwrap();
        assert_eq!(a.shard(), 0);
        assert_eq!(b.shard(), 0);
        assert_eq!(rt.shard_count(), 1);
        rt.check_invariants().unwrap();
    }
}
