//! The simulation runtime: simulated MPI ranks over a shared fabric, and
//! the [`Rank`] handle through which rank code performs communication,
//! RMA, collectives, and simulated memory allocation.
//!
//! All ranks execute under one deterministic virtual-time event loop
//! (`(clock, rank)` order — see [`crate::event`]). Two interchangeable
//! substrates carry the rank call stacks (see [`Backend`]): the default
//! **event** backend uses cooperative asm fibers on the driver thread,
//! which scales past 16k ranks; the **thread** backend parks one OS
//! thread per rank and hands the baton through the same scheduler. Both
//! produce bit-identical reports on every workload by construction.
//!
//! Virtual time: every rank owns a clock (`f64` seconds). Local work
//! advances it directly; messaging reconciles clocks through arrival
//! timestamps; collectives reconcile through the rendezvous maximum. The
//! *makespan* of a simulation is the maximum final clock.
//!
//! Observability: every clock mutation goes through [`Rank::set_clock_as`]
//! (or the helpers that call it), which attributes the elapsed delta to a
//! [`Phase`] on the rank's tracer. Runtime operations self-classify —
//! point-to-point, all-to-all and RMA time is `Exchange`, rendezvous
//! collectives are `Sync` — while layers above tag their file-system waits
//! with [`Rank::with_phase`]. The per-phase totals therefore sum to the
//! final clock by construction. When `SimConfig::trace` is set, each
//! operation additionally records a [`Span`](crate::trace::Span) with byte
//! counts and cross-rank dependency edges, collected into
//! [`SimReport::traces`].

use crate::collectives::{log2ceil, Deposit, Rendezvous, RvResult};
use crate::error::{MpiError, Result, SimError};
use crate::event::EventCore;
use crate::fiber::{Substrate, Task};
use crate::mem::{MemGuard, MemState, MemTracker};
use crate::net::{Fabric, FabricStatsSnapshot, NetConfig};
use crate::p2p::{Mailbox, Received, RecvFail, Request, Tag};
use crate::rma::{Epoch, LockKind, WinShared, Window};
use crate::stats::RankStats;
use crate::subcomm::{SplitRegistry, SubComm};
use crate::trace::{Phase, PhaseTotals, RankTrace, Tracer};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Reserved tag space for internal operations (user tags must stay below).
const TAG_INTERNAL_BASE: Tag = Tag::MAX - 15;
const TAG_ALLTOALLV: Tag = TAG_INTERNAL_BASE;
const TAG_GROUP_A2A: Tag = TAG_INTERNAL_BASE + 1;
/// Two-level (hierarchical) all-to-all: non-leader → node leader.
const TAG_HIER_UP: Tag = TAG_INTERNAL_BASE + 2;
/// Two-level all-to-all: leader → leader, across nodes.
const TAG_HIER_XNODE: Tag = TAG_INTERNAL_BASE + 3;
/// Two-level all-to-all: node leader → non-leader.
const TAG_HIER_DOWN: Tag = TAG_INTERNAL_BASE + 4;
/// Two-level all-to-all: direct payload between co-located ranks.
const TAG_HIER_LOCAL: Tag = TAG_INTERNAL_BASE + 5;

/// Which execution substrate runs the simulated ranks. Both backends are
/// driven by the same deterministic virtual-time event loop, so they are
/// bit-identical in every observable output (results, clocks, stats,
/// traces, metrics, recovered bytes); they differ only in what carries a
/// rank's call stack, and hence in wall-clock cost and scalability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Resolve from the `MPISIM_BACKEND` environment variable (`thread`
    /// or `event`); defaults to [`Backend::Event`] when unset. Explicitly
    /// configured backends are never overridden by the environment.
    #[default]
    Auto,
    /// Legacy substrate: one OS thread per rank, each parked until the
    /// event loop hands it the baton. Simple, portable, debuggable with
    /// plain thread tooling — but context switches through the kernel,
    /// so it is impractical beyond a few thousand ranks.
    Thread,
    /// Fiber substrate: every rank is a cooperative asm fiber resumed on
    /// the driver thread. ~20 ns switches, two pages per idle rank:
    /// 16k+ ranks on one machine.
    Event,
}

impl Backend {
    fn resolve(self) -> Backend {
        match self {
            Backend::Auto => match std::env::var("MPISIM_BACKEND") {
                Ok(v) if v == "thread" => Backend::Thread,
                Ok(v) if v == "event" => Backend::Event,
                Ok(v) => panic!("MPISIM_BACKEND must be 'thread' or 'event', got {v:?}"),
                Err(_) => Backend::Event,
            },
            explicit => explicit,
        }
    }
}

/// Whole-simulation configuration.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    pub net: NetConfig,
    /// Execution engine (see [`Backend`]). `Auto` honours the
    /// `MPISIM_BACKEND` environment variable and otherwise picks the
    /// event core.
    pub backend: Backend,
    /// Simulated memory budget per rank in bytes (`None` = unlimited).
    pub mem_budget: Option<u64>,
    /// Record per-operation trace spans (phase totals are always kept).
    /// Costs nothing when `false`.
    pub trace: bool,
    /// Collect per-rank metric histograms (message sizes, retry counts,
    /// buffer hit ratios) for the [`crate::metrics`] registry. Like
    /// `trace`, costs nothing when `false`: every observation site is a
    /// single branch on a plain bool.
    pub metrics: bool,
    /// Fault-injection engine (`None` = healthy machine, zero cost).
    /// Runtime operations poll it for rank-stall windows and compute
    /// slowdowns; the fabric polls it for message delays and
    /// connection-cache flushes.
    pub chaos: Option<Arc<chaos::ChaosEngine>>,
    /// Node topology (`None` = flat machine). A trivial topology (one rank
    /// per node) is guaranteed bit-identical to `None` — see
    /// [`crate::topology`].
    pub topology: Option<crate::topology::Topology>,
}

/// A collectively-created object plus the number of ranks that fetched it
/// (entries are pruned once every rank holds one).
type RegistryEntry = (Arc<dyn Any + Send + Sync>, usize);

pub(crate) struct Shared {
    nprocs: usize,
    pub(crate) fabric: Fabric,
    mailboxes: Vec<Mailbox>,
    rendezvous: Rendezvous,
    mem: Vec<Arc<MemState>>,
    /// Collectively-created objects keyed by rendezvous generation.
    registry: Mutex<HashMap<u64, RegistryEntry>>,
    abort: AtomicBool,
    trace: bool,
    metrics: bool,
    chaos: Option<Arc<chaos::ChaosEngine>>,
    /// Per-rank crash-stop flags. A rank marks itself dead at the
    /// chaos checkpoint where it first observes its injected crash; peers
    /// consult the flag so blocking operations on a dead rank fail with a
    /// typed error instead of hanging.
    dead: Vec<AtomicBool>,
    /// The virtual-time scheduler driving every rank task (on either
    /// substrate). Every unblocking event (mailbox push, rendezvous
    /// completion, abort, rank death) must wake the affected parked
    /// tasks here.
    core: Arc<EventCore>,
}

impl Shared {
    fn new(nprocs: usize, cfg: &SimConfig) -> Self {
        Shared {
            nprocs,
            fabric: Fabric::new_full(
                nprocs,
                cfg.net.clone(),
                cfg.chaos.clone(),
                cfg.topology.clone(),
            ),
            mailboxes: (0..nprocs).map(|_| Mailbox::default()).collect(),
            rendezvous: Rendezvous::new(nprocs),
            mem: (0..nprocs)
                .map(|_| Arc::new(MemState::new(cfg.mem_budget)))
                .collect(),
            registry: Mutex::new(HashMap::new()),
            abort: AtomicBool::new(false),
            trace: cfg.trace,
            metrics: cfg.metrics,
            chaos: cfg.chaos.clone(),
            dead: (0..nprocs).map(|_| AtomicBool::new(false)).collect(),
            core: Arc::new(EventCore::new(nprocs)),
        }
    }

    /// A message was deposited in `dst`'s mailbox: wake it if it is a
    /// parked task.
    fn notify_recv(&self, dst: usize) {
        self.core.wake(dst);
    }

    fn raise_abort(&self) {
        self.abort.store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            mb.interrupt();
        }
        self.rendezvous.interrupt();
        self.core.wake_all();
    }

    /// Record that `rank` crash-stopped: set its dead flag, release any
    /// receiver blocked on it, and shrink the world rendezvous so
    /// collectives complete over the survivors. Unlike `raise_abort` the
    /// simulation keeps running — only this rank is gone.
    fn mark_dead(&self, rank: usize) {
        self.dead[rank].store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            mb.interrupt_sync();
        }
        self.rendezvous.mark_dead(rank);
        // The death may have completed a rendezvous generation or freed a
        // receiver blocked on this rank; let every parked task re-check
        // its predicate.
        self.core.wake_all();
    }
}

/// Reduction operators for the typed allreduce helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Min,
    Max,
    Sum,
}

/// A deferred-completion I/O handle — the event-core primitive behind
/// pipelined collective I/O. The storage layer applies bytes at submission
/// time and returns the virtual completion instant; a pipelined caller
/// holds that instant in one of these instead of syncing its clock, keeps
/// working (e.g. runs the next round's exchange), and settles the clock
/// later through [`Rank::io_complete`]. Because bytes land at submission
/// and per-OST service is serialized on the storage timelines, deferring
/// the *clock* sync never changes file contents — only how much of the
/// service time hides behind other work.
#[derive(Debug, Clone)]
pub struct DeferredIo {
    /// Span name recorded at completion (pipeline-tagged by convention,
    /// e.g. `"ocio_io_pipe"`).
    pub name: &'static str,
    /// Virtual time the I/O was submitted.
    pub submitted: f64,
    /// Virtual completion instant returned by the storage layer.
    pub done: f64,
    /// Bytes moved, for span accounting.
    pub bytes: u64,
}

/// Depth of every I/O pipeline: double buffering, matching the two
/// collective buffers (or drain segments) a rank holds in flight.
const PIPELINE_DEPTH: usize = 2;

/// The deferred-completion queue of a pipelined round loop: at most
/// `PIPELINE_DEPTH` [`DeferredIo`] handles in flight, each with a guard
/// `G` (e.g. the collective buffer's [`crate::MemGuard`]) that stays alive
/// until its handle is settled.
#[derive(Debug)]
pub struct IoPipeline<G = ()> {
    inflight: std::collections::VecDeque<(DeferredIo, G)>,
}

impl<G> Default for IoPipeline<G> {
    fn default() -> Self {
        Self {
            inflight: std::collections::VecDeque::new(),
        }
    }
}

impl<G> IoPipeline<G> {
    /// Settle the oldest handles until one more fits — call before
    /// starting the work the next handle will overlap.
    pub fn make_room(&mut self, rank: &mut Rank) {
        while self.inflight.len() >= PIPELINE_DEPTH {
            let (h, _guard) = self.inflight.pop_front().expect("non-empty pipeline");
            rank.io_complete(h);
        }
    }

    /// Queue a submitted handle (after [`IoPipeline::make_room`]).
    pub fn push(&mut self, h: DeferredIo, guard: G) {
        self.inflight.push_back((h, guard));
    }

    /// Settle everything still in flight, oldest first.
    pub fn drain(&mut self, rank: &mut Rank) {
        while let Some((h, _guard)) = self.inflight.pop_front() {
            rank.io_complete(h);
        }
    }
}

/// Per-rank handle passed to the simulation body. Not `Send`: it belongs to
/// its rank thread.
pub struct Rank {
    id: usize,
    nprocs: usize,
    clock: f64,
    shared: Arc<Shared>,
    mem: MemTracker,
    /// State of the deterministic per-rank noise sequence.
    noise_seq: u64,
    /// Public, rank-local statistics (also collected into the report).
    pub stats: RankStats,
    /// Optional metric histograms (gated on `SimConfig::metrics`); I/O
    /// layers record into it directly, like `stats`.
    pub metrics: crate::metrics::RankMetrics,
    /// Clock-attribution and span-recording state.
    tracer: Tracer,
    /// Sticky crash-stop flag: set when this rank first observes its own
    /// injected crash; every runtime operation afterwards returns
    /// [`MpiError::RankCrashed`].
    crashed: bool,
}

impl Rank {
    fn new(id: usize, shared: Arc<Shared>) -> Self {
        let mem = MemTracker {
            rank: id,
            state: Arc::clone(&shared.mem[id]),
        };
        let trace = shared.trace;
        let metrics = shared.metrics;
        Rank {
            id,
            nprocs: shared.nprocs,
            clock: 0.0,
            shared,
            mem,
            noise_seq: 0x9E37_79B9_7F4A_7C15 ^ (id as u64),
            stats: RankStats::default(),
            metrics: crate::metrics::RankMetrics::new(metrics),
            tracer: Tracer::new(id, trace),
            crashed: false,
        }
    }

    // ---- identity & time ----

    pub fn rank(&self) -> usize {
        self.id
    }

    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Advance the local clock by `seconds`, attributed to the active
    /// phase (compute unless inside [`Rank::with_phase`]). Local work is
    /// stretched by any active chaos rank-slowdown window.
    pub fn advance(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "time cannot run backwards");
        let seconds = match &self.shared.chaos {
            Some(e) => seconds * e.rank_slowdown(self.id, self.clock),
            None => seconds,
        };
        let phase = self.tracer.current_phase();
        self.advance_as(seconds, phase);
    }

    /// Move the clock forward to at least `t` (no-op if already past),
    /// attributed to the active phase.
    pub fn sync_to(&mut self, t: f64) {
        let phase = self.tracer.current_phase();
        self.set_clock_as(t, phase);
    }

    /// Charge a local memory copy of `bytes`, attributed to the active
    /// phase.
    pub fn charge_memcpy(&mut self, bytes: u64) {
        let dt = bytes as f64 * self.shared.fabric.config().memcpy_byte_time;
        let phase = self.tracer.current_phase();
        self.advance_as(dt, phase);
    }

    /// The single funnel for "jump the clock to `t`": attributes the
    /// positive delta to `phase`. Jumps backwards are clamped to no-ops —
    /// the virtual clock is monotone.
    fn set_clock_as(&mut self, t: f64, phase: Phase) {
        if t > self.clock {
            self.tracer.attribute(phase, t - self.clock);
            self.clock = t;
        }
    }

    /// The single funnel for "advance the clock by `dt`" with an explicit
    /// phase attribution.
    fn advance_as(&mut self, dt: f64, phase: Phase) {
        if dt > 0.0 {
            self.tracer.attribute(phase, dt);
            self.clock += dt;
        }
    }

    // ---- fault injection ----

    /// The fault-injection engine attached to this simulation, if any.
    /// Layers above (mpiio/tcio) use it for straggler queries and the
    /// retry policy.
    pub fn chaos(&self) -> Option<&Arc<chaos::ChaosEngine>> {
        self.shared.chaos.as_ref()
    }

    /// Fault checkpoint: called at the entry of every runtime operation
    /// (p2p, collectives, RMA epochs), which is where a descheduled or
    /// failed process would actually be caught.
    ///
    /// Crash-stop: if the fault plan crashes this rank at or before the
    /// current virtual time, the rank marks itself dead (releasing peers
    /// blocked on it) and returns the sticky [`MpiError::RankCrashed`] —
    /// from then on every operation fails with it; the rank never comes
    /// back.
    ///
    /// Stall: if the rank sits inside an injected stall window *right
    /// now*, park it until the window lifts. The wait is attributed to
    /// `Compute` (the rank is not communicating — it is simply not
    /// running) and recorded as a `chaos_stall` span. A crash instant that
    /// falls inside the stall window fires when the stall lifts.
    fn chaos_checkpoint(&mut self) -> Result<()> {
        if self.crashed {
            return Err(MpiError::RankCrashed { rank: self.id });
        }
        let Some(engine) = self.shared.chaos.clone() else {
            return Ok(());
        };
        if !engine.crashed(self.id, self.clock) {
            if let Some(until) = engine.rank_stall_until(self.id, self.clock) {
                let start = self.clock;
                self.set_clock_as(until, Phase::Compute);
                self.stats.chaos_stalls += 1;
                self.tracer
                    .record("chaos_stall", Phase::Compute, start, self.clock, 0, None);
            }
        }
        if engine.crashed(self.id, self.clock) {
            self.crashed = true;
            self.stats.rank_crashes += 1;
            self.tracer.record(
                "rank_crash",
                Phase::Compute,
                self.clock,
                self.clock,
                0,
                None,
            );
            self.shared.mark_dead(self.id);
            return Err(MpiError::RankCrashed { rank: self.id });
        }
        Ok(())
    }

    // ---- tracing ----

    /// Is span recording on (`SimConfig::trace`)? Phase totals are kept
    /// regardless.
    pub fn trace_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Run `f` with clock time attributed to `phase` by default. Runtime
    /// operations that know better still self-classify (p2p and RMA time
    /// stays `Exchange`, rendezvous collectives stay `Sync`); everything
    /// else — `advance`, `sync_to`, `charge_memcpy` — lands in `phase`.
    /// Nests; the innermost phase wins.
    pub fn with_phase<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> R {
        self.tracer.push_phase(phase);
        let out = f(self);
        self.tracer.pop_phase();
        out
    }

    /// Record a span covering `[start, now]` for an instrumentation site
    /// (e.g. an I/O layer marking a collective-buffer write). No-op unless
    /// tracing is enabled.
    pub fn trace_mark(&mut self, name: &'static str, phase: Phase, start: f64, bytes: u64) {
        let end = self.clock;
        self.tracer.record(name, phase, start, end, bytes, None);
    }

    /// Settle a [`DeferredIo`] handle: record its `Phase::Io` span over
    /// the true service interval `[submitted, done]`, account the portion
    /// that elapsed while this rank was doing other work (the pipelining
    /// win) in [`RankStats::io_overlap`], and sync the clock to the
    /// completion instant — only the residual, non-hidden wait lands in
    /// the `Io` phase totals, so conservation still holds.
    pub fn io_complete(&mut self, h: DeferredIo) {
        let end = h.done.max(h.submitted);
        let hidden = (end.min(self.clock) - h.submitted).max(0.0);
        self.stats.io_overlap += hidden;
        self.tracer
            .record(h.name, Phase::Io, h.submitted, end, h.bytes, None);
        self.set_clock_as(end, Phase::Io);
    }

    /// Record a rendezvous-collective span: `ready` is the reconciled
    /// entry clock (`rv.max_t`) and `straggler` the world rank whose late
    /// arrival set it — the causal edge the critical-path walker follows.
    fn record_sync(
        &mut self,
        name: &'static str,
        start: f64,
        bytes: u64,
        rv: &crate::collectives::RvResult,
    ) {
        self.record_sync_mapped(name, start, bytes, rv, rv.max_rank);
    }

    /// Like [`Rank::record_sync`] but with the straggler already mapped to
    /// a world rank (sub-communicator rendezvous report group ranks).
    fn record_sync_mapped(
        &mut self,
        name: &'static str,
        start: f64,
        bytes: u64,
        rv: &crate::collectives::RvResult,
        world_straggler: usize,
    ) {
        let straggler = (world_straggler != usize::MAX).then_some(world_straggler);
        self.tracer.record_full(
            name,
            Phase::Sync,
            start,
            self.clock,
            bytes,
            None,
            rv.max_t,
            straggler,
        );
    }

    /// This rank's per-phase time totals so far.
    pub fn phase_totals(&self) -> PhaseTotals {
        self.tracer.totals()
    }

    pub fn net_config(&self) -> &NetConfig {
        self.shared.fabric.config()
    }

    /// The active (non-trivial) node topology, if any. Cheap to clone
    /// (`Arc`-backed); a trivial `ppn = 1` topology reads back as `None`.
    pub fn topology(&self) -> Option<crate::topology::Topology> {
        self.shared.fabric.topology().cloned()
    }

    /// The simulated-memory tracker for this rank.
    pub fn mem(&self) -> &MemTracker {
        &self.mem
    }

    /// Convenience: register a simulated allocation.
    pub fn alloc(&self, bytes: u64) -> Result<MemGuard> {
        self.mem.alloc(bytes)
    }

    fn check_abort(&self) -> Result<()> {
        if self.shared.abort.load(Ordering::SeqCst) {
            Err(MpiError::Aborted)
        } else {
            Ok(())
        }
    }

    fn check_rank(&self, r: usize) -> Result<()> {
        if r >= self.nprocs {
            Err(MpiError::InvalidRank {
                rank: r,
                nprocs: self.nprocs,
            })
        } else {
            Ok(())
        }
    }

    /// Span name for a p2p send, tagged with the topology level when a
    /// non-trivial topology is active (span names must be `&'static str`).
    fn send_span_name(&self, base: &'static str, dst: usize) -> &'static str {
        if self.shared.fabric.topology().is_none() {
            return base;
        }
        match (base, self.shared.fabric.is_intra(self.id, dst)) {
            ("send", true) => "send_intra",
            ("send", false) => "send_inter",
            ("isend", true) => "isend_intra",
            ("isend", false) => "isend_inter",
            _ => base,
        }
    }

    // ---- point-to-point ----

    /// Blocking (buffered) send: returns once the local NIC has pushed the
    /// message.
    pub fn send(&mut self, dst: usize, tag: Tag, data: &[u8]) -> Result<()> {
        self.check_abort()?;
        self.check_rank(dst)?;
        self.chaos_checkpoint()?;
        debug_assert!(tag < TAG_INTERNAL_BASE, "tag collides with internal range");
        let start = self.clock;
        let tr = self
            .shared
            .fabric
            .transfer(self.id, dst, data.len(), self.clock);
        self.set_clock_as(tr.sender_done, Phase::Exchange);
        let span = self.tracer.record(
            self.send_span_name("send", dst),
            Phase::Exchange,
            start,
            self.clock,
            data.len() as u64,
            None,
        );
        self.shared.mailboxes[dst].push(self.id, tag, data.to_vec(), tr.arrival, span);
        self.shared.notify_recv(dst);
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += data.len() as u64;
        self.metrics.observe_msg_bytes(data.len() as u64);
        Ok(())
    }

    /// Nonblocking send; complete with [`Rank::wait`].
    pub fn isend(&mut self, dst: usize, tag: Tag, data: &[u8]) -> Result<Request> {
        self.check_abort()?;
        self.check_rank(dst)?;
        self.chaos_checkpoint()?;
        let start = self.clock;
        let tr = self
            .shared
            .fabric
            .transfer(self.id, dst, data.len(), self.clock);
        self.advance_as(self.shared.fabric.config().send_overhead, Phase::Exchange);
        let span = self.tracer.record(
            self.send_span_name("isend", dst),
            Phase::Exchange,
            start,
            self.clock,
            data.len() as u64,
            None,
        );
        self.shared.mailboxes[dst].push(self.id, tag, data.to_vec(), tr.arrival, span);
        self.shared.notify_recv(dst);
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += data.len() as u64;
        self.metrics.observe_msg_bytes(data.len() as u64);
        Ok(Request::Send {
            done: tr.sender_done,
        })
    }

    /// Blocking receive. `None` arguments are wildcards.
    pub fn recv(&mut self, src: Option<usize>, tag: Option<Tag>) -> Result<Received> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        self.chaos_checkpoint()?;
        let start = self.clock;
        // When the receive names a specific source, watch its crash flag:
        // a receive posted on a dead rank (with no pre-crash message
        // pending) fails typed instead of hanging forever. Wildcard
        // receives cannot know which sender they wait for and rely on the
        // abort path.
        let r = match self.blocking_recv(src, tag) {
            Ok(r) => r,
            Err(RecvFail::Aborted) => return Err(MpiError::Aborted),
            Err(RecvFail::SrcDead) => {
                return Err(MpiError::PeerCrashed {
                    rank: src.expect("dead-source receive names its source"),
                })
            }
        };
        let cfg = self.shared.fabric.config();
        // Completion: reconcile with the arrival, pay the receive overhead,
        // and pay the unexpected-queue matching cost for every message that
        // was pending when this one matched.
        let done = self.clock.max(r.arrival)
            + cfg.recv_overhead
            + r.queue_depth as f64 * cfg.match_overhead;
        self.set_clock_as(done, Phase::Exchange);
        self.tracer.record_full(
            "recv",
            Phase::Exchange,
            start,
            self.clock,
            r.data.len() as u64,
            r.send_span,
            r.arrival,
            None,
        );
        self.stats.msgs_recvd += 1;
        self.stats.bytes_recvd += r.data.len() as u64;
        Ok(r)
    }

    /// Post a nonblocking receive; complete with [`Rank::wait`].
    pub fn irecv(&mut self, src: Option<usize>, tag: Option<Tag>) -> Result<Request> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        self.check_abort()?;
        Ok(Request::Recv { src, tag })
    }

    /// Complete a request. Returns the message for receives, `None` for sends.
    pub fn wait(&mut self, req: Request) -> Result<Option<Received>> {
        match req {
            Request::Send { done } => {
                self.set_clock_as(done, Phase::Exchange);
                Ok(None)
            }
            Request::Recv { src, tag } => {
                let r = self.recv(src, tag)?;
                Ok(Some(r))
            }
        }
    }

    /// Complete a batch of requests, in order.
    pub fn waitall(&mut self, reqs: Vec<Request>) -> Result<Vec<Option<Received>>> {
        let mut out = Vec::with_capacity(reqs.len());
        for req in reqs {
            out.push(self.wait(req)?);
        }
        Ok(out)
    }

    /// A blocking receive against this rank's mailbox. Predicate order
    /// (match, then abort, then dead source) mirrors the historical
    /// condvar path; the task parks instead of waiting, and a mailbox
    /// push, abort, or rank death wakes it for the re-check. One-at-a-
    /// time execution makes the check-then-park sequence atomic — no
    /// lost wakeups.
    fn blocking_recv(
        &self,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> std::result::Result<Received, RecvFail> {
        let src_dead = src.map(|s| &self.shared.dead[s]);
        let mailbox = &self.shared.mailboxes[self.id];
        loop {
            if let Some(r) = mailbox.try_match(src, tag) {
                return Ok(r);
            }
            if self.shared.abort.load(Ordering::SeqCst) {
                return Err(RecvFail::Aborted);
            }
            if src_dead.is_some_and(|d| d.load(Ordering::SeqCst)) {
                return Err(RecvFail::SrcDead);
            }
            self.shared.core.park(self.id, self.clock);
        }
    }

    /// A rendezvous entry (`me` is this rank's index within `rdv`'s
    /// numbering — group rank for sub-communicators). The completer wakes
    /// everyone; waiters park and poll their generation on wake, checking
    /// the generation before abort so a completed collective is delivered
    /// even when the simulation is being torn down.
    fn enter_rendezvous(&self, rdv: &Rendezvous, me: usize, payload: Vec<u8>) -> Option<RvResult> {
        match rdv.deposit(me, payload, self.clock) {
            Deposit::Complete(rv) => {
                self.shared.core.wake_all();
                Some(rv)
            }
            Deposit::Waiting { gen } => loop {
                if let Some(rv) = rdv.poll(gen) {
                    return Some(rv);
                }
                if self.shared.abort.load(Ordering::SeqCst) {
                    return None;
                }
                self.shared.core.park(self.id, self.clock);
            },
        }
    }

    // ---- collectives ----

    fn rendezvous(&mut self, payload: Vec<u8>) -> Result<crate::collectives::RvResult> {
        self.chaos_checkpoint()?;
        let entry_t = self.clock;
        let rv = self
            .enter_rendezvous(&self.shared.rendezvous, self.id, payload)
            .ok_or(MpiError::Aborted)?;
        self.stats.collectives += 1;
        self.stats.collective_wait += (rv.max_t - entry_t).max(0.0);
        Ok(rv)
    }

    /// Barrier: all clocks advance to `max + 2·α·⌈log₂ P⌉`.
    pub fn barrier(&mut self) -> Result<()> {
        let start = self.clock;
        let rv = self.rendezvous(Vec::new())?;
        let cfg = self.shared.fabric.config();
        self.set_clock_as(
            rv.max_t + 2.0 * cfg.latency * log2ceil(self.nprocs) as f64,
            Phase::Sync,
        );
        self.record_sync("barrier", start, 0, &rv);
        Ok(())
    }

    /// The allgather engine: rendezvous, cost model, span — everything
    /// except materializing per-rank copies of the payload vector. Typed
    /// helpers read the shared [`RvResult::payloads`] `Arc` directly, so
    /// an allgather of one `u64` over P ranks stays O(P) per rank instead
    /// of the O(P²) total that per-rank cloning costs at 16k ranks.
    fn allgather_rv(&mut self, payload: &[u8]) -> Result<RvResult> {
        let start = self.clock;
        let rv = self.rendezvous(payload.to_vec())?;
        let cfg = self.shared.fabric.config();
        let total: usize = rv.payloads.iter().map(Vec::len).sum();
        let foreign = total - payload.len();
        self.set_clock_as(
            rv.max_t + cfg.latency * log2ceil(self.nprocs) as f64 + foreign as f64 * cfg.byte_time,
            Phase::Sync,
        );
        self.record_sync("allgather", start, total as u64, &rv);
        Ok(rv)
    }

    /// Gather one byte payload from every rank, delivered to all.
    pub fn allgather(&mut self, payload: &[u8]) -> Result<Vec<Vec<u8>>> {
        let rv = self.allgather_rv(payload)?;
        Ok(rv.payloads.iter().cloned().collect())
    }

    /// Allgather of one `u64` per rank. Live ranks always contribute 8
    /// bytes, so an empty slot can only belong to a crash-stopped rank;
    /// it reads back as `u64::MAX`.
    pub fn allgather_u64(&mut self, value: u64) -> Result<Vec<u64>> {
        let rv = self.allgather_rv(&value.to_le_bytes())?;
        Ok(rv
            .payloads
            .iter()
            .map(|b| {
                if b.is_empty() {
                    u64::MAX
                } else {
                    u64::from_le_bytes(b[..8].try_into().expect("u64 payload"))
                }
            })
            .collect())
    }

    /// Allreduce of one `u64`. Crash-stopped ranks' (empty) slots are
    /// excluded from the reduction — the collective re-forms over the
    /// survivors.
    pub fn allreduce_u64(&mut self, value: u64, op: ReduceOp) -> Result<u64> {
        let rv = self.allgather_rv(&value.to_le_bytes())?;
        let vals = rv
            .payloads
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| u64::from_le_bytes(b[..8].try_into().expect("u64 payload")));
        Ok(match op {
            ReduceOp::Min => vals.min().expect("at least one survivor"),
            ReduceOp::Max => vals.max().expect("at least one survivor"),
            ReduceOp::Sum => vals.sum(),
        })
    }

    /// Allreduce of one `f64`. Crash-stopped ranks' slots are excluded,
    /// like [`Rank::allreduce_u64`].
    pub fn allreduce_f64(&mut self, value: f64, op: ReduceOp) -> Result<f64> {
        let rv = self.allgather_rv(&value.to_le_bytes())?;
        let vals = rv
            .payloads
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| f64::from_le_bytes(b[..8].try_into().expect("f64 payload")));
        Ok(match op {
            ReduceOp::Min => vals.fold(f64::INFINITY, f64::min),
            ReduceOp::Max => vals.fold(f64::NEG_INFINITY, f64::max),
            ReduceOp::Sum => vals.sum(),
        })
    }

    /// Broadcast `root`'s payload to every rank (binomial-tree cost).
    pub fn bcast(&mut self, root: usize, payload: &[u8]) -> Result<Vec<u8>> {
        self.check_rank(root)?;
        let contribution = if self.id == root {
            payload.to_vec()
        } else {
            Vec::new()
        };
        let start = self.clock;
        let rv = self.rendezvous(contribution)?;
        let cfg = self.shared.fabric.config();
        let bytes = rv.payloads[root].len();
        self.set_clock_as(
            rv.max_t + (cfg.latency + bytes as f64 * cfg.byte_time) * log2ceil(self.nprocs) as f64,
            Phase::Sync,
        );
        self.record_sync("bcast", start, bytes as u64, &rv);
        Ok(rv.payloads[root].clone())
    }

    /// Gather every rank's payload at `root`; non-roots receive `None`.
    pub fn gather(&mut self, root: usize, payload: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        self.check_rank(root)?;
        let start = self.clock;
        let rv = self.rendezvous(payload.to_vec())?;
        let cfg = self.shared.fabric.config();
        let total: usize = rv.payloads.iter().map(Vec::len).sum();
        let out = if self.id == root {
            self.set_clock_as(
                rv.max_t
                    + cfg.latency * log2ceil(self.nprocs) as f64
                    + (total - payload.len()) as f64 * cfg.byte_time,
                Phase::Sync,
            );
            Some(rv.payloads.iter().cloned().collect())
        } else {
            self.set_clock_as(
                rv.max_t + cfg.latency * log2ceil(self.nprocs) as f64,
                Phase::Sync,
            );
            None
        };
        self.record_sync("gather", start, total as u64, &rv);
        Ok(out)
    }

    /// Scatter `root`'s per-rank payloads; every rank receives its slice.
    pub fn scatter(&mut self, root: usize, payloads: Option<Vec<Vec<u8>>>) -> Result<Vec<u8>> {
        self.check_rank(root)?;
        let contribution = match (&payloads, self.id == root) {
            (Some(p), true) => {
                if p.len() != self.nprocs {
                    return Err(MpiError::CollectiveMismatch(
                        "scatter payload vector length != nprocs",
                    ));
                }
                // Flatten with a tiny length-prefixed encoding.
                let mut buf = Vec::new();
                for part in p {
                    buf.extend_from_slice(&(part.len() as u64).to_le_bytes());
                    buf.extend_from_slice(part);
                }
                buf
            }
            (None, true) => {
                return Err(MpiError::CollectiveMismatch(
                    "root must provide scatter payloads",
                ))
            }
            _ => Vec::new(),
        };
        let start = self.clock;
        let rv = self.rendezvous(contribution)?;
        let cfg = self.shared.fabric.config();
        let blob = &rv.payloads[root];
        let mut parts = Vec::with_capacity(self.nprocs);
        let mut pos = 0usize;
        for _ in 0..self.nprocs {
            if pos + 8 > blob.len() {
                return Err(MpiError::CollectiveMismatch("scatter blob truncated"));
            }
            let len = u64::from_le_bytes(blob[pos..pos + 8].try_into().expect("len")) as usize;
            pos += 8;
            parts.push(blob[pos..pos + len].to_vec());
            pos += len;
        }
        let mine = parts.swap_remove(self.id);
        self.set_clock_as(
            rv.max_t
                + cfg.latency * log2ceil(self.nprocs) as f64
                + mine.len() as f64 * cfg.byte_time,
            Phase::Sync,
        );
        self.record_sync("scatter", start, mine.len() as u64, &rv);
        Ok(mine)
    }

    /// Element-wise reduction of equal-length `u64` vectors, delivered to
    /// all ranks (`MPI_Allreduce` on arrays).
    pub fn allreduce_u64_vec(&mut self, values: &[u64], op: ReduceOp) -> Result<Vec<u64>> {
        let payload: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let start = self.clock;
        let rv = self.rendezvous(payload)?;
        let cfg = self.shared.fabric.config();
        let bytes = values.len() * 8;
        self.set_clock_as(
            rv.max_t
                + 2.0 * (cfg.latency + bytes as f64 * cfg.byte_time) * log2ceil(self.nprocs) as f64,
            Phase::Sync,
        );
        self.record_sync("allreduce", start, bytes as u64, &rv);
        if bytes == 0 {
            return Ok(Vec::new());
        }
        let mut acc: Option<Vec<u64>> = None;
        for buf in rv.payloads.iter() {
            if buf.is_empty() {
                // Crash-stopped rank: its slot carries no contribution.
                continue;
            }
            if buf.len() != bytes {
                return Err(MpiError::CollectiveMismatch(
                    "allreduce_u64_vec length mismatch across ranks",
                ));
            }
            let vals: Vec<u64> = buf
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("u64 chunk")))
                .collect();
            acc = Some(match acc {
                None => vals,
                Some(mut a) => {
                    for (x, v) in a.iter_mut().zip(vals) {
                        *x = match op {
                            ReduceOp::Min => (*x).min(v),
                            ReduceOp::Max => (*x).max(v),
                            ReduceOp::Sum => *x + v,
                        };
                    }
                    a
                }
            });
        }
        Ok(acc.expect("at least one survivor"))
    }

    /// Inclusive prefix reduction (`MPI_Scan`) of one `u64`. Crash-stopped
    /// ranks' slots are skipped — the prefix runs over the survivors.
    pub fn scan_u64(&mut self, value: u64, op: ReduceOp) -> Result<u64> {
        let rv = self.allgather_rv(&value.to_le_bytes())?;
        Ok(rv.payloads[..=self.id]
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| u64::from_le_bytes(b[..8].try_into().expect("u64 payload")))
            .reduce(|a, b| match op {
                ReduceOp::Min => a.min(b),
                ReduceOp::Max => a.max(b),
                ReduceOp::Sum => a + b,
            })
            .expect("own contribution present"))
    }

    /// Exclusive prefix sum of one `u64` (`MPI_Exscan` with `+`, 0 at rank
    /// 0) — the usual offset-computation helper for parallel I/O.
    /// Crash-stopped ranks' slots contribute nothing.
    pub fn exscan_sum_u64(&mut self, value: u64) -> Result<u64> {
        let rv = self.allgather_rv(&value.to_le_bytes())?;
        Ok(rv.payloads[..self.id]
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| u64::from_le_bytes(b[..8].try_into().expect("u64 payload")))
            .sum())
    }

    /// Survivor agreement (communicator shrink): synchronize through a
    /// barrier, then return the ranks that have not crash-stopped.
    ///
    /// No extra communication is needed beyond the barrier: every survivor
    /// leaves it with the *identical* reconciled clock, and the fault plan
    /// is a pure function of `(rank, time)` — so all survivors evaluate
    /// the same predicate at the same instant and agree on the same list.
    /// Collectives re-form around the result (e.g. TCIO's recovery drain
    /// reassigns a crashed owner's segments to its buddy).
    pub fn agree_survivors(&mut self) -> Result<Vec<usize>> {
        self.barrier()?;
        let t = self.clock;
        Ok(match &self.shared.chaos {
            Some(e) => (0..self.nprocs).filter(|&r| !e.crashed(r, t)).collect(),
            None => (0..self.nprocs).collect(),
        })
    }

    /// Combined send and receive (`MPI_Sendrecv`).
    pub fn sendrecv(
        &mut self,
        dst: usize,
        send_tag: Tag,
        data: &[u8],
        src: Option<usize>,
        recv_tag: Option<Tag>,
    ) -> Result<Received> {
        let req = self.isend(dst, send_tag, data)?;
        let r = self.recv(src, recv_tag)?;
        self.wait(req)?;
        Ok(r)
    }

    /// Nonblocking probe: is a matching message pending?
    pub fn iprobe(&mut self, src: Option<usize>, tag: Option<Tag>) -> Result<bool> {
        self.check_abort()?;
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        Ok(self.shared.mailboxes[self.id].has_match(src, tag, self.clock))
    }

    // ---- sub-communicators ----

    /// `MPI_Comm_split`: collectively partition the world by `color`.
    /// Every rank receives a [`SubComm`] over the ranks that passed the
    /// same color (ordered by world rank).
    pub fn split(&mut self, color: u64) -> Result<SubComm> {
        let colors = self.allgather_u64(color)?;
        let members: Vec<usize> = colors
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == color)
            .map(|(r, _)| r)
            .collect();
        let registry: Arc<SplitRegistry> =
            self.shared_state(|| SplitRegistry::new(HashMap::new()))?;
        SubComm::build(members, self.id, &registry, color)
    }

    fn rendezvous_in(
        &mut self,
        comm: &SubComm,
        payload: Vec<u8>,
    ) -> Result<crate::collectives::RvResult> {
        self.chaos_checkpoint()?;
        let entry_t = self.clock;
        let rv = self
            .enter_rendezvous(&comm.rendezvous, comm.group_rank(), payload)
            .ok_or(MpiError::Aborted)?;
        self.stats.collectives += 1;
        self.stats.collective_wait += (rv.max_t - entry_t).max(0.0);
        Ok(rv)
    }

    /// Barrier over a sub-communicator.
    pub fn barrier_in(&mut self, comm: &SubComm) -> Result<()> {
        let start = self.clock;
        let rv = self.rendezvous_in(comm, Vec::new())?;
        let cfg = self.shared.fabric.config();
        self.set_clock_as(
            rv.max_t + 2.0 * cfg.latency * comm.log2() as f64,
            Phase::Sync,
        );
        let straggler = comm.world_of(rv.max_rank);
        self.record_sync_mapped("barrier_in", start, 0, &rv, straggler);
        Ok(())
    }

    /// Allgather over a sub-communicator (payloads indexed by group rank).
    pub fn allgather_in(&mut self, comm: &SubComm, payload: &[u8]) -> Result<Vec<Vec<u8>>> {
        let start = self.clock;
        let rv = self.rendezvous_in(comm, payload.to_vec())?;
        let cfg = self.shared.fabric.config();
        let total: usize = rv.payloads.iter().map(Vec::len).sum();
        self.set_clock_as(
            rv.max_t
                + cfg.latency * comm.log2() as f64
                + (total - payload.len()) as f64 * cfg.byte_time,
            Phase::Sync,
        );
        let straggler = comm.world_of(rv.max_rank);
        self.record_sync_mapped("allgather_in", start, total as u64, &rv, straggler);
        Ok(rv.payloads.iter().cloned().collect())
    }

    /// Allreduce of one `u64` over a sub-communicator.
    pub fn allreduce_u64_in(&mut self, comm: &SubComm, value: u64, op: ReduceOp) -> Result<u64> {
        let all = self.allgather_in(comm, &value.to_le_bytes())?;
        let vals = all
            .iter()
            .map(|b| u64::from_le_bytes(b[..8].try_into().expect("u64 payload")));
        Ok(match op {
            ReduceOp::Min => vals.min().expect("nonempty group"),
            ReduceOp::Max => vals.max().expect("nonempty group"),
            ReduceOp::Sum => vals.sum(),
        })
    }

    /// The burst all-to-all scoped to a sub-communicator: `data[i]` is the
    /// payload for group member `i`; returns payloads indexed by group
    /// rank. Queue-depth matching costs apply within the group only —
    /// which is exactly the point of partitioned collective I/O.
    pub fn alltoallv_burst_in(
        &mut self,
        comm: &SubComm,
        mut data: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>> {
        let g = comm.size();
        if data.len() != g {
            return Err(MpiError::CollectiveMismatch(
                "group alltoallv payload vector length != group size",
            ));
        }
        let mi = comm.group_rank();
        let start = self.clock;
        let total: u64 = data.iter().map(|v| v.len() as u64).sum();
        let mut out: Vec<Vec<u8>> = (0..g).map(|_| Vec::new()).collect();
        out[mi] = std::mem::take(&mut data[mi]);
        let mut sends = Vec::with_capacity(g.saturating_sub(1));
        for k in 1..g {
            let dst = (mi + k) % g;
            sends.push(self.isend_internal(
                comm.world_rank(dst),
                TAG_GROUP_A2A,
                std::mem::take(&mut data[dst]),
            )?);
        }
        for k in 1..g {
            let src = (mi + g - k) % g;
            let r = self.recv(Some(comm.world_rank(src)), Some(TAG_GROUP_A2A))?;
            out[src] = r.data;
        }
        self.waitall(sends)?;
        self.tracer.record(
            "alltoallv_burst_in",
            Phase::Exchange,
            start,
            self.clock,
            total,
            None,
        );
        Ok(out)
    }

    /// Deterministic pseudo-random system-noise sample (exponential with
    /// mean `noise_mean`), advancing this rank's noise sequence.
    fn noise_sample(&mut self) -> f64 {
        let mean = self.shared.fabric.config().noise_mean;
        if mean <= 0.0 {
            return 0.0;
        }
        self.noise_seq = self
            .noise_seq
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(self.id as u64 * 2 + 1);
        let u = ((self.noise_seq >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
        -mean * u.ln()
    }

    /// Personalized all-to-all, implemented as the classic **pairwise
    /// exchange**: `P − 1` rounds in which rank `i` sends to `(i + k) % P`
    /// and receives from `(i − k) % P`. The rounds synchronize pairwise, so
    /// per-round system noise ([`NetConfig::noise_mean`]) compounds
    /// transitively across the machine — the "collective wall" that makes
    /// the two-phase exchange degrade at scale while TCIO's independent
    /// one-sided transfers do not. `data[d]` is the payload for rank `d`;
    /// returns payloads indexed by source.
    pub fn alltoallv(&mut self, mut data: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
        if data.len() != self.nprocs {
            return Err(MpiError::CollectiveMismatch(
                "alltoallv payload vector length != nprocs",
            ));
        }
        let me = self.id;
        let n = self.nprocs;
        let start = self.clock;
        let total: u64 = data.iter().map(|v| v.len() as u64).sum();
        let mut out: Vec<Vec<u8>> = (0..n).map(|_| Vec::new()).collect();
        out[me] = std::mem::take(&mut data[me]);
        let mut sends = Vec::with_capacity(n.saturating_sub(1));
        for k in 1..n {
            let dst = (me + k) % n;
            let src = (me + n - k) % n;
            // Per-round software jitter (scheduling, progress engine).
            let noise = self.noise_sample();
            self.advance_as(noise, Phase::Exchange);
            sends.push(self.isend_internal(dst, TAG_ALLTOALLV, std::mem::take(&mut data[dst]))?);
            let r = self.recv(Some(src), Some(TAG_ALLTOALLV))?;
            out[src] = r.data;
        }
        self.waitall(sends)?;
        self.tracer
            .record("alltoallv", Phase::Exchange, start, self.clock, total, None);
        Ok(out)
    }

    /// Personalized all-to-all the way ROMIO's two-phase exchange does it
    /// (Coloma et al., Cluster'06, the paper's \[22\]): post everything at
    /// once — "first issues MPI_Irecv to receive data from all processes,
    /// then issues MPI_Isend to send data to all processes, and then waits
    /// until all communication complete". The eager burst piles up deep
    /// pending queues at every rank, so matching costs grow quadratically
    /// with P (see [`NetConfig::match_overhead`]) — the "heavy traffic
    /// bursting" behaviour the paper blames for OCIO's collapse at scale.
    pub fn alltoallv_burst(&mut self, mut data: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
        if data.len() != self.nprocs {
            return Err(MpiError::CollectiveMismatch(
                "alltoallv payload vector length != nprocs",
            ));
        }
        let me = self.id;
        let n = self.nprocs;
        let start = self.clock;
        let total: u64 = data.iter().map(|v| v.len() as u64).sum();
        let mut out: Vec<Vec<u8>> = (0..n).map(|_| Vec::new()).collect();
        out[me] = std::mem::take(&mut data[me]);
        let mut sends = Vec::with_capacity(n.saturating_sub(1));
        for k in 1..n {
            let dst = (me + k) % n;
            sends.push(self.isend_internal(dst, TAG_ALLTOALLV, std::mem::take(&mut data[dst]))?);
        }
        for k in 1..n {
            let src = (me + n - k) % n;
            // Shrunk-communicator semantics, matching the rendezvous
            // collectives: a crash-stopped peer contributes an empty
            // payload (anything it sent *before* crashing is still
            // delivered, so the shrink is deterministic in virtual time).
            match self.recv(Some(src), Some(TAG_ALLTOALLV)) {
                Ok(r) => out[src] = r.data,
                Err(MpiError::PeerCrashed { rank }) if rank == src => {}
                Err(e) => return Err(e),
            }
        }
        self.waitall(sends)?;
        self.tracer.record(
            "alltoallv_burst",
            Phase::Exchange,
            start,
            self.clock,
            total,
            None,
        );
        Ok(out)
    }

    /// Two-level all-to-all for hierarchical machines (Kang et al.,
    /// *Improving MPI Collective I/O Performance With Intra-node Request
    /// Aggregation*): ranks on a node first combine their off-node
    /// payloads at a node leader over the cheap intra-node links, only
    /// leaders shuffle across nodes (one message per node pair instead of
    /// one per rank pair), and leaders scatter the received data back to
    /// their peers. On-node payloads travel directly over shared memory.
    /// Falls back to [`Rank::alltoallv_burst`] when no (non-trivial)
    /// topology is configured. Same contract as the flat exchange:
    /// `data[d]` is the payload for rank `d`; the result is indexed by
    /// source — so the two are always byte-identical.
    ///
    /// Leader election is chaos-aware: members enter through a barrier (so
    /// their clocks agree) and each node takes its lowest member that is
    /// not inside or ahead of an injected stall window; if all members are
    /// stalled the default (lowest) is kept. A non-default election bumps
    /// [`RankStats::leader_fallbacks`] on the elected rank.
    pub fn alltoallv_burst_hier(&mut self, data: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
        if data.len() != self.nprocs {
            return Err(MpiError::CollectiveMismatch(
                "alltoallv payload vector length != nprocs",
            ));
        }
        if self.shared.fabric.topology().is_none() {
            return self.alltoallv_burst(data);
        }
        self.barrier()?;
        let members: Vec<usize> = (0..self.nprocs).collect();
        let mi = self.id;
        self.hier_exchange(&members, mi, data)
    }

    /// [`Rank::alltoallv_burst_hier`] scoped to a sub-communicator; same
    /// contract as [`Rank::alltoallv_burst_in`].
    pub fn alltoallv_burst_hier_in(
        &mut self,
        comm: &SubComm,
        data: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>> {
        if data.len() != comm.size() {
            return Err(MpiError::CollectiveMismatch(
                "group alltoallv payload vector length != group size",
            ));
        }
        if self.shared.fabric.topology().is_none() {
            return self.alltoallv_burst_in(comm, data);
        }
        self.barrier_in(comm)?;
        let members: Vec<usize> = comm.members().to_vec();
        let mi = comm.group_rank();
        self.hier_exchange(&members, mi, data)
    }

    /// The member-list-generic two-level exchange behind both hier
    /// variants. `members` are world ranks (ascending for groups), `mi` is
    /// this rank's index into it, `data` is indexed by member. Callers
    /// have already synchronized the members' clocks (barrier).
    fn hier_exchange(
        &mut self,
        members: &[usize],
        mi: usize,
        mut data: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>> {
        use std::collections::BTreeMap;
        fn push_u32(buf: &mut Vec<u8>, v: usize) {
            buf.extend_from_slice(&(v as u32).to_le_bytes());
        }
        fn read_u32(buf: &[u8], pos: &mut usize) -> usize {
            let v =
                u32::from_le_bytes(buf[*pos..*pos + 4].try_into().expect("u32 header")) as usize;
            *pos += 4;
            v
        }

        let topo = self
            .shared
            .fabric
            .topology()
            .cloned()
            .expect("hier needs topology");
        let g = members.len();
        let start = self.clock;
        let total: u64 = data.iter().map(|v| v.len() as u64).sum();

        // Member indices grouped by node (BTreeMap: deterministic order;
        // members ascend within a node because `members` is ascending).
        let mut nodes: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (j, &w) in members.iter().enumerate() {
            nodes.entry(topo.node_of(w)).or_default().push(j);
        }

        // Chaos-aware leader election. All members compute the same result:
        // clocks agree after the caller's barrier, and `stall_ahead` is a
        // pure function of (rank, time).
        let now = self.clock;
        let mut leader_of: BTreeMap<usize, usize> = BTreeMap::new();
        for (&node, idxs) in &nodes {
            let healthy = idxs.iter().copied().find(|&j| match &self.shared.chaos {
                Some(e) => !e.stall_ahead(members[j], now) && !e.crash_ahead(members[j]),
                None => true,
            });
            leader_of.insert(node, healthy.unwrap_or(idxs[0]));
        }
        let my_node = topo.node_of(members[mi]);
        let my_peers = nodes[&my_node].clone();
        let my_leader = leader_of[&my_node];
        if mi == my_leader && my_leader != my_peers[0] {
            self.stats.leader_fallbacks += 1;
        }

        let mut out: Vec<Vec<u8>> = (0..g).map(|_| Vec::new()).collect();
        out[mi] = std::mem::take(&mut data[mi]);
        let mut sends = Vec::new();

        // On-node payloads go directly: the links are shared memory, so
        // funnelling them through the leader would only add copies.
        for &j in &my_peers {
            if j != mi {
                sends.push(self.isend_internal(
                    members[j],
                    TAG_HIER_LOCAL,
                    std::mem::take(&mut data[j]),
                )?);
            }
        }

        if mi != my_leader {
            // Combine all off-node payloads into one up-blob for the
            // leader: (dst u32, len u32, bytes)*.
            let mut up = Vec::new();
            for (j, payload) in data.iter_mut().enumerate() {
                if topo.node_of(members[j]) != my_node && !payload.is_empty() {
                    push_u32(&mut up, j);
                    push_u32(&mut up, payload.len());
                    up.append(payload);
                }
            }
            sends.push(self.isend_internal(members[my_leader], TAG_HIER_UP, up)?);
            // The leader's scatter carries everything off-node sent to me:
            // (src u32, len u32, bytes)*.
            let down = self.recv(Some(members[my_leader]), Some(TAG_HIER_DOWN))?;
            let mut pos = 0;
            while pos < down.data.len() {
                let src = read_u32(&down.data, &mut pos);
                let len = read_u32(&down.data, &mut pos);
                out[src] = down.data[pos..pos + len].to_vec();
                pos += len;
            }
        } else {
            // Bucket off-node payloads per destination node: mine first,
            // then each peer's up-blob. Entries: (src, dst, len, bytes)*.
            let mut cross: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
            for (j, payload) in data.iter_mut().enumerate() {
                let node = topo.node_of(members[j]);
                if node != my_node && !payload.is_empty() {
                    let blob = cross.entry(node).or_default();
                    push_u32(blob, mi);
                    push_u32(blob, j);
                    push_u32(blob, payload.len());
                    blob.append(payload);
                }
            }
            for &p in &my_peers {
                if p == mi {
                    continue;
                }
                let up = self.recv(Some(members[p]), Some(TAG_HIER_UP))?;
                let mut pos = 0;
                while pos < up.data.len() {
                    let dst = read_u32(&up.data, &mut pos);
                    let len = read_u32(&up.data, &mut pos);
                    let blob = cross.entry(topo.node_of(members[dst])).or_default();
                    push_u32(blob, p);
                    push_u32(blob, dst);
                    push_u32(blob, len);
                    blob.extend_from_slice(&up.data[pos..pos + len]);
                    pos += len;
                }
            }
            // Inter-node shuffle between leaders, ring-ordered like the
            // flat burst. Every pair exchanges exactly one message (empty
            // allowed) so receives can match on (src, tag).
            let ring: Vec<usize> = nodes.keys().copied().collect();
            let n = ring.len();
            let my_pos = ring.iter().position(|&x| x == my_node).expect("own node");
            for k in 1..n {
                let node = ring[(my_pos + k) % n];
                let blob = cross.remove(&node).unwrap_or_default();
                sends.push(self.isend_internal(members[leader_of[&node]], TAG_HIER_XNODE, blob)?);
            }
            let mut down: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
            for k in 1..n {
                let node = ring[(my_pos + n - k) % n];
                let x = self.recv(Some(members[leader_of[&node]]), Some(TAG_HIER_XNODE))?;
                let mut pos = 0;
                while pos < x.data.len() {
                    let src = read_u32(&x.data, &mut pos);
                    let dst = read_u32(&x.data, &mut pos);
                    let len = read_u32(&x.data, &mut pos);
                    if dst == mi {
                        out[src] = x.data[pos..pos + len].to_vec();
                    } else {
                        let blob = down.entry(dst).or_default();
                        push_u32(blob, src);
                        push_u32(blob, len);
                        blob.extend_from_slice(&x.data[pos..pos + len]);
                    }
                    pos += len;
                }
            }
            for &p in &my_peers {
                if p != mi {
                    sends.push(self.isend_internal(
                        members[p],
                        TAG_HIER_DOWN,
                        down.remove(&p).unwrap_or_default(),
                    )?);
                }
            }
        }

        for &j in &my_peers {
            if j != mi {
                let r = self.recv(Some(members[j]), Some(TAG_HIER_LOCAL))?;
                out[j] = r.data;
            }
        }
        self.waitall(sends)?;
        self.tracer.record(
            "alltoallv_hier",
            Phase::Exchange,
            start,
            self.clock,
            total,
            None,
        );
        Ok(out)
    }

    fn isend_internal(&mut self, dst: usize, tag: Tag, data: Vec<u8>) -> Result<Request> {
        self.check_abort()?;
        self.check_rank(dst)?;
        self.chaos_checkpoint()?;
        let start = self.clock;
        let tr = self
            .shared
            .fabric
            .transfer(self.id, dst, data.len(), self.clock);
        self.advance_as(self.shared.fabric.config().send_overhead, Phase::Exchange);
        let span = self.tracer.record(
            self.send_span_name("isend", dst),
            Phase::Exchange,
            start,
            self.clock,
            data.len() as u64,
            None,
        );
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += data.len() as u64;
        self.metrics.observe_msg_bytes(data.len() as u64);
        self.shared.mailboxes[dst].push(self.id, tag, data, tr.arrival, span);
        self.shared.notify_recv(dst);
        Ok(Request::Send {
            done: tr.sender_done,
        })
    }

    /// Collectively create (or fetch) a shared object. The closure runs on
    /// exactly one rank; all ranks receive the same `Arc`. Used for
    /// cross-rank side structures (e.g., TCIO's segment metadata).
    pub fn shared_state<T: Send + Sync + 'static>(
        &mut self,
        init: impl FnOnce() -> T,
    ) -> Result<Arc<T>> {
        let start = self.clock;
        let rv = self.rendezvous(Vec::new())?;
        let cfg = self.shared.fabric.config();
        self.set_clock_as(
            rv.max_t + 2.0 * cfg.latency * log2ceil(self.nprocs) as f64,
            Phase::Sync,
        );
        self.record_sync("shared_state", start, 0, &rv);
        let arc_any = {
            let mut reg = self.shared.registry.lock();
            let entry = reg
                .entry(rv.gen)
                .or_insert_with(|| (Arc::new(init()) as Arc<dyn Any + Send + Sync>, 0));
            entry.1 += 1;
            let a = Arc::clone(&entry.0);
            if entry.1 == self.nprocs {
                reg.remove(&rv.gen);
            }
            a
        };
        arc_any
            .downcast::<T>()
            .map_err(|_| MpiError::CollectiveMismatch("shared_state type mismatch across ranks"))
    }

    // ---- one-sided (RMA) ----

    /// Collectively create a window exposing `local_size` bytes on this
    /// rank. The bytes count against this rank's simulated memory budget.
    pub fn win_create(&mut self, local_size: usize) -> Result<Window> {
        let mem = self.alloc(local_size as u64)?;
        self.stats.mem_peak = self.stats.mem_peak.max(self.mem.peak());
        let start = self.clock;
        let rv = self.rendezvous((local_size as u64).to_le_bytes().to_vec())?;
        let cfg = self.shared.fabric.config();
        self.set_clock_as(
            rv.max_t + 2.0 * cfg.latency * log2ceil(self.nprocs) as f64,
            Phase::Sync,
        );
        self.record_sync("win_create", start, local_size as u64, &rv);
        let sizes: Vec<usize> = rv
            .payloads
            .iter()
            .map(|b| {
                if b.is_empty() {
                    // Crash-stopped rank: it exposes no window memory.
                    0
                } else {
                    u64::from_le_bytes(b[..8].try_into().expect("size payload")) as usize
                }
            })
            .collect();
        let shared_win = {
            let mut reg = self.shared.registry.lock();
            let entry = reg.entry(rv.gen).or_insert_with(|| {
                (
                    Arc::new(WinShared::new(sizes)) as Arc<dyn Any + Send + Sync>,
                    0,
                )
            });
            entry.1 += 1;
            let a = Arc::clone(&entry.0);
            if entry.1 == self.nprocs {
                reg.remove(&rv.gen);
            }
            a
        };
        let shared_win = shared_win
            .downcast::<WinShared>()
            .map_err(|_| MpiError::CollectiveMismatch("window registry type mismatch"))?;
        Ok(Window {
            shared: shared_win,
            owner: self.id,
            _mem: Some(mem),
        })
    }

    /// Open a passive-target lock epoch on `target`.
    pub fn win_lock<'w>(
        &mut self,
        win: &'w Window,
        target: usize,
        kind: LockKind,
    ) -> Result<Epoch<'w>> {
        self.check_abort()?;
        self.check_rank(target)?;
        self.chaos_checkpoint()?;
        // Lock request handshake.
        self.advance_as(self.shared.fabric.config().rma_lock_cost, Phase::Exchange);
        Ok(Epoch::new(win, target, kind))
    }

    /// Close an epoch: settle its cost ledger. Exclusive epochs serialize
    /// against each other per target in virtual time (booking the target's
    /// lock-token timeline for the epoch's intrinsic duration); shared
    /// epochs skip the token and only contend at the NIC ports.
    pub fn win_unlock(&mut self, ep: Epoch<'_>) -> Result<()> {
        self.check_abort()?;
        self.chaos_checkpoint()?;
        let cfg = self.shared.fabric.config().clone();
        let me = self.id;
        let epoch_start = self.clock;
        let target = ep.target;
        // Intrinsic (uncontended) duration of the epoch's transfers; used
        // to book the exclusive-lock token before the NIC-level costs are
        // resolved.
        let mut intrinsic = 0.0;
        for &(bytes, parts) in &ep.put_msgs {
            let msg = bytes + parts * cfg.gather_header_bytes;
            intrinsic += cfg.send_overhead + cfg.latency + msg as f64 * cfg.byte_time;
        }
        for &(bytes, parts) in &ep.get_msgs {
            let msg = bytes + parts * cfg.gather_header_bytes;
            intrinsic += 2.0 * cfg.latency + cfg.send_overhead + msg as f64 * cfg.byte_time;
        }
        let start = match ep.kind {
            LockKind::Exclusive => ep.win.shared.tokens[target]
                .lock()
                .reserve(self.clock, intrinsic),
            LockKind::Shared => self.clock,
        };
        if start > epoch_start {
            // The exclusive token was held by an earlier epoch: the gap is
            // pure lock wait, recorded as its own span so the critical-path
            // analyzer can attribute it separately from the transfers.
            self.tracer.record(
                "rma_lock_wait",
                Phase::Exchange,
                epoch_start,
                start,
                0,
                None,
            );
        }
        let mut now = start;
        let mut moved = 0u64;
        for &(bytes, parts) in &ep.put_msgs {
            let msg = bytes + parts * cfg.gather_header_bytes;
            let tr = self.shared.fabric.transfer(me, target, msg, now);
            now = tr.arrival;
            self.stats.puts += 1;
            self.stats.put_bytes += bytes as u64;
            moved += bytes as u64;
        }
        for &(bytes, parts) in &ep.get_msgs {
            let msg = bytes + parts * cfg.gather_header_bytes;
            // Get is a round trip: request, then data target → origin.
            let tr = self
                .shared
                .fabric
                .transfer(target, me, msg, now + cfg.latency);
            now = tr.arrival;
            self.stats.gets += 1;
            self.stats.get_bytes += bytes as u64;
            moved += bytes as u64;
        }
        self.stats.rma_epochs += 1;
        self.set_clock_as(now + cfg.rma_lock_cost, Phase::Exchange);
        self.tracer.record_full(
            "rma_epoch",
            Phase::Exchange,
            epoch_start,
            self.clock,
            moved,
            None,
            start,
            None,
        );
        Ok(())
    }

    /// Fence synchronization (collective; provided for the sync-mode
    /// ablation — the paper rejects fences because they would force all
    /// ranks to synchronize on every access epoch).
    pub fn win_fence(&mut self, _win: &Window) -> Result<()> {
        self.barrier()
    }

    /// Record the current memory peak into the rank stats (called by layers
    /// after sizeable allocations).
    pub fn note_mem_peak(&mut self) {
        self.stats.mem_peak = self.stats.mem_peak.max(self.mem.peak());
    }
}

/// Result of a completed simulation.
#[derive(Debug)]
pub struct SimReport<T> {
    /// Per-rank return values.
    pub results: Vec<T>,
    /// Per-rank final virtual clocks.
    pub clocks: Vec<f64>,
    /// Maximum final clock.
    pub makespan: f64,
    /// Per-rank statistics.
    pub stats: Vec<RankStats>,
    /// Fabric-wide counters.
    pub fabric: FabricStatsSnapshot,
    /// Per-rank traces: phase totals always, spans when `SimConfig::trace`.
    pub traces: Vec<RankTrace>,
    /// Merged per-rank metric histograms (empty unless `SimConfig::metrics`).
    pub metrics: crate::metrics::RankMetrics,
}

impl<T> SimReport<T> {
    /// Sum/merge of all per-rank stats.
    pub fn aggregate_stats(&self) -> RankStats {
        let mut agg = RankStats::default();
        for s in &self.stats {
            agg.merge(s);
        }
        agg
    }

    /// Sum/merge of the stats of a subset of ranks — the tenant-scoped
    /// view used by the multi-tenant facility (out-of-range ranks are
    /// ignored so callers can pass speculative groupings).
    pub fn stats_for(&self, ranks: &[usize]) -> RankStats {
        let mut agg = RankStats::default();
        for &r in ranks {
            if let Some(s) = self.stats.get(r) {
                agg.merge(s);
            }
        }
        agg
    }

    /// Merged phase totals of a subset of ranks (tenant-scoped clock
    /// attribution: compute/exchange/io/sync seconds summed over the
    /// group's members).
    pub fn phase_totals_for(&self, ranks: &[usize]) -> crate::trace::PhaseTotals {
        let mut agg = crate::trace::PhaseTotals::default();
        for &r in ranks {
            if let Some(t) = self.traces.get(r) {
                agg.merge(&t.totals);
            }
        }
        agg
    }
}

/// Per-rank outcome of one simulated body.
enum Outcome<T> {
    Ok(T),
    Err(MpiError),
    /// The rank crash-stopped (injected fault) and its body propagated
    /// the error unhandled. Not an abort: survivors keep running.
    Crashed,
    Panic(String),
}

/// Everything a finished rank hands back to the report assembler.
type PerRank<T> = (
    f64,
    RankStats,
    RankTrace,
    crate::metrics::RankMetrics,
    Outcome<T>,
);

/// Run one rank's body to completion — on either backend — and collect
/// its report contribution. Panics are caught here; fatal errors raise
/// the global abort so blocked peers drain.
fn execute_rank<T, F>(i: usize, shared: &Arc<Shared>, body: &F) -> PerRank<T>
where
    F: Fn(&mut Rank) -> Result<T> + Sync,
{
    let mut rank = Rank::new(i, Arc::clone(shared));
    let out = catch_unwind(AssertUnwindSafe(|| body(&mut rank)));
    let outcome = match out {
        Ok(Ok(v)) => Outcome::Ok(v),
        // An unhandled own-crash is not an abort: the rank is already
        // marked dead, collectives shrink around it, and the survivors
        // run to completion.
        Ok(Err(MpiError::RankCrashed { rank })) if rank == i => Outcome::Crashed,
        Ok(Err(e)) => {
            shared.raise_abort();
            Outcome::Err(e)
        }
        Err(p) => {
            shared.raise_abort();
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Outcome::Panic(msg)
        }
    };
    rank.note_mem_peak();
    let trace = std::mem::replace(&mut rank.tracer, Tracer::new(i, false)).finish();
    let metrics = std::mem::take(&mut rank.metrics);
    (rank.clock, rank.stats, trace, metrics, outcome)
}

/// Event loop: every rank is a resumable task on the chosen substrate;
/// one driver loop resumes them in deterministic `(virtual clock, rank)`
/// order until all bodies return. Both backends go through here, so the
/// schedule — and every schedule-dependent observable — is identical by
/// construction; only the suspension mechanism differs.
fn run_event<T, F>(
    nprocs: usize,
    shared: &Arc<Shared>,
    substrate: Substrate,
    body: &F,
) -> Vec<PerRank<T>>
where
    T: Send,
    F: Fn(&mut Rank) -> Result<T> + Sync,
{
    /// Raw pointer allowed to cross into a fiber closure. Sound because
    /// the driver runs at most one fiber at a time and finishes (or
    /// leaks) every fiber before the pointee goes out of scope.
    struct SendPtr<T>(*mut T);
    unsafe impl<T> Send for SendPtr<T> {}

    /// Erase the closure's borrow lifetimes so it can live in a task.
    ///
    /// # Safety
    /// The caller must not let the closure (or the task holding it) be
    /// invoked after the borrows expire. `run_event` upholds this by
    /// driving every task to completion — or leaking it, never running
    /// it again — before `slots` and `body` leave scope. (A leaked
    /// `Substrate::Thread` worker parks forever on its own `Arc`'d
    /// channel and never touches the forged borrows again.)
    unsafe fn forge_static<'a>(f: Box<dyn FnOnce() + Send + 'a>) -> crate::fiber::FiberFn {
        unsafe { std::mem::transmute(f) }
    }

    let core = Arc::clone(&shared.core);
    let stack_bytes = crate::fiber::stack_bytes_from_env();
    let mut slots: Vec<Option<PerRank<T>>> = (0..nprocs).map(|_| None).collect();
    let mut fibers: Vec<Task> = slots
        .iter_mut()
        .enumerate()
        .map(|(i, slot)| {
            let shared = Arc::clone(shared);
            let slot = SendPtr(slot as *mut Option<PerRank<T>>);
            let closure = move || {
                // Capture the whole SendPtr wrapper, not just its field —
                // precise capture would otherwise grab the bare
                // (non-Send) pointer.
                let slot = slot;
                let out = execute_rank(i, &shared, body);
                // Exclusive: only this fiber ever touches its slot.
                unsafe { *slot.0 = Some(out) };
            };
            let f = unsafe { forge_static(Box::new(closure)) };
            Task::spawn(substrate, stack_bytes, f)
        })
        .collect();

    loop {
        match core.pop_next() {
            Some(rank) => {
                if fibers[rank].resume() {
                    core.mark_done(rank);
                }
            }
            None => {
                let live = core.live_count();
                if live == 0 {
                    break;
                }
                if shared.abort.load(Ordering::SeqCst) {
                    // The abort already woke every parked rank and each
                    // one re-parked anyway: unrecoverably stuck. Leak the
                    // suspended tasks (their stacks cannot be unwound)
                    // and fail loudly instead of hanging forever.
                    drop(fibers);
                    panic!(
                        "mpisim event core: {live} rank(s) still blocked after abort \
                         (simulated communication deadlock)"
                    );
                }
                // Ready heap dry with live ranks: a simulated deadlock
                // (e.g. a receive whose sender already returned). Raise
                // the abort so every blocking loop drains with
                // `MpiError::Aborted` instead of hanging.
                shared.raise_abort();
            }
        }
    }
    drop(fibers);
    slots
        .into_iter()
        .map(|s| s.expect("rank fiber finished without reporting"))
        .collect()
}

/// Entry point: run `body` on `nprocs` simulated ranks.
pub fn run<T, F>(
    nprocs: usize,
    cfg: SimConfig,
    body: F,
) -> std::result::Result<SimReport<T>, SimError>
where
    T: Send,
    F: Fn(&mut Rank) -> Result<T> + Sync,
{
    assert!(nprocs > 0, "need at least one rank");
    let backend = cfg.backend.resolve();
    let shared = Arc::new(Shared::new(nprocs, &cfg));
    let substrate = match backend {
        Backend::Thread => Substrate::Thread,
        Backend::Event | Backend::Auto => Substrate::Native,
    };
    let per_rank = run_event(nprocs, &shared, substrate, &body);

    // Prefer a root-cause error (not Aborted) from the lowest rank. An
    // unhandled crash dominates its own knock-on effects (peers failing
    // with `PeerCrashed` on the dead rank) but not unrelated errors.
    let crashed_rank = per_rank
        .iter()
        .position(|(_, _, _, _, o)| matches!(o, Outcome::Crashed));
    let mut first_abort: Option<SimError> = None;
    for (i, (_, _, _, _, outcome)) in per_rank.iter().enumerate() {
        match outcome {
            Outcome::Err(MpiError::Aborted) => {
                first_abort.get_or_insert(SimError::RankFailed {
                    rank: i,
                    error: MpiError::Aborted,
                });
            }
            Outcome::Err(MpiError::PeerCrashed { rank }) if Some(*rank) == crashed_rank => {
                // Knock-on failure from the crash; folded into the
                // `CollectiveAborted` report below.
            }
            Outcome::Err(e) => {
                return Err(SimError::RankFailed {
                    rank: i,
                    error: e.clone(),
                })
            }
            Outcome::Panic(m) => {
                return Err(SimError::RankPanicked {
                    rank: i,
                    message: m.clone(),
                })
            }
            Outcome::Ok(_) | Outcome::Crashed => {}
        }
    }
    if let Some(crashed_rank) = crashed_rank {
        return Err(SimError::CollectiveAborted { crashed_rank });
    }
    if let Some(e) = first_abort {
        return Err(e);
    }

    let mut results = Vec::with_capacity(nprocs);
    let mut clocks = Vec::with_capacity(nprocs);
    let mut stats = Vec::with_capacity(nprocs);
    let mut traces = Vec::with_capacity(nprocs);
    let mut metrics = crate::metrics::RankMetrics::default();
    for (clock, st, trace, m, outcome) in per_rank {
        clocks.push(clock);
        stats.push(st);
        traces.push(trace);
        metrics.merge(&m);
        match outcome {
            Outcome::Ok(v) => results.push(v),
            _ => unreachable!("errors handled above"),
        }
    }
    let makespan = clocks.iter().cloned().fold(0.0, f64::max);
    Ok(SimReport {
        results,
        clocks,
        makespan,
        stats,
        fabric: shared.fabric.stats.snapshot(),
        traces,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn ranks_have_identity() {
        let rep = run(4, cfg(), |rk| Ok((rk.rank(), rk.nprocs()))).unwrap();
        for (i, &(r, n)) in rep.results.iter().enumerate() {
            assert_eq!(r, i);
            assert_eq!(n, 4);
        }
    }

    #[test]
    fn send_recv_moves_real_bytes_and_time() {
        let rep = run(2, cfg(), |rk| {
            if rk.rank() == 0 {
                rk.send(1, 7, &[10, 20, 30])?;
                Ok(Vec::new())
            } else {
                let r = rk.recv(Some(0), Some(7))?;
                assert!(rk.now() > 0.0, "receive must advance virtual time");
                Ok(r.data)
            }
        })
        .unwrap();
        assert_eq!(rep.results[1], vec![10, 20, 30]);
        assert!(rep.makespan > 0.0);
        assert_eq!(rep.aggregate_stats().msgs_sent, 1);
        assert_eq!(rep.aggregate_stats().bytes_recvd, 3);
    }

    #[test]
    fn barrier_reconciles_clocks() {
        let rep = run(4, cfg(), |rk| {
            rk.advance(rk.rank() as f64); // rank i is i seconds "late"
            rk.barrier()?;
            Ok(rk.now())
        })
        .unwrap();
        let t0 = rep.results[0];
        assert!(t0 >= 3.0);
        for &t in &rep.results {
            assert!(
                (t - t0).abs() < 1e-12,
                "all ranks leave the barrier together"
            );
        }
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        let rep = run(3, cfg(), |rk| {
            let all = rk.allgather(&[rk.rank() as u8 * 10])?;
            Ok(all)
        })
        .unwrap();
        for all in rep.results {
            assert_eq!(all, vec![vec![0], vec![10], vec![20]]);
        }
    }

    #[test]
    fn allreduce_ops() {
        let rep = run(4, cfg(), |rk| {
            let min = rk.allreduce_u64(rk.rank() as u64 + 5, ReduceOp::Min)?;
            let max = rk.allreduce_u64(rk.rank() as u64 + 5, ReduceOp::Max)?;
            let sum = rk.allreduce_u64(rk.rank() as u64 + 5, ReduceOp::Sum)?;
            let fmax = rk.allreduce_f64(rk.rank() as f64 * 1.5, ReduceOp::Max)?;
            Ok((min, max, sum, fmax))
        })
        .unwrap();
        for &(min, max, sum, fmax) in &rep.results {
            assert_eq!(min, 5);
            assert_eq!(max, 8);
            assert_eq!(sum, 5 + 6 + 7 + 8);
            assert!((fmax - 4.5).abs() < 1e-12);
        }
    }

    #[test]
    fn alltoallv_personalizes() {
        let rep = run(3, cfg(), |rk| {
            let me = rk.rank() as u8;
            let data: Vec<Vec<u8>> = (0..3).map(|d| vec![me, d as u8]).collect();
            rk.alltoallv(data)
        })
        .unwrap();
        for (me, received) in rep.results.iter().enumerate() {
            for (src, msg) in received.iter().enumerate() {
                assert_eq!(msg, &vec![src as u8, me as u8]);
            }
        }
    }

    #[test]
    fn isend_irecv_waitall() {
        let rep = run(2, cfg(), |rk| {
            if rk.rank() == 0 {
                let r1 = rk.isend(1, 1, &[1])?;
                let r2 = rk.isend(1, 2, &[2, 2])?;
                rk.waitall(vec![r1, r2])?;
                Ok(0u64)
            } else {
                let a = rk.irecv(Some(0), Some(2))?;
                let b = rk.irecv(Some(0), Some(1))?;
                let out = rk.waitall(vec![a, b])?;
                let x = out[0].as_ref().unwrap().data.len() as u64;
                let y = out[1].as_ref().unwrap().data.len() as u64;
                Ok(x * 10 + y)
            }
        })
        .unwrap();
        assert_eq!(rep.results[1], 21);
    }

    #[test]
    fn rma_put_get_through_window() {
        let rep = run(2, cfg(), |rk| {
            let win = rk.win_create(8)?;
            if rk.rank() == 0 {
                let mut ep = rk.win_lock(&win, 1, LockKind::Exclusive)?;
                ep.put(0, &[7, 8, 9])?;
                rk.win_unlock(ep)?;
            }
            rk.barrier()?;
            let mut out = [0u8; 3];
            if rk.rank() == 1 {
                win.with_local(|r| out.copy_from_slice(&r[0..3]));
            } else {
                let mut ep = rk.win_lock(&win, 1, LockKind::Shared)?;
                ep.get(0, &mut out)?;
                rk.win_unlock(ep)?;
            }
            Ok(out.to_vec())
        })
        .unwrap();
        assert_eq!(rep.results[0], vec![7, 8, 9]);
        assert_eq!(rep.results[1], vec![7, 8, 9]);
        let agg = rep.aggregate_stats();
        assert_eq!(agg.puts, 1);
        assert_eq!(agg.gets, 1);
        assert_eq!(agg.rma_epochs, 2);
    }

    #[test]
    fn exclusive_epochs_serialize_in_virtual_time() {
        // Many ranks put to rank 0's window under exclusive locks; the
        // resulting makespan must be at least the sum of transfer times.
        let n = 8;
        let bytes = 1 << 20;
        let rep = run(n, cfg(), move |rk| {
            let win = rk.win_create(if rk.rank() == 0 { bytes } else { 0 })?;
            if rk.rank() != 0 {
                let data = vec![rk.rank() as u8; 1024];
                let mut ep = rk.win_lock(&win, 0, LockKind::Exclusive)?;
                ep.put(rk.rank() * 1024, &data)?;
                rk.win_unlock(ep)?;
            }
            rk.barrier()?;
            Ok(rk.now())
        })
        .unwrap();
        // Correctness: all regions got written (checked via makespan > 0 and
        // absence of panic; byte content checked in rma module tests).
        assert!(rep.makespan > 0.0);
        assert_eq!(rep.aggregate_stats().puts, (n - 1) as u64);
    }

    #[test]
    fn shared_state_runs_init_once() {
        use std::sync::atomic::AtomicUsize;
        static INITS: AtomicUsize = AtomicUsize::new(0);
        let rep = run(4, cfg(), |rk| {
            let shared: Arc<Vec<u8>> = rk.shared_state(|| {
                INITS.fetch_add(1, Ordering::SeqCst);
                vec![1, 2, 3]
            })?;
            Ok(shared.len())
        })
        .unwrap();
        assert_eq!(INITS.load(Ordering::SeqCst), 1);
        assert!(rep.results.iter().all(|&l| l == 3));
    }

    #[test]
    fn memory_budget_failure_aborts_cleanly() {
        let mut c = cfg();
        c.mem_budget = Some(100);
        let err = run(2, c, |rk| {
            if rk.rank() == 0 {
                let _g = rk.alloc(200)?; // exceeds budget
                Ok(())
            } else {
                // Rank 1 would block forever in the barrier without abort.
                rk.barrier()?;
                Ok(())
            }
        })
        .unwrap_err();
        match err {
            SimError::RankFailed { rank, error } => {
                assert_eq!(rank, 0);
                assert!(matches!(error, MpiError::OutOfMemory { .. }));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn panic_in_rank_is_reported_and_releases_peers() {
        let err = run(2, cfg(), |rk| {
            if rk.rank() == 0 {
                panic!("deliberate test panic");
            }
            rk.barrier()?;
            Ok(())
        })
        .unwrap_err();
        match err {
            SimError::RankPanicked { rank, message } => {
                assert_eq!(rank, 0);
                assert!(message.contains("deliberate"));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn invalid_rank_rejected() {
        let err = run(2, cfg(), |rk| {
            if rk.rank() == 0 {
                rk.send(5, 0, &[1])?;
            } else {
                rk.barrier()?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::RankFailed {
                error: MpiError::InvalidRank { .. },
                ..
            }
        ));
    }

    #[test]
    fn window_counts_against_memory_budget() {
        let mut c = cfg();
        c.mem_budget = Some(1024);
        let err = run(2, c, |rk| {
            let _w = rk.win_create(2048)?;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::RankFailed {
                error: MpiError::OutOfMemory { .. },
                ..
            }
        ));
    }

    #[test]
    fn bcast_delivers_root_payload() {
        let rep = run(4, cfg(), |rk| {
            let payload = if rk.rank() == 2 {
                vec![9, 8, 7]
            } else {
                Vec::new()
            };
            rk.bcast(2, &payload)
        })
        .unwrap();
        assert!(rep.results.iter().all(|p| p == &vec![9, 8, 7]));
    }

    #[test]
    fn gather_collects_only_at_root() {
        let rep = run(3, cfg(), |rk| {
            let out = rk.gather(1, &[rk.rank() as u8])?;
            Ok(out)
        })
        .unwrap();
        assert!(rep.results[0].is_none());
        assert!(rep.results[2].is_none());
        assert_eq!(
            rep.results[1].as_ref().unwrap(),
            &vec![vec![0u8], vec![1], vec![2]]
        );
    }

    #[test]
    fn scatter_distributes_root_slices() {
        let rep = run(3, cfg(), |rk| {
            let payloads = if rk.rank() == 0 {
                Some(vec![vec![10u8], vec![20, 20], vec![30, 30, 30]])
            } else {
                None
            };
            rk.scatter(0, payloads)
        })
        .unwrap();
        assert_eq!(rep.results[0], vec![10]);
        assert_eq!(rep.results[1], vec![20, 20]);
        assert_eq!(rep.results[2], vec![30, 30, 30]);
    }

    #[test]
    fn scatter_without_root_payload_fails() {
        let err = run(2, cfg(), |rk| {
            rk.scatter(0, None)?;
            Ok(())
        })
        .unwrap_err();
        assert!(err.to_string().contains("scatter"));
    }

    #[test]
    fn allreduce_vec_elementwise() {
        let rep = run(3, cfg(), |rk| {
            let v = [rk.rank() as u64, 10 - rk.rank() as u64, 1];
            rk.allreduce_u64_vec(&v, ReduceOp::Max)
        })
        .unwrap();
        for r in &rep.results {
            assert_eq!(r, &vec![2, 10, 1]);
        }
        let rep = run(3, cfg(), |rk| {
            rk.allreduce_u64_vec(&[rk.rank() as u64 + 1], ReduceOp::Sum)
        })
        .unwrap();
        assert!(rep.results.iter().all(|r| r == &vec![6]));
    }

    #[test]
    fn scan_and_exscan_prefixes() {
        let rep = run(4, cfg(), |rk| {
            let inc = rk.scan_u64(rk.rank() as u64 + 1, ReduceOp::Sum)?;
            let exc = rk.exscan_sum_u64(rk.rank() as u64 + 1)?;
            Ok((inc, exc))
        })
        .unwrap();
        // values 1,2,3,4 → inclusive 1,3,6,10; exclusive 0,1,3,6.
        assert_eq!(rep.results, vec![(1, 0), (3, 1), (6, 3), (10, 6)]);
    }

    #[test]
    fn sendrecv_swaps_between_pairs() {
        let rep = run(2, cfg(), |rk| {
            let partner = 1 - rk.rank();
            let r = rk.sendrecv(partner, 5, &[rk.rank() as u8], Some(partner), Some(5))?;
            Ok(r.data)
        })
        .unwrap();
        assert_eq!(rep.results[0], vec![1]);
        assert_eq!(rep.results[1], vec![0]);
    }

    #[test]
    fn iprobe_sees_only_arrived_messages() {
        let rep = run(2, cfg(), |rk| {
            if rk.rank() == 0 {
                rk.send(1, 3, &[1, 2, 3])?;
                rk.barrier()?;
                Ok((false, false))
            } else {
                let before = rk.iprobe(Some(0), Some(3))?;
                rk.barrier()?; // clock advances past the arrival
                let after = rk.iprobe(Some(0), Some(3))?;
                let wrong_tag = rk.iprobe(Some(0), Some(4))?;
                rk.recv(Some(0), Some(3))?;
                let drained = rk.iprobe(Some(0), Some(3))?;
                assert!(!wrong_tag);
                assert!(!drained);
                Ok((before, after))
            }
        })
        .unwrap();
        let (_, after) = rep.results[1];
        assert!(after, "message must be probeable once arrived");
    }

    #[test]
    fn phase_totals_sum_to_final_clock() {
        let c = SimConfig {
            trace: true,
            ..cfg()
        };
        let rep = run(4, c, |rk| {
            rk.advance(0.001 * (rk.rank() + 1) as f64);
            if rk.rank() == 0 {
                rk.send(1, 7, &[1; 256])?;
            } else if rk.rank() == 1 {
                rk.recv(Some(0), Some(7))?;
            }
            rk.barrier()?;
            let _ = rk.allgather(&[rk.rank() as u8])?;
            rk.with_phase(Phase::Io, |rk| rk.advance(0.002));
            rk.charge_memcpy(1 << 20);
            Ok(())
        })
        .unwrap();
        for (r, tr) in rep.traces.iter().enumerate() {
            assert!(
                (tr.totals.total() - rep.clocks[r]).abs() < 1e-9,
                "rank {r}: phase totals {} != clock {}",
                tr.totals.total(),
                rep.clocks[r]
            );
            assert!(tr.totals.get(Phase::Io) >= 0.002 - 1e-12, "rank {r}");
            assert!(tr.totals.get(Phase::Sync) > 0.0, "rank {r}");
            assert!(!tr.spans.is_empty(), "rank {r} recorded spans");
        }
    }

    #[test]
    fn tracing_disabled_keeps_totals_but_no_spans() {
        let rep = run(2, cfg(), |rk| {
            rk.advance(0.5);
            rk.barrier()?;
            Ok(())
        })
        .unwrap();
        for (r, tr) in rep.traces.iter().enumerate() {
            assert!(tr.spans.is_empty(), "no spans without SimConfig::trace");
            assert!(
                (tr.totals.total() - rep.clocks[r]).abs() < 1e-9,
                "totals still conserve when spans are off"
            );
        }
    }

    #[test]
    fn recv_span_carries_send_dependency() {
        let c = SimConfig {
            trace: true,
            ..cfg()
        };
        let rep = run(2, c, |rk| {
            if rk.rank() == 0 {
                rk.send(1, 9, &[7; 64])?;
            } else {
                rk.recv(Some(0), Some(9))?;
            }
            Ok(())
        })
        .unwrap();
        let send = rep.traces[0]
            .spans
            .iter()
            .find(|s| s.name == "send")
            .expect("send span");
        let recv = rep.traces[1]
            .spans
            .iter()
            .find(|s| s.name == "recv")
            .expect("recv span");
        assert_eq!(
            recv.dep,
            Some(send.id),
            "dependency edge links recv to send"
        );
        assert_eq!(send.bytes, 64);
        assert_eq!(recv.bytes, 64);
        assert!(recv.end >= send.start, "causality in virtual time");
    }

    #[test]
    fn large_scale_smoke_256_ranks() {
        let rep = run(256, cfg(), |rk| {
            let sum = rk.allreduce_u64(rk.rank() as u64, ReduceOp::Sum)?;
            rk.barrier()?;
            Ok(sum)
        })
        .unwrap();
        let expect: u64 = (0..256).sum();
        assert!(rep.results.iter().all(|&s| s == expect));
    }
}

#[cfg(test)]
mod subcomm_tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn split_partitions_by_color() {
        let rep = run(6, cfg(), |rk| {
            let comm = rk.split((rk.rank() % 2) as u64)?;
            Ok((comm.size(), comm.group_rank(), comm.members().to_vec()))
        })
        .unwrap();
        for (r, (size, grank, members)) in rep.results.iter().enumerate() {
            assert_eq!(*size, 3);
            let expect: Vec<usize> = (0..6).filter(|x| x % 2 == r % 2).collect();
            assert_eq!(members, &expect);
            assert_eq!(members[*grank], r);
        }
    }

    #[test]
    fn group_collectives_are_scoped() {
        let rep = run(6, cfg(), |rk| {
            let comm = rk.split((rk.rank() / 3) as u64)?;
            rk.barrier_in(&comm)?;
            let sum = rk.allreduce_u64_in(&comm, rk.rank() as u64, ReduceOp::Sum)?;
            let gathered = rk.allgather_in(&comm, &[rk.rank() as u8])?;
            Ok((sum, gathered))
        })
        .unwrap();
        // Group 0 = {0,1,2} (sum 3), group 1 = {3,4,5} (sum 12).
        for (r, (sum, gathered)) in rep.results.iter().enumerate() {
            let expect_sum = if r < 3 { 3 } else { 12 };
            assert_eq!(*sum, expect_sum, "rank {r}");
            let expect: Vec<Vec<u8>> = if r < 3 {
                vec![vec![0], vec![1], vec![2]]
            } else {
                vec![vec![3], vec![4], vec![5]]
            };
            assert_eq!(gathered, &expect);
        }
    }

    #[test]
    fn group_alltoall_personalizes_within_group() {
        let rep = run(4, cfg(), |rk| {
            let comm = rk.split((rk.rank() % 2) as u64)?;
            let me = comm.group_rank() as u8;
            let data: Vec<Vec<u8>> = (0..comm.size()).map(|d| vec![me, d as u8]).collect();
            rk.alltoallv_burst_in(&comm, data)
        })
        .unwrap();
        for (r, received) in rep.results.iter().enumerate() {
            assert_eq!(received.len(), 2);
            let my_grank = (r / 2) as u8;
            for (src, msg) in received.iter().enumerate() {
                assert_eq!(msg, &vec![src as u8, my_grank], "rank {r} from {src}");
            }
        }
    }

    #[test]
    fn singleton_groups_work() {
        let rep = run(3, cfg(), |rk| {
            let comm = rk.split(rk.rank() as u64)?; // everyone alone
            rk.barrier_in(&comm)?;
            let s = rk.allreduce_u64_in(&comm, 7, ReduceOp::Sum)?;
            let a2a = rk.alltoallv_burst_in(&comm, vec![vec![9]])?;
            Ok((comm.size(), s, a2a))
        })
        .unwrap();
        for (size, s, a2a) in rep.results {
            assert_eq!(size, 1);
            assert_eq!(s, 7);
            assert_eq!(a2a, vec![vec![9]]);
        }
    }

    #[test]
    fn repeated_group_collectives_do_not_mix_generations() {
        let rep = run(4, cfg(), |rk| {
            let comm = rk.split((rk.rank() % 2) as u64)?;
            let mut sums = Vec::new();
            for round in 0..20u64 {
                sums.push(rk.allreduce_u64_in(&comm, round + rk.rank() as u64, ReduceOp::Sum)?);
            }
            Ok(sums)
        })
        .unwrap();
        for (r, sums) in rep.results.iter().enumerate() {
            for (round, &s) in sums.iter().enumerate() {
                let peers: u64 = if r % 2 == 0 { 2 } else { 1 + 3 };
                assert_eq!(s, 2 * round as u64 + peers, "rank {r} round {round}");
            }
        }
    }

    /// The two-level exchange must return exactly what the flat burst
    /// returns, for every (nprocs, ppn) shape, including ragged nodes.
    #[test]
    fn hier_alltoall_matches_flat_burst_bytes() {
        for (nprocs, ppn) in [(4, 2), (6, 4), (8, 4), (5, 5), (7, 3)] {
            let topo_cfg = SimConfig {
                topology: Some(crate::topology::Topology::blocked(nprocs, ppn)),
                ..Default::default()
            };
            let mk_data = |me: usize, n: usize| -> Vec<Vec<u8>> {
                (0..n)
                    .map(|d| {
                        // Ragged, per-pair-unique payloads; some empty.
                        if (me + d).is_multiple_of(3) {
                            Vec::new()
                        } else {
                            (0..(me * 7 + d * 3 + 1))
                                .map(|i| (me * 31 + d * 17 + i) as u8)
                                .collect()
                        }
                    })
                    .collect()
            };
            let hier = run(nprocs, topo_cfg, |rk| {
                let data = mk_data(rk.rank(), rk.nprocs());
                rk.alltoallv_burst_hier(data)
            })
            .unwrap();
            let flat = run(nprocs, cfg(), |rk| {
                let data = mk_data(rk.rank(), rk.nprocs());
                rk.alltoallv_burst(data)
            })
            .unwrap();
            assert_eq!(hier.results, flat.results, "nprocs={nprocs} ppn={ppn}");
        }
    }

    #[test]
    fn hier_alltoall_in_groups_matches_flat() {
        let topo_cfg = SimConfig {
            topology: Some(crate::topology::Topology::blocked(8, 4)),
            ..Default::default()
        };
        let body = |hier: bool| {
            move |rk: &mut Rank| {
                let comm = rk.split((rk.rank() % 2) as u64)?;
                let me = comm.group_rank() as u8;
                let data: Vec<Vec<u8>> = (0..comm.size())
                    .map(|d| vec![me, d as u8, me.wrapping_mul(d as u8)])
                    .collect();
                if hier {
                    rk.alltoallv_burst_hier_in(&comm, data)
                } else {
                    rk.alltoallv_burst_in(&comm, data)
                }
            }
        };
        let hier = run(8, topo_cfg.clone(), body(true)).unwrap();
        let flat = run(8, topo_cfg, body(false)).unwrap();
        assert_eq!(hier.results, flat.results);
    }

    #[test]
    fn hier_alltoall_without_topology_is_the_flat_burst() {
        // Fallback: identical clocks, not just identical bytes.
        let body = |hier: bool| {
            move |rk: &mut Rank| {
                let data: Vec<Vec<u8>> = (0..rk.nprocs()).map(|d| vec![d as u8; 64]).collect();
                let out = if hier {
                    rk.alltoallv_burst_hier(data)?
                } else {
                    rk.alltoallv_burst(data)?
                };
                Ok((out, rk.now()))
            }
        };
        let a = run(4, cfg(), body(true)).unwrap();
        let b = run(4, cfg(), body(false)).unwrap();
        assert_eq!(a.results, b.results);
        assert_eq!(a.clocks, b.clocks);
    }

    #[test]
    fn hier_leaders_cut_off_node_message_count() {
        // 8 ranks, 2 nodes of 4: the flat burst sends 4·4 = 16 off-node
        // messages; the two-level exchange sends exactly one per leader
        // pair plus 3 up-blobs and 3 down-blobs per node = 2 + 12,
        // but the real win is fewer *inter-node* messages.
        let data_of =
            |rk: &Rank| -> Vec<Vec<u8>> { (0..rk.nprocs()).map(|d| vec![d as u8; 128]).collect() };
        let topo = || SimConfig {
            topology: Some(crate::topology::Topology::blocked(8, 4)),
            ..Default::default()
        };
        let hier = run(8, topo(), move |rk| {
            let d = data_of(rk);
            rk.alltoallv_burst_hier(d)
        })
        .unwrap();
        let flat = run(8, topo(), move |rk| {
            let d = data_of(rk);
            rk.alltoallv_burst(d)
        })
        .unwrap();
        assert!(
            hier.fabric.inter_messages < flat.fabric.inter_messages,
            "hier {} >= flat {}",
            hier.fabric.inter_messages,
            flat.fabric.inter_messages
        );
        assert_eq!(hier.fabric.inter_messages, 2, "one blob per leader pair");
    }
}
