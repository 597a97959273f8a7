//! # mpisim — a simulated MPI runtime
//!
//! This crate stands in for a real MPI library on a real cluster. It exists
//! because the paper this repository reproduces — *A Transparent Collective
//! I/O Implementation* (IPDPS 2013) — was evaluated on 64–1024 MPI processes
//! of the TACC Lonestar machine, and neither that machine nor a mature
//! MPI-IO-capable Rust binding is available.
//!
//! Design:
//!
//! * **Ranks are cooperative tasks.** Each rank runs the user closure with
//!   a [`Rank`] handle; data movement between ranks is real byte movement,
//!   so everything built on top (collective I/O, TCIO, the workloads) is
//!   end-to-end checkable. Two interchangeable execution backends exist
//!   ([`runtime::Backend`]): the default discrete-event core drives every
//!   rank as a fiber under one deterministic virtual-time loop (16k+ ranks
//!   on one machine); the legacy backend runs one OS thread per rank. Both
//!   are bit-identical in every observable output.
//! * **Time is virtual.** Each rank owns an `f64` clock. Sends stamp
//!   messages with modeled arrival times ([`net::NetConfig`]); receives and
//!   collectives reconcile clocks; the report's *makespan* is the maximum
//!   final clock. Throughput figures in the benchmark harness are
//!   `bytes / makespan`.
//! * **The network model is where the paper's effects live**: per-message
//!   latency/bandwidth, per-rank NIC serialization (incast), LRU connection
//!   caching with setup costs, and a burst-congestion term. These produce
//!   the OCIO-vs-TCIO crossover of Fig. 5 for the documented reasons
//!   (connection growth and synchronized traffic bursts).
//!
//! The public surface mirrors the MPI feature subset the paper needs:
//! derived datatypes ([`datatype`]), point-to-point with wildcards and
//! nonblocking requests, collectives, and passive-target one-sided
//! communication ([`rma`]) with gathered (indexed-datatype) transfers.

pub mod collectives;
pub mod datatype;
pub mod error;
mod event;
mod fiber;
pub mod mem;
pub mod metrics;
pub mod net;
pub mod p2p;
pub mod rma;
pub mod runtime;
pub mod stats;
pub mod subcomm;
pub mod timeline;
pub mod topology;
pub mod trace;

pub use collectives::log2ceil;
pub use datatype::{Committed, Datatype, Named, Order};
pub use error::{MpiError, Result, SimError};
pub use mem::{MemGuard, MemTracker};
pub use metrics::{Hist, RankMetrics, Registry};
pub use net::{FabricStatsSnapshot, NetConfig, Transfer};
pub use p2p::{Received, Request, Tag};
pub use rma::{Epoch, LockKind, Window};
pub use runtime::{run, Backend, DeferredIo, IoPipeline, Rank, ReduceOp, SimConfig, SimReport};
pub use stats::RankStats;
pub use subcomm::SubComm;
pub use topology::Topology;
pub use trace::{chrome_trace_json, OstRow, Phase, PhaseTotals, RankTrace, Span, TraceReport};
