//! Host-clock phase boundaries, stamped from inside the simulation.
//!
//! The rank body calls each layer's public functions in the workload's
//! order and puts a barrier at every boundary. Each rank counts itself in
//! as it enters that barrier, and the last one to arrive stamps the host
//! clock: that stamp closes the phase. All ranks run as fibers on one OS
//! thread (the event core), and no rank starts the next phase before the
//! barrier completes, so the interval between two closes holds only that
//! phase's work. A boundary costs one atomic add per rank and one clock
//! read, so every run carries them: the untraced and traced runs execute
//! identical barriers, and their virtual outputs stay comparable.

use mpisim::Rank;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Which end-to-end phase a boundary's interval counts towards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Setup,
    Write,
    Read,
}

/// Most boundaries one rank body may mark.
const MAX_MARKS: usize = 32;

/// Shared boundary table of one simulation.
pub struct Marks {
    base: Instant,
    /// Ranks that reached each boundary.
    arrived: Vec<AtomicUsize>,
    /// Host ns after `base` at which each boundary closed (0 = open).
    close: Vec<AtomicU64>,
    labels: Vec<OnceLock<(Stage, &'static str)>>,
    /// Per-call counts the body reports, keyed by label.
    calls: Mutex<Vec<(&'static str, u64)>>,
}

impl Marks {
    /// Start the table; the first phase is timed from this instant.
    pub fn start() -> Marks {
        Marks {
            base: Instant::now(),
            arrived: (0..MAX_MARKS).map(|_| AtomicUsize::new(0)).collect(),
            close: (0..MAX_MARKS).map(|_| AtomicU64::new(0)).collect(),
            labels: (0..MAX_MARKS).map(|_| OnceLock::new()).collect(),
            calls: Mutex::new(Vec::new()),
        }
    }

    /// The phases closed so far, in order: `(stage, label, seconds)`.
    pub fn phases(&self) -> Vec<(Stage, &'static str, f64)> {
        let mut out = Vec::new();
        let mut prev = 0u64;
        for (c, l) in self.close.iter().zip(&self.labels) {
            let Some(&(stage, label)) = l.get() else {
                break;
            };
            let t = c.load(Ordering::Relaxed);
            out.push((stage, label, t.saturating_sub(prev) as f64 * 1e-9));
            prev = t;
        }
        out
    }

    /// Seconds since [`Marks::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.base.elapsed().as_secs_f64()
    }

    /// Seconds from [`Marks::start`] to the last closed boundary.
    pub fn last_close_s(&self) -> f64 {
        let last = self.close.iter().map(|c| c.load(Ordering::Relaxed)).max();
        last.unwrap_or(0) as f64 * 1e-9
    }

    /// Calls made under each label, summed over ranks.
    pub fn calls(&self) -> Vec<(&'static str, u64)> {
        self.calls.lock().expect("calls table poisoned").clone()
    }

    fn add_calls(&self, label: &'static str, n: u64) {
        let mut calls = self.calls.lock().expect("calls table poisoned");
        match calls.iter_mut().find(|(l, _)| *l == label) {
            Some((_, c)) => *c += n,
            None => calls.push((label, n)),
        }
    }
}

/// One rank's cursor into the shared boundary table. Every rank marks the
/// same boundaries in the same order.
pub struct Cursor<'m> {
    marks: &'m Marks,
    next: usize,
}

impl<'m> Cursor<'m> {
    pub fn new(marks: &'m Marks) -> Cursor<'m> {
        Cursor { marks, next: 0 }
    }

    /// Close the phase `label` on this rank: count in (the last rank in
    /// stamps the close), then barrier.
    pub fn mark(&mut self, rk: &mut Rank, stage: Stage, label: &'static str) -> mpisim::Result<()> {
        let k = self.next;
        assert!(k < MAX_MARKS, "more than {MAX_MARKS} phase boundaries");
        self.next += 1;
        let stored = self.marks.labels[k].get_or_init(|| (stage, label));
        debug_assert_eq!(stored.1, label, "ranks disagree on boundary {k}");
        if self.marks.arrived[k].fetch_add(1, Ordering::Relaxed) + 1 == rk.nprocs() {
            let ns = (self.marks.base.elapsed().as_nanos() as u64).max(1);
            self.marks.close[k].store(ns, Ordering::Relaxed);
        }
        rk.barrier()
    }

    /// Record `n` calls made by this rank in the phase `label`.
    pub fn calls(&self, label: &'static str, n: u64) {
        self.marks.add_calls(label, n);
    }
}
