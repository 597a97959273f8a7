//! What one repetition of a workload yields, and the checks shared by
//! every workload: the file scan that hashes every byte the run left in
//! the file system, and the traced run's registry and critical path.

use crate::marks::{Marks, Stage};
use insight::{Analyzer, Category};
use mpisim::{RankTrace, Registry};
use pfs::Pfs;
use std::time::Instant;

/// Host-clock record of one repetition: wall seconds, scaled to the
/// nominal machine by [`Host::scale_to_nominal`].
#[derive(Debug, Clone, Default)]
pub struct Host {
    /// Before `mpisim::run`: file system, plan and configuration build.
    pub pre_s: f64,
    /// Phase intervals closed by boundary barriers, in order.
    pub phases: Vec<(Stage, &'static str, f64)>,
    /// Calls made in a phase, summed over ranks (for ns-per-call).
    pub calls: Vec<(&'static str, u64)>,
    /// From the last boundary until `mpisim::run` returned.
    pub teardown_s: f64,
    /// Post-run rebuild of relocated extents (fleet only).
    pub rebuild_s: f64,
    /// Critical-path analysis (traced repetitions only).
    pub analyze_s: f64,
    /// File scan: read back every stored byte and hash it.
    pub scan_s: f64,
    pub scan_bytes: u64,
    /// Simulated file bytes the timed phases wrote, read back and scanned.
    pub bytes_moved: u64,
    /// Wall time of the whole repetition.
    pub total_s: f64,
    /// The reference kernel's wall time just before the repetition.
    pub reference_s: f64,
}

impl Host {
    /// Scale every duration from this machine's wall seconds to seconds
    /// on the nominal machine (see [`crate::calib`]).
    pub fn scale_to_nominal(&mut self, reference_s: f64) {
        let k = crate::calib::NOMINAL_S / reference_s;
        for s in [
            &mut self.pre_s,
            &mut self.teardown_s,
            &mut self.rebuild_s,
            &mut self.analyze_s,
            &mut self.scan_s,
            &mut self.total_s,
        ] {
            *s *= k;
        }
        for p in &mut self.phases {
            p.2 *= k;
        }
        self.reference_s = reference_s;
    }

    /// Fill the phase table from a finished simulation's boundaries;
    /// `returned_s` is when `mpisim::run` returned, on the marks' clock.
    pub fn take_marks(&mut self, marks: &Marks, returned_s: f64) {
        self.phases = marks.phases();
        self.calls = marks.calls();
        self.teardown_s = (returned_s - marks.last_close_s()).max(0.0);
    }

    pub fn stage_s(&self, stage: Stage) -> f64 {
        let phases: f64 = self
            .phases
            .iter()
            .filter(|p| p.0 == stage)
            .map(|p| p.2)
            .sum();
        match stage {
            Stage::Setup => self.pre_s + phases,
            Stage::Write => phases,
            Stage::Read => phases + self.scan_s,
        }
    }

    /// Seconds spent in phases labelled `label` (summed when a label
    /// closes more than one phase, e.g. the write and read opens).
    pub fn phase_s(&self, label: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.1 == label)
            .map(|p| p.2)
            .sum()
    }

    pub fn calls_of(&self, label: &str) -> u64 {
        self.calls
            .iter()
            .filter(|c| c.0 == label)
            .map(|c| c.1)
            .sum()
    }

    /// Wall time no phase above accounts for.
    pub fn unattributed_s(&self) -> f64 {
        let phases: f64 = self.phases.iter().map(|p| p.2).sum();
        self.total_s
            - self.pre_s
            - phases
            - self.teardown_s
            - self.rebuild_s
            - self.analyze_s
            - self.scan_s
    }
}

/// Virtual-clock outputs of one repetition. All of them are deterministic
/// for a seed and must repeat bit for bit.
#[derive(Debug, Clone, Default)]
pub struct Virt {
    /// Paper-equivalent MB/s of the write and read phases.
    pub write_mbps: f64,
    pub read_mbps: f64,
    /// Largest simulated per-rank memory peak, paper-equivalent MB.
    pub mem_peak_mb: f64,
    /// Job latencies in virtual seconds (one per job).
    pub job_latency_s: Vec<f64>,
    /// Every other virtual output that must repeat: clocks, makespan,
    /// per-job records, defense counters.
    pub extra: Vec<u64>,
    /// `(path, hash)` of every file the run left behind.
    pub files: Vec<(String, u64)>,
}

impl Virt {
    /// One number that changes when any virtual output or file byte does.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Hasher::new();
        for x in [self.write_mbps, self.read_mbps, self.mem_peak_mb] {
            h.word(x.to_bits());
        }
        for x in &self.job_latency_s {
            h.word(x.to_bits());
        }
        for &x in &self.extra {
            h.word(x);
        }
        for (name, fh) in &self.files {
            h.bytes(name.as_bytes());
            h.word(*fh);
        }
        h.finish()
    }
}

/// What only the traced run yields.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    pub registry: Registry,
    /// Critical-path seconds per category, empty when the run kept no
    /// spans (the fleet).
    pub path: Vec<(Category, f64)>,
    pub imbalance: f64,
    pub overlap_frac: f64,
}

impl Traced {
    /// Run the critical-path analysis over `traces` and assert its
    /// conservation: the path segments tile the makespan exactly. Returns
    /// the host seconds the analysis took.
    pub fn analyze(&mut self, traces: &[RankTrace]) -> Result<f64, String> {
        let t0 = Instant::now();
        let analyzer = Analyzer::new(traces);
        let cp = analyzer.critical_path();
        let overlap = analyzer.overlap_report();
        let analyze_s = t0.elapsed().as_secs_f64();
        if cp.truncated || cp.residual().abs() > 1e-9 * cp.makespan.max(1.0) {
            return Err(format!(
                "critical path does not conserve time: residual {:e} of {} s (truncated: {})",
                cp.residual(),
                cp.makespan,
                cp.truncated
            ));
        }
        let b = cp.breakdown();
        self.path = Category::ALL.iter().map(|&c| (c, b.get(c))).collect();
        self.imbalance = cp.imbalance();
        self.overlap_frac = overlap.fraction();
        Ok(analyze_s)
    }
}

/// One finished repetition.
pub struct Rep {
    pub host: Host,
    pub virt: Virt,
    pub traced: Option<Traced>,
}

/// Word-at-a-time 64-bit FNV-style hash: enough to tell two byte streams
/// apart, and fast enough that hashing stays a small share of a scan.
pub struct Hasher(u64);

impl Hasher {
    pub fn new() -> Hasher {
        Hasher(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(23);
    }

    pub fn bytes(&mut self, b: &[u8]) {
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.word(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Read every file back through [`Pfs::read_at`] in stripe-size pieces,
/// starting at virtual time `now`, and hash it. `check` sees each piece
/// with its file offset and may reject it. Returns the hashes in path
/// order and the bytes scanned.
pub fn scan_files(
    fs: &Pfs,
    now: f64,
    mut check: impl FnMut(&str, u64, &[u8]) -> Result<(), String>,
) -> Result<(Vec<(String, u64)>, u64), String> {
    let piece = fs.config().stripe_size as usize;
    let mut buf = vec![0u8; piece];
    let mut t = now;
    let mut total = 0u64;
    let mut out = Vec::new();
    for path in fs.list() {
        let id = fs.open(&path).map_err(|e| format!("{path}: {e}"))?;
        let len = fs.stat(id).map_err(|e| format!("{path}: {e}"))?.len;
        let mut h = Hasher::new();
        let mut off = 0u64;
        while off < len {
            let n = piece.min((len - off) as usize);
            let chunk = &mut buf[..n];
            t = fs
                .read_at(id, 0, off, chunk, t)
                .map_err(|e| format!("{path} at {off}: {e}"))?;
            check(&path, off, chunk)?;
            h.bytes(chunk);
            off += n as u64;
        }
        total += len;
        out.push((path, h.finish()));
    }
    Ok((out, total))
}

/// What a traced single-job simulation yields: the registry (runtime,
/// fabric, file system, and every TCIO handle's counters) and the
/// critical path, whose analysis time lands in `host`. Call before the
/// file scan, whose reads are not the workload's.
pub fn traced<'a, T>(
    rep: &mpisim::SimReport<T>,
    fs: &Pfs,
    tcio: impl Iterator<Item = &'a tcio::TcioStats>,
    host: &mut Host,
) -> Result<Traced, String> {
    let mut registry = Registry::new();
    registry.export_sim_report(rep);
    fs.export_metrics(&mut registry);
    for s in tcio {
        s.export_metrics(&mut registry);
    }
    let mut t = Traced {
        registry,
        ..Traced::default()
    };
    host.analyze_s = t.analyze(&rep.traces)?;
    Ok(t)
}

/// Scan the files of a finished single-job simulation into `host`/`virt`.
pub fn scan_into(host: &mut Host, virt: &mut Virt, fs: &Pfs, now: f64) -> Result<(), String> {
    let t0 = Instant::now();
    let (files, bytes) = scan_files(fs, now, |_, _, _| Ok(()))?;
    host.scan_s = t0.elapsed().as_secs_f64();
    host.scan_bytes = bytes;
    virt.files = files;
    Ok(())
}
