//! `art_tcio`: ART dump plus restart through TCIO at P = 1024, the
//! paper's largest scale, with the Table IV segment-length shape (normal
//! lengths, 4 segments per rank, mu = 64 cells, sigma scaled with mu).
//!
//! The rank body follows `workloads::art::{dump, restart}` call for call:
//! every tree record goes out as its header, flag and variable arrays,
//! one `TcioFile::write_at` each, and comes back with one `read_at` each.

use crate::common::{self, scan_into, Host, Rep, Virt};
use crate::marks::{Cursor, Marks, Stage};
use bench::Calib;
use mpisim::{Backend, MpiError, Rank, SimConfig};
use pfs::Pfs;
use std::sync::Arc;
use std::time::Instant;
use tcio::{TcioConfig, TcioFile, TcioMode, TcioStats};
use workloads::art::{self, ArtConfig, ArtPlan, FttTree};
use workloads::WlError;

pub const NPROCS: usize = 1024;
pub const SEGMENTS_PER_RANK: usize = 4;
pub const MU: f64 = 64.0;
const PATH: &str = "/art.dat";

fn wl(e: impl Into<WlError>) -> MpiError {
    e.into().into_mpi()
}

/// Table IV shape at mu = 64: sigma keeps Table IV's sigma/mu ratio.
pub fn config(seed: u64) -> ArtConfig {
    let base = ArtConfig::default();
    ArtConfig {
        num_segments: SEGMENTS_PER_RANK * NPROCS,
        mu: MU,
        sigma: base.sigma * MU / base.mu,
        seed,
        ..base
    }
}

/// Lengths of the pieces one record is written in: the header, then per
/// level the flag array and each variable array.
fn piece_lens(t: &FttTree, vars: usize, out: &mut Vec<usize>) {
    out.push(t.header_size() as usize);
    for l in 0..t.levels() {
        out.push(t.flags_size(l) as usize);
        out.extend(std::iter::repeat_n(t.var_size(l) as usize, vars));
    }
}

struct RankOut {
    w0: f64,
    w1: f64,
    r1: f64,
    bytes: u64,
    tcio: Vec<TcioStats>,
}

fn body(
    rk: &mut Rank,
    marks: &Marks,
    fs: &Arc<Pfs>,
    cfg: &ArtConfig,
    plan: &ArtPlan,
) -> mpisim::Result<RankOut> {
    let mut c = Cursor::new(marks);
    c.mark(rk, Stage::Setup, "mpisim.run_start")?;
    c.mark(rk, Stage::Setup, "mpisim.barrier")?;

    let nprocs = rk.nprocs();
    let vars = cfg.ftt.num_vars;
    // This rank's trees, their serialized records and the piece lengths.
    let mine = art::my_segments(plan, rk.rank(), nprocs);
    let mut trees: Vec<(usize, Vec<FttTree>)> = Vec::with_capacity(mine.len());
    let mut records: Vec<Vec<u8>> = Vec::new();
    let mut lens = Vec::new();
    let mut seg_sizes = Vec::with_capacity(mine.len());
    for &s in &mine {
        let first = plan.seg_cell_start[s];
        let ts: Vec<FttTree> = (0..plan.seg_lens[s] as u64)
            .map(|i| FttTree::generate(first + i, &cfg.ftt))
            .collect();
        let mut size = 0u64;
        for t in &ts {
            let rec = t.record(vars);
            size += rec.len() as u64;
            piece_lens(t, vars, &mut lens);
            records.push(rec);
        }
        seg_sizes.push(size);
        trees.push((s, ts));
    }
    c.mark(rk, Stage::Write, "workloads.gen")?;

    // Global layout: allgather every rank's segment sizes, prefix-sum.
    let payload: Vec<u8> = seg_sizes.iter().flat_map(|b| b.to_le_bytes()).collect();
    let gathered = rk.allgather(&payload)?;
    let nsegs = plan.seg_lens.len();
    let mut seg_bytes = vec![0u64; nsegs];
    for (r, buf) in gathered.iter().enumerate() {
        for (k, chunk) in buf.chunks_exact(8).enumerate() {
            seg_bytes[r + k * nprocs] = u64::from_le_bytes(chunk.try_into().expect("u64 chunk"));
        }
    }
    let mut seg_off = Vec::with_capacity(nsegs);
    let mut total = 0u64;
    for &b in &seg_bytes {
        seg_off.push(total);
        total += b;
    }
    let my_bytes: u64 = seg_sizes.iter().sum();
    c.mark(rk, Stage::Write, "mpisim.allgather")?;

    let tcfg = TcioConfig::for_file_size(total, nprocs);
    let w0 = rk.now();
    let mut f = TcioFile::open(rk, fs, PATH, TcioMode::Write, tcfg.clone()).map_err(wl)?;
    c.mark(rk, Stage::Write, "tcio.open")?;
    let mut piece = lens.iter();
    let mut rec = records.iter();
    for (s, ts) in &trees {
        let mut off = seg_off[*s];
        for _ in ts {
            let bytes = rec.next().expect("one record per tree");
            let mut at = 0usize;
            while at < bytes.len() {
                let n = *piece.next().expect("pieces tile the record");
                f.write_at(rk, off, &bytes[at..at + n]).map_err(wl)?;
                off += n as u64;
                at += n;
            }
        }
    }
    c.calls("tcio.write_at", lens.len() as u64);
    c.mark(rk, Stage::Write, "tcio.write_at")?;
    let wstats = f.close(rk).map_err(wl)?;
    drop(records);
    c.mark(rk, Stage::Write, "tcio.close")?;
    let w1 = rk.now();

    let _arena_mem = rk.alloc(my_bytes)?;
    rk.note_mem_peak();
    let mut arena = vec![0u8; my_bytes as usize];
    c.mark(rk, Stage::Read, "workloads.alloc")?;
    let mut f = TcioFile::open(rk, fs, PATH, TcioMode::Read, tcfg).map_err(wl)?;
    c.mark(rk, Stage::Read, "tcio.open")?;
    let mut rest = arena.as_mut_slice();
    let mut piece = lens.iter();
    for (s, ts) in &trees {
        let mut off = seg_off[*s];
        for t in ts {
            let mut left = t.record_size(vars) as usize;
            while left > 0 {
                let n = *piece.next().expect("pieces tile the record");
                let (dst, tail) = std::mem::take(&mut rest).split_at_mut(n);
                rest = tail;
                f.read_at(rk, off, dst).map_err(wl)?;
                off += n as u64;
                left -= n;
            }
        }
    }
    c.calls("tcio.read_at", lens.len() as u64);
    c.mark(rk, Stage::Read, "tcio.read_at")?;
    f.fetch(rk).map_err(wl)?;
    c.mark(rk, Stage::Read, "tcio.fetch")?;
    let rstats = f.close(rk).map_err(wl)?;
    c.mark(rk, Stage::Read, "tcio.close")?;
    let mut pos = 0usize;
    for (s, ts) in &trees {
        for t in ts {
            let want = t.record(vars);
            if arena[pos..pos + want.len()] != want[..] {
                return Err(wl(WlError::Mismatch(format!(
                    "segment {s} tree {} differs after restart",
                    t.cell_id
                ))));
            }
            pos += want.len();
        }
    }
    c.mark(rk, Stage::Read, "workloads.verify")?;
    let r1 = rk.now();
    rk.note_mem_peak();
    Ok(RankOut {
        w0,
        w1,
        r1,
        bytes: my_bytes,
        tcio: vec![wstats, rstats],
    })
}

/// One repetition: set up, dump, restart, verify, scan.
pub fn rep(seed: u64, traced: bool) -> Result<Rep, String> {
    let t_start = Instant::now();
    let calib = Calib::unscaled();
    let cfg = config(seed);
    let plan = art::plan(&cfg);
    let sim = SimConfig {
        backend: Backend::Event,
        trace: traced,
        metrics: traced,
        ..calib.sim_config_unbudgeted()
    };
    let fs = Pfs::new(NPROCS, calib.pfs.clone()).map_err(|e| e.to_string())?;
    let mut host = Host {
        pre_s: t_start.elapsed().as_secs_f64(),
        ..Host::default()
    };
    let marks = Marks::start();
    let run = mpisim::run(NPROCS, sim, |rk| body(rk, &marks, &fs, &cfg, &plan));
    let returned_s = marks.elapsed_s();
    let sim_rep = run.map_err(|e| format!("simulation failed: {e}"))?;
    host.take_marks(&marks, returned_s);

    let span = |f: fn(&RankOut) -> f64| sim_rep.results.iter().map(f).fold(0.0f64, f64::max);
    let write_s = span(|o| o.w1 - o.w0);
    let read_s = span(|o| o.r1 - o.w1);
    let job_s = span(|o| o.r1 - o.w0);
    let bytes: u64 = sim_rep.results.iter().map(|o| o.bytes).sum();
    let mem_peak = sim_rep.stats.iter().map(|s| s.mem_peak).max().unwrap_or(0);
    let mut virt = Virt {
        write_mbps: calib.throughput_mbs(bytes, write_s),
        read_mbps: calib.throughput_mbs(bytes, read_s),
        mem_peak_mb: mem_peak as f64 / 1e6,
        job_latency_s: vec![job_s],
        extra: sim_rep.clocks.iter().map(|c| c.to_bits()).collect(),
        files: Vec::new(),
    };
    let traced = if traced {
        let tcio = sim_rep.results.iter().flat_map(|o| &o.tcio);
        Some(common::traced(&sim_rep, &fs, tcio, &mut host)?)
    } else {
        None
    };
    scan_into(&mut host, &mut virt, &fs, sim_rep.makespan)?;
    host.bytes_moved = 2 * bytes + host.scan_bytes;
    drop(sim_rep);
    host.total_s = t_start.elapsed().as_secs_f64();
    Ok(Rep { host, virt, traced })
}
