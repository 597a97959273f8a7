//! `synth_tcio` and `synth_ocio`: the Table II interleaved `i,d` arrays,
//! SIZE_access = 1, at P = 64 on a blocked topology of 8 ranks per node,
//! written and read back through TCIO (Program 3) or through OCIO
//! (Program 2: combine buffer, vector file view, one collective call).
//!
//! The rank bodies follow `workloads::synthetic::{write,read}_{tcio,ocio}`
//! call for call, with a phase boundary between the calls into each
//! layer.

use crate::common::{self, scan_into, Host, Rep, Virt};
use crate::marks::{Cursor, Marks, Stage};
use bench::Calib;
use mpiio::CollectiveConfig;
use mpisim::{Backend, Datatype, MpiError, Named, Rank, SimConfig, Topology};
use pfs::Pfs;
use std::sync::Arc;
use std::time::Instant;
use tcio::{TcioConfig, TcioFile, TcioMode, TcioStats};
use workloads::synthetic::{self, SynthParams};
use workloads::WlError;

pub const NPROCS: usize = 64;
pub const PPN: usize = 8;
/// Byte-scale divisor of the paper calibration (see `bench::calib`).
pub const SCALE: u64 = 64;
/// LEN_array in paper terms: 4 Mi elements, i.e. 64 Ki real elements per
/// array per rank and a 50 MB simulated file.
pub const LEN_VIRTUAL: u64 = 4 << 20;
const PATH: &str = "/synth.dat";

fn wl(e: impl Into<WlError>) -> MpiError {
    e.into().into_mpi()
}

/// Virtual clock instants one rank saw: write start, write end, read end.
struct Clocks {
    w0: f64,
    w1: f64,
    r1: f64,
}

struct RankOut {
    clocks: Clocks,
    tcio: Vec<TcioStats>,
}

fn tcio_body(
    rk: &mut Rank,
    marks: &Marks,
    fs: &Arc<Pfs>,
    p: &SynthParams,
    tcfg: &TcioConfig,
) -> mpisim::Result<RankOut> {
    let mut c = Cursor::new(marks);
    c.mark(rk, Stage::Setup, "mpisim.run_start")?;
    c.mark(rk, Stage::Setup, "mpisim.barrier")?;
    let arrays = synthetic::gen_arrays(rk, p).map_err(wl)?;
    c.mark(rk, Stage::Setup, "workloads.gen")?;

    let nprocs = rk.nprocs() as u64;
    let me = rk.rank() as u64;
    let bs = p.block_size() as u64;
    let w0 = rk.now();
    let mut f = TcioFile::open(rk, fs, PATH, TcioMode::Write, tcfg.clone()).map_err(wl)?;
    c.mark(rk, Stage::Write, "tcio.open")?;
    let mut calls = 0u64;
    for a in 0..p.accesses() {
        let mut pos = me * bs + a as u64 * bs * nprocs;
        for (j, arr) in arrays.data.iter().enumerate() {
            let n = p.size_access * p.type_sizes[j];
            let start = a * n;
            f.write_at(rk, pos, &arr[start..start + n]).map_err(wl)?;
            pos += n as u64;
            calls += 1;
        }
    }
    c.calls("tcio.write_at", calls);
    c.mark(rk, Stage::Write, "tcio.write_at")?;
    let wstats = f.close(rk).map_err(wl)?;
    drop(arrays);
    c.mark(rk, Stage::Write, "tcio.close")?;
    let w1 = rk.now();

    let mut back = synthetic::zeroed_arrays(rk, p).map_err(wl)?;
    c.mark(rk, Stage::Read, "workloads.alloc")?;
    let mut f = TcioFile::open(rk, fs, PATH, TcioMode::Read, tcfg.clone()).map_err(wl)?;
    c.mark(rk, Stage::Read, "tcio.open")?;
    let mut cursors: Vec<&mut [u8]> = back.data.iter_mut().map(|a| a.as_mut_slice()).collect();
    let mut calls = 0u64;
    for a in 0..p.accesses() {
        let mut pos = me * bs + a as u64 * bs * nprocs;
        for (j, ts) in p.type_sizes.iter().enumerate() {
            let n = p.size_access * ts;
            let (piece, rest) = std::mem::take(&mut cursors[j]).split_at_mut(n);
            cursors[j] = rest;
            f.read_at(rk, pos, piece).map_err(wl)?;
            pos += n as u64;
            calls += 1;
        }
    }
    c.calls("tcio.read_at", calls);
    c.mark(rk, Stage::Read, "tcio.read_at")?;
    f.fetch(rk).map_err(wl)?;
    c.mark(rk, Stage::Read, "tcio.fetch")?;
    let rstats = f.close(rk).map_err(wl)?;
    c.mark(rk, Stage::Read, "tcio.close")?;
    synthetic::verify_arrays(rk.rank(), p, &back).map_err(wl)?;
    c.mark(rk, Stage::Read, "workloads.verify")?;
    let r1 = rk.now();
    rk.note_mem_peak();
    Ok(RankOut {
        clocks: Clocks { w0, w1, r1 },
        tcio: vec![wstats, rstats],
    })
}

/// The OCIO file view: etype = one interleaved block, filetype = a vector
/// striding over `nprocs` blocks.
fn ocio_view(p: &SynthParams, nprocs: usize) -> (mpisim::Committed, mpisim::Committed) {
    let etype = Datatype::contiguous(p.block_size(), Datatype::named(Named::Byte));
    let ftype = Datatype::vector(p.accesses(), 1, nprocs as isize, etype.clone());
    (etype.commit(), ftype.commit())
}

fn ocio_body(
    rk: &mut Rank,
    marks: &Marks,
    fs: &Arc<Pfs>,
    p: &SynthParams,
    ccfg: &CollectiveConfig,
) -> mpisim::Result<RankOut> {
    let mut c = Cursor::new(marks);
    c.mark(rk, Stage::Setup, "mpisim.run_start")?;
    c.mark(rk, Stage::Setup, "mpisim.barrier")?;
    let arrays = synthetic::gen_arrays(rk, p).map_err(wl)?;
    c.mark(rk, Stage::Setup, "workloads.gen")?;

    let nprocs = rk.nprocs();
    let me = rk.rank() as u64;
    let bs = p.block_size() as u64;
    let per_rank = p.bytes_per_rank();
    let w0 = rk.now();
    // Program 2 steps 1-2: the application-level combine buffer.
    let combine_mem = rk.alloc(per_rank)?;
    rk.note_mem_peak();
    let mut buffer = Vec::with_capacity(per_rank as usize);
    for a in 0..p.accesses() {
        for (j, arr) in arrays.data.iter().enumerate() {
            let n = p.size_access * p.type_sizes[j];
            buffer.extend_from_slice(&arr[a * n..(a + 1) * n]);
        }
    }
    rk.charge_memcpy(buffer.len() as u64);
    drop(arrays);
    c.mark(rk, Stage::Write, "workloads.combine")?;
    let mut f = mpiio::File::open(rk, fs, PATH, mpiio::Mode::WriteOnly).map_err(wl)?;
    c.mark(rk, Stage::Write, "mpiio.open")?;
    let (etype, ftype) = ocio_view(p, nprocs);
    c.mark(rk, Stage::Write, "mpisim.datatype.commit")?;
    f.set_view(rk, me * bs, &etype, &ftype).map_err(wl)?;
    c.mark(rk, Stage::Write, "mpiio.set_view")?;
    mpiio::write_all_at(rk, &mut f, 0, &buffer, ccfg).map_err(wl)?;
    c.mark(rk, Stage::Write, "mpiio.write_all")?;
    f.close(rk).map_err(wl)?;
    drop((buffer, combine_mem));
    c.mark(rk, Stage::Write, "mpiio.close")?;
    let w1 = rk.now();

    let mut back = synthetic::zeroed_arrays(rk, p).map_err(wl)?;
    let combine_mem = rk.alloc(per_rank)?;
    rk.note_mem_peak();
    let mut buffer = vec![0u8; per_rank as usize];
    c.mark(rk, Stage::Read, "workloads.alloc")?;
    let mut f = mpiio::File::open(rk, fs, PATH, mpiio::Mode::ReadOnly).map_err(wl)?;
    c.mark(rk, Stage::Read, "mpiio.open")?;
    let (etype, ftype) = ocio_view(p, nprocs);
    c.mark(rk, Stage::Read, "mpisim.datatype.commit")?;
    f.set_view(rk, me * bs, &etype, &ftype).map_err(wl)?;
    c.mark(rk, Stage::Read, "mpiio.set_view")?;
    mpiio::read_all_at(rk, &mut f, 0, &mut buffer, ccfg).map_err(wl)?;
    c.mark(rk, Stage::Read, "mpiio.read_all")?;
    f.close(rk).map_err(wl)?;
    c.mark(rk, Stage::Read, "mpiio.close")?;
    let mut cursor = 0usize;
    for a in 0..p.accesses() {
        for (j, arr) in back.data.iter_mut().enumerate() {
            let n = p.size_access * p.type_sizes[j];
            arr[a * n..(a + 1) * n].copy_from_slice(&buffer[cursor..cursor + n]);
            cursor += n;
        }
    }
    rk.charge_memcpy(cursor as u64);
    drop((buffer, combine_mem));
    synthetic::verify_arrays(rk.rank(), p, &back).map_err(wl)?;
    c.mark(rk, Stage::Read, "workloads.verify")?;
    let r1 = rk.now();
    rk.note_mem_peak();
    Ok(RankOut {
        clocks: Clocks { w0, w1, r1 },
        tcio: Vec::new(),
    })
}

/// One repetition: set up, write, read back, verify, scan.
pub fn rep(ocio: bool, traced: bool) -> Result<Rep, String> {
    let t_start = Instant::now();
    let calib = Calib::paper(SCALE);
    let len_real = (LEN_VIRTUAL / SCALE) as usize;
    let p = SynthParams::with_types("i,d", len_real, 1).map_err(|e| e.to_string())?;
    let file_size = p.file_size(NPROCS);
    let nodes = NPROCS.div_ceil(PPN);
    let sim = SimConfig {
        backend: Backend::Event,
        topology: Some(Topology::blocked(NPROCS, PPN)),
        trace: traced,
        metrics: traced,
        ..calib.sim_config_unbudgeted()
    };
    let fs = Pfs::new(NPROCS, calib.pfs.clone()).map_err(|e| e.to_string())?;
    let tcfg = TcioConfig::for_file_size_with_segment(file_size, NPROCS, calib.segment_size);
    let ccfg = CollectiveConfig {
        cb_nodes: Some(nodes),
        cb_buffer: Some(bench::ablation::sweep_cb_buffer(file_size, nodes)),
        req_agg: true,
        pipeline: true,
        ..CollectiveConfig::default()
    };
    let mut host = Host {
        pre_s: t_start.elapsed().as_secs_f64(),
        ..Host::default()
    };
    let marks = Marks::start();
    let run = mpisim::run(NPROCS, sim, |rk| {
        if ocio {
            ocio_body(rk, &marks, &fs, &p, &ccfg)
        } else {
            tcio_body(rk, &marks, &fs, &p, &tcfg)
        }
    });
    let returned_s = marks.elapsed_s();
    let sim_rep = run.map_err(|e| format!("simulation failed: {e}"))?;
    host.take_marks(&marks, returned_s);

    let span = |f: fn(&Clocks) -> f64| {
        sim_rep
            .results
            .iter()
            .map(|o| f(&o.clocks))
            .fold(0.0f64, f64::max)
    };
    let write_s = span(|c| c.w1 - c.w0);
    let read_s = span(|c| c.r1 - c.w1);
    let job_s = span(|c| c.r1 - c.w0);
    let mem_peak = sim_rep.stats.iter().map(|s| s.mem_peak).max().unwrap_or(0);
    let mut virt = Virt {
        write_mbps: calib.throughput_mbs(file_size, write_s),
        read_mbps: calib.throughput_mbs(file_size, read_s),
        mem_peak_mb: calib.virtual_bytes(mem_peak) as f64 / 1e6,
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
    host.bytes_moved = 2 * file_size + host.scan_bytes;
    drop(sim_rep);
    host.total_s = t_start.elapsed().as_secs_f64();
    Ok(Rep { host, virt, traced })
}
