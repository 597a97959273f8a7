//! Two-phase collective I/O — the paper's OCIO baseline, as implemented by
//! ROMIO (§III.A): [`write_all_at`] and [`read_all_at`] over the world,
//! one 12-byte header per file extent on the wire (or per merged extent
//! under [`CollectiveConfig::req_agg`]). The rounds themselves live in
//! the crate's internal two-phase `engine` module.
//!
//! `cb_buffer = None` reproduces the paper's observed behaviour (the whole
//! domain is buffered at once — their memory accounting in §V.B.2b implies
//! an unchunked exchange). `cb_buffer = Some(bytes)` enables ROMIO-style
//! multi-round chunking and is exercised by the ablation benches.

use crate::engine::{Encoding, Engine, Scope};
use crate::error::{IoError, Result};
use crate::file::File;
use mpisim::Rank;

/// Tuning knobs of the two-phase implementation (ROMIO hints).
#[derive(Debug, Clone, Default)]
pub struct CollectiveConfig {
    /// Number of aggregator ranks (`cb_nodes`); `None` = all ranks.
    pub cb_nodes: Option<usize>,
    /// Collective buffer size per aggregator; `None` = unchunked (whole
    /// domain in one round — the paper's behaviour).
    pub cb_buffer: Option<u64>,
    /// Round file-domain boundaries up to this alignment (e.g. the PFS
    /// stripe size, per Liao & Choudhary's lock-boundary partitioning).
    pub align: Option<u64>,
    /// Two-level exchange (Kang et al.): pre-aggregate pieces on a node
    /// leader over the cheap intra-node links so only one rank per node
    /// participates in the inter-node all-to-all burst. A no-op (falls
    /// back to the flat burst) when the simulation has no topology.
    pub intra_agg: bool,
    /// Full intra-node *request* aggregation (Kang et al., going beyond
    /// `intra_agg`'s opaque byte forwarding): node leaders decode their
    /// members' offset–length lists, merge them per aggregator with
    /// adjacent-extent coalescing, and ship one merged list per
    /// (node, aggregator) pair — see [`crate::reqagg`]. Classic two-phase
    /// (`write_all_at`/`read_all_at`) merges semantically; the view-based
    /// and partitioned paths treat this flag as `intra_agg` (view-based
    /// requests are already one interval per aggregator, and the merge
    /// needs world-scope node leaders). Falls back to the flat burst
    /// without a topology.
    pub req_agg: bool,
    /// Pipelined (double-buffered) rounds: an aggregator submits round
    /// k's file I/O, *keeps the completion as a deferred handle*, and
    /// runs round k+1's exchange while the OSTs service round k —
    /// settling the handle only when both collective buffers are in
    /// flight (depth 2) or the round loop ends; reads prefetch round
    /// k+1's request exchange the same way. File bytes are identical
    /// to the serialized path (the storage layer applies data at
    /// submission); only the clock attribution changes. Combine with
    /// `cb_buffer` — a single unchunked round has nothing to overlap.
    pub pipeline: bool,
    /// Adaptive hedged reads: aggregators route window reads through
    /// [`pfs::Pfs::read_at_hedged`], with the per-collective hedge budget
    /// reset at each read phase via [`pfs::Pfs::hedge_scope_begin`]. A
    /// no-op unless the PFS has a health layer attached (and bit-identical
    /// to the plain path until the healthy-latency histograms warm up or a
    /// breaker opens), so the default `false` only matters for
    /// unconfigured stacks.
    pub hedged_reads: bool,
}

/// The classic front-end: world scope, per-extent lists — merged on node
/// leaders when `req_agg` is set and there are nodes to merge on.
fn classic<'a>(rank: &Rank, cfg: &'a CollectiveConfig, sites: [&'static str; 2]) -> Engine<'a> {
    let merged = cfg.req_agg && rank.topology().is_some_and(|t| !t.is_trivial());
    Engine {
        scope: Scope::World,
        enc: if merged {
            Encoding::Merged
        } else {
            Encoding::Extents
        },
        cfg,
        sites,
    }
}

/// Collective write: all ranks must call, each with its own (possibly
/// empty) data at a view-stream `offset`.
pub fn write_all_at(
    rank: &mut Rank,
    file: &mut File,
    offset: u64,
    data: &[u8],
    cfg: &CollectiveConfig,
) -> Result<()> {
    if !file.mode().writable() {
        return Err(IoError::Usage("file is not open for writing".into()));
    }
    classic(rank, cfg, ["ocio_io", "ocio_io_pipe"]).write(rank, file, file.view(), offset, data)
}

/// Collective read: all ranks must call, each filling its own (possibly
/// empty) buffer from a view-stream `offset`.
pub fn read_all_at(
    rank: &mut Rank,
    file: &mut File,
    offset: u64,
    buf: &mut [u8],
    cfg: &CollectiveConfig,
) -> Result<()> {
    if !file.mode().readable() {
        return Err(IoError::Usage("file is not open for reading".into()));
    }
    classic(rank, cfg, ["ocio_read", "ocio_read_pipe"]).read(rank, file, file.view(), offset, buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::{File, Mode};
    use mpisim::{Datatype, Named, SimConfig};
    use pfs::{Pfs, PfsConfig};
    use std::sync::Arc;

    fn to_mpi(e: IoError) -> mpisim::MpiError {
        match e {
            IoError::Mpi(m) => m,
            other => mpisim::MpiError::InvalidDatatype(other.to_string()),
        }
    }

    fn run_interleaved(
        nprocs: usize,
        len_array: usize,
        cfg: CollectiveConfig,
    ) -> (Arc<Pfs>, Vec<u8>) {
        run_interleaved_sim(nprocs, len_array, cfg, SimConfig::default())
    }

    fn run_interleaved_sim(
        nprocs: usize,
        len_array: usize,
        cfg: CollectiveConfig,
        sim: SimConfig,
    ) -> (Arc<Pfs>, Vec<u8>) {
        // The paper's Fig. 2 pattern: block b of the file belongs to rank
        // b % P; rank r writes blocks of 12 bytes filled with (r+1).
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(nprocs, sim, move |rk| {
            let mut f = File::open(rk, &fs2, "/c", Mode::WriteOnly).map_err(to_mpi)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype =
                Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)
                .map_err(to_mpi)?;
            let data = vec![rk.rank() as u8 + 1; 12 * len_array];
            write_all_at(rk, &mut f, 0, &data, &cfg).map_err(to_mpi)?;
            f.close(rk).map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/c").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        (fs, bytes)
    }

    fn check_interleaved(bytes: &[u8], nprocs: usize, len_array: usize) {
        assert_eq!(bytes.len(), 12 * nprocs * len_array);
        for block in 0..nprocs * len_array {
            let expect = (block % nprocs) as u8 + 1;
            assert!(
                bytes[block * 12..(block + 1) * 12]
                    .iter()
                    .all(|&b| b == expect),
                "block {block} corrupted"
            );
        }
    }

    #[test]
    fn write_all_produces_interleaved_file() {
        let (_, bytes) = run_interleaved(4, 8, CollectiveConfig::default());
        check_interleaved(&bytes, 4, 8);
    }

    #[test]
    fn write_all_with_fewer_aggregators() {
        let cfg = CollectiveConfig {
            cb_nodes: Some(2),
            ..Default::default()
        };
        let (_, bytes) = run_interleaved(4, 8, cfg);
        check_interleaved(&bytes, 4, 8);
    }

    #[test]
    fn write_all_chunked_rounds() {
        let cfg = CollectiveConfig {
            cb_buffer: Some(64), // tiny rounds force multi-round exchange
            ..Default::default()
        };
        let (_, bytes) = run_interleaved(4, 8, cfg);
        check_interleaved(&bytes, 4, 8);
    }

    #[test]
    fn write_all_stripe_aligned_domains() {
        let cfg = CollectiveConfig {
            align: Some(1 << 20),
            ..Default::default()
        };
        let (_, bytes) = run_interleaved(4, 8, cfg);
        check_interleaved(&bytes, 4, 8);
    }

    #[test]
    fn two_level_exchange_with_topology_is_byte_identical() {
        let flat = run_interleaved(8, 6, CollectiveConfig::default()).1;
        for ppn in [2, 4] {
            let sim = SimConfig {
                topology: Some(mpisim::Topology::blocked(8, ppn)),
                ..Default::default()
            };
            let cfg = CollectiveConfig {
                intra_agg: true,
                ..Default::default()
            };
            let (_, bytes) = run_interleaved_sim(8, 6, cfg, sim);
            assert_eq!(bytes, flat, "ppn={ppn} diverged from the flat burst");
        }
    }

    fn run_interleaved_report(
        nprocs: usize,
        len_array: usize,
        cfg: CollectiveConfig,
        sim: SimConfig,
    ) -> (Vec<u8>, mpisim::SimReport<()>) {
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, sim, move |rk| {
            let mut f = File::open(rk, &fs2, "/c", Mode::WriteOnly).map_err(to_mpi)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype =
                Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)
                .map_err(to_mpi)?;
            let data = vec![rk.rank() as u8 + 1; 12 * len_array];
            write_all_at(rk, &mut f, 0, &data, &cfg).map_err(to_mpi)?;
            f.close(rk).map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/c").unwrap();
        (fs.snapshot_file(fid).unwrap(), rep)
    }

    #[test]
    fn pipelined_chunked_write_is_byte_identical_and_overlaps() {
        let flat = run_interleaved(
            4,
            8,
            CollectiveConfig {
                cb_buffer: Some(64),
                ..Default::default()
            },
        )
        .1;
        let cfg = CollectiveConfig {
            cb_buffer: Some(64),
            pipeline: true,
            ..Default::default()
        };
        let (bytes, rep) = run_interleaved_report(4, 8, cfg, SimConfig::default());
        assert_eq!(bytes, flat, "pipelining changed the file contents");
        let hidden = rep.aggregate_stats().io_overlap;
        assert!(
            hidden > 0.0,
            "multi-round pipelined write hid no I/O time (io_overlap={hidden})"
        );
    }

    #[test]
    fn pipelined_single_round_still_correct() {
        // Nothing to overlap (one round), but the drain path must still
        // settle the lone deferred handle.
        let cfg = CollectiveConfig {
            pipeline: true,
            ..Default::default()
        };
        let (_, bytes) = run_interleaved(4, 8, cfg);
        check_interleaved(&bytes, 4, 8);
    }

    #[test]
    fn pipelined_read_roundtrips() {
        let nprocs = 4;
        let len_array = 8;
        let (fs, _) = run_interleaved(nprocs, len_array, CollectiveConfig::default());
        let fs2 = Arc::clone(&fs);
        let cfg = CollectiveConfig {
            cb_buffer: Some(64),
            pipeline: true,
            ..Default::default()
        };
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/c", Mode::ReadOnly).map_err(to_mpi)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype =
                Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)
                .map_err(to_mpi)?;
            let mut buf = vec![0u8; 12 * len_array];
            read_all_at(rk, &mut f, 0, &mut buf, &cfg).map_err(to_mpi)?;
            Ok(buf)
        })
        .unwrap();
        for (r, buf) in rep.results.iter().enumerate() {
            assert!(
                buf.iter().all(|&b| b == r as u8 + 1),
                "rank {r} read back foreign data under pipelining"
            );
        }
        assert!(rep.aggregate_stats().io_overlap > 0.0);
    }

    #[test]
    fn req_agg_write_is_byte_identical() {
        let flat = run_interleaved(8, 6, CollectiveConfig::default()).1;
        for ppn in [2, 4] {
            let sim = SimConfig {
                topology: Some(mpisim::Topology::blocked(8, ppn)),
                ..Default::default()
            };
            let cfg = CollectiveConfig {
                req_agg: true,
                cb_nodes: Some(2),
                ..Default::default()
            };
            let (_, bytes) = run_interleaved_sim(8, 6, cfg, sim);
            assert_eq!(
                bytes, flat,
                "ppn={ppn} req-agg diverged from the flat burst"
            );
        }
    }

    #[test]
    fn req_agg_pipelined_chunked_write_is_byte_identical() {
        let flat = run_interleaved(
            8,
            6,
            CollectiveConfig {
                cb_buffer: Some(96),
                ..Default::default()
            },
        )
        .1;
        let sim = SimConfig {
            topology: Some(mpisim::Topology::blocked(8, 4)),
            ..Default::default()
        };
        let cfg = CollectiveConfig {
            cb_buffer: Some(96),
            req_agg: true,
            pipeline: true,
            ..Default::default()
        };
        let (_, bytes) = run_interleaved_sim(8, 6, cfg, sim);
        assert_eq!(
            bytes, flat,
            "req-agg + pipeline diverged from the flat burst"
        );
    }

    #[test]
    fn req_agg_read_roundtrips() {
        let nprocs = 8;
        let len_array = 6;
        let (fs, _) = run_interleaved(nprocs, len_array, CollectiveConfig::default());
        for (pipeline, cb_buffer) in [(false, None), (false, Some(96)), (true, Some(96))] {
            let fs2 = Arc::clone(&fs);
            let sim = SimConfig {
                topology: Some(mpisim::Topology::blocked(8, 4)),
                ..Default::default()
            };
            let cfg = CollectiveConfig {
                cb_nodes: Some(2),
                cb_buffer,
                req_agg: true,
                pipeline,
                ..Default::default()
            };
            let rep = mpisim::run(nprocs, sim, move |rk| {
                let mut f = File::open(rk, &fs2, "/c", Mode::ReadOnly).map_err(to_mpi)?;
                let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
                let ftype =
                    Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone())
                        .commit();
                f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)
                    .map_err(to_mpi)?;
                let mut buf = vec![0u8; 12 * len_array];
                read_all_at(rk, &mut f, 0, &mut buf, &cfg).map_err(to_mpi)?;
                Ok(buf)
            })
            .unwrap();
            for (r, buf) in rep.results.iter().enumerate() {
                assert!(
                    buf.iter().all(|&b| b == r as u8 + 1),
                    "rank {r} read foreign data (pipeline={pipeline}, cb={cb_buffer:?})"
                );
            }
        }
    }

    #[test]
    fn req_agg_intra_node_overwrite_keeps_rank_order() {
        // Ranks 0 and 1 share a node and both write offset 0; MPI leaves
        // overlap order undefined, but our merge mirrors the flat burst's
        // rank-index order: the higher rank's bytes win.
        for req_agg in [false, true] {
            let fs = Pfs::new(4, PfsConfig::default()).unwrap();
            let fs2 = Arc::clone(&fs);
            let sim = SimConfig {
                topology: Some(mpisim::Topology::blocked(4, 2)),
                ..Default::default()
            };
            let cfg = CollectiveConfig {
                req_agg,
                cb_nodes: Some(1),
                ..Default::default()
            };
            mpisim::run(4, sim, move |rk| {
                let mut f = File::open(rk, &fs2, "/ow", Mode::WriteOnly).map_err(to_mpi)?;
                let data = if rk.rank() < 2 {
                    vec![rk.rank() as u8 + 1; 8]
                } else {
                    Vec::new()
                };
                write_all_at(rk, &mut f, 0, &data, &cfg).map_err(to_mpi)?;
                Ok(())
            })
            .unwrap();
            let fid = fs.open("/ow").unwrap();
            let bytes = fs.snapshot_file(fid).unwrap();
            assert!(
                bytes.iter().all(|&b| b == 2),
                "req_agg={req_agg}: expected rank 1's bytes to win, got {bytes:?}"
            );
        }
    }

    #[test]
    fn intra_agg_without_topology_falls_back_to_flat() {
        let cfg = CollectiveConfig {
            intra_agg: true,
            cb_nodes: Some(2),
            ..Default::default()
        };
        let (_, bytes) = run_interleaved(4, 8, cfg);
        check_interleaved(&bytes, 4, 8);
    }

    #[test]
    fn aggregators_spread_one_per_node_first() {
        let sim = SimConfig {
            topology: Some(mpisim::Topology::blocked(8, 4)),
            ..Default::default()
        };
        let rep = mpisim::run(8, sim, move |rk| {
            let cfg = CollectiveConfig {
                cb_nodes: Some(3),
                ..Default::default()
            };
            let r = rk.rank() as u64;
            let doms = crate::engine::compute_domains(rk, Scope::World, r * 10, r * 10 + 10, &cfg)
                .map_err(to_mpi)?
                .unwrap();
            Ok(doms.agg_ranks)
        })
        .unwrap();
        for aggs in &rep.results {
            // Nodes {0..4} and {4..8}: leaders 0 and 4 first, then the
            // second member of node 0 — never two on one node while
            // another node is empty (blind mapping would pick [0, 2, 5]).
            assert_eq!(aggs, &vec![0, 4, 1]);
        }
    }

    #[test]
    fn read_all_roundtrips() {
        let nprocs = 4;
        let len_array = 8;
        let (fs, _) = run_interleaved(nprocs, len_array, CollectiveConfig::default());
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/c", Mode::ReadOnly).map_err(to_mpi)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype =
                Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)
                .map_err(to_mpi)?;
            let mut buf = vec![0u8; 12 * len_array];
            read_all_at(rk, &mut f, 0, &mut buf, &CollectiveConfig::default()).map_err(to_mpi)?;
            Ok(buf)
        })
        .unwrap();
        for (r, buf) in rep.results.iter().enumerate() {
            assert!(
                buf.iter().all(|&b| b == r as u8 + 1),
                "rank {r} read back foreign data"
            );
        }
    }

    #[test]
    fn read_all_chunked_roundtrips() {
        let nprocs = 3;
        let len_array = 5;
        let (fs, _) = run_interleaved(nprocs, len_array, CollectiveConfig::default());
        let fs2 = Arc::clone(&fs);
        let cfg = CollectiveConfig {
            cb_buffer: Some(40),
            cb_nodes: Some(2),
            ..Default::default()
        };
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/c", Mode::ReadOnly).map_err(to_mpi)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype =
                Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)
                .map_err(to_mpi)?;
            let mut buf = vec![0u8; 12 * len_array];
            read_all_at(rk, &mut f, 0, &mut buf, &cfg).map_err(to_mpi)?;
            Ok(buf)
        })
        .unwrap();
        for (r, buf) in rep.results.iter().enumerate() {
            assert!(buf.iter().all(|&b| b == r as u8 + 1));
        }
    }

    #[test]
    fn empty_participants_are_fine() {
        // Ranks 2..4 contribute nothing but still participate.
        let fs = Pfs::new(4, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(4, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/e", Mode::WriteOnly).map_err(to_mpi)?;
            let data = if rk.rank() < 2 {
                vec![rk.rank() as u8 + 1; 8]
            } else {
                Vec::new()
            };
            write_all_at(
                rk,
                &mut f,
                rk.rank() as u64 * 8,
                &data,
                &CollectiveConfig::default(),
            )
            .map_err(to_mpi)?;
            f.close(rk).map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/e").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        assert_eq!(bytes.len(), 16);
        assert!(bytes[0..8].iter().all(|&b| b == 1));
        assert!(bytes[8..16].iter().all(|&b| b == 2));
    }

    #[test]
    fn all_empty_collective_is_a_noop() {
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(2, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/n", Mode::WriteOnly).map_err(to_mpi)?;
            write_all_at(rk, &mut f, 0, &[], &CollectiveConfig::default()).map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/n").unwrap();
        assert_eq!(fs.len(fid).unwrap(), 0);
    }

    #[test]
    fn aggregator_buffer_is_memory_accounted() {
        // With a tight memory budget, the unchunked collective must fail
        // with a simulated OOM — the mechanism behind Fig. 6/7's missing
        // OCIO point at 48 GB.
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let sim = SimConfig {
            mem_budget: Some(100), // bytes; domain buffer will exceed this
            ..Default::default()
        };
        let err = mpisim::run(2, sim, move |rk| {
            let mut f = File::open(rk, &fs2, "/oom", Mode::WriteOnly).map_err(to_mpi)?;
            let data = vec![7u8; 200];
            write_all_at(
                rk,
                &mut f,
                rk.rank() as u64 * 200,
                &data,
                &CollectiveConfig::default(),
            )
            .map_err(to_mpi)?;
            Ok(())
        })
        .unwrap_err();
        match err {
            mpisim::SimError::RankFailed { error, .. } => {
                assert!(matches!(error, mpisim::MpiError::OutOfMemory { .. }))
            }
            other => panic!("expected OOM, got {other}"),
        }
    }

    #[test]
    fn chunked_mode_fits_in_tight_memory() {
        // Same workload as above, but cb_buffer-chunked exchange stays
        // within budget — the ablation claim.
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let sim = SimConfig {
            mem_budget: Some(100),
            ..Default::default()
        };
        let cfg = CollectiveConfig {
            cb_buffer: Some(64),
            ..Default::default()
        };
        mpisim::run(2, sim, move |rk| {
            let mut f = File::open(rk, &fs2, "/fit", Mode::WriteOnly).map_err(to_mpi)?;
            let data = vec![7u8; 200];
            write_all_at(rk, &mut f, rk.rank() as u64 * 200, &data, &cfg).map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/fit").unwrap();
        assert_eq!(fs.len(fid).unwrap(), 400);
        assert!(fs.snapshot_file(fid).unwrap().iter().all(|&b| b == 7));
    }

    #[test]
    fn sparse_domains_do_not_write_holes() {
        // Two ranks write 8 bytes each, 1000 bytes apart; the aggregator
        // buffers must not flush untouched gap bytes over existing data.
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fid = fs.create("/sparse").unwrap();
        // Pre-fill the gap with sentinel bytes.
        fs.write_at(fid, 0, 0, &vec![0xAAu8; 1008], 0.0).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(2, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/sparse", Mode::ReadWrite).map_err(to_mpi)?;
            let data = vec![rk.rank() as u8 + 1; 8];
            write_all_at(
                rk,
                &mut f,
                rk.rank() as u64 * 1000,
                &data,
                &CollectiveConfig::default(),
            )
            .map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        assert!(bytes[0..8].iter().all(|&b| b == 1));
        assert!(bytes[8..1000].iter().all(|&b| b == 0xAA), "gap clobbered");
        assert!(bytes[1000..1008].iter().all(|&b| b == 2));
    }
}
