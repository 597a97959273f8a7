//! Partitioned collective I/O (ParColl — Yu & Vetter, ICPP'08, the
//! paper's related work \[15\]).
//!
//! ParColl's observation is the "collective wall": at scale, the global
//! synchronization and all-to-all exchange of two-phase collective I/O
//! dominate the actual I/O time. Its remedy: divide the processes into
//! disjoint groups and let each group perform collective aggregation
//! independently over its own file region — the exchange burst then costs
//! `G²` per group instead of `P²` globally, and no global synchronization
//! happens at all.
//!
//! [`write_all_partitioned`] runs the crate's two-phase `engine`
//! scoped to a [`mpisim::SubComm`]: group-local domain agreement,
//! group-local burst exchange, group-local aggregators at the evenly
//! spread `i·g/naggs` group ranks. It is most effective when each group's
//! data is clustered in the file (ParColl's "file domain partitioning");
//! with fully interleaved data it still works, but aggregator runs
//! fragment.

use crate::collective::CollectiveConfig;
use crate::engine::{Encoding, Engine, Scope};
use crate::error::{IoError, Result};
use crate::file::File;
use mpisim::{Rank, SubComm};

/// Partitioned collective write: every member of `comm` calls with its own
/// (possibly empty) data at a view-stream `offset`. Different groups
/// proceed completely independently — no global synchronization. The
/// group exchange has no semantic-merge variant, so `req_agg` means
/// `intra_agg` here.
pub fn write_all_partitioned(
    rank: &mut Rank,
    file: &mut File,
    comm: &SubComm,
    offset: u64,
    data: &[u8],
    cfg: &CollectiveConfig,
) -> Result<()> {
    if !file.mode().writable() {
        return Err(IoError::Usage("file is not open for writing".into()));
    }
    let engine = Engine {
        scope: Scope::Group(comm),
        enc: Encoding::Extents,
        cfg,
        sites: ["par_io", "par_io_pipe"],
    };
    engine.write(rank, file, file.view(), offset, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::Mode;
    use mpisim::SimConfig;
    use pfs::{Pfs, PfsConfig};
    use std::sync::Arc;

    fn to_mpi(e: IoError) -> mpisim::MpiError {
        match e {
            IoError::Mpi(m) => m,
            other => mpisim::MpiError::InvalidDatatype(other.to_string()),
        }
    }

    /// IOR-segmented-style layout: group-contiguous blocks so each group's
    /// file region is clustered (ParColl's sweet spot).
    fn run_partitioned(nprocs: usize, groups: usize, block: usize) -> Vec<u8> {
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let gsize = nprocs / groups;
            let comm = rk.split((rk.rank() / gsize) as u64)?;
            let mut f = File::open(rk, &fs2, "/pc", Mode::WriteOnly).map_err(to_mpi)?;
            let data = vec![rk.rank() as u8 + 1; block];
            write_all_partitioned(
                rk,
                &mut f,
                &comm,
                (rk.rank() * block) as u64,
                &data,
                &CollectiveConfig::default(),
            )
            .map_err(to_mpi)?;
            f.close(rk).map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/pc").unwrap();
        fs.snapshot_file(fid).unwrap()
    }

    #[test]
    fn partitioned_write_produces_correct_file() {
        for groups in [1, 2, 4] {
            let bytes = run_partitioned(8, groups, 64);
            assert_eq!(bytes.len(), 8 * 64, "groups={groups}");
            for r in 0..8 {
                assert!(
                    bytes[r * 64..(r + 1) * 64]
                        .iter()
                        .all(|&b| b == r as u8 + 1),
                    "rank {r} region corrupted (groups={groups})"
                );
            }
        }
    }

    fn run_partitioned_cfg(
        nprocs: usize,
        groups: usize,
        block: usize,
        cfg: CollectiveConfig,
    ) -> Vec<u8> {
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let gsize = nprocs / groups;
            let comm = rk.split((rk.rank() / gsize) as u64)?;
            let mut f = File::open(rk, &fs2, "/pc", Mode::WriteOnly).map_err(to_mpi)?;
            let data = vec![rk.rank() as u8 + 1; block];
            write_all_partitioned(rk, &mut f, &comm, (rk.rank() * block) as u64, &data, &cfg)
                .map_err(to_mpi)?;
            f.close(rk).map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/pc").unwrap();
        fs.snapshot_file(fid).unwrap()
    }

    #[test]
    fn partitioned_chunked_rounds_match_single_round() {
        let flat = run_partitioned(8, 2, 64);
        for pipeline in [false, true] {
            let cfg = CollectiveConfig {
                cb_buffer: Some(48), // forces multiple rounds per domain
                cb_nodes: Some(2),
                pipeline,
                ..Default::default()
            };
            let bytes = run_partitioned_cfg(8, 2, 64, cfg);
            assert_eq!(bytes, flat, "pipeline={pipeline} diverged");
        }
    }

    #[test]
    fn partitioned_req_agg_uses_two_level_and_stays_correct() {
        let flat = run_partitioned(8, 2, 64);
        let nprocs = 8;
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let sim = SimConfig {
            topology: Some(mpisim::Topology::blocked(nprocs, 4)),
            ..Default::default()
        };
        mpisim::run(nprocs, sim, move |rk| {
            let comm = rk.split((rk.rank() / 4) as u64)?;
            let mut f = File::open(rk, &fs2, "/pc", Mode::WriteOnly).map_err(to_mpi)?;
            let data = vec![rk.rank() as u8 + 1; 64];
            let cfg = CollectiveConfig {
                req_agg: true,
                cb_buffer: Some(48),
                pipeline: true,
                ..Default::default()
            };
            write_all_partitioned(rk, &mut f, &comm, (rk.rank() * 64) as u64, &data, &cfg)
                .map_err(to_mpi)?;
            f.close(rk).map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/pc").unwrap();
        assert_eq!(fs.snapshot_file(fid).unwrap(), flat);
    }

    #[test]
    fn partitioned_two_level_with_topology_is_correct() {
        // Groups are contiguous rank ranges of 4 over 2 nodes of ppn=4:
        // group 0 = node 0, group 1 = node 1 — plus a misaligned split
        // where each group straddles both nodes.
        for gsize in [4usize, 2] {
            let nprocs = 8;
            let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
            let fs2 = Arc::clone(&fs);
            let sim = SimConfig {
                topology: Some(mpisim::Topology::blocked(nprocs, 4)),
                ..Default::default()
            };
            mpisim::run(nprocs, sim, move |rk| {
                let comm = rk.split((rk.rank() / gsize) as u64)?;
                let mut f = File::open(rk, &fs2, "/pc2", Mode::WriteOnly).map_err(to_mpi)?;
                let data = vec![rk.rank() as u8 + 1; 64];
                let cfg = CollectiveConfig {
                    intra_agg: true,
                    cb_nodes: Some(2),
                    ..Default::default()
                };
                write_all_partitioned(rk, &mut f, &comm, (rk.rank() * 64) as u64, &data, &cfg)
                    .map_err(to_mpi)?;
                f.close(rk).map_err(to_mpi)?;
                Ok(())
            })
            .unwrap();
            let fid = fs.open("/pc2").unwrap();
            let bytes = fs.snapshot_file(fid).unwrap();
            for r in 0..nprocs {
                assert!(
                    bytes[r * 64..(r + 1) * 64]
                        .iter()
                        .all(|&b| b == r as u8 + 1),
                    "rank {r} region corrupted (gsize={gsize})"
                );
            }
        }
    }

    #[test]
    fn interleaved_data_still_correct_across_groups() {
        // Blocks interleave globally (the Fig. 2 pattern) while groups are
        // contiguous rank ranges: group domains overlap, extents fragment,
        // but the bytes must still be right.
        let nprocs = 6;
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let comm = rk.split((rk.rank() / 3) as u64)?;
            let mut f = File::open(rk, &fs2, "/il", Mode::WriteOnly).map_err(to_mpi)?;
            // Each rank writes 4 interleaved 16-byte blocks.
            let mut blob = Vec::new();
            let mut offs = Vec::new();
            for i in 0..4usize {
                offs.push(((i * nprocs + rk.rank()) * 16) as u64);
                blob.extend_from_slice(&[rk.rank() as u8 + 1; 16]);
            }
            // One partitioned collective per block round.
            for (i, &off) in offs.iter().enumerate() {
                write_all_partitioned(
                    rk,
                    &mut f,
                    &comm,
                    off,
                    &blob[i * 16..(i + 1) * 16],
                    &CollectiveConfig::default(),
                )
                .map_err(to_mpi)?;
            }
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/il").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        for b in 0..24 {
            let expect = (b % nprocs) as u8 + 1;
            assert!(
                bytes[b * 16..(b + 1) * 16].iter().all(|&x| x == expect),
                "block {b} corrupted"
            );
        }
    }

    #[test]
    fn groups_do_not_globally_synchronize() {
        // A rank in group 0 must be able to finish its partitioned
        // collective while group 1's ranks are still busy elsewhere —
        // i.e., no hidden world collective. We verify by having group 1
        // delay for a long virtual time first; group 0's elapsed time must
        // not inherit that delay.
        let nprocs = 4;
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let comm = rk.split((rk.rank() / 2) as u64)?;
            if rk.rank() >= 2 {
                rk.advance(1000.0); // group 1 is very late
            }
            let t0 = rk.now();
            let mut f = File::open_independent(rk, &fs, "/ns", Mode::WriteOnly).map_err(to_mpi)?;
            let data = vec![1u8; 64];
            write_all_partitioned(
                rk,
                &mut f,
                &comm,
                (rk.rank() * 64) as u64,
                &data,
                &CollectiveConfig::default(),
            )
            .map_err(to_mpi)?;
            Ok(rk.now() - t0)
        })
        .unwrap();
        assert!(
            rep.results[0] < 500.0,
            "group 0 must not wait for group 1 ({}s)",
            rep.results[0]
        );
    }
}
