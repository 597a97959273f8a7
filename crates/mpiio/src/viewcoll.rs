//! View-based collective I/O (Blas, Isaila, Singh & Carretero,
//! CCGRID'08 — the paper's related work \[16\]).
//!
//! The two-phase exchange ships an *offset/length list alongside every
//! data piece* on every collective call. View-based collective I/O
//! registers each rank's **file view** at the aggregators once, at
//! view-declaration time; a collective call then sends only
//! `(stream position, length)` per aggregator (plus the raw bytes on a
//! write) — the aggregator reconstructs the file placement from the
//! stored view. This reduces per-call metadata ("the cost of data
//! scatter-gather operations and file metadata transfer") at the price of
//! keeping P views per aggregator.
//!
//! A key property makes the sender side cheap: file views are monotone, so
//! the set of a rank's stream bytes that lands inside an aggregator's file
//! domain is a *single contiguous stream interval* — one header per
//! aggregator, regardless of how fragmented the file extents are. The
//! rounds are the crate's shared two-phase `engine` under its view
//! encoding.

use crate::collective::CollectiveConfig;
use crate::engine::{Encoding, Engine, Scope};
use crate::error::{IoError, Result};
use crate::file::File;
use crate::view::FileView;
use mpisim::Rank;

/// The views of all ranks, registered collectively.
#[derive(Debug)]
pub struct RegisteredViews {
    views: Vec<FileView>,
}

/// Collectively register every rank's current view (call after
/// `set_view`; re-call if views change). This is the one-time metadata
/// exchange that per-call offset lists are traded against.
pub fn register_views(rank: &mut Rank, file: &File) -> Result<RegisteredViews> {
    let gathered = rank.allgather(&file.view().serialize())?;
    let views = gathered
        .iter()
        .map(|b| FileView::deserialize(b))
        .collect::<Result<Vec<_>>>()?;
    Ok(RegisteredViews { views })
}

/// The view-based front-end, after checking the registration matches the
/// communicator. `req_agg` means `intra_agg` here.
fn view_based<'a>(
    rank: &Rank,
    views: &'a RegisteredViews,
    cfg: &'a CollectiveConfig,
    sites: [&'static str; 2],
) -> Result<Engine<'a>> {
    if views.views.len() != rank.nprocs() {
        return Err(IoError::Usage(
            "registered views do not match the communicator".into(),
        ));
    }
    Ok(Engine {
        scope: Scope::World,
        enc: Encoding::Views(&views.views),
        cfg,
        sites,
    })
}

/// View-based collective write: all ranks call, each with its own data at
/// a view-stream `offset`. Functionally identical to
/// [`crate::write_all_at`]; the exchange carries one 16-byte header per
/// (rank, aggregator) pair instead of one 12-byte header per file extent.
pub fn write_all_view_based(
    rank: &mut Rank,
    file: &mut File,
    views: &RegisteredViews,
    offset: u64,
    data: &[u8],
    cfg: &CollectiveConfig,
) -> Result<()> {
    if !file.mode().writable() {
        return Err(IoError::Usage("file is not open for writing".into()));
    }
    let engine = view_based(rank, views, cfg, ["vb_io", "vb_io_pipe"])?;
    engine.write(rank, file, &views.views[rank.rank()], offset, data)
}

/// View-based collective read: the registered views shrink the request
/// exchange of the two-phase read to one 16-byte `(stream position,
/// length)` header per aggregator; the aggregator derives both what to
/// read from the file and how to slice the responses from the stored
/// views. Under `CollectiveConfig::pipeline` the header exchange of round
/// k+1 is prefetched while the OSTs service round k, like any other
/// request exchange.
pub fn read_all_view_based(
    rank: &mut Rank,
    file: &mut File,
    views: &RegisteredViews,
    offset: u64,
    buf: &mut [u8],
    cfg: &CollectiveConfig,
) -> Result<()> {
    if !file.mode().readable() {
        return Err(IoError::Usage("file is not open for reading".into()));
    }
    let engine = view_based(rank, views, cfg, ["vb_read", "vb_read_pipe"])?;
    engine.read(rank, file, &views.views[rank.rank()], offset, buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::Mode;
    use mpisim::{Datatype, Named, SimConfig};
    use pfs::{Pfs, PfsConfig};
    use std::sync::Arc;

    fn to_mpi(e: IoError) -> mpisim::MpiError {
        match e {
            IoError::Mpi(m) => m,
            other => mpisim::MpiError::InvalidDatatype(other.to_string()),
        }
    }

    fn write_both_ways(
        nprocs: usize,
        len_array: usize,
        cfg: CollectiveConfig,
    ) -> (Vec<u8>, Vec<u8>) {
        // The Fig. 2 interleaved pattern, written once with classic
        // two-phase and once view-based; files must be identical.
        let mut snaps = Vec::new();
        for view_based in [false, true] {
            let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
            let fs2 = Arc::clone(&fs);
            let cfg = cfg.clone();
            mpisim::run(nprocs, SimConfig::default(), move |rk| {
                let mut f = File::open(rk, &fs2, "/vb", Mode::WriteOnly).map_err(to_mpi)?;
                let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
                let ftype =
                    Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone())
                        .commit();
                f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)
                    .map_err(to_mpi)?;
                let data = vec![rk.rank() as u8 + 1; 12 * len_array];
                if view_based {
                    let views = register_views(rk, &f).map_err(to_mpi)?;
                    write_all_view_based(rk, &mut f, &views, 0, &data, &cfg).map_err(to_mpi)?;
                } else {
                    crate::collective::write_all_at(rk, &mut f, 0, &data, &cfg).map_err(to_mpi)?;
                }
                f.close(rk).map_err(to_mpi)?;
                Ok(())
            })
            .unwrap();
            let fid = fs.open("/vb").unwrap();
            snaps.push(fs.snapshot_file(fid).unwrap());
        }
        let b = snaps.pop().unwrap();
        let a = snaps.pop().unwrap();
        (a, b)
    }

    #[test]
    fn view_based_matches_two_phase() {
        let (two_phase, view_based) = write_both_ways(4, 8, CollectiveConfig::default());
        assert_eq!(two_phase, view_based);
    }

    #[test]
    fn view_based_matches_with_fewer_aggregators_and_rounds() {
        let cfg = CollectiveConfig {
            cb_nodes: Some(2),
            cb_buffer: Some(64),
            ..Default::default()
        };
        let (two_phase, view_based) = write_both_ways(3, 5, cfg);
        assert_eq!(two_phase, view_based);
    }

    #[test]
    fn view_based_pipelined_rounds_match_two_phase() {
        let cfg = CollectiveConfig {
            cb_nodes: Some(2),
            cb_buffer: Some(64),
            pipeline: true,
            ..Default::default()
        };
        let (two_phase, view_based) = write_both_ways(3, 5, cfg);
        assert_eq!(two_phase, view_based);
    }

    #[test]
    fn view_based_two_level_matches_with_topology() {
        let (two_phase, _) = write_both_ways(4, 8, CollectiveConfig::default());
        let cfg = CollectiveConfig {
            intra_agg: true,
            ..Default::default()
        };
        let nprocs = 4;
        let len_array = 8;
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let sim = SimConfig {
            topology: Some(mpisim::Topology::blocked(nprocs, 2)),
            ..Default::default()
        };
        mpisim::run(nprocs, sim, move |rk| {
            let mut f = File::open(rk, &fs2, "/vb2", Mode::WriteOnly).map_err(to_mpi)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype =
                Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)
                .map_err(to_mpi)?;
            let data = vec![rk.rank() as u8 + 1; 12 * len_array];
            let views = register_views(rk, &f).map_err(to_mpi)?;
            write_all_view_based(rk, &mut f, &views, 0, &data, &cfg).map_err(to_mpi)?;
            f.close(rk).map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/vb2").unwrap();
        assert_eq!(fs.snapshot_file(fid).unwrap(), two_phase);
    }

    #[test]
    fn view_based_moves_less_metadata() {
        // Count fabric bytes: the view-based exchange must ship fewer
        // total bytes (no per-extent headers) for a fragmented pattern.
        let nprocs = 4;
        let len_array = 64; // 64 extents of 12 B per rank per aggregator
        let mut fabric_bytes = Vec::new();
        for view_based in [false, true] {
            let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
            let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
                let mut f = File::open(rk, &fs, "/m", Mode::WriteOnly).map_err(to_mpi)?;
                let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
                let ftype =
                    Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone())
                        .commit();
                f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)
                    .map_err(to_mpi)?;
                let data = vec![1u8; 12 * len_array];
                if view_based {
                    let views = register_views(rk, &f).map_err(to_mpi)?;
                    write_all_view_based(
                        rk,
                        &mut f,
                        &views,
                        0,
                        &data,
                        &CollectiveConfig::default(),
                    )
                    .map_err(to_mpi)?;
                } else {
                    crate::collective::write_all_at(
                        rk,
                        &mut f,
                        0,
                        &data,
                        &CollectiveConfig::default(),
                    )
                    .map_err(to_mpi)?;
                }
                f.close(rk).map_err(to_mpi)?;
                Ok(())
            })
            .unwrap();
            fabric_bytes.push(rep.fabric.bytes);
        }
        assert!(
            fabric_bytes[1] < fabric_bytes[0],
            "view-based ({}) must ship fewer bytes than two-phase ({})",
            fabric_bytes[1],
            fabric_bytes[0]
        );
    }

    #[test]
    fn empty_ranks_participate() {
        let fs = Pfs::new(3, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(3, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/e", Mode::WriteOnly).map_err(to_mpi)?;
            let views = register_views(rk, &f).map_err(to_mpi)?;
            let data = if rk.rank() == 0 {
                vec![7u8; 24]
            } else {
                Vec::new()
            };
            write_all_view_based(rk, &mut f, &views, 0, &data, &CollectiveConfig::default())
                .map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/e").unwrap();
        assert_eq!(fs.snapshot_file(fid).unwrap(), vec![7u8; 24]);
    }

    #[test]
    fn view_based_read_roundtrips() {
        let nprocs = 4;
        let len_array = 8;
        // Write with classic two-phase, read back view-based.
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/vbr", Mode::ReadWrite).map_err(to_mpi)?;
            let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
            let ftype =
                Datatype::vector(len_array, 1, nprocs as isize, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 12, &etype, &ftype)
                .map_err(to_mpi)?;
            let data = vec![rk.rank() as u8 + 1; 12 * len_array];
            crate::collective::write_all_at(rk, &mut f, 0, &data, &CollectiveConfig::default())
                .map_err(to_mpi)?;
            let views = register_views(rk, &f).map_err(to_mpi)?;
            let mut back = vec![0u8; 12 * len_array];
            read_all_view_based(
                rk,
                &mut f,
                &views,
                0,
                &mut back,
                &CollectiveConfig::default(),
            )
            .map_err(to_mpi)?;
            Ok(back)
        })
        .unwrap();
        for (r, back) in rep.results.iter().enumerate() {
            assert!(
                back.iter().all(|&b| b == r as u8 + 1),
                "rank {r} read bad data"
            );
        }
    }

    #[test]
    fn view_based_read_partial_range() {
        // Read only a middle slice of the stream through the view.
        let nprocs = 2;
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f = File::open(rk, &fs2, "/vbp", Mode::ReadWrite).map_err(to_mpi)?;
            let etype = Datatype::contiguous(8, Datatype::named(Named::Byte)).commit();
            let ftype = Datatype::vector(6, 1, 2, etype.datatype().clone()).commit();
            f.set_view(rk, rk.rank() as u64 * 8, &etype, &ftype)
                .map_err(to_mpi)?;
            let data: Vec<u8> = (0..48).map(|i| (rk.rank() * 100 + i) as u8).collect();
            crate::collective::write_all_at(rk, &mut f, 0, &data, &CollectiveConfig::default())
                .map_err(to_mpi)?;
            let views = register_views(rk, &f).map_err(to_mpi)?;
            let mut slice = vec![0u8; 16];
            read_all_view_based(
                rk,
                &mut f,
                &views,
                10,
                &mut slice,
                &CollectiveConfig::default(),
            )
            .map_err(to_mpi)?;
            let expect: Vec<u8> = (10..26).map(|i| (rk.rank() * 100 + i) as u8).collect();
            assert_eq!(slice, expect, "rank {}", rk.rank());
            Ok(())
        });
        rep.unwrap();
    }

    #[test]
    fn serialized_views_roundtrip() {
        let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
        let ftype = Datatype::vector(5, 1, 3, etype.datatype().clone()).commit();
        let v = FileView::new(24, &etype, &ftype).unwrap();
        let w = FileView::deserialize(&v.serialize()).unwrap();
        for (pos, len) in [(0u64, 60u64), (7, 13), (59, 1)] {
            assert_eq!(v.map_range(pos, len), w.map_range(pos, len));
        }
        assert!(FileView::deserialize(&[1, 2, 3]).is_err());
    }
}
