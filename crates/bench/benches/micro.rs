//! Microbenches for the hot paths of the library stack: datatype flattening
//! (the OCIO view machinery), the TCIO segment-mapping equations, extent-set
//! maintenance, file-view range mapping, FTT record generation, the PFS lock
//! table, timeline reservations, fabric transfers, and the PFS cost model.
//!
//! Self-contained harness (no external bench framework — the build
//! environment is offline): each case is warmed up, then timed over enough
//! iterations to fill a ~50 ms window, reporting the mean per-iteration
//! time. Run with `cargo bench -p bench`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time `f` and print a `name: mean/iter (iters)` line.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    // Warm-up and calibration: find an iteration count filling ~50 ms.
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt >= Duration::from_millis(10) || iters >= 1 << 24 {
            let total = dt.max(Duration::from_nanos(1));
            let scaled = (iters as f64 * Duration::from_millis(50).as_secs_f64()
                / total.as_secs_f64())
            .max(1.0) as u64;
            let t1 = Instant::now();
            for _ in 0..scaled {
                black_box(f());
            }
            let per = t1.elapsed().as_secs_f64() / scaled as f64;
            println!("{name:44} {:>12}  ({scaled} iters)", fmt_time(per));
            return;
        }
        iters *= 4;
    }
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn bench_datatype_flatten() {
    use mpisim::{Datatype, Named};
    let etype = Datatype::contiguous(12, Datatype::named(Named::Byte));
    bench("datatype/commit_vector_1k_blocks", || {
        let v = Datatype::vector(1024, 1, 64, etype.clone());
        v.commit()
    });
    let t = Datatype::vector(1024, 1, 2, Datatype::named(Named::Int)).commit();
    let src = vec![7u8; t.extent()];
    bench("datatype/pack_vector_1k_ints", || t.pack(&src, 1).unwrap());
    let lens: Vec<usize> = (0..256).map(|i| 1 + i % 7).collect();
    let displs: Vec<isize> = (0..256).map(|i| (i * 16) as isize).collect();
    bench("datatype/commit_indexed_256", || {
        Datatype::indexed(lens.clone(), displs.clone(), Datatype::named(Named::Byte))
            .unwrap()
            .commit()
    });
}

fn bench_segment_map() {
    use tcio::SegmentMap;
    let m = SegmentMap::new(1 << 20, 1024);
    let mut off = 0u64;
    bench("segment/locate_equations_1_to_3", || {
        off = off.wrapping_add(0x9E3779B9) & ((1 << 40) - 1);
        m.locate(off)
    });
}

fn bench_extent_set() {
    use mpiio::ExtentSet;
    bench("extent_set/insert_1k_sequential", || {
        let mut s = ExtentSet::new();
        for i in 0..1024u64 {
            s.insert(i * 16, 16);
        }
        s
    });
    bench("extent_set/insert_1k_interleaved_then_merge", || {
        let mut s = ExtentSet::new();
        for i in 0..512u64 {
            s.insert(i * 32, 8);
        }
        for i in 0..512u64 {
            s.insert(i * 32 + 8, 24);
        }
        s.len()
    });
}

fn bench_file_view() {
    use mpiio::FileView;
    use mpisim::{Datatype, Named};
    let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
    let ftype = Datatype::vector(4096, 1, 64, etype.datatype().clone()).commit();
    let view = FileView::new(0, &etype, &ftype).unwrap();
    let mut pos = 0u64;
    bench("view/map_range_64_blocks", || {
        pos = (pos + 12 * 64) % (12 * 4096 - 12 * 64);
        view.map_range(pos, 12 * 64)
    });
}

fn bench_ftt() {
    use workloads::art::{FttConfig, FttTree};
    let cfg = FttConfig::default();
    let mut id = 0u64;
    bench("ftt/generate_tree", || {
        id += 1;
        FttTree::generate(id, &cfg)
    });
    let t = FttTree::generate(42, &cfg);
    bench("ftt/serialize_record", || t.record(2));
}

fn bench_normal() {
    use workloads::Normal;
    bench("normal/1024_segment_lengths", || {
        Normal::new(2048.0, 128.0, 5).sample_lengths(1024)
    });
}

fn bench_lock_manager() {
    use pfs::{LockManager, LockMode};
    bench("locks/ping_pong_1k", || {
        let mut lm = LockManager::new();
        let mut transfers = 0u32;
        for i in 0..1024u64 {
            if lm.acquire(1, i % 8, (i % 3) as usize, LockMode::Write) {
                transfers += 1;
            }
        }
        transfers
    });
}

fn bench_timeline() {
    use mpisim::timeline::Timeline;
    bench("timeline/fifo_reserve_1k", || {
        let mut t = Timeline::new();
        for _ in 0..1024 {
            t.reserve(0.0, 1.0e-6);
        }
        t.segments()
    });
    bench("timeline/backfill_reserve_1k_scattered", || {
        let mut t = Timeline::new();
        for i in 0..1024 {
            t.reserve(i as f64 * 1.0e-3, 1.0e-6);
        }
        for i in 0..1024 {
            black_box(t.reserve((i % 7) as f64 * 1.0e-4, 5.0e-7));
        }
        t.segments()
    });
    // The node-NIC shape: a few thousand disjoint intervals (the default
    // prune keeps 2048..4096), each new booking landing about 500
    // intervals before the tail, plus one append per step.
    let mut t = Timeline::new();
    let period = 4.0e-6;
    let mut k = 0u64;
    bench("timeline/backfill_reserve_3k_near_tail", || {
        k += 1;
        t.reserve(k as f64 * period, 1.0e-6);
        let back = k.saturating_sub(500) as f64 * period;
        t.reserve(back + 2.0e-6, 5.0e-7)
    });
}

fn bench_fabric() {
    use mpisim::net::Fabric;
    use mpisim::{NetConfig, Topology};
    // 64 ranks on 8 nodes; every transfer crosses nodes, so each one
    // counts its congestion window and books two node-NIC timelines.
    let f = Fabric::new_full(
        64,
        NetConfig::default(),
        None,
        Some(Topology::blocked(64, 8)),
    );
    let mut k = 0u64;
    bench("net/transfer_congestion_window_2k", || {
        let mut last = 0.0;
        for _ in 0..2048 {
            k += 1;
            let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let src = (h >> 8) as usize % 64;
            let dst = (src + 8 * (1 + (h >> 24) as usize % 7)) % 64;
            // Ready times advance 1 µs per transfer, scattered up to
            // 500 µs back.
            let jitter = (h >> 40) as f64 / (1u64 << 24) as f64 * 500.0e-6;
            last = f
                .transfer(src, dst, 768, 1.0 + k as f64 * 1.0e-6 - jitter)
                .arrival;
        }
        last
    });
}

fn bench_pfs_ops() {
    use pfs::{Pfs, PfsConfig};
    {
        let p = Pfs::new(1, PfsConfig::default()).unwrap();
        let id = p.create("/bench").unwrap();
        let data = vec![0u8; 1 << 20];
        let mut t = 0.0;
        bench("pfs/write_1mb_striped", || {
            t = p.write_at(id, 0, 0, &data, t).unwrap();
            t
        });
    }
    {
        let p = Pfs::new(1, PfsConfig::default()).unwrap();
        let id = p.create("/small").unwrap();
        let mut t = 0.0;
        let mut off = 0u64;
        bench("pfs/small_write_cost_model", || {
            off = (off + 64) % (1 << 16);
            t = p.write_at(id, 0, off, &[0u8; 64], t).unwrap();
            t
        });
    }
}

fn bench_sieve() {
    use mpiio::SieveConfig;
    let extents: Vec<(u64, u64)> = (0..256).map(|i| (i * 32, 16)).collect();
    let cfg = SieveConfig::default();
    bench("sieve/decision_256_extents", || cfg.should_sieve(&extents));
}

fn main() {
    bench_datatype_flatten();
    bench_segment_map();
    bench_extent_set();
    bench_file_view();
    bench_ftt();
    bench_normal();
    bench_lock_manager();
    bench_timeline();
    bench_fabric();
    bench_pfs_ops();
    bench_sieve();
}
