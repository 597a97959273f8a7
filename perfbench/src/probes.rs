//! Layer kernel probes: the hot inner calls of four layers, timed through
//! the same public functions `crates/bench/benches/micro.rs` times, so
//! the kernel numbers land in the benchmark output beside the rest.

use std::hint::black_box;
use std::time::Instant;

/// Windows per probe; the probe reports the median window.
const WINDOWS: usize = 5;
/// Host seconds per window.
const WINDOW: f64 = 0.02;

/// Median seconds per call of `f` over [`WINDOWS`] windows of about
/// [`WINDOW`] each, after a warm-up that sizes the window.
fn per_call<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= WINDOW / 4.0 || iters >= 1 << 24 {
            iters = ((iters as f64 * WINDOW / dt.max(1e-9)) as u64).max(1);
            break;
        }
        iters *= 4;
    }
    let mut samples: Vec<f64> = (0..WINDOWS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[WINDOWS / 2]
}

/// `(metric name, unit, value)` for every probe.
pub fn run() -> Vec<(&'static str, &'static str, f64)> {
    use mpisim::{Datatype, Named};

    let int_vec = Datatype::vector(1024, 1, 2, Datatype::named(Named::Int)).commit();
    let src = vec![7u8; int_vec.extent()];
    let pack = per_call(|| int_vec.pack(&src, 1).expect("pack a committed vector"));

    let block = Datatype::contiguous(12, Datatype::named(Named::Byte));
    let commit = per_call(|| Datatype::vector(1024, 1, 64, block.clone()).commit());

    let map = tcio::SegmentMap::new(1 << 20, 1024);
    let mut off = 0u64;
    let locate = per_call(|| {
        off = off.wrapping_add(0x9E37_79B9) & ((1 << 40) - 1);
        map.locate(off)
    });

    let etype = block.commit();
    let ftype = Datatype::vector(4096, 1, 64, etype.datatype().clone()).commit();
    let view = mpiio::FileView::new(0, &etype, &ftype).expect("vector view");
    let mut pos = 0u64;
    let map_range = per_call(|| {
        pos = (pos + 12 * 64) % (12 * 4096 - 12 * 64);
        view.map_range(pos, 12 * 64)
    });

    let fs = pfs::Pfs::new(1, pfs::PfsConfig::default()).expect("default pfs");
    let id = fs.create("/probe").expect("fresh namespace");
    let data = vec![0u8; 1 << 20];
    let mut t = 0.0;
    let write = per_call(|| {
        t = fs.write_at(id, 0, 0, &data, t).expect("1 MB write");
        t
    });

    vec![
        ("mpisim.datatype.pack_ns_per_int", "ns", pack * 1e9 / 1024.0),
        (
            "mpisim.datatype.commit_ns_per_block",
            "ns",
            commit * 1e9 / 1024.0,
        ),
        ("tcio.segment.locate_ns", "ns", locate * 1e9),
        ("mpiio.view.map_range_ns", "ns", map_range * 1e9),
        ("pfs.write_1mb_us", "us", write * 1e6),
    ]
}
