//! Machine-speed calibration.
//!
//! On a small shared machine the speed available to one thread drifts by
//! tens of percent over minutes, as other tenants' load comes and goes;
//! no repetition count inside one run averages that out. So a fixed
//! reference kernel, written here in the benchmark's own code (a change
//! to the program cannot speed it up), runs right before every
//! repetition, and host times are reported for a nominal machine: each
//! repetition's wall seconds are scaled by `NOMINAL_S / measured`, where
//! `measured` is the kernel's wall time before that repetition. The
//! measured kernel time is reported too (`host.reference_ms`), so raw
//! wall seconds can be recovered.
//!
//! The kernel mixes what the simulator spends its host time on:
//! allocator churn, hash-map probes, bulk copies and first-touch page
//! faults on a fresh mapping.

use crate::common::Hasher;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Defines the nominal machine: one on which the reference kernel takes
/// 20 ms. The 2-core KVM guest (Intel Xeon) the benchmark was sized on
/// measured 16 to 20 ms.
pub const NOMINAL_S: f64 = 0.020;

fn kernel() -> u64 {
    let mut h = Hasher::new();
    // Allocator churn: many short-lived small vectors.
    for i in 0..100_000u64 {
        let v: Vec<u64> = (0..(i % 61 + 4)).map(|k| k ^ i).collect();
        h.word(v[v.len() / 2]);
    }
    // Hash-map inserts and probes over a working set beyond L2.
    let mut m: HashMap<u64, u64> = HashMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..(1u64 << 18) {
        x = x.rotate_left(17).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        m.insert(x, i);
    }
    for i in 0..(1u64 << 18) {
        h.word(
            *m.get(&(i.wrapping_mul(0x94D0_49BB_1331_11EB)))
                .unwrap_or(&i),
        );
    }
    // Fresh buffers, touched page by page, then copied and hashed. Kept
    // small: they count toward the process's peak RSS.
    for _ in 0..6 {
        let src = vec![0x5Au8; 4 << 20];
        let mut dst = vec![0u8; 4 << 20];
        dst.copy_from_slice(&src);
        h.bytes(&dst[..1 << 18]);
    }
    black_box(h.finish())
}

/// Host seconds the reference kernel takes right now: the median of
/// three runs.
pub fn reference_s() -> f64 {
    let mut t: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(kernel());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[1]
}
