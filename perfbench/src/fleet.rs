//! `fleet_gray`: the standard 8-tenant, 22-rank fleet under fair-share
//! QoS, with open-loop Poisson arrivals below saturation, the flaky-OST
//! gray-failure plan attached, the pfs health layer on and hedged
//! read-back. After the run, one rebuild loop drains relocated extents
//! and every stored byte is scanned against the facility's pattern.

use crate::common::{scan_files, Host, Rep, Traced, Virt};
use crate::marks::Stage;
use chaos::FaultPlan;
use facility::{job::pattern_byte, run_facility, FacilityConfig, QosMode};
use std::time::Instant;

/// Jobs each tenant submits.
pub const JOBS: usize = 50;
/// Per-tenant arrival rate, jobs per virtual second.
pub const RATE_HZ: f64 = 0.75;
/// The gray-failure plan the fleet runs under; its seed is replaced by
/// the one derived from `--seed`.
const PLAN: &str = include_str!("../../plans/flaky_ost.toml");
/// Rebuild passes before giving up on draining the relocation map.
const MAX_REBUILD_PASSES: usize = 8;

/// `/tenant{t}/job{j}.dat` -> `(t, j)`.
fn job_of(path: &str) -> Option<(u32, u32)> {
    let rest = path.strip_prefix("/tenant")?;
    let (t, rest) = rest.split_once("/job")?;
    let j = rest.strip_suffix(".dat")?;
    Some((t.parse().ok()?, j.parse().ok()?))
}

pub fn rep(arrival_seed: u64, plan_seed: u64, traced: bool) -> Result<Rep, String> {
    let t_start = Instant::now();
    let mut plan = FaultPlan::parse(PLAN).map_err(|e| format!("flaky plan: {e}"))?;
    plan.seed = plan_seed;
    let horizon = bench::resilience::plan_horizon(&plan);
    let health = bench::resilience::sweep_health_config();
    let cfg = FacilityConfig {
        tenants: bench::tenant::fleet(JOBS, RATE_HZ),
        qos: QosMode::FairShare,
        seed: arrival_seed,
        chaos: Some(plan.build().map_err(|e| format!("flaky plan: {e}"))?),
        health: Some(health.clone()),
        metrics: traced,
        ..FacilityConfig::default()
    };
    // The open-loop schedule the facility must replay, job by job.
    let due: Vec<Vec<f64>> = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(t, spec)| {
            facility::arrivals::schedule(arrival_seed, t, spec.arrival_rate, spec.jobs)
        })
        .collect();
    let mut host = Host {
        pre_s: t_start.elapsed().as_secs_f64(),
        ..Host::default()
    };

    let t0 = Instant::now();
    let mut rep = run_facility(&cfg).map_err(|e| format!("facility run failed: {e}"))?;
    host.phases = vec![(Stage::Write, "facility.run", t0.elapsed().as_secs_f64())];
    let expected_jobs: usize = due.iter().map(Vec::len).sum();
    if rep.jobs.len() != expected_jobs {
        return Err(format!(
            "{} of {expected_jobs} jobs finished",
            rep.jobs.len()
        ));
    }
    for r in &rep.jobs {
        let want = due[r.tenant][r.job];
        if r.arrival.to_bits() != want.to_bits() {
            return Err(format!(
                "tenant {} job {} arrived at {} instead of {want}",
                r.tenant, r.job, r.arrival
            ));
        }
    }

    // Drain the relocation map after the fault window, as the
    // resilience sweep does: each pass doubles as the half-open probe.
    let t1 = Instant::now();
    let mut now = rep.makespan.max(horizon);
    for _ in 0..MAX_REBUILD_PASSES {
        if rep.fs.health_report().is_none_or(|s| s.relocated_live == 0) {
            break;
        }
        let rb = rep.fs.rebuild(now).map_err(|e| format!("rebuild: {e}"))?;
        now = rb.completed_at.max(now) + health.open_secs;
    }
    host.rebuild_s = t1.elapsed().as_secs_f64();
    let snap = rep.fs.health_report().ok_or("health layer detached")?;
    if snap.relocated_live != 0 {
        return Err(format!(
            "{} relocated extents left after {MAX_REBUILD_PASSES} rebuild passes",
            snap.relocated_live
        ));
    }

    let written = rep.total_bytes_written();
    let read: u64 = rep.tenants.iter().map(|t| t.bytes_read).sum();
    let mut extra = vec![rep.makespan.to_bits()];
    for r in &rep.jobs {
        extra.extend([r.arrival.to_bits(), r.finish.to_bits()]);
    }
    extra.extend([
        snap.hedges_issued,
        snap.hedge_wins,
        snap.hedge_waste,
        snap.breaker_opens,
        snap.degraded_writes,
        snap.rebuilt_extents,
    ]);
    let traced = if traced {
        let mut registry = rep.registry.take().ok_or("facility kept no registry")?;
        // The defense counters after the rebuild loop, not before it.
        for (name, v) in [
            ("pfs_rebuilt_extents_total", snap.rebuilt_extents),
            ("pfs_rebuilt_bytes_total", snap.rebuilt_bytes),
        ] {
            registry.set_counter(name, v);
        }
        Some(Traced {
            registry,
            ..Traced::default()
        })
    } else {
        None
    };

    let t2 = Instant::now();
    let (files, scanned) = scan_files(&rep.fs, now, |path, off, bytes| {
        let (t, j) = job_of(path).ok_or_else(|| format!("unexpected file {path}"))?;
        match bytes
            .iter()
            .enumerate()
            .find(|&(k, &b)| b != pattern_byte(t, j, off + k as u64))
        {
            None => Ok(()),
            Some((k, b)) => Err(format!("{path} byte {}: got {b:#x}", off + k as u64)),
        }
    })?;
    host.scan_s = t2.elapsed().as_secs_f64();
    host.scan_bytes = scanned;
    if scanned != written {
        return Err(format!("{scanned} bytes stored, {written} written"));
    }
    host.bytes_moved = written + read + scanned;
    // Below saturation the makespan tracks the arrival schedule, not the
    // stack's speed, so throughput is taken over the time jobs were in
    // service: a tenant runs its jobs one after another, so a job starts
    // at its arrival or when the tenant's previous job finished.
    let mut service = Vec::with_capacity(rep.jobs.len());
    let mut prev: Option<(usize, f64)> = None;
    for r in &rep.jobs {
        let free = match prev {
            Some((t, finish)) if t == r.tenant => finish,
            _ => 0.0,
        };
        service.push((r, r.finish - r.arrival.max(free)));
        prev = Some((r.tenant, r.finish));
    }
    let busy = |pick: fn(&facility::JobRecord) -> u64| {
        let (bytes, secs) = service
            .iter()
            .filter(|(r, _)| pick(r) > 0)
            .fold((0u64, 0.0f64), |(b, s), (r, dt)| (b + pick(r), s + dt));
        bytes as f64 / secs / 1e6
    };
    let virt = Virt {
        write_mbps: busy(|r| r.bytes_written),
        read_mbps: busy(|r| r.bytes_read),
        mem_peak_mb: rep.stats.mem_peak as f64 / 1e6,
        job_latency_s: rep.jobs.iter().map(|r| r.latency()).collect(),
        extra,
        files,
    };
    drop(rep);
    host.total_s = t_start.elapsed().as_secs_f64();
    Ok(Rep { host, virt, traced })
}
