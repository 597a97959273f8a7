//! perfbench — the two-clock benchmark.
//!
//! Runs one workload for a fixed wall-time budget and reports its
//! end-to-end metrics on two clocks: *host* time (how fast the simulator
//! runs, scaled to a nominal machine; see `calib`) and *virtual* time
//! (what the modelled machine would take). With `--trace 1` it reports
//! per-layer metrics instead: host phase times of every layer's public
//! calls, layer kernel probes, and, from traced repetitions alternating
//! with untraced ones, the registry counters and the critical path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <synth_tcio|synth_ocio|art_tcio|fleet_gray|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every repetition verifies its read-back and hashes every stored file;
//! virtual outputs and hashes must repeat bit for bit across repetitions
//! and between the traced and untraced runs. A repetition that errs,
//! fails verification or diverges counts as failed, and the process
//! exits nonzero when any did. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod art;
mod calib;
mod common;
mod fleet;
mod machine;
mod marks;
mod probes;
mod synth;

use common::{Host, Rep};
use marks::Stage;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["synth_tcio", "synth_ocio", "art_tcio", "fleet_gray"];
/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 2013;
/// Repetitions a run makes even when `--seconds` runs out first.
const MIN_REPS: usize = 3;
/// A run stops early after this many failed repetitions.
const MAX_FAILED: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("duration"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad("duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The three seeds `--seed` derives: ART segment lengths, fleet arrivals,
/// and the flaky-OST plan.
struct Seeds {
    art: u64,
    arrivals: u64,
    plan: u64,
}

impl Seeds {
    fn derive(seed: u64) -> Seeds {
        Seeds {
            art: splitmix64(seed ^ 0xA127),
            arrivals: splitmix64(seed ^ 0xF1EE7),
            plan: splitmix64(seed ^ 0x91A4),
        }
    }
}

fn run_rep(workload: &str, seeds: &Seeds, traced: bool) -> Result<Rep, String> {
    match workload {
        "synth_tcio" => synth::rep(false, traced),
        "synth_ocio" => synth::rep(true, traced),
        "art_tcio" => art::rep(seeds.art, traced),
        "fleet_gray" => fleet::rep(seeds.arrivals, seeds.plan, traced),
        other => Err(format!("unknown workload {other}")),
    }
}

struct Metric {
    name: String,
    unit: String,
    value: f64,
}

fn metric(name: &str, unit: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        // An empty sum is -0.0; report it as 0.
        value: value + 0.0,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quantile of exact samples, interpolated by rank the way
/// `bench::resilience::quantile_interp` interpolates inside a bucket:
/// the target rank is `q * n` (at least 1), and the value moves linearly
/// between the order statistics around it.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * n as f64).max(1.0);
    let lo = target.floor() as usize;
    if lo >= n {
        return v[n - 1];
    }
    v[lo - 1] + (target - lo as f64) * (v[lo] - v[lo - 1])
}

/// Median over repetitions of a per-repetition host quantity.
fn host_median(reps: &[Rep], f: impl Fn(&Host) -> f64) -> f64 {
    median(reps.iter().map(|r| f(&r.host)).collect())
}

fn end_to_end(reps: &[Rep], peak_rss: f64) -> Vec<Metric> {
    let v = &reps[0].virt;
    let jobs = &v.job_latency_s;
    vec![
        metric(
            "sim_MBps",
            "MB/s",
            host_median(reps, |h| {
                h.bytes_moved as f64 / 1e6 / (h.stage_s(Stage::Write) + h.stage_s(Stage::Read))
            }),
        ),
        metric(
            "write_wall_s",
            "s",
            host_median(reps, |h| h.stage_s(Stage::Write)),
        ),
        metric(
            "read_wall_s",
            "s",
            host_median(reps, |h| h.stage_s(Stage::Read)),
        ),
        metric(
            "setup_s",
            "s",
            host_median(reps, |h| h.stage_s(Stage::Setup)),
        ),
        metric("peak_rss_MB", "MB", peak_rss / 1e6),
        metric("virt_write_MBps", "MB/s", v.write_mbps),
        metric("virt_read_MBps", "MB/s", v.read_mbps),
        metric("virt_job_p50_ms", "ms_virt", quantile(jobs, 0.50) * 1e3),
        metric("virt_job_p95_ms", "ms_virt", quantile(jobs, 0.95) * 1e3),
    ]
}

/// Host phase metrics: `(metric, phase label, unit, scale)`.
const PHASES: &[(&str, &str, &str, f64)] = &[
    ("mpisim.run_start_s", "mpisim.run_start", "s", 1.0),
    ("mpisim.barrier_us", "mpisim.barrier", "us", 1e6),
    ("mpisim.allgather_s", "mpisim.allgather", "s", 1.0),
    (
        "mpisim.datatype.commit_s",
        "mpisim.datatype.commit",
        "s",
        1.0,
    ),
    ("tcio.open_s", "tcio.open", "s", 1.0),
    ("tcio.write_at_s", "tcio.write_at", "s", 1.0),
    ("tcio.close_s", "tcio.close", "s", 1.0),
    ("tcio.read_at_s", "tcio.read_at", "s", 1.0),
    ("tcio.fetch_s", "tcio.fetch", "s", 1.0),
    ("mpiio.open_s", "mpiio.open", "s", 1.0),
    ("mpiio.set_view_s", "mpiio.set_view", "s", 1.0),
    ("mpiio.write_all_s", "mpiio.write_all", "s", 1.0),
    ("mpiio.read_all_s", "mpiio.read_all", "s", 1.0),
    ("mpiio.close_s", "mpiio.close", "s", 1.0),
    ("workloads.gen_s", "workloads.gen", "s", 1.0),
    ("workloads.combine_s", "workloads.combine", "s", 1.0),
    ("workloads.alloc_s", "workloads.alloc", "s", 1.0),
    ("workloads.verify_s", "workloads.verify", "s", 1.0),
    ("facility.run_s", "facility.run", "s", 1.0),
];

/// Registry counters reported from the traced run, with their units.
const COUNTERS: &[(&str, &str)] = &[
    ("fabric_messages_total", "count"),
    ("fabric_intra_bytes_total", "bytes"),
    ("fabric_inter_bytes_total", "bytes"),
    ("fabric_conn_misses_total", "count"),
    ("mpisim_collectives_total", "count"),
    ("mpisim_collective_wait_ns_total", "ns_virt"),
    ("mpisim_puts_total", "count"),
    ("mpisim_put_bytes_total", "bytes"),
    ("mpisim_gets_total", "count"),
    ("mpisim_rma_epochs_total", "count"),
    ("mpisim_io_overlap_ns_total", "ns_virt"),
    ("tcio_l1_hits_total", "count"),
    ("tcio_l1_misses_total", "count"),
    ("tcio_l2_hits_total", "count"),
    ("tcio_l2_misses_total", "count"),
    ("pfs_write_rpcs_total", "count"),
    ("pfs_read_rpcs_total", "count"),
    ("pfs_bytes_written_total", "bytes"),
    ("pfs_bytes_read_total", "bytes"),
    ("pfs_lock_transfers_total", "count"),
    ("pfs_hedges_issued_total", "count"),
    ("pfs_hedge_wins_total", "count"),
    ("pfs_hedge_waste_total", "count"),
    ("pfs_breaker_opens_total", "count"),
    ("pfs_degraded_writes_total", "count"),
    ("pfs_rebuilt_extents_total", "count"),
];

/// Per-layer metrics: host medians over the untraced `reps`, tracing
/// overhead and analysis time over `traced_reps` (at least one), whose
/// trace is the same in every one of them.
fn per_layer(
    reps: &[Rep],
    traced_reps: &[Rep],
    kernels: &[(&'static str, &'static str, f64)],
    failed_frac: f64,
) -> Vec<Metric> {
    let traced = traced_reps[0]
        .traced
        .as_ref()
        .expect("a traced repetition keeps its trace");
    let mut out = vec![
        metric("host.samples", "count", reps.len() as f64),
        metric("host.rep_wall_s", "s", host_median(reps, |h| h.total_s)),
        metric(
            "host.reference_ms",
            "ms",
            host_median(reps, |h| h.reference_s * 1e3),
        ),
        metric(
            "host.unattributed_s",
            "s",
            host_median(reps, Host::unattributed_s),
        ),
        metric("setup.pre_run_s", "s", host_median(reps, |h| h.pre_s)),
        metric(
            "mpisim.teardown_s",
            "s",
            host_median(reps, |h| h.teardown_s),
        ),
    ];
    for &(name, label, unit, scale) in PHASES {
        out.push(metric(
            name,
            unit,
            host_median(reps, |h| h.phase_s(label)) * scale,
        ));
    }
    let ns_per_call = |label: &'static str| {
        host_median(reps, |h| match h.calls_of(label) {
            0 => 0.0,
            n => h.phase_s(label) * 1e9 / n as f64,
        })
    };
    out.push(metric(
        "tcio.write_at_ns_per_call",
        "ns",
        ns_per_call("tcio.write_at"),
    ));
    out.push(metric(
        "tcio.read_at_ns_per_call",
        "ns",
        ns_per_call("tcio.read_at"),
    ));
    out.push(metric("pfs.scan_s", "s", host_median(reps, |h| h.scan_s)));
    out.push(metric(
        "pfs.scan_MBps",
        "MB/s",
        host_median(reps, |h| h.scan_bytes as f64 / 1e6 / h.scan_s),
    ));
    out.push(metric(
        "pfs.rebuild_s",
        "s",
        host_median(reps, |h| h.rebuild_s),
    ));
    out.push(metric(
        "insight.analyze_s",
        "s",
        host_median(traced_reps, |h| h.analyze_s),
    ));
    // Only traced repetitions analyse; `insight.analyze_s` prices that.
    let traced_wall = host_median(traced_reps, |h| h.total_s - h.analyze_s);
    let untraced = host_median(reps, |h| h.total_s);
    out.push(metric(
        "mpisim.trace_overhead",
        "frac",
        traced_wall / untraced - 1.0,
    ));
    for &(name, unit, value) in kernels {
        out.push(metric(name, unit, value));
    }

    out.push(metric("virt_mem_peak_MB", "MB", reps[0].virt.mem_peak_mb));
    // The fleet keeps no spans, so its path is empty and reads 0.
    for cat in insight::Category::ALL {
        let secs = traced.path.iter().find(|p| p.0 == cat).map_or(0.0, |p| p.1);
        out.push(metric(&format!("path.{}_s", cat.as_str()), "s_virt", secs));
    }
    out.push(metric("path.imbalance", "ratio", traced.imbalance));
    out.push(metric("mpiio.overlap_frac", "frac", traced.overlap_frac));
    let counter = |name: &str| traced.registry.counter(name).unwrap_or(0) as f64;
    for &(name, unit) in COUNTERS {
        out.push(metric(name, unit, counter(name)));
    }
    for level in ["l1", "l2"] {
        let hits = counter(&format!("tcio_{level}_hits_total"));
        let misses = counter(&format!("tcio_{level}_misses_total"));
        let ratio = if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        };
        out.push(metric(&format!("tcio.{level}_hit_ratio"), "ratio", ratio));
    }
    out.push(metric("failed_frac", "frac", failed_frac));
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The contract line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Run one workload in this process and print its result.
fn run_workload(args: &Args) -> ExitCode {
    let machine = machine::Machine::detect();
    let seeds = Seeds::derive(args.seed);
    // The first kernel run in a process pays its cold start; discard it.
    calib::reference_s();
    // Kernel probes, at nominal machine speed like every host time.
    let kernels: Vec<_> = if args.trace {
        let k = calib::NOMINAL_S / calib::reference_s();
        probes::run()
            .into_iter()
            .map(|(name, unit, v)| (name, unit, v * k))
            .collect()
    } else {
        Vec::new()
    };
    let t0 = Instant::now();
    // Untraced repetitions give the host medians; with `--trace 1` every
    // other repetition is traced, so the tracing overhead compares runs
    // made under the same machine conditions.
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced_reps: Vec<Rep> = Vec::new();
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut expected: Option<u64> = None;
    while failed < MAX_FAILED
        && (reps.len() < MIN_REPS
            || (args.trace && traced_reps.is_empty())
            || t0.elapsed().as_secs_f64() < args.seconds)
    {
        let traced = args.trace && reps.len() > traced_reps.len();
        attempted += 1;
        let reference_s = calib::reference_s();
        match run_rep(&args.workload, &seeds, traced) {
            Ok(mut rep) => {
                let h = &rep.host;
                println!(
                    "# repetition {attempted}{}: wall setup {:.6} write {:.6} read {:.6} total {:.6} s, reference {:.6} s",
                    if traced { " (traced)" } else { "" },
                    h.stage_s(Stage::Setup),
                    h.stage_s(Stage::Write),
                    h.stage_s(Stage::Read),
                    h.total_s,
                    reference_s
                );
                rep.host.scale_to_nominal(reference_s);
                let fp = rep.virt.fingerprint();
                if *expected.get_or_insert(fp) != fp {
                    failed += 1;
                    let what = if traced { "traced" } else { "untraced" };
                    eprintln!(
                        "repetition {attempted} ({what}): virtual outputs or file bytes diverged"
                    );
                } else if traced {
                    traced_reps.push(rep);
                } else {
                    reps.push(rep);
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("repetition {attempted} failed: {e}");
            }
        }
    }
    let peak_rss = machine::peak_rss_bytes().unwrap_or(0) as f64;

    let mut metrics = match (reps.is_empty(), traced_reps.first()) {
        (true, _) => Vec::new(),
        (false, _) if !args.trace => end_to_end(&reps, peak_rss),
        (false, None) => Vec::new(),
        (false, Some(_)) => {
            let frac = failed as f64 / attempted as f64;
            per_layer(&reps, &traced_reps, &kernels, frac)
        }
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("metric {} is not finite", m.name);
        failed += 1;
        metrics.clear();
    }

    println!(
        "# perfbench workload={} seed={} trace={} samples={} elapsed_s={:.3}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        reps.len(),
        t0.elapsed().as_secs_f64()
    );
    println!(
        "# machine nproc={} cpu={:?} rustc={:?} commit={:?} backend={}",
        machine.nproc, machine.cpu, machine.rustc, machine.commit, machine.backend
    );
    println!(
        "# failed_frac={} ({failed} of {attempted} runs)",
        failed as f64 / attempted.max(1) as f64
    );
    for m in &metrics {
        println!("{:<40} {:>18} {}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"samples\": {}, \
         \"machine\": {{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"backend\": {}}}}}}}",
        json_str(&args.workload),
        args.seed,
        args.trace,
        reps.len(),
        machine.nproc,
        json_str(&machine.cpu),
        json_str(&machine.rustc),
        json_str(&machine.commit),
        json_str(machine.backend)
    );
    println!("{}", result_line(attempted, failed, &metrics));
    if failed == 0 && !metrics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in a process of its own (so one workload's
/// memory high-water mark cannot mask another's), untraced and traced,
/// and print every metric.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut metrics = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output();
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("{w}: cannot run: {e}");
                    return ExitCode::FAILURE;
                }
            };
            ok &= out.status.success();
            let text = String::from_utf8_lossy(&out.stdout);
            let lines: Vec<&str> = text.lines().collect();
            for line in &lines[..lines.len().saturating_sub(2)] {
                println!("[{w} trace={trace}] {line}");
            }
            let Some(json) = lines.last().and_then(|l| bench::Json::parse(l).ok()) else {
                eprintln!("{w} trace={trace}: no result line");
                ok = false;
                continue;
            };
            let count = |k: &str| json.get(k).and_then(bench::Json::as_f64).unwrap_or(0.0);
            attempted += count("attempted") as usize;
            failed += count("failed") as usize;
            if let Some(bench::Json::Obj(pairs)) = json.get("metrics") {
                for (name, m) in pairs {
                    let unit = m.get("unit").and_then(bench::Json::as_str).unwrap_or("");
                    let value = m
                        .get("value")
                        .and_then(bench::Json::as_f64)
                        .unwrap_or(f64::NAN);
                    metrics.push(metric(&format!("{w}/{name}"), unit, value));
                }
            }
        }
    }
    println!("{}", result_line(attempted, failed, &metrics));
    if ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_workload(&args)
    }
}
