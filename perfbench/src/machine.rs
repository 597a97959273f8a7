//! The machine record every result carries, and the process's memory
//! high-water mark.

use std::process::Command;

/// Where a number came from.
pub struct Machine {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
    pub backend: &'static str,
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

/// The commit of the checkout the benchmark runs in, when it is a git
/// work tree itself; git is kept from searching the directories above.
fn commit() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Ok(here) = std::env::current_dir() {
        if let Some(parent) = here.parent() {
            git.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    command_line(&mut git).unwrap_or_else(|| "unknown (not a git checkout)".into())
}

impl Machine {
    pub fn detect() -> Machine {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Machine {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu,
            rustc: command_line(Command::new("rustc").arg("-V"))
                .unwrap_or_else(|| "unknown".into()),
            commit: commit(),
            // Every workload pins `Backend::Event`; the facility always
            // runs on it.
            backend: "event",
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}
