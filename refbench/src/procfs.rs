//! Resource readings from `/proc` (the offline build admits no libc
//! crate).

use std::path::PathBuf;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> PathBuf {
    match pid {
        Some(pid) => PathBuf::from(format!("/proc/{pid}/{file}")),
        None => PathBuf::from(format!("/proc/self/{file}")),
    }
}

/// Peak resident set size (`VmHWM`) of `pid` (this process for `None`),
/// in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let status = std::fs::read_to_string(proc_path(pid, "status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(utime + stime, cutime + cstime)` of this process in seconds: its own
/// CPU time (all threads, live and exited) and that of its waited-for
/// children.
pub fn cpu_times_s() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string(proc_path(None, "stat")).ok()?;
    // Fields after the parenthesised command name, starting at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() != 4 {
        return None;
    }
    Some((
        (fields[0] + fields[1]) / TICKS_PER_S,
        (fields[2] + fields[3]) / TICKS_PER_S,
    ))
}

/// This process's own CPU seconds (all threads).
pub fn process_cpu_s() -> Option<f64> {
    cpu_times_s().map(|(own, _)| own)
}
