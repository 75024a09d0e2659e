//! The host block every result carries, and the process's peak memory.

use std::process::Command;

use crate::json::Json;

/// First line of `cmd`'s standard output, or "unknown".
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_owned())
}

/// Where and how this result was measured.
pub fn host_block() -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release (debug = true, lto = thin, codegen-units = 4)"
    };
    vec![
        ("nproc", Json::Int(nproc as u64)),
        ("cpu_model", Json::str(cpu)),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        ("profile", Json::str(profile)),
        // The driver's checkout is not a git repository; "unknown" there.
        (
            "git_rev",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
    ]
}

/// `VmHWM`, the process's peak resident set, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
