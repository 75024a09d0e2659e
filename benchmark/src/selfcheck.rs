//! `run`, `trace` and `selfcheck`: the one-workload command run in child
//! processes, and what it printed shown or compared.

use std::process::{Command, ExitCode};

use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workload::{Workload, ALL};
use crate::Args;

/// Runs the one-workload command in a child process and returns its
/// standard output, or why there is none.
fn child(w: Workload, seed: u64, seconds: u64, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("output of {}: {e}", w.name()))
}

/// The number after `"key": ` in a result line. The line's layout is
/// this program's own, so a scan stands in for a JSON parser.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn metric(line: &str, name: &str) -> Option<f64> {
    number_after(line, &format!("\"{name}\": {{\"value\": "))
}

fn failed(line: &str) -> u64 {
    number_after(line, "\"failed\": ").map_or(1, |n| n as u64)
}

fn workloads(args: &Args) -> Vec<Workload> {
    args.workload.map_or(ALL.to_vec(), |w| vec![w])
}

/// `run` / `trace`: every workload (or the one named), its tables
/// printed; fails if any operation failed.
pub fn show(args: &Args, traced: bool) -> ExitCode {
    let mut failures = 0;
    for w in workloads(args) {
        match child(w, args.seed, args.seconds, traced) {
            Ok(text) => {
                print!("{text}");
                failures += failed(text.lines().last().unwrap_or(""));
            }
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} failed operations");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Two or more sets of runs of the same build, alternating workload
/// order; every set uses the same seeds, so simulated results and
/// fingerprints must repeat exactly and no later set's median may be
/// worse than the first set's by more than the metric's bound.
pub fn selfcheck(args: &Args) -> ExitCode {
    let ws = workloads(args);
    // What each child printed: lines[set][workload][run]. The result is
    // the last line; the fingerprint has a line of its own above it.
    let mut lines = vec![vec![Vec::<String>::new(); ws.len()]; args.sets];
    let mut ok = true;
    for (set, per_workload) in lines.iter_mut().enumerate() {
        for run in 0..args.runs {
            let mut order: Vec<usize> = (0..ws.len()).collect();
            if (set + run) % 2 == 1 {
                order.reverse();
            }
            for i in order {
                let seed = args.seed + run as u64;
                eprintln!("set {set} run {run}: {} seed {seed}", ws[i].name());
                match child(ws[i], seed, args.seconds, false) {
                    Ok(text) => per_workload[i].push(text),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }

    println!(
        "{:<10} {:<22} {:>3} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "workload", "metric", "set", "q1", "median", "q3", "spread", "worse by"
    );
    for (i, w) in ws.iter().enumerate() {
        for m in &END_TO_END {
            let mut base = f64::NAN;
            for (set, per_workload) in lines.iter().enumerate() {
                let mut v: Vec<f64> = per_workload[i]
                    .iter()
                    .filter_map(|text| metric(text.lines().last()?, m.name))
                    .collect();
                if v.len() != args.runs {
                    println!("{} {}: missing from a result line", w.name(), m.name);
                    ok = false;
                    continue;
                }
                let (q1, q3) = quartiles(&mut v);
                let med = median(&mut v);
                if set == 0 {
                    base = med;
                }
                let worse = match m.better {
                    Better::Lower => med / base - 1.0,
                    Better::Higher => 1.0 - med / base,
                };
                let verdict = if worse > m.bound {
                    "  OUT OF BOUND"
                } else {
                    ""
                };
                ok &= worse <= m.bound;
                println!(
                    "{:<10} {:<22} {:>3} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>+7.2}%{verdict}",
                    w.name(),
                    m.name,
                    set,
                    q1,
                    med,
                    q3,
                    (q3 - q1) / med * 100.0,
                    worse * 100.0
                );
            }
        }
        for run in 0..args.runs {
            let exact = |text: &String| {
                let result = text.lines().last().unwrap_or("");
                let fingerprint = text
                    .lines()
                    .find(|l| l.trim_start().starts_with("fingerprint "));
                (
                    fingerprint.map(str::to_owned),
                    metric(result, "sim_goodput_mbps"),
                    failed(result),
                )
            };
            let first = exact(&lines[0][i][run]);
            if first.2 > 0 || lines.iter().any(|set| exact(&set[i][run]) != first) {
                println!(
                    "{} run {run}: simulated results differ between sets, or operations failed",
                    w.name()
                );
                ok = false;
            }
        }
    }
    println!(
        "{}",
        if ok {
            "selfcheck passed"
        } else {
            "selfcheck FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_a_result_line() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 2, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}, "x": {"value": 3, "unit": "ns"}}}"#;
        assert_eq!(metric(line, "setup_s"), Some(0.25));
        assert_eq!(metric(line, "x"), Some(3.0));
        assert_eq!(metric(line, "y"), None);
        assert_eq!(failed(line), 2);
    }
}
