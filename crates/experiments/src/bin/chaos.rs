//! The chaos CLI: replay every harness scenario under seeded fault
//! plans and fail loudly if any CM invariant breaks.
//!
//! ```text
//! cargo run --release -p cm-experiments --bin chaos [-- --smoke] [--plans N]
//! ```
//!
//! * `--smoke` — one seeded plan per scenario (the CI gate).
//! * `--plans N` — N seeded plans per scenario (default 8; every
//!   scenario additionally runs the clean baseline).
//!
//! Exit status is nonzero if any run violated an invariant, so this
//! binary can gate CI directly. Runs are fully deterministic: a failure
//! line names the `(scenario, seed)` pair that replays it.

use cm_experiments::chaos::{chaos_sweep, ChaosOutcome};

fn main() {
    let mut plans: u64 = 8;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => plans = 1,
            "--plans" => {
                plans = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--plans needs a number");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: chaos [--smoke] [--plans N]");
                std::process::exit(2);
            }
        }
    }

    println!("chaos: {plans} seeded plan(s) per scenario plus the clean baseline");
    println!(
        "{:<16} {:>5} {:>6} {:>13} {:>9} {:>8} {:>7} {:>7}  verdict",
        "scenario", "seed", "done", "goodput_kbps", "reclaims", "backoffs", "quarant", "reaped"
    );
    let outcomes = chaos_sweep(plans);
    let mut failed = 0usize;
    for o in &outcomes {
        print_row(o);
        if !o.ok() {
            failed += 1;
            for v in &o.violations {
                eprintln!("  VIOLATION: {v}");
            }
            if !o.trace_dump.is_empty() {
                eprintln!("  flight recorder (newest events per host):");
                for line in &o.trace_dump {
                    eprintln!("    {line}");
                }
            }
        }
    }
    println!(
        "chaos: {}/{} runs green",
        outcomes.len() - failed,
        outcomes.len()
    );
    if failed > 0 {
        eprintln!("chaos: {failed} run(s) violated CM invariants");
        std::process::exit(1);
    }
}

fn print_row(o: &ChaosOutcome) {
    println!(
        "{:<16} {:>5} {:>6} {:>13.1} {:>9} {:>8} {:>7} {:>7}  {}",
        o.scenario,
        o.seed,
        if o.completed { "yes" } else { "no" },
        o.goodput_kbps,
        o.client_stats.grants_reclaimed,
        o.client_stats.grant_backoffs,
        o.client_stats.flows_quarantined,
        o.client_stats.flows_reaped,
        if o.ok() { "ok" } else { "FAIL" },
    );
}
