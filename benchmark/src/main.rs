//! The repo benchmark: four workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one. See README.md.
//!
//! ```text
//! cm-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! cm-benchmark run       [--seed <n>] [--seconds <n>] [--workload <name>]
//! cm-benchmark trace     [--seed <n>] [--seconds <n>] [--workload <name>]
//! cm-benchmark selfcheck [--sets <n>] [--runs <n>] [--seed <n>] [--seconds <n>]
//! cm-benchmark manifest
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: one workload, one
//! process, the result as one JSON object on the last line of standard
//! output. The others run it in child processes (so that peak memory is
//! one workload's) and show or compare what it printed.

mod alloc;
mod cm_stream;
mod hostinfo;
mod json;
mod measure;
mod metrics;
mod reference;
mod replay;
mod selfcheck;
mod sim_bulk;
mod sim_mix;
mod simutil;
mod span;
mod stats;
mod workload;
mod wrap;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use measure::Outcome;
use metrics::{Values, END_TO_END, NOT_BOUNDED, PER_LAYER};
use workload::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub command: Option<String>,
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub sets: usize,
    pub runs: usize,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        sets: 2,
        runs: 5,
    };
    let mut argv = argv.peekable();
    if argv.peek().is_some_and(|a| !a.starts_with("--")) {
        args.command = argv.next();
    }
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("no workload named {value}"))?,
                );
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = number()? != 0,
            "--sets" => args.sets = number()?.max(2) as usize,
            "--runs" => args.runs = number()?.max(2) as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// `benchmark/out/`, inside the checkout the binary was built from.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, doc: &Json) {
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(name), format!("{doc}\n")));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", dir.join(name).display());
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .chain(NOT_BOUNDED.iter().map(|m| (m.0, m.1)))
        .find(|&(n, _)| n == name)
        .map_or("", |(_, unit)| unit)
}

fn metrics_json(values: &Values) -> Json {
    Json::obj(values.iter().map(|&(name, v)| {
        (
            name,
            Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit_of(name)))]),
        )
    }))
}

fn print_table(title: &str, values: &Values) {
    println!("{title}");
    for &(name, v) in values {
        println!("  {name:<42} {v:>18.4} {}", unit_of(name));
    }
}

fn result_block(
    w: Workload,
    args: &Args,
    batches: usize,
    out: &Outcome,
) -> Vec<(&'static str, Json)> {
    let mut host = hostinfo::host_block();
    host.push(("seed", Json::Int(args.seed)));
    host.push(("seconds", Json::Int(args.seconds)));
    host.push((
        "sized_work",
        Json::str(format!("{batches} batches; a batch is {}", w.batch_unit())),
    ));
    vec![
        ("workload", Json::str(w.name())),
        ("host", Json::obj(host)),
        ("attempted", Json::Int(out.tally.attempted)),
        ("failed", Json::Int(out.tally.failed)),
        (
            "failures",
            Json::Arr(out.tally.reasons.iter().map(Json::str).collect()),
        ),
        (
            "fingerprint",
            Json::str(format!("{:016x}", out.fingerprint().0)),
        ),
    ]
}

/// The last line of a driver-mode run.
fn result_line(out: &Outcome, values: &Values) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.tally.failed == 0)),
        ("attempted", Json::Int(out.tally.attempted.max(1))),
        ("failed", Json::Int(out.tally.failed)),
        ("metrics", metrics_json(values)),
    ])
}

fn report_failures(out: &Outcome) {
    for why in &out.tally.reasons {
        println!("  FAILED: {why}");
    }
}

/// One workload, untraced: the bounded end-to-end metrics.
fn end_to_end_run(w: Workload, args: &Args) -> (Outcome, Values) {
    let batches = w.batches(args.seconds);
    let mut pass = w.pass(
        args.seed,
        batches,
        false,
        workload::SEGMENTS,
        workload::SEGMENTS,
    );
    // Before the checks, which set up a second population.
    let peak_rss_mb = hostinfo::peak_rss_mb();
    w.check(args.seed, &mut pass.outcome);
    let out = pass.outcome;
    let values = metrics::end_to_end(&out, &pass.setup_s, peak_rss_mb);
    let some = metrics::not_bounded(&out, &pass.setup_s);

    print_table(
        &format!(
            "{} seed {} — end to end, {batches} batches untraced",
            w.name(),
            args.seed
        ),
        &values,
    );
    print_table("  not bounded (see README):", &some);
    println!("  fingerprint {:016x}", out.fingerprint().0);
    report_failures(&out);
    let mut doc = result_block(w, args, batches, &out);
    doc.push(("end_to_end", metrics_json(&values)));
    doc.push(("not_bounded", metrics_json(&some)));
    write_out(&format!("run_{}.json", w.name()), &Json::obj(doc));
    (out, values)
}

/// One workload, traced: the per-layer metrics and the trace file.
fn traced_run(w: Workload, args: &Args) -> (Outcome, Values) {
    let batches = w.batches(args.seconds);
    let (pass, extras) = workload::traced_run(w, args.seed, batches);
    let out = pass.outcome;
    let (values, spans) = span::with_recorder(|rec| {
        let aggregates = span::KINDS.map(|k| {
            let a = rec.agg(k);
            Json::obj([
                ("name", Json::str(k.name())),
                ("spans", Json::Int(a.spans)),
                ("total_ns", Json::Int(a.total_ns)),
                ("child_ns", Json::Int(a.child_ns)),
                ("self_ns", Json::Num(rec.self_ns(k))),
            ])
        });
        let raw = rec.raw().iter().map(|r| {
            Json::Arr(vec![
                Json::str(r.kind.name()),
                Json::Int(u64::from(r.batch)),
                if r.parent == u32::MAX {
                    Json::Null
                } else {
                    Json::Int(u64::from(r.parent))
                },
                Json::Int(r.start_ns),
                Json::Int(r.end_ns),
            ])
        });
        let spans = Json::obj([
            ("aggregates", Json::Arr(aggregates.into())),
            (
                "first_spans_columns",
                Json::str("name, batch, parent (index into this list), start_ns, end_ns"),
            ),
            ("first_spans", Json::Arr(raw.collect())),
        ]);
        (metrics::per_layer(&out, rec, &extras), spans)
    });

    print_table(
        &format!(
            "{} seed {} — per layer, {batches} batches traced",
            w.name(),
            args.seed
        ),
        &values,
    );
    println!("  apps.callback_* include the HostOs calls made inside the callback");
    println!("  fingerprint {:016x}", out.fingerprint().0);
    report_failures(&out);
    let mut doc = result_block(w, args, batches, &out);
    doc.push(("per_layer", metrics_json(&values)));
    doc.push((
        "should_move",
        Json::obj(PER_LAYER.iter().map(|m| (m.name, Json::str(m.moves)))),
    ));
    doc.push(("counts", Json::str(format!("{:?}", out.counts))));
    doc.push(("spans", spans));
    write_out(&format!("trace_{}.json", w.name()), &Json::obj(doc));
    (out, values)
}

/// `BENCHMARK.json`, from the tables in [`metrics`] and [`workload`].
fn manifest() -> String {
    let q = |s: &str| Json::str(s).to_string();
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let rows = |rows: Vec<String>| rows.join(",\n");
    s += "  \"workloads\": [\n";
    s += &rows(
        workload::ALL
            .iter()
            .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name()), q(w.why())))
            .collect(),
    );
    s += "\n  ],\n  \"end_to_end\": [\n";
    s += &rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    q(m.name),
                    q(m.unit),
                    q(m.better.as_str()),
                    m.bound
                )
            })
            .collect(),
    );
    s += "\n  ],\n  \"per_layer\": [\n";
    s += &rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    q(m.name),
                    q(m.unit),
                    q(m.better.as_str())
                )
            })
            .collect(),
    );
    s += "\n  ]\n}\n";
    s
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), args.workload) {
        (None, Some(w)) => {
            let (out, values) = if args.trace {
                traced_run(w, &args)
            } else {
                end_to_end_run(w, &args)
            };
            println!("{}", result_line(&out, &values));
            // Failed operations are in the result; the exit code says the
            // benchmark itself ran.
            ExitCode::SUCCESS
        }
        (None, None) => {
            eprintln!("cm-benchmark: --workload is required without a subcommand");
            ExitCode::from(2)
        }
        (Some("run"), _) => selfcheck::show(&args, false),
        (Some("trace"), _) => selfcheck::show(&args, true),
        (Some("selfcheck"), _) => selfcheck::selfcheck(&args),
        (Some("manifest"), _) => {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }
        (Some(other), _) => {
            eprintln!("cm-benchmark: unknown subcommand {other}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn driver_arguments_parse() {
        let argv = "--workload cm_wide --seed 7 --seconds 3 --trace 1";
        let a = parse_args(argv.split(' ').map(String::from)).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::CmWide), 7, 3, true)
        );
        assert!(a.command.is_none());
        let a = parse_args("run --seed 9".split(' ').map(String::from)).unwrap();
        assert_eq!(
            (a.command.as_deref(), a.seed, a.workload),
            (Some("run"), 9, None)
        );
        assert!(parse_args("--workload nope".split(' ').map(String::from)).is_err());
    }
}
