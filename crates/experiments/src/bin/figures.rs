//! Regenerates the paper-figure outputs under `docs/figures/`.
//!
//! ```text
//! cargo run --release -p cm-experiments --bin figures [-- --smoke] [--out DIR]
//! ```
//!
//! * `--smoke` — shrunken durations and seeds, the geometry the tests
//!   run (output to `target/figures-smoke`).
//! * `--out DIR` — output directory (default `docs/figures`).
//!
//! Output is deterministic: the same binary produces byte-identical
//! files on every run, so `git diff` after a regeneration shows exactly
//! what a code change did to the figures.

use std::path::PathBuf;

use cm_experiments::builtin;

fn main() {
    let mut smoke = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                })))
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: figures [--smoke] [--out DIR]");
                std::process::exit(2);
            }
        }
    }

    // Smoke-geometry output must never land in docs/figures by default:
    // it would silently replace the committed full-run figures.
    let out_dir = out_dir.unwrap_or_else(|| {
        PathBuf::from(if smoke {
            "target/figures-smoke"
        } else {
            "docs/figures"
        })
    });
    let figures = builtin::FIGURES;
    let mode = if smoke { " (smoke mode)" } else { "" };
    println!(
        "Regenerating {} figures into {}{mode}",
        figures.len(),
        out_dir.display()
    );
    let mut index = String::from(
        "# Generated figures\n\n\
         Regenerated by `cargo run --release -p cm-experiments --bin figures`.\n\
         Do not edit by hand; see docs/experiments.md for the pipeline.\n\n",
    );
    for fig in figures {
        let name = fig.name;
        print!("  {name}... ");
        let written = fig
            .run(smoke)
            .write_to(&out_dir)
            .unwrap_or_else(|e| panic!("writing {name}: {e}"));
        println!("{} files", written.len());
        index.push_str(&format!(
            "- **{name}** — {} ([report]({name}.md), [csv]({name}.csv), [dat]({name}.dat))\n",
            fig.title
        ));
    }
    std::fs::write(out_dir.join("README.md"), index).expect("writing figure index");
    println!("Done. Figure index: {}/README.md", out_dir.display());
}
