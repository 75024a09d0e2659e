//! Criterion benches and the chaos CLI for the OSDI 2000 Congestion
//! Manager reproduction.
//!
//! The paper's figures are built-ins of the `cm-experiments` pipeline
//! (`cargo run --release -p cm-experiments --bin figures`); the scenario
//! builders they and the benches share are re-exported here, so
//! `cm_bench::bulk_transfer` keeps its path.

#![forbid(unsafe_code)]

pub use cm_experiments::scenarios::*;
