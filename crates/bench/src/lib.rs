//! # codesign-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation as
//! markdown/CSV (see the `report` binary), plus the deterministic
//! `BENCH_report.json` summary of simulator output. Nothing here reads
//! a clock: wall-clock measurement is `perfbench`'s job.
//!
//! # Examples
//!
//! ```
//! use codesign_bench::{experiments, experiments::Context};
//!
//! let t = experiments::table1(&Context::paper_default());
//! assert!(t.to_markdown().contains("SqueezeNet"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chart;
pub mod dse_bench;
pub mod experiments;
pub mod report_json;
pub mod svg;
pub mod table;

pub use chart::{bar_chart, Bar};
pub use dse_bench::DseBench;
pub use experiments::Context;
pub use report_json::{BenchReport, NetworkHeadline, BENCH_REPORT_SCHEMA};
pub use svg::{bars_svg, scatter_svg, ScatterPoint};
pub use table::Table;
