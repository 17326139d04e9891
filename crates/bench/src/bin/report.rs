//! Regenerates the paper's tables and figures.
//!
//! ```text
//! report [all|EXPERIMENT] [--out DIR] [--jobs N] [--json[=PATH]] [--trace=PATH] [--metrics=PATH]
//!
//! EXPERIMENT: table1 table2 fig1 fig3 fig4 ranges codesign headlines sweep
//!             ablations batch compression roofline event perlayer energy
//!             robustness fusion taxonomy multicore constraints
//! ```
//!
//! Markdown goes to stdout; CSV series (and SVG plots for Figures 1 and
//! 4) are written to `--out` (default `results/`); `codesign` also
//! writes `headlines`. `--jobs` bounds the worker threads used to
//! generate experiments (`0`, the default, means one per core); results
//! are independent of the thread count. `--json` additionally writes the
//! schema-versioned `BENCH_report.json` summary of simulator output
//! (under `--out` unless a path is given); `--trace`/`--metrics` capture
//! the run through the observability layer as a Chrome trace /
//! aggregated metrics snapshot.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use codesign_bench::experiments::{generate, Context, ALL};
use codesign_bench::{bar_chart, bars_svg, scatter_svg, Bar, BenchReport, ScatterPoint};
use codesign_sim::atomic_write;
use codesign_trace::{chrome_trace, MetricsSnapshot, Tracer};

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut which = "all".to_owned();
    let mut out_dir = PathBuf::from("results");
    let mut jobs = 0usize;
    // `Some(None)` means "--json with the default path under --out".
    let mut json: Option<Option<PathBuf>> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => jobs = n,
                None => {
                    eprintln!("--jobs requires a thread count (0 = one per core)");
                    return ExitCode::FAILURE;
                }
            },
            "--json" => json = Some(None),
            a if a.starts_with("--json=") => {
                json = Some(Some(PathBuf::from(&a["--json=".len()..])));
            }
            a if a.starts_with("--trace=") => {
                trace_path = Some(PathBuf::from(&a["--trace=".len()..]));
            }
            a if a.starts_with("--metrics=") => {
                metrics_path = Some(PathBuf::from(&a["--metrics=".len()..]));
            }
            other => which = other.to_owned(),
        }
    }

    let tracer = if trace_path.is_some() || metrics_path.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let mut ctx = Context::with_jobs(jobs);
    if tracer.is_enabled() {
        // The clone shares the memo cache, so this only swaps the tracer in.
        ctx.sim = ctx.sim.clone().with_tracer(tracer.clone());
    }
    let selected: Vec<_> = ALL
        .into_iter()
        .filter(|(name, _)| {
            which == "all" || which == *name || (which == "codesign" && *name == "headlines")
        })
        .collect();
    if selected.is_empty() {
        eprintln!(
            "unknown experiment `{which}`; expected one of all, {}",
            ALL.map(|(n, _)| n).join(", ")
        );
        return ExitCode::FAILURE;
    }

    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    // Generated in parallel; printed and written in selection order.
    let generated = generate(&ctx, &selected);
    for g in &generated {
        let table = &g.table;
        println!("{}", table.to_markdown());
        if g.name == "fig1" {
            let bars: Vec<Bar> = (0..table.len())
                .map(|i| Bar {
                    label: table.cell(i, 0).expect("fig1 rows have labels").to_owned(),
                    value: table.cell(i, 5).and_then(|c| c.parse().ok()).unwrap_or_default(),
                    secondary: table.cell(i, 6).and_then(|c| c.parse().ok()),
                })
                .collect();
            println!("{}", bar_chart("Figure 1 (hybrid cycles, utilization)", &bars, 50));
            let svg_path = out_dir.join("fig1.svg");
            if let Err(e) = atomic_write(
                &svg_path,
                bars_svg("Figure 1: SqueezeNet v1.0 per-layer cycles (utilization)", &bars)
                    .as_bytes(),
            ) {
                eprintln!("cannot write {}: {e}", svg_path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", svg_path.display());
        }
        if g.name == "fig4" {
            let family = |label: &str| {
                if label.contains("SqNxt") {
                    0
                } else if label.contains("MobileNet") {
                    1
                } else if label.contains("SqueezeNet") {
                    2
                } else {
                    3
                }
            };
            let points: Vec<ScatterPoint> = (0..table.len())
                .filter_map(|i| {
                    Some(ScatterPoint {
                        label: table.cell(i, 0)?.to_owned(),
                        x: table.cell(i, 2)?.parse().ok()?,
                        y: table.cell(i, 1)?.parse().ok()?,
                        series: family(table.cell(i, 0)?),
                    })
                })
                .collect();
            let svg_path = out_dir.join("fig4.svg");
            if let Err(e) = atomic_write(
                &svg_path,
                scatter_svg(
                    "Figure 4: accuracy vs inference time (higher-left is better)",
                    "inference time (ms)",
                    "top-1 accuracy (%)",
                    &points,
                )
                .as_bytes(),
            ) {
                eprintln!("cannot write {}: {e}", svg_path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", svg_path.display());
        }
        let path = out_dir.join(format!("{}.csv", g.name));
        if let Err(e) = table.write_csv(&path) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }

    if let Some(dest) = json {
        let path = dest.unwrap_or_else(|| out_dir.join("BENCH_report.json"));
        let report = BenchReport::collect(&ctx, &generated);
        if let Err(e) = atomic_write(&path, report.to_json().as_bytes()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }

    if tracer.is_enabled() {
        let data = tracer.snapshot();
        if let Some(path) = &trace_path {
            if let Err(e) = atomic_write(path, chrome_trace(&data).as_bytes()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {} ({} spans)", path.display(), data.span_count());
        }
        if let Some(path) = &metrics_path {
            if let Err(e) = atomic_write(path, MetricsSnapshot::of(&data).to_json().as_bytes()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
    }

    eprintln!("generated {} artifact(s); sim cache: {}", generated.len(), ctx.sim.stats());
    ExitCode::SUCCESS
}
