//! End-to-end and per-layer benchmark of the codesign workspace.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.sh` builds this crate and the `codesign` CLI in release mode and
//! runs `perfbench` with two more arguments, `--codesign <binary>` and
//! `--work <dir>` (scratch files: the serve snapshot, cached reference
//! results, span dumps and the per-layer ledger).
//!
//! Workloads (one op each; the seed only changes inputs, never their cost):
//!
//! * `serve-mix` — two closed-loop clients against a spawned
//!   `codesign serve`, a seeded Zipf mix of simulate/codesign/sweep
//!   requests; an op is one simulate or codesign query.
//! * `report-suite` — the 21 `report all` experiments on a cold context.
//! * `frontier-pruned` — the 10.24M-point single-conv streaming sweep,
//!   where branch-and-bound skips almost everything.
//! * `frontier-dense` — SqueezeNet v1.1 over a dense, seeded buffer axis,
//!   where nothing prunes and every tiling lookup misses.
//! * `zoo-inference` — one functional pass over the six table networks.
//!
//! `BENCHMARK.json` lists serve-mix, report-suite and zoo-inference. The
//! two frontier workloads stay runnable by hand, but their medians moved
//! by up to a third between runs on a shared 2-core host, wider than any
//! bound a regression check could use; every traced run still measures
//! their layers (`core.stream.*`, the tiling search, `core.pareto`).
//!
//! End-to-end metrics (untraced runs, every workload): `setup_s`,
//! `p50_ms` (median op latency; report-suite takes it over 0.25-s
//! samples), `ops_per_s` and `peak_rss_mb`. Failed
//! output checks go to the `failed` count. Workload-specific figures
//! (request rate, p95, sweep latency, GMAC/s, warm share) are printed in
//! the `#` summary lines above the result.
//!
//! A traced run (`--trace 1`) runs the workload with every other op
//! wrapped in spans (the difference is the tracing overhead), then a
//! fixed layer profile, and reports the per-layer metrics in
//! [`PER_LAYER`]. It also writes the spans and the per-layer ledger
//! under the work directory.

mod frontier;
mod json;
mod layers;
mod report_suite;
mod serve_mix;
mod spans;
mod stats;
mod zoo_inference;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use stats::{median, summary_line};

/// Workloads this binary runs (the frontier pair is not in
/// `BENCHMARK.json`; see the crate documentation).
const WORKLOADS: [&str; 5] =
    ["serve-mix", "report-suite", "frontier-pruned", "frontier-dense", "zoo-inference"];

/// Per-layer metrics a traced run reports, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.first_line_p50_ms", "ms"),
    ("serve.stream_p50_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.dedup_frac", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_entries", "count"),
    ("dnn.by_name_us", "us"),
    ("sim.validate_us", "us"),
    ("sim.snapshot.load_ms", "ms"),
    ("sim.snapshot.bytes", "bytes"),
    ("sim.network.cold_us", "us"),
    ("sim.network.warm_us", "us"),
    ("sim.layer.hit_ns", "ns"),
    ("sim.cache.hit_rate", "ratio"),
    ("sim.cache.misses_per_op", "count"),
    ("sim.cache.contended", "count"),
    ("sim.tiling.us_per_search", "us"),
    ("sim.ws.us_per_layer", "us"),
    ("sim.os.us_per_layer", "us"),
    ("sim.cycle.us_per_layer", "us"),
    ("sim.event.ms_per_network", "ms"),
    ("core.evaluate.cold_us", "us"),
    ("core.evaluate.warm_us", "us"),
    ("core.stream.evaluated", "count"),
    ("core.stream.pruned_frac", "ratio"),
    ("core.stream.peak_frontier", "count"),
    ("core.stream.us_per_eval", "us"),
    ("core.sweep_full_ms", "ms"),
    ("core.pareto.designs_us", "us"),
    ("report.table1_ms", "ms"),
    ("report.table2_ms", "ms"),
    ("report.fig1_ms", "ms"),
    ("report.fig3_ms", "ms"),
    ("report.fig4_ms", "ms"),
    ("report.ranges_ms", "ms"),
    ("report.codesign_ms", "ms"),
    ("report.headlines_ms", "ms"),
    ("report.sweep_ms", "ms"),
    ("report.ablations_ms", "ms"),
    ("report.batch_ms", "ms"),
    ("report.compression_ms", "ms"),
    ("report.roofline_ms", "ms"),
    ("report.event_ms", "ms"),
    ("report.perlayer_ms", "ms"),
    ("report.energy_ms", "ms"),
    ("report.robustness_ms", "ms"),
    ("report.fusion_ms", "ms"),
    ("report.taxonomy_ms", "ms"),
    ("report.multicore_ms", "ms"),
    ("report.constraints_ms", "ms"),
    ("tensor.first_conv.ms", "ms"),
    ("tensor.first_conv.gmac_per_s", "GMAC/s"),
    ("tensor.first_conv.peak_frac", "ratio"),
    ("tensor.pointwise.ms", "ms"),
    ("tensor.pointwise.gmac_per_s", "GMAC/s"),
    ("tensor.pointwise.peak_frac", "ratio"),
    ("tensor.spatial.ms", "ms"),
    ("tensor.spatial.gmac_per_s", "GMAC/s"),
    ("tensor.spatial.peak_frac", "ratio"),
    ("tensor.depthwise.ms", "ms"),
    ("tensor.depthwise.gmac_per_s", "GMAC/s"),
    ("tensor.depthwise.peak_frac", "ratio"),
    ("tensor.fc.ms", "ms"),
    ("tensor.fc.gmac_per_s", "GMAC/s"),
    ("tensor.fc.peak_frac", "ratio"),
    ("tensor.pack_ms", "ms"),
    ("tensor.kernel_ms", "ms"),
    ("tensor.kernel_peak_gmac_per_s", "GMAC/s"),
    ("tensor.zero_skip_frac", "ratio"),
    ("parallel.zoo_speedup", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// What every workload runs with.
pub struct Env {
    pub seed: u64,
    pub seconds: f64,
    /// Worker threads and client connections: `nproc`, clamped to
    /// `available_parallelism`.
    pub jobs: usize,
    pub codesign: PathBuf,
    pub work: PathBuf,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set-up time samples in seconds (the metric is their median).
    pub setup_s: Vec<f64>,
    /// Op latency samples in milliseconds.
    pub op_ms: Vec<f64>,
    pub ops_per_s: f64,
    pub peak_rss_mb: f64,
    /// Workload-specific figures for the summary: name, unit, samples.
    pub notes: Vec<(String, String, Vec<f64>)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, f64)>,
}

impl Outcome {
    pub fn note(&mut self, name: &str, unit: &str, samples: Vec<f64>) {
        self.notes.push((name.to_owned(), unit.to_owned(), samples));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_owned(), value));
    }

    /// Whether the per-layer metric `name` still needs measuring.
    pub fn lacks(&self, name: &str) -> bool {
        !self.layers.iter().any(|(n, _)| n == name)
    }
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(|| "/proc/self/status".to_owned(), |p| format!("/proc/{p}/status"));
    fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over a stream of 32-bit words: the output digest the
/// functional check compares.
pub fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    codesign: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let (mut codesign, mut work) = (None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--codesign" => codesign = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        codesign: codesign.ok_or("--codesign is required")?,
        work: work.ok_or("--work is required")?,
    })
}

/// Trimmed stdout of a command, or `unknown`.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host and contention record printed with every result.
fn host_record(nproc: usize, available: usize, jobs: usize) -> String {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':'])))
        .unwrap_or("unknown");
    let features = fs::read_to_string(Path::new(".cargo").join("config.toml"))
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.trim_start().starts_with("rustflags")).map(str::to_owned)
        })
        .unwrap_or_else(|| "none".to_owned());
    let load = fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_owned))
        .unwrap_or_else(|| "null".to_owned());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"host\":{{\"nproc\":{nproc},\"available_parallelism\":{available},\"cpu_model\":{},\"rustc\":{},\"target_features\":{},\"profile\":\"{profile}\",\"jobs_requested\":{nproc},\"jobs_used\":{jobs},\"loadavg_1m_before\":{load}}}}}",
        json::escape(cpu),
        json::escape(&command_output("rustc", &["-V"])),
        json::escape(features.trim()),
    )
}

type Metric = (String, String, f64);

fn run(args: &Args) -> Result<(Outcome, Vec<Metric>), String> {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let nproc = command_output("nproc", &[]).parse().unwrap_or(available);
    let jobs = nproc.clamp(1, available);
    println!("{}", host_record(nproc, available, jobs));
    fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    let env = Env {
        seed: args.seed,
        seconds: args.seconds,
        jobs,
        codesign: args.codesign.clone(),
        work: args.work.clone(),
    };
    let mut out = match args.workload.as_str() {
        "serve-mix" => serve_mix::run(&env, args.trace)?,
        "report-suite" => report_suite::run(&env, args.trace)?,
        "frontier-pruned" => frontier::run(&env, args.trace, false)?,
        "frontier-dense" => frontier::run(&env, args.trace, true)?,
        "zoo-inference" => zoo_inference::run(&env, args.trace)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    if out.attempted == 0 || out.op_ms.is_empty() || out.setup_s.is_empty() {
        return Err("the run completed no op".to_owned());
    }
    for (name, unit, samples) in &out.notes {
        println!("{}", summary_line(name, unit, samples));
    }
    println!("{}", summary_line("setup_s", "s", &out.setup_s));
    println!("{}", summary_line("p50_ms", "ms", &out.op_ms));
    println!("# fail_frac: {} of {} ops failed", out.failed, out.attempted);

    let metrics = if args.trace {
        layers::profile(&env, &mut out)?;
        let mut m = Vec::new();
        for (name, unit) in PER_LAYER {
            let value = out
                .layers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("traced run did not measure {name}"))?;
            println!("# layer {name:<32} {value:>14.4} {unit}");
            m.push(((*name).to_owned(), (*unit).to_owned(), value));
        }
        m
    } else {
        vec![
            ("setup_s".to_owned(), "s".to_owned(), median(&out.setup_s)),
            ("p50_ms".to_owned(), "ms".to_owned(), median(&out.op_ms)),
            ("ops_per_s".to_owned(), "1/s".to_owned(), out.ops_per_s),
            ("peak_rss_mb".to_owned(), "MiB".to_owned(), out.peak_rss_mb),
        ]
    };
    if let Some((name, _, v)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number ({v})"));
    }
    Ok((out, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((out, metrics)) => {
            let body: Vec<String> = metrics
                .iter()
                .map(|(name, unit, v)| {
                    format!(
                        "{}:{{\"value\":{v},\"unit\":{}}}",
                        json::escape(name),
                        json::escape(unit)
                    )
                })
                .collect();
            println!(
                "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
                out.failed == 0,
                out.attempted,
                out.failed,
                body.join(",")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
