//! `report-suite`: each op regenerates the 21 `report all` experiments
//! on a fresh context (cold cache) and compares every table with the
//! committed `results/<name>.csv`.
//!
//! Single suites at two workers fall into two modes about a third apart,
//! and the share in each mode varies from run to run, so the median of
//! single suites jumps between the modes. The end-to-end `p50_ms` is
//! therefore the median over samples of [`SAMPLE_MS`] of consecutive
//! suites (their mean suite time); the per-suite median, quartiles and
//! tail are printed as `suite_p50_ms`.

use std::fs;
use std::time::Instant;

use codesign_bench::experiments::{
    ablations, batch_sweep, codesign, compression, constraints, dse_sweep, energy_breakdown,
    event_crosscheck, fig1, fig3, fig4, fusion_study, headlines, multicore_scaling, per_layer_all,
    ranges, roofline_table, schedule_robustness, table1, table2, taxonomy, Context,
};
use codesign_bench::Table;
use codesign_sim::{par_map, CacheStats};

use crate::spans::Spans;
use crate::stats::{batch_means, median};
use crate::{peak_rss_mb, Env, Outcome};

/// Least suite time, in milliseconds, one `p50_ms` sample spans.
const SAMPLE_MS: f64 = 250.0;

/// An experiment: its `report` name and generator.
pub type Experiment = (&'static str, fn(&Context) -> Table);

/// The `report all` experiments, in its order.
pub const EXPERIMENTS: [Experiment; 21] = [
    ("table1", table1),
    ("table2", table2),
    ("fig1", fig1),
    ("fig3", fig3),
    ("fig4", fig4),
    ("ranges", ranges),
    ("codesign", codesign),
    ("headlines", headlines),
    ("sweep", dse_sweep),
    ("ablations", ablations),
    ("batch", batch_sweep),
    ("compression", compression),
    ("roofline", roofline_table),
    ("event", event_crosscheck),
    ("perlayer", per_layer_all),
    ("energy", energy_breakdown),
    ("robustness", schedule_robustness),
    ("fusion", fusion_study),
    ("taxonomy", taxonomy),
    ("multicore", multicore_scaling),
    ("constraints", constraints),
];

fn load_expected() -> Result<Vec<String>, String> {
    EXPERIMENTS
        .iter()
        .map(|(name, _)| {
            let path = format!("results/{name}.csv");
            fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
        })
        .collect()
}

/// One op: every experiment on `ctx`, a fresh context with `jobs`
/// workers, as `report all` generates them. Returns the tables and the
/// context's cache counters.
fn suite(ctx: &Context, jobs: usize, spans: &Spans, op: u64) -> (Vec<Table>, CacheStats) {
    let root = spans.open("report.suite", op, None);
    let tables = par_map(jobs, &EXPERIMENTS, |_, (name, gen)| {
        let local = Context { sim: ctx.sim.fork_counter(), ..ctx.clone() };
        if spans.is_enabled() {
            spans.time(&format!("report.{name}"), op, root, |_| gen(&local))
        } else {
            gen(&local)
        }
    });
    spans.close(root);
    (tables, ctx.sim.stats())
}

pub fn run(env: &Env, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (traced, untraced) = (Spans::new(trace), Spans::new(false));
    let mut traced_ms = Vec::new();
    let (mut hits, mut misses, mut contended) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < env.seconds {
        // Set-up (the expected tables and a fresh context) is repeated
        // before every op, so its samples span the whole run.
        let t = Instant::now();
        let expected = load_expected()?;
        let ctx = Context::with_jobs(env.jobs);
        out.setup_s.push(t.elapsed().as_secs_f64());

        let op = out.attempted;
        // Traced runs alternate traced and untraced ops, so the two
        // medians differ only by the tracing.
        let with_spans = trace && op % 2 == 1;
        let t = Instant::now();
        let (tables, stats) =
            suite(&ctx, env.jobs, if with_spans { &traced } else { &untraced }, op);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        let matches = tables.len() == expected.len()
            && tables.iter().zip(&expected).all(|(t, want)| t.to_csv() == *want);
        if !matches {
            out.failed += 1;
        }
        if with_spans {
            traced_ms.push(ms);
        } else {
            out.op_ms.push(ms);
        }
        hits += stats.hits;
        misses += stats.misses;
        contended += stats.contended;
    }
    out.peak_rss_mb = peak_rss_mb(None);
    let busy_s: f64 = out.op_ms.iter().chain(&traced_ms).sum::<f64>() / 1e3;
    out.ops_per_s = out.attempted as f64 / busy_s;
    out.note("suite_p50_ms", "ms", out.op_ms.clone());

    if trace {
        let ops = out.attempted as f64;
        out.layer("trace.overhead_ms", median(&traced_ms) - median(&out.op_ms));
        out.layer("sim.cache.hit_rate", hits as f64 / (hits + misses).max(1) as f64);
        out.layer("sim.cache.misses_per_op", misses as f64 / ops);
        out.layer("sim.cache.contended", contended as f64 / ops);
        traced.dump(&env.work.join(format!("spans-report-suite-{}.jsonl", env.seed)))?;
    }
    out.op_ms = batch_means(&out.op_ms, SAMPLE_MS);
    Ok(out)
}
