//! `frontier-pruned` and `frontier-dense`: streaming frontier sweeps
//! with branch-and-bound on, each op on a fresh simulator, the frontier
//! and best-EDP point checked against `pareto_designs` over
//! `sweep_full_with` of the same space.
//!
//! * pruned: the 10.24M-point single-conv `DseBench` space, where
//!   pruning skips ~99.995% of the grid. Its reference needs every point
//!   evaluated (about a minute), so it is computed once per work
//!   directory and cached there.
//! * dense: SqueezeNet v1.1 over 3 arrays x 2 RFs x a dense buffer axis
//!   whose sizes are all distinct, so pruning finds little and every
//!   traffic lookup misses. The seed offsets the buffer axis.

use std::fs;
use std::time::Instant;

use codesign_arch::EnergyModel;
use codesign_bench::DseBench;
use codesign_core::{
    best_by_energy_delay, pareto_designs, sweep_frontier_with, sweep_full_with, DesignPoint,
    FrontierConfig, FrontierOutcome, SweepSpace,
};
use codesign_dnn::{zoo, Network};
use codesign_sim::{CancelToken, SimOptions, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spans::Spans;
use crate::stats::median;
use crate::{peak_rss_mb, Env, Outcome};

/// Buffer levels of the dense space.
const DENSE_BUFFERS: usize = 100;
/// Buffer-axis points materialised at once while computing a reference.
const REFERENCE_SLICE: usize = 4_096;

/// The dense space for `seed`: every buffer size distinct, 64 KiB up.
pub fn dense_space(seed: u64) -> SweepSpace {
    let offset = StdRng::seed_from_u64(seed).gen_range(0..97usize);
    SweepSpace {
        array_sizes: vec![8, 16, 32],
        rf_depths: vec![8, 16],
        buffer_bytes: (0..DENSE_BUFFERS).map(|i| 64 * 1024 + 32 * (offset + 97 * i)).collect(),
    }
}

fn workload(dense: bool, seed: u64) -> (Network, SweepSpace) {
    if dense {
        (zoo::squeezenet_v1_1(), dense_space(seed))
    } else {
        (DseBench::network(), DseBench::space())
    }
}

/// The frontier and best point as text, `f64`s by bit pattern, so two
/// results compare exactly.
fn digest(frontier: &[DesignPoint], best: Option<&DesignPoint>) -> String {
    let line = |p: &DesignPoint| {
        format!(
            "{} {} {} {} {:x} {:x} {:x}\n",
            p.params.array_size,
            p.params.rf_depth,
            p.params.global_buffer_bytes,
            p.cycles,
            p.energy.to_bits(),
            p.utilization.to_bits(),
            p.area.to_bits()
        )
    };
    let mut text: String = frontier.iter().map(line).collect();
    text.push_str("best ");
    text.push_str(&best.map_or_else(|| "none\n".to_owned(), line));
    text
}

/// `pareto_designs` over `sweep_full_with`, a buffer slice at a time so
/// memory stays bounded. Slice frontiers are kept in grid order, so the
/// final `pareto_designs` sees the same order as one whole-space call.
fn reference(env: &Env, net: &Network, space: &SweepSpace) -> Result<String, String> {
    let (opts, energy) = (SimOptions::paper_default(), EnergyModel::default());
    let groups = space.array_sizes.len() * space.rf_depths.len();
    let mut fronts: Vec<Vec<DesignPoint>> = vec![Vec::new(); groups];
    for buffers in space.buffer_bytes.chunks(REFERENCE_SLICE) {
        // One simulator per slice: its traffic searches are shared by
        // every (array, rf) pair, and dropped before the next slice.
        let sim = Simulator::new();
        for (a, &array) in space.array_sizes.iter().enumerate() {
            for (r, &rf) in space.rf_depths.iter().enumerate() {
                let slice = SweepSpace {
                    array_sizes: vec![array],
                    rf_depths: vec![rf],
                    buffer_bytes: buffers.to_vec(),
                };
                let out = sweep_full_with(&sim, net, &slice, opts, &energy, env.jobs)
                    .map_err(|e| format!("reference sweep failed: {e}"))?;
                fronts[a * space.rf_depths.len() + r].extend(pareto_designs(&out.points));
            }
        }
    }
    let all: Vec<DesignPoint> = fronts.into_iter().flatten().collect();
    let front = pareto_designs(&all);
    Ok(digest(&front, best_by_energy_delay(&front)))
}

fn cached_reference(env: &Env, net: &Network, space: &SweepSpace) -> Result<String, String> {
    let path = env.work.join("frontier-pruned.ref");
    if let Ok(text) = fs::read_to_string(&path) {
        return Ok(text);
    }
    let started = Instant::now();
    let text = reference(env, net, space)?;
    eprintln!("computed the frontier-pruned reference in {:.1} s", started.elapsed().as_secs_f64());
    fs::write(&path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(text)
}

/// One op: a streaming frontier sweep with pruning; callers pass a
/// fresh simulator.
fn sweep(
    env: &Env,
    sim: &Simulator,
    net: &Network,
    space: &SweepSpace,
) -> Result<FrontierOutcome, String> {
    let config = FrontierConfig {
        jobs: env.jobs,
        chunk: DseBench::CHUNK,
        prune: true,
        ..FrontierConfig::default()
    };
    sweep_frontier_with(
        sim,
        net,
        space,
        SimOptions::paper_default(),
        &EnergyModel::default(),
        &config,
        &CancelToken::never(),
        |_| {},
    )
    .map_err(|e| format!("frontier sweep failed: {e}"))
}

/// Pushes the `core.stream.*` per-layer metrics for `outcomes`, whose
/// ops took `ms` each.
fn stream_layers(out: &mut Outcome, outcomes: &[FrontierOutcome], ms: &[f64]) {
    let n = outcomes.len().max(1) as f64;
    let evaluated: u64 = outcomes.iter().map(|o| o.counters.evaluated).sum();
    let (pruned, total): (u64, u64) =
        outcomes.iter().fold((0, 0), |(p, t), o| (p + o.counters.pruned, t + o.counters.total));
    let peak = outcomes.iter().map(|o| o.counters.peak_frontier).max().unwrap_or(0);
    out.layer("core.stream.evaluated", evaluated as f64 / n);
    out.layer("core.stream.pruned_frac", pruned as f64 / total.max(1) as f64);
    out.layer("core.stream.peak_frontier", peak as f64);
    out.layer("core.stream.us_per_eval", ms.iter().sum::<f64>() * 1e3 / evaluated.max(1) as f64);
}

/// Per-layer `core.stream.*` metrics from one pruned-space op, for
/// traced runs of workloads that do not sweep.
pub fn probe(env: &Env, out: &mut Outcome) -> Result<(), String> {
    let (net, space) = workload(false, env.seed);
    let t = Instant::now();
    let outcome = sweep(env, &Simulator::new(), &net, &space)?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    stream_layers(out, &[outcome], &[ms]);
    Ok(())
}

pub fn run(env: &Env, trace: bool, dense: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let want = {
        let (net, space) = workload(dense, env.seed);
        if dense {
            reference(env, &net, &space)?
        } else {
            cached_reference(env, &net, &space)?
        }
    };

    let name = if dense { "core.sweep_frontier.dense" } else { "core.sweep_frontier.pruned" };
    let spans = Spans::new(trace);
    let (mut traced_ms, mut outcomes) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < env.seconds {
        // Set-up (network and space) is rebuilt before every op, so its
        // samples span the whole run; the previous op's copy is already
        // freed (the pruned space alone is 20 MB).
        let t = Instant::now();
        let (net, space) = workload(dense, env.seed);
        out.setup_s.push(t.elapsed().as_secs_f64());

        let op = out.attempted;
        let with_spans = trace && op % 2 == 1;
        let t = Instant::now();
        let result = if with_spans {
            spans.time(name, op, None, |_| sweep(env, &Simulator::new(), &net, &space))
        } else {
            sweep(env, &Simulator::new(), &net, &space)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        match result {
            Ok(o) if digest(&o.frontier, o.best.as_ref()) == want => {
                if with_spans {
                    traced_ms.push(ms);
                    outcomes.push(o);
                } else {
                    out.op_ms.push(ms);
                }
            }
            _ => out.failed += 1,
        }
    }
    out.peak_rss_mb = peak_rss_mb(None);
    let busy_s: f64 = out.op_ms.iter().chain(&traced_ms).sum::<f64>() / 1e3;
    out.ops_per_s = (out.op_ms.len() + traced_ms.len()) as f64 / busy_s;
    let label = if dense { "dense_sweep_p50_ms" } else { "pruned_sweep_p50_ms" };
    out.note(label, "ms", out.op_ms.clone());

    if trace {
        out.layer("trace.overhead_ms", median(&traced_ms) - median(&out.op_ms));
        stream_layers(&mut out, &outcomes, &traced_ms);
        // The cache counters of one op, from one more on a simulator kept
        // for inspection.
        let (net, space) = workload(dense, env.seed);
        let sim = Simulator::new();
        sweep(env, &sim, &net, &space)?;
        let s = sim.stats();
        out.layer("sim.cache.hit_rate", s.hit_rate());
        out.layer("sim.cache.misses_per_op", s.misses as f64);
        out.layer("sim.cache.contended", s.contended as f64);
        let tag = if dense { "dense" } else { "pruned" };
        spans.dump(&env.work.join(format!("spans-frontier-{tag}-{}.jsonl", env.seed)))?;
    }
    Ok(out)
}
