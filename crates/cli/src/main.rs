//! `codesign` — command-line front end to the co-design toolkit.
//!
//! ```text
//! codesign simulate squeezenet-v1.0
//! codesign schedule mobilenet --array 16
//! codesign compile my_model.net --arch os
//! codesign compare squeezenext
//! codesign sweep tiny-darknet
//! codesign list
//! ```

mod args;
mod faultserve;
mod jsonval;
mod serve;

use std::fs;
use std::process::ExitCode;

use codesign_arch::EnergyModel;
use codesign_core::{
    best_by_energy_delay, ArchitectureComparison, CheckpointConfig, FrontierConfig, FrontierEvent,
    NetworkSchedule, SweepSpace,
};
use codesign_dnn::{parse_network, zoo, Network};
use codesign_sim::{
    atomic_write, cycle, recover, run_corpus, validate_network, CancelToken, ConvWork,
    MultiCoreConfig, Program, SimOptions, Simulator,
};
use codesign_trace::{chrome_trace, MetricsSnapshot, Tracer};

use args::{parse_args, Action, Invocation, USAGE};

/// Exit code 2: the simulator rejected the workload or configuration
/// with a typed error (preflight validation, infeasible tiling,
/// overflow-scale shapes), or the fault-injection corpus failed.
const EXIT_REJECTED: u8 = 2;

/// A failed run, classified for the process exit code: `Usage` exits 1
/// (bad arguments, unknown networks, I/O), `Rejected` exits 2 (the
/// simulator refused the workload with a typed error).
enum RunError {
    Usage(String),
    Rejected(String),
}

impl RunError {
    fn rejected(e: impl std::fmt::Display) -> Self {
        RunError::Rejected(e.to_string())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") || argv.is_empty() {
        print!("{USAGE}");
        return if argv.is_empty() { ExitCode::FAILURE } else { ExitCode::SUCCESS };
    }
    let inv = match parse_args(argv) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("codesign: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&inv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(RunError::Usage(e)) => {
            eprintln!("codesign: {e}");
            ExitCode::FAILURE
        }
        Err(RunError::Rejected(e)) => {
            eprintln!("codesign: {e}");
            ExitCode::from(EXIT_REJECTED)
        }
    }
}

fn load_network(spec: &str) -> Result<Network, RunError> {
    if let Some(net) = zoo::by_name(spec) {
        return Ok(net);
    }
    if spec.ends_with(".net") || spec.contains('/') {
        let text = fs::read_to_string(spec)
            .map_err(|e| RunError::Usage(format!("cannot read {spec}: {e}")))?;
        // A file that exists but does not describe a valid network is an
        // input-rejection (exit 2), not a usage error.
        return parse_network(&text).map_err(|e| RunError::Rejected(format!("{spec}: {e}")));
    }
    Err(RunError::Usage(format!(
        "unknown network `{spec}` (see `codesign list`, or pass a .net file)"
    )))
}

/// The one `--cache-load` policy (`sweep`, `compare`, `serve`): warm-starts
/// `sim` through [`recover`], noting each refused candidate on stderr
/// unless `quiet`. No candidate at all is a usage error (exit 1); every
/// candidate refused is a rejection (exit 2). Returns the refusal count.
fn load_cache(sim: &Simulator, path: Option<&str>, quiet: bool) -> Result<usize, RunError> {
    let Some(path) = path else { return Ok(0) };
    let (loaded, refused) = recover(std::path::Path::new(path), |b| sim.load_cache_snapshot(b))
        .map_err(|e| RunError::Usage(format!("cannot read {path}: {e}")))?;
    if !quiet {
        for r in &refused {
            eprintln!("; refused snapshot {}: {}", r.path.display(), r.value);
        }
    }
    let Some(loaded) = loaded else {
        return Err(RunError::Rejected(format!(
            "{path}: all {} snapshot candidate(s) refused",
            refused.len()
        )));
    };
    if !quiet {
        eprintln!(
            "; warm-started from {} ({} cache entries)",
            loaded.path.display(),
            loaded.value.entries()
        );
    }
    Ok(refused.len())
}

/// Saves `sim`'s cache to `path` (`--cache-save`), if given, and returns
/// the bytes written. The write is atomic: a crash mid-save leaves the
/// previous snapshot (or no file), never a torn one.
fn save_cache(
    sim: &Simulator,
    path: Option<&str>,
    quiet: bool,
) -> Result<Option<Vec<u8>>, RunError> {
    let Some(path) = path else { return Ok(None) };
    let snap = sim.cache_snapshot().map_err(|e| RunError::Rejected(e.to_string()))?;
    atomic_write(std::path::Path::new(path), &snap)
        .map_err(|e| RunError::Usage(format!("cannot write {path}: {e}")))?;
    if !quiet {
        eprintln!("; saved cache snapshot to {path} ({} bytes)", snap.len());
    }
    Ok(Some(snap))
}

/// The bounded-memory streaming sweep behind `codesign sweep --frontier`
/// (and the flags that imply it). Stdout carries only the deterministic
/// final product — the frontier table and the best-energy-delay line —
/// and is byte-identical whether the run was chunked, pruned, resumed
/// after a crash, or none of those. Progress, frontier deltas, and
/// counters go to stderr as `;`-prefixed notes.
fn run_frontier_sweep(
    sim: &Simulator,
    net: &Network,
    inv: &Invocation,
    opts: SimOptions,
    energy: &EnergyModel,
) -> Result<(), RunError> {
    let mut space = SweepSpace::paper_default();
    if let Some(arrays) = &inv.arrays {
        space.array_sizes = arrays.clone();
    }
    if let Some(rfs) = &inv.rfs {
        space.rf_depths = rfs.clone();
    }
    if let Some(buffers) = &inv.buffers_kib {
        space.buffer_bytes = buffers.iter().map(|kb| kb * 1024).collect();
    }
    let checkpoint = match &inv.checkpoint {
        Some(base) => {
            let base = std::path::PathBuf::from(base);
            // A 10M-point sweep must not die at its first checkpoint
            // because the target directory does not exist yet.
            if let Some(parent) = base.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent).map_err(|e| {
                    RunError::Usage(format!(
                        "creating checkpoint directory {}: {e}",
                        parent.display()
                    ))
                })?;
            }
            Some(CheckpointConfig { base, every_points: inv.checkpoint_every })
        }
        None => None,
    };
    let config = FrontierConfig {
        jobs: inv.jobs,
        chunk: inv.chunk.unwrap_or(64),
        prune: inv.prune,
        checkpoint,
        resume: inv.resume,
    };
    let started = std::time::Instant::now();
    let outcome = codesign_core::sweep_frontier_with(
        sim,
        net,
        &space,
        opts,
        energy,
        &config,
        &codesign_sim::CancelToken::never(),
        |event| match event {
            FrontierEvent::Entered { index, point } => {
                eprintln!(
                    "; frontier[{index}] {} cycles={} energy={:.1} area={:.1}",
                    point.params,
                    point.cycles,
                    point.energy / 1e6,
                    point.area
                );
            }
            FrontierEvent::Failure { index, failure } => eprintln!("; failed[{index}] {failure}"),
            FrontierEvent::Pruned { from, until } => {
                eprintln!("; pruned[{from}..{until}] dominated segment ({} points)", until - from);
            }
        },
    )
    .map_err(|e| RunError::Usage(e.to_string()))?;
    let wall = started.elapsed();
    let c = outcome.counters;
    for r in &outcome.refused_checkpoints {
        eprintln!("; refused checkpoint {}: {}", r.path.display(), r.value);
    }
    if let (Some(pos), Some(generation)) = (c.resumed_at, c.resumed_generation) {
        eprintln!(
            "; resumed from checkpoint generation {generation} at point {pos} of {}",
            c.total
        );
    }
    println!(
        "{:<18} {:>12} {:>14} {:>8} {:>10}",
        "design", "cycles", "energy (MMAC)", "util", "area"
    );
    for p in &outcome.frontier {
        println!(
            "{:<18} {:>12} {:>14.1} {:>7.1}% {:>10.1}",
            p.params.to_string(),
            p.cycles,
            p.energy / 1e6,
            100.0 * p.utilization,
            p.area
        );
    }
    if let Some(best) = &outcome.best {
        println!("best energy-delay: {}", best.params);
    }
    if c.failed > 0 {
        eprintln!(
            "; {} point(s) failed ({} diagnostic(s) retained):",
            c.failed,
            outcome.failures.len()
        );
        for f in &outcome.failures {
            eprintln!(";   {f}");
        }
    }
    eprintln!(
        "; swept {} of {} point(s) ({} pruned, {} skipped, {} failed) in {:.1} ms on {} thread(s)",
        c.evaluated,
        c.total,
        c.pruned,
        c.skipped,
        c.failed,
        wall.as_secs_f64() * 1e3,
        codesign_sim::resolve_jobs(inv.jobs),
    );
    eprintln!(
        "; frontier {} (peak {}); {} checkpoint(s) written; sim cache: {}",
        outcome.frontier.len(),
        c.peak_frontier,
        c.checkpoints_written,
        sim.stats()
    );
    Ok(())
}

/// Writes the requested trace/metrics sinks at the end of a run.
fn write_sinks(inv: &Invocation, tracer: &Tracer) -> Result<(), RunError> {
    if !tracer.is_enabled() {
        return Ok(());
    }
    let data = tracer.snapshot();
    if let Some(path) = &inv.trace {
        atomic_write(std::path::Path::new(path), chrome_trace(&data).as_bytes())
            .map_err(|e| RunError::Usage(format!("cannot write {path}: {e}")))?;
        eprintln!("; wrote Chrome trace to {path} ({} spans)", data.span_count());
    }
    if let Some(path) = &inv.metrics {
        atomic_write(std::path::Path::new(path), MetricsSnapshot::of(&data).to_json().as_bytes())
            .map_err(|e| RunError::Usage(format!("cannot write {path}: {e}")))?;
        eprintln!("; wrote metrics snapshot to {path}");
    }
    Ok(())
}

/// `verify-functional`: runs every network once with the GEMM executor
/// (timed, for the MACs/sec headline) and once per dataflow with the
/// accelerator-schedule executors, asserting whole-network bit-equality
/// against the reference operators. Any mismatch names the first
/// differing layer and the command exits 2.
fn verify_functional(
    nets: &[Network],
    cfg: &codesign_arch::AcceleratorConfig,
    opts: SimOptions,
    jobs: usize,
) -> Result<(), RunError> {
    use codesign_arch::{Dataflow, DataflowPolicy};
    use codesign_tensor::{run_network_reference, run_network_with, Tensor, WeightStore};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut failures: Vec<String> = Vec::new();
    let mut total_macs = 0u64;
    let mut total_secs = 0f64;
    println!(
        "{:<22} {:>12} {:>5} {:>5} {:>5} {:>10}",
        "network", "MACs", "gemm", "WS", "OS", "MMAC/s"
    );
    for net in nets {
        let mut rng = StdRng::seed_from_u64(2018);
        let weights = WeightStore::random(net, 8, 0.4, &mut rng);
        let image = Tensor::random(net.input(), 64, &mut rng);
        let reference = run_network_reference(net, &image, &weights).map_err(RunError::rejected)?;

        let started = std::time::Instant::now();
        let gemm = run_network_with(net, &image, &weights, jobs).map_err(RunError::rejected)?;
        let secs = started.elapsed().as_secs_f64();
        let macs = net.total_macs();
        total_macs += macs;
        total_secs += secs;

        let gemm_ok = first_mismatch(&reference, &gemm).is_none();
        if let Some(layer) = first_mismatch(&reference, &gemm) {
            failures.push(format!("{}: GEMM executor diverges at `{layer}`", net.name()));
        }
        let mut flow_ok = [true; 2];
        for (i, flow) in
            [Dataflow::WeightStationary, Dataflow::OutputStationary].into_iter().enumerate()
        {
            let schedule = Simulator::new()
                .try_simulate_network(net, cfg, DataflowPolicy::Fixed(flow), opts)
                .map_err(RunError::rejected)?;
            let acts = codesign_sim::run_network_on_accelerator_jobs(
                net, &image, &weights, cfg, &schedule, jobs,
            )
            .map_err(RunError::rejected)?;
            if let Some(layer) = first_mismatch(&reference, &acts) {
                failures.push(format!(
                    "{}: {} schedule diverges at `{layer}`",
                    net.name(),
                    flow.tag()
                ));
                flow_ok[i] = false;
            }
        }
        println!(
            "{:<22} {:>12} {:>5} {:>5} {:>5} {:>10.1}",
            net.name(),
            macs,
            if gemm_ok { "ok" } else { "FAIL" },
            if flow_ok[0] { "ok" } else { "FAIL" },
            if flow_ok[1] { "ok" } else { "FAIL" },
            macs as f64 / secs.max(1e-9) / 1e6,
        );
    }
    println!(
        "functional throughput: {:.1} MMAC/s over {} network(s) ({} MACs in {:.2} s)",
        total_macs as f64 / total_secs.max(1e-9) / 1e6,
        nets.len(),
        total_macs,
        total_secs,
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(RunError::Rejected(failures.join("; ")))
    }
}

/// First layer whose output differs between two activation sets, if any.
fn first_mismatch(
    want: &codesign_tensor::NetworkActivations,
    got: &codesign_tensor::NetworkActivations,
) -> Option<String> {
    for (name, tensor) in want.iter() {
        match got.get(name) {
            Some(other) if other == tensor => {}
            _ => return Some(name.to_owned()),
        }
    }
    None
}

fn run(inv: &Invocation) -> Result<(), RunError> {
    let opts = SimOptions::paper_default();
    let energy = EnergyModel::default();
    // One tracer for the whole invocation; disabled (zero-cost) unless a
    // sink was requested.
    let tracer = if inv.trace.is_some() || inv.metrics.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };

    if inv.action == Action::List {
        println!("model zoo:");
        for net in zoo::table_networks() {
            println!("  {net}");
        }
        for v in 1..=5 {
            println!("  {}", zoo::squeezenext_variant(v));
        }
        println!("  {}", zoo::squeezedet_trunk());
        return Ok(());
    }

    if inv.action == Action::Serve {
        return serve::run_serve(inv);
    }

    if inv.action == Action::Faultinject {
        let report = run_corpus(&tracer);
        print!("{}", report.render());
        let mut passed = report.passed();
        if inv.serve_faults {
            let serve_report = faultserve::run_serve_corpus();
            print!("{}", serve_report.render());
            passed &= serve_report.passed();
        }
        write_sinks(inv, &tracer)?;
        if !passed {
            return Err(RunError::Rejected("fault-injection corpus failed".to_owned()));
        }
        return Ok(());
    }

    let cfg = inv.config().map_err(|e| RunError::Usage(e.to_string()))?;

    if inv.action == Action::VerifyFunctional {
        let nets = match inv.network.as_deref() {
            Some(spec) => vec![load_network(spec)?],
            None => zoo::table_networks(),
        };
        return verify_functional(&nets, &cfg, opts, inv.jobs);
    }

    let Some(spec) = inv.network.as_deref() else {
        return Err(RunError::Usage("this command needs a network".to_owned()));
    };
    let net = load_network(spec)?;
    // Pre-flight: reject workloads the cycle models cannot represent
    // before any simulation starts, with the offending layer named.
    validate_network(&net, &cfg).map_err(RunError::rejected)?;

    match inv.action {
        Action::Simulate => {
            // Both models publish their per-layer spans through the
            // handle's tracer.
            let sim = Simulator::new().with_tracer(tracer.clone());
            let mc = MultiCoreConfig { core: cfg.clone(), cores: inv.cores };
            let perf = if inv.cores > 1 {
                sim.try_simulate_network_multicore(&net, &mc, inv.policy, opts)
            } else {
                sim.try_simulate_network_batched(&net, &cfg, inv.policy, opts, inv.batch)
            }
            .map_err(RunError::rejected)?;
            let per_image = perf.total_cycles() as f64 / inv.batch as f64;
            println!("{net}");
            println!("hardware: {cfg} x{} core(s), {} policy", inv.cores, inv.policy);
            println!("cycles:      {} ({} per image)", perf.total_cycles(), per_image as u64);
            println!("time:        {:.3} ms/image", cfg.cycles_to_ms(per_image as u64));
            println!("energy:      {:.1} MMAC-eq", perf.total_energy(&energy) / 1e6);
            println!(
                "utilization: {:.1}%",
                100.0 * perf.average_utilization(cfg.pe_count() * inv.cores)
            );
        }
        Action::Schedule => {
            let schedule = NetworkSchedule::build_with(&Simulator::new(), &net, &cfg, opts)
                .map_err(RunError::rejected)?;
            println!(
                "{:<26} {:>6} {:>12} {:>12} {:>8} {:>7}",
                "layer", "class", "WS cycles", "OS cycles", "chosen", "util"
            );
            for e in &schedule.entries {
                println!(
                    "{:<26} {:>6} {:>12} {:>12} {:>8} {:>6.1}%",
                    e.name,
                    e.class.to_string(),
                    e.ws_cycles,
                    e.os_cycles,
                    e.chosen.map_or("SIMD", |d| d.tag()),
                    100.0 * e.utilization
                );
            }
            println!("total: {} cycles", schedule.total_cycles());
        }
        Action::Compile => {
            let program = Program::try_compile(&Simulator::new(), &net, &cfg, inv.policy, opts)
                .map_err(RunError::rejected)?;
            print!("{}", program.listing());
            println!("; {} commands, {} cycles replayed", program.len(), program.estimate(&cfg));
        }
        Action::Compare => {
            let sim = Simulator::new().with_tracer(tracer.clone());
            load_cache(&sim, inv.cache_load.as_deref(), false)?;
            let never = CancelToken::never();
            let Some(c) = ArchitectureComparison::evaluate_cancellable_with(
                &sim, &net, &cfg, opts, energy, &never,
            )
            .map_err(RunError::rejected)?
            else {
                unreachable!("a never-cancelled token cannot cancel")
            };
            println!("{c}");
            save_cache(&sim, inv.cache_save.as_deref(), false)?;
        }
        Action::Sweep if inv.frontier_mode() => {
            let sim = Simulator::new().with_tracer(tracer.clone());
            load_cache(&sim, inv.cache_load.as_deref(), false)?;
            run_frontier_sweep(&sim, &net, inv, opts, &energy)?;
            save_cache(&sim, inv.cache_save.as_deref(), false)?;
        }
        Action::Sweep => {
            let sim = Simulator::new().with_tracer(tracer.clone());
            load_cache(&sim, inv.cache_load.as_deref(), false)?;
            let started = std::time::Instant::now();
            let outcome = codesign_core::sweep_full_with(
                &sim,
                &net,
                &SweepSpace::paper_default(),
                opts,
                &energy,
                inv.jobs,
            )
            .map_err(|e| RunError::Usage(e.to_string()))?;
            let points = &outcome.points;
            let wall = started.elapsed();
            println!("{:<18} {:>12} {:>14} {:>8}", "design", "cycles", "energy (MMAC)", "util");
            for p in points {
                println!(
                    "{:<18} {:>12} {:>14.1} {:>7.1}%",
                    p.params.to_string(),
                    p.cycles,
                    p.energy / 1e6,
                    100.0 * p.utilization
                );
            }
            if let Some(best) = best_by_energy_delay(points) {
                println!("best energy-delay: {}", best.params);
            }
            // Degraded points are reported, not fatal: the sweep still
            // exits 0 with the surviving results.
            if !outcome.failures.is_empty() {
                eprintln!("; {}", outcome.failure_summary());
                for f in &outcome.failures {
                    eprintln!(";   {f}");
                }
            }
            eprintln!(
                "; swept {} point(s) in {:.1} ms on {} thread(s); sim cache: {}",
                points.len(),
                wall.as_secs_f64() * 1e3,
                codesign_sim::resolve_jobs(inv.jobs),
                sim.stats()
            );
            save_cache(&sim, inv.cache_save.as_deref(), false)?;
        }
        Action::Wave => {
            let Some(layer_name) = inv.layer.as_deref() else {
                return Err(RunError::Usage("wave requires a layer".to_owned()));
            };
            let layer = net.layer(layer_name).ok_or_else(|| {
                RunError::Usage(format!("no layer `{layer_name}` in {}", net.name()))
            })?;
            let work = ConvWork::from_layer(layer).ok_or_else(|| {
                RunError::Usage(format!("`{layer_name}` is not a PE-array layer"))
            })?;
            let (_, _, best) = Simulator::new()
                .try_compare_dataflows(layer, &cfg, opts)
                .map_err(RunError::rejected)?;
            let (trace, track) = match best {
                codesign_arch::Dataflow::WeightStationary => {
                    (cycle::trace_ws(&work, &cfg), "cycle:ws")
                }
                codesign_arch::Dataflow::OutputStationary => {
                    (cycle::trace_os(&work, &cfg, opts.os), "cycle:os")
                }
            };
            if tracer.is_enabled() {
                trace.record_spans(&mut tracer.track(track));
            }
            cycle::write_vcd(
                &trace,
                layer_name,
                cycle::VcdGranularity::Segment,
                std::io::stdout().lock(),
            )
            .map_err(|e| RunError::Usage(format!("cannot write VCD: {e}")))?;
            eprintln!(
                "; {} on {}: {} cycles, {} macro-segments ({} steps)",
                layer_name,
                best,
                trace.cycles(),
                trace.segments().len(),
                trace.steps()
            );
        }
        Action::List | Action::Faultinject | Action::Serve | Action::VerifyFunctional => {
            unreachable!("handled above")
        }
    }
    write_sinks(inv, &tracer)
}
