//! The layer profile of a traced run: probes that time calls into each
//! module's public functions from outside, and the per-layer ledger
//! (one row per table network x compute layer).
//!
//! Metrics a workload's own traced ops already measured are kept; the
//! profile fills in the rest, so every traced run reports every metric
//! in [`crate::PER_LAYER`].

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::fs;
use std::hint::black_box;
use std::time::Instant;

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy, EnergyModel};
use codesign_bench::experiments::Context;
use codesign_core::{pareto_designs, sweep_full_with, ArchitectureComparison, SweepSpace};
use codesign_dnn::{zoo, LayerClass, NetworkBuilder, Shape};
use codesign_sim::cycle::{trace_os, trace_ws};
use codesign_sim::{
    optimize_tiling, simulate_network_event, simulate_os, simulate_ws, ConvWork, OsModelOptions,
    SimOptions, Simulator,
};
use codesign_tensor::gemm::{gemm_accumulate, pack_patches};
use codesign_tensor::{run_layer_with, run_network_with, ActivationBuilder, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report_suite::EXPERIMENTS;
use crate::stats::median;
use crate::{frontier, serve_mix, zoo_inference, Env, Outcome};

/// Repetitions of sub-microsecond probes.
const REPS: usize = 20;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

pub fn profile(env: &Env, out: &mut Outcome) -> Result<(), String> {
    if out.lacks("serve.first_line_p50_ms") {
        serve_mix::probe(env, out)?;
    }
    if out.lacks("core.stream.evaluated") {
        frontier::probe(env, out)?;
    }
    snapshot(env, out)?;
    engine(out)?;
    models(out);
    evaluate(out);
    dse(env, out)?;
    report(out);
    tensor(env, out)
}

/// `sim::snapshot`: loading the serve-mix warm-start snapshot.
fn snapshot(env: &Env, out: &mut Outcome) -> Result<(), String> {
    let bytes = serve_mix::make_snapshot(env)?;
    let mut ms = Vec::new();
    for _ in 0..5 {
        let sim = Simulator::new();
        let t = Instant::now();
        sim.load_cache_snapshot(&bytes).map_err(|e| e.to_string())?;
        ms.push(us(t) / 1e3);
    }
    out.layer("sim.snapshot.load_ms", median(&ms));
    out.layer("sim.snapshot.bytes", bytes.len() as f64);
    Ok(())
}

/// `sim::engine` and `sim::cache`: cold and warm network simulation and
/// the per-layer hit path, each table network on its own simulator.
fn engine(out: &mut Outcome) -> Result<(), String> {
    let (cfg, opts) = (AcceleratorConfig::paper_default(), SimOptions::paper_default());
    let nets = zoo::table_networks();
    let (mut cold, mut warm, mut hit_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut misses, mut contended) = (0u64, 0u64, 0u64);
    for net in &nets {
        let sim = Simulator::new();
        for times in [&mut cold, &mut warm] {
            let t = Instant::now();
            sim.try_simulate_network(net, &cfg, DataflowPolicy::PerLayer, opts)
                .map_err(|e| e.to_string())?;
            times.push(us(t));
        }
        let layers: Vec<_> = net.layers().iter().filter(|l| l.is_compute()).collect();
        let t = Instant::now();
        for _ in 0..REPS {
            for l in &layers {
                black_box(sim.try_simulate_layer(l, &cfg, opts, Dataflow::WeightStationary))
                    .map_err(|e| e.to_string())?;
            }
        }
        hit_ns.push(us(t) * 1e3 / (REPS * layers.len().max(1)) as f64);
        let s = sim.stats();
        (hits, misses, contended) = (hits + s.hits, misses + s.misses, contended + s.contended);
    }
    out.layer("sim.network.cold_us", mean(&cold));
    out.layer("sim.network.warm_us", mean(&warm));
    out.layer("sim.layer.hit_ns", mean(&hit_ns));
    // Workloads that drive no simulator of their own (zoo-inference)
    // report the cache counters of these passes, one op per network.
    if out.lacks("sim.cache.hit_rate") {
        out.layer("sim.cache.hit_rate", hits as f64 / (hits + misses).max(1) as f64);
        out.layer("sim.cache.misses_per_op", misses as f64 / nets.len() as f64);
        out.layer("sim.cache.contended", contended as f64 / nets.len() as f64);
    }
    Ok(())
}

/// Compute layers of the table networks as simulator work items.
fn zoo_works() -> Vec<ConvWork> {
    zoo::table_networks()
        .iter()
        .flat_map(|n| n.layers().iter().filter_map(ConvWork::from_layer).collect::<Vec<_>>())
        .collect()
}

/// `sim::tiling`, `sim::ws`, `sim::os`, `sim::cycle` and `sim::event`.
fn models(out: &mut Outcome) {
    let (cfg, os) = (AcceleratorConfig::paper_default(), OsModelOptions::paper_default());
    let works = zoo_works();
    let mut seen = HashSet::new();
    let (mut searches, mut search_us) = (0usize, 0.0);
    for bytes in SweepSpace::paper_default().buffer_bytes {
        let mut b = AcceleratorConfig::builder();
        b.global_buffer_bytes(bytes);
        let Ok(cfg_b) = b.build() else { continue };
        for w in &works {
            if seen.insert(format!("{w:?}/{bytes}")) {
                let t = Instant::now();
                let _ = black_box(optimize_tiling(w, &cfg_b));
                search_us += us(t);
                searches += 1;
            }
        }
    }
    out.layer("sim.tiling.us_per_search", search_us / searches.max(1) as f64);
    let per_layer = |f: &dyn Fn(&ConvWork)| {
        let t = Instant::now();
        for w in &works {
            f(w);
        }
        us(t) / works.len().max(1) as f64
    };
    out.layer(
        "sim.ws.us_per_layer",
        per_layer(&|w| {
            black_box(simulate_ws(w, &cfg));
        }),
    );
    out.layer(
        "sim.os.us_per_layer",
        per_layer(&|w| {
            black_box(simulate_os(w, &cfg, os));
        }),
    );
    out.layer(
        "sim.cycle.us_per_layer",
        per_layer(&|w| {
            black_box(trace_ws(w, &cfg));
            black_box(trace_os(w, &cfg, os));
        }),
    );
    let nets = zoo::table_networks();
    let t = Instant::now();
    for net in &nets {
        black_box(simulate_network_event(
            net,
            &cfg,
            DataflowPolicy::PerLayer,
            SimOptions::paper_default(),
        ));
    }
    out.layer("sim.event.ms_per_network", us(t) / 1e3 / nets.len() as f64);
}

/// `core::evaluate`: the three-architecture comparison, cold then warm.
fn evaluate(out: &mut Outcome) {
    let cfg = AcceleratorConfig::paper_default();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for net in zoo::table_networks() {
        let sim = Simulator::new();
        for times in [&mut cold, &mut warm] {
            let t = Instant::now();
            black_box(ArchitectureComparison::evaluate_with(
                &sim,
                &net,
                &cfg,
                SimOptions::paper_default(),
                EnergyModel::default(),
            ));
            times.push(us(t));
        }
    }
    out.layer("core.evaluate.cold_us", mean(&cold));
    out.layer("core.evaluate.warm_us", mean(&warm));
}

/// `core::dse` and `core::pareto`.
fn dse(env: &Env, out: &mut Outcome) -> Result<(), String> {
    let (opts, energy) = (SimOptions::paper_default(), EnergyModel::default());
    let sim = Simulator::new();
    let t = Instant::now();
    for net in zoo::table_networks() {
        sweep_full_with(&sim, &net, &SweepSpace::paper_default(), opts, &energy, env.jobs)
            .map_err(|e| e.to_string())?;
    }
    out.layer("core.sweep_full_ms", us(t) / 1e3);
    let points = sweep_full_with(
        &Simulator::new(),
        &zoo::squeezenet_v1_1(),
        &frontier::dense_space(env.seed),
        opts,
        &energy,
        env.jobs,
    )
    .map_err(|e| e.to_string())?
    .points;
    let mut times = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        black_box(pareto_designs(&points));
        times.push(us(t));
    }
    out.layer("core.pareto.designs_us", median(&times));
    Ok(())
}

/// `bench::experiments`: each experiment timed serially at one worker on
/// one cold context, in `report all` order.
fn report(out: &mut Outcome) {
    let ctx = Context::with_jobs(1);
    for (name, gen) in EXPERIMENTS {
        let t = Instant::now();
        black_box(gen(&ctx));
        out.layer(&format!("report.{name}_ms"), us(t) / 1e3);
    }
}

/// Dense-weight GEMM rate on a cache-resident packed block: one 16-filter
/// chunk over a 3x3x32 reduction and 64 pixels (~74 KB of patches).
/// Callers sample it between the layers they time, so the peak and the
/// layer rates it divides see the same machine conditions.
fn kernel_peak() -> Result<f64, String> {
    const FILTERS: usize = 16;
    const CALLS: usize = 400;
    let mut b = NetworkBuilder::new("kernel-peak", Shape::new(32, 8, 8));
    b.conv("probe", FILTERS, 3, 1, 1);
    let net = b.finish().map_err(|e| e.to_string())?;
    let layer = &net.layers()[0];
    let spec = layer.conv_spec().ok_or("probe layer is a convolution")?;
    let input = Tensor::random(layer.input, 64, &mut StdRng::seed_from_u64(7));
    let patches = pack_patches(&input, spec, 0, layer.output);
    let (rows, cols) = (layer.input.channels * 9, layer.output.plane());
    let weights: Vec<Vec<i32>> =
        (0..FILTERS).map(|k| (0..rows).map(|r| 1 + ((k * 7 + r) % 8) as i32).collect()).collect();
    let wrows: Vec<&[i32]> = weights.iter().map(Vec::as_slice).collect();
    let mut acc = vec![0i64; FILTERS * cols];
    let mut secs = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..CALLS {
            gemm_accumulate(&wrows, black_box(&patches), rows, cols, &mut acc);
        }
        secs.push(t.elapsed().as_secs_f64());
        black_box(&acc);
    }
    Ok((FILTERS * rows * cols * CALLS) as f64 / median(&secs) / 1e9)
}

fn class_key(class: LayerClass) -> Option<&'static str> {
    match class {
        LayerClass::FirstConv => Some("first_conv"),
        LayerClass::Pointwise => Some("pointwise"),
        LayerClass::Spatial => Some("spatial"),
        LayerClass::Depthwise => Some("depthwise"),
        LayerClass::FullyConnected => Some("fc"),
        LayerClass::Other => None,
    }
}

/// One ledger row.
struct Row {
    network: String,
    layer: String,
    class: &'static str,
    macs: u64,
    tiling_ns: f64,
    model_ns: f64,
    cold_hit: bool,
    functional_ns: f64,
    zero_skip: f64,
}

impl Row {
    /// Nominal rate: every MAC of the layer, zeros included.
    fn gmac_per_s(&self) -> f64 {
        self.macs as f64 / self.functional_ns.max(1.0)
    }

    /// Rate of the MACs the kernels execute (skipped zero taps left
    /// out), the rate the dense-weight peak probe measures.
    fn executed_gmac_per_s(&self) -> f64 {
        self.gmac_per_s() * (1.0 - self.zero_skip)
    }
}

/// `tensor` and `parallel`, plus the per-layer ledger: every table
/// network run layer by layer at one worker on the zoo-inference inputs,
/// each compute layer also timed through the simulator's tiling search
/// and WS/OS models.
fn tensor(env: &Env, out: &mut Outcome) -> Result<(), String> {
    let mut peaks = Vec::new();
    let (cfg, opts, os) = (
        AcceleratorConfig::paper_default(),
        SimOptions::paper_default(),
        OsModelOptions::paper_default(),
    );
    let cold = Simulator::new();
    let cases = zoo_inference::cases(env.seed);
    let mut rows = Vec::new();
    let (mut serial_ns, mut pack_ns, mut kernel_ns) = (0.0, 0.0, 0.0);
    for case in &cases {
        peaks.push(kernel_peak()?);
        let mut acts = ActivationBuilder::with_capacity(case.net.layers().len());
        for layer in case.net.layers() {
            let input = acts.primary_input(layer, &case.image).map_err(|e| e.to_string())?;
            let merge = acts.merge_operand(layer, &case.image).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let output =
                run_layer_with(layer, input, merge, &case.weights, 1).map_err(|e| e.to_string())?;
            let functional_ns = us(t) * 1e3;
            serial_ns += functional_ns;
            if let (Some(class), Some(work)) =
                (class_key(layer.class()), ConvWork::from_layer(layer))
            {
                let filters = case.weights.get(&layer.name);
                // Replay the GEMM path's two steps on dense convolutions.
                if let (Some(spec), Some(f)) =
                    (layer.conv_spec().filter(|s| s.groups == 1), filters)
                {
                    let t = Instant::now();
                    let patches = pack_patches(input, spec, 0, layer.output);
                    pack_ns += us(t) * 1e3;
                    let wrows: Vec<&[i32]> =
                        (0..spec.out_channels).map(|k| f.filter_taps(k)).collect();
                    let (taps, cols) = (wrows.first().map_or(0, |w| w.len()), layer.output.plane());
                    let mut acc = vec![0i64; spec.out_channels * cols];
                    let t = Instant::now();
                    gemm_accumulate(&wrows, &patches, taps, cols, &mut acc);
                    kernel_ns += us(t) * 1e3;
                    black_box(&acc);
                }
                let t = Instant::now();
                let _ = black_box(optimize_tiling(&work, &cfg));
                let tiling_ns = us(t) * 1e3;
                let t = Instant::now();
                black_box(simulate_ws(&work, &cfg));
                black_box(simulate_os(&work, &cfg, os));
                let model_ns = us(t) * 1e3;
                let misses = cold.stats().misses;
                for df in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
                    cold.try_simulate_layer(layer, &cfg, opts, df).map_err(|e| e.to_string())?;
                }
                rows.push(Row {
                    network: case.net.name().to_owned(),
                    layer: layer.name.clone(),
                    class,
                    macs: layer.macs(),
                    tiling_ns,
                    model_ns,
                    cold_hit: cold.stats().misses == misses,
                    functional_ns,
                    // Zero taps are skipped by the GEMM and depthwise
                    // kernels; the fully-connected path is dense.
                    zero_skip: match (class, filters) {
                        ("fc", _) | (_, None) => 0.0,
                        (_, Some(f)) => f.zero_fraction(),
                    },
                });
            }
            acts.push(layer.name.clone(), output);
        }
    }

    let peak = median(&peaks);
    let mut classes: BTreeMap<&str, (f64, f64, f64)> = BTreeMap::new();
    for r in &rows {
        let e = classes.entry(r.class).or_default();
        e.0 += r.functional_ns;
        e.1 += r.macs as f64;
        e.2 += r.macs as f64 * (1.0 - r.zero_skip);
    }
    for class in ["first_conv", "pointwise", "spatial", "depthwise", "fc"] {
        let (ns, macs, executed) = classes.get(class).copied().unwrap_or((f64::NAN, 0.0, 0.0));
        out.layer(&format!("tensor.{class}.ms"), ns / 1e6);
        out.layer(&format!("tensor.{class}.gmac_per_s"), macs / ns);
        out.layer(&format!("tensor.{class}.peak_frac"), executed / ns / peak);
    }
    let total_macs: f64 = rows.iter().map(|r| r.macs as f64).sum();
    out.layer("tensor.pack_ms", pack_ns / 1e6);
    out.layer("tensor.kernel_ms", kernel_ns / 1e6);
    out.layer("tensor.kernel_peak_gmac_per_s", peak);
    out.layer(
        "tensor.zero_skip_frac",
        rows.iter().map(|r| r.macs as f64 * r.zero_skip).sum::<f64>() / total_macs.max(1.0),
    );
    let t = Instant::now();
    for c in &cases {
        run_network_with(&c.net, &c.image, &c.weights, env.jobs).map_err(|e| e.to_string())?;
    }
    out.layer("parallel.zoo_speedup", serial_ns / (us(t) * 1e3));

    let mut csv = String::from(
        "network,layer,class,macs,tiling_ns,ws_os_model_ns,cold_cache,functional_ns,gmac_per_s,zero_skip_frac,peak_frac\n",
    );
    for r in &rows {
        let _ = writeln!(
            csv,
            "{},{},{},{},{:.0},{:.0},{},{:.0},{:.3},{:.3},{:.3}",
            r.network,
            r.layer,
            r.class,
            r.macs,
            r.tiling_ns,
            r.model_ns,
            if r.cold_hit { "hit" } else { "miss" },
            r.functional_ns,
            r.gmac_per_s(),
            r.zero_skip,
            r.executed_gmac_per_s() / peak
        );
    }
    let path = env.work.join(format!("ledger-{}.csv", env.seed));
    fs::write(&path, csv).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    rows.sort_by(|a, b| a.executed_gmac_per_s().total_cmp(&b.executed_gmac_per_s()));
    println!(
        "# ledger ({} layers, kernel peak {peak:.2} GMAC/s): ten furthest below peak",
        rows.len()
    );
    for r in rows.iter().take(10) {
        println!(
            "#   {:<22} {:<28} {:<10} {:>8.3} GMAC/s {:>6.3} of peak",
            r.network,
            r.layer,
            r.class,
            r.gmac_per_s(),
            r.executed_gmac_per_s() / peak
        );
    }
    Ok(())
}
