//! Discrete-event simulation of the accelerator's tile pipeline.
//!
//! The analytic model folds DRAM behind compute with
//! `max(compute, dram) + latency` (one number per layer). This module
//! checks that shortcut from below: it lowers each layer to a run-length
//! tile description from the tiling plan — a body tile repeated
//! `count − 1` times and one last tile carrying the remainders — then
//! plays the tiles through explicit [`units::DmaUnit`] and
//! [`units::ArrayUnit`] resources. With double buffering, the DMA
//! prefetches tile *i+1* into one half of the buffer while the array
//! computes tile *i* from the other half, exactly the §4.1.3 scheme, and
//! the next layer's weights (which have no data dependency) stream during
//! the current layer's compute; without it, every load waits for the
//! previous tile to finish. Pipeline bubbles — the array waiting on data,
//! single-tile layers that cannot hide their own input load — fall out of
//! the event order instead of being assumed away, so the event totals run
//! a documented few tens of percent above the analytic estimate on
//! networks dominated by small layers.
//!
//! # Time skipping
//!
//! The scheduler is a next-event queue over the two units: each step
//! jumps straight to the earliest completion time instead of advancing
//! cycle by cycle. On top of that, the run of identical body tiles is
//! advanced in one arithmetic step: once two consecutive periods of one
//! or two body tiles finish with the same uniform clock advance Δ (every
//! unit clock moved by exactly Δ and no constant clamp — layer start,
//! pending weights — was active), every following period must repeat
//! the same pattern shifted by Δ, because the unit update rules only
//! compare clocks against each other. The rest of the run then collapses
//! to `k · Δ` ([`units::DmaUnit::fast_forward`]), so a layer costs O(1)
//! in time and memory however many tiles it has. [`TimeSkip::Disabled`]
//! keeps the tile-by-tile walk as the executable baseline; the test
//! suite holds the two bit-identical.

pub mod units;

use codesign_arch::{AcceleratorConfig, DataflowPolicy};
use codesign_dnn::{Layer, Network};

use crate::cache::{Lookups, WorkKey};
use crate::dram::DramTraffic;
use crate::engine::{SimOptions, Simulator};
use crate::error::{checked_product, SimResult};
use crate::perf::LayerPerf;
use crate::tiling::TilingPlan;
use crate::workload::ConvWork;

use units::{ArrayUnit, Cycle, DmaUnit};

/// Whether steady-state runs of identical tiles are advanced in one
/// arithmetic step or played tile by tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeSkip {
    /// Fast-forward identical-tile runs (the default).
    #[default]
    Enabled,
    /// Walk every tile — the executable baseline the fast path is
    /// property-tested against.
    Disabled,
}

/// One layer's outcome under the event model.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLayerResult {
    /// Layer name.
    pub name: String,
    /// End-to-end cycles of this layer (its tiles' span).
    pub cycles: Cycle,
    /// Cycles the array sat idle waiting for data within the layer: for
    /// every tile, the gap from the later of the array's last completion
    /// and the layer's start to the moment the tile's data (and weights)
    /// arrived. One rule with and without double buffering, so stalls
    /// plus the layer's compute cycles never exceed `cycles`.
    pub array_stall_cycles: Cycle,
    /// Number of tiles executed.
    pub tiles: u64,
}

/// Whole-network event-simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct EventResult {
    /// Network name.
    pub network: String,
    /// Per-layer outcomes.
    pub layers: Vec<EventLayerResult>,
}

impl EventResult {
    /// Total inference cycles.
    pub fn total_cycles(&self) -> Cycle {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total array stall cycles (the cost the analytic `max()` hides).
    pub fn total_stalls(&self) -> Cycle {
        self.layers.iter().map(|l| l.array_stall_cycles).sum()
    }
}

/// A tile transaction: dependent input bytes in, compute, bytes out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TileTxn {
    input_bytes: u64,
    compute_cycles: Cycle,
    store_bytes: u64,
}

/// A layer lowered to the event model: a weight prefetch (no data
/// dependency — it may stream during the *previous* layer's compute,
/// the inter-layer half of the double-buffering scheme) plus the
/// dependent tile pipeline in run-length form — `body` repeated
/// `count − 1` times, then `last`, which carries the remainders of every
/// total (and equals `body` when every total divides evenly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LayerTxns {
    weight_bytes: u64,
    body: TileTxn,
    last: TileTxn,
    count: u64,
}

impl LayerTxns {
    /// Tile `i` of the sequence.
    fn tile(&self, i: u64) -> TileTxn {
        if i + 1 == self.count {
            self.last
        } else {
            self.body
        }
    }

    /// The last iteration a steady-state jump may land on. Iteration `i`
    /// consumes tile `i` and, when double buffering, prefetches tile
    /// `i + 1`; it repeats its predecessors only if tile `i + 1` exists
    /// and is a body tile too, so `i + 1` must stay inside the leading
    /// run of body tiles (the final iteration prefetches nothing and
    /// never repeats, even when `last == body`). `None` for runs too
    /// short to hold the three iterations the detection needs.
    fn steady_window_end(&self) -> Option<u64> {
        let body_run = if self.last == self.body { self.count } else { self.count - 1 };
        (body_run >= 3).then(|| body_run - 2)
    }
}

/// Builds a layer's run-length tile sequence: the tiling plan fixes the
/// tile count, `traffic` (the plan's, or the closed form, after weight
/// compression) the bytes, `compute` is the analytic model's total for
/// the chosen dataflow, and every total is spread evenly across the
/// tiles with the remainders on the last.
fn tile_sequence(
    work: &ConvWork,
    plan: &TilingPlan,
    traffic: DramTraffic,
    cfg: &AcceleratorConfig,
    compute: Cycle,
) -> SimResult<LayerTxns> {
    let count = checked_product(
        &[
            work.out_h.div_ceil(plan.tiling.out_rows),
            work.out_channels.div_ceil(plan.tiling.out_channels),
            work.in_channels.div_ceil(plan.tiling.in_channels),
            work.groups,
        ],
        "event tile count",
    )?
    .max(1);
    // Weights that fit a buffer half are prefetched whole across the
    // layer boundary; larger weight sets (FC layers, late convs) stream
    // tile by tile and pipeline with compute like inputs do.
    let weights_fit = traffic.weights <= cfg.working_buffer_bytes() as u64 / 2;
    let (prefetch_weights, streamed_weights) =
        if weights_fit { (traffic.weights, 0) } else { (0, traffic.weights) };
    let tile = |share: &dyn Fn(u64) -> u64| TileTxn {
        input_bytes: share(traffic.input) + share(streamed_weights),
        compute_cycles: share(compute),
        store_bytes: share(traffic.output),
    };
    Ok(LayerTxns {
        weight_bytes: prefetch_weights,
        body: tile(&|total| total / count),
        last: tile(&|total| total / count + total % count),
        count,
    })
}

/// Pipeline state carried across layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PipelineState {
    /// When the previous layer's compute began — the earliest moment its
    /// successor's weights may start streaming (the buffer half frees).
    prev_compute_start: Cycle,
    /// When the previous layer fully finished (inputs depend on it).
    finished: Cycle,
}

/// End-of-iteration snapshot used to detect the steady state: all unit
/// clocks plus the accumulated counters, and whether a constant clamp
/// (pending weights) still shaped this iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IterSnap {
    loaded: Cycle,
    dma_free: Cycle,
    array_free: Cycle,
    finish: Cycle,
    stalls: Cycle,
    dma_busy: Cycle,
    dma_bursts: u64,
    array_busy: Cycle,
    weights_pending: bool,
}

/// Per-period advance once the pipeline is periodic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IterDelta {
    dt: Cycle,
    stalls: Cycle,
    dma_busy: Cycle,
    dma_bursts: u64,
    array_busy: Cycle,
}

/// Detects the steady state from three snapshots one period apart: the
/// two period deltas must match field for field, every clock must have
/// advanced by the same Δ (a uniform time translation), and no constant
/// clamp may have been active. Under those conditions the unit update
/// rules — which only compare clocks against each other — commute with
/// the translation, so every later period of body tiles repeats the
/// pattern.
fn steady_delta(a: &IterSnap, b: &IterSnap, c: &IterSnap) -> Option<IterDelta> {
    if b.weights_pending || c.weights_pending {
        return None;
    }
    let delta = |x: &IterSnap, y: &IterSnap| {
        Some(IterDelta {
            dt: y.loaded.checked_sub(x.loaded)?,
            stalls: y.stalls.checked_sub(x.stalls)?,
            dma_busy: y.dma_busy.checked_sub(x.dma_busy)?,
            dma_bursts: y.dma_bursts.checked_sub(x.dma_bursts)?,
            array_busy: y.array_busy.checked_sub(x.array_busy)?,
        })
    };
    let d1 = delta(a, b)?;
    let d2 = delta(b, c)?;
    let uniform = c.dma_free.checked_sub(b.dma_free) == Some(d2.dt)
        && c.array_free.checked_sub(b.array_free) == Some(d2.dt)
        && c.finish.checked_sub(b.finish) == Some(d2.dt)
        && b.dma_free.checked_sub(a.dma_free) == Some(d1.dt)
        && b.array_free.checked_sub(a.array_free) == Some(d1.dt)
        && b.finish.checked_sub(a.finish) == Some(d1.dt);
    (d1 == d2 && uniform).then_some(d2)
}

/// Plays one layer's transactions through the units; returns the updated
/// pipeline state plus the layer's stall cycles.
fn play_layer(
    txns: &LayerTxns,
    dma: &mut DmaUnit,
    array: &mut ArrayUnit,
    state: PipelineState,
    double_buffering: bool,
    skip: TimeSkip,
) -> (PipelineState, Cycle) {
    let now = state.finished;
    let window_end = match skip {
        TimeSkip::Enabled => txns.steady_window_end(),
        TimeSkip::Disabled => None,
    };
    // Weights have no data dependency: with double buffering they stream
    // as soon as the previous layer's compute frees a buffer half.
    let weights_at = if double_buffering { state.prev_compute_start } else { now };
    let weights_done = dma.transfer(weights_at, txns.weight_bytes);
    // With double buffering, tile i+1's load is issued the moment tile
    // i's compute begins (one buffer half frees), so it runs under that
    // compute; without, each load waits for the previous tile to finish.
    // Stores ride the DMA after the compute either way.
    let mut loaded =
        if double_buffering { dma.transfer(now, txns.tile(0).input_bytes) } else { now };
    let mut finish = now;
    let mut first_compute_start = now;
    let mut stalls = 0;
    // Snapshots after the last four iterations, oldest first.
    let mut snaps: [Option<IterSnap>; 4] = [None; 4];
    let mut i = 0;
    while i < txns.count {
        let t = txns.tile(i);
        if !double_buffering {
            loaded = dma.transfer(finish, t.input_bytes);
        }
        let idle_from = array.free_at().max(now);
        let start = loaded.max(weights_done).max(idle_from);
        stalls += start - idle_from;
        if i == 0 {
            first_compute_start = start;
        }
        if double_buffering && i + 1 < txns.count {
            loaded = dma.transfer(start, txns.tile(i + 1).input_bytes);
        }
        let done = array.run(start, t.compute_cycles);
        finish = dma.transfer(done, t.store_bytes).max(done);

        if let Some(we) = window_end.filter(|&we| i <= we) {
            let cur = IterSnap {
                loaded,
                dma_free: dma.free_at(),
                array_free: array.free_at(),
                finish,
                stalls,
                dma_busy: dma.busy_cycles(),
                dma_bursts: dma.bursts(),
                array_busy: array.busy_cycles(),
                weights_pending: weights_done > loaded,
            };
            // The pattern may repeat every iteration, or every other one
            // when the DMA's access latency lands on alternate bursts.
            let jump = [1, 2].into_iter().find_map(|period: u64| {
                let a = snaps[4 - 2 * period as usize]?;
                let b = snaps[4 - period as usize]?;
                let d = steady_delta(&a, &b, &cur)?;
                let k = (we - i) / period;
                (k > 0).then_some((period, k, d))
            });
            if let Some((period, k, d)) = jump {
                loaded += k * d.dt;
                finish += k * d.dt;
                stalls += k * d.stalls;
                dma.fast_forward(k * d.dt, k * d.dma_busy, k * d.dma_bursts);
                array.fast_forward(k * d.dt, k * d.array_busy);
                snaps = [None; 4];
                i += k * period + 1;
                continue;
            }
            snaps.rotate_left(1);
            snaps[3] = Some(cur);
        }
        i += 1;
    }
    (PipelineState { prev_compute_start: first_compute_start, finished: finish }, stalls)
}

impl Simulator {
    /// Lowers one simulated layer to its tile transactions: the layer's
    /// analytic compute, spread over the tiles of its cached tiling plan
    /// with its traffic. Non-PE layers are one SIMD tile.
    fn lower_layer(
        &self,
        layer: &Layer,
        perf: &LayerPerf,
        cfg: &AcceleratorConfig,
        opts: &SimOptions,
    ) -> SimResult<LayerTxns> {
        let compute = perf.compute.cycles();
        let Some(work) = ConvWork::from_layer(layer) else {
            let e = cfg.bytes_per_element() as u64;
            let tile = TileTxn {
                input_bytes: layer.input.elements() as u64 * e,
                compute_cycles: compute,
                store_bytes: layer.output.elements() as u64 * e,
            };
            return Ok(LayerTxns { weight_bytes: 0, body: tile, last: tile, count: 1 });
        };
        let (key, seen) = (WorkKey::new(work), &mut Lookups::default());
        let lowered = self.plan(&key, cfg, seen).and_then(|plan| {
            let traffic = self.traffic(&key, cfg, opts, seen)?;
            tile_sequence(&work, &plan, traffic, cfg, compute)
        });
        lowered.map_err(|e| e.for_layer(&layer.name))
    }

    /// Runs a whole network through the event model. The analytic run
    /// ([`Simulator::try_simulate_network`]) picks each layer's dataflow
    /// and compute; the layers then execute back to back (the paper's
    /// layer-by-layer operation), each with its own tile pipeline.
    /// `skip` chooses between the time-skipping fast path and the
    /// tile-by-tile walk.
    ///
    /// # Errors
    ///
    /// The first [`SimError`](crate::SimError) any layer surfaces,
    /// attributed to that layer.
    pub fn try_simulate_network_event(
        &self,
        network: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
        skip: TimeSkip,
    ) -> SimResult<EventResult> {
        let perf = self.try_simulate_network(network, cfg, policy, opts)?;
        let mut dma = DmaUnit::new(cfg.dram());
        let mut array = ArrayUnit::new();
        let mut state = PipelineState { prev_compute_start: 0, finished: 0 };
        let mut layers = Vec::with_capacity(network.layers().len());
        for (layer, lp) in network.layers().iter().zip(&perf.layers) {
            let start = state.finished;
            let txns = self.lower_layer(layer, lp, cfg, &opts)?;
            let (next, stalls) =
                play_layer(&txns, &mut dma, &mut array, state, cfg.double_buffering(), skip);
            layers.push(EventLayerResult {
                name: layer.name.clone(),
                cycles: next.finished - start,
                array_stall_cycles: stalls,
                tiles: txns.count,
            });
            state = next;
        }
        Ok(EventResult { network: network.name().to_owned(), layers })
    }
}

/// Runs a whole network through the event model (time skipping on) on a
/// fresh memoizing [`Simulator`]. Infallible form of
/// [`Simulator::try_simulate_network_event`], kept for the out-of-tree
/// benchmark harness; everything in the workspace calls the method.
///
/// # Panics
///
/// When the network cannot be simulated on `cfg` (a degenerate layer or
/// an infeasible buffer).
#[allow(clippy::panic)]
pub fn simulate_network_event(
    network: &Network,
    cfg: &AcceleratorConfig,
    policy: DataflowPolicy,
    opts: SimOptions,
) -> EventResult {
    Simulator::new()
        .try_simulate_network_event(network, cfg, policy, opts, TimeSkip::Enabled)
        .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::NetworkPerf;
    use crate::tiling::optimize_tiling;
    use codesign_arch::Dataflow;
    use codesign_dnn::zoo;

    fn setup() -> (AcceleratorConfig, SimOptions) {
        (AcceleratorConfig::paper_default(), SimOptions::paper_default())
    }

    fn simulate_network(
        net: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
    ) -> NetworkPerf {
        Simulator::new().try_simulate_network(net, cfg, policy, opts).unwrap()
    }

    fn try_simulate_network_event_mode(
        net: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
        skip: TimeSkip,
    ) -> SimResult<EventResult> {
        Simulator::new().try_simulate_network_event(net, cfg, policy, opts, skip)
    }

    fn simulate_network_event(
        net: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
    ) -> EventResult {
        try_simulate_network_event_mode(net, cfg, policy, opts, TimeSkip::Enabled).unwrap()
    }

    fn single_buffered() -> AcceleratorConfig {
        AcceleratorConfig::builder()
            .double_buffering(false)
            .global_buffer_bytes(64 * 1024)
            .build()
            .expect("valid single-buffered config")
    }

    #[test]
    fn event_totals_track_the_analytic_model() {
        // The analytic combine is max(compute, dram) + latency per layer;
        // the event pipeline adds the bubbles that shortcut hides — in
        // particular, a layer that fits the buffer in one tile cannot
        // overlap its own (dependent) input load with its own compute,
        // so networks dominated by small layers run up to ~35% over the
        // analytic estimate. The band below documents that honest gap.
        let (cfg, opts) = setup();
        for net in [zoo::squeezenet_v1_1(), zoo::tiny_darknet(), zoo::mobilenet_v1()] {
            let analytic =
                simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts).total_cycles() as f64;
            let event = simulate_network_event(&net, &cfg, DataflowPolicy::PerLayer, opts)
                .total_cycles() as f64;
            let ratio = event / analytic;
            assert!((0.8..1.4).contains(&ratio), "{}: event/analytic = {ratio:.3}", net.name());
        }
    }

    #[test]
    fn time_skip_matches_the_tile_by_tile_baseline_on_the_zoo() {
        // The fast-forward jump must be invisible: identical per-layer
        // cycles, stalls, and tile counts on every zoo network, under
        // both dataflow policies.
        let (cfg, opts) = setup();
        for net in zoo::table_networks() {
            for policy in [
                DataflowPolicy::PerLayer,
                DataflowPolicy::Fixed(Dataflow::WeightStationary),
                DataflowPolicy::Fixed(Dataflow::OutputStationary),
            ] {
                let fast =
                    try_simulate_network_event_mode(&net, &cfg, policy, opts, TimeSkip::Enabled)
                        .expect("fast event sim");
                let spec =
                    try_simulate_network_event_mode(&net, &cfg, policy, opts, TimeSkip::Disabled)
                        .expect("baseline event sim");
                assert_eq!(fast, spec, "{} under {policy}", net.name());
            }
        }
    }

    #[test]
    fn time_skip_matches_baseline_without_double_buffering() {
        let opts = SimOptions::paper_default();
        let cfg = single_buffered();
        for net in [zoo::squeezenet_v1_1(), zoo::alexnet()] {
            let fast = try_simulate_network_event_mode(
                &net,
                &cfg,
                DataflowPolicy::PerLayer,
                opts,
                TimeSkip::Enabled,
            )
            .expect("fast event sim");
            let spec = try_simulate_network_event_mode(
                &net,
                &cfg,
                DataflowPolicy::PerLayer,
                opts,
                TimeSkip::Disabled,
            )
            .expect("baseline event sim");
            assert_eq!(fast, spec, "{}", net.name());
        }
    }

    #[test]
    fn event_is_never_faster_than_the_compute_floor() {
        // One stall rule in both buffering modes: the array idles from
        // the later of its last completion and the layer's start until a
        // tile's data arrives. Stalls and compute then both fit inside
        // the layer's span, exactly.
        let opts = SimOptions::paper_default();
        for cfg in [AcceleratorConfig::paper_default(), single_buffered()] {
            for net in zoo::table_networks() {
                let event = simulate_network_event(&net, &cfg, DataflowPolicy::PerLayer, opts);
                let analytic = simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts);
                for (e, a) in event.layers.iter().zip(&analytic.layers) {
                    assert!(
                        e.array_stall_cycles + a.compute.cycles() <= e.cycles,
                        "{} {} on {cfg}: {} stalls + {} compute > {} event cycles",
                        net.name(),
                        e.name,
                        e.array_stall_cycles,
                        a.compute.cycles(),
                        e.cycles
                    );
                }
            }
        }
        // Without double buffering the array waits for every load.
        let r = simulate_network_event(
            &zoo::alexnet(),
            &single_buffered(),
            DataflowPolicy::PerLayer,
            opts,
        );
        for name in ["conv1", "fc6"] {
            let layer = r.layers.iter().find(|l| l.name == name).expect("AlexNet layer");
            assert!(layer.array_stall_cycles > 0, "{name}: {layer:?}");
        }
    }

    #[test]
    fn lowered_tiles_sum_to_the_plan_traffic_and_the_compute() {
        // The run-length lowering spreads every total over the tiles
        // without losing a byte or a cycle: `body` times `count - 1`
        // plus `last` gives back the plan's traffic (weights either
        // prefetched whole or streamed with the inputs) and the compute.
        let opts = SimOptions::paper_default();
        for cfg in [AcceleratorConfig::paper_default(), single_buffered()] {
            for net in zoo::table_networks() {
                for work in net.layers().iter().filter_map(ConvWork::from_layer) {
                    let plan = optimize_tiling(&work, &cfg).expect("zoo layers tile");
                    let compute = crate::os::simulate_os(&work, &cfg, opts.os).cycles();
                    let t = tile_sequence(&work, &plan, plan.traffic, &cfg, compute)
                        .expect("zoo layers lower");
                    let sum = |f: fn(&TileTxn) -> u64| f(&t.body) * (t.count - 1) + f(&t.last);
                    let what = format!("{work:?} on {cfg}");
                    let tiles = work.out_h.div_ceil(plan.tiling.out_rows)
                        * work.out_channels.div_ceil(plan.tiling.out_channels)
                        * work.in_channels.div_ceil(plan.tiling.in_channels)
                        * work.groups;
                    assert_eq!(t.count, tiles as u64, "{what}");
                    let streamed = match t.weight_bytes {
                        0 => plan.traffic.weights,
                        prefetched => {
                            assert_eq!(prefetched, plan.traffic.weights, "{what}");
                            0
                        }
                    };
                    assert_eq!(sum(|x| x.input_bytes), plan.traffic.input + streamed, "{what}");
                    assert_eq!(sum(|x| x.store_bytes), plan.traffic.output, "{what}");
                    assert_eq!(sum(|x| x.compute_cycles), compute, "{what}");
                }
            }
        }
    }

    #[test]
    fn time_skip_matches_the_tile_walk_at_every_run_length() {
        // A jump may land no later than the iteration that prefetches
        // the last body tile; an off-by-one would jump over an iteration
        // that is not a time translation of the ones before it. Play
        // hand-built runs of 1 to 12 tiles (periods of one and two
        // tiles), with and without a distinct last tile, through both
        // buffering modes and compare the fast path with the
        // tile-by-tile walk on every observable, unit state included.
        let dram = codesign_arch::DramModel { latency_cycles: 100, bytes_per_cycle: 8.0 };
        let tile = |input_bytes, compute_cycles, store_bytes| TileTxn {
            input_bytes,
            compute_cycles,
            store_bytes,
        };
        // DMA-bound, compute-bound, transfer-free, store-free, and one
        // whose DMA latency lands on alternate bursts (a two-tile rhythm).
        let bodies = [
            tile(800, 40, 80),
            tile(80, 400, 80),
            tile(0, 50, 0),
            tile(160, 20, 0),
            tile(48, 26, 72),
        ];
        for body in bodies {
            for last in [body, tile(body.input_bytes + 8, body.compute_cycles + 3, 0)] {
                for count in 1..=12 {
                    for weight_bytes in [0, 4000] {
                        let txns = LayerTxns { weight_bytes, body, last, count };
                        for double_buffering in [true, false] {
                            let play = |skip| {
                                let mut dma = DmaUnit::new(dram);
                                let mut array = ArrayUnit::new();
                                // A previous layer that finished at 500
                                // after computing from 300 on.
                                let state =
                                    PipelineState { prev_compute_start: 300, finished: 500 };
                                dma.transfer(0, 400);
                                array.run(300, 150);
                                let out = play_layer(
                                    &txns,
                                    &mut dma,
                                    &mut array,
                                    state,
                                    double_buffering,
                                    skip,
                                );
                                (out, dma, array)
                            };
                            assert_eq!(
                                play(TimeSkip::Enabled),
                                play(TimeSkip::Disabled),
                                "{txns:?}, double buffering {double_buffering}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn double_buffering_hides_loads_in_the_event_model_too() {
        let (cfg, opts) = setup();
        let no_db = single_buffered();
        let net = zoo::squeezenet_v1_1();
        let with_db =
            simulate_network_event(&net, &cfg, DataflowPolicy::PerLayer, opts).total_cycles();
        let without =
            simulate_network_event(&net, &no_db, DataflowPolicy::PerLayer, opts).total_cycles();
        assert!(with_db < without, "{with_db} !< {without}");
    }

    #[test]
    fn stalls_appear_on_memory_bound_layers() {
        // AlexNet FC: DMA-limited; the array must stall.
        let (cfg, opts) = setup();
        let net = zoo::alexnet();
        let r = simulate_network_event(&net, &cfg, DataflowPolicy::PerLayer, opts);
        let fc6 = r.layers.iter().find(|l| l.name == "fc6").unwrap();
        assert!(fc6.array_stall_cycles > 0);
    }

    #[test]
    fn compute_bound_layers_barely_stall() {
        let (cfg, opts) = setup();
        let net = zoo::squeezenet_v1_0();
        let r = simulate_network_event(&net, &cfg, DataflowPolicy::PerLayer, opts);
        let conv1 = r.layers.iter().find(|l| l.name == "conv1").unwrap();
        // conv1 is strongly compute bound: stalls are a small fraction.
        assert!(
            (conv1.array_stall_cycles as f64) < 0.25 * conv1.cycles as f64,
            "stalls {} of {}",
            conv1.array_stall_cycles,
            conv1.cycles
        );
    }

    #[test]
    fn tile_counts_are_positive() {
        let (cfg, opts) = setup();
        let net = zoo::squeezenet_v1_1();
        let r = simulate_network_event(&net, &cfg, DataflowPolicy::PerLayer, opts);
        assert!(r.layers.iter().all(|l| l.tiles >= 1));
        assert!(r.total_stalls() < r.total_cycles());
    }
}
