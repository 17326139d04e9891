//! Command-stream lowering: compile a network into the sequence of
//! accelerator commands the Squeezelerator's controller would execute.
//!
//! §4.1.2 describes the machine as configured "to select the dataflow
//! style (OS or WS) for each layer"; DNN inference "is statically
//! schedulable". This module makes that schedule concrete: a [`Program`]
//! is the per-layer command stream (dataflow mode set, DMA transfers,
//! preload/broadcast/drain phases), produced from the machine traces of
//! the same run-length schedules the analytic model folds. Replaying a
//! program through [`Program::estimate`] must reproduce the simulator's
//! cycle counts exactly — the compiled artifact and the performance model
//! cannot drift apart.

use std::fmt;

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy};
use codesign_dnn::Network;

use crate::cycle::{trace_os, trace_ws, Phase};
use crate::dram::combine_cycles;
use crate::engine::{try_compare_dataflows, SimOptions};
use crate::error::SimResult;
use crate::simd::simulate_simd;
use crate::workload::ConvWork;

/// One controller command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Select the dataflow mode for the coming layer (no cycle cost —
    /// "no overhead is incurred by switching between dataflow styles").
    SetDataflow(Dataflow),
    /// DMA transfer from DRAM into the global buffer.
    DmaLoad {
        /// Bytes moved.
        bytes: u64,
    },
    /// DMA transfer from the global buffer to DRAM.
    DmaStore {
        /// Bytes moved.
        bytes: u64,
    },
    /// Load stationary data into the PE array (weights in WS, input
    /// tiles in OS).
    Preload {
        /// Array cycles.
        cycles: u64,
    },
    /// MAC work (streaming in WS, broadcasts in OS).
    Compute {
        /// Array cycles.
        cycles: u64,
        /// Useful MACs performed.
        macs: u64,
    },
    /// Drain finished results to the global buffer.
    Drain {
        /// Array cycles.
        cycles: u64,
    },
    /// Vector-unit work for non-convolutional layers.
    Simd {
        /// Vector-unit cycles.
        cycles: u64,
    },
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::SetDataflow(d) => write!(f, "mode    {d}"),
            Command::DmaLoad { bytes } => write!(f, "dma.ld  {bytes} B"),
            Command::DmaStore { bytes } => write!(f, "dma.st  {bytes} B"),
            Command::Preload { cycles } => write!(f, "preload {cycles}"),
            Command::Compute { cycles, macs } => write!(f, "compute {cycles} ({macs} MACs)"),
            Command::Drain { cycles } => write!(f, "drain   {cycles}"),
            Command::Simd { cycles } => write!(f, "simd    {cycles}"),
        }
    }
}

/// The compiled command stream of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProgram {
    /// Layer name.
    pub layer: String,
    /// Commands in issue order.
    pub commands: Vec<Command>,
}

impl LayerProgram {
    /// Total PE-array (or SIMD) cycles in this layer's stream.
    pub fn compute_cycles(&self) -> u64 {
        self.commands
            .iter()
            .map(|c| match c {
                Command::Preload { cycles }
                | Command::Compute { cycles, .. }
                | Command::Drain { cycles }
                | Command::Simd { cycles } => *cycles,
                _ => 0,
            })
            .sum()
    }

    /// Total DMA bytes in this layer's stream.
    pub fn dma_bytes(&self) -> u64 {
        self.commands
            .iter()
            .map(|c| match c {
                Command::DmaLoad { bytes } | Command::DmaStore { bytes } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Total useful MACs.
    pub fn macs(&self) -> u64 {
        self.commands
            .iter()
            .map(|c| match c {
                Command::Compute { macs, .. } => *macs,
                _ => 0,
            })
            .sum()
    }
}

/// A compiled network: the static schedule as a command stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Network name.
    pub network: String,
    /// Per-layer streams in execution order.
    pub layers: Vec<LayerProgram>,
}

impl Program {
    /// Compiles a network under the given policy: per layer, picks the
    /// dataflow the scheduler would pick, walks its machine trace, and
    /// emits the merged command stream.
    ///
    /// # Errors
    ///
    /// The first [`SimError`](crate::SimError) any layer surfaces, attributed to that
    /// layer.
    pub fn try_compile(
        network: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
    ) -> SimResult<Program> {
        let mut layers = Vec::with_capacity(network.layers().len());
        for layer in network.layers() {
            let compiled = Self::compile_layer(layer, cfg, policy, opts)
                .map_err(|e| e.for_layer(&layer.name))?;
            layers.push(compiled);
        }
        Ok(Program { network: network.name().to_owned(), layers })
    }

    fn compile_layer(
        layer: &codesign_dnn::Layer,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
    ) -> SimResult<LayerProgram> {
        let mut commands = Vec::new();
        match ConvWork::from_layer(layer) {
            Some(work) => {
                let dataflow = match policy {
                    DataflowPolicy::Fixed(d) => d,
                    DataflowPolicy::PerLayer => try_compare_dataflows(layer, cfg, opts)?.2,
                };
                // Validation precedes the machine traces: trace_ws/trace_os
                // assume well-formed work, just like simulate_ws/simulate_os.
                work.validate()?;
                commands.push(Command::SetDataflow(dataflow));
                let traffic = opts.layer_traffic(&work, cfg)?;
                commands.push(Command::DmaLoad { bytes: traffic.input + traffic.weights });
                let trace = match dataflow {
                    Dataflow::WeightStationary => trace_ws(&work, cfg),
                    Dataflow::OutputStationary => trace_os(&work, cfg, opts.os),
                };
                // Merge consecutive same-phase segments into one
                // command each (the listing stays readable for
                // thousand-segment layers). Macro-segments fold their
                // whole repeat run into the command.
                for seg in trace.segments() {
                    let cycles = seg.total_cycles();
                    let macs = seg.total_macs();
                    match (seg.phase, commands.last_mut()) {
                        (Phase::Load, Some(Command::Preload { cycles: c })) => *c += cycles,
                        (Phase::Compute, Some(Command::Compute { cycles: c, macs: m })) => {
                            *c += cycles;
                            *m += macs;
                        }
                        (Phase::Drain, Some(Command::Drain { cycles: c })) => *c += cycles,
                        (Phase::Load, _) => commands.push(Command::Preload { cycles }),
                        (Phase::Compute, _) => {
                            commands.push(Command::Compute { cycles, macs });
                        }
                        (Phase::Drain, _) => commands.push(Command::Drain { cycles }),
                    }
                }
                commands.push(Command::DmaStore { bytes: traffic.output });
            }
            None => {
                let e = cfg.bytes_per_element() as u64;
                let perf = simulate_simd(layer, cfg)?;
                commands.push(Command::DmaLoad { bytes: layer.input.elements() as u64 * e });
                commands.push(Command::Simd { cycles: perf.cycles() });
                commands.push(Command::DmaStore { bytes: layer.output.elements() as u64 * e });
            }
        }
        Ok(LayerProgram { layer: layer.name.clone(), commands })
    }

    /// Compiles a network under the given policy. Infallible wrapper
    /// over [`Program::try_compile`].
    ///
    /// # Panics
    ///
    /// Panics (through the crate's single panic site) if any layer is
    /// degenerate or infeasible on this configuration.
    pub fn compile(
        network: &Network,
        cfg: &AcceleratorConfig,
        policy: DataflowPolicy,
        opts: SimOptions,
    ) -> Program {
        Self::try_compile(network, cfg, policy, opts).unwrap_or_else(|e| e.raise())
    }

    /// Replays the program against a hardware configuration and returns
    /// the end-to-end cycle estimate. Matches
    /// [`crate::simulate_network`]'s totals exactly — asserted by the
    /// integration tests.
    pub fn estimate(&self, cfg: &AcceleratorConfig) -> u64 {
        self.layers
            .iter()
            .map(|l| {
                let dram_cycles = cfg.dram().transfer_cycles(l.dma_bytes());
                combine_cycles(l.compute_cycles(), dram_cycles, cfg)
            })
            .sum()
    }

    /// Total commands across all layers.
    pub fn len(&self) -> usize {
        self.layers.iter().map(|l| l.commands.len()).sum()
    }

    /// Whether the program has no commands.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders an assembly-like listing.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "; program for {}", self.network);
        for l in &self.layers {
            let _ = writeln!(out, "{}:", l.layer);
            for c in &l.commands {
                let _ = writeln!(out, "    {c}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_network;
    use codesign_dnn::zoo;

    fn setup() -> (AcceleratorConfig, SimOptions) {
        (AcceleratorConfig::paper_default(), SimOptions::paper_default())
    }

    #[test]
    fn replay_matches_the_simulator_exactly() {
        let (cfg, opts) = setup();
        for net in [zoo::squeezenet_v1_1(), zoo::mobilenet_v1()] {
            for policy in [
                DataflowPolicy::PerLayer,
                DataflowPolicy::Fixed(Dataflow::WeightStationary),
                DataflowPolicy::Fixed(Dataflow::OutputStationary),
            ] {
                let program = Program::compile(&net, &cfg, policy, opts);
                let simulated = simulate_network(&net, &cfg, policy, opts);
                assert_eq!(
                    program.estimate(&cfg),
                    simulated.total_cycles(),
                    "{} under {policy}",
                    net.name()
                );
            }
        }
    }

    #[test]
    fn per_layer_macs_match_the_model() {
        let (cfg, opts) = setup();
        let net = zoo::squeezenet_v1_1();
        let program =
            Program::compile(&net, &cfg, DataflowPolicy::Fixed(Dataflow::WeightStationary), opts);
        for (lp, layer) in program.layers.iter().zip(net.layers()) {
            if layer.is_compute() {
                assert_eq!(lp.macs(), layer.macs(), "{}", layer.name);
            }
        }
    }

    #[test]
    fn streams_begin_with_mode_and_dma() {
        let (cfg, opts) = setup();
        let net = zoo::tiny_darknet();
        let program = Program::compile(&net, &cfg, DataflowPolicy::PerLayer, opts);
        let first = &program.layers[0];
        assert!(matches!(first.commands[0], Command::SetDataflow(_)));
        assert!(matches!(first.commands[1], Command::DmaLoad { .. }));
        assert!(matches!(first.commands.last(), Some(Command::DmaStore { .. })));
    }

    #[test]
    fn listing_is_assembly_like() {
        let (cfg, opts) = setup();
        let net = zoo::squeezenet_v1_1();
        let program = Program::compile(&net, &cfg, DataflowPolicy::PerLayer, opts);
        let listing = program.listing();
        assert!(listing.contains("conv1:"));
        assert!(listing.contains("mode    OS"));
        assert!(listing.contains("dma.ld"));
        assert!(listing.contains("compute"));
        assert!(!program.is_empty());
    }

    #[test]
    fn merging_keeps_streams_compact() {
        // fire layers have hundreds of machine segments; merged command
        // streams stay in the tens.
        let (cfg, opts) = setup();
        let net = zoo::squeezenet_v1_0();
        let program = Program::compile(&net, &cfg, DataflowPolicy::PerLayer, opts);
        let avg = program.len() as f64 / program.layers.len() as f64;
        assert!(avg < 600.0, "average commands per layer = {avg:.0}");
    }
}
