//! Fault injection (`codesign faultinject [--serve]`): hostile-input
//! corpora and the one harness that runs them.
//!
//! Each case runs under `catch_unwind` and ends **completed**,
//! **rejected** with a typed error, or **panicked**; the report judges
//! every outcome against the case's expectation. The contract under
//! test: hostile inputs are *rejected, never panicked on*, and
//! well-formed control inputs still complete.
//!
//! This module holds the simulator corpus: degenerate layers,
//! overflow-scale shapes, infeasible buffer configurations and malformed
//! `.net` files run through the fallible `Simulator` methods, plus
//! zoo-network controls. Each simulator rejection bumps the matching
//! `sim.error.<kind>` counter on the tracer passed to [`run`], so a
//! traced run shows which error classes the corpus exercised. The
//! serving and persistence corpus is [`crate::faultserve::corpus`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy};
use codesign_dnn::{parse_network, zoo, ConvSpec, Kernel, Layer, LayerOp, Network, Shape};
use codesign_sim::{
    optimize_tiling, validate_network, ConvWork, MultiCoreConfig, SimError, SimOptions, SimResult,
    Simulator, TrafficModel, WorkKind,
};
use codesign_trace::Tracer;

/// What happened when one fault case ran.
enum CaseOutcome {
    /// The case completed (expected only for controls and invariants).
    Completed,
    /// A typed error was surfaced: the desired outcome for every
    /// hostile case.
    Rejected {
        /// Machine-readable error class ([`SimError::kind`], or
        /// `violation` for a broken serving invariant).
        kind: String,
        /// Human-readable error message.
        message: String,
    },
    /// A panic escaped the case: always a harness failure.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

/// Why a case did not complete.
enum Refusal {
    /// The simulator rejected the input with a typed error.
    Sim(SimError),
    /// A serving or persistence invariant did not hold.
    Violation(String),
}

/// One corpus entry: a named, deliberately hostile (or deliberately
/// well-formed) input plus the expectation its outcome is judged by.
pub struct FaultCase {
    name: &'static str,
    expect_rejection: bool,
    run: Box<dyn Fn() -> Result<(), Refusal>>,
}

impl FaultCase {
    fn sim(
        name: &'static str,
        expect_rejection: bool,
        run: impl Fn() -> SimResult<()> + 'static,
    ) -> Self {
        Self { name, expect_rejection, run: Box::new(move || run().map_err(Refusal::Sim)) }
    }

    /// A hostile simulator input: must be rejected with a typed error.
    fn hostile(name: &'static str, run: impl Fn() -> SimResult<()> + 'static) -> Self {
        Self::sim(name, true, run)
    }

    /// A well-formed simulator input: must complete.
    fn control(name: &'static str, run: impl Fn() -> SimResult<()> + 'static) -> Self {
        Self::sim(name, false, run)
    }

    /// A serving or persistence invariant: must hold. A violated one
    /// surfaces as a `violation` rejection, which fails the report.
    pub fn invariant(name: &'static str, run: fn() -> Result<(), String>) -> Self {
        Self {
            name,
            expect_rejection: false,
            run: Box::new(move || run().map_err(Refusal::Violation)),
        }
    }
}

/// The outcome of running one corpus.
pub struct FaultReport {
    /// Per case, in corpus order: name, whether rejection was expected,
    /// and what actually happened.
    cases: Vec<(String, bool, CaseOutcome)>,
}

impl FaultReport {
    fn count(&self, pred: impl Fn(&CaseOutcome) -> bool) -> usize {
        self.cases.iter().filter(|(_, _, o)| pred(o)).count()
    }

    fn panics(&self) -> usize {
        self.count(|o| matches!(o, CaseOutcome::Panicked { .. }))
    }

    fn rejections(&self) -> usize {
        self.count(|o| matches!(o, CaseOutcome::Rejected { .. }))
    }

    /// Cases whose outcome contradicts their expectation: a hostile case
    /// completed, a control failed, or anything panicked.
    fn mismatches(&self) -> usize {
        self.cases
            .iter()
            .filter(|(_, expect_rejection, o)| match o {
                CaseOutcome::Completed => *expect_rejection,
                CaseOutcome::Rejected { .. } => !*expect_rejection,
                CaseOutcome::Panicked { .. } => true,
            })
            .count()
    }

    /// Whether the corpus upheld its contract: no panics, no expectation
    /// mismatches.
    pub fn passed(&self) -> bool {
        self.panics() == 0 && self.mismatches() == 0
    }

    /// Human-readable per-case listing plus a summary line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let width = self.cases.iter().map(|(n, _, _)| n.len()).max().unwrap_or(0);
        for (name, expect_rejection, outcome) in &self.cases {
            let expected = if *expect_rejection { "reject" } else { "complete" };
            let (tag, detail) = match outcome {
                CaseOutcome::Completed => ("completed", String::new()),
                // An unexpected rejection says why.
                CaseOutcome::Rejected { kind, message } if !expect_rejection => {
                    ("rejected", format!(" [{kind}] !! {message}"))
                }
                CaseOutcome::Rejected { kind, .. } => ("rejected", format!(" [{kind}]")),
                CaseOutcome::Panicked { message } => ("PANICKED", format!(" !! {message}")),
            };
            let _ = writeln!(out, "  {name:width$}  expect {expected:8}  -> {tag}{detail}");
        }
        let total = self.cases.len();
        let _ = writeln!(
            out,
            "{total} cases: {} rejected, {} completed, {} panicked, {} mismatched -> {}",
            self.rejections(),
            total - self.rejections() - self.panics(),
            self.panics(),
            self.mismatches(),
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Runs `cases` in order, each isolated by `catch_unwind`. Every
/// simulator rejection bumps `sim.error.<kind>` on `tracer` (a no-op when
/// disabled). The default panic hook is silenced for the run, since the
/// serve corpus injects panics on purpose; every payload still reaches
/// the report.
pub fn run(cases: &[FaultCase], tracer: &Tracer) -> FaultReport {
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let cases = cases
        .iter()
        .map(|case| {
            let outcome = match catch_unwind(AssertUnwindSafe(&case.run)) {
                Ok(Ok(())) => CaseOutcome::Completed,
                Ok(Err(Refusal::Sim(e))) => {
                    tracer.add_counter(&format!("sim.error.{}", e.kind()), 1);
                    CaseOutcome::Rejected { kind: e.kind().to_owned(), message: e.to_string() }
                }
                Ok(Err(Refusal::Violation(message))) => {
                    CaseOutcome::Rejected { kind: "violation".to_owned(), message }
                }
                Err(payload) => CaseOutcome::Panicked {
                    message: payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_owned()),
                },
            };
            (case.name.to_owned(), case.expect_rejection, outcome)
        })
        .collect();
    std::panic::set_hook(previous_hook);
    FaultReport { cases }
}

/// The simulator corpus: every hostile-input class the robustness work
/// targets, plus controls proving the happy path still completes.
/// Deliberately ≥ 30 cases.
pub fn sim_corpus() -> Vec<FaultCase> {
    let mut cases = corpus_degenerate_layers();
    cases.extend(corpus_overflow_shapes());
    cases.extend(corpus_infeasible_buffers());
    cases.extend(corpus_malformed_netfiles());
    cases.extend(corpus_controls());
    cases
}

// ---------------------------------------------------------------------
// Corpus construction

fn layer(name: &str, op: LayerOp, input: Shape, output: Shape) -> Layer {
    Layer {
        name: name.to_owned(),
        op,
        input,
        output,
        is_first_conv: false,
        primary_input: None,
        extra_input: None,
    }
}

fn conv(out_channels: usize, k: usize, stride: usize, groups: usize) -> LayerOp {
    LayerOp::Conv(ConvSpec {
        out_channels,
        kernel: Kernel::square(k),
        stride,
        pad_h: 0,
        pad_w: 0,
        groups,
    })
}

/// A hostile layer, simulated on the paper's hardware under both
/// dataflows.
fn hostile_layer(name: &'static str, op: LayerOp, input: Shape, output: Shape) -> FaultCase {
    let layer = layer(name, op, input, output);
    FaultCase::hostile(name, move || {
        let cfg = AcceleratorConfig::paper_default();
        let sim = Simulator::new();
        for flow in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
            sim.try_simulate_layer(&layer, &cfg, SimOptions::paper_default(), flow)?;
        }
        Ok(())
    })
}

/// Simulates `net` on `cfg` with per-layer dataflows.
fn network(net: fn() -> Network, cfg: fn() -> AcceleratorConfig) -> impl Fn() -> SimResult<()> {
    move || {
        let opts = SimOptions::paper_default();
        Simulator::new().try_simulate_network(&net(), &cfg(), DataflowPolicy::PerLayer, opts)?;
        Ok(())
    }
}

/// Simulates `net` at `batch` images on the paper's hardware.
fn batched(net: fn() -> Network, batch: u64) -> impl Fn() -> SimResult<()> {
    move || {
        let cfg = AcceleratorConfig::paper_default();
        let opts = SimOptions::paper_default();
        let policy = DataflowPolicy::PerLayer;
        Simulator::new().try_simulate_network_batched(&net(), &cfg, policy, opts, batch)?;
        Ok(())
    }
}

/// Simulates Tiny Darknet on `cores` paper-default cores.
fn multicore(cores: usize) -> impl Fn() -> SimResult<()> {
    move || {
        let mc = MultiCoreConfig { core: AcceleratorConfig::paper_default(), cores };
        let (opts, policy) = (SimOptions::paper_default(), DataflowPolicy::PerLayer);
        Simulator::new().try_simulate_network_multicore(&zoo::tiny_darknet(), &mc, policy, opts)?;
        Ok(())
    }
}

/// Runs the pre-flight validation of SqueezeNet v1.0 on `cfg`.
fn preflight(cfg: fn() -> AcceleratorConfig) -> impl Fn() -> SimResult<()> {
    move || validate_network(&zoo::squeezenet_v1_0(), &cfg())
}

fn corpus_degenerate_layers() -> Vec<FaultCase> {
    let s = Shape::new;
    vec![
        hostile_layer("conv/7x7-on-1x1-input", conv(4, 7, 1, 1), s(4, 1, 1), s(4, 1, 1)),
        hostile_layer("conv/3x3-on-2x2-input", conv(8, 3, 1, 1), s(8, 2, 2), s(8, 2, 2)),
        hostile_layer("conv/zero-in-channels", conv(4, 3, 1, 1), s(0, 8, 8), s(4, 8, 8)),
        hostile_layer("conv/zero-out-channels", conv(0, 3, 1, 1), s(4, 8, 8), s(0, 8, 8)),
        hostile_layer("conv/zero-height-input", conv(4, 1, 1, 1), s(4, 0, 8), s(4, 1, 8)),
        hostile_layer("conv/zero-width-input", conv(4, 1, 1, 1), s(4, 8, 0), s(4, 8, 1)),
        hostile_layer("conv/zero-kernel", conv(4, 0, 1, 1), s(4, 8, 8), s(4, 8, 8)),
        hostile_layer("conv/zero-stride", conv(4, 3, 0, 1), s(4, 8, 8), s(4, 8, 8)),
        hostile_layer("conv/zero-groups", conv(4, 3, 1, 0), s(4, 8, 8), s(4, 8, 8)),
        hostile_layer("conv/zero-output-plane", conv(4, 3, 1, 1), s(4, 8, 8), s(4, 0, 0)),
        hostile_layer(
            "fc/zero-features",
            LayerOp::FullyConnected { out_features: 0 },
            Shape::vector(64),
            Shape::vector(0),
        ),
        hostile_layer(
            "fc/zero-input",
            LayerOp::FullyConnected { out_features: 10 },
            Shape::vector(0),
            Shape::vector(10),
        ),
    ]
}

fn corpus_overflow_shapes() -> Vec<FaultCase> {
    const HUGE: usize = 1 << 21; // HUGE^3 overflows the bounded 64-bit range
    let s = Shape::new;
    vec![
        hostile_layer(
            "overflow/mac-count",
            conv(HUGE, 1, 1, 1),
            s(HUGE, HUGE, HUGE),
            s(HUGE, HUGE, HUGE),
        ),
        hostile_layer(
            "overflow/channel-square",
            conv(1 << 30, 16, 1, 1),
            s(1 << 30, 16, 16),
            s(1 << 30, 1, 1),
        ),
        hostile_layer(
            "overflow/input-elements",
            conv(1, 1, 1, 1),
            s(1 << 30, 1 << 30, 1 << 14),
            s(1, 1, 1),
        ),
        hostile_layer(
            "overflow/fc-features",
            LayerOp::FullyConnected { out_features: usize::MAX / 2 },
            Shape::vector(1 << 20),
            Shape::vector(usize::MAX / 2),
        ),
        FaultCase::hostile("overflow/batch-scale", batched(zoo::alexnet, u64::MAX / 2)),
        FaultCase::hostile("overflow/zero-batch", batched(zoo::tiny_darknet, 0)),
        FaultCase::hostile("overflow/zero-cores", multicore(0)),
        FaultCase::hostile("overflow/core-scale", multicore(usize::MAX / 2)),
        // A dense 1×1 work that validates, yet whose weights-outer input
        // traffic at filter tile 1 is exactly 2^64 − 1 bytes
        // (641 · 65537 · 6700417 · 65535): the plan's total must be
        // rejected, not wrapped to a small sum that makes it look best.
        FaultCase::hostile("overflow/tiling-traffic-sum", || {
            let cfg = AcceleratorConfig::builder()
                .bytes_per_element(1)
                .global_buffer_bytes(16 << 20)
                .double_buffering(false)
                .build()
                .unwrap_or_else(|e| unreachable!("16 MiB satisfies the builder ranges: {e}"));
            let work = ConvWork {
                kind: WorkKind::Dense,
                groups: 1,
                in_channels: 1,
                out_channels: 65_535,
                kernel_h: 1,
                kernel_w: 1,
                stride: 1,
                in_h: 42_009_217,
                in_w: 6_700_417,
                out_h: 1,
                out_w: 1,
            };
            optimize_tiling(&work, &cfg)?;
            Ok(())
        }),
        // The closed-form traffic model on a dense 1×1 work that
        // validates: a 16 KiB buffer holds neither operand, so the input
        // is re-fetched 8,192 times and its bytes pass 64 bits.
        FaultCase::hostile("overflow/closed-form-traffic", move || {
            let cfg = AcceleratorConfig::builder()
                .global_buffer_bytes(16 << 10)
                .build()
                .unwrap_or_else(|e| unreachable!("16 KiB satisfies the builder ranges: {e}"));
            let opts =
                SimOptions { traffic: TrafficModel::ClosedForm, ..SimOptions::paper_default() };
            let wide =
                layer("wide", conv(1, 1, 1, 1), s(1 << 24, 32_768, 29_000), s(1, 32_768, 29_000));
            Simulator::new().try_simulate_layer(&wide, &cfg, opts, Dataflow::WeightStationary)?;
            Ok(())
        }),
    ]
}

/// The smallest buffer the builder accepts: feasible for almost nothing.
fn tiny_buffer_config() -> AcceleratorConfig {
    AcceleratorConfig::builder()
        .array_size(2)
        .bytes_per_element(1)
        .global_buffer_bytes(8)
        .double_buffering(false)
        .build()
        .unwrap_or_else(|e| unreachable!("tiny config satisfies the builder ranges: {e}"))
}

fn corpus_infeasible_buffers() -> Vec<FaultCase> {
    let big = layer("big", conv(128, 3, 1, 1), Shape::new(128, 56, 56), Shape::new(128, 56, 56));
    vec![
        FaultCase::hostile(
            "buffer/squeezenet-on-8-bytes",
            network(zoo::squeezenet_v1_0, tiny_buffer_config),
        ),
        FaultCase::hostile(
            "buffer/mobilenet-on-8-bytes",
            network(zoo::mobilenet_v1, tiny_buffer_config),
        ),
        FaultCase::hostile("buffer/preflight-catches-it", preflight(tiny_buffer_config)),
        FaultCase::hostile("buffer/single-conv-tiling", move || {
            let (cfg, opts) = (tiny_buffer_config(), SimOptions::paper_default());
            Simulator::new().try_simulate_layer(&big, &cfg, opts, Dataflow::WeightStationary)?;
            Ok(())
        }),
    ]
}

/// Malformed `.net` texts. Parse failures are IR-level, not `SimError`:
/// they are reported as `invalid_workload` rejections like every other
/// malformed workload.
fn corpus_malformed_netfiles() -> Vec<FaultCase> {
    let parse = |name: &'static str, text: &'static str| {
        FaultCase::hostile(name, move || {
            let net = parse_network(text).map_err(|e| SimError::InvalidWorkload {
                layer: None,
                reason: format!("unparseable network: {e}"),
            })?;
            let cfg = AcceleratorConfig::paper_default();
            let opts = SimOptions::paper_default();
            Simulator::new().try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts)?;
            Ok(())
        })
    };
    vec![
        parse("netfile/empty", ""),
        parse("netfile/header-only", "network t 3x224x224\n"),
        parse("netfile/truncated-mid-line", "network t 3x224x224\nconv conv1 64 3"),
        parse("netfile/garbage-op", "network t 3x224x224\nfrobnicate x 1 2 3\n"),
        parse("netfile/non-numeric-dims", "network t 3x224x224\nconv conv1 sixty-four 3 1 1\n"),
        parse("netfile/bad-stride-token", "network t 3x224x224\nconv conv1 64 3 zz p1\n"),
        parse("netfile/kernel-exceeds-input", "network t 3x8x8\nconv conv1 64 11 s1\n"),
    ]
}

fn corpus_controls() -> Vec<FaultCase> {
    let paper = AcceleratorConfig::paper_default;
    vec![
        FaultCase::control("control/squeezenet-v1.0", network(zoo::squeezenet_v1_0, paper)),
        FaultCase::control("control/squeezenet-v1.1", network(zoo::squeezenet_v1_1, paper)),
        FaultCase::control("control/mobilenet-v1", network(zoo::mobilenet_v1, paper)),
        FaultCase::control("control/alexnet-fc-path", network(zoo::alexnet, paper)),
        FaultCase::control("control/tiny-darknet", network(zoo::tiny_darknet, paper)),
        FaultCase::control("control/batched-4", batched(zoo::tiny_darknet, 4)),
        FaultCase::control("control/multicore-4", multicore(4)),
        FaultCase::control("control/preflight-paper-default", preflight(paper)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_large_enough() {
        assert!(sim_corpus().len() >= 30, "corpus = {}", sim_corpus().len());
    }

    #[test]
    fn corpus_runs_clean() {
        let report = run(&sim_corpus(), &Tracer::enabled());
        assert_eq!(report.panics(), 0, "\n{}", report.render());
        assert_eq!(report.mismatches(), 0, "\n{}", report.render());
        assert!(report.passed());
    }

    #[test]
    fn rejections_bump_error_counters() {
        let tracer = Tracer::enabled();
        let report = run(&sim_corpus(), &tracer);
        let data = tracer.snapshot();
        let counted: u64 = [
            "infeasible_tiling",
            "unsupported_layer",
            "arithmetic_overflow",
            "buffer_exceeded",
            "invalid_workload",
        ]
        .iter()
        .filter_map(|k| data.counter(&format!("sim.error.{k}")))
        .sum();
        assert_eq!(counted, report.rejections() as u64);
        assert!(data.counter("sim.error.invalid_workload").unwrap_or(0) > 0);
        assert!(data.counter("sim.error.arithmetic_overflow").unwrap_or(0) > 0);
        assert!(data.counter("sim.error.infeasible_tiling").unwrap_or(0) > 0);
    }

    #[test]
    fn report_renders_every_case() {
        let report = run(&sim_corpus(), &Tracer::disabled());
        let rendered = report.render();
        for (name, _, _) in &report.cases {
            assert!(rendered.contains(name), "{name} missing from render");
        }
        assert!(rendered.contains("PASS"));
    }

    #[test]
    fn panics_and_violations_fail_the_report() {
        fn boom() -> Result<(), String> {
            panic!("injected")
        }
        let cases = [
            FaultCase::invariant("holds", || Ok(())),
            FaultCase::invariant("broken", || Err("lost the warm start".to_owned())),
            FaultCase::invariant("boom", boom),
        ];
        let report = run(&cases, &Tracer::disabled());
        assert_eq!((report.rejections(), report.panics(), report.mismatches()), (1, 1, 2));
        assert!(!report.passed());
        let rendered = report.render();
        assert!(rendered.contains("-> rejected [violation] !! lost the warm start"), "{rendered}");
        assert!(rendered.contains("-> PANICKED !! injected"), "{rendered}");
    }
}
