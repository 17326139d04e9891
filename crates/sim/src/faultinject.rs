//! Fault-injection harness for the panic-free simulation core.
//!
//! Runs a fixed corpus of deliberately hostile inputs — degenerate
//! layers, overflow-scale shapes, infeasible buffer configurations,
//! truncated `.net` files — through the fallible `try_*` simulation
//! APIs and records, per case, whether the simulator **completed**,
//! **rejected** the input with a typed [`SimError`], or **panicked**.
//! The contract under test: hostile inputs are *rejected, never
//! panicked on*, and well-formed control inputs still complete.
//!
//! Each rejection bumps the matching `sim.error.<kind>` counter on the
//! tracer passed to [`run_corpus`], so a traced run shows exactly which
//! error classes the corpus exercised. The CLI `faultinject` subcommand
//! prints [`FaultReport::render`] and exits non-zero when any case
//! panics or lands on the wrong side of its expectation.

use std::panic::{catch_unwind, AssertUnwindSafe};

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy};
use codesign_dnn::{parse_network, ConvSpec, Kernel, Layer, LayerOp, Shape};
use codesign_trace::Tracer;

use crate::engine::{try_simulate_layer, try_simulate_network, SimOptions};
use crate::error::{SimError, SimResult};
use crate::multicore::{try_simulate_network_multicore, MultiCoreConfig};
use crate::tiling::optimize_tiling;
use crate::validate::validate_network;
use crate::workload::{ConvWork, WorkKind};

/// What happened when one fault case ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// The simulation completed (expected only for control cases).
    Completed,
    /// A typed [`SimError`] was surfaced — the desired outcome for every
    /// hostile case.
    Rejected {
        /// Machine-readable error class ([`SimError::kind`]).
        kind: String,
        /// Human-readable error message.
        message: String,
    },
    /// A panic escaped the `try_*` API — always a harness failure.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl CaseOutcome {
    fn tag(&self) -> &'static str {
        match self {
            CaseOutcome::Completed => "completed",
            CaseOutcome::Rejected { .. } => "rejected",
            CaseOutcome::Panicked { .. } => "PANICKED",
        }
    }
}

/// One corpus entry: a named, deliberately hostile (or deliberately
/// well-formed) input plus the expectation against which its outcome is
/// judged.
pub struct FaultCase {
    /// Case name, stable across runs (used in the report).
    pub name: &'static str,
    /// Whether the case must be rejected with a typed error (`true`) or
    /// must complete (`false`, control case).
    pub expect_rejection: bool,
    run: Box<dyn Fn() -> SimResult<()> + Send + Sync>,
}

impl FaultCase {
    fn hostile(
        name: &'static str,
        run: impl Fn() -> SimResult<()> + Send + Sync + 'static,
    ) -> Self {
        Self { name, expect_rejection: true, run: Box::new(run) }
    }

    fn control(
        name: &'static str,
        run: impl Fn() -> SimResult<()> + Send + Sync + 'static,
    ) -> Self {
        Self { name, expect_rejection: false, run: Box::new(run) }
    }

    /// Runs the case with panic isolation.
    pub fn execute(&self) -> CaseOutcome {
        match catch_unwind(AssertUnwindSafe(|| (self.run)())) {
            Ok(Ok(())) => CaseOutcome::Completed,
            Ok(Err(e)) => {
                CaseOutcome::Rejected { kind: e.kind().to_owned(), message: e.to_string() }
            }
            Err(payload) => {
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_owned()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_owned()
                };
                CaseOutcome::Panicked { message }
            }
        }
    }

    /// The built-in corpus: every hostile-input class the robustness
    /// work targets, plus control cases proving the happy path still
    /// completes. Deliberately ≥ 30 cases.
    pub fn corpus() -> Vec<FaultCase> {
        let mut cases = corpus_degenerate_layers();
        cases.extend(corpus_overflow_shapes());
        cases.extend(corpus_infeasible_buffers());
        cases.extend(corpus_malformed_netfiles());
        cases.extend(corpus_controls());
        cases
    }
}

impl std::fmt::Debug for FaultCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultCase")
            .field("name", &self.name)
            .field("expect_rejection", &self.expect_rejection)
            .finish_non_exhaustive()
    }
}

/// The outcome of running the whole corpus.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Per case, in corpus order: name, whether rejection was expected,
    /// and what actually happened.
    pub cases: Vec<(String, bool, CaseOutcome)>,
}

impl FaultReport {
    /// Number of cases run.
    pub fn total(&self) -> usize {
        self.cases.len()
    }

    /// Number of cases that panicked (must be zero).
    pub fn panics(&self) -> usize {
        self.cases.iter().filter(|(_, _, o)| matches!(o, CaseOutcome::Panicked { .. })).count()
    }

    /// Number of cases rejected with a typed error.
    pub fn rejections(&self) -> usize {
        self.cases.iter().filter(|(_, _, o)| matches!(o, CaseOutcome::Rejected { .. })).count()
    }

    /// Number of cases whose outcome contradicts their expectation
    /// (hostile case completed, or control case failed).
    pub fn mismatches(&self) -> usize {
        self.cases
            .iter()
            .filter(|(_, expect_rejection, o)| match o {
                CaseOutcome::Completed => *expect_rejection,
                CaseOutcome::Rejected { .. } => !*expect_rejection,
                CaseOutcome::Panicked { .. } => true,
            })
            .count()
    }

    /// Whether the corpus upheld the panic-free contract: no panics, no
    /// expectation mismatches.
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
            let detail = match outcome {
                CaseOutcome::Completed => String::new(),
                CaseOutcome::Rejected { kind, .. } => format!(" [{kind}]"),
                CaseOutcome::Panicked { message } => format!(" !! {message}"),
            };
            let _ =
                writeln!(out, "  {name:width$}  expect {expected:8}  -> {}{detail}", outcome.tag());
        }
        let _ = writeln!(
            out,
            "{} cases: {} rejected, {} completed, {} panicked, {} mismatched -> {}",
            self.total(),
            self.rejections(),
            self.total() - self.rejections() - self.panics(),
            self.panics(),
            self.mismatches(),
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Runs the built-in corpus. Every typed rejection bumps the
/// `sim.error.<kind>` counter on `tracer` (no-op when disabled), so the
/// trace shows which error classes were exercised.
pub fn run_corpus(tracer: &Tracer) -> FaultReport {
    let cases = FaultCase::corpus()
        .iter()
        .map(|case| {
            let outcome = case.execute();
            if let CaseOutcome::Rejected { kind, .. } = &outcome {
                tracer.add_counter(&format!("sim.error.{kind}"), 1);
            }
            (case.name.to_owned(), case.expect_rejection, outcome)
        })
        .collect();
    FaultReport { cases }
}

// ---------------------------------------------------------------------
// Corpus construction
// ---------------------------------------------------------------------

fn conv_layer(name: &str, input: Shape, output: Shape, spec: ConvSpec) -> Layer {
    Layer {
        name: name.to_owned(),
        op: LayerOp::Conv(spec),
        input,
        output,
        is_first_conv: false,
        primary_input: None,
        extra_input: None,
    }
}

fn spec(out_channels: usize, k: usize, stride: usize, groups: usize) -> ConvSpec {
    ConvSpec { out_channels, kernel: Kernel::square(k), stride, pad_h: 0, pad_w: 0, groups }
}

fn run_layer(layer: Layer) -> impl Fn() -> SimResult<()> + Send + Sync {
    move || {
        let cfg = AcceleratorConfig::paper_default();
        let opts = SimOptions::paper_default();
        try_simulate_layer(&layer, &cfg, opts, Dataflow::WeightStationary)?;
        try_simulate_layer(&layer, &cfg, opts, Dataflow::OutputStationary)?;
        Ok(())
    }
}

fn corpus_degenerate_layers() -> Vec<FaultCase> {
    let mk = |name: &'static str, input: Shape, output: Shape, s: ConvSpec| {
        FaultCase::hostile(name, run_layer(conv_layer(name, input, output, s)))
    };
    vec![
        mk("conv/7x7-on-1x1-input", Shape::new(4, 1, 1), Shape::new(4, 1, 1), spec(4, 7, 1, 1)),
        mk("conv/3x3-on-2x2-input", Shape::new(8, 2, 2), Shape::new(8, 2, 2), spec(8, 3, 1, 1)),
        mk("conv/zero-in-channels", Shape::new(0, 8, 8), Shape::new(4, 8, 8), spec(4, 3, 1, 1)),
        mk("conv/zero-out-channels", Shape::new(4, 8, 8), Shape::new(0, 8, 8), spec(0, 3, 1, 1)),
        mk("conv/zero-height-input", Shape::new(4, 0, 8), Shape::new(4, 1, 8), spec(4, 1, 1, 1)),
        mk("conv/zero-width-input", Shape::new(4, 8, 0), Shape::new(4, 8, 1), spec(4, 1, 1, 1)),
        mk("conv/zero-kernel", Shape::new(4, 8, 8), Shape::new(4, 8, 8), spec(4, 0, 1, 1)),
        mk("conv/zero-stride", Shape::new(4, 8, 8), Shape::new(4, 8, 8), spec(4, 3, 0, 1)),
        mk("conv/zero-groups", Shape::new(4, 8, 8), Shape::new(4, 8, 8), spec(4, 3, 1, 0)),
        mk("conv/zero-output-plane", Shape::new(4, 8, 8), Shape::new(4, 0, 0), spec(4, 3, 1, 1)),
        FaultCase::hostile("fc/zero-features", {
            run_layer(Layer {
                name: "fc/zero-features".to_owned(),
                op: LayerOp::FullyConnected { out_features: 0 },
                input: Shape::vector(64),
                output: Shape::vector(0),
                is_first_conv: false,
                primary_input: None,
                extra_input: None,
            })
        }),
        FaultCase::hostile("fc/zero-input", {
            run_layer(Layer {
                name: "fc/zero-input".to_owned(),
                op: LayerOp::FullyConnected { out_features: 10 },
                input: Shape::vector(0),
                output: Shape::vector(10),
                is_first_conv: false,
                primary_input: None,
                extra_input: None,
            })
        }),
    ]
}

fn corpus_overflow_shapes() -> Vec<FaultCase> {
    const HUGE: usize = 1 << 21; // HUGE^3 overflows the bounded 64-bit range
    let mk = |name: &'static str, input: Shape, output: Shape, s: ConvSpec| {
        FaultCase::hostile(name, run_layer(conv_layer(name, input, output, s)))
    };
    vec![
        mk(
            "overflow/mac-count",
            Shape::new(HUGE, HUGE, HUGE),
            Shape::new(HUGE, HUGE, HUGE),
            spec(HUGE, 1, 1, 1),
        ),
        mk(
            "overflow/channel-square",
            Shape::new(1 << 30, 16, 16),
            Shape::new(1 << 30, 1, 1),
            spec(1 << 30, 16, 1, 1),
        ),
        mk(
            "overflow/input-elements",
            Shape::new(1 << 30, 1 << 30, 1 << 14),
            Shape::new(1, 1, 1),
            spec(1, 1, 1, 1),
        ),
        FaultCase::hostile("overflow/fc-features", {
            run_layer(Layer {
                name: "overflow/fc-features".to_owned(),
                op: LayerOp::FullyConnected { out_features: usize::MAX / 2 },
                input: Shape::vector(1 << 20),
                output: Shape::vector(usize::MAX / 2),
                is_first_conv: false,
                primary_input: None,
                extra_input: None,
            })
        }),
        FaultCase::hostile("overflow/batch-scale", || {
            let cfg = AcceleratorConfig::paper_default();
            let opts = SimOptions::paper_default();
            let net = codesign_dnn::zoo::alexnet();
            crate::batch::try_simulate_network_batched(
                &net,
                &cfg,
                DataflowPolicy::PerLayer,
                opts,
                u64::MAX / 2,
            )?;
            Ok(())
        }),
        FaultCase::hostile("overflow/zero-batch", || {
            let cfg = AcceleratorConfig::paper_default();
            let opts = SimOptions::paper_default();
            let net = codesign_dnn::zoo::tiny_darknet();
            crate::batch::try_simulate_network_batched(
                &net,
                &cfg,
                DataflowPolicy::PerLayer,
                opts,
                0,
            )?;
            Ok(())
        }),
        FaultCase::hostile("overflow/zero-cores", || {
            let core = AcceleratorConfig::paper_default();
            let opts = SimOptions::paper_default();
            let net = codesign_dnn::zoo::tiny_darknet();
            let mc = MultiCoreConfig { core, cores: 0 };
            try_simulate_network_multicore(&net, &mc, DataflowPolicy::PerLayer, opts)?;
            Ok(())
        }),
        FaultCase::hostile("overflow/core-scale", || {
            let core = AcceleratorConfig::paper_default();
            let opts = SimOptions::paper_default();
            let net = codesign_dnn::zoo::tiny_darknet();
            let mc = MultiCoreConfig { core, cores: usize::MAX / 2 };
            try_simulate_network_multicore(&net, &mc, DataflowPolicy::PerLayer, opts)?;
            Ok(())
        }),
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
    ]
}

fn tiny_buffer_config() -> AcceleratorConfig {
    // Smallest buffer the builder accepts: feasible for almost nothing.
    AcceleratorConfig::builder()
        .array_size(2)
        .bytes_per_element(1)
        .global_buffer_bytes(8)
        .double_buffering(false)
        .build()
        .unwrap_or_else(|e| unreachable!("tiny config satisfies the builder ranges: {e}"))
}

fn corpus_infeasible_buffers() -> Vec<FaultCase> {
    vec![
        FaultCase::hostile("buffer/squeezenet-on-8-bytes", || {
            let cfg = tiny_buffer_config();
            let opts = SimOptions::paper_default();
            let net = codesign_dnn::zoo::squeezenet_v1_0();
            try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts)?;
            Ok(())
        }),
        FaultCase::hostile("buffer/mobilenet-on-8-bytes", || {
            let cfg = tiny_buffer_config();
            let opts = SimOptions::paper_default();
            let net = codesign_dnn::zoo::mobilenet_v1();
            try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts)?;
            Ok(())
        }),
        FaultCase::hostile("buffer/preflight-catches-it", || {
            let cfg = tiny_buffer_config();
            let net = codesign_dnn::zoo::squeezenet_v1_0();
            validate_network(&net, &cfg)?;
            Ok(())
        }),
        FaultCase::hostile("buffer/single-conv-tiling", || {
            let cfg = tiny_buffer_config();
            let opts = SimOptions::paper_default();
            let layer = conv_layer(
                "big",
                Shape::new(128, 56, 56),
                Shape::new(128, 56, 56),
                spec(128, 3, 1, 1),
            );
            try_simulate_layer(&layer, &cfg, opts, Dataflow::WeightStationary)?;
            Ok(())
        }),
    ]
}

fn corpus_malformed_netfiles() -> Vec<FaultCase> {
    // Parse failures are IR-level, not SimError — normalize them into
    // the InvalidWorkload class so the report counts them uniformly.
    fn parse_case(text: &'static str) -> impl Fn() -> SimResult<()> + Send + Sync {
        move || match parse_network(text) {
            Ok(net) => {
                let cfg = AcceleratorConfig::paper_default();
                try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, SimOptions::default())?;
                Ok(())
            }
            Err(e) => Err(SimError::invalid(format!("unparseable network: {e}"))),
        }
    }
    vec![
        FaultCase::hostile("netfile/empty", parse_case("")),
        FaultCase::hostile("netfile/header-only", parse_case("network t 3x224x224\n")),
        FaultCase::hostile(
            "netfile/truncated-mid-line",
            parse_case("network t 3x224x224\nconv conv1 64 3"),
        ),
        FaultCase::hostile(
            "netfile/garbage-op",
            parse_case("network t 3x224x224\nfrobnicate x 1 2 3\n"),
        ),
        FaultCase::hostile(
            "netfile/non-numeric-dims",
            parse_case("network t 3x224x224\nconv conv1 sixty-four 3 1 1\n"),
        ),
        FaultCase::hostile(
            "netfile/bad-stride-token",
            parse_case("network t 3x224x224\nconv conv1 64 3 zz p1\n"),
        ),
        FaultCase::hostile(
            "netfile/kernel-exceeds-input",
            parse_case("network t 3x8x8\nconv conv1 64 11 s1\n"),
        ),
    ]
}

fn corpus_controls() -> Vec<FaultCase> {
    fn net_case(
        build: impl Fn() -> codesign_dnn::Network + Send + Sync + 'static,
    ) -> impl Fn() -> SimResult<()> + Send + Sync {
        move || {
            let cfg = AcceleratorConfig::paper_default();
            let opts = SimOptions::paper_default();
            try_simulate_network(&build(), &cfg, DataflowPolicy::PerLayer, opts)?;
            Ok(())
        }
    }
    vec![
        FaultCase::control("control/squeezenet-v1.0", net_case(codesign_dnn::zoo::squeezenet_v1_0)),
        FaultCase::control("control/squeezenet-v1.1", net_case(codesign_dnn::zoo::squeezenet_v1_1)),
        FaultCase::control("control/mobilenet-v1", net_case(codesign_dnn::zoo::mobilenet_v1)),
        FaultCase::control("control/alexnet-fc-path", net_case(codesign_dnn::zoo::alexnet)),
        FaultCase::control("control/tiny-darknet", net_case(codesign_dnn::zoo::tiny_darknet)),
        FaultCase::control("control/batched-4", || {
            let cfg = AcceleratorConfig::paper_default();
            let opts = SimOptions::paper_default();
            let net = codesign_dnn::zoo::tiny_darknet();
            crate::batch::try_simulate_network_batched(
                &net,
                &cfg,
                DataflowPolicy::PerLayer,
                opts,
                4,
            )?;
            Ok(())
        }),
        FaultCase::control("control/multicore-4", || {
            let core = AcceleratorConfig::paper_default();
            let opts = SimOptions::paper_default();
            let net = codesign_dnn::zoo::tiny_darknet();
            let mc = MultiCoreConfig { core, cores: 4 };
            try_simulate_network_multicore(&net, &mc, DataflowPolicy::PerLayer, opts)?;
            Ok(())
        }),
        FaultCase::control("control/preflight-paper-default", || {
            let cfg = AcceleratorConfig::paper_default();
            let net = codesign_dnn::zoo::squeezenet_v1_0();
            validate_network(&net, &cfg)?;
            Ok(())
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_large_enough() {
        assert!(FaultCase::corpus().len() >= 30, "corpus = {}", FaultCase::corpus().len());
    }

    #[test]
    fn corpus_runs_clean() {
        let tracer = Tracer::enabled();
        let report = run_corpus(&tracer);
        assert_eq!(report.panics(), 0, "\n{}", report.render());
        assert_eq!(report.mismatches(), 0, "\n{}", report.render());
        assert!(report.passed());
    }

    #[test]
    fn rejections_bump_error_counters() {
        let tracer = Tracer::enabled();
        let report = run_corpus(&tracer);
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
        let report = run_corpus(&Tracer::disabled());
        let rendered = report.render();
        for (name, _, _) in &report.cases {
            assert!(rendered.contains(name), "{name} missing from render");
        }
        assert!(rendered.contains("PASS"));
    }
}
