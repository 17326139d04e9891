//! The co-design loop of §4.2: hardware-aware model transformations plus
//! the accelerator tune-up, reproducing the Figure-3 variant study and
//! the SqueezeNext headline numbers.

use std::fmt;

use codesign_arch::{AcceleratorConfig, DataflowPolicy, EnergyModel};
use codesign_dnn::zoo::SqueezeNextConfig;
use codesign_dnn::Network;
use codesign_sim::{par_map, SimOptions, SimResult, Simulator};

/// A hardware-aware model transformation, as applied between the Figure-3
/// variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelTransform {
    /// Reduce the first layer's filter size (7×7 → 5×5): "this layer has
    /// significant impact on inference time as its input feature map is
    /// relatively large".
    ShrinkFirstFilter {
        /// New first-layer kernel size.
        kernel: usize,
    },
    /// Move blocks from the low-utilization early stages to the
    /// high-utilization late stages, keeping total MACs roughly constant.
    ReallocateStages {
        /// New per-stage block counts.
        stage_blocks: [usize; 4],
    },
}

impl ModelTransform {
    /// Applies the transformation to a SqueezeNext configuration.
    pub fn apply(&self, config: &SqueezeNextConfig) -> SqueezeNextConfig {
        let mut next = config.clone();
        match *self {
            ModelTransform::ShrinkFirstFilter { kernel } => next.conv1_kernel = kernel,
            ModelTransform::ReallocateStages { stage_blocks } => next.stage_blocks = stage_blocks,
        }
        next
    }
}

impl fmt::Display for ModelTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelTransform::ShrinkFirstFilter { kernel } => {
                write!(f, "shrink first filter to {kernel}x{kernel}")
            }
            ModelTransform::ReallocateStages { stage_blocks } => {
                write!(f, "reallocate stages to {stage_blocks:?}")
            }
        }
    }
}

/// Evaluation of one model variant on one hardware configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantResult {
    /// Variant name (e.g. `"1.0-SqNxt-23v3"`).
    pub name: String,
    /// Inference cycles on the hybrid architecture.
    pub cycles: u64,
    /// Energy in MAC-normalized units.
    pub energy: f64,
    /// Average PE utilization.
    pub utilization: f64,
    /// Total model MACs (should stay roughly constant across variants).
    pub macs: u64,
    /// Top-1 accuracy metadata.
    pub accuracy: Option<f64>,
}

/// Evaluates a network variant on the hybrid architecture through `sim`.
///
/// # Errors
///
/// The first [`SimError`](codesign_sim::SimError) the run surfaces.
pub fn evaluate_variant_with(
    sim: &Simulator,
    network: &Network,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
    energy_model: &EnergyModel,
) -> SimResult<VariantResult> {
    let perf = sim.try_simulate_network(network, cfg, DataflowPolicy::PerLayer, opts)?;
    if sim.tracer().records_spans() {
        let mut track =
            sim.tracer().track(format!("codesign:{}:rf{}", network.name(), cfg.rf_depth()));
        track.leaf(
            network.name(),
            codesign_trace::Category::Codesign,
            perf.total_cycles(),
            &[("cycles", perf.total_cycles()), ("macs", perf.total_macs())],
        );
    }
    Ok(VariantResult {
        name: network.name().to_owned(),
        cycles: perf.total_cycles(),
        energy: perf.total_energy(energy_model),
        utilization: perf.average_utilization(cfg.pe_count()),
        macs: network.total_macs(),
        accuracy: network.top1_accuracy(),
    })
}

/// The full co-design study: the v1..v5 model-transformation ladder of
/// Figure 3, evaluated before and after the RF 8→16 hardware tune-up.
#[derive(Debug, Clone, PartialEq)]
pub struct CodesignStudy {
    /// v1..v5 on the initial hardware (RF 8).
    pub before_tuneup: Vec<VariantResult>,
    /// v1..v5 on the tuned hardware (RF 16).
    pub after_tuneup: Vec<VariantResult>,
}

impl CodesignStudy {
    /// Runs the study: builds the five variants by applying the paper's
    /// transformations to the baseline configuration and simulates each
    /// on both hardware points — the ten (variant × RF depth)
    /// evaluations fan out across `jobs` worker threads (`0` = one per
    /// core) through the shared `sim` handle, in deterministic order.
    ///
    /// # Errors
    ///
    /// The first [`SimError`](codesign_sim::SimError) any evaluation
    /// surfaces, in work-list order.
    pub fn run_with(
        sim: &Simulator,
        opts: SimOptions,
        energy_model: &EnergyModel,
        jobs: usize,
    ) -> SimResult<Self> {
        let baseline = SqueezeNextConfig::baseline();
        let transforms: [&[ModelTransform]; 5] = [
            &[],
            &[ModelTransform::ShrinkFirstFilter { kernel: 5 }],
            &[
                ModelTransform::ShrinkFirstFilter { kernel: 5 },
                ModelTransform::ReallocateStages { stage_blocks: [4, 8, 8, 1] },
            ],
            &[
                ModelTransform::ShrinkFirstFilter { kernel: 5 },
                ModelTransform::ReallocateStages { stage_blocks: [2, 10, 8, 1] },
            ],
            &[
                ModelTransform::ShrinkFirstFilter { kernel: 5 },
                ModelTransform::ReallocateStages { stage_blocks: [2, 4, 14, 1] },
            ],
        ];
        let variants: Vec<Network> = transforms
            .iter()
            .enumerate()
            .map(|(i, ts)| {
                let mut config = baseline.clone();
                config.name = format!("1.0-SqNxt-23v{}", i + 1);
                for t in *ts {
                    config = t.apply(&config);
                }
                config.build()
            })
            .collect();

        // Both depths sit inside the builder's validated range.
        let rf8 = AcceleratorConfig::builder()
            .rf_depth(8)
            .build()
            .unwrap_or_else(|e| unreachable!("rf8 config is valid: {e}"));
        let rf16 = AcceleratorConfig::builder()
            .rf_depth(16)
            .build()
            .unwrap_or_else(|e| unreachable!("rf16 config is valid: {e}"));
        // Flatten the (hardware point × variant) grid into one work list
        // so a single fan-out covers all ten evaluations.
        let work: Vec<(&AcceleratorConfig, &Network)> = [&rf8, &rf16]
            .into_iter()
            .flat_map(|cfg| variants.iter().map(move |v| (cfg, v)))
            .collect();
        let mut results = par_map(jobs, &work, |_, &(cfg, net)| {
            evaluate_variant_with(sim, net, cfg, opts, energy_model)
        })
        .into_iter()
        .collect::<SimResult<Vec<_>>>()?;
        let after_tuneup = results.split_off(variants.len());
        Ok(Self { before_tuneup: results, after_tuneup })
    }

    /// End-to-end gain of the co-design loop: v1 on untuned hardware vs
    /// v5 on tuned hardware. Returns `(speedup, energy gain)`, or
    /// `(1.0, 1.0)` if the study is somehow empty.
    pub fn end_to_end_gain(&self) -> (f64, f64) {
        match (self.before_tuneup.first(), self.after_tuneup.last()) {
            (Some(start), Some(end)) => {
                (start.cycles as f64 / end.cycles as f64, start.energy / end.energy)
            }
            _ => (1.0, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> CodesignStudy {
        CodesignStudy::run_with(
            &Simulator::new(),
            SimOptions::default(),
            &EnergyModel::default(),
            0,
        )
        .unwrap()
    }

    #[test]
    fn transforms_apply() {
        let base = SqueezeNextConfig::baseline();
        let shrunk = ModelTransform::ShrinkFirstFilter { kernel: 5 }.apply(&base);
        assert_eq!(shrunk.conv1_kernel, 5);
        assert_eq!(shrunk.stage_blocks, base.stage_blocks);
        let moved = ModelTransform::ReallocateStages { stage_blocks: [2, 4, 14, 1] }.apply(&base);
        assert_eq!(moved.stage_blocks, [2, 4, 14, 1]);
        assert_eq!(moved.conv1_kernel, base.conv1_kernel);
    }

    #[test]
    fn each_transform_step_improves_inference_time() {
        // Figure 3: v1 -> v5 is a descending staircase of inference time.
        let s = study();
        for w in s.after_tuneup.windows(2) {
            assert!(
                w[1].cycles <= w[0].cycles,
                "{} ({}) should not be slower than {} ({})",
                w[1].name,
                w[1].cycles,
                w[0].name,
                w[0].cycles
            );
        }
    }

    #[test]
    fn macs_stay_roughly_constant() {
        // "a very small change in the overall MACs used in inference".
        let s = study();
        let base = s.after_tuneup[0].macs as f64;
        for v in &s.after_tuneup {
            assert!((v.macs as f64 / base - 1.0).abs() < 0.3, "{}", v.name);
        }
    }

    #[test]
    fn rf_tuneup_improves_every_variant() {
        let s = study();
        for (b, a) in s.before_tuneup.iter().zip(&s.after_tuneup) {
            assert!(a.cycles <= b.cycles, "{}", a.name);
        }
    }

    #[test]
    fn end_to_end_gain_is_substantial() {
        let (speed, energy) = study().end_to_end_gain();
        assert!(speed > 1.15, "speedup = {speed:.2}");
        assert!(energy > 1.0, "energy gain = {energy:.2}");
    }

    #[test]
    fn parallel_cached_run_matches_serial_uncached() {
        let opts = SimOptions::default();
        let em = EnergyModel::default();
        let serial = CodesignStudy::run_with(&Simulator::uncached(), opts, &em, 1).unwrap();
        let parallel = CodesignStudy::run_with(&Simulator::new(), opts, &em, 4).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn transform_display() {
        assert_eq!(
            ModelTransform::ShrinkFirstFilter { kernel: 5 }.to_string(),
            "shrink first filter to 5x5"
        );
        assert!(ModelTransform::ReallocateStages { stage_blocks: [2, 4, 14, 1] }
            .to_string()
            .contains("[2, 4, 14, 1]"));
    }
}
