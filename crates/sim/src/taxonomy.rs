//! The full §3.2 dataflow taxonomy, side by side.
//!
//! The paper's Squeezelerator chooses between **two** dataflows (WS, OS).
//! The taxonomy it cites has four — WS, OS, RS, NLR. This module
//! evaluates all four per layer and asks the design question the paper
//! leaves open: how much would a hybrid that also offered RS and NLR
//! gain over the shipped two-dataflow hybrid? (Answer, reproduced by the
//! report's T3 table: nothing at all on SqueezeNet v1.0 — the network
//! the accelerator was designed for — and ≤ 5 % on the SqueezeNet/
//! SqueezeNext family, evidence *for* the paper's choice to build only
//! two. RS would matter (~16 %) for depthwise-heavy MobileNet and for
//! AlexNet's mid-size dense stacks.)

use std::fmt;

use codesign_arch::{AcceleratorConfig, Dataflow};
use codesign_dnn::{Layer, Network};

use crate::cache::{Lookups, WorkKey};
use crate::dram::combine_cycles;
use crate::engine::{SimOptions, Simulator};
use crate::error::SimResult;
use crate::nlr::simulate_nlr;
use crate::rs::simulate_rs;
use crate::simd::simulate_simd;
use crate::workload::ConvWork;

/// All four taxonomy dataflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaxonomyDataflow {
    /// Weight stationary.
    Ws,
    /// Output stationary.
    Os,
    /// Row stationary (Eyeriss).
    Rs,
    /// No local reuse (DianNao).
    Nlr,
}

impl TaxonomyDataflow {
    /// All four, in §3.2's order.
    pub const ALL: [TaxonomyDataflow; 4] =
        [TaxonomyDataflow::Ws, TaxonomyDataflow::Os, TaxonomyDataflow::Rs, TaxonomyDataflow::Nlr];

    /// Report tag.
    pub const fn tag(&self) -> &'static str {
        match self {
            TaxonomyDataflow::Ws => "WS",
            TaxonomyDataflow::Os => "OS",
            TaxonomyDataflow::Rs => "RS",
            TaxonomyDataflow::Nlr => "NLR",
        }
    }
}

impl fmt::Display for TaxonomyDataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Whole-network cycles under each fixed dataflow plus the two- and
/// four-way per-layer hybrids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaxonomyComparison {
    /// Network name.
    pub network: String,
    /// Total cycles per fixed dataflow, indexed like
    /// [`TaxonomyDataflow::ALL`].
    pub fixed: [u64; 4],
    /// The paper's hybrid: per-layer min(WS, OS).
    pub hybrid2: u64,
    /// The hypothetical four-way hybrid: per-layer min over all four.
    pub hybrid4: u64,
    /// How many layers the four-way hybrid schedules differently
    /// (i.e. picks RS or NLR).
    pub extra_choices: usize,
}

impl TaxonomyComparison {
    /// Total cycles under one fixed dataflow.
    pub fn fixed_cycles(&self, d: TaxonomyDataflow) -> u64 {
        let idx = match d {
            TaxonomyDataflow::Ws => 0,
            TaxonomyDataflow::Os => 1,
            TaxonomyDataflow::Rs => 2,
            TaxonomyDataflow::Nlr => 3,
        };
        self.fixed[idx]
    }

    /// Speedup of the four-way hybrid over the paper's two-way hybrid.
    pub fn hybrid4_gain(&self) -> f64 {
        self.hybrid2 as f64 / self.hybrid4 as f64
    }
}

impl Simulator {
    /// Cycles for one layer under all four dataflows at once. The WS and
    /// OS walks and the traffic come from the handle's cache (traffic is
    /// dataflow independent, so its DRAM cycles are combined with all
    /// four compute walks); RS and NLR are folded directly.
    fn layer_cycles_all(
        &self,
        layer: &Layer,
        cfg: &AcceleratorConfig,
        opts: &SimOptions,
    ) -> SimResult<[u64; 4]> {
        let Some(work) = ConvWork::from_layer(layer) else {
            let compute = simulate_simd(layer, cfg)?;
            let bytes = (layer.input.elements() + layer.output.elements()) as u64
                * cfg.bytes_per_element() as u64;
            let cycles = combine_cycles(compute.cycles(), cfg.dram().transfer_cycles(bytes), cfg);
            return Ok([cycles; 4]);
        };
        let (key, seen) = (WorkKey::new(work), &mut Lookups::default());
        // The WS lookup validates the work first: RS and NLR assume
        // well-formed work, just like WS and OS.
        let ws = self.compute(&key, cfg, opts, Dataflow::WeightStationary, seen)?;
        let os = self.compute(&key, cfg, opts, Dataflow::OutputStationary, seen)?;
        let dram = cfg.dram().transfer_cycles(self.traffic(&key, cfg, opts, seen)?.total());
        Ok([ws, os, simulate_rs(&work, cfg), simulate_nlr(&work, cfg)]
            .map(|perf| combine_cycles(perf.cycles(), dram, cfg)))
    }

    /// Evaluates the full taxonomy for one network.
    ///
    /// # Errors
    ///
    /// The first [`SimError`](crate::SimError) any layer surfaces,
    /// attributed to that layer.
    pub fn try_compare_taxonomy(
        &self,
        network: &Network,
        cfg: &AcceleratorConfig,
        opts: SimOptions,
    ) -> SimResult<TaxonomyComparison> {
        let mut fixed = [0u64; 4];
        let mut hybrid2 = 0u64;
        let mut hybrid4 = 0u64;
        let mut extra_choices = 0usize;
        for layer in network.layers() {
            let per =
                self.layer_cycles_all(layer, cfg, &opts).map_err(|e| e.for_layer(&layer.name))?;
            for (f, c) in fixed.iter_mut().zip(&per) {
                *f += c;
            }
            let two = per[0].min(per[1]);
            let four = per.iter().copied().fold(u64::MAX, u64::min);
            hybrid2 += two;
            hybrid4 += four;
            if layer.is_compute() && four < two {
                extra_choices += 1;
            }
        }
        Ok(TaxonomyComparison {
            network: network.name().to_owned(),
            fixed,
            hybrid2,
            hybrid4,
            extra_choices,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::zoo;

    fn setup() -> (AcceleratorConfig, SimOptions) {
        (AcceleratorConfig::paper_default(), SimOptions::paper_default())
    }

    fn compare_taxonomy(
        net: &Network,
        cfg: &AcceleratorConfig,
        opts: SimOptions,
    ) -> TaxonomyComparison {
        Simulator::new().try_compare_taxonomy(net, cfg, opts).unwrap()
    }

    #[test]
    fn hybrids_dominate_fixed_dataflows() {
        let (cfg, opts) = setup();
        for net in zoo::table_networks() {
            let t = compare_taxonomy(&net, &cfg, opts);
            for d in TaxonomyDataflow::ALL {
                assert!(t.hybrid4 <= t.fixed_cycles(d), "{} vs {d}", net.name());
            }
            assert!(t.hybrid4 <= t.hybrid2, "{}", net.name());
        }
    }

    #[test]
    fn two_dataflows_capture_most_of_the_benefit() {
        // The design question: what would adding RS and NLR buy?
        // Nothing on SqueezeNet v1.0 (the design target), <= 6% on the
        // rest of the SqueezeNet/SqueezeNext family — supporting the
        // two-dataflow design point. Depthwise-heavy MobileNet and
        // AlexNet's mid-size dense stacks would gain ~16% from RS.
        let (cfg, opts) = setup();
        for net in zoo::table_networks() {
            let t = compare_taxonomy(&net, &cfg, opts);
            let gain = t.hybrid4_gain();
            let bound = match net.name() {
                "SqueezeNet v1.0" => 1.001,
                "AlexNet" | "1.00-MobileNet-224" => 1.30,
                _ => 1.06,
            };
            assert!((1.0..bound).contains(&gain), "{}: hybrid4 gain {gain:.3}", net.name());
        }
    }

    #[test]
    fn nlr_starves_the_paper_array() {
        let (cfg, opts) = setup();
        let t = compare_taxonomy(&zoo::squeezenet_v1_0(), &cfg, opts);
        // NLR's port-bound supply makes it the worst fixed choice here.
        for d in [TaxonomyDataflow::Ws, TaxonomyDataflow::Os] {
            assert!(t.fixed_cycles(TaxonomyDataflow::Nlr) > t.fixed_cycles(d), "{d}");
        }
    }

    #[test]
    fn tags_are_stable() {
        assert_eq!(TaxonomyDataflow::ALL.map(|d| d.tag()), ["WS", "OS", "RS", "NLR"]);
    }
}
