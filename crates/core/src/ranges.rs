//! Layer-class dataflow-advantage ranges — the §4.1.1 in-text numbers:
//!
//! * `1×1` layers are 1.4–7.0× faster on WS than OS;
//! * the first conv layer is 1.6–6.3× faster on OS than WS;
//! * depthwise layers are 19–96× faster on OS than WS.
//!
//! "Depending on the size of the feature map and the number of channels"
//! — so the range is measured over the layer shapes that actually occur
//! in the zoo networks.

use codesign_arch::{AcceleratorConfig, Dataflow};
use codesign_dnn::{LayerClass, Network};
use codesign_sim::{SimOptions, SimResult, Simulator};

/// Observed WS-vs-OS advantage range for one layer class.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvantageRange {
    /// The layer class measured.
    pub class: LayerClass,
    /// The dataflow whose advantage is reported.
    pub winner: Dataflow,
    /// Smallest observed speedup of `winner` over the other dataflow.
    pub min: f64,
    /// Largest observed speedup.
    pub max: f64,
    /// Number of layers measured.
    pub samples: usize,
}

/// Measures the `winner`-over-loser cycle ratio for every layer of
/// `class` across `networks` through `sim` (so the repeated layer shapes
/// across the zoo resolve from the memo), returning the observed range
/// (or `None` if no such layer exists).
///
/// # Errors
///
/// The first [`SimError`](codesign_sim::SimError) any layer surfaces.
pub fn advantage_range_with(
    sim: &Simulator,
    networks: &[Network],
    class: LayerClass,
    winner: Dataflow,
    cfg: &AcceleratorConfig,
    opts: SimOptions,
) -> SimResult<Option<AdvantageRange>> {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut samples = 0;
    for net in networks {
        for layer in net.layers() {
            if layer.class() != class || !layer.is_compute() {
                continue;
            }
            let (ws, os, _) = sim.try_compare_dataflows(layer, cfg, opts)?;
            let ratio = match winner {
                Dataflow::WeightStationary => os.total_cycles as f64 / ws.total_cycles as f64,
                Dataflow::OutputStationary => ws.total_cycles as f64 / os.total_cycles as f64,
            };
            min = min.min(ratio);
            max = max.max(ratio);
            samples += 1;
        }
    }
    Ok((samples > 0).then_some(AdvantageRange { class, winner, min, max, samples }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::zoo;

    fn setup() -> (Vec<Network>, AcceleratorConfig, SimOptions) {
        (zoo::table_networks(), AcceleratorConfig::paper_default(), SimOptions::default())
    }

    #[test]
    fn pointwise_layers_mostly_favor_ws() {
        // Paper: 1.4x to 7.0x faster on WS. Our range must show a solid
        // WS advantage at the top end; the low end may dip below 1 for a
        // few early layers (documented deviation).
        let (nets, cfg, opts) = setup();
        let r = advantage_range_with(
            &Simulator::new(),
            &nets,
            LayerClass::Pointwise,
            Dataflow::WeightStationary,
            &cfg,
            opts,
        )
        .unwrap()
        .unwrap();
        assert!(r.samples > 20);
        assert!(r.max > 2.0, "max = {:.2}", r.max);
        assert!(r.min > 0.5, "min = {:.2}", r.min);
    }

    #[test]
    fn first_conv_favors_os() {
        // Paper: 1.6x to 6.3x faster on OS.
        let (nets, cfg, opts) = setup();
        let r = advantage_range_with(
            &Simulator::new(),
            &nets,
            LayerClass::FirstConv,
            Dataflow::OutputStationary,
            &cfg,
            opts,
        )
        .unwrap()
        .unwrap();
        assert_eq!(r.samples, nets.len());
        assert!(r.min > 1.0, "min = {:.2}", r.min);
        assert!(r.max > 3.0, "max = {:.2}", r.max);
    }

    #[test]
    fn depthwise_overwhelmingly_favors_os() {
        // Paper: 19x to 96x faster on OS.
        let (nets, cfg, opts) = setup();
        let r = advantage_range_with(
            &Simulator::new(),
            &nets,
            LayerClass::Depthwise,
            Dataflow::OutputStationary,
            &cfg,
            opts,
        )
        .unwrap()
        .unwrap();
        assert!(r.samples >= 13, "MobileNet has 13 depthwise layers");
        assert!(r.max > 10.0, "max = {:.1}", r.max);
        assert!(r.min > 1.0, "min = {:.2}", r.min);
    }

    #[test]
    fn missing_class_returns_none() {
        let (_, cfg, opts) = setup();
        let nets = vec![zoo::alexnet()];
        assert!(advantage_range_with(
            &Simulator::new(),
            &nets,
            LayerClass::Depthwise,
            Dataflow::OutputStationary,
            &cfg,
            opts
        )
        .unwrap()
        .is_none());
    }
}
