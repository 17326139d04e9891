//! MobileNet v1 (Howard et al., 2017) with width multipliers.
//!
//! MobileNet is the paper's stress case for dataflow flexibility: 95 % of
//! its MACs are `1×1` convolutions (which want WS) and 3 % are depthwise
//! convolutions (which are 19–96× faster on OS), so single-dataflow
//! accelerators lose badly on one side or the other.

use std::sync::OnceLock;

use crate::network::{Network, NetworkBuilder};
use crate::shape::Shape;

/// Width-multiplier variants published with the MobileNet paper, with their
/// ImageNet top-1 accuracies.
const WIDTH_VARIANTS: [(f64, f64); 4] = [(1.0, 70.6), (0.75, 68.4), (0.5, 63.7), (0.25, 50.6)];

fn scaled(width: f64, channels: usize) -> usize {
    ((channels as f64 * width).round() as usize).max(1)
}

/// Builds `width`-MobileNet-224.
///
/// `width` is the channel multiplier (`1.0`, `0.75`, `0.5`, `0.25` are the
/// published points). Accuracy metadata is attached for published widths.
///
/// # Panics
///
/// Panics if `width` is not finite and positive.
pub fn mobilenet(width: f64) -> Network {
    assert!(width.is_finite() && width > 0.0, "width multiplier must be positive");
    let name = format!("{width:.2}-MobileNet-224");
    let mut b = NetworkBuilder::new(name, Shape::new(3, 224, 224));
    b.conv("conv1", scaled(width, 32), 3, 2, 1);

    // (pointwise output channels, stride of the depthwise conv)
    let blocks: [(usize, usize); 13] = [
        (64, 1),
        (128, 2),
        (128, 1),
        (256, 2),
        (256, 1),
        (512, 2),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (1024, 2),
        (1024, 1),
    ];
    for (i, (out, stride)) in blocks.iter().enumerate() {
        let n = i + 2;
        b.depthwise_conv(&format!("conv{n}/dw"), 3, *stride, 1);
        b.pointwise_conv(&format!("conv{n}/pw"), scaled(width, *out));
    }
    b.global_avg_pool("pool");
    b.fully_connected("fc", 1000);
    if let Some((_, acc)) = WIDTH_VARIANTS.iter().find(|(w, _)| (w - width).abs() < 1e-9) {
        b.top1_accuracy(*acc);
    }
    b.finish().unwrap_or_else(|e| unreachable!("MobileNet definition is shape-consistent: {e}"))
}

/// 1.0-MobileNet-224, the variant in the paper's tables, built once per
/// process.
pub fn mobilenet_v1() -> Network {
    static NET: OnceLock<Network> = OnceLock::new();
    NET.get_or_init(|| mobilenet(1.0)).clone()
}

/// All published width variants, widest first (for the Figure-4
/// spectrum), built once per process.
pub fn mobilenet_family() -> Vec<Network> {
    static NETS: OnceLock<Vec<Network>> = OnceLock::new();
    NETS.get_or_init(build_family).clone()
}

/// Builds every published width variant.
pub(super) fn build_family() -> Vec<Network> {
    WIDTH_VARIANTS.iter().map(|(w, _)| mobilenet(*w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerClass;
    use crate::stats::MacBreakdown;

    #[test]
    fn reference_macs_and_params() {
        let net = mobilenet_v1();
        // Published: 569 M MACs, 4.2 M params.
        let macs = net.total_macs();
        let params = net.total_params();
        assert!((540_000_000..600_000_000).contains(&macs), "macs = {macs}");
        assert!((4_000_000..4_500_000).contains(&params), "params = {params}");
    }

    #[test]
    fn table1_row() {
        // Table 1: Conv1 1%, 1x1 95%, DW 3%.
        let b = MacBreakdown::of(&mobilenet_v1());
        assert!((b.percent(LayerClass::FirstConv) - 1.0).abs() < 1.0);
        assert!((b.percent(LayerClass::Pointwise) - 95.0).abs() < 1.5);
        assert!((b.percent(LayerClass::Depthwise) - 3.0).abs() < 1.0);
        assert_eq!(b.macs(LayerClass::Spatial), 0);
    }

    #[test]
    fn final_shape_is_1000_vector() {
        let net = mobilenet_v1();
        assert_eq!(net.output(), Shape::vector(1000));
        assert_eq!(net.layer("conv14/pw").unwrap().output, Shape::new(1024, 7, 7));
    }

    #[test]
    fn width_scales_channels_not_depth() {
        let half = mobilenet(0.5);
        assert_eq!(half.layers().len(), mobilenet_v1().layers().len());
        assert_eq!(half.layer("conv14/pw").unwrap().output.channels, 512);
        assert!(half.total_macs() * 3 < mobilenet_v1().total_macs());
    }

    #[test]
    fn family_has_accuracy_metadata() {
        for net in mobilenet_family() {
            assert!(net.top1_accuracy().is_some(), "{} missing accuracy", net.name());
        }
    }

    #[test]
    #[should_panic(expected = "width multiplier")]
    fn rejects_nonpositive_width() {
        let _ = mobilenet(0.0);
    }
}
