//! Tiny Darknet (Redmon's darknet reference "tiny" classifier).
//!
//! A compact 1×1/3×3 interleaved classifier; the paper includes it as a
//! lightweight model whose layer mix (13 % 1×1, 82 % F×F) favors the OS
//! dataflow more than SqueezeNet's.

use std::sync::OnceLock;

use crate::network::{Network, NetworkBuilder};
use crate::shape::Shape;

/// Tiny Darknet for 224×224 ImageNet inference, built once per process.
pub fn tiny_darknet() -> Network {
    static NET: OnceLock<Network> = OnceLock::new();
    NET.get_or_init(build).clone()
}

/// Builds Tiny Darknet from its layer table.
pub(super) fn build() -> Network {
    NetworkBuilder::new("Tiny Darknet", Shape::new(3, 224, 224))
        .conv("conv1", 16, 3, 1, 1)
        .max_pool("pool1", 2, 2)
        .conv("conv2", 32, 3, 1, 1)
        .max_pool("pool2", 2, 2)
        .pointwise_conv("conv3", 16)
        .conv("conv4", 128, 3, 1, 1)
        .pointwise_conv("conv5", 16)
        .conv("conv6", 128, 3, 1, 1)
        .max_pool("pool6", 2, 2)
        .pointwise_conv("conv7", 32)
        .conv("conv8", 256, 3, 1, 1)
        .pointwise_conv("conv9", 32)
        .conv("conv10", 256, 3, 1, 1)
        .max_pool("pool10", 2, 2)
        .pointwise_conv("conv11", 64)
        .conv("conv12", 512, 3, 1, 1)
        .pointwise_conv("conv13", 64)
        .conv("conv14", 512, 3, 1, 1)
        .pointwise_conv("conv15", 128)
        .pointwise_conv("conv16", 1000)
        .global_avg_pool("pool16")
        .top1_accuracy(58.7)
        .finish()
        .unwrap_or_else(|e| unreachable!("Tiny Darknet definition is shape-consistent: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerClass;
    use crate::stats::MacBreakdown;

    #[test]
    fn shapes() {
        let net = tiny_darknet();
        assert_eq!(net.layer("conv1").unwrap().output, Shape::new(16, 224, 224));
        assert_eq!(net.layer("conv12").unwrap().output, Shape::new(512, 14, 14));
        assert_eq!(net.output(), Shape::vector(1000));
    }

    #[test]
    fn table1_row() {
        // Table 1: Conv1 5%, 1x1 13%, FxF 82%.
        let b = MacBreakdown::of(&tiny_darknet());
        assert!((b.percent(LayerClass::FirstConv) - 5.0).abs() < 2.0);
        assert!((b.percent(LayerClass::Pointwise) - 13.0).abs() < 3.0);
        assert!((b.percent(LayerClass::Spatial) - 82.0).abs() < 4.0);
        assert_eq!(b.macs(LayerClass::Depthwise), 0);
    }

    #[test]
    fn params_about_1_million() {
        let p = tiny_darknet().total_params();
        assert!((900_000..1_300_000).contains(&p), "params = {p}");
    }
}
