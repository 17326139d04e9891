//! AlexNet (Krizhevsky et al., NIPS 2012), Caffe single-tower layout with
//! the original two-GPU grouping on conv2/4/5.
//!
//! The paper evaluates AlexNet "just for comparison": its fat-and-shallow
//! architecture and three large FC layers make it unrepresentative of
//! modern embedded vision workloads (73 % of its runtime and 80 % of its
//! energy are FC at batch 1).

use std::sync::OnceLock;

use crate::network::{Network, NetworkBuilder};
use crate::shape::Shape;

/// AlexNet for 227×227 ImageNet inference, built once per process.
///
/// # Examples
///
/// ```
/// let net = codesign_dnn::zoo::alexnet();
/// assert_eq!(net.name(), "AlexNet");
/// ```
pub fn alexnet() -> Network {
    static NET: OnceLock<Network> = OnceLock::new();
    NET.get_or_init(build).clone()
}

/// Builds AlexNet from its layer table.
pub(super) fn build() -> Network {
    NetworkBuilder::new("AlexNet", Shape::new(3, 227, 227))
        .conv("conv1", 96, 11, 4, 0)
        .max_pool("pool1", 3, 2)
        .grouped_conv("conv2", 256, 5, 1, 2, 2)
        .max_pool("pool2", 3, 2)
        .conv("conv3", 384, 3, 1, 1)
        .grouped_conv("conv4", 384, 3, 1, 1, 2)
        .grouped_conv("conv5", 256, 3, 1, 1, 2)
        .max_pool("pool5", 3, 2)
        .fully_connected("fc6", 4096)
        .fully_connected("fc7", 4096)
        .fully_connected("fc8", 1000)
        .top1_accuracy(57.2)
        .finish()
        .unwrap_or_else(|e| unreachable!("AlexNet definition is shape-consistent: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerClass;
    use crate::stats::MacBreakdown;

    #[test]
    fn shapes_match_the_published_table() {
        let net = alexnet();
        assert_eq!(net.layer("conv1").unwrap().output, Shape::new(96, 55, 55));
        assert_eq!(net.layer("conv2").unwrap().output, Shape::new(256, 27, 27));
        assert_eq!(net.layer("conv5").unwrap().output, Shape::new(256, 13, 13));
        assert_eq!(net.layer("fc6").unwrap().input, Shape::new(256, 6, 6));
        assert_eq!(net.output(), Shape::vector(1000));
    }

    #[test]
    fn parameter_count_is_about_61_million() {
        let params = alexnet().total_params();
        assert!((58_000_000..64_000_000).contains(&params), "params = {params}");
    }

    #[test]
    fn macs_are_about_0_7_billion() {
        let macs = alexnet().total_macs();
        assert!((650_000_000..800_000_000).contains(&macs), "macs = {macs}");
    }

    #[test]
    fn breakdown_shape_matches_table1_row() {
        // Table 1: Conv1 20%, 1x1 0%, FxF 69%, DW 0%. Our grouped-conv
        // accounting lands close; assert the qualitative shape.
        let b = MacBreakdown::of(&alexnet());
        assert_eq!(b.macs(LayerClass::Pointwise), 0);
        assert_eq!(b.macs(LayerClass::Depthwise), 0);
        assert!(b.percent(LayerClass::FirstConv) > 10.0);
        assert!(b.percent(LayerClass::Spatial) > 60.0);
        assert!(b.percent(LayerClass::FullyConnected) > 5.0);
    }
}
