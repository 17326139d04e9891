//! SqueezeNet v1.0 and v1.1 (Iandola et al., 2016), the Squeezelerator's
//! original target DNN.

use std::sync::OnceLock;

use crate::network::{Network, NetworkBuilder};
use crate::shape::Shape;

/// SqueezeNet v1.0 (Caffe reference model, 227×227 input), built once
/// per process.
///
/// The paper reports the Table-1 MAC split for this model as
/// Conv1 21 % / 1×1 25 % / 3×3 54 %.
pub fn squeezenet_v1_0() -> Network {
    static NET: OnceLock<Network> = OnceLock::new();
    NET.get_or_init(build_v1_0).clone()
}

/// SqueezeNet v1.1 (the 2.4×-cheaper revision: 3×3 first conv, pooling
/// moved earlier), built once per process.
pub fn squeezenet_v1_1() -> Network {
    static NET: OnceLock<Network> = OnceLock::new();
    NET.get_or_init(build_v1_1).clone()
}

/// Builds SqueezeNet v1.0 from its layer table.
pub(super) fn build_v1_0() -> Network {
    NetworkBuilder::new("SqueezeNet v1.0", Shape::new(3, 227, 227))
        .conv("conv1", 96, 7, 2, 0)
        .max_pool("pool1", 3, 2)
        .fire("fire2", 16, 64, 64)
        .fire("fire3", 16, 64, 64)
        .fire("fire4", 32, 128, 128)
        .max_pool("pool4", 3, 2)
        .fire("fire5", 32, 128, 128)
        .fire("fire6", 48, 192, 192)
        .fire("fire7", 48, 192, 192)
        .fire("fire8", 64, 256, 256)
        .max_pool("pool8", 3, 2)
        .fire("fire9", 64, 256, 256)
        .pointwise_conv("conv10", 1000)
        .global_avg_pool("pool10")
        .top1_accuracy(57.1)
        .finish()
        .unwrap_or_else(|e| unreachable!("SqueezeNet v1.0 definition is shape-consistent: {e}"))
}

/// Builds SqueezeNet v1.1 from its layer table.
pub(super) fn build_v1_1() -> Network {
    NetworkBuilder::new("SqueezeNet v1.1", Shape::new(3, 227, 227))
        .conv("conv1", 64, 3, 2, 0)
        .max_pool("pool1", 3, 2)
        .fire("fire2", 16, 64, 64)
        .fire("fire3", 16, 64, 64)
        .max_pool("pool3", 3, 2)
        .fire("fire4", 32, 128, 128)
        .fire("fire5", 32, 128, 128)
        .max_pool("pool5", 3, 2)
        .fire("fire6", 48, 192, 192)
        .fire("fire7", 48, 192, 192)
        .fire("fire8", 64, 256, 256)
        .fire("fire9", 64, 256, 256)
        .pointwise_conv("conv10", 1000)
        .global_avg_pool("pool10")
        .top1_accuracy(57.1)
        .finish()
        .unwrap_or_else(|e| unreachable!("SqueezeNet v1.1 definition is shape-consistent: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerClass;
    use crate::stats::MacBreakdown;

    #[test]
    fn v1_0_shapes() {
        let net = squeezenet_v1_0();
        assert_eq!(net.layer("conv1").unwrap().output, Shape::new(96, 111, 111));
        assert_eq!(net.layer("fire2/concat").unwrap().output, Shape::new(128, 55, 55));
        assert_eq!(net.layer("fire9/concat").unwrap().output, Shape::new(512, 13, 13));
        assert_eq!(net.output(), Shape::vector(1000));
    }

    #[test]
    fn v1_0_params_about_1_25_million() {
        let p = squeezenet_v1_0().total_params();
        assert!((1_150_000..1_350_000).contains(&p), "params = {p}");
    }

    #[test]
    fn v1_0_table1_row() {
        // Table 1: Conv1 21%, 1x1 25%, FxF 54%.
        let b = MacBreakdown::of(&squeezenet_v1_0());
        assert!((b.percent(LayerClass::FirstConv) - 21.0).abs() < 2.0);
        assert!((b.percent(LayerClass::Pointwise) - 25.0).abs() < 2.0);
        assert!((b.percent(LayerClass::Spatial) - 54.0).abs() < 2.0);
        assert_eq!(b.macs(LayerClass::Depthwise), 0);
        assert_eq!(b.macs(LayerClass::FullyConnected), 0);
    }

    #[test]
    fn v1_1_table1_row() {
        // Table 1: Conv1 6%, 1x1 40%, FxF 54%.
        let b = MacBreakdown::of(&squeezenet_v1_1());
        assert!((b.percent(LayerClass::FirstConv) - 6.0).abs() < 2.0);
        assert!((b.percent(LayerClass::Pointwise) - 40.0).abs() < 3.0);
        assert!((b.percent(LayerClass::Spatial) - 54.0).abs() < 3.0);
    }

    #[test]
    fn v1_1_is_much_cheaper_than_v1_0() {
        let m0 = squeezenet_v1_0().total_macs();
        let m1 = squeezenet_v1_1().total_macs();
        let ratio = m0 as f64 / m1 as f64;
        assert!((2.0..3.0).contains(&ratio), "ratio = {ratio:.2}");
    }

    #[test]
    fn fire_layer_count() {
        // conv1 + 8 fires * 4 layers (3 conv + concat) + conv10 = 34 conv-ish
        let net = squeezenet_v1_0();
        assert_eq!(net.compute_layers().count(), 1 + 8 * 3 + 1);
    }
}
