//! SqueezeDet detection trunk (Wu et al., CVPR-W 2017 — reference [18]
//! of the paper).
//!
//! §2 motivates it: "object detection and semantic segmentation are more
//! sensitive to image resolutions ... their input size can range from
//! hundreds to thousands of pixels, and the intermediate feature map
//! usually cannot be over sub-sampled ... As a result, DNN for object
//! detection ... have much larger memory footprint." SqueezeDet is the
//! paper authors' own detector: a SqueezeNet backbone on a KITTI-sized
//! 1242×375 image plus the fully-convolutional ConvDet head.

use std::sync::OnceLock;

use crate::network::{Network, NetworkBuilder};
use crate::shape::Shape;

/// Number of anchors per ConvDet output position.
const ANCHORS_PER_GRID: usize = 9;
/// KITTI classes (car, cyclist, pedestrian).
const CLASSES: usize = 3;

/// The SqueezeDet trunk for KITTI-resolution (3×375×1242) object
/// detection, built once per process.
///
/// The ConvDet head emits, per grid cell, `ANCHORS_PER_GRID` anchors ×
/// (`CLASSES` class scores + 1 confidence + 4 box deltas). No accuracy
/// metadata is attached (detection mAP is not comparable to the
/// classification spectrum of Figure 4).
pub fn squeezedet_trunk() -> Network {
    static NET: OnceLock<Network> = OnceLock::new();
    NET.get_or_init(build).clone()
}

/// Builds the SqueezeDet trunk from its layer table.
pub(super) fn build() -> Network {
    let outputs = ANCHORS_PER_GRID * (CLASSES + 1 + 4);
    NetworkBuilder::new("SqueezeDet trunk", Shape::new(3, 375, 1242))
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
        // SqueezeDet appends two extra fire modules to grow the receptive
        // field without further down-sampling.
        .fire("fire10", 96, 384, 384)
        .fire("fire11", 96, 384, 384)
        .conv("convdet", outputs, 3, 1, 1)
        .finish()
        .unwrap_or_else(|e| unreachable!("SqueezeDet trunk definition is shape-consistent: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::peak_activation_bytes;
    use crate::zoo::squeezenet_v1_1;

    #[test]
    fn keeps_spatial_detail() {
        // §2: detection feature maps "cannot be over sub-sampled" — the
        // final grid keeps hundreds of cells.
        let net = squeezedet_trunk();
        let out = net.output();
        assert_eq!(out.channels, 9 * 8);
        assert!(out.plane() > 1000, "detection grid is {out}");
    }

    #[test]
    fn memory_footprint_dwarfs_classification() {
        // §2: "much larger memory footprint".
        let det = peak_activation_bytes(&squeezedet_trunk(), 2);
        let cls = peak_activation_bytes(&squeezenet_v1_1(), 2);
        assert!(det > 5 * cls, "detection {det} vs classification {cls}");
    }

    #[test]
    fn macs_scale_with_resolution() {
        let det = squeezedet_trunk().total_macs();
        let cls = squeezenet_v1_1().total_macs();
        assert!(det > 5 * cls, "detection {det} vs classification {cls}");
    }

    #[test]
    fn convdet_is_the_head() {
        let net = squeezedet_trunk();
        let head = net.layer("convdet").unwrap();
        assert_eq!(head.output.channels, 72);
        assert_eq!(head.input.channels, 768);
    }
}
