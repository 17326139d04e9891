//! Translation of IR layers into the workload form the dataflow models
//! consume.

use codesign_dnn::{Layer, LayerOp};

use crate::error::{bounded_product, SimError, SimResult};

/// How the PE array treats the layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkKind {
    /// Dense (or grouped) convolution: full input-channel × output-channel
    /// weight matrix per group.
    Dense,
    /// Depthwise convolution: one filter per channel, no cross-channel
    /// reduction.
    Depthwise,
    /// Fully-connected layer (matrix-vector at batch 1).
    FullyConnected,
}

/// A convolution-shaped unit of PE-array work.
///
/// Grouped convolutions are represented by per-group channel counts with
/// `groups` sequential repetitions; depthwise convolutions keep the full
/// channel count with [`WorkKind::Depthwise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvWork {
    /// PE-array treatment.
    pub kind: WorkKind,
    /// Sequential group repetitions (1 for dense and depthwise).
    pub groups: usize,
    /// Input channels per group (total channels for depthwise).
    pub in_channels: usize,
    /// Output channels per group (equals `in_channels` for depthwise).
    pub out_channels: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Spatial stride.
    pub stride: usize,
    /// Input feature-map height.
    pub in_h: usize,
    /// Input feature-map width.
    pub in_w: usize,
    /// Output feature-map height.
    pub out_h: usize,
    /// Output feature-map width.
    pub out_w: usize,
}

impl ConvWork {
    /// The shape as eleven words: the kind's tag (dense 0, depthwise 1,
    /// fully connected 2), then every dimension in field order. A
    /// snapshot record stores these words, and a fingerprint hashes them.
    pub(crate) fn words(&self) -> [u64; 11] {
        let kind = match self.kind {
            WorkKind::Dense => 0,
            WorkKind::Depthwise => 1,
            WorkKind::FullyConnected => 2,
        };
        [
            kind,
            self.groups as u64,
            self.in_channels as u64,
            self.out_channels as u64,
            self.kernel_h as u64,
            self.kernel_w as u64,
            self.stride as u64,
            self.in_h as u64,
            self.in_w as u64,
            self.out_h as u64,
            self.out_w as u64,
        ]
    }

    /// Extracts the PE-array workload from a layer, or `None` for layers
    /// the array does not accelerate (pooling, element-wise, concat).
    pub fn from_layer(layer: &Layer) -> Option<Self> {
        match &layer.op {
            LayerOp::Conv(spec) => {
                if layer.is_depthwise() {
                    Some(Self {
                        kind: WorkKind::Depthwise,
                        groups: 1,
                        in_channels: layer.input.channels,
                        out_channels: layer.output.channels,
                        kernel_h: spec.kernel.height,
                        kernel_w: spec.kernel.width,
                        stride: spec.stride,
                        in_h: layer.input.height,
                        in_w: layer.input.width,
                        out_h: layer.output.height,
                        out_w: layer.output.width,
                    })
                } else {
                    // `groups == 0` must survive extraction so `validate`
                    // can reject it with a typed error instead of a
                    // divide-by-zero here.
                    let per_group = spec.groups.max(1);
                    Some(Self {
                        kind: WorkKind::Dense,
                        groups: spec.groups,
                        in_channels: layer.input.channels / per_group,
                        out_channels: spec.out_channels / per_group,
                        kernel_h: spec.kernel.height,
                        kernel_w: spec.kernel.width,
                        stride: spec.stride,
                        in_h: layer.input.height,
                        in_w: layer.input.width,
                        out_h: layer.output.height,
                        out_w: layer.output.width,
                    })
                }
            }
            LayerOp::FullyConnected { out_features } => Some(Self {
                kind: WorkKind::FullyConnected,
                groups: 1,
                in_channels: layer.input.elements(),
                out_channels: *out_features,
                kernel_h: 1,
                kernel_w: 1,
                stride: 1,
                in_h: 1,
                in_w: 1,
                out_h: 1,
                out_w: 1,
            }),
            _ => None,
        }
    }

    /// Checks that the workload is well-formed and within the modeling
    /// range — the gate every fallible simulation path passes before
    /// trusting the unchecked arithmetic of the cycle models.
    ///
    /// Rejects zero dimensions, kernels larger than their input, and
    /// shapes whose MAC or element counts overflow 64 bits (with
    /// headroom reserved for the constant multipliers of derived
    /// quantities).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidWorkload`] for malformed dimensions,
    /// [`SimError::ArithmeticOverflow`] for overflow-scale shapes. The
    /// layer name is attached by the caller ([`SimError::for_layer`]).
    pub fn validate(&self) -> SimResult<()> {
        let dims = [
            (self.groups, "groups"),
            (self.in_channels, "input channels"),
            (self.out_channels, "output channels"),
            (self.kernel_h, "kernel height"),
            (self.kernel_w, "kernel width"),
            (self.stride, "stride"),
            (self.in_h, "input height"),
            (self.in_w, "input width"),
            (self.out_h, "output height"),
            (self.out_w, "output width"),
        ];
        for (v, name) in dims {
            if v == 0 {
                return Err(SimError::invalid(format!("{name} is zero")));
            }
        }
        if self.kernel_h > self.in_h || self.kernel_w > self.in_w {
            return Err(SimError::invalid(format!(
                "kernel {}x{} does not fit the {}x{} input",
                self.kernel_h, self.kernel_w, self.in_h, self.in_w
            )));
        }
        let reduce = if self.kind == WorkKind::Depthwise { 1 } else { self.in_channels };
        bounded_product(
            &[
                self.out_h,
                self.out_w,
                self.kernel_h,
                self.kernel_w,
                self.out_channels,
                reduce,
                self.groups,
            ],
            "MAC count",
        )?;
        bounded_product(
            &[self.kernel_h, self.kernel_w, reduce, self.out_channels, self.groups],
            "weight element count",
        )?;
        bounded_product(&[self.in_channels, self.groups, self.in_h, self.in_w], "input elements")?;
        bounded_product(
            &[self.out_channels, self.groups, self.out_h, self.out_w],
            "output elements",
        )?;
        Ok(())
    }

    /// Useful (algorithmic) MACs — the dense count before any sparsity
    /// skipping, matching [`Layer::macs`].
    pub fn macs(&self) -> u64 {
        let per_group = self.out_h
            * self.out_w
            * self.kernel_h
            * self.kernel_w
            * self.out_channels
            * if self.kind == WorkKind::Depthwise { 1 } else { self.in_channels };
        (per_group * self.groups) as u64
    }

    /// Kernel taps.
    pub fn taps(&self) -> usize {
        self.kernel_h * self.kernel_w
    }

    /// Output pixels per channel plane.
    pub fn out_plane(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Weight elements across all groups.
    pub fn weight_elements(&self) -> u64 {
        let per_filter =
            self.taps() * if self.kind == WorkKind::Depthwise { 1 } else { self.in_channels };
        (per_filter * self.out_channels * self.groups) as u64
    }

    /// Input elements across all groups.
    pub fn input_elements(&self) -> u64 {
        (self.in_channels * self.groups * self.in_h * self.in_w) as u64
    }

    /// Output elements across all groups.
    pub fn output_elements(&self) -> u64 {
        (self.out_channels * self.groups * self.out_h * self.out_w) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::{NetworkBuilder, Shape};

    fn layers() -> Vec<Layer> {
        NetworkBuilder::new("t", Shape::new(8, 16, 16))
            .conv("dense", 16, 3, 1, 1)
            .depthwise_conv("dw", 3, 1, 1)
            .grouped_conv("grp", 32, 3, 1, 1, 2)
            .max_pool("pool", 2, 2)
            .global_avg_pool("gap")
            .fully_connected("fc", 10)
            .finish()
            .unwrap()
            .layers()
            .to_vec()
    }

    #[test]
    fn dense_extraction() {
        let ls = layers();
        let w = ConvWork::from_layer(&ls[0]).unwrap();
        assert_eq!(w.kind, WorkKind::Dense);
        assert_eq!((w.in_channels, w.out_channels, w.groups), (8, 16, 1));
        assert_eq!(w.macs(), ls[0].macs());
    }

    #[test]
    fn depthwise_extraction() {
        let ls = layers();
        let w = ConvWork::from_layer(&ls[1]).unwrap();
        assert_eq!(w.kind, WorkKind::Depthwise);
        assert_eq!(w.in_channels, 16);
        assert_eq!(w.macs(), ls[1].macs());
        assert_eq!(w.weight_elements(), ls[1].params());
    }

    #[test]
    fn grouped_extraction() {
        let ls = layers();
        let w = ConvWork::from_layer(&ls[2]).unwrap();
        assert_eq!(w.groups, 2);
        assert_eq!(w.in_channels, 8);
        assert_eq!(w.out_channels, 16);
        assert_eq!(w.macs(), ls[2].macs());
        assert_eq!(w.weight_elements(), ls[2].params());
    }

    #[test]
    fn pool_is_not_pe_work() {
        let ls = layers();
        assert!(ConvWork::from_layer(&ls[3]).is_none());
        assert!(ConvWork::from_layer(&ls[4]).is_none());
    }

    #[test]
    fn fc_extraction() {
        let ls = layers();
        let w = ConvWork::from_layer(&ls[5]).unwrap();
        assert_eq!(w.kind, WorkKind::FullyConnected);
        assert_eq!(w.in_channels, 32); // 32 channels x 1 x 1 after GAP
        assert_eq!(w.out_channels, 10);
        assert_eq!(w.macs(), ls[5].macs());
    }
}
