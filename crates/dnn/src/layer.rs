//! Layer descriptors and per-layer operation accounting.

use std::fmt;

use crate::shape::{conv_out_dim, pool_out_dim_ceil, Shape};

/// Two-dimensional kernel extent (`height × width`).
///
/// SqueezeNext uses separable `1×3` / `3×1` kernels, so the two extents are
/// tracked independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Kernel {
    /// Kernel height in pixels.
    pub height: usize,
    /// Kernel width in pixels.
    pub width: usize,
}

impl Kernel {
    /// Creates a possibly non-square kernel.
    pub const fn new(height: usize, width: usize) -> Self {
        Self { height, width }
    }

    /// Creates a square `k × k` kernel.
    pub const fn square(k: usize) -> Self {
        Self::new(k, k)
    }

    /// Number of taps (`height * width`).
    pub const fn taps(&self) -> usize {
        self.height * self.width
    }

    /// Whether this is a `1×1` (pointwise) kernel.
    pub const fn is_pointwise(&self) -> bool {
        self.height == 1 && self.width == 1
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.height, self.width)
    }
}

/// Parameters of a convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvSpec {
    /// Number of output channels.
    pub out_channels: usize,
    /// Kernel extent.
    pub kernel: Kernel,
    /// Spatial stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding above and below (rows added on each side).
    pub pad_h: usize,
    /// Zero padding left and right (columns added on each side).
    pub pad_w: usize,
    /// Number of filter groups. `1` is a dense convolution; equal to the
    /// channel count it is a depthwise convolution (AlexNet uses `2`).
    pub groups: usize,
}

/// Pooling flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Max pooling (Caffe ceil-mode output rounding).
    Max,
    /// Average pooling (floor-mode output rounding).
    Average,
}

/// The operation a [`Layer`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerOp {
    /// Convolution (dense, grouped, or depthwise; square or separable).
    Conv(ConvSpec),
    /// Fully-connected layer producing `out_features` activations.
    FullyConnected {
        /// Number of output activations.
        out_features: usize,
    },
    /// Spatial pooling window.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Window extent (square).
        kernel: usize,
        /// Window stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Global average pooling down to `c × 1 × 1`.
    GlobalAvgPool,
    /// Element-wise addition with the output of an earlier layer
    /// (residual shortcut); shape preserving.
    EltwiseAdd,
    /// Channel concatenation marker; shape bookkeeping for fire modules.
    /// `extra_channels` are appended to the input channel count.
    Concat {
        /// Channels contributed by the other branch.
        extra_channels: usize,
    },
}

/// The paper's Table-1 taxonomy of layer types, extended with the
/// non-convolutional categories needed for whole-network accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LayerClass {
    /// The first convolution layer of a network (large input, few input
    /// channels).
    FirstConv,
    /// `1×1` (pointwise) dense convolution.
    Pointwise,
    /// `F×F` (or separable `1×F`/`F×1`) dense or grouped convolution with
    /// `F > 1`, other than the first layer.
    Spatial,
    /// Depthwise convolution.
    Depthwise,
    /// Fully-connected layer.
    FullyConnected,
    /// Anything with negligible MACs (pooling, element-wise, concat).
    Other,
}

impl LayerClass {
    /// All classes in display order (Table 1 order, then FC and Other).
    pub const ALL: [LayerClass; 6] = [
        LayerClass::FirstConv,
        LayerClass::Pointwise,
        LayerClass::Spatial,
        LayerClass::Depthwise,
        LayerClass::FullyConnected,
        LayerClass::Other,
    ];
}

impl fmt::Display for LayerClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LayerClass::FirstConv => "Conv1",
            LayerClass::Pointwise => "1x1",
            LayerClass::Spatial => "FxF",
            LayerClass::Depthwise => "DW",
            LayerClass::FullyConnected => "FC",
            LayerClass::Other => "Other",
        };
        f.write_str(s)
    }
}

/// One layer of a network: an operation plus its resolved input and output
/// shapes.
///
/// Layers are produced by [`crate::NetworkBuilder`], which performs shape
/// inference and validation; the fields here are therefore always
/// consistent with each other.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layer {
    /// Human-readable unique name (e.g. `"fire2/expand3x3"`).
    pub name: String,
    /// The operation performed.
    pub op: LayerOp,
    /// Shape of the input feature map.
    pub input: Shape,
    /// Shape of the output feature map.
    pub output: Shape,
    /// Whether this is the first convolution of the network.
    pub is_first_conv: bool,
    /// Name of the layer producing this layer's (primary) input; `None`
    /// when the layer reads the network input.
    pub primary_input: Option<String>,
    /// For merge layers ([`LayerOp::Concat`], [`LayerOp::EltwiseAdd`]):
    /// the name of the layer producing the second operand. `None` for
    /// non-merge layers, or when the merge reads the network input.
    pub extra_input: Option<String>,
}

impl Layer {
    /// Multiply-accumulate operations performed by this layer.
    ///
    /// Pooling, element-wise and concat layers report `0`: the paper treats
    /// them as negligible ("very small computational complexity ...
    /// processed in a 1D SIMD manner").
    pub fn macs(&self) -> u64 {
        match self.op {
            LayerOp::Conv(spec) => {
                let per_output = spec.kernel.taps() * self.input.channels / spec.groups;
                (self.output.elements() * per_output) as u64
            }
            LayerOp::FullyConnected { .. } => (self.input.elements() * self.output.channels) as u64,
            _ => 0,
        }
    }

    /// Number of weight parameters (biases excluded; they are negligible
    /// and the paper's model sizes track weights).
    pub fn params(&self) -> u64 {
        match self.op {
            LayerOp::Conv(spec) => {
                let per_filter = spec.kernel.taps() * self.input.channels / spec.groups;
                (per_filter * spec.out_channels) as u64
            }
            LayerOp::FullyConnected { out_features } => {
                (self.input.elements() * out_features) as u64
            }
            _ => 0,
        }
    }

    /// Whether this layer is a depthwise convolution.
    pub fn is_depthwise(&self) -> bool {
        match self.op {
            LayerOp::Conv(spec) => {
                spec.groups > 1
                    && spec.groups == self.input.channels
                    && spec.groups == spec.out_channels
            }
            _ => false,
        }
    }

    /// The Table-1 class of this layer.
    pub fn class(&self) -> LayerClass {
        match self.op {
            LayerOp::Conv(spec) => {
                if self.is_first_conv {
                    LayerClass::FirstConv
                } else if self.is_depthwise() {
                    LayerClass::Depthwise
                } else if spec.kernel.is_pointwise() {
                    LayerClass::Pointwise
                } else {
                    LayerClass::Spatial
                }
            }
            LayerOp::FullyConnected { .. } => LayerClass::FullyConnected,
            _ => LayerClass::Other,
        }
    }

    /// Whether the layer performs any MAC work that the PE array can
    /// accelerate (convolutions and fully-connected layers).
    pub fn is_compute(&self) -> bool {
        matches!(self.op, LayerOp::Conv(_) | LayerOp::FullyConnected { .. })
    }

    /// Convolution spec if this is a convolution layer.
    pub fn conv_spec(&self) -> Option<&ConvSpec> {
        match &self.op {
            LayerOp::Conv(spec) => Some(spec),
            _ => None,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} -> {}", self.name, self.input, self.output)
    }
}

/// Infers the output shape of `op` applied to `input`.
///
/// Returns `None` when the operation does not fit the input (e.g. kernel
/// larger than the padded feature map, channel counts not divisible by the
/// group count) or an output dimension overflows `usize`.
pub fn infer_output(op: &LayerOp, input: Shape) -> Option<Shape> {
    match *op {
        LayerOp::Conv(spec) => {
            if spec.groups == 0
                || spec.out_channels == 0
                || !input.channels.is_multiple_of(spec.groups)
                || spec.out_channels % spec.groups != 0
            {
                return None;
            }
            let oh = conv_out_dim(input.height, spec.kernel.height, spec.stride, spec.pad_h)?;
            let ow = conv_out_dim(input.width, spec.kernel.width, spec.stride, spec.pad_w)?;
            Some(Shape::new(spec.out_channels, oh, ow))
        }
        LayerOp::FullyConnected { out_features } => {
            if out_features == 0 {
                None
            } else {
                Some(Shape::vector(out_features))
            }
        }
        LayerOp::Pool { kind, kernel, stride, pad } => {
            let dim = match kind {
                PoolKind::Max => pool_out_dim_ceil,
                PoolKind::Average => conv_out_dim,
            };
            let oh = dim(input.height, kernel, stride, pad)?;
            let ow = dim(input.width, kernel, stride, pad)?;
            Some(Shape::new(input.channels, oh, ow))
        }
        LayerOp::GlobalAvgPool => Some(Shape::vector(input.channels)),
        LayerOp::EltwiseAdd => Some(input),
        LayerOp::Concat { extra_channels } => {
            Some(Shape::new(input.channels.checked_add(extra_channels)?, input.height, input.width))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(out: usize, k: usize, s: usize, p: usize, groups: usize) -> LayerOp {
        LayerOp::Conv(ConvSpec {
            out_channels: out,
            kernel: Kernel::square(k),
            stride: s,
            pad_h: p,
            pad_w: p,
            groups,
        })
    }

    fn layer(op: LayerOp, input: Shape, first: bool) -> Layer {
        let output = infer_output(&op, input).expect("valid layer");
        Layer {
            name: "t".into(),
            op,
            input,
            output,
            is_first_conv: first,
            primary_input: None,
            extra_input: None,
        }
    }

    #[test]
    fn alexnet_conv1_macs() {
        // 227x227x3, 11x11 s4, 96 filters -> 55x55x96, 105.4 M MACs.
        let l = layer(conv(96, 11, 4, 0, 1), Shape::new(3, 227, 227), true);
        assert_eq!(l.output, Shape::new(96, 55, 55));
        assert_eq!(l.macs(), 55 * 55 * 11 * 11 * 3 * 96);
        assert_eq!(l.params(), 11 * 11 * 3 * 96);
        assert_eq!(l.class(), LayerClass::FirstConv);
    }

    #[test]
    fn grouped_conv_halves_macs() {
        let dense = layer(conv(256, 5, 1, 2, 1), Shape::new(96, 27, 27), false);
        let grouped = layer(conv(256, 5, 1, 2, 2), Shape::new(96, 27, 27), false);
        assert_eq!(dense.macs(), 2 * grouped.macs());
        assert_eq!(dense.params(), 2 * grouped.params());
        assert_eq!(grouped.class(), LayerClass::Spatial);
    }

    #[test]
    fn depthwise_classification() {
        let dw = LayerOp::Conv(ConvSpec {
            out_channels: 32,
            kernel: Kernel::square(3),
            stride: 1,
            pad_h: 1,
            pad_w: 1,
            groups: 32,
        });
        let l = layer(dw, Shape::new(32, 112, 112), false);
        assert!(l.is_depthwise());
        assert_eq!(l.class(), LayerClass::Depthwise);
        // One filter tap set per channel.
        assert_eq!(l.macs(), 112 * 112 * 9 * 32);
        assert_eq!(l.params(), 9 * 32);
    }

    #[test]
    fn pointwise_classification() {
        let l = layer(conv(64, 1, 1, 0, 1), Shape::new(96, 55, 55), false);
        assert_eq!(l.class(), LayerClass::Pointwise);
        assert_eq!(l.macs(), 55 * 55 * 96 * 64);
    }

    #[test]
    fn separable_kernels_are_spatial() {
        let op = LayerOp::Conv(ConvSpec {
            out_channels: 32,
            kernel: Kernel::new(1, 3),
            stride: 1,
            pad_h: 0,
            pad_w: 0,
            groups: 1,
        });
        let input = Shape::new(16, 28, 28);
        let out = infer_output(&op, input).unwrap();
        assert_eq!(out, Shape::new(32, 28, 26));
        let l = Layer {
            name: "sep".into(),
            op,
            input,
            output: out,
            is_first_conv: false,
            primary_input: None,
            extra_input: None,
        };
        assert_eq!(l.class(), LayerClass::Spatial);
        assert_eq!(l.macs(), (28 * 26 * 3 * 16 * 32) as u64);
    }

    #[test]
    fn fc_macs_and_class() {
        let op = LayerOp::FullyConnected { out_features: 4096 };
        let l = layer(op, Shape::new(256, 6, 6), false);
        assert_eq!(l.output, Shape::vector(4096));
        assert_eq!(l.macs(), 256 * 6 * 6 * 4096);
        assert_eq!(l.class(), LayerClass::FullyConnected);
    }

    #[test]
    fn pool_and_concat_have_no_macs() {
        let pool = layer(
            LayerOp::Pool { kind: PoolKind::Max, kernel: 3, stride: 2, pad: 0 },
            Shape::new(96, 55, 55),
            false,
        );
        assert_eq!(pool.macs(), 0);
        assert_eq!(pool.class(), LayerClass::Other);
        assert_eq!(pool.output, Shape::new(96, 27, 27));

        let cat = layer(LayerOp::Concat { extra_channels: 64 }, Shape::new(64, 55, 55), false);
        assert_eq!(cat.output.channels, 128);
        assert_eq!(cat.macs(), 0);
    }

    #[test]
    fn infer_rejects_bad_groups() {
        assert_eq!(infer_output(&conv(64, 3, 1, 1, 5), Shape::new(96, 28, 28)), None);
        assert_eq!(infer_output(&conv(65, 3, 1, 1, 2), Shape::new(96, 28, 28)), None);
        assert_eq!(infer_output(&conv(64, 3, 1, 1, 0), Shape::new(96, 28, 28)), None);
    }

    #[test]
    fn infer_rejects_oversized_kernel() {
        assert_eq!(infer_output(&conv(64, 9, 1, 0, 1), Shape::new(3, 5, 5)), None);
    }

    #[test]
    fn eltwise_preserves_shape() {
        let s = Shape::new(32, 28, 28);
        assert_eq!(infer_output(&LayerOp::EltwiseAdd, s), Some(s));
    }

    #[test]
    fn global_pool_vectorizes() {
        assert_eq!(
            infer_output(&LayerOp::GlobalAvgPool, Shape::new(1000, 13, 13)),
            Some(Shape::vector(1000))
        );
    }

    #[test]
    fn class_display_matches_table1_headers() {
        assert_eq!(LayerClass::FirstConv.to_string(), "Conv1");
        assert_eq!(LayerClass::Pointwise.to_string(), "1x1");
        assert_eq!(LayerClass::Spatial.to_string(), "FxF");
        assert_eq!(LayerClass::Depthwise.to_string(), "DW");
    }
}
