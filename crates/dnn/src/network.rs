//! Whole-network representation and the shape-checked builder.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::layer::{infer_output, ConvSpec, Kernel, Layer, LayerOp, PoolKind};
use crate::shape::Shape;

/// Error produced when a [`NetworkBuilder`] is asked to append a layer that
/// does not fit the running feature-map shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildNetworkError {
    layer_name: String,
    input: Shape,
    detail: String,
}

impl BuildNetworkError {
    fn new(layer_name: impl Into<String>, input: Shape, detail: impl Into<String>) -> Self {
        Self { layer_name: layer_name.into(), input, detail: detail.into() }
    }
}

impl fmt::Display for BuildNetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layer `{}` does not fit input {}: {}", self.layer_name, self.input, self.detail)
    }
}

impl Error for BuildNetworkError {}

/// A feed-forward network: an ordered list of shape-consistent layers.
///
/// Branching topologies (fire modules, SqueezeNext residual blocks) are
/// linearized: each branch's layers appear in order and a
/// [`LayerOp::Concat`] / [`LayerOp::EltwiseAdd`] records the merge. This is
/// exactly the granularity the Squeezelerator schedules at — it processes
/// the network "layer by layer".
///
/// A built network never changes, so its name and layers sit behind
/// reference counts: a clone costs two counter increments and shares the
/// layer allocation, which is what lets [`crate::zoo`] hand out one
/// network per name for the whole process.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    name: Arc<str>,
    input: Shape,
    layers: Arc<[Layer]>,
    top1_accuracy: Option<f64>,
}

impl Network {
    /// The network's name (e.g. `"SqueezeNet v1.0"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input image shape.
    pub fn input(&self) -> Shape {
        self.input
    }

    /// All layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Layers that perform MAC work (convolutions and FC layers), i.e. the
    /// layers the accelerator schedules onto the PE array.
    pub fn compute_layers(&self) -> impl Iterator<Item = &Layer> {
        self.layers.iter().filter(|l| l.is_compute())
    }

    /// Total MAC operations over all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }

    /// Total weight parameters over all layers.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(Layer::params).sum()
    }

    /// Published ImageNet top-1 accuracy, when known.
    ///
    /// Accuracies are metadata (this reproduction does not train models);
    /// see DESIGN.md §3.
    pub fn top1_accuracy(&self) -> Option<f64> {
        self.top1_accuracy
    }

    /// The shape produced by the final layer.
    pub fn output(&self) -> Shape {
        self.layers.last().map_or(self.input, |l| l.output)
    }

    /// Looks up a layer by name.
    pub fn layer(&self, name: &str) -> Option<&Layer> {
        self.layers.iter().find(|l| l.name == name)
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, {:.1} MMACs, {:.2} M params)",
            self.name,
            self.layers.len(),
            self.total_macs() as f64 / 1e6,
            self.total_params() as f64 / 1e6
        )
    }
}

/// Shape-checked incremental builder for [`Network`].
///
/// Every append method validates the layer against the running feature-map
/// shape and returns `&mut Self` for chaining. The first error is latched
/// and reported by [`NetworkBuilder::finish`], which keeps call sites free
/// of per-layer `?`s — model-zoo definitions read like the layer tables in
/// the original papers.
///
/// # Examples
///
/// ```
/// use codesign_dnn::{NetworkBuilder, Shape};
///
/// # fn main() -> Result<(), codesign_dnn::BuildNetworkError> {
/// let net = NetworkBuilder::new("toy", Shape::new(3, 32, 32))
///     .conv("conv1", 16, 3, 1, 1)
///     .max_pool("pool1", 2, 2)
///     .global_avg_pool("gap")
///     .fully_connected("fc", 10)
///     .finish()?;
/// assert_eq!(net.output(), Shape::vector(10));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetworkBuilder {
    name: String,
    input: Shape,
    current: Shape,
    layers: Vec<Layer>,
    saw_conv: bool,
    current_producer: Option<String>,
    top1_accuracy: Option<f64>,
    error: Option<BuildNetworkError>,
}

impl NetworkBuilder {
    /// Starts a network with the given input image shape.
    pub fn new(name: impl Into<String>, input: Shape) -> Self {
        Self {
            name: name.into(),
            input,
            current: input,
            layers: Vec::new(),
            saw_conv: false,
            current_producer: None,
            top1_accuracy: None,
            error: None,
        }
    }

    /// Records the published top-1 accuracy for this model.
    pub fn top1_accuracy(&mut self, accuracy: f64) -> &mut Self {
        self.top1_accuracy = Some(accuracy);
        self
    }

    /// The feature-map shape after the last appended layer.
    pub fn current_shape(&self) -> Shape {
        self.current
    }

    fn push(&mut self, name: &str, op: LayerOp) -> &mut Self {
        self.push_with(name, op, None)
    }

    fn push_with(&mut self, name: &str, op: LayerOp, extra_input: Option<String>) -> &mut Self {
        if self.error.is_some() {
            return self;
        }
        if self.layers.iter().any(|l| l.name == name) {
            self.error = Some(BuildNetworkError::new(name, self.current, "duplicate layer name"));
            return self;
        }
        // Each dimension on its own: their product may not fit `usize`.
        let Shape { channels, height, width } = self.current;
        if channels == 0 || height == 0 || width == 0 {
            self.error = Some(BuildNetworkError::new(
                name,
                self.current,
                "input shape has a zero dimension",
            ));
            return self;
        }
        let is_conv = matches!(op, LayerOp::Conv(_));
        match infer_output(&op, self.current) {
            Some(output) => {
                let is_first_conv = is_conv && !self.saw_conv;
                self.saw_conv |= is_conv;
                if let Some(extra) = &extra_input {
                    if !self.layers.iter().any(|l| &l.name == extra) {
                        self.error = Some(BuildNetworkError::new(
                            name,
                            self.current,
                            format!("merge input layer `{extra}` not found"),
                        ));
                        return self;
                    }
                }
                self.layers.push(Layer {
                    name: name.to_owned(),
                    op,
                    input: self.current,
                    output,
                    is_first_conv,
                    primary_input: self.current_producer.clone(),
                    extra_input,
                });
                self.current = output;
                self.current_producer = Some(name.to_owned());
            }
            None => {
                self.error = Some(BuildNetworkError::new(
                    name,
                    self.current,
                    "operation does not fit the input shape",
                ));
            }
        }
        self
    }

    /// Appends a dense square convolution.
    pub fn conv(
        &mut self,
        name: &str,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> &mut Self {
        self.push(
            name,
            LayerOp::Conv(ConvSpec {
                out_channels,
                kernel: Kernel::square(kernel),
                stride,
                pad_h: pad,
                pad_w: pad,
                groups: 1,
            }),
        )
    }

    /// Appends a grouped square convolution (AlexNet-style groups).
    pub fn grouped_conv(
        &mut self,
        name: &str,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> &mut Self {
        self.push(
            name,
            LayerOp::Conv(ConvSpec {
                out_channels,
                kernel: Kernel::square(kernel),
                stride,
                pad_h: pad,
                pad_w: pad,
                groups,
            }),
        )
    }

    /// Appends a convolution with a possibly non-square kernel
    /// (SqueezeNext's separable `1×3` / `3×1`). Padding is applied on the
    /// dimension(s) the kernel extends over so the spatial size is
    /// preserved at stride 1.
    pub fn conv_rect(
        &mut self,
        name: &str,
        out_channels: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
    ) -> &mut Self {
        self.push(
            name,
            LayerOp::Conv(ConvSpec {
                out_channels,
                kernel: Kernel::new(kernel_h, kernel_w),
                stride,
                pad_h: kernel_h / 2,
                pad_w: kernel_w / 2,
                groups: 1,
            }),
        )
    }

    /// Appends a depthwise convolution (one filter per channel).
    pub fn depthwise_conv(
        &mut self,
        name: &str,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> &mut Self {
        let channels = self.current.channels;
        self.push(
            name,
            LayerOp::Conv(ConvSpec {
                out_channels: channels,
                kernel: Kernel::square(kernel),
                stride,
                pad_h: pad,
                pad_w: pad,
                groups: channels,
            }),
        )
    }

    /// Appends a pointwise (`1×1`) convolution.
    pub fn pointwise_conv(&mut self, name: &str, out_channels: usize) -> &mut Self {
        self.conv(name, out_channels, 1, 1, 0)
    }

    /// Appends max pooling (ceil-mode rounding, Caffe convention).
    pub fn max_pool(&mut self, name: &str, kernel: usize, stride: usize) -> &mut Self {
        self.push(name, LayerOp::Pool { kind: PoolKind::Max, kernel, stride, pad: 0 })
    }

    /// Appends average pooling.
    pub fn avg_pool(&mut self, name: &str, kernel: usize, stride: usize) -> &mut Self {
        self.push(name, LayerOp::Pool { kind: PoolKind::Average, kernel, stride, pad: 0 })
    }

    /// Appends global average pooling.
    pub fn global_avg_pool(&mut self, name: &str) -> &mut Self {
        self.push(name, LayerOp::GlobalAvgPool)
    }

    /// Appends a fully-connected layer.
    pub fn fully_connected(&mut self, name: &str, out_features: usize) -> &mut Self {
        self.push(name, LayerOp::FullyConnected { out_features })
    }

    /// Appends a residual element-wise addition (shape preserving).
    /// `other` names the layer producing the second operand; `None` means
    /// the network input.
    pub fn eltwise_add(&mut self, name: &str, other: Option<&str>) -> &mut Self {
        self.push_with(name, LayerOp::EltwiseAdd, other.map(str::to_owned))
    }

    /// The name of the most recently appended layer, if any.
    pub fn last_layer_name(&self) -> Option<&str> {
        self.layers.last().map(|l| l.name.as_str())
    }

    /// Rewinds the running shape to the output of an earlier layer, so the
    /// next appended layer reads that layer's output — how parallel
    /// branches (fire expands, residual shortcuts) are linearized.
    ///
    /// Latches an error if no layer with that name exists.
    pub fn branch_from(&mut self, layer_name: &str) -> &mut Self {
        if self.error.is_some() {
            return self;
        }
        match self.layers.iter().find(|l| l.name == layer_name) {
            Some(l) => {
                self.current = l.output;
                self.current_producer = Some(l.name.clone());
            }
            None => {
                self.error = Some(BuildNetworkError::new(
                    layer_name,
                    self.current,
                    "branch source layer not found",
                ));
            }
        }
        self
    }

    /// Rewinds the running shape to the **input** of an earlier layer —
    /// used for residual shortcuts that read the same tensor a block's
    /// first layer reads.
    ///
    /// Latches an error if no layer with that name exists.
    pub fn branch_from_input_of(&mut self, layer_name: &str) -> &mut Self {
        if self.error.is_some() {
            return self;
        }
        match self.layers.iter().find(|l| l.name == layer_name) {
            Some(l) => {
                self.current = l.input;
                self.current_producer = l.primary_input.clone();
            }
            None => {
                self.error = Some(BuildNetworkError::new(
                    layer_name,
                    self.current,
                    "branch source layer not found",
                ));
            }
        }
        self
    }

    /// Appends a SqueezeNet fire module: a `1×1` squeeze to
    /// `squeeze_channels`, then parallel `1×1` and `3×3` expands whose
    /// outputs are concatenated.
    pub fn fire(
        &mut self,
        name: &str,
        squeeze_channels: usize,
        expand1x1: usize,
        expand3x3: usize,
    ) -> &mut Self {
        let squeeze = format!("{name}/squeeze1x1");
        let e1 = format!("{name}/expand1x1");
        let e3 = format!("{name}/expand3x3");
        let cat = format!("{name}/concat");
        self.pointwise_conv(&squeeze, squeeze_channels);
        // Branch 1: 1x1 expand.
        self.pointwise_conv(&e1, expand1x1);
        // Branch 2: 3x3 expand reads the squeeze output.
        self.branch_from(&squeeze);
        self.conv(&e3, expand3x3, 3, 1, 1);
        // Merge: expand3x3 output plus the expand1x1 channels.
        self.push_with(&cat, LayerOp::Concat { extra_channels: expand1x1 }, Some(e1))
    }

    /// Finishes the network.
    ///
    /// # Errors
    ///
    /// Returns the first shape error encountered while appending layers,
    /// or an error if the network has no layers.
    pub fn finish(&mut self) -> Result<Network, BuildNetworkError> {
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        if self.layers.is_empty() {
            return Err(BuildNetworkError::new(
                self.name.clone(),
                self.input,
                "network has no layers",
            ));
        }
        Ok(Network {
            name: std::mem::take(&mut self.name).into(),
            input: self.input,
            layers: std::mem::take(&mut self.layers).into(),
            top1_accuracy: self.top1_accuracy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerClass;

    #[test]
    fn builder_tracks_shapes() {
        let net = NetworkBuilder::new("t", Shape::new(3, 227, 227))
            .conv("conv1", 96, 7, 2, 0)
            .max_pool("pool1", 3, 2)
            .finish()
            .unwrap();
        assert_eq!(net.layers()[0].output, Shape::new(96, 111, 111));
        assert_eq!(net.output(), Shape::new(96, 55, 55));
        assert!(net.layers()[0].is_first_conv);
    }

    #[test]
    fn fire_module_shapes_and_macs() {
        let net = NetworkBuilder::new("t", Shape::new(96, 55, 55))
            .fire("fire2", 16, 64, 64)
            .finish()
            .unwrap();
        // squeeze output 16x55x55; both expands see 16 channels; concat 128.
        assert_eq!(net.output(), Shape::new(128, 55, 55));
        let e3 = net.layer("fire2/expand3x3").unwrap();
        assert_eq!(e3.input.channels, 16);
        assert_eq!(e3.macs(), (55 * 55 * 9 * 16 * 64) as u64);
        let e1 = net.layer("fire2/expand1x1").unwrap();
        assert_eq!(e1.input.channels, 16);
        // First conv flag not set inside fire (no preceding conv here means
        // squeeze is first).
        assert!(net.layer("fire2/squeeze1x1").unwrap().is_first_conv);
        assert!(!e1.is_first_conv);
        assert_eq!(e1.class(), LayerClass::Pointwise);
    }

    #[test]
    fn error_is_latched_and_reported() {
        let err = NetworkBuilder::new("t", Shape::new(3, 8, 8))
            .conv("c1", 8, 3, 1, 1)
            .conv("bad", 8, 11, 1, 0) // kernel larger than feature map
            .conv("c2", 8, 3, 1, 1) // ignored after error
            .finish()
            .unwrap_err();
        assert!(err.to_string().contains("bad"));
        assert!(err.to_string().contains("8x8x8"));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = NetworkBuilder::new("t", Shape::new(3, 8, 8))
            .conv("c", 8, 3, 1, 1)
            .conv("c", 8, 3, 1, 1)
            .finish()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn empty_network_rejected() {
        assert!(NetworkBuilder::new("t", Shape::new(3, 8, 8)).finish().is_err());
    }

    #[test]
    fn depthwise_builder_uses_running_channels() {
        let net = NetworkBuilder::new("t", Shape::new(3, 32, 32))
            .conv("c1", 32, 3, 2, 1)
            .depthwise_conv("dw", 3, 1, 1)
            .finish()
            .unwrap();
        let dw = net.layer("dw").unwrap();
        assert!(dw.is_depthwise());
        assert_eq!(dw.output.channels, 32);
    }

    #[test]
    fn totals_accumulate() {
        let net = NetworkBuilder::new("t", Shape::new(1, 4, 4))
            .conv("c1", 2, 3, 1, 1)
            .conv("c2", 4, 3, 1, 1)
            .finish()
            .unwrap();
        assert_eq!(net.total_macs(), (16 * 9 * 2) as u64 + (16 * 9 * 2 * 4) as u64);
        assert_eq!(net.total_params(), (9 * 2) as u64 + (9 * 2 * 4) as u64);
        assert_eq!(net.compute_layers().count(), 2);
    }

    #[test]
    fn accuracy_metadata_round_trips() {
        let net = NetworkBuilder::new("t", Shape::new(1, 4, 4))
            .conv("c", 1, 1, 1, 0)
            .top1_accuracy(57.1)
            .finish()
            .unwrap();
        assert_eq!(net.top1_accuracy(), Some(57.1));
    }

    #[test]
    fn overflow_scale_shapes_build_without_overflowing() {
        // 2^96 input elements do not fit `usize`; the builder checks each
        // dimension for zero instead of their product.
        let huge = Shape::new(1 << 32, 1 << 32, 1 << 32);
        let net = NetworkBuilder::new("t", huge).conv("c", 8, 1, 1, 0).finish().unwrap();
        assert_eq!(net.output(), Shape::new(8, 1 << 32, 1 << 32));
        let err = NetworkBuilder::new("t", huge).conv("c", 8, 1, 1, usize::MAX).finish();
        assert!(err.is_err(), "a pad beyond usize must not fit");
        let err =
            NetworkBuilder::new("t", Shape::new(2, 8, 8)).fire("f", 1, usize::MAX, 1).finish();
        assert!(err.is_err(), "concatenated channels beyond usize must not fit");
    }

    #[test]
    fn display_summarizes() {
        let net = NetworkBuilder::new("tiny", Shape::new(1, 4, 4))
            .conv("c", 1, 1, 1, 0)
            .finish()
            .unwrap();
        let s = net.to_string();
        assert!(s.contains("tiny"));
        assert!(s.contains("1 layers"));
    }
}
