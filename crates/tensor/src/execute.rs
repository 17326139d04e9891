//! Functional execution of a whole [`Network`] over real tensor data.
//!
//! This is the end-to-end ground truth: given a weight store, it runs
//! every layer and returns all intermediate feature maps.
//!
//! Compute layers run on the GEMM fast path ([`crate::gemm`]) by
//! default; [`run_network_reference`] walks the same network with the
//! naive loop-nest operators in [`crate::ops`] — the executable
//! specification the fast path is proven bit-identical to (and the
//! baseline the functional benchmark measures speedup against).
//! Activations are held in an [`ActivationBuilder`] and every layer
//! input is resolved **by reference** out of it; no feature map is ever
//! cloned between layers.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use codesign_dnn::{Layer, LayerOp, Network, PoolKind};
use rand::Rng;

use crate::ops::{
    avg_pool, conv2d, eltwise_add, fully_connected, global_avg_pool, max_pool, ShapeMismatchError,
};
use crate::tensor::{Filters, Tensor};

/// Weights for every compute layer of a network, keyed by layer name.
#[derive(Debug, Clone, Default)]
pub struct WeightStore {
    weights: HashMap<String, Filters>,
}

impl WeightStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generates random weights for every compute layer of `network`,
    /// with the given filter-tap magnitude bound and zero-weight fraction
    /// (the paper models weight sparsity at 40 %, i.e. `0.4`).
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` is outside `0.0..=1.0`.
    pub fn random(network: &Network, range: i32, sparsity: f64, rng: &mut impl Rng) -> Self {
        let mut weights = HashMap::new();
        for layer in network.compute_layers() {
            let f = match &layer.op {
                LayerOp::Conv(spec) => Filters::random(
                    spec.out_channels,
                    layer.input.channels / spec.groups,
                    spec.kernel.height,
                    spec.kernel.width,
                    range,
                    sparsity,
                    rng,
                ),
                LayerOp::FullyConnected { out_features } => Filters::random(
                    *out_features,
                    layer.input.elements(),
                    1,
                    1,
                    range,
                    sparsity,
                    rng,
                ),
                _ => continue,
            };
            weights.insert(layer.name.clone(), f);
        }
        Self { weights }
    }

    /// Inserts (or replaces) weights for a layer.
    pub fn insert(&mut self, layer_name: impl Into<String>, filters: Filters) {
        self.weights.insert(layer_name.into(), filters);
    }

    /// Weights for a layer, if present.
    pub fn get(&self, layer_name: &str) -> Option<&Filters> {
        self.weights.get(layer_name)
    }

    /// Number of layers with weights.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

/// Error produced by the network and layer runners.
#[derive(Debug)]
pub enum RunNetworkError {
    /// A compute layer has no weights in the store.
    MissingWeights(String),
    /// A merge layer's second operand could not be resolved.
    MissingMergeInput(String),
    /// An operator rejected its arguments.
    Op(ShapeMismatchError),
}

impl fmt::Display for RunNetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunNetworkError::MissingWeights(l) => write!(f, "no weights for layer `{l}`"),
            RunNetworkError::MissingMergeInput(l) => {
                write!(f, "merge input for layer `{l}` not found")
            }
            RunNetworkError::Op(e) => write!(f, "operator error: {e}"),
        }
    }
}

impl Error for RunNetworkError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunNetworkError::Op(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShapeMismatchError> for RunNetworkError {
    fn from(e: ShapeMismatchError) -> Self {
        RunNetworkError::Op(e)
    }
}

/// All per-layer outputs of a network run.
#[derive(Debug, Clone)]
pub struct NetworkActivations {
    outputs: Vec<(String, Tensor)>,
}

impl NetworkActivations {
    /// Assembles activations from `(layer name, output)` pairs in
    /// execution order.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is empty.
    pub(crate) fn from_outputs(outputs: Vec<(String, Tensor)>) -> Self {
        assert!(!outputs.is_empty(), "networks have at least one layer");
        Self { outputs }
    }

    /// Output of the named layer.
    pub fn get(&self, layer_name: &str) -> Option<&Tensor> {
        self.outputs.iter().find(|(n, _)| n == layer_name).map(|(_, t)| t)
    }

    /// The final network output.
    pub fn final_output(&self) -> &Tensor {
        // Non-empty by the `from_outputs` constructor invariant.
        &self.outputs.last().unwrap_or_else(|| unreachable!("networks have at least one layer")).1
    }

    /// Iterates `(layer name, output)` in execution order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.outputs.iter().map(|(n, t)| (n.as_str(), t))
    }
}

/// Incrementally builds [`NetworkActivations`] during a network run.
///
/// [`run_network_with`] and [`run_network_reference`] drive their layer loops
/// through this builder, and so can a caller that steps a network one
/// layer at a time (to time each layer, say): each layer's operands are
/// resolved **by reference** out of the map (no activation tensor is
/// cloned between layers), the layer's output is pushed, and
/// [`ActivationBuilder::finish`] yields the final artifact.
#[derive(Debug, Default)]
pub struct ActivationBuilder {
    outputs: Vec<(String, Tensor)>,
}

impl ActivationBuilder {
    /// Creates an empty builder sized for `layers` outputs.
    pub fn with_capacity(layers: usize) -> Self {
        Self { outputs: Vec::with_capacity(layers) }
    }

    /// Output of the named layer, if already produced.
    pub fn get(&self, layer_name: &str) -> Option<&Tensor> {
        self.outputs.iter().find(|(n, _)| n == layer_name).map(|(_, t)| t)
    }

    /// Resolves `layer`'s primary input: the output of the layer named by
    /// its `primary_input`, or the network input `image` when `None`.
    ///
    /// # Errors
    ///
    /// Returns [`RunNetworkError::MissingMergeInput`] when the named
    /// producer has not been executed.
    pub fn primary_input<'a>(
        &'a self,
        layer: &Layer,
        image: &'a Tensor,
    ) -> Result<&'a Tensor, RunNetworkError> {
        match &layer.primary_input {
            Some(name) => {
                self.get(name).ok_or_else(|| RunNetworkError::MissingMergeInput(layer.name.clone()))
            }
            None => Ok(image),
        }
    }

    /// Resolves `layer`'s merge operand: the recorded `extra_input`, the
    /// network input for an [`LayerOp::EltwiseAdd`] with no recorded
    /// source, or `None` for non-merge layers.
    ///
    /// # Errors
    ///
    /// Returns [`RunNetworkError::MissingMergeInput`] when the recorded
    /// branch has not been executed.
    pub fn merge_operand<'a>(
        &'a self,
        layer: &Layer,
        image: &'a Tensor,
    ) -> Result<Option<&'a Tensor>, RunNetworkError> {
        match &layer.extra_input {
            Some(name) => self
                .get(name)
                .map(Some)
                .ok_or_else(|| RunNetworkError::MissingMergeInput(layer.name.clone())),
            None => match layer.op {
                // EltwiseAdd with no recorded source adds the network input.
                LayerOp::EltwiseAdd => Ok(Some(image)),
                _ => Ok(None),
            },
        }
    }

    /// Records a layer's output.
    pub fn push(&mut self, layer_name: impl Into<String>, output: Tensor) {
        self.outputs.push((layer_name.into(), output));
    }

    /// Finishes the run.
    ///
    /// # Panics
    ///
    /// Panics if no layer output was pushed.
    pub fn finish(self) -> NetworkActivations {
        NetworkActivations::from_outputs(self.outputs)
    }
}

/// Looks up a compute layer's weights.
fn layer_weights<'a>(
    layer: &Layer,
    weights: &'a WeightStore,
) -> Result<&'a Filters, RunNetworkError> {
    weights.get(&layer.name).ok_or_else(|| RunNetworkError::MissingWeights(layer.name.clone()))
}

/// Runs every layer other than a convolution or fully-connected one.
/// Both network runners share these operators: pools, merges and
/// concatenation have one implementation each, not a fast/spec pair.
/// [`max_pool`]'s row-wise form is checked against the naive window loop
/// in `ops`' tests instead.
fn run_aux_layer(
    layer: &Layer,
    input: &Tensor,
    merge_operand: Option<&Tensor>,
) -> Result<Tensor, RunNetworkError> {
    match &layer.op {
        LayerOp::Pool { kind, kernel, stride, .. } => match kind {
            PoolKind::Max => Ok(max_pool(input, *kernel, *stride)?),
            PoolKind::Average => Ok(avg_pool(input, *kernel, *stride)?),
        },
        LayerOp::GlobalAvgPool => Ok(global_avg_pool(input)),
        LayerOp::EltwiseAdd => {
            let other = merge_operand
                .ok_or_else(|| RunNetworkError::MissingMergeInput(layer.name.clone()))?;
            Ok(eltwise_add(input, other)?)
        }
        LayerOp::Concat { .. } => {
            let other = merge_operand
                .ok_or_else(|| RunNetworkError::MissingMergeInput(layer.name.clone()))?;
            // Primary branch first, then the recorded extra branch — the
            // same convention `LayerOp::Concat::extra_channels` uses.
            Ok(Tensor::concat_channels(&[input, other]))
        }
        LayerOp::Conv(_) | LayerOp::FullyConnected { .. } => {
            unreachable!("compute layers are dispatched by the caller")
        }
    }
}

/// Runs one layer given its resolved input (and merge operand where
/// relevant), computing convolutions and FC layers on the GEMM fast path
/// with `jobs` workers (`0` = one per core). Results are bit-identical
/// to the reference operators ([`crate::ops`]) for every `jobs` value.
///
/// # Errors
///
/// Returns [`RunNetworkError`] when weights are missing or an operator
/// rejects its arguments.
pub fn run_layer_with(
    layer: &Layer,
    input: &Tensor,
    merge_operand: Option<&Tensor>,
    weights: &WeightStore,
    jobs: usize,
) -> Result<Tensor, RunNetworkError> {
    match &layer.op {
        LayerOp::Conv(spec) => {
            Ok(crate::gemm::conv2d_gemm(input, layer_weights(layer, weights)?, spec, jobs)?)
        }
        LayerOp::FullyConnected { .. } => {
            Ok(crate::gemm::fully_connected_gemm(input, layer_weights(layer, weights)?, jobs)?)
        }
        _ => run_aux_layer(layer, input, merge_operand),
    }
}

/// Runs one layer with the naive reference operators ([`crate::ops`]) —
/// the executable specification of [`run_layer_with`].
fn run_layer_reference(
    layer: &Layer,
    input: &Tensor,
    merge_operand: Option<&Tensor>,
    weights: &WeightStore,
) -> Result<Tensor, RunNetworkError> {
    match &layer.op {
        LayerOp::Conv(spec) => Ok(conv2d(input, layer_weights(layer, weights)?, spec)?),
        LayerOp::FullyConnected { .. } => {
            Ok(fully_connected(input, layer_weights(layer, weights)?)?)
        }
        _ => run_aux_layer(layer, input, merge_operand),
    }
}

/// Shared network walk: resolves each layer's operands by reference out
/// of the builder and delegates the layer computation to `run`.
fn run_network_inner(
    network: &Network,
    image: &Tensor,
    run: impl Fn(&Layer, &Tensor, Option<&Tensor>) -> Result<Tensor, RunNetworkError>,
) -> Result<NetworkActivations, RunNetworkError> {
    let mut acts = ActivationBuilder::with_capacity(network.layers().len());
    for layer in network.layers() {
        let input = acts.primary_input(layer, image)?;
        let merge = acts.merge_operand(layer, image)?;
        let out = run(layer, input, merge)?;
        acts.push(layer.name.clone(), out);
    }
    Ok(acts.finish())
}

/// Runs the whole network on `image` with the GEMM fast path, returning
/// every layer's output. `jobs` workers (`0` = one per core) split each
/// convolution and fully-connected layer into disjoint output ranges;
/// results are byte-identical for every `jobs` value.
///
/// The linearized-DAG convention of [`codesign_dnn::NetworkBuilder`] is
/// honored: each layer reads the output of the layer named by its
/// `primary_input` (or the network input when `None`), and merge layers
/// additionally read their `extra_input`.
///
/// # Errors
///
/// Returns [`RunNetworkError`] when weights are missing, a merge operand
/// cannot be resolved, or an operator rejects its arguments.
pub fn run_network_with(
    network: &Network,
    image: &Tensor,
    weights: &WeightStore,
    jobs: usize,
) -> Result<NetworkActivations, RunNetworkError> {
    run_network_inner(network, image, |layer, input, merge| {
        run_layer_with(layer, input, merge, weights, jobs)
    })
}

/// Runs the whole network with the naive reference operators — the
/// executable specification [`run_network_with`] is proven bit-identical
/// to (and the functional benchmark's baseline).
///
/// # Errors
///
/// Returns [`RunNetworkError`] under the same conditions as
/// [`run_network_with`].
pub fn run_network_reference(
    network: &Network,
    image: &Tensor,
    weights: &WeightStore,
) -> Result<NetworkActivations, RunNetworkError> {
    run_network_inner(network, image, |layer, input, merge| {
        run_layer_reference(layer, input, merge, weights)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::{NetworkBuilder, Shape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn runs_a_fire_network_end_to_end() {
        let net = NetworkBuilder::new("mini-squeeze", Shape::new(3, 16, 16))
            .conv("conv1", 8, 3, 2, 0)
            .fire("fire2", 4, 8, 8)
            .global_avg_pool("gap")
            .fully_connected("fc", 10)
            .finish()
            .unwrap();
        let mut r = rng();
        let weights = WeightStore::random(&net, 8, 0.4, &mut r);
        let image = Tensor::random(net.input(), 16, &mut r);
        let acts = run_network_with(&net, &image, &weights, 1).unwrap();
        assert_eq!(acts.final_output().shape(), Shape::vector(10));
        // Concat stacked both expands.
        assert_eq!(acts.get("fire2/concat").unwrap().shape().channels, 16);
    }

    #[test]
    fn concat_order_is_primary_then_extra() {
        let net =
            NetworkBuilder::new("t", Shape::new(2, 4, 4)).fire("f", 2, 3, 5).finish().unwrap();
        let mut r = rng();
        let weights = WeightStore::random(&net, 4, 0.0, &mut r);
        let image = Tensor::random(net.input(), 8, &mut r);
        let acts = run_network_with(&net, &image, &weights, 1).unwrap();
        let cat = acts.get("f/concat").unwrap();
        let e3 = acts.get("f/expand3x3").unwrap();
        let e1 = acts.get("f/expand1x1").unwrap();
        assert_eq!(cat.shape().channels, 8);
        // Primary input of concat is expand3x3 (the running branch).
        assert_eq!(cat.at(0, 1, 1), e3.at(0, 1, 1));
        assert_eq!(cat.at(5, 1, 1), e1.at(0, 1, 1));
    }

    #[test]
    fn residual_add_uses_recorded_branch() {
        let mut b = NetworkBuilder::new("res", Shape::new(4, 8, 8));
        b.conv("body", 4, 3, 1, 1);
        b.eltwise_add("add", None); // other operand: the network input
        let net = b.finish().unwrap();
        let mut r = rng();
        let weights = WeightStore::random(&net, 4, 0.0, &mut r);
        let image = Tensor::random(net.input(), 8, &mut r);
        let acts = run_network_with(&net, &image, &weights, 1).unwrap();
        let body = acts.get("body").unwrap();
        let add = acts.get("add").unwrap();
        assert_eq!(add.at(2, 3, 3), body.at(2, 3, 3) + image.at(2, 3, 3));
    }

    #[test]
    fn missing_weights_is_an_error() {
        let net =
            NetworkBuilder::new("t", Shape::new(1, 4, 4)).conv("c", 1, 1, 1, 0).finish().unwrap();
        let image = Tensor::zeros(net.input());
        let err = run_network_with(&net, &image, &WeightStore::new(), 1).unwrap_err();
        assert!(matches!(err, RunNetworkError::MissingWeights(_)));
        assert!(err.to_string().contains("`c`"));
    }

    #[test]
    fn weight_store_covers_compute_layers_only() {
        let net = NetworkBuilder::new("t", Shape::new(3, 8, 8))
            .conv("c", 4, 3, 1, 1)
            .max_pool("p", 2, 2)
            .global_avg_pool("g")
            .fully_connected("fc", 5)
            .finish()
            .unwrap();
        let ws = WeightStore::random(&net, 4, 0.0, &mut rng());
        assert_eq!(ws.len(), 2);
        assert!(ws.get("c").is_some());
        assert!(ws.get("p").is_none());
        assert!(!ws.is_empty());
    }
}
