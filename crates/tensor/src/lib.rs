//! # codesign-tensor — functional ground truth
//!
//! A minimal integer tensor library with reference implementations of
//! every operator in the DNN IR, an independent im2col/GEMM convolution
//! for cross-checking, and a whole-network functional executor.
//!
//! The GEMM fast path must produce bit-identical results to the
//! reference operators such as [`ops::conv2d`], and so must the
//! workspace's test-only loop-nest walks of the Squeezelerator's WS and
//! OS schedules; the tests in this crate pin that ground truth down.
//!
//! # Examples
//!
//! ```
//! use codesign_dnn::{NetworkBuilder, Shape};
//! use codesign_tensor::{run_network_with, Tensor, WeightStore};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = NetworkBuilder::new("demo", Shape::new(3, 32, 32))
//!     .conv("conv1", 16, 3, 2, 1)
//!     .fire("fire2", 8, 16, 16)
//!     .global_avg_pool("gap")
//!     .fully_connected("fc", 10)
//!     .finish()?;
//! let weights = WeightStore::random(&net, 8, 0.4, &mut rng);
//! let image = Tensor::random(net.input(), 64, &mut rng);
//! let activations = run_network_with(&net, &image, &weights, 1)?;
//! assert_eq!(activations.final_output().shape(), Shape::vector(10));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod execute;
pub mod gemm;
pub mod im2col;
pub mod ops;
pub mod quant;
pub mod tensor;

pub use execute::{
    run_layer_with, run_network_reference, run_network_with, ActivationBuilder, NetworkActivations,
    RunNetworkError, WeightStore,
};
pub use gemm::{conv2d_gemm, fully_connected_gemm};
pub use im2col::conv2d_im2col;
pub use ops::ShapeMismatchError;
pub use quant::{sqnr_db, QuantScale};
pub use tensor::{Filters, Tensor};
