//! # codesign-sim — the Squeezelerator simulator
//!
//! Reimplementation of the paper's "performance estimator": per-layer
//! cycle, utilization, and energy modeling of an N×N-PE spatial
//! accelerator that can run each layer in weight-stationary (WS) or
//! output-stationary (OS) dataflow.
//!
//! Each dataflow's schedule (WS, OS with its FC path, RS) is written
//! once, as run-length steps: runs of identical schedule steps with
//! repeat counts, so tile loops cost O(distinct tile shapes) whatever the
//! channel count. Two views read those steps:
//!
//! * **analytic model** ([`ws`], [`os`], [`rs`], [`engine`]) — the steps
//!   folded into cycle and access counts; drives every table/figure
//!   reproduction;
//! * **machine traces** ([`cycle`]) — the same steps laid out on the PE
//!   array's phase timeline, read by the compiled command stream
//!   ([`program`]) and the VCD writer.
//!
//! Like the paper's estimator, the simulator models the array from its
//! schedule and computes no activations. The independent check is a
//! test-only loop-nest spec in the workspace's `tests/`: it walks every
//! schedule step literally, both folds must equal its counts, and its
//! WS/OS walks, given tensors, must compute the reference convolution
//! from `codesign-tensor`.
//!
//! Every simulation question — a layer, a network, a dataflow
//! comparison, a batched, multi-core or event-driven network, an
//! event-driven layer, the dataflow taxonomy, measured sparsity — is one
//! fallible method on a [`Simulator`] handle, which memoizes the cycle
//! model and the tiling search for all of them.
//!
//! # Examples
//!
//! ```
//! use codesign_arch::{AcceleratorConfig, DataflowPolicy};
//! use codesign_dnn::zoo;
//! use codesign_sim::{SimOptions, Simulator};
//!
//! let cfg = AcceleratorConfig::paper_default();
//! let net = zoo::squeezenet_v1_0();
//! let perf = Simulator::new().try_simulate_network(
//!     &net,
//!     &cfg,
//!     DataflowPolicy::PerLayer,
//!     SimOptions::default(),
//! )?;
//! assert!(perf.total_cycles() > 0);
//! # Ok::<(), codesign_sim::SimError>(())
//! ```

#![warn(missing_docs)]
// The worker pool (and the workspace's one documented `unsafe` block)
// moved to the `codesign-parallel` crate; this crate is unsafe-free.
#![forbid(unsafe_code)]

pub mod batch;
pub mod cache;
pub mod cancel;
pub mod compression;
pub mod cycle;
pub mod dram;
pub mod engine;
pub mod error;
pub mod event;
pub mod fsio;
pub mod multicore;
mod nlr;
pub mod os;
pub mod perf;
pub mod program;
pub mod rs;
pub mod simd;
pub mod snapshot;
pub mod sparsity;
mod steps;
pub mod taxonomy;
pub mod tiling;
pub mod validate;
pub mod workload;
pub mod ws;

pub use cache::{CacheStats, SimCache};
pub use cancel::CancelToken;
pub use compression::WeightCompression;
pub use engine::{SimOptions, Simulator, TrafficModel};
pub use error::{SimError, SimResult};
pub use event::{simulate_network_event, EventLayerResult, EventResult, TimeSkip};
pub use fsio::{
    atomic_write, fnv1a, generation_path, recover, scan_generations, seal, unseal,
    write_generation, Candidate, Corrupt, Decoder, FramingError, GenerationStore, Recovery,
    GENERATIONS_KEPT,
};
pub use multicore::MultiCoreConfig;
pub use os::{simulate_os, OsModelOptions, SparsityModel};
// The worker pool's entry points the rest of the workspace and the
// benchmark reach through this crate.
pub use codesign_parallel::{par_map, par_map_catch_range, pool_size, resolve_jobs};
pub use perf::{ComputePerf, LayerPerf, NetworkPerf, PhaseCycles};
pub use program::{Command, LayerProgram, Program};
pub use rs::simulate_rs;
pub use snapshot::{SnapshotError, SnapshotStats, SNAPSHOT_VERSION};
pub use sparsity::{measure_sparsity, SparsityMap};
pub use taxonomy::{TaxonomyComparison, TaxonomyDataflow};
pub use tiling::{optimize_tiling, optimize_tiling_exhaustive, LoopOrder, Tiling, TilingPlan};
pub use validate::validate_network;
pub use workload::{ConvWork, WorkKind};
pub use ws::simulate_ws;
