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
//! channel count. Three views read those steps:
//!
//! * **analytic model** ([`ws`], [`os`], [`rs`], [`engine`]) — the steps
//!   folded into cycle and access counts; drives every table/figure
//!   reproduction;
//! * **machine traces** ([`cycle`]) — the same steps laid out on the PE
//!   array's phase timeline, read by the compiled command stream
//!   ([`program`]) and the VCD writer;
//! * **functional executors** ([`functional`]) — run the WS/OS schedules'
//!   tiling over real tensors and must bit-match the reference
//!   convolution from `codesign-tensor`.
//!
//! The independent check is a test-only loop-nest spec in the workspace's
//! `tests/`: it walks every schedule step literally, both folds must
//! equal its counts, and its WS/OS walks must compute the reference
//! convolution.
//!
//! # Examples
//!
//! ```
//! use codesign_arch::{AcceleratorConfig, DataflowPolicy};
//! use codesign_dnn::zoo;
//! use codesign_sim::{simulate_network, SimOptions};
//!
//! let cfg = AcceleratorConfig::paper_default();
//! let net = zoo::squeezenet_v1_0();
//! let perf = simulate_network(&net, &cfg, DataflowPolicy::PerLayer, SimOptions::default());
//! assert!(perf.total_cycles() > 0);
//! ```

#![warn(missing_docs)]
// The worker pool (and the workspace's one documented `unsafe` block)
// moved to the `codesign-parallel` crate; this crate is unsafe-free.
#![forbid(unsafe_code)]

pub mod batch;
pub mod bounds;
pub mod cache;
pub mod cancel;
pub mod compression;
pub mod cycle;
pub mod dram;
pub mod engine;
pub mod error;
pub mod event;
pub mod faultinject;
pub mod fsio;
pub mod functional;
pub mod multicore;
pub mod nlr;
pub mod os;
pub mod parallel;
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

pub use batch::{
    simulate_layer_batched, simulate_network_batched, try_simulate_layer_batched,
    try_simulate_network_batched,
};
pub use bounds::{layer_traffic_floor, network_traffic_floor};
pub use cache::{CacheStats, SimCache};
pub use cancel::CancelToken;
pub use compression::WeightCompression;
pub use engine::{
    aggregate_cache_stats, compare_dataflows, record_network, simulate_conv, simulate_layer,
    simulate_network, try_compare_dataflows, try_simulate_conv, try_simulate_layer,
    try_simulate_network, SimOptions, Simulator, TrafficModel,
};
pub use error::{SimError, SimResult};
pub use event::{
    simulate_layer_event, simulate_network_event, try_simulate_layer_event,
    try_simulate_network_event, try_simulate_network_event_mode, EventLayerResult, EventResult,
    TimeSkip,
};
pub use faultinject::{run_corpus, CaseOutcome, FaultCase, FaultReport};
pub use fsio::{
    atomic_write, fnv1a, generation_path, recover, scan_generations, seal, unseal,
    write_generation, Candidate, Corrupt, Decoder, FramingError, GenerationStore, Recovery,
    GENERATIONS_KEPT,
};
pub use functional::{
    conv2d_os, conv2d_os_jobs, conv2d_ws, conv2d_ws_jobs, fc_ws, fc_ws_jobs,
    run_network_on_accelerator, run_network_on_accelerator_jobs,
};
pub use multicore::{
    schedule_branch_parallel, simulate_network_multicore, try_simulate_network_multicore,
    BranchParallelResult, MultiCoreConfig,
};
pub use nlr::simulate_nlr;
pub use os::{simulate_os, OsModelOptions, SparsityModel};
pub use parallel::{
    max_jobs, par_map, par_map_catch, par_map_catch_range, par_map_range, pool_size, resolve_jobs,
    MAX_POOL_WORKERS,
};
pub use perf::{ComputePerf, LayerPerf, NetworkPerf, PhaseCycles};
pub use program::{Command, LayerProgram, Program};
pub use rs::simulate_rs;
pub use snapshot::{SnapshotError, SnapshotStats, SNAPSHOT_VERSION};
pub use sparsity::{measure_sparsity, simulate_network_measured, SparsityMap};
pub use taxonomy::{compare_taxonomy, try_compare_taxonomy, TaxonomyComparison, TaxonomyDataflow};
pub use tiling::{
    optimize_tiling, optimize_tiling_exhaustive, traffic_lower_bound, LoopOrder, Tiling, TilingPlan,
};
pub use validate::{validate_network, validate_network_all, ValidationIssue};
pub use workload::{ConvWork, WorkKind};
pub use ws::simulate_ws;
