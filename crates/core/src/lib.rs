//! # codesign-core — the co-design engine
//!
//! The paper's primary contribution, built on the substrates: per-layer
//! hybrid dataflow scheduling (the Squeezelerator), whole-network
//! architecture comparison (Table 2), design-space exploration and the
//! RF tune-up, hardware-aware model transformations (the Figure-3
//! SqueezeNext variant ladder), accuracy/cost spectra and Pareto fronts
//! (Figure 4), and the per-layer-class dataflow advantage ranges
//! (§4.1.1).
//!
//! # Examples
//!
//! ```
//! use codesign_arch::{AcceleratorConfig, EnergyModel};
//! use codesign_core::compare_all;
//! use codesign_dnn::zoo;
//! use codesign_sim::{SimOptions, Simulator};
//!
//! let cfg = AcceleratorConfig::paper_default();
//! let rows = compare_all(
//!     &Simulator::new(),
//!     &[zoo::squeezenet_v1_1()],
//!     &cfg,
//!     SimOptions::paper_default(),
//!     EnergyModel::default(),
//!     1,
//! )?;
//! // The Squeezelerator is never slower than either fixed reference.
//! assert!(rows[0].speedup_vs_os() >= 1.0 && rows[0].speedup_vs_ws() >= 1.0);
//! # Ok::<(), codesign_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checkpoint;
pub mod codesign;
pub mod dse;
pub mod evaluate;
pub mod fusion;
pub mod pareto;
pub mod ranges;
pub mod roofline;
pub mod schedule;
pub mod select;
pub mod stream;

pub use checkpoint::CheckpointError;
pub use codesign::{CodesignStudy, ModelTransform, VariantResult};
pub use dse::{
    best_by_energy_delay, pareto_designs, sweep_full_with, DesignParams, DesignPoint,
    OnlineFrontier, PointFailure, SweepError, SweepOutcome, SweepSpace,
};
pub use evaluate::{compare_all, compare_networks_with, ArchitectureComparison, RelativeResult};
pub use fusion::{fusion_savings_with, plan_fusion, FusionGroup, FusionSavings};
pub use pareto::{pareto_front, spectrum_with, CostAxis, ModelPoint};
pub use ranges::{advantage_range_with, AdvantageRange};
pub use roofline::{machine_balance, roofline, Bound, LayerRoofline, NetworkRoofline};
pub use schedule::{schedule_sparsity_robustness_with, LayerScheduleEntry, NetworkSchedule};
pub use select::{select_model, Constraints};
pub use stream::{
    sweep_frontier_with, CheckpointConfig, FrontierConfig, FrontierEvent, FrontierOutcome,
    SweepCounters,
};
