//! # codesign — co-design of deep neural nets and NN accelerators
//!
//! Facade crate for the reproduction of Kwon et al., *"Co-Design of Deep
//! Neural Nets and Neural Net Accelerators for Embedded Vision
//! Applications"* (DAC 2018). Re-exports the full API:
//!
//! * [`dnn`] — model IR, Table-1 accounting, and the model zoo;
//! * [`tensor`] — functional ground truth (reference operators, GEMM
//!   network executor);
//! * [`arch`] — accelerator hardware description and energy model;
//! * [`sim`] — the Squeezelerator performance/energy simulator
//!   (run-length dataflow schedules folded into analytic counts and
//!   machine traces);
//! * [`core`] — the co-design engine (hybrid scheduling, DSE, model
//!   transformations, Pareto analysis);
//! * [`trace`] — the observability layer (spans, counters, Chrome-trace
//!   and metrics sinks).
//!
//! # Examples
//!
//! ```
//! use codesign::arch::{AcceleratorConfig, DataflowPolicy};
//! use codesign::dnn::zoo;
//! use codesign::sim::{SimOptions, Simulator};
//!
//! let cfg = AcceleratorConfig::paper_default();
//! let perf = Simulator::new().try_simulate_network(
//!     &zoo::squeezenet_v1_0(),
//!     &cfg,
//!     DataflowPolicy::PerLayer,
//!     SimOptions::paper_default(),
//! )?;
//! println!("SqueezeNet v1.0: {:.2} ms", cfg.cycles_to_ms(perf.total_cycles()));
//! # Ok::<(), codesign::sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use codesign_arch as arch;
pub use codesign_core as core;
pub use codesign_dnn as dnn;
pub use codesign_sim as sim;
pub use codesign_tensor as tensor;
pub use codesign_trace as trace;
