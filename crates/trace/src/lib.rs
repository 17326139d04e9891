//! # codesign-trace — simulator observability
//!
//! A lightweight, dependency-free span/counter tracing layer for the
//! co-design toolkit, in the spirit of SCALE-Sim's cycle traces and
//! MAESTRO's per-dataflow counters: every per-layer simulation can emit
//! a span on a simulated-time (cycle) timeline carrying machine-readable
//! counters (cycles, MACs, DRAM bytes, buffer occupancy, cache
//! hits/misses), and whole runs aggregate into a deterministic metrics
//! snapshot.
//!
//! Design constraints, in order:
//!
//! * **zero-cost when disabled** — a [`Tracer::disabled`] handle is a
//!   `None`; every recording call is a branch on that option and
//!   returns immediately, so instrumented hot paths pay no allocation
//!   and no locking;
//! * **deterministic** — all timestamps are *simulated* cycles, never
//!   wall-clock; counters are `u64` (integer sums are order-independent,
//!   unlike floats); and tracks are canonically sorted at snapshot time,
//!   so neither thread ids nor scheduling order leak into any sink;
//! * **no dependencies** — vendored like `rand`/`proptest`; the JSON
//!   writers live in [`json`].
//!
//! Two sinks render a [`TraceData`] snapshot:
//!
//! * [`chrome::chrome_trace`] — Chrome `about:tracing` / Perfetto JSON;
//! * [`metrics::MetricsSnapshot`] — aggregated per-category totals.
//!
//! # Examples
//!
//! ```
//! use codesign_trace::{Category, Tracer};
//!
//! let tracer = Tracer::enabled();
//! let mut track = tracer.track("net:demo");
//! track.open("simulate", Category::Network);
//! track.leaf("conv1", Category::Layer, 120, &[("macs", 960)]);
//! track.leaf("pool1", Category::Layer, 30, &[("macs", 0)]);
//! track.close();
//! drop(track);
//!
//! let data = tracer.snapshot();
//! assert_eq!(data.tracks.len(), 1);
//! assert_eq!(data.tracks[0].spans[0].duration, 150);
//! let metrics = codesign_trace::MetricsSnapshot::of(&data);
//! assert_eq!(metrics.category_counter(Category::Layer, "macs"), Some(960));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod span;
pub mod tracer;

pub use chrome::chrome_trace;
pub use metrics::{CategoryMetrics, MetricsSnapshot};
pub use span::{Category, SpanRecord, Track, TrackData};
pub use tracer::{TraceData, Tracer};
