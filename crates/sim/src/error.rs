//! The simulation error taxonomy.
//!
//! Analytical estimators must reject infeasible (layer, configuration)
//! pairs deterministically rather than crash mid-sweep: one degenerate
//! point must not abort a whole parallel DSE run. Every fallible entry
//! point in this crate (`try_*` APIs) returns a typed [`SimError`];
//! the infallible convenience wrappers keep their historical signatures
//! and funnel through the single `SimError::raise` choke point so the
//! crate carries exactly one deliberate panic site.
//!
//! Error kinds map one-to-one onto the `sim.error.<kind>` trace
//! counters; [`SimError::kind`] returns the counter suffix.

use std::fmt;

/// Result alias used by every fallible simulation API.
pub type SimResult<T> = Result<T, SimError>;

/// Why a simulation request could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No tiling of the convolution loop nest fits the working buffer —
    /// even the smallest candidate tile exceeds the budget.
    InfeasibleTiling {
        /// Layer name, when known at the failure site.
        layer: Option<String>,
        /// Smallest achievable on-chip working set, in bytes.
        working_set: u64,
        /// The working-buffer budget it had to fit, in bytes.
        buffer: u64,
    },
    /// The layer's operation has no model on the requested path.
    UnsupportedLayer {
        /// Layer name.
        layer: String,
        /// The operation that has no model.
        op: String,
    },
    /// A cycle/traffic/MAC count does not fit the modeling range
    /// (64-bit with headroom for derived quantities).
    ArithmeticOverflow {
        /// Layer name, when known at the failure site.
        layer: Option<String>,
        /// Which computation overflowed.
        context: &'static str,
    },
    /// An on-chip resource requirement exceeds the hardware capacity.
    BufferExceeded {
        /// Layer name, when known at the failure site.
        layer: Option<String>,
        /// Bytes required.
        required: u64,
        /// Bytes available.
        capacity: u64,
    },
    /// The workload itself is malformed: zero or inconsistent
    /// dimensions, a kernel larger than its input, a zero batch…
    InvalidWorkload {
        /// Layer name, when known at the failure site.
        layer: Option<String>,
        /// Human-readable reason.
        reason: String,
    },
}

impl SimError {
    /// Stable machine-readable kind tag — also the suffix of the
    /// `sim.error.<kind>` trace counter bumped when a traced simulation
    /// surfaces this error.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::InfeasibleTiling { .. } => "infeasible_tiling",
            SimError::UnsupportedLayer { .. } => "unsupported_layer",
            SimError::ArithmeticOverflow { .. } => "arithmetic_overflow",
            SimError::BufferExceeded { .. } => "buffer_exceeded",
            SimError::InvalidWorkload { .. } => "invalid_workload",
        }
    }

    /// The layer this error is attributed to, if any.
    pub fn layer(&self) -> Option<&str> {
        match self {
            SimError::InfeasibleTiling { layer, .. }
            | SimError::ArithmeticOverflow { layer, .. }
            | SimError::BufferExceeded { layer, .. }
            | SimError::InvalidWorkload { layer, .. } => layer.as_deref(),
            SimError::UnsupportedLayer { layer, .. } => Some(layer),
        }
    }

    /// Attributes the error to `name` when the failure site did not know
    /// the layer (deeper layers work on anonymous [`crate::ConvWork`]s;
    /// the engine re-attaches the name on the way out).
    #[must_use]
    pub fn for_layer(mut self, name: &str) -> Self {
        match &mut self {
            SimError::InfeasibleTiling { layer, .. }
            | SimError::ArithmeticOverflow { layer, .. }
            | SimError::BufferExceeded { layer, .. }
            | SimError::InvalidWorkload { layer, .. } => {
                if layer.is_none() {
                    *layer = Some(name.to_owned());
                }
            }
            SimError::UnsupportedLayer { .. } => {}
        }
        self
    }

    /// Shorthand for an anonymous [`SimError::InvalidWorkload`].
    pub(crate) fn invalid(reason: impl Into<String>) -> Self {
        SimError::InvalidWorkload { layer: None, reason: reason.into() }
    }

    /// Shorthand for an anonymous [`SimError::ArithmeticOverflow`].
    pub(crate) fn overflow(context: &'static str) -> Self {
        SimError::ArithmeticOverflow { layer: None, context }
    }

    /// The crate's single deliberate panic site: the infallible
    /// convenience wrappers (kept for the paper-reproduction call sites,
    /// which only ever feed known-good workloads) delegate here when the
    /// underlying `try_*` API reports an error.
    #[allow(clippy::panic)]
    #[track_caller]
    pub(crate) fn raise(self) -> ! {
        panic!("{self}");
    }
}

fn with_layer(f: &mut fmt::Formatter<'_>, layer: &Option<String>) -> fmt::Result {
    match layer {
        Some(name) => write!(f, " in layer `{name}`"),
        None => Ok(()),
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InfeasibleTiling { layer, working_set, buffer } => {
                write!(f, "infeasible tiling")?;
                with_layer(f, layer)?;
                write!(
                    f,
                    ": smallest tile needs {working_set} B on chip but the working buffer \
                     holds {buffer} B"
                )
            }
            SimError::UnsupportedLayer { layer, op } => {
                write!(f, "unsupported layer `{layer}`: no model for {op} on this path")
            }
            SimError::ArithmeticOverflow { layer, context } => {
                write!(f, "arithmetic overflow")?;
                with_layer(f, layer)?;
                write!(f, ": {context} exceeds the 64-bit modeling range")
            }
            SimError::BufferExceeded { layer, required, capacity } => {
                write!(f, "buffer exceeded")?;
                with_layer(f, layer)?;
                write!(f, ": needs {required} B, capacity is {capacity} B")
            }
            SimError::InvalidWorkload { layer, reason } => {
                write!(f, "invalid workload")?;
                with_layer(f, layer)?;
                write!(f, ": {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Checked product of a dimension list, as `u64`.
pub(crate) fn checked_product(factors: &[usize], context: &'static str) -> SimResult<u64> {
    factors
        .iter()
        .try_fold(1u64, |acc, &f| acc.checked_mul(f as u64))
        .ok_or_else(|| SimError::overflow(context))
}

/// Headroom divisor: validated quantities must stay below
/// `u64::MAX / HEADROOM` so the small constant multipliers in the cycle
/// models (phase splits, access-count fan-out, DMA byte widths) cannot
/// push derived counts past 64 bits.
pub(crate) const HEADROOM: u64 = 1 << 10;

/// Checked product that additionally reserves [`HEADROOM`] for derived
/// quantities.
pub(crate) fn bounded_product(factors: &[usize], context: &'static str) -> SimResult<u64> {
    let v = checked_product(factors, context)?;
    if v > u64::MAX / HEADROOM {
        return Err(SimError::overflow(context));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        let all = [
            SimError::InfeasibleTiling { layer: None, working_set: 1, buffer: 1 },
            SimError::UnsupportedLayer { layer: "l".into(), op: "conv".into() },
            SimError::ArithmeticOverflow { layer: None, context: "macs" },
            SimError::BufferExceeded { layer: None, required: 2, capacity: 1 },
            SimError::invalid("zero"),
        ];
        let kinds: Vec<_> = all.iter().map(SimError::kind).collect();
        assert_eq!(
            kinds,
            [
                "infeasible_tiling",
                "unsupported_layer",
                "arithmetic_overflow",
                "buffer_exceeded",
                "invalid_workload"
            ]
        );
    }

    #[test]
    fn for_layer_fills_only_missing_names() {
        let e = SimError::invalid("zero dims").for_layer("conv1");
        assert_eq!(e.layer(), Some("conv1"));
        // A second attribution does not overwrite the first.
        let e = e.for_layer("conv2");
        assert_eq!(e.layer(), Some("conv1"));
        assert!(e.to_string().contains("conv1"));
    }

    #[test]
    fn display_names_the_failure() {
        let e = SimError::InfeasibleTiling { layer: Some("c".into()), working_set: 10, buffer: 4 };
        let s = e.to_string();
        assert!(s.contains("infeasible tiling") && s.contains("10 B") && s.contains("4 B"));
    }

    #[test]
    fn products_check_overflow() {
        assert_eq!(checked_product(&[3, 4, 5], "t").unwrap(), 60);
        assert!(checked_product(&[usize::MAX, usize::MAX], "t").is_err());
        assert!(bounded_product(&[usize::MAX / 4], "t").is_err(), "headroom reserved");
    }
}
