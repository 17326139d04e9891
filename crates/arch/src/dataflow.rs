//! Dataflow taxonomy (after Eyeriss \[3\] and §3.2 of the paper).

use std::fmt;

/// The two dataflows the Squeezelerator supports, selectable per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dataflow {
    /// Weight stationary: PEs hold a tile of the (input-channel ×
    /// output-channel) weight matrix; activations stream through
    /// (TPU-style systolic matrix-vector).
    WeightStationary,
    /// Output stationary: PEs hold partial sums for a 2-D block of output
    /// pixels; weights broadcast one per cycle (ShiDianNao-style).
    OutputStationary,
}

impl Dataflow {
    /// Both dataflows, WS first.
    pub const ALL: [Dataflow; 2] = [Dataflow::WeightStationary, Dataflow::OutputStationary];

    /// Short tag used in reports ("WS" / "OS").
    pub const fn tag(&self) -> &'static str {
        match self {
            Dataflow::WeightStationary => "WS",
            Dataflow::OutputStationary => "OS",
        }
    }
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Which dataflows an accelerator instance may use.
///
/// The paper's reference architectures are the two fixed variants; the
/// Squeezelerator is [`DataflowPolicy::PerLayer`] ("the accelerator
/// architecture must be able to choose WS dataflow or OS on a layer by
/// layer basis", with no switching overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataflowPolicy {
    /// Every layer runs the given dataflow (the reference WS or OS
    /// architecture).
    Fixed(Dataflow),
    /// Each layer picks whichever dataflow simulates faster (the
    /// Squeezelerator).
    PerLayer,
}

impl DataflowPolicy {
    /// Human-readable name used in tables ("WS", "OS", "Squeezelerator").
    pub const fn name(&self) -> &'static str {
        match self {
            DataflowPolicy::Fixed(d) => d.tag(),
            DataflowPolicy::PerLayer => "Squeezelerator",
        }
    }
}

impl fmt::Display for DataflowPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags() {
        assert_eq!(Dataflow::WeightStationary.to_string(), "WS");
        assert_eq!(Dataflow::OutputStationary.to_string(), "OS");
        assert_eq!(DataflowPolicy::PerLayer.to_string(), "Squeezelerator");
        assert_eq!(DataflowPolicy::Fixed(Dataflow::WeightStationary).to_string(), "WS");
    }

    #[test]
    fn all_lists_both() {
        assert_eq!(Dataflow::ALL.len(), 2);
        assert_ne!(Dataflow::ALL[0], Dataflow::ALL[1]);
    }
}
