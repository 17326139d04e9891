//! Streaming design-space-exploration workload: covers a ~10M-point
//! sweep space through the bounded-memory frontier pipeline with
//! dominance branch-and-bound enabled, and counts what it evaluated,
//! what it pruned, and the peak live frontier. `report --json` records
//! the counts; `perfbench` times the same space.
//!
//! The space is deliberately too large to materialize: the classic
//! `sweep_full_with` path would allocate one
//! [`DesignPoint`](codesign_core::DesignPoint) per grid point
//! (~gigabytes), while the streaming pipeline holds only the live
//! Pareto frontier plus one in-flight chunk. The long monotone buffer
//! axis is the shape branch-and-bound exists for — DRAM traffic is
//! non-increasing in buffer budget, so once the frontier has the
//! traffic plateau, whole buffer segments are provably dominated and
//! skipped without evaluation.

use codesign_arch::EnergyModel;
use codesign_core::{sweep_frontier_with, FrontierConfig, SweepSpace};
use codesign_dnn::{Network, NetworkBuilder, Shape};
use codesign_sim::{CancelToken, SimOptions, Simulator};

/// Counts of one streaming frontier sweep over a space.
#[derive(Debug, Clone, PartialEq)]
pub struct DseBench {
    /// Grid points in the swept space.
    pub points: u64,
    /// Points actually evaluated by the simulator.
    pub evaluated: u64,
    /// Points skipped by branch-and-bound dominance pruning.
    pub pruned: u64,
    /// Points whose configuration could not be built.
    pub skipped: u64,
    /// Points whose evaluation failed (expected 0).
    pub failed: u64,
    /// Pareto-optimal designs in the final frontier.
    pub frontier: usize,
    /// Largest number of design points held live at any moment — the
    /// bounded-memory claim, in points.
    pub peak_frontier: u64,
}

impl DseBench {
    /// Streaming chunk size. Small on purpose: more branch-and-bound
    /// decision points, which is the code path this space exercises.
    pub const CHUNK: usize = 32;
    /// Buffer-axis levels: 64 KiB up in 32-byte steps.
    pub const BUFFER_LEVELS: usize = 2_560_000;

    /// The swept network: one convolution, so every grid point is a
    /// single tiling search and the space isolates sweep-engine and
    /// pruning overhead rather than per-layer simulation cost.
    pub fn network() -> Network {
        let mut b = NetworkBuilder::new("dse-bench-conv", Shape::new(16, 32, 32));
        b.conv("c1", 32, 3, 1, 1);
        b.finish().expect("static bench network builds")
    }

    /// The swept space: 2 array edges x 2 register-file depths x 2.56M
    /// buffer levels = 10.24M grid points.
    pub fn space() -> SweepSpace {
        SweepSpace {
            array_sizes: vec![8, 16],
            rf_depths: vec![8, 16],
            buffer_bytes: (0..Self::BUFFER_LEVELS).map(|i| 64 * 1024 + 32 * i).collect(),
        }
    }

    /// Runs the pruned streaming frontier sweep over `space` on a
    /// cold-cache simulator with `jobs` workers. The counts do not
    /// depend on `jobs`.
    fn run_space(jobs: usize, network: &Network, space: &SweepSpace) -> Self {
        let config =
            FrontierConfig { jobs, chunk: Self::CHUNK, prune: true, ..FrontierConfig::default() };
        let out = sweep_frontier_with(
            &Simulator::new(),
            network,
            space,
            SimOptions::paper_default(),
            &EnergyModel::default(),
            &config,
            &CancelToken::never(),
            |_| {},
        )
        .expect("bench space is non-empty and never cancelled");
        let c = out.counters;
        Self {
            points: c.total,
            evaluated: c.evaluated,
            pruned: c.pruned,
            skipped: c.skipped,
            failed: c.failed,
            frontier: out.frontier.len(),
            peak_frontier: c.peak_frontier,
        }
    }

    /// Runs the headline 10.24M-point space.
    pub fn run(jobs: usize) -> Self {
        Self::run_space(jobs, &Self::network(), &Self::space())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_core::{pareto_designs, sweep_full_with};

    /// A thousand-point slice of the headline space: big enough that
    /// branch-and-bound finds the traffic plateau, small enough to
    /// cross-check against the materializing sweep.
    fn small_space() -> SweepSpace {
        SweepSpace {
            array_sizes: vec![8, 16],
            rf_depths: vec![8],
            buffer_bytes: (0..500).map(|i| 64 * 1024 + 4096 * i).collect(),
        }
    }

    #[test]
    fn bench_space_agrees_with_the_materializing_sweep() {
        let net = DseBench::network();
        let space = small_space();
        let b = DseBench::run_space(2, &net, &space);
        assert_eq!(b.points as usize, space.len());
        assert_eq!(b.evaluated + b.pruned + b.skipped + b.failed, b.points);
        assert_eq!(b.failed, 0, "bench space evaluates cleanly");
        assert!(b.pruned * 5 >= b.points, "plateau must prune 20%: {} of {}", b.pruned, b.points);
        assert!(b.peak_frontier >= b.frontier as u64);
        assert_eq!(DseBench::run_space(1, &net, &space), b, "counts must not depend on jobs");

        let batch = sweep_full_with(
            &Simulator::new(),
            &net,
            &space,
            SimOptions::paper_default(),
            &EnergyModel::default(),
            0,
        )
        .expect("batch sweep runs");
        let expected = pareto_designs(&batch.points);
        assert_eq!(b.frontier, expected.len(), "pruning changed the frontier");
    }
}
