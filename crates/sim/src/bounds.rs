//! Monotone DRAM-traffic lower bounds extracted from the tiling search.
//!
//! The streaming sweep's dominance branch-and-bound (in
//! `codesign-core`) prunes whole buffer-axis subtrees by evaluating one
//! *witness corner* per subtree. That is sound only because of two
//! monotonicity facts this module states as API and pins with tests:
//!
//! 1. **Traffic is non-increasing in the buffer budget.** A bigger
//!    working buffer admits a superset of feasible tilings, so the
//!    DRAM-minimal plan found by [`optimize_tiling`] can only improve
//!    (never regress) as the budget grows. The witness at a subtree's
//!    *largest* buffer therefore lower-bounds cycles and energy for
//!    every point in the subtree.
//! 2. **Traffic is bounded below by the operands-moved-once floor,**
//!    independent of the budget ([`traffic_lower_bound`]): no tiling
//!    moves less than each operand exactly once.
//!
//! [`optimize_tiling`]: crate::tiling::optimize_tiling

use codesign_arch::AcceleratorConfig;
use codesign_dnn::Network;

use crate::error::{SimError, SimResult};
use crate::tiling::traffic_lower_bound;
use crate::workload::ConvWork;

/// Budget-independent lower bound on the DRAM bytes any tiling of this
/// PE-array workload moves: every operand fetched or written exactly
/// once (plus nothing — the untiled plan has no halo, re-fetch, or
/// spill). See [`traffic_lower_bound`].
///
/// # Errors
///
/// [`SimError::InvalidWorkload`] / [`SimError::ArithmeticOverflow`] for
/// malformed or overflow-scale workloads.
pub fn layer_traffic_floor(work: &ConvWork, cfg: &AcceleratorConfig) -> SimResult<u64> {
    traffic_lower_bound(work, cfg)
}

/// Sum of [`layer_traffic_floor`] over every PE-array layer of the
/// network. Layers the array does not accelerate (pooling, element-wise,
/// concat) contribute nothing, so this is a *sound but loose* floor on
/// whole-network DRAM traffic at any buffer capacity.
///
/// # Errors
///
/// Propagates per-layer workload errors; [`SimError::ArithmeticOverflow`]
/// when the sum itself overflows.
pub fn network_traffic_floor(network: &Network, cfg: &AcceleratorConfig) -> SimResult<u64> {
    let mut total: u64 = 0;
    for layer in network.layers() {
        if let Some(work) = ConvWork::from_layer(layer) {
            let floor = layer_traffic_floor(&work, cfg).map_err(|e| e.for_layer(&layer.name))?;
            total = total
                .checked_add(floor)
                .ok_or_else(|| SimError::overflow("network DRAM traffic floor"))?;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::optimize_tiling;
    use crate::workload::WorkKind;
    use codesign_dnn::zoo;

    fn work(c: usize, k: usize, f: usize, hw: usize) -> ConvWork {
        ConvWork {
            kind: WorkKind::Dense,
            groups: 1,
            in_channels: c,
            out_channels: k,
            kernel_h: f,
            kernel_w: f,
            stride: 1,
            in_h: hw + f - 1,
            in_w: hw + f - 1,
            out_h: hw,
            out_w: hw,
        }
    }

    fn cfg_with_buffer(bytes: usize) -> AcceleratorConfig {
        AcceleratorConfig::builder()
            .global_buffer_bytes(bytes)
            .build()
            .expect("test buffer sizes are valid")
    }

    #[test]
    fn floor_bounds_every_budget_and_plans_are_monotone_in_budget() {
        // The two facts the sweep's branch-and-bound soundness argument
        // rests on, pinned across layer shapes and a sweep of budgets.
        let shapes = [
            work(16, 16, 3, 14),
            work(128, 128, 3, 56),
            work(512, 1000, 1, 13),
            work(64, 192, 3, 28),
        ];
        for w in &shapes {
            let mut prev: Option<u64> = None;
            for buf in [16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 512 * 1024, 4 << 20] {
                let cfg = cfg_with_buffer(buf);
                let floor = layer_traffic_floor(w, &cfg).unwrap();
                let Ok(plan) = optimize_tiling(w, &cfg) else { continue };
                let total = plan.traffic.total();
                assert!(floor <= total, "floor {floor} > plan {total} for {w:?} at {buf}B");
                if let Some(p) = prev {
                    assert!(
                        total <= p,
                        "traffic regressed with a bigger budget for {w:?} at {buf}B: {total} > {p}"
                    );
                }
                prev = Some(total);
            }
        }
    }

    #[test]
    fn floor_is_reached_once_the_layer_fits_untiled() {
        // A small layer fits untiled in the paper-default buffer, so the
        // optimal plan *achieves* the operands-once floor exactly.
        let w = work(16, 16, 3, 14);
        let cfg = AcceleratorConfig::paper_default();
        let floor = layer_traffic_floor(&w, &cfg).unwrap();
        let plan = optimize_tiling(&w, &cfg).unwrap();
        assert_eq!(floor, plan.traffic.total());
        assert_eq!(floor, (w.input_elements() + w.weight_elements() + w.output_elements()) * 2);
    }

    #[test]
    fn network_floor_sums_pe_array_layers() {
        let net = zoo::tiny_darknet();
        let cfg = AcceleratorConfig::paper_default();
        let total = network_traffic_floor(&net, &cfg).unwrap();
        let by_hand: u64 = net
            .layers()
            .iter()
            .filter_map(ConvWork::from_layer)
            .map(|w| layer_traffic_floor(&w, &cfg).unwrap())
            .sum();
        assert_eq!(total, by_hand);
        assert!(total > 0, "tiny-darknet has conv layers");
    }

    #[test]
    fn network_floor_is_budget_independent() {
        let net = zoo::squeezenet_v1_1();
        let small = network_traffic_floor(&net, &cfg_with_buffer(64 * 1024)).unwrap();
        let large = network_traffic_floor(&net, &cfg_with_buffer(1 << 20)).unwrap();
        assert_eq!(small, large, "the floor never consults the budget");
    }
}
