//! Analytic no-local-reuse (NLR) dataflow model (DianNao-style, the
//! fourth entry of §3.2's taxonomy).
//!
//! NLR PEs have no register files: every operand streams from the global
//! buffer every cycle, so the datapath is gated by the buffer's port
//! width rather than by PE count. We model a wide unified SRAM that
//! delivers `port_width = 4·N` elements per cycle (DianNao's split
//! NBin/NBout/SB buffers are similarly wide relative to its adder
//! trees), feeding `N²` multipliers backed by adder trees.

use codesign_arch::{AcceleratorConfig, AccessCounts};

use crate::perf::{ComputePerf, PhaseCycles};
use crate::workload::ConvWork;

/// Elements per cycle the NLR buffer hierarchy can supply.
fn port_width(cfg: &AcceleratorConfig) -> u64 {
    4 * cfg.array_size() as u64
}

/// Simulates one layer's MAC work under the NLR dataflow.
///
/// Each MAC consumes one input and one weight from the buffer (partial
/// sums ride the adder trees), so the layer needs `2·MACs / port` cycles
/// of supply, floored by the pure compute time `MACs / N²`.
pub(crate) fn simulate_nlr(work: &ConvWork, cfg: &AcceleratorConfig) -> ComputePerf {
    let macs = work.macs();
    let supply = (2 * macs).div_ceil(port_width(cfg));
    let compute_floor = macs.div_ceil(cfg.pe_count() as u64);
    let compute = supply.max(compute_floor);
    let drain = work.output_elements().div_ceil(cfg.array_size() as u64);

    let accesses = AccessCounts {
        macs,
        register_file: 0, // NLR's defining property: no local storage
        inter_pe: macs,   // adder-tree hops
        global_buffer: 2 * macs + work.output_elements(),
        dram: 0,
    };
    ComputePerf { phases: PhaseCycles { load: 0, compute, drain }, executed_macs: macs, accesses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkKind;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_default()
    }

    fn dense(c: usize, k: usize, f: usize, oh: usize) -> ConvWork {
        ConvWork {
            kind: WorkKind::Dense,
            groups: 1,
            in_channels: c,
            out_channels: k,
            kernel_h: f,
            kernel_w: f,
            stride: 1,
            in_h: oh + f - 1,
            in_w: oh + f - 1,
            out_h: oh,
            out_w: oh,
        }
    }

    #[test]
    fn supply_bound_dominates_on_the_paper_array() {
        // 2 MACs of operands per cycle vs 128 elements/cycle of port:
        // only 64 of 1024 PEs can be fed.
        let w = dense(64, 64, 3, 28);
        let p = simulate_nlr(&w, &cfg());
        assert_eq!(p.phases.compute, (2 * w.macs()).div_ceil(128));
        let util = p.utilization(1024);
        assert!(util < 0.07, "NLR cannot keep a big array busy: {util:.3}");
    }

    #[test]
    fn no_register_file_accesses() {
        let p = simulate_nlr(&dense(16, 16, 3, 14), &cfg());
        assert_eq!(p.accesses.register_file, 0);
        assert_eq!(p.accesses.global_buffer, 2 * p.executed_macs + 16 * 14 * 14);
    }

    #[test]
    fn small_arrays_hit_the_compute_floor() {
        // On a 2x2 array the port (8/cycle) feeds all 4 PEs: compute bound.
        let tiny =
            AcceleratorConfig::builder().array_size(2).global_buffer_bytes(1024).build().unwrap();
        let w = dense(8, 8, 3, 10);
        let p = simulate_nlr(&w, &tiny);
        assert_eq!(p.phases.compute, w.macs().div_ceil(4));
    }

    #[test]
    fn executes_every_mac() {
        for w in [dense(3, 96, 7, 111), dense(512, 64, 1, 13)] {
            assert_eq!(simulate_nlr(&w, &cfg()).executed_macs, w.macs());
        }
    }
}
