//! Loop-tiling search for layers whose footprint exceeds the global
//! buffer.
//!
//! §4.1.3 of the paper: "If the memory footprint of the layer exceeds the
//! capacity of the buffer, some of the six convolution loops are tiled.
//! The size of the tile and the order of loops that give the shortest
//! execution time are selected."
//!
//! The six loops are (output channel K, input channel C, output row,
//! output column, kernel row, kernel column). Kernel loops are never
//! worth tiling (tiny extent), and columns are kept whole so DMA bursts
//! stay contiguous; the search therefore tiles **output rows**, **output
//! channels**, and **input channels**, and picks between the two loop
//! orders that matter for DRAM traffic:
//!
//! * **weights outer** — each weight tile visits every spatial strip:
//!   inputs are fetched once per output-channel tile;
//! * **spatial outer** — each strip visits every weight tile: weights
//!   are fetched once per strip.
//!
//! Tiling the input-channel loop spills partial sums: every non-final
//! input-channel tile writes and re-reads the output strip once.

use codesign_arch::AcceleratorConfig;

use crate::dram::DramTraffic;
use crate::error::{checked_product, SimError, SimResult};
use crate::workload::{ConvWork, WorkKind};

/// Which of the two traffic-relevant loop orders a tiling uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopOrder {
    /// Output-channel tiles outermost; input re-fetched per weight tile.
    WeightsOuter,
    /// Spatial strips outermost; weights re-fetched per strip.
    SpatialOuter,
}

/// A concrete tiling of the convolution loop nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tiling {
    /// Output rows per spatial strip.
    pub out_rows: usize,
    /// Output channels per weight tile.
    pub out_channels: usize,
    /// Input channels per reduction tile.
    pub in_channels: usize,
    /// Loop order.
    pub order: LoopOrder,
}

/// A tiling together with its DRAM cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TilingPlan {
    /// The chosen tiling.
    pub tiling: Tiling,
    /// Resulting DRAM traffic.
    pub traffic: DramTraffic,
    /// Peak on-chip working set in bytes (≤ the working buffer).
    pub working_set: u64,
}

fn candidates(extent: usize) -> Vec<usize> {
    let mut v = vec![extent];
    let mut c = 1usize;
    while c < extent {
        v.push(c);
        c *= 2;
    }
    v.sort_unstable();
    v.dedup();
    v
}

/// On-chip bytes needed by one tile of the given tiling
/// (overflow-checked — overflow-scale tiles report honestly instead of
/// wrapping).
fn working_set(work: &ConvWork, t: &Tiling, bytes: usize) -> SimResult<u64> {
    let in_rows = (t.out_rows - 1) * work.stride + work.kernel_h;
    let input = checked_product(&[t.in_channels, in_rows, work.in_w], "tile input footprint")?;
    let weights = match work.kind {
        WorkKind::Depthwise => checked_product(&[t.in_channels, work.taps()], "tile weights")?,
        _ => checked_product(&[t.in_channels, t.out_channels, work.taps()], "tile weights")?,
    };
    let output =
        checked_product(&[t.out_channels, t.out_rows, work.out_w], "tile output footprint")?;
    input
        .checked_add(weights)
        .and_then(|s| s.checked_add(output))
        .and_then(|s| s.checked_mul(bytes as u64))
        .ok_or_else(|| SimError::overflow("tile working set"))
}

/// DRAM traffic of the tiling over the whole layer, every group
/// included. Overflow-checked down to the total, so
/// [`DramTraffic::total`] cannot wrap on any plan a search returns.
fn traffic(work: &ConvWork, t: &Tiling, bytes: u64) -> SimResult<DramTraffic> {
    const CTX: &str = "tiling DRAM traffic";
    let of = || SimError::overflow(CTX);
    let strips = work.out_h.div_ceil(t.out_rows) as u64;
    let k_tiles = work.out_channels.div_ceil(t.out_channels) as u64;
    let c_tiles = work.in_channels.div_ceil(t.in_channels) as u64;

    // Halo: adjacent strips re-fetch kernel_h - stride overlapping rows.
    let in_rows_per_strip = |rows: usize| (rows - 1) * work.stride + work.kernel_h;
    let input_once: u64 = if strips == 1 {
        work.input_elements() / work.groups as u64
    } else {
        let full_rows = in_rows_per_strip(t.out_rows);
        checked_product(&[work.in_channels, full_rows, work.in_w], CTX)?
            .checked_mul(strips)
            .ok_or_else(of)?
    };
    let weights_once = match work.kind {
        WorkKind::Depthwise => checked_product(&[work.in_channels, work.taps()], CTX)?,
        _ => checked_product(&[work.in_channels, work.out_channels, work.taps()], CTX)?,
    };
    let output_once = work.output_elements() / work.groups as u64;

    // Elements one group moves. Depthwise layers have no cross-channel
    // reduction and one filter per channel: each operand moves exactly
    // once however the channel and spatial loops nest (only the strip
    // halo costs extra).
    let (input, weights, output) = if work.kind == WorkKind::Depthwise {
        (input_once, weights_once, output_once)
    } else {
        let (input, weights) = match t.order {
            LoopOrder::WeightsOuter => {
                (input_once.checked_mul(k_tiles).ok_or_else(of)?, weights_once)
            }
            LoopOrder::SpatialOuter => {
                (input_once, weights_once.checked_mul(strips).ok_or_else(of)?)
            }
        };
        // Partial-sum spills for a tiled reduction loop.
        let spill = output_once.checked_mul(2 * (c_tiles - 1)).ok_or_else(of)?;
        (input, weights, output_once.checked_add(spill).ok_or_else(of)?)
    };
    // Groups scale every operand linearly.
    let bytes_of = |elements: u64| {
        elements.checked_mul(bytes).and_then(|b| b.checked_mul(work.groups as u64)).ok_or_else(of)
    };
    let traffic = DramTraffic {
        input: bytes_of(input)?,
        weights: bytes_of(weights)?,
        output: bytes_of(output)?,
    };
    traffic
        .input
        .checked_add(traffic.weights)
        .and_then(|s| s.checked_add(traffic.output))
        .ok_or_else(of)?;
    Ok(traffic)
}

/// Number of tile iterations a tiling induces (tie-break metric: fewer,
/// larger tiles mean less control overhead).
fn tile_count(work: &ConvWork, t: &Tiling) -> u64 {
    (work.out_h.div_ceil(t.out_rows)
        * work.out_channels.div_ceil(t.out_channels)
        * work.in_channels.div_ceil(t.in_channels)) as u64
}

/// Builds the full [`TilingPlan`] for one candidate and folds it into the
/// running best under the selection rule both searches share: strictly
/// less total traffic wins, equal traffic falls back to strictly fewer
/// tiles, and exact ties keep the first candidate encountered.
fn consider(
    work: &ConvWork,
    t: Tiling,
    ws: u64,
    bytes: usize,
    best: &mut Option<TilingPlan>,
) -> SimResult<()> {
    let plan = TilingPlan { tiling: t, traffic: traffic(work, &t, bytes as u64)?, working_set: ws };
    let better = |b: &TilingPlan| {
        plan.traffic.total() < b.traffic.total()
            || (plan.traffic.total() == b.traffic.total()
                && tile_count(work, &t) < tile_count(work, &b.tiling))
    };
    if best.as_ref().is_none_or(better) {
        *best = Some(plan);
    }
    Ok(())
}

/// Lower bound on the total traffic of *any* candidate with this strip
/// height: the full-channel tile `(out_rows, K, C)` moves every operand
/// exactly once (plus the strip halo), and shrinking the channel tiles
/// only adds re-fetches and partial-sum spills — `traffic` is
/// non-increasing in both channel-tile sizes for every loop order.
fn lower_bound_rows(work: &ConvWork, out_rows: usize, bytes: usize) -> SimResult<u64> {
    let t = Tiling {
        out_rows,
        out_channels: work.out_channels,
        in_channels: work.in_channels,
        order: LoopOrder::WeightsOuter,
    };
    Ok(traffic(work, &t, bytes as u64)?.total())
}

/// Lower bound on the total traffic of any candidate with this strip
/// height *and* output-channel tile: evaluate both loop orders at the
/// full input-channel tile (no spills, minimal re-fetch) and take the
/// cheaper one.
fn lower_bound_rows_channels(
    work: &ConvWork,
    out_rows: usize,
    out_channels: usize,
    bytes: usize,
) -> SimResult<u64> {
    let t = |order| Tiling { out_rows, out_channels, in_channels: work.in_channels, order };
    let wo = traffic(work, &t(LoopOrder::WeightsOuter), bytes as u64)?;
    let so = traffic(work, &t(LoopOrder::SpatialOuter), bytes as u64)?;
    Ok(wo.total().min(so.total()))
}

/// Searches tile sizes and loop orders for the DRAM-minimal plan that
/// fits the working buffer.
///
/// This is the branch-and-bound search on the sweep hot path. It walks
/// the same candidate grid as [`optimize_tiling_exhaustive`] in the same
/// order and applies the same selection rule, but skips candidates that
/// provably cannot win using two monotonicity facts and one dominance
/// fact:
///
/// * the working set is non-decreasing in every tile dimension, so a
///   sub-grid whose smallest tile already overflows the buffer is
///   entirely infeasible;
/// * total traffic is non-increasing in both channel-tile dimensions
///   (shrinking them only adds re-fetches and spills), so the
///   full-channel tile bounds every candidate sharing its strip height
///   from below;
/// * for one strip height and output-channel tile, the largest
///   input-channel tile that fits dominates every smaller one. Over the
///   candidates `1, 2, 4, …, C` a larger tile means strictly fewer
///   reduction tiles, hence strictly less partial-sum spill traffic
///   (dense, grouped and FC work) or equal traffic and fewer tiles
///   (depthwise), so a smaller tile can neither win nor tie. Only the
///   largest is evaluated, in both loop orders.
///
/// Pruning compares with *strict* inequality against the best total seen
/// so far, so equal-traffic candidates still reach the tile-count
/// tie-break and the chosen plan is bit-identical to the exhaustive
/// search. `crates/sim/tests/tiling_equivalence.rs` property-tests this
/// over arbitrary shapes and configurations, and the unit test
/// `pruned_matches_exhaustive_on_every_zoo_layer` over every zoo layer.
///
/// # Errors
///
/// * [`SimError::InvalidWorkload`] / [`SimError::ArithmeticOverflow`]
///   for malformed or overflow-scale workloads
///   (see [`ConvWork::validate`]);
/// * [`SimError::InfeasibleTiling`] when even the smallest candidate
///   tile exceeds the working buffer (a huge layer on a tiny buffer) —
///   the error reports the smallest achievable working set so sweeps
///   can record *how far* the point missed.
pub fn optimize_tiling(work: &ConvWork, cfg: &AcceleratorConfig) -> SimResult<TilingPlan> {
    #[cfg(test)]
    SEARCHES.with(|n| n.set(n.get() + 1));
    work.validate()?;
    let bytes = cfg.bytes_per_element();
    let budget = cfg.working_buffer_bytes() as u64;
    let row_cands = candidates(work.out_h);
    let k_cands = candidates(work.out_channels);
    let c_cands = candidates(work.in_channels);

    // Seed an upper bound on the winning total before the scan: every
    // strip height whose full-channel tile fits contributes a *feasible*
    // plan whose total equals that strip height's lower bound, so the
    // minimum over them already caps the optimum and prunes most of the
    // grid up front (ascending iteration otherwise visits the
    // worst-traffic tiny tiles first).
    let mut bound: Option<u64> = None;
    for &out_rows in &row_cands {
        let full = Tiling {
            out_rows,
            out_channels: work.out_channels,
            in_channels: work.in_channels,
            order: LoopOrder::WeightsOuter,
        };
        if working_set(work, &full, bytes)? <= budget {
            // An overflowing bound just means "no bound": pruning is an
            // optimization and must never surface an error the
            // exhaustive search would not.
            if let Ok(lb) = lower_bound_rows(work, out_rows, bytes) {
                if bound.is_none_or(|b| lb < b) {
                    bound = Some(lb);
                }
            }
        }
    }

    let mut best: Option<TilingPlan> = None;
    let mut smallest_ws: Option<u64> = None;
    for &out_rows in &row_cands {
        // Feasibility floor: the working set is non-decreasing in both
        // channel tiles, so if (out_rows, 1, 1) overflows the buffer the
        // whole strip height is infeasible. The floor at out_rows = 1 is
        // the global minimum, keeping the infeasibility diagnostic
        // identical to the exhaustive search's.
        let floor = working_set(
            work,
            &Tiling { out_rows, out_channels: 1, in_channels: 1, order: LoopOrder::WeightsOuter },
            bytes,
        )?;
        if smallest_ws.is_none_or(|s| floor < s) {
            smallest_ws = Some(floor);
        }
        if floor > budget {
            continue;
        }
        let cap = match (bound, best.as_ref().map(|b| b.traffic.total())) {
            (Some(u), Some(t)) => Some(u.min(t)),
            (u, t) => u.or(t),
        };
        if let Some(cap) = cap {
            if lower_bound_rows(work, out_rows, bytes).is_ok_and(|lb| lb > cap) {
                continue;
            }
        }
        for &out_channels in &k_cands {
            let t1 =
                Tiling { out_rows, out_channels, in_channels: 1, order: LoopOrder::WeightsOuter };
            let ws1 = working_set(work, &t1, bytes)?;
            if ws1 > budget {
                break; // monotone in the output-channel tile; candidates ascend
            }
            let cap = match (bound, best.as_ref().map(|b| b.traffic.total())) {
                (Some(u), Some(t)) => Some(u.min(t)),
                (u, t) => u.or(t),
            };
            if let Some(cap) = cap {
                if lower_bound_rows_channels(work, out_rows, out_channels, bytes)
                    .is_ok_and(|lb| lb > cap)
                {
                    continue;
                }
            }
            // The largest fitting input-channel tile dominates every
            // smaller one (third fact above), so only it is considered.
            let (mut t, mut ws) = (t1, ws1);
            for &in_channels in &c_cands[1..] {
                let next = Tiling { in_channels, ..t1 };
                let next_ws = working_set(work, &next, bytes)?;
                if next_ws > budget {
                    break; // monotone in the input-channel tile
                }
                (t, ws) = (next, next_ws);
            }
            consider(work, t, ws, bytes, &mut best)?;
            consider(work, Tiling { order: LoopOrder::SpatialOuter, ..t }, ws, bytes, &mut best)?;
        }
    }
    best.ok_or_else(|| SimError::InfeasibleTiling {
        layer: None,
        working_set: smallest_ws.unwrap_or(0),
        buffer: budget,
    })
}

#[cfg(test)]
thread_local! {
    /// [`optimize_tiling`] calls made on this thread, so tests can count
    /// the searches behind a simulation.
    pub(crate) static SEARCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The reference exhaustive search: every candidate tiling of every loop
/// order, no pruning. [`optimize_tiling`] must return exactly this
/// function's result (or error) on every input — kept as the executable
/// specification the pruned-vs-exhaustive property test compares
/// against. Not on any hot path.
///
/// # Errors
///
/// Same contract as [`optimize_tiling`].
pub fn optimize_tiling_exhaustive(
    work: &ConvWork,
    cfg: &AcceleratorConfig,
) -> SimResult<TilingPlan> {
    work.validate()?;
    let bytes = cfg.bytes_per_element();
    let budget = cfg.working_buffer_bytes() as u64;
    let mut best: Option<TilingPlan> = None;
    let mut smallest_ws: Option<u64> = None;

    for &out_rows in &candidates(work.out_h) {
        for &out_channels in &candidates(work.out_channels) {
            for &in_channels in &candidates(work.in_channels) {
                for order in [LoopOrder::WeightsOuter, LoopOrder::SpatialOuter] {
                    let t = Tiling { out_rows, out_channels, in_channels, order };
                    let ws = working_set(work, &t, bytes)?;
                    if smallest_ws.is_none_or(|s| ws < s) {
                        smallest_ws = Some(ws);
                    }
                    if ws > budget {
                        continue;
                    }
                    consider(work, t, ws, bytes, &mut best)?;
                }
            }
        }
    }
    best.ok_or_else(|| SimError::InfeasibleTiling {
        layer: None,
        working_set: smallest_ws.unwrap_or(0),
        buffer: budget,
    })
}

/// The smallest on-chip working set any candidate tiling of `work`
/// achieves — the quantity pre-flight buffer-feasibility validation
/// compares against the working buffer.
pub(crate) fn min_working_set(work: &ConvWork, cfg: &AcceleratorConfig) -> SimResult<u64> {
    work.validate()?;
    // The minimum lies at the all-ones tile (smallest extent on every
    // tiled loop); loop order does not affect the footprint.
    let t = Tiling { out_rows: 1, out_channels: 1, in_channels: 1, order: LoopOrder::WeightsOuter };
    working_set(work, &t, cfg.bytes_per_element())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_default()
    }

    #[test]
    fn small_layer_is_untiled() {
        let w = work(16, 16, 3, 14);
        let plan = optimize_tiling(&w, &cfg()).unwrap();
        assert_eq!(plan.tiling.out_rows, 14);
        assert_eq!(plan.tiling.out_channels, 16);
        assert_eq!(plan.tiling.in_channels, 16);
        // Minimal traffic: each operand exactly once.
        assert_eq!(plan.traffic.input, w.input_elements() * 2);
        assert_eq!(plan.traffic.weights, w.weight_elements() * 2);
        assert_eq!(plan.traffic.output, w.output_elements() * 2);
        assert!(plan.working_set <= cfg().working_buffer_bytes() as u64);
    }

    #[test]
    fn big_layer_fits_after_tiling() {
        // 128x56x56 in, 128 filters of 3x3: ~780 KB input, far over 64 KB.
        let w = work(128, 128, 3, 56);
        let plan = optimize_tiling(&w, &cfg()).unwrap();
        assert!(plan.working_set <= cfg().working_buffer_bytes() as u64);
        assert!(
            plan.tiling.out_rows < 56
                || plan.tiling.out_channels < 128
                || plan.tiling.in_channels < 128
        );
        // Weights fit easily (288 KB? no: 9*128*128*2 = 288 KB > 64 KB),
        // so some re-fetch is inevitable; but the search must beat the
        // worst naive plan (input x all k-tiles with tiny tiles).
        assert!(plan.traffic.total() < 10 * (w.input_elements() + w.weight_elements()) * 2);
    }

    #[test]
    fn search_beats_or_matches_the_closed_form() {
        let cfg = cfg();
        for w in [work(128, 128, 3, 56), work(512, 1000, 1, 13), work(64, 192, 3, 28)] {
            let plan = optimize_tiling(&w, &cfg).unwrap();
            let closed = crate::dram::conv_traffic(&w, &cfg).unwrap();
            assert!(
                plan.traffic.total() <= closed.total(),
                "search {} should beat closed form {} for {w:?}",
                plan.traffic.total(),
                closed.total()
            );
        }
    }

    #[test]
    fn reduction_tiling_costs_spills() {
        let w = work(64, 64, 3, 28);
        let t_full = Tiling {
            out_rows: 28,
            out_channels: 64,
            in_channels: 64,
            order: LoopOrder::WeightsOuter,
        };
        let t_split = Tiling { in_channels: 32, ..t_full };
        let full = traffic(&w, &t_full, 2).unwrap();
        let split = traffic(&w, &t_split, 2).unwrap();
        assert_eq!(split.output, full.output + 2 * w.output_elements() * 2);
    }

    #[test]
    fn loop_orders_trade_input_for_weight_refetch() {
        let w = work(64, 256, 3, 28);
        let t = |order| Tiling { out_rows: 7, out_channels: 64, in_channels: 64, order };
        let wo = traffic(&w, &t(LoopOrder::WeightsOuter), 2).unwrap();
        let so = traffic(&w, &t(LoopOrder::SpatialOuter), 2).unwrap();
        assert!(wo.input > so.input);
        assert!(wo.weights < so.weights);
    }

    #[test]
    fn depthwise_weights_are_tiny() {
        let w = ConvWork {
            kind: WorkKind::Depthwise,
            groups: 1,
            in_channels: 512,
            out_channels: 512,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            in_h: 16,
            in_w: 16,
            out_h: 14,
            out_w: 14,
        };
        let plan = optimize_tiling(&w, &cfg()).unwrap();
        assert_eq!(plan.traffic.weights, 512 * 9 * 2);
    }

    #[test]
    fn impossible_budget_is_a_typed_error() {
        let tiny = AcceleratorConfig::builder()
            .array_size(2)
            .global_buffer_bytes(64)
            .double_buffering(false)
            .build()
            .unwrap();
        let w = work(256, 256, 3, 56);
        match optimize_tiling(&w, &tiny) {
            Err(SimError::InfeasibleTiling { layer, working_set, buffer }) => {
                assert_eq!(layer, None, "anonymous at this level; engine attaches the name");
                assert!(working_set > buffer, "{working_set} must exceed {buffer}");
                assert_eq!(working_set, min_working_set(&w, &tiny).unwrap());
            }
            other => panic!("expected InfeasibleTiling, got {other:?}"),
        }
    }

    #[test]
    fn min_working_set_is_a_lower_bound_on_plans() {
        let w = work(128, 128, 3, 56);
        let cfg = cfg();
        let floor = min_working_set(&w, &cfg).unwrap();
        let plan = optimize_tiling(&w, &cfg).unwrap();
        assert!(floor <= plan.working_set);
    }

    #[test]
    fn degenerate_work_is_rejected_before_the_search() {
        let mut w = work(16, 16, 3, 14);
        w.out_h = 0;
        assert!(matches!(optimize_tiling(&w, &cfg()), Err(SimError::InvalidWorkload { .. })));
    }

    #[test]
    fn pruned_matches_exhaustive_on_representative_shapes() {
        let shapes = [
            work(16, 16, 3, 14),   // fits untiled
            work(128, 128, 3, 56), // needs tiling
            work(512, 1000, 1, 13),
            work(64, 192, 3, 28),
            work(3, 96, 7, 111),   // first-conv-like, few input channels
            work(512, 1000, 1, 1), // single-strip classifier head
        ];
        let dw = ConvWork {
            kind: WorkKind::Depthwise,
            groups: 1,
            in_channels: 512,
            out_channels: 512,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            in_h: 16,
            in_w: 16,
            out_h: 14,
            out_w: 14,
        };
        let grp = ConvWork { kind: WorkKind::Dense, groups: 4, ..work(32, 32, 3, 28) };
        let mut cfgs = vec![cfg()];
        for buf in [16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024] {
            cfgs.push(AcceleratorConfig::builder().global_buffer_bytes(buf).build().unwrap());
        }
        for cfg in &cfgs {
            for w in shapes.iter().chain([&dw, &grp]) {
                let pruned = optimize_tiling(w, cfg);
                let exhaustive = optimize_tiling_exhaustive(w, cfg);
                match (&pruned, &exhaustive) {
                    (Ok(p), Ok(e)) => assert_eq!(p, e, "plan mismatch for {w:?} on {cfg}"),
                    (Err(p), Err(e)) => {
                        assert_eq!(format!("{p:?}"), format!("{e:?}"), "error mismatch for {w:?}");
                    }
                    _ => panic!("feasibility mismatch for {w:?}: {pruned:?} vs {exhaustive:?}"),
                }
            }
        }
    }

    /// The searches agree on every distinct compute layer of the table
    /// networks, on buffers from 16 KiB to 8 MiB (covering the sweep's
    /// 64–256 KiB and the fusion study's 128–8192 KiB) at every element
    /// width, with and without double buffering.
    #[test]
    fn pruned_matches_exhaustive_on_every_zoo_layer() {
        let mut works: Vec<ConvWork> = Vec::new();
        for net in codesign_dnn::zoo::table_networks() {
            for w in net.layers().iter().filter_map(ConvWork::from_layer) {
                if !works.contains(&w) {
                    works.push(w);
                }
            }
        }
        assert_eq!(works.len(), 105);
        for kib in (4..=13).map(|p| 1usize << p) {
            for bytes in [1, 2, 4] {
                for double_buffering in [true, false] {
                    let cfg = AcceleratorConfig::builder()
                        .global_buffer_bytes(kib * 1024)
                        .bytes_per_element(bytes)
                        .double_buffering(double_buffering)
                        .build()
                        .unwrap();
                    for w in &works {
                        assert_eq!(
                            optimize_tiling(w, &cfg),
                            optimize_tiling_exhaustive(w, &cfg),
                            "for {w:?} on {cfg}, {bytes} B/element, double buffering \
                             {double_buffering}"
                        );
                    }
                }
            }
        }
    }

    /// The operands-moved-once floor: the untiled strip height's lower
    /// bound, which never consults the buffer budget.
    fn traffic_floor(w: &ConvWork, cfg: &AcceleratorConfig) -> u64 {
        lower_bound_rows(w, w.out_h, cfg.bytes_per_element()).unwrap()
    }

    #[test]
    fn floor_bounds_every_budget_and_plans_are_monotone_in_budget() {
        // The two facts the sweep's branch-and-bound soundness argument
        // rests on, pinned across layer shapes and a sweep of budgets:
        // no plan moves less than the floor, and a bigger budget never
        // yields a plan with more traffic.
        let shapes = [
            work(16, 16, 3, 14),
            work(128, 128, 3, 56),
            work(512, 1000, 1, 13),
            work(64, 192, 3, 28),
        ];
        for w in &shapes {
            let mut prev: Option<u64> = None;
            for buf in [16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 512 * 1024, 4 << 20] {
                let cfg = AcceleratorConfig::builder().global_buffer_bytes(buf).build().unwrap();
                let floor = traffic_floor(w, &cfg);
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
        let floor = traffic_floor(&w, &cfg());
        let plan = optimize_tiling(&w, &cfg()).unwrap();
        assert_eq!(floor, plan.traffic.total());
        assert_eq!(floor, (w.input_elements() + w.weight_elements() + w.output_elements()) * 2);
    }

    #[test]
    fn candidate_grid_contains_extent_and_powers() {
        assert_eq!(candidates(13), vec![1, 2, 4, 8, 13]);
        assert_eq!(candidates(8), vec![1, 2, 4, 8]);
        assert_eq!(candidates(1), vec![1]);
    }
}
