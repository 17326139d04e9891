//! Run-length schedules: each PE-array dataflow's loop nest, written once.
//!
//! A schedule is a list of [`Step`]s. A step is one run of identical
//! schedule steps — its phase, cycles, MAC rate, busy PEs and access-count
//! increments — with a repeat count, which is MAESTRO's data-centric
//! directive idea (arXiv 1805.02566): describe the mapping by its distinct
//! steps and how often each repeats, never by enumerating them. Tile loops
//! come in closed form ([`Tiles`]: full chunks plus at most one
//! remainder), so a schedule has O(distinct tile shapes) steps whatever
//! the channel count, and no generator allocates per tile.
//!
//! Every production view is a fold of these steps: [`fold`] sums them
//! into the [`ComputePerf`] behind `simulate_ws`/`simulate_os`/
//! `simulate_rs`, and [`trace`] projects them into the [`MachineTrace`]
//! behind `cycle::trace_*`, the command stream and the VCD writer. The
//! mappings themselves are described in [`crate::ws`], [`crate::os`] and
//! [`crate::rs`].

use codesign_arch::{AcceleratorConfig, AccessCounts};

use crate::cycle::{MachineTrace, Phase};
use crate::os::OsModelOptions;
use crate::perf::{ComputePerf, PhaseCycles};
use crate::workload::{ConvWork, WorkKind};

/// `total` split into chunks of at most `chunk`, in closed form: `full`
/// chunks of `chunk`, then one remainder chunk when `rem > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tiles {
    chunk: usize,
    full: usize,
    rem: usize,
}

impl Tiles {
    /// Splits `total` into chunks of at most `chunk` (> 0).
    pub(crate) fn new(total: usize, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk must be positive");
        Self { chunk, full: total / chunk, rem: total % chunk }
    }

    /// Runs of equal chunks as `(extent, count, index of the first)`:
    /// at most two.
    pub(crate) fn runs(self) -> impl Iterator<Item = (usize, u64, u64)> {
        let full = (self.full > 0).then_some((self.chunk, self.full as u64, 0));
        let rem = (self.rem > 0).then_some((self.rem, 1, self.full as u64));
        full.into_iter().chain(rem)
    }
}

/// Filters one OS pass keeps resident over a `th × tw` output tile: the
/// register-file depth, times the copies of an underfilling tile that
/// channel packing (when on) replicates over the array, capped at
/// `filters`.
pub(crate) fn os_pass(
    cfg: &AcceleratorConfig,
    th: usize,
    tw: usize,
    filters: usize,
    channel_packing: bool,
) -> usize {
    let n = cfg.array_size();
    let packing = if channel_packing { (n * n / (th * tw).max(1)).max(1) } else { 1 };
    (cfg.rf_depth() * packing).min(filters.max(1))
}

/// A run of `repeat` identical schedule steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Step {
    pub phase: Phase,
    /// Cycles per repetition.
    pub cycles: u64,
    /// MACs issued per cycle.
    pub macs_per_cycle: u64,
    /// PEs busy per cycle.
    pub active_pes: u64,
    /// Back-to-back repetitions.
    pub repeat: u64,
    /// Access-count increments of one repetition, exact MACs included.
    pub accesses: AccessCounts,
    /// Weight broadcasts the OS sparsity model expects per repetition.
    /// Fractional, like `expected_macs`: [`fold`] rounds the sums once
    /// per layer.
    pub expected_broadcasts: f64,
    /// MACs those expected broadcasts perform.
    pub expected_macs: f64,
}

impl Step {
    fn new(phase: Phase, cycles: u64, repeat: u64) -> Self {
        Self {
            phase,
            cycles,
            macs_per_cycle: 0,
            active_pes: 0,
            repeat,
            accesses: AccessCounts::zero(),
            expected_broadcasts: 0.0,
            expected_macs: 0.0,
        }
    }

    fn compute(cycles: u64, macs_per_cycle: u64, active_pes: u64, repeat: u64) -> Self {
        Self { macs_per_cycle, active_pes, ..Self::new(Phase::Compute, cycles, repeat) }
    }

    fn with(self, accesses: AccessCounts) -> Self {
        Self { accesses, ..self }
    }
}

fn buffer(elements: u64) -> AccessCounts {
    AccessCounts { global_buffer: elements, ..AccessCounts::zero() }
}

/// Accesses of `macs` OS broadcast MACs: each reads the resident input
/// register, read-modify-writes its partial sum (3 RF accesses) and
/// arrives over one broadcast hop.
fn broadcast_macs(macs: u64) -> AccessCounts {
    AccessCounts { macs, register_file: 3 * macs, inter_pe: macs, ..AccessCounts::zero() }
}

fn scaled(a: AccessCounts, k: u64) -> AccessCounts {
    AccessCounts {
        macs: a.macs * k,
        register_file: a.register_file * k,
        inter_pe: a.inter_pe * k,
        global_buffer: a.global_buffer * k,
        dram: a.dram * k,
    }
}

/// Sums a schedule into per-phase cycles, MACs and access counts. The OS
/// sparsity expectation is rounded once, then charged as broadcast MACs
/// plus one buffer read per expected broadcast.
pub(crate) fn fold(steps: &[Step]) -> ComputePerf {
    let mut phases = PhaseCycles::default();
    let mut acc = AccessCounts::zero();
    let (mut broadcasts, mut macs) = (0f64, 0f64);
    for s in steps {
        let cycles = s.cycles * s.repeat;
        match s.phase {
            Phase::Load => phases.load += cycles,
            Phase::Compute => phases.compute += cycles,
            Phase::Drain => phases.drain += cycles,
        }
        acc += scaled(s.accesses, s.repeat);
        broadcasts += s.repeat as f64 * s.expected_broadcasts;
        macs += s.repeat as f64 * s.expected_macs;
    }
    acc += broadcast_macs(macs.round() as u64);
    acc.global_buffer += broadcasts.round() as u64;
    ComputePerf { phases, executed_macs: acc.macs, accesses: acc }
}

/// Projects a schedule onto the machine trace; zero-cycle runs vanish
/// and identical neighbours coalesce.
pub(crate) fn trace(steps: &[Step]) -> MachineTrace {
    let mut t = MachineTrace::new();
    for s in steps {
        t.push_repeated(s.phase, s.cycles, s.macs_per_cycle, s.active_pes, s.repeat);
    }
    t
}

/// The WS schedule: for every (group, column tile, row tile, tap), preload
/// the `rt × ct` weight tile one row per cycle, then stream every output
/// pixel through it. Runs are (column-tile run × row-tile run) buckets.
pub(crate) fn ws(work: &ConvWork, cfg: &AcceleratorConfig) -> Vec<Step> {
    let n = cfg.array_size();
    let plane = work.out_plane() as u64;
    let groups = work.groups as u64;
    let per_pair = work.taps() as u64 * groups;
    let row_tiles = Tiles::new(work.in_channels, n);
    let mut steps = Vec::with_capacity(8);
    for (ct, cc, c_first) in Tiles::new(work.out_channels, n).runs() {
        for (rt, rc, r_first) in row_tiles.runs() {
            let (rt, ct) = (rt as u64, ct as u64);
            let pes = rt * ct;
            let reps = cc * rc * per_pair;
            if work.kind == WorkKind::Depthwise {
                // A diagonal weight matrix: only tile pairs on the
                // diagonal hold useful weights; the others burn the same
                // cycles with idle multipliers and move no data.
                let diagonal =
                    (r_first + rc).min(c_first + cc).saturating_sub(r_first.max(c_first))
                        * per_pair;
                let t = rt.min(ct);
                let useful = AccessCounts {
                    macs: plane * t,
                    register_file: plane * t,
                    inter_pe: 2 * plane * t,
                    global_buffer: 3 * plane * t, // input stream, partial-sum write and read
                    dram: 0,
                };
                steps.push(Step::new(Phase::Load, rt, diagonal).with(buffer(t)));
                steps.push(Step::compute(plane, t, pes, diagonal).with(useful));
                steps.push(Step::new(Phase::Load, rt, reps - diagonal));
                steps.push(Step::compute(plane, 0, pes, reps - diagonal));
            } else {
                // Partial sums accumulate in the global buffer across row
                // tiles and taps: every stream writes them, all but the
                // first per (group, column tile) read them back first.
                let first = if r_first == 0 { cc * groups } else { 0 };
                let stream = AccessCounts {
                    macs: plane * pes,
                    register_file: plane * pes,
                    inter_pe: plane * rt + plane * pes, // injection + adder chains
                    global_buffer: plane * rt + plane * ct,
                    dram: 0,
                };
                steps.push(Step::new(Phase::Load, rt, reps).with(buffer(pes)));
                steps.push(Step::compute(plane, pes, pes, first).with(stream));
                steps.push(
                    Step::compute(plane, pes, pes, reps - first).with(stream + buffer(plane * ct)),
                );
            }
        }
    }
    steps
}

/// The OS schedule ([`crate::os`]): per (group, output tile, filter
/// pass), an optional pipeline fill, a preload and a broadcast budget per
/// input channel, then a drain. Fully-connected layers take their own
/// path, one output neuron per PE.
pub(crate) fn os(work: &ConvWork, cfg: &AcceleratorConfig, opts: OsModelOptions) -> Vec<Step> {
    if work.kind == WorkKind::FullyConnected {
        return os_fc(work, cfg);
    }
    let n = cfg.array_size();
    let eff = opts.sparsity.efficiency();
    let taps = work.taps() as u64;
    let c = work.in_channels as u64;
    let mut steps = Vec::with_capacity(24);
    for (th, hc, _) in Tiles::new(work.out_h, n).runs() {
        for (tw, wc, _) in Tiles::new(work.out_w, n).runs() {
            let rows = (th - 1) * work.stride + work.kernel_h;
            let cols = (tw - 1) * work.stride + work.kernel_w;
            let row_load = rows as u64 * (cols as u64).div_ceil(n as u64);
            let pixels = (th * tw) as u64;
            // Distributing a loaded tile across the mesh costs each element
            // about half the tile height in neighbour hops.
            let tile_load = AccessCounts {
                global_buffer: (rows * cols) as u64,
                inter_pe: (rows * cols) as u64 * (th as u64 / 2).max(1),
                ..AccessCounts::zero()
            };
            let mut pass = |filters: u64, produced: u64, repeat: u64| {
                let per_channel = (filters * taps) as f64 * eff;
                // The stream buffer issues whole weights: a pass's
                // broadcasts round up once.
                let broadcasts = (per_channel * c as f64).ceil() as u64;
                // Overlapped preload: one fill, then per channel only the
                // excess of its load over the broadcasts it hides behind.
                let (fill, loads) = if opts.preload_overlap {
                    (row_load, ((row_load as f64 - per_channel).max(0.0) * c as f64).round() as u64)
                } else {
                    (0, row_load * c)
                };
                // Channels share both budgets: each takes the floor share
                // and the last absorbs the remainders. (A zero-channel
                // layer, which validation rejects, runs no channel steps.)
                let (bulk, last) = (repeat * c.saturating_sub(1), repeat * c.min(1));
                let parts = c.max(1);
                let share = |total: u64| (total / parts, total / parts + total % parts);
                let ((load, load_last), (cast, cast_last)) = (share(loads), share(broadcasts));
                steps.push(Step::new(Phase::Load, fill, repeat));
                steps.push(Step::new(Phase::Load, load, bulk).with(tile_load));
                steps.push(Step::compute(cast, pixels, pixels, bulk));
                steps.push(Step::new(Phase::Load, load_last, last).with(tile_load));
                steps.push(Step {
                    expected_broadcasts: per_channel * c as f64,
                    expected_macs: pixels as f64 * per_channel * c as f64,
                    ..Step::compute(cast_last, pixels, pixels, last)
                });
                let drained = AccessCounts { inter_pe: produced, ..buffer(produced) };
                steps.push(
                    Step::new(Phase::Drain, produced.div_ceil(n as u64), repeat).with(drained),
                );
            };
            let tiles = work.groups as u64 * hc * wc;
            if work.kind == WorkKind::Depthwise {
                // One pass: every channel is its own single filter.
                pass(1, pixels * c, tiles);
            } else {
                let resident = os_pass(cfg, th, tw, work.out_channels, opts.channel_packing);
                for (kg, kc, _) in Tiles::new(work.out_channels, resident).runs() {
                    pass(kg as u64, pixels * kg as u64, tiles * kc);
                }
            }
        }
    }
    steps
}

/// OS fully-connected path: output neurons fill the whole array, inputs
/// broadcast one per cycle, but every PE needs its own weight, so the
/// stream buffer's N-wide port gates the rate.
fn os_fc(work: &ConvWork, cfg: &AcceleratorConfig) -> Vec<Step> {
    let n = cfg.array_size() as u64;
    let c = work.in_channels as u64;
    let mut steps = Vec::with_capacity(6);
    for (kp, count, _) in Tiles::new(work.out_channels, cfg.pe_count()).runs() {
        let kp = kp as u64;
        let cycles = (c * kp).div_ceil(n).max(c);
        let macs = c * kp;
        // Two rates keep the integer MAC total exact.
        let lo = macs / cycles;
        let hi_cycles = macs - lo * cycles;
        let active = kp.min(cfg.pe_count() as u64);
        steps.push(
            Step::compute(hi_cycles, lo + 1, active, count)
                .with(broadcast_macs(hi_cycles * (lo + 1))),
        );
        steps.push(
            Step::compute(cycles - hi_cycles, lo, active, count)
                .with(broadcast_macs((cycles - hi_cycles) * lo)),
        );
        // Per part: weights and input broadcasts in, outputs out.
        let part = AccessCounts { inter_pe: kp, ..buffer(c * kp + c + kp) };
        steps.push(Step::new(Phase::Drain, kp.div_ceil(n), count).with(part));
    }
    steps
}

/// The RS schedule ([`crate::rs`]): per (group, output-row strip, filter
/// row pass), waves of plane pairs folded onto the array, each a filter
/// row preload, a `W'·Fw` stream and a drain. Kernels taller than the
/// array split their rows into ⌈Fh / N⌉ passes.
pub(crate) fn rs(work: &ConvWork, cfg: &AcceleratorConfig) -> Vec<Step> {
    let n = cfg.array_size();
    let (fw, ow) = (work.kernel_w as u64, work.out_w as u64);
    let stream = ow * fw;
    let pairs = match work.kind {
        WorkKind::Depthwise => work.in_channels as u64,
        _ => (work.in_channels * work.out_channels) as u64,
    };
    let mut steps = Vec::with_capacity(16);
    for (fh, fc, _) in Tiles::new(work.kernel_h, n).runs() {
        // Plane pairs folded side by side, fh PE rows each.
        let fold = (n / fh) as u64;
        let (full, partial) = (pairs / fold, pairs % fold);
        let waves = full + u64::from(partial > 0);
        for (strip, sc, _) in Tiles::new(work.out_h, n).runs() {
            let reps = work.groups as u64 * fc * sc;
            let (fh, strip) = (fh as u64, strip as u64);
            let slots = fh * strip * fold;
            // Every fold slot cycles its weight and input registers and
            // passes partial sums down, idle slots of a partial wave too;
            // input rows stream in diagonally from the buffer.
            let streamed = AccessCounts {
                register_file: 2 * stream * slots,
                inter_pe: stream * slots,
                ..buffer((strip + fh - 1) * work.in_w as u64)
            };
            steps.push(Step::new(Phase::Load, fh, reps * waves).with(buffer(fh * fw * fold)));
            for (folded, count) in [(fold, full), (partial, u64::from(partial > 0))] {
                let active = fh * strip * folded;
                let macs = AccessCounts { macs: stream * active, ..streamed };
                steps.push(Step::compute(stream, active, active, reps * count).with(macs));
            }
            let drain = (strip * ow).div_ceil(n as u64);
            steps.push(Step::new(Phase::Drain, drain, reps * waves).with(buffer(strip * ow)));
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_are_full_chunks_plus_one_remainder() {
        let t = Tiles::new(70, 32);
        assert_eq!(t.runs().collect::<Vec<_>>(), [(32, 2, 0), (6, 1, 2)]);
        assert_eq!(Tiles::new(96, 32).runs().collect::<Vec<_>>(), [(32, 3, 0)]);
        assert_eq!(Tiles::new(5, 32).runs().collect::<Vec<_>>(), [(5, 1, 0)]);
        assert_eq!(Tiles::new(0, 32).runs().count(), 0);
        // Closed form: a 2^40-element axis is still two runs.
        assert_eq!(Tiles::new(1 << 40, 3).runs().map(|r| r.1).sum::<u64>(), (1 << 40) / 3 + 1);
    }

    #[test]
    #[should_panic(expected = "chunk must be positive")]
    fn tiles_reject_a_zero_chunk() {
        let _ = Tiles::new(4, 0);
    }

    #[test]
    fn os_pass_packs_small_tiles() {
        let cfg = AcceleratorConfig::paper_default(); // 32×32, RF 16
        assert_eq!(os_pass(&cfg, 32, 32, 1000, true), 16);
        assert_eq!(os_pass(&cfg, 13, 13, 1000, true), 16 * 6);
        assert_eq!(os_pass(&cfg, 13, 13, 1000, false), 16);
        assert_eq!(os_pass(&cfg, 13, 13, 40, true), 40);
    }

    #[test]
    fn schedules_stay_closed_form_for_huge_channel_counts() {
        let cfg = AcceleratorConfig::paper_default();
        let work = ConvWork {
            kind: WorkKind::Dense,
            groups: 1,
            in_channels: 3,
            out_channels: 1 << 32,
            kernel_h: 11,
            kernel_w: 11,
            stride: 4,
            in_h: 227,
            in_w: 227,
            out_h: 55,
            out_w: 55,
        };
        for steps in [ws(&work, &cfg), os(&work, &cfg, OsModelOptions::default()), rs(&work, &cfg)]
        {
            assert!(steps.len() <= 32, "{} steps", steps.len());
        }
        assert_eq!(fold(&ws(&work, &cfg)).executed_macs, work.macs());
        assert_eq!(fold(&rs(&work, &cfg)).executed_macs, work.macs());
    }
}
