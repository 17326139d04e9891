//! The loop-nest spec: every dataflow schedule walked one step at a time.
//!
//! Test-only, and independent of the simulator's run-length schedules:
//! each walk below visits the literal loop nest of one dataflow — every
//! group, tile, filter pass, channel, tap and wave — pushing one trace
//! segment per step and counting that step's phase cycles, MACs and
//! access counts. Given tensors, the WS and OS walks also compute the
//! layer's output in schedule order, so one walk checks both what the
//! simulator counts and what the schedule computes. Keep these loops
//! dumb: their value is being obviously the schedule §4.1.2 describes,
//! not being fast.

use codesign::arch::{AcceleratorConfig, AccessCounts};
use codesign::dnn::{ConvSpec, Shape};
use codesign::sim::cycle::{MachineTrace, Phase};
use codesign::sim::{ComputePerf, ConvWork, OsModelOptions, WorkKind};
use codesign::tensor::ops::clamp_acc;
use codesign::tensor::{Filters, Tensor};

/// A layer's tensors, for walks that compute its output.
#[derive(Clone, Copy)]
pub struct Data<'a> {
    pub input: &'a Tensor,
    pub filters: &'a Filters,
    pub spec: &'a ConvSpec,
}

/// What a walk counted, and the output it computed when given tensors.
#[derive(Default)]
pub struct Walk {
    pub trace: MachineTrace,
    pub perf: ComputePerf,
    pub output: Option<Tensor>,
}

impl Walk {
    fn step(&mut self, phase: Phase, cycles: u64, macs: u64, pes: u64, acc: AccessCounts) {
        self.trace.push(phase, cycles, macs, pes);
        let p = &mut self.perf.phases;
        *match phase {
            Phase::Load => &mut p.load,
            Phase::Compute => &mut p.compute,
            Phase::Drain => &mut p.drain,
        } += cycles;
        self.perf.accesses += acc;
        self.perf.executed_macs = self.perf.accesses.macs;
    }
}

fn split(total: usize, chunk: usize) -> Vec<usize> {
    let mut v = vec![chunk; total / chunk];
    if !total.is_multiple_of(chunk) {
        v.push(total % chunk);
    }
    v
}

fn buffer(elements: u64) -> AccessCounts {
    AccessCounts { global_buffer: elements, ..AccessCounts::zero() }
}

fn output_shape(work: &ConvWork) -> Shape {
    Shape::new(work.groups * work.out_channels, work.out_h, work.out_w)
}

/// WS: per group, output-channel (column) tile, input-channel (row) tile
/// and filter tap, preload the `rt × ct` weight tile one row per cycle,
/// then stream every output pixel through it while per-column adder
/// chains reduce the products into the global buffer's partial sums.
/// Fully-connected layers are the one-pixel case.
pub fn ws(work: &ConvWork, cfg: &AcceleratorConfig, data: Option<Data>) -> Walk {
    let n = cfg.array_size();
    let plane = work.out_plane() as u64;
    let depthwise = work.kind == WorkKind::Depthwise;
    let mut w = Walk::default();
    let mut psum = data.map(|_| vec![0i64; output_shape(work).elements()]);
    for g in 0..work.groups {
        let mut k0 = 0;
        for (ci, ct) in split(work.out_channels, n).into_iter().enumerate() {
            let mut first = true;
            let mut c0 = 0;
            for (ri, rt) in split(work.in_channels, n).into_iter().enumerate() {
                let (r, c) = (rt as u64, ct as u64);
                for dy in 0..work.kernel_h {
                    for dx in 0..work.kernel_w {
                        if depthwise {
                            // A diagonal weight matrix run densely: only
                            // diagonal tile pairs do useful MACs or move
                            // data (weights, inputs, partial-sum write
                            // and read).
                            let t = if ri == ci { r.min(c) } else { 0 };
                            let useful = AccessCounts {
                                macs: plane * t,
                                register_file: plane * t,
                                inter_pe: 2 * plane * t,
                                global_buffer: 3 * plane * t,
                                dram: 0,
                            };
                            w.step(Phase::Load, r, 0, 0, buffer(t));
                            w.step(Phase::Compute, plane, t, r * c, useful);
                        } else {
                            // The first contribution to a column tile's
                            // partial sums writes them; later ones read
                            // them back first.
                            let reads = if first { 0 } else { plane * c };
                            first = false;
                            let stream = AccessCounts {
                                macs: plane * r * c,
                                register_file: plane * r * c,
                                inter_pe: plane * r + plane * r * c,
                                global_buffer: plane * r + plane * c + reads,
                                dram: 0,
                            };
                            w.step(Phase::Load, r, 0, 0, buffer(r * c));
                            w.step(Phase::Compute, plane, r * c, r * c, stream);
                        }
                        let (Some(d), Some(psum)) = (data, psum.as_mut()) else { continue };
                        for oy in 0..work.out_h {
                            for ox in 0..work.out_w {
                                let iy = (oy * d.spec.stride + dy) as isize - d.spec.pad_h as isize;
                                let ix = (ox * d.spec.stride + dx) as isize - d.spec.pad_w as isize;
                                for k in k0..k0 + ct {
                                    // Adder chain down column k; a depthwise
                                    // column holds one non-zero weight.
                                    let rows = match depthwise {
                                        true => k.max(c0)..(k + 1).min(c0 + rt),
                                        false => c0..c0 + rt,
                                    };
                                    let mut chain = 0i64;
                                    for ch in rows {
                                        let weight = match depthwise {
                                            true => d.filters.tap(k, 0, dy, dx),
                                            false => {
                                                d.filters.tap(g * work.out_channels + k, ch, dy, dx)
                                            }
                                        };
                                        let x =
                                            d.input.at_padded(g * work.in_channels + ch, iy, ix);
                                        chain += x as i64 * weight as i64;
                                    }
                                    let k = g * work.out_channels + k;
                                    psum[k * plane as usize + oy * work.out_w + ox] += chain;
                                }
                            }
                        }
                    }
                }
                c0 += rt;
            }
            k0 += ct;
        }
    }
    w.output =
        psum.map(|p| Tensor::from_vec(output_shape(work), p.into_iter().map(clamp_acc).collect()));
    w
}

/// OS: per group, `N × N` output tile and filter pass — `rf_depth`
/// filters, times the copies of an underfilling tile channel packing fits
/// on the array — an optional pipeline fill, then per input channel a
/// tile preload (only its excess over the broadcasts when overlapped) and
/// the channel's share of the pass's non-zero weight broadcasts, then a
/// drain of the finished outputs. Depthwise layers make one pass in which
/// every channel is its own filter. Expected (zero-skipped) broadcasts
/// and MACs are summed fractionally and rounded once.
pub fn os(
    work: &ConvWork,
    cfg: &AcceleratorConfig,
    opts: OsModelOptions,
    data: Option<Data>,
) -> Walk {
    if work.kind == WorkKind::FullyConnected {
        return os_fc(work, cfg);
    }
    let n = cfg.array_size();
    let eff = opts.sparsity.efficiency();
    let taps = work.taps() as u64;
    let c = work.in_channels as u64;
    let depthwise = work.kind == WorkKind::Depthwise;
    let mut w = Walk::default();
    let (mut expected_broadcasts, mut expected_macs) = (0f64, 0f64);
    let mut out = data.map(|_| Tensor::zeros(output_shape(work)));
    for g in 0..work.groups {
        let mut y0 = 0;
        for th in split(work.out_h, n) {
            let mut x0 = 0;
            for tw in split(work.out_w, n) {
                let rows = (th - 1) * work.stride + work.kernel_h;
                let cols = (tw - 1) * work.stride + work.kernel_w;
                let row_load = rows as u64 * (cols as u64).div_ceil(n as u64);
                let pixels = (th * tw) as u64;
                let tile_load = AccessCounts {
                    global_buffer: (rows * cols) as u64,
                    inter_pe: (rows * cols) as u64 * (th as u64 / 2).max(1),
                    ..AccessCounts::zero()
                };
                let passes = if depthwise {
                    vec![1]
                } else {
                    let copies = if opts.channel_packing { (n * n / (th * tw)).max(1) } else { 1 };
                    split(work.out_channels, (cfg.rf_depth() * copies).min(work.out_channels))
                };
                let mut k0 = 0;
                for kg in passes {
                    let per_channel = (kg as u64 * taps) as f64 * eff;
                    let broadcasts = (per_channel * c as f64).ceil() as u64;
                    let stalls =
                        ((row_load as f64 - per_channel).max(0.0) * c as f64).round() as u64;
                    expected_broadcasts += per_channel * c as f64;
                    expected_macs += pixels as f64 * per_channel * c as f64;
                    if opts.preload_overlap {
                        // Pipeline fill: the first channel's whole tile.
                        w.step(Phase::Load, row_load, 0, 0, AccessCounts::zero());
                    }
                    let slots = if depthwise { work.in_channels } else { kg };
                    let mut rf = data.map(|_| vec![0i64; slots * th * tw]);
                    for ch in 0..work.in_channels {
                        // Every channel takes the floor share of the pass's
                        // budgets; the last absorbs the remainders.
                        let last = ch + 1 == work.in_channels;
                        let share = |total: u64| total / c + if last { total % c } else { 0 };
                        let load = if opts.preload_overlap { share(stalls) } else { row_load };
                        w.step(Phase::Load, load, 0, 0, tile_load);
                        w.step(
                            Phase::Compute,
                            share(broadcasts),
                            pixels,
                            pixels,
                            AccessCounts::zero(),
                        );
                        let (Some(d), Some(rf)) = (data, rf.as_mut()) else { continue };
                        // A depthwise channel feeds only its own filter.
                        let filters = if depthwise { ch..ch + 1 } else { 0..kg };
                        let ic = g * work.in_channels + ch;
                        for slot in filters {
                            let (k, kc) = match depthwise {
                                true => (ch, 0),
                                false => (g * work.out_channels + k0 + slot, ch),
                            };
                            for dy in 0..work.kernel_h {
                                for dx in 0..work.kernel_w {
                                    let weight = d.filters.tap(k, kc, dy, dx) as i64;
                                    if weight == 0 {
                                        continue; // zero weights are never broadcast
                                    }
                                    for ty in 0..th {
                                        for tx in 0..tw {
                                            let iy = ((y0 + ty) * d.spec.stride + dy) as isize
                                                - d.spec.pad_h as isize;
                                            let ix = ((x0 + tx) * d.spec.stride + dx) as isize
                                                - d.spec.pad_w as isize;
                                            let x = d.input.at_padded(ic, iy, ix) as i64;
                                            rf[(slot * th + ty) * tw + tx] += x * weight;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    let produced = pixels * slots as u64;
                    let drained = AccessCounts { inter_pe: produced, ..buffer(produced) };
                    w.step(Phase::Drain, produced.div_ceil(n as u64), 0, 0, drained);
                    if let (Some(out), Some(rf)) = (out.as_mut(), rf) {
                        for slot in 0..slots {
                            let k =
                                if depthwise { slot } else { g * work.out_channels + k0 + slot };
                            for ty in 0..th {
                                for tx in 0..tw {
                                    *out.at_mut(k, y0 + ty, x0 + tx) =
                                        clamp_acc(rf[(slot * th + ty) * tw + tx]);
                                }
                            }
                        }
                    }
                    k0 += kg;
                }
                x0 += tw;
            }
            y0 += th;
        }
    }
    // Each expected MAC reads the resident input register and
    // read-modify-writes its partial sum (3 RF accesses) over one
    // broadcast hop; each expected broadcast reads one weight.
    let macs = expected_macs.round() as u64;
    w.perf.accesses += AccessCounts {
        macs,
        register_file: 3 * macs,
        inter_pe: macs,
        global_buffer: expected_broadcasts.round() as u64,
        dram: 0,
    };
    w.perf.executed_macs = w.perf.accesses.macs;
    w.output = out;
    w
}

/// OS fully-connected: per part of at most `N²` output neurons, one per
/// PE, stream the inputs at the rate the N-wide weight port allows (two
/// integer MAC rates keep the total exact), then drain.
fn os_fc(work: &ConvWork, cfg: &AcceleratorConfig) -> Walk {
    let n = cfg.array_size() as u64;
    let c = work.in_channels as u64;
    let mut w = Walk::default();
    for kp in split(work.out_channels, cfg.pe_count()) {
        let kp = kp as u64;
        let cycles = (c * kp).div_ceil(n).max(c);
        let macs = c * kp;
        let lo = macs / cycles;
        let hi_cycles = macs - lo * cycles;
        let active = kp.min(cfg.pe_count() as u64);
        w.step(Phase::Compute, hi_cycles, lo + 1, active, AccessCounts::zero());
        w.step(Phase::Compute, cycles - hi_cycles, lo, active, AccessCounts::zero());
        // Weights and input broadcasts in, outputs out; every MAC reads
        // its input register and read-modify-writes its partial sum.
        let part = AccessCounts {
            macs,
            register_file: 3 * macs,
            inter_pe: kp + macs,
            global_buffer: c * kp + c + kp,
            dram: 0,
        };
        w.step(Phase::Drain, kp.div_ceil(n), 0, 0, part);
    }
    w
}

/// RS: per group, output-row strip and filter-row pass — kernels taller
/// than the array split their rows into ⌈Fh / N⌉ passes — fold as many
/// plane pairs into each wave as the pass's rows allow. A wave preloads
/// the filter rows, streams `W'·Fw` cycles at one MAC per busy PE, and
/// drains its output rows. Register and psum-hop accesses are charged
/// per fold slot, idle slots of a partial wave included.
pub fn rs(work: &ConvWork, cfg: &AcceleratorConfig) -> Walk {
    let n = cfg.array_size();
    let (fw, ow) = (work.kernel_w as u64, work.out_w as u64);
    let stream = ow * fw;
    let pairs = match work.kind {
        WorkKind::Depthwise => work.in_channels as u64,
        _ => (work.in_channels * work.out_channels) as u64,
    };
    let mut w = Walk::default();
    for _g in 0..work.groups {
        for strip in split(work.out_h, n) {
            for fh in split(work.kernel_h, n) {
                let fold = (n / fh) as u64;
                let (strip, fh) = (strip as u64, fh as u64);
                let mut left = pairs;
                while left > 0 {
                    let folded = left.min(fold);
                    left -= folded;
                    let (slots, active) = (fh * strip * fold, fh * strip * folded);
                    let streamed = AccessCounts {
                        macs: stream * active,
                        register_file: 2 * stream * slots,
                        inter_pe: stream * slots,
                        global_buffer: (strip + fh - 1) * work.in_w as u64,
                        dram: 0,
                    };
                    w.step(Phase::Load, fh, 0, 0, buffer(fh * fw * fold));
                    w.step(Phase::Compute, stream, active, active, streamed);
                    w.step(Phase::Drain, (strip * ow).div_ceil(n as u64), 0, 0, buffer(strip * ow));
                }
            }
        }
    }
    w
}
