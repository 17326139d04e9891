//! im2col → tiled, register-blocked integer GEMM — the fast functional
//! execution path.
//!
//! The naive loop nest in [`crate::ops::conv2d`] and the row-major
//! im2col product in [`crate::im2col::conv2d_im2col`] are the executable
//! specifications; this module computes exactly the same per-output
//! `i64` accumulator sums (merely reordered — integer addition commutes,
//! so the single final [`clamp_acc`] makes the results **bit-identical**)
//! but organised for throughput:
//!
//! * **packed patches** ([`pack_patches`]): the patch matrix is laid out
//!   in **lane-interleaved column blocks** — [`NC`] output pixels share a
//!   block, and tap `r` of all [`NC`] pixels is one contiguous slice. A
//!   micro-kernel step therefore touches two cache lines per tap (a
//!   pixel-major layout touches [`NC`] lines), and padding is resolved
//!   once during packing, never in the reduction loop. Packing fills a
//!   block one tap at a time by copying contiguous input-row runs,
//!   clipped against the padding by `valid_range`;
//! * **lane-pair words**: packing writes each block straight into `u64`
//!   words that hold two adjacent pixels' lanes, lane `2j` in the low
//!   half and lane `2j + 1` in the high half. The tap loop multiplies the
//!   low halves and the `>> 32` high halves straight from the loaded
//!   words; both are sign-extended 32-bit values, so each product is one
//!   `vpmuldq` under AVX2 and no lane-widening shuffle is left in the
//!   loop. [`pack_patches`] is the words' unfolded `i32` view, and
//!   [`gemm_accumulate`] folds its `&[i32]` argument back into words;
//! * **zero-skipping micro-kernel** ([`gemm_accumulate`]): each chunk of
//!   `MR` filters has its nonzero taps gathered once into a list of `u64`
//!   entries (the weight in the low half, the tap row in the high half).
//!   The gather writes every tap and advances the list's length only past
//!   nonzero ones, so it has no data-dependent branch. The list is swept
//!   over register-blocked column blocks, so sparse filters — the common
//!   case for the quantized networks this repo models, and the very
//!   effect the paper's accelerator exploits — cost only their density,
//!   while dense filters degrade gracefully to a sequential
//!   register-blocked walk. One resident block is reused by all `MR`
//!   filters of a chunk instead of streaming from L2 once per filter —
//!   the blocking that turns the kernel from memory-bound into
//!   multiply-bound — and each tap's row lookup, bounds check and weight
//!   broadcast serve all [`NC`] pixels of the block;
//! * **pixel-range tasks**: [`conv2d_gemm`] builds every chunk's tap list
//!   once per layer, then splits the output pixels into about
//!   `TASKS_PER_WORKER` column-block ranges per worker. Each task packs
//!   only its own blocks and sweeps every filter chunk over them, so
//!   packing, one-chunk layers and small layers all spread over the
//!   worker pool (`codesign-parallel`);
//! * **a dedicated depthwise path** that skips the im2col blowup
//!   entirely — depthwise patches would duplicate each input pixel
//!   `kh × kw` times for a reduction of depth `kh × kw`, so the direct
//!   loop, which sums one output row over every kernel tap while the
//!   row stays in L1, is both smaller and faster.
//!
//! Every parallel task owns a disjoint output range (pixels, channels or
//! features), and ranges are reassembled in order, so results are
//! byte-identical for every `jobs` value. Layers below one MAC gate run
//! on the calling thread alone.

use std::ops::Range;

use codesign_dnn::{ConvSpec, Shape};
use codesign_parallel::{par_map_range, resolve_jobs};

use crate::ops::{check_conv_args, clamp_acc, ShapeMismatchError};
use crate::tensor::{Filters, Tensor};

/// Lane count of one interleaved column block: output pixels handled per
/// micro-kernel step (one `i64` accumulator each, held in registers
/// across the reduction).
pub const NC: usize = 32;
/// Lane-pair words per tap of a column block.
const NW: usize = NC / 2;
/// Filters swept per pass over a resident column block — the outer-level
/// reuse factor that keeps the kernel multiply-bound instead of
/// streaming the patch matrix from L2 once per filter.
const MR: usize = 16;
/// Layers below this many multiply-accumulates run on one worker — pool
/// latency would dominate the work.
const MIN_PAR_MACS: u64 = 1 << 18;
/// Output ranges per resolved worker: enough that one slow range is a
/// small share of a layer, few enough that each range's packing and pool
/// round trip stay cheap.
const TASKS_PER_WORKER: usize = 4;

/// Whether `spec` over `in_shape` is a depthwise convolution (one input
/// channel and one filter per group) — the case that takes the direct
/// path instead of im2col.
pub(crate) fn is_depthwise(spec: &ConvSpec, in_shape: Shape) -> bool {
    spec.groups > 1 && spec.groups == in_shape.channels && spec.groups == spec.out_channels
}

/// The half-open range `lo..hi` of output indices whose sampled input
/// position `(offset + i) * stride + tap - pad` lands inside
/// `0..extent_in`. Outputs outside the range read the zero padding and
/// contribute nothing, so loops over `lo..hi` can index the input
/// directly with no per-element bounds branch.
pub(crate) fn valid_range(
    extent_out: usize,
    offset: usize,
    stride: usize,
    tap: usize,
    pad: usize,
    extent_in: usize,
) -> (usize, usize) {
    if stride == 0 || extent_in == 0 {
        return (0, 0);
    }
    let base = offset * stride + tap;
    let lo = if base >= pad { 0 } else { (pad - base).div_ceil(stride) };
    let hi = if extent_in + pad > base {
        ((extent_in + pad - base - 1) / stride + 1).min(extent_out)
    } else {
        0
    };
    (lo.min(hi), hi)
}

/// Lowers one group's input patches into the **lane-interleaved block**
/// matrix the micro-kernel consumes: output pixels are grouped into
/// blocks of [`NC`], and within block `b` the element for tap `r` of
/// pixel `b * NC + j` sits at `b * rows * NC + r * NC + j` (with
/// `rows = cg * kh * kw` in `(c, dy, dx)` tap order, `cols = oh * ow`
/// pixels in raster order). The final partial block's unused lanes stay
/// zero; the buffer length is `cols.div_ceil(NC) * rows * NC`.
///
/// This is [`crate::im2col::im2col`] transposed and tiled: one tap of
/// [`NC`] neighbouring pixels is a single contiguous slice, so the
/// reduction loop reads two adjacent cache lines per tap. A block's
/// pixels split into output-row runs; each run is clipped against the
/// padding once per kernel column with `valid_range`, and every tap then
/// copies it from one input row, so no per-pixel padding branch remains.
///
/// [`conv2d_gemm`] packs straight into lane-pair words; this is their
/// unfolded view, lane `2j` from word `j`'s low half and lane `2j + 1`
/// from its high half.
pub fn pack_patches(input: &Tensor, spec: &ConvSpec, group: usize, out_shape: Shape) -> Vec<i32> {
    let words = pack_blocks(input, spec, group, out_shape, 0..out_shape.plane().div_ceil(NC));
    words.iter().flat_map(|&w| [w as i32, (w >> 32) as i32]).collect()
}

/// The column blocks `blocks` of [`pack_patches`] as lane-pair words:
/// word `j` of a tap holds lane `2j` in its low half and lane `2j + 1` in
/// its high half, so the buffer has `blocks.len() * rows * NW` words.
fn pack_blocks(
    input: &Tensor,
    spec: &ConvSpec,
    group: usize,
    out_shape: Shape,
    blocks: Range<usize>,
) -> Vec<u64> {
    let s = input.shape();
    let cg = s.channels / spec.groups.max(1);
    let (kh, kw) = (spec.kernel.height, spec.kernel.width);
    let ow = out_shape.width;
    let rows = cg * kh * kw;
    let cols = out_shape.plane();
    let mut m = vec![0u64; blocks.len() * rows * NW];
    if s.height == 0 || s.width == 0 || rows == 0 {
        return m;
    }
    // Per block: (first input row before padding, lane offset within a
    // kernel row's taps, first input column, length) for each clipped
    // output-row run and kernel column.
    let mut runs = Vec::with_capacity(NC * kw);
    // One strided run's samples, gathered before they are paired.
    let mut strided = [0i32; NC];
    for (b, blk) in blocks.zip(m.chunks_exact_mut(rows * NW)) {
        runs.clear();
        let (mut col, end) = (b * NC, cols.min(b * NC + NC));
        while col < end {
            let (oy, ox) = (col / ow, col % ow);
            let len = (ow - ox).min(end - col);
            for dx in 0..kw {
                let (lo, hi) = valid_range(len, ox, spec.stride, dx, spec.pad_w, s.width);
                if lo < hi {
                    let ix = (ox + lo) * spec.stride + dx - spec.pad_w;
                    runs.push((oy * spec.stride, dx * NC + col % NC + lo, ix, hi - lo));
                }
            }
            col += len;
        }
        for c in 0..cg {
            let src = input.channel_plane(group * cg + c);
            for dy in 0..kh {
                let taps = &mut blk[(c * kh + dy) * kw * NW..][..kw * NW];
                for &(y0, at, ix, n) in &runs {
                    let iy = y0 + dy;
                    if iy < spec.pad_h || iy - spec.pad_h >= s.height {
                        continue;
                    }
                    let src = &src[(iy - spec.pad_h) * s.width + ix..];
                    if spec.stride == 1 {
                        put_lanes(taps, at, &src[..n]);
                    } else {
                        for (d, v) in strided[..n].iter_mut().zip(src.chunks(spec.stride)) {
                            *d = v[0];
                        }
                        put_lanes(taps, at, &strided[..n]);
                    }
                }
            }
        }
    }
    m
}

/// ORs `values` into the zeroed lanes `at..` of lane-pair words `dst`:
/// lane `l` is the low half of word `l / 2` if `l` is even, its high half
/// if odd. Whole pairs of lanes go in as one word each.
fn put_lanes(dst: &mut [u64], at: usize, values: &[i32]) {
    let (head, values) = values.split_at(values.len().min(at % 2));
    if let [v] = head {
        dst[at / 2] |= u64::from(*v as u32) << 32;
    }
    let words = &mut dst[at.div_ceil(2)..];
    let (pairs, tail) = values.as_chunks::<2>();
    for (d, &[lo, hi]) in words.iter_mut().zip(pairs) {
        *d |= u64::from(lo as u32) | u64::from(hi as u32) << 32;
    }
    if let [v] = tail {
        words[pairs.len()] |= u64::from(*v as u32);
    }
}

/// Folds lane-interleaved blocks into lane-pair words: word `j` of a tap
/// holds lane `2j` in its low half and lane `2j + 1` in its high half —
/// the little-endian bytes of the same two lanes.
fn fold_pairs(lanes: &[i32]) -> Vec<u64> {
    lanes.chunks_exact(2).map(|p| u64::from(p[0] as u32) | u64::from(p[1] as u32) << 32).collect()
}

/// The nonzero taps of a chunk of at most [`MR`] filters: filter `i`'s
/// taps are `nnz[offs[i]..offs[i + 1]]`, each one `u64` that holds the
/// tap's weight in its low half and its row in its high half.
struct TapList {
    nnz: Vec<u64>,
    offs: Vec<usize>,
}

impl TapList {
    /// Gathers the nonzero taps among the first `rows` of each filter row.
    /// Every tap is written, and the list's length advances only past
    /// nonzero ones, so the loop has no data-dependent branch.
    fn new<'a>(wrows: impl ExactSizeIterator<Item = &'a [i32]>, rows: usize) -> Self {
        debug_assert!(wrows.len() <= MR && u32::try_from(rows).is_ok());
        let mut offs = Vec::with_capacity(wrows.len() + 1);
        offs.push(0);
        let mut nnz = vec![0u64; wrows.len() * rows];
        let mut n = 0;
        for w in wrows {
            for (r, &v) in w[..rows].iter().enumerate() {
                nnz[n] = (r as u64) << 32 | u64::from(v as u32);
                n += usize::from(v != 0);
            }
            offs.push(n);
        }
        nnz.truncate(n);
        Self { nnz, offs }
    }

    /// Filters in the chunk.
    fn len(&self) -> usize {
        self.offs.len() - 1
    }
}

/// One column block under one filter chunk: `sums[i]` receives filter
/// `i`'s [`NC`] pixel sums over `blk`, whose tap `r` is the lane-pair
/// words `blk[r * NW..][..NW]`. The sums keep the words' split: pixel
/// `2j` at `sums[i][j]`, pixel `2j + 1` at `sums[i][NW + j]` (see
/// [`lane`]). Kept out of line so every caller shares one compiled copy
/// of the tap loop.
#[inline(never)]
fn sweep_block(taps: &TapList, blk: &[u64], sums: &mut [[i64; NC]; MR]) {
    let (words, _) = blk.as_chunks::<NW>();
    for (span, out) in taps.offs.windows(2).zip(sums.iter_mut()) {
        let (mut lo, mut hi) = ([0i64; NW], [0i64; NW]);
        for &tap in &taps.nnz[span[0]..span[1]] {
            let x = &words[(tap >> 32) as usize];
            let w = i64::from(tap as i32);
            for j in 0..NW {
                lo[j] += i64::from(x[j] as i32) * w;
                hi[j] += (x[j] as i64 >> 32) * w;
            }
        }
        out[..NW].copy_from_slice(&lo);
        out[NW..].copy_from_slice(&hi);
    }
}

/// Pixel `j`'s sum in one filter's row of [`sweep_block`]'s output.
fn lane(sums: &[i64; NC], j: usize) -> i64 {
    sums[j % 2 * NW + j / 2]
}

/// The zero-skipping micro-kernel:
/// `acc[f * cols + col] += dot(wrows[f], patch(col))` for every filter
/// row and pixel column, where `patches` is the lane-interleaved block
/// matrix from [`pack_patches`].
///
/// The blocks are first folded into lane-pair words. Filters are then
/// processed in chunks of `MR`: the chunk's nonzero taps are gathered
/// into one index/weight list, and each resident column block is swept
/// by all `MR` tap lists before moving on, so the patch matrix streams
/// from cache once per chunk instead of once per filter. Per tap the
/// kernel reads [`NC`] lanes as lane-pair words and widens
/// `i32 × i32 → i64` into [`NC`] register accumulators.
///
/// Skipping a zero weight drops a term that is exactly `0`, and `i64`
/// addition (wrapping in release builds) is commutative, so the totals
/// are **bit-identical** to the dense reference loop nest regardless of
/// sparsity, blocking, or lane width. Dense filters degenerate to a
/// sequential tap list and remain multiply-bound; on the sparse filters
/// real quantized networks have, throughput scales with density — the
/// same zero-skip economics the paper's accelerator exploits in silicon.
pub fn gemm_accumulate(
    wrows: &[&[i32]],
    patches: &[i32],
    rows: usize,
    cols: usize,
    acc: &mut [i64],
) {
    debug_assert_eq!(acc.len(), wrows.len() * cols);
    if rows == 0 || cols == 0 {
        return;
    }
    let words = fold_pairs(&patches[..cols.div_ceil(NC) * rows * NC]);
    let mut sums = [[0i64; NC]; MR];
    for (chunk, wrows) in wrows.chunks(MR).enumerate() {
        let taps = TapList::new(wrows.iter().copied(), rows);
        for (b, blk) in words.chunks_exact(rows * NW).enumerate() {
            sweep_block(&taps, blk, &mut sums);
            let (c0, bw) = (b * NC, NC.min(cols - b * NC));
            for (i, s) in sums[..taps.len()].iter().enumerate() {
                for (j, d) in acc[(chunk * MR + i) * cols + c0..][..bw].iter_mut().enumerate() {
                    *d += lane(s, j);
                }
            }
        }
    }
}

/// Dense `i32` matrix-vector accumulate for the fully-connected path:
/// `acc[f] += dot(wrows[f], x)`. Four interleaved partial sums give the
/// widening multiply chain enough independence to saturate the machine;
/// `i64` addition commutes, so the regrouped total is bit-identical to
/// the sequential reference sum.
fn dense_matvec(wrows: &[&[i32]], x: &[i32], acc: &mut [i64]) {
    debug_assert_eq!(acc.len(), wrows.len());
    for (d, w) in acc.iter_mut().zip(wrows) {
        let w = &w[..x.len()];
        let mut a = [0i64; 4];
        let mut wc = w.chunks_exact(4);
        let mut xc = x.chunks_exact(4);
        for (ws, xs) in (&mut wc).zip(&mut xc) {
            for j in 0..4 {
                a[j] += ws[j] as i64 * xs[j] as i64;
            }
        }
        let mut tail = 0i64;
        for (&wv, &xv) in wc.remainder().iter().zip(xc.remainder()) {
            tail += wv as i64 * xv as i64;
        }
        *d += a[0] + a[1] + a[2] + a[3] + tail;
    }
}

/// GEMM-backed grouped convolution with `jobs` workers (`0` = one per
/// core). Results are byte-identical to [`crate::ops::conv2d`] for
/// **every** `jobs` value: each task computes every filter of one group
/// over a disjoint range of output pixels, and ranges are reassembled in
/// order.
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] under the same conditions as
/// [`crate::ops::conv2d`].
pub fn conv2d_gemm(
    input: &Tensor,
    filters: &Filters,
    spec: &ConvSpec,
    jobs: usize,
) -> Result<Tensor, ShapeMismatchError> {
    let out_shape = check_conv_args(input, filters, spec, "conv2d_gemm")?;
    let jobs = resolve_jobs(jobs);
    if is_depthwise(spec, input.shape()) {
        return Ok(depthwise_direct(input, filters, spec, out_shape, jobs));
    }
    let groups = spec.groups;
    let cg = input.shape().channels / groups;
    let kg = spec.out_channels / groups;
    let rows = cg * spec.kernel.height * spec.kernel.width;
    let cols = out_shape.plane();
    if rows == 0 || cols == 0 {
        return Ok(Tensor::zeros(out_shape));
    }
    let jobs = effective_jobs(jobs, (spec.out_channels * rows * cols) as u64);

    let chunks = kg.div_ceil(MR);
    let taps = par_map_range(jobs, groups * chunks, |i| {
        let (group, k0) = (i / chunks, i % chunks * MR);
        TapList::new((k0..kg.min(k0 + MR)).map(|k| filters.filter_taps(group * kg + k)), rows)
    });
    let nblocks = cols.div_ceil(NC);
    let ranges = task_count(nblocks, jobs);
    let pixels = |r: usize| {
        let blocks = task_span(r, ranges, nblocks);
        blocks.start * NC..cols.min(blocks.end * NC)
    };
    // Task `t` computes group `t / ranges`'s filters over pixel range
    // `t % ranges`, filter-major.
    let parts = par_map_range(jobs, groups * ranges, |t| {
        let (group, range) = (t / ranges, t % ranges);
        let blocks = task_span(range, ranges, nblocks);
        let words = pack_blocks(input, spec, group, out_shape, blocks);
        let n = pixels(range).len();
        let mut out = vec![0i32; kg * n];
        let mut sums = [[0i64; NC]; MR];
        for (chunk, taps) in taps[group * chunks..][..chunks].iter().enumerate() {
            for (b, blk) in words.chunks_exact(rows * NW).enumerate() {
                sweep_block(taps, blk, &mut sums);
                let bw = NC.min(n - b * NC);
                for (i, s) in sums[..taps.len()].iter().enumerate() {
                    let row = &mut out[(chunk * MR + i) * n + b * NC..][..bw];
                    for (j, d) in row.iter_mut().enumerate() {
                        *d = clamp_acc(lane(s, j));
                    }
                }
            }
        }
        out
    });

    let mut data = Vec::with_capacity(out_shape.elements());
    for parts in parts.chunks(ranges) {
        for k in 0..kg {
            for (range, part) in parts.iter().enumerate() {
                let n = pixels(range).len();
                data.extend_from_slice(&part[k * n..][..n]);
            }
        }
    }
    Ok(Tensor::from_vec(out_shape, data))
}

/// Depthwise convolution without the im2col blowup: each channel slides
/// its own `kh × kw` window directly over its input plane. Each output
/// row is summed over every kernel tap in one `i64` row buffer that stays
/// in L1, with padding resolved per tap via `valid_range` and zero taps
/// skipped (a zero tap contributes an exact `0` to the sum, so skipping
/// it never changes the result). Parallel over channel ranges.
fn depthwise_direct(
    input: &Tensor,
    filters: &Filters,
    spec: &ConvSpec,
    out_shape: Shape,
    jobs: usize,
) -> Tensor {
    let s = input.shape();
    let (kh, kw) = (spec.kernel.height, spec.kernel.width);
    let (oh, ow) = (out_shape.height, out_shape.width);
    let jobs = effective_jobs(jobs, (s.channels * oh * ow * kh * kw) as u64);
    // Per kernel column: the output columns it reaches and the input
    // column the first of them reads.
    let columns: Vec<(usize, Range<usize>, usize)> = (0..kw)
        .filter_map(|dx| {
            let (lo, hi) = valid_range(ow, 0, spec.stride, dx, spec.pad_w, s.width);
            (lo < hi).then(|| (dx, lo..hi, lo * spec.stride + dx - spec.pad_w))
        })
        .collect();

    let ranges = task_count(s.channels, jobs);
    let parts = par_map_range(jobs, ranges, |t| {
        let channels = task_span(t, ranges, s.channels);
        let mut out = Vec::with_capacity(channels.len() * oh * ow);
        let mut acc = vec![0i64; ow];
        for c in channels {
            let src = input.channel_plane(c);
            for oy in 0..oh {
                acc.fill(0);
                for dy in 0..kh {
                    let iy = oy * spec.stride + dy;
                    if iy < spec.pad_h || iy - spec.pad_h >= s.height {
                        continue;
                    }
                    let row = &src[(iy - spec.pad_h) * s.width..][..s.width];
                    for (dx, xs, ix) in &columns {
                        let w = i64::from(filters.tap(c, 0, dy, *dx));
                        if w == 0 {
                            continue;
                        }
                        let (acc, row) = (&mut acc[xs.clone()], &row[*ix..]);
                        if spec.stride == 1 {
                            for (d, &v) in acc.iter_mut().zip(row) {
                                *d += w * i64::from(v);
                            }
                        } else {
                            for (d, v) in acc.iter_mut().zip(row.chunks(spec.stride)) {
                                *d += w * i64::from(v[0]);
                            }
                        }
                    }
                }
                out.extend(acc.iter().map(|&v| clamp_acc(v)));
            }
        }
        out
    });
    Tensor::from_vec(out_shape, parts.concat())
}

/// Fully-connected layer as a dense matrix-vector product: the flattened
/// input vector stays cache-resident while each weight row streams past
/// it once (`dense_matvec`) — no patch packing, no tap lists. Parallel
/// over output-feature ranges; byte-identical to
/// [`crate::ops::fully_connected`] for every `jobs` value.
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] under the same conditions as
/// [`crate::ops::fully_connected`].
pub fn fully_connected_gemm(
    input: &Tensor,
    weights: &Filters,
    jobs: usize,
) -> Result<Tensor, ShapeMismatchError> {
    let flat = input.as_slice();
    if weights.in_channels() != flat.len()
        || weights.kernel_height() != 1
        || weights.kernel_width() != 1
    {
        return Err(ShapeMismatchError::new("fully_connected_gemm", "weight matrix mismatch"));
    }
    let out_features = weights.out_channels();
    let jobs = effective_jobs(resolve_jobs(jobs), (out_features * flat.len()) as u64);

    let ranges = task_count(out_features, jobs);
    let parts = par_map_range(jobs, ranges, |t| {
        let features = task_span(t, ranges, out_features);
        let wrows: Vec<&[i32]> = features.clone().map(|k| weights.filter_taps(k)).collect();
        let mut acc = vec![0i64; features.len()];
        dense_matvec(&wrows, flat, &mut acc);
        acc.into_iter().map(clamp_acc).collect::<Vec<i32>>()
    });
    Ok(Tensor::from_vec(Shape::vector(out_features), parts.concat()))
}

/// Collapses `jobs` to `1` for layers too small to amortise pool latency.
fn effective_jobs(jobs: usize, macs: u64) -> usize {
    if macs < MIN_PAR_MACS {
        1
    } else {
        jobs
    }
}

/// Tasks for `len` output units (pixel blocks, channels or features) on
/// `jobs` workers: `TASKS_PER_WORKER` per worker, at most one per unit.
fn task_count(len: usize, jobs: usize) -> usize {
    len.min(TASKS_PER_WORKER * jobs)
}

/// Task `t`'s share of `len` units split evenly over `tasks` tasks; the
/// shares are disjoint, in order, and cover `0..len`.
fn task_span(t: usize, tasks: usize, len: usize) -> Range<usize> {
    t * len / tasks..(t + 1) * len / tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::conv2d_im2col;
    use crate::ops::{conv2d, fully_connected};
    use codesign_dnn::Kernel;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_case(rng: &mut StdRng) -> (Tensor, Filters, ConvSpec) {
        let depthwise = rng.gen_bool(0.25);
        let (groups, cg, cout) = if depthwise {
            let c = rng.gen_range(2..=9usize);
            (c, 1, c)
        } else {
            let groups = [1, 1, 1, 2][rng.gen_range(0..4usize)];
            let cg = rng.gen_range(1..=6usize);
            (groups, cg, groups * rng.gen_range(1..=11usize))
        };
        let (kh, kw): (usize, usize) =
            [(1, 1), (3, 3), (1, 3), (3, 1), (5, 5), (7, 7)][rng.gen_range(0..6usize)];
        let stride = rng.gen_range(1..=3usize);
        let h = rng.gen_range(kh.max(kw)..kh.max(kw) + 9);
        let w = rng.gen_range(kh.max(kw)..kh.max(kw) + 9);
        let input = Tensor::random(Shape::new(groups * cg, h, w), 64, rng);
        let filters = Filters::random(cout, cg, kh, kw, 16, 0.4, rng);
        let spec = ConvSpec {
            out_channels: cout,
            kernel: Kernel::new(kh, kw),
            stride,
            pad_h: rng.gen_range(0..=kh / 2),
            pad_w: rng.gen_range(0..=kw / 2),
            groups,
        };
        (input, filters, spec)
    }

    #[test]
    fn gemm_matches_reference_on_random_cases() {
        let mut rng = StdRng::seed_from_u64(12);
        for i in 0..60 {
            let (input, filters, spec) = random_case(&mut rng);
            let want = conv2d(&input, &filters, &spec).unwrap();
            let got = conv2d_gemm(&input, &filters, &spec, 1).unwrap();
            assert_eq!(got, want, "case {i}: {spec:?}");
        }
    }

    #[test]
    fn gemm_matches_im2col_cross_check() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..30 {
            let (input, filters, spec) = random_case(&mut rng);
            let want = conv2d_im2col(&input, &filters, &spec).unwrap();
            let got = conv2d_gemm(&input, &filters, &spec, 1).unwrap();
            assert_eq!(got, want, "{spec:?}");
        }
    }

    #[test]
    fn parallel_gemm_is_jobs_invariant() {
        let mut rng = StdRng::seed_from_u64(14);
        let input = Tensor::random(Shape::new(8, 24, 24), 64, &mut rng);
        let filters = Filters::random(48, 8, 3, 3, 16, 0.4, &mut rng);
        let spec = ConvSpec {
            out_channels: 48,
            kernel: Kernel::square(3),
            stride: 1,
            pad_h: 1,
            pad_w: 1,
            groups: 1,
        };
        let serial = conv2d_gemm(&input, &filters, &spec, 1).unwrap();
        for jobs in [2, 3, 8] {
            assert_eq!(conv2d_gemm(&input, &filters, &spec, jobs).unwrap(), serial);
        }
    }

    #[test]
    fn pack_patches_is_lane_interleaved_im2col() {
        // 2 channels, 7x7 input, 3x3 kernel with padding: 49 output
        // pixels span two NC-wide column blocks, so both the interleaved
        // layout and the zero-padded tail lanes are exercised.
        let input = Tensor::from_fn(Shape::new(2, 7, 7), |c, y, x| (c * 49 + y * 7 + x) as i32 + 1);
        let spec = ConvSpec {
            out_channels: 1,
            kernel: Kernel::square(3),
            stride: 1,
            pad_h: 1,
            pad_w: 1,
            groups: 1,
        };
        let out_shape = Shape::new(1, 7, 7);
        let rowmajor = crate::im2col::im2col(&input, &spec, 0, out_shape);
        let packed = pack_patches(&input, &spec, 0, out_shape);
        let (rows, cols): (usize, usize) = (2 * 9, 49);
        assert_eq!(packed.len(), 2 * rows * NC);
        for r in 0..rows {
            for c in 0..cols {
                // im2col element (r, c) lands in block c / NC, lane c % NC.
                assert_eq!(
                    packed[(c / NC) * rows * NC + r * NC + (c % NC)],
                    rowmajor[r * cols + c],
                    "row {r} col {c}"
                );
            }
            // Tail lanes past the last real column stay zero.
            for lane in cols % NC..NC {
                assert_eq!(packed[(cols / NC) * rows * NC + r * NC + lane], 0);
            }
        }
    }

    /// The filter-based gather [`TapList::new`] replaced: each filter's
    /// nonzero `(row, weight)` pairs among its first `rows` taps, and the
    /// offsets where each filter's pairs start and end.
    fn gather_filtered(wrows: &[Vec<i32>], rows: usize) -> (Vec<(u32, i32)>, Vec<usize>) {
        let mut offs = vec![0];
        let mut nnz = Vec::new();
        for w in wrows {
            let taps = w[..rows].iter().enumerate().filter(|(_, &v)| v != 0);
            nnz.extend(taps.map(|(r, &v)| (r as u32, v)));
            offs.push(nnz.len());
        }
        (nnz, offs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The branch-free gather against the filter-based one: chunks of 1
        /// to `MR` filters; `rows` the whole row or, as `gemm_accumulate`
        /// may pass it, a strict prefix with nonzero taps past its end;
        /// zero fractions 0, 0.4 and 1 (the last leaves every span empty);
        /// and the weights `i32::MIN`, `-1` and `i32::MAX`, whose signs
        /// must come back out of the packed entries as `sweep_block` reads
        /// them.
        #[test]
        fn tap_list_matches_the_filtered_gather(
            filters in 1usize..=MR,
            (len, cut, prefix) in (1usize..=40, any::<u32>(), any::<bool>()),
            zeros in prop_oneof![Just(0.0f64), Just(0.4), Just(1.0)],
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = if prefix && len > 1 { cut as usize % (len - 1) + 1 } else { len };
            let weight = |rng: &mut StdRng| {
                if rng.gen_bool(zeros) {
                    return 0;
                }
                [i32::MIN, -1, i32::MAX, rng.gen_range(1..=64)][rng.gen_range(0..4usize)]
            };
            let wrows: Vec<Vec<i32>> =
                (0..filters).map(|_| (0..len).map(|_| weight(&mut rng)).collect()).collect();
            let taps = TapList::new(wrows.iter().map(Vec::as_slice), rows);
            let (nnz, offs) = gather_filtered(&wrows, rows);
            prop_assert_eq!(&taps.offs, &offs);
            let entries: Vec<(u32, i32)> =
                taps.nnz.iter().map(|&tap| ((tap >> 32) as u32, tap as i32)).collect();
            prop_assert_eq!(entries, nnz);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The row-run packer against the row-major im2col spec, group by
        /// group: kernels up to 7x7 (rectangular too), strides 1-3, unequal
        /// pads, and output planes with a partial last block or (with
        /// `whole_blocks`) a width of exactly `NC`.
        #[test]
        fn pack_patches_is_lane_interleaved_im2col_on_random_layouts(
            (kh, kw) in (1usize..=7, 1usize..=7),
            stride in 1usize..=3,
            (pad_h, pad_w) in (0usize..=3, 0usize..=3),
            (groups, cg) in (1usize..=3, 1usize..=3),
            (h, w) in (1usize..=20, 1usize..=20),
            whole_blocks in any::<bool>(),
        ) {
            let w = if whole_blocks { (NC - 1) * stride + kw - 2 * pad_w } else { w.max(kw) };
            let in_shape = Shape::new(groups * cg, h.max(kh), w);
            let input = Tensor::from_fn(in_shape, |c, y, x| {
                ((c * in_shape.height + y) * in_shape.width + x) as i32 + 1
            });
            let spec = ConvSpec {
                out_channels: groups,
                kernel: Kernel::new(kh, kw),
                stride,
                pad_h,
                pad_w,
                groups,
            };
            let out_shape =
                codesign_dnn::layer::infer_output(&codesign_dnn::LayerOp::Conv(spec), in_shape)
                    .expect("the input covers the kernel");
            let (rows, cols) = (cg * kh * kw, out_shape.plane());
            prop_assert!(!whole_blocks || cols % NC == 0);
            for group in 0..groups {
                let rowmajor = crate::im2col::im2col(&input, &spec, group, out_shape);
                let packed = pack_patches(&input, &spec, group, out_shape);
                prop_assert_eq!(packed.len(), cols.div_ceil(NC) * rows * NC);
                for r in 0..rows {
                    for col in 0..cols {
                        prop_assert_eq!(
                            packed[(col / NC) * rows * NC + r * NC + col % NC],
                            rowmajor[r * cols + col]
                        );
                    }
                    // Lanes past the last pixel of a partial block stay zero.
                    for lane in (cols - 1) % NC + 1..NC {
                        prop_assert_eq!(
                            packed[(cols / NC) * rows * NC + r * NC + lane],
                            0
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fc_gemm_matches_reference() {
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..20 {
            let n = rng.gen_range(1..50);
            let k = rng.gen_range(1..50);
            let input = Tensor::random(Shape::new(n, 1, 1), 64, &mut rng);
            let w = Filters::random(k, n, 1, 1, 16, 0.4, &mut rng);
            let want = fully_connected(&input, &w).unwrap();
            let got = fully_connected_gemm(&input, &w, 1).unwrap();
            assert_eq!(got, want);
        }
        let bad = Filters::zeros(4, 7, 1, 1);
        let input = Tensor::zeros(Shape::new(3, 1, 1));
        assert!(fully_connected_gemm(&input, &bad, 1).is_err());
    }

    #[test]
    fn valid_range_clips_both_sides() {
        // extent_in 5, stride 1, pad 2: tap 0 starts reading at -2.
        assert_eq!(valid_range(9, 0, 1, 0, 2, 5), (2, 7));
        // tap 4 starts at +2: valid until input runs out.
        assert_eq!(valid_range(9, 0, 1, 4, 2, 5), (0, 3));
        // stride 2: output 1 reads input 0.
        assert_eq!(valid_range(4, 0, 2, 0, 2, 5), (1, 4));
        // offset shifts the window (tile starting at out index 3).
        assert_eq!(valid_range(4, 3, 1, 0, 2, 5), (0, 4));
        // degenerate cases.
        assert_eq!(valid_range(4, 0, 0, 0, 0, 5), (0, 0));
        assert_eq!(valid_range(4, 0, 1, 0, 0, 0), (0, 0));
        // tap beyond the input entirely.
        assert_eq!(valid_range(4, 0, 1, 7, 0, 5), (0, 0));
    }

    #[test]
    fn gemm_rejects_mismatched_filters() {
        let input = Tensor::zeros(Shape::new(3, 8, 8));
        let bad = Filters::zeros(8, 4, 3, 3);
        let spec = ConvSpec {
            out_channels: 8,
            kernel: Kernel::square(3),
            stride: 1,
            pad_h: 1,
            pad_w: 1,
            groups: 1,
        };
        assert!(conv2d_gemm(&input, &bad, &spec, 1).is_err());
    }
}
